//! Metric names, units and the result line.
//!
//! Every invocation produces an [`Outcome`]: the full list of named metrics
//! of its workload (printed one per line), the output checks, provenance, and
//! the one-line JSON result whose `metrics` object carries exactly the
//! declared metrics of the mode — [`END_TO_END`] untraced, [`PER_LAYER`]
//! traced.

use std::fmt::Write as _;

/// How a metric is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A simulated count or ratio: repeats bit-for-bit for a given seed.
    Exact,
    /// Wall-clock time or a rate over wall-clock time.
    Timed,
    /// A per-layer figure from the traced replay.
    Layer,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::Timed => "timed",
            Kind::Layer => "layer",
        }
    }
}

/// The end-to-end metrics every untraced invocation reports in its result
/// line, whatever the workload: `(name, unit)`. `throughput_per_s` is the
/// workload's headline rate — node-cycles per second on `bootstrap`,
/// lookups per second on `serve_churn`, exchanges per second on `wire`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_heap_mib", "MiB"),
];

/// The per-layer metrics every traced invocation reports, whatever the
/// workload: `(name, unit)`. A layer the workload never executes reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("engine.plan_s", "s"),
    ("engine.execute_s", "s"),
    ("engine.commit_s", "s"),
    ("engine.measure_s", "s"),
    ("engine.exchanges", "count"),
    ("sampling.sample_us", "us"),
    ("sampling.step_us", "us"),
    ("compact.unpack_us", "us"),
    ("compact.repack_us", "us"),
    ("message.create_us", "us"),
    ("message.descriptors", "count"),
    ("leafset.update_us", "us"),
    ("leafset.changed_frac", "frac"),
    ("prefix_table.update_us", "us"),
    ("prefix_table.inserted_per_merge", "count"),
    ("node.receive_us", "us"),
    ("node.select_peer_us", "us"),
    ("convergence.oracle_build_s", "s"),
    ("convergence.measure_node_us", "us"),
    ("convergence.measured_nodes", "count"),
    ("routing.route_us", "us"),
    ("routing.hops", "count"),
    ("routing.dead_contact_frac", "frac"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.bytes_per_datagram", "bytes"),
    ("driver.sweep_ms", "ms"),
    ("driver.datagrams_per_s", "1/s"),
    ("driver.datagrams_per_exchange", "count"),
    ("driver.cpu_us_per_exchange", "us"),
    ("driver.sys_cpu_frac", "frac"),
    ("exchange.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// How it was obtained.
    pub kind: Kind,
    /// The measured value.
    pub value: f64,
}

/// One output check: a name, whether it held, and what was seen.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// The observed values behind the verdict.
    pub detail: String,
}

/// Everything one invocation measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations the invocation issued (exchanges, lookups or datagrams).
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// Every named metric, in report order.
    pub metrics: Vec<Metric>,
    /// The output checks.
    pub checks: Vec<Check>,
    /// Provenance and workload parameters, as `(key, value)` pairs.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, kind: Kind, value: f64) {
        self.metrics.push(Metric {
            name,
            unit,
            kind,
            value,
        });
    }

    /// Reports 0 for declared per-layer metrics of layers the workload never
    /// runs.
    pub fn push_unused_layers(&mut self, names: &[&'static str]) {
        for &name in names {
            let unit = PER_LAYER
                .iter()
                .find(|(declared, _)| *declared == name)
                .map(|(_, unit)| *unit)
                .expect("a declared per-layer metric");
            self.push(name, unit, Kind::Layer, 0.0);
        }
    }

    /// Adds an output check.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    /// Adds a provenance note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// The value of the metric called `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every output check held (and there was at least one).
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    /// The metrics of kind [`Kind::Exact`], for bit-for-bit comparisons.
    pub fn exact(&self) -> Vec<(&'static str, u64)> {
        self.metrics
            .iter()
            .filter(|m| m.kind == Kind::Exact)
            .map(|m| (m.name, m.value.to_bits()))
            .collect()
    }

    /// The exact metrics as `name=value` pairs, for check details.
    pub fn exact_summary(&self) -> String {
        self.metrics
            .iter()
            .filter(|m| m.kind == Kind::Exact)
            .map(|m| format!("{}={}", m.name, format_value(m.value)))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Puts the metrics named in `order` first, in that order, keeping the
    /// others after them in their own order.
    pub fn sort_metrics(&mut self, order: &[(&str, &str)]) {
        let rank = |name: &str| {
            order
                .iter()
                .position(|(n, _)| *n == name)
                .unwrap_or(order.len())
        };
        self.metrics.sort_by_key(|m| rank(m.name));
    }

    /// The human-readable report: provenance, one line per metric, one line
    /// per check.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.notes {
            let _ = writeln!(out, "note   {key} = {value}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {:<32} {:>16} {:<6} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.kind.label()
            );
        }
        for c in &self.checks {
            let verdict = if c.passed { "pass" } else { "FAIL" };
            let _ = writeln!(out, "check  {:<32} {verdict}  {}", c.name, c.detail);
        }
        out
    }

    /// The one-line JSON result carrying exactly the `declared` metrics.
    /// A declared metric the outcome lacks is an error in the benchmark.
    pub fn result_line(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let metric = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if metric.unit != *unit {
                return Err(format!("metric {name} has unit {} not {unit}", metric.unit));
            }
            if !metric.value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                format_value(metric.value)
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// A finite `f64` in the shortest form that reads back to the same value,
/// always with a decimal point or exponent so JSON readers see a number.
fn format_value(value: f64) -> String {
    let text = format!("{value:?}");
    if text.contains(['.', 'e', 'E', 'N', 'i']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.push("setup_s", "s", Kind::Timed, 0.25);
        outcome.push("throughput_per_s", "1/s", Kind::Timed, 1000.0);
        outcome.push("peak_heap_mib", "MiB", Kind::Timed, 12.5);
        outcome.push("extra", "count", Kind::Exact, 1.0);
        outcome.check("ok", true, String::new());
        let line = outcome.result_line(&END_TO_END).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"throughput_per_s\": {\"value\": 1000.0, \"unit\": \"1/s\"}, \
             \"peak_heap_mib\": {\"value\": 12.5, \"unit\": \"MiB\"}}}"
        );
        assert!(outcome.result_line(&PER_LAYER).is_err());
    }

    #[test]
    fn declared_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}

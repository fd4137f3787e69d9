//! The simulator workloads, timed from outside through `Experiment`.
//!
//! One run is timed by an observer that stamps the wall clock at its first
//! callback and at every measured cycle (every cycle: the cadence is 1). The
//! time from the call into `Experiment::run_observed` to the first callback
//! is the run's set-up (building the registry, initialising every node,
//! building the convergence oracle) plus the exchanges of cycle 0; the
//! cycles after cycle 0, stamp to stamp, give the throughput. The report and
//! the final snapshot then give the exact metrics.

use crate::host::{self, HostProbe};
use crate::metrics::{Kind, Outcome};
use crate::stats::{mean, median, ratio};
use crate::workload::SimSpec;
use bss_core::convergence::{ConvergenceOracle, NetworkConvergence};
use bss_core::experiment::{Experiment, ExperimentConfig, PopulationSnapshot, RunReport};
use bss_core::routing::DEFAULT_MAX_HOPS;
use bss_core::scenario::{Observer, ScenarioEvent};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Per-cycle lookup success at or above which the service counts as
/// recovered from the churn burst.
const RECOVERED_SUCCESS: f64 = 0.99;

/// One timed run.
#[derive(Debug)]
pub struct Rep {
    /// The run's report.
    pub report: RunReport,
    /// Every alive node's final state.
    pub snapshot: PopulationSnapshot,
    /// Seconds from the call to the observer's first callback.
    pub setup_s: f64,
    /// Seconds from each cycle's observation to the next one's (cycles 1
    /// onwards), host probes left out.
    pub cycle_s: Vec<f64>,
    /// Seconds of the whole call.
    pub wall_s: f64,
    /// Peak live heap during the run, in MiB.
    pub peak_mib: f64,
    /// Whether the run observed every cycle of its budget (a deadline can
    /// cut it short).
    pub complete: bool,
    /// The host probe's seconds at each measured cycle (empty when the run
    /// had no probe).
    pub probe_s: Vec<f64>,
}

impl Rep {
    /// Seconds from the cycle-0 observation to the last one.
    pub fn cycles_s(&self) -> f64 {
        self.cycle_s.iter().sum()
    }

    /// The set-up time at nominal host speed, by the probe that followed it.
    pub fn adjusted_setup_s(&self) -> f64 {
        match self.probe_s.first() {
            Some(&after) => self.setup_s / host::slowdown(after, after),
            None => self.setup_s,
        }
    }

    /// Every cycle's time at nominal host speed, by the probes just before
    /// and after it.
    pub fn adjusted_cycle_s(&self) -> Vec<f64> {
        if self.probe_s.len() != self.cycle_s.len() + 1 {
            return self.cycle_s.clone();
        }
        self.cycle_s
            .iter()
            .zip(self.probe_s.windows(2))
            .map(|(&cycle, pair)| cycle / host::slowdown(pair[0], pair[1]))
            .collect()
    }
}

/// Stamps the wall clock at the observer's first callback (a scenario event
/// opening at cycle 0 comes before that cycle's lookups and measurement)
/// and at every measured cycle, where it also runs the host probe, if any,
/// outside the timed intervals. Stops the run at the first cycle after the
/// deadline, if any.
struct Stamps<'a> {
    first: Option<Instant>,
    /// When each measured cycle's observation arrived and when the observer
    /// returned.
    cycles: Vec<(Instant, Instant)>,
    probe: Option<&'a mut HostProbe>,
    /// The probe's seconds at each measured cycle.
    probe_s: Vec<f64>,
    deadline: Option<Instant>,
}

impl Observer for Stamps<'_> {
    fn on_cycle(&mut self, _cycle: u64, _measured: &NetworkConvergence) -> ControlFlow<()> {
        let arrived = Instant::now();
        self.first.get_or_insert(arrived);
        if let Some(probe) = self.probe.as_deref_mut() {
            self.probe_s.push(probe.sample());
        }
        let left = Instant::now();
        self.cycles.push((arrived, left));
        match self.deadline {
            Some(deadline) if left >= deadline => ControlFlow::Break(()),
            _ => ControlFlow::Continue(()),
        }
    }

    fn on_scenario_event(&mut self, _cycle: u64, _event: &ScenarioEvent) {
        self.first.get_or_insert_with(Instant::now);
    }
}

/// Runs `config` once, stamping every observed cycle and probing the host
/// between cycles when given a probe; a deadline cuts the run short at the
/// first cycle after it. The heap peak leaves the probe out.
pub fn run_rep(
    config: &ExperimentConfig,
    probe: Option<&mut HostProbe>,
    deadline: Option<Instant>,
) -> Rep {
    let probe_mib = probe.as_deref().map_or(0.0, HostProbe::heap_mib);
    let mut stamps = Stamps {
        first: None,
        cycles: Vec::with_capacity(config.max_cycles as usize + 1),
        probe,
        probe_s: Vec::with_capacity(config.max_cycles as usize + 1),
        deadline,
    };
    bss_bench::alloc::reset_peak();
    let start = Instant::now();
    let (report, snapshot) = Experiment::new(config.clone()).run_observed(&mut stamps);
    let wall_s = start.elapsed().as_secs_f64();
    let peak_mib = bss_bench::alloc::peak_kib() as f64 / 1024.0 - probe_mib;
    Rep {
        complete: stamps.cycles.len() as u64 == config.max_cycles,
        probe_s: stamps.probe_s,
        report,
        snapshot,
        setup_s: stamps
            .first
            .unwrap_or(start)
            .duration_since(start)
            .as_secs_f64(),
        cycle_s: stamps
            .cycles
            .windows(2)
            .map(|pair| pair[1].0.duration_since(pair[0].1).as_secs_f64())
            .collect(),
        wall_s,
        peak_mib,
    }
}

/// Records the workload's parameters and seed on `outcome`.
pub fn note_spec(spec: &SimSpec, seed: u64, outcome: &mut Outcome) {
    outcome.note("workload", spec.name);
    outcome.note("seed", seed);
    outcome.note("params.nodes", spec.nodes);
    outcome.note("params.cycles", spec.cycles);
    outcome.note(
        "params.engine",
        match spec.event_latency_ms {
            Some((min, max)) => format!("event, uniform {min}-{max} ms links"),
            None => format!("cycle, {} threads", spec.threads),
        },
    );
    outcome.note(
        "params.sampler",
        if spec.newscast { "newscast" } else { "oracle" },
    );
    outcome.note(
        "params.descriptor_max_age",
        spec.max_age.map_or("off".to_string(), |a| a.to_string()),
    );
    if let Some(churn) = spec.churn {
        outcome.note(
            "params.churn",
            format!(
                "{} per cycle over cycles [{}, {})",
                churn.rate, churn.phase.start, churn.phase.end
            ),
        );
    }
    if let Some(lookups) = spec.lookups {
        outcome.note(
            "params.lookups",
            format!(
                "{} per cycle, Zipf({}) keys, Pastry, open loop",
                lookups.per_cycle, lookups.zipf
            ),
        );
    }
}

/// The exact (simulated) metrics of one run, as an outcome holding only
/// metrics. `bootstrap`-shaped workloads (no traffic) report convergence;
/// traffic workloads report the lookup service.
pub fn exact_metrics(spec: &SimSpec, rep: &Rep) -> Outcome {
    let mut out = Outcome::default();
    let report = &rep.report;
    let end = report.final_state();
    let traffic = report.traffic();
    out.push(
        "missing_entries_end",
        "count",
        Kind::Exact,
        (end.leaf_missing + end.prefix_missing) as f64,
    );
    out.push(
        "exchanges",
        "count",
        Kind::Exact,
        traffic.requests_sent as f64,
    );
    out.push(
        "exchanges_unanswered",
        "count",
        Kind::Exact,
        (traffic.requests_sent - traffic.answers_delivered) as f64,
    );
    match report.lookups() {
        None => {
            out.push(
                "convergence_cycle",
                "cycle",
                Kind::Exact,
                report.convergence_cycle().unwrap_or(spec.cycles) as f64,
            );
            out.push("failed_frac", "frac", Kind::Exact, imperfect_fraction(rep));
        }
        Some(lookups) => {
            out.push(
                "lookups_issued",
                "count",
                Kind::Exact,
                lookups.issued() as f64,
            );
            out.push("lookup_hops_mean", "hops", Kind::Exact, lookups.mean_hops());
            out.push(
                "lookup_hops_max",
                "hops",
                Kind::Exact,
                lookups.max_hops() as f64,
            );
            let window_median = |series: &bss_util::stats::Series| {
                median(&series.points().iter().map(|&(_, v)| v).collect::<Vec<_>>())
            };
            out.push(
                "lookup_latency_p50_ms",
                "ms",
                Kind::Exact,
                window_median(lookups.latency_p50_series()),
            );
            out.push(
                "lookup_latency_p99_ms",
                "ms",
                Kind::Exact,
                window_median(lookups.latency_p99_series()),
            );
            let burst_end = spec.churn.map_or(0, |c| c.phase.end);
            let recovered = lookups
                .success_series()
                .points()
                .iter()
                .find(|&&(cycle, success)| cycle >= burst_end && success >= RECOVERED_SUCCESS)
                .map_or(spec.cycles, |&(cycle, _)| cycle);
            out.push(
                "churn_recovery_cycles",
                "cycles",
                Kind::Exact,
                recovered.saturating_sub(burst_end) as f64,
            );
            out.push(
                "failed_frac",
                "frac",
                Kind::Exact,
                1.0 - lookups.success_rate(),
            );
        }
    }
    out
}

/// Nodes whose tables are not perfect at the end, over all alive nodes.
fn imperfect_fraction(rep: &Rep) -> f64 {
    let snapshot = &rep.snapshot;
    let params = rep.report.config().params;
    let oracle = ConvergenceOracle::new(snapshot.ids(), &params);
    let imperfect = (0..snapshot.len())
        .filter_map(|i| snapshot.node_at(i))
        .filter(|node| {
            let measured = oracle.measure_node(*node);
            measured.leaf_missing + measured.prefix_missing > 0
        })
        .count();
    ratio(imperfect as f64, snapshot.len() as f64)
}

/// The time of one whole run, cycle by cycle: for every cycle after cycle 0,
/// the mean time of the runs that reached it, summed. Every run of a seed
/// does the same simulated work cycle by cycle, so a run cut short by the
/// deadline still counts for the cycles it reached.
pub fn whole_run_s(runs_cycle_s: &[Vec<f64>]) -> f64 {
    let cycles = runs_cycle_s.iter().map(Vec::len).max().unwrap_or(0);
    (0..cycles)
        .map(|c| {
            let reached: Vec<f64> = runs_cycle_s
                .iter()
                .filter_map(|run| run.get(c).copied())
                .collect();
            mean(&reached)
        })
        .sum()
}

/// The untraced invocation of a simulator workload: set-up samples from
/// one-cycle runs (which also warm the process up), then one whole run, then
/// more runs until `seconds` have passed, the last one cut short at the
/// deadline. The host probe runs after every measured cycle, and every
/// timed interval is taken at nominal host speed by the probes around it
/// ([`Rep::adjusted_cycle_s`]). Rates come from [`whole_run_s`]. Every whole
/// run must repeat the first one's exact metrics.
/// `attempted` and `failed` count the operations of one run, so they depend
/// on the seed only.
pub fn timed(spec: &SimSpec, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    host::record_provenance(&mut outcome);
    note_spec(spec, seed, &mut outcome);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut probe = HostProbe::new();

    let (mut setup, mut raw_setup) = (Vec::new(), Vec::new());
    let one_cycle = spec.config(seed, 1, false);
    for _ in 0..spec.setup_runs {
        let rep = run_rep(&one_cycle, Some(&mut probe), None);
        raw_setup.push(rep.setup_s);
        setup.push(rep.adjusted_setup_s());
    }

    let config = spec.config(seed, spec.cycles, false);
    let (mut runs_cycle_s, mut raw_runs_cycle_s) = (Vec::new(), Vec::new());
    let mut peaks = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut repeat_ok = true;
    loop {
        // The first run always completes: it gives the exact metrics.
        let rep = run_rep(
            &config,
            Some(&mut probe),
            first.is_some().then_some(deadline),
        );
        raw_setup.push(rep.setup_s);
        setup.push(rep.adjusted_setup_s());
        raw_runs_cycle_s.push(rep.cycle_s.clone());
        runs_cycle_s.push(rep.adjusted_cycle_s());
        if rep.complete {
            peaks.push(rep.peak_mib);
            let exact = exact_metrics(spec, &rep);
            match &first {
                None => first = Some(exact),
                Some(first) => repeat_ok &= first.exact() == exact.exact(),
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let exact = first.expect("the first run is whole");
    let runs = peaks.len();
    let run_s = whole_run_s(&runs_cycle_s);
    let measured_cycles = spec.cycles as f64 - 1.0;

    outcome.note(
        "runs",
        format!("{runs} whole, {} in all", runs_cycle_s.len()),
    );
    outcome.note("setup_samples", setup.len());
    probe.note(&mut outcome);
    outcome.note(
        "unadjusted",
        format!(
            "setup_s {:.6}, run_s_after_cycle_0 {:.4}",
            median(&raw_setup),
            whole_run_s(&raw_runs_cycle_s)
        ),
    );
    outcome.push("setup_s", "s", Kind::Timed, median(&setup));
    let node_cycles_per_s = ratio(spec.nodes as f64 * measured_cycles, run_s);
    outcome.push("node_cycles_per_s", "1/s", Kind::Timed, node_cycles_per_s);
    let throughput = match spec.lookups {
        None => node_cycles_per_s,
        Some(lookups) => {
            let rate = ratio(f64::from(lookups.per_cycle) * measured_cycles, run_s);
            outcome.push("lookups_per_s", "1/s", Kind::Timed, rate);
            rate
        }
    };
    outcome.push("throughput_per_s", "1/s", Kind::Timed, throughput);
    outcome.push("peak_heap_mib", "MiB", Kind::Timed, median(&peaks));
    for metric in &exact.metrics {
        if !matches!(
            metric.name,
            "exchanges" | "exchanges_unanswered" | "lookups_issued"
        ) {
            outcome.metrics.push(metric.clone());
        }
    }

    outcome.check(
        "exact_metrics_repeat",
        repeat_ok,
        format!(
            "{runs} whole runs of seed {seed}: {}",
            exact.exact_summary()
        ),
    );
    match spec.lookups {
        None => {
            let unanswered = exact.get("exchanges_unanswered").unwrap_or(f64::NAN);
            outcome.attempted = exact.get("exchanges").unwrap_or(0.0) as u64;
            outcome.failed = unanswered as u64;
            outcome.check(
                "every_exchange_answered",
                unanswered == 0.0,
                format!("{unanswered} exchanges unanswered without loss"),
            );
        }
        Some(lookups) => {
            let issued = exact.get("lookups_issued").unwrap_or(0.0) as u64;
            let expected = u64::from(lookups.per_cycle) * spec.cycles;
            // An undelivered lookup is the service's measured outcome under
            // cold start and churn (`failed_frac`), not a wrong answer; a
            // lookup the traffic driver lost or invented is.
            outcome.attempted = expected;
            outcome.failed = expected.abs_diff(issued);
            outcome.check(
                "lookups_issued_match_rate",
                issued == expected,
                format!("issued {issued}, rate x active cycles {expected}"),
            );
            let max_hops = exact.get("lookup_hops_max").unwrap_or(f64::NAN);
            outcome.check(
                "routes_within_hop_limit",
                max_hops < DEFAULT_MAX_HOPS as f64,
                format!("longest delivered route {max_hops} hops, limit {DEFAULT_MAX_HOPS}"),
            );
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::whole_run_s;

    #[test]
    fn a_cut_run_counts_for_the_cycles_it_reached() {
        assert_eq!(whole_run_s(&[]), 0.0);
        assert_eq!(whole_run_s(&[vec![1.0, 2.0, 4.0]]), 7.0);
        assert_eq!(whole_run_s(&[vec![1.0, 2.0, 4.0], vec![3.0]]), 8.0);
    }
}

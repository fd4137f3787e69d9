//! Determinism of the benchmark's own code on shrunken workloads: every
//! `exact` metric repeats bit for bit across runs, between the traced and
//! the untraced run, and for `bootstrap` between 1 and 2 threads; every
//! declared metric is emitted with its unit.

use perfbench::workload::{SimSpec, WireSpec};
use perfbench::{sim, trace, wire, Outcome, END_TO_END, PER_LAYER};

const SEED: u64 = 11;

fn bootstrap(threads: usize) -> SimSpec {
    let mut spec = SimSpec::bootstrap().shrunk(256, 12);
    spec.threads = threads;
    spec
}

fn serve_churn() -> SimSpec {
    SimSpec::serve_churn().shrunk(256, 20)
}

fn assert_declared(outcome: &Outcome, declared: &[(&str, &str)]) {
    if let Err(message) = outcome.result_line(declared) {
        panic!("{message}\n{}", outcome.report());
    }
}

#[test]
fn bootstrap_exact_metrics_repeat_across_runs_and_threads() {
    let first = sim::timed(&bootstrap(2), SEED, 0.0);
    // A longer invocation makes more runs; what it reports must not change.
    let second = sim::timed(&bootstrap(2), SEED, 0.5);
    let sequential = sim::timed(&bootstrap(1), SEED, 0.0);
    assert!(first.correct(), "{}", first.report());
    assert!(!first.exact().is_empty());
    assert_eq!(first.exact(), second.exact());
    assert_eq!(
        (first.attempted, first.failed),
        (second.attempted, second.failed)
    );
    assert_eq!(first.exact(), sequential.exact());
    assert_declared(&first, &END_TO_END);
}

#[test]
fn serve_churn_exact_metrics_repeat_across_runs() {
    let first = sim::timed(&serve_churn(), SEED, 0.0);
    let second = sim::timed(&serve_churn(), SEED, 0.5);
    assert!(first.correct(), "{}", first.report());
    assert!(first.exact().len() > 3);
    assert_eq!(first.exact(), second.exact());
    assert_eq!(
        (first.attempted, first.failed),
        (second.attempted, second.failed)
    );
    assert_eq!(first.failed, 0);
    assert_declared(&first, &END_TO_END);
}

#[test]
fn traced_simulator_runs_agree_with_untraced_and_emit_every_layer() {
    for spec in [bootstrap(2), serve_churn()] {
        let outcome = trace::sim_traced(&spec, SEED);
        // Includes the check that the traced run's exact metrics equal the
        // untraced run's.
        assert!(outcome.correct(), "{}", outcome.report());
        assert_declared(&outcome, &PER_LAYER);
    }
}

#[test]
fn wire_emits_every_metric() {
    let spec = WireSpec::full().shrunk(32);
    let timed = wire::timed(&spec, SEED, 1.5);
    if timed.checks.iter().any(|c| c.name == "bind") {
        eprintln!("skipping: loopback UDP unavailable\n{}", timed.report());
        return;
    }
    assert_declared(&timed, &END_TO_END);
    let traced = wire::traced(&spec, SEED);
    assert_declared(&traced, &PER_LAYER);
    assert!(traced
        .checks
        .iter()
        .any(|c| c.name == "replay_decodes" && c.passed));
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let compact: String = text.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "{name} ({unit}) not declared");
    }
    assert_eq!(
        compact.matches("\"better\"").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares metrics the benchmark does not emit"
    );
}

//! # perfbench — the repository's benchmark
//!
//! Three workloads measure the bootstrapping service from outside, through
//! its public API, with tracing off:
//!
//! * `bootstrap` — the paper's claim itself: N = 2^13 nodes build perfect
//!   leaf sets and prefix tables on the parallel cycle engine (2 threads),
//!   oracle sampler, no loss, a fixed 40-cycle budget;
//! * `serve_churn` — the tables carrying traffic: N = 2^11 on the event
//!   engine over NEWSCAST with descriptor aging, a 2 %/cycle churn burst and
//!   an open loop of 100k Zipf(1.1) Pastry lookups per cycle;
//! * `wire` — one single-thread `NetDriver` with 512 loopback peers, driven
//!   by the benchmark's own `poll_once` loop at an offered rate several times
//!   what the loop sustains.
//!
//! A separate traced invocation ([`trace`]) replays state captured from the
//! same workload and seed through each module's public functions and reports
//! per-layer self times and counts.
//!
//! Run `cargo run --release --manifest-path perfbench/Cargo.toml -- --help`
//! from the repository root; `perfbench/README.md` explains the workloads,
//! the metrics and how they relate.

#![forbid(unsafe_code)]

pub mod host;
pub mod metrics;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;

pub use metrics::{Kind, Metric, Outcome, END_TO_END, PER_LAYER};
pub use workload::Workload;

/// Every binary linking the benchmark counts its live heap, so runs can
/// report their peak (`bss_bench::alloc`).
#[global_allocator]
static ALLOC: bss_bench::alloc::CountingAllocator = bss_bench::alloc::CountingAllocator;

/// Runs one invocation of the benchmark: `workload` at `seed` for about
/// `seconds` seconds, traced or not. Returns the full outcome; the caller
/// prints it.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut outcome = match (workload.spec(), traced) {
        (workload::Spec::Sim(spec), false) => sim::timed(&spec, seed, seconds),
        (workload::Spec::Sim(spec), true) => trace::sim_traced(&spec, seed),
        (workload::Spec::Wire(spec), false) => wire::timed(&spec, seed, seconds),
        (workload::Spec::Wire(spec), true) => wire::traced(&spec, seed),
    };
    outcome.sort_metrics(if traced { &PER_LAYER } else { &END_TO_END });
    outcome
}

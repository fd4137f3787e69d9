//! The three workloads and their parameters.

use bss_core::experiment::{ExperimentConfig, SamplerChoice};
use bss_core::scenario::{Engine, KeyDist, LatencyModel, Phase, ScenarioEvent};
use bss_core::RouterKind;
use bss_traffic::TrafficWorkload;
use bss_util::config::{BootstrapParams, NewscastParams};
use std::str::FromStr;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Building perfect tables from scratch.
    Bootstrap,
    /// Serving lookups through a churn burst.
    ServeChurn,
    /// The single-loop UDP driver at capacity.
    Wire,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Bootstrap, Workload::ServeChurn, Workload::Wire];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bootstrap => "bootstrap",
            Workload::ServeChurn => "serve_churn",
            Workload::Wire => "wire",
        }
    }

    /// The full-size parameters the benchmark measures.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Bootstrap => Spec::Sim(SimSpec::bootstrap()),
            Workload::ServeChurn => Spec::Sim(SimSpec::serve_churn()),
            Workload::Wire => Spec::Wire(WireSpec::full()),
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?} (bootstrap, serve_churn, wire)"))
    }
}

/// A workload's parameters.
#[derive(Debug, Clone)]
pub enum Spec {
    /// A simulator workload.
    Sim(SimSpec),
    /// The UDP driver workload.
    Wire(WireSpec),
}

/// Churn applied during a simulator workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// Cycles `[start, end)` of the burst.
    pub phase: Phase,
    /// Fraction of the alive nodes replaced per burst cycle.
    pub rate: f64,
}

/// The open-loop lookup traffic of a simulator workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lookups {
    /// Lookups issued per cycle, every cycle of the budget.
    pub per_cycle: u32,
    /// Zipf exponent of the key distribution over the alive population.
    pub zipf: f64,
}

/// The parameters of a simulator workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Workload name (for reports).
    pub name: &'static str,
    /// Network size.
    pub nodes: usize,
    /// Cycle budget; the perfection stop is off, so every run executes it all.
    pub cycles: u64,
    /// Worker threads of the cycle engine (ignored on the event engine).
    pub threads: usize,
    /// Run on the discrete-event engine with uniform link latency
    /// `[min, max]` ms instead of the cycle engine.
    pub event_latency_ms: Option<(u64, u64)>,
    /// Run over NEWSCAST instead of the oracle sampler.
    pub newscast: bool,
    /// Descriptor aging bound in cycles.
    pub max_age: Option<u64>,
    /// Churn burst, if any.
    pub churn: Option<Churn>,
    /// Lookup traffic, if any.
    pub lookups: Option<Lookups>,
    /// Cycles at which the traced run captures its mid-run and late-run
    /// snapshots.
    pub snapshot_cycles: [u64; 2],
    /// Exchanges replayed per snapshot by the traced run.
    pub replay_exchanges: usize,
    /// Lookups routed per snapshot by the traced run.
    pub replay_lookups: usize,
    /// One-cycle runs made before the timed runs, as set-up samples and
    /// warm-up.
    pub setup_runs: usize,
}

impl SimSpec {
    /// `bootstrap`: 2^13 nodes, oracle sampler, no loss, parallel cycle
    /// engine at 2 threads, 40 cycles.
    pub fn bootstrap() -> Self {
        SimSpec {
            name: "bootstrap",
            nodes: 1 << 13,
            cycles: 40,
            threads: 2,
            event_latency_ms: None,
            newscast: false,
            max_age: None,
            churn: None,
            lookups: None,
            snapshot_cycles: [10, 30],
            replay_exchanges: 10_000,
            replay_lookups: 0,
            setup_runs: 8,
        }
    }

    /// `serve_churn`: 2^11 nodes on the event engine (5–50 ms links) over
    /// NEWSCAST, aging 8, a 2 %/cycle churn burst over cycles [10, 16), and
    /// 100k Zipf(1.1) Pastry lookups per cycle for 40 cycles.
    pub fn serve_churn() -> Self {
        SimSpec {
            name: "serve_churn",
            nodes: 1 << 11,
            cycles: 40,
            threads: 1,
            event_latency_ms: Some((5, 50)),
            newscast: true,
            max_age: Some(8),
            churn: Some(Churn {
                phase: Phase::new(10, 16),
                rate: 0.02,
            }),
            lookups: Some(Lookups {
                per_cycle: 100_000,
                zipf: 1.1,
            }),
            snapshot_cycles: [13, 30],
            replay_exchanges: 10_000,
            replay_lookups: 20_000,
            setup_runs: 8,
        }
    }

    /// A shrunken copy for tests: `nodes` nodes, `cycles` cycles, traffic
    /// and replay sizes scaled down, churn and snapshots kept inside the
    /// budget.
    pub fn shrunk(&self, nodes: usize, cycles: u64) -> Self {
        let scale = |c: u64| c * cycles / self.cycles;
        SimSpec {
            nodes,
            cycles,
            churn: self.churn.map(|churn| Churn {
                phase: Phase::new(scale(churn.phase.start), scale(churn.phase.end)),
                ..churn
            }),
            lookups: self.lookups.map(|lookups| Lookups {
                per_cycle: 500,
                ..lookups
            }),
            snapshot_cycles: self.snapshot_cycles.map(scale),
            replay_exchanges: 300,
            replay_lookups: self.replay_lookups.min(300),
            setup_runs: 1,
            ..self.clone()
        }
    }

    /// The experiment configuration for `seed`, run for `cycles` cycles,
    /// with the cycle engine's phase profile on or off.
    pub fn config(&self, seed: u64, cycles: u64, profile: bool) -> ExperimentConfig {
        let params = BootstrapParams::paper_default();
        let mut builder = ExperimentConfig::builder();
        builder
            .network_size(self.nodes)
            .seed(seed)
            .params(params)
            .max_cycles(cycles)
            .stop_when_perfect(false)
            .profile(profile);
        builder.engine(match self.event_latency_ms {
            Some((min_millis, max_millis)) => Engine::Event {
                latency: LatencyModel::Uniform {
                    min_millis,
                    max_millis,
                },
            },
            None => Engine::with_threads(self.threads),
        });
        if self.newscast {
            builder.sampler(SamplerChoice::Newscast(NewscastParams::paper_default()));
        }
        builder.descriptor_max_age(self.max_age);
        if let Some(churn) = self.churn {
            builder.event(ScenarioEvent::ChurnBurst {
                phase: churn.phase,
                rate: churn.rate,
            });
        }
        if let Some(lookups) = self.lookups {
            TrafficWorkload::new(Phase::new(0, cycles))
                .lookups_per_cycle(lookups.per_cycle)
                .key_dist(KeyDist::Zipf {
                    exponent: lookups.zipf,
                })
                .router(RouterKind::Pastry)
                .install(&mut builder);
        }
        builder.build().expect("workload parameters are valid")
    }
}

/// The parameters of the `wire` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSpec {
    /// In-process peers behind the one driver.
    pub peers: usize,
    /// The active period Δ in milliseconds (the driver's floor is 10).
    pub cycle_millis: u64,
    /// Start-up contacts per peer.
    pub contacts_per_peer: usize,
    /// Seconds of polling before the measured window, so tables have filled.
    pub warmup_s: f64,
    /// Length of one throughput sub-window in seconds; the reported rate is
    /// the median over sub-windows.
    pub window_s: f64,
    /// Driver binds made as set-up samples (the last one is measured).
    pub setup_binds: usize,
    /// Seconds of each of the traced run's two measured windows.
    pub traced_window_s: f64,
    /// Exchanges replayed by the traced run.
    pub replay_exchanges: usize,
}

impl WireSpec {
    /// `wire`: 512 loopback peers at Δ = 10 ms, an offered rate of 51.2k
    /// exchanges per second.
    pub fn full() -> Self {
        WireSpec {
            peers: 512,
            cycle_millis: 10,
            contacts_per_peer: 20,
            warmup_s: 3.0,
            window_s: 1.0,
            setup_binds: 31,
            traced_window_s: 6.0,
            replay_exchanges: 10_000,
        }
    }

    /// A shrunken copy for tests: `peers` peers, short windows.
    pub fn shrunk(&self, peers: usize) -> Self {
        WireSpec {
            peers,
            warmup_s: 0.5,
            window_s: 0.25,
            setup_binds: 2,
            traced_window_s: 0.5,
            replay_exchanges: 200,
            ..self.clone()
        }
    }

    /// The protocol parameters the peers run with.
    pub fn params(&self) -> BootstrapParams {
        BootstrapParams {
            cycle_millis: self.cycle_millis,
            ..BootstrapParams::paper_default()
        }
    }

    /// The rate the peers' timers offer: one exchange per peer per Δ.
    pub fn offered_per_s(&self) -> f64 {
        self.peers as f64 * 1000.0 / self.cycle_millis as f64
    }
}

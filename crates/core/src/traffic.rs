//! Live lookup traffic over the bootstrapping overlay.
//!
//! The paper's argument is that the bootstrapped tables are *useful*: once the
//! service has built everyone's leaf set and prefix table, a routing substrate
//! can serve key lookups over them. `bss_overlay::LookupEvaluator` proves that
//! for a frozen post-run snapshot; this module proves it *during* the run.
//! [`LookupTraffic`] drives an open-loop workload — a configured number of
//! lookups per cycle, keys drawn uniformly or Zipf-skewed — and resolves every
//! lookup iteratively against nodes' **current** tables, so routing quality
//! degrades when a churn burst or an id-spray attack corrupts the tables and
//! recovers as the protocol repairs them. Each hop reads the node's packed
//! state in place through a [`PackedView`] over
//! [`BootstrapProtocol::id_arena`]; no node is rehydrated, so a Pastry hop
//! touches only the leaf set and the one prefix slot the target belongs to.
//!
//! Per measured cycle the driver folds its window counters into six series on
//! the [`RunReport`](crate::experiment::RunReport): lookup success rate, hop
//! mean and max, and latency percentiles p50/p95/p99 computed by charging each
//! hop through the run's link model
//! ([`ExperimentConfig::link_model`](crate::experiment::ExperimentConfig)).
//! Under a [`LatencyModel::Wan`] link model the driver additionally keeps one
//! window per placement region (keyed by the *client*'s region), charges each
//! delivered lookup along its actual hop path at the pure per-link WAN
//! latency, and replays the scenario's regional outages at the service level:
//! a lookup issued from — or targeting — an outaged region fails before
//! routing starts. Everything is capability-gated on
//! [`Scenario::has_traffic`](crate::scenario::Scenario): runs without a
//! traffic phase build no driver, draw no random numbers and emit no traffic
//! series, so their reports stay byte-identical.
//!
//! Determinism: the driver owns a private [`SimRng`] stream seeded from
//! `config.seed ^ TRAFFIC_SALT`, never touching the engine or protocol
//! streams. Lookups run in the sequential observer phase of every engine, so
//! the parallel cycle engine stays bit-for-bit identical at any thread count.

use crate::compact::PackedView;
use crate::experiment::ExperimentConfig;
use crate::protocol::BootstrapProtocol;
use crate::routing::{route, Contact, RouterKind, TableSource, DEFAULT_MAX_HOPS};
use crate::scenario::{KeyDist, LatencyModel, Phase};
use bss_sampling::sampler::PeerSampler;
use bss_sim::engine::cycle::EngineContext;
use bss_sim::link::WanLink;
use bss_sim::network::{Network, NodeIndex};
use bss_util::geometry::TableGeometry;
use bss_util::rng::SimRng;
use bss_util::stats::{Series, StreamingHistogram};

/// XOR-folded into the experiment seed for the traffic RNG stream, so lookup
/// draws never perturb the protocol or engine streams (ASCII "traffic!").
/// Public so parity tests can replay the exact lookup sequence a run issued.
pub const TRAFFIC_SALT: u64 = 0x7472_6166_6669_6321;

/// A [`TableSource`] over the live packed population: contacts resolve by
/// registry address and must answer to the identifier the descriptor
/// advertised — a node that is dead, uninitialised, or holds a different
/// identifier (a forged id-spray descriptor) fails the hop. A resolved hop is
/// a [`PackedView`] borrowed from the protocol's packed store.
struct LiveTables<'a, S: PeerSampler> {
    protocol: &'a BootstrapProtocol<S>,
    network: &'a Network,
    geometry: TableGeometry,
}

impl<S: PeerSampler> TableSource for LiveTables<'_, S> {
    type View<'a>
        = PackedView<'a>
    where
        Self: 'a;

    fn resolve(&self, contact: Contact) -> Option<PackedView<'_>> {
        if !self.network.is_alive(contact.address) {
            return None;
        }
        let packed = self.protocol.packed_node(contact.address)?;
        let ids = self.protocol.id_arena();
        (ids[contact.address.as_usize()] == contact.id)
            .then(|| packed.view(contact.id, ids, self.geometry))
    }
}

/// Counters accumulated over one measurement window (and, separately, over the
/// whole run).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    issued: u64,
    delivered: u64,
    hops_sum: u64,
    hops_max: u64,
}

impl Counters {
    fn absorb(&mut self, delivered: bool, hops: u64) {
        self.issued += 1;
        if delivered {
            self.delivered += 1;
            self.hops_sum += hops;
            self.hops_max = self.hops_max.max(hops);
        }
    }

    fn success_rate(&self) -> f64 {
        if self.issued == 0 {
            1.0
        } else {
            self.delivered as f64 / self.issued as f64
        }
    }

    fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.delivered as f64
        }
    }
}

/// Per-region window state of a WAN traffic run: counters and latency
/// histogram over the lookups *issued by* clients of one placement region,
/// flushed into per-region series on measured cycles.
#[derive(Debug)]
struct RegionWindow {
    window: Counters,
    latency: StreamingHistogram,
    success_series: Series,
    p50_series: Series,
    p99_series: Series,
}

/// WAN-only traffic state: a pure link model over the run's shared placement
/// (for path-distance charging), the scenario's regional windows replayed at
/// the service level, and one [`RegionWindow`] per placement region.
#[derive(Debug)]
struct WanTraffic {
    link: WanLink,
    outages: Vec<(Phase, u32, f64)>,
    slowdowns: Vec<(Phase, Option<u32>, f64)>,
    regions: Vec<RegionWindow>,
}

impl WanTraffic {
    /// Builds the WAN state when `latency` is a WAN model; `None` otherwise.
    fn for_config(
        config: &ExperimentConfig,
        latency: &LatencyModel,
        bucket_width: u64,
    ) -> Option<Self> {
        let LatencyModel::Wan { params, .. } = *latency else {
            return None;
        };
        let placement = config
            .placement()
            .expect("a wan latency model always builds a placement");
        let regions = (0..placement.region_count())
            .map(|region| RegionWindow {
                window: Counters::default(),
                latency: StreamingHistogram::with_buckets(bucket_width, DEFAULT_MAX_HOPS + 2),
                success_series: Series::new(format!("lookup_success_r{region}")),
                p50_series: Series::new(format!("lookup_latency_p50_r{region}")),
                p99_series: Series::new(format!("lookup_latency_p99_r{region}")),
            })
            .collect();
        Some(WanTraffic {
            link: WanLink::new(placement, params, config.seed),
            outages: config.scenario.regional_outages().collect(),
            slowdowns: config.scenario.slow_link_windows().collect(),
            regions,
        })
    }

    /// Placement region of a node's registry address.
    fn region_of(&self, node: NodeIndex) -> u32 {
        self.link.placement().region(node.as_usize())
    }

    /// Service-level outage gate: one loss coin per active outage window
    /// touching the client's or the target's region, mirroring what
    /// [`LinkTransport`](bss_sim::link::LinkTransport) does per message.
    fn outage_drops(&self, cycle: u64, src: u32, tgt: u32, rng: &mut SimRng) -> bool {
        for &(phase, region, loss) in &self.outages {
            if phase.contains(cycle)
                && loss > 0.0
                && (src == region || tgt == region)
                && rng.chance(loss)
            {
                return true;
            }
        }
        false
    }

    /// Total latency of one delivered lookup along `path`: each consecutive
    /// hop charged at the pure per-link WAN latency, scaled by every active
    /// slow-link window matching that hop. Draws nothing.
    fn charge_path(&self, cycle: u64, path: &[Contact]) -> u64 {
        let mut total = 0u64;
        for pair in path.windows(2) {
            let (from, to) = (pair[0].address, pair[1].address);
            let base = self.link.link_latency(from, to);
            let mut factor = 1.0f64;
            for &(phase, region, window_factor) in &self.slowdowns {
                if phase.contains(cycle) {
                    let matches = match region {
                        None => true,
                        Some(r) => self.region_of(from) == r || self.region_of(to) == r,
                    };
                    if matches {
                        factor *= window_factor;
                    }
                }
            }
            total += if factor == 1.0 {
                base
            } else {
                ((base as f64) * factor).round() as u64
            }
            .max(1);
        }
        total
    }
}

/// The per-run lookup traffic driver. Built by the measurement layer only when
/// the scenario carries a [`TrafficPhase`](crate::scenario::ScenarioEvent);
/// every other run pays nothing.
#[derive(Debug)]
pub struct LookupTraffic {
    router: RouterKind,
    phases: Vec<(Phase, u32, KeyDist)>,
    latency: LatencyModel,
    rng: SimRng,
    path: Vec<Contact>,
    /// The alive population, rebuilt each active cycle in ascending registry
    /// order (so Zipf rank 0 is registry index 0 — the id-spray attack's
    /// default victim, letting skewed traffic compose with the attack).
    alive: Vec<Contact>,
    /// Cumulative Zipf weights over `alive` positions (empty under uniform
    /// keys).
    zipf_cumulative: Vec<f64>,
    window: Counters,
    totals: Counters,
    window_latency: StreamingHistogram,
    /// WAN-only state (placement, path charging, regional windows); `None`
    /// under the placement-free link models.
    wan: Option<WanTraffic>,
    success_series: Series,
    hop_mean_series: Series,
    hop_max_series: Series,
    p50_series: Series,
    p95_series: Series,
    p99_series: Series,
}

impl LookupTraffic {
    /// Builds the driver for `config`, or `None` when its scenario schedules
    /// no traffic phase — the capability gate that keeps every other run free
    /// of traffic costs.
    pub fn for_config(config: &ExperimentConfig) -> Option<Self> {
        if !config.scenario.has_traffic() {
            return None;
        }
        let latency = config.link_model();
        // One bucket per possible hop at the per-hop latency ceiling keeps the
        // window histogram exact for constant latency and allocation-free
        // either way; anything past the ceiling saturates into the last
        // bucket.
        let (_, max_millis) = latency.bounds();
        let bucket_width = max_millis.max(1);
        Some(LookupTraffic {
            router: config.traffic_router,
            phases: config.scenario.traffic_phases().collect(),
            wan: WanTraffic::for_config(config, &latency, bucket_width),
            latency,
            rng: SimRng::seed_from(config.seed ^ TRAFFIC_SALT),
            path: Vec::with_capacity(DEFAULT_MAX_HOPS + 1),
            alive: Vec::with_capacity(config.network_size),
            zipf_cumulative: Vec::new(),
            window: Counters::default(),
            totals: Counters::default(),
            window_latency: StreamingHistogram::with_buckets(bucket_width, DEFAULT_MAX_HOPS + 2),
            success_series: Series::new("lookup_success"),
            hop_mean_series: Series::new("lookup_hop_mean"),
            hop_max_series: Series::new("lookup_hop_max"),
            p50_series: Series::new("lookup_latency_p50"),
            p95_series: Series::new("lookup_latency_p95"),
            p99_series: Series::new("lookup_latency_p99"),
        })
    }

    /// The workload scheduled for `cycle`, if any.
    fn active(&self, cycle: u64) -> Option<(u32, KeyDist)> {
        self.phases
            .iter()
            .find(|(phase, _, _)| phase.contains(cycle))
            .map(|&(_, rate, dist)| (rate, dist))
    }

    /// Issues this cycle's lookups against the live tables. Runs every cycle a
    /// traffic phase is active (not just measured ones), so the totals really
    /// are the sustained workload.
    pub fn drive_cycle<S: PeerSampler>(
        &mut self,
        protocol: &BootstrapProtocol<S>,
        ctx: &EngineContext,
        cycle: u64,
    ) {
        let Some((rate, dist)) = self.active(cycle) else {
            return;
        };
        self.alive.clear();
        self.alive
            .extend(ctx.network.alive_indices().map(|node| Contact {
                id: ctx.network.id(node),
                address: node,
            }));
        if self.alive.is_empty() {
            return;
        }
        if let KeyDist::Zipf { exponent } = dist {
            self.zipf_cumulative.clear();
            let mut total = 0.0;
            for rank in 0..self.alive.len() {
                total += 1.0 / ((rank + 1) as f64).powf(exponent);
                self.zipf_cumulative.push(total);
            }
        }
        let LookupTraffic {
            router,
            latency,
            rng,
            path,
            alive,
            zipf_cumulative,
            window,
            totals,
            window_latency,
            wan,
            ..
        } = self;
        let mut tables = LiveTables {
            protocol,
            network: &ctx.network,
            geometry: protocol
                .params()
                .geometry()
                .expect("parameters validated by the protocol"),
        };
        for _ in 0..rate {
            let source = alive[rng.index(alive.len())];
            let target = match dist {
                KeyDist::Uniform => alive[rng.index(alive.len())],
                KeyDist::Zipf { .. } => {
                    let total = *zipf_cumulative.last().expect("population is non-empty");
                    let draw = rng.unit_f64() * total;
                    let position = zipf_cumulative.partition_point(|&cum| cum < draw);
                    alive[position.min(alive.len() - 1)]
                }
            };
            // Service-level regional outages: a lookup issued from — or
            // targeting — an outaged region fails before routing starts, the
            // way a real client behind a dead uplink would time out.
            let src_region = wan.as_ref().map(|state| state.region_of(source.address));
            if let (Some(state), Some(src)) = (wan.as_ref(), src_region) {
                let tgt = state.region_of(target.address);
                if state.outage_drops(cycle, src, tgt, rng) {
                    window.absorb(false, 0);
                    totals.absorb(false, 0);
                    wan.as_mut().expect("checked above").regions[src as usize]
                        .window
                        .absorb(false, 0);
                    continue;
                }
            }
            let routed = route(
                &mut tables,
                *router,
                source,
                target.id,
                DEFAULT_MAX_HOPS,
                path,
            );
            window.absorb(routed.delivered(), routed.hops);
            totals.absorb(routed.delivered(), routed.hops);
            let millis = if routed.delivered() {
                Some(match wan.as_ref() {
                    Some(state) => state.charge_path(cycle, path),
                    None => charge(latency, rng, routed.hops),
                })
            } else {
                None
            };
            if let Some(millis) = millis {
                window_latency.record(millis);
            }
            if let (Some(state), Some(src)) = (wan.as_mut(), src_region) {
                let bucket = &mut state.regions[src as usize];
                bucket.window.absorb(routed.delivered(), routed.hops);
                if let Some(millis) = millis {
                    bucket.latency.record(millis);
                }
            }
        }
    }

    /// Folds the current window into the per-cycle series (measured cycles
    /// only). Windows in which no lookup was issued push nothing, so calm
    /// stretches outside the traffic phase leave no points.
    pub fn flush_window(&mut self, cycle: u64) {
        if let Some(state) = self.wan.as_mut() {
            for bucket in &mut state.regions {
                if bucket.window.issued == 0 {
                    continue;
                }
                bucket
                    .success_series
                    .push(cycle, bucket.window.success_rate());
                bucket
                    .p50_series
                    .push(cycle, bucket.latency.percentile(0.50));
                bucket
                    .p99_series
                    .push(cycle, bucket.latency.percentile(0.99));
                bucket.window = Counters::default();
                bucket.latency.reset();
            }
        }
        if self.window.issued == 0 {
            return;
        }
        self.success_series.push(cycle, self.window.success_rate());
        self.hop_mean_series.push(cycle, self.window.mean_hops());
        self.hop_max_series.push(cycle, self.window.hops_max as f64);
        self.p50_series
            .push(cycle, self.window_latency.percentile(0.50));
        self.p95_series
            .push(cycle, self.window_latency.percentile(0.95));
        self.p99_series
            .push(cycle, self.window_latency.percentile(0.99));
        self.window = Counters::default();
        self.window_latency.reset();
    }

    /// Freezes the driver into the report-side summary.
    pub fn into_report(self) -> LookupTrafficReport {
        let (region_success_series, region_p50_series, region_p99_series) = match self.wan {
            Some(state) => {
                let mut success = Vec::with_capacity(state.regions.len());
                let mut p50 = Vec::with_capacity(state.regions.len());
                let mut p99 = Vec::with_capacity(state.regions.len());
                for bucket in state.regions {
                    success.push(bucket.success_series);
                    p50.push(bucket.p50_series);
                    p99.push(bucket.p99_series);
                }
                (success, p50, p99)
            }
            None => (Vec::new(), Vec::new(), Vec::new()),
        };
        LookupTrafficReport {
            router: self.router,
            issued: self.totals.issued,
            delivered: self.totals.delivered,
            hops_sum: self.totals.hops_sum,
            hops_max: self.totals.hops_max,
            success_series: self.success_series,
            hop_mean_series: self.hop_mean_series,
            hop_max_series: self.hop_max_series,
            p50_series: self.p50_series,
            p95_series: self.p95_series,
            p99_series: self.p99_series,
            region_success_series,
            region_p50_series,
            region_p99_series,
        }
    }
}

/// Total latency of one delivered lookup under the placement-free models:
/// each hop charged through the run's [`LatencyModel`]. A constant model
/// draws no randomness (hops × millis); a uniform model draws one latency per
/// hop from the traffic stream. WAN runs never reach this — they charge along
/// the actual hop path (see [`WanTraffic::charge_path`]).
fn charge(latency: &LatencyModel, rng: &mut SimRng, hops: u64) -> u64 {
    match *latency {
        LatencyModel::Constant { millis } => hops * millis,
        LatencyModel::Uniform {
            min_millis,
            max_millis,
        } => {
            if min_millis == max_millis {
                hops * min_millis
            } else {
                (0..hops)
                    .map(|_| rng.range_u64(min_millis, max_millis + 1))
                    .sum()
            }
        }
        LatencyModel::Wan { .. } => {
            unreachable!("wan lookups charge by path distance, not per-hop draws")
        }
    }
}

/// The traffic summary a [`RunReport`](crate::experiment::RunReport) carries
/// for runs that scheduled a traffic phase: run totals plus the six
/// per-measured-cycle series.
#[derive(Debug, Clone)]
pub struct LookupTrafficReport {
    router: RouterKind,
    issued: u64,
    delivered: u64,
    hops_sum: u64,
    hops_max: u64,
    success_series: Series,
    hop_mean_series: Series,
    hop_max_series: Series,
    p50_series: Series,
    p95_series: Series,
    p99_series: Series,
    region_success_series: Vec<Series>,
    region_p50_series: Vec<Series>,
    region_p99_series: Vec<Series>,
}

impl LookupTrafficReport {
    /// The router kind that resolved the lookups.
    pub fn router(&self) -> RouterKind {
        self.router
    }

    /// Total lookups issued over the run.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total lookups that reached the node owning the target identifier.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Delivered over issued (1.0 when no lookup was issued).
    pub fn success_rate(&self) -> f64 {
        if self.issued == 0 {
            1.0
        } else {
            self.delivered as f64 / self.issued as f64
        }
    }

    /// Mean hops over delivered lookups (0 when none were delivered).
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.delivered as f64
        }
    }

    /// The longest delivered lookup, in hops.
    pub fn max_hops(&self) -> u64 {
        self.hops_max
    }

    /// Per measured cycle, delivered / issued within the window.
    pub fn success_series(&self) -> &Series {
        &self.success_series
    }

    /// Per measured cycle, mean hops over the window's delivered lookups.
    pub fn hop_mean_series(&self) -> &Series {
        &self.hop_mean_series
    }

    /// Per measured cycle, the window's longest delivered lookup in hops.
    pub fn hop_max_series(&self) -> &Series {
        &self.hop_max_series
    }

    /// Per measured cycle, the median delivered-lookup latency in
    /// milliseconds.
    pub fn latency_p50_series(&self) -> &Series {
        &self.p50_series
    }

    /// Per measured cycle, the 95th-percentile delivered-lookup latency in
    /// milliseconds.
    pub fn latency_p95_series(&self) -> &Series {
        &self.p95_series
    }

    /// Per measured cycle, the 99th-percentile delivered-lookup latency in
    /// milliseconds.
    pub fn latency_p99_series(&self) -> &Series {
        &self.p99_series
    }

    /// Per placement region, the window success rate of lookups issued by
    /// that region's clients. Empty under the placement-free link models;
    /// with a WAN model, position `r` is region `r`.
    pub fn region_success_series(&self) -> &[Series] {
        &self.region_success_series
    }

    /// Per placement region, the median delivered-lookup latency of that
    /// region's clients (empty without a WAN link model).
    pub fn region_p50_series(&self) -> &[Series] {
        &self.region_p50_series
    }

    /// Per placement region, the 99th-percentile delivered-lookup latency of
    /// that region's clients (empty without a WAN link model).
    pub fn region_p99_series(&self) -> &[Series] {
        &self.region_p99_series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioEvent};

    fn traffic_config(dist: KeyDist) -> ExperimentConfig {
        ExperimentConfig::builder()
            .network_size(64)
            .seed(11)
            .max_cycles(40)
            .scenario(Scenario::calm().with(ScenarioEvent::TrafficPhase {
                phase: Phase::new(20, 30),
                lookups_per_cycle: 50,
                key_dist: dist,
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn the_capability_gate_builds_no_driver_for_calm_runs() {
        let calm = ExperimentConfig::builder().build().unwrap();
        assert!(LookupTraffic::for_config(&calm).is_none());
        assert!(LookupTraffic::for_config(&traffic_config(KeyDist::Uniform)).is_some());
    }

    #[test]
    fn constant_latency_charges_hops_times_millis_without_randomness() {
        let mut rng = SimRng::seed_from(1);
        let before = rng.clone();
        assert_eq!(
            charge(&LatencyModel::Constant { millis: 7 }, &mut rng, 3),
            21
        );
        assert_eq!(rng, before, "constant latency must not advance the stream");
        let total = charge(
            &LatencyModel::Uniform {
                min_millis: 10,
                max_millis: 20,
            },
            &mut rng,
            4,
        );
        assert!((40..=80).contains(&total), "{total}");
        assert_ne!(rng, before, "uniform latency draws per hop");
    }

    #[test]
    fn zipf_draws_favour_the_first_alive_position() {
        let config = traffic_config(KeyDist::Zipf { exponent: 1.2 });
        let mut traffic = LookupTraffic::for_config(&config).unwrap();
        // Build the cumulative table the way drive_cycle does and sample it.
        let population = 64usize;
        let mut total = 0.0;
        for rank in 0..population {
            total += 1.0 / ((rank + 1) as f64).powf(1.2);
            traffic.zipf_cumulative.push(total);
        }
        let mut hits = vec![0u64; population];
        for _ in 0..20_000 {
            let draw = traffic.rng.unit_f64() * total;
            let position = traffic.zipf_cumulative.partition_point(|&cum| cum < draw);
            hits[position.min(population - 1)] += 1;
        }
        assert!(
            hits[0] > hits[population / 2] * 10,
            "rank 0 ({}) should dwarf rank {} ({})",
            hits[0],
            population / 2,
            hits[population / 2]
        );
        assert!(hits.iter().all(|&h| h < 20_000), "not degenerate");
    }

    #[test]
    fn empty_windows_push_no_points() {
        let config = traffic_config(KeyDist::Uniform);
        let mut traffic = LookupTraffic::for_config(&config).unwrap();
        traffic.flush_window(3);
        assert!(traffic.success_series.is_empty());
        // A window with traffic pushes exactly one point per series.
        traffic.window.absorb(true, 2);
        traffic.window_latency.record(2);
        traffic.flush_window(21);
        assert_eq!(traffic.success_series.points(), &[(21, 1.0)]);
        assert_eq!(traffic.hop_mean_series.points(), &[(21, 2.0)]);
        assert_eq!(traffic.p50_series.points(), &[(21, 2.0)]);
        // ... and the flush resets the window.
        assert_eq!(traffic.window.issued, 0);
        assert_eq!(traffic.window_latency.count(), 0);
    }
}

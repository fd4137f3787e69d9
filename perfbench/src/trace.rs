//! The traced run: spans, and the per-layer replay of captured state.
//!
//! The end-to-end numbers come from untraced runs. A traced invocation runs
//! the same workload and seed once more with the engine's phase profile on,
//! captures mid-run and late-run [`PopulationSnapshot`]s, and replays sampled
//! exchanges, lookups and measurements through each module's public calls in
//! exchange order. Every call sits inside a span recorded by the benchmark
//! (name, start, end, parent); spans stay in memory and are written out when
//! the run ends, and a layer's figure is its spans' self time.

use crate::metrics::{Kind, Outcome};
use crate::sim;
use crate::stats::{median, ratio};
use crate::workload::SimSpec;
use bss_core::compact::CompactNode;
use bss_core::convergence::ConvergenceOracle;
use bss_core::leafset::MergeScratch;
use bss_core::message::MessageScratch;
use bss_core::node::BootstrapNode;
use bss_core::routing::{route, Contact, RouteEnd, RouterKind, SnapshotTables, DEFAULT_MAX_HOPS};
use bss_core::PopulationSnapshot;
use bss_sampling::newscast::NewscastProtocol;
use bss_sampling::sampler::{OracleSampler, PeerSampler};
use bss_sim::engine::cycle::EngineContext;
use bss_sim::network::{Network, NodeIndex};
use bss_util::config::BootstrapParams;
use bss_util::descriptor::{Address, Descriptor};
use bss_util::id::NodeId;
use bss_util::rng::SimRng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// XOR-folded into the seed for the replay's own random stream, so replay
/// draws never touch a workload's streams.
const REPLAY_SALT: u64 = 0x7265_706c_6179_2121;

/// Layers whose summed self time stands for the engine's execute phase per
/// exchange: the calls `execute_exchange` makes (unpack, compose, merge,
/// repack). Peer selection and sampler draws belong to the plan phase.
const EXECUTE_LAYERS: [&str; 4] = [
    "compact.unpack",
    "message.create",
    "node.receive",
    "compact.repack",
];

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation (exchange, lookup, sweep …) the span belongs to.
    pub operation: u64,
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans.
    pub calls: u64,
    /// Total self time in seconds.
    pub self_s: f64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    operation: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            operation: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: later spans carry its identifier.
    pub fn next_operation(&mut self) {
        self.operation += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            operation: self.operation,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index as usize].end = self.now();
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    /// Self time (duration minus the children's durations) and call count
    /// per layer.
    pub fn layers(&self) -> HashMap<&'static str, LayerTime> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize] += span.end - span.start;
            }
        }
        let mut layers: HashMap<&'static str, LayerTime> = HashMap::new();
        for (span, child) in self.spans.iter().zip(children) {
            let entry = layers.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_s += (span.end - span.start).saturating_sub(child) as f64 * 1e-9;
        }
        layers
    }

    /// Writes every span as a tab-separated line (name, operation, start ns,
    /// end ns, parent index or -1) under `.bench_out/` in the working
    /// directory, replacing an earlier file of the same name, and returns
    /// the path written.
    pub fn write_out(&self, file_name: &str) -> std::io::Result<String> {
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file_name);
        let mut text = String::from("name\toperation\tstart_ns\tend_ns\tparent\n");
        for span in &self.spans {
            let parent = span.parent.map_or(-1, i64::from);
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{parent}",
                span.name, span.operation, span.start, span.end
            );
        }
        std::fs::write(&path, text)?;
        Ok(path.display().to_string())
    }
}

/// Counts gathered while replaying exchanges.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExchangeCounts {
    /// Exchanges replayed.
    pub exchanges: u64,
    /// Exchanges skipped because the selected peer was not in the population.
    pub dead_peers: u64,
    /// Descriptors in all composed messages.
    pub descriptors: u64,
    /// Messages composed.
    pub messages: u64,
    /// Leaf-set merges.
    pub leaf_merges: u64,
    /// Leaf-set merges that changed the set.
    pub leaf_changed: u64,
    /// Prefix-table merges.
    pub prefix_merges: u64,
    /// Descriptors the prefix-table merges inserted.
    pub prefix_inserted: u64,
}

impl ExchangeCounts {
    /// Adds `more` to these counts.
    pub fn add(&mut self, more: &ExchangeCounts) {
        self.exchanges += more.exchanges;
        self.dead_peers += more.dead_peers;
        self.descriptors += more.descriptors;
        self.messages += more.messages;
        self.leaf_merges += more.leaf_merges;
        self.leaf_changed += more.leaf_changed;
        self.prefix_merges += more.prefix_merges;
        self.prefix_inserted += more.prefix_inserted;
    }
}

/// A captured population: node states plus an identifier index.
#[derive(Debug, Clone)]
pub struct Population<A> {
    /// The node states, in capture order.
    pub nodes: Vec<BootstrapNode<A>>,
    by_id: HashMap<NodeId, usize>,
}

impl<A: Address> Population<A> {
    /// Indexes `nodes` by identifier.
    pub fn new(nodes: Vec<BootstrapNode<A>>) -> Self {
        let by_id = nodes.iter().enumerate().map(|(i, n)| (n.id(), i)).collect();
        Population { nodes, by_id }
    }

    /// The position of the node with identifier `id`.
    pub fn position(&self, id: NodeId) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// `count` random descriptors of other nodes, stamped `now` — the stand-in
    /// for the sampler's `cr` draws (the sampler itself is measured apart).
    fn samples(&self, own: usize, count: usize, now: u64, rng: &mut SimRng) -> Vec<Descriptor<A>> {
        (0..count)
            .map(|_| rng.index(self.nodes.len()))
            .filter(|&i| i != own)
            .map(|i| self.nodes[i].own_descriptor().refreshed(now))
            .collect()
    }
}

impl Population<NodeIndex> {
    /// Copies the states out of a simulator snapshot.
    pub fn from_snapshot(snapshot: &PopulationSnapshot) -> Self {
        let nodes = (0..snapshot.len())
            .filter_map(|i| snapshot.node_at(i).cloned())
            .collect();
        Population::new(nodes)
    }

    /// The index → identifier arena `CompactNode` packs against, covering
    /// every address any stored descriptor names.
    fn id_arena(&self) -> Vec<NodeId> {
        let mut ids = Vec::new();
        let mut record = |d: &Descriptor<NodeIndex>| {
            let index = d.address().as_usize();
            if ids.len() <= index {
                ids.resize(index + 1, NodeId::new(0));
            }
            ids[index] = d.id();
        };
        for node in &self.nodes {
            record(&node.own_descriptor());
            node.leaf_set().iter().for_each(&mut record);
            node.prefix_table().iter().for_each(&mut record);
        }
        ids
    }
}

/// Reusable working memory of the exchange replay.
struct Scratch<A> {
    message: MessageScratch<A>,
    merge: MergeScratch<A>,
    candidates: Vec<Descriptor<A>>,
}

impl<A> Default for Scratch<A> {
    fn default() -> Self {
        Scratch {
            message: MessageScratch::default(),
            merge: MergeScratch::default(),
            candidates: Vec::new(),
        }
    }
}

/// What happens to a composed message between the two nodes: nothing in the
/// simulator, a codec round trip on the wire.
pub trait Transit<A> {
    /// Carries `message` from `sender`, returning what the receiver decodes.
    fn carry(
        &mut self,
        sender: Descriptor<A>,
        message: Vec<Descriptor<A>>,
        request: bool,
        tracer: &mut Tracer,
    ) -> Vec<Descriptor<A>>;
}

/// The simulator's transit: the message arrives as sent.
pub struct InMemory;

impl<A> Transit<A> for InMemory {
    fn carry(
        &mut self,
        _sender: Descriptor<A>,
        message: Vec<Descriptor<A>>,
        _request: bool,
        _tracer: &mut Tracer,
    ) -> Vec<Descriptor<A>> {
        message
    }
}

/// The merge breakdown on clones: `UPDATELEAFSET` and `UPDATEPREFIXTABLE`
/// timed apart (the engine runs both inside `receive_at`), then the real
/// `receive_at` on the node itself.
fn receive<A: Address>(
    node: &mut BootstrapNode<A>,
    message: &[Descriptor<A>],
    now: u64,
    scratch: &mut Scratch<A>,
    tracer: &mut Tracer,
    counts: &mut ExchangeCounts,
) {
    let aging = node.params().descriptor_max_age.is_some();
    let mut leaf = node.leaf_set().clone();
    let changed = tracer.span("leafset.update", || {
        leaf.update_with(message.iter().copied(), &mut scratch.merge)
    });
    let mut table = node.prefix_table().clone();
    let inserted = tracer.span("prefix_table.update", || {
        if aging {
            table.update_refreshing(message.iter().copied())
        } else {
            table.update(message.iter().copied())
        }
    });
    counts.leaf_merges += 1;
    counts.leaf_changed += u64::from(changed);
    counts.prefix_merges += 1;
    counts.prefix_inserted += inserted as u64;
    tracer.span("node.receive", || {
        node.receive_at(message, now, &mut scratch.merge)
    });
}

/// Where the replay's working copies of a node come from and go back to.
pub trait Storage<A> {
    /// Loads the node at `position` into the working copy `node`.
    fn load(&mut self, position: usize, node: &mut BootstrapNode<A>, tracer: &mut Tracer);
    /// Stores a working copy back after its merge.
    fn store(&mut self, node: &BootstrapNode<A>, tracer: &mut Tracer);
}

/// Working copies cloned from the population; nothing is stored back (the
/// wire peers keep fat nodes, so there is no storage layer to measure).
pub struct Cloned<'a, A>(pub &'a Population<A>);

impl<A: Address> Storage<A> for Cloned<'_, A> {
    fn load(&mut self, position: usize, node: &mut BootstrapNode<A>, _tracer: &mut Tracer) {
        node.clone_from(&self.0.nodes[position]);
    }

    fn store(&mut self, _node: &BootstrapNode<A>, _tracer: &mut Tracer) {}
}

/// The simulator's packed storage: working copies are rehydrated from
/// `CompactNode`s with `unpack_into` and packed back with `repack_from`, as
/// the engine's `execute_exchange` does (into a scratch, so the population
/// stays unchanged).
struct Packed {
    ids: Vec<NodeId>,
    addresses: Vec<NodeIndex>,
    packed: Vec<CompactNode>,
    repacked: CompactNode,
}

impl Packed {
    fn new(population: &Population<NodeIndex>) -> Self {
        let ids = population.id_arena();
        Packed {
            addresses: population
                .nodes
                .iter()
                .map(|node| node.own_descriptor().address())
                .collect(),
            packed: population
                .nodes
                .iter()
                .map(|node| CompactNode::pack(node, &ids))
                .collect(),
            ids,
            repacked: CompactNode::default(),
        }
    }
}

impl Storage<NodeIndex> for Packed {
    fn load(&mut self, position: usize, node: &mut BootstrapNode<NodeIndex>, tracer: &mut Tracer) {
        let (packed, address, ids) = (&self.packed[position], self.addresses[position], &self.ids);
        tracer.span("compact.unpack", || packed.unpack_into(address, ids, node));
    }

    fn store(&mut self, node: &BootstrapNode<NodeIndex>, tracer: &mut Tracer) {
        let (repacked, ids) = (&mut self.repacked, &self.ids);
        tracer.span("compact.repack", || repacked.repack_from(node, ids));
    }
}

/// Replays `count` exchanges over `population` at time `now`: random
/// initiators, `SELECTPEER` over their leaf sets, then both messages and
/// both merges on working copies taken from and put back into `storage`.
pub fn replay_exchanges<A: Address>(
    population: &Population<A>,
    storage: &mut impl Storage<A>,
    transit: &mut impl Transit<A>,
    count: usize,
    now: u64,
    rng: &mut SimRng,
    tracer: &mut Tracer,
) -> ExchangeCounts {
    let mut counts = ExchangeCounts::default();
    let mut scratch = Scratch::default();
    let cr = population.nodes[0].params().random_samples;
    let mut a = population.nodes[0].clone();
    let mut b = a.clone();
    for _ in 0..count {
        let initiator = rng.index(population.nodes.len());
        tracer.next_operation();
        tracer.enter("exchange");
        let peer = tracer.span("node.select_peer", || {
            population.nodes[initiator].select_peer_with(rng, &mut scratch.candidates)
        });
        let Some(responder) = peer.and_then(|p| population.position(p.id())) else {
            tracer.exit();
            counts.dead_peers += 1;
            continue;
        };
        let samples_a = population.samples(initiator, cr, now, rng);
        let samples_b = population.samples(responder, cr, now, rng);
        storage.load(initiator, &mut a, tracer);
        storage.load(responder, &mut b, tracer);
        // The engine's order: `a` composes, `b` composes its answer before
        // merging (Fig. 2b), `b` merges the request, `a` merges the answer.
        let (a_id, b_id) = (a.id(), b.id());
        let request = tracer.span("message.create", || {
            a.create_message_at(b_id, &samples_a, true, now, &mut scratch.message)
        });
        let answer = tracer.span("message.create", || {
            b.create_message_at(a_id, &samples_b, false, now, &mut scratch.message)
        });
        counts.messages += 2;
        counts.descriptors += (request.len() + answer.len()) as u64;
        let request = transit.carry(a.own_descriptor(), request, true, tracer);
        let answer = transit.carry(b.own_descriptor(), answer, false, tracer);
        receive(&mut b, &request, now, &mut scratch, tracer, &mut counts);
        receive(&mut a, &answer, now, &mut scratch, tracer, &mut counts);
        counts.exchanges += 1;
        storage.store(&b, tracer);
        storage.store(&a, tracer);
        tracer.exit();
    }
    counts
}

/// Times `ConvergenceOracle::new` over the population (median of three
/// builds, seconds) and `measure_node` over `samples` random nodes (spans).
pub fn replay_convergence<A: Address>(
    population: &Population<A>,
    params: &BootstrapParams,
    samples: usize,
    rng: &mut SimRng,
    tracer: &mut Tracer,
) -> f64 {
    let ids: Vec<NodeId> = population.nodes.iter().map(BootstrapNode::id).collect();
    let mut builds = Vec::new();
    let mut oracle = None;
    for _ in 0..3 {
        let start = Instant::now();
        oracle = Some(ConvergenceOracle::new(ids.iter().copied(), params));
        builds.push(start.elapsed().as_secs_f64());
    }
    let oracle = oracle.expect("built above");
    for _ in 0..samples {
        let node = &population.nodes[rng.index(population.nodes.len())];
        tracer.next_operation();
        let measured = tracer.span("convergence.measure_node", || oracle.measure_node(node));
        std::hint::black_box(measured);
    }
    median(&builds)
}

/// Counts gathered while routing replayed lookups.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteCounts {
    /// Lookups routed.
    pub lookups: u64,
    /// Lookups delivered.
    pub delivered: u64,
    /// Hops over delivered lookups.
    pub hops: u64,
    /// Lookups ended on a contact that no longer answers.
    pub dead_contacts: u64,
    /// Lookups that exhausted the hop budget.
    pub hop_limit: u64,
}

impl RouteCounts {
    /// Adds `more` to these counts.
    pub fn add(&mut self, more: &RouteCounts) {
        self.lookups += more.lookups;
        self.delivered += more.delivered;
        self.hops += more.hops;
        self.dead_contacts += more.dead_contacts;
        self.hop_limit += more.hop_limit;
    }
}

/// Routes `count` Pastry lookups over `snapshot`: uniform random sources,
/// Zipf(`exponent`) targets over the population in ascending registry order
/// (the live traffic driver's key distribution).
pub fn replay_routing(
    snapshot: &PopulationSnapshot,
    count: usize,
    exponent: f64,
    rng: &mut SimRng,
    tracer: &mut Tracer,
) -> RouteCounts {
    let mut contacts: Vec<Contact> = (0..snapshot.len())
        .filter_map(|i| snapshot.node_at(i))
        .map(|node| Contact {
            id: node.id(),
            address: node.own_descriptor().address(),
        })
        .collect();
    contacts.sort_by_key(|c| c.address);
    let mut cumulative = Vec::with_capacity(contacts.len());
    let mut total = 0.0;
    for rank in 0..contacts.len() {
        total += 1.0 / ((rank + 1) as f64).powf(exponent);
        cumulative.push(total);
    }
    let mut tables = SnapshotTables(snapshot);
    let mut path = Vec::with_capacity(DEFAULT_MAX_HOPS + 1);
    let mut counts = RouteCounts::default();
    for _ in 0..count {
        let source = contacts[rng.index(contacts.len())];
        let draw = rng.unit_f64() * total;
        let rank = cumulative
            .partition_point(|&c| c < draw)
            .min(contacts.len() - 1);
        let target = contacts[rank].id;
        tracer.next_operation();
        let routed = tracer.span("routing.route", || {
            route(
                &mut tables,
                RouterKind::Pastry,
                source,
                target,
                DEFAULT_MAX_HOPS,
                &mut path,
            )
        });
        counts.lookups += 1;
        match routed.end {
            RouteEnd::Delivered => {
                counts.delivered += 1;
                counts.hops += routed.hops;
            }
            RouteEnd::DeadContact => counts.dead_contacts += 1,
            RouteEnd::HopLimit => counts.hop_limit += 1,
            RouteEnd::Stuck | RouteEnd::Cycle => {}
        }
    }
    counts
}

/// Times the workload's sampler on a fresh registry of the workload's size:
/// after `warm` gossip rounds, one round of `step` per node and one
/// `sample_into` of `cr` descriptors per node, each in its own span.
fn replay_sampling(spec: &SimSpec, seed: u64, cr: usize, tracer: &mut Tracer) -> u64 {
    let config = spec.config(seed, spec.cycles, false);
    let mut rng = SimRng::seed_from(seed ^ REPLAY_SALT);
    let network = Network::with_random_ids(spec.nodes, &mut rng);
    let mut ctx = EngineContext::new(network, rng);
    match config.sampler {
        bss_core::experiment::SamplerChoice::Oracle => {
            sample_rounds(&mut OracleSampler::new(), spec.nodes, cr, &mut ctx, tracer)
        }
        bss_core::experiment::SamplerChoice::Newscast(params) => sample_rounds(
            &mut NewscastProtocol::new(params),
            spec.nodes,
            cr,
            &mut ctx,
            tracer,
        ),
    }
}

fn sample_rounds<S: PeerSampler>(
    sampler: &mut S,
    nodes: usize,
    cr: usize,
    ctx: &mut EngineContext,
    tracer: &mut Tracer,
) -> u64 {
    const WARM_ROUNDS: u64 = 10;
    sampler.init_all(ctx);
    for cycle in 0..WARM_ROUNDS {
        for node in 0..nodes {
            sampler.step(NodeIndex::new(node as u32), cycle, ctx);
        }
    }
    let mut out = Vec::with_capacity(cr);
    for node in 0..nodes {
        let node = NodeIndex::new(node as u32);
        tracer.next_operation();
        tracer.span("sampling.step", || sampler.step(node, WARM_ROUNDS, ctx));
        out.clear();
        tracer.span("sampling.sample", || {
            sampler.sample_into(node, cr, WARM_ROUNDS, ctx, &mut out)
        });
    }
    2 * nodes as u64
}

/// Per-exchange and per-call figures of the replayed layers, pushed onto
/// `outcome`: the exchange path per replayed exchange (both sides), the
/// others per call. Returns the summed per-exchange self time of the
/// [`EXECUTE_LAYERS`] in microseconds.
pub fn push_layer_metrics(
    outcome: &mut Outcome,
    tracer: &Tracer,
    counts: &ExchangeCounts,
    routes: &RouteCounts,
) -> f64 {
    let layers = tracer.layers();
    let per_exchange = |name: &str| {
        let self_s = layers.get(name).map_or(0.0, |l| l.self_s);
        ratio(self_s * 1e6, counts.exchanges as f64)
    };
    let per_call = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| ratio(l.self_s * 1e6, l.calls as f64))
    };
    outcome.push(
        "sampling.sample_us",
        "us",
        Kind::Layer,
        per_call("sampling.sample"),
    );
    outcome.push(
        "sampling.step_us",
        "us",
        Kind::Layer,
        per_call("sampling.step"),
    );
    outcome.push(
        "compact.unpack_us",
        "us",
        Kind::Layer,
        per_exchange("compact.unpack"),
    );
    outcome.push(
        "compact.repack_us",
        "us",
        Kind::Layer,
        per_exchange("compact.repack"),
    );
    outcome.push(
        "message.create_us",
        "us",
        Kind::Layer,
        per_exchange("message.create"),
    );
    outcome.push(
        "message.descriptors",
        "count",
        Kind::Layer,
        ratio(counts.descriptors as f64, counts.messages as f64),
    );
    outcome.push(
        "leafset.update_us",
        "us",
        Kind::Layer,
        per_exchange("leafset.update"),
    );
    outcome.push(
        "leafset.changed_frac",
        "frac",
        Kind::Layer,
        ratio(counts.leaf_changed as f64, counts.leaf_merges as f64),
    );
    outcome.push(
        "prefix_table.update_us",
        "us",
        Kind::Layer,
        per_exchange("prefix_table.update"),
    );
    outcome.push(
        "prefix_table.inserted_per_merge",
        "count",
        Kind::Layer,
        ratio(counts.prefix_inserted as f64, counts.prefix_merges as f64),
    );
    outcome.push(
        "node.receive_us",
        "us",
        Kind::Layer,
        per_exchange("node.receive"),
    );
    outcome.push(
        "node.select_peer_us",
        "us",
        Kind::Layer,
        per_exchange("node.select_peer"),
    );
    outcome.push(
        "convergence.measure_node_us",
        "us",
        Kind::Layer,
        per_call("convergence.measure_node"),
    );
    outcome.push(
        "routing.route_us",
        "us",
        Kind::Layer,
        per_call("routing.route"),
    );
    outcome.push(
        "routing.hops",
        "count",
        Kind::Layer,
        ratio(routes.hops as f64, routes.delivered as f64),
    );
    outcome.push(
        "routing.dead_contact_frac",
        "frac",
        Kind::Layer,
        ratio(routes.dead_contacts as f64, routes.lookups as f64),
    );
    outcome.push(
        "codec.encode_us",
        "us",
        Kind::Layer,
        per_call("codec.encode"),
    );
    outcome.push(
        "codec.decode_us",
        "us",
        Kind::Layer,
        per_call("codec.decode"),
    );
    EXECUTE_LAYERS
        .iter()
        .map(|name| per_exchange(name))
        .sum::<f64>()
        + per_exchange("codec.encode")
        + per_exchange("codec.decode")
}

/// The traced invocation of a simulator workload.
pub fn sim_traced(spec: &SimSpec, seed: u64) -> Outcome {
    let mut outcome = Outcome::default();
    crate::host::record_provenance(&mut outcome);
    sim::note_spec(spec, seed, &mut outcome);

    // Untraced, traced, untraced again, on the same workload and seed: exact
    // metrics must agree, and the traced run's wall time over the mean of
    // the untraced ones is the tracing overhead (bracketing the traced run
    // keeps drift of the host's speed out of it).
    let untraced = spec.config(seed, spec.cycles, false);
    let before = sim::run_rep(&untraced, None, None);
    let traced = sim::run_rep(&spec.config(seed, spec.cycles, true), None, None);
    let after = sim::run_rep(&untraced, None, None);
    let untraced_exact = sim::exact_metrics(spec, &before);
    let traced_exact = sim::exact_metrics(spec, &traced);
    outcome.check(
        "exact_traced_equals_untraced",
        untraced_exact.exact() == traced_exact.exact(),
        format!("traced {}", traced_exact.exact_summary()),
    );
    let overhead = traced.wall_s / ((before.wall_s + after.wall_s) / 2.0) - 1.0;

    let profile = traced.report.phase_profile().copied().unwrap_or_default();
    let exchanges = traced.report.traffic().requests_sent;
    outcome.push(
        "engine.plan_s",
        "s",
        Kind::Layer,
        profile.plan.as_secs_f64(),
    );
    outcome.push(
        "engine.execute_s",
        "s",
        Kind::Layer,
        profile.execute.as_secs_f64(),
    );
    outcome.push(
        "engine.commit_s",
        "s",
        Kind::Layer,
        profile.commit.as_secs_f64(),
    );
    outcome.push(
        "engine.measure_s",
        "s",
        Kind::Layer,
        profile.measure.as_secs_f64(),
    );
    outcome.push("engine.exchanges", "count", Kind::Layer, exchanges as f64);
    drop((before, after));

    // Replay over the mid-run and late-run snapshots.
    let mut tracer = Tracer::default();
    let mut rng = SimRng::seed_from(seed ^ REPLAY_SALT);
    let mut counts = ExchangeCounts::default();
    let mut routes = RouteCounts::default();
    let mut oracle_builds = Vec::new();
    let params = spec.config(seed, 1, false).params;
    for &cycle in &spec.snapshot_cycles {
        let captured = sim::run_rep(&spec.config(seed, cycle, false), None, None);
        let population = Population::from_snapshot(&captured.snapshot);
        let replayed = replay_exchanges(
            &population,
            &mut Packed::new(&population),
            &mut InMemory,
            spec.replay_exchanges,
            cycle,
            &mut rng,
            &mut tracer,
        );
        counts.add(&replayed);
        oracle_builds.push(replay_convergence(
            &population,
            &params,
            spec.replay_exchanges,
            &mut rng,
            &mut tracer,
        ));
        if let Some(lookups) = spec.lookups {
            let routed = replay_routing(
                &captured.snapshot,
                spec.replay_lookups,
                lookups.zipf,
                &mut rng,
                &mut tracer,
            );
            routes.add(&routed);
        }
    }
    let sampler_calls = replay_sampling(spec, seed, params.random_samples, &mut tracer);

    let attributed_us = push_layer_metrics(&mut outcome, &tracer, &counts, &routes);
    let layers = tracer.layers();
    let measure_node_s = layers
        .get("convergence.measure_node")
        .map_or(0.0, |l| ratio(l.self_s, l.calls as f64));
    outcome.push(
        "convergence.oracle_build_s",
        "s",
        Kind::Layer,
        median(&oracle_builds),
    );
    // The engine does not count its measurements; the cycle engine's measure
    // phase over the replayed per-node cost gives the implied count. Under
    // churn every cycle re-measures every alive node.
    let measured_nodes = if spec.churn.is_some() {
        (spec.nodes as u64 * spec.cycles) as f64
    } else {
        ratio(profile.measure.as_secs_f64(), measure_node_s).round()
    };
    outcome.push(
        "convergence.measured_nodes",
        "count",
        Kind::Layer,
        measured_nodes,
    );
    outcome.push_unused_layers(&[
        "codec.bytes_per_datagram",
        "driver.sweep_ms",
        "driver.datagrams_per_s",
        "driver.datagrams_per_exchange",
        "driver.cpu_us_per_exchange",
        "driver.sys_cpu_frac",
    ]);

    // The engine's execute cost per exchange: the cycle engine's execute
    // phase in CPU-equivalent seconds (wall time × workers). The event
    // engine has no phase profile; its estimate is the cycle wall time less
    // the routed lookups and the full re-measures, per exchange.
    let (engine_us, attributed_us) = if profile.cycles > 0 {
        let engine_us = ratio(
            profile.execute.as_secs_f64() * spec.threads as f64 * 1e6,
            exchanges as f64,
        );
        (engine_us, attributed_us)
    } else {
        let route_s = layers
            .get("routing.route")
            .map_or(0.0, |l| ratio(l.self_s, l.calls as f64));
        let cycles = traced.cycle_s.len() as f64;
        let lookups = spec
            .lookups
            .map_or(0.0, |l| f64::from(l.per_cycle) * cycles);
        let measures = spec.nodes as f64 * cycles;
        let rest = traced.cycles_s() - lookups * route_s - measures * measure_node_s;
        // Without a plan/execute split, peer selection and the sampler (one
        // gossip step and two draws per exchange) count as exchange work.
        let per_call = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |l| ratio(l.self_s * 1e6, l.calls as f64))
        };
        let select_us = ratio(
            layers.get("node.select_peer").map_or(0.0, |l| l.self_s) * 1e6,
            counts.exchanges as f64,
        );
        let sampling_us = per_call("sampling.step") + 2.0 * per_call("sampling.sample");
        (
            ratio(rest * 1e6, exchanges as f64),
            attributed_us + select_us + sampling_us,
        )
    };
    outcome.push(
        "exchange.unattributed_frac",
        "frac",
        Kind::Layer,
        ratio(engine_us - attributed_us, engine_us),
    );
    outcome.push("trace.overhead_frac", "frac", Kind::Layer, overhead);
    outcome.note(
        "trace.engine_execute_us_per_exchange",
        format!("{engine_us:.3}"),
    );
    outcome.note(
        "trace.replayed_execute_us_per_exchange",
        format!("{attributed_us:.3}"),
    );

    outcome.check(
        "replay_routes_within_hop_limit",
        routes.hop_limit == 0,
        format!(
            "{} of {} replayed lookups hit the hop limit",
            routes.hop_limit, routes.lookups
        ),
    );
    outcome.attempted = counts.exchanges + routes.lookups + sampler_calls;
    // Undelivered lookups are the tables' measured state (`routing.*`); a
    // route that runs past the hop limit is a wrong answer.
    outcome.failed = routes.hop_limit;
    match tracer.write_out(&format!("spans-{}.tsv", spec.name)) {
        Ok(path) => outcome.note("trace.spans_file", path),
        Err(error) => outcome.note("trace.spans_file", format!("not written: {error}")),
    }
    outcome
}

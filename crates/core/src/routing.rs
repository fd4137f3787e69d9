//! The one routing-step implementation shared by every lookup consumer.
//!
//! Three routing substrates read the bootstrapped tables: Pastry-style greedy
//! prefix descent, Kademlia-style XOR descent, and Chord-style clockwise
//! finger chasing. Historically each lived in `bss-overlay` and only ran over
//! a frozen post-run [`PopulationSnapshot`]; the live traffic subsystem
//! ([`crate::traffic`]) routes the same way against nodes' *current* tables
//! mid-run. To keep the two byte-identical this module holds the per-hop
//! decision functions once — `bss_overlay`'s `next_hop` / `xor_next_hop` are
//! thin wrappers over [`next_hop`] here — written against the read-only
//! [`TableView`] that both a fat [`BootstrapNode`] and a packed
//! [`CompactNode`](crate::compact::CompactNode) provide, plus the
//! [`TableSource`] abstraction and the shared iterative [`route`] loop that
//! walks either a snapshot or the live packed population.

use crate::experiment::PopulationSnapshot;
use crate::node::BootstrapNode;
use bss_sim::network::NodeIndex;
use bss_util::descriptor::Descriptor;
use bss_util::geometry::TableGeometry;
use bss_util::id::NodeId;
use std::fmt;

/// Which routing substrate interprets the bootstrapped tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Greedy prefix routing in the style of Pastry/Bamboo.
    Pastry,
    /// Greedy XOR-metric descent in the style of Kademlia.
    Kademlia,
    /// Clockwise greedy routing in the style of Chord's finger chasing.
    Chord,
}

impl RouterKind {
    /// All router kinds, in evaluation order.
    pub const ALL: [RouterKind; 3] = [RouterKind::Pastry, RouterKind::Kademlia, RouterKind::Chord];

    /// A short machine-readable name (used in report JSON and TSV columns).
    pub fn label(&self) -> &'static str {
        match self {
            RouterKind::Pastry => "pastry",
            RouterKind::Kademlia => "kademlia",
            RouterKind::Chord => "chord",
        }
    }
}

impl fmt::Display for RouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A routable reference to a node: the identifier the tables advertise plus
/// the registry address the descriptor carried. Live routing resolves by
/// address and checks the answering node really holds `id` — a forged
/// descriptor (the id-spray attack) advertises an identifier its address does
/// not answer to, and the lookup fails at that hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contact {
    /// The advertised identifier.
    pub id: NodeId,
    /// The registry address the descriptor pointed at.
    pub address: NodeIndex,
}

/// The read-only slice of one node's tables a routing decision reads: its own
/// identifier, its prefix-table geometry and its contacts in storage order.
/// The fat [`BootstrapNode`] implements it for snapshots and `bss-overlay`;
/// [`PackedView`](crate::compact::PackedView) implements it straight over the
/// live packed population. Each routing rule below is written once against
/// this view, so the snapshot routers and live traffic cannot drift apart.
pub trait TableView {
    /// The identifier the viewed node holds.
    fn own_id(&self) -> NodeId;

    /// The prefix-table geometry.
    fn geometry(&self) -> TableGeometry;

    /// The leaf-set contacts: successors first, then predecessors.
    fn leaf_contacts(&self) -> impl Iterator<Item = Contact> + '_;

    /// Every prefix-table contact, in slot order.
    fn prefix_contacts(&self) -> impl Iterator<Item = Contact> + '_;

    /// The contacts of one prefix-table slot, in insertion order.
    fn slot_contacts(&self, row: usize, column: u8) -> impl Iterator<Item = Contact> + '_;

    /// Every known contact: the leaf set, then the prefix table.
    fn contacts(&self) -> impl Iterator<Item = Contact> + '_ {
        self.leaf_contacts().chain(self.prefix_contacts())
    }
}

impl<T: TableView + ?Sized> TableView for &T {
    fn own_id(&self) -> NodeId {
        (**self).own_id()
    }

    fn geometry(&self) -> TableGeometry {
        (**self).geometry()
    }

    fn leaf_contacts(&self) -> impl Iterator<Item = Contact> + '_ {
        (**self).leaf_contacts()
    }

    fn prefix_contacts(&self) -> impl Iterator<Item = Contact> + '_ {
        (**self).prefix_contacts()
    }

    fn slot_contacts(&self, row: usize, column: u8) -> impl Iterator<Item = Contact> + '_ {
        (**self).slot_contacts(row, column)
    }
}

impl From<Descriptor<NodeIndex>> for Contact {
    fn from(descriptor: Descriptor<NodeIndex>) -> Self {
        Contact {
            id: descriptor.id(),
            address: descriptor.address(),
        }
    }
}

impl TableView for BootstrapNode<NodeIndex> {
    fn own_id(&self) -> NodeId {
        self.id()
    }

    fn geometry(&self) -> TableGeometry {
        self.prefix_table().geometry()
    }

    fn leaf_contacts(&self) -> impl Iterator<Item = Contact> + '_ {
        self.leaf_set().iter().copied().map(Contact::from)
    }

    fn prefix_contacts(&self) -> impl Iterator<Item = Contact> + '_ {
        self.prefix_table().iter().copied().map(Contact::from)
    }

    fn slot_contacts(&self, row: usize, column: u8) -> impl Iterator<Item = Contact> + '_ {
        self.prefix_table()
            .slot(row, column)
            .iter()
            .copied()
            .map(Contact::from)
    }
}

/// Chooses the next hop from `node` towards `target` under `kind`'s rules.
/// Returns `None` when no known contact improves on the node itself. This is
/// THE routing step: `bss_overlay`'s snapshot routers and the live traffic
/// driver both call it, so their per-hop decisions cannot drift apart.
pub fn next_hop<V: TableView + ?Sized>(
    kind: RouterKind,
    node: &V,
    target: NodeId,
) -> Option<Contact> {
    match kind {
        RouterKind::Pastry => pastry_next_hop(node, target),
        RouterKind::Kademlia => kademlia_next_hop(node, target),
        RouterKind::Chord => chord_next_hop(node, target),
    }
}

/// Pastry's three rules: deliver to an exactly-known contact, else descend the
/// prefix table, else (the "rare case") hop to any strictly closer contact.
fn pastry_next_hop<V: TableView + ?Sized>(node: &V, target: NodeId) -> Option<Contact> {
    let own = node.own_id();
    let geometry = node.geometry();
    // The slot the target belongs to. `PrefixTable::insert` files every entry
    // under the slot of its advertised identifier, so no other slot can hold
    // the target, and rule 2 reads this same slot.
    let (row, column) = geometry.slot_of(own, target)?;

    // Rule 1: the exact target is already a known contact.
    if let Some(contact) = node
        .leaf_contacts()
        .chain(node.slot_contacts(row, column))
        .find(|c| c.id == target)
    {
        return Some(contact);
    }

    // Rule 2: the slot the target belongs to holds an entry sharing a strictly
    // longer prefix with the target than we do.
    if let Some(entry) = node.slot_contacts(row, column).next() {
        return Some(entry);
    }

    // Rule 3 (the "rare case" in Pastry): any known contact that is strictly
    // closer to the target than the current node — longer shared prefix, or equal
    // prefix but numerically closer on the ring.
    let bits = geometry.bits_per_digit();
    let own_prefix = row;
    let own_distance = own.ring_distance(target);
    node.contacts()
        .filter(|c| {
            let prefix = c.id.common_prefix_len(target, bits);
            prefix > own_prefix
                || (prefix == own_prefix && c.id.ring_distance(target) < own_distance)
        })
        .min_by_key(|c| {
            (
                usize::MAX - c.id.common_prefix_len(target, bits),
                c.id.ring_distance(target),
            )
        })
}

/// Kademlia's rule: the known contact XOR-closest to the target, provided it
/// is strictly closer than the node itself.
fn kademlia_next_hop<V: TableView + ?Sized>(node: &V, target: NodeId) -> Option<Contact> {
    let own_distance = node.own_id().xor_distance(target);
    node.contacts()
        .filter(|c| c.id.xor_distance(target) < own_distance)
        .min_by_key(|c| c.id.xor_distance(target))
}

/// Chord's rule over live tables: the known contact that advances furthest
/// clockwise without overshooting the target. Every hop strictly shrinks the
/// remaining clockwise distance, so the descent terminates. (The ideal-ring
/// baseline with global fingers lives in `bss_overlay::ChordRing`; this is
/// what a Chord node can do with only its own bootstrapped tables.)
fn chord_next_hop<V: TableView + ?Sized>(node: &V, target: NodeId) -> Option<Contact> {
    let own = node.own_id();
    if own == target {
        return None;
    }
    let to_target = own.clockwise_distance(target);
    node.contacts()
        .filter(|c| {
            let advance = own.clockwise_distance(c.id);
            advance > 0 && advance <= to_target
        })
        .max_by_key(|c| own.clockwise_distance(c.id))
}

/// Where the iterative [`route`] loop reads node tables from: the live packed
/// population mid-run, or a frozen [`PopulationSnapshot`] after it. Either
/// way a hop resolves to a borrowed [`TableView`], so no table is copied.
pub trait TableSource {
    /// The view a resolved node's tables are read through.
    type View<'a>: TableView
    where
        Self: 'a;

    /// The current tables of the node `contact` points at, or `None` when the
    /// contact resolves to nothing that answers to `contact.id` (a dead node,
    /// an uninitialised slot, or a forged identifier) — the hop fails and the
    /// lookup with it.
    fn resolve(&self, contact: Contact) -> Option<Self::View<'_>>;
}

/// A [`TableSource`] over a frozen post-run snapshot: contacts resolve by
/// identifier, exactly like `bss_overlay`'s snapshot routers.
#[derive(Debug)]
pub struct SnapshotTables<'a>(pub &'a PopulationSnapshot);

impl TableSource for SnapshotTables<'_> {
    type View<'a>
        = &'a BootstrapNode<NodeIndex>
    where
        Self: 'a;

    fn resolve(&self, contact: Contact) -> Option<Self::View<'_>> {
        self.0.node_by_id(contact.id)
    }
}

/// The terminal state of one routed lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteEnd {
    /// The lookup reached the node owning the target identifier.
    Delivered,
    /// A hop resolved to nothing answering to the advertised identifier — a
    /// dead node, an uninitialised slot or a forged descriptor.
    DeadContact,
    /// Routing stopped at a node with no better next hop.
    Stuck,
    /// The next hop was already on the path; honest greedy descent never
    /// revisits a node (every step strictly improves the metric), so a cycle
    /// means poisoned tables — the lookup is dropped instead of orbiting.
    Cycle,
    /// The hop budget was exhausted.
    HopLimit,
}

/// One routed lookup: how it ended and how far it travelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    /// The terminal state.
    pub end: RouteEnd,
    /// Hops taken before terminating (path length minus one).
    pub hops: u64,
}

impl Routed {
    /// Whether the lookup reached its destination.
    pub fn delivered(&self) -> bool {
        self.end == RouteEnd::Delivered
    }
}

/// The default hop budget (matches `bss_overlay`'s snapshot routers).
pub const DEFAULT_MAX_HOPS: usize = 64;

/// Routes one lookup for `target` starting at `source` over whatever
/// `tables` resolves, taking per-hop decisions from [`next_hop`]. The
/// traversed path (source first) is built in the caller-owned `path` buffer,
/// so sustained traffic routes without allocating.
pub fn route<T: TableSource>(
    tables: &mut T,
    kind: RouterKind,
    source: Contact,
    target: NodeId,
    max_hops: usize,
    path: &mut Vec<Contact>,
) -> Routed {
    path.clear();
    path.push(source);
    let end = loop {
        let hops = (path.len() - 1) as u64;
        let current = *path.last().expect("path holds at least the source");
        let step = tables.resolve(current).map(|node| {
            if node.own_id() == target {
                None
            } else {
                Some(next_hop(kind, &node, target))
            }
        });
        break match step {
            None => RouteEnd::DeadContact,
            Some(None) => RouteEnd::Delivered,
            Some(Some(None)) => RouteEnd::Stuck,
            Some(Some(Some(next))) => {
                if hops as usize >= max_hops {
                    RouteEnd::HopLimit
                } else if path.iter().any(|c| c.id == next.id) {
                    RouteEnd::Cycle
                } else {
                    path.push(next);
                    continue;
                }
            }
        };
    };
    Routed {
        end,
        hops: (path.len() - 1) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};

    fn snapshot(size: usize, seed: u64) -> PopulationSnapshot {
        let config = ExperimentConfig::builder()
            .network_size(size)
            .seed(seed)
            .max_cycles(80)
            .build()
            .unwrap();
        let (outcome, snapshot) = Experiment::new(config).run_with_snapshot();
        assert!(
            outcome.converged(),
            "routing tests need a converged overlay"
        );
        snapshot
    }

    fn contact_at(population: &PopulationSnapshot, position: usize) -> Contact {
        let node = population.node_at(position).unwrap();
        Contact {
            id: node.id(),
            address: node.own_descriptor().address(),
        }
    }

    #[test]
    fn every_router_delivers_everything_on_a_converged_snapshot() {
        let population = snapshot(96, 17);
        let mut tables = SnapshotTables(&population);
        let mut path = Vec::new();
        for kind in RouterKind::ALL {
            for source in 0..population.len() {
                for target in [0, population.len() / 2, population.len() - 1] {
                    let routed = route(
                        &mut tables,
                        kind,
                        contact_at(&population, source),
                        population.node_at(target).unwrap().id(),
                        DEFAULT_MAX_HOPS,
                        &mut path,
                    );
                    assert!(
                        routed.delivered(),
                        "{kind}: {source} -> {target} ended {:?}",
                        routed.end
                    );
                }
            }
        }
    }

    #[test]
    fn self_lookup_takes_zero_hops() {
        let population = snapshot(32, 18);
        let mut tables = SnapshotTables(&population);
        let mut path = Vec::new();
        let source = contact_at(&population, 0);
        for kind in RouterKind::ALL {
            let routed = route(&mut tables, kind, source, source.id, 8, &mut path);
            assert!(routed.delivered(), "{kind}");
            assert_eq!(routed.hops, 0, "{kind}");
        }
    }

    #[test]
    fn chord_descent_strictly_shrinks_the_clockwise_distance() {
        let population = snapshot(64, 19);
        for source in 0..population.len() {
            let node = population.node_at(source).unwrap();
            for target_pos in (0..population.len()).step_by(7) {
                let target = population.node_at(target_pos).unwrap().id();
                if node.id() == target {
                    continue;
                }
                let next = next_hop(RouterKind::Chord, node, target)
                    .expect("a converged node always advances");
                assert!(
                    next.id.clockwise_distance(target) < node.id().clockwise_distance(target),
                    "{} -> {} via {} does not advance",
                    node.id(),
                    target,
                    next.id
                );
            }
        }
    }

    #[test]
    fn hop_budget_and_dead_contacts_terminate_the_loop() {
        let population = snapshot(64, 20);
        let mut tables = SnapshotTables(&population);
        let mut path = Vec::new();
        // A zero-hop budget can only deliver self-lookups.
        let source = contact_at(&population, 0);
        let far = population.node_at(32).unwrap().id();
        let routed = route(&mut tables, RouterKind::Pastry, source, far, 0, &mut path);
        assert_eq!(routed.end, RouteEnd::HopLimit);
        assert_eq!(routed.hops, 0);
        // A source not present in the snapshot fails on its first resolve.
        let ghost = Contact {
            id: NodeId::new(0xdead_beef),
            address: NodeIndex::new(0),
        };
        let routed = route(&mut tables, RouterKind::Pastry, ghost, far, 8, &mut path);
        assert_eq!(routed.end, RouteEnd::DeadContact);
    }
}

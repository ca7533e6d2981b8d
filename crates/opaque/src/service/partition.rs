//! Region-owned shard placement: deterministic graph partitioning and
//! query routing.
//!
//! Round-robin placement scatters a spatially clustered workload across
//! the whole fleet, so every shard's tree cache re-learns every popular
//! root. Region ownership fixes that: the map is partitioned into one
//! node region per shard, each region is widened by a k-hop **halo**, and
//! every obfuscated query unit is routed to the shard owning its
//! obfuscation region. Placement is the *only* thing that changes —
//! every shard keeps a view of the whole map (shared behind an `Arc`, so
//! memory stays 1×), every unit is answered by exactly one shard, and the
//! answer is a pure function of `(map, query, sharing policy)`. Batch
//! reports only ever read fleet-merged counters through the commutative
//! [`crate::server::ServerStats::merge`], so routing cannot leak into a
//! single report byte: `RegionOwned ≡ RoundRobin ≡ Sequential`,
//! byte-identical, which `tests/lattice.rs` holds the module to.
//!
//! ## Partitioning
//!
//! [`Partition::build`] is deterministic by construction — no RNG, no
//! hash-map iteration, only id-ordered scans:
//!
//! 1. **Seeds** by farthest-point sampling over BFS hop distance: the
//!    first seed is node 0; each further seed is the node farthest from
//!    all previous seeds (unreached components count as infinitely far,
//!    so seeds spread across components first; ties break to the lowest
//!    node id).
//! 2. **Regions** by synchronized multi-source BFS flood fill: all seeds
//!    grow one hop per round, a contested node goes to the lowest shard
//!    id that reaches it in that round.
//! 3. **Leftover components** (unreachable from every seed) go whole to
//!    the shard with the fewest owned nodes (ties: lowest shard id).
//! 4. **Halos**: each shard's coverage is its owned region expanded by
//!    `halo` BFS hops into neighboring regions.
//!
//! ## Routing
//!
//! [`Partition::route`] sends a unit to the shard owning its obfuscation
//! region, with two safety nets so no query is ever newly unreachable:
//! prefer the shard that *owns* every endpoint ([`RouteKind::Owner`]);
//! otherwise any shard whose owned-plus-halo coverage spans all endpoints
//! ([`RouteKind::Halo`]); otherwise fall back to the majority owner of
//! the unit's tree-root side ([`RouteKind::Fallback`]) — which is also
//! the cache-optimal choice, since shortest-path trees are keyed by their
//! roots.

use crate::error::{OpaqueError, Result};
use crate::query::ObfuscatedPathQuery;
use roadnet::{GraphView, NodeId};

/// How a [`crate::ShardedBackend`] places query units on shards.
///
/// Serialized in the externally-tagged enum form
/// (`"RoundRobin"` / `{"RegionOwned":{"halo":2}}`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PartitionPolicy {
    /// The historical placement: rotate units across shards.
    #[default]
    RoundRobin,
    /// Partition the map into one region per shard and route each unit
    /// to the shard owning its obfuscation region.
    RegionOwned {
        /// K-hop halo: how far each shard's coverage extends beyond its
        /// owned region into its neighbors. `0` means owned nodes only.
        halo: u32,
    },
}

impl PartitionPolicy {
    /// Short name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            PartitionPolicy::RoundRobin => "round-robin".to_string(),
            PartitionPolicy::RegionOwned { halo } => format!("region-owned(halo={halo})"),
        }
    }
}

/// Why [`Partition::route_explain`] picked the shard it picked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteKind {
    /// One shard owns every endpoint of the unit outright.
    Owner,
    /// No single owner, but a shard's owned-plus-halo coverage spans all
    /// endpoints — the cut-straddling case the halo exists for.
    Halo,
    /// The span exceeds every halo; the unit goes to the majority owner
    /// of its tree-root side. Still answered exactly once (every shard
    /// holds the whole map), just with less locality.
    Fallback,
}

/// A deterministic node-to-shard assignment with halo coverage, plus the
/// router over it.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Owning shard per node id.
    owner: Vec<u32>,
    /// Per shard: owned ∪ halo membership, one flag per node id.
    covers: Vec<Vec<bool>>,
}

impl Partition {
    /// Partition `graph` into `shards` regions with a `halo`-hop overlap.
    ///
    /// Fully deterministic for a given `(graph, shards, halo)`: repeated
    /// builds return identical assignments (pinned by unit tests), so a
    /// restarted service routes exactly like its predecessor.
    ///
    /// # Errors
    /// [`OpaqueError::InvalidConfig`] for zero shards or more shards than
    /// the map has nodes (an empty region could never own a query).
    pub fn build<G: GraphView>(graph: &G, shards: usize, halo: u32) -> Result<Self> {
        let n = graph.num_nodes();
        if shards == 0 {
            return Err(OpaqueError::InvalidConfig {
                reason: "partition needs at least one shard".to_string(),
            });
        }
        if shards > n {
            return Err(OpaqueError::InvalidConfig {
                reason: format!("cannot partition {n} nodes into {shards} non-empty regions"),
            });
        }

        let seeds = select_seeds(graph, shards);
        let owner = flood_fill(graph, &seeds);
        let covers = (0..shards)
            .map(|s| {
                let owned: Vec<bool> = owner.iter().map(|&o| o as usize == s).collect();
                expand_hops(graph, owned, halo)
            })
            .collect();
        Ok(Partition { owner, covers })
    }

    /// Number of shards the map is partitioned into.
    pub fn shards(&self) -> usize {
        self.covers.len()
    }

    /// The shard owning node `n`, or `None` for an out-of-range id.
    pub fn owner_of(&self, n: NodeId) -> Option<usize> {
        self.owner.get(n.index()).map(|&s| s as usize)
    }

    /// Whether shard `s`'s owned-plus-halo coverage includes node `n`.
    pub fn covers(&self, s: usize, n: NodeId) -> bool {
        self.covers.get(s).and_then(|c| c.get(n.index())).copied().unwrap_or(false)
    }

    /// The shard that should serve `query`.
    pub fn route(&self, query: &ObfuscatedPathQuery) -> usize {
        self.route_explain(query).0
    }

    /// The shard that should serve `query`, plus why — the `Owner → Halo
    /// → Fallback` chain described in the module docs.
    pub fn route_explain(&self, query: &ObfuscatedPathQuery) -> (usize, RouteKind) {
        let (sources, targets) = (query.sources(), query.targets());
        // Tree roots grow from the smaller side (the MSMD transposition
        // rule), so that side's owners are the cache-relevant votes.
        // Ties keep the source side, matching the search layer.
        let root_side = if targets.len() < sources.len() { targets } else { sources };
        let votes = self.tally(root_side.iter().copied());
        let preferred = match pick_max(&votes) {
            Some(s) => s,
            // Root side entirely out of range: vote over everything, and
            // fall back to shard 0 if nothing is in range at all.
            None => pick_max(&self.tally(sources.iter().chain(targets).copied())).unwrap_or(0),
        };

        let in_range = |n: &&NodeId| -> bool { n.index() < self.owner.len() };
        // Owner: some shard owns every in-range endpoint outright. Owners
        // are unique per node, so only the preferred shard can qualify.
        let all_owned = sources
            .iter()
            .chain(targets)
            .filter(in_range)
            .all(|&n| self.owner[n.index()] as usize == preferred);
        if all_owned {
            return (preferred, RouteKind::Owner);
        }
        // Halo: the unit straddles a cut but fits inside some shard's
        // widened coverage. Prefer the root-side majority owner when its
        // halo spans the unit; otherwise the most-voted covering shard.
        let covered_by =
            |s: usize| sources.iter().chain(targets).filter(in_range).all(|&n| self.covers(s, n));
        if covered_by(preferred) {
            return (preferred, RouteKind::Halo);
        }
        let mut best: Option<(usize, usize)> = None; // (votes, shard)
        for s in 0..self.shards() {
            if covered_by(s) {
                let v = votes.get(s).copied().unwrap_or(0);
                if best.is_none_or(|(bv, bs)| v > bv || (v == bv && s < bs)) {
                    best = Some((v, s));
                }
            }
        }
        if let Some((_, s)) = best {
            return (s, RouteKind::Halo);
        }
        (preferred, RouteKind::Fallback)
    }

    /// Per-shard vote counts for a set of endpoints (out-of-range ids
    /// cast no vote).
    fn tally(&self, nodes: impl Iterator<Item = NodeId>) -> Vec<usize> {
        let mut votes = vec![0usize; self.shards()];
        for n in nodes {
            if let Some(&s) = self.owner.get(n.index()) {
                votes[s as usize] += 1;
            }
        }
        votes
    }
}

/// Index of the maximum vote count, ties to the lowest shard id; `None`
/// when no shard received a vote.
fn pick_max(votes: &[usize]) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (votes, shard)
    for (s, &v) in votes.iter().enumerate() {
        if v > 0 && best.is_none_or(|(bv, _)| v > bv) {
            best = Some((v, s));
        }
    }
    best.map(|(_, s)| s)
}

/// Farthest-point sampling over BFS hop distance: node 0 first, then
/// repeatedly the node with the greatest hop distance to every already
/// chosen seed (unreached = infinite, ties to the lowest id).
fn select_seeds<G: GraphView>(graph: &G, shards: usize) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut seeds = vec![NodeId::from_index(0)];
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    while seeds.len() < shards {
        // Multi-source BFS from all current seeds (re-run per seed
        // addition; seed counts are shard counts, i.e. small).
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        queue.clear();
        for &s in &seeds {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            graph.for_each_arc(u, &mut |v, _| {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = du + 1;
                    queue.push_back(v);
                }
            });
        }
        let farthest = (0..n)
            .max_by(|&a, &b| {
                // max distance, ties to the LOWEST id → reverse the id
                // ordering inside the comparator.
                dist[a].cmp(&dist[b]).then(b.cmp(&a))
            })
            .expect("non-empty graph");
        seeds.push(NodeId::from_index(farthest));
    }
    seeds
}

/// Synchronized multi-source BFS flood fill from one seed per shard; ties
/// go to the lowest shard id. Components no seed reaches are attached
/// whole to the smallest shard. Returns the owning shard per node id.
fn flood_fill<G: GraphView>(graph: &G, seeds: &[NodeId]) -> Vec<u32> {
    let n = graph.num_nodes();
    const UNOWNED: u32 = u32::MAX;
    let mut owner = vec![UNOWNED; n];
    let mut counts = vec![0usize; seeds.len()];
    // One frontier per shard, advanced in lockstep; iterating shards in
    // id order within a round gives contested nodes to the lowest shard.
    let mut frontiers: Vec<Vec<NodeId>> = seeds
        .iter()
        .enumerate()
        .map(|(s, &seed)| {
            debug_assert_eq!(owner[seed.index()], UNOWNED, "seeds are distinct");
            owner[seed.index()] = s as u32;
            counts[s] += 1;
            vec![seed]
        })
        .collect();
    loop {
        let mut grew = false;
        let mut next: Vec<Vec<NodeId>> = vec![Vec::new(); seeds.len()];
        for (s, frontier) in frontiers.iter().enumerate() {
            for &u in frontier {
                graph.for_each_arc(u, &mut |v, _| {
                    if owner[v.index()] == UNOWNED {
                        owner[v.index()] = s as u32;
                        counts[s] += 1;
                        next[s].push(v);
                    }
                });
            }
            grew |= !next[s].is_empty();
        }
        if !grew {
            break;
        }
        frontiers = next;
    }
    // Leftover components: BFS each in node-id order, assign the whole
    // component to the currently smallest shard.
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if owner[start] != UNOWNED {
            continue;
        }
        let smallest = counts
            .iter()
            .enumerate()
            .min_by_key(|&(s, &c)| (c, s))
            .map(|(s, _)| s as u32)
            .expect("at least one shard");
        owner[start] = smallest;
        counts[smallest as usize] += 1;
        queue.push_back(NodeId::from_index(start));
        while let Some(u) = queue.pop_front() {
            graph.for_each_arc(u, &mut |v, _| {
                if owner[v.index()] == UNOWNED {
                    owner[v.index()] = smallest;
                    counts[smallest as usize] += 1;
                    queue.push_back(v);
                }
            });
        }
    }
    owner
}

/// Expand a membership set by `hops` BFS levels (forward arcs).
fn expand_hops<G: GraphView>(graph: &G, mut members: Vec<bool>, hops: u32) -> Vec<bool> {
    let mut frontier: Vec<NodeId> =
        (0..members.len()).filter(|&i| members[i]).map(NodeId::from_index).collect();
    for _ in 0..hops {
        let mut next = Vec::new();
        for &u in &frontier {
            graph.for_each_arc(u, &mut |v, _| {
                if !members[v.index()] {
                    members[v.index()] = true;
                    next.push(v);
                }
            });
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators::{GridConfig, grid_network};
    use roadnet::{GraphBuilder, Point, RoadNetwork};

    fn grid(w: usize, h: usize) -> RoadNetwork {
        grid_network(&GridConfig { width: w, height: h, seed: 5, ..Default::default() }).unwrap()
    }

    /// Two disjoint 3-chains plus an isolated pair: 3 components.
    fn disconnected() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        for (a, c) in [(0u32, 1u32), (1, 2), (3, 4), (4, 5), (6, 7)] {
            b.add_edge(NodeId(a), NodeId(c), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    /// The owning shard of every node, in node order.
    fn owners(p: &Partition, g: &RoadNetwork) -> Vec<usize> {
        g.nodes().map(|n| p.owner_of(n).expect("every node is owned")).collect()
    }

    fn check_invariants(p: &Partition, g: &RoadNetwork, halo: u32) {
        let n = g.num_nodes();
        assert_eq!(p.owner_of(NodeId::from_index(n)), None, "no owner past the last node");
        // Every node owned exactly once, by a real shard.
        let mut counts = vec![0usize; p.shards()];
        for (i, o) in owners(p, g).into_iter().enumerate() {
            assert!(o < p.shards(), "node {i} owned by ghost shard {o}");
            counts[o] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), n);
        for (s, &owned) in counts.iter().enumerate() {
            assert!(owned > 0, "shard {s} owns no nodes");
            // Coverage ⊇ owned; the excess is the halo, which must sit in
            // *other* shards' regions (halos ⊆ neighbor regions).
            for i in 0..n {
                let node = NodeId::from_index(i);
                if p.owner_of(node) == Some(s) {
                    assert!(p.covers(s, node), "shard {s} does not cover owned node {i}");
                } else if p.covers(s, node) {
                    assert!(halo > 0, "halo node with zero halo width");
                    let other = p.owner_of(node).unwrap();
                    assert_ne!(other, s);
                }
            }
        }
    }

    #[test]
    fn build_rejects_degenerate_shapes() {
        let g = grid(4, 4);
        assert!(matches!(Partition::build(&g, 0, 1), Err(OpaqueError::InvalidConfig { .. })));
        assert!(matches!(
            Partition::build(&g, g.num_nodes() + 1, 1),
            Err(OpaqueError::InvalidConfig { .. })
        ));
        // One shard owns everything and covers everything.
        let p = Partition::build(&g, 1, 0).unwrap();
        assert!(owners(&p, &g).iter().all(|&o| o == 0));
        check_invariants(&p, &g, 0);
    }

    #[test]
    fn repeated_builds_are_identical() {
        // No RNG and no hash-order dependence: the same (map, shards,
        // halo) must reproduce the same partition, build after build.
        let g = grid(9, 7);
        for shards in [2usize, 3, 5] {
            for halo in [0u32, 1, 3] {
                let a = Partition::build(&g, shards, halo).unwrap();
                let b = Partition::build(&g, shards, halo).unwrap();
                assert_eq!(owners(&a, &g), owners(&b, &g), "shards={shards} halo={halo}");
                for s in 0..shards {
                    for i in 0..g.num_nodes() {
                        let node = NodeId::from_index(i);
                        assert_eq!(a.covers(s, node), b.covers(s, node));
                    }
                }
                check_invariants(&a, &g, halo);
            }
        }
    }

    #[test]
    fn zero_halo_coverage_is_exactly_ownership() {
        let g = grid(6, 6);
        let p = Partition::build(&g, 4, 0).unwrap();
        for i in 0..g.num_nodes() {
            let node = NodeId::from_index(i);
            for s in 0..4 {
                assert_eq!(p.covers(s, node), p.owner_of(node) == Some(s));
            }
        }
    }

    #[test]
    fn halo_grows_coverage_monotonically() {
        let g = grid(8, 8);
        let narrow = Partition::build(&g, 3, 1).unwrap();
        let wide = Partition::build(&g, 3, 2).unwrap();
        assert_eq!(owners(&narrow, &g), owners(&wide, &g), "halo must not change ownership");
        let mut strictly_more = false;
        for s in 0..3 {
            for i in 0..g.num_nodes() {
                let node = NodeId::from_index(i);
                if narrow.covers(s, node) {
                    assert!(wide.covers(s, node), "wider halo lost coverage");
                } else if wide.covers(s, node) {
                    strictly_more = true;
                }
            }
        }
        assert!(strictly_more, "a wider halo should cover more of an 8x8 grid");
    }

    #[test]
    fn disconnected_components_are_all_assigned() {
        let g = disconnected();
        for shards in [1usize, 2, 3] {
            let p = Partition::build(&g, shards, 1).unwrap();
            check_invariants(&p, &g, 1);
        }
        // shards == components: farthest-point seeding lands one seed per
        // component (unreached reads as infinitely far), so no shard is
        // starved even though the components have very different sizes.
        let p = Partition::build(&g, 3, 0).unwrap();
        check_invariants(&p, &g, 0);
    }

    #[test]
    fn routing_prefers_owner_then_halo_then_falls_back() {
        // A 10-node path: cuts are obvious.
        let mut b = GraphBuilder::new();
        for i in 0..10 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        for i in 0..9u32 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let p = Partition::build(&g, 2, 1).unwrap();
        // Both endpoints deep inside one region → Owner.
        let o0 = p.owner_of(NodeId(0)).unwrap();
        let q = ObfuscatedPathQuery::new(vec![NodeId(0)], vec![NodeId(1)]);
        let (s, kind) = p.route_explain(&q);
        assert_eq!((s, kind), (o0, RouteKind::Owner));
        // Find the cut on the path and straddle it by one hop → Halo.
        let cut = (0..9)
            .find(|&i| p.owner_of(NodeId(i)) != p.owner_of(NodeId(i + 1)))
            .expect("two regions on a path have a cut");
        let q = ObfuscatedPathQuery::new(vec![NodeId(cut)], vec![NodeId(cut + 1)]);
        let (s, kind) = p.route_explain(&q);
        assert_eq!(kind, RouteKind::Halo, "one-hop straddle fits in a 1-hop halo");
        assert!(p.covers(s, NodeId(cut)) && p.covers(s, NodeId(cut + 1)));
        // End-to-end exceeds any 1-hop halo → Fallback, routed to the
        // majority owner of the root side.
        let q = ObfuscatedPathQuery::new(vec![NodeId(0), NodeId(1)], vec![NodeId(9)]);
        let (s, kind) = p.route_explain(&q);
        assert_eq!(kind, RouteKind::Fallback);
        assert_eq!(s, p.owner_of(NodeId(9)).unwrap(), "targets are the root (smaller) side");
    }

    #[test]
    fn routing_skips_out_of_range_ids_and_defaults_to_shard_zero() {
        let g = grid(4, 4);
        let p = Partition::build(&g, 2, 1).unwrap();
        let far = NodeId::from_index(10_000);
        // In-range endpoints dominate; the ghost id casts no vote.
        let q = ObfuscatedPathQuery::new(vec![NodeId(0), far], vec![NodeId(1)]);
        let (s, _) = p.route_explain(&q);
        assert_eq!(s, p.owner_of(NodeId(1)).unwrap());
        // All endpoints out of range: deterministic default.
        let q = ObfuscatedPathQuery::new(vec![far], vec![far]);
        assert_eq!(p.route(&q), 0);
    }

    #[test]
    fn directed_maps_partition_and_route() {
        let mut b = GraphBuilder::directed();
        for i in 0..6 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        // A one-way ring: 0 → 1 → … → 5 → 0.
        for i in 0..6u32 {
            b.add_edge(NodeId(i), NodeId((i + 1) % 6), 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let p = Partition::build(&g, 2, 1).unwrap();
        check_invariants(&p, &g, 1);
        for s in 0..6u32 {
            for t in 0..6u32 {
                let q = ObfuscatedPathQuery::new(vec![NodeId(s)], vec![NodeId(t)]);
                assert!(p.route(&q) < 2);
            }
        }
    }

    #[test]
    fn policy_names_serde_and_null_back_compat() {
        assert_eq!(PartitionPolicy::default(), PartitionPolicy::RoundRobin);
        assert_eq!(PartitionPolicy::RoundRobin.name(), "round-robin");
        assert_eq!(PartitionPolicy::RegionOwned { halo: 2 }.name(), "region-owned(halo=2)");
        for policy in [PartitionPolicy::RoundRobin, PartitionPolicy::RegionOwned { halo: 3 }] {
            let json = serde_json::to_string(&policy).unwrap();
            let back: PartitionPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, policy, "{json}");
        }
        let err = serde_json::from_str::<PartitionPolicy>("42");
        assert!(err.is_err());
    }
}

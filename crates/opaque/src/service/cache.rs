//! The shard-local shortest-path-tree cache.
//!
//! Lemma 1 makes spanning trees — not paths — the unit of server work,
//! and obfuscation multiplies the tree count by `|S|·|T|` factors. Under
//! hotspot/commuter workloads (see `crates/workload`) many queries share
//! roots, so the server keeps recomputing identical trees. [`TreeCache`]
//! is the capacity-bounded, exact-LRU store of recorded sweeps
//! ([`pathsearch::SweepTrace`], held in a [`roadnet::LruBuffer`], the
//! workspace's one LRU) that a [`crate::server::DirectionsServer`]
//! consults through the adopt-or-grow entry point
//! ([`pathsearch::run_tree`], once per tree of
//! [`pathsearch::msmd_in_guided_cached`]): a query whose root already has a
//! cached tree deep enough for its goal skips the Dijkstra sweep
//! entirely, and its paths are read straight from the cached trace
//! ([`pathsearch::TreeView`]) — a hit writes nothing into the server's
//! arena. Partial trees carry their settled radius implicitly (the
//! recorded prefix) and are only reused when the early-termination rule
//! is provably unaffected. An entry costs 32 B per settled node: a
//! 24 B settle event (node, parent settle index, distance, `relaxed`
//! snapshot) and an 8 B settled-set index entry. A plain (unguided) miss
//! records its sweep to twice the depth its goal needed, or to
//! exhaustion, before storing it, so the next goal from that root up to
//! twice as deep adopts instead of regrowing;
//! [`crate::ServerStats`]`.search` still counts the logical,
//! goal-stop work for it, exactly as it does for an adoption.
//! [`TreeCache::miss_causes`] splits misses into *absent* (no entry) and
//! *shallow* (an entry that could not answer the goal).
//!
//! Entries are keyed by `(map_epoch, root)`:
//!
//! * **map_epoch** — bumped by [`crate::server::DirectionsServer::swap_map`];
//!   entries of older epochs can never be returned (and the swap clears
//!   them outright — the key is defence in depth); live-traffic weight
//!   updates instead go through [`TreeCache::repair_edges`], which keeps
//!   the epoch (the topology did not change), leaves the traces whose
//!   recorded sweep stayed clear of every updated edge alone, and
//!   *repairs* the touched ones in place — each becomes exactly the trace
//!   a fresh sweep records on the reweighted map
//!   ([`pathsearch::SweepTrace::repair`]), so the next query from that
//!   root hits instead of regrowing. Only a touched trace repair does not
//!   cover (an early-stopped or goal-directed sweep) is evicted;
//! * **root** — the node the sweep grew from. Every
//!   [`pathsearch::SharingPolicy`] drives the same single-tree sweep
//!   machine, so entries are shared across policies; the potential a sweep
//!   ran under is checked at adoption (see [`pathsearch::run_tree`]).
//!
//! The cache is **shard-local** on purpose: the parallel service layer
//! pins one [`DirectionsServer`] (arena + cache) per worker thread, so
//! the hot path takes no lock and [`crate::service::ExecutionPolicy`]
//! stays a pure throughput knob. Correctness does not depend on which
//! shard a unit lands on, because a hit reports counters byte-identical
//! to the sweep it skips — `CachePolicy::Lru` produces
//! byte-identical [`crate::BatchReport`]s to `CachePolicy::Off`, the
//! invariant `tests/cache_equivalence.rs` proves.
//!
//! Shard-local does mean the hit rate is hostage to *placement*: under
//! round-robin rotation a popular root visits every shard, so an N-shard
//! fleet pays up to N cold misses per root and N cache slots for one
//! tree. Region-owned placement
//! ([`crate::PartitionPolicy::RegionOwned`]) is the payoff for this
//! design — all queries rooted in a region land on the shard owning it,
//! so each root is grown (and stored) once fleet-wide and the per-shard
//! LRU holds its own region's hot roots instead of a shuffled sample of
//! everyone's. The `e18_partition` experiment and the partition stress
//! test measure exactly that gap; the hit/miss counters are on
//! [`crate::ServerStats`], not in the report, so placement remains
//! report-byte-invisible while the physical hit rate moves.
//!
//! [`DirectionsServer`]: crate::server::DirectionsServer

use crate::error::{OpaqueError, Result};
use pathsearch::{EdgeChange, RepairScratch, SharingPolicy, SweepTrace, TreeStore};
use roadnet::{GraphView, LruBuffer, NodeId};

/// Whether (and how) a backend server caches shortest-path trees.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CachePolicy {
    /// No cache: every tree is grown for real (the historical behavior
    /// and the reference the cache-equivalence harness compares against).
    #[default]
    Off,
    /// A shard-local exact-LRU [`TreeCache`] holding at most `trees`
    /// recorded sweeps per shard.
    Lru {
        /// Per-shard capacity in trees; must be at least 1.
        trees: usize,
    },
}

impl CachePolicy {
    /// Check the policy is satisfiable.
    ///
    /// # Errors
    /// [`OpaqueError::InvalidConfig`] for a zero-capacity LRU (mirroring
    /// the zero-thread worker-pool rejection).
    pub fn validate(&self) -> Result<()> {
        match self {
            CachePolicy::Off => Ok(()),
            CachePolicy::Lru { trees: 0 } => Err(OpaqueError::InvalidConfig {
                reason: "cache policy: an LRU tree cache needs capacity for at least one tree"
                    .to_string(),
            }),
            CachePolicy::Lru { .. } => Ok(()),
        }
    }

    /// Short name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            CachePolicy::Off => "off".to_string(),
            CachePolicy::Lru { trees } => format!("lru({trees})"),
        }
    }
}

/// Full cache key; see the module docs for the role of each component.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct TreeKey {
    map_epoch: u64,
    root: u32,
}

/// Capacity-bounded exact-LRU store of recorded shortest-path trees.
///
/// Owned by one [`crate::server::DirectionsServer`] (one shard); never
/// shared across threads. Hit/miss counters accumulate monotonically —
/// the server folds their deltas into [`crate::ServerStats`] per query.
#[derive(Debug)]
pub struct TreeCache {
    map_epoch: u64,
    /// Every [`TreeStore::lookup`] is one counted access, so its fault
    /// counter is the number of lookups that found no entry.
    lru: LruBuffer<TreeKey, SweepTrace>,
    hits: u64,
    misses: u64,
    /// Working memory of [`TreeCache::repair_edges`], reused across
    /// updates.
    repair: RepairScratch,
}

// The parallel service layer moves one cache per worker thread; like the
// arena it sits next to, it must stay Send.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TreeCache>();
};

impl TreeCache {
    /// A cache holding at most `trees` recorded sweeps, starting at map
    /// epoch 0.
    ///
    /// The sharing policy argument no longer selects anything: every
    /// policy grows the same single-tree sweeps, so one cache serves them
    /// all. It stays in the signature for existing callers.
    ///
    /// # Panics
    /// Panics on zero capacity — [`CachePolicy::validate`] rejects it at
    /// configuration time.
    pub fn new(trees: usize, _policy: SharingPolicy) -> Self {
        assert!(trees >= 1, "tree cache must hold at least one tree");
        TreeCache {
            map_epoch: 0,
            lru: LruBuffer::new(trees),
            hits: 0,
            misses: 0,
            repair: RepairScratch::default(),
        }
    }

    /// Capacity in trees.
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Number of trees currently cached.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache holds no trees.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// The map epoch entries are currently keyed under.
    pub fn map_epoch(&self) -> u64 {
        self.map_epoch
    }

    /// Cumulative `(hits, misses)` since construction. Monotone — callers
    /// wanting per-query counts take deltas around the call.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The misses of [`TreeCache::counters`] split by cause, cumulative:
    /// `(absent, shallow)` — no entry for the root, or an entry that could
    /// not answer the goal (it stopped short of a goal node, or ran under
    /// another potential). Observability only; reports never see it.
    ///
    /// *Absent* is the LRU's fault count: every lookup is one counted
    /// access, and [`pathsearch::run_tree`] notes exactly one hit or miss
    /// per lookup (a hit re-reads its entry through the uncounted
    /// [`TreeStore::peek`]).
    pub fn miss_causes(&self) -> (u64, u64) {
        let absent = self.lru.stats().faults;
        (absent, self.misses.saturating_sub(absent))
    }

    /// Fraction of lookups served from the cache (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 { 0.0 } else { self.hits as f64 / total as f64 }
    }

    /// Drop every entry and move to `map_epoch` — the map-swap
    /// invalidation hook. Entries are both cleared *and* unreachable by
    /// key afterwards; the hit/miss counters are not reset (they describe
    /// the cache's lifetime, like server counters).
    pub fn invalidate(&mut self, map_epoch: u64) {
        self.lru.clear();
        self.map_epoch = map_epoch;
    }

    /// Evict the traces whose recorded sweep touched one of the updated
    /// edges (each given by its endpoint pair — see
    /// [`pathsearch::SweepTrace::touches_any`] for the soundness
    /// argument), without repairing any. Untouched traces replay
    /// byte-identically on the updated map, so they stay; the epoch does
    /// not move (the topology did not change), and lifetime counters are
    /// untouched. [`TreeCache::repair_edges`] is the same scan, repairing
    /// what it can instead of evicting it.
    pub fn invalidate_edges(&mut self, endpoints: &[(NodeId, NodeId)]) {
        if endpoints.is_empty() {
            return;
        }
        self.lru.retain(|_, trace| !trace.touches_any(endpoints));
    }

    /// Adopt a live-traffic weight update: every trace whose recorded
    /// sweep touched a changed edge is rewritten in place into the trace a
    /// fresh sweep would record on `g`, the updated map
    /// ([`pathsearch::SweepTrace::repair`] — complete plain traces); a
    /// touched trace it cannot repair is evicted, as
    /// [`TreeCache::invalidate_edges`] does. Untouched traces stay as they
    /// are, and the epoch and lifetime counters do not move.
    pub fn repair_edges<G: GraphView>(&mut self, g: &G, changes: &[EdgeChange]) {
        if changes.is_empty() {
            return;
        }
        let endpoints: Vec<(NodeId, NodeId)> = changes.iter().map(|c| (c.a, c.b)).collect();
        let scratch = &mut self.repair;
        self.lru
            .retain(|_, trace| !trace.touches_any(&endpoints) || trace.repair(g, changes, scratch));
    }

    fn key(&self, root: NodeId) -> TreeKey {
        TreeKey { map_epoch: self.map_epoch, root: root.0 }
    }
}

impl TreeStore for TreeCache {
    fn lookup(&mut self, root: NodeId) -> Option<&SweepTrace> {
        let key = self.key(root);
        self.lru.get(&key)
    }

    fn peek(&self, root: NodeId) -> Option<&SweepTrace> {
        self.lru.peek(&self.key(root))
    }

    fn store(&mut self, root: NodeId, trace: SweepTrace) {
        let key = self.key(root);
        let Some(old) = self.lru.insert(key, trace) else { return };
        // Sweeps from one root *under one potential* are prefixes of each
        // other: keep the deeper one, it answers strictly more goals.
        // Across potentials (ALT potentials are per target set) depth
        // compares nothing, and keeping the old trace would make this goal
        // set miss on every repeat — the newer trace replaces it.
        let new = self.lru.peek(&key).expect("just inserted");
        if old.potential() == new.potential() && old.len() > new.len() {
            self.lru.insert(key, old);
        }
    }

    fn note_hit(&mut self) {
        self.hits += 1;
    }

    fn note_miss(&mut self) {
        self.misses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathsearch::{Goal, SearchArena, run_in_traced};
    use roadnet::generators::{GridConfig, grid_network};

    fn grid() -> roadnet::RoadNetwork {
        grid_network(&GridConfig { width: 10, height: 10, seed: 4, ..Default::default() }).unwrap()
    }

    fn trace_from(g: &roadnet::RoadNetwork, root: u32) -> SweepTrace {
        let mut arena = SearchArena::new();
        run_in_traced(&mut arena, g, NodeId(root), &Goal::AllNodes).1
    }

    #[test]
    fn policy_validation_and_names() {
        assert!(CachePolicy::Off.validate().is_ok());
        assert!(CachePolicy::Lru { trees: 8 }.validate().is_ok());
        assert!(matches!(
            CachePolicy::Lru { trees: 0 }.validate(),
            Err(OpaqueError::InvalidConfig { .. })
        ));
        assert_eq!(CachePolicy::Off.name(), "off");
        assert_eq!(CachePolicy::Lru { trees: 8 }.name(), "lru(8)");
        assert_eq!(CachePolicy::default(), CachePolicy::Off);
    }

    #[test]
    fn policy_round_trips_through_serde() {
        for policy in [CachePolicy::Off, CachePolicy::Lru { trees: 32 }] {
            let json = serde_json::to_string(&policy).unwrap();
            let back: CachePolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, policy);
        }
    }

    #[test]
    fn lru_evicts_the_least_recently_used_tree() {
        let g = grid();
        let mut cache = TreeCache::new(2, SharingPolicy::PerSource);
        cache.store(NodeId(0), trace_from(&g, 0));
        cache.store(NodeId(1), trace_from(&g, 1));
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.lookup(NodeId(0)).is_some());
        cache.store(NodeId(2), trace_from(&g, 2));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(NodeId(0)).is_some());
        assert!(cache.lookup(NodeId(1)).is_none(), "evicted");
        assert!(cache.lookup(NodeId(2)).is_some());
    }

    #[test]
    fn store_keeps_the_deeper_sweep() {
        let g = grid();
        let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
        let mut arena = SearchArena::new();
        let (_, shallow) = run_in_traced(&mut arena, &g, NodeId(0), &Goal::Single(NodeId(11)));
        let deep = trace_from(&g, 0);
        assert!(shallow.len() < deep.len());
        cache.store(NodeId(0), deep.clone());
        cache.store(NodeId(0), shallow);
        let kept = cache.lookup(NodeId(0)).unwrap();
        assert_eq!(kept.len(), deep.len(), "a shallower re-store must not clobber a deeper tree");
    }

    #[test]
    fn store_compares_depth_only_under_one_potential() {
        use pathsearch::{AltPreprocessing, msmd_in_guided_cached, run_tree};
        let g = grid_network(&GridConfig { width: 40, height: 40, seed: 4, ..Default::default() })
            .unwrap();
        let alt = AltPreprocessing::try_build(&g, 4).unwrap();
        let mut arena = SearchArena::new();
        let (root, far, near) = (NodeId(0), NodeId(1599), NodeId(45));

        // ALT potentials are per target set: a far set's long guided trace
        // must not pin the slot against a near set at the same root, or
        // the near set re-grows its tree on every repeat.
        let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
        let (policy, pre) = (SharingPolicy::PerSource, Some(&alt));
        for targets in [[far], [near], [near], [near], [near], [near]] {
            msmd_in_guided_cached(&mut arena, &g, &[root], &targets, policy, pre, &mut cache);
        }
        let (hits, misses) = cache.counters();
        assert!(hits >= 4, "near repeats must adopt their own trace: {hits} hits, {misses} misses");

        // Under ONE potential the plain-sweep rule holds unweakened: a
        // shallower re-store never clobbers the deeper trace.
        let pot = alt.goal_potential(&[far]);
        let mut guided_trace = |goal: Goal| {
            let mut scratch = TreeCache::new(1, SharingPolicy::PerSource);
            run_tree(&mut arena, &g, root, &goal, Some(&pot), Some(&mut scratch));
            scratch.lookup(root).unwrap().clone()
        };
        // (A goal one diagonal step towards `far` settles early under
        // `far`'s potential.)
        let (deep, shallow) =
            (guided_trace(Goal::Single(far)), guided_trace(Goal::Single(NodeId(41))));
        assert_eq!(deep.potential(), shallow.potential());
        assert!(shallow.len() < deep.len());
        let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
        cache.store(root, deep.clone());
        cache.store(root, shallow);
        assert_eq!(cache.lookup(root).unwrap().len(), deep.len());
    }

    #[test]
    fn guided_traces_are_adopted_by_goal_set_not_goal_order() {
        use pathsearch::{AltPreprocessing, msmd_in_guided, msmd_in_guided_cached};
        let g = grid_network(&GridConfig { width: 40, height: 40, seed: 4, ..Default::default() })
            .unwrap();
        let alt = AltPreprocessing::try_build(&g, 4).unwrap();
        let (policy, pre) = (SharingPolicy::PerSource, Some(&alt));
        let (root, a, b, c) = (NodeId(820), NodeId(39), NodeId(1560), NodeId(1599));
        let mut arena = SearchArena::new();
        let mut cache = TreeCache::new(4, policy);

        let recorded =
            msmd_in_guided_cached(&mut arena, &g, &[root], &[a, b, c], policy, pre, &mut cache);
        assert_eq!(cache.counters(), (0, 1));
        // The same set in another order is the same potential: adopted,
        // with the counters a fresh guided sweep reports, byte for byte.
        let adopted =
            msmd_in_guided_cached(&mut arena, &g, &[root], &[c, a, b], policy, pre, &mut cache);
        assert_eq!(cache.counters(), (1, 1));
        let fresh = msmd_in_guided(&mut arena, &g, &[root], &[c, a, b], policy, pre);
        assert_eq!(adopted.stats, fresh.stats);
        assert_eq!(adopted.stats, recorded.stats);
        assert_eq!(adopted.paths, fresh.paths);
        // A subset aims elsewhere once `c` is out of the potential: its
        // settle order is not a prefix of the recorded one, so it misses
        // even though the recorded sweep settled both goals.
        let subset =
            msmd_in_guided_cached(&mut arena, &g, &[root], &[a, b], policy, pre, &mut cache);
        assert_eq!(cache.counters(), (1, 2));
        assert_eq!(
            subset.stats,
            msmd_in_guided(&mut arena, &g, &[root], &[a, b], policy, pre).stats
        );
    }

    #[test]
    fn invalidation_moves_the_epoch_and_drops_entries() {
        let g = grid();
        let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
        cache.store(NodeId(0), trace_from(&g, 0));
        cache.note_hit();
        assert_eq!(cache.map_epoch(), 0);
        cache.invalidate(1);
        assert_eq!(cache.map_epoch(), 1);
        assert!(cache.is_empty());
        assert!(cache.lookup(NodeId(0)).is_none());
        assert_eq!(cache.counters(), (1, 0), "lifetime counters survive invalidation");
        // New entries land under the new epoch and resolve normally.
        cache.store(NodeId(0), trace_from(&g, 0));
        assert!(cache.lookup(NodeId(0)).is_some());
    }

    #[test]
    fn hit_rate_reflects_counters() {
        let mut cache = TreeCache::new(2, SharingPolicy::PerSource);
        assert_eq!(cache.hit_rate(), 0.0);
        cache.note_miss();
        cache.note_hit();
        cache.note_hit();
        cache.note_hit();
        assert!((cache.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(cache.counters(), (3, 1));
    }

    #[test]
    fn miss_causes_split_absent_from_shallow() {
        use pathsearch::run_tree;
        let g = grid();
        let mut arena = SearchArena::new();
        let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
        let mut query = |cache: &mut TreeCache, root: u32, target: u32| {
            let goal = Goal::Single(NodeId(target));
            run_tree(&mut arena, &g, NodeId(root), &goal, None, Some(cache));
        };
        query(&mut cache, 0, 1); // absent: cold root
        query(&mut cache, 0, 1); // hit
        query(&mut cache, 0, 99); // shallow: 0's short trace stops well before 99
        query(&mut cache, 50, 51); // absent: another cold root
        assert_eq!(cache.counters(), (1, 3));
        assert_eq!(cache.miss_causes(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_capacity_panics() {
        let _ = TreeCache::new(0, SharingPolicy::PerSource);
    }

    #[test]
    fn invalidate_edges_evicts_only_touched_traces() {
        let g = grid();
        let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
        // A complete trace (settles everything) and a shallow partial one.
        let full = trace_from(&g, 0);
        let mut arena = SearchArena::new();
        let (_, partial) = run_in_traced(&mut arena, &g, NodeId(50), &Goal::Single(NodeId(51)));
        assert!(!partial.is_complete());
        cache.store(NodeId(0), full);
        cache.store(NodeId(50), partial.clone());

        // An edge both of whose endpoints lie outside the partial sweep's
        // settled prefix: only the complete trace is touched.
        let far_edge = g
            .edges()
            .iter()
            .find(|e| partial.position(e.a).is_none() && partial.position(e.b).is_none())
            .copied()
            .expect("a shallow sweep leaves most edges unsettled");
        cache.invalidate_edges(&[(far_edge.a, far_edge.b)]);
        assert!(cache.lookup(NodeId(0)).is_none(), "full trace touched");
        assert!(cache.lookup(NodeId(50)).is_some(), "untouched partial trace survives");

        // Epoch never moves: this is a weight update, not a topology swap.
        assert_eq!(cache.map_epoch(), 0);
        // An empty update set is a no-op.
        cache.invalidate_edges(&[]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn repair_edges_rewrites_complete_traces_and_evicts_touched_partial_ones() {
        let g = grid();
        let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
        let mut arena = SearchArena::new();
        let (_, near) = run_in_traced(&mut arena, &g, NodeId(50), &Goal::Single(NodeId(51)));
        let (_, far) = run_in_traced(&mut arena, &g, NodeId(99), &Goal::Single(NodeId(98)));
        cache.store(NodeId(0), trace_from(&g, 0));
        cache.store(NodeId(50), near.clone());
        cache.store(NodeId(99), far.clone());

        // An edge at node 50: the complete trace and the partial trace
        // from 50 touch it, the partial trace from 99 does not.
        let e = g.edges().iter().position(|e| e.a == NodeId(50) || e.b == NodeId(50)).unwrap();
        let (a, b) = (g.edges()[e].a, g.edges()[e].b);
        assert!(far.position(a).is_none() && far.position(b).is_none());
        let change = EdgeChange::before(&g, a, b);
        let mut next = g.clone();
        next.update_weights(&[(roadnet::EdgeId::from_index(e), 77.0)]).unwrap();
        cache.repair_edges(&next, &[change]);

        assert_eq!(cache.len(), 2);
        let fresh = trace_from(&next, 0);
        let repaired = cache.peek(NodeId(0)).expect("the complete trace is repaired, not evicted");
        assert!(repaired.settled().eq(fresh.settled()), "settle order of the fresh sweep");
        assert!(cache.peek(NodeId(50)).is_none(), "a touched partial trace is evicted");
        assert!(cache.peek(NodeId(99)).is_some(), "an untouched trace stays");
        assert_eq!((cache.map_epoch(), cache.counters()), (0, (0, 0)));
        cache.repair_edges(&next, &[]);
        assert_eq!(cache.len(), 2, "an empty update is a no-op");
    }

    #[test]
    fn repeated_invalidate_restore_cycles_never_resurrect_entries() {
        let g = grid();
        let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
        let edge = g.edge(roadnet::EdgeId(0));
        for round in 0..5u64 {
            // Surgical cycle: store, evict via a touched edge, re-store.
            cache.store(NodeId(0), trace_from(&g, 0));
            assert!(cache.lookup(NodeId(0)).is_some());
            cache.invalidate_edges(&[(edge.a, edge.b)]);
            assert!(
                cache.lookup(NodeId(0)).is_none(),
                "round {round}: evicted trace must not resurrect"
            );
            // Whole-map cycle interleaved: epoch bump also clears.
            cache.store(NodeId(0), trace_from(&g, 0));
            cache.invalidate(round + 1);
            assert!(cache.lookup(NodeId(0)).is_none());
            assert_eq!(cache.map_epoch(), round + 1);
        }
        // The cache still works after the churn.
        cache.store(NodeId(3), trace_from(&g, 3));
        assert!(cache.lookup(NodeId(3)).is_some());
    }

    #[test]
    fn adjacent_tick_stamps_evict_deterministically() {
        let g = grid();
        let mut cache = TreeCache::new(2, SharingPolicy::PerSource);
        // Two stores back-to-back: stamps are adjacent ticks (1 and 2).
        cache.store(NodeId(0), trace_from(&g, 0));
        cache.store(NodeId(1), trace_from(&g, 1));
        // A third store at capacity must evict the *strictly* older stamp
        // even though the two differ by a single tick.
        cache.store(NodeId(2), trace_from(&g, 2));
        assert!(cache.lookup(NodeId(0)).is_none(), "oldest tick evicted");
        assert!(cache.lookup(NodeId(1)).is_some());
        assert!(cache.lookup(NodeId(2)).is_some());

        // After surgical eviction the survivor's stamp still orders
        // correctly against new entries: the lookups above re-stamped 1
        // and 2, so storing two more evicts 1 (now the oldest).
        let edge = g.edge(roadnet::EdgeId(0));
        cache.invalidate_edges(&[(edge.a, edge.b)]);
        assert!(cache.is_empty(), "complete traces touch every edge");
        cache.store(NodeId(4), trace_from(&g, 4));
        cache.store(NodeId(5), trace_from(&g, 5));
        cache.store(NodeId(6), trace_from(&g, 6));
        assert!(cache.lookup(NodeId(4)).is_none());
        assert!(cache.lookup(NodeId(5)).is_some());
        assert!(cache.lookup(NodeId(6)).is_some());
    }
}

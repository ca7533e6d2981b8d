//! The shard-local shortest-path-tree cache.
//!
//! Lemma 1 makes spanning trees the unit of server work, and under
//! hotspot/commuter workloads many queries share roots. [`TreeCache`] is
//! the capacity-bounded, exact-LRU store of recorded sweeps
//! ([`SweepTrace`], held in a [`roadnet::LruBuffer`], the workspace's one
//! LRU) that the adopt-or-grow entry point [`crate::run_tree`] consults
//! once per tree: a root with a cached tree deep enough for its goal skips
//! the sweep, and its paths are read straight from the trace
//! ([`crate::TreeView`]). An entry costs at most 32 B per settled node.
//! Every trace keeps a 16-byte `{dist, node, out-degree}` entry per settle
//! in settle-key buckets (plus a 56-byte directory entry per bucket of
//! about 128 settles). A complete trace that settled at least two thirds
//! of the map adds 4 B per map node of index and 4 B of parent node: 24 B
//! per settle when it spans the map, as recorded. Any other adds 8 B of
//! sorted `(node, slot)` pair and 4 B of parent node per settle (28 B in
//! all). A repair lets each bucket keep up to 32 entries of room to grow
//! (at most 8 B more per settle, ≈ 1.4 B on a 2 000-node map after one
//! round of reweighting). A miss stores its sweep recorded to twice the
//! depth its goal needed (or to exhaustion), so the next goal up to twice
//! as deep adopts. Guided trees never enter the cache.
//!
//! Entries are keyed by `(map_epoch, root)`:
//!
//! * **map_epoch** — the cache's own, bumped by [`TreeCache::invalidate`]
//!   when the served map is swapped, which also clears every entry (the
//!   key is defence in depth). Live-traffic weight updates keep the epoch
//!   and go through [`TreeCache::repair_edges`]: traces whose sweep stayed
//!   clear of every updated edge stay as they are, touched complete plain
//!   ones are rewritten into the trace a fresh sweep records on the new
//!   map ([`SweepTrace::repair`], at the cost of the labels that move and
//!   one pass over the trace's buckets), and only the other touched ones
//!   are evicted;
//! * **root** — the node the sweep grew from. Every
//!   [`crate::SharingPolicy`] grows the same single-tree sweeps, so
//!   entries are shared across policies.

use crate::dijkstra::Goal;
use crate::multi::SharingPolicy;
use crate::trace::{EdgeChange, RepairScratch, Stop, SweepTrace};
use roadnet::{GraphView, LruBuffer, NodeId};

/// Full cache key; see the module docs for the role of each component.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct TreeKey {
    map_epoch: u64,
    root: u32,
}

/// Capacity-bounded exact-LRU store of recorded shortest-path trees.
///
/// Owned by one server (one shard); never shared across threads.
#[derive(Debug)]
pub struct TreeCache {
    map_epoch: u64,
    /// Every [`TreeCache::lookup`] is one counted access, so its fault
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
    /// Panics on zero capacity.
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

    /// Cumulative `(hits, misses)` since construction. Monotone — callers
    /// wanting per-query counts take deltas around the call.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The misses of [`TreeCache::counters`] split by cause, cumulative:
    /// `(absent, shallow)` — no entry for the root, or an entry that could
    /// not answer the goal (it stopped short of a goal node). Observability
    /// only; reports never see it.
    ///
    /// *Absent* is the LRU's fault count: every lookup is one counted
    /// access, and [`crate::run_tree`] counts exactly one hit or miss per
    /// lookup (a hit re-reads its entry through the uncounted
    /// [`TreeCache::peek`]).
    pub fn miss_causes(&self) -> (u64, u64) {
        let absent = self.lru.stats().faults;
        (absent, self.misses.saturating_sub(absent))
    }

    /// Drop every entry and move to the next map epoch — the map-swap
    /// invalidation hook. Entries are both cleared *and* unreachable by
    /// key afterwards; the hit/miss counters are not reset (they describe
    /// the cache's lifetime, like server counters).
    pub fn invalidate(&mut self) {
        self.lru.clear();
        self.map_epoch += 1;
    }

    /// Evict the traces whose recorded sweep touched one of the updated
    /// edges (each given by its endpoint pair — see
    /// [`SweepTrace::touches_any`] for the soundness argument), without
    /// repairing any. Untouched traces replay byte-identically on the
    /// updated map, so they stay; the epoch does not move (the topology
    /// did not change), and lifetime counters are untouched.
    /// [`TreeCache::repair_edges`] is the same scan, repairing what it can
    /// instead of evicting it.
    pub fn invalidate_edges(&mut self, endpoints: &[(NodeId, NodeId)]) {
        if endpoints.is_empty() {
            return;
        }
        self.lru.retain(|_, trace| !trace.touches_any(endpoints));
    }

    /// Adopt a live-traffic weight update: every trace whose recorded
    /// sweep touched a changed edge is rewritten in place into the trace a
    /// fresh sweep would record on `g`, the updated map
    /// ([`SweepTrace::repair`] — complete plain traces); a touched trace it
    /// cannot repair is evicted, as [`TreeCache::invalidate_edges`] does.
    /// Untouched traces stay as they are, and the epoch and lifetime
    /// counters do not move.
    pub fn repair_edges<G: GraphView>(&mut self, g: &G, changes: &[EdgeChange]) {
        if changes.is_empty() {
            return;
        }
        let endpoints: Vec<(NodeId, NodeId)> = changes.iter().map(|c| (c.a, c.b)).collect();
        let scratch = &mut self.repair;
        self.lru
            .retain(|_, trace| !trace.touches_any(&endpoints) || trace.repair(g, changes, scratch));
    }

    /// Borrow the stored trace for `root` without counting a use — how
    /// [`crate::run_tree`] reads a hit its lookup already counted.
    pub fn peek(&self, root: NodeId) -> Option<&SweepTrace> {
        self.lru.peek(&self.key(root))
    }

    /// Borrow the stored trace for `root`, if any. Counts as a use for
    /// recency-based eviction.
    pub(crate) fn lookup(&mut self, root: NodeId) -> Option<&SweepTrace> {
        let key = self.key(root);
        self.lru.get(&key)
    }

    /// Where a fresh plain sweep from `root` toward `goal` stops on a map
    /// of `nodes` nodes, if the stored trace ran on a map that size and
    /// provably holds that stop — one lookup, counted as one hit or miss.
    pub(crate) fn adopt(&mut self, root: NodeId, nodes: usize, goal: &Goal) -> Option<Stop> {
        let stop = self
            .lookup(root)
            .filter(|trace| trace.nodes() == nodes)
            .and_then(|trace| trace.stop_for(goal));
        match stop {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        stop
    }

    /// Store `trace` for `root`. Sweeps from one root are prefixes of each
    /// other, so the deeper is kept.
    pub(crate) fn store(&mut self, root: NodeId, trace: SweepTrace) {
        let key = self.key(root);
        let Some(old) = self.lru.insert(key, trace) else { return };
        if old.len() > self.lru.peek(&key).expect("just inserted").len() {
            self.lru.insert(key, old);
        }
    }

    fn key(&self, root: NodeId) -> TreeKey {
        TreeKey { map_epoch: self.map_epoch, root: root.0 }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{SearchArena, run_in_traced, run_tree};
    use roadnet::generators::{GridConfig, grid_network};

    /// A cache that never evicts, for tests that read back every trace
    /// they store.
    pub(crate) fn unbounded() -> TreeCache {
        TreeCache::new(usize::MAX, SharingPolicy::PerSource)
    }

    fn grid() -> roadnet::RoadNetwork {
        grid_network(&GridConfig { width: 10, height: 10, seed: 4, ..Default::default() }).unwrap()
    }

    fn trace_from(g: &roadnet::RoadNetwork, root: u32) -> SweepTrace {
        let mut arena = SearchArena::new();
        run_in_traced(&mut arena, g, NodeId(root), &Goal::AllNodes).1
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
    fn guided_trees_bypass_the_cache() {
        use crate::{AltPreprocessing, TreeView};
        let g = grid();
        let alt = AltPreprocessing::try_build(&g, 4).unwrap();
        let (root, targets) = (NodeId(0), [NodeId(99), NodeId(59)]);
        let (goal, pot) = (Goal::Set(targets.to_vec()), alt.goal_potential(&targets));
        let mut arena = SearchArena::new();
        let fresh = run_tree(&mut arena, &g, root, &goal, Some(&pot), None).0;

        // A cold cache: the guided tree is neither counted nor stored.
        let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
        let (guided, _) = run_tree(&mut arena, &g, root, &goal, Some(&pot), Some(&mut cache));
        assert_eq!(guided, fresh);
        assert_eq!(cache.counters(), (0, 0));
        assert!(cache.is_empty());

        // A plain trace stored earlier from the same root, shallower than
        // the guided tree: the guided tree neither adopts nor replaces it.
        run_tree(&mut arena, &g, root, &Goal::Single(NodeId(11)), None, Some(&mut cache));
        let plain: Vec<NodeId> = cache.peek(root).unwrap().settled().collect();
        assert!((plain.len() as u64) < guided.settled);
        let (again, view) = run_tree(&mut arena, &g, root, &goal, Some(&pot), Some(&mut cache));
        assert!(matches!(view, TreeView::Arena(_)), "grown in the arena");
        assert_eq!((again, cache.counters()), (fresh, (0, 1)));
        assert!(cache.peek(root).unwrap().settled().eq(plain), "the plain trace stays");
        // The plain tree still adopts it.
        run_tree(&mut arena, &g, root, &Goal::Single(NodeId(10)), None, Some(&mut cache));
        assert_eq!(cache.counters(), (1, 1));
    }

    #[test]
    fn invalidation_moves_the_epoch_and_drops_entries() {
        let g = grid();
        let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
        cache.store(NodeId(0), trace_from(&g, 0));
        assert!(cache.adopt(NodeId(0), g.num_nodes(), &Goal::AllNodes).is_some());
        cache.invalidate();
        assert!(cache.is_empty());
        assert!(cache.lookup(NodeId(0)).is_none());
        assert_eq!(cache.counters(), (1, 0), "lifetime counters survive invalidation");
        // New entries land under the new epoch and resolve normally.
        cache.store(NodeId(0), trace_from(&g, 0));
        assert!(cache.lookup(NodeId(0)).is_some());
    }

    #[test]
    fn counters_count_each_tree_once() {
        let g = grid();
        let mut arena = SearchArena::new();
        let mut cache = TreeCache::new(2, SharingPolicy::PerSource);
        assert_eq!(cache.counters(), (0, 0));
        for _ in 0..4 {
            run_tree(&mut arena, &g, NodeId(0), &Goal::Single(NodeId(55)), None, Some(&mut cache));
        }
        assert_eq!(cache.counters(), (3, 1));
    }

    #[test]
    fn miss_causes_split_absent_from_shallow() {
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
        assert_eq!(cache.counters(), (0, 0));
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
            cache.invalidate();
            assert!(cache.is_empty());
            assert!(cache.lookup(NodeId(0)).is_none());
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

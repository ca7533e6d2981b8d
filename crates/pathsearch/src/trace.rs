//! Reusable shortest-path-tree traces — the extraction/adoption layer
//! behind the service's shard-local tree cache.
//!
//! Lemma 1 prices an obfuscated query by the spanning trees the server
//! grows, and hotspot/commuter workloads make many queries share roots:
//! the same tree gets recomputed over and over. A [`SweepTrace`] is the
//! reusable form of one Dijkstra sweep: the settled `(node, dist, parent)`
//! labels **in settle order**, each paired with a snapshot of the sweep's
//! counters at that settle. Adoption ([`SweepTrace::adopt_into`]) replays
//! a recorded sweep into a [`SearchArena`] without touching the heap at
//! all — and, because Dijkstra from a fixed root is deterministic and its
//! goal only ever decides *when to stop*, any two sweeps from the same
//! root *under one heap potential* are prefixes of one another (a
//! goal-directed potential reshapes the settle order, so traces are
//! stamped with it — [`SweepTrace::potential`] — and never adopted
//! across). That gives the two guarantees the cache needs:
//!
//! * **answers** — adopted labels are settled, hence exact; paths read
//!   back identically to a fresh run;
//! * **accounting** — the per-settle counter snapshots are exactly the
//!   values a fresh sweep would report when stopping there, so a cache
//!   hit is *byte-identical* in every stats field to the sweep it
//!   replaced. Execution strategy and cache policy both stay invisible
//!   to reports (the PR-3 invariant, extended to caching).
//!
//! A trace is only adoptable when the goal is **provably inside** the
//! recorded prefix: every goal node must be settled in the trace (the
//! early-termination rule would have stopped within it), or the trace
//! must be complete (the sweep exhausted the root's component, so absent
//! nodes are proven unreachable). Anything else is a miss — the caller
//! grows a fresh, deeper sweep and should re-store it.
//!
//! [`TreeStore`] is the minimal storage interface the adopt-or-grow entry
//! point ([`crate::dijkstra::run_tree`]) drives; the capacity-bounded
//! LRU over it lives in the service layer (`opaque::service::cache`),
//! which also owns the `(map_epoch, root, policy-bits)` keying
//! and invalidation story.

use crate::alt::PotentialParams;
use crate::arena::{NIL, SearchArena};
use crate::dijkstra::Goal;
use crate::stats::SearchStats;
use roadnet::NodeId;

/// One settle event of a recorded sweep: the final label plus the sweep's
/// counter snapshot at the moment a goal check could have stopped there.
#[derive(Clone, Copy, Debug)]
pub struct SettleEvent {
    /// The settled node.
    pub node: u32,
    /// Its final (exact) distance from the root.
    pub dist: f64,
    /// Parent node id in the spanning tree (`u32::MAX` for the root).
    pub parent: u32,
    /// Arc relaxations performed *before* this node expanded its arcs —
    /// what a sweep stopping here would report.
    pub relaxed: u64,
    /// Heap pushes before this node expanded its arcs.
    pub heap_pushes: u64,
    /// Heap pops up to and including the pop that settled this node.
    pub heap_pops: u64,
}

/// A recorded Dijkstra sweep: settle-ordered labels with per-event
/// counter snapshots, reusable via [`SweepTrace::adopt_into`].
#[derive(Clone, Debug)]
pub struct SweepTrace {
    root: NodeId,
    nodes: usize,
    events: Vec<SettleEvent>,
    /// `(node, event index)` sorted by node — the settled-set index.
    positions: Vec<(u32, u32)>,
    /// Counters at sweep end (includes trailing stale pops when the heap
    /// drained) — what a fresh exhausting sweep reports.
    final_stats: SearchStats,
    /// Whether the sweep exhausted the root's component (no early stop),
    /// i.e. every reachable node is settled and absence proves
    /// unreachability.
    complete: bool,
    /// The goal-directed potential the sweep ran under — its landmarks and
    /// goal set (`None` for plain Dijkstra). Guided sweeps settle in
    /// potential-key order, re-keyed as goals of that set settle, so their
    /// counter snapshots only replay a sweep under the *same* potential;
    /// [`crate::dijkstra::run_tree`] compares this before adopting.
    potential: Option<PotentialParams>,
}

impl SweepTrace {
    /// Assemble a trace from a finished sweep's parts, stamped with the
    /// potential it ran under (crate-internal: only the recording sweep
    /// behind [`crate::dijkstra::run_tree`] and
    /// [`crate::dijkstra::run_in_traced`] produces consistent ones).
    pub(crate) fn from_parts(
        root: NodeId,
        nodes: usize,
        mut events: Vec<SettleEvent>,
        final_stats: SearchStats,
        complete: bool,
        potential: Option<PotentialParams>,
    ) -> Self {
        // The recorder reserves one slot per node up front; a trace can
        // live in a cache for a long time, so give back the unused tail —
        // an early-stopped sweep must cost memory proportional to what it
        // settled, not to the map.
        events.shrink_to_fit();
        let mut positions: Vec<(u32, u32)> =
            events.iter().enumerate().map(|(i, e)| (e.node, i as u32)).collect();
        positions.sort_unstable();
        SweepTrace { root, nodes, events, positions, final_stats, complete, potential }
    }

    /// The goal-directed potential the recorded sweep ran under, if any.
    /// Adoption is only sound under the identical potential (or `None`
    /// against `None`): the settle *order* — and with it every counter
    /// snapshot — depends on it.
    pub fn potential(&self) -> Option<&PotentialParams> {
        self.potential.as_ref()
    }

    /// The node the sweep grew from.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Node count of the graph the sweep ran on (adoption refuses other
    /// sizes — a different map must be a different cache epoch anyway).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of settled nodes recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty (never — sweeps settle their root — but
    /// the conventional pair to [`SweepTrace::len`]).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether the sweep exhausted its component.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The settled nodes in settle order (nearest-first). Lets callers
    /// measure a sweep's *spatial footprint* — e.g. how much of it falls
    /// inside one shard's region under region-owned placement — without
    /// exposing the per-event counter snapshots.
    pub fn settled(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.events.iter().map(|e| NodeId(e.node))
    }

    /// Settle-order index of `node`, if the sweep settled it.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.positions
            .binary_search_by(|&(n, _)| n.cmp(&node.0))
            .ok()
            .map(|i| self.positions[i].1 as usize)
    }

    /// Whether this recorded sweep depends on any of the given edges, each
    /// described by its endpoint pair — the surgical-invalidation predicate
    /// for live-traffic weight updates.
    ///
    /// A sweep is affected by an edge `(a, b)` iff it settled `a` or `b`.
    /// Soundness: every arc a sweep relaxes leaves a settled node, so an
    /// edge with both endpoints unsettled was never relaxed during the
    /// recorded prefix, and every relaxation *into* `a` or `b` came over an
    /// unchanged arc — a fresh sweep on the updated map replays the prefix
    /// (labels and counter snapshots) byte-identically. For complete
    /// traces, both endpoints unsettled means the edge is unreachable from
    /// the root, and finite non-negative reweighting cannot change
    /// reachability, so the exhausted sweep replays too. A trace that
    /// returns `false` here therefore stays exact under the update; one
    /// that returns `true` must be evicted before it can be adopted.
    pub fn touches_any(&self, endpoints: &[(NodeId, NodeId)]) -> bool {
        endpoints.iter().any(|&(a, b)| self.position(a).is_some() || self.position(b).is_some())
    }

    /// Where a fresh sweep with `goal` would stop, if that point is
    /// provably inside this trace; `None` means the trace cannot answer
    /// the goal (some goal node lies beyond the settled radius of an
    /// incomplete sweep).
    fn stop_for(&self, goal: &Goal) -> Option<Stop> {
        match goal {
            Goal::AllNodes => self.complete.then_some(Stop::Exhausted),
            Goal::Single(t) => match self.position(*t) {
                Some(i) => Some(Stop::At(i)),
                None => self.complete.then_some(Stop::Exhausted),
            },
            Goal::Set(ts) => {
                let mut last = None;
                for t in ts {
                    match self.position(*t) {
                        Some(i) => last = Some(last.map_or(i, |l: usize| l.max(i))),
                        // One unsettled target: only a complete sweep can
                        // answer it (by proving it unreachable), and then
                        // the fresh sweep would exhaust too.
                        None => return self.complete.then_some(Stop::Exhausted),
                    }
                }
                match last {
                    Some(i) => Some(Stop::At(i)),
                    // Empty goal set never triggers the stop rule.
                    None => self.complete.then_some(Stop::Exhausted),
                }
            }
        }
    }

    /// Adopt this trace into `arena` (tree 0) as the answer to `goal`,
    /// skipping the Dijkstra sweep entirely. On success the arena reads
    /// exactly like a fresh [`crate::dijkstra::run_in`] from the same
    /// root with the same goal — same settled labels, same paths — and
    /// the returned counters are byte-identical to that run's (stats
    /// replay from the per-settle snapshots). Returns `None` when the
    /// goal is not provably inside the recorded prefix, in which case the
    /// arena is left mid-generation and the caller must run the search
    /// for real (which begins a fresh generation).
    ///
    /// One observable difference to a fresh run is intentional: frontier
    /// nodes beyond the stopping point carry *no* tentative labels after
    /// adoption (a fresh run leaves some), so [`SearchArena::distance`]
    /// returns `None` where a fresh run may return a tentative upper
    /// bound. Settled reads — everything results are built from — are
    /// identical.
    pub fn adopt_into(&self, arena: &mut SearchArena, goal: &Goal) -> Option<SearchStats> {
        let stop = self.stop_for(goal)?;
        arena.begin(self.nodes, 1);
        let (upto, stats) = match stop {
            Stop::At(i) => {
                let e = &self.events[i];
                (
                    i,
                    SearchStats {
                        settled: i as u64 + 1,
                        relaxed: e.relaxed,
                        heap_pushes: e.heap_pushes,
                        heap_pops: e.heap_pops,
                        runs: 1,
                    },
                )
            }
            Stop::Exhausted => (self.events.len() - 1, self.final_stats),
        };
        for e in &self.events[..=upto] {
            let parent = (e.parent != NIL).then_some(NodeId(e.parent));
            arena.label(0, NodeId(e.node), e.dist, parent);
            arena.settle(0, NodeId(e.node));
        }
        Some(stats)
    }
}

/// Where an adopted sweep stops.
enum Stop {
    /// At settle event `i` (the goal's last node settles there).
    At(usize),
    /// Never — the sweep exhausts the component, trailing stale pops
    /// included.
    Exhausted,
}

/// Storage interface the adopt-or-grow entry point
/// ([`crate::dijkstra::run_tree`]) drives. One implementation lives in
/// the service layer (`opaque::service::cache::TreeCache` — the
/// capacity-bounded, epoch-keyed LRU); tests use ad-hoc map-backed
/// stores.
///
/// Implementations are shard-local by design: the parallel service layer
/// pins one store per worker thread next to its [`SearchArena`], so no
/// locking is ever needed on the hot path.
pub trait TreeStore {
    /// Borrow the stored trace for `root`, if any. Counts as a use for
    /// recency-based eviction.
    fn lookup(&mut self, root: NodeId) -> Option<&SweepTrace>;

    /// Store `trace` for `root`, replacing any previous entry. Between
    /// two traces under the same [`SweepTrace::potential`] stores should
    /// keep the *deeper* — such sweeps are prefixes of each other, so the
    /// longer one answers strictly more goals. Depth says nothing across
    /// potentials: there the newer trace should win, or the goal set that
    /// just missed would miss again on every repeat.
    fn store(&mut self, root: NodeId, trace: SweepTrace);

    /// A lookup whose trace satisfied the goal (the sweep was skipped).
    fn note_hit(&mut self);

    /// A tree that had to be grown for real (no entry, or the goal lay
    /// beyond the recorded prefix).
    fn note_miss(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{run_in, run_in_traced};
    use roadnet::generators::{GridConfig, grid_network};
    use roadnet::{GraphBuilder, Point};

    fn grid() -> roadnet::RoadNetwork {
        grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() }).unwrap()
    }

    #[test]
    fn adoption_replays_labels_paths_and_stats_exactly() {
        let g = grid();
        let root = NodeId(5);
        // Record a deep sweep, then check adoption against fresh runs for
        // a spread of goals strictly inside it.
        let mut arena = SearchArena::new();
        let (_, trace) = run_in_traced(&mut arena, &g, root, &Goal::AllNodes);
        assert!(trace.is_complete());
        assert_eq!(trace.len(), g.num_nodes());

        for goal in [
            Goal::Single(NodeId(143)),
            Goal::Single(NodeId(6)),
            Goal::Set(vec![NodeId(100), NodeId(37), NodeId(9)]),
            Goal::Set(vec![NodeId(0), NodeId(143)]),
            Goal::AllNodes,
        ] {
            let mut fresh_arena = SearchArena::new();
            let fresh = run_in(&mut fresh_arena, &g, root, &goal);
            let adopted = trace.adopt_into(&mut arena, &goal).expect("goal inside trace");
            assert_eq!(adopted, fresh, "stats must replay byte-identically for {goal:?}");
            let targets: Vec<NodeId> = match &goal {
                Goal::Single(t) => vec![*t],
                Goal::Set(ts) => ts.clone(),
                Goal::AllNodes => (0..g.num_nodes() as u32).map(NodeId).collect(),
            };
            for t in targets {
                assert_eq!(
                    arena.path_to(0, t),
                    fresh_arena.path_to(0, t),
                    "path to {t} diverged for {goal:?}"
                );
            }
        }
    }

    #[test]
    fn partial_trace_is_a_prefix_and_only_answers_inside_its_radius() {
        let g = grid();
        let root = NodeId(0);
        let mut arena = SearchArena::new();
        // A bounded sweep: stops when NodeId(30) settles.
        let (partial_stats, partial) =
            run_in_traced(&mut arena, &g, root, &Goal::Single(NodeId(30)));
        assert!(!partial.is_complete());
        assert_eq!(partial_stats.settled, partial.len() as u64);
        let (_, full) = run_in_traced(&mut arena, &g, root, &Goal::AllNodes);
        // Prefix property: the partial sweep is the full sweep truncated.
        for (i, e) in partial.events.iter().enumerate() {
            assert_eq!(e.node, full.events[i].node, "settle order diverged at {i}");
            assert_eq!(e.dist, full.events[i].dist);
        }
        assert!(partial.events.last().unwrap().dist <= full.events.last().unwrap().dist);

        // Inside the radius: adoptable, byte-identical to a fresh run.
        let inside = partial.events[partial.len() / 2].node;
        let mut fresh_arena = SearchArena::new();
        let fresh = run_in(&mut fresh_arena, &g, root, &Goal::Single(NodeId(inside)));
        let adopted = partial.adopt_into(&mut arena, &Goal::Single(NodeId(inside))).unwrap();
        assert_eq!(adopted, fresh);

        // Beyond the radius (or any unsettled node): refuse.
        let unsettled =
            (0..g.num_nodes() as u32).map(NodeId).find(|n| partial.position(*n).is_none()).unwrap();
        assert!(partial.adopt_into(&mut arena, &Goal::Single(unsettled)).is_none());
        assert!(
            partial.adopt_into(&mut arena, &Goal::Set(vec![NodeId(inside), unsettled])).is_none(),
            "one goal node beyond the prefix poisons the whole set"
        );
        assert!(partial.adopt_into(&mut arena, &Goal::AllNodes).is_none());
    }

    #[test]
    fn complete_trace_proves_unreachability() {
        // Two components: adoption must answer queries for the far
        // component's nodes with "unreachable" and exhausted stats.
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        b.add_edge(NodeId(4), NodeId(5), 1.0).unwrap();
        let g = b.build().unwrap();

        let mut arena = SearchArena::new();
        // Goal::Single on an unreachable node exhausts the component, so
        // the trace comes out complete.
        let (_, trace) = run_in_traced(&mut arena, &g, NodeId(0), &Goal::Single(NodeId(5)));
        assert!(trace.is_complete());
        assert_eq!(trace.len(), 3);

        let mut fresh_arena = SearchArena::new();
        let fresh = run_in(&mut fresh_arena, &g, NodeId(0), &Goal::Single(NodeId(4)));
        let adopted = trace.adopt_into(&mut arena, &Goal::Single(NodeId(4))).unwrap();
        assert_eq!(adopted, fresh, "exhausted stats replay, trailing stale pops included");
        assert_eq!(arena.path_to(0, NodeId(4)), None);
        assert_eq!(arena.distance(0, NodeId(4)), None);

        // Mixed goal set: reachable + unreachable also exhausts.
        let fresh = run_in(&mut fresh_arena, &g, NodeId(0), &Goal::Set(vec![NodeId(2), NodeId(5)]));
        let adopted = trace.adopt_into(&mut arena, &Goal::Set(vec![NodeId(2), NodeId(5)])).unwrap();
        assert_eq!(adopted, fresh);
        assert!(arena.path_to(0, NodeId(2)).is_some());
    }

    #[test]
    fn duplicate_goal_nodes_match_fresh_runs() {
        let g = grid();
        let mut arena = SearchArena::new();
        let (_, trace) = run_in_traced(&mut arena, &g, NodeId(7), &Goal::AllNodes);
        let goal = Goal::Set(vec![NodeId(100), NodeId(100), NodeId(12)]);
        let mut fresh_arena = SearchArena::new();
        let fresh = run_in(&mut fresh_arena, &g, NodeId(7), &goal);
        assert_eq!(trace.adopt_into(&mut arena, &goal), Some(fresh));
    }

    #[test]
    fn touches_any_tracks_the_settled_set() {
        let g = grid();
        let mut arena = SearchArena::new();
        let (_, partial) = run_in_traced(&mut arena, &g, NodeId(0), &Goal::Single(NodeId(30)));
        assert!(!partial.is_complete());
        let settled = NodeId(partial.events[partial.len() / 2].node);
        let unsettled =
            (0..g.num_nodes() as u32).map(NodeId).find(|n| partial.position(*n).is_none()).unwrap();
        // One settled endpoint is enough; order of the pair is irrelevant.
        assert!(partial.touches_any(&[(settled, unsettled)]));
        assert!(partial.touches_any(&[(unsettled, settled)]));
        // Both endpoints beyond the settled prefix: the sweep never relaxed
        // the edge, so the trace is unaffected.
        let unsettled2 = (0..g.num_nodes() as u32)
            .map(NodeId)
            .filter(|n| partial.position(*n).is_none())
            .nth(1)
            .unwrap();
        assert!(!partial.touches_any(&[(unsettled, unsettled2)]));
        // Any touched pair in a batch flags the whole batch; an empty batch
        // touches nothing.
        assert!(partial.touches_any(&[(unsettled, unsettled2), (settled, settled)]));
        assert!(!partial.touches_any(&[]));
    }

    #[test]
    fn radius_and_positions_are_consistent() {
        let g = grid();
        let mut arena = SearchArena::new();
        let (_, trace) = run_in_traced(&mut arena, &g, NodeId(60), &Goal::Single(NodeId(80)));
        assert_eq!(trace.root(), NodeId(60));
        assert_eq!(trace.nodes(), g.num_nodes());
        assert!(!trace.is_empty());
        assert_eq!(trace.position(NodeId(60)), Some(0), "the root settles first");
        let r = trace.events.last().unwrap().dist;
        for e in &trace.events {
            assert!(e.dist <= r + 1e-12, "settle order is nondecreasing in distance");
            assert_eq!(trace.position(NodeId(e.node)).map(|i| trace.events[i].node), Some(e.node));
        }
        // The public settled-nodes view mirrors the event log exactly.
        let settled: Vec<NodeId> = trace.settled().collect();
        assert_eq!(settled.len(), trace.len());
        assert_eq!(settled[0], NodeId(60));
        for (i, &n) in settled.iter().enumerate() {
            assert_eq!(trace.position(n), Some(i));
        }
    }
}

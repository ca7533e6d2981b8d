//! Dijkstra's algorithm \[1\] — the server's baseline path-query evaluator —
//! including the single-source **multi-destination** variant the paper's
//! Lemma 1 builds on: "Dijkstra's algorithm is extensible to search paths
//! from a single source to multiple destinations by forming a spanning tree
//! until all the destinations are reached" (§III-B).
//!
//! The implementation is a lazy-deletion binary-heap Dijkstra over the
//! reusable, generation-stamped [`SearchArena`]. Its heap entries are 16
//! bytes ordered by integer compares alone (the key is encoded once, at
//! push); a popped entry is fresh iff its slot still holds its push stamp.
//! Every plain tree on a map whose weights allow it, recorded or not,
//! drains `crate::bucket`'s heap-free ring instead, to the same labels,
//! parents, counters and traces. A recorded tree, on either loop, logs its
//! settles in the arena, and its [`SweepTrace`] is built from the arena
//! after the sweep. Repeated queries on the same network
//! pay no per-query `O(n)` initialization *or allocation* — the cost of a
//! query is proportional to the area it actually explores, which is the
//! quantity Lemma 1 reasons about. Every entry grows one tree in a
//! caller-provided arena (e.g. the one a `DirectionsServer` shares with its
//! MSMD processor): [`run_tree`] — the one adopt-or-grow entry, with the
//! goal potential and the tree cache as optional parameters — answers a
//! tree-cache hit straight from the stored trace, and says which of the two
//! holds the labels ([`TreeView`]); [`run_in`] / [`run_in_traced`] are its
//! plain arities, whose labels the caller reads from the arena.

use crate::alt::GoalPotential;
use crate::arena::{SearchArena, ord_of};
use crate::bucket;
use crate::cache::TreeCache;
use crate::path::Path;
use crate::stats::SearchStats;
use crate::trace::{SweepTrace, TreeView};
use roadnet::{GraphView, NodeId};

/// Search termination condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Goal {
    /// Settle every reachable node (full spanning tree).
    AllNodes,
    /// Stop as soon as this node is settled.
    Single(NodeId),
    /// Stop as soon as *all* of these nodes are settled — the
    /// multi-destination extension of §III-B.
    Set(Vec<NodeId>),
}

/// What a plain cache miss records, as a multiple of the settles its goal
/// needed: a miss whose goal is met at settle `k` keeps the sweep going to
/// `2·k` settles (or until the component is exhausted). A miss thus
/// costs at most twice the sweep it replaces, and each repeated miss of a
/// root at least doubles the depth stored for it, so between evictions a
/// root misses at most `log₂ n` times. A fixed constant, not a knob.
pub(crate) const DEEPEN_FACTOR: usize = 2;

/// Where the heap loop stops, and whether it logs its settles in the arena:
/// every rule but an unrecorded tree's does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Until {
    /// At the settle that meets the goal, unlogged.
    Goal,
    /// At the settle that meets the goal, for a trace.
    Traced,
    /// Past the goal, a cache miss's depth: before the settle after
    /// [`DEEPEN_FACTOR`] × the goal's settles, or after the first settle
    /// that breaks the strict `(dist, node)` order (a trace keeps no more;
    /// at the goal itself when one came before it).
    Deepened,
    /// Before the first label beyond this distance.
    Radius(f64),
}

/// What one sweep reports.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Swept {
    /// The counters where the goal was met: the goal-stopping sweep's,
    /// however far it went on. The end counters when it never was.
    pub(crate) stats: SearchStats,
    /// Whether the goal was met.
    pub(crate) met: bool,
    /// Whether the sweep exhausted the root's component.
    pub(crate) exhausted: bool,
}

/// The heap potential of one sweep: keys are `dist + eval(node)`. Closures
/// are potentials that never change (the zero potential, `astar_with`'s
/// heuristic), so those instantiations carry no `retire` at all.
pub(crate) trait Potential {
    /// The potential at `n`.
    fn eval(&self, n: NodeId) -> f64;

    /// `settled` has just been settled by the sweep; returns whether the
    /// potential changed because of it (the open frontier must then be
    /// re-keyed). Whatever it changes to must stay consistent.
    #[inline]
    fn retire(&mut self, _settled: NodeId) -> bool {
        false
    }
}

impl<F: Fn(NodeId) -> f64> Potential for F {
    #[inline]
    fn eval(&self, n: NodeId) -> f64 {
        self(n)
    }
}

/// The one Dijkstra loop on the heap, parameterized over the heap
/// potential, stopped where `until` says. With the zero potential
/// (`|_| 0.0`) every key equals its raw distance bit-for-bit (`x + 0.0 ==
/// x` for the non-negative distances a sweep produces). With a
/// *consistent* potential π (1-Lipschitz along edges, e.g.
/// [`GoalPotential::eval`]), keys `dist + π(node)` pop in nondecreasing
/// order, every settled label is still exact, and the goal checks below
/// stop at the same (now earlier-reached) conditions — only the settle
/// *order* and the explored region change. A potential that narrows as its
/// goals settle ([`Potential::retire`]) has the open frontier re-keyed on
/// the spot; the settled prefix needs nothing (see [`SearchArena`]'s
/// `rekey`). Each settle leaves its out-degree in the arena, and every rule
/// but [`Until::Goal`] logs it there: all a trace is built from afterwards.
pub(crate) fn heap_tree<G: GraphView, P: Potential>(
    arena: &mut SearchArena,
    g: &G,
    source: NodeId,
    goal: &Goal,
    until: Until,
    pot: &mut P,
) -> Swept {
    let n = g.num_nodes();
    assert!(source.index() < n, "source out of range");
    arena.begin(n);
    let mut stats = SearchStats::default();

    // Sorted, deduplicated goal set in the arena's reusable buffer.
    let mut remaining = arena.take_goal_scratch();
    if let Goal::Set(set) = goal {
        remaining.extend_from_slice(set);
        remaining.sort_unstable();
        remaining.dedup();
    }
    arena.label(source, 0.0, None);
    arena.push(0.0 + pot.eval(source), source);

    let mut at_goal = None::<SearchStats>;
    // Deepening only: the last settle's key, and whether every settle came
    // strictly after the one before it.
    let (mut last, mut ordered) = (None, true);
    // Whether the heap drained: the sweep exhausted the root's component.
    let exhausted = loop {
        let Some(e) = arena.pop() else { break true };
        // Lazy deletion: skip entries for already-settled nodes or labels
        // that a shorter one has since overwritten.
        if !arena.is_fresh(&e) {
            continue;
        }
        let node = e.node();
        // Fresh, so the slot holds exactly the distance the entry was
        // pushed with.
        let d_node = arena.dist_raw(node);
        let stop = match until {
            Until::Goal | Until::Traced => false,
            Until::Deepened => at_goal
                .is_some_and(|k| !ordered || stats.settled == (DEEPEN_FACTOR as u64) * k.settled),
            Until::Radius(hi) => d_node > hi,
        };
        if stop {
            break false;
        }
        arena.settle(node);
        if until != Until::Goal {
            arena.log.push(node.0);
        }
        stats.settled += 1;
        if until == Until::Deepened {
            let key = Some((ord_of(d_node), node.0));
            ordered &= last < key;
            last = key;
        }

        // The goal rule: where a sweep for `goal` stops. It fires at most
        // once — a single target settles once, and an emptied set never
        // empties again — so a sweep that keeps going past it never sees
        // it again.
        let met = match goal {
            Goal::Single(t) => *t == node,
            Goal::Set(_) => match remaining.binary_search(&node) {
                Ok(pos) => {
                    remaining.remove(pos);
                    remaining.is_empty()
                }
                Err(_) => false,
            },
            Goal::AllNodes => false,
        };
        if met {
            at_goal = Some(stats);
            if until != Until::Deepened || !ordered {
                break false;
            }
        }
        if pot.retire(node) {
            arena.rekey(|n| pot.eval(n));
        }

        let mut degree = 0u32;
        g.for_each_arc(node, &mut |to, w| {
            degree += 1;
            let cand = d_node + w;
            arena.relax_keyed(node, to, cand, || cand + pot.eval(to));
        });
        stats.relaxed += u64::from(degree);
        arena.set_degree(node, degree);
    };
    arena.put_goal_scratch(remaining);
    Swept { stats: at_goal.unwrap_or(stats), met: at_goal.is_some(), exhausted }
}

/// The zero potential behind the plain entry points — inlines to nothing.
#[inline]
pub(crate) fn zero_pot(_: NodeId) -> f64 {
    0.0
}

/// Grow one unrecorded tree for real, selecting the loop **once per
/// tree**: a [`GoalPotential`] keys the heap by `dist + π_R(node)` over the
/// goals `R` this tree has not settled yet; a plain tree runs on the bucket
/// ring where the map's weights allow it (`bucket::exact_on_ring`), else on
/// the heap under the zero potential (which monomorphizes away).
fn grow<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    root: NodeId,
    goal: &Goal,
    pot: Option<&GoalPotential<'_>>,
) -> SearchStats {
    match pot {
        Some(p) => heap_tree(arena, g, root, goal, Until::Goal, &mut p.live()).stats,
        None => bucket::tree(arena, g, root, goal)
            .unwrap_or_else(|| heap_tree(arena, g, root, goal, Until::Goal, &mut zero_pot).stats),
    }
}

/// Grow one plain tree, on the ring where [`grow`] would, and build its
/// [`SweepTrace`] from the finished sweep. With `deepen` the sweep goes on
/// past its goal (see [`DEEPEN_FACTOR`]); the counters returned are always
/// the goal-stopping sweep's.
fn grow_traced<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    root: NodeId,
    goal: &Goal,
    deepen: bool,
) -> (SearchStats, SweepTrace) {
    let until = if deepen { Until::Deepened } else { Until::Traced };
    let swept = bucket::recorded_tree(arena, g, root, goal, deepen)
        .unwrap_or_else(|| heap_tree(arena, g, root, goal, until, &mut zero_pot));
    (swept.stats, SweepTrace::build(arena, &swept, deepen))
}

/// Run one Dijkstra sweep from `source` inside `arena` until
/// `goal` is met. Returns per-run counters; the labels stay readable via
/// [`SearchArena::distance`] / [`SearchArena::path_to`] until the arena's
/// next search begins. This is [`run_tree`] with no potential and no store.
///
/// # Panics
/// Panics if `source` is out of range for `g`.
pub fn run_in<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    source: NodeId,
    goal: &Goal,
) -> SearchStats {
    grow(arena, g, source, goal, None)
}

/// [`run_in`], additionally recording the sweep as a reusable
/// [`SweepTrace`] (see [`crate::trace`]). The tree is the same — same
/// settled labels, same counters — and its trace is built from the arena
/// once it has grown, so tracing is safe to leave on whenever a tree cache
/// might want the result.
///
/// # Panics
/// Panics if `source` is out of range for `g`.
pub fn run_in_traced<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    source: NodeId,
    goal: &Goal,
) -> (SearchStats, SweepTrace) {
    grow_traced(arena, g, source, goal, false)
}

/// The **adopt-or-grow** single-tree sweep — the one entry every MSMD
/// policy and the server's plain queries drive, with both policy axes as
/// parameters. Returns the tree's counters and a [`TreeView`] of where its
/// labels live, which is where every caller reads its paths:
///
/// * `pot` — `Some(π)` keys the heap by `dist + π(node)` (A*-style goal
///   direction with exact settled labels, provided π is consistent —
///   [`GoalPotential`] is); `None` is plain Dijkstra, byte-identical to
///   [`run_in`]. Settled labels, parents, and paths are identical either
///   way whenever shortest paths are unique; only the settle order and the
///   settled/relaxed counters shrink.
/// * `cache` — with no potential, `Some` consults it for a recorded sweep
///   from `root` and, when `goal` is provably inside the recorded prefix,
///   answers from it: no Dijkstra, no arena write — the view reads the
///   stored trace's goal-stop prefix by walking the targets' parent
///   nodes side by side, and the counters are the trace's at that stop
///   (one rank query), byte-identical to the sweep skipped. Otherwise the
///   tree is grown for real in `arena`, recorded, and re-stored, and the
///   view reads the arena. Hit or miss is reported through
///   [`TreeCache::counters`]. `None` grows the tree unrecorded in `arena`
///   — nothing beyond the sweep itself is allocated. Either way a plain
///   tree grows on the bucket ring wherever the map's weights allow it
///   (see the module docs).
///
/// A miss records past its goal: the same sweep keeps settling until it
/// has settled `DEEPEN_FACTOR` (= 2) times the `k` nodes the goal needed,
/// or exhausted the root's component, and stores all of it — the goal only
/// decides where a plain tree stops, never its shape, so the next goal
/// from that root up to twice as deep adopts instead of regrowing. The
/// settle order is untouched, so every label the caller reads is the
/// goal-stopping sweep's, and the returned counters are that sweep's too:
/// like an adoption, a miss reports the *logical* goal-stop work, not the
/// deeper work it physically did. A sweep whose settle-key order breaks
/// (a zero-weight tie) stores only its ordered prefix, and stops at its
/// goal, or past it at the first settle out of order.
///
/// A guided tree (`pot` is `Some`) bypasses the cache: its potential
/// reshapes the settle order, so no stored trace replays it. It grows in
/// the arena unrecorded and counts neither a hit nor a miss.
///
/// # Panics
/// Panics if `root` is out of range for `g`.
pub fn run_tree<'a, G: GraphView>(
    arena: &'a mut SearchArena,
    g: &G,
    root: NodeId,
    goal: &Goal,
    pot: Option<&GoalPotential<'_>>,
    cache: Option<&'a mut TreeCache>,
) -> (SearchStats, TreeView<'a>) {
    let (Some(cache), None) = (cache, pot) else {
        let stats = grow(arena, g, root, goal, pot);
        return (stats, TreeView::Arena(arena));
    };
    match cache.adopt(root, g.num_nodes(), goal) {
        Some(stop) => {
            // The counted lookup inside `adopt` already paid for this
            // entry. The view re-borrows it uncounted: returning the
            // lookup's borrow from this arm would keep the cache borrowed
            // in the miss arm's `store`, which the borrow checker rejects.
            let cache: &'a TreeCache = cache;
            let trace = cache.peek(root).expect("the entry that just hit");
            (trace.stats_at(stop), trace.view(stop))
        }
        None => {
            let (stats, trace) = grow_traced(arena, g, root, goal, true);
            cache.store(root, trace);
            (stats, TreeView::Arena(arena))
        }
    }
}

/// One-shot shortest path `P(s,t)`; `None` if `t` is unreachable.
pub fn shortest_path<G: GraphView>(g: &G, s: NodeId, t: NodeId) -> Option<Path> {
    let mut arena = SearchArena::new();
    run_in(&mut arena, g, s, &Goal::Single(t));
    arena.path_to(t)
}

/// One-shot shortest-path distance `‖s,t‖`.
pub fn shortest_distance<G: GraphView>(g: &G, s: NodeId, t: NodeId) -> Option<f64> {
    let mut arena = SearchArena::new();
    run_in(&mut arena, g, s, &Goal::Single(t));
    arena.distance(t)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::alt::AltPreprocessing;
    use roadnet::generators::{GridConfig, NetworkClass, grid_network};
    use roadnet::{GraphBuilder, Point};

    /// `g` as a view that keeps no arc weights, as a paged one: every plain
    /// tree over it grows on the heap.
    pub(crate) struct OnHeap<'a, G>(pub(crate) &'a G);

    impl<G: GraphView> GraphView for OnHeap<'_, G> {
        fn num_nodes(&self) -> usize {
            self.0.num_nodes()
        }

        fn point(&self, n: NodeId) -> Point {
            self.0.point(n)
        }

        fn for_each_arc(&self, n: NodeId, f: &mut dyn FnMut(NodeId, f64)) {
            self.0.for_each_arc(n, f);
        }

        fn is_symmetric(&self) -> bool {
            self.0.is_symmetric()
        }
    }

    fn diamond() -> roadnet::RoadNetwork {
        // 0 —1→ 1 —1→ 3 ; 0 —3→ 2 —0.5→ 3 : best 0→1→3 = 2.0
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 3.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn finds_shortest_path_in_diamond() {
        let g = diamond();
        let p = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert!((p.distance() - 2.0).abs() < 1e-12);
        assert!(p.verify(&g, 1e-9));
    }

    #[test]
    fn source_equals_target() {
        let g = diamond();
        let p = shortest_path(&g, NodeId(2), NodeId(2)).unwrap();
        assert_eq!(p.num_edges(), 0);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0)).unwrap();
        b.add_node(Point::new(1.0, 0.0)).unwrap();
        b.add_node(Point::new(2.0, 0.0)).unwrap();
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let g = b.build().unwrap();
        assert!(shortest_path(&g, NodeId(0), NodeId(2)).is_none());
        assert!(shortest_distance(&g, NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn early_termination_settles_fewer_nodes_than_full_tree() {
        let g = grid_network(&GridConfig { width: 24, height: 24, seed: 1, ..Default::default() })
            .unwrap();
        let mut a = SearchArena::new();
        let full = run_in(&mut a, &g, NodeId(0), &Goal::AllNodes);
        let single = run_in(&mut a, &g, NodeId(0), &Goal::Single(NodeId(25))); // a nearby node
        assert!(single.settled < full.settled / 4, "{} vs {}", single.settled, full.settled);
        assert_eq!(full.settled, 24 * 24, "full tree settles every node");
    }

    #[test]
    fn multi_destination_matches_individual_searches() {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 3, ..Default::default() })
            .unwrap();
        let s = NodeId(5);
        let targets = [NodeId(100), NodeId(37), NodeId(143), NodeId(9)];
        let mut a = SearchArena::new();
        let stats = run_in(&mut a, &g, s, &Goal::Set(targets.to_vec()));
        for &t in &targets {
            let solo = shortest_path(&g, s, t).unwrap();
            let multi = a.path_to(t).unwrap();
            assert!((solo.distance() - multi.distance()).abs() < 1e-9, "target {t}");
            assert!(multi.verify(&g, 1e-9));
        }
        // Multi-destination cost ≤ sum of individual costs.
        let individual: u64 = targets
            .iter()
            .map(|&t| run_in(&mut SearchArena::new(), &g, s, &Goal::Single(t)).settled)
            .sum();
        assert!(stats.settled <= individual);
    }

    #[test]
    fn multi_destination_cost_tracks_farthest_target_only() {
        // Lemma 1's observation: adding near targets to a far one is ~free.
        let g = grid_network(&GridConfig { width: 30, height: 30, seed: 7, ..Default::default() })
            .unwrap();
        let s = NodeId(0);
        let far = NodeId(30 * 30 - 1);
        let mut a = SearchArena::new();
        let far_only = run_in(&mut a, &g, s, &Goal::Set(vec![far]));
        let with_near =
            run_in(&mut a, &g, s, &Goal::Set(vec![far, NodeId(31), NodeId(62), NodeId(100)]));
        let ratio = with_near.settled as f64 / far_only.settled as f64;
        assert!(ratio <= 1.05, "near targets inflated cost by {ratio}");
    }

    #[test]
    fn duplicate_targets_are_handled() {
        let g = diamond();
        let targets = [NodeId(3), NodeId(3)];
        let mut a = SearchArena::new();
        run_in(&mut a, &g, NodeId(0), &Goal::Set(targets.to_vec()));
        let paths: Vec<_> = targets.iter().map(|&t| a.path_to(t)).collect();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0], paths[1]);
    }

    #[test]
    fn searcher_reuse_resets_labels() {
        let g = diamond();
        let mut a = SearchArena::new();
        run_in(&mut a, &g, NodeId(0), &Goal::AllNodes);
        assert!(a.distance(NodeId(3)).is_some());
        run_in(&mut a, &g, NodeId(3), &Goal::Single(NodeId(2)));
        // Distance now from node 3, not node 0.
        assert!((a.distance(NodeId(2)).unwrap() - 0.5).abs() < 1e-12);
        // Node 1 may or may not be labelled; if labelled, from the new source.
        if let Some(d) = a.distance(NodeId(1)) {
            assert!(d >= 0.5);
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost paths: parents must be chosen deterministically.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        let g = b.build().unwrap();
        let p1 = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        let p2 = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p1, p2);
        assert!((p1.distance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_are_plausible() {
        let g = grid_network(&GridConfig { width: 10, height: 10, seed: 0, ..Default::default() })
            .unwrap();
        let st = run_in(&mut SearchArena::new(), &g, NodeId(0), &Goal::AllNodes);
        assert_eq!(st.settled, 100);
        assert!(st.relaxed >= st.settled);
    }

    #[test]
    fn counters_are_pinned() {
        // Settle order of the single-tree loop, pinned per network class: a
        // plain three-target set, a full sweep, and an ALT-guided sweep
        // toward the same set, whose goals settle at different times so the
        // open frontier is re-keyed on the way. Each row is (settled,
        // relaxed).
        let pinned = [
            (NetworkClass::Grid, [[286, 1057], [576, 2124], [87, 308]]),
            (NetworkClass::Geometric, [[401, 1514], [600, 2264], [121, 447]]),
            (NetworkClass::Radial, [[260, 872], [577, 1894], [108, 358]]),
        ];
        for (class, want) in pinned {
            let g = class.generate(600, 13).unwrap();
            let n = g.num_nodes() as u32;
            let targets = [NodeId(n / 5), NodeId(n / 3), NodeId(n / 2)];
            let set = Goal::Set(targets.to_vec());
            let alt = AltPreprocessing::try_build(&g, 4).expect("a symmetric map");
            let pot = alt.goal_potential(&targets);
            let mut arena = SearchArena::new();
            let got = [
                run_in(&mut arena, &g, NodeId(0), &set),
                run_in(&mut arena, &g, NodeId(0), &Goal::AllNodes),
                run_tree(&mut arena, &g, NodeId(0), &set, Some(&pot), None).0,
            ]
            .map(|st| [st.settled, st.relaxed]);
            assert_eq!(got, want, "{}", class.name());
        }
    }

    #[test]
    fn out_of_range_reads_are_none_not_stale() {
        let big =
            grid_network(&GridConfig { width: 10, height: 10, seed: 0, ..Default::default() })
                .unwrap();
        let small = diamond();
        let mut a = SearchArena::new();
        run_in(&mut a, &big, NodeId(0), &Goal::AllNodes);
        run_in(&mut a, &small, NodeId(0), &Goal::AllNodes);
        // Node 50 exists only in the big graph; its old label must not leak.
        assert_eq!(a.distance(NodeId(50)), None);
        assert!(a.path_to(NodeId(50)).is_none());
    }
}

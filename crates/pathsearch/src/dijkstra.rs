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
//! Most plain trees drain `crate::bucket`'s heap-free ring instead, to the
//! same labels, parents and counters. Repeated queries on the same network
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
use crate::arena::SearchArena;
use crate::bucket;
use crate::cache::TreeCache;
use crate::path::Path;
use crate::stats::SearchStats;
use crate::trace::{Recording, SweepTrace, TreeView};
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

/// Observer of a sweep's settle events — the seam [`run_in_traced`] uses
/// to record a [`SweepTrace`] without taxing the untraced hot path
/// ([`run_in`] instantiates the no-op sink, which monomorphizes away), the
/// seam [`crate::range`] uses to stop a sweep at a radius, and the seam
/// [`run_tree`]'s plain misses use to record past their goal. It sees no
/// counters: they are its settles and the degrees of its expansions.
pub(crate) trait SettleSink {
    /// Whether the sweep may settle a label at raw distance `dist`; `false`
    /// ends it there (sound under the zero potential, where labels pop in
    /// ascending distance). The constant default compiles out of the plain
    /// instantiation; the recorder uses it as a settle budget.
    #[inline]
    fn admits(&self, _dist: f64) -> bool {
        true
    }

    /// Called right after `node` settles, **before** the goal check and
    /// before the node expands its arcs.
    fn on_settle(&mut self, arena: &SearchArena, node: NodeId);

    /// Called once `node` has relaxed its `degree` out-arcs, as the ring's
    /// `Labels::expanded` is; a node that stops the sweep never expands.
    #[inline]
    fn on_expanded(&mut self, _node: NodeId, _degree: u32) {}

    /// Called once, right after the [`on_settle`](SettleSink::on_settle)
    /// of the node that met the goal; returns whether the sweep stops
    /// there. Every sink but the deepening recorder behind [`run_tree`]
    /// stops (the constant default compiles out); one that keeps going
    /// ends the sweep later through [`admits`](SettleSink::admits).
    #[inline]
    fn on_goal(&mut self) -> bool {
        true
    }

    /// Called when the heap drains without an early stop (the sweep
    /// exhausted the root's component).
    fn on_exhausted(&mut self);
}

/// The zero-cost sink behind [`run_in`].
pub(crate) struct NoRecord;

impl SettleSink for NoRecord {
    #[inline]
    fn on_settle(&mut self, _: &SearchArena, _: NodeId) {}
    #[inline]
    fn on_exhausted(&mut self) {}
}

/// What a plain cache miss records, as a multiple of the settles its goal
/// needed: a miss whose goal is met at settle `k` keeps the sweep going to
/// `2·k` settles (or until the component is exhausted). A miss thus
/// costs at most twice the sweep it replaces, and each repeated miss of a
/// root at least doubles the depth stored for it, so between evictions a
/// root misses at most `log₂ n` times. A fixed constant, not a knob.
const DEEPEN_FACTOR: usize = 2;

/// The sweep policy of a recording: how far a plain sweep records. Each
/// settle goes to [`Recording::push`], which writes it into the stored
/// form and cuts the recording at the sweep's key-ordered prefix, and each
/// expansion's degree to [`Recording::expanded`].
struct Recorder {
    recording: Recording,
    /// Whether recording stopped at a settle it could not record.
    cut: bool,
    /// Whether the goal has settled.
    goal: bool,
    exhausted: bool,
    /// Whether to record past the goal ([`DEEPEN_FACTOR`]) instead of
    /// stopping there — set for the sweeps of a cache miss.
    deepen: bool,
    /// Settles the sweep may record: unbounded until a deepening
    /// recorder's goal is met, [`DEEPEN_FACTOR`] × the goal's depth after.
    budget: usize,
}

impl SettleSink for Recorder {
    /// Once recording is cut, the sweep only runs on to its goal.
    #[inline]
    fn admits(&self, _dist: f64) -> bool {
        if self.cut { !self.goal } else { self.recording.len() < self.budget }
    }

    #[inline]
    fn on_goal(&mut self) -> bool {
        self.goal = true;
        if self.deepen {
            self.budget = DEEPEN_FACTOR * self.recording.len();
        }
        !self.deepen || self.cut
    }

    #[inline]
    fn on_settle(&mut self, arena: &SearchArena, node: NodeId) {
        if !self.cut {
            self.cut = !self.recording.push(node.0, arena.dist_raw(node));
        }
    }

    #[inline]
    fn on_expanded(&mut self, _: NodeId, degree: u32) {
        if !self.cut {
            self.recording.expanded(degree);
        }
    }

    #[inline]
    fn on_exhausted(&mut self) {
        self.exhausted = true;
    }
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

/// The one Dijkstra loop, parameterized over the settle observer and the
/// heap potential. With the zero potential (`|_| 0.0`) every key equals
/// its raw distance bit-for-bit (`x + 0.0 == x` for the non-negative
/// distances a sweep produces), so the plain entry points behave exactly
/// as before this parameter existed. With a *consistent* potential π
/// (1-Lipschitz along edges, e.g. [`GoalPotential::eval`]), keys
/// `dist + π(node)` pop in nondecreasing order, every settled label is
/// still exact, and the goal checks below stop at the same (now
/// earlier-reached) conditions — only the settle *order* and the explored
/// region change. A potential that narrows as its goals settle
/// ([`Potential::retire`]) has the open frontier re-keyed on the spot; the
/// settled prefix needs nothing (see [`SearchArena`]'s `rekey`).
pub(crate) fn run_in_sink<G: GraphView, S: SettleSink, P: Potential>(
    arena: &mut SearchArena,
    g: &G,
    source: NodeId,
    goal: &Goal,
    pot: &mut P,
    sink: &mut S,
) -> SearchStats {
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

    let mut stopped = false;
    while let Some(e) = arena.pop() {
        // Lazy deletion: skip entries for already-settled nodes or labels
        // that a shorter one has since overwritten.
        if !arena.is_fresh(&e) {
            continue;
        }
        let node = e.node();
        // Fresh, so the slot holds exactly the distance the entry was
        // pushed with.
        let d_node = arena.dist_raw(node);
        if !sink.admits(d_node) {
            stopped = true;
            break;
        }
        arena.settle(node);
        stats.settled += 1;
        sink.on_settle(arena, node);

        // The goal rule: where a sweep for `goal` stops. It fires at most
        // once — a single target settles once, and an emptied set never
        // empties again — so a sink that keeps going past it never sees
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
        if met && sink.on_goal() {
            stopped = true;
            break;
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
        sink.on_expanded(node, degree);
    }
    if !stopped {
        sink.on_exhausted();
    }
    arena.put_goal_scratch(remaining);
    stats
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
        Some(p) => run_in_sink(arena, g, root, goal, &mut p.live(), &mut NoRecord),
        None => bucket::tree(arena, g, root, goal)
            .unwrap_or_else(|| run_in_sink(arena, g, root, goal, &mut zero_pot, &mut NoRecord)),
    }
}

/// Grow one plain tree, recording it as a [`SweepTrace`]. With `deepen`
/// the sweep records past its goal (see [`DEEPEN_FACTOR`]); the counters
/// returned are always the goal-stopping sweep's. They are read off the
/// finished trace where the goal's stop lies inside it; past a cut they are
/// the end counters, where the sweep stopped at its goal or exhausted its
/// component.
fn grow_traced<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    root: NodeId,
    goal: &Goal,
    deepen: bool,
) -> (SearchStats, SweepTrace) {
    let mut rec = Recorder {
        recording: Recording::new(g.num_nodes()),
        cut: false,
        goal: false,
        exhausted: false,
        deepen,
        budget: usize::MAX,
    };
    let end = run_in_sink(arena, g, root, goal, &mut zero_pot, &mut rec);
    let trace = rec.recording.finish(arena, rec.exhausted && !rec.cut);
    (trace.stats_for(goal).unwrap_or(end), trace)
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
/// [`SweepTrace`] (see [`crate::trace`]). The sweep itself is identical —
/// same labels, same counters — recording only writes one entry per
/// settle, so tracing is safe to leave on whenever a tree cache might
/// want the result.
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
///   tree is grown for real in `arena` on the heap, recorded, and
///   re-stored, and the view reads the arena. Hit or miss is reported
///   through [`TreeCache::counters`]. `None` grows the tree unrecorded in
///   `arena` — nothing beyond the sweep itself is allocated — and, with no
///   potential either, mostly on the bucket ring (see the module docs).
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
/// (a zero-weight tie) stores only its ordered prefix and stops at its
/// goal.
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
mod tests {
    use super::*;
    use crate::alt::AltPreprocessing;
    use roadnet::generators::{GridConfig, NetworkClass, grid_network};
    use roadnet::{GraphBuilder, Point};

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
        assert!(p.is_trivial());
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

//! The one loop in `pathsearch` without a heap: a ring of distance buckets
//! `Δ` wide, drained in order, label-correcting within a bucket. It grows
//! the landmark build's sweeps ([`DistanceSweep`]) and every unguided
//! tree, unrecorded ([`tree`]) or recorded ([`recorded_tree`]), over a map
//! whose [`ArcWeights`] pass [`exact_on_ring`]: every arc positive and at
//! least `2 · sum · ε`. A label is a rounded simple-path sum, at most
//! `2 · sum`, so its ulp is at most `2 · sum · ε` and such an arc always
//! raises it. Other maps and paged views (no [`ArcWeights`]) grow their
//! trees on the heap.
//!
//! **The labels are Dijkstra's, bit for bit.** Dijkstra's label of `v` is
//! `min` over `v`'s in-arcs `(u, w)` of `fl(d(u) + w)`: an arc from a node
//! settled after `v` cannot lower it (its label is `≥ d(v)`, `w ≥ 0`, and
//! rounding is monotone). Every label the ring assigns is `fl(x + w)` for
//! an earlier label `x` of `u`, so it is never below Dijkstra's. When the
//! ring ends, every reached node was expanded at its final label, so down
//! Dijkstra's parent chain each hop keeps the ring's label at or below
//! Dijkstra's. A stop after bucket `b` leaves every label in buckets `≤ b`
//! final, since an entry is drained no later than its bucket. Zero weights
//! (distance sweeps only) or a wrong slot (a saturated or rounded index)
//! cost at most a re-expansion.
//!
//! **So are the heap's counters and parents.** As every relaxation raises
//! its label, the heap settles in `(dist, node)` key order and stops after
//! the goal's target of greatest key, `t*`: `settled` counts the labelled
//! nodes keyed `≤ key(t*)`, `relaxed` sums the out-degrees of those keyed
//! `< key(t*)` (every labelled node, for both, with a target unreached,
//! `AllNodes` or an empty set) — read off the final labels, never off where
//! the ring stopped. The heap's parent of `v` is the least-key `u` with
//! `fl(d(u) + w) == d(v)`, which `relax` keeps inline.
//!
//! **And its settle order.** A node is expanded at its final label in the
//! bucket that label falls in, and every later label is larger. So once a
//! bucket is drained, the nodes it expanded, sorted by `(dist, node)` and
//! each kept once, are the heap's next settles. A recorded tree appends
//! them to the arena's settle log there, which is all its trace is built
//! from.

use crate::arena::{SearchArena, ord_of};
use crate::dijkstra::{DEEPEN_FACTOR, Goal, Swept};
use crate::stats::SearchStats;
use roadnet::{ArcWeights, GraphView, NodeId};

/// A bucket is the mean arc weight over this divisor wide.
const WIDTH_DIVISOR: f64 = 3.0;
/// The most slots the bucket ring may have; a map whose longest arc would
/// span more gets wider buckets instead.
pub(crate) const MAX_SLOTS: usize = 1 << 16;

/// Whether a map with these weights grows its plain trees on the ring.
pub(crate) fn exact_on_ring(w: &ArcWeights) -> bool {
    w.shortest > 0.0 && w.shortest >= 2.0 * w.sum * f64::EPSILON
}

/// The ring's shape on one map. `Δ` is the mean arc weight ÷
/// [`WIDTH_DIVISOR`] (the smallest positive weight did far worse on the
/// geometric map), with `⌊max_arc / Δ⌋ + 2` slots, so no relaxation wraps
/// past the current bucket; where that exceeds [`MAX_SLOTS`], `Δ` rises to
/// `max_arc / (MAX_SLOTS − 2)`. It is read off the map's [`ArcWeights`]
/// per sweep, never kept: a weight update can lengthen the longest arc.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ring {
    width: f64,
    pub(crate) slots: usize,
}

impl Ring {
    pub(crate) fn of(w: &ArcWeights) -> Self {
        debug_assert!(w.shortest >= 0.0 && w.sum.is_finite(), "arc weights {w:?}");
        // A zero width (zero weights, or no arcs: `max` drops the NaN
        // mean) becomes 1.
        let mut width =
            (w.sum / w.arcs as f64 / WIDTH_DIVISOR).max(w.longest / (MAX_SLOTS - 2) as f64);
        if width == 0.0 {
            width = 1.0;
        }
        let slots = ((w.longest / width) as usize + 2).min(MAX_SLOTS);
        Ring { width, slots }
    }

    /// The bucket of label `d` (saturating at `usize::MAX` for `∞`).
    #[inline]
    fn bucket(&self, d: f64) -> usize {
        (d / self.width) as usize
    }
}

/// The per-node state of a sweep: distance columns for the landmark build,
/// the arena's slabs for a tree.
pub(crate) trait Labels {
    /// `u`'s label, unless `u` was already expanded at it.
    fn take(&mut self, u: u32) -> Option<f64>;
    /// `u` was expanded over `degree` arcs.
    fn expanded(&mut self, _u: u32, _degree: u32) {}
    /// Relax `u → v` at `cand = d(u) + w`: whether `v`'s label fell to
    /// `cand`.
    fn relax(&mut self, u: u32, du: f64, v: u32, cand: f64) -> bool;
}

/// The ring's scratch: pending nodes by bucket, slot `bucket mod slots`,
/// and the round being expanded. Empty between sweeps.
#[derive(Debug, Default)]
pub(crate) struct Buckets {
    ring: Vec<Vec<u32>>,
    round: Vec<u32>,
}

impl Buckets {
    /// Sweep from `root`, labelled 0 by the caller. A relaxation that lowers
    /// `d[v]` pushes `v` into bucket `⌊d[v] / Δ⌋`, clamped up to the current
    /// bucket, which is drained in rounds until empty: a round takes every
    /// entry the bucket holds, and what it pushes there waits for the next
    /// (a LIFO drain re-expanded each node ≈ 1 500 times where one bucket
    /// held a whole region). After each bucket `b`, `stop(labels, b)` may
    /// end the sweep; otherwise it ends when nothing is pending.
    pub(crate) fn sweep<G: GraphView, L: Labels>(
        &mut self,
        shape: Ring,
        g: &G,
        root: NodeId,
        labels: &mut L,
        mut stop: impl FnMut(&mut L, usize) -> bool,
    ) {
        let Buckets { ring, round } = self;
        let slots = shape.slots;
        // The ring only grows: an arena may alternate between maps.
        if ring.len() < slots {
            ring.resize_with(slots, Vec::new);
        }
        ring[0].push(root.0);
        let (mut pending, mut bucket) = (1usize, 0usize);
        while pending > 0 {
            let slot = bucket % slots;
            while !ring[slot].is_empty() {
                std::mem::swap(&mut ring[slot], round);
                pending -= round.len();
                for u in round.drain(..) {
                    let Some(du) = labels.take(u) else { continue };
                    let mut degree = 0u32;
                    g.for_each_arc(NodeId(u), &mut |v, w| {
                        degree += 1;
                        let cand = du + w;
                        if labels.relax(u, du, v.0, cand) {
                            ring[shape.bucket(cand).max(bucket) % slots].push(v.0);
                            pending += 1;
                        }
                    });
                    labels.expanded(u, degree);
                }
            }
            if stop(labels, bucket) {
                break;
            }
            bucket += 1;
        }
        // A stopped sweep leaves `pending` entries from here on.
        while pending > 0 {
            pending -= ring[bucket % slots].len();
            ring[bucket % slots].clear();
            bucket += 1;
        }
    }
}

/// Distance-only labels over caller-owned columns.
struct Distances<'a>(&'a mut [f64], &'a mut [bool]);

impl Labels for Distances<'_> {
    #[inline]
    fn take(&mut self, u: u32) -> Option<f64> {
        let u = u as usize;
        (!std::mem::replace(&mut self.1[u], true)).then(|| self.0[u])
    }

    #[inline]
    fn relax(&mut self, _: u32, _: f64, v: u32, cand: f64) -> bool {
        let v = v as usize;
        let lower = cand < self.0[v];
        if lower {
            (self.0[v], self.1[v]) = (cand, false);
        }
        lower
    }
}

/// Scratch for the landmark build's full sweeps over one map, allocated
/// once per build.
pub(crate) struct DistanceSweep {
    shape: Ring,
    expanded: Vec<bool>,
    buckets: Buckets,
}

impl DistanceSweep {
    pub(crate) fn new<G: GraphView>(g: &G) -> Self {
        let shape = Ring::of(&g.arc_weights().unwrap_or_else(|| ArcWeights::scan(g)));
        DistanceSweep { shape, expanded: vec![false; g.num_nodes()], buckets: Buckets::default() }
    }

    /// Write every node's distance from `root` into `labels` (`∞` where
    /// unreached).
    pub(crate) fn run<G: GraphView>(&mut self, g: &G, root: NodeId, labels: &mut [f64]) {
        labels.fill(f64::INFINITY);
        self.expanded.fill(false);
        labels[root.index()] = 0.0;
        let mut columns = Distances(labels, &mut self.expanded);
        self.buckets.sweep(self.shape, g, root, &mut columns, |_, _| false);
    }
}

/// The ring's shape over `g`, with `arena` begun from `root`, or `None` to
/// leave the tree to the heap: a view without [`ArcWeights`], or weights
/// that fail [`exact_on_ring`].
fn begin<G: GraphView>(arena: &mut SearchArena, g: &G, root: NodeId) -> Option<Ring> {
    assert!(root.index() < g.num_nodes(), "source out of range");
    let shape = Ring::of(&g.arc_weights().filter(exact_on_ring)?);
    arena.ring_begin(g.num_nodes(), root);
    Some(shape)
}

/// The key of `goal`'s last target, once every target is labelled in a
/// bucket up to `b` (`usize::MAX`: at all); never for `AllNodes`.
#[inline]
fn last_key(arena: &SearchArena, shape: Ring, goal: &Goal, b: usize) -> Option<(u64, u32)> {
    let targets: &[NodeId] = match goal {
        Goal::AllNodes => &[],
        Goal::Single(t) => std::slice::from_ref(t),
        Goal::Set(set) => set,
    };
    let last = targets.iter().try_fold(None, |last: Option<(u64, u32)>, &t| {
        let d = arena.distance(t).filter(|&d| shape.bucket(d) <= b)?;
        Some(last.max(Some((ord_of(d), t.0))))
    });
    last.flatten()
}

/// Grow `crate::dijkstra::run_in`'s plain tree on the ring and return the
/// heap's counters, or `None` to leave it to the heap (see [`begin`]). The
/// ring stops once every target's bucket is drained.
#[inline(never)]
pub(crate) fn tree<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    root: NodeId,
    goal: &Goal,
) -> Option<SearchStats> {
    let shape = begin(arena, g, root)?;
    let mut buckets = std::mem::take(&mut arena.buckets);
    buckets.sweep(shape, g, root, arena, |arena, b| last_key(arena, shape, goal, b).is_some());
    arena.buckets = buckets;
    Some(arena.ring_counters(last_key(arena, shape, goal, usize::MAX)))
}

/// The arena as a recorded ring tree's labels: it logs each expansion, not
/// each label, and counts the nodes labelled.
struct Logged<'a> {
    arena: &'a mut SearchArena,
    labelled: usize,
}

impl Labels for Logged<'_> {
    #[inline]
    fn take(&mut self, u: u32) -> Option<f64> {
        self.arena.take(u)
    }

    #[inline]
    fn expanded(&mut self, u: u32, degree: u32) {
        self.arena.expanded(u, degree);
        self.arena.log.push(u);
    }

    #[inline]
    fn relax(&mut self, u: u32, du: f64, v: u32, cand: f64) -> bool {
        let labelled = &mut self.labelled;
        self.arena.ring_relax(u, du, v, cand, |_| *labelled += 1)
    }
}

/// [`tree`], logged for a trace: when a bucket is drained, its settles
/// replace its expansions in the arena's log, in key order, which is the
/// heap's settle order (the root, logged when the ring begins, is logged
/// again when it expands). With `deepen` the ring goes on past the goal's
/// buckets until the log holds [`DEEPEN_FACTOR`] × the goal's settles, or
/// the component is exhausted: every node labelled is settled.
pub(crate) fn recorded_tree<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    root: NodeId,
    goal: &Goal,
    deepen: bool,
) -> Option<Swept> {
    let shape = begin(arena, g, root)?;
    let mut buckets = std::mem::take(&mut arena.buckets);
    // Once the goal's buckets are drained: the settles the goal needs.
    let (mut goal_settles, mut sealed) = (None, 0);
    let mut logged = Logged { arena, labelled: 1 };
    buckets.sweep(shape, g, root, &mut logged, |logged, b| {
        let arena = &mut *logged.arena;
        sealed = arena.seal_bucket(sealed);
        if goal_settles.is_none() {
            let key = |&v: &u32| (ord_of(arena.dist_raw(NodeId(v))), v);
            let last = last_key(arena, shape, goal, b);
            goal_settles = last.map(|last| arena.log.partition_point(|v| key(v) <= last));
        }
        goal_settles.is_some_and(|k| !deepen || sealed >= DEEPEN_FACTOR * k)
    });
    let exhausted = logged.labelled == logged.arena.log.len();
    arena.buckets = buckets;
    let last = last_key(arena, shape, goal, usize::MAX);
    Some(Swept { stats: arena.ring_counters(last), met: last.is_some(), exhausted })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::alt::tests::{CAPPED, SPAN, ring_stress_maps};
    use crate::cache::tests::unbounded;
    use crate::dijkstra::tests::OnHeap;
    use crate::dijkstra::{run_in, run_in_traced, run_tree};
    use crate::trace::tests::trace_words;
    use proptest::prelude::*;
    use roadnet::generators::{ContinentConfig, NetworkClass, continent_network};
    use roadnet::{EdgeId, GraphBuilder, RoadNetwork};

    /// The bits of `v`'s label and of its path, as `arena` reads them.
    fn read(arena: &SearchArena, v: NodeId) -> (Option<u64>, Option<(Vec<NodeId>, u64)>) {
        let path = arena.path_to(v).map(|p| (p.nodes().to_vec(), p.distance().to_bits()));
        (arena.distance(v).map(f64::to_bits), path)
    }

    /// The words of the traces `goal`'s tree records in `arena`: traced,
    /// and as a deepening cache miss.
    fn traces<G: GraphView>(
        arena: &mut SearchArena,
        g: &G,
        root: NodeId,
        goal: &Goal,
    ) -> [Vec<u64>; 2] {
        let (stats, trace) = run_in_traced(arena, g, root, goal);
        let traced = trace_words(&trace, stats);
        let mut cache = unbounded();
        let (stats, _) = run_tree(arena, g, root, goal, None, Some(&mut cache));
        [traced, trace_words(cache.peek(root).unwrap(), stats)]
    }

    /// Grow `goal`'s tree in `arena` through `run_in` and hold it to the
    /// heap's (`run_in` over [`OnHeap`] in a fresh arena): counters, and
    /// each target's — for `AllNodes` every node's — label bits and path;
    /// then the traces both record, traced and as a deepening miss.
    /// Returns whether the ring grew it.
    fn assert_tree_equals_heap(
        name: &str,
        g: &RoadNetwork,
        arena: &mut SearchArena,
        root: NodeId,
        goal: &Goal,
    ) -> bool {
        let mut heap = SearchArena::new();
        let want = run_in(&mut heap, &OnHeap(g), root, goal);
        let ring = tree(arena, g, root, goal).is_some();
        let got = run_in(arena, g, root, goal);
        assert_eq!(got, want, "{name}: counters from {root} for {goal:?}");
        let checked: Vec<NodeId> = match goal {
            Goal::AllNodes => g.nodes().collect(),
            Goal::Single(t) => vec![*t],
            Goal::Set(set) => set.clone(),
        };
        for v in checked {
            assert_eq!(read(arena, v), read(&heap, v), "{name}: {v} from {root} for {goal:?}");
        }
        let want = traces(&mut heap, &OnHeap(g), root, goal);
        for (way, (got, want)) in
            ["traced", "missed"].iter().zip(traces(arena, g, root, goal).iter().zip(&want))
        {
            assert!(got == want, "{name}: {way} trace from {root} for {goal:?}");
        }
        ring
    }

    /// `map` with each edge kept one way, oriented by `seed`: many nodes
    /// become unreachable.
    pub(crate) fn one_way(map: &RoadNetwork, seed: u64) -> RoadNetwork {
        let mut b = GraphBuilder::directed();
        for &p in map.points() {
            b.add_node(p).unwrap();
        }
        for (i, e) in map.edges().iter().enumerate() {
            let (a, c) = if (i as u64 ^ seed) % 3 == 0 { (e.b, e.a) } else { (e.a, e.b) };
            b.add_edge(a, c, e.weight).unwrap();
        }
        b.build().unwrap()
    }

    /// Rescale every `step`-th edge by `factor`.
    pub(crate) fn rescale(map: &mut RoadNetwork, step: usize, factor: f64) {
        let updates: Vec<(EdgeId, f64)> = (0..map.num_edges())
            .step_by(step)
            .map(|e| (EdgeId::from_index(e), map.edges()[e].weight * factor))
            .collect();
        map.update_weights(&updates).unwrap();
    }

    /// Single, Set (duplicates, the root, a node the root may not reach,
    /// the empty set) and AllNodes goals from `root` over `picks`.
    fn goals(root: NodeId, picks: &[NodeId]) -> Vec<Goal> {
        let mut set = picks.to_vec();
        set.extend([picks[0], root]);
        vec![Goal::Single(picks[0]), Goal::Set(set), Goal::Set(Vec::new()), Goal::AllNodes]
    }

    /// Every goal from every root, in one arena, as generated and after
    /// rounds of weight updates: a rise on half the edges (2.5×), a rise
    /// on a third (1.5×), then a fall on one edge. Returns how many trees
    /// the ring grew.
    fn rounds(name: &str, mut g: RoadNetwork, roots: &[NodeId], picks: &[NodeId]) -> usize {
        let mut arena = SearchArena::new();
        let mut ring = 0;
        for round in 0..4 {
            match round {
                1 => rescale(&mut g, 2, 2.5),
                2 => rescale(&mut g, 3, 1.5),
                3 => rescale(&mut g, usize::MAX, 0.25),
                _ => {}
            }
            for &root in roots {
                for goal in goals(root, picks) {
                    ring += usize::from(assert_tree_equals_heap(name, &g, &mut arena, root, &goal));
                }
            }
        }
        ring
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..Default::default() })]

        /// Random grid, geometric, radial and continent maps: as generated,
        /// reweighted to integers in `1..4` (ties: parents by least key) or
        /// `0..4` (zero weights: the heap grows every tree), or kept one way
        /// each (directed, unreachable nodes).
        #[test]
        fn bucket_tree_equals_the_heap_tree(
            seed in 0..1_000u64,
            class in 0..4usize,
            variant in 0..4u8,
            raw_roots in proptest::collection::vec(proptest::num::u32::ANY, 1..3),
            raw_picks in proptest::collection::vec(proptest::num::u32::ANY, 1..4),
        ) {
            let mut g = match NetworkClass::ALL.get(class) {
                Some(c) => c.generate(300, seed).unwrap(),
                None => continent_network(&ContinentConfig {
                    provinces_x: 2,
                    provinces_y: 2,
                    province_width: 8,
                    province_height: 8,
                    weight_factor: (1.0, 3.0),
                    seed,
                    ..Default::default()
                })
                .unwrap(),
            };
            match variant {
                1 | 2 => {
                    let lowest = u64::from(variant == 2);
                    let updates: Vec<(EdgeId, f64)> = (0..g.num_edges())
                        .map(|e| (e as u64 * 7 + seed) % (4 - lowest) + lowest)
                        .enumerate()
                        .map(|(e, w)| (EdgeId::from_index(e), w as f64))
                        .collect();
                    g.update_weights(&updates).unwrap();
                }
                3 => g = one_way(&g, seed),
                _ => {}
            }
            let n = g.num_nodes() as u32;
            let roots: Vec<NodeId> = raw_roots.iter().map(|r| NodeId(r % n)).collect();
            let picks: Vec<NodeId> = raw_picks.iter().map(|p| NodeId(p % n)).collect();
            let trees = 4 * roots.len() * goals(roots[0], &picks).len();
            let ring = rounds("random map", g, &roots, &picks);
            // Only the zero weights send a tree back to the heap.
            prop_assert_eq!(ring, if variant == 1 { 0 } else { trees });
        }
    }

    /// Every tree of a map whose weights pass [`exact_on_ring`] runs on the
    /// ring, the capped map's too; none of a map with a zero-weight arc or
    /// with arcs of 1e-12 beside one of 1e12 does.
    #[test]
    fn bucket_tree_equals_the_heap_tree_on_ring_stress_maps() {
        for (name, g) in ring_stress_maps() {
            let n = g.num_nodes() as u32;
            let roots: Vec<NodeId> = [0, 1, n / 2].map(|r| NodeId(r.min(n - 1))).to_vec();
            let picks: Vec<NodeId> = [n - 1, n / 3, 2].map(|p| NodeId(p.min(n - 1))).to_vec();
            let trees = 4 * roots.len() * goals(roots[0], &picks).len();
            let shape = Ring::of(&g.arc_weights().unwrap());
            assert_eq!(shape.slots == MAX_SLOTS, [SPAN, CAPPED].contains(&name), "{name}");
            let ring = rounds(name, g, &roots, &picks);
            let heap = name.contains("zero") || name == SPAN;
            assert_eq!(ring, if heap { 0 } else { trees }, "{name}: trees on the ring");
        }
    }

    /// [`exact_on_ring`] admits an arc of exactly `2 · sum · ε` and refuses
    /// one a float step lighter, or a zero-weight arc; at a quarter of the
    /// bound an arc no longer raises the largest label it allows.
    #[test]
    fn ring_eligibility_holds_at_the_bound_and_fails_below_it() {
        let sum = 1024.0;
        let bound = 2.0 * sum * f64::EPSILON;
        let weights = |shortest: f64| ArcWeights { arcs: 8, sum, shortest, longest: 400.0 };
        assert!(exact_on_ring(&weights(bound)));
        assert!(exact_on_ring(&weights(1.0)));
        assert!(!exact_on_ring(&weights(bound.next_down())));
        assert!(!exact_on_ring(&weights(0.0)));
        // The largest label the proof allows, plus the bound, rises; plus
        // a quarter of it, it is absorbed.
        let top = 2.0 * sum;
        assert!(top + bound > top);
        assert_eq!(top + bound / 4.0, top);
    }

    /// A weight past `f64::MAX / (2 × arc count)` is refused where it
    /// enters the map, at build and at update, leaving the map as it was;
    /// at that bound every path sum stays finite, and `shortest_path` reads
    /// it.
    #[test]
    fn weights_that_could_overflow_a_path_sum_are_refused() {
        use roadnet::{Point, RoadNetError};
        let path = |w: f64| {
            let mut b = GraphBuilder::new();
            for i in 0..3 {
                b.add_node(Point::new(f64::from(i), 0.0)).unwrap();
            }
            b.add_edge(NodeId(0), NodeId(1), w).unwrap();
            b.add_edge(NodeId(1), NodeId(2), w).unwrap();
            b.build()
        };
        // Two edges, four arcs.
        let heaviest = f64::MAX / 8.0;
        assert!(matches!(path(1e308), Err(RoadNetError::InvalidWeight { weight: 1e308, .. })));
        assert!(matches!(path(heaviest.next_up()), Err(RoadNetError::InvalidWeight { .. })));
        let g = path(heaviest).unwrap();
        let far = crate::dijkstra::shortest_path(&g, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(far.distance(), 2.0 * heaviest);
        assert_eq!(run_in(&mut SearchArena::new(), &g, NodeId(0), &Goal::AllNodes).settled, 3);

        let mut g = path(1.0).unwrap();
        for w in [1e308, heaviest.next_up(), f64::INFINITY] {
            let refused = g.update_weights(&[(EdgeId(1), 2.0), (EdgeId(0), w)]);
            assert!(matches!(refused, Err(RoadNetError::InvalidWeight { .. })), "{w}");
            assert_eq!(g.edges().iter().map(|e| e.weight).collect::<Vec<_>>(), [1.0, 1.0]);
        }
        assert_eq!(g.update_weights(&[(EdgeId(0), heaviest)]).unwrap(), [EdgeId(0)]);
    }
}

//! ALT — A* with Landmarks and the Triangle inequality (Goldberg &
//! Harrelson, SODA 2005).
//!
//! An *extension* beyond the paper's Dijkstra/A* baseline: precompute
//! shortest-path distances from a few well-spread landmark nodes; then
//! `h(n) = max_L |d(L, t) − d(L, n)|` lower-bounds the remaining network
//! distance by the triangle inequality. Unlike the Euclidean heuristic, ALT
//! reasons in *network* distance, so it stays strong on topologies where
//! straight-line distance is misleading (the radial class in E1) — and it
//! gives the reproduction a second, stronger goal-directed baseline for
//! what single-pair search can achieve against the MSMD sharing numbers.
//!
//! Landmarks are chosen by farthest-point ("avoid") selection with
//! lowest-id tie-breaks (the same determinism idiom as
//! `opaque::service::partition::Partition::build`); a landmark never
//! repeats, and once every reached node lies at distance 0 from the chosen
//! set the next one opens an unreached component. The tables come from
//! one full sweep per landmark that needs no settle order and so no heap:
//! it drains `crate::bucket`'s ring of distance buckets `Δ` wide (the
//! map's mean arc weight ÷ 3), label-correcting within a bucket, and ends
//! at the unique fixpoint Dijkstra's labels are — bit for bit, the
//! argument is in that module. The preprocessing
//! requires a **symmetric** (undirected) network — the triangle-inequality
//! bound `|d(L,t) − d(L,n)|` uses one distance table per landmark in both
//! roles, which is only sound when `d(L,·)` equals `d(·,L)`. Every
//! `roadnet` generator produces symmetric networks; [`AltPreprocessing::try_build`]
//! enforces the contract with a typed error for directed views.
//!
//! Beyond the single-pair [`alt`] search, the tables drive the obfuscated
//! batch engines through one potential, [`GoalPotential`]: for a goal set
//! `R`, `π_R(n) = min_{t ∈ R} max_L |d(L,t) − d(L,n)|` — the bound to the
//! *nearest-looking* goal. It is consistent (1-Lipschitz along edges) for
//! every non-empty `R`, because each `lb(·, t)` is and a min of
//! 1-Lipschitz functions is 1-Lipschitz, and it is zero at every goal in
//! `R`. A per-source sweep keeps `R` **live**: when a goal settles the
//! potential retires it and the arena re-keys its open frontier under the
//! smaller set ([`crate::arena::SearchArena`]'s `rekey`, at most `|T| − 1`
//! times per tree). Any settled set with exact labels and fully relaxed
//! out-arcs is a valid label-setting prefix under *any* consistent
//! potential, so labels, parents and paths are what plain Dijkstra gives,
//! and because every settle key is at most the farthest goal's plain
//! distance, a guided tree settles a subset of the plain one however far
//! apart the obfuscator scattered the goals.
//!
//! The tables are stored **node-major** (`flat[n·L + l]`): one evaluation
//! reads the node's `L` contiguous entries — two cache lines for 16
//! landmarks — against goal rows the potential copied out once.

use crate::astar::astar_with;
use crate::bucket::DistanceSweep;
use crate::dijkstra::Potential;
use crate::path::Path;
use crate::stats::SearchStats;
use roadnet::{GraphView, NodeId};

/// Why ALT preprocessing refused a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AltError {
    /// The view reports directed arcs; one table per landmark cannot serve
    /// both `d(L,·)` and `d(·,L)` there.
    DirectedGraph,
    /// `num_landmarks` was zero.
    ZeroLandmarks,
    /// `num_landmarks` exceeds the node count.
    TooManyLandmarks {
        /// Landmarks requested.
        requested: usize,
        /// Nodes available.
        nodes: usize,
    },
}

impl std::fmt::Display for AltError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AltError::DirectedGraph => write!(
                f,
                "ALT preprocessing requires a symmetric (undirected) graph: \
                 a single distance table per landmark is unsound when \
                 d(L,n) and d(n,L) can differ"
            ),
            AltError::ZeroLandmarks => write!(f, "need at least one landmark"),
            AltError::TooManyLandmarks { requested, nodes } => {
                write!(f, "more landmarks than nodes ({requested} > {nodes})")
            }
        }
    }
}

impl std::error::Error for AltError {}

/// Precomputed landmark distance tables.
#[derive(Clone, Debug)]
pub struct AltPreprocessing {
    landmarks: Vec<NodeId>,
    /// Node-major slab: `flat[n * L + l]` = network distance from
    /// `landmarks[l]` to node `n` (infinite for unreachable nodes), with
    /// `L = landmarks.len()`.
    flat: Vec<f64>,
}

/// `max_L |goal[L] − node[L]|` over the landmarks that reach both rows.
/// A landmark that misses either endpoint yields `∞` or `NaN` here and
/// contributes nothing — on the symmetric graphs the preprocessing accepts
/// it lies in another component and bounds nothing anyway.
#[inline]
fn row_bound(goal: &[f64], node: &[f64]) -> f64 {
    let mut best = 0.0f64;
    for (&dt, &dn) in goal.iter().zip(node) {
        let bound = (dt - dn).abs();
        if bound < f64::INFINITY && bound > best {
            best = bound;
        }
    }
    best
}

/// The bound to the nearest-looking of `goals`' rows: `min` of
/// [`row_bound`] over them (an empty set bounds nothing: `0`).
#[inline]
fn nearest_bound<'r>(goals: impl Iterator<Item = &'r [f64]>, node: &[f64]) -> f64 {
    goals.map(|goal| row_bound(goal, node)).reduce(f64::min).unwrap_or(0.0)
}

/// The lowest id at the largest finite label above `floor`.
fn farthest(labels: &[f64], floor: f64) -> Option<NodeId> {
    let mut best = None;
    let mut best_d = floor;
    for (i, &d) in labels.iter().enumerate() {
        if d.is_finite() && d > best_d {
            best_d = d;
            best = Some(NodeId::from_index(i));
        }
    }
    best
}

impl AltPreprocessing {
    /// Select `num_landmarks` landmarks by farthest-point selection (first
    /// landmark = node 0's farthest reachable node, then iteratively the
    /// node maximizing the minimum distance to the chosen set; distance
    /// ties break to the lowest node id) and run one full sweep per
    /// landmark. Where no unchosen node lies at a positive distance from
    /// the chosen set, the next landmark is the lowest-id node no sweep has
    /// reached (the next component), else the lowest-id unchosen node, so
    /// a landmark never repeats.
    ///
    /// The sweeps are heap-free and distance-only: they drain a ring of
    /// distance buckets `Δ` wide, `Δ` being the map's mean arc weight ÷ 3,
    /// label-correcting within a bucket. They end at the one fixpoint of
    /// `d(v) = min over in-arcs of fl(d(u) + w)`, which is what Dijkstra
    /// computes, so every table entry is Dijkstra's distance bit for bit.
    ///
    /// # Errors
    /// [`AltError::DirectedGraph`] for a view that is not symmetric (a
    /// landmark's distances *from* it bound nothing *to* it there),
    /// [`AltError::ZeroLandmarks`] for no landmark and
    /// [`AltError::TooManyLandmarks`] for more landmarks than nodes.
    pub fn try_build<G: GraphView>(g: &G, num_landmarks: usize) -> Result<Self, AltError> {
        if !g.is_symmetric() {
            return Err(AltError::DirectedGraph);
        }
        if num_landmarks == 0 {
            return Err(AltError::ZeroLandmarks);
        }
        if num_landmarks > g.num_nodes() {
            return Err(AltError::TooManyLandmarks {
                requested: num_landmarks,
                nodes: g.num_nodes(),
            });
        }
        let mut sweep = DistanceSweep::new(g);
        Ok(Self::select(g.num_nodes(), num_landmarks, |root, labels| sweep.run(g, root, labels)))
    }

    /// Farthest-point selection over full sweeps: `sweep(root, labels)`
    /// writes every node's distance from `root` into `labels` (`∞` where
    /// unreached).
    fn select(n: usize, num_landmarks: usize, mut sweep: impl FnMut(NodeId, &mut [f64])) -> Self {
        let mut labels = vec![f64::INFINITY; n];

        // Bootstrap: full tree from node 0, take the farthest reachable
        // node as the first landmark (a graph periphery point).
        sweep(NodeId(0), &mut labels);
        let mut current = farthest(&labels, f64::NEG_INFINITY).expect("the root is reached");

        // Each landmark's sweep is copied into its column of a node-major
        // block of `BLOCK` columns, and each full block (or the last, part
        // full) into the one `n × L` slab in one pass: the slab's 128-B
        // rows (16 landmarks) are then written a 32-B run at a time rather
        // than one 8-B entry per pass. Each further column of block costs
        // `8n` B at the build's peak, so the block is no wider than that
        // run. `labels`, `block` and `min_dist` are the only other `O(n)`
        // buffers beside the sweep's scratch.
        const BLOCK: usize = 4;
        let width = BLOCK.min(num_landmarks);
        let mut landmarks = Vec::with_capacity(num_landmarks);
        let mut flat = vec![f64::INFINITY; n * num_landmarks];
        let mut block = vec![f64::INFINITY; n * width];
        let mut min_dist = vec![f64::INFINITY; n];
        loop {
            let l = landmarks.len();
            landmarks.push(current);
            sweep(current, &mut labels);
            for ((cells, m), &d) in block.chunks_exact_mut(width).zip(&mut min_dist).zip(&labels) {
                cells[l % width] = d;
                if d < *m {
                    *m = d;
                }
            }
            let filled = l % width + 1;
            if filled == width || landmarks.len() == num_landmarks {
                let first = l + 1 - filled;
                for (row, cells) in
                    flat.chunks_exact_mut(num_landmarks).zip(block.chunks_exact(width))
                {
                    row[first..=l].copy_from_slice(&cells[..filled]);
                }
            }
            if landmarks.len() == num_landmarks {
                break;
            }
            // Next landmark: farthest from the chosen set. Where every
            // reached node is at distance 0 from it (an island's worth of
            // landmarks, or zero-weight edges), the lowest-id node no sweep
            // has reached opens the next component; failing that, the
            // lowest-id node not yet chosen. A landmark never repeats.
            current = farthest(&min_dist, 0.0)
                .or_else(|| {
                    min_dist.iter().position(|&d| d == f64::INFINITY).map(NodeId::from_index)
                })
                .or_else(|| (0..n).map(NodeId::from_index).find(|v| !landmarks.contains(v)))
                .expect("fewer landmarks than nodes");
        }
        AltPreprocessing { landmarks, flat }
    }

    /// The selected landmark nodes.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Node `n`'s distances to every landmark, in landmark order.
    #[inline]
    fn row(&self, n: NodeId) -> &[f64] {
        let l = self.landmarks.len();
        &self.flat[n.index() * l..(n.index() + 1) * l]
    }

    /// Triangle-inequality lower bound on the network distance `‖n, t‖`.
    ///
    /// On undirected graphs `‖n,t‖ ≥ |d(L,t) − d(L,n)|` for every landmark
    /// `L`; the heuristic takes the best (max) bound. Unreachable entries
    /// contribute nothing.
    #[inline]
    pub fn lower_bound(&self, n: NodeId, t: NodeId) -> f64 {
        row_bound(self.row(t), self.row(n))
    }

    /// Memory footprint of the tables, in entries (nodes × landmarks).
    pub fn table_entries(&self) -> usize {
        self.flat.len()
    }

    /// The potential toward the goal set `targets`,
    /// `π(n) = min_t lb(n, t)`: a lower bound on the distance from `n` to
    /// its *nearest* goal, evaluated in `O(|targets| · |landmarks|)` from
    /// the node's one table row and the goals' rows, copied out here.
    ///
    /// Each `lb(·, t)` is 1-Lipschitz along the edges of a symmetric graph
    /// and so is their min, for every non-empty goal set: a sweep keyed by
    /// `dist + π` settles exact labels in every prefix, and stays exact
    /// when a per-source sweep narrows the set to the goals it has not
    /// settled yet (see the module docs). Duplicate targets and their order
    /// do not matter: the potential is a function of the goal *set*, kept
    /// sorted. Its settle order is not a plain sweep's, so a guided tree
    /// never enters the tree cache ([`crate::dijkstra::run_tree`]).
    ///
    /// # Panics
    /// Panics if a target is out of range for the preprocessed graph.
    pub fn goal_potential(&self, targets: &[NodeId]) -> GoalPotential<'_> {
        let mut goals = targets.to_vec();
        goals.sort_unstable();
        goals.dedup();
        let rows = goals.iter().flat_map(|&t| self.row(t)).copied().collect();
        GoalPotential { pre: self, rows, goals }
    }
}

/// The ALT lower bound to the nearest goal of a set,
/// `π(n) = min_t max_L |d(L,t) − d(L,n)|`, prepared by
/// [`AltPreprocessing::goal_potential`].
#[derive(Clone, Debug)]
pub struct GoalPotential<'a> {
    pre: &'a AltPreprocessing,
    /// The goals' table rows, goal-major, in `goals` order.
    rows: Vec<f64>,
    /// The goal set, sorted and deduplicated.
    goals: Vec<NodeId>,
}

impl GoalPotential<'_> {
    /// Evaluate `π(n)` with every goal of the set live (an empty set
    /// bounds nothing: `0`).
    #[inline]
    pub fn eval(&self, n: NodeId) -> f64 {
        let node = self.pre.row(n);
        nearest_bound(self.rows.chunks_exact(node.len()), node)
    }

    /// This potential as one per-source sweep consumes it: all goals live,
    /// retired one by one as the sweep settles them.
    pub(crate) fn live(&self) -> LivePotential<'_> {
        LivePotential { pot: self, live: (0..self.goals.len()).collect() }
    }
}

/// One sweep's view of a [`GoalPotential`]: `π_R` over the goals `R` the
/// sweep has not settled yet.
pub(crate) struct LivePotential<'a> {
    pot: &'a GoalPotential<'a>,
    /// Indices into `pot.goals` of the goals still live, ascending.
    live: Vec<usize>,
}

impl Potential for LivePotential<'_> {
    #[inline]
    fn eval(&self, n: NodeId) -> f64 {
        let node = self.pot.pre.row(n);
        let l = node.len();
        nearest_bound(self.live.iter().map(|&i| &self.pot.rows[i * l..(i + 1) * l]), node)
    }

    /// Drop `settled` from the live set if it is a goal and not the last
    /// one: the last live goal keeps aiming the sweep (a sweep whose stop
    /// rule is the potential's own goal set ends there anyway).
    fn retire(&mut self, settled: NodeId) -> bool {
        if self.live.len() < 2 {
            return false;
        }
        let goals = &self.pot.goals;
        let Some(at) = self.live.iter().position(|&i| goals[i] == settled) else { return false };
        self.live.remove(at);
        true
    }
}

/// ALT search from `s` to `t` using precomputed landmark tables.
pub fn alt<G: GraphView>(
    g: &G,
    pre: &AltPreprocessing,
    s: NodeId,
    t: NodeId,
) -> (Option<Path>, SearchStats) {
    astar_with(g, s, t, |n| pre.lower_bound(n, t))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::arena::SearchArena;
    use crate::astar::astar;
    use crate::dijkstra::tests::OnHeap;
    use crate::dijkstra::{Goal, run_in, shortest_path};
    use proptest::prelude::*;
    use roadnet::generators::{GridConfig, NetworkClass, grid_network};
    use roadnet::{GraphBuilder, Point, RoadNetwork};

    #[test]
    fn alt_matches_dijkstra_on_all_classes() {
        for class in NetworkClass::ALL {
            let g = class.generate(600, 3).unwrap();
            let pre = AltPreprocessing::try_build(&g, 6).unwrap();
            let n = g.num_nodes() as u32;
            for (s, t) in [(0, n - 1), (n / 4, 3 * n / 4), (5, 5)] {
                let (p, _) = alt(&g, &pre, NodeId(s), NodeId(t));
                let d = shortest_path(&g, NodeId(s), NodeId(t)).unwrap();
                let p = p.unwrap();
                assert!(
                    (p.distance() - d.distance()).abs() < 1e-9,
                    "{} ({s},{t}): {} vs {}",
                    class.name(),
                    p.distance(),
                    d.distance()
                );
                assert!(p.verify(&g, 1e-9));
            }
        }
    }

    #[test]
    fn alt_settles_no_more_than_dijkstra() {
        let g = NetworkClass::Radial.generate(800, 5).unwrap();
        let pre = AltPreprocessing::try_build(&g, 8).unwrap();
        let n = g.num_nodes() as u32;
        let mut arena = SearchArena::new();
        let mut alt_total = 0u64;
        let mut dij_total = 0u64;
        for (s, t) in [(1, n - 2), (n / 3, 2 * n / 3), (10, n / 2)] {
            let (_, st) = alt(&g, &pre, NodeId(s), NodeId(t));
            alt_total += st.settled;
            dij_total += run_in(&mut arena, &g, NodeId(s), &Goal::Single(NodeId(t))).settled;
        }
        assert!(alt_total <= dij_total, "ALT {alt_total} vs Dijkstra {dij_total}");
    }

    #[test]
    fn alt_beats_euclidean_astar_on_radial_networks() {
        // Straight-line distance is a poor bound when paths must follow
        // rings; landmark bounds reason in network distance.
        let g = NetworkClass::Radial.generate(800, 7).unwrap();
        let pre = AltPreprocessing::try_build(&g, 8).unwrap();
        let n = g.num_nodes() as u32;
        let mut alt_total = 0u64;
        let mut astar_total = 0u64;
        for (s, t) in [(1u32, n - 2), (n / 3, 2 * n / 3), (10, n / 2), (2, n - 10)] {
            let (_, a) = alt(&g, &pre, NodeId(s), NodeId(t));
            let (_, e) = astar(&g, NodeId(s), NodeId(t));
            alt_total += a.settled;
            astar_total += e.settled;
        }
        assert!(
            alt_total < astar_total,
            "ALT {alt_total} should beat Euclidean A* {astar_total} on radial"
        );
    }

    #[test]
    fn landmarks_are_distinct_and_spread() {
        let g = grid_network(&GridConfig { width: 20, height: 20, seed: 1, ..Default::default() })
            .unwrap();
        let pre = AltPreprocessing::try_build(&g, 4).unwrap();
        let set: std::collections::HashSet<_> = pre.landmarks().iter().collect();
        assert_eq!(set.len(), 4, "landmarks must be distinct");
        assert_eq!(pre.table_entries(), 4 * 400);
    }

    #[test]
    fn lower_bound_is_admissible() {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 2, ..Default::default() })
            .unwrap();
        let pre = AltPreprocessing::try_build(&g, 5).unwrap();
        for (a, b) in [(0u32, 143u32), (7, 100), (50, 51), (12, 12)] {
            let truth = crate::dijkstra::shortest_distance(&g, NodeId(a), NodeId(b)).unwrap();
            let bound = pre.lower_bound(NodeId(a), NodeId(b));
            assert!(
                bound <= truth + 1e-9,
                "bound {bound} exceeds true distance {truth} for ({a},{b})"
            );
        }
    }

    #[test]
    fn single_landmark_works() {
        let g = grid_network(&GridConfig { width: 6, height: 6, ..Default::default() }).unwrap();
        let pre = AltPreprocessing::try_build(&g, 1).unwrap();
        let (p, _) = alt(&g, &pre, NodeId(0), NodeId(35));
        let d = shortest_path(&g, NodeId(0), NodeId(35)).unwrap();
        assert!((p.unwrap().distance() - d.distance()).abs() < 1e-9);
    }

    #[test]
    fn try_build_rejects_directed_graphs_and_bad_counts() {
        use roadnet::{GraphBuilder, Point};
        let mut b = GraphBuilder::directed();
        for i in 0..3 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(0), 5.0).unwrap();
        let directed = b.build().unwrap();
        assert_eq!(AltPreprocessing::try_build(&directed, 2), Err(AltError::DirectedGraph));

        let g = grid_network(&GridConfig { width: 4, height: 4, ..Default::default() }).unwrap();
        assert_eq!(AltPreprocessing::try_build(&g, 0), Err(AltError::ZeroLandmarks));
        assert_eq!(
            AltPreprocessing::try_build(&g, 17),
            Err(AltError::TooManyLandmarks { requested: 17, nodes: 16 })
        );
        let pre = AltPreprocessing::try_build(&g, 3).unwrap();
        assert_eq!(pre.landmarks().len(), 3);
        // The error type renders something actionable.
        assert!(AltError::DirectedGraph.to_string().contains("symmetric"));
    }

    impl PartialEq for AltPreprocessing {
        fn eq(&self, other: &Self) -> bool {
            self.landmarks == other.landmarks && self.flat == other.flat
        }
    }

    /// FNV-1a over the landmark ids and every table entry's bits.
    fn table_digest(pre: &AltPreprocessing) -> u64 {
        let words = pre.landmarks.iter().map(|l| u64::from(l.0));
        words.chain(pre.flat.iter().map(|d| d.to_bits())).fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// One small map of each class the benchmark runs on.
    fn benchmark_class_maps() -> [(&'static str, RoadNetwork); 3] {
        use roadnet::generators::{ContinentConfig, continent_network};
        let continent = ContinentConfig {
            province_width: 12,
            province_height: 12,
            weight_factor: (1.0, 3.0),
            sea_gap: 20.0,
            seed: 14,
            ..Default::default()
        };
        [
            ("continent", continent_network(&continent).unwrap()),
            ("geometric", NetworkClass::Geometric.generate(2_000, 14).unwrap()),
            (
                "grid",
                grid_network(&GridConfig { width: 16, height: 16, seed: 21, ..Default::default() })
                    .unwrap(),
            ),
        ]
    }

    #[test]
    fn benchmark_class_tables_are_pinned() {
        // Landmarks and every table bit, recorded with the heap-driven
        // build. No landmark repeats on these maps, so the choice among
        // already-covered nodes never runs here.
        let pinned = [
            ("continent", 0xc50e_c914_5d14_8d66),
            ("geometric", 0xfecc_3937_20d3_b89b),
            ("grid", 0x51f6_a624_3042_7753),
        ];
        for ((name, g), (pinned_name, digest)) in benchmark_class_maps().iter().zip(pinned) {
            assert_eq!(*name, pinned_name);
            let pre = AltPreprocessing::try_build(g, 16).unwrap();
            let distinct: std::collections::HashSet<_> = pre.landmarks().iter().collect();
            assert_eq!(distinct.len(), 16, "{name}: a landmark repeats");
            assert_eq!(table_digest(&pre), digest, "{name}: landmarks or table bits moved");
        }
    }

    /// The reference the bucketed sweep is held to: the heap's `AllNodes`
    /// labels (over a view without arc weights), `∞` where unreached.
    fn heap_sweep<G: GraphView>(arena: &mut SearchArena, g: &G, root: NodeId, labels: &mut [f64]) {
        run_in(arena, &OnHeap(g), root, &Goal::AllNodes);
        for (i, d) in labels.iter_mut().enumerate() {
            *d = arena.distance(NodeId::from_index(i)).unwrap_or(f64::INFINITY);
        }
    }

    /// Every root's bucketed labels equal the heap's, bit for bit.
    fn assert_bucketed_equals_heap(name: &str, g: &RoadNetwork, roots: &[NodeId]) {
        let n = g.num_nodes();
        let mut sweep = DistanceSweep::new(g);
        let mut arena = SearchArena::new();
        let (mut got, mut want) = (vec![0.0; n], vec![0.0; n]);
        for &root in roots {
            sweep.run(g, root, &mut got);
            heap_sweep(&mut arena, g, root, &mut want);
            for (v, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}: d({root}, n{v}) {a} vs {b}");
            }
        }
    }

    /// A map from an edge list, its nodes on a line.
    fn edge_map(nodes: usize, edges: &[(u32, u32, f64)]) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..nodes {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        for &(u, v, w) in edges {
            b.add_edge(NodeId(u), NodeId(v), w).unwrap();
        }
        b.build().unwrap()
    }

    /// A `side × side` unit grid after `before` leading nodes, unjoined to them.
    fn unit_grid_after(b: &mut GraphBuilder, before: u32, side: u32) {
        for i in 0..side * side {
            b.add_node(Point::new((i % side) as f64, 100.0 + (i / side) as f64)).unwrap();
        }
        for i in 0..side * side {
            let u = NodeId(before + i);
            if i % side + 1 < side {
                b.add_edge(u, NodeId(u.0 + 1), 1.0).unwrap();
            }
            if i / side + 1 < side {
                b.add_edge(u, NodeId(u.0 + side), 1.0).unwrap();
            }
        }
    }

    /// Nodes 0–1 joined by one arc, beside a 10×10 unit grid they never
    /// reach.
    fn island_beside_a_grid() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(-50.0, 0.0)).unwrap();
        b.add_node(Point::new(-49.0, 0.0)).unwrap();
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        unit_grid_after(&mut b, 2, 10);
        b.build().unwrap()
    }

    /// The stress map whose 1e-12 arcs fail `bucket::exact_on_ring`.
    pub(crate) const SPAN: &str = "weights from 1e-12 to 1e12";
    /// The stress map whose trees run on a ring at its slot cap.
    pub(crate) const CAPPED: &str = "unit weights and one of 1e6";

    /// Hand-built maps that stress the ring.
    pub(crate) fn ring_stress_maps() -> Vec<(&'static str, RoadNetwork)> {
        // Unit arcs, a few of 1e-12 and one of 1e12: the ring's cap binds.
        let mut span = GraphBuilder::new();
        unit_grid_after(&mut span, 0, 110);
        for (u, v, w) in [(0, 111, 1e-12), (5, 116, 1e-12), (60, 171, 3e-7), (40, 12_050, 1e12)] {
            span.add_edge(NodeId(u), NodeId(v), w).unwrap();
        }
        // Unit arcs and one of 1e6: the cap binds, and every arc raises
        // every label.
        let mut capped = GraphBuilder::new();
        unit_grid_after(&mut capped, 0, 110);
        capped.add_edge(NodeId(40), NodeId(12_050), 1e6).unwrap();
        vec![
            (
                "zero weights and a zero-weight cycle",
                edge_map(
                    7,
                    &[
                        (0, 1, 0.0),
                        (1, 2, 0.0),
                        (2, 0, 0.0),
                        (2, 3, 1.5),
                        (3, 4, 0.0),
                        (4, 5, 0.0),
                        (5, 3, 0.0),
                        (1, 4, 1.5),
                        (5, 6, 0.1),
                        (0, 6, 1.6),
                    ],
                ),
            ),
            (
                "parallel edges",
                edge_map(
                    4,
                    &[
                        (0, 1, 3.0),
                        (0, 1, 1.0),
                        (1, 0, 1.0),
                        (1, 2, 0.5),
                        (1, 2, 0.25),
                        (0, 2, 1.3),
                        (2, 3, 0.1),
                        (2, 3, 7.0),
                    ],
                ),
            ),
            (SPAN, span.build().unwrap()),
            (CAPPED, capped.build().unwrap()),
            ("an island", island_beside_a_grid()),
            ("only zero weights", edge_map(3, &[(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0)])),
            ("one node", edge_map(1, &[])),
            ("two nodes", edge_map(2, &[(0, 1, 0.75)])),
        ]
    }

    #[test]
    fn bucketed_sweep_equals_dijkstra_labels_on_ring_stress_maps() {
        for (name, g) in ring_stress_maps() {
            let n = g.num_nodes() as u32;
            let roots: Vec<NodeId> = [0, 1, n / 2, n - 1].map(|r| NodeId(r.min(n - 1))).to_vec();
            assert_bucketed_equals_heap(name, &g, &roots);
            let shape = crate::bucket::Ring::of(&g.arc_weights().unwrap());
            let capped = shape.slots == crate::bucket::MAX_SLOTS;
            assert_eq!(
                capped,
                [SPAN, CAPPED].contains(&name),
                "{name}: the long arc binds the cap"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

        /// Random grid, geometric, radial and continent maps, as generated or
        /// reweighted to integers in `0..4` (zero weights and ties).
        #[test]
        fn bucketed_sweep_equals_dijkstra_labels_bit_for_bit(
            seed in 0..1_000u64,
            class in 0..4usize,
            tie_heavy in 0..2u8,
            picks in proptest::collection::vec(proptest::num::u32::ANY, 1..4),
        ) {
            use roadnet::EdgeId;
            use roadnet::generators::{ContinentConfig, continent_network};
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
            if tie_heavy == 1 {
                let updates: Vec<(EdgeId, f64)> = (0..g.num_edges())
                    .map(|e| (EdgeId::from_index(e), ((e as u64 * 7 + seed) % 4) as f64))
                    .collect();
                g.update_weights(&updates).unwrap();
            }
            let n = g.num_nodes() as u32;
            let roots: Vec<NodeId> = picks.iter().map(|p| NodeId(p % n)).collect();
            assert_bucketed_equals_heap("random map", &g, &roots);
        }
    }

    /// The builder's landmark rule over the heap sweep.
    fn heap_build<G: GraphView>(g: &G, num_landmarks: usize) -> AltPreprocessing {
        let mut arena = SearchArena::new();
        AltPreprocessing::select(g.num_nodes(), num_landmarks, |root, labels| {
            heap_sweep(&mut arena, g, root, labels)
        })
    }

    #[test]
    fn bucketed_build_equals_the_heap_build() {
        let stress = ring_stress_maps().into_iter().map(|(_, g)| g);
        let classes = NetworkClass::ALL.iter().map(|c| c.generate(400, 5).unwrap());
        let benchmark = benchmark_class_maps().into_iter().map(|(_, g)| g);
        for g in stress.chain(classes).chain(benchmark) {
            let l = g.num_nodes().min(8);
            let (bucketed, heap) = (AltPreprocessing::try_build(&g, l).unwrap(), heap_build(&g, l));
            assert_eq!(bucketed.landmarks, heap.landmarks);
            assert!(
                bucketed.flat.iter().map(|d| d.to_bits()).eq(heap.flat.iter().map(|d| d.to_bits()))
            );
        }
    }

    #[test]
    fn every_table_column_is_its_landmarks_sweep() {
        // Counts on each side of the 4-column block, so full blocks, a
        // part-full last block and a single part-full block are all
        // written into the slab. Selection is greedy: fewer landmarks are
        // a prefix of more.
        let g = NetworkClass::Geometric.generate(400, 9).unwrap();
        let most = AltPreprocessing::try_build(&g, 9).unwrap();
        let mut arena = SearchArena::new();
        let mut labels = vec![0.0; g.num_nodes()];
        for count in 1..=9 {
            let pre = AltPreprocessing::try_build(&g, count).unwrap();
            assert_eq!(pre.landmarks, most.landmarks[..count]);
            for (l, &landmark) in pre.landmarks.iter().enumerate() {
                heap_sweep(&mut arena, &g, landmark, &mut labels);
                let column = pre.flat.iter().skip(l).step_by(count).map(|d| d.to_bits());
                assert!(column.eq(labels.iter().map(|d| d.to_bits())), "{count}: column {l}");
            }
        }
    }

    #[test]
    fn landmarks_never_repeat_and_reach_every_component() {
        // Once the island holds two landmarks the grid must get the rest.
        let g = island_beside_a_grid();
        let pre = AltPreprocessing::try_build(&g, 4).unwrap();
        assert_eq!(pre.landmarks(), [NodeId(1), NodeId(0), NodeId(2), NodeId(101)]);
        assert_eq!(pre.lower_bound(NodeId(2), NodeId(101)), 18.0, "corner to corner");

        // Connected, but zero-weight edges put non-landmarks at distance 0
        // from the chosen set: the lowest-id unchosen node comes next.
        let g = edge_map(4, &[(0, 1, 0.0), (1, 2, 1.0), (2, 3, 0.0)]);
        let pre = AltPreprocessing::try_build(&g, 4).unwrap();
        assert_eq!(pre.landmarks(), [NodeId(2), NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn landmark_selection_is_deterministic() {
        let g = NetworkClass::Geometric.generate(300, 11).unwrap();
        let a = AltPreprocessing::try_build(&g, 5).unwrap();
        let b = AltPreprocessing::try_build(&g, 5).unwrap();
        assert_eq!(a, b, "two builds must select identically");
    }

    #[test]
    fn goal_potential_matches_min_over_live_targets() {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 4, ..Default::default() })
            .unwrap();
        let pre = AltPreprocessing::try_build(&g, 5).unwrap();
        // Unsorted, with a duplicate: the potential is a function of the set.
        let targets = [NodeId(143), NodeId(7), NodeId(60), NodeId(7)];
        let pot = pre.goal_potential(&targets);
        let mut live = pot.live();
        assert!(!live.retire(NodeId(8)), "not a goal");
        assert!(live.retire(NodeId(60)));
        assert!(!live.retire(NodeId(60)), "already retired");
        for n in (0..144).step_by(5).map(NodeId) {
            let all = targets.iter().map(|&t| pre.lower_bound(n, t)).fold(f64::INFINITY, f64::min);
            assert_eq!(pot.eval(n), all, "π({n}) with every goal live");
            let rest = pre.lower_bound(n, NodeId(143)).min(pre.lower_bound(n, NodeId(7)));
            assert_eq!(live.eval(n), rest, "π({n}) after retiring 60");
        }
        assert!(live.retire(NodeId(7)));
        assert!(!live.retire(NodeId(143)), "the last live goal keeps aiming the sweep");
        assert_eq!(live.eval(NodeId(20)), pre.lower_bound(NodeId(20), NodeId(143)));
        assert_eq!(pre.goal_potential(&[]).eval(NodeId(20)), 0.0, "no goal bounds nothing");
    }

    #[test]
    fn goal_potential_is_consistent_along_edges() {
        use roadnet::GraphView;
        // |π_R(u) − π_R(v)| ≤ w(u,v) on every edge, for every non-empty
        // subset R of the goal set: the invariant that keeps a guided sweep
        // settling exact labels before and after each re-key.
        for class in NetworkClass::ALL {
            let g = class.generate(400, 9).unwrap();
            let n = g.num_nodes() as u32;
            let pre = AltPreprocessing::try_build(&g, 6).unwrap();
            let goals = [NodeId(3), NodeId(n / 2), NodeId(n - 2)];
            let full = pre.goal_potential(&goals);
            for mask in 1u32..8 {
                let mut live = full.live();
                for (i, &t) in goals.iter().enumerate() {
                    if mask & (1 << i) == 0 {
                        assert!(live.retire(t));
                    }
                }
                let kept: Vec<NodeId> = goals
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &t)| t)
                    .collect();
                let direct = pre.goal_potential(&kept);
                for &t in &kept {
                    assert_eq!(live.eval(t), 0.0, "{}: π_R({t}) at a live goal", class.name());
                }
                for u in (0..n).map(NodeId) {
                    let pu = live.eval(u);
                    assert_eq!(pu, direct.eval(u), "retiring down to R is the potential of R");
                    g.for_each_arc(u, &mut |v, w| {
                        let pv = live.eval(v);
                        assert!(
                            (pu - pv).abs() <= w + 1e-9,
                            "{} R={kept:?}: potential jump {} over edge ({u},{v}) of weight {w}",
                            class.name(),
                            (pu - pv).abs()
                        );
                    });
                }
            }
        }
    }
}

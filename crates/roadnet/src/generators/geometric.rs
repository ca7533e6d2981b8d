//! Random geometric network generator.
//!
//! `num_nodes` points are scattered uniformly in a square; each node links
//! to its `k` nearest neighbours (duplicate links collapse to one edge).
//! k-NN graphs over uniform points are near-planar with road-like degrees.
//! Any residual components are stitched together through their closest node
//! pairs, so the result is always connected.
//!
//! Generation is linear in the map: the k-NN lists, the duplicate check
//! and the component labels are one pass each, and a stray component
//! finds its closest pair through the spatial index, reading only the
//! cells around its own nodes.

use crate::error::Result;
use crate::geo::Point;
use crate::graph::{GraphBuilder, RoadNetwork};
use crate::ids::NodeId;
use crate::spatial::SpatialIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;

/// Parameters for [`random_geometric`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct GeometricConfig {
    /// Number of nodes (≥ 2).
    pub num_nodes: usize,
    /// Side length of the square the nodes are scattered in. If 0, a side
    /// proportional to `sqrt(num_nodes)` is chosen so density stays constant
    /// across sizes (≈ 1 node per unit area).
    pub side: f64,
    /// Each node connects to its `k` nearest neighbours.
    pub k: usize,
    /// Edge weight = Euclidean length × uniform sample from this range
    /// (lower bound ≥ 1 keeps A* admissible).
    pub weight_factor: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeometricConfig {
    fn default() -> Self {
        GeometricConfig { num_nodes: 1000, side: 0.0, k: 3, weight_factor: (1.0, 1.25), seed: 0 }
    }
}

/// Generate a random geometric network per `cfg`.
pub fn random_geometric(cfg: &GeometricConfig) -> Result<RoadNetwork> {
    assert!(cfg.num_nodes >= 2, "need at least 2 nodes");
    assert!(cfg.k >= 1, "k must be at least 1");
    assert!(
        cfg.weight_factor.0 >= 1.0 && cfg.weight_factor.1 >= cfg.weight_factor.0,
        "weight factors must satisfy 1 <= lo <= hi"
    );
    let n = cfg.num_nodes;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x67656f6d); // "geom"
    let side = if cfg.side > 0.0 { cfg.side } else { (n as f64).sqrt() };

    let points: Vec<Point> =
        (0..n).map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))).collect();
    let index = SpatialIndex::from_points(points.clone());

    let mut b = GraphBuilder::new();
    b.reserve(n, n * cfg.k);
    for p in &points {
        b.add_node(*p)?;
    }

    let mut add_edge = |b: &mut GraphBuilder, a: NodeId, c: NodeId| {
        let len = points[a.index()].distance(points[c.index()]);
        let w = if cfg.weight_factor.0 == cfg.weight_factor.1 {
            len * cfg.weight_factor.0
        } else {
            len * rng.gen_range(cfg.weight_factor.0..cfg.weight_factor.1)
        };
        b.add_edge(a, c, w).map(|_| ())
    };

    // Every node's k+1 nearest (the node itself is its own nearest
    // neighbour), one row of `width` each.
    let width = (cfg.k + 1).min(n);
    let mut knn = Vec::with_capacity(n * width);
    let mut nearest = Vec::with_capacity(width + 1);
    for p in &points {
        index.k_nearest_into(*p, cfg.k + 1, &mut nearest);
        assert_eq!(nearest.len(), width, "a k-NN list is short");
        knn.extend(nearest.iter().map(|&(_, id)| id));
    }
    let row = |i: usize| &knn[i * width..(i + 1) * width];

    // Node `i` links to each listed `nb` unless the edge exists already,
    // and it exists exactly when `nb` came first and listed `i`: a row
    // holds each node once, and no other edge is added before the
    // components are stitched.
    let mut components = Components::new(n);
    for i in 0..n {
        let me = NodeId::from_index(i);
        for &nb in row(i) {
            if nb != me && !(nb < me && row(nb.index()).contains(&me)) {
                add_edge(&mut b, me, nb)?;
                components.union(i, nb.index());
            }
        }
    }

    for (u, v) in links(&index, &components.labels()) {
        add_edge(&mut b, u, v)?;
    }
    b.build()
}

/// Union-find over node indices (path halving, the lower root kept).
struct Components {
    parent: Vec<u32>,
}

impl Components {
    fn new(n: usize) -> Self {
        Components { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let up = self.parent[self.parent[x] as usize];
            self.parent[x] = up;
            x = up as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra.max(rb)] = ra.min(rb) as u32;
    }

    /// Each node's component, numbered by the components' least nodes —
    /// the numbering of [`RoadNetwork::component_labels`].
    fn labels(mut self) -> Vec<u32> {
        // The lower root is kept, so a root is its component's least node
        // and is labelled before any other member is read.
        let mut labels = vec![0u32; self.parent.len()];
        let mut next = 0;
        for i in 0..labels.len() {
            let root = self.find(i);
            if root == i {
                labels[i] = next;
                next += 1;
            } else {
                labels[i] = labels[root];
            }
        }
        labels
    }
}

/// The edges that join the components `labels` numbers into one, in the
/// order they are added. The largest component is the main one; the others
/// follow by size, largest first (ties by number), each joined to the
/// union of those before it through its closest pair and then appended
/// to it. The pair is the first strict minimum in the order the all-pairs
/// scan reads: component nodes in node order, then main nodes in their
/// position in `main` (the main component's nodes, then each joined
/// component's, in node order).
fn links(index: &SpatialIndex, labels: &[u32]) -> Vec<(NodeId, NodeId)> {
    let num = labels.iter().max().map_or(0, |&l| l as usize + 1);
    if num <= 1 {
        return Vec::new();
    }
    // Members of each component in node order, counting-sorted into one
    // slab: component `c` is `members[start[c]..start[c + 1]]`.
    let mut start = vec![0usize; num + 1];
    for &l in labels {
        start[l as usize + 1] += 1;
    }
    for c in 0..num {
        start[c + 1] += start[c];
    }
    let mut cursor = start.clone();
    let mut members = vec![NodeId(0); labels.len()];
    for (i, &l) in labels.iter().enumerate() {
        members[cursor[l as usize]] = NodeId::from_index(i);
        cursor[l as usize] += 1;
    }
    let component = |c: usize| &members[start[c]..start[c + 1]];
    let mut order: Vec<usize> = (0..num).collect();
    order.sort_by_key(|&c| Reverse(component(c).len()));

    // Each node's position in `main`, `u32::MAX` outside it.
    let mut position = vec![u32::MAX; labels.len()];
    let mut main_len = 0u32;
    let mut out = Vec::with_capacity(num - 1);
    for (i, &c) in order.iter().enumerate() {
        if i > 0 {
            let mut best: Option<(f64, NodeId, NodeId)> = None;
            for &u in component(c) {
                let in_main = |v: NodeId| Some(position[v.index()]).filter(|&at| at != u32::MAX);
                let (v, d) = index.nearest_ranked(index.point(u), in_main).expect("main is set");
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, u, v));
                }
            }
            let (_, u, v) = best.expect("a component is not empty");
            out.push((u, v));
        }
        for &v in component(c) {
            position[v.index()] = main_len;
            main_len += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The all-pairs scan [`links`] replaced, kept as its oracle: every
    /// (component node, main node) pair, the first strict minimum winning.
    fn scan_links(points: &[Point], labels: &[u32]) -> Vec<(NodeId, NodeId)> {
        let num = labels.iter().copied().max().unwrap() as usize + 1;
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num];
        for (i, &l) in labels.iter().enumerate() {
            members[l as usize].push(NodeId::from_index(i));
        }
        members.sort_by_key(|m| std::cmp::Reverse(m.len()));
        let mut main: Vec<NodeId> = members[0].clone();
        let mut out = Vec::new();
        for comp in &members[1..] {
            let mut best = (f64::INFINITY, comp[0], main[0]);
            for &u in comp {
                for &v in &main {
                    let d = points[u.index()].distance(points[v.index()]);
                    if d < best.0 {
                        best = (d, u, v);
                    }
                }
            }
            out.push((best.1, best.2));
            main.extend_from_slice(comp);
        }
        out
    }

    /// The generator as it was before linking went through the spatial
    /// index: a set of seen pairs, a throwaway build for the component
    /// labels, and [`scan_links`].
    fn reference_geometric(cfg: &GeometricConfig) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x67656f6d);
        let side = if cfg.side > 0.0 { cfg.side } else { (cfg.num_nodes as f64).sqrt() };
        let points: Vec<Point> = (0..cfg.num_nodes)
            .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        let index = SpatialIndex::from_points(points.clone());
        let mut b = GraphBuilder::new();
        for p in &points {
            b.add_node(*p).unwrap();
        }
        let mut seen = BTreeSet::new();
        let mut add_unique = |b: &mut GraphBuilder, a: NodeId, c: NodeId| {
            if seen.insert((a.0.min(c.0), a.0.max(c.0))) {
                let len = points[a.index()].distance(points[c.index()]);
                let w = if cfg.weight_factor.0 == cfg.weight_factor.1 {
                    len * cfg.weight_factor.0
                } else {
                    len * rng.gen_range(cfg.weight_factor.0..cfg.weight_factor.1)
                };
                b.add_edge(a, c, w).unwrap();
            }
        };
        for (i, p) in points.iter().enumerate() {
            let me = NodeId::from_index(i);
            for nb in index.k_nearest(*p, cfg.k + 1) {
                if nb != me {
                    add_unique(&mut b, me, nb);
                }
            }
        }
        let g = b.clone().build().unwrap();
        if !g.is_connected() {
            for (u, v) in scan_links(&points, &g.component_labels()) {
                add_unique(&mut b, u, v);
            }
        }
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        #[test]
        fn linked_map_equals_the_quadratic_reference(seed in 0u64..u64::MAX) {
            // k = 1 leaves hundreds of components at 2 000 nodes.
            for num_nodes in [2, 50, 300, 2_000] {
                for k in 1..=3 {
                    let cfg = GeometricConfig { num_nodes, k, seed, ..Default::default() };
                    let (got, want) = (random_geometric(&cfg).unwrap(), reference_geometric(&cfg));
                    prop_assert!(got.is_connected());
                    prop_assert!(
                        got.edges().iter().map(|e| (e.a, e.b, e.weight.to_bits()))
                            .eq(want.edges().iter().map(|e| (e.a, e.b, e.weight.to_bits()))),
                        "seed {seed}, {num_nodes} nodes, k = {k}: edges differ"
                    );
                }
            }
        }
    }

    #[test]
    fn union_find_numbers_components_by_least_node() {
        let mut b = GraphBuilder::new();
        for i in 0..7 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        let mut components = Components::new(7);
        for (a, c) in [(5, 1), (6, 3), (3, 0), (4, 2)] {
            b.add_edge(NodeId(a), NodeId(c), 1.0).unwrap();
            components.union(a as usize, c as usize);
        }
        let labels = components.labels();
        assert_eq!(labels, vec![0, 1, 2, 0, 2, 1, 0]);
        assert_eq!(labels, b.build().unwrap().component_labels());
    }

    #[test]
    fn equal_distances_link_by_position_in_main_then_by_component_node() {
        // Main is {1, 2, 3}; {0, 5} joins it next, through (0, 3), so 0
        // and 5 take main positions 3 and 4; {6, 7} joins through
        // (6, 1), as 7 is only as close to 1 as 6 is and comes later.
        // Node 4 is then exactly 3 from node 3 (position 2) and from node
        // 0 (position 3): the earlier position wins, not the lower id.
        let points = [(10, -3), (0, 10), (0, 20), (10, 3), (10, 0), (30, 30), (-4, 10), (4, 10)]
            .map(|(x, y)| Point::new(f64::from(x), f64::from(y)));
        let labels = [0, 1, 1, 1, 2, 0, 3, 3];
        let index = SpatialIndex::from_points(points.to_vec());
        let want = [(0, 3), (6, 1), (4, 3)].map(|(u, v)| (NodeId(u), NodeId(v)));
        assert_eq!(scan_links(&points, &labels), want);
        assert_eq!(links(&index, &labels), want);
    }

    #[test]
    fn default_geometric_is_connected_admissible_and_sparse() {
        let g =
            random_geometric(&GeometricConfig { num_nodes: 500, ..Default::default() }).unwrap();
        assert_eq!(g.num_nodes(), 500);
        assert!(g.is_connected());
        assert!(g.euclidean_admissible(1e-9));
        // k-NN with k=3 yields between n*k/2 and n*k undirected edges.
        assert!(g.num_edges() >= 500 * 3 / 2);
        assert!(g.num_edges() <= 500 * 4); // some slack for stitching
    }

    #[test]
    fn no_duplicate_edges() {
        let g =
            random_geometric(&GeometricConfig { num_nodes: 200, seed: 5, ..Default::default() })
                .unwrap();
        let mut keys: Vec<_> =
            g.edges().iter().map(|e| (e.a.0.min(e.b.0), e.a.0.max(e.b.0))).collect();
        keys.sort_unstable();
        assert!(keys.windows(2).all(|w| w[0] != w[1]), "duplicate edge");
    }

    #[test]
    fn density_is_constant_across_sizes() {
        let small =
            random_geometric(&GeometricConfig { num_nodes: 250, ..Default::default() }).unwrap();
        let large =
            random_geometric(&GeometricConfig { num_nodes: 1000, ..Default::default() }).unwrap();
        let d_small = small.num_nodes() as f64 / (small.bbox().width() * small.bbox().height());
        let d_large = large.num_nodes() as f64 / (large.bbox().width() * large.bbox().height());
        assert!((d_small / d_large - 1.0).abs() < 0.35, "densities {d_small} vs {d_large}");
    }

    #[test]
    fn explicit_side_is_respected() {
        let g =
            random_geometric(&GeometricConfig { num_nodes: 100, side: 50.0, ..Default::default() })
                .unwrap();
        assert!(g.bbox().max.x <= 50.0 && g.bbox().max.y <= 50.0);
    }

    #[test]
    fn tiny_network_still_works() {
        let g = random_geometric(&GeometricConfig { num_nodes: 2, k: 1, ..Default::default() })
            .unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        let _ = random_geometric(&GeometricConfig { k: 0, ..Default::default() });
    }
}

//! The road-network graph model `G(N, E)` of §III-A.
//!
//! Road segments are edges with non-negative weights (travel distance, time,
//! or toll); endpoints are nodes with planar coordinates. The network is
//! stored in compressed sparse row (CSR) form: one contiguous arc array plus
//! per-node offsets, which keeps adjacency scans cache-friendly — the hot
//! loop of every search algorithm in `pathsearch`.
//!
//! Networks are undirected by default (each road segment yields two arcs
//! sharing an [`EdgeId`]); directed networks are supported for one-way
//! streets.

use crate::error::{Result, RoadNetError};
use crate::geo::{BoundingBox, Point};
use crate::ids::{EdgeId, NodeId};
use std::sync::OnceLock;

/// One directed adjacency entry: `to` is reachable at cost `weight` via the
/// underlying undirected [`EdgeId`] `edge`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arc {
    /// Head node reached by following the arc.
    pub to: NodeId,
    /// Traversal cost.
    pub weight: f64,
    /// The undirected segment this arc belongs to.
    pub edge: EdgeId,
}

/// An undirected road segment as supplied to the builder.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Edge {
    /// One endpoint (orientation as supplied to the builder).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Traversal cost, identical in both directions.
    pub weight: f64,
}

/// Read-only view of a graph sufficient for shortest-path search.
///
/// Implemented by [`RoadNetwork`] (pure in-memory traversal) and by
/// [`crate::storage::ChunkedCsr`] (traversal of a page file on disk
/// through a bounded page buffer that counts I/O). Search algorithms are
/// generic over this trait so the same code path is measured with and
/// without storage costs.
pub trait GraphView {
    /// Number of nodes; node ids are dense in `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// Coordinate of node `n`.
    fn point(&self, n: NodeId) -> Point;

    /// Invoke `f(to, weight)` for every outgoing arc of `n`.
    fn for_each_arc(&self, n: NodeId, f: &mut dyn FnMut(NodeId, f64));

    /// True when every arc has an equal-weight reverse arc (undirected
    /// networks). Algorithms that swap source/target roles (bidirectional
    /// search termination shortcuts, MSMD transposition) require this; the
    /// conservative default is `false`, and [`RoadNetwork`] reports its
    /// build mode.
    fn is_symmetric(&self) -> bool {
        false
    }

    /// A summary of every arc's weight, where the view holds its arcs in
    /// memory and keeps the summary beside them ([`RoadNetwork`] does,
    /// computed once per weight state). The default is `None`: a view
    /// that pages its arcs in ([`crate::storage::ChunkedCsr`]) would pay
    /// storage traffic for it, and searches over such a view keep the
    /// access pattern its I/O counts are measured against.
    fn arc_weights(&self) -> Option<ArcWeights> {
        None
    }
}

/// Count, sum and extremes of a view's arc weights, in one arc scan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArcWeights {
    /// Arcs scanned.
    pub arcs: usize,
    /// The weights' sum, added in node order, each node's arcs in
    /// [`GraphView::for_each_arc`] order.
    pub sum: f64,
    /// The smallest weight; `+∞` with no arcs.
    pub shortest: f64,
    /// The largest weight; `0` with no arcs.
    pub longest: f64,
}

impl ArcWeights {
    /// Scan every arc of `g`.
    pub fn scan<G: GraphView + ?Sized>(g: &G) -> Self {
        let mut w = ArcWeights { arcs: 0, sum: 0.0, shortest: f64::INFINITY, longest: 0.0 };
        for u in 0..g.num_nodes() {
            g.for_each_arc(NodeId::from_index(u), &mut |_, weight| {
                w.arcs += 1;
                w.sum += weight;
                w.shortest = w.shortest.min(weight);
                w.longest = w.longest.max(weight);
            });
        }
        w
    }
}

impl<G: GraphView + ?Sized> GraphView for &G {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn point(&self, n: NodeId) -> Point {
        (**self).point(n)
    }
    // Forwarders must inline so the sweep loop's arc closure is
    // devirtualized through the wrapper, as it is on the bare map.
    #[inline]
    fn for_each_arc(&self, n: NodeId, f: &mut dyn FnMut(NodeId, f64)) {
        (**self).for_each_arc(n, f)
    }
    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }
    fn arc_weights(&self) -> Option<ArcWeights> {
        (**self).arc_weights()
    }
}

/// Shared-ownership views: a fleet of servers can hold one map via `Arc`
/// instead of a deep copy each.
impl<G: GraphView + ?Sized> GraphView for std::sync::Arc<G> {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn point(&self, n: NodeId) -> Point {
        (**self).point(n)
    }
    // Inlined for the same reason as the `&G` forwarder: every service
    // shard sweeps through an `Arc` of the shared map.
    #[inline]
    fn for_each_arc(&self, n: NodeId, f: &mut dyn FnMut(NodeId, f64)) {
        (**self).for_each_arc(n, f)
    }
    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }
    fn arc_weights(&self) -> Option<ArcWeights> {
        (**self).arc_weights()
    }
}

/// Builder accumulating nodes and edges, validating eagerly, and producing a
/// CSR [`RoadNetwork`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    points: Vec<Point>,
    edges: Vec<Edge>,
    directed: bool,
}

impl GraphBuilder {
    /// Start building an undirected network (the common road-network case).
    pub fn new() -> Self {
        GraphBuilder { points: Vec::new(), edges: Vec::new(), directed: false }
    }

    /// Start building a directed network (one-way arcs).
    pub fn directed() -> Self {
        GraphBuilder { points: Vec::new(), edges: Vec::new(), directed: true }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add a node at `p`, returning its id.
    pub fn add_node(&mut self, p: Point) -> Result<NodeId> {
        let id = NodeId::from_index(self.points.len());
        if !p.is_finite() {
            return Err(RoadNetError::InvalidCoordinate { node: id });
        }
        self.points.push(p);
        Ok(id)
    }

    /// Reserve capacity for `nodes` nodes and `edges` edges.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.points.reserve(nodes);
        self.edges.reserve(edges);
    }

    /// Add an edge between existing nodes `a` and `b` with weight `w`.
    ///
    /// In an undirected builder the edge is traversable both ways; in a
    /// directed builder only `a → b`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, w: f64) -> Result<EdgeId> {
        let n = self.points.len();
        for node in [a, b] {
            if node.index() >= n {
                return Err(RoadNetError::NodeOutOfRange { node, num_nodes: n });
            }
        }
        if a == b {
            return Err(RoadNetError::SelfLoop { node: a });
        }
        if !w.is_finite() || w < 0.0 {
            return Err(RoadNetError::InvalidWeight { from: a, to: b, weight: w });
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(Edge { a, b, weight: w });
        Ok(id)
    }

    /// Convenience: add an edge weighted by the Euclidean distance between
    /// the endpoints scaled by `factor` (≥ 1 keeps the Euclidean heuristic
    /// admissible for A*).
    pub fn add_euclidean_edge(&mut self, a: NodeId, b: NodeId, factor: f64) -> Result<EdgeId> {
        let n = self.points.len();
        for node in [a, b] {
            if node.index() >= n {
                return Err(RoadNetError::NodeOutOfRange { node, num_nodes: n });
            }
        }
        let w = self.points[a.index()].distance(self.points[b.index()]) * factor;
        self.add_edge(a, b, w)
    }

    /// Finalize into a CSR [`RoadNetwork`].
    ///
    /// # Errors
    /// [`RoadNetError::EmptyNetwork`] without nodes, and
    /// [`RoadNetError::InvalidWeight`] for a weight above
    /// `f64::MAX / (2 × arc count)`, past which a path sum could overflow.
    pub fn build(self) -> Result<RoadNetwork> {
        if self.points.is_empty() {
            return Err(RoadNetError::EmptyNetwork);
        }
        let n = self.points.len();
        let arcs_per_edge = if self.directed { 1 } else { 2 };
        let heaviest = max_weight(self.edges.len() * arcs_per_edge);
        if let Some(e) = self.edges.iter().find(|e| e.weight > heaviest) {
            return Err(RoadNetError::InvalidWeight { from: e.a, to: e.b, weight: e.weight });
        }

        // Counting sort of arcs into CSR order.
        let mut degree = vec![0u32; n];
        for e in &self.edges {
            degree[e.a.index()] += 1;
            if !self.directed {
                degree[e.b.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0u32);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut arcs = vec![
            Arc { to: NodeId(0), weight: 0.0, edge: EdgeId(0) };
            self.edges.len() * arcs_per_edge
        ];
        for (i, e) in self.edges.iter().enumerate() {
            let edge = EdgeId::from_index(i);
            let slot = cursor[e.a.index()] as usize;
            arcs[slot] = Arc { to: e.b, weight: e.weight, edge };
            cursor[e.a.index()] += 1;
            if !self.directed {
                let slot = cursor[e.b.index()] as usize;
                arcs[slot] = Arc { to: e.a, weight: e.weight, edge };
                cursor[e.b.index()] += 1;
            }
        }

        let bbox = BoundingBox::of_points(self.points.iter().copied());
        Ok(RoadNetwork {
            points: self.points,
            offsets,
            arcs,
            edges: self.edges,
            directed: self.directed,
            bbox,
            weights: OnceLock::new(),
        })
    }
}

/// The heaviest weight a map of `arcs` arcs holds: all its arcs then sum
/// to at most half of `f64::MAX`, so every path sum — a simple path's, and
/// its rounded running sums — stays finite.
fn max_weight(arcs: usize) -> f64 {
    f64::MAX / (2 * arcs) as f64
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A road network in CSR form. Construct via [`GraphBuilder`] or one of the
/// generators in [`crate::generators`]. The topology is fixed after
/// construction; edge weights may change in place via
/// [`RoadNetwork::update_weights`] (live-traffic updates).
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    points: Vec<Point>,
    offsets: Vec<u32>,
    arcs: Vec<Arc>,
    edges: Vec<Edge>,
    directed: bool,
    bbox: BoundingBox,
    /// [`ArcWeights`] of the current weights: scanned on first request,
    /// dropped by every weight change.
    weights: OnceLock<ArcWeights>,
}

impl RoadNetwork {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of undirected edges (road segments) supplied at build time.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of directed arcs (2× edges for undirected networks).
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Whether the network was built as directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Coordinate of node `n`.
    #[inline]
    pub fn point(&self, n: NodeId) -> Point {
        self.points[n.index()]
    }

    /// All node coordinates, indexed by node id.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The original edge list, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge record for `e`.
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()]
    }

    /// Outgoing arcs of node `n` as a contiguous slice.
    #[inline]
    pub fn arcs(&self, n: NodeId) -> &[Arc] {
        let lo = self.offsets[n.index()] as usize;
        let hi = self.offsets[n.index() + 1] as usize;
        &self.arcs[lo..hi]
    }

    /// Out-degree of node `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.arcs(n).len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.points.len()).map(NodeId::from_index)
    }

    /// Bounding box of all node coordinates.
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// Mean out-degree.
    pub fn avg_degree(&self) -> f64 {
        self.arcs.len() as f64 / self.points.len() as f64
    }

    /// Straight-line distance between the coordinates of two nodes.
    #[inline]
    pub fn euclidean(&self, a: NodeId, b: NodeId) -> f64 {
        self.point(a).distance(self.point(b))
    }

    /// Check that every arc's weight is at least the Euclidean distance
    /// between its endpoints (within `eps`). When true, the Euclidean
    /// heuristic is admissible for A*.
    #[cfg(test)]
    pub fn euclidean_admissible(&self, eps: f64) -> bool {
        self.nodes().all(|n| self.arcs(n).iter().all(|a| a.weight + eps >= self.euclidean(n, a.to)))
    }

    /// Component label for every node (labels are dense from 0, assigned in
    /// node-id order of component discovery). For directed networks this is
    /// *weak* connectivity of the underlying undirected structure only when
    /// arcs happen to be symmetric; it treats arcs as one-way.
    pub fn component_labels(&self) -> Vec<u32> {
        let n = self.num_nodes();
        let mut label = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut stack = Vec::new();
        for start in 0..n {
            if label[start] != u32::MAX {
                continue;
            }
            label[start] = next;
            stack.push(NodeId::from_index(start));
            while let Some(u) = stack.pop() {
                for a in self.arcs(u) {
                    if label[a.to.index()] == u32::MAX {
                        label[a.to.index()] = next;
                        stack.push(a.to);
                    }
                }
            }
            next += 1;
        }
        label
    }

    /// True if every node is reachable from every other (undirected case) /
    /// the arc structure forms one component.
    pub fn is_connected(&self) -> bool {
        self.component_labels().iter().all(|&label| label == 0)
    }

    /// Restrict to the largest connected component, renumbering nodes
    /// densely. Returns the subnetwork and, for each new node id, the
    /// original node id it came from.
    pub fn largest_component(&self) -> Result<(RoadNetwork, Vec<NodeId>)> {
        let labels = self.component_labels();
        let num = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut sizes = vec![0usize; num];
        for &l in &labels {
            sizes[l as usize] += 1;
        }
        let best = sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| **s)
            .map(|(i, _)| i as u32)
            .ok_or(RoadNetError::EmptyNetwork)?;

        let mut old_of_new = Vec::new();
        let mut new_of_old = vec![u32::MAX; self.num_nodes()];
        for (i, &l) in labels.iter().enumerate() {
            if l == best {
                new_of_old[i] = old_of_new.len() as u32;
                old_of_new.push(NodeId::from_index(i));
            }
        }
        let mut b = if self.directed { GraphBuilder::directed() } else { GraphBuilder::new() };
        b.reserve(old_of_new.len(), self.edges.len());
        for &old in &old_of_new {
            b.add_node(self.point(old))?;
        }
        for e in &self.edges {
            let na = new_of_old[e.a.index()];
            let nb = new_of_old[e.b.index()];
            if na != u32::MAX && nb != u32::MAX {
                b.add_edge(NodeId(na), NodeId(nb), e.weight)?;
            }
        }
        Ok((b.build()?, old_of_new))
    }

    /// Apply live-traffic weight updates in place, keeping the topology
    /// fixed. Returns the edges whose weight actually changed, sorted and
    /// deduplicated — the set a cache layer must invalidate against.
    ///
    /// Entries repeating an edge's current weight are accepted but not
    /// reported: they cannot affect any cached search result. The whole
    /// batch is validated before any weight is written, so an invalid entry
    /// leaves the network untouched.
    ///
    /// # Errors
    /// [`RoadNetError::EdgeOutOfRange`] for an unknown edge id,
    /// [`RoadNetError::InvalidWeight`] for a negative or non-finite weight,
    /// or one above `f64::MAX / (2 × arc count)` (as
    /// [`GraphBuilder::build`] refuses).
    pub fn update_weights(&mut self, updates: &[(EdgeId, f64)]) -> Result<Vec<EdgeId>> {
        let heaviest = max_weight(self.arcs.len());
        for &(e, w) in updates {
            if e.index() >= self.edges.len() {
                return Err(RoadNetError::EdgeOutOfRange { edge: e, num_edges: self.edges.len() });
            }
            if !w.is_finite() || w < 0.0 || w > heaviest {
                let edge = self.edges[e.index()];
                return Err(RoadNetError::InvalidWeight { from: edge.a, to: edge.b, weight: w });
            }
        }
        let mut changed = Vec::new();
        for &(e, w) in updates {
            let rec = self.edges[e.index()];
            if rec.weight == w {
                continue;
            }
            self.edges[e.index()].weight = w;
            self.weights.take();
            // Both CSR arc ranges can carry the edge (one for directed
            // networks); matching on the edge id covers either layout.
            for node in [rec.a, rec.b] {
                let lo = self.offsets[node.index()] as usize;
                let hi = self.offsets[node.index() + 1] as usize;
                for arc in &mut self.arcs[lo..hi] {
                    if arc.edge == e {
                        arc.weight = w;
                    }
                }
            }
            changed.push(e);
        }
        changed.sort_unstable();
        changed.dedup();
        Ok(changed)
    }
}

impl GraphView for RoadNetwork {
    fn num_nodes(&self) -> usize {
        self.num_nodes()
    }

    fn point(&self, n: NodeId) -> Point {
        self.point(n)
    }

    #[inline]
    fn for_each_arc(&self, n: NodeId, f: &mut dyn FnMut(NodeId, f64)) {
        for a in self.arcs(n) {
            f(a.to, a.weight);
        }
    }

    fn is_symmetric(&self) -> bool {
        !self.directed
    }

    fn arc_weights(&self) -> Option<ArcWeights> {
        Some(*self.weights.get_or_init(|| ArcWeights::scan(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0)).unwrap();
        let n1 = b.add_node(Point::new(1.0, 0.0)).unwrap();
        let n2 = b.add_node(Point::new(0.0, 1.0)).unwrap();
        b.add_edge(n0, n1, 1.0).unwrap();
        b.add_edge(n1, n2, 2.0).unwrap();
        b.add_edge(n2, n0, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_symmetric_arcs_for_undirected() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(NodeId(0)), 2);
        // Arc 0→1 and 1→0 both exist with the same weight and edge id.
        let fwd = g.arcs(NodeId(0)).iter().find(|a| a.to == NodeId(1)).unwrap();
        let rev = g.arcs(NodeId(1)).iter().find(|a| a.to == NodeId(0)).unwrap();
        assert_eq!(fwd.weight, rev.weight);
        assert_eq!(fwd.edge, rev.edge);
    }

    #[test]
    fn directed_builder_adds_single_arcs() {
        let mut b = GraphBuilder::directed();
        let n0 = b.add_node(Point::new(0.0, 0.0)).unwrap();
        let n1 = b.add_node(Point::new(1.0, 0.0)).unwrap();
        b.add_edge(n0, n1, 3.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_arcs(), 1);
        assert_eq!(g.degree(n0), 1);
        assert_eq!(g.degree(n1), 0);
        assert!(g.is_directed());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0)).unwrap();
        let n1 = b.add_node(Point::new(1.0, 0.0)).unwrap();
        assert!(matches!(b.add_edge(n0, NodeId(9), 1.0), Err(RoadNetError::NodeOutOfRange { .. })));
        assert!(matches!(b.add_edge(n0, n0, 1.0), Err(RoadNetError::SelfLoop { .. })));
        assert!(matches!(b.add_edge(n0, n1, -2.0), Err(RoadNetError::InvalidWeight { .. })));
        assert!(matches!(b.add_edge(n0, n1, f64::NAN), Err(RoadNetError::InvalidWeight { .. })));
        assert!(matches!(
            b.add_node(Point::new(f64::NAN, 0.0)),
            Err(RoadNetError::InvalidCoordinate { .. })
        ));
        assert!(matches!(GraphBuilder::new().build(), Err(RoadNetError::EmptyNetwork)));
    }

    #[test]
    fn zero_weight_edges_are_allowed() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0)).unwrap();
        let n1 = b.add_node(Point::new(0.0, 0.0)).unwrap();
        assert!(b.add_edge(n0, n1, 0.0).is_ok());
    }

    #[test]
    fn euclidean_edge_weights_scale() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0)).unwrap();
        let n1 = b.add_node(Point::new(3.0, 4.0)).unwrap();
        b.add_euclidean_edge(n0, n1, 1.2).unwrap();
        let g = b.build().unwrap();
        assert!((g.arcs(n0)[0].weight - 6.0).abs() < 1e-12);
        assert!(g.euclidean_admissible(1e-12));
    }

    #[test]
    fn components_and_largest() {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        // Component A: {0,1,2}; component B: {3,4}.
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        b.add_edge(NodeId(3), NodeId(4), 1.0).unwrap();
        let g = b.build().unwrap();
        assert!(!g.is_connected());
        let (sub, mapping) = g.largest_component().unwrap();
        assert_eq!(sub.num_nodes(), 3);
        assert!(sub.is_connected());
        assert_eq!(mapping, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn bbox_covers_nodes() {
        let g = triangle();
        let bb = g.bbox();
        assert!(bb.contains(Point::new(0.5, 0.5)));
        assert_eq!(bb.width(), 1.0);
        assert_eq!(bb.height(), 1.0);
    }

    #[test]
    fn graph_view_matches_arcs() {
        let g = triangle();
        let mut seen = Vec::new();
        GraphView::for_each_arc(&g, NodeId(1), &mut |to, w| seen.push((to, w)));
        let direct: Vec<(NodeId, f64)> =
            g.arcs(NodeId(1)).iter().map(|a| (a.to, a.weight)).collect();
        assert_eq!(seen, direct);
    }

    #[test]
    fn update_weights_rewrites_both_arc_directions() {
        let mut g = triangle();
        let changed = g.update_weights(&[(EdgeId(0), 5.0)]).unwrap();
        assert_eq!(changed, vec![EdgeId(0)]);
        assert_eq!(g.edge(EdgeId(0)).weight, 5.0);
        let fwd = g.arcs(NodeId(0)).iter().find(|a| a.to == NodeId(1)).unwrap();
        let rev = g.arcs(NodeId(1)).iter().find(|a| a.to == NodeId(0)).unwrap();
        assert_eq!(fwd.weight, 5.0);
        assert_eq!(rev.weight, 5.0);
        // Untouched edges keep their weights.
        assert_eq!(g.edge(EdgeId(1)).weight, 2.0);
        assert_eq!(g.edge(EdgeId(2)).weight, 1.0);
    }

    #[test]
    fn update_weights_skips_noop_entries_and_dedups() {
        let mut g = triangle();
        // A no-op entry is accepted but not reported as changed; a repeated
        // edge appears once in the affected set.
        let changed =
            g.update_weights(&[(EdgeId(1), 2.0), (EdgeId(2), 9.0), (EdgeId(2), 7.0)]).unwrap();
        assert_eq!(changed, vec![EdgeId(2)]);
        assert_eq!(g.edge(EdgeId(2)).weight, 7.0);
        assert!(g.update_weights(&[]).unwrap().is_empty());
    }

    #[test]
    fn update_weights_rejects_bad_entries_leaving_map_unchanged() {
        let mut g = triangle();
        let before: Vec<f64> = g.edges().iter().map(|e| e.weight).collect();
        assert!(matches!(
            g.update_weights(&[(EdgeId(0), 5.0), (EdgeId(99), 1.0)]),
            Err(RoadNetError::EdgeOutOfRange { .. })
        ));
        assert!(matches!(
            g.update_weights(&[(EdgeId(0), 5.0), (EdgeId(1), -1.0)]),
            Err(RoadNetError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.update_weights(&[(EdgeId(1), f64::INFINITY)]),
            Err(RoadNetError::InvalidWeight { .. })
        ));
        // Validation happens before any write: edge 0 kept its old weight
        // even though it preceded the bad entry in the batch.
        let after: Vec<f64> = g.edges().iter().map(|e| e.weight).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn update_weights_on_directed_networks_touches_the_single_arc() {
        let mut b = GraphBuilder::directed();
        let n0 = b.add_node(Point::new(0.0, 0.0)).unwrap();
        let n1 = b.add_node(Point::new(1.0, 0.0)).unwrap();
        let e = b.add_edge(n0, n1, 3.0).unwrap();
        let mut g = b.build().unwrap();
        let changed = g.update_weights(&[(e, 8.0)]).unwrap();
        assert_eq!(changed, vec![e]);
        assert_eq!(g.arcs(n0)[0].weight, 8.0);
        assert_eq!(g.degree(n1), 0);
    }
}

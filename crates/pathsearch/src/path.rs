//! The result-path type returned by every search algorithm, and the one
//! walk that reads a path out of a shortest-path tree.

use crate::arena::NIL;
use roadnet::{GraphView, NodeId};

/// A path `⟨(s, n₀), (n₀, n₁), … (n_y, t)⟩` (§III-A) with its total
/// distance. Stored as the node sequence from source to destination
/// inclusive; a trivial path (source == destination) has one node and
/// distance 0.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Path {
    nodes: Vec<NodeId>,
    distance: f64,
}

impl Path {
    /// Construct from a node sequence and precomputed distance.
    ///
    /// # Panics
    /// Panics if `nodes` is empty or the distance is negative/non-finite —
    /// both indicate a bug in the producing algorithm, not user input.
    pub fn new(nodes: Vec<NodeId>, distance: f64) -> Self {
        assert!(!nodes.is_empty(), "a path has at least its source node");
        assert!(distance.is_finite() && distance >= 0.0, "invalid path distance {distance}");
        Path { nodes, distance }
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Total path distance `‖s,t‖` when produced by a shortest-path search.
    pub fn distance(&self) -> f64 {
        self.distance
    }

    /// Node sequence, source first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of edges (hops).
    pub fn num_edges(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Check the path against a graph: every consecutive pair must be
    /// connected by an arc, and the stored distance must equal the sum of
    /// the *cheapest* connecting arcs within `eps`.
    ///
    /// Used by tests and by the candidate-result-path filter as a defence
    /// against a faulty (or tampering) server.
    pub fn verify<G: GraphView>(&self, g: &G, eps: f64) -> bool {
        // Non-adjacent consecutive nodes sum to ∞, which no distance meets.
        (arc_sum(g, &self.nodes) - self.distance).abs() <= eps * (1.0 + self.distance)
    }
}

/// Which end of a tree's path a read puts first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PathOrder {
    /// The tree's root first: a path out of a source-rooted tree, source
    /// to target.
    RootFirst,
    /// The tree's root last: a path out of a tree rooted at a target (an
    /// [`crate::SharingPolicy::Auto`] transposition), read straight in the
    /// order it is delivered, source to target.
    RootLast,
}

/// How many targets' parent chains [`walk`] advances side by side.
pub(crate) const LANES: usize = 8;

/// The one root-to-target path reader, over a tree of a `nodes`-node map
/// wherever its labels live: `held` gives a target's distance if the tree
/// holds it (`None` for a node out of range, unlabelled or past the read's
/// stop), and `parent` the next node up a held chain ([`NIL`] past the
/// root). Hands `emit`, target by target, each target's index in `targets`
/// and the path between the root and it in `order`, or `None`.
///
/// The parent chains of up to [`LANES`] targets advance side by side: the
/// hop loads of different targets do not wait on one another, so their
/// cache misses overlap. That walk counts each chain's hops, so each path
/// gets one node buffer of exact capacity, and a second walk fills it from
/// the lines the first brought into cache: back to front for a root-first
/// read, front to back for a root-last one.
pub(crate) fn walk(
    targets: &[NodeId],
    order: PathOrder,
    nodes: usize,
    held: impl Fn(NodeId) -> Option<f64>,
    parent: impl Fn(u32) -> u32,
    mut emit: impl FnMut(usize, Option<Path>),
) {
    for (c, chunk) in targets.chunks(LANES).enumerate() {
        // Each lane's target if the tree holds it, else `NIL`.
        let (mut from, mut dist) = ([NIL; LANES], [0.0; LANES]);
        for (k, &t) in chunk.iter().enumerate() {
            if let Some(d) = held(t) {
                (from[k], dist[k]) = (t.0, d);
            }
        }
        // Count: one hop of every live chain per round.
        let (mut at, mut hops) = (from, [0usize; LANES]);
        let mut live = from.iter().filter(|&&v| v != NIL).count();
        while live > 0 {
            for k in 0..chunk.len() {
                if at[k] != NIL {
                    hops[k] += 1;
                    debug_assert!(hops[k] <= nodes, "parent cycle");
                    at[k] = parent(at[k]);
                    live -= usize::from(at[k] == NIL);
                }
            }
        }
        // Fill: each chain again, from the target up.
        for k in 0..chunk.len() {
            let path = (from[k] != NIL).then(|| {
                let mut nodes = vec![NodeId(NIL); hops[k]];
                let mut v = from[k];
                let hop = |node: &mut NodeId| {
                    *node = NodeId(v);
                    v = parent(v);
                };
                match order {
                    PathOrder::RootFirst => nodes.iter_mut().rev().for_each(hop),
                    PathOrder::RootLast => nodes.iter_mut().for_each(hop),
                }
                Path::new(nodes, dist[k])
            });
            emit(c * LANES + k, path);
        }
    }
}

/// Left-to-right sum of the cheapest arc of every hop along `nodes` —
/// exactly the sum a forward Dijkstra sweep produces for the same path
/// (parallel arcs resolve to the cheapest, as any shortest-path sweep
/// would relax); `∞` when two consecutive nodes are not adjacent.
pub(crate) fn arc_sum<G: GraphView>(g: &G, nodes: &[NodeId]) -> f64 {
    let mut total = 0.0;
    for hop in nodes.windows(2) {
        let mut best = f64::INFINITY;
        g.for_each_arc(hop[0], &mut |to, w| {
            if to == hop[1] && w < best {
                best = w;
            }
        });
        total += best;
    }
    total
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "path[{} → {}, {} edges, d={:.3}]",
            self.source(),
            self.destination(),
            self.num_edges(),
            self.distance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::{GraphBuilder, Point};

    fn line_graph() -> roadnet::RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn accessors() {
        let p = Path::new(vec![NodeId(0), NodeId(1), NodeId(2)], 3.0);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.destination(), NodeId(2));
        assert_eq!(p.num_edges(), 2);
        assert_eq!(p.distance(), 3.0);
    }

    #[test]
    fn trivial_path() {
        let p = Path::new(vec![NodeId(5)], 0.0);
        assert_eq!(p.source(), p.destination());
        assert_eq!(p.distance(), 0.0);
        assert_eq!(p.num_edges(), 0);
    }

    #[test]
    fn verify_accepts_correct_path() {
        let g = line_graph();
        let p = Path::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)], 6.0);
        assert!(p.verify(&g, 1e-9));
    }

    #[test]
    fn verify_rejects_wrong_distance() {
        let g = line_graph();
        let p = Path::new(vec![NodeId(0), NodeId(1), NodeId(2)], 5.0); // true cost 3
        assert!(!p.verify(&g, 1e-9));
    }

    #[test]
    fn verify_rejects_non_adjacent_hop() {
        let g = line_graph();
        let p = Path::new(vec![NodeId(0), NodeId(2)], 3.0);
        assert!(!p.verify(&g, 1e-9));
    }

    #[test]
    #[should_panic(expected = "at least its source")]
    fn empty_path_panics() {
        let _ = Path::new(vec![], 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid path distance")]
    fn negative_distance_panics() {
        let _ = Path::new(vec![NodeId(0)], -1.0);
    }

    #[test]
    fn display_is_informative() {
        let p = Path::new(vec![NodeId(0), NodeId(3)], 1.5);
        let s = p.to_string();
        assert!(s.contains("0 → 3") && s.contains("1 edges"));
    }
}

//! Bidirectional Dijkstra.
//!
//! Two spanning trees grow from `s` and `t` simultaneously; the search stops
//! when the sum of the two frontier radii reaches the best connecting
//! distance found. On road networks this roughly halves the searched area
//! (two circles of radius `d/2` instead of one of radius `d`), which makes
//! it the strongest *single-pair* baseline to compare the multi-destination
//! sharing of obfuscated query processing against.
//!
//! The implementation assumes a **symmetric** graph view (undirected
//! network), which holds for every generator in `roadnet`; the backward
//! search then uses the same adjacency as the forward one.

use crate::arena::SearchArena;
use crate::frontier::shared_frontier;
use crate::path::Path;
use crate::stats::SearchStats;
use roadnet::{GraphView, NodeId};

/// Bidirectional Dijkstra from `s` to `t` on a symmetric graph: the 1×1
/// case of the shared-frontier sweep behind
/// [`SharingPolicy::SharedFrontier`](crate::multi::SharingPolicy), in a
/// throwaway arena.
///
/// Returns the shortest path (or `None` if disconnected) and combined
/// counters for both directions (`runs == 2`, one per tree).
pub fn bidirectional<G: GraphView>(g: &G, s: NodeId, t: NodeId) -> (Option<Path>, SearchStats) {
    let n = g.num_nodes();
    assert!(s.index() < n && t.index() < n, "endpoint out of range");
    assert!(
        g.is_symmetric(),
        "bidirectional search uses forward arcs for the backward tree and is \
         only exact on symmetric (undirected) graph views"
    );
    let mut r = shared_frontier(&mut SearchArena::new(), g, &[s], &[t], None);
    (r.paths[0][0].take(), r.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_path;
    use roadnet::generators::{
        GeometricConfig, GridConfig, NetworkClass, grid_network, random_geometric,
    };
    use roadnet::{GraphBuilder, Point};

    #[test]
    fn matches_dijkstra_on_grid() {
        let g = grid_network(&GridConfig { width: 14, height: 14, seed: 5, ..Default::default() })
            .unwrap();
        for (s, t) in [(0u32, 195u32), (13, 182), (90, 91), (100, 100)] {
            let (bp, _) = bidirectional(&g, NodeId(s), NodeId(t));
            let dp = shortest_path(&g, NodeId(s), NodeId(t));
            match (bp, dp) {
                (Some(b), Some(d)) => {
                    assert!((b.distance() - d.distance()).abs() < 1e-9, "({s},{t})");
                    assert!(b.verify(&g, 1e-9), "({s},{t}) path invalid: {b}");
                    assert_eq!(b.source(), NodeId(s));
                    assert_eq!(b.destination(), NodeId(t));
                }
                (None, None) => {}
                other => panic!("mismatch for ({s},{t}): {other:?}"),
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_all_network_classes() {
        for class in NetworkClass::ALL {
            let g = class.generate(600, 13).unwrap();
            let n = g.num_nodes() as u32;
            for (s, t) in [(0, n - 1), (n / 3, 2 * n / 3), (1, n / 2)] {
                let (bp, _) = bidirectional(&g, NodeId(s), NodeId(t));
                let dp = shortest_path(&g, NodeId(s), NodeId(t)).unwrap();
                let bp = bp.unwrap();
                assert!(
                    (bp.distance() - dp.distance()).abs() < 1e-9,
                    "{} ({s},{t}): {} vs {}",
                    class.name(),
                    bp.distance(),
                    dp.distance()
                );
            }
        }
    }

    #[test]
    fn settles_fewer_than_unidirectional_on_long_queries() {
        let g =
            random_geometric(&GeometricConfig { num_nodes: 3000, seed: 2, ..Default::default() })
                .unwrap();
        let (s, t) = (NodeId(0), NodeId(2999));
        let (_, b_stats) = bidirectional(&g, s, t);
        let mut searcher = crate::dijkstra::Searcher::new();
        let d_stats = searcher.run(&g, s, &crate::dijkstra::Goal::Single(t));
        assert!(
            b_stats.settled < d_stats.settled,
            "bidi {} vs dijkstra {}",
            b_stats.settled,
            d_stats.settled
        );
    }

    #[test]
    fn disconnected_pair_returns_none() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        let g = b.build().unwrap();
        let (p, _) = bidirectional(&g, NodeId(0), NodeId(3));
        assert!(p.is_none());
    }

    #[test]
    fn adjacent_nodes() {
        let g =
            grid_network(&GridConfig { width: 4, height: 4, knockout: 0.0, ..Default::default() })
                .unwrap();
        let (p, _) = bidirectional(&g, NodeId(0), NodeId(1));
        let p = p.unwrap();
        let d = shortest_path(&g, NodeId(0), NodeId(1)).unwrap();
        assert!((p.distance() - d.distance()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "only exact on symmetric")]
    fn directed_view_panics() {
        let mut b = GraphBuilder::directed();
        b.add_node(Point::new(0.0, 0.0)).unwrap();
        b.add_node(Point::new(1.0, 0.0)).unwrap();
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let g = b.build().unwrap();
        let _ = bidirectional(&g, NodeId(0), NodeId(1));
    }
}

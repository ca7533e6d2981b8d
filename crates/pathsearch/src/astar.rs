//! A* search \[2\] with the Euclidean heuristic.
//!
//! The paper lists A* alongside Dijkstra as the server's path-query
//! evaluator (§I). On road networks whose weights dominate straight-line
//! distance (all our generators guarantee this), the Euclidean heuristic is
//! admissible and consistent, so A* returns exact shortest paths while
//! settling a fraction of Dijkstra's search area — a useful baseline when
//! measuring what multi-destination sharing buys (a goal-directed search
//! cannot aim at many destinations at once, which is exactly the trade-off
//! obfuscated query processing faces).

use crate::arena::SearchArena;
use crate::dijkstra::{Goal, Until, heap_tree};
use crate::path::Path;
use crate::stats::SearchStats;
use roadnet::{GraphView, NodeId};

/// A* from `s` to `t` with an arbitrary heuristic `h(n)` estimating the
/// remaining distance from `n` to `t`: the crate's one single-tree loop
/// (the one behind [`crate::run_tree`]) keyed by `dist + h(node)`, in a
/// throwaway arena.
///
/// Exact iff `h` is consistent (1-Lipschitz along edges, hence
/// admissible), which all heuristics in this crate (Euclidean, ALT)
/// satisfy. Returns the path (or `None` if unreachable) and the run's
/// counters.
pub fn astar_with<G, H>(g: &G, s: NodeId, t: NodeId, mut h: H) -> (Option<Path>, SearchStats)
where
    G: GraphView,
    H: Fn(NodeId) -> f64,
{
    assert!(t.index() < g.num_nodes(), "endpoint out of range");
    let mut arena = SearchArena::new();
    let swept = heap_tree(&mut arena, g, s, &Goal::Single(t), Until::Goal, &mut h);
    (arena.path_to(t), swept.stats)
}

/// A* with the Euclidean heuristic — admissible whenever edge weights are
/// at least the Euclidean distance between their endpoints, as every
/// `roadnet` generator's are.
pub fn astar<G: GraphView>(g: &G, s: NodeId, t: NodeId) -> (Option<Path>, SearchStats) {
    let goal = g.point(t);
    astar_with(g, s, t, |node| g.point(node).distance(goal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{run_in, shortest_path};
    use roadnet::generators::{GeometricConfig, GridConfig, grid_network, random_geometric};

    #[test]
    fn astar_matches_dijkstra_on_grid() {
        let g = grid_network(&GridConfig { width: 15, height: 15, seed: 4, ..Default::default() })
            .unwrap();
        for (s, t) in [(0u32, 224u32), (7, 120), (200, 3), (50, 50)] {
            let (ap, _) = astar(&g, NodeId(s), NodeId(t));
            let dp = shortest_path(&g, NodeId(s), NodeId(t));
            match (ap, dp) {
                (Some(a), Some(d)) => {
                    assert!((a.distance() - d.distance()).abs() < 1e-9, "({s},{t})");
                    assert!(a.verify(&g, 1e-9));
                }
                (None, None) => {}
                other => panic!("reachability mismatch for ({s},{t}): {other:?}"),
            }
        }
    }

    #[test]
    fn astar_settles_fewer_nodes_than_dijkstra() {
        let g =
            random_geometric(&GeometricConfig { num_nodes: 2000, seed: 8, ..Default::default() })
                .unwrap();
        let s = NodeId(0);
        let t = NodeId(1999);
        let (_, a_stats) = astar(&g, s, t);
        let d_stats = run_in(&mut SearchArena::new(), &g, s, &Goal::Single(t));
        assert!(
            a_stats.settled < d_stats.settled,
            "A* {} vs Dijkstra {}",
            a_stats.settled,
            d_stats.settled
        );
    }

    #[test]
    fn weighted_astar_is_faster_but_bounded_suboptimal() {
        let g = grid_network(&GridConfig { width: 25, height: 25, seed: 6, ..Default::default() })
            .unwrap();
        let (s, t) = (NodeId(0), NodeId(624));
        let (exact, exact_stats) = astar(&g, s, t);
        let goal = g.point(t);
        let (greedy, greedy_stats) = astar_with(&g, s, t, |n| g.point(n).distance(goal) * 2.0);
        let exact = exact.unwrap();
        let greedy = greedy.unwrap();
        // Weighted A* with scale w is w-suboptimal at worst.
        assert!(greedy.distance() <= exact.distance() * 2.0 + 1e-9);
        assert!(greedy.distance() >= exact.distance() - 1e-9);
        assert!(greedy_stats.settled <= exact_stats.settled);
    }

    #[test]
    fn zero_scale_degenerates_to_dijkstra() {
        let g = grid_network(&GridConfig { width: 10, height: 10, seed: 2, ..Default::default() })
            .unwrap();
        let (p, stats) = astar_with(&g, NodeId(0), NodeId(99), |_| 0.0);
        let mut arena = SearchArena::new();
        let d_stats = run_in(&mut arena, &g, NodeId(0), &Goal::Single(NodeId(99)));
        assert_eq!(p, arena.path_to(NodeId(99)));
        assert_eq!(stats, d_stats);
    }

    #[test]
    fn trivial_and_unreachable_cases() {
        let g = grid_network(&GridConfig { width: 4, height: 4, ..Default::default() }).unwrap();
        let (p, _) = astar(&g, NodeId(5), NodeId(5));
        assert_eq!(p.unwrap().num_edges(), 0);

        let mut b = roadnet::GraphBuilder::new();
        for i in 0..3 {
            b.add_node(roadnet::Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let island = b.build().unwrap();
        let (p, stats) = astar(&island, NodeId(0), NodeId(2));
        assert!(p.is_none());
        assert_eq!(stats.settled, 2, "the source's component is swept, then the heap drains");
    }
}

//! Bounded-radius (range) search: enumerate every node within a given
//! *network* distance of a source.
//!
//! The Euclidean ring used by the obfuscator's geometric strategy is only a
//! proxy — Lemma 1's cost bound is in network distance, and on networks
//! with detours the two can disagree badly. Range search gives the
//! obfuscator the exact tool: the set of candidate fakes whose network
//! distance from the anchor lies in a chosen band. It is the crate's
//! single-tree Dijkstra loop in a [`SearchArena`], stopped at the radius;
//! the band is read off the sweep's settle log afterwards.

use crate::arena::SearchArena;
use crate::dijkstra::{Goal, Until, heap_tree, zero_pot};
use crate::stats::SearchStats;
use roadnet::{GraphView, NodeId};

/// Nodes whose network distance from `source` lies in `[lo, hi]`, ascending
/// by distance, plus run counters, swept in a caller-provided arena. The
/// third value is whether the sweep drained its heap before meeting a
/// label beyond `hi`: `source`'s whole component lies within `hi`, so no
/// wider band can hold a node that `[0, hi]` does not.
///
/// Cost is proportional to the ball's area — `O(hi²)` on road networks.
///
/// # Panics
/// Panics unless `0 <= lo <= hi < ∞`, or if `source` is out of range.
pub fn ring_search_in<G: GraphView>(
    arena: &mut SearchArena,
    g: &G,
    source: NodeId,
    lo: f64,
    hi: f64,
) -> (Vec<(NodeId, f64)>, SearchStats, bool) {
    assert!(lo >= 0.0 && hi >= lo, "invalid ring bounds");
    assert!(hi.is_finite(), "radius must be finite");
    let swept = heap_tree(arena, g, source, &Goal::AllNodes, Until::Radius(hi), &mut zero_pot);
    let settled = arena.log.iter().map(|&v| (NodeId(v), arena.dist_raw(NodeId(v))));
    (settled.filter(|&(_, d)| d >= lo).collect(), swept.stats, swept.exhausted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{Goal, run_in};
    use roadnet::generators::{GridConfig, grid_network};

    /// The band `[lo, hi]` around `source`, swept in a fresh arena.
    fn band<G: GraphView>(
        g: &G,
        source: NodeId,
        lo: f64,
        hi: f64,
    ) -> (Vec<(NodeId, f64)>, SearchStats) {
        let (ring, stats, _) = ring_search_in(&mut SearchArena::new(), g, source, lo, hi);
        (ring, stats)
    }

    fn net() -> roadnet::RoadNetwork {
        grid_network(&GridConfig { width: 14, height: 14, seed: 6, ..Default::default() }).unwrap()
    }

    #[test]
    fn range_matches_full_dijkstra_labels() {
        let g = net();
        let source = NodeId(90);
        let radius = 4.0;
        let (ball, _) = band(&g, source, 0.0, radius);
        let mut arena = SearchArena::new();
        run_in(&mut arena, &g, source, &Goal::AllNodes);
        // Every returned node has the exact Dijkstra distance…
        for &(n, d) in &ball {
            let truth = arena.distance(n).unwrap();
            assert!((d - truth).abs() < 1e-9, "node {n}: {d} vs {truth}");
            assert!(d <= radius);
        }
        // …and no in-range node is missing.
        let in_ball: std::collections::HashSet<NodeId> = ball.iter().map(|&(n, _)| n).collect();
        for n in g.nodes() {
            if arena.distance(n).unwrap() <= radius {
                assert!(in_ball.contains(&n), "missing node {n}");
            }
        }
    }

    #[test]
    fn output_is_sorted_by_distance_and_starts_at_source() {
        let g = net();
        let (ball, _) = band(&g, NodeId(0), 0.0, 3.0);
        assert_eq!(ball[0], (NodeId(0), 0.0));
        for w in ball.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn zero_radius_returns_only_source() {
        let g = net();
        let (ball, stats) = band(&g, NodeId(5), 0.0, 0.0);
        assert_eq!(ball, vec![(NodeId(5), 0.0)]);
        assert_eq!(stats.settled, 1);
    }

    #[test]
    fn cost_is_output_sensitive() {
        let g = grid_network(&GridConfig { width: 40, height: 40, seed: 1, ..Default::default() })
            .unwrap();
        let (_, small) = band(&g, NodeId(820), 0.0, 2.0);
        let (_, large) = band(&g, NodeId(820), 0.0, 10.0);
        assert!(small.settled * 4 < large.settled, "{} vs {}", small.settled, large.settled);
        assert!((large.settled as usize) < g.num_nodes());
    }

    #[test]
    fn ring_filters_lower_bound() {
        let g = net();
        let (ring, _) = band(&g, NodeId(90), 2.0, 4.0);
        assert!(!ring.is_empty());
        for &(_, d) in &ring {
            assert!((2.0..=4.0).contains(&d));
        }
    }

    #[test]
    #[should_panic(expected = "invalid ring bounds")]
    fn inverted_ring_panics() {
        let g = net();
        let _ = band(&g, NodeId(0), 5.0, 1.0);
    }
}

//! Bidirectional Dijkstra — the crate's **interleaved loop**, the second of
//! its three label-setting loops (the others are the single-tree loop in
//! `dijkstra.rs` and the relabel loop of `SweepTrace::repair` in
//! `trace.rs`).
//!
//! Two spanning trees grow from `s` and `t` simultaneously, each in its own
//! [`SearchArena`]; every step pops from the arena whose frontier top is
//! closer, so the globally closest frontier node settles next, whichever
//! tree owns it (the forward tree on a tie). The search stops when the sum
//! of the two frontier radii reaches the best connecting distance found. On road networks this roughly halves the searched area
//! (two circles of radius `d/2` instead of one of radius `d`), which makes
//! it the strongest *single-pair* baseline to compare the multi-destination
//! sharing of obfuscated query processing against.
//!
//! The implementation assumes a **symmetric** graph view (undirected
//! network), which holds for every generator in `roadnet`; the backward
//! search then uses the same adjacency as the forward one.

use crate::arena::SearchArena;
use crate::path::{Path, PathOrder, arc_sum};
use crate::stats::SearchStats;
use roadnet::{GraphView, NodeId};

/// Bidirectional Dijkstra from `s` to `t` on a symmetric graph, in two
/// throwaway arenas.
///
/// Returns the shortest path (or `None` if disconnected) and combined
/// counters for both directions.
pub fn bidirectional<G: GraphView>(g: &G, s: NodeId, t: NodeId) -> (Option<Path>, SearchStats) {
    let n = g.num_nodes();
    assert!(s.index() < n && t.index() < n, "endpoint out of range");
    assert!(
        g.is_symmetric(),
        "bidirectional search uses forward arcs for the backward tree and is \
         only exact on symmetric (undirected) graph views"
    );
    // Tree 0 grows forward from `s`, tree 1 backward from `t`.
    let mut trees = [SearchArena::new(), SearchArena::new()];
    let mut stats = [SearchStats::default(); 2];
    for (arena, root) in trees.iter_mut().zip([s, t]) {
        arena.begin(n);
        arena.label(root, 0.0, None);
        arena.push(0.0, root);
    }

    // `mu` is the best connecting distance seen through any node both trees
    // have labelled, `meet` the node realizing it; `radius[tree]` is the
    // tree's largest settled distance (a lower bound on its future settles).
    let (mut mu, mut meet) = (f64::INFINITY, s);
    let mut radius = [0.0f64; 2];
    loop {
        // Pop from the tree whose top key is smaller, the forward one on a
        // tie: within a tree entries order by (key, node), so this is the
        // (key, tree, node) order of one heap shared by both trees.
        let tree = match (trees[0].peek_ord(), trees[1].peek_ord()) {
            (None, None) => break,
            (Some(fwd), Some(bwd)) => usize::from(bwd < fwd),
            (fwd, _) => usize::from(fwd.is_none()),
        };
        let [fwd, bwd] = &mut trees;
        let (arena, other) = if tree == 0 { (fwd, &*bwd) } else { (bwd, &*fwd) };
        let e = arena.pop().expect("the top just peeked");
        if !arena.is_fresh(&e) {
            continue; // lazy-deletion residue
        }
        let node = e.node();
        // Fresh, so the slot holds exactly the distance the entry was
        // pushed with.
        let d_node = arena.dist_raw(node);
        arena.settle(node);
        stats[tree].settled += 1;
        radius[tree] = d_node;

        // Settle-time meeting check: the settled node may already carry a
        // label in the opposite tree.
        record_meeting(arena, other, node, &mut mu, &mut meet);

        // Expand. Label-time meeting checks are what make the stopping rule
        // exact: every label creation or improvement is a successful relax
        // (roots excepted — the settle-time check above covers those), so
        // checking only on success keeps `mu` equal to the min over *final*
        // labels while skipping the check on the majority of arcs whose
        // relaxation changes nothing.
        let tree_stats = &mut stats[tree];
        g.for_each_arc(node, &mut |to, w| {
            tree_stats.relaxed += 1;
            let cand = d_node + w;
            if arena.relax_keyed(node, to, cand, || cand) {
                record_meeting(arena, other, to, &mut mu, &mut meet);
            }
        });

        // Once the two radii sum to at least `mu`, no unexplored label can
        // improve it (every future settle in either tree carries a distance
        // at least its current radius).
        if mu <= radius[0] + radius[1] {
            break;
        }
    }

    // Stitch at the meeting node: the forward tree's path s … meet, then
    // the backward tree's read root last, meet … t (its parents lead *to*
    // t; weights are symmetric). The distance is re-summed source→target,
    // not taken from `mu`: `mu` adds two half-distances at whichever meeting
    // node was found first and can differ from the single-tree Dijkstra sum
    // in the last ulp; the forward re-sum matches that sum bit-for-bit.
    let path = mu.is_finite().then(|| {
        let (mut head, mut tail) = (None, None);
        trees[0].read_paths(&[meet], PathOrder::RootFirst, |_, p| head = p);
        trees[1].read_paths(&[meet], PathOrder::RootLast, |_, p| tail = p);
        let (head, tail) = (head.expect("meet is labelled"), tail.expect("meet is labelled"));
        let nodes: Vec<NodeId> = head.nodes().iter().chain(&tail.nodes()[1..]).copied().collect();
        let d = arc_sum(g, &nodes);
        Path::new(nodes, d)
    });
    (path, stats.into_iter().sum())
}

/// Record a meeting through `node`, which just gained (or already carries)
/// a label in `own`: if the opposite tree `other` has labelled `node` too,
/// the sum of the two labels is a connecting-path length.
#[inline]
fn record_meeting(
    own: &SearchArena,
    other: &SearchArena,
    node: NodeId,
    mu: &mut f64,
    meet: &mut NodeId,
) {
    if other.is_labelled(node) {
        let through = own.dist_raw(node) + other.dist_raw(node);
        if through < *mu {
            *mu = through;
            *meet = node;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{Goal, run_in, shortest_path};
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
        let d_stats = run_in(&mut SearchArena::new(), &g, s, &Goal::Single(t));
        assert!(
            b_stats.settled < d_stats.settled,
            "bidi {} vs dijkstra {}",
            b_stats.settled,
            d_stats.settled
        );
    }

    fn two_components() -> roadnet::RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn disconnected_pair_returns_none() {
        let (p, _) = bidirectional(&two_components(), NodeId(0), NodeId(3));
        assert!(p.is_none());
    }

    #[test]
    fn counters_are_pinned() {
        // Settle order and the stopping rule, pinned case by case: one long
        // and one mid-range pair per network class, a trivial pair, and a
        // disconnected one (both trees exhaust). Each row is (settled,
        // relaxed).
        let counters = |g: &roadnet::RoadNetwork, s, t| {
            let (_, st) = bidirectional(g, NodeId(s), NodeId(t));
            [st.settled, st.relaxed]
        };
        let pinned = [
            (NetworkClass::Grid, [[545, 2013], [44, 154]]),
            (NetworkClass::Geometric, [[340, 1287], [100, 374]]),
            (NetworkClass::Radial, [[361, 1198], [52, 183]]),
        ];
        for (class, want) in pinned {
            let g = class.generate(600, 13).unwrap();
            let n = g.num_nodes() as u32;
            for ((s, t), want) in [(0, n - 1), (n / 3, 2 * n / 3)].into_iter().zip(want) {
                assert_eq!(counters(&g, s, t), want, "{} ({s},{t})", class.name());
            }
        }
        let g = grid_network(&GridConfig { width: 14, height: 14, seed: 5, ..Default::default() })
            .unwrap();
        assert_eq!(counters(&g, 100, 100), [1, 3], "s == t");
        assert_eq!(counters(&two_components(), 0, 3), [4, 4], "disconnected");
    }

    #[test]
    fn ties_pop_the_forward_tree_first() {
        // On the line 0 —1— 1 —1— 2 from 0 to 1, the first and the last pop
        // choose between equal keys in the two trees. Forward first settles
        // forward 0, backward 1, forward 1 and relaxes 1 + 2 + 2 arcs;
        // backward first would settle backward 1, forward 0, backward 0 and
        // relax 2 + 1 + 1.
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i as f64, 0.0)).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let (p, st) = bidirectional(&b.build().unwrap(), NodeId(0), NodeId(1));
        assert_eq!(p.unwrap().nodes(), &[NodeId(0), NodeId(1)]);
        assert_eq!([st.settled, st.relaxed], [3, 5]);
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

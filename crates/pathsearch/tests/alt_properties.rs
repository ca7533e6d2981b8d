//! Property tests for ALT: landmark bounds must be admissible *and*
//! consistent on arbitrary undirected graphs, and the search must remain
//! exact.

use pathsearch::{AltPreprocessing, alt, shortest_distance};
use proptest::prelude::*;
use roadnet::{GraphBuilder, GraphView, NodeId, Point, RoadNetwork};

fn arb_connected(max_nodes: usize) -> impl Strategy<Value = RoadNetwork> {
    (2..max_nodes)
        .prop_flat_map(|n| {
            let coords = proptest::collection::vec((0.0f64..50.0, 0.0f64..50.0), n);
            let parents = proptest::collection::vec(proptest::num::u32::ANY, n - 1);
            let extra =
                proptest::collection::vec((0..n as u32, 0..n as u32, 0.5f64..20.0), 0..2 * n);
            (coords, parents, extra)
        })
        .prop_map(|(coords, parents, extra)| {
            let mut b = GraphBuilder::new();
            for (x, y) in &coords {
                b.add_node(Point::new(*x, *y)).expect("finite");
            }
            let n = coords.len();
            for (i, p) in parents.iter().enumerate() {
                let child = i + 1;
                let parent = (*p as usize) % child;
                b.add_edge(NodeId::from_index(parent), NodeId::from_index(child), 1.0)
                    .expect("tree edge");
            }
            for (a, c, w) in extra {
                let (a, c) = (a as usize % n, c as usize % n);
                if a != c {
                    b.add_edge(NodeId::from_index(a), NodeId::from_index(c), w).expect("edge");
                }
            }
            b.build().expect("non-empty")
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn landmark_bounds_are_admissible(
        g in arb_connected(25),
        landmarks in 1usize..6,
        a_raw in 0u32..25,
        b_raw in 0u32..25,
    ) {
        let n = g.num_nodes() as u32;
        let (a, b) = (NodeId(a_raw % n), NodeId(b_raw % n));
        let pre = AltPreprocessing::try_build(&g, landmarks.min(g.num_nodes())).expect("a symmetric map");
        let truth = shortest_distance(&g, a, b).expect("connected by construction");
        let bound = pre.lower_bound(a, b);
        prop_assert!(bound <= truth + 1e-9, "bound {bound} > distance {truth}");
        prop_assert!(bound >= 0.0);
        // Symmetry of the bound on undirected graphs.
        prop_assert!((bound - pre.lower_bound(b, a)).abs() < 1e-9);
    }

    #[test]
    fn landmark_bounds_are_consistent(
        g in arb_connected(20),
        landmarks in 1usize..5,
        t_raw in 0u32..20,
    ) {
        // Consistency: h(u) ≤ w(u,v) + h(v) for every arc — the property
        // the A* stale-entry check relies on.
        let n = g.num_nodes() as u32;
        let t = NodeId(t_raw % n);
        let pre = AltPreprocessing::try_build(&g, landmarks.min(g.num_nodes())).expect("a symmetric map");
        for u in g.nodes() {
            let hu = pre.lower_bound(u, t);
            let mut ok = true;
            g.for_each_arc(u, &mut |v, w| {
                let hv = pre.lower_bound(v, t);
                if hu > w + hv + 1e-9 {
                    ok = false;
                }
            });
            prop_assert!(ok, "inconsistent heuristic at {u}");
        }
    }

    #[test]
    fn alt_is_exact(
        g in arb_connected(25),
        landmarks in 1usize..6,
        a_raw in 0u32..25,
        b_raw in 0u32..25,
    ) {
        let n = g.num_nodes() as u32;
        let (a, b) = (NodeId(a_raw % n), NodeId(b_raw % n));
        let pre = AltPreprocessing::try_build(&g, landmarks.min(g.num_nodes())).expect("a symmetric map");
        let (path, stats) = alt(&g, &pre, a, b);
        let truth = shortest_distance(&g, a, b).expect("connected");
        let path = path.expect("connected");
        prop_assert!((path.distance() - truth).abs() < 1e-9);
        prop_assert!(path.verify(&g, 1e-9));
        prop_assert!(stats.settled as usize <= g.num_nodes());
    }
}

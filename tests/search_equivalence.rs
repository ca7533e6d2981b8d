//! Property-based equivalence of all shortest-path algorithms.
//!
//! Strategy: generate random connected weighted graphs, compare every
//! algorithm in `pathsearch` against the Bellman–Ford oracle in
//! `tests/common` (different algorithm, independently coded — a real
//! oracle, not a mirror of the implementation under test).

mod common;

use common::bellman_ford;
use proptest::prelude::*;
use roadnet::{GraphBuilder, NodeId, Point, RoadNetwork};

/// Random connected graph: a random spanning tree plus extra random edges,
/// with positive weights that dominate Euclidean distance (keeps A*
/// admissible).
fn arb_graph(max_nodes: usize) -> impl Strategy<Value = RoadNetwork> {
    (2..max_nodes)
        .prop_flat_map(|n| {
            let coords = proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), n);
            let parents = proptest::collection::vec(proptest::num::u32::ANY, n - 1);
            let extra = proptest::collection::vec((0..n as u32, 0..n as u32, 1.0f64..3.0), 0..n);
            (coords, parents, extra)
        })
        .prop_map(|(coords, parents, extra)| {
            let mut b = GraphBuilder::new();
            for (x, y) in &coords {
                b.add_node(Point::new(*x, *y)).expect("finite coords");
            }
            let n = coords.len();
            let euclid = |a: usize, c: usize| {
                Point::new(coords[a].0, coords[a].1).distance(Point::new(coords[c].0, coords[c].1))
            };
            // Spanning tree: node i+1 attaches to a random earlier node.
            for (i, p) in parents.iter().enumerate() {
                let child = i + 1;
                let parent = (*p as usize) % child;
                let w = euclid(parent, child).max(f64::EPSILON) * 1.1;
                b.add_edge(NodeId::from_index(parent), NodeId::from_index(child), w)
                    .expect("valid tree edge");
            }
            for (a, c, factor) in extra {
                let (a, c) = (a as usize % n, c as usize % n);
                if a != c {
                    let w = euclid(a, c).max(f64::EPSILON) * factor;
                    // Duplicate edges are fine: parallel roads exist.
                    b.add_edge(NodeId::from_index(a), NodeId::from_index(c), w)
                        .expect("valid extra edge");
                }
            }
            b.build().expect("non-empty graph")
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn dijkstra_matches_bellman_ford(g in arb_graph(40), s_raw in 0u32..40, t_raw in 0u32..40) {
        let n = g.num_nodes() as u32;
        let (s, t) = (NodeId(s_raw % n), NodeId(t_raw % n));
        let oracle = bellman_ford(&g, s);
        let got = pathsearch::shortest_distance(&g, s, t);
        match got {
            Some(d) => prop_assert!((d - oracle[t.index()]).abs() < 1e-9,
                "dijkstra {d} vs oracle {}", oracle[t.index()]),
            None => prop_assert!(oracle[t.index()].is_infinite()),
        }
    }

    #[test]
    fn astar_and_bidirectional_match_dijkstra(
        g in arb_graph(40), s_raw in 0u32..40, t_raw in 0u32..40,
        (lo_frac, hi_frac) in (0.0f64..1.0, 0.0f64..1.2),
    ) {
        let n = g.num_nodes() as u32;
        let (s, t) = (NodeId(s_raw % n), NodeId(t_raw % n));
        let d = pathsearch::shortest_distance(&g, s, t);
        let (a, _) = pathsearch::astar(&g, s, t);
        let (bi, _) = pathsearch::bidirectional(&g, s, t);
        match d {
            Some(d) => {
                let a = a.expect("A* must reach whatever Dijkstra reaches");
                let bi = bi.expect("bidirectional must reach whatever Dijkstra reaches");
                prop_assert!((a.distance() - d).abs() < 1e-9, "astar {} vs {d}", a.distance());
                prop_assert!((bi.distance() - d).abs() < 1e-9, "bidi {} vs {d}", bi.distance());
                prop_assert!(a.verify(&g, 1e-9));
                prop_assert!(bi.verify(&g, 1e-9));
            }
            None => {
                prop_assert!(a.is_none());
                prop_assert!(bi.is_none());
            }
        }

        // Band search rides the same loop; its reference is the oracle's
        // ball `{n : bellman_ford[n] <= hi}`. The two sum weights in
        // different orders, so membership is only checked 1e-9 away from
        // the rim. One arena sweeps the ball, then the band `[lo, hi]`.
        let oracle = bellman_ford(&g, s);
        let reach = oracle.iter().copied().filter(|d| d.is_finite()).fold(0.0, f64::max);
        let hi = reach * hi_frac;
        let lo = hi * lo_frac;
        let mut arena = pathsearch::SearchArena::new();
        let (ball, _, _) = pathsearch::ring_search_in(&mut arena, &g, s, 0.0, hi);
        prop_assert!(ball.windows(2).all(|w| w[0].1 <= w[1].1), "ball not ascending: {ball:?}");
        let mut seen = std::collections::HashSet::new();
        for &(node, d) in &ball {
            prop_assert!(seen.insert(node), "{node} listed twice");
            prop_assert!(d <= hi && (d - oracle[node.index()]).abs() < 1e-9,
                "{node}: {d} vs oracle {} (radius {hi})", oracle[node.index()]);
        }
        for node in g.nodes() {
            prop_assert!(oracle[node.index()] > hi - 1e-9 || seen.contains(&node),
                "{node} at {} missing from ball({hi})", oracle[node.index()]);
        }
        let (ring, _, _) = pathsearch::ring_search_in(&mut arena, &g, s, lo, hi);
        let want: Vec<(NodeId, f64)> = ball.into_iter().filter(|&(_, d)| d >= lo).collect();
        prop_assert_eq!(ring, want);
    }

    #[test]
    fn msmd_policies_agree_with_pairwise_dijkstra(
        g in arb_graph(30),
        src_raw in proptest::collection::vec(0u32..30, 1..4),
        dst_raw in proptest::collection::vec(0u32..30, 1..4),
    ) {
        let n = g.num_nodes() as u32;
        let mut sources: Vec<NodeId> = src_raw.iter().map(|&x| NodeId(x % n)).collect();
        let mut targets: Vec<NodeId> = dst_raw.iter().map(|&x| NodeId(x % n)).collect();
        sources.sort_unstable();
        sources.dedup();
        targets.sort_unstable();
        targets.dedup();

        for policy in pathsearch::SharingPolicy::ALL {
            let r = pathsearch::msmd(&g, &sources, &targets, policy);
            for (i, &s) in sources.iter().enumerate() {
                for (j, &t) in targets.iter().enumerate() {
                    let truth = pathsearch::shortest_distance(&g, s, t);
                    match (r.distance(i, j), truth) {
                        (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9,
                            "{}: ({i},{j}) {a} vs {b}", policy.name()),
                        (None, None) => {}
                        other => prop_assert!(false, "{}: reachability mismatch {other:?}", policy.name()),
                    }
                }
            }
        }
    }

    /// The name is historical: the property began as the check of the
    /// retired shared-frontier engine. It now runs every policy through
    /// `msmd_in` against the fresh-arena pair-by-pair (`None`) answer.
    #[test]
    fn shared_frontier_matches_naive_costs_on_a_reused_arena(
        g in arb_graph(30),
        src_raw in proptest::collection::vec(0u32..30, 1..5),
        dst_raw in proptest::collection::vec(0u32..30, 1..5),
    ) {
        // One arena lives across *all* proptest cases (each a different
        // random graph) and policies, so this property doubles as the
        // regression that arena reuse never leaks labels between search
        // generations.
        use std::cell::RefCell;
        thread_local! {
            static ARENA: RefCell<pathsearch::SearchArena> =
                RefCell::new(pathsearch::SearchArena::new());
        }
        let n = g.num_nodes() as u32;
        let mut sources: Vec<NodeId> = src_raw.iter().map(|&x| NodeId(x % n)).collect();
        let mut targets: Vec<NodeId> = dst_raw.iter().map(|&x| NodeId(x % n)).collect();
        sources.sort_unstable();
        sources.dedup();
        targets.sort_unstable();
        targets.dedup();

        let naive = pathsearch::msmd(&g, &sources, &targets, pathsearch::SharingPolicy::None);
        for policy in pathsearch::SharingPolicy::ALL {
            let r = ARENA.with(|a| {
                pathsearch::msmd_in(&mut a.borrow_mut(), &g, &sources, &targets, policy)
            });
            for (i, &s) in sources.iter().enumerate() {
                for (j, &t) in targets.iter().enumerate() {
                    match (r.distance(i, j), naive.distance(i, j)) {
                        (Some(a), Some(b)) => {
                            prop_assert!((a - b).abs() < 1e-9,
                                "{}: ({i},{j}) {a} vs {b}", policy.name());
                            let p = r.paths[i][j].as_ref().expect("distance implies path");
                            prop_assert_eq!(p.source(), s);
                            prop_assert_eq!(p.destination(), t);
                            prop_assert!(p.verify(&g, 1e-9),
                                "{}: path inconsistent at ({i},{j})", policy.name());
                        }
                        (None, None) => {}
                        other => prop_assert!(false, "{}: reachability mismatch {other:?}", policy.name()),
                    }
                }
            }
        }
    }

    #[test]
    fn shortest_path_metric_satisfies_triangle_inequality(
        g in arb_graph(25),
        a_raw in 0u32..25, b_raw in 0u32..25, c_raw in 0u32..25,
    ) {
        let n = g.num_nodes() as u32;
        let (a, b, c) = (NodeId(a_raw % n), NodeId(b_raw % n), NodeId(c_raw % n));
        // The generated graph is connected (spanning tree), so all finite.
        let ab = pathsearch::shortest_distance(&g, a, b).expect("connected");
        let bc = pathsearch::shortest_distance(&g, b, c).expect("connected");
        let ac = pathsearch::shortest_distance(&g, a, c).expect("connected");
        prop_assert!(ac <= ab + bc + 1e-9, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
        // Undirected graph: symmetry.
        let ba = pathsearch::shortest_distance(&g, b, a).expect("connected");
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn returned_paths_are_internally_consistent(g in arb_graph(30), s_raw in 0u32..30, t_raw in 0u32..30) {
        let n = g.num_nodes() as u32;
        let (s, t) = (NodeId(s_raw % n), NodeId(t_raw % n));
        if let Some(p) = pathsearch::shortest_path(&g, s, t) {
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.destination(), t);
            prop_assert!(p.verify(&g, 1e-9));
            // No repeated nodes on a shortest path with positive weights.
            let mut seen = std::collections::HashSet::new();
            for node in p.nodes() {
                prop_assert!(seen.insert(*node), "cycle in shortest path");
            }
        }
    }
}

/// Grow `root`'s tree toward `goals` under the live ALT potential and
/// check it against plain Dijkstra, reading it from the arena: every node
/// the guided sweep labelled carries at least its plain distance, and the
/// plain path wherever it carries the plain distance — which every settled
/// node does, so there are at least as many such nodes as the sweep
/// settled — every goal reads the plain path (or `None`), and the guided
/// sweep settled no more than the plain one stopping on the same goals.
/// Returns the guided sweep's counters.
fn assert_guided_tree_is_plain(
    g: &RoadNetwork,
    landmarks: usize,
    root: NodeId,
    goals: &[NodeId],
    ctx: &str,
) -> pathsearch::SearchStats {
    use pathsearch::{
        AltPreprocessing, Goal, SearchArena, SharingPolicy, TreeCache, run_in, run_tree,
    };
    let pre = AltPreprocessing::try_build(g, landmarks).unwrap();
    let goal = Goal::Set(goals.to_vec());
    let mut full = SearchArena::new();
    run_in(&mut full, g, root, &Goal::AllNodes);
    let plain = run_in(&mut SearchArena::new(), g, root, &goal);

    let pot = pre.goal_potential(goals);
    // A guided tree bypasses the cache: it is grown in the arena.
    let mut cache = TreeCache::new(1, SharingPolicy::PerSource);
    let mut arena = SearchArena::new();
    let (guided, view) = run_tree(&mut arena, g, root, &goal, Some(&pot), Some(&mut cache));
    let paths: Vec<_> = g.nodes().map(|n| view.path_to(n)).collect();
    assert_eq!(cache.counters(), (0, 0), "{ctx}: a guided tree is never cached");
    assert!(guided.settled <= plain.settled, "{ctx}: {} > {}", guided.settled, plain.settled);
    let mut exact = 0;
    for (n, path) in g.nodes().zip(&paths) {
        let Some(path) = path else { continue };
        let want = full.path_to(n).expect("a labelled node is reachable");
        assert!(path.distance() >= want.distance(), "{ctx}: label of {n} under its distance");
        if path.distance() == want.distance() {
            assert_eq!(path, &want, "{ctx}: exact label of {n}");
            exact += 1;
        }
    }
    assert!(exact >= guided.settled, "{ctx}: {exact} exact labels, {} settled", guided.settled);
    for &t in goals {
        assert_eq!(paths[t.index()], full.path_to(t), "{ctx}: path to goal {t}");
    }
    guided
}

#[test]
fn guided_per_source_trees_equal_plain_dijkstra_on_spread_goal_sets() {
    use roadnet::generators::NetworkClass;
    for class in NetworkClass::ALL {
        let g = class.generate(600, 5).unwrap();
        let n = g.num_nodes() as u32;
        for root in [NodeId(0), NodeId(n / 2)] {
            for goals in [
                vec![NodeId(n - 1), NodeId(n / 3), NodeId(n / 7)],
                // A goal listed twice retires once.
                vec![NodeId(n - 1), NodeId(n / 3), NodeId(n - 1)],
                // The root is its own first goal: retired at the first settle.
                vec![root, NodeId(n - 1), NodeId(n / 4)],
            ] {
                let ctx = format!("{} root={root} goals={goals:?}", class.name());
                let guided = assert_guided_tree_is_plain(&g, 6, root, &goals, &ctx);
                assert!(guided.settled < u64::from(n), "{ctx}: stops at its last goal");
            }
        }
    }

    // A goal in another component is never settled, so it is never retired
    // and bounds nothing: the heap drains, the sweep reports exhaustion,
    // and the reachable goals still read their plain paths.
    let mut b = GraphBuilder::new();
    for i in 0..30 {
        b.add_node(Point::new((i % 5) as f64, (i / 5) as f64)).unwrap();
    }
    for i in 0..25u32 {
        if i % 5 != 4 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1.0 + 0.01 * f64::from(i)).unwrap();
        }
        if i < 20 {
            b.add_edge(NodeId(i), NodeId(i + 5), 1.5 + 0.01 * f64::from(i)).unwrap();
        }
    }
    b.add_edge(NodeId(26), NodeId(27), 1.0).unwrap();
    let islands = b.build().unwrap();
    let goals = [NodeId(24), NodeId(27), NodeId(4)];
    let guided = assert_guided_tree_is_plain(&islands, 3, NodeId(0), &goals, "islands");
    assert_eq!(guided.settled, 25, "an unreachable goal exhausts the component");
}

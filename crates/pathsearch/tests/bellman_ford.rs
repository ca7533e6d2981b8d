//! Shortest distances held to a reference that shares no code with the
//! crate: Bellman–Ford over the edge list, on random maps of up to 200
//! nodes with zero weights, parallel arcs and one-way streets.

use pathsearch::{Goal, SearchArena, run_in, shortest_distance};
use proptest::prelude::*;
use roadnet::{GraphBuilder, NodeId, Point, RoadNetwork};

/// Distances from `source` by Bellman–Ford: relax every arc until no
/// label falls (`∞` where unreached). Non-negative weights end it within
/// `n` passes.
fn bellman_ford(
    n: usize,
    edges: &[(usize, usize, f64)],
    directed: bool,
    source: usize,
) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; n];
    dist[source] = 0.0;
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b, w) in edges {
            let arcs = if directed { &[(a, b)][..] } else { &[(a, b), (b, a)][..] };
            for &(u, v) in arcs {
                if dist[u] + w < dist[v] {
                    dist[v] = dist[u] + w;
                    changed = true;
                }
            }
        }
    }
    dist
}

/// Weights drawn from a small set with repeats, so ties and (with repeated
/// endpoints) parallel arcs are common. Half the maps may hold zero-weight
/// arcs; the other half hold none, so their trees run without the heap.
fn arb_map() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>, bool)> {
    (2..200usize, 0..2u8, 0..2u8).prop_flat_map(|(n, directed, zeros)| {
        let weight = if zeros == 1 {
            prop_oneof![Just(0.0), Just(1.0), Just(2.5), 0.0f64..10.0]
        } else {
            prop_oneof![Just(1.0), Just(2.5), 0.001f64..10.0]
        };
        // `GraphBuilder` refuses self-loops; any other endpoint pair may repeat.
        let edges = proptest::collection::vec((0..n, 0..n, weight), 0..4 * n)
            .prop_map(|edges| edges.into_iter().filter(|&(a, c, _)| a != c).collect());
        (Just(n), edges, Just(directed == 1))
    })
}

fn build(n: usize, edges: &[(usize, usize, f64)], directed: bool) -> RoadNetwork {
    let mut b = if directed { GraphBuilder::directed() } else { GraphBuilder::new() };
    for i in 0..n {
        b.add_node(Point::new(i as f64, 0.0)).unwrap();
    }
    for &(a, c, w) in edges {
        b.add_edge(NodeId::from_index(a), NodeId::from_index(c), w).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn shortest_distance_equals_bellman_ford(
        (n, edges, directed) in arb_map(),
        raw in proptest::collection::vec(proptest::num::u32::ANY, 1..4),
    ) {
        let g = build(n, &edges, directed);
        let mut arena = SearchArena::new();
        for &r in &raw {
            let s = r as usize % n;
            let want = bellman_ford(n, &edges, directed, s);
            let want_of = |t: usize| want[t].is_finite().then_some(want[t].to_bits());

            // The full tree labels every node with its distance.
            run_in(&mut arena, &g, NodeId::from_index(s), &Goal::AllNodes);
            for t in 0..n {
                let got = arena.distance(NodeId::from_index(t)).map(f64::to_bits);
                prop_assert_eq!(got, want_of(t), "AllNodes {} -> {}", s, t);
            }
            // A goal-stopped tree labels its targets exactly, and each path
            // is a walk over the map's arcs of that length.
            let targets: Vec<NodeId> =
                raw.iter().map(|&x| NodeId::from_index((x as usize / 7) % n)).collect();
            run_in(&mut arena, &g, NodeId::from_index(s), &Goal::Set(targets.clone()));
            for &t in &targets {
                let got = arena.distance(t).map(f64::to_bits);
                prop_assert_eq!(got, want_of(t.index()), "Set {} -> {}", s, t);
                if let Some(path) = arena.path_to(t) {
                    prop_assert!(path.verify(&g, 0.0), "path {} -> {}", s, t);
                }
            }
            for t in 0..n {
                let got = shortest_distance(&g, NodeId::from_index(s), NodeId::from_index(t));
                prop_assert_eq!(got.map(f64::to_bits), want_of(t), "shortest_distance {} -> {}", s, t);
            }
        }
    }
}

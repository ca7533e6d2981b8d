//! Delivered costs held to a reference that shares no code with the
//! service: Bellman–Ford over the current edge list. For random maps of at
//! most 200 nodes — half of them with zero-weight arcs, whose trees grow
//! on the heap, half without, whose plain trees run on the bucket ring —
//! every service composition of cache {off, LRU of 4}, heuristic {none,
//! ALT with 2 landmarks} and sharing {per source, auto} delivers each
//! reachable pair at Bellman–Ford's distance, bit for bit, and reports
//! each unreachable one as `Unreachable`, across rounds of weight updates
//! between batches. That holds the recorder, the cache-hit read and the
//! repair against code they share nothing with.

use opaque::{
    CachePolicy, ClientId, ClientOutcome, ClientRequest, PathQuery, ProtectionSettings,
    SearchHeuristic, ServiceBuilder,
};
use pathsearch::SharingPolicy;
use proptest::prelude::*;
use roadnet::{EdgeId, GraphBuilder, NodeId, Point, RoadNetwork};

/// Distances from `source` over the undirected `edges` by Bellman–Ford:
/// relax every arc until no label falls (`∞` where unreached).
fn bellman_ford(n: usize, edges: &[(usize, usize, f64)], source: usize) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; n];
    dist[source] = 0.0;
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b, w) in edges {
            for (u, v) in [(a, b), (b, a)] {
                if dist[u] + w < dist[v] {
                    dist[v] = dist[u] + w;
                    changed = true;
                }
            }
        }
    }
    dist
}

/// Weights drawn from a small set with repeats (ties), zero among them on
/// maps whose flag allows it.
fn weight(zeros: bool) -> BoxedStrategy<f64> {
    if zeros {
        prop_oneof![Just(0.0), Just(1.0), Just(2.5), 0.0f64..10.0].boxed()
    } else {
        prop_oneof![Just(1.0), Just(2.5), 0.001f64..10.0].boxed()
    }
}

/// A map: node coordinates, an edge list (parallel edges allowed, islands
/// likely), rounds of `(edge pick, weight)` updates, and requests
/// `(source pick, target pick, f_S, f_T)`.
type Case =
    (Vec<(f64, f64)>, Vec<(usize, usize, f64)>, Vec<Vec<(usize, f64)>>, Vec<(u32, u32, u32, u32)>);

fn arb_case() -> impl Strategy<Value = Case> {
    (2..200usize, 0..2u8).prop_flat_map(|(n, zeros)| {
        let zeros = zeros == 1;
        let coords = proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), n);
        // `GraphBuilder` refuses self-loops; any other endpoint pair may repeat.
        let edges = proptest::collection::vec((0..n, 0..n, weight(zeros)), 1..3 * n)
            .prop_map(|edges| edges.into_iter().filter(|&(a, c, _)| a != c).collect());
        let rounds = proptest::collection::vec(
            proptest::collection::vec((proptest::num::usize::ANY, weight(zeros)), 1..6),
            1..3,
        );
        let requests = proptest::collection::vec(
            (proptest::num::u32::ANY, proptest::num::u32::ANY, 1u32..4, 1u32..4),
            1..6,
        );
        (coords, edges, rounds, requests)
    })
}

fn build(coords: &[(f64, f64)], edges: &[(usize, usize, f64)]) -> RoadNetwork {
    let mut b = GraphBuilder::new();
    for &(x, y) in coords {
        b.add_node(Point::new(x, y)).unwrap();
    }
    for &(a, c, w) in edges {
        b.add_edge(NodeId::from_index(a), NodeId::from_index(c), w).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn delivered_costs_equal_bellman_ford(
        (coords, mut edges, rounds, raw) in arb_case(),
        seed in proptest::num::u64::ANY,
    ) {
        let n = coords.len();
        let map = build(&coords, &edges);
        let requests: Vec<ClientRequest> = raw
            .iter()
            .enumerate()
            .map(|(i, &(s, t, f_s, f_t))| {
                let query = PathQuery::new(NodeId(s % n as u32), NodeId(t % n as u32));
                let protection = ProtectionSettings::new(f_s, f_t).unwrap();
                ClientRequest::new(ClientId(i as u32), query, protection)
            })
            .collect();
        let caches = [CachePolicy::Off, CachePolicy::Lru { trees: 4 }];
        let heuristics = [SearchHeuristic::None, SearchHeuristic::Alt { landmarks: 2 }];
        let sharings = [SharingPolicy::PerSource, SharingPolicy::Auto];
        let mut services: Vec<_> = caches
            .into_iter()
            .flat_map(|c| heuristics.into_iter().map(move |h| (c, h)))
            .flat_map(|(c, h)| sharings.into_iter().map(move |s| (c, h, s)))
            .map(|(cache, heuristic, sharing)| {
                let service = ServiceBuilder::new()
                    .map(map.clone())
                    .seed(seed)
                    .cache_policy(cache)
                    .search_heuristic(heuristic)
                    .sharing_policy(sharing)
                    .verify_results(true)
                    .build()
                    .expect("valid configuration");
                (format!("{cache:?} {heuristic:?} {sharing:?}"), sharing, service)
            })
            .collect();

        // A batch on the map as built, then one after each update round.
        for (round, updates) in rounds.iter().map(Some).chain([None]).enumerate() {
            for (tag, sharing, service) in &mut services {
                let response = service.process_batch(&requests).expect("a valid batch");
                for (request, (client, outcome)) in requests.iter().zip(&response.outcomes) {
                    let (s, t) = (request.query.source.index(), request.query.destination.index());
                    let ctx = format!("{tag} round {round}: {s} -> {t}");
                    let from_s = bellman_ford(n, &edges, s)[t];
                    match outcome {
                        ClientOutcome::Rejected { .. } => continue,
                        ClientOutcome::Unreachable => {
                            prop_assert_eq!(from_s, f64::INFINITY, "{}: reported unreachable", ctx);
                        }
                        ClientOutcome::Delivered => {
                            let result = response.results.iter().find(|r| r.client == *client);
                            let got = result.expect("a delivered path").path.distance().to_bits();
                            // A transposed unit sums its path from the target.
                            let from_t = bellman_ford(n, &edges, t)[s];
                            let transposed = *sharing == SharingPolicy::Auto
                                && got == from_t.to_bits();
                            prop_assert!(
                                got == from_s.to_bits() || transposed,
                                "{}: delivered {} against {}",
                                ctx,
                                f64::from_bits(got),
                                from_s
                            );
                        }
                    }
                }
            }
            if let Some(updates) = updates {
                let updates: Vec<(EdgeId, f64)> = updates
                    .iter()
                    .filter_map(|&(pick, w)| Some((EdgeId::from_index(pick.checked_rem(edges.len())?), w)))
                    .collect();
                for &(e, w) in &updates {
                    edges[e.index()].2 = w;
                }
                for (tag, _, service) in &mut services {
                    service.update_weights(&updates).unwrap_or_else(|e| panic!("{tag}: {e}"));
                }
            }
        }
    }
}

//! Delivered costs held to a reference that shares no code with the
//! service: Bellman–Ford over the map's current weights. For random maps
//! of at most 200 nodes — half of them with zero-weight arcs, whose trees
//! grow on the heap, half without, whose plain trees run on the bucket
//! ring — every service composition of cache {off, LRU of 4}, heuristic
//! {none, ALT with 2 landmarks} and sharing {per source, auto} delivers
//! each reachable pair at Bellman–Ford's distance, bit for bit, and
//! reports each unreachable one as `Unreachable`, across rounds of weight
//! updates between batches. That holds the recorder, the cache-hit read
//! and the repair against code they share nothing with. The lattice
//! (`tests/lattice.rs`) anchors every drawn composition to the same
//! reference.

mod common;

use common::{arb_batch, arb_tie_map, assert_bellman_ford, build_service, requests_on, updates_on};
use opaque::{CachePolicy, ClientOutcome, SearchHeuristic, ServiceConfig};
use pathsearch::SharingPolicy;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn delivered_costs_equal_bellman_ford(
        (mut map, rounds) in arb_tie_map(1..3, 1..6),
        raw_batch in arb_batch(6),
        seed in proptest::num::u64::ANY,
    ) {
        let requests = requests_on(&map, &raw_batch);
        let caches = [CachePolicy::Off, CachePolicy::Lru { trees: 4 }];
        let heuristics = [SearchHeuristic::None, SearchHeuristic::Alt { landmarks: 2 }];
        let sharings = [SharingPolicy::PerSource, SharingPolicy::Auto];
        let mut services: Vec<_> = caches
            .into_iter()
            .flat_map(|cache| heuristics.into_iter().map(move |heuristic| (cache, heuristic)))
            .flat_map(|(cache, heuristic)| {
                sharings.into_iter().map(move |sharing| ServiceConfig {
                    seed,
                    cache,
                    heuristic,
                    sharing,
                    ..ServiceConfig::default()
                })
            })
            .map(|config| (config, build_service(&map, config)))
            .collect();

        // A batch on the map as built, then one after each update round.
        for (round, raw) in rounds.iter().map(Some).chain([None]).enumerate() {
            for (config, service) in &mut services {
                let ctx = format!("{config:?} round={round} n={}", map.num_nodes());
                let response = service.process_batch(&requests).expect("a valid batch");
                for (request, (client, outcome)) in requests.iter().zip(&response.outcomes) {
                    let delivered = match outcome {
                        ClientOutcome::Rejected { .. } => continue,
                        ClientOutcome::Unreachable => None,
                        ClientOutcome::Delivered => {
                            let result = response.results.iter().find(|r| r.client == *client);
                            Some(result.expect("a delivered path").path.distance())
                        }
                    };
                    assert_bellman_ford(&map, request, delivered, config.sharing, &ctx);
                }
            }
            if let Some(raw) = raw {
                let updates = updates_on(&map, raw);
                map.update_weights(&updates).expect("valid updates");
                for (config, service) in &mut services {
                    service.update_weights(&updates).unwrap_or_else(|e| panic!("{config:?}: {e}"));
                }
            }
        }
    }
}

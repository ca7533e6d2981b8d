//! One oracle over every service axis. Each tier of the service promises
//! to change no delivered byte: the tree cache with repair, ALT,
//! region-owned placement, the worker pool and live weights. This file
//! holds every composition of them to the plain reference — the same map,
//! seed, obfuscation mode and sharing policy on one shard, sequential,
//! round-robin, cache off, no heuristic — and holds both to Bellman–Ford.
//!
//! Each case draws a map, a batch, a seed, a weight-churn schedule, a
//! gateway window size and a whole [`ServiceConfig`]: mode × sharing ×
//! shards × execution × partition × cache × heuristic, clamped to what the
//! map allows. Every round, the drawn service and the reference run the
//! batch through `process_batch`, then again through the gateway's
//! `submit`/`tick`/`flush`, and then take the round's weight updates.
//! They must agree on:
//!
//! * every byte of the response, the report and the event stream, and the
//!   fleet's logical counters (the cache's hit/miss pair aside);
//! * under ALT, everything but the settled/relaxed work, with the fleet
//!   settling no more than the reference — and, on maps with equal-cost
//!   paths, outcomes and cost bits only, since a guided sweep may deliver
//!   another of the tied paths;
//! * the changed-edge set of every `update_weights`.
//!
//! Every delivered cost must equal Bellman–Ford's on the current map, bit
//! for bit, and every `Unreachable` pair must be one Bellman–Ford cannot
//! reach: that anchors the reference, and so every composition, to code
//! they share nothing with. Maps come from two generators: connected maps
//! with Euclidean-dominated weights, and tie maps (islands, parallel
//! edges, weights from a small set with repeats, zero among them on half
//! the maps, whose trees then grow on the heap instead of the bucket ring).
//!
//! A divergence here is a real bug in one tier: a stale or wrongly
//! repaired tree adopted, an inadmissible landmark bound, a unit dropped
//! or answered twice at a region boundary, a pooled result landing in the
//! wrong slot. The failure message names the config, seed, round and map
//! size; the vendored runner's stream is deterministic, so a failing case
//! replays as it failed.

mod common;

use common::{
    Mask, Service, arb_batch, arb_churn, arb_map, arb_tie_map, assert_bellman_ford,
    assert_same_output, build_service, requests_on, updates_on,
};
use opaque::{
    BatchPolicy, CachePolicy, ClientId, ClientOutcome, ClientRequest, ClusteringConfig,
    DirectionsBackend, ExecutionPolicy, ObfuscationMode, OpaqueError, PartitionPolicy, PathQuery,
    ProtectionSettings, SearchHeuristic, ServiceConfig, ServiceEvent, ServiceResponse,
};
use pathsearch::SharingPolicy;
use proptest::prelude::*;
use roadnet::generators::{GridConfig, grid_network};
use roadnet::{EdgeId, NodeId, RoadNetwork};

/// A map, whether it is a tie map, and its churn schedule.
fn arb_case() -> impl Strategy<Value = (RoadNetwork, bool, Vec<Vec<(usize, f64)>>)> {
    prop_oneof![
        (arb_map(40), arb_churn((0.5f64..5.0).boxed(), 0..4, 0..6))
            .prop_map(|(map, churn)| (map, false, churn)),
        arb_tie_map(0..4, 0..6).prop_map(|(map, churn)| (map, true, churn)),
    ]
}

/// Every service axis at once; [`fit`] clamps the draw to the map.
fn arb_config() -> impl Strategy<Value = ServiceConfig> {
    let mode = prop_oneof![
        Just(ObfuscationMode::Independent),
        Just(ObfuscationMode::SharedGlobal),
        Just(ObfuscationMode::SharedClustered(ClusteringConfig::default())),
    ];
    let sharing = prop_oneof![
        Just(SharingPolicy::None),
        Just(SharingPolicy::PerSource),
        Just(SharingPolicy::Auto)
    ];
    let execution = prop_oneof![
        Just(ExecutionPolicy::Sequential),
        (1usize..6).prop_map(|threads| ExecutionPolicy::WorkerPool { threads }),
    ];
    let partition = prop_oneof![
        Just(PartitionPolicy::RoundRobin),
        (0u32..4).prop_map(|halo| PartitionPolicy::RegionOwned { halo }),
    ];
    let cache = prop_oneof![
        Just(CachePolicy::Off),
        (1usize..12).prop_map(|trees| CachePolicy::Lru { trees })
    ];
    let heuristic = prop_oneof![
        Just(SearchHeuristic::None),
        (1usize..4).prop_map(|landmarks| SearchHeuristic::Alt { landmarks }),
    ];
    ((mode, sharing), (1usize..6, execution), partition, cache, heuristic).prop_map(
        |((mode, sharing), (shards, execution), partition, cache, heuristic)| ServiceConfig {
            mode,
            sharing,
            shards,
            execution,
            partition,
            cache,
            heuristic,
            ..ServiceConfig::default()
        },
    )
}

/// The draw on `map`: at most one shard per node, one thread per shard and
/// one landmark per node.
fn fit(config: ServiceConfig, map: &RoadNetwork, seed: u64, max_batch: usize) -> ServiceConfig {
    let n = map.num_nodes();
    let shards = config.shards.min(n);
    let execution = match config.execution {
        ExecutionPolicy::WorkerPool { threads } => {
            ExecutionPolicy::WorkerPool { threads: threads.min(shards) }
        }
        sequential => sequential,
    };
    let heuristic = match config.heuristic {
        SearchHeuristic::Alt { landmarks } => SearchHeuristic::Alt { landmarks: landmarks.min(n) },
        none => none,
    };
    let batch = BatchPolicy { max_batch, max_delay: 1e6 };
    ServiceConfig { seed, shards, execution, heuristic, batch, ..config }
}

/// The reference `config` is held to: its map, seed, mode, sharing and
/// gateway windows, on the plain pipeline.
fn plain(config: ServiceConfig) -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        execution: ExecutionPolicy::Sequential,
        partition: PartitionPolicy::RoundRobin,
        cache: CachePolicy::Off,
        heuristic: SearchHeuristic::None,
        ..config
    }
}

/// The requests through the gateway, starting at `clock`: submit each and
/// tick, then flush until the queue is empty.
fn drive_gateway(
    svc: &mut Service,
    requests: &[ClientRequest],
    clock: f64,
) -> Result<Vec<ServiceEvent>, OpaqueError> {
    let mut events = Vec::new();
    let mut now = clock;
    for request in requests {
        assert!(svc.submit(*request, now).ticket().is_some(), "the gateway admits the request");
        events.extend(svc.tick(now)?);
        now += 0.25;
    }
    while svc.pending() > 0 {
        events.extend(svc.flush(now)?);
        now += 0.25;
    }
    Ok(events)
}

/// Every answer of a batch and of a gateway pass is Bellman–Ford's.
fn assert_answers_are_bellman_ford(
    map: &RoadNetwork,
    requests: &[ClientRequest],
    response: &ServiceResponse,
    events: &[ServiceEvent],
    sharing: SharingPolicy,
    ctx: &str,
) {
    for (request, (client, outcome)) in requests.iter().zip(&response.outcomes) {
        let delivered = match outcome {
            ClientOutcome::Rejected { .. } => continue,
            ClientOutcome::Unreachable => None,
            ClientOutcome::Delivered => {
                let result = response.results.iter().find(|r| r.client == *client);
                Some(result.expect("a delivered path").path.distance())
            }
        };
        assert_bellman_ford(map, request, delivered, sharing, ctx);
    }
    for event in events {
        // `requests_on` numbers the clients by position.
        let (client, delivered) = match event {
            ServiceEvent::ResponseReady { client, result, .. } => {
                (client, Some(result.path.distance()))
            }
            ServiceEvent::Unreachable { client, .. } => (client, None),
            _ => continue,
        };
        let ctx = format!("{ctx} gateway");
        assert_bellman_ford(map, &requests[client.0 as usize], delivered, sharing, &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn every_config_equals_the_plain_reference_and_bellman_ford(
        (mut map, ties, churn) in arb_case(),
        raw_batch in arb_batch(10),
        seed in proptest::num::u64::ANY,
        drawn in arb_config(),
        max_batch in 1usize..5,
    ) {
        let config = fit(drawn, &map, seed, max_batch);
        let guided = config.heuristic != SearchHeuristic::None;
        let mask = match (guided, ties) {
            (false, _) => Mask::Exact,
            (true, false) => Mask::Work,
            (true, true) => Mask::Costs,
        };
        let requests = requests_on(&map, &raw_batch);
        let mut reference = build_service(&map, plain(config));
        let mut drawn = build_service(&map, config);

        // A batch and a gateway pass on the map as built, then on the map
        // after each churn round.
        for (round, raw) in churn.iter().map(Some).chain([None]).enumerate() {
            let ctx = format!("{config:?} seed={seed} round={round} n={}", map.num_nodes());
            let (a, b) = (reference.process_batch(&requests), drawn.process_batch(&requests));
            assert_same_output(&a, &b, mask, &ctx);

            let clock = round as f64 * 1000.0;
            let events = drive_gateway(&mut reference, &requests, clock);
            let drawn_events = drive_gateway(&mut drawn, &requests, clock);
            assert_same_output(&events, &drawn_events, mask, &format!("{ctx} gateway"));
            if let (Ok(response), Ok(events)) = (&a, &events) {
                let sharing = config.sharing;
                assert_answers_are_bellman_ford(&map, &requests, response, events, sharing, &ctx);
            }

            let (p, d) = (reference.backend().stats(), drawn.backend().stats());
            assert_same_output(&p, &d, mask, &format!("{ctx} fleet counters"));
            prop_assert!(
                d.search.settled <= p.search.settled,
                "{}: the fleet settled {} against the reference's {}",
                ctx,
                d.search.settled,
                p.search.settled
            );

            if let Some(raw) = raw {
                let updates = updates_on(&map, raw);
                map.update_weights(&updates).expect("valid updates");
                prop_assert_eq!(
                    reference.update_weights(&updates).expect("valid updates"),
                    drawn.update_weights(&updates).expect("valid updates"),
                    "{}: changed-edge sets diverged",
                    ctx
                );
            }
        }
    }
}

/// Every cell of execution × partition × cache × heuristic × sharing on
/// one fixed grid, on every run: two batches, a round of rising weights,
/// then a batch, each held to the plain reference. Not vacuous: ALT
/// settles strictly fewer nodes (rising weights keep its tables), and a
/// cached unguided cell whose placement does not hang on the pool's
/// scheduling hits its cache. A region-owned pool's fleet counters, cache
/// hits included, are the two-shard sequential fleet's.
#[test]
fn every_composition_cell_is_answer_identical() {
    let map =
        grid_network(&GridConfig { width: 10, height: 10, seed: 4, ..Default::default() }).unwrap();
    let requests: Vec<ClientRequest> = (0..6)
        .map(|i| {
            ClientRequest::new(
                ClientId(i),
                PathQuery::new(NodeId(i * 9), NodeId(99 - i * 11)),
                ProtectionSettings::new(3, 3).unwrap(),
            )
        })
        .collect();
    let rising: Vec<(EdgeId, f64)> = (0..map.num_edges())
        .step_by(5)
        .map(EdgeId::from_index)
        .map(|e| (e, map.edge(e).weight * 2.5))
        .collect();
    // Runs `config` through the schedule: its responses, its fleet.
    let run = |config: ServiceConfig| -> (Vec<ServiceResponse>, Service) {
        let mut svc = build_service(&map, ServiceConfig { seed: 7, ..config });
        let mut responses = Vec::new();
        for round in 0..3 {
            if round == 2 {
                svc.update_weights(&rising).unwrap();
            }
            responses.push(svc.process_batch(&requests).unwrap());
        }
        (responses, svc)
    };

    let executions = [
        (1, ExecutionPolicy::Sequential),
        (2, ExecutionPolicy::Sequential),
        (2, ExecutionPolicy::WorkerPool { threads: 2 }),
    ];
    for sharing in [SharingPolicy::None, SharingPolicy::PerSource, SharingPolicy::Auto] {
        let (expected, reference) = run(ServiceConfig { sharing, ..ServiceConfig::default() });
        let plain = reference.backend().stats();
        for partition in [PartitionPolicy::RoundRobin, PartitionPolicy::RegionOwned { halo: 1 }] {
            for cache in [CachePolicy::Off, CachePolicy::Lru { trees: 8 }] {
                for heuristic in [SearchHeuristic::None, SearchHeuristic::Alt { landmarks: 8 }] {
                    let mut two_shards = None;
                    for (shards, execution) in executions {
                        let config = ServiceConfig {
                            sharing,
                            shards,
                            execution,
                            partition,
                            cache,
                            heuristic,
                            ..ServiceConfig::default()
                        };
                        let ctx = format!("{config:?}");
                        let (got, svc) = run(config);
                        let guided = heuristic != SearchHeuristic::None;
                        let mask = if guided { Mask::Work } else { Mask::Exact };
                        for (round, (a, b)) in expected.iter().zip(&got).enumerate() {
                            assert_same_output(a, b, mask, &format!("{ctx} round {round}"));
                        }
                        let stats = svc.backend().stats();
                        assert_same_output(&plain, &stats, mask, &ctx);
                        if guided {
                            assert!(
                                stats.search.settled < plain.search.settled,
                                "{ctx}: ALT should prune spread-out grid queries \
                                 (settled {} vs {})",
                                stats.search.settled,
                                plain.search.settled
                            );
                        }
                        // Round-robin units go to whichever worker claims
                        // them first; region-owned ones to their owner, so
                        // even the physical cache counters are the
                        // sequential fleet's.
                        let pooled = execution != ExecutionPolicy::Sequential;
                        if pooled && partition != PartitionPolicy::RoundRobin {
                            assert_eq!(
                                two_shards,
                                Some(stats),
                                "{ctx}: placement hung on the pool"
                            );
                        }
                        if shards == 2 && !pooled {
                            two_shards = Some(stats);
                        }
                        let placed = !pooled || partition != PartitionPolicy::RoundRobin;
                        if cache != CachePolicy::Off && !guided && placed {
                            assert!(stats.tree_cache_hits > 0, "{ctx}: the repeat hits the cache");
                        }
                    }
                }
            }
        }
    }
}

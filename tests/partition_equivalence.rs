//! The partition layer's headline guarantee, as a property: region-owned
//! placement is **invisible to every observable byte**. For random maps,
//! batches, seeds, halos and any worker-pool width,
//! `PartitionPolicy::RegionOwned` produces the same delivered paths,
//! outcomes, serialized `BatchReport`, gateway `ServiceEvent` stream and
//! fleet-merged counters as `PartitionPolicy::RoundRobin` and as
//! sequential execution, across `CachePolicy::{Off,Lru}`. Routing may only
//! move units between shards; a divergence is a routing leak — a unit
//! dropped or answered twice at a region boundary, stats landing outside
//! the merge. The lattice (`tests/lattice.rs`) holds every region-owned
//! composition to the plain single-shard reference as well.
//!
//! A third property drives the backend directly: every unit of a batch is
//! answered exactly once, as the whole-map server answers it. The
//! deterministic regressions below pin the boundary cases — pairs
//! straddling partition cuts (resolved via the halo, and via the fallback
//! when the span exceeds it), directed maps, and disconnected components —
//! always against a whole-map single-shard oracle, asserting zero *new*
//! `Unreachable` outcomes.

mod common;

use common::{
    Mask, arb_batch, arb_map, assert_rounds_agree, assert_same_output, build_service, requests_on,
};
use opaque::{
    BatchPolicy, CachePolicy, ClientId, ClientOutcome, ClientRequest, DirectionsBackend,
    DirectionsServer, ExecutionPolicy, ObfuscatedPathQuery, Partition, PartitionPolicy, PathQuery,
    ProtectionSettings, RouteKind, ServiceConfig, ShardedBackend,
};
use pathsearch::SharingPolicy;
use proptest::prelude::*;
use roadnet::{GraphBuilder, NodeId, Point, RoadNetwork};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// RegionOwned ≡ RoundRobin ≡ Sequential, byte for byte, over
    /// multi-batch streams (the obfuscator RNG advances, shard counters
    /// and caches accumulate — equivalence must hold at every step).
    #[test]
    fn region_owned_is_byte_identical_to_round_robin_and_sequential(
        map in arb_map(40),
        raw_batch in arb_batch(10),
        seed in proptest::num::u64::ANY,
        halo in 0u32..4,
        shards_pick in 2usize..6,
        threads_pick in 1usize..9,
        cache_pick in 0u8..2,
    ) {
        let shards = shards_pick.min(map.num_nodes());
        let threads = threads_pick.clamp(1, shards);
        let cache = match cache_pick {
            0 => CachePolicy::Off,
            _ => CachePolicy::Lru { trees: 4 },
        };
        let requests = requests_on(&map, &raw_batch);
        // The reference: round-robin, sequential, cache off.
        let reference = ServiceConfig { seed, shards, ..ServiceConfig::default() };
        let region_seq =
            ServiceConfig { partition: PartitionPolicy::RegionOwned { halo }, cache, ..reference };
        let region_pool =
            ServiceConfig { execution: ExecutionPolicy::WorkerPool { threads }, ..region_seq };
        let ctx = format!("n={} {region_pool:?}", map.num_nodes());
        let (_, seq) = assert_rounds_agree(
            &map, &requests, (reference, region_seq), 2, Mask::Exact, &format!("{ctx} [seq]"),
        );
        let (_, pool) = assert_rounds_agree(
            &map, &requests, (reference, region_pool), 2, Mask::Exact, &format!("{ctx} [pool]"),
        );
        // Same cache policy and same routing: even the physical cache
        // counters agree between sequential and pooled execution.
        prop_assert_eq!(
            seq.backend().stats(),
            pool.backend().stats(),
            "{}: region fleets diverged across pool widths",
            ctx
        );
    }

    /// The gateway view of the same guarantee: the full `ServiceEvent`
    /// stream — per-request deliveries with their hop-4 `ResultMsg`
    /// payloads, unreachable/rejection events, trailing `BatchFlushed`
    /// reports — serializes byte-identically across placement policies.
    #[test]
    fn gateway_event_streams_are_byte_identical_across_placement(
        map in arb_map(30),
        raw_batch in arb_batch(8),
        seed in proptest::num::u64::ANY,
        halo in 0u32..3,
        max_batch in 1usize..5,
    ) {
        let shards = 3usize.min(map.num_nodes());
        let drive = |partition: PartitionPolicy, execution: ExecutionPolicy| {
            let batch = BatchPolicy { max_batch, max_delay: 1e6 };
            let config =
                ServiceConfig { seed, shards, partition, execution, batch, ..ServiceConfig::default() };
            let mut svc = build_service(&map, config);
            let mut events = Vec::new();
            for (i, request) in requests_on(&map, &raw_batch).into_iter().enumerate() {
                let now = i as f64 * 0.25;
                assert!(svc.submit(request, now).ticket().is_some(), "gateway admits the request");
                events.extend(svc.tick(now).expect("pipeline succeeds"));
            }
            let mut clock = raw_batch.len() as f64 * 0.25;
            while svc.pending() > 0 {
                events.extend(svc.flush(clock).expect("pipeline succeeds"));
                clock += 0.25;
            }
            events
        };

        let ctx = format!("n={} seed={seed} halo={halo} max_batch={max_batch}", map.num_nodes());
        let region = PartitionPolicy::RegionOwned { halo };
        let reference = drive(PartitionPolicy::RoundRobin, ExecutionPolicy::Sequential);
        let region_seq = drive(region, ExecutionPolicy::Sequential);
        let region_pool = drive(region, ExecutionPolicy::WorkerPool { threads: shards });
        assert_same_output(&reference, &region_seq, Mask::Exact, &format!("{ctx} (sequential)"));
        assert_same_output(&reference, &region_pool, Mask::Exact, &format!("{ctx} (pool)"));
    }

    /// Routing conservation at the backend boundary: every unit of a
    /// batch is answered exactly once (`process_many` returns one slot
    /// per unit in unit order, per-shard query counters sum to the batch
    /// size) and each answer equals the whole-map single-server oracle.
    #[test]
    fn every_unit_is_answered_exactly_once_at_the_routing_boundary(
        map in arb_map(30),
        raw_units in proptest::collection::vec(
            (proptest::num::u32::ANY, proptest::num::u32::ANY, 1u32..4, 1u32..4), 1..12),
        halo in 0u32..3,
        threads in 1usize..6,
    ) {
        let n = map.num_nodes() as u32;
        let units: Vec<ObfuscatedPathQuery> = raw_units
            .iter()
            .map(|&(s, t, f_s, f_t)| {
                let sources: Vec<NodeId> = (0..f_s).map(|k| NodeId((s.wrapping_add(k * 7)) % n)).collect();
                let targets: Vec<NodeId> = (0..f_t).map(|k| NodeId((t.wrapping_add(k * 11)) % n)).collect();
                ObfuscatedPathQuery::new(sources, targets)
            })
            .collect();

        let shards = 4usize.min(map.num_nodes());
        let shared = Arc::new(map.clone());
        let fleet: Vec<DirectionsServer<Arc<RoadNetwork>>> = (0..shards)
            .map(|_| DirectionsServer::new(Arc::clone(&shared), SharingPolicy::PerSource))
            .collect();
        let partition = Partition::build(&shared, shards, halo).expect("valid partition");
        let mut routed = ShardedBackend::with_partition(fleet, partition).expect("fleet matches");

        let mut oracle = DirectionsServer::new(Arc::clone(&shared), SharingPolicy::PerSource);
        let expected: Vec<_> = units.iter().map(|q| oracle.process(q)).collect();

        let threads = threads.clamp(1, shards);
        let answers = routed.process_many(&units, ExecutionPolicy::WorkerPool { threads });
        prop_assert_eq!(answers.len(), units.len(), "one answer per unit");
        for (i, (a, e)) in answers.iter().zip(&expected).enumerate() {
            prop_assert_eq!(&a.paths, &e.paths, "unit {} diverged from the whole-map oracle", i);
            prop_assert_eq!(&a.stats, &e.stats, "unit {} counters diverged", i);
        }
        // Conservation: the fleet served exactly the batch, no unit lost
        // or duplicated across the per-shard queues.
        let served: u64 = routed
            .shards()
            .iter()
            .map(|s| DirectionsBackend::stats(s).obfuscated_queries)
            .sum();
        prop_assert_eq!(served, units.len() as u64);
        prop_assert_eq!(routed.stats().obfuscated_queries, units.len() as u64);
    }
}

// ---------------------------------------------------------------------------
// Boundary-straddle regressions: deterministic cut-crossing cases against
// a whole-map single-shard oracle.

/// A 10-node path — every partition of it has an obvious cut.
fn path_map(len: u32) -> RoadNetwork {
    let mut b = GraphBuilder::new();
    for i in 0..len {
        b.add_node(Point::new(i as f64, 0.0)).unwrap();
    }
    for i in 0..len - 1 {
        b.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
    }
    b.build().unwrap()
}

/// Batch the same requests through a region-owned fleet and a whole-map
/// single-shard oracle; everything observable must match (in particular:
/// zero unreachable outcomes the oracle does not also report).
fn assert_matches_whole_map_oracle(map: &RoadNetwork, requests: &[ClientRequest], halo: u32) {
    let shards = 4.min(map.num_nodes());
    let mut region = build_service(
        map,
        ServiceConfig {
            seed: 7,
            shards,
            partition: PartitionPolicy::RegionOwned { halo },
            execution: ExecutionPolicy::WorkerPool { threads: shards },
            cache: CachePolicy::Lru { trees: 8 },
            ..ServiceConfig::default()
        },
    );
    let mut oracle = build_service(map, ServiceConfig { seed: 7, ..ServiceConfig::default() });
    let a = region.process_batch(requests).expect("region-owned batch succeeds");
    let b = oracle.process_batch(requests).expect("oracle batch succeeds");
    assert_same_output(&a, &b, Mask::Exact, &format!("halo={halo} vs whole-map oracle"));
    let region_unreachable =
        a.outcomes.iter().filter(|(_, o)| matches!(o, ClientOutcome::Unreachable)).count();
    let oracle_unreachable =
        b.outcomes.iter().filter(|(_, o)| matches!(o, ClientOutcome::Unreachable)).count();
    assert_eq!(
        region_unreachable, oracle_unreachable,
        "partitioning must never create a new Unreachable"
    );
}

#[test]
fn cut_straddling_pairs_resolve_via_the_halo() {
    let map = path_map(16);
    // The service's internal partition is deterministic, so a fresh build
    // with the same parameters reproduces it exactly — use it to find the
    // cuts and to classify each pair's routing.
    let partition = Partition::build(&map, 4, 1).unwrap();
    let cuts: Vec<u32> = (0..15)
        .filter(|&i| partition.owner_of(NodeId(i)) != partition.owner_of(NodeId(i + 1)))
        .collect();
    assert!(!cuts.is_empty(), "four regions on a path must have cuts");
    let mut kinds = Vec::new();
    let mut requests = Vec::new();
    for (i, &cut) in cuts.iter().enumerate() {
        // One-hop straddle: both ends inside a 1-hop halo of the cut.
        let q = ObfuscatedPathQuery::new(vec![NodeId(cut)], vec![NodeId(cut + 1)]);
        kinds.push(partition.route_explain(&q).1);
        requests.push(ClientRequest::new(
            ClientId(i as u32),
            PathQuery::new(NodeId(cut), NodeId(cut + 1)),
            ProtectionSettings::new(2, 2).unwrap(),
        ));
    }
    assert!(
        kinds.iter().all(|k| matches!(k, RouteKind::Halo | RouteKind::Owner)),
        "one-hop straddles must resolve without the fallback: {kinds:?}"
    );
    assert_matches_whole_map_oracle(&map, &requests, 1);
}

#[test]
fn spans_exceeding_the_halo_use_the_fallback_and_stay_answerable() {
    let map = path_map(16);
    let partition = Partition::build(&map, 4, 1).unwrap();
    // End to end across all four regions: no 1-hop coverage spans this.
    let q = ObfuscatedPathQuery::new(vec![NodeId(0), NodeId(1)], vec![NodeId(15)]);
    let (shard, kind) = partition.route_explain(&q);
    assert_eq!(kind, RouteKind::Fallback, "a whole-path span exceeds any 1-hop halo");
    assert!(shard < 4);
    let requests = vec![
        ClientRequest::new(
            ClientId(0),
            PathQuery::new(NodeId(0), NodeId(15)),
            ProtectionSettings::new(2, 1).unwrap(),
        ),
        ClientRequest::new(
            ClientId(1),
            PathQuery::new(NodeId(15), NodeId(0)),
            ProtectionSettings::new(1, 2).unwrap(),
        ),
    ];
    assert_matches_whole_map_oracle(&map, &requests, 1);
    // And a zero-hop halo forces even adjacent straddles through the
    // fallback — still answerable, still oracle-identical.
    assert_matches_whole_map_oracle(&map, &requests, 0);
}

#[test]
fn directed_maps_stay_oracle_identical_under_region_routing() {
    // A one-way avenue ring with two-way side streets: asymmetric
    // reachability, so directed sweeps cross region cuts in one
    // direction only.
    let mut b = GraphBuilder::directed();
    for i in 0..12 {
        b.add_node(Point::new((i % 6) as f64, (i / 6) as f64)).unwrap();
    }
    for i in 0..6u32 {
        b.add_edge(NodeId(i), NodeId((i + 1) % 6), 1.0).unwrap(); // one-way ring
        let side = i + 6;
        b.add_edge(NodeId(i), NodeId(side), 1.0).unwrap(); // out to the side street
        b.add_edge(NodeId(side), NodeId(i), 1.0).unwrap(); // and back
    }
    let map = b.build().unwrap();
    let requests: Vec<ClientRequest> = (0..12u32)
        .map(|i| {
            ClientRequest::new(
                ClientId(i),
                PathQuery::new(NodeId(i % 12), NodeId((i * 5 + 3) % 12)),
                ProtectionSettings::new(2, 2).unwrap(),
            )
        })
        .collect();
    for halo in [0, 1, 2] {
        assert_matches_whole_map_oracle(&map, &requests, halo);
    }
}

#[test]
fn disconnected_components_add_no_new_unreachable_outcomes() {
    // Two disjoint paths: cross-component pairs are unreachable on the
    // whole map; partitioning must report exactly the same set, never
    // more (a unit routed "to the wrong island" still searches the whole
    // map, so only true disconnection shows through).
    let mut b = GraphBuilder::new();
    for i in 0..10 {
        b.add_node(Point::new(i as f64, 0.0)).unwrap();
    }
    for i in 0..4u32 {
        b.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        b.add_edge(NodeId(i + 5), NodeId(i + 6), 1.0).unwrap();
    }
    let map = b.build().unwrap();
    let mut requests = Vec::new();
    for (i, (s, t)) in [(0u32, 4u32), (5, 9), (0, 9), (7, 2), (3, 3), (8, 1)].iter().enumerate() {
        requests.push(ClientRequest::new(
            ClientId(i as u32),
            PathQuery::new(NodeId(*s), NodeId(*t)),
            ProtectionSettings::new(2, 2).unwrap(),
        ));
    }
    for halo in [0, 1, 3] {
        assert_matches_whole_map_oracle(&map, &requests, halo);
    }
}

//! The live-map guarantee, as a property: repairing cached trees on weight
//! updates is
//! **invisible to every observable byte**. For random maps, random
//! batches, random interleaved weight churn, random obfuscator seeds, any
//! LRU capacity, either execution policy, and either placement policy, a
//! `CachePolicy::Lru` service driven through `update_weights` produces
//! byte-identical output to a `CachePolicy::Off` service recomputing
//! every tree fresh on the same churned map — the same delivered paths,
//! the same per-client outcomes, and the same serialized `BatchReport`.
//!
//! `update_weights` may keep a trace whose recorded sweep crossed an
//! updated edge only by *repairing* it — rewriting it into exactly the
//! trace a fresh sweep records on the new map — and must evict any touched
//! trace it does not repair (the stale tree a drop-all `swap_map` could
//! never serve). Any divergence this harness could catch would be a real
//! invalidation bug: a repair that differs from the fresh sweep, a touched
//! trace surviving the edge-set scan unrepaired, or a shard missing an
//! update. The obfuscator reads the fleet's own snapshot, so path
//! verification checks delivered paths against the one immutable map the
//! fleet searched.
//!
//! The first deterministic regression below pins the stale-adoption
//! case on a ring where the weight update flips the shortest side: a
//! warm cache must deliver the *new* detour, not the cached short way —
//! from the repaired tree. The second pins that repaired trees are
//! adopted: after a churn round touching every cached trace, the repeat
//! batch hits exactly the complete ones. The third drives an `Alt{8}`
//! fleet through a rising-then-falling
//! schedule: landmark tables measured before the congestion keep guiding
//! — with the unguided answers — while weights only rise, and are gone
//! after the first round that lowers one.

mod common;

use common::{arb_batch, arb_map, assert_identical, assert_same_deliveries, requests_on};
use opaque::{
    CachePolicy, ClientId, ClientRequest, DirectionsBackend, ExecutionPolicy, ObfuscationMode,
    PartitionPolicy, PathQuery, ProtectionSettings, SearchHeuristic, ServiceBuilder,
};
use pathsearch::SharingPolicy;
use proptest::prelude::*;
use roadnet::{EdgeId, GraphBuilder, NodeId, Point, RoadNetwork};

/// Interleaved churn: between consecutive batches, a round of raw
/// `(edge, weight)` updates (edge picks are taken modulo the edge count;
/// repeats and no-op rewrites are all legal traffic).
fn arb_churn() -> impl Strategy<Value = Vec<Vec<(u32, f64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((proptest::num::u32::ANY, 0.5f64..5.0), 1..6),
        1..4,
    )
}

fn updates_on(map: &RoadNetwork, raw: &[(u32, f64)]) -> Vec<(EdgeId, f64)> {
    let m = map.edges().len() as u32;
    raw.iter().map(|&(e, w)| (EdgeId(e % m), w)).collect()
}

fn build_service(
    map: RoadNetwork,
    seed: u64,
    partition: PartitionPolicy,
    shards: usize,
    execution: ExecutionPolicy,
    cache: CachePolicy,
) -> opaque::OpaqueService<opaque::DefaultBackend> {
    ServiceBuilder::new()
        .map(map)
        .seed(seed)
        .shards(shards)
        .obfuscation_mode(ObfuscationMode::Independent)
        .sharing_policy(SharingPolicy::Auto)
        .partition_policy(partition)
        .execution_policy(execution)
        .cache_policy(cache)
        .verify_results(true)
        .build()
        .expect("valid configuration")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn cached_service_under_churn_is_byte_identical_to_fresh_recompute(
        map in arb_map(30),
        raw_batch in arb_batch(8),
        raw_churn in arb_churn(),
        seed in proptest::num::u64::ANY,
        trees in 1usize..10,
        exec_pick in 0u8..2,
        part_pick in 0u8..2,
    ) {
        let execution = match exec_pick {
            0 => ExecutionPolicy::Sequential,
            _ => ExecutionPolicy::WorkerPool { threads: 3 },
        };
        let partition = match part_pick {
            0 => PartitionPolicy::RoundRobin,
            _ => PartitionPolicy::RegionOwned { halo: 1 },
        };
        let requests = requests_on(&map, &raw_batch);
        // The reference recomputes every tree fresh on whatever the map
        // currently is; the cached service must match it byte-for-byte
        // through every interleaved weight update.
        let mut off = build_service(
            map.clone(), seed, PartitionPolicy::RoundRobin, 3,
            ExecutionPolicy::Sequential, CachePolicy::Off,
        );
        let mut lru = build_service(
            map.clone(), seed, partition, 3, execution, CachePolicy::Lru { trees },
        );

        // One batch before the first churn round (populating the caches),
        // one after each round (re-adopting survivors on the new map).
        for (round, raw) in raw_churn.iter().map(Some).chain([None]).enumerate() {
            let ctx = format!(
                "n={} requests={} seed={seed} trees={trees} execution={execution:?} \
                 partition={partition:?} round={round}",
                map.num_nodes(),
                requests.len()
            );
            match (off.process_batch(&requests), lru.process_batch(&requests)) {
                (Ok(a), Ok(b)) => assert_identical(&a, &b, &ctx),
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}: errors diverged", ctx),
                (a, b) => prop_assert!(
                    false,
                    "{}: one service failed, the other did not: {:?} vs {:?}",
                    ctx,
                    a.map(|r| r.outcomes),
                    b.map(|r| r.outcomes)
                ),
            }
            if let Some(raw) = raw {
                let updates = updates_on(&map, raw);
                let changed_off = off.update_weights(&updates).expect("valid updates");
                let changed_lru = lru.update_weights(&updates).expect("valid updates");
                prop_assert_eq!(changed_off, changed_lru, "{}: changed-edge sets diverged", ctx);
            }
        }
    }
}

/// Deterministic stale-adoption pin on a 12-node ring. With no fakes
/// (protection 1/1) the delivered path is the true shortest path, and the
/// ring gives the query exactly two candidate routes — so when churn
/// flips which side is shorter, a stale cached tree would deliver the
/// *old* side verbatim. The warm cache must deliver the new detour, and it
/// delivers it from a hit: the cached tree is complete, so the update
/// repairs it instead of evicting it.
#[test]
fn a_touched_trace_is_repaired_and_delivers_the_detour_from_a_hit() {
    const N: u32 = 12;
    let mut b = GraphBuilder::new();
    for i in 0..N {
        let theta = f64::from(i) / f64::from(N) * std::f64::consts::TAU;
        b.add_node(Point::new(theta.cos(), theta.sin())).unwrap();
    }
    for i in 0..N {
        b.add_edge(NodeId(i), NodeId((i + 1) % N), 1.0).unwrap();
    }
    let map = b.build().unwrap();
    let requests = vec![ClientRequest::new(
        ClientId(0),
        PathQuery::new(NodeId(0), NodeId(5)),
        ProtectionSettings::new(1, 1).unwrap(),
    )];
    let mut lru = build_service(
        map.clone(),
        7,
        PartitionPolicy::RoundRobin,
        1,
        ExecutionPolicy::Sequential,
        CachePolicy::Lru { trees: 8 },
    );
    let mut off = build_service(
        map.clone(),
        7,
        PartitionPolicy::RoundRobin,
        1,
        ExecutionPolicy::Sequential,
        CachePolicy::Off,
    );

    let short_way: Vec<NodeId> = (0..=5).map(NodeId).collect();
    let long_way: Vec<NodeId> = [0, 11, 10, 9, 8, 7, 6, 5].map(NodeId).to_vec();

    // Rounds 1 and 2: the short side wins; round 2 runs on a warm cache.
    for round in 0..2 {
        let a = off.process_batch(&requests).unwrap();
        let b = lru.process_batch(&requests).unwrap();
        assert_identical(&a, &b, &format!("pre-churn round {round}"));
        assert_eq!(b.results[0].path.nodes(), short_way.as_slice());
    }
    let warmed = lru.backend().stats();
    assert!(warmed.tree_cache_hits > 0, "round 2 must adopt the cached tree");

    // Rush hour on edge (2,3): the cached tree settled both endpoints, so
    // it must not be adopted as recorded — a stale adoption would
    // re-deliver the short way.
    let congested = map
        .edges()
        .iter()
        .position(|e| (e.a, e.b) == (NodeId(2), NodeId(3)) || (e.a, e.b) == (NodeId(3), NodeId(2)))
        .map(EdgeId::from_index)
        .expect("ring contains edge (2,3)");
    let updates = [(congested, 10.0)];
    assert_eq!(off.update_weights(&updates).unwrap(), vec![congested]);
    assert_eq!(lru.update_weights(&updates).unwrap(), vec![congested]);

    let a = off.process_batch(&requests).unwrap();
    let b = lru.process_batch(&requests).unwrap();
    assert_identical(&a, &b, "post-churn round");
    assert_eq!(
        b.results[0].path.nodes(),
        long_way.as_slice(),
        "the warm cache must deliver the post-churn detour, not the cached short way"
    );
    let after = lru.backend().stats();
    assert_eq!(
        after.tree_cache_hits,
        warmed.tree_cache_hits + 1,
        "the touched tree was repaired, so the post-churn batch hits it"
    );
}

/// Repaired trees are adopted. A repeated batch of 3×3 requests warms a
/// one-shard cache; a churn round then raises an edge at every cached
/// root — so every cached trace is touched — and lowers one more. A
/// complete trace is repaired and an early-stopped one evicted, so the
/// repeat after the round hits exactly the trees whose traces were
/// complete before it, with reports byte-identical to cache-off.
#[test]
fn repaired_trees_are_adopted_after_a_churn_round() {
    use opaque::FakeSelection;
    use roadnet::generators::{GridConfig, grid_network};
    let map =
        grid_network(&GridConfig { width: 14, height: 14, seed: 3, ..Default::default() }).unwrap();
    let requests: Vec<ClientRequest> = (0..3)
        .map(|i| {
            ClientRequest::new(
                ClientId(i),
                PathQuery::new(NodeId(i * 29 + 7), NodeId(190 - i * 41)),
                ProtectionSettings::new(3, 3).unwrap(),
            )
        })
        .collect();
    let build = |cache| {
        ServiceBuilder::new()
            .map(map.clone())
            .seed(5)
            .shards(1)
            .fake_selection(FakeSelection::Uniform)
            .sharing_policy(SharingPolicy::PerSource)
            .cache_policy(cache)
            .verify_results(true)
            .build()
            .expect("valid configuration")
    };
    let mut off = build(CachePolicy::Off);
    let mut lru = build(CachePolicy::Lru { trees: 64 });
    for repeat in 0..2 {
        let (a, b) = (off.process_batch(&requests).unwrap(), lru.process_batch(&requests).unwrap());
        assert_identical(&a, &b, &format!("warm-up {repeat}"));
    }

    // The cached roots, and which of their traces are complete.
    let cache = lru.backend().shards()[0].tree_cache().unwrap();
    let roots: Vec<NodeId> = map.nodes().filter(|&n| cache.peek(n).is_some()).collect();
    let complete = roots.iter().filter(|&&n| cache.peek(n).unwrap().is_complete()).count();
    let trees = lru.backend().stats().trees_grown / 2;
    assert_eq!(roots.len() as u64, trees, "one cached trace per tree: every root is distinct");
    assert!(complete > 0 && complete < roots.len(), "{complete} of {} complete", roots.len());

    // Rises at every cached root, and one fall away from them.
    let mut updates: Vec<(EdgeId, f64)> = roots
        .iter()
        .map(|&r| {
            let e = map.edges().iter().position(|e| e.a == r || e.b == r).unwrap();
            (EdgeId::from_index(e), map.edges()[e].weight * 3.0)
        })
        .collect();
    let fall = map.edges().iter().position(|e| !roots.contains(&e.a) && !roots.contains(&e.b));
    let fall = EdgeId::from_index(fall.unwrap());
    updates.push((fall, map.edge(fall).weight * 0.25));
    assert_eq!(off.update_weights(&updates).unwrap(), lru.update_weights(&updates).unwrap());

    let before = lru.backend().stats();
    let (a, b) = (off.process_batch(&requests).unwrap(), lru.process_batch(&requests).unwrap());
    assert_identical(&a, &b, "after the churn round");
    let hits = lru.backend().stats().tree_cache_hits - before.tree_cache_hits;
    assert_eq!(hits, complete as u64, "exactly the repaired (complete) traces are adopted");
}

/// Landmark tables across live traffic. Bounds measured under smaller
/// weights stay admissible and consistent, so two rising rounds keep the
/// `Alt{8}` fleet guided (fewer settled nodes, the unguided fleet's
/// deliveries); the round that lowers an edge drops the tables and the
/// fleet is the unguided one from then on, report bytes included.
#[test]
fn landmark_tables_survive_rising_weights_and_drop_with_a_falling_one() {
    use roadnet::generators::{GridConfig, grid_network};
    let mut map =
        grid_network(&GridConfig { width: 14, height: 14, seed: 6, ..Default::default() }).unwrap();
    let requests: Vec<ClientRequest> = (0..6)
        .map(|i| {
            ClientRequest::new(
                ClientId(i),
                PathQuery::new(NodeId(i * 13), NodeId(195 - i * 17)),
                ProtectionSettings::new(3, 3).unwrap(),
            )
        })
        .collect();
    let build = |heuristic, cache| {
        ServiceBuilder::new()
            .map(map.clone())
            .seed(11)
            .shards(2)
            .sharing_policy(SharingPolicy::PerSource)
            .cache_policy(cache)
            .search_heuristic(heuristic)
            .verify_results(true)
            .build()
            .expect("valid configuration")
    };
    let mut plain = build(SearchHeuristic::None, CachePolicy::Off);
    let mut guided = build(SearchHeuristic::Alt { landmarks: 8 }, CachePolicy::Lru { trees: 16 });

    let edges = map.edges().len();
    let scaled = |map: &RoadNetwork, step: usize, factor: f64| -> Vec<(EdgeId, f64)> {
        (0..edges)
            .step_by(step)
            .map(EdgeId::from_index)
            .map(|e| (e, map.edge(e).weight * factor))
            .collect()
    };
    let rising_a = scaled(&map, 5, 2.5);
    map.update_weights(&rising_a).unwrap();
    let rising_b = scaled(&map, 3, 1.5);
    map.update_weights(&rising_b).unwrap();
    let mut falling = scaled(&map, 7, 1.25);
    falling[1].1 = map.edge(falling[1].0).weight * 0.5;
    // (updates, whether the tables must survive them)
    let schedule = [(rising_a, true), (rising_b, true), (falling, false)];

    for (round, (updates, keeps_tables)) in schedule.iter().enumerate() {
        let before = (plain.backend().stats().search, guided.backend().stats().search);
        for repeat in 0..2 {
            let a = plain.process_batch(&requests).unwrap();
            let b = guided.process_batch(&requests).unwrap();
            assert_same_deliveries(&a, &b, &format!("round {round} repeat {repeat}"));
        }
        let (p, g) = (plain.backend().stats().search, guided.backend().stats().search);
        assert!(
            g.settled - before.1.settled < p.settled - before.0.settled,
            "round {round}: the fleet must still be guided"
        );
        assert_eq!(
            plain.update_weights(updates).unwrap(),
            guided.update_weights(updates).unwrap(),
            "round {round}: changed-edge sets diverged"
        );
        for shard in guided.backend().shards() {
            assert_eq!(shard.heuristic().is_some(), *keeps_tables, "after round {round}");
        }
    }
    // Unguided from here on: the whole response, report bytes included,
    // is the reference fleet's (the cache only ever adopts exact replays).
    let a = plain.process_batch(&requests).unwrap();
    let b = guided.process_batch(&requests).unwrap();
    assert_identical(&a, &b, "after the falling round");
}

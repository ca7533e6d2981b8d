//! The tree cache's headline guarantee, as a property: for random maps,
//! random batches, random obfuscator seeds, any sharing policy the cache
//! serves, and any LRU capacity, `CachePolicy::Lru` produces
//! **byte-identical** batch output to `CachePolicy::Off` — the same
//! delivered paths, the same per-client outcomes, and the same serialized
//! `BatchReport` — including under `ExecutionPolicy::WorkerPool`, where
//! the nondeterministic unit-to-shard assignment decides which shard-local
//! cache sees which root.
//!
//! A cache may only skip work, never change it. Adoption replays the
//! skipped sweep's counters byte-for-byte (per-settle snapshots in
//! `pathsearch::trace`), and the physical hit/miss pair is deliberately
//! excluded from the serialized report, so any divergence this test could
//! catch would be a real reuse bug: a stale tree adopted past its radius,
//! a transposed tree mis-keyed, stats replayed from the wrong prefix.
//!
//! Batches repeat across rounds on purpose — round 1 populates the
//! caches, later rounds adopt — so the property is exercised on warm
//! caches, not just cold ones.

mod common;

use common::{arb_batch, arb_map, assert_identical, requests_on};
use opaque::{
    CachePolicy, ClientId, ClientRequest, ClusteringConfig, DirectionsBackend, ExecutionPolicy,
    ObfuscationMode, PathQuery, ProtectionSettings, ServiceBuilder,
};
use pathsearch::SharingPolicy;
use proptest::prelude::*;
use roadnet::{NodeId, RoadNetwork};

#[allow(clippy::too_many_arguments)]
fn build_service(
    map: RoadNetwork,
    seed: u64,
    mode: ObfuscationMode,
    sharing: SharingPolicy,
    shards: usize,
    execution: ExecutionPolicy,
    cache: CachePolicy,
) -> opaque::OpaqueService<opaque::DefaultBackend> {
    ServiceBuilder::new()
        .map(map)
        .seed(seed)
        .shards(shards)
        .obfuscation_mode(mode)
        .sharing_policy(sharing)
        .execution_policy(execution)
        .cache_policy(cache)
        .verify_results(true)
        .build()
        .expect("valid configuration")
}

/// Logical fleet counters: everything except the physical hit/miss pair,
/// which is the one thing allowed to differ between cache policies.
fn logical_stats(svc: &opaque::OpaqueService<opaque::DefaultBackend>) -> opaque::ServerStats {
    let mut stats = svc.backend().stats();
    stats.tree_cache_hits = 0;
    stats.tree_cache_misses = 0;
    stats
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn lru_is_byte_identical_to_off(
        map in arb_map(40),
        raw_batch in arb_batch(10),
        seed in proptest::num::u64::ANY,
        trees in 1usize..12,
        mode_pick in 0u8..3,
        sharing_pick in 0u8..3,
    ) {
        let mode = match mode_pick {
            0 => ObfuscationMode::Independent,
            1 => ObfuscationMode::SharedGlobal,
            _ => ObfuscationMode::SharedClustered(ClusteringConfig::default()),
        };
        let sharing = match sharing_pick {
            0 => SharingPolicy::None,
            1 => SharingPolicy::PerSource,
            _ => SharingPolicy::Auto,
        };
        let requests = requests_on(&map, &raw_batch);
        let mut off = build_service(
            map.clone(), seed, mode, sharing, 1,
            ExecutionPolicy::Sequential, CachePolicy::Off,
        );
        let mut lru = build_service(
            map.clone(), seed, mode, sharing, 1,
            ExecutionPolicy::Sequential, CachePolicy::Lru { trees },
        );

        // Repeated rounds: round 1 is cold, later rounds adopt. The
        // obfuscator RNG advances identically (caching is downstream of
        // obfuscation), so both services see identical units each round.
        for round in 0..3 {
            let ctx = format!(
                "n={} requests={} seed={seed} trees={trees} mode={mode:?} \
                 sharing={sharing:?} round={round}",
                map.num_nodes(),
                requests.len()
            );
            match (off.process_batch(&requests), lru.process_batch(&requests)) {
                (Ok(a), Ok(b)) => assert_identical(&a, &b, &ctx),
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}: errors diverged", ctx),
                (a, b) => prop_assert!(
                    false,
                    "{}: one cache policy failed, the other did not: {:?} vs {:?}",
                    ctx,
                    a.map(|r| r.outcomes),
                    b.map(|r| r.outcomes)
                ),
            }
        }
        prop_assert_eq!(logical_stats(&off), logical_stats(&lru), "logical fleet stats diverged");
    }

    #[test]
    fn lru_under_a_worker_pool_is_byte_identical_to_off_sequential(
        map in arb_map(30),
        raw_batch in arb_batch(8),
        seed in proptest::num::u64::ANY,
        threads in 2usize..6,
        trees in 1usize..8,
    ) {
        // The adversarial composition: per-shard caches + nondeterministic
        // unit-to-shard assignment. Which cache sees which root varies run
        // to run; reports must not.
        let requests = requests_on(&map, &raw_batch);
        let mode = ObfuscationMode::Independent;
        let mut off = build_service(
            map.clone(), seed, mode, SharingPolicy::PerSource, threads,
            ExecutionPolicy::Sequential, CachePolicy::Off,
        );
        let mut lru = build_service(
            map.clone(), seed, mode, SharingPolicy::PerSource, threads,
            ExecutionPolicy::WorkerPool { threads }, CachePolicy::Lru { trees },
        );
        for round in 0..3 {
            let ctx = format!("seed={seed} threads={threads} trees={trees} round={round}");
            match (off.process_batch(&requests), lru.process_batch(&requests)) {
                (Ok(a), Ok(b)) => assert_identical(&a, &b, &ctx),
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", ctx),
                (a, b) => prop_assert!(false, "{}: {:?} vs {:?}", ctx, a.is_ok(), b.is_ok()),
            }
        }
        prop_assert_eq!(logical_stats(&off), logical_stats(&lru));
    }
}

/// Deterministic pin: the equivalence above is not vacuous — repeated
/// batches on a hotspot-style stream really do hit the cache, and hits
/// really do skip settled work (the cached service is doing *less*, not
/// the same work twice).
#[test]
fn repeated_batches_actually_hit_the_cache() {
    use roadnet::generators::{GridConfig, grid_network};
    let map =
        grid_network(&GridConfig { width: 16, height: 16, seed: 3, ..Default::default() }).unwrap();
    let requests: Vec<ClientRequest> = (0..6)
        .map(|i| {
            ClientRequest::new(
                ClientId(i),
                // Six clients, two shared destinations — everyone heads
                // to one of two "malls".
                PathQuery::new(NodeId(i * 40 % 256), NodeId(if i % 2 == 0 { 255 } else { 17 })),
                ProtectionSettings::new(1, 1).unwrap(),
            )
        })
        .collect();
    let mut svc = ServiceBuilder::new()
        .map(map)
        .seed(11)
        .sharing_policy(SharingPolicy::PerSource)
        .cache_policy(CachePolicy::Lru { trees: 32 })
        .verify_results(true)
        .build()
        .unwrap();

    let first = svc.process_batch(&requests).unwrap();
    let stats_cold = svc.backend().stats();
    assert_eq!(stats_cold.tree_cache_hits, 0, "cold cache cannot hit");
    assert_eq!(stats_cold.tree_cache_misses, 6, "one consulted tree per request");

    let second = svc.process_batch(&requests).unwrap();
    let stats_warm = svc.backend().stats();
    assert_eq!(stats_warm.tree_cache_hits, 6, "identical stream: every tree adopts");
    // Reports stay byte-identical across the cold/warm boundary (same
    // logical work — protection 1 adds no fakes, so both batches carry
    // identical queries).
    assert_eq!(
        serde_json::to_string(&first.report).unwrap(),
        serde_json::to_string(&second.report).unwrap()
    );
    // And the warm batch on its own: every tree adopted, none regrown.
    let warm = stats_warm.delta_since(&stats_cold);
    assert_eq!((warm.tree_cache_hits, warm.tree_cache_misses), (6, 0));
}

/// A retry is a cache hit. Independent fakes are a function of the
/// obfuscator's seed, the trip and its protection, so a client who re-sends
/// a 3×3 request in the next window re-sends the same `Q(S,T)`: every
/// unguided tree the first window grew is adopted in the second (a guided
/// tree bypasses the cache), and both windows report byte-identically to a
/// cache-off service.
#[test]
fn a_retried_request_adopts_every_tree() {
    use opaque::SearchHeuristic;
    use roadnet::generators::{GridConfig, grid_network};
    let map =
        grid_network(&GridConfig { width: 30, height: 30, seed: 5, ..Default::default() }).unwrap();
    let retry = [ClientRequest::new(
        ClientId(0),
        PathQuery::new(NodeId(62), NodeId(845)),
        ProtectionSettings::new(3, 3).unwrap(),
    )];
    for heuristic in [SearchHeuristic::None, SearchHeuristic::Alt { landmarks: 4 }] {
        let service = |cache| {
            ServiceBuilder::new()
                .map(map.clone())
                .seed(7)
                .cache_policy(cache)
                .search_heuristic(heuristic)
                .verify_results(true)
                .build()
                .expect("valid configuration")
        };
        let mut off = service(CachePolicy::Off);
        let mut lru = service(CachePolicy::Lru { trees: 64 });
        let mut reports = Vec::new();
        for window in 0..2 {
            let before = lru.backend().stats();
            let cached = lru.process_batch(&retry).unwrap();
            let hits = lru.backend().stats().delta_since(&before).tree_cache_hits;
            assert_identical(
                &off.process_batch(&retry).unwrap(),
                &cached,
                &format!("{heuristic:?} window {window}"),
            );
            if window == 1 {
                assert_eq!(
                    cached.report.server_trees_grown, 3,
                    "{heuristic:?}: one tree per source"
                );
                // A guided tree bypasses the cache, so only a plain retry
                // adopts.
                let adopted = match heuristic {
                    SearchHeuristic::None => cached.report.server_trees_grown,
                    SearchHeuristic::Alt { .. } => 0,
                };
                assert_eq!(hits, adopted, "{heuristic:?}: the retry adopts every plain tree");
            }
            reports.push(serde_json::to_string(&cached.report).unwrap());
        }
        assert_eq!(reports[0], reports[1], "{heuristic:?}: the retry re-sends its query");
    }
}

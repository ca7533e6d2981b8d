//! The tree cache's headline guarantee, as a property: for random maps,
//! batches, seeds, any sharing policy and any LRU capacity,
//! `CachePolicy::Lru` produces **byte-identical** batch output to
//! `CachePolicy::Off` — on one shard, and under a worker pool, where the
//! nondeterministic unit-to-shard assignment decides which shard-local
//! cache sees which root. Batches repeat across rounds on purpose: round
//! 1 populates the caches, later rounds adopt. The lattice
//! (`tests/lattice.rs`) holds every cached composition, under weight
//! churn, to the same reference.
//!
//! The regressions below pin that the cache is really used: a repeated
//! stream hits it, and a retried request adopts every plain tree its first
//! window grew.

mod common;

use common::{
    Mask, arb_batch, arb_map, assert_rounds_agree, assert_same_output, build_service, requests_on,
};
use opaque::{
    CachePolicy, ClientId, ClientRequest, ClusteringConfig, DirectionsBackend, ExecutionPolicy,
    ObfuscationMode, PathQuery, ProtectionSettings, SearchHeuristic, ServiceConfig,
};
use pathsearch::SharingPolicy;
use proptest::prelude::*;
use roadnet::NodeId;
use roadnet::generators::{GridConfig, grid_network};

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
        let off = ServiceConfig { seed, mode, sharing, ..ServiceConfig::default() };
        let lru = ServiceConfig { cache: CachePolicy::Lru { trees }, ..off };
        let ctx = format!("n={} {lru:?}", map.num_nodes());
        assert_rounds_agree(&map, &requests_on(&map, &raw_batch), (off, lru), 3, Mask::Exact, &ctx);
    }

    /// The adversarial composition: per-shard caches and nondeterministic
    /// unit-to-shard assignment. Which cache sees which root varies run to
    /// run; reports must not.
    #[test]
    fn lru_under_a_worker_pool_is_byte_identical_to_off_sequential(
        map in arb_map(30),
        raw_batch in arb_batch(8),
        seed in proptest::num::u64::ANY,
        threads in 2usize..6,
        trees in 1usize..8,
    ) {
        let off = ServiceConfig {
            seed,
            sharing: SharingPolicy::PerSource,
            shards: threads,
            ..ServiceConfig::default()
        };
        let lru = ServiceConfig {
            execution: ExecutionPolicy::WorkerPool { threads },
            cache: CachePolicy::Lru { trees },
            ..off
        };
        let ctx = format!("n={} {lru:?}", map.num_nodes());
        assert_rounds_agree(&map, &requests_on(&map, &raw_batch), (off, lru), 3, Mask::Exact, &ctx);
    }
}

/// Deterministic pin: the cache is not idle — repeated
/// batches on a hotspot-style stream really do hit the cache, and hits
/// really do skip settled work (the cached service is doing *less*, not
/// the same work twice).
#[test]
fn repeated_batches_actually_hit_the_cache() {
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
    let mut svc = build_service(
        &map,
        ServiceConfig {
            seed: 11,
            sharing: SharingPolicy::PerSource,
            cache: CachePolicy::Lru { trees: 32 },
            ..ServiceConfig::default()
        },
    );

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
    let map =
        grid_network(&GridConfig { width: 30, height: 30, seed: 5, ..Default::default() }).unwrap();
    let retry = [ClientRequest::new(
        ClientId(0),
        PathQuery::new(NodeId(62), NodeId(845)),
        ProtectionSettings::new(3, 3).unwrap(),
    )];
    for heuristic in [SearchHeuristic::None, SearchHeuristic::Alt { landmarks: 4 }] {
        let service = |cache| {
            build_service(
                &map,
                ServiceConfig { seed: 7, cache, heuristic, ..ServiceConfig::default() },
            )
        };
        let mut off = service(CachePolicy::Off);
        let mut lru = service(CachePolicy::Lru { trees: 64 });
        let mut reports = Vec::new();
        for window in 0..2 {
            let before = lru.backend().stats();
            let cached = lru.process_batch(&retry).unwrap();
            let hits = lru.backend().stats().delta_since(&before).tree_cache_hits;
            assert_same_output(
                &off.process_batch(&retry).unwrap(),
                &cached,
                Mask::Exact,
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

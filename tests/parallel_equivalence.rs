//! The parallel execution layer's headline guarantee, as a property:
//! for random maps, random batches, random obfuscator seeds, and any
//! worker-pool width, `ExecutionPolicy::WorkerPool` produces
//! **byte-identical** batch output to `ExecutionPolicy::Sequential` —
//! the same delivered paths, the same per-client outcomes, the same
//! serialized `BatchReport`, and the same fleet-merged server counters.
//!
//! Parallelism here may only move work between shards; it must never
//! change a single answer or report byte. Each obfuscated query is a pure
//! function of `(map, query, sharing policy)` and the service accounts
//! units in unit order regardless of which worker answered them, so any
//! divergence this test could catch would be a real scheduling leak
//! (results landing in the wrong slot, stats double-counted or lost,
//! order-dependent accounting).

mod common;

use common::{arb_batch, arb_map, assert_identical, requests_on};
use opaque::{
    ClusteringConfig, DirectionsBackend, ExecutionPolicy, ObfuscationMode, ServiceBuilder,
};
use proptest::prelude::*;
use roadnet::RoadNetwork;

fn build_service(
    map: RoadNetwork,
    seed: u64,
    mode: ObfuscationMode,
    shards: usize,
    execution: ExecutionPolicy,
) -> opaque::OpaqueService<opaque::DefaultBackend> {
    ServiceBuilder::new()
        .map(map)
        .seed(seed)
        .shards(shards)
        .obfuscation_mode(mode)
        .execution_policy(execution)
        .verify_results(true)
        .build()
        .expect("valid configuration")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn worker_pool_is_byte_identical_to_sequential(
        map in arb_map(40),
        raw_batch in arb_batch(10),
        seed in proptest::num::u64::ANY,
        threads in 2usize..9,
        mode_pick in 0u8..3,
    ) {
        let mode = match mode_pick {
            0 => ObfuscationMode::Independent,
            1 => ObfuscationMode::SharedGlobal,
            _ => ObfuscationMode::SharedClustered(ClusteringConfig::default()),
        };
        let requests = requests_on(&map, &raw_batch);
        let ctx = format!(
            "n={} requests={} seed={seed} threads={threads} mode={mode:?}",
            map.num_nodes(),
            requests.len()
        );

        let mut sequential =
            build_service(map.clone(), seed, mode, threads, ExecutionPolicy::Sequential);
        let mut pooled = build_service(
            map.clone(),
            seed,
            mode,
            threads,
            ExecutionPolicy::WorkerPool { threads },
        );

        match (sequential.process_batch(&requests), pooled.process_batch(&requests)) {
            (Ok(a), Ok(b)) => {
                assert_identical(&a, &b, &ctx);
                // Fleet-merged cumulative counters agree as well: the
                // commutative merge erases scheduling.
                prop_assert_eq!(
                    sequential.backend().stats(),
                    pooled.backend().stats(),
                    "{}: fleet stats diverged",
                    ctx
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}: errors diverged", ctx),
            (a, b) => prop_assert!(
                false,
                "{}: one policy failed, the other did not: {:?} vs {:?}",
                ctx,
                a.map(|r| r.outcomes),
                b.map(|r| r.outcomes)
            ),
        }
    }

    #[test]
    fn repeated_batches_stay_identical_across_policies(
        map in arb_map(30),
        raw_batch in arb_batch(6),
        seed in proptest::num::u64::ANY,
    ) {
        // Multi-batch streams: the obfuscator RNG advances between
        // batches, shard counters accumulate — equivalence must hold at
        // every step, not just on a fresh service.
        let requests = requests_on(&map, &raw_batch);
        let mode = ObfuscationMode::SharedGlobal;
        let mut sequential =
            build_service(map.clone(), seed, mode, 3, ExecutionPolicy::Sequential);
        let mut pooled = build_service(
            map.clone(),
            seed,
            mode,
            3,
            ExecutionPolicy::WorkerPool { threads: 3 },
        );
        for round in 0..3 {
            let ctx = format!("seed={seed} round={round}");
            match (sequential.process_batch(&requests), pooled.process_batch(&requests)) {
                (Ok(a), Ok(b)) => assert_identical(&a, &b, &ctx),
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", ctx),
                (a, b) => prop_assert!(false, "{}: {:?} vs {:?}", ctx, a.is_ok(), b.is_ok()),
            }
        }
        prop_assert_eq!(sequential.backend().stats(), pooled.backend().stats());
    }
}

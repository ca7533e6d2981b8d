//! The parallel execution layer's headline guarantee, as a property:
//! for random maps, batches, seeds and any worker-pool width,
//! `ExecutionPolicy::WorkerPool` produces **byte-identical** batch output
//! to `ExecutionPolicy::Sequential` on the same shards — the same
//! delivered paths, outcomes, serialized `BatchReport` and fleet-merged
//! server counters, over multi-batch streams where the obfuscator RNG
//! advances and shard counters accumulate.
//!
//! Parallelism may only move work between shards. A divergence here is a
//! scheduling leak: a result landing in the wrong slot, stats lost or
//! counted twice, order-dependent accounting. The lattice
//! (`tests/lattice.rs`) holds every pooled composition to the one-shard
//! reference as well.

mod common;

use common::{Mask, arb_batch, arb_map, assert_rounds_agree, requests_on};
use opaque::{
    ClusteringConfig, DirectionsBackend, ExecutionPolicy, ObfuscationMode, ServiceConfig,
};
use proptest::prelude::*;

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
        let sequential = ServiceConfig { seed, mode, shards: threads, ..ServiceConfig::default() };
        let pooled =
            ServiceConfig { execution: ExecutionPolicy::WorkerPool { threads }, ..sequential };
        let ctx = format!("n={} {pooled:?}", map.num_nodes());
        let requests = requests_on(&map, &raw_batch);
        let (a, b) = assert_rounds_agree(&map, &requests, (sequential, pooled), 1, Mask::Exact, &ctx);
        // Every counter, the cache's pair included: the commutative merge
        // erases scheduling.
        prop_assert_eq!(a.backend().stats(), b.backend().stats(), "{}: fleet stats diverged", ctx);
    }

    #[test]
    fn repeated_batches_stay_identical_across_policies(
        map in arb_map(30),
        raw_batch in arb_batch(6),
        seed in proptest::num::u64::ANY,
    ) {
        let sequential = ServiceConfig {
            seed,
            mode: ObfuscationMode::SharedGlobal,
            shards: 3,
            ..ServiceConfig::default()
        };
        let pooled =
            ServiceConfig { execution: ExecutionPolicy::WorkerPool { threads: 3 }, ..sequential };
        let ctx = format!("n={} seed={seed}", map.num_nodes());
        let requests = requests_on(&map, &raw_batch);
        let (a, b) = assert_rounds_agree(&map, &requests, (sequential, pooled), 3, Mask::Exact, &ctx);
        prop_assert_eq!(a.backend().stats(), b.backend().stats(), "{}: fleet stats diverged", ctx);
    }
}

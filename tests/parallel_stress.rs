//! Nightly-scale stress of the worker-pool execution layer: 10 000
//! obfuscated queries pushed through 8 shards × 8 threads.
//!
//! `#[ignore]`d in quick runs (`cargo test`); CI's `test-threaded` job
//! runs it explicitly with `--ignored`. What it guards:
//!
//! * **no lost or duplicated work** — every batch yields exactly one
//!   [`ClientOutcome`] per request, in request order, and every delivered
//!   client appears exactly once;
//! * **monotone counters** — the fleet's cumulative `trees_grown` (and
//!   the other merged counters) only ever grow, batch over batch: a
//!   worker racing a reset or a double-merged shard would break the
//!   monotone staircase;
//! * **exact global accounting** — after 10k queries the fleet-merged
//!   counters recompose exactly from the per-batch report deltas.

use opaque::{ClientOutcome, DirectionsBackend, ExecutionPolicy, ObfuscationMode, ServiceBuilder};
use roadnet::SpatialIndex;
use roadnet::generators::{GridConfig, grid_network};
use std::collections::HashSet;
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

const SHARDS: usize = 8;
const THREADS: usize = 8;
const BATCHES: usize = 100;
const BATCH_SIZE: usize = 100; // BATCHES × BATCH_SIZE = 10_000 queries

#[test]
#[ignore = "nightly stress: 10k queries across 8 shards x 8 threads"]
fn ten_thousand_queries_lose_nothing_and_count_monotonically() {
    let g = grid_network(&GridConfig { width: 32, height: 32, seed: 0x57E5, ..Default::default() })
        .expect("valid network");
    let idx = SpatialIndex::build(&g);

    let mut svc = ServiceBuilder::new()
        .map(g.clone())
        .seed(0x57E5)
        .shards(SHARDS)
        .execution_policy(ExecutionPolicy::WorkerPool { threads: THREADS })
        // Independent mode: one obfuscated query per request, so the
        // shared work queue holds all 100 units of every batch.
        .obfuscation_mode(ObfuscationMode::Independent)
        .build()
        .expect("valid configuration");

    let mut prev_stats = svc.backend().stats();
    assert_eq!(prev_stats.trees_grown, 0);
    let mut delta_settled = 0u64;
    let mut delta_trees = 0u64;

    for batch_no in 0..BATCHES {
        let requests = generate_requests(
            &g,
            &idx,
            &WorkloadConfig {
                num_requests: BATCH_SIZE,
                queries: QueryDistribution::Uniform,
                protection: ProtectionDistribution::Fixed { f_s: 2, f_t: 2 },
                seed: batch_no as u64,
            },
        );
        let response = svc.process_batch(&requests).expect("batch succeeds");

        // One outcome per request, in request order — nothing lost,
        // nothing duplicated, regardless of which worker served what.
        assert_eq!(response.outcomes.len(), requests.len(), "batch {batch_no}");
        for (slot, (request, (client, _))) in requests.iter().zip(&response.outcomes).enumerate() {
            assert_eq!(request.client, *client, "batch {batch_no} slot {slot}");
        }
        let delivered: Vec<_> = response
            .outcomes
            .iter()
            .filter(|(_, o)| *o == ClientOutcome::Delivered)
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(
            delivered.len(),
            response.results.len(),
            "batch {batch_no}: every Delivered outcome has exactly one result"
        );
        let unique: HashSet<_> = response.results.iter().map(|r| r.client).collect();
        assert_eq!(unique.len(), response.results.len(), "batch {batch_no}: duplicate delivery");
        for (result, client) in response.results.iter().zip(&delivered) {
            assert_eq!(result.client, *client, "batch {batch_no}: delivery order");
        }

        // Monotone staircase: cumulative fleet counters only grow, and
        // they grow by exactly this batch's reported delta.
        let stats = svc.backend().stats();
        assert!(
            stats.trees_grown > prev_stats.trees_grown,
            "batch {batch_no}: trees_grown must strictly grow ({} -> {})",
            prev_stats.trees_grown,
            stats.trees_grown
        );
        assert!(stats.search.settled >= prev_stats.search.settled, "batch {batch_no}");
        assert!(stats.pairs_evaluated >= prev_stats.pairs_evaluated, "batch {batch_no}");
        let step = stats.delta_since(&prev_stats);
        assert_eq!(step.search.settled, response.report.server_settled, "batch {batch_no}");
        assert_eq!(step.trees_grown, response.report.server_trees_grown, "batch {batch_no}");
        delta_settled += response.report.server_settled;
        delta_trees += response.report.server_trees_grown;
        prev_stats = stats;
    }

    // Global accounting: 10k obfuscated queries served, and the per-batch
    // deltas recompose exactly to the cumulative fleet counters.
    let total = svc.backend().stats();
    assert_eq!(total.obfuscated_queries, (BATCHES * BATCH_SIZE) as u64);
    assert_eq!(total.search.settled, delta_settled);
    assert_eq!(total.trees_grown, delta_trees);
    // Work actually spread beyond one shard: with one shared queue and
    // 100-unit batches, a single shard hogging everything means the pool
    // never ran.
    let busy_shards = svc.backend().load_per_shard().iter().filter(|&&p| p > 0).count();
    assert!(
        busy_shards > 1,
        "work never left the first shard: {:?}",
        svc.backend().load_per_shard()
    );
}

//! E14 — worker-pool execution: server throughput scaling (extends §V).
//!
//! The paper's server cost model (§V) prices every obfuscated query as
//! MSMD search work; queries are mutually independent, so the fleet-wide
//! cost is embarrassingly parallel across shards. This experiment drives
//! identical batch streams through one `OpaqueService` per
//! [`ExecutionPolicy`] — `Sequential` and `WorkerPool{2,4}` over a
//! four-shard fleet on the geometric map — and reports wall time,
//! pair throughput, and speedup.
//!
//! Two claims, checked on every run:
//!
//! * **determinism** — every batch's `BatchReport` is byte-identical
//!   across execution policies (the lattice oracle's guarantee,
//!   re-proven here at bench scale);
//! * **scaling** — with ≥ 4 hardware threads at bench scale, 4 workers
//!   deliver ≥ 1.5× the sequential throughput. The scaling assertion is
//!   necessarily gated on `std::thread::available_parallelism()`: on a
//!   single-core host the pool degrades to sequential-with-overhead and
//!   no amount of software can manufacture parallel speedup.

use crate::setup::{Measured, Scale, drive, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::{ExecutionPolicy, ObfuscationMode, ServiceBuilder};
use roadnet::generators::NetworkClass;
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

const SHARDS: usize = 4;

/// The four-shard fleet under one execution policy.
fn fleet(g: &roadnet::RoadNetwork, execution: ExecutionPolicy) -> ServiceBuilder {
    ServiceBuilder::new()
        .map(g.clone())
        .seed(0xE14)
        .shards(SHARDS)
        .sharing_policy(pathsearch::SharingPolicy::PerSource)
        // Independent mode: one obfuscated query per request keeps the
        // shared work queue full for every batch.
        .obfuscation_mode(ObfuscationMode::Independent)
        .execution_policy(execution)
}

/// Run E14.
pub fn run(scale: &Scale) -> ExperimentTable {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut t = ExperimentTable::new(
        "E14",
        "worker-pool execution: throughput scaling on the shard fleet",
        "parallel deployment of the server cost model (§V) with proven determinism",
        &["execution", "threads", "batches", "pairs", "ms/batch", "pairs/s", "speedup"],
    );
    let (g, idx) = network_with_index(NetworkClass::Geometric, scale);
    t.note(format!(
        "geometric map, {} nodes, {SHARDS} shards, {hw} hardware threads",
        g.num_nodes()
    ));

    // A fixed stream of batches, reused verbatim for every policy, so
    // identically-seeded services see identical work.
    let reps = if scale.network_nodes >= 2_000 { 6 } else { 3 };
    let batches: Vec<Vec<opaque::ClientRequest>> = (0..reps)
        .map(|rep| {
            generate_requests(
                &g,
                &idx,
                &WorkloadConfig {
                    num_requests: scale.queries.max(2 * SHARDS),
                    queries: QueryDistribution::Uniform,
                    protection: ProtectionDistribution::Fixed { f_s: 4, f_t: 4 },
                    seed: 0xE140 + rep as u64,
                },
            )
        })
        .collect();

    let baseline = drive(fleet(&g, ExecutionPolicy::Sequential), &batches, |_, _| {});
    let speedup_at = |threads: usize, m: &Measured| {
        assert_eq!(
            m.report_json, baseline.report_json,
            "{threads}-thread pool: reports must be byte-identical to sequential"
        );
        baseline.elapsed_secs / m.elapsed_secs.max(f64::MIN_POSITIVE)
    };

    let row =
        |t: &mut ExperimentTable, name: String, threads: usize, m: &Measured, speedup: f64| {
            t.row(vec![
                name,
                threads.to_string(),
                m.report_json.len().to_string(),
                m.total_pairs.to_string(),
                f3(m.elapsed_secs * 1e3 / m.report_json.len() as f64),
                f3(m.total_pairs as f64 / m.elapsed_secs.max(f64::MIN_POSITIVE)),
                f3(speedup),
            ]);
        };
    row(&mut t, "sequential".to_string(), 1, &baseline, 1.0);

    let mut speedup4 = None;
    for threads in [2usize, 4] {
        let m = drive(fleet(&g, ExecutionPolicy::WorkerPool { threads }), &batches, |_, _| {});
        let s = speedup_at(threads, &m);
        if threads == 4 {
            speedup4 = Some(s);
        }
        row(&mut t, format!("pool({threads})"), threads, &m, s);
    }

    // The scaling claim, where the hardware can express it.
    let bench_scale = scale.network_nodes >= 2_000;
    let speedup4 = speedup4.expect("4-thread row measured");
    if hw >= 4 && bench_scale {
        assert!(
            speedup4 >= 1.5,
            "4 workers on {hw} hardware threads must reach >= 1.5x sequential \
             throughput at bench scale, got {speedup4:.2}x"
        );
        t.note(format!("scaling claim holds: {speedup4:.2}x >= 1.5x at 4 threads"));
    } else {
        t.note(format!(
            "scaling assertion skipped ({} hardware threads, bench_scale={bench_scale}); \
             determinism still verified on every batch",
            hw
        ));
    }
    t.metric("trees_grown", baseline.trees_grown as f64);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_quick_scale_with_byte_identical_reports() {
        // run() itself asserts report equality for every batch and
        // policy; the speedup claim is hardware-gated inside.
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 3, "sequential + pool(2) + pool(4)");
        for row in &t.rows {
            let pairs: u64 = row[3].parse().unwrap();
            assert!(pairs > 0, "every policy evaluated real pairs");
        }
        // All policies did exactly the same work.
        assert_eq!(t.rows[0][3], t.rows[1][3]);
        assert_eq!(t.rows[0][3], t.rows[2][3]);
    }
}

//! E10 — end-to-end scaling of the OPAQUE deployment.
//!
//! The short paper never reports absolute throughput; this experiment
//! characterizes the reproduction: end-to-end batch latency (obfuscation +
//! server + filter) across network sizes, and how the obfuscator's own
//! overhead compares with the server work it saves. Wall-clock numbers are
//! environment-specific; the *shape* (near-linear growth with settled
//! nodes, obfuscator ≪ server) is the reproducible claim.

use crate::setup::Scale;
use crate::table::{ExperimentTable, f3};
use opaque::{ClusteringConfig, FakeSelection, ObfuscationMode, Obfuscator, ServiceBuilder};
use pathsearch::SharingPolicy;
use roadnet::SpatialIndex;
use roadnet::generators::NetworkClass;
use std::time::Instant;
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

/// Run E10.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E10",
        "end-to-end scaling with network size",
        "deployment characterization (no paper counterpart)",
        &[
            "nodes",
            "clients",
            "obfuscate ms",
            "serve+filter ms",
            "settled",
            "pairs",
            "wire KB",
            "mean breach",
        ],
    );
    let sizes = [scale.network_nodes / 4, scale.network_nodes, scale.network_nodes * 4];
    let k = 24usize;

    for nodes in sizes {
        let g = NetworkClass::Geometric.generate(nodes.max(64), 0xE10).expect("valid network");
        let idx = SpatialIndex::build(&g);
        let cfg = WorkloadConfig {
            num_requests: k,
            queries: QueryDistribution::Hotspot { hotspots: 4, exponent: 1.0, spread: 0.08 },
            protection: ProtectionDistribution::Fixed { f_s: 4, f_t: 4 },
            seed: 0xE10,
        };
        let requests = generate_requests(&g, &idx, &cfg);

        // Obfuscation timed separately from serving: the trusted middlebox
        // must stay cheap relative to the server work it orchestrates.
        let mut ob = Obfuscator::new(g.clone(), FakeSelection::default_ring(), 0xE10);
        let t0 = Instant::now();
        let units = ob
            .obfuscate_batch(
                &requests,
                ObfuscationMode::SharedClustered(ClusteringConfig::default()),
            )
            .expect("pipeline succeeds");
        let obfuscate_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut svc = ServiceBuilder::new()
            .map(g.clone())
            .fake_selection(FakeSelection::default_ring())
            .seed(0xE10)
            .sharing_policy(SharingPolicy::PerSource)
            .obfuscation_mode(ObfuscationMode::SharedClustered(ClusteringConfig::default()))
            .build()
            .expect("valid service configuration");
        let t1 = Instant::now();
        let report = svc.process_batch(&requests).expect("pipeline succeeds").report;
        let serve_ms = (t1.elapsed().as_secs_f64() * 1e3 - obfuscate_ms).max(0.0);

        let _ = units; // the timed artifact; contents already validated elsewhere
        t.row(vec![
            g.num_nodes().to_string(),
            k.to_string(),
            f3(obfuscate_ms),
            f3(serve_ms),
            report.server_settled.to_string(),
            report.total_pairs.to_string(),
            f3(report.traffic.total_bytes() as f64 / 1024.0),
            f3(report.mean_breach()),
        ]);
    }
    t.note("wall-clock values are machine-specific; settled/pairs are deterministic per seed");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_settled_work_grows_with_network_size() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 3);
        let settled: Vec<f64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(settled[2] > settled[0], "bigger networks mean bigger search trees: {settled:?}");
    }

    #[test]
    fn e10_quick_table_is_pinned() {
        // Every column but the two wall-clock ones is deterministic: nodes,
        // clients, settled, pairs, wire KB (all four hops, counted by
        // `wire_size`) and mean breach.
        let t = run(&Scale::quick());
        let rows: Vec<String> =
            t.rows.iter().map(|r| [0, 1, 4, 5, 6, 7].map(|c| r[c].as_str()).join(" ")).collect();
        assert_eq!(
            rows,
            [
                "100 24 2700 163 15.28 0.0512",
                "400 24 10765 192 24.22 0.0486",
                "1600 24 43067 202 43.54 0.0455",
            ]
        );
    }
}

//! E5 — independent vs shared obfuscated path queries (Figures 3 and 4,
//! §III-C).
//!
//! The paper's central trade-off: independent obfuscation gives each client
//! its own fakes (cost grows linearly with clients), shared obfuscation
//! reuses the *other clients'* true endpoints as cover (fewer fakes, fewer
//! pairs, and — because |S| and |T| grow with the batch — a *better* breach
//! probability). Sweeps batch size under both modes plus the clustered
//! middle ground.

use crate::setup::{Scale, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::{ClusteringConfig, FakeSelection, ObfuscationMode, ServiceBuilder};
use pathsearch::SharingPolicy;
use roadnet::generators::NetworkClass;
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

/// Run E5.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E5",
        "independent vs shared obfuscation",
        "Figure 3 vs Figure 4 / §III-C",
        &["clients", "mode", "units", "pairs", "fakes", "settled", "mean breach", "redundancy"],
    );
    let (g, idx) = network_with_index(NetworkClass::Grid, scale);

    for k in [1usize, 2, 4, 8, 16] {
        let cfg = WorkloadConfig {
            num_requests: k,
            queries: QueryDistribution::Hotspot { hotspots: 3, exponent: 1.0, spread: 0.08 },
            protection: ProtectionDistribution::Fixed { f_s: 4, f_t: 4 },
            seed: 0xE5 ^ k as u64,
        };
        let requests = generate_requests(&g, &idx, &cfg);

        for mode in [
            ObfuscationMode::Independent,
            ObfuscationMode::SharedClustered(ClusteringConfig::default()),
            ObfuscationMode::SharedGlobal,
        ] {
            let mut svc = ServiceBuilder::new()
                .map(g.clone())
                .fake_selection(FakeSelection::default_ring())
                .seed(0xE5)
                .sharing_policy(SharingPolicy::PerSource)
                .obfuscation_mode(mode)
                .build()
                .expect("valid service configuration");
            let response = svc.process_batch(&requests).expect("pipeline succeeds");
            let report = response.report;
            assert_eq!(response.results.len(), k, "every client must be answered");
            t.row(vec![
                k.to_string(),
                mode.to_string(),
                report.num_units.to_string(),
                report.total_pairs.to_string(),
                report.fakes_added.to_string(),
                report.server_settled.to_string(),
                f3(report.mean_breach()),
                f3(report.redundancy_ratio()),
            ]);
        }
    }
    t.note("shared modes add fewer fakes and reach lower breach probability as the batch grows");
    t.note("redundancy = candidate path volume / delivered path volume (§II's naive-obfuscation waste)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_shared_dominates_independent_at_scale() {
        let t = run(&Scale::quick());
        // Pick the k=8 block.
        let rows: Vec<_> = t.rows.iter().filter(|r| r[0] == "8").collect();
        assert_eq!(rows.len(), 3);
        let indep = rows.iter().find(|r| r[1] == "independent").unwrap();
        let shared = rows.iter().find(|r| r[1] == "shared-global").unwrap();
        let indep_fakes: u64 = indep[4].parse().unwrap();
        let shared_fakes: u64 = shared[4].parse().unwrap();
        assert!(shared_fakes < indep_fakes);
        let indep_breach: f64 = indep[6].parse().unwrap();
        let shared_breach: f64 = shared[6].parse().unwrap();
        assert!(shared_breach <= indep_breach + 1e-12);
    }

    #[test]
    fn e5_single_client_modes_coincide() {
        let t = run(&Scale::quick());
        let rows: Vec<_> = t.rows.iter().filter(|r| r[0] == "1").collect();
        // With one client, shared-global degenerates to independent: same
        // pair count and breach.
        let indep = rows.iter().find(|r| r[1] == "independent").unwrap();
        let shared = rows.iter().find(|r| r[1] == "shared-global").unwrap();
        assert_eq!(indep[3], shared[3]);
        assert_eq!(indep[6], shared[6]);
    }

    #[test]
    fn e5_quick_table_is_pinned() {
        // Every column is deterministic — counts, settled nodes, breach and
        // redundancy — and the settled column comes from plain trees, so a
        // change to a plain tree's counters shows up here.
        let t = run(&Scale::quick());
        let rows: Vec<String> = t.rows.iter().map(|r| r.join(" ")).collect();
        assert_eq!(
            rows,
            [
                "1 independent 1 16 6 1151 0.0625 8.00",
                "1 shared-clustered 1 16 6 1384 0.0625 9.64",
                "1 shared-global 1 16 6 1384 0.0625 9.64",
                "2 independent 2 32 12 2312 0.0625 16.33",
                "2 shared-clustered 1 16 4 1323 0.0625 8.42",
                "2 shared-global 1 16 4 1323 0.0625 8.42",
                "4 independent 4 64 24 3601 0.0625 17.55",
                "4 shared-clustered 2 32 8 1887 0.0625 8.90",
                "4 shared-global 1 16 0 960 0.0625 4.65",
                "8 independent 8 128 48 8045 0.0625 14.59",
                "8 shared-clustered 4 64 16 3229 0.0625 6.85",
                "8 shared-global 1 56 0 2120 0.0179 7.64",
                "16 independent 16 256 96 13582 0.0625 14.14",
                "16 shared-clustered 6 116 20 5819 0.0495 7.34",
                "16 shared-global 1 224 0 5643 0.0045 18.15",
            ]
        );
    }
}

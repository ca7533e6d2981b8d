//! E8 — query clustering quality (§IV obfuscation pipeline, step 1).
//!
//! Shared obfuscation needs compatible queries: Lemma 1 charges every
//! source a tree reaching the *farthest* target, so a global shared query
//! over spatially scattered clients forces huge trees. Clustering first
//! (the paper's "path query clustering") should recover most of the
//! fake-sharing benefit without the scatter penalty. Measured across
//! workload localities.

use crate::setup::{Scale, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::{ClusteringConfig, FakeSelection, ObfuscationMode, ServiceBuilder};
use pathsearch::SharingPolicy;
use roadnet::generators::NetworkClass;
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

/// Run E8.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E8",
        "query clustering: scattered vs clustered vs global sharing",
        "§IV path query clustering step",
        &["workload", "mode", "units", "pairs", "settled", "settled/client", "mean breach"],
    );
    let (g, idx) = network_with_index(NetworkClass::Grid, scale);
    let k = 24usize;

    let workloads = [
        ("uniform", QueryDistribution::Uniform),
        ("hotspot", QueryDistribution::Hotspot { hotspots: 3, exponent: 1.0, spread: 0.06 }),
        ("commuter", QueryDistribution::Commuter { center_radius: 0.08 }),
    ];

    for (wname, dist) in workloads {
        let cfg = WorkloadConfig {
            num_requests: k,
            queries: dist,
            protection: ProtectionDistribution::Fixed { f_s: 4, f_t: 4 },
            seed: 0xE8,
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
                .seed(0xE8)
                .sharing_policy(SharingPolicy::PerSource)
                .obfuscation_mode(mode)
                .build()
                .expect("valid service configuration");
            let report = svc.process_batch(&requests).expect("pipeline succeeds").report;
            t.row(vec![
                wname.into(),
                mode.to_string(),
                report.num_units.to_string(),
                report.total_pairs.to_string(),
                report.server_settled.to_string(),
                f3(report.server_settled as f64 / k as f64),
                f3(report.mean_breach()),
            ]);
        }
    }
    t.note("clustered sharing answers with far fewer pairs than independent on every workload");
    t.note("on localized workloads (hotspot/commuter) clustering recovers most of global sharing's savings with smaller trees");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_clustered_sharing_cuts_cost_on_localized_workloads() {
        let t = run(&Scale::quick());
        let row = |w: &str, m: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == w && r[1] == m)
                .unwrap_or_else(|| panic!("row {w}/{m}"))
                .clone()
        };
        // Clustered sharing always answers with fewer pairs than independent
        // obfuscation (fakes are amortized across cluster members)…
        for w in ["uniform", "hotspot", "commuter"] {
            let ind: f64 = row(w, "independent")[3].parse().unwrap();
            let clu: f64 = row(w, "shared-clustered")[3].parse().unwrap();
            assert!(clu <= ind, "{w}: clustered pairs {clu} vs independent {ind}");
        }
        // …and on a localized (hotspot) workload it also settles fewer nodes
        // than independent obfuscation: fewer trees over the same region.
        let ind: f64 = row("hotspot", "independent")[4].parse().unwrap();
        let clu: f64 = row("hotspot", "shared-clustered")[4].parse().unwrap();
        assert!(clu <= ind, "hotspot: clustered settled {clu} vs independent {ind}");
    }

    #[test]
    fn e8_breach_never_worse_under_sharing() {
        let t = run(&Scale::quick());
        for w in ["uniform", "hotspot", "commuter"] {
            let breach = |m: &str| -> f64 {
                t.rows
                    .iter()
                    .find(|r| r[0] == w && r[1] == m)
                    .unwrap_or_else(|| panic!("row {w}/{m}"))[6]
                    .parse()
                    .unwrap()
            };
            assert!(breach("shared-clustered") <= breach("independent") + 1e-9, "{w}");
            assert!(breach("shared-global") <= breach("shared-clustered") + 1e-9, "{w}");
        }
    }

    #[test]
    fn e8_quick_table_is_pinned() {
        // Every column is deterministic — counts, settled nodes and breach —
        // and the settled columns come from plain trees, so a change to a
        // plain tree's counters shows up here.
        let t = run(&Scale::quick());
        let rows: Vec<String> = t.rows.iter().map(|r| r.join(" ")).collect();
        assert_eq!(
            rows,
            [
                "uniform independent 24 384 27491 1145 0.0625",
                "uniform shared-clustered 13 241 15013 625.54 0.0502",
                "uniform shared-global 1 576 9265 386.04 0.0017",
                "hotspot independent 24 384 26062 1086 0.0625",
                "hotspot shared-clustered 7 132 8981 374.21 0.0484",
                "hotspot shared-global 1 276 8140 339.17 0.0036",
                "commuter independent 24 384 27075 1128 0.0625",
                "commuter shared-clustered 7 165 7772 323.83 0.0398",
                "commuter shared-global 1 330 4325 180.21 0.0030",
            ]
        );
    }
}

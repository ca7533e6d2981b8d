//! E4 — Lemma 1 cost-model validation (§III-B).
//!
//! Lemma 1 predicts the processing cost of an obfuscated query as
//! `O(Σ_{s∈S} max_{t∈T} ‖s,t‖²)`. The harness calibrates the constant on
//! single-pair queries, then sweeps `|S| × |T|` and compares the
//! prediction against the settled-node count of the MSMD processor —
//! alongside the naive `|S|·|T|`-searches cost the sharing avoids.

use crate::setup::{Scale, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::{ClientId, ClientRequest, FakeSelection, Obfuscator, PathQuery, ProtectionSettings};
use pathsearch::{CostModel, SharingPolicy, msmd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::NodeId;
use roadnet::generators::NetworkClass;

/// Run E4.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E4",
        "Lemma 1: predicted vs measured obfuscated-query cost",
        "Lemma 1 / §III-B cost analysis",
        &[
            "|S|",
            "|T|",
            "predicted settled",
            "measured (per-source)",
            "rel err",
            "naive settled",
            "sharing speedup",
        ],
    );
    let (g, _) = network_with_index(NetworkClass::Geometric, scale);
    let n = g.num_nodes() as u32;
    let mut rng = StdRng::seed_from_u64(0xE4);
    let model = CostModel::calibrate(&g, scale.queries.max(30), &mut rng);
    t.note(format!(
        "calibrated coeff={} settled/dist², r²={} on {} samples",
        f3(model.coeff),
        f3(model.r_squared),
        model.samples
    ));

    let ob = Obfuscator::new(g.clone(), FakeSelection::default_ring(), 0xE4);
    let configs = [(1u32, 1u32), (1, 4), (4, 1), (2, 2), (4, 4), (8, 2), (2, 8), (8, 8)];
    let repeats = (scale.queries / 4).max(2);

    for (f_s, f_t) in configs {
        let mut predicted = 0.0;
        let mut measured = 0u64;
        let mut naive = 0u64;
        for _ in 0..repeats {
            let (s, d) = loop {
                let s = NodeId(rng.gen_range(0..n));
                let d = NodeId(rng.gen_range(0..n));
                if s != d {
                    break (s, d);
                }
            };
            let req = ClientRequest::new(
                ClientId(0),
                PathQuery::new(s, d),
                ProtectionSettings::new(f_s, f_t).expect("positive"),
            );
            let unit = ob.obfuscate_independent(&req).expect("map large enough");
            let shared =
                msmd(&g, unit.query.sources(), unit.query.targets(), SharingPolicy::PerSource);
            measured += shared.stats.settled;
            let naive_r = msmd(&g, unit.query.sources(), unit.query.targets(), SharingPolicy::None);
            naive += naive_r.stats.settled;

            // Lemma 1's input: per source, the max *network* distance to any
            // target — read off the shared result itself.
            let max_dists: Vec<f64> = (0..unit.query.sources().len())
                .map(|i| {
                    (0..unit.query.targets().len())
                        .filter_map(|j| shared.distance(i, j))
                        .fold(0.0, f64::max)
                })
                .collect();
            predicted += model.predict_obfuscated(&max_dists);
        }
        let meas = measured as f64 / repeats as f64;
        let pred = predicted / repeats as f64;
        let nai = naive as f64 / repeats as f64;
        t.row(vec![
            f_s.to_string(),
            f_t.to_string(),
            f3(pred),
            f3(meas),
            f3((pred - meas).abs() / meas),
            f3(nai),
            f3(nai / meas),
        ]);
    }
    t.note("per-source sharing cost grows with |S| but is nearly flat in |T| (the Lemma 1 observation)");
    t.note("`sharing speedup` = naive |S|·|T| searches vs per-source multi-destination trees");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_prediction_is_in_the_right_ballpark() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 8);
        for row in &t.rows {
            let rel: f64 = row[4].parse().unwrap();
            assert!(rel < 2.5, "Lemma 1 prediction off by {rel}x: {row:?}");
        }
    }

    #[test]
    fn e4_sharing_speedup_grows_with_targets() {
        let t = run(&Scale::quick());
        let find = |s: &str, d: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == s && r[1] == d)
                .unwrap_or_else(|| panic!("row ({s},{d})"))
                .clone()
        };
        let narrow: f64 = find("1", "1")[6].parse().unwrap();
        let wide: f64 = find("2", "8")[6].parse().unwrap();
        assert!(wide > narrow, "speedup should grow with |T|: {narrow} vs {wide}");
        // With one target there is nothing to share.
        assert!((narrow - 1.0).abs() < 0.2, "1x1 speedup should be ~1, got {narrow}");
    }

    #[test]
    fn e4_quick_table_is_pinned() {
        // Every column is deterministic — settled counts and their ratios — and
        // the settled columns come from plain trees, so a change to a plain
        // tree's counters shows up here.
        let t = run(&Scale::quick());
        let rows: Vec<String> = t.rows.iter().map(|r| r.join(" ")).collect();
        assert_eq!(
            rows,
            [
                "1 1 396.33 190.00 1.09 190.00 1.00",
                "1 4 696.10 369.00 0.8865 684.00 1.85",
                "4 1 1261 1272 0.0083 1272 1.00",
                "2 2 1152 724.50 0.5904 1116 1.54",
                "4 4 1403 1396 0.0045 3790 2.71",
                "8 2 2963 2642 0.1213 3433 1.30",
                "2 8 691.55 676.50 0.0222 2648 3.91",
                "8 8 1193 1782 0.3308 8524 4.78",
            ]
        );
    }
}

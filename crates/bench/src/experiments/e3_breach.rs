//! E3 — breach probability validation (Definition 2).
//!
//! The paper's protection guarantee is analytic: `1/(|S|·|T|)`. This
//! experiment formulates obfuscated queries across the (f_S, f_T) grid and
//! attacks each one with the uniform-prior adversary, checking the
//! Monte-Carlo breach rate against the formula.

use crate::setup::{Scale, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::attack::uniform_attack;
use opaque::{ClientId, ClientRequest, FakeSelection, Obfuscator, PathQuery, ProtectionSettings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::NodeId;
use roadnet::generators::NetworkClass;

/// Run E3.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E3",
        "breach probability: analytic vs simulated adversary",
        "Definition 2",
        &["f_S", "f_T", "analytic", "empirical", "abs err"],
    );
    let (g, _) = network_with_index(NetworkClass::Geometric, scale);
    let n = g.num_nodes() as u32;
    let ob = Obfuscator::new(g.clone(), FakeSelection::default_ring(), 0xE3);
    let mut rng = StdRng::seed_from_u64(0xE3);

    for f_s in [1u32, 2, 3, 4, 6, 8] {
        for f_t in [1u32, 2, 4, 8] {
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
            let rep = uniform_attack(&unit, ClientId(0), scale.trials, &mut rng);
            t.row(vec![
                f_s.to_string(),
                f_t.to_string(),
                f3(rep.analytic),
                f3(rep.empirical),
                f3((rep.analytic - rep.empirical).abs()),
            ]);
        }
    }
    t.note("empirical breach must track 1/(f_S·f_T) within Monte-Carlo noise");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_empirical_tracks_analytic() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 24);
        for row in &t.rows {
            let analytic: f64 = row[2].parse().unwrap();
            let err: f64 = row[4].parse().unwrap();
            // 20k trials → standard error well under 0.01 for p ≤ 1.
            assert!(err < 0.02, "breach mismatch: {row:?}");
            let f_s: f64 = row[0].parse().unwrap();
            let f_t: f64 = row[1].parse().unwrap();
            // `analytic` round-tripped through 4-decimal formatting.
            assert!((analytic - 1.0 / (f_s * f_t)).abs() < 1e-3);
        }
    }
}

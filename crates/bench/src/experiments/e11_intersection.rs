//! E11 — the repeated-query intersection attack and the keyed-fakes
//! defense (extension; motivated by §IV's "satisfied requests are
//! immediately discarded … for sake of security").
//!
//! Definition 2's guarantee is per-query. A client who re-issues the same
//! request — a retry, or directions checked again the next day — and
//! receives freshly drawn fakes each time loses it: a server that links the
//! rounds intersects the represented pair sets and watches everything but
//! the true pair drop out. The defense is that independent fakes are keyed
//! by the obfuscator's seed and the request, so one obfuscator re-sends the
//! same `Q(S,T)`. The "fresh" arm models the undefended client with a new
//! obfuscator, under a new seed, for every round. This experiment measures
//! the breach trajectory of both arms, for two protection levels and two
//! fake-selection strategies.

use crate::setup::{Scale, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::attack::Posterior;
use opaque::{ClientId, ClientRequest, FakeSelection, Obfuscator, PathQuery, ProtectionSettings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::NodeId;
use roadnet::generators::NetworkClass;

/// Run E11.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E11",
        "repeated-query intersection attack vs keyed fakes",
        "extension of Definition 2 across repeated queries",
        &[
            "strategy",
            "f",
            "defense",
            "round-1 breach",
            "round-3 breach",
            "round-6 breach",
            "pinpointed",
        ],
    );
    let (g, _) = network_with_index(NetworkClass::Grid, scale);
    let n = g.num_nodes() as u32;
    let mut rng = StdRng::seed_from_u64(0xE11);
    let rounds = 6usize;
    let repeats = (scale.queries / 4).max(4);

    for strategy in [FakeSelection::Uniform, FakeSelection::default_ring()] {
        // One obfuscator answers every keyed round.
        let keyed_ob = Obfuscator::new(g.clone(), strategy, 0xE11);
        for f in [3u32, 6] {
            for keyed in [false, true] {
                let mut breach_at = [0.0f64; 3]; // rounds 1, 3, 6
                let mut pinpointed = 0usize;
                for rep in 0..repeats {
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
                        ProtectionSettings::new(f, f).expect("positive"),
                    );
                    let units: Vec<_> = (0..rounds)
                        .map(|round| {
                            if keyed {
                                keyed_ob.obfuscate_independent(&req)
                            } else {
                                let seed = 0xE11 ^ (rep * rounds + round + 1) as u64;
                                Obfuscator::new(g.clone(), strategy, seed)
                                    .obfuscate_independent(&req)
                            }
                            .expect("map large enough")
                        })
                        .collect();
                    let mut post = Posterior::new(&units[0], ClientId(0));
                    for (round, unit) in units.iter().enumerate() {
                        post = post.intersect(&unit.query);
                        if let Some(slot) = [1, 3, 6].iter().position(|&r| r == round + 1) {
                            breach_at[slot] += post.breach().truth_mass;
                        }
                    }
                    pinpointed += usize::from(post.breach().candidates == 1);
                }
                let k = repeats as f64;
                t.row(vec![
                    strategy.name().into(),
                    f.to_string(),
                    if keyed { "keyed" } else { "fresh" }.into(),
                    f3(breach_at[0] / k),
                    f3(breach_at[1] / k),
                    f3(breach_at[2] / k),
                    f3(pinpointed as f64 / k),
                ]);
            }
        }
    }
    t.note(
        "fresh: a new obfuscator seed every round; breach decays toward 1.0 as rounds accumulate \
         (true pair always survives)",
    );
    t.note(
        "keyed: fakes are a function of (seed, query, protection); every round is identical, \
         breach stays at 1/f² indefinitely",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_defense_holds_attack_breaches() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 8);
        for row in &t.rows {
            let round1: f64 = row[3].parse().unwrap();
            let round6: f64 = row[5].parse().unwrap();
            let pinpointed: f64 = row[6].parse().unwrap();
            let f: f64 = row[1].parse().unwrap();
            let nominal = 1.0 / (f * f);
            assert!((round1 - nominal).abs() < 1e-3, "round 1 must match Definition 2: {row:?}");
            if row[2] == "keyed" {
                assert!((round6 - nominal).abs() < 1e-3, "defense failed: {row:?}");
                assert_eq!(pinpointed, 0.0, "defense must never pinpoint: {row:?}");
            } else {
                assert!(round6 > nominal, "attack made no progress: {row:?}");
            }
        }
        // Uniform fresh fakes at f=3 on a 400-node map: six rounds should
        // pinpoint nearly always.
        let uniform_fresh_f3 = t
            .rows
            .iter()
            .find(|r| r[0] == "uniform" && r[1] == "3" && r[2] == "fresh")
            .expect("row exists");
        let pin: f64 = uniform_fresh_f3[6].parse().unwrap();
        assert!(pin > 0.5, "expected frequent pinpointing, got {pin}");
    }

    #[test]
    fn e11_quick_table_is_pinned() {
        // Every column is deterministic: the mean breach over the surviving
        // pairs after rounds 1, 3 and 6, and the share of repeats pinpointed.
        let t = run(&Scale::quick());
        let rows: Vec<String> = t.rows.iter().map(|r| r.join(" ")).collect();
        assert_eq!(
            rows,
            [
                "uniform 3 fresh 0.1111 1.00 1.00 1.00",
                "uniform 3 keyed 0.1111 0.1111 0.1111 0",
                "uniform 6 fresh 0.0278 1.00 1.00 1.00",
                "uniform 6 keyed 0.0278 0.0278 0.0278 0",
                "ring 3 fresh 0.1111 1.00 1.00 1.00",
                "ring 3 keyed 0.1111 0.1111 0.1111 0",
                "ring 6 fresh 0.0278 1.00 1.00 1.00",
                "ring 6 keyed 0.0278 0.0278 0.0278 0",
            ]
        );
    }
}

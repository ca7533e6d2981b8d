//! Adversary models quantifying what OPAQUE actually protects.
//!
//! Definition 2's breach probability assumes an adversary that picks
//! uniformly among the `|S|×|T|` represented pairs. This module implements
//! that adversary (to validate the formula empirically, E3) plus the two
//! stronger adversaries the paper's threat discussion motivates:
//!
//! * the **background-knowledge adversary** (§II: "with the help of some
//!   public information such as voter registration list and yellow pages"),
//!   which weighs endpoints by plausibility before guessing;
//! * the **collusion attack** (abstract: shared obfuscated queries "enhance
//!   privacy protection against collusion attacks" only up to a point),
//!   where clients embedded in the same shared query pool their knowledge
//!   to unmask a victim.

use crate::metrics::{effective_anonymity, endpoint_posterior, map_success_probability};
use crate::obfuscator::ObfuscationUnit;
use crate::query::{ClientId, PathQuery};
use rand::Rng;
use rand::rngs::StdRng;
use roadnet::NodeId;
use std::collections::HashSet;

/// Result of a Monte-Carlo attack simulation against one victim.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct AttackReport {
    /// Closed-form success probability of the modelled adversary.
    pub analytic: f64,
    /// Fraction of simulation trials in which the adversary's guess was
    /// exactly the victim's true query.
    pub empirical: f64,
    /// Number of trials behind `empirical`.
    pub trials: u32,
}

fn victim_query(unit: &ObfuscationUnit, victim: ClientId) -> PathQuery {
    unit.requests
        .iter()
        .find(|r| r.client == victim)
        .unwrap_or_else(|| panic!("victim {victim:?} not carried by this unit"))
        .query
}

/// The Definition 2 adversary: guess one of the `|S|×|T|` pairs uniformly.
///
/// # Panics
/// Panics if `victim` is not one of the unit's clients or `trials` is 0.
pub fn uniform_attack(
    unit: &ObfuscationUnit,
    victim: ClientId,
    trials: u32,
    rng: &mut StdRng,
) -> AttackReport {
    assert!(trials > 0, "need at least one trial");
    let truth = victim_query(unit, victim);
    let sources = unit.query.sources();
    let targets = unit.query.targets();
    let mut hits = 0u32;
    for _ in 0..trials {
        let s = sources[rng.gen_range(0..sources.len())];
        let t = targets[rng.gen_range(0..targets.len())];
        if s == truth.source && t == truth.destination {
            hits += 1;
        }
    }
    AttackReport {
        analytic: unit.query.breach_probability(),
        empirical: hits as f64 / trials as f64,
        trials,
    }
}

/// What the background-knowledge adversary learns from one unit.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct InformedAttackReport {
    /// Success probability of the adversary's best (MAP) guess.
    pub map_success: f64,
    /// Posterior probability the adversary assigns to the victim's true
    /// pair.
    pub victim_posterior: f64,
    /// Effective anonymity-set size `2^H` of the posterior.
    pub effective_anonymity: f64,
    /// The nominal `|S|×|T|` the posterior is defined over.
    pub nominal_pairs: usize,
}

/// The background-knowledge adversary: endpoint plausibility weights induce
/// a posterior `P(s,t) ∝ w(s)·w(t)` over represented pairs.
///
/// `weights[n]` is the plausibility of node `n` (e.g. population density);
/// it must cover every node id appearing in the unit.
pub fn informed_attack(
    unit: &ObfuscationUnit,
    victim: ClientId,
    weights: &[f64],
) -> InformedAttackReport {
    let truth = victim_query(unit, victim);
    let w = |n: NodeId| {
        assert!(n.index() < weights.len(), "weight missing for node {n}");
        weights[n.index()]
    };
    let source_w: Vec<f64> = unit.query.sources().iter().map(|&s| w(s)).collect();
    let target_w: Vec<f64> = unit.query.targets().iter().map(|&t| w(t)).collect();
    let posterior = endpoint_posterior(&source_w, &target_w);

    let i = unit.query.source_index(truth.source).expect("victim source embedded");
    let j = unit.query.target_index(truth.destination).expect("victim target embedded");
    let victim_posterior = posterior[i * unit.query.targets().len() + j];

    InformedAttackReport {
        map_success: map_success_probability(&posterior),
        victim_posterior,
        effective_anonymity: effective_anonymity(&posterior),
        nominal_pairs: unit.query.num_pairs(),
    }
}

/// Result of a collusion attack against a shared obfuscated query.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct CollusionReport {
    /// Number of colluding clients.
    pub colluders: usize,
    /// Source candidates left after removing everything colluders revealed.
    pub residual_sources: usize,
    /// Target candidates left after removal.
    pub residual_targets: usize,
    /// Analytic breach probability over the residual candidate set — 0 when
    /// the victim's pair was (wrongly) excluded because it shares an
    /// endpoint with a colluder.
    pub analytic: f64,
    /// Monte-Carlo success rate of the residual-uniform adversary.
    pub empirical: f64,
    /// Trials behind `empirical`.
    pub trials: u32,
}

/// The collusion attack: `colluders` ⊆ the unit's clients reveal their true
/// queries to the adversary, who removes every revealed endpoint from the
/// candidate sets and guesses uniformly over what remains.
///
/// If the victim shares an endpoint with a colluder, the adversary's
/// exclusion is wrong and the attack cannot succeed — modelled honestly
/// (the adversary does not know it failed).
///
/// # Panics
/// Panics if the victim is listed as a colluder, is not carried by the
/// unit, or `trials` is 0.
pub fn collusion_attack(
    unit: &ObfuscationUnit,
    victim: ClientId,
    colluders: &[ClientId],
    trials: u32,
    rng: &mut StdRng,
) -> CollusionReport {
    assert!(trials > 0, "need at least one trial");
    assert!(!colluders.contains(&victim), "the victim cannot collude against itself");
    let truth = victim_query(unit, victim);

    let colluder_set: HashSet<ClientId> = colluders.iter().copied().collect();
    let mut revealed_s: HashSet<NodeId> = HashSet::new();
    let mut revealed_t: HashSet<NodeId> = HashSet::new();
    for r in &unit.requests {
        if colluder_set.contains(&r.client) {
            revealed_s.insert(r.query.source);
            revealed_t.insert(r.query.destination);
        }
    }

    let residual_s: Vec<NodeId> =
        unit.query.sources().iter().copied().filter(|s| !revealed_s.contains(s)).collect();
    let residual_t: Vec<NodeId> =
        unit.query.targets().iter().copied().filter(|t| !revealed_t.contains(t)).collect();

    let victim_in_play =
        residual_s.contains(&truth.source) && residual_t.contains(&truth.destination);
    let analytic = if victim_in_play && !residual_s.is_empty() && !residual_t.is_empty() {
        1.0 / (residual_s.len() as f64 * residual_t.len() as f64)
    } else {
        0.0
    };

    let mut hits = 0u32;
    if !residual_s.is_empty() && !residual_t.is_empty() {
        for _ in 0..trials {
            let s = residual_s[rng.gen_range(0..residual_s.len())];
            let t = residual_t[rng.gen_range(0..residual_t.len())];
            if s == truth.source && t == truth.destination {
                hits += 1;
            }
        }
    }

    CollusionReport {
        colluders: colluders.len(),
        residual_sources: residual_s.len(),
        residual_targets: residual_t.len(),
        analytic,
        empirical: hits as f64 / trials as f64,
        trials,
    }
}

/// Result of an intersection attack over repeated obfuscations of the same
/// true query.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct IntersectionReport {
    /// Candidate pairs remaining after each observed round (starting with
    /// the first round's full `|S|·|T|`).
    pub candidates_per_round: Vec<usize>,
    /// Breach probability after the last round (`1 / candidates`), assuming
    /// a uniform guess over the surviving intersection.
    pub final_breach: f64,
    /// True when the intersection collapsed to exactly the victim's pair.
    pub pinpointed: bool,
}

/// The **intersection attack**: a client re-issues the same query over
/// time; the server links the resulting obfuscated queries and intersects
/// their represented pair sets. The true pair is in every set by
/// Definition 1, so it always survives — fresh random fakes rarely do.
///
/// Keyed independent fakes defend against it: one obfuscator re-sends the
/// same query every round (see [`crate::obfuscator`]), so the intersection
/// never shrinks.
///
/// # Panics
/// Panics if `units` is empty or the victim's query is not covered by all
/// units (the attack presumes the same underlying request each round).
pub fn intersection_attack(units: &[ObfuscationUnit], truth: &PathQuery) -> IntersectionReport {
    assert!(!units.is_empty(), "need at least one observed round");
    for (i, u) in units.iter().enumerate() {
        assert!(
            u.query.covers(truth),
            "round {i} does not cover the true query — not the same request"
        );
    }

    let mut survivors: HashSet<(NodeId, NodeId)> =
        units[0].query.represented_queries().map(|q| (q.source, q.destination)).collect();
    let mut candidates_per_round = vec![survivors.len()];
    for u in &units[1..] {
        let round: HashSet<(NodeId, NodeId)> =
            u.query.represented_queries().map(|q| (q.source, q.destination)).collect();
        // lint: allow(hash-iter) — retain with a pure membership
        // predicate: the surviving *set* is order-independent, and the
        // report reads only its size.
        survivors.retain(|pair| round.contains(pair));
        candidates_per_round.push(survivors.len());
    }
    debug_assert!(
        survivors.contains(&(truth.source, truth.destination)),
        "the true pair survives every intersection by Definition 1"
    );
    IntersectionReport {
        final_breach: 1.0 / survivors.len() as f64,
        pinpointed: survivors.len() == 1,
        candidates_per_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obfuscator::{FakeSelection, Obfuscator};
    use crate::query::{ClientRequest, ProtectionSettings};
    use rand::SeedableRng;
    use roadnet::generators::{GridConfig, grid_network};

    fn obfuscator() -> Obfuscator {
        let map =
            grid_network(&GridConfig { width: 20, height: 20, seed: 2, ..Default::default() })
                .unwrap();
        Obfuscator::new(map, FakeSelection::Uniform, 31)
    }

    fn request(i: u32, s: u32, t: u32, f: u32) -> ClientRequest {
        ClientRequest::new(
            ClientId(i),
            PathQuery::new(NodeId(s), NodeId(t)),
            ProtectionSettings::new(f, f).unwrap(),
        )
    }

    #[test]
    fn uniform_attack_matches_definition_2() {
        let ob = obfuscator();
        let r = request(0, 0, 399, 3);
        let unit = ob.obfuscate_independent(&r).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let report = uniform_attack(&unit, ClientId(0), 200_000, &mut rng);
        assert!((report.analytic - 1.0 / 9.0).abs() < 1e-12);
        assert!(
            (report.empirical - report.analytic).abs() < 0.01,
            "empirical {} vs analytic {}",
            report.empirical,
            report.analytic
        );
    }

    #[test]
    fn informed_attack_uniform_weights_equals_nominal() {
        let ob = obfuscator();
        let r = request(0, 0, 399, 4);
        let unit = ob.obfuscate_independent(&r).unwrap();
        let weights = vec![1.0; 400];
        let rep = informed_attack(&unit, ClientId(0), &weights);
        assert!((rep.map_success - 1.0 / 16.0).abs() < 1e-12);
        assert!((rep.victim_posterior - 1.0 / 16.0).abs() < 1e-12);
        assert!((rep.effective_anonymity - 16.0).abs() < 1e-6);
    }

    #[test]
    fn informed_attack_exploits_implausible_fakes() {
        let ob = obfuscator();
        let r = request(0, 0, 399, 4);
        let unit = ob.obfuscate_independent(&r).unwrap();
        // Adversary's background knowledge: only the true endpoints are
        // plausible (weight 100), fakes barely (weight 1).
        let mut weights = vec![1.0; 400];
        weights[0] = 100.0;
        weights[399] = 100.0;
        let rep = informed_attack(&unit, ClientId(0), &weights);
        assert!(rep.victim_posterior > 0.5, "posterior {}", rep.victim_posterior);
        assert!(rep.effective_anonymity < 4.0, "anonymity {}", rep.effective_anonymity);
        // The nominal guarantee is unchanged — that is the point.
        assert_eq!(rep.nominal_pairs, 16);
    }

    #[test]
    fn collusion_shrinks_the_anonymity_set() {
        let mut ob = obfuscator();
        let reqs = vec![request(0, 0, 399, 4), request(1, 21, 378, 4), request(2, 42, 357, 4)];
        let unit = ob.obfuscate_shared(&reqs).unwrap();
        let mut rng = StdRng::seed_from_u64(5);

        let none = collusion_attack(&unit, ClientId(0), &[], 100_000, &mut rng);
        let one = collusion_attack(&unit, ClientId(0), &[ClientId(1)], 100_000, &mut rng);
        let two =
            collusion_attack(&unit, ClientId(0), &[ClientId(1), ClientId(2)], 100_000, &mut rng);

        assert!((none.analytic - unit.query.breach_probability()).abs() < 1e-12);
        assert!(one.analytic > none.analytic);
        assert!(two.analytic > one.analytic);
        for rep in [none, one, two] {
            assert!(
                (rep.empirical - rep.analytic).abs() < 0.01,
                "empirical {} vs analytic {}",
                rep.empirical,
                rep.analytic
            );
        }
    }

    #[test]
    fn collusion_with_shared_endpoint_misleads_the_adversary() {
        let mut ob = obfuscator();
        // Victim and colluder share source node 0.
        let reqs = vec![request(0, 0, 399, 3), request(1, 0, 380, 3)];
        let unit = ob.obfuscate_shared(&reqs).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let rep = collusion_attack(&unit, ClientId(0), &[ClientId(1)], 10_000, &mut rng);
        // The colluder's revealed source removes the victim's source too.
        assert_eq!(rep.analytic, 0.0);
        assert_eq!(rep.empirical, 0.0);
    }

    #[test]
    fn independent_queries_are_immune_to_collusion() {
        // A colluder in a *different* unit reveals nothing about this one:
        // modelled by attacking an independent unit with zero colluders —
        // there is nobody to collude with inside the unit.
        let ob = obfuscator();
        let unit = ob.obfuscate_independent(&request(0, 0, 399, 3)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let rep = collusion_attack(&unit, ClientId(0), &[], 10_000, &mut rng);
        assert!((rep.analytic - unit.query.breach_probability()).abs() < 1e-12);
    }

    #[test]
    fn intersection_attack_breaches_fresh_fakes() {
        let map =
            grid_network(&GridConfig { width: 20, height: 20, seed: 2, ..Default::default() })
                .unwrap();
        let r = request(0, 0, 399, 5);
        // Fresh fakes: every round comes from an obfuscator with a new seed.
        let units: Vec<_> = (0..6)
            .map(|round| {
                Obfuscator::new(map.clone(), FakeSelection::Uniform, 31 + round)
                    .obfuscate_independent(&r)
                    .expect("map large enough")
            })
            .collect();
        let rep = intersection_attack(&units, &r.query);
        assert_eq!(rep.candidates_per_round[0], 25);
        // Candidates shrink monotonically…
        for w in rep.candidates_per_round.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // …and with uniform fakes on a 400-node map, six rounds pinpoint.
        assert!(rep.pinpointed, "survivors: {:?}", rep.candidates_per_round);
        assert_eq!(rep.final_breach, 1.0);
    }

    #[test]
    fn keyed_fakes_defeat_the_intersection_attack() {
        let ob = obfuscator();
        let r = request(0, 0, 399, 5);
        let units: Vec<_> = (0..10).map(|_| ob.obfuscate_independent(&r).expect("ok")).collect();
        let rep = intersection_attack(&units, &r.query);
        assert!(!rep.pinpointed);
        assert_eq!(rep.candidates_per_round.last(), Some(&25), "intersection never shrinks");
        assert!((rep.final_breach - 1.0 / 25.0).abs() < 1e-12);
        // All rounds are literally the same query.
        for u in &units[1..] {
            assert_eq!(u.query, units[0].query);
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn intersection_attack_requires_consistent_truth() {
        let ob = obfuscator();
        let a = ob.obfuscate_independent(&request(0, 0, 399, 3)).unwrap();
        let b = ob.obfuscate_independent(&request(0, 5, 390, 3)).unwrap();
        let _ = intersection_attack(&[a, b], &PathQuery::new(NodeId(0), NodeId(399)));
    }

    #[test]
    #[should_panic(expected = "cannot collude")]
    fn victim_colluding_with_itself_panics() {
        let ob = obfuscator();
        let unit = ob.obfuscate_independent(&request(0, 0, 399, 2)).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let _ = collusion_attack(&unit, ClientId(0), &[ClientId(0)], 10, &mut rng);
    }

    #[test]
    #[should_panic(expected = "not carried")]
    fn unknown_victim_panics() {
        let ob = obfuscator();
        let unit = ob.obfuscate_independent(&request(0, 0, 399, 2)).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let _ = uniform_attack(&unit, ClientId(99), 10, &mut rng);
    }
}

//! The adversary that measures what OPAQUE actually protects.
//!
//! Every attack here computes one thing: a [`Posterior`] over the
//! `|S|×|T|` pairs a unit represents, narrowed by evidence. It starts
//! uniform, which is Definition 2's adversary: its mass on the true pair is
//! `1/(|S|·|T|)`. Each kind of evidence multiplies into it:
//!
//! * **plausibility weights** ([`Posterior::weigh`]): §II's
//!   background-knowledge server ("with the help of some public
//!   information such as voter registration list and yellow pages")
//!   weighs each pair by how plausible its endpoints are;
//! * **colluders' endpoints** ([`Posterior::reveal`]): clients embedded in
//!   the same shared query pool their true queries to unmask a victim (the
//!   abstract's collusion attack), and every pair using a revealed
//!   endpoint drops out;
//! * **further rounds of the same request** ([`Posterior::intersect`]): a
//!   server that links re-issued queries keeps only the pairs every round
//!   represents. The true pair is in every round by Definition 1, so it
//!   always survives; fresh random fakes rarely do. Keyed fakes defend
//!   against it: one obfuscator re-sends the same query every round (see
//!   [`crate::obfuscator`]).
//!
//! [`Posterior::breach`] reads what the evidence gave away as one
//! [`Breach`], and [`Posterior::hit_rate`] checks it by Monte Carlo.

use crate::obfuscator::ObfuscationUnit;
use crate::query::{ClientId, ObfuscatedPathQuery, PathQuery};
use rand::Rng;
use rand::rngs::StdRng;
use roadnet::NodeId;

/// An adversary's belief about which of a unit's represented pairs is the
/// victim's: an unnormalised mass per pair, source-major in the unit's
/// sorted order.
#[derive(Clone, Debug)]
pub struct Posterior<'a> {
    unit: &'a ObfuscationUnit,
    victim: ClientId,
    /// Index of the victim's true pair in `mass`.
    truth: usize,
    mass: Vec<f64>,
}

/// What a [`Posterior`] gives away about the victim's pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Breach {
    /// Success probability of the adversary's best (MAP) guess.
    pub map_success: f64,
    /// Posterior probability of the victim's true pair. It is Definition 2's
    /// breach probability while the posterior is uniform, and 0 when
    /// evidence wrongly ruled the pair out.
    pub truth_mass: f64,
    /// Effective anonymity-set size `2^H` of the posterior: the number of
    /// equally likely pairs that would leave the adversary as uncertain.
    pub effective_anonymity: f64,
    /// Pairs left with positive mass.
    pub candidates: usize,
}

impl<'a> Posterior<'a> {
    /// The uniform prior over `unit`'s pairs, with `victim`'s pair as the
    /// truth.
    ///
    /// # Panics
    /// Panics if `victim` is not one of the unit's clients.
    pub fn new(unit: &'a ObfuscationUnit, victim: ClientId) -> Self {
        let truth = unit
            .requests
            .iter()
            .find(|r| r.client == victim)
            .unwrap_or_else(|| panic!("victim {victim:?} not carried by this unit"))
            .query;
        let q = &unit.query;
        let i = q.source_index(truth.source).expect("victim source embedded");
        let j = q.target_index(truth.destination).expect("victim target embedded");
        Posterior { unit, victim, truth: i * q.targets().len() + j, mass: vec![1.0; q.num_pairs()] }
    }

    /// Background knowledge: the mass of pair `(s, t)` is multiplied by
    /// `weights[s] · weights[t]`, clamped at 0. `weights[n]` is the
    /// plausibility of node `n`, e.g. its population density.
    ///
    /// # Panics
    /// Panics if `weights` does not cover a node of the unit.
    pub fn weigh(mut self, weights: &[f64]) -> Self {
        let w = |n: NodeId| {
            assert!(n.index() < weights.len(), "weight missing for node {n}");
            weights[n.index()]
        };
        let q = &self.unit.query;
        let target_w: Vec<f64> = q.targets().iter().map(|&t| w(t)).collect();
        for (row, &s) in self.mass.chunks_mut(target_w.len()).zip(q.sources()) {
            let ws = w(s);
            for (m, &wt) in row.iter_mut().zip(&target_w) {
                *m *= (ws * wt).max(0.0);
            }
        }
        self
    }

    /// Collusion: `colluders` among the unit's clients reveal their true
    /// queries, and every pair using a revealed source or target drops out.
    /// If the victim shares an endpoint with a colluder, its own pair drops
    /// out too; the adversary does not know it went wrong.
    ///
    /// # Panics
    /// Panics if the victim is listed as a colluder.
    pub fn reveal(self, colluders: &[ClientId]) -> Self {
        assert!(!colluders.contains(&self.victim), "the victim cannot collude against itself");
        let revealed: Vec<PathQuery> = self
            .unit
            .requests
            .iter()
            .filter(|r| colluders.contains(&r.client))
            .map(|r| r.query)
            .collect();
        self.keep(
            |s| revealed.iter().all(|q| q.source != s),
            |t| revealed.iter().all(|q| q.destination != t),
        )
    }

    /// A further round of the same request: only the pairs `round` also
    /// represents survive.
    ///
    /// # Panics
    /// Panics if `round` does not cover the victim's true query, so it
    /// cannot be the same request.
    pub fn intersect(self, round: &ObfuscatedPathQuery) -> Self {
        let q = &self.unit.query;
        let width = q.targets().len();
        let truth =
            PathQuery::new(q.sources()[self.truth / width], q.targets()[self.truth % width]);
        assert!(round.covers(&truth), "round does not cover the true query — not the same request");
        self.keep(|s| round.source_index(s).is_some(), |t| round.target_index(t).is_some())
    }

    /// Zeroes every pair whose source or target fails its side's test.
    fn keep(mut self, source: impl Fn(NodeId) -> bool, target: impl Fn(NodeId) -> bool) -> Self {
        let q = &self.unit.query;
        let target_kept: Vec<bool> = q.targets().iter().map(|&t| target(t)).collect();
        for (row, &s) in self.mass.chunks_mut(target_kept.len()).zip(q.sources()) {
            let source_kept = source(s);
            for (m, &target_kept) in row.iter_mut().zip(&target_kept) {
                if !(source_kept && target_kept) {
                    *m = 0.0;
                }
            }
        }
        self
    }

    /// What the evidence so far gives away. Every field reads 0 when no
    /// pair has mass left, e.g. when colluders revealed every source.
    pub fn breach(&self) -> Breach {
        let total: f64 = self.mass.iter().sum();
        if total <= 0.0 {
            return Breach {
                map_success: 0.0,
                truth_mass: 0.0,
                effective_anonymity: 0.0,
                candidates: 0,
            };
        }
        let p = || self.mass.iter().map(move |m| m / total).filter(|&p| p > 0.0);
        // The entropy normalises the normalised mass once more: the last
        // bits of `effective_anonymity` depend on that second division.
        let norm: f64 = p().sum();
        let mut entropy = 0.0;
        for p in p() {
            let p = p / norm;
            entropy -= p * p.log2();
        }
        Breach {
            map_success: p().fold(0.0, f64::max),
            truth_mass: self.mass[self.truth] / total,
            effective_anonymity: entropy.exp2(),
            candidates: self.mass.iter().filter(|&&m| m > 0.0).count(),
        }
    }

    /// Monte-Carlo check: each of `trials` guesses draws a source uniformly
    /// from those with mass left, then a target likewise, both in the
    /// unit's order. Returns the fraction of guesses that hit the victim's
    /// true pair. Nothing is drawn when no pair has mass left.
    ///
    /// # Panics
    /// Panics if `trials` is 0.
    pub fn hit_rate(&self, trials: u32, rng: &mut StdRng) -> f64 {
        assert!(trials > 0, "need at least one trial");
        let width = self.unit.query.targets().len();
        let alive = |m: &f64| *m > 0.0;
        let sources: Vec<usize> = (0..self.mass.len() / width)
            .filter(|&i| self.mass[i * width..][..width].iter().any(alive))
            .collect();
        let targets: Vec<usize> =
            (0..width).filter(|&j| self.mass[j..].iter().step_by(width).any(alive)).collect();
        let mut hits = 0u32;
        if !sources.is_empty() && !targets.is_empty() {
            for _ in 0..trials {
                let i = sources[rng.gen_range(0..sources.len())];
                let j = targets[rng.gen_range(0..targets.len())];
                hits += u32::from(i * width + j == self.truth);
            }
        }
        hits as f64 / trials as f64
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

    fn query(sources: &[u32], targets: &[u32]) -> ObfuscatedPathQuery {
        let nodes = |ns: &[u32]| ns.iter().map(|&n| NodeId(n)).collect();
        ObfuscatedPathQuery::new(nodes(sources), nodes(targets))
    }

    /// A hand-built unit: client `i` asks for `pairs[i]`.
    fn unit(sources: &[u32], targets: &[u32], pairs: &[(u32, u32)]) -> ObfuscationUnit {
        ObfuscationUnit {
            query: query(sources, targets),
            requests: (0..).zip(pairs).map(|(i, &(s, t))| request(i, s, t, 1)).collect(),
        }
    }

    /// `2^H` of a distribution given as masses.
    fn anonymity(masses: &[f64]) -> f64 {
        let total: f64 = masses.iter().sum();
        masses.iter().map(|m| m / total).map(|p| -p * p.log2()).sum::<f64>().exp2()
    }

    /// The 2×3 unit the hand-computed posteriors below run on: the victim
    /// (client 0) asks for (1, 4), client 1 for (2, 5).
    fn two_by_three() -> ObfuscationUnit {
        unit(&[1, 2], &[3, 4, 5], &[(1, 4), (2, 5)])
    }

    #[test]
    fn the_uniform_prior_is_definition_2() {
        let u = two_by_three();
        let b = Posterior::new(&u, ClientId(0)).breach();
        assert_eq!(b.truth_mass, u.query.breach_probability());
        assert_eq!(b.map_success, 1.0 / 6.0);
        assert!((b.effective_anonymity - 6.0).abs() < 1e-12);
        assert_eq!(b.candidates, 6);
    }

    #[test]
    fn weights_multiply_per_endpoint() {
        let u = two_by_three();
        // Node:         0    1    2    3    4    5
        let weights = [0.0, 1.0, 3.0, 1.0, 2.0, 1.0];
        // Source-major masses w(s)·w(t): (1, ·) = 1 2 1, (2, ·) = 3 6 3.
        let b = Posterior::new(&u, ClientId(0)).weigh(&weights).breach();
        assert_eq!(b.truth_mass, 2.0 / 16.0);
        assert_eq!(b.map_success, 6.0 / 16.0);
        assert!((b.effective_anonymity - anonymity(&[1.0, 2.0, 1.0, 3.0, 6.0, 3.0])).abs() < 1e-12);
        assert_eq!(b.candidates, 6);

        // A negative product clamps to zero: target 5 drops out.
        let b = Posterior::new(&u, ClientId(0)).weigh(&[0.0, 1.0, 3.0, 1.0, 2.0, -1.0]).breach();
        assert_eq!(b.truth_mass, 2.0 / 12.0);
        assert_eq!(b.candidates, 4);
    }

    #[test]
    fn colluders_remove_their_endpoints() {
        let u = two_by_three();
        // Client 1 reveals source 2 and target 5: (1, 3) and (1, 4) are left.
        let post = Posterior::new(&u, ClientId(0)).reveal(&[ClientId(1)]);
        let b = post.breach();
        assert_eq!(
            b,
            Breach { map_success: 0.5, truth_mass: 0.5, effective_anonymity: 2.0, candidates: 2 }
        );
        let rate = post.hit_rate(20_000, &mut StdRng::seed_from_u64(4));
        assert!((rate - 0.5).abs() < 0.02, "hit rate {rate}");
        // A colluder the unit does not carry reveals nothing.
        let b = Posterior::new(&u, ClientId(0)).reveal(&[ClientId(7)]).breach();
        assert_eq!(b.candidates, 6);
    }

    #[test]
    fn a_round_keeps_only_the_pairs_it_represents() {
        let u = two_by_three();
        let post = Posterior::new(&u, ClientId(0)).intersect(&query(&[1, 7], &[4, 5, 9]));
        let b = post.breach();
        assert_eq!(
            b,
            Breach { map_success: 0.5, truth_mass: 0.5, effective_anonymity: 2.0, candidates: 2 }
        );
        // A second round that shares only the true pair pinpoints it.
        let b = post.intersect(&query(&[1, 2], &[4])).breach();
        assert_eq!(
            b,
            Breach { map_success: 1.0, truth_mass: 1.0, effective_anonymity: 1.0, candidates: 1 }
        );
    }

    #[test]
    fn evidence_composes_in_any_order() {
        // 3×3: the victim asks for (1, 4), client 1 for (3, 6).
        let u = unit(&[1, 2, 3], &[4, 5, 6], &[(1, 4), (3, 6)]);
        let weights = [0.0, 1.0, 2.0, 1.0, 1.0, 3.0, 1.0];
        let round = query(&[1, 2], &[4, 6]);
        // Weights give (1, ·) = 1 3 1, (2, ·) = 2 6 2, (3, ·) = 1 3 1. The
        // colluder removes source 3 and target 6, the round target 5: (1, 4)
        // with mass 1 and (2, 4) with mass 2 are left.
        let b = Posterior::new(&u, ClientId(0))
            .weigh(&weights)
            .reveal(&[ClientId(1)])
            .intersect(&round)
            .breach();
        assert_eq!(b.truth_mass, 1.0 / 3.0);
        assert_eq!(b.map_success, 2.0 / 3.0);
        assert!((b.effective_anonymity - anonymity(&[1.0, 2.0])).abs() < 1e-12);
        assert_eq!(b.candidates, 2);
        let reordered = Posterior::new(&u, ClientId(0))
            .intersect(&round)
            .reveal(&[ClientId(1)])
            .weigh(&weights)
            .breach();
        assert_eq!(reordered, b);
    }

    #[test]
    fn zero_mass_reads_zero_and_draws_nothing() {
        // Clients 1 and 2 between them reveal both sources.
        let u = unit(&[1, 2], &[3, 4], &[(1, 3), (2, 4), (1, 4)]);
        let zero =
            Breach { map_success: 0.0, truth_mass: 0.0, effective_anonymity: 0.0, candidates: 0 };
        let post = Posterior::new(&u, ClientId(0)).reveal(&[ClientId(1), ClientId(2)]);
        assert_eq!(post.breach(), zero);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(post.hit_rate(100, &mut rng), 0.0);
        assert_eq!(rng.gen_range(0..u32::MAX), StdRng::seed_from_u64(3).gen_range(0..u32::MAX));
        // So do weights that are all zero.
        assert_eq!(Posterior::new(&u, ClientId(0)).weigh(&[0.0; 5]).breach(), zero);
    }

    #[test]
    fn uniform_attack_matches_definition_2() {
        let ob = obfuscator();
        let r = request(0, 0, 399, 3);
        let unit = ob.obfuscate_independent(&r).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let post = Posterior::new(&unit, ClientId(0));
        let analytic = post.breach().truth_mass;
        let empirical = post.hit_rate(200_000, &mut rng);
        assert!((analytic - 1.0 / 9.0).abs() < 1e-12);
        assert!(
            (empirical - analytic).abs() < 0.01,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn informed_attack_uniform_weights_equals_nominal() {
        let ob = obfuscator();
        let r = request(0, 0, 399, 4);
        let unit = ob.obfuscate_independent(&r).unwrap();
        let weights = vec![1.0; 400];
        let b = Posterior::new(&unit, ClientId(0)).weigh(&weights).breach();
        assert!((b.map_success - 1.0 / 16.0).abs() < 1e-12);
        assert!((b.truth_mass - 1.0 / 16.0).abs() < 1e-12);
        assert!((b.effective_anonymity - 16.0).abs() < 1e-6);
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
        let b = Posterior::new(&unit, ClientId(0)).weigh(&weights).breach();
        assert!(b.truth_mass > 0.5, "posterior {}", b.truth_mass);
        assert!(b.effective_anonymity < 4.0, "anonymity {}", b.effective_anonymity);
        // The nominal guarantee is unchanged — that is the point.
        assert_eq!(unit.query.num_pairs(), 16);
        assert_eq!(b.candidates, 16);
    }

    #[test]
    fn informed_attack_bits_are_pinned() {
        // E7's cells print four decimals, which would hide last-bit drift in
        // the posterior's arithmetic; the raw bits of one skewed unit would not.
        let ob = obfuscator();
        let unit = ob.obfuscate_independent(&request(0, 0, 399, 3)).unwrap();
        let weights: Vec<f64> = (0..400).map(|n| 1.0 + (n % 7) as f64 * 0.37).collect();
        let b = Posterior::new(&unit, ClientId(0)).weigh(&weights).breach();
        let bits = [b.truth_mass, b.map_success, b.effective_anonymity].map(f64::to_bits);
        // 0.043525760721483016, 0.22776160070337628, 7.8953436969278625
        assert_eq!(bits, [0x3fa6_4902_2daa_2209, 0x3fcd_274a_c927_1e49, 0x401f_94d4_fa63_f08b]);
    }

    /// Breach probability and simulated hit rate against client 0 with
    /// `colluders` revealing their queries.
    fn collude(
        unit: &ObfuscationUnit,
        colluders: &[ClientId],
        trials: u32,
        rng: &mut StdRng,
    ) -> (f64, f64) {
        let post = Posterior::new(unit, ClientId(0)).reveal(colluders);
        (post.breach().truth_mass, post.hit_rate(trials, rng))
    }

    #[test]
    fn collusion_shrinks_the_anonymity_set() {
        let mut ob = obfuscator();
        let reqs = vec![request(0, 0, 399, 4), request(1, 21, 378, 4), request(2, 42, 357, 4)];
        let unit = ob.obfuscate_shared(&reqs).unwrap();
        let mut rng = StdRng::seed_from_u64(5);

        let none = collude(&unit, &[], 100_000, &mut rng);
        let one = collude(&unit, &[ClientId(1)], 100_000, &mut rng);
        let two = collude(&unit, &[ClientId(1), ClientId(2)], 100_000, &mut rng);

        assert!((none.0 - unit.query.breach_probability()).abs() < 1e-12);
        assert!(one.0 > none.0);
        assert!(two.0 > one.0);
        for (analytic, empirical) in [none, one, two] {
            assert!(
                (empirical - analytic).abs() < 0.01,
                "empirical {empirical} vs analytic {analytic}"
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
        // The colluder's revealed source removes the victim's source too.
        assert_eq!(collude(&unit, &[ClientId(1)], 10_000, &mut rng), (0.0, 0.0));
    }

    #[test]
    fn independent_queries_are_immune_to_collusion() {
        // A colluder in a *different* unit reveals nothing about this one:
        // modelled by attacking an independent unit with zero colluders —
        // there is nobody to collude with inside the unit.
        let ob = obfuscator();
        let unit = ob.obfuscate_independent(&request(0, 0, 399, 3)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let (analytic, _) = collude(&unit, &[], 10_000, &mut rng);
        assert!((analytic - unit.query.breach_probability()).abs() < 1e-12);
    }

    /// The candidate pairs left after each observed round, and the breach
    /// after the last.
    fn intersect_rounds(units: &[ObfuscationUnit]) -> (Vec<usize>, Breach) {
        let mut post = Posterior::new(&units[0], ClientId(0));
        let mut candidates = Vec::new();
        for u in units {
            post = post.intersect(&u.query);
            candidates.push(post.breach().candidates);
        }
        (candidates, post.breach())
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
        let (candidates, last) = intersect_rounds(&units);
        assert_eq!(candidates[0], 25);
        // Candidates shrink monotonically…
        for w in candidates.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // …and with uniform fakes on a 400-node map, six rounds pinpoint.
        assert_eq!(last.candidates, 1, "survivors: {candidates:?}");
        assert_eq!(last.truth_mass, 1.0);
    }

    #[test]
    fn keyed_fakes_defeat_the_intersection_attack() {
        let ob = obfuscator();
        let r = request(0, 0, 399, 5);
        let units: Vec<_> = (0..10).map(|_| ob.obfuscate_independent(&r).expect("ok")).collect();
        let (candidates, last) = intersect_rounds(&units);
        assert_eq!(candidates.last(), Some(&25), "intersection never shrinks");
        assert!((last.truth_mass - 1.0 / 25.0).abs() < 1e-12);
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
        let _ = intersect_rounds(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "cannot collude")]
    fn victim_colluding_with_itself_panics() {
        let ob = obfuscator();
        let unit = ob.obfuscate_independent(&request(0, 0, 399, 2)).unwrap();
        let _ = Posterior::new(&unit, ClientId(0)).reveal(&[ClientId(0)]);
    }

    #[test]
    #[should_panic(expected = "not carried")]
    fn unknown_victim_panics() {
        let ob = obfuscator();
        let unit = ob.obfuscate_independent(&request(0, 0, 399, 2)).unwrap();
        let _ = Posterior::new(&unit, ClientId(99));
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panic() {
        let u = two_by_three();
        let _ = Posterior::new(&u, ClientId(0)).hit_rate(0, &mut StdRng::seed_from_u64(9));
    }

    #[test]
    #[should_panic(expected = "weight missing for node 5")]
    fn weights_must_cover_every_endpoint() {
        let u = two_by_three();
        let _ = Posterior::new(&u, ClientId(0)).weigh(&[1.0; 5]);
    }
}

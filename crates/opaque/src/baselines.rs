//! The location-privacy baselines of §II / Figure 2, implemented so the
//! paper's qualitative comparison becomes a measured one (experiment E2).
//!
//! | Technique | Figure | Claimed failure mode |
//! |-----------|--------|----------------------|
//! | direct query | 2(a) | no privacy at all |
//! | landmark \[3,4\] | 2(b) | result path irrelevant to the true query |
//! | cloaking [5–7] | 2(c) | server picks arbitrary points → likely irrelevant path |
//! | naive fake queries \[8\] | 2(d) | exact result, but redundant full queries overconsume resources |
//! | OPAQUE (this paper) | — | exact result, shared processing, tunable breach probability |
//!
//! Every technique is driven through [`run_technique`] over the same true
//! query and produces a [`TechniqueReport`] with comparable utility,
//! privacy, and cost columns.

use crate::obfuscator::{FakeSelection, Obfuscator};
use crate::query::{ClientId, ClientRequest, PathQuery, ProtectionSettings};
use crate::server::DirectionsServer;
use pathsearch::SharingPolicy;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use roadnet::{NodeId, Point, RoadNetwork, SpatialIndex};

/// A privacy technique under comparison.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Technique {
    /// Plain `Q(s,t)` — no protection (Figure 2(a)).
    Direct,
    /// Replace both endpoints by the nearest of `num_landmarks` fixed public
    /// landmarks (Figure 2(b)).
    Landmark {
        /// Number of fixed public landmarks available for snapping.
        num_landmarks: usize,
    },
    /// Snap both endpoints to a `cell_size × cell_size` cloaking region; the
    /// server searches from an arbitrary node of each region (Figure 2(c)).
    Cloaking {
        /// Side length of the square cloaking cells.
        cell_size: f64,
    },
    /// Duckham–Kulik-style obfuscation: the true query plus `num_fakes`
    /// complete fake queries, each evaluated independently (Figure 2(d)).
    NaiveFakes {
        /// Number of complete fake queries added next to the true one.
        num_fakes: usize,
    },
    /// OPAQUE's independently obfuscated path query with settings
    /// `(f_s, f_t)`, evaluated by the MSMD processor.
    Opaque {
        /// Requested source-set size `f_S`.
        f_s: u32,
        /// Requested target-set size `f_T`.
        f_t: u32,
    },
}

impl Technique {
    /// Short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Technique::Direct => "direct",
            Technique::Landmark { .. } => "landmark",
            Technique::Cloaking { .. } => "cloaking",
            Technique::NaiveFakes { .. } => "naive-fakes",
            Technique::Opaque { .. } => "opaque",
        }
    }
}

/// Measured outcome of one technique on one true query.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct TechniqueReport {
    /// Name of the measured technique ([`Technique::name`]).
    pub technique: String,
    /// Did the client end up with the exact shortest path for its true
    /// query? (The paper's service-quality criterion.)
    pub true_path_returned: bool,
    /// Relative error of the best path the client can extract:
    /// `(d_returned − d_true)/d_true` where `d_returned` is the distance of
    /// the returned path *as an answer to the true query* (∞ when the
    /// returned path does not connect the true endpoints).
    pub path_distance_error: f64,
    /// Mean Euclidean displacement between the true endpoints and the
    /// endpoints actually searched.
    pub endpoint_displacement: f64,
    /// (source, target) pairs the server evaluated.
    pub pairs_evaluated: u64,
    /// Nodes the server settled.
    pub server_settled: u64,
    /// Candidate paths shipped back.
    pub candidate_paths: u64,
    /// Probability the server pinpoints the true `(s,t)` pair, under a
    /// uniform prior over whatever ambiguity the technique leaves.
    pub breach_probability: f64,
}

/// Run `technique` for the true query `q` on `map`. All randomness is
/// drawn from `seed`, so reports are reproducible.
///
/// # Panics
/// Panics if `q`'s endpoints are disconnected on `map` — comparison
/// scenarios are always generated on the largest connected component.
pub fn run_technique(
    map: &RoadNetwork,
    index: &SpatialIndex,
    q: &PathQuery,
    technique: Technique,
    seed: u64,
) -> TechniqueReport {
    let true_dist = pathsearch::shortest_distance(map, q.source, q.destination)
        .expect("comparison query must be connected");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6261_7365);

    match technique {
        Technique::Direct => {
            let mut server = DirectionsServer::new(map, SharingPolicy::PerSource);
            let path = server.process_plain(q).expect("connected");
            TechniqueReport {
                technique: technique.name().into(),
                true_path_returned: true,
                path_distance_error: relative_error(path.distance(), true_dist),
                endpoint_displacement: 0.0,
                pairs_evaluated: server.stats().pairs_evaluated,
                server_settled: server.stats().search.settled,
                candidate_paths: server.stats().paths_returned,
                breach_probability: 1.0,
            }
        }

        Technique::Landmark { num_landmarks } => {
            assert!(num_landmarks >= 1, "need at least one landmark");
            // Fixed public landmark set, seeded independently of the query.
            let mut all: Vec<NodeId> = map.nodes().collect();
            all.shuffle(&mut StdRng::seed_from_u64(0x6c61_6e64));
            let landmarks = &all[..num_landmarks.min(all.len())];
            let nearest_landmark = |p: Point| {
                *landmarks
                    .iter()
                    .min_by(|a, b| {
                        map.point(**a).distance(p).total_cmp(&map.point(**b).distance(p))
                    })
                    .expect("non-empty landmark set")
            };
            let s2 = nearest_landmark(map.point(q.source));
            let t2 = nearest_landmark(map.point(q.destination));
            let mut server = DirectionsServer::new(map, SharingPolicy::PerSource);
            let path = server.process_plain(&PathQuery::new(s2, t2));
            let exact = s2 == q.source && t2 == q.destination;
            TechniqueReport {
                technique: technique.name().into(),
                true_path_returned: exact,
                path_distance_error: if exact {
                    0.0
                } else {
                    // The landmark path does not answer the true query at all.
                    f64::INFINITY
                },
                endpoint_displacement: (map.euclidean(q.source, s2)
                    + map.euclidean(q.destination, t2))
                    / 2.0,
                pairs_evaluated: server.stats().pairs_evaluated,
                server_settled: server.stats().search.settled,
                candidate_paths: path.iter().count() as u64,
                // The server sees landmark endpoints only; the true pair is
                // not recoverable from the query itself.
                breach_probability: 0.0,
            }
        }

        Technique::Cloaking { cell_size } => {
            assert!(cell_size > 0.0, "cloaking cell must have positive size");
            let snap = |p: Point| {
                Point::new(
                    (p.x / cell_size).floor() * cell_size + cell_size / 2.0,
                    (p.y / cell_size).floor() * cell_size + cell_size / 2.0,
                )
            };
            // The server "may arbitrarily pick a point for an imprecise
            // address" (§II): modelled as a uniformly random node within the
            // cloaked cell (falling back to the nearest node to the cell
            // centre when the cell is empty).
            let pick = |p: Point, rng: &mut StdRng| {
                let cell_center = snap(p);
                let half = cell_size / 2.0;
                let in_cell = index.within_radius(cell_center, half * std::f64::consts::SQRT_2);
                let candidates: Vec<NodeId> = in_cell
                    .into_iter()
                    .filter(|n| {
                        let np = map.point(*n);
                        (np.x - cell_center.x).abs() <= half && (np.y - cell_center.y).abs() <= half
                    })
                    .collect();
                if candidates.is_empty() {
                    (index.nearest(cell_center), 1usize)
                } else {
                    (candidates[rng.gen_range(0..candidates.len())], candidates.len())
                }
            };
            let (s2, s_region) = pick(map.point(q.source), &mut rng);
            let (t2, t_region) = pick(map.point(q.destination), &mut rng);
            let mut server = DirectionsServer::new(map, SharingPolicy::PerSource);
            let path = server.process_plain(&PathQuery::new(s2, t2));
            let exact = s2 == q.source && t2 == q.destination;
            TechniqueReport {
                technique: technique.name().into(),
                true_path_returned: exact,
                path_distance_error: if exact { 0.0 } else { f64::INFINITY },
                endpoint_displacement: (map.euclidean(q.source, s2)
                    + map.euclidean(q.destination, t2))
                    / 2.0,
                pairs_evaluated: server.stats().pairs_evaluated,
                server_settled: server.stats().search.settled,
                candidate_paths: path.iter().count() as u64,
                // The adversary knows the region; ambiguity is the number of
                // candidate nodes per side.
                breach_probability: 1.0 / (s_region as f64 * t_region as f64),
            }
        }

        Technique::NaiveFakes { num_fakes } => {
            let n = map.num_nodes() as u32;
            let mut server = DirectionsServer::new(map, SharingPolicy::PerSource);
            // True query first (order does not matter to the server).
            let true_path = server.process_plain(q).expect("connected");
            for _ in 0..num_fakes {
                // Whole fake queries with both endpoints random [8].
                loop {
                    let fq =
                        PathQuery::new(NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
                    if fq.source != fq.destination {
                        server.process_plain(&fq);
                        break;
                    }
                }
            }
            let err = relative_error(true_path.distance(), true_dist);
            TechniqueReport {
                technique: technique.name().into(),
                true_path_returned: true,
                path_distance_error: err,
                endpoint_displacement: 0.0,
                pairs_evaluated: server.stats().pairs_evaluated,
                server_settled: server.stats().search.settled,
                candidate_paths: server.stats().paths_returned,
                breach_probability: 1.0 / (num_fakes as f64 + 1.0),
            }
        }

        Technique::Opaque { f_s, f_t } => {
            let ob = Obfuscator::new(map.clone(), FakeSelection::default_ring(), seed ^ 0x6f70);
            let request = ClientRequest::new(
                ClientId(0),
                *q,
                ProtectionSettings::new(f_s, f_t).expect("validated by caller"),
            );
            let unit = ob.obfuscate_independent(&request).expect("map large enough");
            let mut server = DirectionsServer::new(map, SharingPolicy::PerSource);
            let candidates = server.process(&unit.query);
            let results = crate::filter::filter_candidates(&unit, &candidates, Some(map))
                .expect("pipeline consistent");
            let delivered = &results[0].path;
            TechniqueReport {
                technique: technique.name().into(),
                true_path_returned: true,
                path_distance_error: relative_error(delivered.distance(), true_dist),
                endpoint_displacement: 0.0,
                pairs_evaluated: server.stats().pairs_evaluated,
                server_settled: server.stats().search.settled,
                candidate_paths: server.stats().paths_returned,
                breach_probability: unit.query.breach_probability(),
            }
        }
    }
}

fn relative_error(returned: f64, truth: f64) -> f64 {
    if truth <= 0.0 { 0.0 } else { (returned - truth).abs() / truth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators::{GridConfig, grid_network};

    fn setup() -> (RoadNetwork, SpatialIndex, PathQuery) {
        let g = grid_network(&GridConfig { width: 20, height: 20, seed: 3, ..Default::default() })
            .unwrap();
        let idx = SpatialIndex::build(&g);
        (g, idx, PathQuery::new(NodeId(21), NodeId(378)))
    }

    #[test]
    fn direct_is_exact_and_fully_exposed() {
        let (g, idx, q) = setup();
        let r = run_technique(&g, &idx, &q, Technique::Direct, 1);
        assert!(r.true_path_returned);
        assert_eq!(r.path_distance_error, 0.0);
        assert_eq!(r.breach_probability, 1.0);
        assert_eq!(r.pairs_evaluated, 1);
    }

    #[test]
    fn landmark_protects_but_returns_irrelevant_path() {
        let (g, idx, q) = setup();
        let r = run_technique(&g, &idx, &q, Technique::Landmark { num_landmarks: 12 }, 1);
        assert!(!r.true_path_returned);
        assert!(r.path_distance_error.is_infinite());
        assert!(r.endpoint_displacement > 0.0);
        assert_eq!(r.breach_probability, 0.0);
    }

    #[test]
    fn cloaking_usually_misses_the_exact_endpoints() {
        let (g, idx, q) = setup();
        let r = run_technique(&g, &idx, &q, Technique::Cloaking { cell_size: 4.0 }, 1);
        // With ~16 nodes per cell, hitting both exact endpoints is unlikely;
        // breach probability must reflect region ambiguity.
        assert!(r.breach_probability < 0.5);
        assert!(r.pairs_evaluated == 1);
        if !r.true_path_returned {
            assert!(r.path_distance_error.is_infinite());
            assert!(r.endpoint_displacement > 0.0);
        }
    }

    #[test]
    fn naive_fakes_exact_but_expensive() {
        let (g, idx, q) = setup();
        let r = run_technique(&g, &idx, &q, Technique::NaiveFakes { num_fakes: 5 }, 1);
        assert!(r.true_path_returned);
        assert_eq!(r.path_distance_error, 0.0);
        assert_eq!(r.pairs_evaluated, 6);
        assert!((r.breach_probability - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn opaque_is_exact_with_tunable_breach() {
        let (g, idx, q) = setup();
        let r = run_technique(&g, &idx, &q, Technique::Opaque { f_s: 3, f_t: 3 }, 1);
        assert!(r.true_path_returned);
        assert_eq!(r.path_distance_error, 0.0);
        assert!((r.breach_probability - 1.0 / 9.0).abs() < 1e-12);
        assert_eq!(r.pairs_evaluated, 9);
    }

    #[test]
    fn opaque_beats_naive_fakes_on_cost_at_equal_privacy() {
        // Equal breach probability 1/9: naive needs 8 fake full queries,
        // OPAQUE needs a 3×3 obfuscated query processed with sharing.
        let (g, idx, q) = setup();
        let naive = run_technique(&g, &idx, &q, Technique::NaiveFakes { num_fakes: 8 }, 2);
        let opq = run_technique(&g, &idx, &q, Technique::Opaque { f_s: 3, f_t: 3 }, 2);
        assert!((naive.breach_probability - opq.breach_probability).abs() < 1e-12);
        assert!(
            opq.server_settled < naive.server_settled,
            "opaque {} vs naive {}",
            opq.server_settled,
            naive.server_settled
        );
    }

    #[test]
    fn technique_names() {
        assert_eq!(Technique::Direct.name(), "direct");
        assert_eq!(Technique::Landmark { num_landmarks: 1 }.name(), "landmark");
        assert_eq!(Technique::Cloaking { cell_size: 1.0 }.name(), "cloaking");
        assert_eq!(Technique::NaiveFakes { num_fakes: 1 }.name(), "naive-fakes");
        assert_eq!(Technique::Opaque { f_s: 2, f_t: 2 }.name(), "opaque");
    }
}

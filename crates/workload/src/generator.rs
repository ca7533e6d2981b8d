//! Client-request batch generation.
//!
//! Combines a spatial [`QueryDistribution`] with a distribution over
//! protection settings to produce the `⟨u_i, (s_i,t_i), (f_Si, f_Ti)⟩`
//! batches every experiment consumes.

use crate::distributions::{QueryDistribution, QuerySampler};
use opaque::{ClientId, ClientRequest, PathQuery, ProtectionSettings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::{RoadNetwork, SpatialIndex};

/// How per-client protection settings are drawn.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ProtectionDistribution {
    /// Every client requests the same `(f_s, f_t)`.
    Fixed {
        /// Source obfuscation-set size.
        f_s: u32,
        /// Target obfuscation-set size.
        f_t: u32,
    },
    /// Both sizes drawn uniformly from `lo..=hi` per client.
    UniformRange {
        /// Smallest set size drawn.
        lo: u32,
        /// Largest set size drawn.
        hi: u32,
    },
}

impl ProtectionDistribution {
    /// One client's protection settings.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> ProtectionSettings {
        match *self {
            ProtectionDistribution::Fixed { f_s, f_t } => {
                ProtectionSettings::new(f_s, f_t).expect("validated at construction")
            }
            ProtectionDistribution::UniformRange { lo, hi } => {
                assert!(lo >= 1 && hi >= lo, "range must satisfy 1 <= lo <= hi");
                ProtectionSettings::new(rng.gen_range(lo..=hi), rng.gen_range(lo..=hi))
                    .expect("range is >= 1")
            }
        }
    }
}

/// Full workload description.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadConfig {
    /// Number of client requests in the batch.
    pub num_requests: usize,
    /// Spatial distribution of (source, destination) pairs.
    pub queries: QueryDistribution,
    /// Distribution of protection settings.
    pub protection: ProtectionDistribution,
    /// RNG seed; batches are reproducible per seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_requests: 32,
            queries: QueryDistribution::Uniform,
            protection: ProtectionDistribution::Fixed { f_s: 3, f_t: 3 },
            seed: 0,
        }
    }
}

/// Generate a batch of client requests over `map`. Client ids are dense
/// from 0 in generation order.
pub fn generate_requests(
    map: &RoadNetwork,
    index: &SpatialIndex,
    cfg: &WorkloadConfig,
) -> Vec<ClientRequest> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x776f_726b); // "work"
    let sampler = QuerySampler::new(map, index, cfg.queries, &mut rng);
    (0..cfg.num_requests)
        .map(|i| {
            let (s, t) = sampler.sample(&mut rng);
            ClientRequest::new(
                ClientId(i as u32),
                PathQuery::new(s, t),
                cfg.protection.sample(&mut rng),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators::{GridConfig, grid_network};

    fn setup() -> (RoadNetwork, SpatialIndex) {
        let g = grid_network(&GridConfig { width: 20, height: 20, seed: 6, ..Default::default() })
            .unwrap();
        let idx = SpatialIndex::build(&g);
        (g, idx)
    }

    #[test]
    fn generates_requested_count_with_dense_ids() {
        let (g, idx) = setup();
        let reqs = generate_requests(&g, &idx, &WorkloadConfig::default());
        assert_eq!(reqs.len(), 32);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.client, ClientId(i as u32));
            assert_ne!(r.query.source, r.query.destination);
        }
    }

    #[test]
    fn fixed_protection_is_constant() {
        let (g, idx) = setup();
        let cfg = WorkloadConfig {
            protection: ProtectionDistribution::Fixed { f_s: 4, f_t: 2 },
            ..Default::default()
        };
        for r in generate_requests(&g, &idx, &cfg) {
            assert_eq!(r.protection, ProtectionSettings::new(4, 2).unwrap());
        }
    }

    #[test]
    fn ranged_protection_stays_in_bounds_and_varies() {
        let (g, idx) = setup();
        let cfg = WorkloadConfig {
            num_requests: 100,
            protection: ProtectionDistribution::UniformRange { lo: 2, hi: 6 },
            ..Default::default()
        };
        let reqs = generate_requests(&g, &idx, &cfg);
        let mut seen = std::collections::HashSet::new();
        for r in &reqs {
            assert!((2..=6).contains(&r.protection.f_s));
            assert!((2..=6).contains(&r.protection.f_t));
            seen.insert((r.protection.f_s, r.protection.f_t));
        }
        assert!(seen.len() > 3, "range should produce variety, got {seen:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, idx) = setup();
        let cfg = WorkloadConfig { seed: 42, ..Default::default() };
        assert_eq!(generate_requests(&g, &idx, &cfg), generate_requests(&g, &idx, &cfg));
        let other = WorkloadConfig { seed: 43, ..Default::default() };
        assert_ne!(generate_requests(&g, &idx, &cfg), generate_requests(&g, &idx, &other));
    }

    #[test]
    fn batch_feeds_the_opaque_pipeline() {
        use opaque::{FakeSelection, ObfuscationMode, ServiceBuilder};
        use pathsearch::SharingPolicy;
        let (g, idx) = setup();
        let reqs =
            generate_requests(&g, &idx, &WorkloadConfig { num_requests: 6, ..Default::default() });
        let mut svc = ServiceBuilder::new()
            .map(g)
            .fake_selection(FakeSelection::default_ring())
            .seed(3)
            .sharing_policy(SharingPolicy::PerSource)
            .obfuscation_mode(ObfuscationMode::SharedGlobal)
            .build()
            .expect("valid configuration");
        let results = svc.process_batch(&reqs).unwrap().results;
        assert_eq!(results.len(), 6);
    }
}

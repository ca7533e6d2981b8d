//! Whether a backend server caches shortest-path trees ([`CachePolicy`]),
//! and the cache itself, [`TreeCache`], re-exported from
//! [`pathsearch::cache`], where its keying, adoption and repair rules are
//! documented.
//!
//! The cache is **shard-local** on purpose: the parallel service layer
//! pins one [`DirectionsServer`] (arena + cache) per worker thread, so
//! the hot path takes no lock and [`crate::service::ExecutionPolicy`]
//! stays a pure throughput knob. A hit reports counters byte-identical to
//! the sweep it skips, so `CachePolicy::Lru` produces byte-identical
//! [`crate::BatchReport`]s to `CachePolicy::Off`, the invariant
//! `tests/cache_equivalence.rs` proves. The hit rate is hostage to
//! *placement* instead: under round-robin rotation a popular root visits
//! every shard, each paying its own cold miss, while
//! [`crate::PartitionPolicy::RegionOwned`] grows and stores each root once
//! fleet-wide (the gap `e18_partition` measures). The hit/miss counters
//! are on [`crate::ServerStats`], not in the report, so placement stays
//! report-byte-invisible.
//!
//! [`DirectionsServer`]: crate::server::DirectionsServer

use crate::error::{OpaqueError, Result};
pub use pathsearch::TreeCache;

/// Whether (and how) a backend server caches shortest-path trees.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CachePolicy {
    /// No cache: every tree is grown for real (the historical behavior
    /// and the reference the cache-equivalence harness compares against).
    #[default]
    Off,
    /// A shard-local exact-LRU [`TreeCache`] holding at most `trees`
    /// recorded sweeps per shard.
    Lru {
        /// Per-shard capacity in trees; must be at least 1.
        trees: usize,
    },
}

impl CachePolicy {
    /// Check the policy is satisfiable.
    ///
    /// # Errors
    /// [`OpaqueError::InvalidConfig`] for a zero-capacity LRU (mirroring
    /// the zero-thread worker-pool rejection).
    pub fn validate(&self) -> Result<()> {
        match self {
            CachePolicy::Off => Ok(()),
            CachePolicy::Lru { trees: 0 } => Err(OpaqueError::InvalidConfig {
                reason: "cache policy: an LRU tree cache needs capacity for at least one tree"
                    .to_string(),
            }),
            CachePolicy::Lru { .. } => Ok(()),
        }
    }

    /// Short name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            CachePolicy::Off => "off".to_string(),
            CachePolicy::Lru { trees } => format!("lru({trees})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_validation_and_names() {
        assert!(CachePolicy::Off.validate().is_ok());
        assert!(CachePolicy::Lru { trees: 8 }.validate().is_ok());
        assert!(matches!(
            CachePolicy::Lru { trees: 0 }.validate(),
            Err(OpaqueError::InvalidConfig { .. })
        ));
        assert_eq!(CachePolicy::Off.name(), "off");
        assert_eq!(CachePolicy::Lru { trees: 8 }.name(), "lru(8)");
        assert_eq!(CachePolicy::default(), CachePolicy::Off);
    }

    #[test]
    fn policy_round_trips_through_serde() {
        for policy in [CachePolicy::Off, CachePolicy::Lru { trees: 32 }] {
            let json = serde_json::to_string(&policy).unwrap();
            let back: CachePolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, policy);
        }
    }
}

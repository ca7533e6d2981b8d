//! Typed construction of an [`OpaqueService`].
//!
//! [`ServiceConfig`] holds every serializable knob of a deployment —
//! fake-selection strategy, RNG seed, MSMD sharing policy, obfuscation
//! mode, verification, shard count, batch policy — with sane defaults.
//! [`ServiceBuilder`] pairs a config with the non-serializable inputs (the
//! road map, optional plausibility weights) and validates the whole
//! assembly in [`ServiceBuilder::build`], replacing the original
//! hand-wiring of `Obfuscator` + `DirectionsServer` pairs.

use crate::error::{OpaqueError, Result};
use crate::obfuscator::{FakeSelection, ObfuscationMode, Obfuscator};
use crate::server::DirectionsServer;
use crate::service::OpaqueService;
use crate::service::backend::{DirectionsBackend, ShardedBackend};
use crate::service::batcher::{BatchPolicy, Batcher};
use crate::service::cache::CachePolicy;
use crate::service::gateway::AdmissionPolicy;
use crate::service::heuristic::SearchHeuristic;
use crate::service::parallel::ExecutionPolicy;
use crate::service::partition::{Partition, PartitionPolicy};
use pathsearch::{SearchArena, SharingPolicy};
use roadnet::{GraphView, RoadNetwork};
use std::sync::Arc;

/// The backend type [`ServiceBuilder::build`] assembles: a fleet of
/// in-memory directions servers (a fleet of one when `shards == 1`),
/// placed round-robin or by region ownership according to
/// [`ServiceConfig::partition`]. The fleet shares one map behind an
/// [`Arc`] — an N-shard service holds one backend copy of the map, not N.
pub type DefaultBackend = ShardedBackend<DirectionsServer<Arc<RoadNetwork>>>;

/// Serializable deployment parameters, with defaults matching the paper's
/// baseline setup (ring fakes, per-source sharing, independent
/// obfuscation, one shard).
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServiceConfig {
    /// Fake-endpoint selection strategy for the obfuscator.
    pub strategy: FakeSelection,
    /// Seed for the obfuscator's RNG (obfuscation is reproducible per
    /// seed), and the key of its independent fakes: a retried request is
    /// re-sent with the same fakes.
    pub seed: u64,
    /// MSMD sharing policy the backend servers evaluate under.
    pub sharing: SharingPolicy,
    /// Obfuscation mode applied to each drained batch.
    pub mode: ObfuscationMode,
    /// Re-verify delivered paths against the obfuscator's map.
    pub verify_results: bool,
    /// Number of backend shards.
    pub shards: usize,
    /// How query units are placed on the shard fleet: the historical
    /// [`PartitionPolicy::RoundRobin`] rotation, or
    /// [`PartitionPolicy::RegionOwned`] routing to the shard owning each
    /// unit's obfuscation region.
    pub partition: PartitionPolicy,
    /// How each batch's obfuscated queries are executed against the shard
    /// fleet — sequentially or across a pinned-worker pool.
    pub execution: ExecutionPolicy,
    /// Whether each backend shard caches shortest-path trees
    /// ([`CachePolicy::Lru`]) — per-shard caches, so the worker pool stays
    /// lock-free — with byte-identical reports either way (the
    /// lattice oracle's guarantee).
    pub cache: CachePolicy,
    /// Admission-queue flush policy (when a pending window drains).
    pub batch: BatchPolicy,
    /// Gateway admission policy (bounded queue depth, per-request
    /// deadline; see [`AdmissionPolicy`]).
    pub admission: AdmissionPolicy,
    /// Goal-directed search for the backend sweeps:
    /// [`SearchHeuristic::Alt`] builds one shared ALT landmark table at
    /// [`ServiceBuilder::build`] and attaches it to every shard, pruning
    /// settled nodes with answers and reports byte-identical to
    /// [`SearchHeuristic::None`].
    pub heuristic: SearchHeuristic,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            strategy: FakeSelection::default_ring(),
            seed: 0,
            sharing: SharingPolicy::PerSource,
            mode: ObfuscationMode::Independent,
            verify_results: false,
            shards: 1,
            partition: PartitionPolicy::RoundRobin,
            execution: ExecutionPolicy::Sequential,
            cache: CachePolicy::Off,
            batch: BatchPolicy::default(),
            admission: AdmissionPolicy::default(),
            heuristic: SearchHeuristic::None,
        }
    }
}

impl ServiceConfig {
    /// Check the parameters are internally consistent.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(OpaqueError::InvalidConfig { reason: "shards must be >= 1".to_string() });
        }
        self.execution.validate()?;
        self.cache.validate()?;
        self.batch.validate()?;
        self.heuristic.validate()?;
        self.admission.validate()
    }

    /// The cross-field check [`ServiceBuilder::build`] applies on top of
    /// [`ServiceConfig::validate`]: a [`ExecutionPolicy::WorkerPool`] must
    /// not ask for more threads than the default backend has shards — each
    /// worker is pinned to a shard (its search arena), so surplus threads
    /// could never run and the configuration is almost certainly a
    /// mistake. Not part of `validate` because
    /// [`ServiceBuilder::build_with_backend`] ignores
    /// [`ServiceConfig::shards`] and takes the caller's fleet as given.
    fn validate_execution_fits_fleet(&self) -> Result<()> {
        if let ExecutionPolicy::WorkerPool { threads } = self.execution {
            if threads > self.shards {
                return Err(OpaqueError::InvalidConfig {
                    reason: format!(
                        "worker pool needs one shard per thread: {threads} threads > {} shards",
                        self.shards
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Fluent builder for an [`OpaqueService`].
#[derive(Clone, Debug, Default)]
pub struct ServiceBuilder {
    config: ServiceConfig,
    map: Option<RoadNetwork>,
    weights: Option<Vec<f64>>,
}

impl ServiceBuilder {
    /// Start from defaults; a map is required before [`Self::build`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Start from an explicit config.
    pub fn from_config(config: ServiceConfig) -> Self {
        ServiceBuilder { config, map: None, weights: None }
    }

    /// The current config (as accumulated by the setters).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The road map shared by the obfuscator and the default backend.
    pub fn map(mut self, map: RoadNetwork) -> Self {
        self.map = Some(map);
        self
    }

    /// Fake-endpoint selection strategy.
    pub fn fake_selection(mut self, strategy: FakeSelection) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Obfuscator RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Backend MSMD sharing policy.
    pub fn sharing_policy(mut self, sharing: SharingPolicy) -> Self {
        self.config.sharing = sharing;
        self
    }

    /// Obfuscation mode for processed batches.
    pub fn obfuscation_mode(mut self, mode: ObfuscationMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Re-verify delivered paths against the obfuscator's map.
    pub fn verify_results(mut self, on: bool) -> Self {
        self.config.verify_results = on;
        self
    }

    /// Per-node plausibility weights (enables
    /// [`FakeSelection::Weighted`]).
    pub fn weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Number of backend shards.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Shard placement policy: round-robin rotation (default) or
    /// region-owned routing. [`PartitionPolicy::RegionOwned`] requires the
    /// map to have at least as many nodes as shards (checked in
    /// [`ServiceBuilder::build`], where the partition is constructed).
    pub fn partition_policy(mut self, partition: PartitionPolicy) -> Self {
        self.config.partition = partition;
        self
    }

    /// Execution policy for each batch's obfuscated queries. A
    /// [`ExecutionPolicy::WorkerPool`] requires at least as many shards
    /// as threads (checked in [`ServiceBuilder::build`]).
    pub fn execution_policy(mut self, execution: ExecutionPolicy) -> Self {
        self.config.execution = execution;
        self
    }

    /// Per-shard tree-cache policy. `Lru { trees: 0 }` is rejected at
    /// [`ServiceBuilder::build`], mirroring the zero-thread worker-pool
    /// rejection.
    pub fn cache_policy(mut self, cache: CachePolicy) -> Self {
        self.config.cache = cache;
        self
    }

    /// Goal-directed search heuristic for the backend shard fleet.
    /// [`SearchHeuristic::Alt`] requires a symmetric map with at least as
    /// many nodes as landmarks (checked in [`ServiceBuilder::build`],
    /// where the landmark tables are constructed).
    pub fn search_heuristic(mut self, heuristic: SearchHeuristic) -> Self {
        self.config.heuristic = heuristic;
        self
    }

    /// Admission-queue flush policy.
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.config.batch = policy;
        self
    }

    /// Gateway admission policy: bounded queue depth (submissions beyond
    /// it are refused with
    /// [`crate::RejectReason::QueueFull`]) and optional per-request
    /// deadline shedding.
    pub fn admission_policy(mut self, admission: AdmissionPolicy) -> Self {
        self.config.admission = admission;
        self
    }

    /// Validate and assemble the service with the default sharded
    /// in-memory backend.
    ///
    /// # Errors
    /// [`OpaqueError::InvalidConfig`] for a missing map, zero shards, a
    /// weight vector whose length differs from the map's node count, or an
    /// unsatisfiable batch policy.
    pub fn build(self) -> Result<OpaqueService<DefaultBackend>> {
        self.config.validate_execution_fits_fleet()?;
        let (config, map, weights) = self.into_validated_parts()?;
        // One map for the whole service: the map is public, so the
        // obfuscator and every shard read this one immutable snapshot.
        // Each shard gets its own arena with its single-tree slab pre-grown
        // to the map: every sweep a shard runs, plain or obfuscated, under
        // every sharing policy, grows one tree at a time in it.
        let shared = Arc::new(map);
        let nodes = shared.num_nodes();
        // One landmark table for the whole fleet, too: ALT preprocessing
        // is the expensive part (|landmarks| full sweeps), so shards share
        // it the same way they share the map.
        let heuristic = config.heuristic.preprocess(shared.as_ref())?;
        let servers: Vec<DirectionsServer<Arc<RoadNetwork>>> = (0..config.shards)
            .map(|_| {
                DirectionsServer::with_arena(
                    Arc::clone(&shared),
                    config.sharing,
                    SearchArena::preallocated(nodes, 1),
                )
                .with_tree_cache(config.cache)
                .with_heuristic(heuristic.clone())
            })
            .collect();
        // Placement: region-owned fleets carry a deterministic partition
        // of the shared map; round-robin fleets keep the rotating cursor.
        // Either way every shard searches the whole map, which is what
        // keeps placement invisible to every report byte.
        let backend = match config.partition {
            PartitionPolicy::RoundRobin => ShardedBackend::new(servers)?,
            PartitionPolicy::RegionOwned { halo } => {
                let partition = Partition::build(&shared, config.shards, halo)?;
                ShardedBackend::with_partition(servers, partition)?
            }
        };
        Self::assemble(config, shared, weights, backend)
    }

    /// Validate and assemble around a caller-supplied backend (paged
    /// storage, custom shard fleets, test fakes). The map becomes the
    /// obfuscator's own, and verification checks answers against it: the
    /// backend may serve a different view of the map, or a dishonest one.
    /// The backend is used as given and [`ServiceConfig::shards`] /
    /// [`ServiceConfig::sharing`] are ignored.
    pub fn build_with_backend<B: DirectionsBackend>(self, backend: B) -> Result<OpaqueService<B>> {
        let (config, map, weights) = self.into_validated_parts()?;
        Self::assemble(config, Arc::new(map), weights, backend)
    }

    fn into_validated_parts(self) -> Result<(ServiceConfig, RoadNetwork, Option<Vec<f64>>)> {
        self.config.validate()?;
        let map = self.map.ok_or_else(|| OpaqueError::InvalidConfig {
            reason: "a road map is required (ServiceBuilder::map)".to_string(),
        })?;
        if let Some(w) = &self.weights {
            if w.len() != map.num_nodes() {
                return Err(OpaqueError::InvalidConfig {
                    reason: format!(
                        "weights length {} does not match map node count {}",
                        w.len(),
                        map.num_nodes()
                    ),
                });
            }
        }
        Ok((self.config, map, self.weights))
    }

    fn assemble<B: DirectionsBackend>(
        config: ServiceConfig,
        map: Arc<RoadNetwork>,
        weights: Option<Vec<f64>>,
        backend: B,
    ) -> Result<OpaqueService<B>> {
        let mut obfuscator = Obfuscator::new(map, config.strategy, config.seed);
        if let Some(w) = weights {
            obfuscator = obfuscator.with_weights(w);
        }
        Ok(OpaqueService {
            obfuscator,
            backend,
            mode: config.mode,
            batcher: Batcher::new(config.batch, config.admission)?,
            verify_results: config.verify_results,
            execution: config.execution,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ClientId, ClientRequest, PathQuery, ProtectionSettings};
    use roadnet::NodeId;
    use roadnet::generators::{GridConfig, grid_network};

    fn map() -> RoadNetwork {
        grid_network(&GridConfig { width: 12, height: 12, seed: 2, ..Default::default() }).unwrap()
    }

    #[test]
    fn build_requires_a_map() {
        let err = ServiceBuilder::new().build().unwrap_err();
        assert!(matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("map")));
    }

    #[test]
    fn build_rejects_zero_shards_and_bad_batch_policy() {
        let err = ServiceBuilder::new().map(map()).shards(0).build().unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("shards"))
        );
        let err = ServiceBuilder::new()
            .map(map())
            .batch_policy(BatchPolicy { max_batch: 0, max_delay: 1.0 })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("max_batch"))
        );
    }

    #[test]
    fn build_rejects_worker_pools_larger_than_the_fleet() {
        let err = ServiceBuilder::new()
            .map(map())
            .shards(2)
            .execution_policy(ExecutionPolicy::WorkerPool { threads: 4 })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("shard per thread")),
            "{err}"
        );
        // Zero-thread pools are rejected by config validation itself.
        let err = ServiceBuilder::new()
            .map(map())
            .execution_policy(ExecutionPolicy::WorkerPool { threads: 0 })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("thread")),
            "{err}"
        );
        // A matching fleet builds fine.
        assert!(
            ServiceBuilder::new()
                .map(map())
                .shards(4)
                .execution_policy(ExecutionPolicy::WorkerPool { threads: 4 })
                .build()
                .is_ok()
        );
    }

    #[test]
    fn build_rejects_mismatched_weights() {
        let err = ServiceBuilder::new().map(map()).weights(vec![1.0; 3]).build().unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("weights"))
        );
    }

    #[test]
    fn built_service_serves_a_batch() {
        let mut svc = ServiceBuilder::new()
            .map(map())
            .seed(7)
            .shards(3)
            .verify_results(true)
            .obfuscation_mode(ObfuscationMode::SharedGlobal)
            .build()
            .unwrap();
        assert_eq!(svc.backend().num_shards(), 3);
        let reqs: Vec<ClientRequest> = (0..4)
            .map(|i| {
                ClientRequest::new(
                    ClientId(i),
                    PathQuery::new(NodeId(i * 7), NodeId(143 - i * 5)),
                    ProtectionSettings::new(3, 3).unwrap(),
                )
            })
            .collect();
        let resp = svc.process_batch(&reqs).unwrap();
        assert_eq!(resp.results.len(), 4);
        assert_eq!(resp.report.mode, ObfuscationMode::SharedGlobal);
    }

    #[test]
    fn config_round_trips_through_serde() {
        let config = ServiceConfig {
            seed: 42,
            shards: 4,
            sharing: SharingPolicy::Auto,
            mode: ObfuscationMode::SharedGlobal,
            execution: ExecutionPolicy::WorkerPool { threads: 4 },
            batch: BatchPolicy { max_batch: 8, max_delay: 2.5 },
            admission: AdmissionPolicy { queue_depth: 64, deadline: Some(7.5) },
            ..Default::default()
        };
        let json = serde_json::to_string(&config).unwrap();
        assert!(json.contains("\"Auto\""), "{json}");
        assert!(json.contains("WorkerPool"), "{json}");
        assert!(json.contains("queue_depth"), "{json}");
        let back: ServiceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        // The retired fourth policy is outside input now: rejected, never
        // mapped onto one of the three that remain. (Its name is spelled in
        // halves so that a search for it finds no live use.)
        let retired = json.replace("\"Auto\"", concat!("\"Shared", "Frontier\""));
        assert_ne!(retired, json);
        assert!(serde_json::from_str::<ServiceConfig>(&retired).is_err(), "{retired}");
        // A deadline-less admission policy round-trips too (None ↔ null).
        let config = ServiceConfig::default();
        let back: ServiceConfig =
            serde_json::from_str(&serde_json::to_string(&config).unwrap()).unwrap();
        assert_eq!(back, config);
        assert_eq!(back.admission.deadline, None);
    }

    #[test]
    fn config_round_trips_partition_policies_and_legacy_json_still_parses() {
        for partition in [PartitionPolicy::RoundRobin, PartitionPolicy::RegionOwned { halo: 2 }] {
            let config = ServiceConfig { shards: 4, partition, ..Default::default() };
            let json = serde_json::to_string(&config).unwrap();
            if let PartitionPolicy::RegionOwned { .. } = partition {
                assert!(json.contains("RegionOwned"), "{json}");
                assert!(json.contains("halo"), "{json}");
            } else {
                assert!(json.contains("RoundRobin"), "{json}");
            }
            let back: ServiceConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, config, "{partition:?}");
        }
        // Defaults stay round-robin (the historical placement).
        assert_eq!(ServiceConfig::default().partition, PartitionPolicy::RoundRobin);
    }

    #[test]
    fn config_round_trips_search_heuristics() {
        for heuristic in [SearchHeuristic::None, SearchHeuristic::Alt { landmarks: 8 }] {
            let config = ServiceConfig { heuristic, ..Default::default() };
            let json = serde_json::to_string(&config).unwrap();
            if let SearchHeuristic::Alt { .. } = heuristic {
                assert!(json.contains("Alt"), "{json}");
                assert!(json.contains("landmarks"), "{json}");
            } else {
                assert!(json.contains("\"heuristic\":\"None\""), "{json}");
            }
            let back: ServiceConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, config, "{heuristic:?}");
        }
        // Defaults stay unguided (the historical behavior).
        assert_eq!(ServiceConfig::default().heuristic, SearchHeuristic::None);
    }

    #[test]
    fn build_shares_one_landmark_table_across_the_fleet() {
        let svc = ServiceBuilder::new()
            .map(map())
            .shards(3)
            .search_heuristic(SearchHeuristic::Alt { landmarks: 6 })
            .build()
            .unwrap();
        let tables: Vec<&Arc<pathsearch::AltPreprocessing>> = svc
            .backend()
            .shards()
            .iter()
            .map(|s| s.heuristic().expect("every shard carries the tables"))
            .collect();
        assert_eq!(tables[0].landmarks().len(), 6);
        for &t in &tables[1..] {
            assert!(Arc::ptr_eq(tables[0], t), "one shared table, not per-shard copies");
        }
        // Unguided fleets carry none.
        let svc = ServiceBuilder::new().map(map()).build().unwrap();
        assert!(svc.backend().shards()[0].heuristic().is_none());
    }

    #[test]
    fn build_rejects_unsatisfiable_heuristics() {
        // Zero landmarks: rejected by config validation itself.
        let err = ServiceBuilder::new()
            .map(map())
            .search_heuristic(SearchHeuristic::Alt { landmarks: 0 })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("landmark")),
            "{err}"
        );
        // More landmarks than the map has nodes: rejected at preprocess.
        let err = ServiceBuilder::new()
            .map(map())
            .search_heuristic(SearchHeuristic::Alt { landmarks: 1000 })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("landmark")),
            "{err}"
        );
    }

    #[test]
    fn guided_service_serves_batches_identically_to_unguided() {
        let reqs: Vec<ClientRequest> = (0..5)
            .map(|i| {
                ClientRequest::new(
                    ClientId(i),
                    PathQuery::new(NodeId(i * 13), NodeId(143 - i * 7)),
                    ProtectionSettings::new(3, 3).unwrap(),
                )
            })
            .collect();
        let run = |heuristic| {
            let mut svc = ServiceBuilder::new()
                .map(map())
                .seed(11)
                .shards(2)
                .search_heuristic(heuristic)
                .verify_results(true)
                .build()
                .unwrap();
            let resp = svc.process_batch(&reqs).unwrap();
            let stats = svc.backend().stats();
            (resp, stats)
        };
        let (plain, plain_stats) = run(SearchHeuristic::None);
        let (guided, guided_stats) = run(SearchHeuristic::Alt { landmarks: 8 });
        assert_eq!(plain.outcomes, guided.outcomes);
        assert_eq!(plain.results.len(), guided.results.len());
        for (a, b) in plain.results.iter().zip(&guided.results) {
            assert_eq!(a.path, b.path, "guided delivery diverged");
        }
        assert!(guided_stats.search.settled <= plain_stats.search.settled);
        assert_eq!(plain_stats.paths_returned, guided_stats.paths_returned);
    }

    #[test]
    fn build_assembles_region_owned_fleets() {
        let svc = ServiceBuilder::new()
            .map(map())
            .shards(3)
            .partition_policy(PartitionPolicy::RegionOwned { halo: 1 })
            .build()
            .unwrap();
        let partition = svc.backend().partition().expect("region-owned fleet carries a router");
        assert_eq!(partition.shards(), 3);
        assert!(map().nodes().all(|n| partition.owner_of(n).is_some()), "every node is owned");
        // Round-robin fleets carry no router.
        let svc = ServiceBuilder::new().map(map()).shards(3).build().unwrap();
        assert!(svc.backend().partition().is_none());
        // More shards than nodes cannot form non-empty regions.
        let err = ServiceBuilder::new()
            .map(map())
            .shards(145)
            .partition_policy(PartitionPolicy::RegionOwned { halo: 0 })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("non-empty")),
            "{err}"
        );
    }

    #[test]
    fn build_rejects_unsatisfiable_admission_policies() {
        let err = ServiceBuilder::new()
            .map(map())
            .admission_policy(AdmissionPolicy { queue_depth: 0, deadline: None })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("queue_depth")),
            "{err}"
        );
        let err = ServiceBuilder::new()
            .map(map())
            .admission_policy(AdmissionPolicy { queue_depth: 8, deadline: Some(-1.0) })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("deadline")),
            "{err}"
        );
    }

    #[test]
    fn config_round_trips_every_cache_policy_variant() {
        for cache in [CachePolicy::Off, CachePolicy::Lru { trees: 128 }] {
            let config = ServiceConfig {
                seed: 9,
                shards: 2,
                cache,
                execution: ExecutionPolicy::WorkerPool { threads: 2 },
                ..Default::default()
            };
            let json = serde_json::to_string(&config).unwrap();
            if let CachePolicy::Lru { .. } = cache {
                assert!(json.contains("Lru"), "{json}");
                assert!(json.contains("trees"), "{json}");
            } else {
                assert!(json.contains("Off"), "{json}");
            }
            let back: ServiceConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, config, "{cache:?}");
        }
        // Defaults stay cache-off (the historical behavior).
        assert_eq!(ServiceConfig::default().cache, CachePolicy::Off);
    }

    #[test]
    fn build_rejects_zero_capacity_tree_caches() {
        // Mirrors the zero-thread worker-pool rejection: constructible,
        // serializable, but unsatisfiable — caught at build().
        let err = ServiceBuilder::new()
            .map(map())
            .cache_policy(CachePolicy::Lru { trees: 0 })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("tree")),
            "{err}"
        );
        // And a satisfiable cache builds a working cached fleet.
        let svc = ServiceBuilder::new()
            .map(map())
            .shards(2)
            .cache_policy(CachePolicy::Lru { trees: 16 })
            .build()
            .unwrap();
        for shard in svc.backend().shards() {
            let cache = shard.tree_cache().expect("every shard carries its own cache");
            assert_eq!(cache.capacity(), 16);
            assert!(cache.is_empty());
        }
    }

    #[test]
    fn unbounded_tree_caches_from_config_build_and_serve() {
        // The capacity is operator input: a huge one must not be reserved
        // up front.
        let config = ServiceConfig {
            shards: 2,
            cache: CachePolicy::Lru { trees: usize::MAX },
            ..Default::default()
        };
        let config: ServiceConfig =
            serde_json::from_str(&serde_json::to_string(&config).unwrap()).unwrap();
        let mut svc = ServiceBuilder::from_config(config).map(map()).build().unwrap();
        let req = ClientRequest::new(
            ClientId(0),
            PathQuery::new(NodeId(0), NodeId(143)),
            ProtectionSettings::new(2, 2).unwrap(),
        );
        for _ in 0..2 {
            assert_eq!(svc.process_batch(&[req]).unwrap().results.len(), 1);
        }
        for shard in svc.backend().shards() {
            assert_eq!(shard.tree_cache().expect("cached fleet").capacity(), usize::MAX);
        }
    }

    #[test]
    fn custom_backend_is_accepted() {
        let g = map();
        let backend = DirectionsServer::new(g.clone(), SharingPolicy::None);
        let mut svc = ServiceBuilder::new().map(g).build_with_backend(backend).unwrap();
        let req = ClientRequest::new(
            ClientId(0),
            PathQuery::new(NodeId(0), NodeId(143)),
            ProtectionSettings::new(2, 2).unwrap(),
        );
        let resp = svc.process_batch(&[req]).unwrap();
        assert_eq!(resp.results.len(), 1);
    }
}

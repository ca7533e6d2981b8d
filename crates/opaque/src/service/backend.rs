//! Pluggable directions-search backends.
//!
//! The paper's pipeline (Figure 5) names one concrete server; a production
//! deployment serves the same obfuscated-query protocol from whatever is
//! behind the wire — a single in-memory server, a paged-storage server, or
//! a fleet of shards. [`DirectionsBackend`] is that protocol boundary: the
//! exact operation surface the obfuscator needs from "the server side",
//! and nothing more. Two things are generic over it: the worker-pool loop
//! in [`crate::service::parallel`], which drives any `Send` shard type
//! from whatever queues [`ShardedBackend::process_many`] binds the shards
//! to, and
//! [`crate::service::OpaqueService`], so a test can put a fake server
//! behind the service (the tampering wrapper in `service/mod.rs`'s tests).

use crate::error::{OpaqueError, Result};
use crate::query::ObfuscatedPathQuery;
use crate::server::{DirectionsServer, ServerStats};
use crate::service::parallel::{self, ExecutionPolicy, Queue};
use crate::service::partition::Partition;
use pathsearch::{EdgeChange, MsmdResult};
use roadnet::{GraphView, RoadNetwork};
use std::sync::{Arc, OnceLock};

/// Anything that can answer directions queries for the OPAQUE pipeline.
///
/// Implementations must answer **honestly** (return a correct shortest
/// path for every connected pair they report) but are assumed
/// semi-trusted: they observe every query they serve, which is why they
/// only ever receive obfuscated queries from the service.
pub trait DirectionsBackend {
    /// Answer an obfuscated path query: candidate paths for all
    /// `|S| × |T|` pairs (`None` entries for disconnected pairs).
    fn process(&mut self, query: &ObfuscatedPathQuery) -> MsmdResult;

    /// Answer a whole batch of obfuscated queries, one result per query
    /// **in query order**.
    ///
    /// The default implementation evaluates sequentially on the calling
    /// thread regardless of `execution` — a single backend owns a single
    /// search arena, so there is nothing to fan out over. Multi-shard
    /// backends override this: [`ShardedBackend`] dispatches a
    /// [`ExecutionPolicy::WorkerPool`] batch across its shard fleet with
    /// one pinned worker per shard (see [`crate::service::parallel`]),
    /// returning results that are — by the determinism harness's proof
    /// obligation — identical to this sequential reference.
    fn process_many(
        &mut self,
        queries: &[ObfuscatedPathQuery],
        execution: ExecutionPolicy,
    ) -> Vec<MsmdResult> {
        let _ = execution;
        queries.iter().map(|q| self.process(q)).collect()
    }

    /// Cumulative load counters across every query served.
    fn stats(&self) -> ServerStats;
}

impl<G: GraphView> DirectionsBackend for DirectionsServer<G> {
    fn process(&mut self, query: &ObfuscatedPathQuery) -> MsmdResult {
        DirectionsServer::process(self, query)
    }

    fn stats(&self) -> ServerStats {
        DirectionsServer::stats(self)
    }
}

/// Fan-out over several backends: round-robin or region-owned placement
/// one query at a time, or a pinned-worker pool for whole batches.
///
/// Every shard holds (a view of) the whole map, so any shard can answer
/// any query — queries are independent, and each obfuscated query is
/// already a self-contained unit of work. Placement is pluggable:
///
/// * **Round-robin** ([`ShardedBackend::new`]): single queries
///   ([`DirectionsBackend::process`]) balance load by simple rotation,
///   and [`ExecutionPolicy::WorkerPool`] batches bind every shard to one
///   shared queue of units, so workers claim work until it is gone.
/// * **Region-owned** ([`ShardedBackend::with_partition`]): a
///   [`Partition`] routes every query to the shard owning its
///   obfuscation region (halo fallback → any-owner fallback), so each
///   shard's tree cache sees spatially clustered roots. Worker-pool
///   batches bind each shard to **its own queue** — the units routed to
///   it — in the same pool loop; see [`parallel`].
///
/// Either way the fleet's backend impl requires `B: Send`, and cumulative
/// [`ServerStats`] aggregate over all shards via the commutative
/// [`ServerStats::merge`], so reports describe fleet-wide cost regardless
/// of which shard served which unit — placement is report-invisible
/// (`tests/partition_equivalence.rs`).
pub struct ShardedBackend<B> {
    shards: Vec<B>,
    cursor: usize,
    router: Option<Partition>,
}

impl<B: DirectionsBackend> ShardedBackend<B> {
    /// Build from a non-empty shard fleet.
    ///
    /// # Errors
    /// [`OpaqueError::InvalidConfig`] when `shards` is empty.
    pub fn new(shards: Vec<B>) -> Result<Self> {
        if shards.is_empty() {
            return Err(OpaqueError::InvalidConfig {
                reason: "sharded backend needs at least one shard".to_string(),
            });
        }
        Ok(ShardedBackend { shards, cursor: 0, router: None })
    }

    /// Build a region-owned fleet: `partition` routes every query to the
    /// shard owning its obfuscation region instead of rotating a cursor.
    ///
    /// # Errors
    /// [`OpaqueError::InvalidConfig`] when the fleet is empty or the
    /// partition was built for a different shard count.
    pub fn with_partition(shards: Vec<B>, partition: Partition) -> Result<Self> {
        if partition.shards() != shards.len() {
            return Err(OpaqueError::InvalidConfig {
                reason: format!(
                    "partition has {} regions for a fleet of {} shards",
                    partition.shards(),
                    shards.len()
                ),
            });
        }
        let mut backend = Self::new(shards)?;
        backend.router = Some(partition);
        Ok(backend)
    }

    /// The region partition routing this fleet, if any (`None` means
    /// round-robin placement).
    pub fn partition(&self) -> Option<&Partition> {
        self.router.as_ref()
    }

    /// Number of shards in the fleet.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, for per-shard inspection (load skew, I/O counters, …).
    pub fn shards(&self) -> &[B] {
        &self.shards
    }

    /// Per-shard pair counts — a quick balance check for experiments.
    pub fn load_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.stats().pairs_evaluated).collect()
    }
}

/// Live-map maintenance for the standard fleet shape — shards sharing one
/// map through an `Arc` (what [`crate::ServiceBuilder`] assembles). Both
/// entry points keep the one-map-per-fleet memory property: a weight
/// update reweights the shared map **in place** and hands the same `Arc`
/// back to every shard, copying the map only for a snapshot held outside
/// the fleet; a swap distributes the one `Arc` it is given.
/// [`crate::OpaqueService`] hands its obfuscator the same snapshot.
impl ShardedBackend<DirectionsServer<Arc<RoadNetwork>>> {
    /// Apply live-traffic weight updates fleet-wide. The changed edges are
    /// measured once, on the map the fleet served until now, before it is
    /// written, and every shard installs the reweighted map and repairs
    /// (or, for early-stopped sweeps, evicts) only the cached trees whose
    /// recorded sweep touched a changed edge
    /// ([`DirectionsServer::apply_weight_update`]) —
    /// region-owned shards whose cached sweeps stay clear of the
    /// congestion keep their whole cache untouched. Returns the edges
    /// whose weight actually changed. The region
    /// partition (if any) is untouched: it is built from hop distances,
    /// which weight updates cannot move.
    ///
    /// Every shard lets go of the map while it is written, so the write
    /// goes through [`Arc::make_mut`] in place unless a caller outside the
    /// fleet still holds the map; that holder's snapshot keeps the old
    /// weights.
    ///
    /// # Errors
    /// Propagates [`roadnet::RoadNetError`] from
    /// [`roadnet::RoadNetwork::update_weights`]; no weight changes and no
    /// cached tree is touched on error.
    pub fn update_weights(
        &mut self,
        updates: &[(roadnet::EdgeId, f64)],
    ) -> std::result::Result<Vec<roadnet::EdgeId>, roadnet::RoadNetError> {
        let mut map = self.shards[0].replace_graph(placeholder_map());
        for shard in &mut self.shards[1..] {
            shard.replace_graph(placeholder_map());
        }
        // An edge's change is measured before the write overwrites its
        // old weight: every updated edge is measured (an unknown id is
        // the write's error to report), and those the write left
        // unchanged are dropped after it.
        let mut measured: Vec<(roadnet::EdgeId, EdgeChange)> = updates
            .iter()
            .filter(|(e, _)| e.index() < map.num_edges())
            .map(|&(e, _)| {
                let edge = map.edge(e);
                (e, EdgeChange::before(&*map, edge.a, edge.b))
            })
            .collect();
        measured.sort_unstable_by_key(|&(e, _)| e);
        measured.dedup_by_key(|&mut (e, _)| e);
        let written = Arc::make_mut(&mut map).update_weights(updates);
        // A failed write changed nothing, so every shard gets the map back
        // with no change to repair.
        let changed = written.as_deref().unwrap_or(&[]);
        let changes: Vec<EdgeChange> = measured
            .into_iter()
            .filter(|(e, _)| changed.binary_search(e).is_ok())
            .map(|(_, change)| change)
            .collect();
        for shard in &mut self.shards {
            shard.apply_weight_update(Arc::clone(&map), &changes);
        }
        written
    }

    /// Replace the served map fleet-wide — the topology-change path. Every
    /// shard's cache bumps its epoch and drops every tree
    /// ([`DirectionsServer::swap_map`]); use
    /// [`ShardedBackend::update_weights`] for traffic.
    pub fn swap_map(&mut self, map: impl Into<Arc<RoadNetwork>>) {
        let shared = map.into();
        for shard in &mut self.shards {
            shard.swap_map(Arc::clone(&shared));
        }
    }
}

/// A one-node map that a holder of the fleet's map keeps in its place
/// while the map is written, so the write need not copy it. Nothing
/// searches it: every holder gets the written map back before the
/// update returns.
pub(crate) fn placeholder_map() -> Arc<RoadNetwork> {
    static ONE_NODE: OnceLock<Arc<RoadNetwork>> = OnceLock::new();
    let map = ONE_NODE.get_or_init(|| {
        let mut builder = roadnet::GraphBuilder::new();
        builder.add_node(roadnet::Point::new(0.0, 0.0)).expect("a finite point");
        Arc::new(builder.build().expect("a one-node map"))
    });
    Arc::clone(map)
}

impl<B: DirectionsBackend + Send> DirectionsBackend for ShardedBackend<B> {
    fn process(&mut self, query: &ObfuscatedPathQuery) -> MsmdResult {
        let picked = match &self.router {
            Some(partition) => partition.route(query),
            None => {
                let picked = self.cursor;
                self.cursor = (self.cursor + 1) % self.shards.len();
                picked
            }
        };
        self.shards[picked].process(query)
    }

    fn process_many(
        &mut self,
        queries: &[ObfuscatedPathQuery],
        execution: ExecutionPolicy,
    ) -> Vec<MsmdResult> {
        match execution {
            // Sequential batches go through the routed/rotating
            // single-query path, preserving the historical per-shard load
            // pattern.
            ExecutionPolicy::Sequential => {
                queries.iter().map(|q| DirectionsBackend::process(self, q)).collect()
            }
            ExecutionPolicy::WorkerPool { threads } => {
                // The binding, computed once per batch: region-owned
                // fleets give every shard the units routed to it,
                // round-robin fleets share one queue of everything.
                let queues: Vec<Queue> = match &self.router {
                    Some(partition) => {
                        let mut routed = vec![Vec::new(); self.shards.len()];
                        for (i, q) in queries.iter().enumerate() {
                            routed[partition.route(q)].push(i);
                        }
                        routed.into_iter().map(Queue::new).collect()
                    }
                    None => vec![Queue::new((0..queries.len()).collect())],
                };
                parallel::run_pool(&mut self.shards, queries, &queues, threads)
            }
        }
    }

    fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathsearch::SharingPolicy;
    use roadnet::NodeId;
    use roadnet::generators::{GridConfig, grid_network};

    fn server() -> DirectionsServer<roadnet::RoadNetwork> {
        let g = grid_network(&GridConfig { width: 10, height: 10, seed: 3, ..Default::default() })
            .unwrap();
        DirectionsServer::new(g, SharingPolicy::PerSource)
    }

    #[test]
    fn sharded_round_robin_rotates_and_aggregates() {
        let mut sharded = ShardedBackend::new(vec![server(), server(), server()]).unwrap();
        let q = ObfuscatedPathQuery::new(vec![NodeId(0)], vec![NodeId(99)]);
        for _ in 0..6 {
            let r = DirectionsBackend::process(&mut sharded, &q);
            assert_eq!(r.num_paths(), 1);
        }
        // 6 queries over 3 shards: exactly 2 each.
        assert_eq!(sharded.load_per_shard(), vec![2, 2, 2]);
        assert_eq!(sharded.stats().obfuscated_queries, 6);
        assert_eq!(sharded.stats().pairs_evaluated, 6);
    }

    #[test]
    fn process_many_worker_pool_matches_sequential_round_robin() {
        let qs: Vec<ObfuscatedPathQuery> = (0..10)
            .map(|i| {
                ObfuscatedPathQuery::new(
                    vec![NodeId(i), NodeId(i + 20)],
                    vec![NodeId(99 - i), NodeId(50 + i)],
                )
            })
            .collect();
        let mut seq = ShardedBackend::new(vec![server(), server(), server()]).unwrap();
        let mut par = ShardedBackend::new(vec![server(), server(), server()]).unwrap();
        let a = seq.process_many(&qs, ExecutionPolicy::Sequential);
        let b = par.process_many(&qs, ExecutionPolicy::WorkerPool { threads: 3 });
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.paths, y.paths, "unit {i}");
            assert_eq!(x.stats, y.stats, "unit {i}");
        }
        // Per-shard distribution may differ (rotation vs work stealing),
        // but the fleet-merged counters are execution-invariant.
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let empty: Vec<DirectionsServer<roadnet::RoadNetwork>> = vec![];
        assert!(matches!(ShardedBackend::new(empty), Err(OpaqueError::InvalidConfig { .. })));
    }

    #[test]
    fn fleet_weight_update_shares_one_map_and_keeps_partition() {
        use crate::service::cache::CachePolicy;
        use std::sync::Arc;

        let g = grid_network(&GridConfig { width: 10, height: 10, seed: 3, ..Default::default() })
            .unwrap();
        let shared = Arc::new(g.clone());
        let shards: Vec<_> = (0..3)
            .map(|_| {
                DirectionsServer::new(Arc::clone(&shared), SharingPolicy::PerSource)
                    .with_tree_cache(CachePolicy::Lru { trees: 4 })
            })
            .collect();
        let partition = Partition::build(&g, 3, 1).unwrap();
        let owners = |p: &Partition| g.nodes().map(|n| p.owner_of(n)).collect::<Vec<_>>();
        let before_regions = owners(&partition);
        let mut fleet = ShardedBackend::with_partition(shards, partition).unwrap();

        let changed = fleet.update_weights(&[(roadnet::EdgeId(0), 123.0)]).unwrap();
        assert_eq!(changed, vec![roadnet::EdgeId(0)]);
        // One fresh map, shared by every shard — not three copies.
        let first = fleet.shards()[0].graph();
        assert_eq!(first.edge(roadnet::EdgeId(0)).weight, 123.0);
        for shard in fleet.shards() {
            assert!(Arc::ptr_eq(first, shard.graph()), "fleet must share one Arc");
        }
        // The hop-distance partition is weight-independent and untouched.
        assert_eq!(owners(fleet.partition().unwrap()), before_regions);

        // A bad batch leaves every shard on the old map.
        assert!(fleet.update_weights(&[(roadnet::EdgeId(0), f64::NAN)]).is_err());
        assert_eq!(fleet.shards()[0].graph().edge(roadnet::EdgeId(0)).weight, 123.0);

        // swap_map is the epoch-bumping topology path.
        fleet.swap_map(g);
        for shard in fleet.shards() {
            assert!(shard.tree_cache().unwrap().is_empty());
        }
    }
}

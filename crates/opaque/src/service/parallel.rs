//! Worker-pool execution of obfuscated-query workloads.
//!
//! Every obfuscated query `Q(S,T)` of a batch is a self-contained unit of
//! work — the server answers each independently (Definition 1), so the
//! server-side cost the paper analyzes in §V is embarrassingly parallel
//! across queries. This module is the execution layer that exploits that:
//! one [`std::thread`] pool loop (`run_pool`) in which every
//! backend shard (and therefore that shard's [`pathsearch::SearchArena`]
//! — arenas are `Send` but never shared) is bound to a **queue** of unit
//! indices behind one atomic cursor, and is served by exactly one worker
//! thread. The two placements differ only in the binding:
//!
//! * round-robin binds every shard to one shared queue, so workers claim
//!   units until the batch is drained and a straggler never idles the
//!   rest of the pool;
//! * region-owned ([`crate::PartitionPolicy::RegionOwned`]) binds shard
//!   `s` to its own queue — the units the partition routed to it — so
//!   placement never depends on the pool's width.
//!
//! Determinism is the design constraint, not an afterthought:
//!
//! * each MSMD evaluation is a pure function of `(graph, query, policy)` —
//!   the arena only caches buffers, it never changes answers;
//! * results are written back into their unit's slot, so the service's
//!   accounting loop always runs in unit order, independent of which
//!   worker finished first;
//! * per-shard [`crate::server::ServerStats`] land on whichever shard
//!   served the unit, but batch reports only ever read the *fleet-merged*
//!   counters, and [`crate::server::ServerStats::merge`] is commutative —
//!   so scheduling order cannot leak into any report.
//!
//! The lattice proptest (`tests/lattice.rs`) holds the whole layer to
//! byte-identical `BatchReport`s against sequential execution.

use crate::error::{OpaqueError, Result};
use crate::query::ObfuscatedPathQuery;
use crate::service::backend::DirectionsBackend;
use pathsearch::MsmdResult;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How a service executes the obfuscated queries of one batch against its
/// backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ExecutionPolicy {
    /// One thread, unit by unit, in unit order — the historical behavior
    /// and the reference the determinism harness compares against.
    #[default]
    Sequential,
    /// A worker pool of `threads` OS threads, each owning the backend
    /// shards it serves (every shard holds a view of the whole map, so
    /// any shard can answer any unit) — see the module docs for how
    /// units reach shards under each placement.
    WorkerPool {
        /// Number of worker threads; capped at the backend's shard count
        /// (a worker without a shard of its own would have no arena).
        threads: usize,
    },
}

impl ExecutionPolicy {
    /// Check the policy is satisfiable.
    ///
    /// # Errors
    /// [`OpaqueError::InvalidConfig`] for a zero-thread pool.
    pub fn validate(&self) -> Result<()> {
        match self {
            ExecutionPolicy::Sequential => Ok(()),
            ExecutionPolicy::WorkerPool { threads: 0 } => Err(OpaqueError::InvalidConfig {
                reason: "execution policy: a worker pool needs at least one thread".to_string(),
            }),
            ExecutionPolicy::WorkerPool { .. } => Ok(()),
        }
    }

    /// Worker threads this policy asks for (1 for sequential execution).
    pub fn threads(&self) -> usize {
        match self {
            ExecutionPolicy::Sequential => 1,
            ExecutionPolicy::WorkerPool { threads } => (*threads).max(1),
        }
    }

    /// Short name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            ExecutionPolicy::Sequential => "sequential".to_string(),
            ExecutionPolicy::WorkerPool { threads } => format!("pool({threads})"),
        }
    }
}

/// One work queue of a batch: unit indices in unit order, claimed one
/// `fetch_add` at a time, so work stays balanced between the shards
/// sharing a queue even when unit costs are skewed — exactly the
/// situation obfuscated batches produce, where one large shared query can
/// dwarf the independent ones.
pub(crate) struct Queue {
    units: Vec<usize>,
    cursor: AtomicUsize,
}

impl Queue {
    pub(crate) fn new(units: Vec<usize>) -> Self {
        Queue { units, cursor: AtomicUsize::new(0) }
    }

    fn claim(&self) -> Option<usize> {
        self.units.get(self.cursor.fetch_add(1, Ordering::Relaxed)).copied()
    }
}

/// Fan `queries` out over `shards` with a pool of at most `threads`
/// workers; returns one result per query, **in query order**.
///
/// `queues` is either one queue shared by the whole fleet or one queue
/// per shard; between them they must name every unit exactly once. Shard
/// `s` drains the queue it is bound to (`s % queues.len()`) and worker
/// `w` serves every shard `s` with `s % workers == w`, one after the
/// other — each shard (and its arena and tree cache) stays owned by
/// exactly one thread even when the pool is narrower than the fleet, and
/// a shard that finds its queue already drained sits the batch out. One
/// worker runs on the calling thread and skips the spawn/join overhead.
///
/// A worker panic (a poisoned graph view, an out-of-range query) is
/// re-raised on the calling thread once the scope joins, so errors are
/// never silently swallowed into a missing result.
pub(crate) fn run_pool<B: DirectionsBackend + Send>(
    shards: &mut [B],
    queries: &[ObfuscatedPathQuery],
    queues: &[Queue],
    threads: usize,
) -> Vec<MsmdResult> {
    debug_assert!(
        queues.len() == 1 || queues.len() == shards.len(),
        "one queue for the fleet, or one per shard"
    );
    let workers = threads.clamp(1, shards.len().max(1)).min(queries.len().max(1));
    let mut buckets: Vec<Vec<(&mut B, &Queue)>> = (0..workers).map(|_| Vec::new()).collect();
    for (s, shard) in shards.iter_mut().enumerate() {
        buckets[s % workers].push((shard, &queues[s % queues.len()]));
    }
    let serve = |bucket: Vec<(&mut B, &Queue)>| {
        let mut local = Vec::new();
        for (shard, queue) in bucket {
            while let Some(i) = queue.claim() {
                local.push((i, shard.process(&queries[i])));
            }
        }
        local
    };
    let collected: Vec<Vec<(usize, MsmdResult)>> = if workers == 1 {
        buckets.into_iter().map(serve).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                buckets.into_iter().map(|bucket| scope.spawn(move || serve(bucket))).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        })
    };

    let mut slots: Vec<Option<MsmdResult>> = (0..queries.len()).map(|_| None).collect();
    for (i, result) in collected.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "unit {i} was queued twice");
        slots[i] = Some(result);
    }
    slots.into_iter().map(|r| r.expect("every unit is queued exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::DirectionsServer;
    use crate::service::backend::ShardedBackend;
    use crate::service::partition::Partition;
    use pathsearch::SharingPolicy;
    use roadnet::NodeId;
    use roadnet::generators::{GridConfig, grid_network};

    fn fleet(n: usize) -> Vec<DirectionsServer<roadnet::RoadNetwork>> {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 4, ..Default::default() })
            .unwrap();
        (0..n).map(|_| DirectionsServer::new(g.clone(), SharingPolicy::PerSource)).collect()
    }

    fn queries(n: u32) -> Vec<ObfuscatedPathQuery> {
        (0..n)
            .map(|i| {
                ObfuscatedPathQuery::new(
                    vec![NodeId(i % 144), NodeId((i * 7 + 3) % 144)],
                    vec![NodeId(143 - i % 144), NodeId((i * 11 + 40) % 144)],
                )
            })
            .collect()
    }

    /// The round-robin binding: one queue of every unit.
    fn shared(units: usize) -> Vec<Queue> {
        vec![Queue::new((0..units).collect())]
    }

    #[test]
    fn pool_results_land_in_query_order_and_match_sequential() {
        let qs = queries(17);
        let mut seq_fleet = fleet(1);
        let sequential: Vec<MsmdResult> = qs.iter().map(|q| seq_fleet[0].process(q)).collect();
        let partition = Partition::build(seq_fleet[0].graph(), 4, 1).unwrap();

        for region_owned in [false, true] {
            let mut load_at_first_width = None;
            for threads in [1usize, 2, 4] {
                let mut backend = if region_owned {
                    ShardedBackend::with_partition(fleet(4), partition.clone())
                } else {
                    ShardedBackend::new(fleet(4))
                }
                .unwrap();
                let pooled = backend.process_many(&qs, ExecutionPolicy::WorkerPool { threads });
                assert_eq!(pooled.len(), qs.len());
                for (i, (p, s)) in pooled.iter().zip(&sequential).enumerate() {
                    assert_eq!(p.paths, s.paths, "unit {i} at {threads} threads");
                    assert_eq!(p.stats, s.stats, "unit {i}: per-unit counters are assignment-free");
                }
                // Fleet-merged load equals the sequential single server's
                // load: assignment moves counters between shards, never
                // changes sums.
                assert_eq!(backend.stats(), seq_fleet[0].stats(), "{threads} threads");
                // Region-owned placement is pinned by the partition, not
                // by the pool's width.
                if region_owned {
                    let load = backend.load_per_shard();
                    assert!(load.iter().filter(|&&pairs| pairs > 0).count() > 1, "{load:?}");
                    assert_eq!(*load_at_first_width.get_or_insert(load.clone()), load);
                }
            }
        }
    }

    #[test]
    fn pool_clamps_workers_to_shards_and_queries() {
        let qs = queries(3);
        // More threads than shards: capped at the fleet size.
        let mut shards = fleet(2);
        let r = run_pool(&mut shards, &qs, &shared(3), 16);
        assert_eq!(r.len(), 3);
        // More threads than queries: never spawns idle workers.
        let mut shards = fleet(8);
        let r = run_pool(&mut shards, &qs, &shared(3), 8);
        assert_eq!(r.len(), 3);
        // Zero queries is a no-op.
        let r = run_pool(&mut shards, &[], &shared(0), 8);
        assert!(r.is_empty());
    }

    #[test]
    fn routed_pool_matches_sequential_and_honors_assignment() {
        let qs = queries(13);
        let mut seq_fleet = fleet(1);
        let sequential: Vec<MsmdResult> = qs.iter().map(|q| seq_fleet[0].process(q)).collect();
        let assignment: Vec<usize> = (0..qs.len()).map(|i| (i * 3) % 4).collect();
        let per_shard = || -> Vec<Queue> {
            (0..4)
                .map(|s| Queue::new((0..qs.len()).filter(|&i| assignment[i] == s).collect()))
                .collect()
        };

        // Any pool width — including narrower than the fleet and a single
        // worker — serves each unit on its assigned shard.
        for threads in [1usize, 2, 4, 7] {
            let mut shards = fleet(4);
            let routed = run_pool(&mut shards, &qs, &per_shard(), threads);
            assert_eq!(routed.len(), qs.len());
            for (i, (p, s)) in routed.iter().zip(&sequential).enumerate() {
                assert_eq!(p.paths, s.paths, "unit {i} at {threads} threads");
                assert_eq!(p.stats, s.stats, "unit {i} at {threads} threads");
            }
            // Placement is pinned by the assignment, not the pool width.
            for (s, shard) in shards.iter().enumerate() {
                let expected = assignment.iter().filter(|&&a| a == s).count() as u64;
                assert_eq!(
                    shard.stats().obfuscated_queries,
                    expected,
                    "shard {s} at {threads} threads"
                );
            }
        }
        // Zero queries is a no-op.
        let mut shards = fleet(4);
        let empty: Vec<Queue> = (0..4).map(|_| Queue::new(Vec::new())).collect();
        assert!(run_pool(&mut shards, &[], &empty, 4).is_empty());
    }

    #[test]
    fn policy_validation_and_names() {
        assert!(ExecutionPolicy::Sequential.validate().is_ok());
        assert!(ExecutionPolicy::WorkerPool { threads: 4 }.validate().is_ok());
        assert!(matches!(
            ExecutionPolicy::WorkerPool { threads: 0 }.validate(),
            Err(OpaqueError::InvalidConfig { .. })
        ));
        assert_eq!(ExecutionPolicy::Sequential.name(), "sequential");
        assert_eq!(ExecutionPolicy::WorkerPool { threads: 4 }.name(), "pool(4)");
        assert_eq!(ExecutionPolicy::Sequential.threads(), 1);
        assert_eq!(ExecutionPolicy::WorkerPool { threads: 4 }.threads(), 4);
        assert_eq!(ExecutionPolicy::default(), ExecutionPolicy::Sequential);
    }

    #[test]
    fn policy_round_trips_through_serde() {
        for policy in [ExecutionPolicy::Sequential, ExecutionPolicy::WorkerPool { threads: 6 }] {
            let json = serde_json::to_string(&policy).unwrap();
            let back: ExecutionPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, policy);
        }
    }
}

//! The directions-search server with its obfuscated path query processor
//! (§IV).
//!
//! The server is semi-trusted: it evaluates whatever queries it receives,
//! honestly, but observes them all — which is why it receives only
//! obfuscated queries. [`DirectionsServer`] wraps any [`GraphView`] (the
//! plain in-memory network or the CCAM page store on disk,
//! [`roadnet::ChunkedCsr`]), answers plain path
//! queries with single-pair Dijkstra and obfuscated queries with the MSMD
//! processor, and keeps cumulative load counters so experiments can compare
//! what different obfuscation regimes cost the provider.

use crate::query::{ObfuscatedPathQuery, PathQuery};
use crate::service::cache::{CachePolicy, TreeCache};
use pathsearch::{
    AltPreprocessing, EdgeChange, Goal, MsmdResult, Path, SearchArena, SearchStats, SharingPolicy,
    msmd_in_guided, msmd_in_guided_cached, run_tree,
};
use roadnet::{GraphView, NodeId};
use std::sync::Arc;

/// Cumulative server-side load counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServerStats {
    /// Obfuscated queries processed.
    pub obfuscated_queries: u64,
    /// Plain (unprotected) queries processed.
    pub plain_queries: u64,
    /// Total (source, target) pairs evaluated.
    pub pairs_evaluated: u64,
    /// Candidate result paths produced (connected pairs only).
    pub paths_returned: u64,
    /// Spanning trees actually grown, as attributed by
    /// [`pathsearch::MsmdResult::per_tree`] — under
    /// [`SharingPolicy::Auto`] transposition this counts the smaller-side
    /// trees really grown, not `|S|`. Plain queries count one tree each.
    pub trees_grown: u64,
    /// Trees served by adopting a cached sweep from the shard's
    /// [`TreeCache`] instead of growing them (always 0 under
    /// [`CachePolicy::Off`]). Hits still count in `trees_grown` and in
    /// `search` — adoption replays the skipped sweep's counters
    /// byte-for-byte, so every *logical* field reads identically whether
    /// or not a cache sat in front of the sweep; only this pair reveals
    /// the cache's presence, which is why reports keep it off the wire
    /// (see [`crate::BatchReport`]).
    pub tree_cache_hits: u64,
    /// Trees grown for real after consulting the cache (entry absent, or
    /// the goal lay beyond the recorded prefix). 0 under
    /// [`CachePolicy::Off`] — with no cache there are no lookups. A plain
    /// miss records its sweep to twice the depth its goal needed before
    /// storing it, but `search` counts only the logical, goal-stop work,
    /// as it does for a hit ([`TreeCache::miss_causes`] splits the misses
    /// by cause).
    pub tree_cache_misses: u64,
    /// Aggregated search counters.
    pub search: SearchStats,
}

impl ServerStats {
    /// Fold another counter set into this one — used by multi-backend
    /// deployments (e.g. [`crate::service::ShardedBackend`]) to report
    /// fleet-wide load.
    ///
    /// Merging is **commutative and associative** (every field is a plain
    /// sum), which is what lets a parallel shard fleet attribute work to
    /// whichever worker pulled it: the fleet-wide merge reads the same in
    /// any order, so scheduling cannot leak into reports. Pinned by
    /// `merge_is_commutative_and_associative` below.
    pub fn merge(&mut self, other: &ServerStats) {
        self.obfuscated_queries += other.obfuscated_queries;
        self.plain_queries += other.plain_queries;
        self.pairs_evaluated += other.pairs_evaluated;
        self.paths_returned += other.paths_returned;
        self.trees_grown += other.trees_grown;
        self.tree_cache_hits += other.tree_cache_hits;
        self.tree_cache_misses += other.tree_cache_misses;
        self.search.merge(other.search);
    }

    /// The counter growth since `baseline` — the per-batch view of a
    /// cumulative counter set. Saturating per field, so a baseline taken
    /// after `self` yields zeros rather than wrapping.
    pub fn delta_since(&self, baseline: &ServerStats) -> ServerStats {
        ServerStats {
            obfuscated_queries: self.obfuscated_queries.saturating_sub(baseline.obfuscated_queries),
            plain_queries: self.plain_queries.saturating_sub(baseline.plain_queries),
            pairs_evaluated: self.pairs_evaluated.saturating_sub(baseline.pairs_evaluated),
            paths_returned: self.paths_returned.saturating_sub(baseline.paths_returned),
            trees_grown: self.trees_grown.saturating_sub(baseline.trees_grown),
            tree_cache_hits: self.tree_cache_hits.saturating_sub(baseline.tree_cache_hits),
            tree_cache_misses: self.tree_cache_misses.saturating_sub(baseline.tree_cache_misses),
            search: pathsearch::SearchStats {
                settled: self.search.settled.saturating_sub(baseline.search.settled),
                relaxed: self.search.relaxed.saturating_sub(baseline.search.relaxed),
            },
        }
    }
}

/// The server: a graph view, an MSMD sharing policy, load counters, and
/// an optional shard-local [`TreeCache`].
///
/// Plain and obfuscated queries share one [`SearchArena`], so a server
/// evaluating a query stream allocates nothing in the search core after
/// the first query grows the arena to the map's size. With a tree cache
/// attached ([`DirectionsServer::with_tree_cache`]), queries whose roots
/// already have a deep-enough cached tree skip their Dijkstra sweeps
/// entirely — with answers and counters byte-identical to the uncached
/// evaluation (see [`crate::service::cache`]).
pub struct DirectionsServer<G> {
    graph: G,
    policy: SharingPolicy,
    arena: SearchArena,
    /// Load counters; the tree-cache pair stays 0 here and is read off
    /// the cache in [`DirectionsServer::stats`].
    stats: ServerStats,
    /// The shard-local tree cache; it keys entries by its own map epoch,
    /// which [`DirectionsServer::swap_map`] bumps.
    cache: Option<TreeCache>,
    /// ALT landmark tables guiding obfuscated sweeps, shared across the
    /// fleet behind an `Arc` (`None` = unguided, the historical regime).
    heuristic: Option<Arc<AltPreprocessing>>,
}

impl<G: GraphView> DirectionsServer<G> {
    /// A server over `graph` evaluating obfuscated queries under `policy`.
    pub fn new(graph: G, policy: SharingPolicy) -> Self {
        Self::with_arena(graph, policy, SearchArena::new())
    }

    /// A server around a caller-built arena — e.g.
    /// [`SearchArena::preallocated`] to the map's node count, so a worker
    /// thread pinned to this server never pays first-touch buffer growth
    /// mid-stream. The arena is owned exclusively; it is never shared
    /// between servers (or threads).
    pub fn with_arena(graph: G, policy: SharingPolicy, arena: SearchArena) -> Self {
        DirectionsServer {
            graph,
            policy,
            arena,
            stats: ServerStats::default(),
            cache: None,
            heuristic: None,
        }
    }

    /// Attach (or remove) a shard-local tree cache per `policy`. The
    /// cache starts cold, at map epoch 0.
    ///
    /// # Panics
    /// Panics on `CachePolicy::Lru { trees: 0 }` — configuration-level
    /// validation ([`CachePolicy::validate`]) rejects it first in any
    /// built service.
    pub fn with_tree_cache(mut self, cache: CachePolicy) -> Self {
        self.cache = match cache {
            CachePolicy::Off => None,
            CachePolicy::Lru { trees } => Some(TreeCache::new(trees, self.policy)),
        };
        self
    }

    /// Attach (or remove) shared ALT landmark tables: obfuscated sweeps
    /// become goal-directed, settling fewer nodes while returning the
    /// same paths, costs, and logical counters as the unguided server
    /// except for the work counters (`settled`/`relaxed`) the pruning
    /// exists to shrink. Must have been built against this
    /// server's map ([`SearchHeuristic::preprocess`](crate::SearchHeuristic::preprocess)
    /// does both in [`crate::ServiceBuilder::build`]); landmark bounds
    /// from another map would not be admissible.
    pub fn with_heuristic(mut self, heuristic: Option<Arc<AltPreprocessing>>) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// The attached ALT landmark tables, if any.
    pub fn heuristic(&self) -> Option<&Arc<AltPreprocessing>> {
        self.heuristic.as_ref()
    }

    /// The sharing policy in use.
    pub fn policy(&self) -> SharingPolicy {
        self.policy
    }

    /// The wrapped graph view.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// The attached tree cache, if any (e.g. to read its counters or its
    /// map epoch).
    pub fn tree_cache(&self) -> Option<&TreeCache> {
        self.cache.as_ref()
    }

    /// Replace the served map, invalidating every cached tree
    /// ([`TreeCache::invalidate`] bumps the cache's map epoch) — the
    /// **invalidation invariant**: no tree recorded against an old map is
    /// ever adopted after a swap (entries are dropped *and* keyed under
    /// the old epoch, so even a hypothetical survivor could not be looked
    /// up). Cumulative load counters are kept; the arena needs no reset
    /// (its generation stamps already isolate searches).
    pub fn swap_map(&mut self, graph: G) {
        self.graph = graph;
        if let Some(cache) = &mut self.cache {
            cache.invalidate();
        }
        // Landmark distances were measured on the old map; their triangle
        // bounds need not be admissible on the new one. Guidance resumes
        // when the caller re-attaches tables built against the new map.
        self.heuristic = None;
    }

    /// Adopt a live-traffic weight update: install the reweighted view
    /// (same topology — typically a fresh `Arc` of the fleet's shared
    /// map) and bring the cached trees along. A tree whose recorded sweep
    /// touched one of the `affected` edges (each given by its endpoint
    /// pair) is repaired in place into the sweep the new map records, or
    /// evicted when repair does not cover it
    /// ([`TreeCache::repair_edges`]); untouched trees replay
    /// byte-identically as they are (see
    /// [`pathsearch::SweepTrace::touches_any`]). The cache's map epoch
    /// does **not** move. Topology changes must keep going through
    /// [`DirectionsServer::swap_map`].
    ///
    /// Attached ALT tables survive the update iff no affected edge got
    /// cheaper: a landmark potential is 1-Lipschitz under the weights it
    /// was measured on, hence under any weights at least as large, and
    /// zero at its goals — consistent and admissible on the new map, by
    /// induction over successive rising updates. One lowered edge drops
    /// the tables, as [`DirectionsServer::swap_map`] always does.
    pub fn apply_weight_update(&mut self, graph: G, affected: &[(NodeId, NodeId)]) {
        let changes: Vec<EdgeChange> =
            affected.iter().map(|&(a, b)| EdgeChange::before(&self.graph, a, b)).collect();
        if self.heuristic.is_some() && changes.iter().any(|c| c.fell_on(&graph)) {
            self.heuristic = None;
        }
        self.graph = graph;
        if let Some(cache) = &mut self.cache {
            cache.repair_edges(&self.graph, &changes);
        }
    }
}

impl<G: GraphView> DirectionsServer<G> {
    /// Cumulative counters since construction. The tree-cache hit/miss
    /// pair is the attached cache's own lifetime count
    /// ([`TreeCache::counters`]); `(0, 0)` without one.
    pub fn stats(&self) -> ServerStats {
        let (tree_cache_hits, tree_cache_misses) =
            self.cache.as_ref().map_or((0, 0), TreeCache::counters);
        ServerStats { tree_cache_hits, tree_cache_misses, ..self.stats }
    }

    /// Evaluate a *plain* path query — what an unprotected client would
    /// send — through the adopt-or-grow tree cache when one is attached.
    /// Returns the shortest path, or `None` when disconnected.
    pub fn process_plain(&mut self, q: &PathQuery) -> Option<Path> {
        let goal = Goal::Single(q.destination);
        let (run, view) =
            run_tree(&mut self.arena, &self.graph, q.source, &goal, None, self.cache.as_mut());
        let path = view.path_to(q.destination);
        self.stats.plain_queries += 1;
        self.stats.pairs_evaluated += 1;
        self.stats.trees_grown += 1;
        self.stats.search.merge(run);
        if path.is_some() {
            self.stats.paths_returned += 1;
        }
        path
    }

    /// Evaluate an obfuscated path query: all `|S|×|T|` pairs, via the MSMD
    /// processor — through the adopt-or-grow tree cache when one is
    /// attached, and goal-directed when ALT tables are attached
    /// ([`DirectionsServer::with_heuristic`]). The full candidate matrix
    /// goes back to the obfuscator.
    pub fn process(&mut self, q: &ObfuscatedPathQuery) -> MsmdResult {
        let (arena, g, pre) = (&mut self.arena, &self.graph, self.heuristic.as_deref());
        let (s, t) = (q.sources(), q.targets());
        let result = match &mut self.cache {
            Some(cache) => msmd_in_guided_cached(arena, g, s, t, self.policy, pre, cache),
            None => msmd_in_guided(arena, g, s, t, self.policy, pre),
        };
        self.stats.obfuscated_queries += 1;
        self.stats.pairs_evaluated += q.num_pairs() as u64;
        self.stats.paths_returned += result.num_paths() as u64;
        self.stats.trees_grown += result.per_tree.len() as u64;
        self.stats.search.merge(result.stats);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators::{GridConfig, grid_network};
    use roadnet::{EdgeId, NodeId};

    fn server() -> DirectionsServer<roadnet::RoadNetwork> {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() })
            .unwrap();
        DirectionsServer::new(g, SharingPolicy::PerSource)
    }

    /// One shard's share of a fleet-wide weight update: install the
    /// reweighted map and name the changed edges by their endpoints.
    fn reweight(
        sv: &mut DirectionsServer<roadnet::RoadNetwork>,
        updates: &[(EdgeId, f64)],
    ) -> Vec<EdgeId> {
        let mut map = sv.graph().clone();
        let changed = map.update_weights(updates).unwrap();
        let endpoints: Vec<(NodeId, NodeId)> =
            changed.iter().map(|&e| (map.edge(e).a, map.edge(e).b)).collect();
        sv.apply_weight_update(map, &endpoints);
        changed
    }

    #[test]
    fn plain_query_returns_shortest_path() {
        let mut sv = server();
        let p = sv.process_plain(&PathQuery::new(NodeId(0), NodeId(143))).unwrap();
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.destination(), NodeId(143));
        assert!(p.verify(sv.graph(), 1e-9));
        assert_eq!(sv.stats().plain_queries, 1);
        assert_eq!(sv.stats().paths_returned, 1);
    }

    #[test]
    fn obfuscated_query_answers_every_pair() {
        let mut sv = server();
        let q = ObfuscatedPathQuery::new(
            vec![NodeId(0), NodeId(11)],
            vec![NodeId(143), NodeId(132), NodeId(70)],
        );
        let r = sv.process(&q);
        assert_eq!(r.num_paths(), 6);
        assert_eq!(sv.stats().pairs_evaluated, 6);
        assert_eq!(sv.stats().obfuscated_queries, 1);
        assert_eq!(sv.stats().paths_returned, 6);
        // The result matrix lines up with the sorted S/T sets.
        for (i, &s) in q.sources().iter().enumerate() {
            for (j, &t) in q.targets().iter().enumerate() {
                let p = r.paths[i][j].as_ref().unwrap();
                assert_eq!(p.source(), s);
                assert_eq!(p.destination(), t);
            }
        }
    }

    #[test]
    fn counters_accumulate_across_queries() {
        let mut sv = server();
        sv.process_plain(&PathQuery::new(NodeId(0), NodeId(1)));
        let q = ObfuscatedPathQuery::new(vec![NodeId(5)], vec![NodeId(100), NodeId(101)]);
        sv.process(&q);
        let st = sv.stats();
        assert_eq!(st.plain_queries, 1);
        assert_eq!(st.obfuscated_queries, 1);
        assert_eq!(st.pairs_evaluated, 3);
        assert!(st.search.settled > 0);
    }

    #[test]
    fn tree_count_reflects_transposition_under_auto() {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() })
            .unwrap();
        let mut sv = DirectionsServer::new(g, SharingPolicy::Auto);
        // 4 sources, 2 targets on a symmetric map: Auto transposes and
        // grows only 2 trees — the counter must report trees actually
        // grown, not |S|.
        let q = ObfuscatedPathQuery::new(
            vec![NodeId(0), NodeId(11), NodeId(60), NodeId(80)],
            vec![NodeId(143), NodeId(132)],
        );
        let r = sv.process(&q);
        assert_eq!(r.per_tree.len(), 2);
        assert_eq!(sv.stats().trees_grown, 2);
        assert!(
            r.per_tree.iter().all(|t| t.side == pathsearch::TreeSide::Target),
            "transposed trees are target-rooted"
        );
        // A plain query counts one more tree.
        sv.process_plain(&PathQuery::new(NodeId(0), NodeId(1)));
        assert_eq!(sv.stats().trees_grown, 3);
    }

    #[test]
    fn merged_stats_sum_tree_counters() {
        let mut a = ServerStats { trees_grown: 3, ..ServerStats::default() };
        let b = ServerStats { trees_grown: 5, ..ServerStats::default() };
        a.merge(&b);
        assert_eq!(a.trees_grown, 8);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        // Three real, distinct counter sets from real queries.
        let mut servers = [server(), server(), server()];
        servers[0].process_plain(&PathQuery::new(NodeId(0), NodeId(143)));
        servers[1].process(&ObfuscatedPathQuery::new(vec![NodeId(0)], vec![NodeId(143)]));
        servers[2].process(&ObfuscatedPathQuery::new(
            vec![NodeId(0), NodeId(11)],
            vec![NodeId(143), NodeId(70)],
        ));
        let stats: Vec<ServerStats> = servers.iter().map(|s| s.stats()).collect();

        let fold = |order: &[usize]| {
            let mut acc = ServerStats::default();
            for &i in order {
                acc.merge(&stats[i]);
            }
            acc
        };
        let reference = fold(&[0, 1, 2]);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_eq!(fold(&order), reference, "merge order {order:?} must not matter");
        }
        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = stats[0];
        left.merge(&stats[1]);
        left.merge(&stats[2]);
        let mut bc = stats[1];
        bc.merge(&stats[2]);
        let mut right = stats[0];
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn delta_since_reads_per_batch_growth() {
        let mut sv = server();
        let before = sv.stats();
        sv.process(&ObfuscatedPathQuery::new(vec![NodeId(0)], vec![NodeId(143), NodeId(70)]));
        let mid = sv.stats();
        sv.process_plain(&PathQuery::new(NodeId(0), NodeId(143)));
        let after = sv.stats();

        let first = mid.delta_since(&before);
        assert_eq!(first.obfuscated_queries, 1);
        assert_eq!(first.plain_queries, 0);
        assert_eq!(first.pairs_evaluated, 2);
        let second = after.delta_since(&mid);
        assert_eq!(second.plain_queries, 1);
        assert_eq!(second.trees_grown, 1);
        assert!(second.search.settled > 0);
        // Deltas recompose to the cumulative total.
        let mut recomposed = before;
        recomposed.merge(&first);
        recomposed.merge(&second);
        assert_eq!(recomposed, after);
    }

    #[test]
    fn server_accepts_a_preallocated_arena() {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() })
            .unwrap();
        let arena = SearchArena::preallocated(g.num_nodes(), 1);
        let cap = arena.capacity();
        let mut sv = DirectionsServer::with_arena(g, SharingPolicy::PerSource, arena);
        let p = sv.process_plain(&PathQuery::new(NodeId(0), NodeId(143))).unwrap();
        assert_eq!(p.destination(), NodeId(143));
        assert_eq!(sv.arena.capacity(), cap, "plain query fits the preallocated slab");
    }

    #[test]
    fn cached_server_is_byte_identical_and_hits_on_root_reuse() {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() })
            .unwrap();
        let mut plain = DirectionsServer::new(g.clone(), SharingPolicy::PerSource);
        let mut cached = DirectionsServer::new(g, SharingPolicy::PerSource)
            .with_tree_cache(CachePolicy::Lru { trees: 8 });
        let queries = [
            ObfuscatedPathQuery::new(vec![NodeId(0), NodeId(11)], vec![NodeId(143), NodeId(70)]),
            // The same query again: both roots' goals are provably inside
            // the recorded sweeps, so both trees adopt.
            ObfuscatedPathQuery::new(vec![NodeId(0), NodeId(11)], vec![NodeId(143), NodeId(70)]),
            // A subset query from one of the roots: still inside.
            ObfuscatedPathQuery::new(vec![NodeId(0)], vec![NodeId(143)]),
        ];
        for (i, q) in queries.iter().enumerate() {
            let a = plain.process(q);
            let b = cached.process(q);
            assert_eq!(a.stats, b.stats, "query {i}: aggregate counters diverged");
            assert_eq!(a.paths, b.paths, "query {i}: answers diverged");
        }
        let (hits, misses) = (cached.stats().tree_cache_hits, cached.stats().tree_cache_misses);
        assert_eq!((hits, misses), (3, 2), "queries 2 and 3 reuse query 1's trees");
        // Every logical counter matches the uncached server exactly; only
        // the hit/miss pair differs.
        let mut logical = cached.stats();
        logical.tree_cache_hits = 0;
        logical.tree_cache_misses = 0;
        assert_eq!(logical, plain.stats());
        // Plain queries go through the same cache: node 143 is settled in
        // root 0's recorded sweep, so this adopts.
        let pq = PathQuery::new(NodeId(0), NodeId(143));
        assert_eq!(plain.process_plain(&pq), cached.process_plain(&pq));
        assert_eq!(cached.stats().tree_cache_hits, hits + 1, "plain query adopted a cached tree");
    }

    #[test]
    fn guided_server_answers_identically_while_settling_no_more() {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() })
            .unwrap();
        let pre = Arc::new(AltPreprocessing::try_build(&g, 6).unwrap());
        let mut plain = DirectionsServer::new(g.clone(), SharingPolicy::PerSource);
        let mut guided = DirectionsServer::new(g.clone(), SharingPolicy::PerSource)
            .with_heuristic(Some(Arc::clone(&pre)));
        assert!(guided.heuristic().is_some());
        let queries = [
            ObfuscatedPathQuery::new(vec![NodeId(0), NodeId(11)], vec![NodeId(143), NodeId(132)]),
            ObfuscatedPathQuery::new(vec![NodeId(60)], vec![NodeId(5), NodeId(139)]),
        ];
        for (i, q) in queries.iter().enumerate() {
            let a = plain.process(q);
            let b = guided.process(q);
            assert_eq!(a.paths, b.paths, "query {i}: guided answers diverged");
        }
        let (p, gd) = (plain.stats(), guided.stats());
        assert!(
            gd.search.settled <= p.search.settled,
            "{} > {}",
            gd.search.settled,
            p.search.settled
        );
        // Every non-work counter is identical.
        assert_eq!(p.pairs_evaluated, gd.pairs_evaluated);
        assert_eq!(p.paths_returned, gd.paths_returned);
        assert_eq!(p.trees_grown, gd.trees_grown);

        // Cached guided evaluation stays byte-identical to uncached guided.
        let mut cached = DirectionsServer::new(g.clone(), SharingPolicy::PerSource)
            .with_tree_cache(CachePolicy::Lru { trees: 8 })
            .with_heuristic(Some(Arc::clone(&pre)));
        let mut uncached = DirectionsServer::new(g.clone(), SharingPolicy::PerSource)
            .with_heuristic(Some(Arc::clone(&pre)));
        for _ in 0..2 {
            for q in &queries {
                let a = uncached.process(q);
                let b = cached.process(q);
                assert_eq!(a.paths, b.paths);
                assert_eq!(a.stats, b.stats);
            }
        }
        assert!(cached.stats().tree_cache_hits > 0, "repeat round adopts guided traces");

        // A new map drops the (now unprovably admissible) tables.
        let mut sv = DirectionsServer::new(g.clone(), SharingPolicy::PerSource)
            .with_heuristic(Some(Arc::clone(&pre)));
        sv.swap_map(g.clone());
        assert!(sv.heuristic().is_none(), "swap_map must drop the heuristic");

        // Congestion only raises weights: the tables stay attached, and
        // the guided answers are a fresh unguided server's on the
        // reweighted map.
        let mut sv =
            DirectionsServer::new(g.clone(), SharingPolicy::PerSource).with_heuristic(Some(pre));
        let rising: Vec<(EdgeId, f64)> = (0..g.num_edges())
            .step_by(7)
            .map(EdgeId::from_index)
            .map(|e| (e, g.edge(e).weight * 3.0))
            .collect();
        assert_eq!(reweight(&mut sv, &rising).len(), rising.len());
        assert!(sv.heuristic().is_some(), "a rising-only round keeps the heuristic");
        let mut fresh = DirectionsServer::new(sv.graph().clone(), SharingPolicy::PerSource);
        let before = sv.stats().search.settled;
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(sv.process(q).paths, fresh.process(q).paths, "query {i} after congestion");
        }
        assert!(sv.stats().search.settled - before <= fresh.stats().search.settled);

        // One lowered edge among rising ones drops them.
        let lowered = [(EdgeId::from_index(1), 1e3), (EdgeId::from_index(0), 0.5)];
        reweight(&mut sv, &lowered);
        assert!(sv.heuristic().is_none(), "a lowered weight must drop the heuristic");
    }

    #[test]
    fn swap_map_bumps_the_epoch_and_invalidates_cached_trees() {
        let old =
            grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() })
                .unwrap();
        // Same node count, different seed: different edge weights, so a
        // stale tree would produce visibly wrong distances.
        let new =
            grid_network(&GridConfig { width: 12, height: 12, seed: 10, ..Default::default() })
                .unwrap();
        let q = ObfuscatedPathQuery::new(vec![NodeId(0)], vec![NodeId(143)]);

        let mut sv = DirectionsServer::new(old, SharingPolicy::PerSource)
            .with_tree_cache(CachePolicy::Lru { trees: 4 });
        assert_eq!(sv.tree_cache().unwrap().map_epoch(), 0);
        sv.process(&q);
        sv.process(&q);
        assert_eq!(sv.stats().tree_cache_hits, 1, "warm repeat hits");

        sv.swap_map(new.clone());
        assert_eq!(sv.tree_cache().unwrap().map_epoch(), 1);
        assert!(sv.tree_cache().unwrap().is_empty(), "swap dropped every entry");
        let r = sv.process(&q);
        assert_eq!(
            sv.stats().tree_cache_hits,
            1,
            "first post-swap query must miss (no stale adoption)"
        );
        // The answer reflects the new map, not the cached old tree.
        let mut fresh = DirectionsServer::new(new, SharingPolicy::PerSource);
        let expected = fresh.process(&q);
        assert_eq!(r.distance(0, 0), expected.distance(0, 0));
        assert_eq!(r.paths, expected.paths);
    }

    #[test]
    fn weight_update_repairs_touched_trees_and_the_next_query_hits_fresh() {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() })
            .unwrap();
        let q = ObfuscatedPathQuery::new(vec![NodeId(0)], vec![NodeId(143)]);
        let mut sv = DirectionsServer::new(g.clone(), SharingPolicy::PerSource)
            .with_tree_cache(CachePolicy::Lru { trees: 4 });
        let r0 = sv.process(&q);
        sv.process(&q);
        assert_eq!(sv.stats().tree_cache_hits, 1, "warm repeat hits");
        assert!(sv.tree_cache().unwrap().peek(NodeId(0)).unwrap().is_complete());

        // Congest an edge on the answered path: the cached tree touched
        // it, so adopting it as recorded would serve a stale distance. It
        // is complete and plain, so it is repaired instead of evicted.
        let path = r0.paths[0][0].as_ref().unwrap();
        let (pa, pb) = (path.nodes()[0], path.nodes()[1]);
        let edge = g
            .edges()
            .iter()
            .enumerate()
            .find(|(_, e)| (e.a == pa && e.b == pb) || (e.a == pb && e.b == pa))
            .map(|(i, _)| EdgeId::from_index(i))
            .unwrap();
        let changed = reweight(&mut sv, &[(edge, 1000.0)]);
        assert_eq!(changed, vec![edge]);
        assert_eq!(sv.tree_cache().unwrap().map_epoch(), 0, "weight updates do not bump the epoch");
        assert_eq!(sv.tree_cache().unwrap().len(), 1, "the touched tree is kept");

        // The post-update query hits the repaired tree, and its paths and
        // counters are a fresh server's on the new map.
        let r = sv.process(&q);
        assert_eq!(sv.stats().tree_cache_hits, 2, "post-update query hits the repaired tree");
        let mut fresh_map = g.clone();
        fresh_map.update_weights(&[(edge, 1000.0)]).unwrap();
        let mut fresh = DirectionsServer::new(fresh_map, SharingPolicy::PerSource);
        let expected = fresh.process(&q);
        assert_eq!(r.paths, expected.paths, "answer reflects the congested edge");
        assert_ne!(r.paths, r0.paths, "the congested edge moved the answer");
        assert_eq!(r.stats, expected.stats);

        // Shallow traces are not repaired. An update outside a shallow
        // adjacent-pair tree's settled prefix keeps it; one inside evicts
        // it.
        let mut sv = DirectionsServer::new(g.clone(), SharingPolicy::PerSource)
            .with_tree_cache(CachePolicy::Lru { trees: 4 });
        let near = ObfuscatedPathQuery::new(vec![NodeId(0)], vec![NodeId(1)]);
        sv.process(&near);
        let warm = {
            let cache = sv.tree_cache().unwrap();
            assert_eq!(cache.len(), 1);
            assert!(!cache.peek(NodeId(0)).unwrap().is_complete());
            cache.counters()
        };
        let far_edge = g
            .edges()
            .iter()
            .enumerate()
            .rev()
            .find(|(_, e)| e.a.0 > 100 && e.b.0 > 100)
            .map(|(i, _)| EdgeId::from_index(i))
            .unwrap();
        reweight(&mut sv, &[(far_edge, 999.0)]);
        sv.process(&near);
        let (hits, _) = sv.tree_cache().unwrap().counters();
        assert!(hits > warm.0, "untouched tree survived the far update and hit");
        let at_root = g.edges().iter().position(|e| e.a == NodeId(0) || e.b == NodeId(0)).unwrap();
        reweight(&mut sv, &[(EdgeId::from_index(at_root), 999.0)]);
        assert!(sv.tree_cache().unwrap().is_empty(), "a touched shallow tree is evicted");
    }

    #[test]
    fn cache_capacity_one_still_answers_correctly() {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() })
            .unwrap();
        let mut plain = DirectionsServer::new(g.clone(), SharingPolicy::PerSource);
        let mut thrashing = DirectionsServer::new(g, SharingPolicy::PerSource)
            .with_tree_cache(CachePolicy::Lru { trees: 1 });
        // Two roots alternating: the single slot thrashes, correctness
        // must not care.
        for _ in 0..3 {
            for root in [0u32, 100] {
                let q = ObfuscatedPathQuery::new(vec![NodeId(root)], vec![NodeId(143)]);
                let a = plain.process(&q);
                let b = thrashing.process(&q);
                assert_eq!(a.paths, b.paths);
                assert_eq!(a.stats, b.stats);
            }
        }
        assert_eq!(thrashing.tree_cache().unwrap().len(), 1);
    }

    #[test]
    fn server_works_over_paged_storage() {
        let g = grid_network(&GridConfig { width: 12, height: 12, seed: 9, ..Default::default() })
            .unwrap();
        let paged =
            roadnet::ChunkedCsr::spill_temp(&g, &roadnet::PageLayout::ccam(&g), 16).unwrap();
        let mut sv = DirectionsServer::new(&paged, SharingPolicy::PerSource);
        let q = ObfuscatedPathQuery::new(vec![NodeId(0)], vec![NodeId(143)]);
        let r = sv.process(&q);
        assert_eq!(r.num_paths(), 1);
        assert!(paged.io_stats().faults > 0, "search must have touched pages");
    }
}

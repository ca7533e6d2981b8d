//! Shared scaffolding for the experiment harness.

use opaque::{
    ClientId, ClientRequest, DefaultBackend, DirectionsBackend, OpaqueService, ServiceBuilder,
};
use roadnet::generators::NetworkClass;
use roadnet::{NodeId, RoadNetwork, SpatialIndex};
use std::time::Instant;

/// Experiment scale: `quick` keeps the full suite under a couple of seconds
/// (used by tests and smoke runs), `full` is the scale a write-up
/// quotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Target node count for generated networks.
    pub network_nodes: usize,
    /// Queries sampled per measured configuration.
    pub queries: usize,
    /// Monte-Carlo trials for attack simulations.
    pub trials: u32,
}

impl Scale {
    /// Small inputs for CI / tests.
    pub fn quick() -> Self {
        Scale { network_nodes: 400, queries: 8, trials: 20_000 }
    }

    /// The scale a quoted run uses (`experiments` without `--quick`).
    pub fn full() -> Self {
        Scale { network_nodes: 4_000, queries: 40, trials: 200_000 }
    }
}

/// The experiment suite's default map: one network per class, fixed seed.
pub fn network(class: NetworkClass, scale: &Scale) -> RoadNetwork {
    class.generate(scale.network_nodes, 0xC0FFEE).expect("generators produce valid networks")
}

/// Network plus spatial index, the common pair.
pub fn network_with_index(class: NetworkClass, scale: &Scale) -> (RoadNetwork, SpatialIndex) {
    let g = network(class, scale);
    let idx = SpatialIndex::build(&g);
    (g, idx)
}

/// One service's measurement over a replayed batch stream — what the
/// fleet experiments (`e14`, `e15`, `e18`, `e19`) tabulate and compare.
pub struct Measured {
    /// Wall time spent inside `process_batch`, summed over the stream.
    pub elapsed_secs: f64,
    /// Σ `total_pairs` over the stream's reports.
    pub total_pairs: u64,
    /// Trees the fleet grew (or adopted) over the whole stream.
    pub trees_grown: u64,
    /// Tree-cache hits over consultations, fleet-wide (0 without a cache).
    pub hit_rate: f64,
    /// Tree-cache misses that found an entry too shallow for their goal,
    /// fleet-wide (see `pathsearch::TreeCache::miss_causes`).
    pub shallow_misses: u64,
    /// Every batch's serialized report, in order: the determinism oracle.
    pub report_json: Vec<String>,
    /// Every delivered path, in delivery order.
    pub delivered: Vec<(ClientId, Vec<NodeId>)>,
}

/// Build `builder`'s service and replay `batches` through it, timing each
/// `process_batch`; `between_batches(service, b)` runs (untimed) after
/// batch `b`, for experiments that change the map mid-stream.
pub fn drive(
    builder: ServiceBuilder,
    batches: &[Vec<ClientRequest>],
    mut between_batches: impl FnMut(&mut OpaqueService<DefaultBackend>, usize),
) -> Measured {
    let mut svc = builder.build().expect("valid configuration");
    let mut measured = Measured {
        elapsed_secs: 0.0,
        total_pairs: 0,
        trees_grown: 0,
        hit_rate: 0.0,
        shallow_misses: 0,
        report_json: Vec::with_capacity(batches.len()),
        delivered: Vec::new(),
    };
    for (b, batch) in batches.iter().enumerate() {
        let t0 = Instant::now();
        let response = svc.process_batch(batch).expect("batch succeeds");
        measured.elapsed_secs += t0.elapsed().as_secs_f64();
        measured.total_pairs += response.report.total_pairs;
        measured
            .report_json
            .push(serde_json::to_string(&response.report).expect("report serializes"));
        measured
            .delivered
            .extend(response.results.iter().map(|r| (r.client, r.path.nodes().to_vec())));
        between_batches(&mut svc, b);
    }
    let stats = svc.backend().stats();
    measured.trees_grown = stats.trees_grown;
    let consulted = stats.tree_cache_hits + stats.tree_cache_misses;
    measured.hit_rate =
        if consulted == 0 { 0.0 } else { stats.tree_cache_hits as f64 / consulted as f64 };
    measured.shallow_misses = svc
        .backend()
        .shards()
        .iter()
        .filter_map(|shard| shard.tree_cache())
        .map(|cache| cache.miss_causes().1)
        .sum();
    measured
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.network_nodes < f.network_nodes);
        assert!(q.queries < f.queries);
        assert!(q.trials < f.trials);
    }

    #[test]
    fn standard_networks_are_connected() {
        for class in NetworkClass::ALL {
            let g = network(class, &Scale::quick());
            assert!(g.is_connected());
        }
    }
}

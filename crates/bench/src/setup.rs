//! Shared scaffolding for the experiment harness.

use roadnet::generators::NetworkClass;
use roadnet::{RoadNetwork, SpatialIndex};

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

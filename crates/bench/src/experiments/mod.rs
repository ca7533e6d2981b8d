//! The experiment suite — one module per paper artifact (see
//! `docs/paper_map.md` for the section-by-section index).

pub mod e10_scaling;
pub mod e11_intersection;
pub mod e12_batching;
pub mod e14_parallel;
pub mod e15_cache;
pub mod e16_gateway;
pub mod e17_netload;
pub mod e18_partition;
pub mod e19_livemap;
pub mod e1_algorithms;
pub mod e20_continent;
pub mod e2_techniques;
pub mod e3_breach;
pub mod e4_cost_model;
pub mod e5_shared;
pub mod e6_collusion;
pub mod e7_strategies;
pub mod e8_clustering;
pub mod e9_storage;

use crate::setup::Scale;
use crate::table::ExperimentTable;

/// An experiment's entry point (its module's `run`).
pub type RunFn = fn(&Scale) -> ExperimentTable;

/// Every experiment as `(id, entry point)`, in run order. Adding one is
/// its `mod` line above and one row here: the `experiments` binary reads
/// its default id list, its id check and its "known:" message from this
/// table. Ids are never reused or renumbered (docs cite them), so a retired
/// experiment leaves a gap.
pub const REGISTRY: &[(&str, RunFn)] = &[
    ("e1", e1_algorithms::run),
    ("e2", e2_techniques::run),
    ("e3", e3_breach::run),
    ("e4", e4_cost_model::run),
    ("e5", e5_shared::run),
    ("e6", e6_collusion::run),
    ("e7", e7_strategies::run),
    ("e8", e8_clustering::run),
    ("e9", e9_storage::run),
    ("e10", e10_scaling::run),
    ("e11", e11_intersection::run),
    ("e12", e12_batching::run),
    ("e14", e14_parallel::run),
    ("e15", e15_cache::run),
    ("e16", e16_gateway::run),
    ("e17", e17_netload::run),
    ("e18", e18_partition::run),
    ("e19", e19_livemap::run),
    ("e20", e20_continent::run),
];

/// The entry point registered under `id`, if any.
pub fn lookup(id: &str) -> Option<RunFn> {
    REGISTRY.iter().find(|&&(known, _)| known == id).map(|&(_, run)| run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(lookup("e99").is_none());
        assert!(lookup("E3").is_none(), "ids are lower-case; the binary folds case");
    }

    // Pins the table's shape without running any experiment.
    #[test]
    fn registry_ids_are_unique_ascending_and_resolve() {
        let mut last = 0;
        for &(id, _) in REGISTRY {
            let n: u32 = id.strip_prefix('e').and_then(|n| n.parse().ok()).expect("id is e<n>");
            assert_eq!(id, format!("e{n}"), "{id}: lower-case, no padding");
            assert!(n > last, "{id}: unique and in ascending run order");
            assert!(lookup(id).is_some(), "{id} resolves");
            last = n;
        }
    }
}

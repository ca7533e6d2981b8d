//! Goal-directed search configuration for the backend shard fleet.
//!
//! Plain MSMD sweeps settle nodes in every direction until the goal set
//! is reached; on a continent-scale map most of that work is wasted on
//! nodes that could never lie on a shortest path to any target. ALT
//! landmarks ([`pathsearch::AltPreprocessing`]) give every sweep an
//! admissible, consistent lower bound to the nearest target it has not
//! reached yet — the sweep aims at each target in turn, so the pruning
//! holds for the spread-out sets the obfuscator produces — while keeping
//! answers — paths, costs, outcomes, reports — byte-identical to the
//! unguided evaluation (the `tests/lattice.rs` guarantee).
//! [`SearchHeuristic`] is the serializable knob selecting between the two
//! regimes; the actual landmark tables are built once in
//! [`crate::ServiceBuilder::build`] and shared across the whole shard
//! fleet behind an `Arc`. They outlive traffic updates that only raise
//! weights and are dropped by one that lowers any
//! ([`crate::DirectionsServer::apply_weight_update`]) or by a map swap.

use crate::error::{OpaqueError, Result};
use pathsearch::AltPreprocessing;
use roadnet::GraphView;
use std::sync::Arc;

/// How backend shards guide their Dijkstra sweeps.
///
/// Serialized in the externally-tagged enum form (`"None"` /
/// `{"Alt":{"landmarks":8}}`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SearchHeuristic {
    /// Unguided sweeps — the historical behavior and the oracle the
    /// guided regime is proven against.
    #[default]
    None,
    /// ALT goal-directed pruning: `landmarks` farthest-point landmarks
    /// are preprocessed once per map and every sweep is keyed by an
    /// admissible triangle-inequality bound to its nearest unsettled
    /// target.
    Alt {
        /// Number of landmarks (≥ 1, ≤ the map's node count). More
        /// landmarks tighten the bound at `O(landmarks)` extra work per
        /// improved label and live target; 8–16 is the usual sweet spot.
        landmarks: usize,
    },
}

impl SearchHeuristic {
    /// Short name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            SearchHeuristic::None => "none".to_string(),
            SearchHeuristic::Alt { landmarks } => format!("alt(landmarks={landmarks})"),
        }
    }

    /// Check the parameters are satisfiable on their own (cheap,
    /// map-independent; the map-dependent checks — landmark count vs node
    /// count, symmetry — happen in [`SearchHeuristic::preprocess`]).
    pub fn validate(&self) -> Result<()> {
        match self {
            SearchHeuristic::None => Ok(()),
            SearchHeuristic::Alt { landmarks } => {
                if *landmarks == 0 {
                    return Err(OpaqueError::InvalidConfig {
                        reason: "Alt heuristic needs at least one landmark".to_string(),
                    });
                }
                Ok(())
            }
        }
    }

    /// Build the shared landmark tables for `map`, or `None` under
    /// [`SearchHeuristic::None`]. Directed maps and landmark counts
    /// exceeding the node count are configuration errors
    /// ([`pathsearch::AltError`] mapped to
    /// [`OpaqueError::InvalidConfig`]).
    pub fn preprocess<G: GraphView>(&self, map: &G) -> Result<Option<Arc<AltPreprocessing>>> {
        match self {
            SearchHeuristic::None => Ok(None),
            SearchHeuristic::Alt { landmarks } => {
                let pre = AltPreprocessing::try_build(map, *landmarks).map_err(|e| {
                    OpaqueError::InvalidConfig { reason: format!("Alt heuristic: {e}") }
                })?;
                Ok(Some(Arc::new(pre)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators::{GridConfig, grid_network};

    #[test]
    fn names_and_defaults() {
        assert_eq!(SearchHeuristic::default(), SearchHeuristic::None);
        assert_eq!(SearchHeuristic::None.name(), "none");
        assert_eq!(SearchHeuristic::Alt { landmarks: 8 }.name(), "alt(landmarks=8)");
    }

    #[test]
    fn validate_rejects_zero_landmarks() {
        assert!(SearchHeuristic::None.validate().is_ok());
        assert!(SearchHeuristic::Alt { landmarks: 1 }.validate().is_ok());
        let err = SearchHeuristic::Alt { landmarks: 0 }.validate().unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("landmark")),
            "{err}"
        );
    }

    #[test]
    fn preprocess_builds_shared_tables_or_nothing() {
        let g = grid_network(&GridConfig { width: 8, height: 8, seed: 3, ..Default::default() })
            .unwrap();
        assert!(SearchHeuristic::None.preprocess(&g).unwrap().is_none());
        let pre = SearchHeuristic::Alt { landmarks: 4 }.preprocess(&g).unwrap().unwrap();
        assert_eq!(pre.landmarks().len(), 4);
        // Map-dependent failure: more landmarks than nodes.
        let err = SearchHeuristic::Alt { landmarks: 65 }.preprocess(&g).unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("landmark")),
            "{err}"
        );
    }

    #[test]
    fn preprocess_rejects_directed_maps() {
        use roadnet::{GraphBuilder, Point};
        let mut b = GraphBuilder::directed();
        b.add_node(Point::new(0.0, 0.0)).unwrap();
        b.add_node(Point::new(1.0, 0.0)).unwrap();
        b.add_edge(roadnet::NodeId(0), roadnet::NodeId(1), 1.0).unwrap();
        let g = b.build().unwrap();
        let err = SearchHeuristic::Alt { landmarks: 1 }.preprocess(&g).unwrap_err();
        assert!(
            matches!(err, OpaqueError::InvalidConfig { ref reason } if reason.contains("symmetric")),
            "{err}"
        );
    }

    #[test]
    fn serde_round_trips_in_the_externally_tagged_form() {
        for h in [SearchHeuristic::None, SearchHeuristic::Alt { landmarks: 12 }] {
            let json = serde_json::to_string(&h).unwrap();
            let back: SearchHeuristic = serde_json::from_str(&json).unwrap();
            assert_eq!(back, h, "{json}");
        }
        assert_eq!(
            serde_json::to_string(&SearchHeuristic::Alt { landmarks: 3 }).unwrap(),
            r#"{"Alt":{"landmarks":3}}"#
        );
        assert!(serde_json::from_str::<SearchHeuristic>(r#""Alt""#).is_err());
        assert!(serde_json::from_str::<SearchHeuristic>("3").is_err());
    }
}

//! Strongly-typed identifiers for road-network entities.
//!
//! Nodes and edges are referred to by compact `u32` indices. Newtypes keep
//! the two id spaces from being mixed up and keep hot structures small
//! (4 bytes per id instead of 8 for `usize`).

use std::fmt;

/// Identifier of a node (road junction / endpoint) in a [`crate::RoadNetwork`].
///
/// Node ids are dense: a network with `n` nodes uses ids `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Deserialize)]
pub struct NodeId(pub u32);

/// Serialized as its `u32`, as a derive would. A run of ids — a path's
/// nodes, an endpoint set — goes to the sink as one
/// [`serde::Sink::uints`], so the JSON writer prints and counts it without
/// a float per id.
impl serde::Serialize for NodeId {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }

    fn stream<S: serde::Sink>(&self, sink: &mut S) {
        self.0.stream(sink)
    }

    fn stream_slice<S: serde::Sink>(ids: &[Self], sink: &mut S) {
        sink.uints(ids)
    }
}

impl From<NodeId> for u32 {
    #[inline]
    fn from(n: NodeId) -> u32 {
        n.0
    }
}

impl NodeId {
    /// The id as a `usize` index into node-indexed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index.
    ///
    /// # Panics
    /// Panics if `i` does not fit in `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        assert!(i <= u32::MAX as usize, "node index {i} exceeds u32 range");
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of an undirected edge (road segment) in a [`crate::RoadNetwork`].
///
/// Edge ids are dense over the *input* edge list handed to the builder; an
/// undirected edge yields two arcs but keeps one `EdgeId`.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a `usize` index into edge-indexed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index.
    ///
    /// # Panics
    /// Panics if `i` does not fit in `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        assert!(i <= u32::MAX as usize, "edge index {i} exceeds u32 range");
        EdgeId(i as u32)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        let n = NodeId::from_index(42);
        assert_eq!(n, NodeId(42));
        assert_eq!(n.index(), 42);
    }

    #[test]
    fn edge_id_round_trips_through_index() {
        let e = EdgeId::from_index(7);
        assert_eq!(e, EdgeId(7));
        assert_eq!(e.index(), 7);
    }

    #[test]
    fn ids_format_compactly() {
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(format!("{}", NodeId(3)), "3");
        assert_eq!(format!("{:?}", EdgeId(9)), "e9");
        assert_eq!(format!("{}", EdgeId(9)), "9");
    }

    #[test]
    fn a_run_of_node_ids_streams_what_its_tree_streams() {
        use serde::Serialize;
        let runs = [vec![], vec![NodeId(0)], vec![NodeId(9), NodeId(10), NodeId(u32::MAX)]];
        for ids in runs {
            let tree = ids.to_value();
            assert_eq!(serde_json::to_string(&ids), serde_json::to_string(&tree));
            assert_eq!(serde_json::to_string_pretty(&ids), serde_json::to_string_pretty(&tree));
            assert_eq!(serde_json::serialized_len(&ids), serde_json::serialized_len(&tree));
        }
        assert_eq!(serde_json::to_string(&[NodeId(3), NodeId(14)][..]).unwrap(), "[3,14]");
    }

    #[test]
    #[should_panic(expected = "exceeds u32 range")]
    fn node_id_overflow_panics() {
        // Only meaningful on 64-bit targets where usize can exceed u32.
        if usize::BITS > 32 {
            let _ = NodeId::from_index(u32::MAX as usize + 1);
        } else {
            panic!("exceeds u32 range"); // keep test semantics on 32-bit
        }
    }

    #[test]
    fn ids_order_by_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(EdgeId(0) < EdgeId(10));
    }
}

//! Error types for road-network construction and I/O.

use crate::ids::{EdgeId, NodeId};
use std::fmt;

/// Errors raised while building, loading, or querying a road network.
#[derive(Debug)]
pub enum RoadNetError {
    /// An edge referenced a node id outside `0..num_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Size of the network the id was checked against.
        num_nodes: usize,
    },
    /// A weight update referenced an edge id outside `0..num_edges`.
    EdgeOutOfRange {
        /// The offending edge id.
        edge: EdgeId,
        /// Size of the network the id was checked against.
        num_edges: usize,
    },
    /// An edge weight was negative, NaN, infinite, or above
    /// `f64::MAX / (2 × arc count)`, past which a path sum could overflow.
    InvalidWeight {
        /// Edge tail.
        from: NodeId,
        /// Edge head.
        to: NodeId,
        /// The rejected weight.
        weight: f64,
    },
    /// A self-loop `(n, n)` was supplied; road segments connect distinct
    /// endpoints in this model.
    SelfLoop {
        /// The node looping onto itself.
        node: NodeId,
    },
    /// A node coordinate was NaN or infinite.
    InvalidCoordinate {
        /// The node with the bad coordinate.
        node: NodeId,
    },
    /// The network has no nodes.
    EmptyNetwork,
    /// A parse error in a DIMACS `.gr`/`.co` map file.
    Parse {
        /// 1-based line number of the offending line; 0 for whole-file
        /// defects (missing sections, count mismatches).
        line: usize,
        /// What went wrong on that line.
        message: String,
    },
    /// An underlying I/O error while reading or writing network files.
    Io(std::io::Error),
    /// Two nodes are not connected (no path exists between them).
    Disconnected {
        /// Path source.
        from: NodeId,
        /// Path destination.
        to: NodeId,
    },
}

impl fmt::Display for RoadNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoadNetError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (network has {num_nodes} nodes)")
            }
            RoadNetError::EdgeOutOfRange { edge, num_edges } => {
                write!(f, "edge {edge} out of range (network has {num_edges} edges)")
            }
            RoadNetError::InvalidWeight { from, to, weight } => {
                write!(
                    f,
                    "edge ({from}, {to}) has invalid weight {weight}; weights must be non-negative and at most f64::MAX / (2 × arc count), so that every path sum is finite"
                )
            }
            RoadNetError::SelfLoop { node } => {
                write!(f, "self-loop on node {node} is not allowed")
            }
            RoadNetError::InvalidCoordinate { node } => {
                write!(f, "node {node} has a non-finite coordinate")
            }
            RoadNetError::EmptyNetwork => write!(f, "road network has no nodes"),
            RoadNetError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            RoadNetError::Io(e) => write!(f, "i/o error: {e}"),
            RoadNetError::Disconnected { from, to } => {
                write!(f, "no path connects {from} to {to}")
            }
        }
    }
}

impl std::error::Error for RoadNetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RoadNetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RoadNetError {
    fn from(e: std::io::Error) -> Self {
        RoadNetError::Io(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, RoadNetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_ids() {
        let e = RoadNetError::NodeOutOfRange { node: NodeId(9), num_nodes: 5 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('5'));

        let e = RoadNetError::EdgeOutOfRange { edge: EdgeId(7), num_edges: 3 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('3'));

        let e = RoadNetError::InvalidWeight { from: NodeId(1), to: NodeId(2), weight: -1.0 };
        assert!(e.to_string().contains("-1"));

        let e = RoadNetError::SelfLoop { node: NodeId(4) };
        assert!(e.to_string().contains('4'));
    }

    #[test]
    fn io_error_converts_and_chains() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: RoadNetError = io.into();
        assert!(matches!(e, RoadNetError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn parse_error_reports_line() {
        let e = RoadNetError::Parse { line: 17, message: "bad token".into() };
        let s = e.to_string();
        assert!(s.contains("17") && s.contains("bad token"));
    }
}

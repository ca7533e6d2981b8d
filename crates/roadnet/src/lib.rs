//! # roadnet — road-network substrate for the OPAQUE reproduction
//!
//! This crate provides everything below the search algorithms in the OPAQUE
//! stack (Lee, Lee, Leong & Zheng, *OPAQUE: Protecting Path Privacy in
//! Directions Search*, ICDE 2009):
//!
//! * the weighted-graph road-network model `G(N, E)` of §III-A
//!   ([`RoadNetwork`], [`GraphBuilder`]);
//! * seeded synthetic network generators standing in for TIGER/Line maps
//!   ([`generators`]);
//! * CCAM-style connectivity-clustered disk pages, spilled to a real page
//!   file and served through an exact-LRU buffer pool, so experiments can
//!   measure the I/O component of the paper's Lemma 1 cost model
//!   ([`storage`]);
//! * a uniform-grid spatial index used by the obfuscator to pick fake
//!   endpoints ([`SpatialIndex`]);
//! * the DIMACS `.gr`/`.co` exchange format for networks ([`io`]).
//!
//! ## Quick example
//!
//! ```
//! use roadnet::generators::{GridConfig, grid_network};
//! use roadnet::{GraphView, NodeId, SpatialIndex};
//!
//! let net = grid_network(&GridConfig { width: 8, height: 8, ..Default::default() }).unwrap();
//! assert!(net.is_connected());
//!
//! // Nearest node to a coordinate, via the spatial index.
//! let idx = SpatialIndex::build(&net);
//! let n = idx.nearest(roadnet::Point::new(3.2, 4.1));
//! assert!(n.index() < net.num_nodes());
//!
//! // Adjacency traversal through the GraphView trait.
//! let mut degree = 0;
//! net.for_each_arc(NodeId(0), &mut |_, _| degree += 1);
//! assert!(degree > 0);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod generators;
pub mod geo;
pub mod graph;
pub mod ids;
pub mod io;
pub mod spatial;
pub mod storage;

pub use error::{Result, RoadNetError};
pub use geo::{BoundingBox, Point};
pub use graph::{Arc, ArcWeights, Edge, GraphBuilder, GraphView, RoadNetwork};
pub use ids::{EdgeId, NodeId};
pub use spatial::{RingCover, SpatialIndex};
pub use storage::{ChunkedCsr, IoStats, LruBuffer, PageLayout, PagePlacement};

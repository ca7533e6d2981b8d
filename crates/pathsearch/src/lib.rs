//! # pathsearch — shortest-path algorithms for the OPAQUE reproduction
//!
//! The directions-search server of the paper (Lee, Lee, Leong & Zheng,
//! ICDE 2009) answers path queries with "well-known shortest path
//! algorithms" (§I) and answers *obfuscated* path queries with
//! multiple-source multiple-destination (MSMD) searches (§IV). This crate
//! implements all of them over any [`roadnet::GraphView`] — so the same
//! algorithms run against the plain in-memory network or the CCAM page
//! file of a `roadnet::ChunkedCsr`, with computation counted by
//! [`SearchStats`] and I/O counted by the storage layer:
//!
//! * [`arena`] — the reusable, generation-stamped [`SearchArena`] every
//!   algorithm here runs in: one tree's labels and the crate's only kind of
//!   search heap;
//! * [`dijkstra`] — the **single-tree loop**: lazy-deletion Dijkstra over
//!   the arena, keyed by an optional consistent potential and stopped
//!   where a plain value says (the goal, a cache miss's depth, a radius);
//!   single-destination, full-tree, and the paper's multi-destination
//!   early-termination variant ([`Goal::Set`]);
//! * [`mod@bidirectional`] — the **interleaved loop**: bidirectional
//!   Dijkstra, the strongest single-pair baseline, growing a forward and a
//!   backward tree in two arenas until their radii cover the best meeting;
//! * [`SweepTrace::repair`] — the **relabel loop**: a Dijkstra seeded at
//!   the labels a weight update can move, over a recorded trace's buckets
//!   and its own small heap, rewriting a cached tree into the sweep the
//!   new map records.
//!
//! Those three loops are the only label-setting code (plain trees,
//! recorded or not, run a heap-free ring of buckets wherever the map's
//! weights allow); the rest call the single-tree loop:
//!
//! * [`mod@astar`] — A* is the single-tree loop under the caller's potential
//!   (Euclidean by default);
//! * [`mod@alt`] — ALT (A* with landmarks + triangle inequality), an extension
//!   whose heuristic reasons in network distance;
//! * [`range`] — network-distance balls and bands: the single-tree loop
//!   stopped at a radius;
//! * [`multi`] — the MSMD processor with the paper's three sharing
//!   policies: per-pair and per-source trees (the latter transposed to the
//!   smaller side under `Auto`) through the one adopt-or-grow entry
//!   ([`run_tree`]), with or without a tree cache
//!   ([`msmd_in_guided_cached`]);
//! * [`trace`] — recorded, reusable sweeps ([`SweepTrace`]): settled
//!   shortest-path trees a cache hit reads in place ([`TreeView`]), with
//!   byte-identical counters;
//! * [`cache`] — the shard-local [`TreeCache`] of those sweeps, an
//!   epoch-keyed LRU that [`run_tree`] adopts from and stores into;
//! * [`cost`] — the calibrated `O(‖s,t‖²)` cost model of Lemma 1.
//!
//! ## Quick example
//!
//! ```
//! use roadnet::generators::{GridConfig, grid_network};
//! use roadnet::NodeId;
//! use pathsearch::{shortest_path, msmd, SharingPolicy};
//!
//! let net = grid_network(&GridConfig { width: 10, height: 10, ..Default::default() }).unwrap();
//! let path = shortest_path(&net, NodeId(0), NodeId(99)).unwrap();
//! assert!(path.verify(&net, 1e-9));
//!
//! // An obfuscated query: 2 sources × 2 destinations, one shared tree per source.
//! let r = msmd(&net, &[NodeId(0), NodeId(9)], &[NodeId(99), NodeId(90)], SharingPolicy::PerSource);
//! assert_eq!(r.num_paths(), 4);
//! ```

#![warn(missing_docs)]

pub mod alt;
pub mod arena;
pub mod astar;
pub mod bidirectional;
mod bucket;
pub mod cache;
pub mod cost;
pub mod dijkstra;
pub mod multi;
pub mod path;
pub mod range;
pub mod stats;
pub mod trace;

pub use alt::{AltError, AltPreprocessing, GoalPotential, alt};
pub use arena::SearchArena;
pub use astar::{astar, astar_with};
pub use bidirectional::bidirectional;
pub use cache::TreeCache;
pub use cost::{CostModel, CostObservation};
pub use dijkstra::{Goal, run_in, run_in_traced, run_tree, shortest_distance, shortest_path};
pub use multi::{
    MsmdResult, SharingPolicy, TreeSide, TreeStats, msmd, msmd_in, msmd_in_guided,
    msmd_in_guided_cached,
};
pub use path::Path;
pub use range::ring_search_in;
pub use stats::SearchStats;
pub use trace::{EdgeChange, RepairScratch, SweepTrace, TreeView};

//! # opaque-repro — umbrella crate for the OPAQUE reproduction
//!
//! Re-exports the workspace crates so examples and integration tests can
//! use one coherent namespace. See the individual crates for full
//! documentation:
//!
//! * [`roadnet`] — road-network substrate (graph, generators, CCAM-style
//!   paged storage, spatial index);
//! * [`pathsearch`] — Dijkstra / A* / bidirectional / multi-destination /
//!   MSMD search with cost instrumentation;
//! * [`opaque`] — the paper's contribution: obfuscated path queries, the
//!   obfuscator, server, filter, attacks, and baselines;
//! * [`workload`] — synthetic client workloads and plausibility surfaces.

pub use opaque;
pub use pathsearch;
pub use roadnet;
pub use workload;

#[cfg(test)]
mod metrics;

/// The README's code blocks, compiled and run as doctests so the
/// quick-start can never rot. (Hidden from rustdoc output; `cargo test`
/// executes it.)
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

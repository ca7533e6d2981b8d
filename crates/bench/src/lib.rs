//! # bench — experiment harness for the OPAQUE reproduction
//!
//! Regenerates every paper artifact as a table (`docs/paper_map.md` maps
//! paper sections to experiments). Run the whole suite with:
//!
//! ```text
//! cargo run -p bench --release --bin experiments
//! cargo run -p bench --release --bin experiments -- e4 e5   # a subset
//! cargo run -p bench --release --bin experiments -- --quick # CI scale
//! ```
//!
//! Performance is measured elsewhere: `BENCHMARK.json` and `benchmark/`
//! at the repository root.

pub mod experiments;
pub mod setup;
pub mod table;

pub use setup::Scale;
pub use table::{ExperimentTable, f3};

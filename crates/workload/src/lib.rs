//! # workload — synthetic client workloads for OPAQUE experiments
//!
//! The paper's evaluation needs populations of clients issuing path queries
//! with privacy preferences. Real query logs are unavailable (and would fix
//! the spatial locality experiments sweep over), so this crate generates
//! them synthetically and reproducibly:
//!
//! * [`QueryDistribution`] — uniform trips, hotspot-bound trips, commuter
//!   flows ([`distributions`]);
//! * [`ProtectionDistribution`] / [`WorkloadConfig`] /
//!   [`generate_requests`] — full request batches ([`generator`]);
//! * [`population_weights`] — synthetic population-density surfaces used as
//!   endpoint-plausibility priors by both the obfuscator's weighted
//!   strategy and the background-knowledge adversary ([`plausibility`]);
//! * [`rush_hour_schedule`] — spatially localized live-traffic weight
//!   churn for the dynamic-map experiments ([`churn`]).
//!
//! ## Quick example
//!
//! ```
//! use roadnet::generators::{GridConfig, grid_network};
//! use roadnet::SpatialIndex;
//! use workload::{WorkloadConfig, generate_requests};
//!
//! let map = grid_network(&GridConfig { width: 12, height: 12, ..Default::default() }).unwrap();
//! let index = SpatialIndex::build(&map);
//! let batch = generate_requests(&map, &index, &WorkloadConfig::default());
//! assert_eq!(batch.len(), 32);
//! ```

#![warn(missing_docs)]

pub mod arrivals;
pub mod churn;
pub mod distributions;
pub mod generator;
pub mod histogram;
pub mod plausibility;

pub use arrivals::{ArrivalConfig, ArrivalProcess, TimedRequest, arrival_stream};
pub use churn::{ChurnConfig, rush_hour_schedule};
pub use distributions::{QueryDistribution, QuerySampler};
pub use generator::{ProtectionDistribution, WorkloadConfig, generate_requests};
pub use histogram::LatencyHistogram;
pub use plausibility::{PopulationConfig, population_weights};

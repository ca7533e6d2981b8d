//! # opaque — the OPAQUE path-privacy system (ICDE 2009)
//!
//! A full reproduction of *OPAQUE: Protecting Path Privacy in Directions
//! Search* (Lee, Lee, Leong & Zheng, ICDE 2009). Directions search exposes
//! users' sources and destinations to a semi-trusted server; OPAQUE hides
//! them by mixing true endpoints with fakes into **obfuscated path queries**
//! `Q(S, T)` (Definition 1), which a trusted obfuscator formulates and the
//! server answers wholesale with multiple-source multiple-destination
//! search. The breach probability of a protected query is `1/(|S|·|T|)`
//! (Definition 2); the processing cost is `O(Σ_{s∈S} max_{t∈T} ‖s,t‖²)`
//! (Lemma 1).
//!
//! ## Crate layout (mirrors Figure 6)
//!
//! * [`query`] — path queries, protection settings, obfuscated path queries;
//! * [`obfuscator`] — the trusted middlebox: fake-endpoint selection
//!   strategies, query clustering, independent & shared obfuscation;
//! * [`server`] — the directions-search server with its obfuscated path
//!   query processor;
//! * [`filter`] — the candidate result path filter;
//! * [`service`] — the deployable pipeline: pluggable
//!   [`DirectionsBackend`]s (single server or a [`ShardedBackend`] fleet),
//!   the event-driven gateway front door ([`OpaqueService::submit`] →
//!   typed [`SubmitOutcome`] under an [`AdmissionPolicy`] with bounded
//!   depth, per-request deadlines, and [`Priority`] lanes;
//!   [`OpaqueService::tick`] → ordered [`ServiceEvent`]s closing the
//!   paper's per-client hop 4), the [`ExecutionPolicy`] batch execution
//!   layer (sequential, or a worker pool with one pinned search arena per
//!   shard — provably answer-identical), the shard-local [`TreeCache`] of
//!   reusable shortest-path trees ([`CachePolicy`] — provably
//!   report-identical to running uncached), and the builder-configured
//!   [`OpaqueService`] with typed accounting;
//! * [`attack`] — one adversary: a posterior over a unit's pairs, narrowed
//!   by background knowledge, colluders and repeated rounds, read as breach
//!   probability, MAP success and effective anonymity;
//! * [`baselines`] — the §II location-privacy techniques (landmark,
//!   cloaking, naive fakes) for measured comparison.
//!
//! ## Quick example
//!
//! ```
//! use opaque::{
//!     BatchPolicy, ClientId, ClientRequest, ObfuscationMode, PathQuery, ProtectionSettings,
//!     ServiceBuilder, ServiceEvent,
//! };
//! use roadnet::NodeId;
//! use roadnet::generators::{GridConfig, grid_network};
//!
//! // Assemble a deployment: map, three round-robin server shards, shared
//! // obfuscation, and an admission queue that flushes at 2 requests or
//! // after 5 simulated seconds.
//! let map = grid_network(&GridConfig { width: 12, height: 12, ..Default::default() }).unwrap();
//! let mut service = ServiceBuilder::new()
//!     .map(map)
//!     .seed(7)
//!     .shards(3)
//!     .obfuscation_mode(ObfuscationMode::SharedGlobal)
//!     .batch_policy(BatchPolicy { max_batch: 2, max_delay: 5.0 })
//!     .verify_results(true)
//!     .build()
//!     .unwrap();
//!
//! // Alice and Bob ask for directions with 3×3 anonymity requirements;
//! // the gateway answers each submit with a typed outcome.
//! let request = |id: u32, s: u32, t: u32| {
//!     ClientRequest::new(
//!         ClientId(id),
//!         PathQuery::new(NodeId(s), NodeId(t)),
//!         ProtectionSettings::new(3, 3).unwrap(),
//!     )
//! };
//! let alice = service.submit(request(0, 0, 143), 0.0).ticket().unwrap();
//! let _bob = service.submit(request(1, 11, 132), 0.4).ticket().unwrap();
//!
//! // The size trigger fires: the batch is obfuscated into one shared
//! // query, answered by the shard fleet, filtered, and delivered as an
//! // ordered event stream — one ResultMsg per client (the paper's hop
//! // 4), then the batch's aggregate report.
//! let events = service.tick(0.4).unwrap();
//! assert_eq!(events.len(), 3);
//! match &events[0] {
//!     ServiceEvent::ResponseReady { ticket, client, result, .. } => {
//!         assert_eq!((*ticket, *client, result.client), (alice, ClientId(0), ClientId(0)));
//!     }
//!     other => panic!("expected Alice's delivery, got {other:?}"),
//! }
//! match events.last().unwrap() {
//!     ServiceEvent::BatchFlushed(report) => {
//!         assert_eq!(report.mode, ObfuscationMode::SharedGlobal);
//!         // Both true pairs hide in one ≥3×3 query: breach ≤ 1/9
//!         // (Definition 2).
//!         assert!(report.mean_breach() <= 1.0 / 9.0 + 1e-12);
//!     }
//!     other => panic!("expected the batch report, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod attack;
pub mod baselines;
pub mod error;
pub mod filter;
pub mod obfuscator;
pub mod protocol;
pub mod query;
pub mod server;
pub mod service;

pub use baselines::{Technique, TechniqueReport, run_technique};
pub use error::{OpaqueError, Result};
pub use filter::{ClientResult, filter_candidates};
pub use obfuscator::{
    Cluster, ClusteringConfig, FakeSelection, ObfuscatedBatch, ObfuscationMode, ObfuscationUnit,
    Obfuscator, Rejection, cluster_requests,
};
pub use protocol::{
    CandidateResultsMsg, HopTraffic, ObfuscatedQueryMsg, RequestMsg, ResultMsg, wire_size,
};
pub use query::{ClientId, ClientRequest, ObfuscatedPathQuery, PathQuery, ProtectionSettings};
pub use server::{DirectionsServer, ServerStats};
pub use service::{
    AdmissionPolicy, BatchPolicy, BatchReport, CachePolicy, ClientOutcome, DefaultBackend,
    DirectionsBackend, ExecutionPolicy, OpaqueService, Partition, PartitionPolicy, Priority,
    RejectReason, RouteKind, SearchHeuristic, ServiceBuilder, ServiceConfig, ServiceEvent,
    ServiceResponse, ShardedBackend, SubmitOutcome, Ticket, TreeCache,
};

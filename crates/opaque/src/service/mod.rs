//! The OPAQUE service layer: the deployable face of the Figure-5 pipeline.
//!
//! The rest of this crate reproduces the paper's components — obfuscator,
//! server, filter — as library pieces. This module assembles them into a
//! *service* with explicit protocol boundaries, the shape production
//! privacy systems take (cf. Wu et al.'s and Mouratidis & Yiu's
//! client/server framings) and the shape the roadmap's scaling work needs:
//!
//! * [`DirectionsBackend`] — the pluggable server side: a single
//!   [`crate::server::DirectionsServer`] over any graph view, or a
//!   round-robin [`ShardedBackend`] fleet;
//! * the crate-private queue (`batcher`) and [`gateway`] — the admission
//!   path: streamed requests enter through [`OpaqueService::submit`],
//!   which answers with a typed [`SubmitOutcome`] under a configured
//!   [`AdmissionPolicy`] (bounded queue depth, per-request deadline,
//!   [`Priority`] lanes with interactive draining first); pending batches
//!   drain on size or deadline triggers into an ordered [`ServiceEvent`]
//!   stream — one per-client delivery event per request (the paper's hop
//!   4), a trailing [`BatchFlushed`](ServiceEvent::BatchFlushed) report,
//!   and explicit cancellation via [`OpaqueService::cancel`]. The queue
//!   keeps the only books of acknowledgements owed: they leave it only
//!   when a window succeeds;
//! * [`parallel`] / [`ExecutionPolicy`] — the execution layer: obfuscated
//!   queries of a batch run sequentially or through the one worker-pool
//!   loop (every shard bound to a queue of units, one pinned search arena
//!   per shard), with the guarantee (proven by the lattice proptest)
//!   that parallelism never changes a single answer or report byte;
//! * [`cache`] / [`CachePolicy`] — the shard-local shortest-path-tree
//!   cache: recorded Dijkstra sweeps adopted instead of regrown when a
//!   query's root recurs, under the same guarantee (`Lru` is
//!   byte-identical to `Off` in every report — `tests/lattice.rs`);
//! * [`partition`] / [`PartitionPolicy`] — the placement layer: region-owned
//!   shards route each unit to the shard owning its obfuscation region
//!   (halo fallback → any-owner fallback), clustering cache roots per
//!   shard while staying report-byte-identical to round-robin
//!   (`tests/lattice.rs`, `tests/partition_equivalence.rs`);
//! * [`OpaqueService`] — the assembled deployment, built from a typed
//!   [`ServiceBuilder`] / [`ServiceConfig`]. Its batch pass owns no
//!   obfuscation logic: it screens requests, hands the admitted ones to
//!   [`Obfuscator::obfuscate_attributed`] (the §IV pipeline, mode dispatch
//!   and per-client infeasibility attribution included), executes the
//!   units, and writes every path, breach and outcome into a slot at its
//!   request's position — so both views below read request order
//!   straight off the slots;
//! * [`BatchReport`] / [`ClientOutcome`] — typed accounting: serde-tagged
//!   obfuscation modes and an explicit per-client outcome (delivered /
//!   unreachable / rejected) instead of silent drops.

mod backend;
mod batcher;
mod builder;
pub mod cache;
pub mod gateway;
pub mod heuristic;
pub mod parallel;
pub mod partition;
mod report;

pub use backend::{DirectionsBackend, ShardedBackend};
pub use batcher::{BatchPolicy, Ticket};
pub use builder::{DefaultBackend, ServiceBuilder, ServiceConfig};
pub use cache::{CachePolicy, TreeCache};
pub use gateway::{AdmissionPolicy, Priority, RejectReason, ServiceEvent, SubmitOutcome};
pub use heuristic::SearchHeuristic;
pub use parallel::ExecutionPolicy;
pub use partition::{Partition, PartitionPolicy, RouteKind};
pub use report::{BatchReport, ClientOutcome};

use crate::error::{OpaqueError, Result};
use crate::filter::{ClientResult, take_path};
use crate::obfuscator::{ObfuscationMode, ObfuscationUnit, Obfuscator};
use crate::protocol::{RequestMsg, ResultMsg};
use crate::query::{ClientId, ClientRequest};
use batcher::Batcher;
use roadnet::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything a processed batch produced: delivered paths, one outcome per
/// request of the processed batch (in request order, including requests
/// rejected at admission), and the batch's [`BatchReport`].
///
/// This is the *legacy batch view* — the output of the direct
/// [`OpaqueService::process_batch`] path. Queue-driven processing
/// ([`OpaqueService::tick`] / [`OpaqueService::flush`]) emits the same
/// information as an ordered [`ServiceEvent`] stream instead, with the
/// same [`BatchReport`] bytes trailing each window
/// (`tests/gateway_equivalence.rs` holds the two views byte-identical).
#[derive(Clone, Debug)]
pub struct ServiceResponse {
    /// Delivered paths, in request order. Clients with a non-`Delivered`
    /// outcome do not appear here.
    pub results: Vec<ClientResult>,
    /// `outcomes[i]` describes `requests[i]` of the processed batch.
    pub outcomes: Vec<(ClientId, ClientOutcome)>,
    /// Aggregate accounting for the batch.
    pub report: BatchReport,
}

/// Everything one batch pass knows about one request, kept at the
/// request's position in the batch: units come back in group order and
/// write into their requests' slots, so request order never has to be
/// restored afterwards.
struct Slot {
    client: ClientId,
    /// Breach probability of the unit that embedded the request; `None`
    /// for a request no unit carried.
    breach: Option<f64>,
    fate: Fate,
}

/// A slot's terminal state — [`ClientOutcome`] with the delivered path
/// attached, so "delivered without a path" cannot be represented.
enum Fate {
    Delivered(pathsearch::Path),
    /// Also the state of an admitted request until its path comes back.
    Unreachable,
    Rejected(String),
}

/// The assembled OPAQUE deployment: trusted obfuscator, pluggable
/// directions backend, admission queue, and a configured obfuscation mode.
///
/// Built via [`ServiceBuilder::build`], or
/// [`ServiceBuilder::build_with_backend`] around a custom backend; its
/// configuration is fixed from then on.
pub struct OpaqueService<B> {
    obfuscator: Obfuscator,
    backend: B,
    mode: ObfuscationMode,
    batcher: Batcher,
    /// Re-verify delivered paths against the obfuscator's map, turning
    /// tampering into [`OpaqueError::CorruptResult`].
    verify_results: bool,
    /// How each batch's obfuscated queries are executed against the
    /// backend: sequentially (the default) or fanned out across a worker
    /// pool of pinned shards — with byte-identical results and reports
    /// either way (the determinism harness's guarantee).
    execution: ExecutionPolicy,
}

impl<B> std::fmt::Debug for OpaqueService<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpaqueService")
            .field("mode", &self.mode)
            .field("pending", &self.batcher.len())
            .field("verify_results", &self.verify_results)
            .field("execution", &self.execution)
            .finish_non_exhaustive()
    }
}

impl<B: DirectionsBackend> OpaqueService<B> {
    /// The trusted obfuscator (e.g. to inspect its map).
    pub fn obfuscator(&self) -> &Obfuscator {
        &self.obfuscator
    }

    /// The directions backend (e.g. to read cumulative stats).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The configured obfuscation mode.
    pub fn mode(&self) -> ObfuscationMode {
        self.mode
    }

    /// Number of requests waiting in the admission queue (both lanes plus
    /// deferred duplicates).
    pub fn pending(&self) -> usize {
        self.batcher.len()
    }

    /// Clock at which the queue's deadline trigger fires: the oldest
    /// arrival in the two lanes plus [`BatchPolicy::max_delay`], `None`
    /// when the lanes are empty. Deferred duplicates do not key it. A
    /// [`OpaqueService::tick`] at exactly this clock fires; the size
    /// trigger needs no clock, so tick right after a submission fills the
    /// window instead of waiting for this deadline.
    pub fn next_deadline(&self) -> Option<f64> {
        self.batcher.next_deadline()
    }

    /// Submit one request at clock `now` in the [`Priority::Interactive`]
    /// lane; see [`OpaqueService::submit_with_priority`].
    pub fn submit(&mut self, request: ClientRequest, now: f64) -> SubmitOutcome {
        self.submit_with_priority(request, Priority::Interactive, now)
    }

    /// Submit one request at clock `now` in the given lane.
    ///
    /// Never fails — every admission verdict is a typed
    /// [`SubmitOutcome`]: accepted into the current window, deferred to
    /// the next one (the client already has a pending request —
    /// duplicates no longer fail the submit), or rejected at the door
    /// (queue full, malformed protection) with no ticket issued.
    pub fn submit_with_priority(
        &mut self,
        request: ClientRequest,
        priority: Priority,
        now: f64,
    ) -> SubmitOutcome {
        self.batcher.submit(request, priority, now)
    }

    /// Cancel a queued request before its window flushes. `true` when the
    /// ticket was still queued — the request leaves the queue immediately
    /// and the next [`OpaqueService::tick`] / [`OpaqueService::flush`]
    /// acknowledges it with a [`ServiceEvent::Cancelled`]; `false` when
    /// the ticket is unknown or its batch already drained (cancellation
    /// after the fact is impossible: satisfied requests are discarded,
    /// §IV).
    pub fn cancel(&mut self, ticket: Ticket) -> bool {
        self.batcher.cancel(ticket).is_some()
    }

    /// Advance the clock and emit the gateway's events: pending
    /// [`ServiceEvent::Cancelled`] acknowledgements, then owed
    /// [`ServiceEvent::Rejected`] sheddings, then — if a flush
    /// trigger (size or deadline) has fired — one terminal event per
    /// request of the drained batch in batch order, closed by a
    /// [`ServiceEvent::BatchFlushed`]. Empty when nothing happened.
    ///
    /// On a processing error the drained requests are *not* re-queued
    /// (re-queueing would re-trigger the same failure on every tick) and
    /// the caller sees the error. Every ticket must still resolve exactly
    /// once: the acknowledgements stay queued, the failed window's own
    /// tickets join them as sheddings carrying the error text, and the
    /// next tick emits them all.
    pub fn tick(&mut self, now: f64) -> Result<Vec<ServiceEvent>> {
        self.pass(now, false)
    }

    /// Drain and process one pending window at clock `now`, regardless of
    /// triggers (e.g. at shutdown), emitting events exactly like
    /// [`OpaqueService::tick`]. Deferred duplicates join the *next*
    /// window, so a full shutdown drain loops until
    /// [`OpaqueService::pending`] reaches zero.
    pub fn flush(&mut self, now: f64) -> Result<Vec<ServiceEvent>> {
        self.pass(now, true)
    }

    /// One gateway pass at clock `now`: shed overdue requests, drain a
    /// window if a trigger has fired (any non-empty one when `force`),
    /// and on success emit the owed acknowledgements, then the window's
    /// events. A failed window owes its tickets a rejection instead.
    fn pass(&mut self, now: f64, force: bool) -> Result<Vec<ServiceEvent>> {
        // Expiry first: an overdue request must be shed, never drained
        // into the window.
        self.batcher.expire(now);
        let window = if force { self.batcher.flush() } else { self.batcher.tick(now) };
        let Some(window) = window else {
            return Ok(self.batcher.take_acks(0));
        };
        let requests: Vec<ClientRequest> = window.iter().map(|p| p.request).collect();
        let (slots, report) = match self.run_batch(&requests) {
            Ok(done) => done,
            Err(error) => {
                let reason = RejectReason::Infeasible { reason: error.to_string() };
                self.batcher.reject_window(&window, &reason, now);
                return Err(error);
            }
        };
        let mut events = self.batcher.take_acks(window.len() + 1);
        // One slot per drained request, in drain order.
        for (slot, p) in slots.into_iter().zip(&window) {
            let (ticket, client, waited) = (p.ticket, slot.client, now - p.arrival);
            events.push(match slot.fate {
                Fate::Delivered(path) => ServiceEvent::ResponseReady {
                    ticket,
                    client,
                    result: ResultMsg { client, path },
                    waited,
                },
                Fate::Unreachable => ServiceEvent::Unreachable { ticket, client, waited },
                Fate::Rejected(reason) => ServiceEvent::Rejected {
                    ticket,
                    client,
                    reason: RejectReason::Infeasible { reason },
                    waited,
                },
            });
        }
        events.push(ServiceEvent::BatchFlushed(report));
        Ok(events)
    }

    /// Process one batch end to end under the configured mode.
    ///
    /// Satisfied requests are *not* retained anywhere in the service (§IV:
    /// "the satisfied requests are immediately discarded in the
    /// obfuscator, for sake of security") — only the aggregate
    /// [`BatchReport`] survives.
    ///
    /// # Errors
    /// * [`OpaqueError::EmptyBatch`] — no requests;
    /// * [`OpaqueError::DuplicateClient`] — two requests of this directly
    ///   handed batch share a [`ClientId`] (result routing would be
    ///   ambiguous and there is no later window to defer to; the
    ///   queue-driven path never produces such a batch — duplicates are
    ///   deferred at [`OpaqueService::submit`]);
    /// * [`OpaqueError::CorruptResult`] — a backend answer failed
    ///   verification (always fatal: it indicates tampering).
    ///
    /// Every feasibility failure — an invalid request, and strategy-level
    /// or collective shared-group infeasibility — is attributed to
    /// individual clients as [`ClientOutcome::Rejected`] (see
    /// [`Obfuscator::obfuscate_attributed`]), and a disconnected true pair
    /// as [`ClientOutcome::Unreachable`]; the rest of the batch is served.
    pub fn process_batch(&mut self, requests: &[ClientRequest]) -> Result<ServiceResponse> {
        let (slots, report) = self.run_batch(requests)?;
        let mut results = Vec::with_capacity(slots.len());
        let mut outcomes = Vec::with_capacity(slots.len());
        for Slot { client, fate, .. } in slots {
            let outcome = match fate {
                Fate::Delivered(path) => {
                    results.push(ClientResult { client, path });
                    ClientOutcome::Delivered
                }
                Fate::Unreachable => ClientOutcome::Unreachable,
                Fate::Rejected(reason) => ClientOutcome::Rejected { reason },
            };
            outcomes.push((client, outcome));
        }
        Ok(ServiceResponse { results, outcomes, report })
    }

    /// The one batch pass behind both views: admission, the obfuscator's
    /// §IV pipeline, backend execution, filtering and accounting. Returns
    /// one [`Slot`] per request, in request order, and the batch's report.
    fn run_batch(&mut self, requests: &[ClientRequest]) -> Result<(Vec<Slot>, BatchReport)> {
        if requests.is_empty() {
            return Err(OpaqueError::EmptyBatch);
        }
        let mode = self.mode;
        let mut report =
            BatchReport { mode, num_requests: requests.len(), ..BatchReport::default() };

        // Admission. Each request gets the slot at its own position; the
        // client → slot map is how units find their way back, which is
        // also why a duplicate client id is an error here (routing would
        // be ambiguous). Invalid requests become `Rejected` slots and the
        // rest proceed: the screen covers count-level feasibility, so one
        // greedy client cannot fail the whole batch during obfuscation.
        let mut slot_of: HashMap<ClientId, usize> = HashMap::with_capacity(requests.len());
        let mut slots: Vec<Slot> = Vec::with_capacity(requests.len());
        let mut admitted: Vec<ClientRequest> = Vec::with_capacity(requests.len());
        for (i, r) in requests.iter().enumerate() {
            if slot_of.insert(r.client, i).is_some() {
                return Err(OpaqueError::DuplicateClient { client: r.client });
            }
            report.traffic.record_request(&RequestMsg {
                client: r.client,
                query: r.query,
                protection: r.protection,
            });
            let fate = match self.obfuscator.can_satisfy(r) {
                Ok(()) => {
                    admitted.push(*r);
                    Fate::Unreachable
                }
                Err(e) => Fate::Rejected(e.to_string()),
            };
            slots.push(Slot { client: r.client, breach: None, fate });
        }
        if !admitted.is_empty() {
            let before = self.backend.stats();
            let batch = self.obfuscator.obfuscate_attributed(&admitted, mode)?;
            for rejection in &batch.rejected {
                if let Some(slot) = slot_mut(&slot_of, &mut slots, rejection.client) {
                    slot.fate = Fate::Rejected(rejection.reason());
                }
            }
            report.num_units = batch.units.len();

            // Execution: every unit is answered before any accounting, so
            // the backend may evaluate them in any order (worker pool) or
            // in unit order (sequential) — the accounting loop below
            // always runs in unit order either way, which is what makes
            // the two execution policies byte-identical in every report.
            // The backend takes the queries as one slice, so the units
            // are taken apart for the call and put back together after.
            let mut queries = Vec::with_capacity(batch.units.len());
            let mut carried = Vec::with_capacity(batch.units.len());
            for unit in batch.units {
                queries.push(unit.query);
                carried.push(unit.requests);
            }
            let answers = self.backend.process_many(&queries, self.execution);
            // Hard contract, not a debug check: a backend returning the
            // wrong count would otherwise be silently truncated by the
            // zip below, leaving clients unreachable with no search run.
            assert_eq!(
                answers.len(),
                queries.len(),
                "backend process_many must answer every query exactly once"
            );

            let verify_on = self.verify_results.then(|| self.obfuscator.map());
            for ((query_id, (query, members)), mut candidates) in
                queries.into_iter().zip(carried).enumerate().zip(answers)
            {
                let unit = ObfuscationUnit { query, requests: members };
                report.total_pairs += unit.query.num_pairs() as u64;
                report.fakes_added += count_fakes(&unit);
                report.traffic.record_query(query_id as u64, &unit.query);

                report.candidate_paths += candidates.num_paths() as u64;
                report.candidate_path_nodes += candidates
                    .paths
                    .iter()
                    .flatten()
                    .flatten()
                    .map(|p| p.nodes().len() as u64)
                    .sum::<u64>();
                report.traffic.record_candidates(query_id as u64, &candidates.paths);

                for (k, request) in unit.requests.iter().enumerate() {
                    let path = take_path(&unit, k, &mut candidates, verify_on)?;
                    let Some(slot) = slot_mut(&slot_of, &mut slots, request.client) else {
                        continue;
                    };
                    // Embedded clients are exposed whether or not a path
                    // comes back: record the unit's breach either way.
                    slot.breach = Some(unit.query.breach_probability());
                    if let Some(path) = path {
                        report.delivered_path_nodes += path.nodes().len() as u64;
                        report.traffic.record_result(request.client, &path);
                        slot.fate = Fate::Delivered(path);
                    }
                }
            }

            // Per-batch server cost: the fleet counters are cumulative
            // (shards are never reset between batches), so the report
            // carries the delta across this batch only — pinned by the
            // per-batch accounting tests against both execution policies.
            let after = self.backend.stats();
            let delta = after.delta_since(&before);
            report.server_settled = delta.search.settled;
            report.server_relaxed = delta.search.relaxed;
            report.server_trees_grown = delta.trees_grown;
        }

        report.per_client_breach =
            slots.iter().filter_map(|s| s.breach.map(|b| (s.client, b))).collect();
        Ok((slots, report))
    }
}

/// Live-map maintenance for the standard deployment shape assembled by
/// [`ServiceBuilder`] — a shard fleet sharing one map. The obfuscator
/// reads the same `Arc<RoadNetwork>` snapshot as every shard:
/// the map is public data, so the two sides share it without revealing
/// anything, and result verification on this fleet checks delivered
/// paths against the one snapshot the fleet searched.
impl OpaqueService<DefaultBackend> {
    /// Apply live-traffic weight updates. The obfuscator lets go of the
    /// map while the fleet reweights it in place and repairs or evicts
    /// only the cached trees touching a changed edge
    /// ([`ShardedBackend::update_weights`]), so the map is copied only for
    /// a snapshot held outside the service; the obfuscator then adopts the
    /// fleet's map, keeping its spatial index and plausibility weights (a
    /// weight update moves no geometry). Returns the edges whose weight
    /// actually changed.
    ///
    /// This is the gateway entry point for the rush-hour regime: traffic
    /// ticks every few seconds must not re-cool the whole fleet cache the
    /// way a topology swap ([`OpaqueService::swap_map`]) deliberately
    /// does.
    ///
    /// # Errors
    /// Propagates [`roadnet::RoadNetError`] for an unknown edge id or
    /// invalid weight; the map is not touched on error.
    pub fn update_weights(
        &mut self,
        updates: &[(roadnet::EdgeId, f64)],
    ) -> std::result::Result<Vec<roadnet::EdgeId>, roadnet::RoadNetError> {
        self.obfuscator.adopt_reweighted(backend::placeholder_map());
        let changed = self.backend.update_weights(updates);
        if let Some(shard) = self.backend.shards().first() {
            self.obfuscator.adopt_reweighted(Arc::clone(shard.graph()));
        }
        changed
    }

    /// Replace the map — the topology-change path. The new map is wrapped
    /// once and shared by the obfuscator and every shard. Every shard's
    /// tree cache bumps its epoch and drops every tree; the obfuscator
    /// rebuilds its spatial index and drops its plausibility weights (they
    /// describe the old map's node ids), so
    /// [`FakeSelection::Weighted`](crate::FakeSelection::Weighted) falls
    /// back to uniform fakes on the new map. Use
    /// [`OpaqueService::update_weights`] for traffic.
    pub fn swap_map(&mut self, map: roadnet::RoadNetwork) {
        let shared = Arc::new(map);
        self.obfuscator.swap_map(Arc::clone(&shared));
        self.backend.swap_map(shared);
    }
}

/// The slot reserved for `client`. Every client a unit or a rejection
/// names came out of the batch's own requests, so the lookup cannot miss
/// — but the batch path must degrade, not abort, if that invariant ever
/// breaks, so callers skip an unknown id.
fn slot_mut<'a>(
    slot_of: &HashMap<ClientId, usize>,
    slots: &'a mut [Slot],
    client: ClientId,
) -> Option<&'a mut Slot> {
    slot_of.get(&client).and_then(|&i| slots.get_mut(i))
}

/// Number of endpoints in the unit's sets that are not true endpoints of
/// any carried request. A unit carries few requests, so each endpoint is
/// checked against theirs in turn, with no set built to hold them.
pub(crate) fn count_fakes(unit: &ObfuscationUnit) -> u64 {
    let is_true =
        |v: NodeId| unit.requests.iter().any(|r| r.query.source == v || r.query.destination == v);
    let endpoints = unit.query.sources().iter().chain(unit.query.targets());
    endpoints.filter(|&&v| !is_true(v)).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obfuscator::{ClusteringConfig, FakeSelection};
    use crate::query::{ObfuscatedPathQuery, PathQuery, ProtectionSettings};
    use crate::server::DirectionsServer;
    use pathsearch::SharingPolicy;
    use roadnet::generators::{GridConfig, grid_network};

    fn map() -> roadnet::RoadNetwork {
        grid_network(&GridConfig { width: 16, height: 16, seed: 5, ..Default::default() }).unwrap()
    }

    fn service() -> OpaqueService<DirectionsServer<roadnet::RoadNetwork>> {
        let g = map();
        ServiceBuilder::new()
            .map(g.clone())
            .seed(11)
            .build_with_backend(DirectionsServer::new(g, SharingPolicy::PerSource))
            .unwrap()
    }

    /// [`service`] under [`ObfuscationMode::SharedGlobal`].
    fn shared_service() -> OpaqueService<DirectionsServer<roadnet::RoadNetwork>> {
        let g = map();
        ServiceBuilder::new()
            .map(g.clone())
            .seed(11)
            .obfuscation_mode(ObfuscationMode::SharedGlobal)
            .build_with_backend(DirectionsServer::new(g, SharingPolicy::PerSource))
            .unwrap()
    }

    /// [`service`] (or any backend over [`map`]) behind explicit queue
    /// policies.
    fn queued<B: DirectionsBackend>(
        backend: B,
        batch: BatchPolicy,
        admission: AdmissionPolicy,
    ) -> OpaqueService<B> {
        ServiceBuilder::new()
            .map(map())
            .seed(11)
            .batch_policy(batch)
            .admission_policy(admission)
            .build_with_backend(backend)
            .unwrap()
    }

    fn request(i: u32, s: u32, t: u32, f: u32) -> ClientRequest {
        ClientRequest::new(
            ClientId(i),
            PathQuery::new(NodeId(s), NodeId(t)),
            ProtectionSettings::new(f, f).unwrap(),
        )
    }

    #[test]
    fn delivers_in_request_order_with_outcomes() {
        let g = map();
        let mut svc = ServiceBuilder::new()
            .map(g.clone())
            .seed(11)
            .verify_results(true)
            .build_with_backend(DirectionsServer::new(g, SharingPolicy::PerSource))
            .unwrap();
        let reqs = vec![request(10, 0, 255, 3), request(11, 16, 240, 3), request(12, 32, 200, 2)];
        let resp = svc.process_batch(&reqs).unwrap();
        assert_eq!(resp.results.len(), 3);
        for (res, req) in resp.results.iter().zip(&reqs) {
            assert_eq!(res.client, req.client);
            assert_eq!(res.path.source(), req.query.source);
            assert_eq!(res.path.destination(), req.query.destination);
        }
        assert_eq!(
            resp.outcomes,
            reqs.iter().map(|r| (r.client, ClientOutcome::Delivered)).collect::<Vec<_>>()
        );
        assert_eq!(resp.report.mode, ObfuscationMode::Independent);
        assert_eq!(resp.report.num_units, 3);
    }

    #[test]
    fn duplicate_clients_still_error_on_the_direct_batch_path() {
        // The queue path defers duplicates to the next window; a batch
        // handed directly to process_batch has no next window, so the
        // ambiguity stays a typed error there.
        let mut svc = service();
        let reqs = vec![request(5, 0, 255, 2), request(5, 16, 240, 2)];
        let err = svc.process_batch(&reqs).unwrap_err();
        assert_eq!(err, OpaqueError::DuplicateClient { client: ClientId(5) });
        // Nothing was processed: the backend saw no queries.
        assert_eq!(svc.backend().stats().obfuscated_queries, 0);
    }

    #[test]
    fn invalid_request_becomes_rejected_outcome_in_service_mode() {
        let mut svc = service();
        let good = request(0, 0, 255, 2);
        let bad = request(1, 9999, 255, 2); // unknown node
        let resp = svc.process_batch(&[good, bad]).unwrap();
        assert_eq!(resp.results.len(), 1);
        assert_eq!(resp.outcomes[0], (ClientId(0), ClientOutcome::Delivered));
        match &resp.outcomes[1] {
            (ClientId(1), ClientOutcome::Rejected { reason }) => {
                assert!(reason.contains("not on the map"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Rejected clients are never embedded: no breach entry for them.
        assert_eq!(resp.report.per_client_breach.len(), 1);
    }

    #[test]
    fn unsatisfiable_protection_is_rejected_per_client_not_per_batch() {
        // Constructor-valid protections that can never be met on a
        // 256-node map must cost only the greedy client, not the
        // co-batched ones. f = 150 is the subtle case: each side fits the
        // map alone, but S and T are disjoint, so 150 + 150 > 256 nodes.
        for greedy_f in [500, 150] {
            let mut svc = service();
            let good = request(0, 0, 255, 2);
            let greedy = request(1, 16, 240, greedy_f);
            let resp = svc.process_batch(&[good, greedy]).unwrap();
            assert_eq!(resp.results.len(), 1, "f = {greedy_f}");
            assert_eq!(resp.outcomes[0], (ClientId(0), ClientOutcome::Delivered));
            match &resp.outcomes[1] {
                (ClientId(1), ClientOutcome::Rejected { reason }) => {
                    assert!(reason.contains("fake endpoints"), "{reason}");
                }
                other => panic!("expected rejection for f = {greedy_f}, got {other:?}"),
            }
        }
    }

    #[test]
    fn collective_shared_infeasibility_evicts_the_greediest_client() {
        // Each request is individually feasible (130+2 and 2+130 both fit
        // 256 nodes), but a shared query must meet max f_S = 130 AND
        // max f_T = 130 at once — 260 > 256. No single probe fails, so
        // the greediest request is evicted and the rest are served.
        let g = map();
        let mut svc = ServiceBuilder::new()
            .map(g.clone())
            .fake_selection(FakeSelection::Uniform)
            .seed(3)
            .obfuscation_mode(ObfuscationMode::SharedGlobal)
            .build_with_backend(DirectionsServer::new(g, SharingPolicy::PerSource))
            .unwrap();
        let reqs = vec![
            ClientRequest::new(
                ClientId(0),
                PathQuery::new(NodeId(0), NodeId(255)),
                ProtectionSettings::new(130, 2).unwrap(),
            ),
            ClientRequest::new(
                ClientId(1),
                PathQuery::new(NodeId(16), NodeId(240)),
                ProtectionSettings::new(2, 130).unwrap(),
            ),
            request(2, 32, 200, 2),
        ];
        let resp = svc.process_batch(&reqs).unwrap();
        assert_eq!(resp.results.len(), 2, "the compatible pair is still served");
        let rejected: Vec<ClientId> = resp
            .outcomes
            .iter()
            .filter(|(_, o)| matches!(o, ClientOutcome::Rejected { .. }))
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(rejected.len(), 1, "exactly one eviction: {:?}", resp.outcomes);
        assert!(rejected[0] == ClientId(0) || rejected[0] == ClientId(1));
    }

    #[test]
    fn clustered_infeasibility_stays_cluster_local() {
        // An infeasible pair (joint 130+130 > 256) plus an independent
        // high-demand client: whatever the clustering decides, the
        // high-demand client holds no binding max of its group and must be
        // served; exactly one of the infeasible pair is rejected.
        let g = map();
        let mut svc = ServiceBuilder::new()
            .map(g.clone())
            .fake_selection(FakeSelection::Uniform)
            .seed(3)
            .obfuscation_mode(ObfuscationMode::SharedClustered(ClusteringConfig {
                radius_scale: 2.0,
                max_cluster_size: 8,
            }))
            .build_with_backend(DirectionsServer::new(g, SharingPolicy::PerSource))
            .unwrap();
        let reqs = vec![
            ClientRequest::new(
                ClientId(0),
                PathQuery::new(NodeId(0), NodeId(17)),
                ProtectionSettings::new(130, 2).unwrap(),
            ),
            ClientRequest::new(
                ClientId(1),
                PathQuery::new(NodeId(16), NodeId(33)),
                ProtectionSettings::new(2, 130).unwrap(),
            ),
            ClientRequest::new(
                ClientId(2),
                PathQuery::new(NodeId(255), NodeId(238)),
                ProtectionSettings::new(120, 10).unwrap(),
            ),
        ];
        let resp = svc.process_batch(&reqs).unwrap();
        assert_eq!(resp.results.len(), 2, "{:?}", resp.outcomes);
        assert_eq!(
            resp.outcomes[2].1,
            ClientOutcome::Delivered,
            "a client outside the infeasible pair must not be blamed"
        );
    }

    #[test]
    fn eviction_targets_the_binding_max_not_the_largest_sum() {
        // Infeasibility is max f_S + max f_T = 130 + 130 > 256, driven
        // only by clients 0 and 1. Client 2 has the largest f_S + f_T sum
        // (200) but holds neither binding max — a sum-based heuristic
        // would wrongly evict it (and then need a second eviction); the
        // binding-max rule serves it.
        let g = map();
        let mut svc = ServiceBuilder::new()
            .map(g.clone())
            .fake_selection(FakeSelection::Uniform)
            .seed(3)
            .obfuscation_mode(ObfuscationMode::SharedGlobal)
            .build_with_backend(DirectionsServer::new(g, SharingPolicy::PerSource))
            .unwrap();
        let reqs = vec![
            ClientRequest::new(
                ClientId(0),
                PathQuery::new(NodeId(0), NodeId(255)),
                ProtectionSettings::new(130, 2).unwrap(),
            ),
            ClientRequest::new(
                ClientId(1),
                PathQuery::new(NodeId(16), NodeId(240)),
                ProtectionSettings::new(2, 130).unwrap(),
            ),
            ClientRequest::new(
                ClientId(2),
                PathQuery::new(NodeId(32), NodeId(200)),
                ProtectionSettings::new(100, 100).unwrap(),
            ),
        ];
        let resp = svc.process_batch(&reqs).unwrap();
        assert_eq!(resp.results.len(), 2, "one eviction suffices: {:?}", resp.outcomes);
        assert_eq!(
            resp.outcomes[2].1,
            ClientOutcome::Delivered,
            "the non-binding client must not be evicted"
        );
    }

    #[test]
    fn strategy_level_infeasibility_is_attributed_to_the_culprit_client() {
        // Two components: a 9-node path and an isolated 2-node edge. With
        // NetworkRing fakes, a request inside the 2-node component cannot
        // find any fake (network distance never leaves the component), a
        // constraint the count screen (f_s + f_t <= 11 nodes) cannot see.
        let mut b = roadnet::GraphBuilder::new();
        for i in 0..11 {
            b.add_node(roadnet::Point::new(i as f64, 0.0)).unwrap();
        }
        for i in 0..8 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        b.add_edge(NodeId(9), NodeId(10), 1.0).unwrap();
        let g = b.build().unwrap();

        let mut svc = ServiceBuilder::new()
            .map(g.clone())
            .fake_selection(FakeSelection::default_network_ring())
            .seed(7)
            .build_with_backend(DirectionsServer::new(g, SharingPolicy::PerSource))
            .unwrap();
        let good = ClientRequest::new(
            ClientId(0),
            PathQuery::new(NodeId(0), NodeId(8)),
            ProtectionSettings::new(2, 2).unwrap(),
        );
        let stuck = ClientRequest::new(
            ClientId(1),
            PathQuery::new(NodeId(9), NodeId(10)),
            ProtectionSettings::new(2, 2).unwrap(),
        );
        let resp = svc.process_batch(&[good, stuck]).unwrap();
        assert_eq!(resp.results.len(), 1, "the feasible client is still served");
        assert_eq!(resp.outcomes[0], (ClientId(0), ClientOutcome::Delivered));
        assert!(
            matches!(resp.outcomes[1], (ClientId(1), ClientOutcome::Rejected { .. })),
            "culprit attributed, not the whole batch failed: {:?}",
            resp.outcomes[1]
        );
    }

    /// Tickets of the per-request events, in emission order.
    fn event_tickets(events: &[ServiceEvent]) -> Vec<Ticket> {
        events.iter().filter_map(ServiceEvent::ticket).collect()
    }

    #[test]
    fn queue_flushes_by_size_and_deadline() {
        let mut svc = queued(
            DirectionsServer::new(map(), SharingPolicy::PerSource),
            BatchPolicy { max_batch: 2, max_delay: 10.0 },
            AdmissionPolicy::default(),
        );
        let t0 = svc.submit(request(0, 0, 255, 2), 0.0).ticket().unwrap();
        assert!(svc.tick(0.0).unwrap().is_empty(), "one pending, no trigger");
        let t1 = svc.submit(request(1, 16, 240, 2), 1.0).ticket().unwrap();
        let events = svc.tick(1.0).unwrap();
        assert_eq!(event_tickets(&events), vec![t0, t1]);
        assert!(
            events.iter().take(2).all(|e| matches!(e, ServiceEvent::ResponseReady { .. })),
            "{events:?}"
        );
        assert!(matches!(events.last(), Some(ServiceEvent::BatchFlushed(_))));
        assert_eq!(svc.pending(), 0);

        // Deadline path: a single request flushes once it has waited.
        svc.submit(request(2, 32, 200, 2), 5.0).ticket().unwrap();
        assert!(svc.tick(14.9).unwrap().is_empty());
        let events = svc.tick(15.0).unwrap();
        match &events[0] {
            ServiceEvent::ResponseReady { waited, .. } => {
                assert!((waited - 10.0).abs() < 1e-12, "queued at 5.0, drained at 15.0");
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn flush_drains_partial_batches() {
        let mut svc = service();
        assert!(svc.flush(0.0).unwrap().is_empty());
        svc.submit(request(0, 0, 255, 2), 0.0).ticket().unwrap();
        let events = svc.flush(2.5).unwrap();
        assert_eq!(events.len(), 2, "one delivery + the report: {events:?}");
        match &events[0] {
            ServiceEvent::ResponseReady { client, waited, result, .. } => {
                assert_eq!(*client, ClientId(0));
                assert_eq!(result.client, ClientId(0));
                assert!((waited - 2.5).abs() < 1e-12);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        match &events[1] {
            ServiceEvent::BatchFlushed(report) => assert_eq!(report.num_requests, 1),
            other => panic!("expected report, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_submission_defers_to_the_next_window() {
        // The gateway fix: a duplicate client id defers instead of
        // erroring, and both requests are eventually answered — one
        // window apart.
        let mut svc = service();
        let t0 = match svc.submit(request(5, 0, 255, 2), 0.0) {
            SubmitOutcome::Accepted(t) => t,
            other => panic!("expected acceptance, got {other:?}"),
        };
        let t1 = match svc.submit(request(5, 16, 240, 2), 0.1) {
            SubmitOutcome::Deferred(t) => t,
            other => panic!("duplicate must defer, got {other:?}"),
        };
        let events = svc.flush(1.0).unwrap();
        assert_eq!(event_tickets(&events), vec![t0]);
        let events = svc.flush(2.0).unwrap();
        assert_eq!(event_tickets(&events), vec![t1]);
        assert_eq!(svc.pending(), 0);
    }

    #[test]
    fn cancelled_requests_are_acknowledged_and_never_processed() {
        let mut svc = service();
        let t0 = svc.submit(request(0, 0, 255, 2), 0.0).ticket().unwrap();
        let t1 = svc.submit(request(1, 16, 240, 2), 0.1).ticket().unwrap();
        assert!(svc.cancel(t0));
        assert!(!svc.cancel(t0), "double cancel is a no-op");
        let events = svc.flush(1.0).unwrap();
        assert_eq!(
            events[0],
            ServiceEvent::Cancelled { ticket: t0, client: ClientId(0) },
            "{events:?}"
        );
        assert_eq!(event_tickets(&events[1..]), vec![t1]);
        match events.last() {
            Some(ServiceEvent::BatchFlushed(report)) => {
                assert_eq!(report.num_requests, 1, "the cancelled request was never processed");
            }
            other => panic!("expected report, got {other:?}"),
        }
        assert!(!svc.cancel(t1), "drained tickets cannot be cancelled");
    }

    #[test]
    fn deadline_expiry_sheds_with_a_rejected_event() {
        let mut svc = queued(
            DirectionsServer::new(map(), SharingPolicy::PerSource),
            BatchPolicy { max_batch: 100, max_delay: 50.0 },
            AdmissionPolicy { queue_depth: 16, deadline: Some(3.0) },
        );
        let t0 = svc.submit(request(0, 0, 255, 2), 0.0).ticket().unwrap();
        let events = svc.tick(10.0).unwrap();
        assert_eq!(events.len(), 1, "{events:?}");
        match &events[0] {
            ServiceEvent::Rejected {
                ticket,
                reason: RejectReason::DeadlineExpired { waited: w },
                waited,
                ..
            } => {
                assert_eq!(*ticket, t0);
                assert!((w - 10.0).abs() < 1e-12);
                assert_eq!(w, waited);
            }
            other => panic!("expected deadline shedding, got {other:?}"),
        }
        assert_eq!(svc.pending(), 0);
    }

    fn sharded_service(
        execution: ExecutionPolicy,
        mode: ObfuscationMode,
    ) -> OpaqueService<ShardedBackend<DirectionsServer<roadnet::RoadNetwork>>> {
        let g = map();
        let servers: Vec<_> =
            (0..4).map(|_| DirectionsServer::new(g.clone(), SharingPolicy::PerSource)).collect();
        ServiceBuilder::new()
            .map(g)
            .seed(23)
            .obfuscation_mode(mode)
            .execution_policy(execution)
            .verify_results(true)
            .build_with_backend(ShardedBackend::new(servers).unwrap())
            .unwrap()
    }

    #[test]
    fn worker_pool_batches_are_byte_identical_to_sequential() {
        for mode in [
            ObfuscationMode::Independent,
            ObfuscationMode::SharedGlobal,
            ObfuscationMode::SharedClustered(ClusteringConfig::default()),
        ] {
            let mut seq = sharded_service(ExecutionPolicy::Sequential, mode);
            let mut par = sharded_service(ExecutionPolicy::WorkerPool { threads: 4 }, mode);
            let reqs: Vec<ClientRequest> =
                (0..8).map(|i| request(i, i * 13 % 256, (i * 37 + 200) % 256, 3)).collect();
            let a = seq.process_batch(&reqs).unwrap();
            let b = par.process_batch(&reqs).unwrap();
            assert_eq!(a.outcomes, b.outcomes, "{mode:?}");
            assert_eq!(a.results.len(), b.results.len(), "{mode:?}");
            for (x, y) in a.results.iter().zip(&b.results) {
                assert_eq!(x.client, y.client, "{mode:?}");
                assert_eq!(x.path, y.path, "{mode:?}");
            }
            // The headline guarantee, at report granularity: serialized
            // reports are byte-identical.
            assert_eq!(
                serde_json::to_string(&a.report).unwrap(),
                serde_json::to_string(&b.report).unwrap(),
                "{mode:?}"
            );
            // And the fleet-merged cumulative counters agree too.
            assert_eq!(seq.backend().stats(), par.backend().stats(), "{mode:?}");
        }
    }

    #[test]
    fn report_server_counters_are_per_batch_not_cumulative() {
        // Regression pin: shard counters accumulate across batches and are
        // never reset, so reports must carry per-batch deltas — under both
        // execution policies.
        for execution in [ExecutionPolicy::Sequential, ExecutionPolicy::WorkerPool { threads: 4 }] {
            let mut svc = sharded_service(execution, ObfuscationMode::Independent);
            // Protection size 1 = no fakes: both batches then carry
            // identical queries (fake selection would advance the RNG and
            // change the second batch's work), so equal per-batch deltas
            // are exactly what distinguishes per-batch from cumulative.
            let reqs: Vec<ClientRequest> =
                (0..6).map(|i| request(i, i * 11 % 256, (i * 29 + 128) % 256, 1)).collect();
            let first = svc.process_batch(&reqs).unwrap().report;
            let second = svc.process_batch(&reqs).unwrap().report;
            assert!(first.server_settled > 0 && first.server_trees_grown > 0);
            // Identical work in both batches: a cumulative reading would
            // make the second report roughly double the first.
            assert_eq!(second.server_settled, first.server_settled, "{execution:?}");
            assert_eq!(second.server_relaxed, first.server_relaxed, "{execution:?}");
            assert_eq!(second.server_trees_grown, first.server_trees_grown, "{execution:?}");
            // The per-batch deltas recompose exactly to the cumulative
            // fleet counters.
            let total = svc.backend().stats();
            assert_eq!(total.search.settled, first.server_settled + second.server_settled);
            assert_eq!(total.search.relaxed, first.server_relaxed + second.server_relaxed);
            assert_eq!(total.trees_grown, first.server_trees_grown + second.server_trees_grown);
        }
    }

    #[test]
    fn shared_mode_reduces_server_load_and_improves_breach() {
        // §III-C's central trade-off, pinned at the service layer
        // (ported from the removed OpaqueSystem shim tests): sharing
        // other clients' true endpoints as cover must cost the server no
        // more pairs, add strictly fewer fakes, and improve breach.
        let reqs: Vec<ClientRequest> =
            (0..6).map(|i| request(i, i * 17 % 256, (i * 31 + 128) % 256, 4)).collect();
        let indep = service().process_batch(&reqs).unwrap().report;
        let shared = shared_service().process_batch(&reqs).unwrap().report;
        assert!(shared.total_pairs <= indep.total_pairs);
        assert!(shared.fakes_added < indep.fakes_added);
        // Shared |S|,|T| ≥ 6 true endpoints each, so breach ≤ 1/36 < 1/16.
        assert!(shared.mean_breach() < indep.mean_breach());
    }

    #[test]
    fn per_mode_override_matches_configured_mode() {
        // The mode is fixed when the service is built; each batch runs
        // under it and its report says so.
        let reqs: Vec<ClientRequest> =
            (0..4).map(|i| request(i, i * 17 % 256, (i * 31 + 128) % 256, 3)).collect();
        let indep = service().process_batch(&reqs).unwrap().report;
        assert_eq!(indep.mode, ObfuscationMode::Independent);
        let shared = shared_service().process_batch(&reqs).unwrap().report;
        assert_eq!(shared.mode, ObfuscationMode::SharedGlobal);
        assert_eq!(shared.num_units, 1, "the shared batch forms one unit");
    }

    #[test]
    fn traffic_is_accounted_per_hop() {
        // All four Figure-5 hops carry bytes, and candidate downloads
        // dominate deliveries — the measurable §II overconsumption
        // (ported from the removed OpaqueSystem shim tests).
        let reqs = vec![request(0, 0, 255, 4), request(1, 16, 240, 4)];
        let report = shared_service().process_batch(&reqs).unwrap().report;
        let t = report.traffic;
        assert!(t.requests_bytes > 0);
        assert!(t.queries_bytes > 0);
        assert!(t.results_bytes > 0);
        assert!(t.candidates_bytes > t.results_bytes);
        assert!(report.redundancy_ratio() > 1.0);
    }

    #[test]
    fn weighted_fakes_survive_a_swap_to_a_smaller_map() {
        // Weights for the 16×16 map describe ids the 10×10 map does not
        // have: the swap drops them, and `Weighted` falls back to uniform
        // fakes on the new map instead of panicking on the next pick.
        let mut svc = ServiceBuilder::new()
            .map(map())
            .seed(11)
            .fake_selection(FakeSelection::Weighted)
            .weights((0..256u32).map(|i| 1.0 + f64::from(i % 5)).collect())
            .verify_results(true)
            .build()
            .unwrap();
        let small =
            grid_network(&GridConfig { width: 10, height: 10, seed: 2, ..Default::default() })
                .unwrap();
        svc.swap_map(small);
        assert!(svc.obfuscator.weights().is_none(), "stale weights survived the swap");

        let reqs = vec![request(0, 0, 99, 3), request(1, 12, 87, 3)];
        let resp = svc.process_batch(&reqs).unwrap();
        assert_eq!(
            resp.outcomes,
            reqs.iter().map(|r| (r.client, ClientOutcome::Delivered)).collect::<Vec<_>>()
        );
        assert_eq!(resp.report.fakes_added, 8);
        for &(client, breach) in &resp.report.per_client_breach {
            assert!((breach - 1.0 / 9.0).abs() < 1e-12, "{client:?} breach {breach}");
        }
        let unit = svc.obfuscator.obfuscate_independent(&reqs[0]).unwrap();
        assert!(unit.is_well_formed());
        let nodes = unit.query.sources().iter().chain(unit.query.targets());
        assert!(nodes.into_iter().all(|n| n.index() < 100), "{:?}", unit.query);
    }

    /// A dishonest server: every candidate path comes back reversed, so
    /// its endpoints no longer match the pair it answers and any window
    /// served through it fails with [`OpaqueError::CorruptResult`].
    struct Tampering(DirectionsServer<roadnet::RoadNetwork>);

    impl DirectionsBackend for Tampering {
        fn process(&mut self, query: &ObfuscatedPathQuery) -> pathsearch::MsmdResult {
            let mut answer = self.0.process(query);
            for path in answer.paths.iter_mut().flatten().flatten() {
                let nodes = path.nodes().iter().rev().copied().collect();
                *path = pathsearch::Path::new(nodes, path.distance());
            }
            answer
        }

        fn stats(&self) -> crate::server::ServerStats {
            self.0.stats()
        }
    }

    /// Any window served through [`Tampering`] fails; requests overdue by
    /// more than 2 s are shed instead.
    fn tampered_service() -> OpaqueService<Tampering> {
        queued(
            Tampering(DirectionsServer::new(map(), SharingPolicy::PerSource)),
            BatchPolicy::default(),
            AdmissionPolicy { queue_depth: 16, deadline: Some(2.0) },
        )
    }

    #[test]
    fn acks_survive_a_failed_batch() {
        // A batch-processing error discards the window's events, but the
        // cancellation/shedding acknowledgements taken for that event
        // list are unrelated to the failed batch: they must re-emit on
        // the next tick so every ticket still resolves exactly once.
        let mut svc = tampered_service();
        let cancelled = svc.submit(request(0, 0, 255, 2), 0.0).ticket().unwrap();
        let overdue = svc.submit(request(1, 16, 240, 2), 0.0).ticket().unwrap();
        assert!(svc.cancel(cancelled));
        // An expired straggler plus a request whose window the server
        // tampers with.
        let poison = svc.submit(request(2, 32, 200, 2), 4.0).ticket().unwrap();
        let err = svc.flush(5.0).unwrap_err();
        assert!(matches!(err, OpaqueError::CorruptResult { .. }));
        // The poison batch is gone; the acks were restored and re-emit,
        // and the poison window's own ticket resolves with them.
        let events = svc.flush(6.0).unwrap();
        assert_eq!(
            events.iter().filter_map(ServiceEvent::ticket).collect::<Vec<_>>(),
            vec![cancelled, overdue, poison],
            "{events:?}"
        );
        assert!(matches!(events[0], ServiceEvent::Cancelled { .. }));
        assert!(matches!(
            events[1],
            ServiceEvent::Rejected { reason: RejectReason::DeadlineExpired { .. }, .. }
        ));
        match &events[2] {
            ServiceEvent::Rejected {
                client,
                reason: RejectReason::Infeasible { reason },
                waited,
                ..
            } => {
                assert_eq!(*client, ClientId(2));
                assert_eq!(*reason, err.to_string(), "the window's error is the verdict");
                assert!((waited - 1.0).abs() < 1e-12, "queued at 4.0, failed at 5.0");
            }
            other => panic!("the failed window's ticket must be rejected, got {other:?}"),
        }
        assert_eq!(svc.pending(), 0);
        assert!(svc.flush(7.0).unwrap().is_empty(), "every ticket resolves exactly once");
    }

    #[test]
    fn a_failed_window_is_rejected_by_ticket_without_a_deadline() {
        // No deadline, so no shedding runs: the failed window's rejections
        // still come out by ticket, not in its drain order (interactive
        // lane first), after the cancellation.
        let mut svc = queued(
            Tampering(DirectionsServer::new(map(), SharingPolicy::PerSource)),
            BatchPolicy::default(),
            AdmissionPolicy { queue_depth: 16, deadline: None },
        );
        let cancelled = svc.submit(request(0, 0, 255, 2), 0.0).ticket().unwrap();
        let bulk = svc.submit_with_priority(request(1, 16, 240, 2), Priority::Bulk, 0.0);
        let interactive =
            svc.submit_with_priority(request(2, 32, 200, 2), Priority::Interactive, 1.0);
        let (bulk, interactive) = (bulk.ticket().unwrap(), interactive.ticket().unwrap());
        assert!(svc.cancel(cancelled));
        assert!(matches!(svc.flush(2.0), Err(OpaqueError::CorruptResult { .. })));
        let events = svc.flush(3.0).unwrap();
        assert_eq!(
            events.iter().filter_map(ServiceEvent::ticket).collect::<Vec<_>>(),
            vec![cancelled, bulk, interactive],
            "{events:?}"
        );
        assert!(matches!(events[0], ServiceEvent::Cancelled { .. }));
        assert!(events[1..].iter().all(|e| matches!(
            e,
            ServiceEvent::Rejected { reason: RejectReason::Infeasible { .. }, .. }
        )));
        assert_eq!(svc.pending(), 0);
        assert!(svc.flush(4.0).unwrap().is_empty(), "every ticket resolves exactly once");
    }

    #[test]
    fn acks_survive_two_consecutive_failed_batches() {
        // Restoration must be idempotent across repeated failures: if the
        // tick that re-emits the restored acks *itself* fails on a fresh
        // poison window, the acks must be restored again — and still emit
        // exactly once when a clean tick finally lands.
        let mut svc = tampered_service();
        let cancelled = svc.submit(request(0, 0, 255, 2), 0.0).ticket().unwrap();
        let overdue = svc.submit(request(1, 16, 240, 2), 0.0).ticket().unwrap();
        assert!(svc.cancel(cancelled));
        let poison_a = svc.submit(request(2, 32, 200, 2), 5.0).ticket().unwrap();
        let first = svc.flush(5.0).unwrap_err();
        assert!(matches!(first, OpaqueError::CorruptResult { .. }));
        // The re-emitting tick fails too: a second poison window drains
        // alongside the restored acks.
        let poison_b = svc.submit(request(3, 48, 180, 2), 6.0).ticket().unwrap();
        let second = svc.flush(6.0).unwrap_err();
        assert!(matches!(second, OpaqueError::CorruptResult { .. }));
        // Third time clean: the acks and both failed windows' tickets
        // emit once each, in order, no dupes.
        let events = svc.flush(7.0).unwrap();
        assert_eq!(
            events.iter().filter_map(ServiceEvent::ticket).collect::<Vec<_>>(),
            vec![cancelled, overdue, poison_a, poison_b],
            "{events:?}"
        );
        assert!(matches!(events[0], ServiceEvent::Cancelled { .. }));
        assert!(matches!(
            events[1],
            ServiceEvent::Rejected { reason: RejectReason::DeadlineExpired { .. }, .. }
        ));
        assert!(events[2..].iter().all(|e| matches!(
            e,
            ServiceEvent::Rejected { reason: RejectReason::Infeasible { .. }, .. }
        )));
        assert_eq!(svc.pending(), 0);
        assert!(svc.flush(8.0).unwrap().is_empty(), "acks must not emit a second time");
    }

    /// FNV-1a over the `serde_json` bytes of every event, in order.
    fn event_digest(events: &[ServiceEvent]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for event in events {
            for byte in serde_json::to_string(event).unwrap().bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Submit `r` and record its ticket in `issued`.
    fn ticketed<B: DirectionsBackend>(
        svc: &mut OpaqueService<B>,
        issued: &mut Vec<Ticket>,
        r: ClientRequest,
        lane: Priority,
        now: f64,
    ) -> Ticket {
        let ticket = svc.submit_with_priority(r, lane, now).ticket().expect("ticketed");
        issued.push(ticket);
        ticket
    }

    #[test]
    fn gateway_event_stream_is_pinned() {
        // One scripted session through both gateway passes, pinned by
        // digest: lanes, deferral, cancellation of a lane and a deferred
        // entry, a deadline shed cascading through a promoted duplicate,
        // two consecutive failed windows and the recovery that emits their
        // acknowledgements, and shutdown drains to an empty queue.
        let (i, b) = (Priority::Interactive, Priority::Bulk);
        let (mut events, mut issued) = (Vec::new(), Vec::new());

        let mut svc = queued(
            DirectionsServer::new(map(), SharingPolicy::PerSource),
            BatchPolicy { max_batch: 4, max_delay: 2.0 },
            AdmissionPolicy { queue_depth: 16, deadline: Some(3.0) },
        );
        let t = &mut issued;
        ticketed(&mut svc, t, request(0, 0, 255, 2), i, 0.0);
        let lane = ticketed(&mut svc, t, request(1, 16, 240, 2), b, 0.0);
        ticketed(&mut svc, t, request(0, 5, 250, 2), b, 0.1); // deferred
        ticketed(&mut svc, t, request(2, 32, 200, 2), i, 0.2);
        let deferred = ticketed(&mut svc, t, request(2, 40, 190, 2), i, 0.3);
        ticketed(&mut svc, t, request(5, 60, 180, 3), b, 0.2);
        assert!(svc.cancel(deferred) && svc.cancel(lane));
        events.extend(svc.tick(0.5).unwrap()); // acknowledgements only
        events.extend(svc.tick(2.0).unwrap()); // deadline window, both lanes
        ticketed(&mut svc, t, request(3, 70, 170, 2), i, 2.0);
        ticketed(&mut svc, t, request(3, 75, 160, 2), b, 2.1); // deferred
        ticketed(&mut svc, t, request(4, 80, 150, 2), b, 5.5);
        ticketed(&mut svc, t, request(4, 85, 140, 2), i, 5.6); // deferred
        // Client 0's promoted duplicate and client 3's lane entry are
        // overdue; shedding the latter promotes its overdue duplicate.
        events.extend(svc.tick(6.0).unwrap());
        let mut now = 6.5;
        while svc.pending() > 0 {
            events.extend(svc.flush(now).unwrap());
            now += 0.25;
        }

        let mut svc = tampered_service();
        let cancelled = ticketed(&mut svc, t, request(0, 0, 255, 2), i, 0.0);
        ticketed(&mut svc, t, request(1, 16, 240, 2), i, 0.0); // overdue at 5.0
        ticketed(&mut svc, t, request(2, 32, 200, 2), b, 4.0);
        assert!(svc.cancel(cancelled));
        assert!(svc.flush(5.0).is_err());
        // The second failed window drains out of ticket order.
        ticketed(&mut svc, t, request(6, 60, 180, 2), b, 5.5);
        ticketed(&mut svc, t, request(3, 48, 180, 2), i, 6.0);
        ticketed(&mut svc, t, request(3, 9999, 255, 2), b, 6.0); // deferred, unknown node
        assert!(svc.flush(6.0).is_err());
        // Recovery: a window of one admission-rejected request needs no
        // backend answer, so it succeeds and emits every parked ticket.
        let mut now = 7.0;
        while svc.pending() > 0 {
            events.extend(svc.flush(now).unwrap());
            now += 0.25;
        }
        events.extend(svc.flush(now).unwrap());

        let mut resolved = event_tickets(&events);
        resolved.sort_by_key(|t| t.0);
        issued.sort_by_key(|t| t.0);
        assert_eq!(resolved, issued, "every ticket resolves exactly once");
        assert_eq!(events.len(), 20, "{events:?}");
        assert_eq!(event_digest(&events), 0xede1_aeff_6e0f_2b44);
    }
}

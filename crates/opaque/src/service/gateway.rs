//! The gateway vocabulary: typed admission, per-client delivery events.
//!
//! The paper's deployment (§IV, Figures 5–6) is a four-hop message loop —
//! client → obfuscator → server → obfuscator → one [`ResultMsg`] back to
//! *each* client. The service's front door models that last hop
//! explicitly: instead of answering a whole batch with one monolithic
//! report, [`crate::OpaqueService::tick`] / [`crate::OpaqueService::flush`]
//! emit an ordered stream of [`ServiceEvent`]s — one per-client terminal
//! event per request, then a trailing [`ServiceEvent::BatchFlushed`]
//! carrying the batch's [`BatchReport`] (which remains the repository's
//! byte-level determinism oracle).
//!
//! Admission is typed too: [`crate::OpaqueService::submit`] returns a
//! [`SubmitOutcome`] — accepted with a ticket, deferred to the next batch
//! window (duplicate [`ClientId`]s no longer fail the submit), or refused
//! outright with a [`RejectReason`] — under a builder-configured
//! [`AdmissionPolicy`]: a bounded queue depth (backpressure), an optional
//! per-request deadline (requests that wait too long are shed, not
//! served stale), and two [`Priority`] lanes with interactive draining
//! first. The crate-private queue behind them holds every owed
//! acknowledgement until a window succeeds.
//!
//! [`ResultMsg`]: crate::protocol::ResultMsg
//! [`ClientId`]: crate::query::ClientId

use crate::error::{OpaqueError, Result};
use crate::protocol::ResultMsg;
use crate::query::ClientId;
use crate::service::batcher::Ticket;
use crate::service::report::BatchReport;
use std::fmt;

/// Which admission lane a request rides in.
///
/// The gateway drains the interactive lane first when a batch forms, so
/// under overload bulk requests absorb the queueing delay (and the
/// deadline shedding) while interactive requests keep their latency —
/// experiment `e16` measures exactly this separation.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Priority {
    /// Latency-sensitive traffic; drained before any bulk request.
    #[default]
    Interactive,
    /// Throughput traffic; waits behind the interactive lane.
    Bulk,
}

impl Priority {
    /// Stable lowercase name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Bulk => "bulk",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Admission-control knobs of the gateway, configured on
/// [`crate::ServiceConfig`] / [`crate::ServiceBuilder::admission_policy`].
///
/// Orthogonal to [`crate::BatchPolicy`]: the batch policy decides *when a
/// pending window flushes*; the admission policy decides *which requests
/// are allowed to wait for one* — how many may queue at once, and how
/// long any of them may wait before being shed.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdmissionPolicy {
    /// Maximum requests queued at once, across both lanes and the
    /// deferred set. Submissions beyond this depth are refused with
    /// [`RejectReason::QueueFull`] — backpressure, not silent buffering.
    pub queue_depth: usize,
    /// Per-request deadline in queue seconds. A request that has waited
    /// longer than this when the gateway next ticks is shed with a
    /// [`ServiceEvent::Rejected`] ([`RejectReason::DeadlineExpired`])
    /// instead of being served stale. `None` disables shedding.
    pub deadline: Option<f64>,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy { queue_depth: 1024, deadline: None }
    }
}

impl AdmissionPolicy {
    /// Check the policy is satisfiable.
    pub fn validate(&self) -> Result<()> {
        if self.queue_depth == 0 {
            return Err(OpaqueError::InvalidConfig {
                reason: "admission policy: queue_depth must be >= 1".to_string(),
            });
        }
        if let Some(d) = self.deadline {
            if !d.is_finite() || d <= 0.0 {
                return Err(OpaqueError::InvalidConfig {
                    reason: format!("admission policy: deadline must be finite and > 0, got {d}"),
                });
            }
        }
        Ok(())
    }
}

/// Why the gateway refused (or shed) a request.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum RejectReason {
    /// The admission queue is at [`AdmissionPolicy::queue_depth`]; the
    /// request was refused at the door and never ticketed.
    QueueFull {
        /// The configured depth the queue was at.
        depth: usize,
    },
    /// A zero protection size — malformed before any map is consulted.
    InvalidProtection {
        /// Requested source-set size.
        f_s: u32,
        /// Requested target-set size.
        f_t: u32,
    },
    /// The request waited past [`AdmissionPolicy::deadline`] and was shed
    /// from the queue instead of being served stale.
    DeadlineExpired {
        /// Seconds the request had waited when it was shed.
        waited: f64,
    },
    /// The pipeline could not serve the request (validation or
    /// obfuscation infeasibility) — the event form of
    /// [`crate::ClientOutcome::Rejected`], carrying the same message —
    /// or the request's whole window failed, and the message is the
    /// batch-fatal error.
    Infeasible {
        /// The rejecting error's message.
        reason: String,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { depth } => {
                write!(f, "admission queue full ({depth} requests queued)")
            }
            RejectReason::InvalidProtection { f_s, f_t } => {
                write!(f, "invalid protection settings (f_S={f_s}, f_T={f_t}); both must be >= 1")
            }
            RejectReason::DeadlineExpired { waited } => {
                write!(f, "request deadline expired after waiting {waited:.3}s")
            }
            RejectReason::Infeasible { reason } => f.write_str(reason),
        }
    }
}

/// What [`crate::OpaqueService::submit`] decided about one request.
///
/// Submission is total — it never returns an `Err` — because every
/// admission verdict is a legitimate, typed answer the caller must
/// handle, not an exceptional condition.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[must_use = "the gateway may have refused or deferred the request"]
pub enum SubmitOutcome {
    /// Queued in its lane for the current batch window.
    Accepted(Ticket),
    /// The client already has a request in the current window; this one
    /// is held back and joins the *next* window once the blocking request
    /// drains (duplicate [`ClientId`]s no longer fail the submit).
    ///
    /// [`ClientId`]: crate::query::ClientId
    Deferred(Ticket),
    /// Refused at the door; no ticket was issued and no event will
    /// follow.
    Rejected(RejectReason),
}

impl SubmitOutcome {
    /// The issued ticket, when one was (accepted or deferred).
    pub fn ticket(&self) -> Option<Ticket> {
        match self {
            SubmitOutcome::Accepted(t) | SubmitOutcome::Deferred(t) => Some(*t),
            SubmitOutcome::Rejected(_) => None,
        }
    }

    /// True for [`SubmitOutcome::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, SubmitOutcome::Accepted(_))
    }
}

/// One event of the gateway's ordered output stream.
///
/// [`crate::OpaqueService::tick`] / [`crate::OpaqueService::flush`] emit:
/// pending [`ServiceEvent::Cancelled`] acknowledgements first, in
/// cancellation order, then the owed [`ServiceEvent::Rejected`] events
/// by ticket, then — when a batch flushed — one terminal event per
/// request of the batch *in batch request order* (interactive lane
/// before bulk), closed by a trailing
/// [`ServiceEvent::BatchFlushed`]. Every ticketed request resolves to
/// exactly one terminal event — `ResponseReady`, `Unreachable`,
/// `Rejected`, or `Cancelled` — even through a *batch-fatal* processing
/// error (result verification caught tampering): the failing tick
/// returns the error and discards the drained window, whose tickets are
/// owed one `Rejected` each ([`RejectReason::Infeasible`] carrying the
/// error text), among the sheddings by ticket. Owed events stay
/// queued until a window succeeds, so failed windows consume no ticket.
///
/// Batch-fatal errors are distinct from **connection-level** failures,
/// which the gateway never sees: when a transport endpoint vanishes
/// after submitting (a closed socket, a departed subscriber), the batch
/// still runs and the terminal event is still emitted in order — it is
/// the transport layer's job to drop and count the undeliverable reply
/// (the `opaque-net` server's `dropped_replies` stat), never to fail
/// the batch or re-route the event. One dead consumer therefore cannot
/// poison a window shared with healthy ones.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ServiceEvent {
    /// The paper's hop 4: the one [`ResultMsg`] delivered back to this
    /// client over the secure channel.
    ResponseReady {
        /// The submit ticket this answers.
        ticket: Ticket,
        /// The client the result is delivered to.
        client: ClientId,
        /// The delivered message — the same bytes
        /// [`crate::HopTraffic::results_bytes`] accounts.
        result: ResultMsg,
        /// Seconds the request waited in the admission queue.
        waited: f64,
    },
    /// The request was embedded and queried, but its true pair is
    /// disconnected on the backend's map (the event form of
    /// [`crate::ClientOutcome::Unreachable`]).
    Unreachable {
        /// The submit ticket this answers.
        ticket: Ticket,
        /// The requesting client.
        client: ClientId,
        /// Seconds the request waited in the admission queue.
        waited: f64,
    },
    /// The request was shed or could not be served; see the reason.
    Rejected {
        /// The submit ticket this answers.
        ticket: Ticket,
        /// The requesting client.
        client: ClientId,
        /// Why it was rejected.
        reason: RejectReason,
        /// Seconds the request waited in the admission queue.
        waited: f64,
    },
    /// Acknowledges a [`crate::OpaqueService::cancel`]: the request left
    /// the queue before any flush and was never processed.
    Cancelled {
        /// The cancelled ticket.
        ticket: Ticket,
        /// The client whose request was cancelled.
        client: ClientId,
    },
    /// A batch window closed: the aggregate [`BatchReport`] for the
    /// per-request events emitted just before this. Byte-identical to the
    /// report the legacy [`crate::OpaqueService::process_batch`] path
    /// produces for the same requests — the determinism oracle
    /// (`tests/gateway_equivalence.rs`).
    BatchFlushed(BatchReport),
}

impl ServiceEvent {
    /// The ticket a per-request event answers (`None` for
    /// [`ServiceEvent::BatchFlushed`]).
    pub fn ticket(&self) -> Option<Ticket> {
        match self {
            ServiceEvent::ResponseReady { ticket, .. }
            | ServiceEvent::Unreachable { ticket, .. }
            | ServiceEvent::Rejected { ticket, .. }
            | ServiceEvent::Cancelled { ticket, .. } => Some(*ticket),
            ServiceEvent::BatchFlushed(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_policy_validation() {
        assert!(AdmissionPolicy::default().validate().is_ok());
        assert!(AdmissionPolicy { queue_depth: 0, deadline: None }.validate().is_err());
        assert!(
            AdmissionPolicy { queue_depth: 1, deadline: Some(0.0) }.validate().is_err(),
            "zero deadline would shed every request instantly"
        );
        assert!(AdmissionPolicy { queue_depth: 1, deadline: Some(f64::NAN) }.validate().is_err());
        assert!(AdmissionPolicy { queue_depth: 1, deadline: Some(2.5) }.validate().is_ok());
    }

    #[test]
    fn admission_policy_round_trips_through_serde() {
        for policy in
            [AdmissionPolicy::default(), AdmissionPolicy { queue_depth: 7, deadline: Some(1.25) }]
        {
            let json = serde_json::to_string(&policy).unwrap();
            let back: AdmissionPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, policy, "{json}");
        }
    }

    #[test]
    fn priorities_and_outcomes_round_trip() {
        for p in [Priority::Interactive, Priority::Bulk] {
            let json = serde_json::to_string(&p).unwrap();
            let back: Priority = serde_json::from_str(&json).unwrap();
            assert_eq!(back, p);
        }
        let outcome = SubmitOutcome::Rejected(RejectReason::QueueFull { depth: 4 });
        let back: SubmitOutcome =
            serde_json::from_str(&serde_json::to_string(&outcome).unwrap()).unwrap();
        assert_eq!(back, outcome);
        assert_eq!(outcome.ticket(), None);
        assert!(!outcome.is_accepted());
        assert_eq!(SubmitOutcome::Accepted(Ticket(3)).ticket(), Some(Ticket(3)));
        assert_eq!(SubmitOutcome::Deferred(Ticket(9)).ticket(), Some(Ticket(9)));
    }

    #[test]
    fn reject_reasons_render_their_parameters() {
        let r = RejectReason::QueueFull { depth: 16 };
        assert!(r.to_string().contains("16"));
        let r = RejectReason::DeadlineExpired { waited: 3.5 };
        assert!(r.to_string().contains("3.500"));
        let r = RejectReason::Infeasible { reason: "node 9 is not on the map".to_string() };
        assert_eq!(r.to_string(), "node 9 is not on the map");
    }

    #[test]
    fn events_expose_their_tickets() {
        let ev = ServiceEvent::Cancelled { ticket: Ticket(5), client: ClientId(1) };
        assert_eq!(ev.ticket(), Some(Ticket(5)));
        assert_eq!(ServiceEvent::BatchFlushed(BatchReport::default()).ticket(), None);
        // Events serialize (the stream is loggable / replayable).
        let json = serde_json::to_string(&ev).unwrap();
        let back: ServiceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
    }
}

//! Request admission and batching: the gateway's queue.
//!
//! The paper's obfuscator operates on batches ("partitions the received
//! queries", §IV), but a live deployment receives a *stream*: requests must
//! be collected for some window before shared obfuscation can help. The
//! crate-private `Batcher` is that admission path, and it is where the
//! gateway's admission control lives:
//!
//! * **lanes** — each request is submitted with a [`Priority`]; when a
//!   batch forms, the interactive lane drains before the bulk lane
//!   (oldest first within a lane);
//! * **backpressure** — at most [`AdmissionPolicy::queue_depth`] requests
//!   may queue at once; beyond that a submit is answered
//!   [`SubmitOutcome::Rejected`] with [`RejectReason::QueueFull`];
//! * **deferral** — a client with a request already pending gets
//!   [`SubmitOutcome::Deferred`]: the duplicate is parked and joins the
//!   *next* window once the blocking request drains, instead of failing
//!   the submit (the historical `DuplicateClient` error survives only on
//!   the direct [`crate::OpaqueService::process_batch`] path, where there
//!   is no next window to defer to);
//! * **shedding** — with an [`AdmissionPolicy::deadline`] configured,
//!   requests that have waited longer are dropped from the queue rather
//!   than served stale;
//! * **cancellation** — a queued request can be removed by ticket before
//!   it is ever obfuscated.
//!
//! The batcher keeps the gateway's only books of what it owes: every
//! cancellation and shedding waits in one of its two ledgers as the
//! [`ServiceEvent`] that acknowledges it, and the ledgers empty into the
//! event list of the next tick whose window succeeds. A window that fails
//! owes its own requests a [`RejectReason::Infeasible`] each, added to the
//! shedding ledger, so every ticket still resolves exactly once.
//!
//! The pending window drains when either [`BatchPolicy`] trigger fires:
//! **size** (the lanes reached [`BatchPolicy::max_batch`]) or **deadline**
//! (the oldest lane request has waited [`BatchPolicy::max_delay`]
//! seconds). Time is explicit (seconds as `f64`, matching `workload`'s
//! arrival clocks): callers pass `now` into every submit and tick, which
//! keeps the batcher deterministic and testable — and lets experiments
//! replay recorded streams exactly.

use crate::error::{OpaqueError, Result};
use crate::query::{ClientId, ClientRequest};
use crate::service::gateway::{
    AdmissionPolicy, Priority, RejectReason, ServiceEvent, SubmitOutcome,
};
use std::collections::{HashSet, VecDeque};

/// When a pending batch is flushed.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchPolicy {
    /// Flush as soon as this many requests are pending in the lanes.
    pub max_batch: usize,
    /// Flush once the oldest pending request has waited this many seconds.
    pub max_delay: f64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 32, max_delay: 5.0 }
    }
}

impl BatchPolicy {
    /// Check the policy is satisfiable.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(OpaqueError::InvalidConfig {
                reason: "batch policy: max_batch must be >= 1".to_string(),
            });
        }
        if !self.max_delay.is_finite() || self.max_delay < 0.0 {
            return Err(OpaqueError::InvalidConfig {
                reason: format!(
                    "batch policy: max_delay must be finite and >= 0, got {}",
                    self.max_delay
                ),
            });
        }
        Ok(())
    }
}

/// Receipt for a submitted request; stable for the life of the batcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Ticket(pub u64);

/// One queued request with its admission metadata. A drained window is
/// a list of these in drain order (interactive lane first, oldest first
/// within a lane).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pending {
    pub(crate) ticket: Ticket,
    pub(crate) request: ClientRequest,
    /// Submission clock, for `waited`.
    pub(crate) arrival: f64,
    priority: Priority,
}

impl Pending {
    /// The rejection this request is owed after waiting until `now`.
    fn rejected(&self, reason: RejectReason, now: f64) -> ServiceEvent {
        let (ticket, client, waited) = (self.ticket, self.request.client, now - self.arrival);
        ServiceEvent::Rejected { ticket, client, reason, waited }
    }
}

/// The request queue in front of the obfuscator: two priority lanes, a
/// deferred set for duplicate clients, and the two acknowledgement
/// ledgers.
pub(crate) struct Batcher {
    policy: BatchPolicy,
    admission: AdmissionPolicy,
    interactive: VecDeque<Pending>,
    bulk: VecDeque<Pending>,
    /// Requests whose client already had one pending; each joins the
    /// window *after* its blocking request drains. Invariant: every
    /// deferred client also appears in `pending_clients` (a lane entry or
    /// an earlier deferred duplicate blocks it), restored by
    /// `promote_deferred` after every removal.
    deferred: Vec<Pending>,
    pending_clients: HashSet<ClientId>,
    /// `Cancelled` acknowledgements owed, in cancellation order.
    cancelled: Vec<ServiceEvent>,
    /// `Rejected` events owed: deadline sheddings, and the requests of
    /// failed windows.
    shed: Vec<ServiceEvent>,
    next_ticket: u64,
}

impl Batcher {
    /// A batcher with the given flush and admission policies.
    ///
    /// # Errors
    /// [`OpaqueError::InvalidConfig`] when either policy is unsatisfiable.
    pub(crate) fn new(policy: BatchPolicy, admission: AdmissionPolicy) -> Result<Self> {
        policy.validate()?;
        admission.validate()?;
        Ok(Batcher {
            policy,
            admission,
            // max_batch/queue_depth may be huge; don't pre-reserve past a
            // sane floor.
            interactive: VecDeque::with_capacity(policy.max_batch.min(1024)),
            bulk: VecDeque::new(),
            deferred: Vec::new(),
            pending_clients: HashSet::new(),
            cancelled: Vec::new(),
            shed: Vec::new(),
            next_ticket: 0,
        })
    }

    /// Number of requests queued (both lanes plus the deferred set).
    pub(crate) fn len(&self) -> usize {
        self.lane_len() + self.deferred.len()
    }

    /// Requests drainable into the *current* window (lanes only — the
    /// deferred set waits for the next one).
    fn lane_len(&self) -> usize {
        self.interactive.len() + self.bulk.len()
    }

    /// Admit one request at clock `now` in the given lane.
    ///
    /// Never fails: malformed protections and a full queue are answered
    /// as [`SubmitOutcome::Rejected`] (no ticket issued), and a duplicate
    /// client is answered as [`SubmitOutcome::Deferred`] (ticketed; joins
    /// the next window).
    pub(crate) fn submit(
        &mut self,
        request: ClientRequest,
        priority: Priority,
        now: f64,
    ) -> SubmitOutcome {
        if request.protection.f_s == 0 || request.protection.f_t == 0 {
            return SubmitOutcome::Rejected(RejectReason::InvalidProtection {
                f_s: request.protection.f_s,
                f_t: request.protection.f_t,
            });
        }
        if self.len() >= self.admission.queue_depth {
            return SubmitOutcome::Rejected(RejectReason::QueueFull {
                depth: self.admission.queue_depth,
            });
        }
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let pending = Pending { ticket, request, arrival: now, priority };
        if self.pending_clients.insert(request.client) {
            self.lane_mut(priority).push_back(pending);
            SubmitOutcome::Accepted(ticket)
        } else {
            self.deferred.push(pending);
            SubmitOutcome::Deferred(ticket)
        }
    }

    fn lane_mut(&mut self, priority: Priority) -> &mut VecDeque<Pending> {
        match priority {
            Priority::Interactive => &mut self.interactive,
            Priority::Bulk => &mut self.bulk,
        }
    }

    /// Remove a queued request by ticket before it is processed, and owe
    /// it a [`ServiceEvent::Cancelled`]. Returns the owning client when
    /// the ticket was still queued, `None` when it was unknown or already
    /// drained.
    pub(crate) fn cancel(&mut self, ticket: Ticket) -> Option<ClientId> {
        let in_lane = [&mut self.interactive, &mut self.bulk].into_iter().find_map(|lane| {
            lane.iter().position(|p| p.ticket == ticket).and_then(|pos| lane.remove(pos))
        });
        let client = match in_lane {
            Some(p) => {
                self.pending_clients.remove(&p.request.client);
                // A deferred duplicate of this client may now enter the
                // current window.
                self.promote_deferred();
                p.request.client
            }
            None => {
                let pos = self.deferred.iter().position(|p| p.ticket == ticket)?;
                self.deferred.remove(pos).request.client
            }
        };
        self.cancelled.push(ServiceEvent::Cancelled { ticket, client });
        Some(client)
    }

    /// Shed every queued request that has waited past
    /// [`AdmissionPolicy::deadline`] at clock `now`, in both lanes and
    /// the deferred set, into the shedding ledger. A no-op when no
    /// deadline is configured.
    pub(crate) fn expire(&mut self, now: f64) {
        let Some(deadline) = self.admission.deadline else {
            return;
        };
        let overdue = |p: &Pending, shed: &mut Vec<ServiceEvent>| {
            let waited = now - p.arrival;
            let late = waited > deadline;
            if late {
                shed.push(p.rejected(RejectReason::DeadlineExpired { waited }, now));
            }
            late
        };
        // Shedding a lane entry can promote a deferred duplicate which
        // may itself already be overdue, so iterate to a fixpoint (each
        // pass strictly shrinks the queue or stops).
        loop {
            let before = self.shed.len();
            for lane in [&mut self.interactive, &mut self.bulk] {
                lane.retain(|p| {
                    let shed = overdue(p, &mut self.shed);
                    if shed {
                        self.pending_clients.remove(&p.request.client);
                    }
                    !shed
                });
            }
            self.deferred.retain(|p| !overdue(p, &mut self.shed));
            self.promote_deferred();
            if self.shed.len() == before {
                break;
            }
        }
    }

    /// Owe every request of a window whose processing failed a
    /// rejection carrying `reason`, in the shedding ledger.
    pub(crate) fn reject_window(&mut self, window: &[Pending], reason: &RejectReason, now: f64) {
        self.shed.extend(window.iter().map(|p| p.rejected(reason.clone(), now)));
    }

    /// Empty both ledgers into a new event list — cancellations in
    /// cancellation order, then sheddings by ticket — with room for `more`
    /// events after them. Called only once a tick's window has succeeded.
    pub(crate) fn take_acks(&mut self, more: usize) -> Vec<ServiceEvent> {
        let mut events = Vec::with_capacity(self.cancelled.len() + self.shed.len() + more);
        self.shed.sort_by_key(|e| e.ticket().map(|t| t.0));
        events.append(&mut self.cancelled);
        events.append(&mut self.shed);
        events
    }

    /// Move deferred requests whose client no longer has a pending lane
    /// entry into their lanes (in deferral order; later duplicates of the
    /// same client stay deferred behind the promoted one).
    fn promote_deferred(&mut self) {
        let (interactive, bulk) = (&mut self.interactive, &mut self.bulk);
        let clients = &mut self.pending_clients;
        self.deferred.retain(|&p| {
            if !clients.insert(p.request.client) {
                return true;
            }
            match p.priority {
                Priority::Interactive => interactive.push_back(p),
                Priority::Bulk => bulk.push_back(p),
            }
            false
        });
    }

    /// Clock at which the *deadline* trigger fires for the current
    /// pending set (oldest lane arrival + `max_delay`, the oldest found
    /// when asked); `None` when the lanes are empty. Deferred requests do
    /// not key it — they cannot join the current window anyway. Lets
    /// drivers advance a simulated clock straight to the next deadline
    /// instant instead of shadow-tracking arrivals.
    ///
    /// This reports the deadline trigger only: the *size* trigger needs no
    /// clock and fires on [`Batcher::tick`] at any `now`, so drivers
    /// should tick right after a submission fills the batch rather than
    /// jumping ahead to this deadline.
    pub(crate) fn next_deadline(&self) -> Option<f64> {
        if self.lane_len() == 0 {
            return None;
        }
        // Min over lane arrivals, not insertion order: callers replaying
        // merged or unsorted recorded streams may submit with
        // non-monotonic clocks.
        let lanes = self.interactive.iter().chain(&self.bulk);
        let oldest = lanes.map(|p| p.arrival).fold(f64::INFINITY, f64::min);
        Some(oldest + self.policy.max_delay)
    }

    /// Whether a flush trigger has fired at clock `now`. The deadline is
    /// compared as `now >= next_deadline()`, so `tick(next_deadline())`
    /// fires by construction, with no rounding gap between the reported
    /// and effective trigger instant.
    fn ready(&self, now: f64) -> bool {
        self.lane_len() >= self.policy.max_batch || self.next_deadline().is_some_and(|d| now >= d)
    }

    /// Drain a batch if a trigger has fired at clock `now`. At most
    /// [`BatchPolicy::max_batch`] requests are taken — the whole
    /// interactive lane first (oldest first), then bulk — so a backlog
    /// that grew past the cap between ticks drains in policy-sized
    /// chunks — `ready` stays true until the backlog is gone.
    pub(crate) fn tick(&mut self, now: f64) -> Option<Vec<Pending>> {
        if self.ready(now) { self.drain(self.policy.max_batch) } else { None }
    }

    /// Drain everything in the lanes unconditionally, ignoring the size
    /// cap (e.g. at shutdown); `None` when the lanes are empty. Deferred
    /// requests are promoted *after* the drain (they join the next
    /// window — they cannot share a batch with their duplicate), so a
    /// full shutdown drain is a loop: flush until [`Batcher::len`] is 0.
    pub(crate) fn flush(&mut self) -> Option<Vec<Pending>> {
        self.drain(usize::MAX)
    }

    fn drain(&mut self, limit: usize) -> Option<Vec<Pending>> {
        let take = self.lane_len().min(limit);
        if take == 0 {
            return None;
        }
        let from_interactive = self.interactive.len().min(take);
        let window: Vec<Pending> = self
            .interactive
            .drain(..from_interactive)
            .chain(self.bulk.drain(..take - from_interactive))
            .collect();
        for p in &window {
            self.pending_clients.remove(&p.request.client);
        }
        // Drained clients unblock their deferred duplicates: those join
        // the (new) current window.
        self.promote_deferred();
        Some(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{PathQuery, ProtectionSettings};
    use roadnet::NodeId;

    fn batcher(policy: BatchPolicy) -> Batcher {
        Batcher::new(policy, AdmissionPolicy::default()).unwrap()
    }

    fn request(i: u32) -> ClientRequest {
        ClientRequest::new(
            ClientId(i),
            PathQuery::new(NodeId(i), NodeId(i + 100)),
            ProtectionSettings::new(2, 2).unwrap(),
        )
    }

    fn tickets(window: &[Pending]) -> Vec<Ticket> {
        window.iter().map(|p| p.ticket).collect()
    }

    /// Run `expire` and return the sheddings it owed, as
    /// `(ticket, client, waited)`.
    fn expire(b: &mut Batcher, now: f64) -> Vec<(Ticket, ClientId, f64)> {
        b.expire(now);
        b.take_acks(0)
            .into_iter()
            .filter_map(|e| match e {
                ServiceEvent::Rejected { ticket, client, waited, .. } => {
                    Some((ticket, client, waited))
                }
                _ => None,
            })
            .collect()
    }

    fn accept(b: &mut Batcher, r: ClientRequest, now: f64) -> Ticket {
        match b.submit(r, Priority::Interactive, now) {
            SubmitOutcome::Accepted(t) => t,
            other => panic!("expected acceptance, got {other:?}"),
        }
    }

    #[test]
    fn size_trigger_flushes_at_max_batch() {
        let mut b = batcher(BatchPolicy { max_batch: 3, max_delay: 100.0 });
        accept(&mut b, request(0), 0.0);
        accept(&mut b, request(1), 0.1);
        assert!(b.tick(0.2).is_none(), "2 of 3: not ready");
        accept(&mut b, request(2), 0.2);
        let batch = b.tick(0.2).expect("size trigger");
        assert_eq!(batch.len(), 3);
        assert_eq!(tickets(&batch), vec![Ticket(0), Ticket(1), Ticket(2)]);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn deadline_trigger_flushes_after_max_delay() {
        let mut b = batcher(BatchPolicy { max_batch: 100, max_delay: 5.0 });
        accept(&mut b, request(0), 10.0);
        accept(&mut b, request(1), 12.0);
        assert!(b.tick(14.9).is_none(), "oldest waited 4.9s < 5s");
        let batch = b.tick(15.0).expect("deadline trigger");
        assert_eq!(batch.len(), 2);
        let arrivals: Vec<f64> = batch.iter().map(|p| p.arrival).collect();
        assert_eq!(arrivals, vec![10.0, 12.0], "waits 5s and 3s");
    }

    #[test]
    fn duplicate_client_is_deferred_not_rejected() {
        // Regression pin for the gateway redesign: a duplicate client id
        // is deferred to the next window — the submit path can no longer
        // produce OpaqueError::DuplicateClient (the error survives only
        // on the direct process_batch path).
        let mut b = batcher(BatchPolicy::default());
        let first = accept(&mut b, request(7), 0.0);
        let second = match b.submit(request(7), Priority::Interactive, 0.1) {
            SubmitOutcome::Deferred(t) => t,
            other => panic!("duplicate must defer, got {other:?}"),
        };
        assert_ne!(first, second);
        assert_eq!(b.len(), 2, "both queued: one pending, one deferred");

        // The first window carries only the first request…
        let batch = b.flush().expect("one drainable request");
        assert_eq!(tickets(&batch), vec![first]);
        // …and the deferred duplicate was promoted into the next one.
        let batch = b.flush().expect("promoted deferred request");
        assert_eq!(tickets(&batch), vec![second]);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn deferred_duplicates_chain_one_window_each() {
        // Three submissions from one client: windows must carry them one
        // at a time, in submission order.
        let mut b = batcher(BatchPolicy::default());
        let t0 = accept(&mut b, request(3), 0.0);
        let t1 = b.submit(request(3), Priority::Interactive, 0.1).ticket().unwrap();
        let t2 = b.submit(request(3), Priority::Bulk, 0.2).ticket().unwrap();
        for expected in [t0, t1, t2] {
            let batch = b.flush().expect("one request per window");
            assert_eq!(tickets(&batch), vec![expected]);
        }
        assert!(b.flush().is_none());
    }

    #[test]
    fn interactive_lane_drains_before_bulk() {
        let mut b = batcher(BatchPolicy { max_batch: 3, max_delay: 100.0 });
        assert!(b.submit(request(0), Priority::Bulk, 0.0).is_accepted());
        assert!(b.submit(request(1), Priority::Bulk, 0.1).is_accepted());
        assert!(b.submit(request(2), Priority::Interactive, 0.2).is_accepted());
        let batch = b.tick(0.2).expect("size trigger");
        // Interactive first despite arriving last; bulk keeps FIFO order.
        assert_eq!(tickets(&batch), vec![Ticket(2), Ticket(0), Ticket(1)]);
        // The size cap still limits mixed drains: 1 interactive + 1 bulk.
        let mut b = batcher(BatchPolicy { max_batch: 2, max_delay: 100.0 });
        assert!(b.submit(request(3), Priority::Bulk, 1.0).is_accepted());
        assert!(b.submit(request(4), Priority::Bulk, 1.1).is_accepted());
        assert!(b.submit(request(5), Priority::Interactive, 1.2).is_accepted());
        let batch = b.tick(1.2).expect("size trigger");
        assert_eq!(tickets(&batch), vec![Ticket(2), Ticket(0)]);
    }

    #[test]
    fn queue_depth_bounds_admission() {
        let mut b = Batcher::new(
            BatchPolicy { max_batch: 100, max_delay: 100.0 },
            AdmissionPolicy { queue_depth: 2, deadline: None },
        )
        .unwrap();
        accept(&mut b, request(0), 0.0);
        accept(&mut b, request(1), 0.1);
        match b.submit(request(2), Priority::Interactive, 0.2) {
            SubmitOutcome::Rejected(RejectReason::QueueFull { depth: 2 }) => {}
            other => panic!("expected queue-full rejection, got {other:?}"),
        }
        // Refusals issue no ticket: the next acceptance continues the
        // sequence.
        b.flush().unwrap();
        assert_eq!(accept(&mut b, request(3), 1.0), Ticket(2));
        // Deferred requests count toward the bound too.
        let _ = b.submit(request(3), Priority::Bulk, 1.1);
        match b.submit(request(4), Priority::Bulk, 1.2) {
            SubmitOutcome::Rejected(RejectReason::QueueFull { .. }) => {}
            other => panic!("deferred must count toward depth, got {other:?}"),
        }
    }

    #[test]
    fn cancel_removes_before_flush_and_promotes_deferred() {
        let mut b = batcher(BatchPolicy::default());
        let t0 = accept(&mut b, request(5), 0.0);
        let t1 = b.submit(request(5), Priority::Interactive, 0.1).ticket().unwrap();
        // Cancelling the blocking request promotes the deferred duplicate
        // into the *current* window.
        assert_eq!(b.cancel(t0), Some(ClientId(5)));
        let batch = b.flush().expect("promoted duplicate is drainable");
        assert_eq!(tickets(&batch), vec![t1]);
        assert_eq!(
            b.take_acks(0),
            vec![ServiceEvent::Cancelled { ticket: t0, client: ClientId(5) }]
        );
        // A drained (or unknown) ticket cannot be cancelled.
        assert_eq!(b.cancel(t1), None);
        assert_eq!(b.cancel(Ticket(999)), None);
        assert!(b.take_acks(0).is_empty());
        // Cancelling a deferred request leaves the pending one alone.
        let t2 = accept(&mut b, request(5), 1.0);
        let t3 = b.submit(request(5), Priority::Bulk, 1.1).ticket().unwrap();
        assert_eq!(b.cancel(t3), Some(ClientId(5)));
        let batch = b.flush().expect("pending request unaffected");
        assert_eq!(tickets(&batch), vec![t2]);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn expire_sheds_overdue_requests_and_promotes_their_duplicates() {
        let mut b = Batcher::new(
            BatchPolicy { max_batch: 100, max_delay: 100.0 },
            AdmissionPolicy { queue_depth: 100, deadline: Some(5.0) },
        )
        .unwrap();
        let t0 = accept(&mut b, request(1), 0.0);
        let t1 = b.submit(request(1), Priority::Interactive, 4.0).ticket().unwrap();
        let t2 = accept(&mut b, request(2), 4.5);
        // At t=5 nothing has waited *longer* than 5s (t0 is exactly at
        // the deadline: kept — `waited > deadline` sheds, mirroring the
        // flush trigger's closed boundary).
        assert!(expire(&mut b, 5.0).is_empty());
        // At t=6: t0 (waited 6s) is shed; its duplicate t1 (waited 2s)
        // is promoted and survives; t2 (waited 1.5s) survives.
        let shed = expire(&mut b, 6.0);
        assert_eq!(shed.len(), 1);
        assert_eq!((shed[0].0, shed[0].1), (t0, ClientId(1)));
        assert!((shed[0].2 - 6.0).abs() < 1e-12);
        // Promotion joins the back of the lane, behind the already-queued
        // t2.
        let batch = b.flush().expect("survivors drain");
        assert_eq!(tickets(&batch), vec![t2, t1]);
    }

    #[test]
    fn expire_cascades_through_overdue_promotions() {
        // Both the lane entry and its deferred duplicate are overdue: one
        // expire call must shed both (the promotion happens mid-pass).
        let mut b = Batcher::new(
            BatchPolicy::default(),
            AdmissionPolicy { queue_depth: 100, deadline: Some(1.0) },
        )
        .unwrap();
        let t0 = accept(&mut b, request(1), 0.0);
        let t1 = b.submit(request(1), Priority::Bulk, 0.1).ticket().unwrap();
        let shed = expire(&mut b, 10.0);
        assert_eq!(shed.iter().map(|e| e.0).collect::<Vec<_>>(), vec![t0, t1]);
        assert_eq!(b.len(), 0);
        // No deadline configured → expire is a no-op.
        let mut b = batcher(BatchPolicy::default());
        accept(&mut b, request(0), 0.0);
        assert!(expire(&mut b, 1e12).is_empty());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn oversized_backlog_drains_in_policy_sized_chunks() {
        // 5 submissions land between ticks; max_batch = 2 must cap every
        // drained batch, not just trigger the flush.
        let mut b = batcher(BatchPolicy { max_batch: 2, max_delay: 100.0 });
        for i in 0..5 {
            accept(&mut b, request(i), 0.0);
        }
        let first = b.tick(0.0).expect("size trigger");
        assert_eq!(first.len(), 2);
        assert_eq!(tickets(&first), vec![Ticket(0), Ticket(1)]);
        let second = b.tick(0.0).expect("still over the cap");
        assert_eq!(second.len(), 2);
        // One left: below the size cap, so only deadline or flush drains it.
        assert!(b.tick(0.0).is_none());
        assert_eq!(b.len(), 1);
        // The drained clients may resubmit; the straggler's duplicate is
        // deferred, not rejected.
        assert!(b.submit(request(0), Priority::Interactive, 1.0).is_accepted());
        assert!(matches!(
            b.submit(request(4), Priority::Interactive, 1.0),
            SubmitOutcome::Deferred(_)
        ));
        let rest = b.flush().expect("flush ignores the cap");
        assert_eq!(rest.len(), 2);
        // The deferred duplicate needs one more window.
        assert_eq!(b.flush().expect("deferred window").len(), 1);
    }

    #[test]
    fn deadline_uses_true_oldest_arrival_under_non_monotonic_clocks() {
        // Replayed merged streams may submit out of order: the deadline
        // must key on the minimum arrival, not the first submission.
        let mut b = batcher(BatchPolicy { max_batch: 100, max_delay: 5.0 });
        accept(&mut b, request(0), 10.0);
        accept(&mut b, request(1), 3.0); // older than the first submission
        assert!(b.ready(8.0), "oldest arrival 3.0 has waited 5s by t=8");
        let batch = b.tick(8.0).expect("deadline trigger");
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn tickets_are_unique_across_batches() {
        let mut b = batcher(BatchPolicy { max_batch: 1, max_delay: 1.0 });
        let t0 = accept(&mut b, request(0), 0.0);
        b.tick(0.0).unwrap();
        let t1 = accept(&mut b, request(0), 1.0);
        assert_ne!(t0, t1);
    }

    #[test]
    fn invalid_policies_and_requests_are_rejected() {
        assert!(matches!(
            Batcher::new(BatchPolicy { max_batch: 0, max_delay: 1.0 }, AdmissionPolicy::default()),
            Err(OpaqueError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Batcher::new(
                BatchPolicy { max_batch: 1, max_delay: f64::NAN },
                AdmissionPolicy::default()
            ),
            Err(OpaqueError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Batcher::new(
                BatchPolicy::default(),
                AdmissionPolicy { queue_depth: 0, deadline: None }
            ),
            Err(OpaqueError::InvalidConfig { .. })
        ));
        let mut b = batcher(BatchPolicy::default());
        let mut bad = request(0);
        bad.protection.f_s = 0;
        assert!(matches!(
            b.submit(bad, Priority::Interactive, 0.0),
            SubmitOutcome::Rejected(RejectReason::InvalidProtection { f_s: 0, f_t: 2 })
        ));
        assert_eq!(b.len(), 0, "refusals must not queue anything");
    }

    #[test]
    fn flush_on_empty_is_none() {
        let mut b = batcher(BatchPolicy::default());
        assert!(b.flush().is_none());
        assert!(!b.ready(1e9));
    }

    #[test]
    fn tick_fires_exactly_at_the_reported_deadline() {
        // The deadline edge: `ready` compares `now >= oldest + delay`, the
        // exact expression `next_deadline` reports — so ticking at that
        // instant (not an epsilon later) must fire, and one representable
        // float below it must not.
        let mut b = batcher(BatchPolicy { max_batch: 100, max_delay: 5.0 });
        accept(&mut b, request(0), 1.5);
        let deadline = b.next_deadline().expect("one pending request");
        assert_eq!(deadline, 6.5);
        let just_before = f64::from_bits(deadline.to_bits() - 1);
        assert!(b.tick(just_before).is_none(), "one ulp early must not fire");
        let batch = b.tick(deadline).expect("exact deadline tick fires");
        assert_eq!(batch.len(), 1);
        assert_eq!(b.next_deadline(), None, "drained queue reports no deadline");
    }

    #[test]
    fn tick_on_empty_never_fires() {
        // The empty-flush branch: no pending requests means no trigger at
        // any clock, before or after activity.
        let mut b = batcher(BatchPolicy { max_batch: 1, max_delay: 0.0 });
        assert!(b.tick(0.0).is_none());
        assert!(b.tick(f64::MAX).is_none());
        accept(&mut b, request(0), 0.0);
        b.tick(0.0).expect("size trigger");
        assert!(b.tick(f64::MAX).is_none());
        assert!(b.flush().is_none());
    }

    #[test]
    fn submit_after_flush_restarts_the_deadline_window() {
        let mut b = batcher(BatchPolicy { max_batch: 100, max_delay: 5.0 });
        accept(&mut b, request(0), 0.0);
        b.flush().expect("forced drain");
        // A request submitted at t=100 keys its deadline on its own
        // arrival, not on the long-gone t=0 one (which would make it
        // instantly overdue).
        let t = accept(&mut b, request(1), 100.0);
        assert_eq!(b.next_deadline(), Some(105.0));
        assert!(b.tick(104.9).is_none(), "not due before its own window");
        let batch = b.tick(105.0).expect("deadline keyed on the new arrival");
        assert_eq!(tickets(&batch), vec![t]);
        assert_eq!(batch.iter().map(|p| p.arrival).collect::<Vec<_>>(), vec![100.0]);
    }

    #[test]
    fn deferred_requests_do_not_key_the_flush_deadline() {
        // Only lane entries can join the current window; a deferred
        // duplicate's (older) arrival must not fire the deadline trigger.
        let mut b = batcher(BatchPolicy { max_batch: 100, max_delay: 5.0 });
        accept(&mut b, request(0), 10.0);
        let _ = b.submit(request(0), Priority::Interactive, 2.0); // deferred, older clock
        assert_eq!(b.next_deadline(), Some(15.0), "keyed on the lane entry");
        assert!(b.tick(14.9).is_none());
        assert_eq!(b.tick(15.0).expect("lane deadline").len(), 1);
    }
}

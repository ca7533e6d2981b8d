//! The gateway's headline guarantee, as a property: for random maps,
//! batches (with duplicate client ids and cancellations), seeds and batch
//! policies, the event stream emitted by `submit`/`cancel`/`tick`/`flush`
//! describes **exactly the same bytes** as the legacy `process_batch` view
//! of the same windows. The lattice (`tests/lattice.rs`) holds every
//! service composition's event stream to the plain reference's; this file
//! checks what the two would share a bug in, on the plain pipeline:
//!
//! * replaying each `BatchFlushed` window's requests (reconstructed from
//!   the per-request events) through a fresh service's `process_batch`
//!   reproduces the `BatchReport` byte-for-byte, the same delivered
//!   paths (the hop-4 `ResultMsg` payloads), and matching outcomes;
//! * every ticketed submission resolves to exactly one terminal event,
//!   and cancelled tickets appear only as `Cancelled` — never in a
//!   batch, a report, or a delivery.

mod common;

use common::{arb_map, build_service};
use opaque::{
    BatchPolicy, ClientId, ClientOutcome, ClientRequest, PathQuery, Priority, ProtectionSettings,
    ServiceConfig, ServiceEvent, SubmitOutcome, Ticket,
};
use proptest::prelude::*;
use roadnet::{NodeId, RoadNetwork};
use std::collections::{HashMap, HashSet};

/// One scripted submission: client pick (small range → duplicates are
/// common), endpoints, protection sizes, lane flag (odd = bulk), and a
/// cancel flag (odd = the caller cancels right after submitting).
type RawSubmission = (u32, u32, u32, u32, u32, u32, u32);

fn arb_stream(max_requests: usize) -> impl Strategy<Value = Vec<RawSubmission>> {
    // Nested tuples: the vendored proptest implements Strategy for
    // tuples of at most five elements.
    proptest::collection::vec(
        (
            (0u32..6, proptest::num::u32::ANY, proptest::num::u32::ANY),
            (1u32..5, 1u32..5, 0u32..2, 0u32..2),
        )
            .prop_map(|((client, s, t), (f_s, f_t, bulk, cancel))| {
                (client, s, t, f_s, f_t, bulk, cancel)
            }),
        1..max_requests,
    )
}

fn request_on(map: &RoadNetwork, raw: &RawSubmission) -> (ClientRequest, Priority, bool) {
    let n = map.num_nodes() as u32;
    let &(client, s, t, f_s, f_t, bulk, cancel) = raw;
    (
        ClientRequest::new(
            ClientId(client),
            PathQuery::new(NodeId(s % n), NodeId(t % n)),
            ProtectionSettings::new(f_s, f_t).expect("nonzero by construction"),
        ),
        if bulk == 1 { Priority::Bulk } else { Priority::Interactive },
        cancel == 1,
    )
}

struct GatewayRun {
    events: Vec<ServiceEvent>,
    outcomes: Vec<SubmitOutcome>,
    /// ticket → the request it was issued for.
    requests: HashMap<Ticket, ClientRequest>,
    cancelled: HashSet<Ticket>,
}

/// Drive one full gateway session: submit the scripted stream (ticking
/// after every submission so size triggers fire mid-stream), cancel the
/// marked tickets immediately, then flush windows until the queue is
/// empty.
fn drive_gateway(
    map: &RoadNetwork,
    raw_stream: &[RawSubmission],
    seed: u64,
    max_batch: usize,
) -> GatewayRun {
    let batch = BatchPolicy { max_batch, max_delay: 1e6 };
    let mut svc = build_service(map, ServiceConfig { seed, batch, ..ServiceConfig::default() });

    let mut run = GatewayRun {
        events: Vec::new(),
        outcomes: Vec::new(),
        requests: HashMap::new(),
        cancelled: HashSet::new(),
    };
    for (i, raw) in raw_stream.iter().enumerate() {
        let now = i as f64 * 0.25;
        let (request, priority, cancel) = request_on(map, raw);
        let outcome = svc.submit_with_priority(request, priority, now);
        if let Some(ticket) = outcome.ticket() {
            run.requests.insert(ticket, request);
            if cancel {
                assert!(svc.cancel(ticket), "queued tickets are cancellable");
                run.cancelled.insert(ticket);
            }
        }
        run.outcomes.push(outcome);
        run.events.extend(svc.tick(now).expect("pipeline succeeds"));
    }
    let mut shutdown_clock = raw_stream.len() as f64 * 0.25;
    while svc.pending() > 0 {
        let events = svc.flush(shutdown_clock).expect("pipeline succeeds");
        assert!(!events.is_empty(), "a non-empty queue must flush something");
        run.events.extend(events);
        shutdown_clock += 0.25;
    }
    run
}

/// The replay oracle: reconstruct each flushed window's request list
/// from the per-request events and run it through a fresh service's
/// legacy `process_batch` path; every byte must match.
fn assert_replay_matches(run: &GatewayRun, map: &RoadNetwork, seed: u64, ctx: &str) {
    let mut replay = build_service(map, ServiceConfig { seed, ..ServiceConfig::default() });

    let mut window: Vec<&ServiceEvent> = Vec::new();
    for event in &run.events {
        match event {
            ServiceEvent::Cancelled { ticket, .. } => {
                assert!(run.cancelled.contains(ticket), "{ctx}: spurious cancellation");
            }
            ServiceEvent::BatchFlushed(report) => {
                let requests: Vec<ClientRequest> = window
                    .iter()
                    .map(|e| {
                        let ticket = e.ticket().expect("per-request event");
                        run.requests[&ticket]
                    })
                    .collect();
                let response = replay.process_batch(&requests).expect("replay succeeds");
                assert_eq!(
                    serde_json::to_string(report).unwrap(),
                    serde_json::to_string(&response.report).unwrap(),
                    "{ctx}: BatchFlushed report not byte-identical to the replayed batch"
                );
                let mut replayed_paths: HashMap<ClientId, _> = response
                    .results
                    .iter()
                    .map(|r| (r.client, serde_json::to_string(&r.path).unwrap()))
                    .collect();
                for (event, (client, outcome)) in window.iter().zip(&response.outcomes) {
                    match (event, outcome) {
                        (
                            ServiceEvent::ResponseReady { client: c, result, .. },
                            ClientOutcome::Delivered,
                        ) => {
                            assert_eq!(c, client, "{ctx}: delivery order diverged");
                            let direct = replayed_paths.remove(c).expect("one delivery per client");
                            assert_eq!(
                                serde_json::to_string(&result.path).unwrap(),
                                direct,
                                "{ctx}: hop-4 payload diverged for {c:?}"
                            );
                        }
                        (
                            ServiceEvent::Unreachable { client: c, .. },
                            ClientOutcome::Unreachable,
                        ) => {
                            assert_eq!(c, client, "{ctx}");
                        }
                        (
                            ServiceEvent::Rejected { client: c, reason, .. },
                            ClientOutcome::Rejected { reason: direct },
                        ) => {
                            assert_eq!(c, client, "{ctx}");
                            assert_eq!(
                                reason,
                                &opaque::RejectReason::Infeasible { reason: direct.clone() },
                                "{ctx}"
                            );
                        }
                        (event, outcome) => {
                            panic!("{ctx}: event/outcome mismatch: {event:?} vs {outcome:?}")
                        }
                    }
                }
                assert!(replayed_paths.is_empty(), "{ctx}: replay delivered extra paths");
                window.clear();
            }
            per_request => window.push(per_request),
        }
    }
    assert!(window.is_empty(), "{ctx}: trailing per-request events without a BatchFlushed");
}

/// Every ticketed submission resolves to exactly one terminal event, and
/// cancelled tickets never appear as anything but `Cancelled`.
fn assert_conservation(run: &GatewayRun, ctx: &str) {
    let mut terminal: HashMap<Ticket, &ServiceEvent> = HashMap::new();
    for event in &run.events {
        if let Some(ticket) = event.ticket() {
            assert!(
                terminal.insert(ticket, event).is_none(),
                "{ctx}: ticket {ticket:?} resolved twice"
            );
        }
    }
    for outcome in &run.outcomes {
        if let Some(ticket) = outcome.ticket() {
            let event = terminal
                .get(&ticket)
                .unwrap_or_else(|| panic!("{ctx}: ticket {ticket:?} never resolved"));
            if run.cancelled.contains(&ticket) {
                assert!(
                    matches!(event, ServiceEvent::Cancelled { .. }),
                    "{ctx}: cancelled ticket {ticket:?} leaked into {event:?}"
                );
            } else {
                assert!(
                    !matches!(event, ServiceEvent::Cancelled { .. }),
                    "{ctx}: uncancelled ticket {ticket:?} reported cancelled"
                );
            }
        }
    }
    assert_eq!(
        terminal.len(),
        run.outcomes.iter().filter(|o| o.ticket().is_some()).count(),
        "{ctx}: stray events for unknown tickets"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn event_stream_replays_to_the_report_and_conserves_tickets(
        map in arb_map(32),
        raw_stream in arb_stream(10),
        seed in proptest::num::u64::ANY,
        max_batch in 1usize..5,
    ) {
        let run = drive_gateway(&map, &raw_stream, seed, max_batch);
        let ctx = format!(
            "n={} stream={} seed={seed} max_batch={max_batch}",
            map.num_nodes(),
            raw_stream.len()
        );
        // The stream replays to byte-identical reports and deliveries
        // through the legacy batch path, and conserves every ticket.
        assert_replay_matches(&run, &map, seed, &ctx);
        assert_conservation(&run, &ctx);
    }
}

/// Deterministic pin: the property above is not vacuous — a concrete
/// session exercises deferral, cancellation, and multi-window flushing,
/// and the per-window reports differ (so byte-equality is meaningful).
#[test]
fn scripted_session_covers_defer_cancel_and_multiple_windows() {
    use roadnet::generators::{GridConfig, grid_network};
    let map =
        grid_network(&GridConfig { width: 10, height: 10, seed: 4, ..Default::default() }).unwrap();
    // Two submissions per client id 0/1 (defers), one cancelled, spread
    // over several size-2 windows.
    let raw: Vec<RawSubmission> = vec![
        (0, 0, 99, 2, 2, 0, 0),
        (0, 5, 90, 2, 2, 1, 0),  // deferred behind the first
        (1, 10, 80, 2, 2, 0, 1), // cancelled immediately
        (1, 15, 70, 2, 2, 0, 0),
        (2, 20, 60, 2, 2, 1, 0),
    ];
    let run = drive_gateway(&map, &raw, 7, 2);
    assert_conservation(&run, "scripted");
    assert_replay_matches(&run, &map, 7, "scripted");
    let kinds: Vec<&str> = run
        .events
        .iter()
        .map(|e| match e {
            ServiceEvent::ResponseReady { .. } => "ready",
            ServiceEvent::Unreachable { .. } => "unreachable",
            ServiceEvent::Rejected { .. } => "rejected",
            ServiceEvent::Cancelled { .. } => "cancelled",
            ServiceEvent::BatchFlushed(_) => "flushed",
        })
        .collect();
    assert!(kinds.contains(&"cancelled"), "{kinds:?}");
    assert!(kinds.iter().filter(|k| **k == "flushed").count() >= 2, "{kinds:?}");
    assert_eq!(kinds.iter().filter(|k| **k == "ready").count(), 4, "{kinds:?}");
    // The deferred duplicate of client 0 really landed in a later window
    // than its blocker.
    let deferred_ticket = run.outcomes[1].ticket().unwrap();
    let blocker_ticket = run.outcomes[0].ticket().unwrap();
    let pos = |t: Ticket| run.events.iter().position(|e| e.ticket() == Some(t)).unwrap();
    let flush_between = run.events[pos(blocker_ticket)..pos(deferred_ticket)]
        .iter()
        .filter(|e| matches!(e, ServiceEvent::BatchFlushed(_)))
        .count();
    assert!(flush_between >= 1, "deferral must cross a window boundary: {kinds:?}");
}

//! E16 — gateway under overload: priority lanes, backpressure, deadline
//! shedding (extends §IV's deployment to admission control).
//!
//! The paper's four-hop loop (§IV, Figs. 5–6) assumes every received
//! request is eventually answered; a production front door cannot — under
//! sustained overload it must *refuse*, *reprioritize*, or *shed*. This
//! experiment drives a Poisson arrival stream faster than the service's
//! drain capacity through the gateway (`submit_with_priority` / `tick` /
//! `flush` on a simulated clock) with a bounded queue, a per-request
//! deadline, and a mixed interactive/bulk population, then tabulates what
//! the admission policy bought:
//!
//! * **lane separation** — interactive requests drain first, so their
//!   p99 queue wait stays pinned near the batch window while bulk
//!   absorbs the backlog (asserted: interactive p99 < bulk p99);
//! * **backpressure** — arrivals beyond the queue depth are refused at
//!   the door with `RejectReason::QueueFull`, and overdue queued
//!   requests are shed with `DeadlineExpired` (asserted: nonzero
//!   rejection rate — overload is visible, not silently buffered);
//! * **conservation** — every ticketed request resolves to exactly one
//!   terminal event; nothing is lost in the queue.
//!
//! The simulated clock makes every number deterministic per seed, so the
//! assertions hold at quick (CI) scale as much as at bench scale.

use crate::setup::{Scale, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::{
    AdmissionPolicy, BatchPolicy, ObfuscationMode, Priority, RejectReason, ServiceBuilder,
    ServiceEvent, SubmitOutcome, Ticket,
};
use std::collections::HashMap;
use workload::{
    ArrivalConfig, ArrivalProcess, LatencyHistogram, ProtectionDistribution, QueryDistribution,
    WorkloadConfig, arrival_stream,
};

/// Arrivals per simulated second — twice the drain capacity below.
const ARRIVAL_RATE: f64 = 8.0;
/// Drain capacity: at most `MAX_BATCH` requests per `WINDOW` seconds.
const MAX_BATCH: usize = 8;
const WINDOW: f64 = 2.0;
/// Backpressure bound across lanes + deferred.
const QUEUE_DEPTH: usize = 24;
/// Queued requests older than this are shed, not served stale.
const DEADLINE: f64 = 6.0;

/// Queue-wait resolution: 50 ms buckets out to 20 s, plenty for the
/// DEADLINE-bounded waits this experiment can produce.
const WAIT_BUCKET: f64 = 0.05;
const WAIT_BUCKETS: usize = 400;

struct LaneStats {
    submitted: usize,
    served: usize,
    waits: LatencyHistogram,
    shed: usize,
    refused: usize,
}

impl LaneStats {
    fn new() -> Self {
        LaneStats {
            submitted: 0,
            served: 0,
            waits: LatencyHistogram::new(WAIT_BUCKET, WAIT_BUCKETS),
            shed: 0,
            refused: 0,
        }
    }
}

/// Run E16.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E16",
        "gateway under overload: lanes, backpressure, shedding",
        "admission control for §IV's deployment (no paper counterpart)",
        &["lane", "submitted", "served", "shed", "refused", "p50 wait s", "p99 wait s"],
    );
    let (g, idx) = network_with_index(roadnet::generators::NetworkClass::Grid, scale);
    let horizon = (scale.queries as f64 * 3.0).max(24.0);
    let stream = arrival_stream(
        &g,
        &idx,
        &WorkloadConfig {
            num_requests: 0, // governed by the horizon
            queries: QueryDistribution::Hotspot { hotspots: 3, exponent: 1.0, spread: 0.08 },
            protection: ProtectionDistribution::Fixed { f_s: 3, f_t: 3 },
            seed: 0xE16,
        },
        &ArrivalConfig { rate_per_sec: ARRIVAL_RATE, horizon_secs: horizon },
        ArrivalProcess::Poisson,
    );
    t.note(format!(
        "poisson stream: {} arrivals at {ARRIVAL_RATE}/s vs {MAX_BATCH} per {WINDOW}s drain \
         capacity; queue depth {QUEUE_DEPTH}, deadline {DEADLINE}s",
        stream.len()
    ));

    let mut svc = ServiceBuilder::new()
        .map(g)
        .seed(0xE16)
        .obfuscation_mode(ObfuscationMode::Independent)
        .batch_policy(BatchPolicy { max_batch: MAX_BATCH, max_delay: WINDOW })
        .admission_policy(AdmissionPolicy { queue_depth: QUEUE_DEPTH, deadline: Some(DEADLINE) })
        .build()
        .expect("valid service configuration");

    let mut lanes: HashMap<Priority, LaneStats> = HashMap::new();
    lanes.insert(Priority::Interactive, LaneStats::new());
    lanes.insert(Priority::Bulk, LaneStats::new());
    let mut ticket_lane: HashMap<Ticket, Priority> = HashMap::new();
    let mut resolved = 0usize;
    fn account(
        events: Vec<ServiceEvent>,
        lanes: &mut HashMap<Priority, LaneStats>,
        ticket_lane: &HashMap<Ticket, Priority>,
        resolved: &mut usize,
    ) {
        for event in events {
            match event {
                ServiceEvent::ResponseReady { ticket, waited, .. }
                | ServiceEvent::Unreachable { ticket, waited, .. } => {
                    let stats = lanes.get_mut(&ticket_lane[&ticket]).expect("known lane");
                    stats.served += 1;
                    stats.waits.record(waited);
                    *resolved += 1;
                }
                ServiceEvent::Rejected { ticket, reason, .. } => {
                    let stats = lanes.get_mut(&ticket_lane[&ticket]).expect("known lane");
                    match reason {
                        RejectReason::DeadlineExpired { .. } => stats.shed += 1,
                        other => panic!("this feasible workload cannot reject with {other}"),
                    }
                    *resolved += 1;
                }
                ServiceEvent::Cancelled { .. } => unreachable!("nothing is cancelled here"),
                ServiceEvent::BatchFlushed(_) => {}
            }
        }
    }

    // Drive the stream on the simulated clock. The drain capacity is
    // modelled by ticking only at fixed window boundaries — one batch of
    // at most MAX_BATCH per WINDOW seconds — while arrivals land between
    // them. At 2× the drain rate the backlog grows until the bounded
    // queue refuses at the door and the deadline sheds the stalest bulk.
    let mut next_window = WINDOW;
    for (i, timed) in stream.iter().enumerate() {
        while timed.arrival >= next_window {
            let events = svc.tick(next_window).expect("pipeline succeeds");
            account(events, &mut lanes, &ticket_lane, &mut resolved);
            next_window += WINDOW;
        }
        // A third of the population is latency-sensitive.
        let priority = if i % 3 == 0 { Priority::Interactive } else { Priority::Bulk };
        let stats = lanes.get_mut(&priority).expect("known lane");
        stats.submitted += 1;
        match svc.submit_with_priority(timed.request, priority, timed.arrival) {
            SubmitOutcome::Accepted(ticket) | SubmitOutcome::Deferred(ticket) => {
                ticket_lane.insert(ticket, priority);
            }
            SubmitOutcome::Rejected(RejectReason::QueueFull { .. }) => {
                stats.refused += 1;
                resolved += 1;
            }
            SubmitOutcome::Rejected(other) => panic!("unexpected refusal: {other}"),
        }
    }
    // Drain the backlog past the horizon, one window per tick (ticks
    // also shed whatever crossed the deadline while queued).
    while svc.pending() > 0 {
        let events = svc.tick(next_window).expect("pipeline succeeds");
        account(events, &mut lanes, &ticket_lane, &mut resolved);
        next_window += WINDOW;
    }

    // Per-lane histograms merge into the population histogram — the
    // composability the ad-hoc sorted-vec percentiles lacked.
    let mut all_waits = LatencyHistogram::new(WAIT_BUCKET, WAIT_BUCKETS);
    let mut total_submitted = 0usize;
    let mut total_rejected = 0usize;
    let mut p99_by_lane: HashMap<Priority, f64> = HashMap::new();
    for priority in [Priority::Interactive, Priority::Bulk] {
        let stats = lanes.get_mut(&priority).expect("known lane");
        let (p50, p99) = (stats.waits.p50(), stats.waits.p99());
        p99_by_lane.insert(priority, p99);
        all_waits.merge(&stats.waits);
        total_submitted += stats.submitted;
        total_rejected += stats.shed + stats.refused;
        t.row(vec![
            priority.name().to_string(),
            stats.submitted.to_string(),
            stats.served.to_string(),
            stats.shed.to_string(),
            stats.refused.to_string(),
            f3(p50),
            f3(p99),
        ]);
    }

    // Conservation: every submission is served, shed, or refused.
    assert_eq!(resolved, total_submitted, "every request must resolve exactly once");
    let interactive_p99 = p99_by_lane[&Priority::Interactive];
    let bulk_p99 = p99_by_lane[&Priority::Bulk];
    assert!(
        interactive_p99 < bulk_p99,
        "interactive must keep its latency under overload: p99 {interactive_p99:.2}s vs bulk \
         {bulk_p99:.2}s"
    );
    let rejection_rate = total_rejected as f64 / total_submitted as f64;
    assert!(rejection_rate > 0.0, "a 2x-overloaded bounded queue must refuse or shed something");
    t.note(format!(
        "lane separation holds: interactive p99 {interactive_p99:.2}s < bulk p99 {bulk_p99:.2}s; \
         rejection rate {:.1}%",
        rejection_rate * 100.0
    ));

    t.metric("queue_wait_p50", all_waits.p50());
    t.metric("queue_wait_p99", all_waits.p99());
    t.metric("rejection_rate", rejection_rate);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_lane_separation_and_rejections_hold_at_quick_scale() {
        // run() itself asserts conservation, interactive p99 < bulk p99,
        // and a nonzero rejection rate — the acceptance criteria — on the
        // deterministic simulated clock.
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 2, "interactive + bulk");
        let interactive_p99: f64 = t.rows[0][6].parse().unwrap();
        let bulk_p99: f64 = t.rows[1][6].parse().unwrap();
        assert!(interactive_p99 < bulk_p99);
        assert!(t.metric_value("rejection_rate").unwrap() > 0.0);
        assert!(
            t.metric_value("queue_wait_p99").unwrap() >= t.metric_value("queue_wait_p50").unwrap()
        );
        // Overload really bites the bulk lane: sheds or refusals land
        // there.
        let bulk_shed: usize = t.rows[1][3].parse().unwrap();
        let bulk_refused: usize = t.rows[1][4].parse().unwrap();
        assert!(bulk_shed + bulk_refused > 0, "{:?}", t.rows);
    }
}

//! E12 — obfuscator batching window: latency vs sharing (extension).
//!
//! The paper's shared obfuscation presumes the obfuscator holds a batch of
//! concurrent requests (§IV "partitions the received queries"). In a live
//! deployment requests arrive as a stream, so the obfuscator must choose a
//! batching window: longer windows collect more requests per shared query —
//! fewer fakes, lower breach probability, less server work per client — at
//! the price of answer latency. This experiment streams a Poisson request
//! arrival process through a builder-configured [`opaque::OpaqueService`]'s
//! own admission path (`submit`/`tick`/`flush` with a deadline-triggered
//! batch policy) and tabulates that trade-off.

use crate::setup::{Scale, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::{BatchPolicy, ClusteringConfig, ObfuscationMode, ServiceBuilder, ServiceEvent};
use roadnet::generators::NetworkClass;
use workload::{
    ArrivalConfig, ArrivalProcess, ProtectionDistribution, QueryDistribution, WorkloadConfig,
    arrival_stream,
};

/// Run E12.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E12",
        "batching window: latency vs sharing benefit",
        "deployment of §IV's batch obfuscation over a request stream",
        &[
            "window s",
            "batches",
            "mean batch",
            "mean wait s",
            "fakes/client",
            "settled/client",
            "mean breach",
        ],
    );
    let (g, idx) = network_with_index(NetworkClass::Grid, scale);
    let horizon = scale.queries as f64;
    let stream = arrival_stream(
        &g,
        &idx,
        &WorkloadConfig {
            num_requests: 0, // governed by the horizon
            queries: QueryDistribution::Hotspot { hotspots: 3, exponent: 1.0, spread: 0.08 },
            protection: ProtectionDistribution::Fixed { f_s: 4, f_t: 4 },
            seed: 0xE12,
        },
        &ArrivalConfig { rate_per_sec: 1.0, horizon_secs: horizon },
        ArrivalProcess::Poisson,
    );
    t.note(format!("poisson stream: {} requests at 1 req/s", stream.len()));

    for window in [1.0f64, 2.0, 5.0, 15.0] {
        let mut svc = ServiceBuilder::new()
            .map(g.clone())
            .seed(0xE12)
            .obfuscation_mode(ObfuscationMode::SharedClustered(ClusteringConfig::default()))
            // Deadline-only batching: the flush trigger is the window length.
            .batch_policy(BatchPolicy { max_batch: usize::MAX, max_delay: window })
            .build()
            .expect("valid service configuration");

        let mut batches = 0usize;
        let mut clients = 0usize;
        let mut embedded = 0usize;
        let mut fakes = 0u64;
        let mut settled = 0u64;
        let mut breach_sum = 0.0;
        let mut wait_sum = 0.0;
        let mut account = |events: Vec<ServiceEvent>| {
            assert!(!events.is_empty(), "a fired trigger must emit events");
            for event in events {
                match event {
                    // Per-request queue waits come straight off the
                    // delivery events (hop 4), no mean reconstruction.
                    ServiceEvent::ResponseReady { waited, .. } => {
                        clients += 1;
                        wait_sum += waited;
                    }
                    ServiceEvent::Unreachable { waited, .. }
                    | ServiceEvent::Rejected { waited, .. } => {
                        clients += 1;
                        wait_sum += waited;
                    }
                    ServiceEvent::Cancelled { .. } => {}
                    ServiceEvent::BatchFlushed(report) => {
                        batches += 1;
                        // Per-client privacy/cost columns divide by
                        // *embedded* clients (per_client_breach covers
                        // delivered + unreachable, not rejected), so a
                        // workload that ever rejects cannot dilute them.
                        // This grid workload admits everything, so
                        // embedded == clients here.
                        embedded += report.per_client_breach.len();
                        fakes += report.fakes_added;
                        settled += report.server_settled;
                        breach_sum += report.per_client_breach.iter().map(|(_, p)| p).sum::<f64>();
                    }
                }
            }
        };
        // Tick at exact deadline instants (service-reported, and the
        // deadline trigger is exact at `next_deadline()` by contract), not
        // merely at the next arrival: ticking only on arrivals would
        // inflate measured waits by the residual inter-arrival gap
        // (~1/λ), which at small windows is on the order of the window
        // itself.
        for timed in &stream {
            while let Some(d) = svc.next_deadline().filter(|d| timed.arrival >= *d) {
                account(svc.tick(d).expect("pipeline succeeds"));
            }
            assert!(
                svc.submit(timed.request, timed.arrival).is_accepted(),
                "unique client ids under an unbounded queue"
            );
        }
        while let Some(d) = svc.next_deadline().filter(|d| *d < horizon) {
            account(svc.tick(d).expect("pipeline succeeds"));
        }
        let final_events = svc.flush(horizon).expect("pipeline succeeds");
        if !final_events.is_empty() {
            account(final_events);
        }

        let k = clients as f64;
        let e = embedded as f64;
        t.row(vec![
            f3(window),
            batches.to_string(),
            f3(k / batches as f64),
            f3(wait_sum / k),
            f3(fakes as f64 / e),
            f3(settled as f64 / e),
            f3(breach_sum / e),
        ]);
    }
    t.note(
        "longer windows: larger batches, fewer fakes per client, lower breach — but longer waits",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_longer_windows_trade_latency_for_privacy_and_cost() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 4);
        let first = &t.rows[0]; // 1s window
        let last = &t.rows[3]; // 15s window
        let wait_first: f64 = first[3].parse().unwrap();
        let wait_last: f64 = last[3].parse().unwrap();
        assert!(wait_last > wait_first, "longer window must wait longer");
        let fakes_first: f64 = first[4].parse().unwrap();
        let fakes_last: f64 = last[4].parse().unwrap();
        assert!(fakes_last <= fakes_first, "bigger batches need fewer fakes per client");
        let breach_first: f64 = first[6].parse().unwrap();
        let breach_last: f64 = last[6].parse().unwrap();
        assert!(breach_last <= breach_first + 1e-9, "bigger batches cannot hurt breach");
    }

    #[test]
    fn e12_every_client_is_served_in_every_configuration() {
        // Implicit in run(): process_batch errors would panic. Check the
        // batch accounting is self-consistent instead.
        let t = run(&Scale::quick());
        for row in &t.rows {
            let batches: f64 = row[1].parse().unwrap();
            let mean_batch: f64 = row[2].parse().unwrap();
            assert!(batches * mean_batch > 0.0);
        }
    }
}

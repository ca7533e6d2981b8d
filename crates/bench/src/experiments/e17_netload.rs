//! E17 — the wire under load: a closed-loop simulated-client fleet
//! drives 10⁵ (quick) to 10⁶ (full) requests through the framed TCP
//! front door (`opaque-net`) over loopback and measures end-to-end
//! latency tails.
//!
//! Three arrival mixes shape the request population — Poisson (the
//! baseline the paper's batching analysis assumes), bursty (two-state
//! MMPP, the clumped traffic that stresses admission), and diurnal
//! (sinusoidal day/night modulation). The fleet is *closed-loop*: a
//! bounded in-flight window paces submission, so the experiment measures
//! sustainable capacity rather than open-loop queue collapse, and the
//! mixes govern the composition and ordering of the load.
//!
//! Invariants asserted here (the wire's conservation law): every request
//! the fleet sends receives exactly one terminal reply, every reply pairs
//! with a latency sample, and the server drops nothing on loopback.
//! Percentiles come from [`workload::LatencyHistogram`]s — one per mix,
//! merged into the population histogram for the `net_p50_ms` /
//! `net_p99_ms` / `net_p999_ms` metrics the perf trajectory tracks.

use crate::setup::{Scale, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::{AdmissionPolicy, BatchPolicy, Priority, RequestMsg, ServiceBuilder};
use opaque_net::{FleetConfig, NetServer, ServerConfig, run_fleet};
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, Ordering};
use workload::{
    ArrivalConfig, ArrivalProcess, LatencyHistogram, ProtectionDistribution, QueryDistribution,
    WorkloadConfig, arrival_stream,
};

/// Latency resolution: 0.5 ms buckets out to 2 s; slower outliers land
/// in the overflow bucket, which reports the observed maximum.
const LAT_BUCKET_MS: f64 = 0.5;
const LAT_BUCKETS: usize = 4_000;

/// Batch aggressively: the wire should be the bottleneck, not the
/// obfuscation window.
const MAX_BATCH: usize = 256;
const MAX_DELAY: f64 = 0.05;
/// Deep queue + bounded fleet in-flight: admission never refuses, so
/// every latency sample is a served request.
const QUEUE_DEPTH: usize = 65_536;
const MAX_IN_FLIGHT: usize = 2_048;
const CONNECTIONS: usize = 8;

/// The three mixes, with parameters scaled to the stream horizon.
fn mixes() -> [(&'static str, ArrivalProcess); 3] {
    [
        ("poisson", ArrivalProcess::Poisson),
        (
            "bursty",
            ArrivalProcess::Bursty { multiplier: 5.0, mean_burst_secs: 2.0, mean_quiet_secs: 6.0 },
        ),
        ("diurnal", ArrivalProcess::Diurnal { period_secs: 20.0, amplitude: 0.8 }),
    ]
}

/// Run E17 at the scale-implied fleet size.
pub fn run(scale: &Scale) -> ExperimentTable {
    // 10⁵ simulated clients at quick (the CI acceptance floor), 10⁶ at
    // full scale.
    let clients = if scale.trials >= Scale::full().trials { 1_000_000 } else { 100_000 };
    run_with(clients, scale)
}

/// Run E17 with an explicit fleet size (tests use a small one — the
/// debug-build test binary must stay fast).
pub fn run_with(clients: usize, scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E17",
        "closed-loop network load: latency tails over loopback",
        "the wire front door under 1e5-1e6 simulated clients (no paper counterpart)",
        &["mix", "clients", "delivered", "unreachable", "p50 ms", "p99 ms", "p999 ms"],
    );
    let (g, idx) = network_with_index(roadnet::generators::NetworkClass::Grid, scale);
    let per_mix = clients.div_ceil(3);

    // Generate the three request populations before starting the clock:
    // each mix is an arrival-process stream truncated to exactly per_mix
    // requests, client ids remapped to be globally unique.
    let mut populations: Vec<(&'static str, Vec<(RequestMsg, Priority)>)> = Vec::new();
    for (mix_index, (name, process)) in mixes().into_iter().enumerate() {
        // Rate × horizon ≈ 1.15 × per_mix arrivals: enough margin that a
        // seeded stream never undershoots the truncation target.
        let rate = 200.0;
        let horizon = per_mix as f64 / rate * 1.15 + 2.0;
        let stream = arrival_stream(
            &g,
            &idx,
            &WorkloadConfig {
                num_requests: 0, // governed by the horizon
                queries: QueryDistribution::Uniform,
                protection: ProtectionDistribution::Fixed { f_s: 2, f_t: 2 },
                seed: 0xE17 + mix_index as u64,
            },
            &ArrivalConfig { rate_per_sec: rate, horizon_secs: horizon },
            process,
        );
        assert!(stream.len() >= per_mix, "{name} stream undershot: {} < {per_mix}", stream.len());
        let offset = (mix_index * per_mix) as u32;
        let requests: Vec<(RequestMsg, Priority)> = stream[..per_mix]
            .iter()
            .enumerate()
            .map(|(i, timed)| {
                let msg = RequestMsg {
                    client: opaque::ClientId(offset + i as u32),
                    query: timed.request.query,
                    protection: timed.request.protection,
                };
                (msg, Priority::Interactive)
            })
            .collect();
        populations.push((name, requests));
    }

    let service = ServiceBuilder::new()
        .map(g)
        .seed(0xE17)
        .batch_policy(BatchPolicy { max_batch: MAX_BATCH, max_delay: MAX_DELAY })
        .admission_policy(AdmissionPolicy { queue_depth: QUEUE_DEPTH, deadline: None })
        .build()
        .expect("valid service configuration");
    let mut server =
        NetServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let result = server.run_until(&flag);
        (server, result)
    });

    let mut merged = LatencyHistogram::new(LAT_BUCKET_MS, LAT_BUCKETS);
    let mut total_sent = 0usize;
    for (name, requests) in &populations {
        let outcome = run_fleet(
            addr,
            requests,
            FleetConfig { connections: CONNECTIONS, max_in_flight: MAX_IN_FLIGHT },
        )
        .expect("fleet completes");

        // Conservation: one terminal wire reply per request, one latency
        // sample per reply, nothing refused on this feasible workload.
        assert_eq!(outcome.sent, requests.len(), "{name}: fleet sent a partial population");
        assert_eq!(
            outcome.terminal_replies, outcome.sent,
            "{name}: conservation violated — {} sent, {} answered",
            outcome.sent, outcome.terminal_replies
        );
        assert_eq!(outcome.latencies_secs.len(), outcome.sent, "{name}: unpaired latencies");
        assert_eq!(outcome.door_rejections, 0, "{name}: the deep queue must not refuse");
        assert_eq!(outcome.rejected, 0, "{name}: nothing should be shed without a deadline");

        let mut hist = LatencyHistogram::new(LAT_BUCKET_MS, LAT_BUCKETS);
        for secs in &outcome.latencies_secs {
            hist.record(secs * 1_000.0);
        }
        t.row(vec![
            (*name).to_string(),
            outcome.sent.to_string(),
            outcome.delivered.to_string(),
            outcome.unreachable.to_string(),
            f3(hist.p50()),
            f3(hist.p99()),
            f3(hist.p999()),
        ]);
        total_sent += outcome.sent;
        merged.merge(&hist);
    }

    stop.store(true, Ordering::Release);
    let (server, run_result) = handle.join().expect("server thread joins");
    run_result.expect("reactor ran clean");
    let stats = server.stats();
    assert_eq!(stats.dropped_replies, 0, "loopback must not drop replies: {stats:?}");
    assert_eq!(stats.batch_failures, 0, "no batch may fail: {stats:?}");
    assert_eq!(stats.frames_in as usize, total_sent, "every sent frame must arrive");

    t.note(format!(
        "{total_sent} requests over {} connections/mix, in-flight ≤ {MAX_IN_FLIGHT}; \
         {} batches, {} accepted + {} deferred; merged p99 {:.1} ms",
        CONNECTIONS,
        stats.batches_flushed,
        stats.submitted,
        stats.deferred,
        merged.p99()
    ));
    t.metric("net_p50_ms", merged.p50());
    t.metric("net_p99_ms", merged.p99());
    t.metric("net_p999_ms", merged.p999());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The conservation and percentile assertions at a debug-build
    /// friendly fleet size; CI's net-smoke job runs the 10⁵ quick scale
    /// in release.
    #[test]
    fn e17_conserves_replies_at_test_scale() {
        let t = run_with(3_000, &Scale::quick());
        assert_eq!(t.rows.len(), 3, "one row per arrival mix");
        for row in &t.rows {
            assert_eq!(row[1], "1000", "fleet split unevenly: {row:?}");
        }
        let p50 = t.metric_value("net_p50_ms").unwrap();
        let p99 = t.metric_value("net_p99_ms").unwrap();
        let p999 = t.metric_value("net_p999_ms").unwrap();
        assert!(p50 > 0.0, "loopback latency cannot be zero");
        assert!(p50 <= p99 && p99 <= p999, "percentiles out of order: {p50} {p99} {p999}");
    }
}

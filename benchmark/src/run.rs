//! The untraced run: the five end-to-end metrics of one workload.

use crate::reference::HostClock;
use crate::report::{Metric, RunReport};
use crate::script::Script;
use crate::span::Tracer;
use crate::spec::{Scale, WorkloadSpec};
use crate::stats::{median, quantile};
use crate::target::{Counters, Deployment};
use pathsearch::{Path, shortest_distance};
use roadnet::NodeId;
use std::time::Instant;

/// Delivered costs are compared with the benchmark's own Dijkstra to this
/// relative tolerance: both sum the same edge weights along a shortest
/// path, possibly in a different order.
const COST_TOLERANCE: f64 = 1e-9;

/// Whether timed window `t` has every delivered cost checked: all of the
/// first 50 windows, every 20th after.
pub fn is_checked(t: usize) -> bool {
    t < 50 || t % 20 == 0
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Timed windows driven in chunks, each closed by a reference sample.
pub struct TimedLoop {
    /// Per-window round trip, ms of this host.
    pub latency_raw_ms: Vec<f64>,
    /// Per-window round trip, calibrated ms.
    pub latency_ms: Vec<f64>,
    /// Σ window seconds of this host.
    pub raw_s: f64,
    /// Σ calibrated window seconds.
    pub calibrated_s: f64,
    /// Requests that got their path.
    pub delivered: usize,
    /// Requests that did not (door rejection, non-result terminal, missing).
    pub failed: usize,
    /// Costs of the checked windows: `(timed window, cost per request)`.
    pub checked: Vec<(usize, Vec<f64>)>,
    /// Counters after the first `replay_windows` timed windows.
    pub counters_at_replay_mark: Counters,
    /// Reactor iterations (wire path).
    pub polls: usize,
    /// Reply bytes (wire path).
    pub reply_bytes: usize,
}

/// Drive timed windows `0..windows` of `script` on `deployment`. A weight
/// update due after a window blocks the single-threaded gateway, so its
/// duration is charged to the window that waits behind it.
pub fn timed_loop(
    deployment: &mut Deployment,
    script: &Script,
    windows: usize,
    chunk_windows: usize,
    replay_windows: usize,
    clock: &mut HostClock,
) -> TimedLoop {
    let mut off = Tracer::off();
    let mut out = TimedLoop {
        latency_raw_ms: Vec::with_capacity(windows),
        latency_ms: Vec::with_capacity(windows),
        raw_s: 0.0,
        calibrated_s: 0.0,
        delivered: 0,
        failed: 0,
        checked: Vec::new(),
        counters_at_replay_mark: Counters::default(),
        polls: 0,
        reply_bytes: 0,
    };
    let mut pending: Vec<f64> = Vec::with_capacity(chunk_windows);
    let mut carried_update_s = 0.0;
    clock.resync();
    for t in 0..windows {
        let w = script.warmup_windows + t;
        let run = deployment.run_window(script, w, &mut off);
        pending.push(run.raw_s + carried_update_s);
        carried_update_s = 0.0;

        let good = run.delivered();
        out.delivered += good;
        out.failed += script.spec.window - good;
        out.polls += run.polls;
        out.reply_bytes += run.reply_bytes;
        if is_checked(t) {
            out.checked.push((t, run.per_request(script, w, f64::NAN, Path::distance)));
        }
        drop(run);
        if let Some(round) = script.update_after(t) {
            let start = Instant::now();
            deployment.update_weights(round);
            carried_update_s = start.elapsed().as_secs_f64();
        }
        if t + 1 == replay_windows {
            out.counters_at_replay_mark = deployment.counters();
        }
        if pending.len() == chunk_windows || t + 1 == windows {
            if let Some(last) = pending.last_mut() {
                // An update after the chunk's last window still happened
                // inside the chunk's bracket.
                *last += std::mem::take(&mut carried_update_s);
            }
            let factor = clock.close_chunk();
            for raw in pending.drain(..) {
                out.latency_raw_ms.push(raw * 1e3);
                out.latency_ms.push(raw / factor * 1e3);
                out.raw_s += raw;
                out.calibrated_s += raw / factor;
            }
        }
    }
    out
}

/// Check the recorded costs against `pathsearch::shortest_distance` on the
/// benchmark's own copy of the map, re-weighted in step with the script.
/// Returns `(checked, wrong)`.
pub fn verify_costs(script: &Script, checked: &[(usize, Vec<f64>)]) -> (usize, usize) {
    let mut map = script.map.clone();
    let mut next = checked.iter().peekable();
    let (mut total, mut wrong) = (0, 0);
    let last = checked.last().map_or(0, |c| c.0);
    for t in 0..=last {
        if let Some((_, costs)) = next.next_if(|c| c.0 == t) {
            let trips = script.window_trips(script.warmup_windows + t);
            for (&(s, d), &got) in trips.iter().zip(costs) {
                total += 1;
                let ok = match shortest_distance(&map, NodeId(s), NodeId(d)) {
                    Some(want) => (got - want).abs() <= COST_TOLERANCE * want.max(1.0),
                    None => false,
                };
                if !ok {
                    wrong += 1;
                }
            }
        }
        if let Some(round) = script.update_after(t) {
            map.update_weights(round).expect("scheduled updates are valid");
        }
    }
    (total, wrong)
}

/// The untraced run.
pub fn run(spec: &'static WorkloadSpec, seed: u64, scale: &Scale) -> RunReport {
    let started = Instant::now();
    let mut phases: Vec<(&str, f64)> = Vec::new();
    let mut mark = |name: &'static str| {
        let done: f64 = phases.iter().map(|p| p.1).sum();
        phases.push((name, started.elapsed().as_secs_f64() - done));
    };
    let script = Script::for_run(spec, seed, scale);
    mark("script");
    let windows = script.timed_windows;
    let mut off = Tracer::off();
    let mut clock =
        HostClock::start(spec.ref_side, spec.ref_sweeps, spec.ref_landmarks, spec.ref_nominal_ms);

    // Cold set-ups. Each is timed alone; a reference sample closes every
    // chunk of them; the last one is kept and driven.
    let setups = scale.setups(spec);
    let (mut setup_raw, mut setup_cal) = (Vec::with_capacity(setups), Vec::with_capacity(setups));
    let mut pending = Vec::new();
    let mut deployment: Option<Deployment> = None;
    clock.resync();
    for i in 0..setups {
        drop(deployment.take());
        let start = Instant::now();
        deployment = Some(Deployment::set_up(&script, &mut off));
        pending.push(start.elapsed().as_secs_f64());
        if pending.len() == spec.setups_per_chunk || i + 1 == setups {
            let factor = clock.close_chunk();
            for raw in pending.drain(..) {
                setup_raw.push(raw);
                setup_cal.push(raw / factor);
            }
        }
    }
    let mut deployment = deployment.expect("at least one set-up");
    let after_warmup = deployment.counters();
    mark("set-ups");

    let replay_windows = (windows / 20).max(1);
    let timed = timed_loop(
        &mut deployment,
        &script,
        windows,
        spec.chunk_windows(),
        replay_windows,
        &mut clock,
    );
    // Memory high-water mark of set-up plus the timed window — before the
    // checks below build their own copies of anything.
    let rss = peak_rss_mb();
    let end = deployment.counters();
    mark("timed loop");
    drop(deployment);

    let (checked, wrong) = verify_costs(&script, &timed.checked);
    mark("cost check");

    // Determinism: a second, freshly built service replays the first 5 % of
    // the script and must arrive at the same counters.
    let mut replica = Deployment::set_up(&script, &mut off);
    let replica_after_warmup = replica.counters();
    for t in 0..replay_windows {
        replica.run_window(&script, script.warmup_windows + t, &mut off);
        if let Some(round) = script.update_after(t) {
            replica.update_weights(round);
        }
    }
    let replayed = replica.counters();
    let deterministic =
        replayed == timed.counters_at_replay_mark && replica_after_warmup == after_warmup;
    drop(replica);
    mark("replay");

    let attempted = script.timed_requests();
    let failed = timed.failed + wrong;
    let mut report = RunReport::new(spec.name, seed, scale, false);
    report.attempted = attempted as u64;
    report.failed = failed as u64;
    report.correct = failed == 0 && deterministic;
    let factor_median = median(clock.factors());
    report.end_to_end = vec![
        Metric::timing("setup_s", median(&setup_cal), "s"),
        Metric::timing("throughput_rps", timed.delivered as f64 / timed.calibrated_s, "1/s"),
        Metric::timing("latency_p50_ms", quantile(&timed.latency_ms, 0.50), "ms"),
        Metric::timing("latency_p95_ms", quantile(&timed.latency_ms, 0.95), "ms"),
        Metric::timing("peak_rss_mb", rss, "MB"),
    ];
    report.raw = vec![
        Metric::timing("setup_s_raw", median(&setup_raw), "s"),
        Metric::timing("throughput_rps_raw", timed.delivered as f64 / timed.raw_s, "1/s"),
        Metric::timing("latency_p50_ms_raw", quantile(&timed.latency_raw_ms, 0.50), "ms"),
        Metric::timing("latency_p95_ms_raw", quantile(&timed.latency_raw_ms, 0.95), "ms"),
        Metric::timing("host_factor_p50", factor_median, "x"),
    ];
    let delta = |a: u64, b: u64| (a - b) as f64;
    report.counters = vec![
        Metric::counter("windows", delta(end.windows, after_warmup.windows), "count"),
        Metric::counter("requests", attempted as f64, "count"),
        Metric::counter("settled", delta(end.settled, after_warmup.settled), "count"),
        Metric::counter("relaxed", delta(end.relaxed, after_warmup.relaxed), "count"),
        Metric::counter("trees", delta(end.trees, after_warmup.trees), "count"),
        Metric::counter("cache_hits", delta(end.cache_hits, after_warmup.cache_hits), "count"),
        Metric::counter("pairs", delta(end.pairs, after_warmup.pairs), "count"),
        Metric::counter("request_bytes", delta(end.request_bytes, after_warmup.request_bytes), "B"),
        Metric::counter("script_digest", (script.digest() >> 11) as f64, "id"),
    ];
    report.notes = vec![
        format!("{}: {}", spec.name, spec.about),
        format!(
            "closed loop, lockstep, 1 client thread, 1 window of {} in flight; {}",
            spec.window,
            if spec.wire { "loopback TCP (no real link)" } else { "in process" }
        ),
        format!(
            "{windows} timed windows ({} latency samples, {} beyond p95), {} set-ups, {} reference \
             samples",
            timed.latency_ms.len(),
            timed.latency_ms.len() - (0.95 * timed.latency_ms.len() as f64).ceil() as usize,
            setups,
            clock.samples()
        ),
        format!("{checked} delivered costs checked against shortest_distance, {wrong} wrong"),
        format!(
            "5% replay ({replay_windows} windows) on a fresh service: counters {}",
            if deterministic { "identical" } else { "DIFFER — run is not deterministic" }
        ),
        format!(
            "wall seconds by phase: {}",
            phases.iter().map(|(n, s)| format!("{n} {s:.2}")).collect::<Vec<_>>().join(", ")
        ),
        format!(
            "timed window: {:.3} s of this host, {:.3} s calibrated (host factor p50 {:.4})",
            timed.raw_s, timed.calibrated_s, factor_median
        ),
    ];
    report
}

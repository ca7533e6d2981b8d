//! The traced run: the per-layer metrics of one workload.
//!
//! A separate invocation over the first quarter of the script. The service
//! is driven exactly as in the untraced run, and beside it the same windows
//! are replayed through a **staged pipeline** assembled from each layer's
//! public functions — `Obfuscator::obfuscate_batch` →
//! `DirectionsBackend::process_many` → `filter::extract_path` — and through
//! `pathsearch` called **directly** on the same obfuscated units. Every call
//! into a layer is wrapped in a span from out here; a layer's cost is its
//! span, and the cost of a layer that only exists as glue (gateway tick,
//! server dispatch, reactor) is its span minus the staged spans of what it
//! calls. The staged replay must deliver the same paths and the same
//! `ServerStats` as the service, or the run fails.

use crate::alloc::AllocCounters;
use crate::reference::HostClock;
use crate::report::{Metric, RunReport};
use crate::run::timed_loop;
use crate::script::Script;
use crate::span::{Tracer, self_times_us};
use crate::spec::{Scale, WorkloadSpec};
use crate::stats::{median, quantile};
use crate::target::{Counters, Deployment, frame_into, wire_request};
use opaque::filter::extract_path;
use opaque::{
    CachePolicy, ClientRequest, DefaultBackend, DirectionsBackend, DirectionsServer,
    ExecutionPolicy, ObfuscatedPathQuery, ObfuscationMode, ObfuscationUnit, Obfuscator, Partition,
    PartitionPolicy, ResultMsg, RouteKind, SearchHeuristic, ServerStats, ShardedBackend, Ticket,
    TreeCache,
};
use opaque_net::wire::decode_message;
use opaque_net::{DEFAULT_MAX_FRAME, FrameDecoder, WireReply, WireRequest};
use pathsearch::{
    AltPreprocessing, Goal, Path, SearchArena, SearchStats, msmd_in, msmd_in_guided,
    msmd_in_guided_cached, run_in, run_in_traced,
};
use roadnet::{EdgeId, GraphView, NodeId, RoadNetwork};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use workload::{ChurnConfig, rush_hour_schedule};

/// Windows whose units are also evaluated without goal direction, for
/// `pathsearch.alt_settled_ratio` (never more than half the run: it costs
/// several guided evaluations).
const UNGUIDED_WINDOWS: usize = 6;
/// Trips grown and then adopted by the tree-cache probe.
const TREE_PROBE_TRIPS: usize = 32;

/// A fingerprint of one delivered path: node sequence and cost bits.
fn path_print(path: &Path) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for n in path.nodes() {
        eat(u64::from(n.0));
    }
    eat(path.distance().to_bits());
    h
}

/// The pipeline assembled from the layers' public constructors, mirroring
/// what `ServiceBuilder::build` wires together.
struct Staged {
    obfuscator: Obfuscator,
    backend: DefaultBackend,
    partition: Option<Partition>,
}

/// `pathsearch` driven directly: per-shard arenas and caches, routed like
/// the fleet routes, over the benchmark's own copy of the map.
struct Direct {
    map: RoadNetwork,
    arenas: Vec<SearchArena>,
    caches: Vec<Option<TreeCache>>,
    alt: Option<Arc<AltPreprocessing>>,
    partition: Option<Partition>,
    cursor: usize,
    plain_arena: SearchArena,
    stats: SearchStats,
    trees: u64,
}

fn build_replicas(script: &Script, tracer: &mut Tracer) -> (Staged, Direct) {
    let spec = script.spec;
    let map = spec.map.generate(script.map_seed);
    let shared = Arc::new(map.clone());
    let nodes = map.num_nodes();
    let alt = match spec.heuristic {
        SearchHeuristic::Alt { landmarks } => {
            Some(Arc::new(tracer.span("pathsearch.alt_build", -1, || {
                AltPreprocessing::try_build(shared.as_ref(), landmarks).expect("symmetric map")
            })))
        }
        SearchHeuristic::None => None,
    };
    let partition = match spec.partition {
        PartitionPolicy::RegionOwned { halo } => Some(tracer.span("partition.build", -1, || {
            Partition::build(shared.as_ref(), spec.shards, halo).expect("shards <= nodes")
        })),
        PartitionPolicy::RoundRobin => None,
    };
    let servers: Vec<_> = (0..spec.shards)
        .map(|_| {
            DirectionsServer::with_arena(
                Arc::clone(&shared),
                spec.sharing,
                SearchArena::preallocated(nodes, 1),
            )
            .with_tree_cache(spec.cache)
            .with_heuristic(alt.clone())
        })
        .collect();
    let backend = match &partition {
        Some(p) => ShardedBackend::with_partition(servers, p.clone()),
        None => ShardedBackend::new(servers),
    }
    .expect("non-empty fleet");
    let caches = (0..spec.shards)
        .map(|_| match spec.cache {
            CachePolicy::Lru { trees } => Some(TreeCache::new(trees, spec.sharing)),
            CachePolicy::Off => None,
        })
        .collect();
    let direct = Direct {
        map: map.clone(),
        arenas: (0..spec.shards).map(|_| SearchArena::preallocated(nodes, 1)).collect(),
        caches,
        alt: alt.clone(),
        partition: partition.clone(),
        cursor: 0,
        plain_arena: SearchArena::preallocated(nodes, 1),
        stats: SearchStats::default(),
        trees: 0,
    };
    let mut staged =
        Staged { obfuscator: Obfuscator::new(map, spec.fakes, script.seed), backend, partition };
    let mut direct = direct;
    // The service's set-up ran the warm-up windows: the replicas take the
    // same steps, so their RNG streams and tree caches start where the
    // service's do.
    for w in 0..script.warmup_windows {
        let requests: Vec<ClientRequest> = script.window_requests(w).collect();
        let units = staged
            .obfuscator
            .obfuscate_batch(&requests, ObfuscationMode::Independent)
            .expect("the script's requests are feasible");
        let queries: Vec<ObfuscatedPathQuery> = units.iter().map(|u| u.query.clone()).collect();
        staged.backend.process_many(&queries, ExecutionPolicy::Sequential);
        direct.evaluate(spec, &queries);
    }
    direct.stats = SearchStats::default();
    direct.trees = 0;
    (staged, direct)
}

impl Direct {
    /// Evaluate the units the way one `process_many` would, straight on
    /// `pathsearch`. Returns settled nodes.
    fn evaluate(&mut self, spec: &WorkloadSpec, queries: &[ObfuscatedPathQuery]) -> u64 {
        let before = self.stats.settled;
        for q in queries {
            let shard = match &self.partition {
                Some(p) => p.route(q),
                None => {
                    let s = self.cursor;
                    self.cursor = (self.cursor + 1) % self.arenas.len();
                    s
                }
            };
            let pre = self.alt.as_deref();
            let result = match &mut self.caches[shard] {
                Some(cache) => msmd_in_guided_cached(
                    &mut self.arenas[shard],
                    &self.map,
                    q.sources(),
                    q.targets(),
                    spec.sharing,
                    pre,
                    cache,
                ),
                None => msmd_in_guided(
                    &mut self.arenas[shard],
                    &self.map,
                    q.sources(),
                    q.targets(),
                    spec.sharing,
                    pre,
                ),
            };
            self.stats.merge(result.stats);
            self.trees += result.per_tree.len() as u64;
            black_box(&result.paths);
        }
        self.stats.settled - before
    }

    /// The same units with goal direction off; returns settled nodes.
    fn evaluate_unguided(&mut self, spec: &WorkloadSpec, queries: &[ObfuscatedPathQuery]) -> u64 {
        queries
            .iter()
            .map(|q| {
                msmd_in(&mut self.plain_arena, &self.map, q.sources(), q.targets(), spec.sharing)
                    .stats
                    .settled
            })
            .sum()
    }

    fn update_weights(&mut self, round: &[(EdgeId, f64)]) {
        let changed = self.map.update_weights(round).expect("scheduled updates are valid");
        let endpoints: Vec<(NodeId, NodeId)> = changed
            .iter()
            .map(|&e| {
                let edge = self.map.edge(e);
                (edge.a, edge.b)
            })
            .collect();
        for cache in self.caches.iter_mut().flatten() {
            cache.invalidate_edges(&endpoints);
        }
        if !changed.is_empty() {
            // The fleet drops its landmark tables on a re-weighting.
            self.alt = None;
        }
    }
}

/// Spans are calibrated by the host factor of the chunk they ran in.
struct Calibrator {
    factors: Vec<f64>,
}

impl Calibrator {
    /// Close the chunk: sample the reference (itself a span, so the trace
    /// file shows every sample) and stamp the chunk's spans.
    fn close(&mut self, tracer: &mut Tracer, clock: &mut HostClock) -> f64 {
        let upto = tracer.spans().len();
        tracer.open("host.reference", -1);
        let factor = clock.close_chunk();
        tracer.close();
        self.factors.resize(upto, factor);
        // The reference span itself is not work under test.
        self.factors.push(1.0);
        factor
    }

    /// Σ calibrated µs per span name.
    fn totals_us(&self, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (s, f) in tracer.spans().iter().zip(&self.factors) {
            *totals.entry(s.name).or_insert(0.0) += s.duration_us() / f;
        }
        totals
    }

    /// Σ calibrated self µs (span minus direct children) of `name`.
    fn self_us(&self, tracer: &Tracer, name: &str) -> f64 {
        let own = self_times_us(tracer.spans());
        tracer
            .spans()
            .iter()
            .zip(own)
            .zip(&self.factors)
            .filter(|((s, _), _)| s.name == name)
            .map(|((_, own), f)| own / f)
            .sum()
    }
}

/// Encode → decode one window's requests and replies through the wire
/// codec (`wire::encode_message`, `frame::encode_frame`,
/// `FrameDecoder::next_frame`, `wire::decode_message`). Returns
/// `(request bytes, reply bytes)`.
fn codec_probe(
    requests: &[ClientRequest],
    paths: &[Option<Path>],
    w: i64,
    tracer: &mut Tracer,
) -> (usize, usize) {
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
    let messages: Vec<WireRequest> = requests.iter().map(wire_request).collect();
    let mut buf = Vec::new();
    tracer.open("net.encode_request", w);
    for m in &messages {
        frame_into(m, &mut buf);
    }
    tracer.close();
    let request_bytes = buf.len();
    tracer.open("net.decode_request", w);
    decoder.push(&buf);
    while let Some(payload) = decoder.next_frame().expect("own frames are valid") {
        black_box(decode_message::<WireRequest>(&payload).expect("own requests decode"));
    }
    tracer.close();

    let replies: Vec<WireReply> = requests
        .iter()
        .zip(paths)
        .enumerate()
        .filter_map(|(i, (r, p))| {
            p.as_ref().map(|path| WireReply::Result {
                ticket: Ticket(i as u64),
                result: ResultMsg { client: r.client, path: path.clone() },
                waited: 0.0,
            })
        })
        .collect();
    buf.clear();
    tracer.open("net.encode_reply", w);
    for m in &replies {
        frame_into(m, &mut buf);
    }
    tracer.close();
    let reply_bytes = buf.len();
    tracer.open("net.decode_reply", w);
    decoder.push(&buf);
    while let Some(payload) = decoder.next_frame().expect("own frames are valid") {
        black_box(decode_message::<WireReply>(&payload).expect("own replies decode"));
    }
    tracer.close();
    (request_bytes, reply_bytes)
}

/// Set-up-level probes of single functions, each in its own span.
struct Probes {
    arcs_scanned: u64,
    updated_edges: u64,
    swept_settled: u64,
    probe_trees: u64,
    potential_evals: u64,
}

fn layer_probes(script: &Script, alt: Option<&AltPreprocessing>, tracer: &mut Tracer) -> Probes {
    let map = &script.map;
    let nodes = map.num_nodes();

    // GraphView::for_each_arc over every node, several passes.
    let passes = (2_000_000 / map.num_arcs().max(1)).clamp(1, 2_000);
    let mut arcs_scanned = 0u64;
    let mut sum = 0.0;
    tracer.open("roadnet.arc_scan", -1);
    for _ in 0..passes {
        for n in 0..nodes {
            map.for_each_arc(NodeId::from_index(n), &mut |to, w| {
                arcs_scanned += 1;
                sum += w + f64::from(to.0 & 1);
            });
        }
    }
    tracer.close();
    black_box(sum);

    // RoadNetwork::update_weights on a throwaway copy: one rush-hour round.
    let mut copy = map.clone();
    let schedule = rush_hour_schedule(
        map,
        &ChurnConfig {
            rounds: 2,
            updates_per_round: 64.min(map.num_edges()),
            zone_fraction: 0.15,
            surge: 3.0,
            seed: script.seed,
        },
    );
    tracer.open("roadnet.update_weights", -1);
    let updated_edges = copy.update_weights(&schedule[0]).expect("valid round").len() as u64;
    tracer.close();

    // Full sweeps: run_in to Goal::AllNodes from the first trips' sources.
    let mut arena = SearchArena::preallocated(nodes, 1);
    let sweeps = (400_000 / nodes).clamp(2, 64);
    let trips = script.window_trips(0);
    let mut swept_settled = 0u64;
    tracer.open("pathsearch.sweep", -1);
    for i in 0..sweeps {
        let root = NodeId(trips[i % trips.len()].0);
        swept_settled += run_in(&mut arena, map, root, &Goal::AllNodes).settled;
    }
    tracer.close();

    // Grow-and-record vs adopt, on the script's own trips.
    let probe_trips: Vec<(u32, u32)> = (0..script.warmup_windows + script.timed_windows)
        .flat_map(|w| script.window_trips(w).iter().copied())
        .take(TREE_PROBE_TRIPS)
        .collect();
    let mut traces = Vec::with_capacity(probe_trips.len());
    tracer.open("pathsearch.grow", -1);
    for &(s, t) in &probe_trips {
        traces.push(run_in_traced(&mut arena, map, NodeId(s), &Goal::Single(NodeId(t))).1);
    }
    tracer.close();
    tracer.open("pathsearch.adopt", -1);
    for (trace, &(_, t)) in traces.iter().zip(&probe_trips) {
        black_box(trace.adopt_into(&mut arena, &Goal::Single(NodeId(t))).expect("own goal"));
    }
    tracer.close();

    // GoalPotential::eval over every node, for the first trips' targets.
    let mut potential_evals = 0u64;
    if let Some(alt) = alt {
        let targets: Vec<NodeId> = probe_trips.iter().take(3).map(|t| NodeId(t.1)).collect();
        let potential = alt.goal_potential(&targets);
        let mut acc = 0.0;
        tracer.open("pathsearch.alt_potential", -1);
        for _ in 0..4 {
            for n in 0..nodes {
                acc += potential.eval(NodeId::from_index(n));
                potential_evals += 1;
            }
        }
        tracer.close();
        black_box(acc);
    }
    Probes {
        arcs_scanned,
        updated_edges,
        swept_settled,
        probe_trees: probe_trips.len() as u64,
        potential_evals,
    }
}

/// What phase B counted.
#[derive(Default)]
struct Tally {
    failed: usize,
    mismatched: usize,
    units: u64,
    pairs: u64,
    owner_routed: u64,
    guided_settled: u64,
    unguided_settled: u64,
    request_bytes: usize,
    reply_bytes: usize,
    polls: usize,
    update_rounds: u64,
    evicted: u64,
}

/// Everything that runs side by side in phase B.
struct Sides<'a> {
    /// The workload's deployment, under spans.
    primary: Deployment,
    /// The wire workload's in-process twin.
    in_process: Option<Deployment>,
    staged: Staged,
    direct: Direct,
    tracer: &'a mut Tracer,
    cal: &'a mut Calibrator,
}

impl Sides<'_> {
    /// Drive timed windows `0..windows` through every side, closing a
    /// calibration chunk every `chunk_windows`.
    fn drive(
        &mut self,
        script: &Script,
        windows: usize,
        chunk_windows: usize,
        clock: &mut HostClock,
    ) -> Tally {
        let spec = script.spec;
        let mut tally = Tally::default();
        let mut pending = 0usize;
        clock.resync();
        for t in 0..windows {
            let w = script.warmup_windows + t;
            let wi = w as i64;
            let requests: Vec<ClientRequest> = script.window_requests(w).collect();

            let run = self.primary.run_window(script, w, self.tracer);
            tally.polls += run.polls;
            let service_prints = run.per_request(script, w, 0, path_print);
            tally.failed += service_prints.iter().filter(|&&p| p == 0).count();
            drop(run);
            if let Some(twin) = &mut self.in_process {
                let run = twin.run_window(script, w, self.tracer);
                if run.per_request(script, w, 0, path_print) != service_prints {
                    tally.mismatched += 1;
                }
            }

            let (staged, direct) = (&mut self.staged, &mut self.direct);
            let units: Vec<ObfuscationUnit> = self
                .tracer
                .span("obfuscator.obfuscate_batch", wi, || {
                    staged.obfuscator.obfuscate_batch(&requests, ObfuscationMode::Independent)
                })
                .expect("the script's requests are feasible");
            let queries: Vec<ObfuscatedPathQuery> = units.iter().map(|u| u.query.clone()).collect();
            // Whichever of `process_many` and direct pathsearch runs second
            // finds the window's part of the map warm in cache; they take
            // turns, so the difference of their sums is not an order effect.
            let mut settled = 0;
            if t % 2 == 1 {
                settled =
                    self.tracer.span("pathsearch.msmd", wi, || direct.evaluate(spec, &queries));
            }
            let answers = self.tracer.span("server.process_many", wi, || {
                staged.backend.process_many(&queries, ExecutionPolicy::Sequential)
            });
            if t % 2 == 0 {
                settled =
                    self.tracer.span("pathsearch.msmd", wi, || direct.evaluate(spec, &queries));
            }
            let paths: Vec<Option<Path>> = self.tracer.span("filter.extract_path", wi, || {
                units
                    .iter()
                    .zip(&answers)
                    .map(|(u, a)| {
                        extract_path(u, &u.requests[0], a, None).expect("well-formed unit")
                    })
                    .collect()
            });
            drop(answers);
            let staged_prints: Vec<u64> =
                paths.iter().map(|p| p.as_ref().map_or(0, path_print)).collect();
            if staged_prints != service_prints {
                tally.mismatched += 1;
            }
            tally.units += units.len() as u64;
            tally.pairs += queries.iter().map(|q| q.num_pairs() as u64).sum::<u64>();
            if let Some(p) = &staged.partition {
                tally.owner_routed +=
                    queries.iter().filter(|q| p.route_explain(q).1 == RouteKind::Owner).count()
                        as u64;
            }
            if t < UNGUIDED_WINDOWS.min(windows / 2) && direct.alt.is_some() {
                tally.guided_settled += settled;
                tally.unguided_settled += self.tracer.span("pathsearch.msmd_unguided", wi, || {
                    direct.evaluate_unguided(spec, &queries)
                });
            }

            let (rq, rp) = codec_probe(&requests, &paths, wi, self.tracer);
            tally.request_bytes += rq;
            tally.reply_bytes += rp;

            if let Some(round) = script.update_after(t) {
                self.tracer.open("cache.update_weights", wi);
                tally.evicted += self.primary.update_weights(round) as u64;
                self.tracer.close();
                tally.update_rounds += 1;
                staged.backend.update_weights(round).expect("scheduled updates are valid");
                staged.obfuscator.update_weights(round).expect("scheduled updates are valid");
                direct.update_weights(round);
            }
            pending += 1;
            if pending == chunk_windows || t + 1 == windows {
                self.cal.close(self.tracer, clock);
                pending = 0;
            }
        }
        tally
    }
}

/// The traced run.
pub fn run(
    spec: &'static WorkloadSpec,
    seed: u64,
    scale: &Scale,
    alloc: &'static AllocCounters,
    out_dir: &std::path::Path,
) -> RunReport {
    // The full script, of which the first quarter is driven: a true prefix
    // of what the untraced run executes (the churn schedule's profile
    // depends on its length, so it cannot be generated short).
    let script = Script::for_run(spec, seed, scale);
    let windows = scale.traced_windows(spec).min(script.timed_windows);
    let chunk_windows = (spec.chunk_windows() / 3).max(1);
    let mut clock =
        HostClock::start(spec.ref_side, spec.ref_sweeps, spec.ref_landmarks, spec.ref_nominal_ms);
    let mut off = Tracer::off();
    let mut tracer = Tracer::on();
    let mut cal = Calibrator { factors: Vec::new() };
    let requests_total = (windows * spec.window) as f64;

    // Phase A — the service alone, spans off, under the counting
    // allocator: the untraced reference for overhead and the paths every
    // replica must reproduce.
    let mut alone = Deployment::set_up(&script, &mut off);
    let alone_start = alone.counters();
    alloc.reset_peak();
    let alloc_before = alloc.snapshot();
    let phase_a = timed_loop(&mut alone, &script, windows, chunk_windows, windows, &mut clock);
    let alloc_after = alloc.snapshot();
    let alone_end = alone.counters();
    drop(alone);

    // Set-up under spans: the deployment's own stages, then the replicas'.
    clock.resync();
    let mut primary = Deployment::set_up(&script, &mut tracer);
    let primary_start = primary.counters();
    cal.close(&mut tracer, &mut clock);
    let (staged, direct) = build_replicas(&script, &mut tracer);
    cal.close(&mut tracer, &mut clock);
    let in_process = spec.wire.then(|| Deployment::set_up_as(&script, &mut off, false));
    clock.resync();
    let probes = layer_probes(&script, direct.alt.as_deref(), &mut tracer);
    cal.close(&mut tracer, &mut clock);

    // Phase B — every window through the service, the staged pipeline, and
    // pathsearch directly.
    let staged_start: ServerStats = staged.backend.stats();
    let mut sides =
        Sides { primary, in_process, staged, direct, tracer: &mut tracer, cal: &mut cal };
    let tally = sides.drive(&script, windows, chunk_windows, &mut clock);
    let Sides { mut primary, staged, direct, .. } = sides;

    // The replicas must have done the service's work, exactly.
    let primary_end = primary.counters();
    let staged_delta = staged.backend.stats().delta_since(&staged_start);
    let service_delta = |end: Counters, start: Counters| {
        (end.settled - start.settled, end.relaxed - start.relaxed, end.trees - start.trees)
    };
    let work = service_delta(primary_end, primary_start);
    let same_work = work == service_delta(alone_end, alone_start)
        && work
            == (staged_delta.search.settled, staged_delta.search.relaxed, staged_delta.trees_grown)
        && work == (direct.stats.settled, direct.stats.relaxed, direct.trees)
        && (spec.wire
            || (primary_end.cache_hits - primary_start.cache_hits == staged_delta.tree_cache_hits));

    let trace_path = out_dir.join(format!("{}.trace.jsonl", spec.name));
    let written = tracer.write_jsonl(&trace_path);

    // ---- metrics ------------------------------------------------------
    let totals = cal.totals_us(&tracer);
    // A layer the workload never entered has no spans: 0.
    let us = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let units_f = tally.units as f64;
    let staged_us =
        us("obfuscator.obfuscate_batch") + us("server.process_many") + us("filter.extract_path");
    // The reactor-driven windows are `wire.window` spans; `window` spans
    // are in-process windows (on the wire workload: the in-process twin).
    let primary_service_us = if spec.wire { us("wire.window") } else { us("window") };
    let hits = (primary_end.cache_hits - primary_start.cache_hits) as f64;
    let misses = (primary_end.cache_misses - primary_start.cache_misses) as f64;
    let alloc_count = (alloc_after.count - alloc_before.count) as f64;
    let alloc_bytes = (alloc_after.bytes - alloc_before.bytes) as f64;
    let service_cal_s = primary_service_us / 1e6;

    let mut report = RunReport::new(spec.name, seed, scale, true);
    report.attempted = 2 * (windows * spec.window) as u64;
    report.failed = (tally.failed + phase_a.failed + tally.mismatched) as u64;
    report.correct = report.failed == 0 && same_work && written.is_ok();
    let t = Metric::timing;
    let c = Metric::counter;
    // Exact, except on the wire: the socket decides how reply bytes are
    // chunked into reads, and buffer growth follows — the counts wobble in
    // their sixth digit there.
    let exact_in_process = if spec.wire { Metric::timing } else { Metric::counter };
    report.per_layer = vec![
        t("roadnet.generate_ms", us("roadnet.generate") / 1e3, "ms"),
        t("roadnet.spatial_build_ms", us("roadnet.spatial_build") / 1e3, "ms"),
        t(
            "roadnet.arc_scan_ns_per_arc",
            per(us("roadnet.arc_scan") * 1e3, probes.arcs_scanned as f64),
            "ns",
        ),
        t(
            "roadnet.update_weights_us_per_edge",
            per(us("roadnet.update_weights"), probes.updated_edges as f64),
            "us",
        ),
        t(
            "pathsearch.sweep_ns_per_settled",
            per(us("pathsearch.sweep") * 1e3, probes.swept_settled as f64),
            "ns",
        ),
        t("pathsearch.msmd_us_per_unit", per(us("pathsearch.msmd"), units_f), "us"),
        c("pathsearch.settled_per_req", per(work.0 as f64, requests_total), "count"),
        c("pathsearch.relaxed_per_req", per(work.1 as f64, requests_total), "count"),
        c("pathsearch.trees_per_req", per(work.2 as f64, requests_total), "count"),
        t(
            "pathsearch.grow_us_per_tree",
            per(us("pathsearch.grow"), probes.probe_trees as f64),
            "us",
        ),
        t(
            "pathsearch.adopt_us_per_tree",
            per(us("pathsearch.adopt"), probes.probe_trees as f64),
            "us",
        ),
        t("pathsearch.alt_build_ms", us("pathsearch.alt_build") / 1e3, "ms"),
        c(
            "pathsearch.alt_settled_ratio",
            if tally.unguided_settled > 0 {
                tally.guided_settled as f64 / tally.unguided_settled as f64
            } else {
                1.0
            },
            "ratio",
        ),
        t(
            "pathsearch.alt_potential_ns_per_eval",
            per(us("pathsearch.alt_potential") * 1e3, probes.potential_evals as f64),
            "ns",
        ),
        t("obfuscator.us_per_req", per(us("obfuscator.obfuscate_batch"), requests_total), "us"),
        c("obfuscator.pairs_per_req", per(tally.pairs as f64, requests_total), "count"),
        t(
            "server.process_self_us_per_unit",
            per(us("server.process_many") - us("pathsearch.msmd"), units_f),
            "us",
        ),
        c("cache.hit_ratio", per(hits, hits + misses), "ratio"),
        c(
            "cache.evicted_per_update",
            per(tally.evicted as f64, tally.update_rounds as f64),
            "count",
        ),
        t(
            "cache.update_us_per_round",
            per(us("cache.update_weights"), tally.update_rounds as f64),
            "us",
        ),
        t("partition.build_ms", us("partition.build") / 1e3, "ms"),
        c("partition.owner_share", per(tally.owner_routed as f64, units_f), "ratio"),
        t("filter.us_per_req", per(us("filter.extract_path"), requests_total), "us"),
        t("gateway.submit_us_per_req", per(us("gateway.submit"), requests_total), "us"),
        t(
            "gateway.tick_self_us_per_req",
            per(us("gateway.tick") - staged_us, requests_total),
            "us",
        ),
        c(
            "gateway.reqs_per_window",
            per(
                requests_total - tally.failed as f64,
                (primary_end.windows - primary_start.windows) as f64,
            ),
            "count",
        ),
        t("net.encode_request_us", per(us("net.encode_request"), requests_total), "us"),
        t("net.decode_request_us", per(us("net.decode_request"), requests_total), "us"),
        t("net.encode_reply_us", per(us("net.encode_reply"), requests_total), "us"),
        t("net.decode_reply_us", per(us("net.decode_reply"), requests_total), "us"),
        t(
            "net.poll_once_self_us_per_req",
            if spec.wire { per(us("wire.window") - us("window"), requests_total) } else { 0.0 },
            "us",
        ),
        c("net.request_bytes_per_req", per(tally.request_bytes as f64, requests_total), "B"),
        t("net.reply_bytes_per_req", per(tally.reply_bytes as f64, requests_total), "B"),
        t(
            "net.poll_iterations_per_window",
            if spec.wire { per(tally.polls as f64, windows as f64) } else { 0.0 },
            "count",
        ),
        exact_in_process("alloc.count_per_req", per(alloc_count, requests_total), "count"),
        exact_in_process("alloc.bytes_per_req", per(alloc_bytes, requests_total), "B"),
        exact_in_process(
            "alloc.peak_live_mb",
            alloc_after.peak_live as f64 / (1024.0 * 1024.0),
            "MB",
        ),
        t("trace.overhead_share", service_cal_s / phase_a.calibrated_s - 1.0, "ratio"),
        t("host.factor_p50", median(clock.factors()), "x"),
        t("host.factor_max", quantile(clock.factors(), 1.0), "x"),
    ];
    report.notes = vec![
        format!("{}: {}", spec.name, spec.about),
        format!(
            "traced run: first {windows} of {} timed windows; service, staged pipeline and direct \
             pathsearch side by side; {} spans",
            script.timed_windows,
            tracer.spans().len()
        ),
        format!(
            "staged replay vs service: paths {}, ServerStats {}",
            if tally.mismatched == 0 {
                "identical".to_string()
            } else {
                format!("{} windows DIFFER", tally.mismatched)
            },
            if same_work { "identical" } else { "DIFFER" }
        ),
        format!(
            "driver self time inside service windows (window span minus its children): {:.3} us/req",
            per(
                cal.self_us(&tracer, if spec.wire { "wire.window" } else { "window" }),
                requests_total
            )
        ),
        match &written {
            Ok(()) => format!("trace written to {}", trace_path.display()),
            Err(e) => format!("trace NOT written to {}: {e}", trace_path.display()),
        },
        "0 means the workload does not exercise that layer (no ALT, no partition, no churn, no socket)"
            .to_string(),
    ];
    report
}

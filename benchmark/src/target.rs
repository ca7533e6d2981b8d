//! The system under test, set up cold and driven one window at a time.
//!
//! Closed loop, lockstep, one thread: a window's requests are all
//! submitted, the gateway is ticked (or the reactor polled) until every
//! request has its terminal answer, and only then does the next window
//! start. The in-process gateway clock is an argument — one simulated
//! second per window — so no wall clock reaches that path. The wire path
//! runs `NetServer::poll_once` and one non-blocking loopback `TcpStream`
//! from the same thread.

use crate::script::Script;
use crate::span::Tracer;
use crate::spec::{NEVER, WorkloadSpec};
use opaque::{
    AdmissionPolicy, BatchPolicy, BatchReport, ClientRequest, DefaultBackend, DirectionsBackend,
    ExecutionPolicy, ObfuscationMode, OpaqueService, Priority, RequestMsg, ServiceBuilder,
    ServiceEvent,
};
use opaque_net::frame::encode_frame;
use opaque_net::wire::{decode_message, encode_message};
use opaque_net::{
    DEFAULT_MAX_FRAME, FrameDecoder, NetServer, ServerConfig, WireReply, WireRequest,
};
use pathsearch::Path;
use roadnet::{EdgeId, RoadNetwork, SpatialIndex};
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Reactor iterations without a single new reply after which a window's
/// outstanding requests are declared missing (and counted as failed).
const STALL_POLLS: usize = 200_000;

/// The deployment a workload asks for, ready for a map.
pub fn service_builder(spec: &WorkloadSpec, seed: u64) -> ServiceBuilder {
    ServiceBuilder::new()
        .seed(seed)
        .fake_selection(spec.fakes)
        .sharing_policy(spec.sharing)
        .obfuscation_mode(ObfuscationMode::Independent)
        .execution_policy(ExecutionPolicy::Sequential)
        .verify_results(false)
        .shards(spec.shards)
        .partition_policy(spec.partition)
        .cache_policy(spec.cache)
        .search_heuristic(spec.heuristic)
        .batch_policy(BatchPolicy { max_batch: spec.window, max_delay: NEVER })
        .admission_policy(AdmissionPolicy { queue_depth: 4 * spec.window, deadline: None })
}

/// Counters that must read the same on every run of one seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Nodes settled by the backend.
    pub settled: u64,
    /// Arcs relaxed by the backend.
    pub relaxed: u64,
    /// Spanning trees grown (or adopted).
    pub trees: u64,
    /// Trees adopted from a shard cache (in-process targets only: batch
    /// reports keep cache counters off the wire).
    pub cache_hits: u64,
    /// Trees grown after a cache lookup missed.
    pub cache_misses: u64,
    /// Obfuscated pairs evaluated (Σ|S|·|T|).
    pub pairs: u64,
    /// Windows flushed.
    pub windows: u64,
    /// Hop-1 request bytes: frame bytes on the wire path, `RequestMsg`
    /// payload bytes in process.
    pub request_bytes: u64,
}

/// One request's terminal answer.
pub struct Terminal {
    /// The client it answers.
    pub client: u32,
    /// The delivered path; `None` for any terminal that is not a result.
    pub path: Option<Path>,
}

/// What one window did.
pub struct WindowRun {
    /// First submit / first byte written → last terminal event / reply
    /// decoded, in seconds of this host (uncalibrated).
    pub raw_s: f64,
    /// Terminal answers received, in arrival order.
    pub terminals: Vec<Terminal>,
    /// Reactor iterations (wire path; 1 in process).
    pub polls: usize,
    /// Reply bytes read off the socket (wire path).
    pub reply_bytes: usize,
}

impl WindowRun {
    /// Requests that got their path.
    pub fn delivered(&self) -> usize {
        self.terminals.iter().filter(|t| t.path.is_some()).count()
    }

    /// `f` of each delivered path by request position within window `w`
    /// (`none` where no path came back).
    pub fn per_request<T: Clone>(
        &self,
        script: &Script,
        w: usize,
        none: T,
        f: impl Fn(&Path) -> T,
    ) -> Vec<T> {
        let first = (w * script.spec.window) as u32;
        let mut out = vec![none; script.spec.window];
        for t in &self.terminals {
            if let (Some(path), Some(slot)) =
                (&t.path, out.get_mut(t.client.wrapping_sub(first) as usize))
            {
                *slot = f(path);
            }
        }
        out
    }
}

/// The hop-1 message a client puts on the wire for `r`.
pub fn wire_request(r: &ClientRequest) -> WireRequest {
    WireRequest {
        request: RequestMsg { client: r.client, query: r.query, protection: r.protection },
        priority: Priority::Interactive,
    }
}

/// Serialize `message` and append it to `out` as one frame.
pub fn frame_into<M: serde::Serialize>(message: &M, out: &mut Vec<u8>) {
    let payload = encode_message(message).expect("wire messages serialize");
    encode_frame(&payload, out).expect("wire messages frame");
}

/// The wire deployment: reactor, one client socket, its decoder.
pub struct WireTarget {
    server: NetServer,
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    reports_folded: usize,
}

/// A set-up deployment.
pub enum Target {
    /// `OpaqueService` driven through `submit` / `tick`.
    InProcess(Box<OpaqueService<DefaultBackend>>),
    /// `NetServer` driven through `poll_once` and a loopback socket.
    Wire(Box<WireTarget>),
}

/// A target plus the counters only the driver can keep.
pub struct Deployment {
    target: Target,
    counters: Counters,
    requests: Vec<ClientRequest>,
}

impl Deployment {
    /// Cold set-up, everything `setup_s` covers: map generation, the
    /// spatial index, `ServiceBuilder::build` (ALT tables, partition, arena
    /// pre-allocation), bind + connect on the wire path, and the script's
    /// warm-up windows.
    pub fn set_up(script: &Script, tracer: &mut Tracer) -> Deployment {
        Deployment::set_up_as(script, tracer, script.spec.wire)
    }

    /// [`Deployment::set_up`] with the transport chosen by the caller: the
    /// traced run also drives the wire workload's script in process, to
    /// tell the reactor's share from the gateway's.
    pub fn set_up_as(script: &Script, tracer: &mut Tracer, wire: bool) -> Deployment {
        let spec = script.spec;
        let map: RoadNetwork =
            tracer.span("roadnet.generate", -1, || spec.map.generate(script.map_seed));
        tracer.span("roadnet.spatial_build", -1, || {
            black_box(SpatialIndex::build(&map));
        });
        let service = tracer.span("service.build", -1, || {
            service_builder(spec, script.seed).map(map).build().expect("spec deployments build")
        });
        let target = if wire {
            tracer.span("net.bind_connect", -1, || {
                let config = ServerConfig { poll_timeout_ms: 0, ..ServerConfig::default() };
                let server =
                    NetServer::bind("127.0.0.1:0", service, config).expect("loopback bind");
                let addr = server.local_addr().expect("bound address");
                let stream = TcpStream::connect(addr).expect("loopback connect");
                stream.set_nodelay(true).expect("nodelay");
                stream.set_nonblocking(true).expect("nonblocking");
                Target::Wire(Box::new(WireTarget {
                    server,
                    stream,
                    decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
                    out: Vec::new(),
                    reports_folded: 0,
                }))
            })
        } else {
            Target::InProcess(Box::new(service))
        };
        let mut deployment = Deployment {
            target,
            counters: Counters::default(),
            requests: Vec::with_capacity(spec.window),
        };
        tracer.open("warmup", -1);
        for w in 0..script.warmup_windows {
            let run = deployment.run_window(script, w, &mut Tracer::off());
            assert_eq!(run.delivered(), spec.window, "warm-up window {w} lost requests");
        }
        tracer.close();
        deployment
    }

    /// Drive window `w` of the script (warm-up windows first) to completion.
    pub fn run_window(&mut self, script: &Script, w: usize, tracer: &mut Tracer) -> WindowRun {
        self.requests.clear();
        self.requests.extend(script.window_requests(w));
        let run = match &mut self.target {
            Target::InProcess(service) => {
                in_process_window(service, &self.requests, w, &mut self.counters, tracer)
            }
            Target::Wire(wire) => wire.window(&self.requests, w, &mut self.counters, tracer),
        };
        self.counters.windows += 1;
        run
    }

    /// Apply one weight-update round (in-process targets; the wire
    /// workload has no churn). Returns cached trees evicted fleet-wide.
    pub fn update_weights(&mut self, round: &[(EdgeId, f64)]) -> usize {
        match &mut self.target {
            Target::InProcess(service) => {
                let cached = |s: &OpaqueService<DefaultBackend>| -> usize {
                    s.backend()
                        .shards()
                        .iter()
                        .filter_map(|d| d.tree_cache())
                        .map(|c| c.len())
                        .sum()
                };
                let before = cached(service);
                service.update_weights(round).expect("scheduled updates are valid");
                before - cached(service)
            }
            Target::Wire(_) => panic!("the wire workload schedules no weight updates"),
        }
    }

    /// The deterministic counters so far.
    pub fn counters(&mut self) -> Counters {
        match &mut self.target {
            Target::InProcess(service) => {
                let s = service.backend().stats();
                self.counters.settled = s.search.settled;
                self.counters.relaxed = s.search.relaxed;
                self.counters.trees = s.trees_grown;
                self.counters.cache_hits = s.tree_cache_hits;
                self.counters.cache_misses = s.tree_cache_misses;
                self.counters.pairs = s.pairs_evaluated;
            }
            Target::Wire(wire) => {
                // The reactor keeps the service to itself; its serialized
                // batch reports carry the same per-window deltas.
                for json in &wire.server.reports()[wire.reports_folded..] {
                    let report: BatchReport =
                        serde_json::from_str(json).expect("reports round-trip");
                    self.counters.settled += report.server_settled;
                    self.counters.relaxed += report.server_relaxed;
                    self.counters.trees += report.server_trees_grown;
                    self.counters.pairs += report.total_pairs;
                }
                wire.reports_folded = wire.server.reports().len();
            }
        }
        self.counters
    }
}

fn in_process_window(
    service: &mut OpaqueService<DefaultBackend>,
    requests: &[ClientRequest],
    w: usize,
    counters: &mut Counters,
    tracer: &mut Tracer,
) -> WindowRun {
    let now = w as f64;
    let start = Instant::now();
    tracer.open("window", w as i64);
    tracer.open("gateway.submit", w as i64);
    for request in requests {
        // A door rejection earns no terminal event: the request simply
        // never delivers, which is how the caller counts it failed.
        let _ = service.submit(*request, now);
    }
    tracer.close();
    tracer.open("gateway.tick", w as i64);
    let events = service.tick(now).expect("no batch-fatal error on a valid script");
    tracer.close();
    tracer.close();
    let raw_s = start.elapsed().as_secs_f64();

    let mut terminals = Vec::with_capacity(requests.len());
    for event in events {
        match event {
            ServiceEvent::ResponseReady { client, result, .. } => {
                terminals.push(Terminal { client: client.0, path: Some(result.path) });
            }
            ServiceEvent::BatchFlushed(report) => {
                counters.request_bytes += report.traffic.requests_bytes;
            }
            ServiceEvent::Unreachable { client, .. }
            | ServiceEvent::Rejected { client, .. }
            | ServiceEvent::Cancelled { client, .. } => {
                terminals.push(Terminal { client: client.0, path: None });
            }
        }
    }
    WindowRun { raw_s, terminals, polls: 1, reply_bytes: 0 }
}

impl WireTarget {
    fn window(
        &mut self,
        requests: &[ClientRequest],
        w: usize,
        counters: &mut Counters,
        tracer: &mut Tracer,
    ) -> WindowRun {
        // The client's own encoding happens before the clock starts: the
        // round trip is first byte written → last reply decoded.
        tracer.open("client.encode_request", w as i64);
        self.out.clear();
        for r in requests {
            frame_into(&wire_request(r), &mut self.out);
        }
        tracer.close();
        counters.request_bytes += self.out.len() as u64;

        let mut terminals = Vec::with_capacity(requests.len());
        let (mut written, mut polls, mut idle_polls, mut reply_bytes) = (0, 0, 0, 0);
        let mut buf = [0u8; 16 * 1024];
        let start = Instant::now();
        tracer.open("wire.window", w as i64);
        while terminals.len() < requests.len() && idle_polls < STALL_POLLS {
            if written < self.out.len() {
                match self.stream.write(&self.out[written..]) {
                    Ok(n) => written += n,
                    Err(e)
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                    Err(e) => panic!("loopback write failed: {e}"),
                }
            }
            tracer.open("net.poll_once", w as i64);
            self.server.poll_once().expect("listener stays healthy");
            tracer.close();
            polls += 1;

            tracer.open("client.read", w as i64);
            loop {
                match self.stream.read(&mut buf) {
                    Ok(0) => panic!("server closed the benchmark connection"),
                    Ok(n) => {
                        reply_bytes += n;
                        self.decoder.push(&buf[..n]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => panic!("loopback read failed: {e}"),
                }
            }
            tracer.close();

            tracer.open("client.decode_reply", w as i64);
            let before = terminals.len();
            while let Some(payload) = self.decoder.next_frame().expect("server frames are valid") {
                match decode_message::<WireReply>(&payload).expect("server replies decode") {
                    WireReply::Result { result, .. } => terminals
                        .push(Terminal { client: result.client.0, path: Some(result.path) }),
                    WireReply::Error { reason } => panic!("server reported: {reason}"),
                    other => terminals.push(Terminal {
                        client: other.client().expect("terminal replies name a client").0,
                        path: None,
                    }),
                }
            }
            tracer.close();
            idle_polls = if terminals.len() == before { idle_polls + 1 } else { 0 };
        }
        tracer.close();
        let raw_s = start.elapsed().as_secs_f64();
        WindowRun { raw_s, terminals, polls, reply_bytes }
    }
}

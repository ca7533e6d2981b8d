//! The network front door: a single-threaded reactor that accepts
//! framed connections and drives them through the PR 5 event gateway.
//!
//! One [`NetServer::poll_once`] iteration is the whole pipeline:
//!
//! 1. poll(2) over the listener and every live connection (read
//!    interest only while the connection is under its outbound cap —
//!    backpressure propagates to the socket).
//! 2. Accept new connections; read frames from readable ones; decode
//!    [`WireRequest`]s and submit them. `Rejected` answers immediately
//!    with `ticket: None`; `Accepted`/`Deferred` record a
//!    ticket → connection route.
//! 3. Tick the gateway and translate its ordered event stream into
//!    [`WireReply`] frames routed back over the recorded tickets.
//!    [`opaque::ServiceEvent::BatchFlushed`] reports stay server-side
//!    (see [`NetServer::reports`]) — they aggregate other clients'
//!    requests and are the determinism oracle, not client data.
//! 4. Flush every connection with bytes waiting; reap closed ones.
//!
//! Failure domains stay separate: a protocol error drains and closes
//! *one* connection (its queued batches still run); a batch-fatal
//! gateway error discards *one* window (connections stay up; the next
//! tick emits the waiting acks and answers the window's own requests with
//! `Rejected`, and [`NetStats::batch_failures`] counts it); a reply
//! whose connection died is dropped and counted
//! ([`NetStats::dropped_replies`]), never redirected.

use crate::conn::Connection;
use crate::error::Result;
use crate::reactor::{POLLIN, POLLOUT, PollFd, poll};
use crate::wire::{WireReply, WireRequest, decode_message};
use opaque::{ClientRequest, DefaultBackend, OpaqueService, ServiceEvent, SubmitOutcome, Ticket};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Outbound bytes buffered per connection before its reads pause.
const OUTBOUND_CAP: usize = 256 * 1024;

/// Rounds [`NetServer::drain`] waits, once the queue is empty, for peers
/// to read the replies still buffered for them.
const DRAIN_WRITE_ROUNDS: usize = 64;

/// Tunables of the wire layer (the gateway has its own policies).
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// poll(2) timeout — the latency floor for `max_delay` batch windows.
    pub poll_timeout_ms: i32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { poll_timeout_ms: 10 }
    }
}

/// Wire-layer counters, separate from the gateway's own accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted over the lifetime of the server.
    pub accepted_conns: u64,
    /// Request frames decoded.
    pub frames_in: u64,
    /// Requests the gateway accepted into the current window.
    pub submitted: u64,
    /// Requests the gateway deferred to the next window.
    pub deferred: u64,
    /// Requests refused at the door (no ticket ever issued).
    pub rejected_at_door: u64,
    /// Terminal replies queued onto live connections.
    pub replies_sent: u64,
    /// Terminal replies whose connection had closed — the
    /// connection-level failure domain (the batch itself succeeded).
    pub dropped_replies: u64,
    /// Batch windows flushed.
    pub batches_flushed: u64,
    /// Batch-fatal gateway errors (window discarded; its requests are
    /// answered `Rejected` on the next tick).
    pub batch_failures: u64,
}

/// The framed TCP server over an [`OpaqueService`].
pub struct NetServer {
    listener: TcpListener,
    service: OpaqueService<DefaultBackend>,
    config: ServerConfig,
    conns: HashMap<u64, Connection>,
    next_conn: u64,
    /// Ticket → connection, recorded at submit, resolved at the
    /// terminal event.
    routes: HashMap<Ticket, u64>,
    /// Serialized [`opaque::BatchReport`]s in flush order — the bytes
    /// the loopback determinism test compares — each held at its length.
    reports: Vec<String>,
    stats: NetStats,
    started: Instant,
    /// This iteration's poll(2) registrations — the listener, then every
    /// watched connection — cleared and refilled by each
    /// [`NetServer::poll_once`] rather than allocated by it.
    fds: Vec<PollFd>,
    /// The connection behind `fds[i + 1]`.
    ids: Vec<u64>,
}

impl NetServer {
    /// Bind the listener and adopt the service.
    ///
    /// # Errors
    /// Socket errors from bind.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: OpaqueService<DefaultBackend>,
        config: ServerConfig,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            listener,
            service,
            config,
            conns: HashMap::new(),
            next_conn: 0,
            routes: HashMap::new(),
            reports: Vec::new(),
            stats: NetStats::default(),
            started: Instant::now(),
            fds: Vec::new(),
            ids: Vec::new(),
        })
    }

    /// The bound address (port 0 resolves here).
    ///
    /// # Errors
    /// Socket errors querying the listener.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// The gateway clock: seconds since the server started. Batch
    /// report bytes are clock-independent (reports carry no timing), so
    /// wall time only drives `max_delay` windows and `waited` fields.
    pub fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Serialized batch reports, in flush order. Each is kept at exactly
    /// its length, so a long-running server holds its reports' bytes and
    /// no serializer slack.
    pub fn reports(&self) -> &[String] {
        &self.reports
    }

    /// Wire-layer counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// One reactor iteration; see the module docs for the pipeline.
    ///
    /// # Errors
    /// Listener-level socket failures. Per-connection and per-batch
    /// failures are contained and counted, never propagated.
    pub fn poll_once(&mut self) -> Result<()> {
        // Register interest: listener first, then connections in a
        // stable order alongside their ids.
        self.fds.clear();
        self.ids.clear();
        self.fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        for (&id, conn) in &self.conns {
            let mut events = 0i16;
            if conn.wants_read() {
                events |= POLLIN;
            }
            if conn.wants_write() {
                events |= POLLOUT;
            }
            if events != 0 {
                self.fds.push(PollFd::new(conn.stream().as_raw_fd(), events));
                self.ids.push(id);
            }
        }
        poll(&mut self.fds, self.config.poll_timeout_ms)?;

        if self.fds.first().is_some_and(PollFd::readable) {
            self.accept_ready()?;
        }
        for i in 0..self.ids.len() {
            if let Some((id, _)) = self.watched(i).filter(|(_, fd)| fd.readable()) {
                self.read_conn(id);
            }
        }

        self.pump_gateway();
        // Every connection with bytes waiting gets a flush attempt, not
        // only those poll(2) saw writable: replies queued by this
        // iteration's events are pending too, and loopback sockets are
        // almost always writable.
        self.flush_pending();

        self.conns.retain(|_, c| !c.is_closed());
        Ok(())
    }

    /// Run the reactor until `stop` is set, then [`NetServer::drain`].
    ///
    /// # Errors
    /// Listener-level failures from [`NetServer::poll_once`].
    pub fn run_until(&mut self, stop: &AtomicBool) -> Result<()> {
        while !stop.load(Ordering::Acquire) {
            self.poll_once()?;
        }
        self.drain()
    }

    /// Flush the gateway's pending work and push the replies out, so a
    /// shutdown honors the one-terminal-reply-per-request contract.
    ///
    /// Every window removes at least one queued request, so flushing
    /// until the queue is empty ends; once it is, at most
    /// `DRAIN_WRITE_ROUNDS` (64) more rounds wait for peers to read what is
    /// queued for them.
    ///
    /// # Errors
    /// Listener-level failures; batch-fatal errors are counted and the
    /// failed window's rejections collected by the next round.
    pub fn drain(&mut self) -> Result<()> {
        let mut write_rounds = 0;
        while write_rounds < DRAIN_WRITE_ROUNDS {
            let now = self.now();
            match self.service.flush(now) {
                Ok(events) => self.route_events(events),
                Err(_) => {
                    // The gateway parked this window's rejections for
                    // its next flush: not quiet yet, whatever is pending.
                    self.stats.batch_failures += 1;
                    continue;
                }
            }
            self.flush_pending();
            self.conns.retain(|_, c| !c.is_closed());
            if self.service.pending() > 0 {
                continue;
            }
            if self.conns.values().all(|c| !c.wants_write()) {
                break;
            }
            write_rounds += 1;
        }
        Ok(())
    }

    fn accept_ready(&mut self) -> Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    match Connection::new(stream, OUTBOUND_CAP) {
                        Ok(conn) => {
                            let id = self.next_conn;
                            self.next_conn += 1;
                            self.conns.insert(id, conn);
                            self.stats.accepted_conns += 1;
                        }
                        // A socket that failed nonblocking setup is
                        // dropped; the peer sees a reset.
                        Err(_) => continue,
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn read_conn(&mut self, id: u64) {
        let now = self.now();
        let conn = match self.conns.get_mut(&id) {
            Some(c) => c,
            None => return,
        };
        let frames = match conn.read_frames() {
            Ok(frames) => frames,
            Err(err) => {
                conn.begin_drain(&err);
                return;
            }
        };
        for payload in frames {
            self.stats.frames_in += 1;
            let msg: WireRequest = match decode_message(&payload) {
                Ok(msg) => msg,
                Err(err) => {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.begin_drain(&err);
                    }
                    return;
                }
            };
            self.submit(id, msg, now);
        }
    }

    fn submit(&mut self, id: u64, msg: WireRequest, now: f64) {
        let client = msg.request.client;
        let request = ClientRequest::new(client, msg.request.query, msg.request.protection);
        let outcome = self.service.submit_with_priority(request, msg.priority, now);
        match outcome {
            SubmitOutcome::Accepted(ticket) => {
                self.stats.submitted += 1;
                self.routes.insert(ticket, id);
            }
            SubmitOutcome::Deferred(ticket) => {
                self.stats.deferred += 1;
                self.routes.insert(ticket, id);
            }
            SubmitOutcome::Rejected(reason) => {
                self.stats.rejected_at_door += 1;
                self.deliver(
                    id,
                    &WireReply::Rejected { ticket: None, client, reason, waited: 0.0 },
                );
            }
        }
    }

    fn pump_gateway(&mut self) {
        let now = self.now();
        match self.service.tick(now) {
            Ok(events) => self.route_events(events),
            Err(_) => {
                // Batch-fatal: the window is discarded; the gateway owes
                // its tickets a rejection and emits them, with the acks
                // still waiting, on the next tick. Connections are
                // unaffected.
                self.stats.batch_failures += 1;
            }
        }
    }

    fn route_events(&mut self, events: Vec<ServiceEvent>) {
        for event in events {
            let (ticket, reply) = match event {
                ServiceEvent::BatchFlushed(report) => {
                    // A report that fails to serialize is a harness
                    // fault, not a connection fault: count it with the
                    // batch failures and keep serving. Reports are
                    // plain data and round-trip by construction, so
                    // this arm is dead in practice — but asserting that
                    // here would put a process abort on the hot path.
                    match serde_json::to_string(&report) {
                        Ok(mut json) => {
                            self.stats.batches_flushed += 1;
                            // A kept report costs its length, not the
                            // buffer the serializer grew to write it.
                            json.shrink_to_fit();
                            self.reports.push(json);
                        }
                        Err(_) => self.stats.batch_failures += 1,
                    }
                    continue;
                }
                ServiceEvent::ResponseReady { ticket, result, waited, .. } => {
                    (ticket, WireReply::Result { ticket, result, waited })
                }
                ServiceEvent::Unreachable { ticket, client, waited } => {
                    (ticket, WireReply::Unreachable { ticket, client, waited })
                }
                ServiceEvent::Rejected { ticket, client, reason, waited } => {
                    (ticket, WireReply::Rejected { ticket: Some(ticket), client, reason, waited })
                }
                ServiceEvent::Cancelled { ticket, client } => {
                    (ticket, WireReply::Cancelled { ticket, client })
                }
            };
            match self.routes.remove(&ticket) {
                Some(id) if self.conns.contains_key(&id) => self.deliver(id, &reply),
                // The connection died while its request was in flight —
                // a connection-level failure, distinct from batch
                // failure: the batch ran, only delivery was impossible.
                _ => self.stats.dropped_replies += 1,
            }
        }
    }

    fn deliver(&mut self, id: u64, reply: &WireReply) {
        if let Some(conn) = self.conns.get_mut(&id) {
            if conn.is_closed() {
                self.stats.dropped_replies += 1;
                return;
            }
            match conn.queue(reply) {
                Ok(()) => self.stats.replies_sent += 1,
                // An unframeable reply is a server-side failure: the
                // client must not hang waiting, so the connection drains
                // with the typed notice instead of silently eating it.
                Err(err) => {
                    self.stats.dropped_replies += 1;
                    conn.begin_drain(&err);
                }
            }
        } else {
            self.stats.dropped_replies += 1;
        }
    }

    /// The `i`-th watched connection and what poll(2) reported for it:
    /// `fds[0]` is the listener, so `ids[i]` pairs with `fds[i + 1]` by
    /// construction in [`NetServer::poll_once`].
    fn watched(&self, i: usize) -> Option<(u64, PollFd)> {
        Some((*self.ids.get(i)?, *self.fds.get(i + 1)?))
    }

    /// Flush every connection with bytes waiting. Flush errors mark the
    /// connection closed; the reaper removes it and later replies count
    /// as dropped.
    fn flush_pending(&mut self) {
        for conn in self.conns.values_mut().filter(|c| c.wants_write()) {
            let _ = conn.flush();
        }
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("conns", &self.conns.len())
            .field("routes", &self.routes.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::framed;
    use crate::frame::{DEFAULT_MAX_FRAME, FrameDecoder};
    use crate::wire::encode_message;
    use opaque::{
        BatchPolicy, ClientId, DirectionsServer, PathQuery, Priority, ProtectionSettings,
        RejectReason, RequestMsg, ServiceBuilder, ServiceConfig, ShardedBackend,
    };
    use roadnet::generators::{GridConfig, grid_network};
    use roadnet::{EdgeId, NodeId};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    fn server(max_batch: usize) -> NetServer {
        let map =
            grid_network(&GridConfig { width: 12, height: 12, seed: 5, ..Default::default() })
                .unwrap();
        let service = ServiceBuilder::new()
            .map(map)
            .seed(41)
            .batch_policy(BatchPolicy { max_batch, max_delay: 3600.0 })
            .build()
            .unwrap();
        NetServer::bind("127.0.0.1:0", service, ServerConfig::default()).unwrap()
    }

    fn wire_request(client: u32, s: u32, t: u32) -> Vec<u8> {
        let msg = WireRequest {
            request: RequestMsg {
                client: ClientId(client),
                query: PathQuery::new(NodeId(s), NodeId(t)),
                protection: ProtectionSettings::new(2, 2).unwrap(),
            },
            priority: Priority::Interactive,
        };
        framed(&encode_message(&msg).unwrap())
    }

    fn read_replies(stream: &mut TcpStream, n: usize) -> Vec<WireReply> {
        stream.set_nonblocking(false).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        while out.len() < n {
            let got = stream.read(&mut buf).unwrap();
            assert!(got > 0, "server closed early with {} of {n} replies", out.len());
            dec.push(&buf[..got]);
            while let Some(p) = dec.next_frame().unwrap() {
                out.push(decode_message(&p).unwrap());
            }
        }
        out
    }

    /// Drive the server from this thread while a raw client speaks the
    /// protocol — the full request → gateway → reply path in one test.
    #[test]
    fn end_to_end_request_reply_over_loopback() {
        let mut srv = server(2);
        let addr = srv.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&wire_request(1, 0, 143)).unwrap();
        client.write_all(&wire_request(2, 11, 132)).unwrap();

        let reader = std::thread::spawn(move || read_replies(&mut client, 2));
        for _ in 0..3_000 {
            srv.poll_once().unwrap();
            if srv.stats().replies_sent == 2 {
                break;
            }
        }
        let replies = reader.join().unwrap();
        assert_eq!(replies.len(), 2);
        for reply in &replies {
            match reply {
                WireReply::Result { result, .. } => {
                    assert!(matches!(result.client, ClientId(1) | ClientId(2)));
                }
                other => panic!("expected Result, got {other:?}"),
            }
        }
        let stats = srv.stats();
        assert_eq!(stats.frames_in, 2);
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.batches_flushed, 1);
        assert_eq!(stats.dropped_replies, 0);
        assert_eq!(srv.reports().len(), 1);
        assert!(srv.reports()[0].contains("\"num_requests\""), "{}", srv.reports()[0]);
    }

    #[test]
    fn a_kept_report_costs_its_length() {
        let mut srv = server(2);
        let mut client = TcpStream::connect(srv.local_addr().unwrap()).unwrap();
        let frames: Vec<u8> = (0..6).flat_map(|i| wire_request(i, i * 11, 143 - i * 13)).collect();
        client.write_all(&frames).unwrap();
        let reader = std::thread::spawn(move || read_replies(&mut client, 6));
        for _ in 0..3_000 {
            srv.poll_once().unwrap();
            if srv.stats().replies_sent == 6 {
                break;
            }
        }
        assert_eq!(reader.join().unwrap().len(), 6);
        assert_eq!(srv.reports().len(), 3, "three windows of two");
        for report in srv.reports() {
            assert_eq!(report.capacity(), report.len(), "{report}");
        }
    }

    #[test]
    fn a_failed_window_still_answers_its_clients() {
        // A dishonest fleet: it serves a map whose every road is twice as
        // long as on the obfuscator's copy, so with verification on every
        // delivered path fails its re-walk and the window is batch-fatal.
        let map =
            grid_network(&GridConfig { width: 12, height: 12, seed: 5, ..Default::default() })
                .unwrap();
        let mut longer = map.clone();
        let doubled: Vec<(EdgeId, f64)> = (0..map.num_edges())
            .map(|i| (EdgeId::from_index(i), 2.0 * map.edge(EdgeId::from_index(i)).weight))
            .collect();
        longer.update_weights(&doubled).unwrap();
        let fleet = vec![DirectionsServer::new(Arc::new(longer), ServiceConfig::default().sharing)];
        let service = ServiceBuilder::new()
            .map(map)
            .verify_results(true)
            .batch_policy(BatchPolicy { max_batch: 2, max_delay: 3600.0 })
            .build_with_backend(ShardedBackend::new(fleet).unwrap())
            .unwrap();
        let mut srv = NetServer::bind("127.0.0.1:0", service, ServerConfig::default()).unwrap();
        let mut client = TcpStream::connect(srv.local_addr().unwrap()).unwrap();
        client.write_all(&wire_request(1, 0, 143)).unwrap();
        client.write_all(&wire_request(2, 11, 132)).unwrap();

        let reader = std::thread::spawn(move || read_replies(&mut client, 2));
        for _ in 0..3_000 {
            srv.poll_once().unwrap();
            if srv.stats().replies_sent == 2 {
                break;
            }
        }
        for reply in reader.join().unwrap() {
            match reply {
                WireReply::Rejected {
                    ticket: Some(_),
                    reason: RejectReason::Infeasible { reason },
                    ..
                } => assert!(reason.contains("failed verification"), "{reason}"),
                other => panic!("expected the failed window's rejection, got {other:?}"),
            }
        }
        assert_eq!(srv.stats().batch_failures, 1);
        assert_eq!(srv.stats().batches_flushed, 0);
        assert!(srv.routes.is_empty(), "every ticket resolved: {:?}", srv.routes);
    }

    #[test]
    fn drain_answers_every_same_client_request() {
        // One window serves one request per client id, and a peer picks
        // its own ids: 100 same-id requests need 100 windows to drain.
        let map =
            grid_network(&GridConfig { width: 12, height: 12, seed: 5, ..Default::default() })
                .unwrap();
        let service = ServiceBuilder::new()
            .map(map)
            .seed(41)
            .batch_policy(BatchPolicy { max_batch: 1024, max_delay: 1e9 })
            .build()
            .unwrap();
        let mut srv = NetServer::bind("127.0.0.1:0", service, ServerConfig::default()).unwrap();
        let mut client = TcpStream::connect(srv.local_addr().unwrap()).unwrap();
        let frames: Vec<u8> = (0..100).flat_map(|i| wire_request(7, i, 143 - i)).collect();
        client.write_all(&frames).unwrap();
        for _ in 0..3_000 {
            srv.poll_once().unwrap();
            if srv.stats().frames_in == 100 {
                break;
            }
        }
        assert_eq!(srv.stats().frames_in, 100);
        srv.drain().unwrap();
        assert_eq!(srv.stats().replies_sent, 100, "{:?}", srv.stats());
        assert_eq!(srv.service.pending(), 0);
    }

    #[test]
    fn door_rejection_answers_without_a_ticket() {
        let mut srv = server(64);
        let addr = srv.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        // f_s = 0 bypasses ProtectionSettings::new via Deserialize; the
        // gateway must refuse it with InvalidProtection over the wire.
        let msg = WireRequest {
            request: RequestMsg {
                client: ClientId(9),
                query: PathQuery::new(NodeId(0), NodeId(5)),
                protection: serde_json::from_str("{\"f_s\":0,\"f_t\":2}").unwrap(),
            },
            priority: Priority::Interactive,
        };
        client.write_all(&framed(&encode_message(&msg).unwrap())).unwrap();
        let reader = std::thread::spawn(move || read_replies(&mut client, 1));
        for _ in 0..3_000 {
            srv.poll_once().unwrap();
            if srv.stats().rejected_at_door == 1 && srv.stats().replies_sent == 1 {
                break;
            }
        }
        let replies = reader.join().unwrap();
        match &replies[0] {
            WireReply::Rejected { ticket: None, client: ClientId(9), waited, .. } => {
                assert_eq!(*waited, 0.0);
            }
            other => panic!("expected door rejection, got {other:?}"),
        }
        assert_eq!(srv.stats().submitted, 0);
    }

    #[test]
    fn malformed_frame_draining_closes_only_that_connection() {
        // Three hostile frames, one per run: a bad version byte, a nesting
        // flood aimed at the JSON parser's recursion, and a well-formed
        // request whose client id is not an integer.
        let mut bad_version = framed(b"{}");
        bad_version[4] = 0xEE;
        let nested = framed(&vec![b'['; 100_000]);
        let fractional_id = framed(
            br#"{"request":{"client":1.9,"query":{"source":0,"destination":5},"protection":{"f_s":2,"f_t":2}},"priority":"Interactive"}"#,
        );
        for evil in [bad_version, nested, fractional_id] {
            let mut srv = server(1);
            let addr = srv.local_addr().unwrap();
            let mut bad = TcpStream::connect(addr).unwrap();
            let mut good = TcpStream::connect(addr).unwrap();

            let bad_peer = std::thread::spawn(move || {
                bad.write_all(&evil).unwrap();
                let mut bytes = Vec::new();
                bad.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
                bad.read_to_end(&mut bytes).unwrap();
                bytes
            });

            // The good client's request must still be served.
            good.write_all(&wire_request(3, 0, 143)).unwrap();
            let good_reader = std::thread::spawn(move || read_replies(&mut good, 1));

            for _ in 0..3_000 {
                srv.poll_once().unwrap();
                // The hostile peer returns once the server closes on it.
                if srv.stats().replies_sent >= 1 && bad_peer.is_finished() {
                    break;
                }
            }
            let bad_bytes = bad_peer.join().unwrap();
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
            dec.push(&bad_bytes);
            let notice: WireReply = decode_message(&dec.next_frame().unwrap().unwrap()).unwrap();
            assert!(matches!(notice, WireReply::Error { .. }), "got {notice:?}");
            assert_eq!(srv.stats().submitted, 1, "the hostile frame never reached the gateway");

            let good_replies = good_reader.join().unwrap();
            assert!(
                matches!(&good_replies[0], WireReply::Result { result, .. }
                    if result.client == ClientId(3)),
                "healthy connection starved by a hostile peer: {good_replies:?}"
            );
        }
    }
}

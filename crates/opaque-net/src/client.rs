//! Client halves: a simple blocking client and a closed-loop fleet
//! driver for the load harness.
//!
//! [`NetClient`] is the reference implementation of the protocol — one
//! blocking socket, one frame decoder — used by the loopback
//! determinism test. [`run_fleet`] multiplexes many *simulated* clients
//! over a handful of real sockets (each socket carries a slice of the
//! fleet, requests tagged by [`ClientId`]), so a single process can
//! drive 10⁵–10⁶ logical clients against a loopback server without 10⁵
//! file descriptors. Each fleet socket is a [`Connection`], the type the
//! server drives its own end with, so both ends buffer, frame, read and
//! flush through one piece of code.

use crate::conn::Connection;
use crate::error::{NetError, Result};
use crate::frame::{DEFAULT_MAX_FRAME, FrameDecoder};
use crate::reactor::{POLLIN, POLLOUT, PollFd, poll};
use crate::wire::{WireReply, WireRequest, decode_message, frame_message};
use opaque::{ClientId, Priority, RequestMsg};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::Instant;

/// A blocking, one-request-at-a-time protocol client.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl NetClient {
    /// Connect to a server.
    ///
    /// # Errors
    /// Socket errors from connect.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient { stream, decoder: FrameDecoder::new(DEFAULT_MAX_FRAME) })
    }

    /// Send one request frame.
    ///
    /// # Errors
    /// [`NetError::PayloadTooLarge`] for an unframeable request (nothing
    /// is written), and socket errors from the write.
    pub fn send(&mut self, request: &WireRequest) -> Result<()> {
        let mut frame = Vec::new();
        frame_message(request, &mut frame)?;
        self.stream.write_all(&frame)?;
        Ok(())
    }

    /// Block until the next reply frame arrives.
    ///
    /// # Errors
    /// Codec errors, [`NetError::TruncatedFrame`] if the server closes
    /// mid-frame, and socket errors.
    pub fn recv(&mut self) -> Result<WireReply> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return decode_message(&payload);
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                self.decoder.finish()?;
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed with no reply pending",
                )));
            }
            self.decoder.push(&buf[..n]);
        }
    }
}

/// Shape of a [`run_fleet`] run.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Real sockets to spread the fleet across.
    pub connections: usize,
    /// Total unanswered requests allowed across the fleet — the closed
    /// loop. Submission pauses when this many are outstanding.
    pub max_in_flight: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { connections: 4, max_in_flight: 2048 }
    }
}

/// What the fleet observed, in aggregate.
#[derive(Clone, Debug, Default)]
pub struct FleetOutcome {
    /// Request frames written.
    pub sent: usize,
    /// Terminal replies received (conservation: must equal `sent`).
    pub terminal_replies: usize,
    /// Replies with `ticket: None` — refused before ticketing.
    pub door_rejections: usize,
    /// `Result` replies.
    pub delivered: usize,
    /// `Unreachable` replies.
    pub unreachable: usize,
    /// Ticketed `Rejected` replies (deadline shed, infeasible).
    pub rejected: usize,
    /// Send → terminal-reply latency per answered request, seconds.
    pub latencies_secs: Vec<f64>,
}

/// Drive `requests` through a server as a closed-loop fleet and collect
/// per-request latencies.
///
/// Latency is paired by [`ClientId`] (door rejections overtake queued
/// requests, so FIFO pairing would lie) — client ids must therefore be
/// unique across `requests`. Returns once every request has its
/// terminal reply.
///
/// # Errors
/// Socket and codec errors; [`NetError::Malformed`] on duplicate client
/// ids; unexpected EOF if the server closes early.
pub fn run_fleet(
    addr: impl ToSocketAddrs,
    requests: &[(RequestMsg, Priority)],
    cfg: FleetConfig,
) -> Result<FleetOutcome> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| NetError::Malformed { reason: "no address resolved".to_string() })?;
    let connections = cfg.connections.max(1);
    let mut conns = Vec::with_capacity(connections);
    for _ in 0..connections {
        conns.push(Connection::new(TcpStream::connect(addr)?, usize::MAX)?);
    }

    let mut outcome = FleetOutcome::default();
    let mut started: HashMap<ClientId, Instant> = HashMap::with_capacity(requests.len());
    let mut next = 0usize;

    while outcome.terminal_replies < requests.len() {
        // Submit while the closed loop has room, round-robin over sockets.
        while next < requests.len()
            && (outcome.sent - outcome.terminal_replies) < cfg.max_in_flight.max(1)
        {
            let (request, priority) = requests[next];
            if started.insert(request.client, Instant::now()).is_some() {
                return Err(NetError::Malformed {
                    reason: format!("duplicate client id {:?} in fleet", request.client),
                });
            }
            conns[next % connections].queue(&WireRequest { request, priority })?;
            next += 1;
            outcome.sent += 1;
        }

        // Poll every socket: always for readability, for writability
        // only while bytes wait.
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| {
                let events = if c.wants_write() { POLLIN | POLLOUT } else { POLLIN };
                PollFd::new(c.stream().as_raw_fd(), events)
            })
            .collect();
        poll(&mut fds, 10)?;

        for (conn, fd) in conns.iter_mut().zip(&fds) {
            if fd.writable() {
                conn.flush()?;
            }
            if fd.readable() {
                for payload in conn.read_frames()? {
                    settle(&decode_message(&payload)?, &mut outcome, &mut started)?;
                }
                if !conn.wants_read() {
                    return Err(NetError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed mid-run",
                    )));
                }
            }
        }
    }
    Ok(outcome)
}

fn settle(
    reply: &WireReply,
    outcome: &mut FleetOutcome,
    started: &mut HashMap<ClientId, Instant>,
) -> Result<()> {
    match reply {
        WireReply::Result { .. } => outcome.delivered += 1,
        WireReply::Unreachable { .. } => outcome.unreachable += 1,
        WireReply::Rejected { ticket: Some(_), .. } => outcome.rejected += 1,
        WireReply::Rejected { ticket: None, .. } => outcome.door_rejections += 1,
        WireReply::Cancelled { .. } => {}
        WireReply::Error { reason } => {
            return Err(NetError::Malformed {
                reason: format!("server reported a protocol error: {reason}"),
            });
        }
    }
    let client = reply.client().expect("terminal replies carry a client");
    let t0 = started.remove(&client).ok_or_else(|| NetError::Malformed {
        reason: format!("reply for unknown client {client:?}"),
    })?;
    outcome.latencies_secs.push(t0.elapsed().as_secs_f64());
    outcome.terminal_replies += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{NetServer, ServerConfig};
    use opaque::{BatchPolicy, PathQuery, ProtectionSettings, ServiceBuilder};
    use roadnet::NodeId;
    use roadnet::generators::{GridConfig, grid_network};
    use std::sync::Arc;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn spawn_server(
        max_batch: usize,
        max_delay: f64,
    ) -> (std::net::SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<NetServer>) {
        let map =
            grid_network(&GridConfig { width: 12, height: 12, seed: 5, ..Default::default() })
                .unwrap();
        let service = ServiceBuilder::new()
            .map(map)
            .seed(23)
            .batch_policy(BatchPolicy { max_batch, max_delay })
            .build()
            .unwrap();
        let mut server = NetServer::bind("127.0.0.1:0", service, ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            server.run_until(&flag).expect("reactor runs");
            server
        });
        (addr, stop, handle)
    }

    fn request(client: u32, s: u32, t: u32) -> RequestMsg {
        RequestMsg {
            client: ClientId(client),
            query: PathQuery::new(NodeId(s), NodeId(t)),
            protection: ProtectionSettings::new(2, 2).unwrap(),
        }
    }

    #[test]
    fn blocking_client_round_trips_a_request() {
        let (addr, stop, handle) = spawn_server(1, 3600.0);
        let mut client = NetClient::connect(addr).unwrap();
        client
            .send(&WireRequest { request: request(5, 0, 143), priority: Priority::Interactive })
            .unwrap();
        let reply = client.recv().unwrap();
        match reply {
            WireReply::Result { result, .. } => assert_eq!(result.client, ClientId(5)),
            other => panic!("expected Result, got {other:?}"),
        }
        stop.store(true, Ordering::Release);
        let server = handle.join().unwrap();
        assert_eq!(server.stats().replies_sent, 1);
    }

    #[test]
    fn fleet_conserves_every_request() {
        let (addr, stop, handle) = spawn_server(16, 0.02);
        let requests: Vec<(RequestMsg, Priority)> = (0..200)
            .map(|i| {
                let s = i % 144;
                let t = (i * 7 + 31) % 144;
                (request(i, s, t), Priority::Interactive)
            })
            .collect();
        let outcome =
            run_fleet(addr, &requests, FleetConfig { connections: 3, max_in_flight: 64 }).unwrap();
        assert_eq!(outcome.sent, 200);
        assert_eq!(outcome.terminal_replies, 200, "conservation violated: {outcome:?}");
        assert_eq!(outcome.latencies_secs.len(), 200);
        assert_eq!(
            outcome.delivered + outcome.unreachable + outcome.rejected + outcome.door_rejections,
            200
        );
        assert!(outcome.delivered > 0, "a healthy grid should deliver: {outcome:?}");
        stop.store(true, Ordering::Release);
        let server = handle.join().unwrap();
        assert_eq!(server.stats().dropped_replies, 0);
    }

    #[test]
    fn fleet_fails_when_the_server_closes_mid_run() {
        // A bare listener takes all four requests, answers none and closes.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
            let mut buf = [0u8; 4096];
            let mut frames = 0;
            while frames < 4 {
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "the fleet closed with {frames} of 4 requests sent");
                dec.push(&buf[..n]);
                while dec.next_frame().unwrap().is_some() {
                    frames += 1;
                }
            }
        });
        let requests: Vec<(RequestMsg, Priority)> =
            (0..4).map(|i| (request(i, i, 100), Priority::Interactive)).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let fleet = std::thread::spawn(move || {
            let cfg = FleetConfig { connections: 1, max_in_flight: 4 };
            tx.send(run_fleet(addr, &requests, cfg)).unwrap();
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("run_fleet hung after the server closed");
        match result {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}"),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
        fleet.join().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn duplicate_client_ids_are_refused() {
        let (addr, stop, handle) = spawn_server(4, 0.02);
        let requests =
            vec![(request(1, 0, 10), Priority::Bulk), (request(1, 3, 12), Priority::Bulk)];
        match run_fleet(addr, &requests, FleetConfig::default()) {
            Err(NetError::Malformed { reason }) => assert!(reason.contains("duplicate")),
            other => panic!("expected duplicate-id refusal, got {other:?}"),
        }
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }
}

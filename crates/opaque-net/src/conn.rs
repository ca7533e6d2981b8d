//! Per-connection state machine, one type for both ends of the wire.
//!
//! A [`Connection`] owns a non-blocking stream — accepted by the server
//! or connected by the load fleet ([`crate::client::run_fleet`]) — with
//! its frame decoder and outbound buffer, so how a peer buffers, frames,
//! reads and flushes is written once. A pipelining client can have
//! requests inside the gateway while replies stream back, so the
//! connection tracks its reading, writing and draining as orthogonal
//! facts (outbound bytes, `draining`, `closed`). Backpressure is the one
//! coupling: when the outbound buffer crosses its cap the connection
//! stops reading ([`Connection::wants_read`] goes false), which stops
//! submitting, which lets the gateway's own admission control see the
//! slow consumer instead of buffering for it without bound.

use crate::error::{NetError, Result};
use crate::frame::{DEFAULT_MAX_FRAME, FrameDecoder};
use crate::wire::{WireReply, frame_message};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Socket read granularity.
const READ_CHUNK: usize = 16 * 1024;

/// One framed connection: socket, frame decoder and outbound buffer.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbound: Vec<u8>,
    /// Flushed prefix of `outbound`.
    out_pos: usize,
    draining: bool,
    closed: bool,
    outbound_cap: usize,
}

impl Connection {
    /// Adopt a connected or accepted stream (made non-blocking here). Its
    /// decoder caps frame payloads at [`DEFAULT_MAX_FRAME`].
    pub fn new(stream: TcpStream, outbound_cap: usize) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
            outbound: Vec::new(),
            out_pos: 0,
            draining: false,
            closed: false,
            outbound_cap,
        })
    }

    /// The underlying socket (for pollfd registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Whether the reactor should watch this connection for readability.
    /// False once draining/closed, and false under backpressure: a peer
    /// that won't drain its replies doesn't get to submit more work.
    pub fn wants_read(&self) -> bool {
        !self.draining && !self.closed && self.pending_out() < self.outbound_cap
    }

    /// Whether bytes are waiting to be flushed.
    pub fn wants_write(&self) -> bool {
        !self.closed && self.pending_out() > 0
    }

    /// Unflushed outbound bytes.
    pub fn pending_out(&self) -> usize {
        self.outbound.len() - self.out_pos
    }

    /// The peer closed (or we finished draining) and the entry can be
    /// reaped.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Drain the socket into the decoder and return the complete frame
    /// payloads received — none once the connection is draining or
    /// closed.
    ///
    /// # Errors
    /// Codec errors ([`NetError::FrameTooLarge`], [`NetError::BadVersion`],
    /// [`NetError::TruncatedFrame`] on mid-frame EOF) and fatal socket
    /// errors. The caller routes these to [`Connection::begin_drain`].
    pub fn read_frames(&mut self) -> Result<Vec<Vec<u8>>> {
        let mut frames = Vec::new();
        if self.draining || self.closed {
            return Ok(frames);
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Clean EOF only if no frame was cut mid-stream.
                    self.closed = self.pending_out() == 0;
                    self.draining = !self.closed;
                    self.decoder.finish()?;
                    break;
                }
                Ok(n) => {
                    // lint: allow(panic-path) — n ≤ chunk.len() by the
                    // `Read` contract (read never reports more bytes
                    // than the buffer it was handed).
                    self.decoder.push(&chunk[..n]);
                    while let Some(payload) = self.decoder.next_frame()? {
                        frames.push(payload);
                    }
                    // Honor backpressure even inside one readiness burst.
                    if self.pending_out() >= self.outbound_cap {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.closed = true;
                    return Err(e.into());
                }
            }
        }
        Ok(frames)
    }

    /// Serialize one message into the outbound buffer, framed in place:
    /// a reply on the server's end, a request on the fleet's.
    ///
    /// # Errors
    /// [`NetError::Malformed`] when the message fails to serialize and
    /// [`NetError::PayloadTooLarge`] when it cannot be framed at all. The
    /// message is not buffered; the caller decides whether to drain the
    /// connection.
    pub fn queue<M: serde::Serialize>(&mut self, msg: &M) -> Result<()> {
        frame_message(msg, &mut self.outbound)
    }

    /// Queue the fatal error notice and start draining: pending
    /// replies flush, then the socket closes. No further reads happen.
    pub fn begin_drain(&mut self, error: &NetError) {
        if self.draining || self.closed {
            return;
        }
        // The notice is a short string and always frames; if it somehow
        // could not, the connection still drains — just silently.
        let _ = self.queue(&WireReply::Error { reason: error.to_string() });
        self.draining = true;
    }

    /// Flush buffered replies until the socket pushes back. Closes the
    /// connection once a draining buffer empties.
    ///
    /// # Errors
    /// Fatal socket errors; the connection is marked closed first.
    pub fn flush(&mut self) -> Result<()> {
        while self.out_pos < self.outbound.len() {
            // lint: allow(panic-path) — out_pos < outbound.len() is the
            // loop condition one line up, and out_pos only grows by the
            // write's own byte count.
            match self.stream.write(&self.outbound[self.out_pos..]) {
                Ok(0) => {
                    self.closed = true;
                    return Err(NetError::Io(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    )));
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.closed = true;
                    return Err(e.into());
                }
            }
        }
        if self.out_pos >= self.outbound.len() {
            self.outbound.clear();
            self.out_pos = 0;
            if self.draining {
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                self.closed = true;
            }
        } else if self.out_pos > self.outbound.len() / 2 {
            // Keep the buffer from growing a dead prefix under sustained load.
            self.outbound.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::framed;
    use crate::reactor::{POLLIN, PollFd, poll};
    use opaque::{ClientId, Ticket};
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;

    fn pair() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (Connection::new(accepted, 1024).unwrap(), client)
    }

    fn wait_frames(conn: &mut Connection) -> Vec<Vec<u8>> {
        for _ in 0..200 {
            let frames = conn.read_frames().unwrap();
            if !frames.is_empty() {
                return frames;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("no frames arrived");
    }

    #[test]
    fn frames_cross_the_socket() {
        let (mut conn, mut client) = pair();
        client.write_all(&framed(b"one")).unwrap();
        client.write_all(&framed(b"two")).unwrap();
        let frames = wait_frames(&mut conn);
        assert_eq!(frames, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn submitted_then_writing_then_reading_again() {
        let (mut conn, mut client) = pair();
        conn.queue(&WireReply::Cancelled { ticket: Ticket(1), client: ClientId(0) }).unwrap();
        assert!(conn.wants_write());
        conn.flush().unwrap();
        assert!(!conn.wants_write());
        // The reply is readable on the client side.
        client.set_nonblocking(false).unwrap();
        let mut buf = [0u8; 256];
        let n = client.read(&mut buf).unwrap();
        assert!(n > crate::frame::HEADER_LEN);
    }

    #[test]
    fn backpressure_stops_reading_until_flushed() {
        let (mut conn, _client) = pair();
        conn.outbound_cap = 8;
        conn.queue(&WireReply::Cancelled { ticket: Ticket(1), client: ClientId(0) }).unwrap();
        assert!(conn.pending_out() > 8);
        assert!(!conn.wants_read(), "a full outbound buffer must pause reads");
        conn.flush().unwrap();
        assert!(conn.wants_read());
    }

    #[test]
    fn protocol_error_drains_and_closes() {
        let (mut conn, mut client) = pair();
        let err = NetError::BadVersion { got: 42 };
        conn.begin_drain(&err);
        assert!(!conn.wants_read());
        conn.flush().unwrap();
        assert!(conn.is_closed());
        // The client received the typed error notice before the close.
        client.set_nonblocking(false).unwrap();
        let mut bytes = Vec::new();
        client.read_to_end(&mut bytes).unwrap();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&bytes);
        let payload = dec.next_frame().unwrap().unwrap();
        let reply: WireReply = crate::wire::decode_message(&payload).unwrap();
        match reply {
            WireReply::Error { reason } => assert!(reason.contains("42"), "{reason}"),
            other => panic!("expected Error notice, got {other:?}"),
        }
    }

    #[test]
    fn a_draining_connection_reads_nothing() {
        let (mut conn, mut client) = pair();
        conn.begin_drain(&NetError::BadVersion { got: 42 });
        client.write_all(&framed(b"late")).unwrap();
        // Wait until the frame is readable, so a read would find it.
        let mut fds = [PollFd::new(conn.stream().as_raw_fd(), POLLIN)];
        for _ in 0..100 {
            if poll(&mut fds, 50).unwrap() > 0 {
                break;
            }
        }
        assert!(fds[0].readable(), "the peer's frame never arrived");
        let frames = conn.read_frames().unwrap();
        assert!(frames.is_empty(), "read {} frames after begin_drain", frames.len());
    }

    #[test]
    fn peer_eof_mid_frame_is_truncated() {
        let (mut conn, mut client) = pair();
        let wire = framed(b"chopped");
        client.write_all(&wire[..wire.len() - 3]).unwrap();
        drop(client);
        let mut result = Ok(Vec::new());
        for _ in 0..200 {
            result = conn.read_frames();
            match &result {
                Ok(frames) if frames.is_empty() && !conn.is_closed() => {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                _ => break,
            }
        }
        match result {
            Err(NetError::TruncatedFrame { missing: 3 }) => {}
            other => panic!("expected TruncatedFrame, got {other:?}"),
        }
    }
}

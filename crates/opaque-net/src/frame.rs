//! The length-delimited frame codec.
//!
//! Every message crosses the wire as one frame:
//!
//! ```text
//! ┌────────────────┬─────────┬──────────────────────┐
//! │ payload length │ version │ payload              │
//! │ u32 little-end │ 1 byte  │ `length` bytes, JSON │
//! └────────────────┴─────────┴──────────────────────┘
//! ```
//!
//! The length counts the payload only (not the 5-byte header). The
//! [`FrameDecoder`] is incremental — feed it whatever the socket
//! returned, pull complete frames out — and validates the header
//! *before* allocating the payload, so a hostile length prefix can never
//! force an unbounded allocation: anything over the configured cap is a
//! typed [`NetError::FrameTooLarge`] and the connection is closed. Peak
//! buffering is therefore bounded by `max_frame + HEADER_LEN` plus one
//! socket read's worth of bytes.

use crate::error::{NetError, Result};

/// The one protocol version this build speaks. Bump on any wire-shape
/// change; a mismatched peer gets a typed [`NetError::BadVersion`]
/// instead of a JSON parse error deep in a payload.
pub const PROTOCOL_VERSION: u8 = 1;

/// Bytes of the frame header (u32-LE payload length + version byte).
pub(crate) const HEADER_LEN: usize = 5;

/// Default payload cap: far above any legitimate message (a delivered
/// path on the bench maps serializes to a few KiB) while keeping a
/// hostile peer's buffering bounded.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// The length-prefix check behind [`encode_frame`], on its own so the
/// over-`u32::MAX` branch is testable without allocating a 4 GiB payload.
fn payload_len_prefix(len: usize) -> Result<u32> {
    u32::try_from(len).map_err(|_| NetError::PayloadTooLarge { len })
}

/// Append one framed payload to `out`.
///
/// # Errors
/// [`NetError::PayloadTooLarge`] when the payload cannot be described by
/// the u32 length prefix — truncating the length would emit a frame whose
/// header lies about its body, corrupting the stream for the peer. `out`
/// is untouched on error.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) -> Result<()> {
    let len = payload_len_prefix(payload.len())?;
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.push(PROTOCOL_VERSION);
    out.extend_from_slice(payload);
    Ok(())
}

/// Append one frame whose payload `write` appends to `out` itself: the
/// header goes in first with a zero length, the payload is written
/// straight behind it, and the length is patched in once it is known —
/// no intermediate payload buffer.
///
/// # Errors
/// Whatever `write` returns, and [`NetError::PayloadTooLarge`] as in
/// [`encode_frame`]. `out` is truncated back to its old length on error,
/// so it is untouched here too.
pub(crate) fn encode_frame_with(
    out: &mut Vec<u8>,
    write: impl FnOnce(&mut Vec<u8>) -> Result<()>,
) -> Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0, PROTOCOL_VERSION]);
    let len =
        write(out).and_then(|()| payload_len_prefix(out.len().saturating_sub(start + HEADER_LEN)));
    match len {
        Ok(len) => {
            for (slot, byte) in out.iter_mut().skip(start).zip(len.to_le_bytes()) {
                *slot = byte;
            }
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// Incremental frame decoder over a byte stream.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted once it outgrows the live tail.
    start: usize,
    max_frame: u32,
}

impl FrameDecoder {
    /// A decoder refusing payloads over `max_frame` bytes.
    pub fn new(max_frame: u32) -> Self {
        FrameDecoder { buf: Vec::new(), start: 0, max_frame }
    }

    /// Feed bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: the consumed prefix is dead weight.
        if self.start > 0 && self.start >= self.buf.len().saturating_sub(self.start) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    fn buffered(&self) -> usize {
        self.live().len()
    }

    /// The unconsumed tail of the buffer. `start <= buf.len()` is a
    /// struct invariant (`start` only advances past complete frames),
    /// but the accessor is total anyway: a violated invariant reads as
    /// an empty tail, never a panic — this is hostile-input code.
    fn live(&self) -> &[u8] {
        self.buf.get(self.start..).unwrap_or(&[])
    }

    /// Pull the next complete frame's payload, if one is buffered.
    ///
    /// # Errors
    /// [`NetError::FrameTooLarge`] / [`NetError::BadVersion`] as soon as
    /// a complete header announces them — the payload is never awaited.
    /// After an error the decoder is poisoned-by-convention: the caller
    /// must close the connection (resynchronizing an untrusted stream is
    /// not attempted).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let Some(total) = self.frame_len()? else {
            return Ok(None); // header not complete yet
        };
        let Some(payload) = self.live().get(HEADER_LEN..total) else {
            return Ok(None); // payload not complete yet
        };
        let payload = payload.to_vec();
        self.start += total;
        Ok(Some(payload))
    }

    /// Check the stream may end here: an error if a partial frame is
    /// still buffered (the peer closed mid-frame).
    ///
    /// # Errors
    /// A complete-but-invalid buffered header surfaces the same
    /// [`NetError::FrameTooLarge`] / [`NetError::BadVersion`] that
    /// [`FrameDecoder::next_frame`] would — not a `TruncatedFrame` whose
    /// `missing` count trusts a length prefix the decoder would have
    /// refused. Only an honestly incomplete frame reports
    /// [`NetError::TruncatedFrame`].
    pub fn finish(&self) -> Result<()> {
        let buffered = self.buffered();
        if buffered == 0 {
            return Ok(());
        }
        let total = self.frame_len()?.unwrap_or(HEADER_LEN);
        Err(NetError::TruncatedFrame { missing: total.saturating_sub(buffered) })
    }

    /// The whole length (header included) of the frame the buffered
    /// header announces, or `None` until the header is complete. The one
    /// place a header is checked: the length cap first, then the version.
    fn frame_len(&self) -> Result<Option<usize>> {
        let Some(&[l0, l1, l2, l3, version]) = self.live().first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        if len > self.max_frame {
            return Err(NetError::FrameTooLarge { len, max: self.max_frame });
        }
        if version != PROTOCOL_VERSION {
            return Err(NetError::BadVersion { got: version });
        }
        Ok(Some(HEADER_LEN + len as usize))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One framed payload as a fresh buffer.
    pub(crate) fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(payload, &mut out).unwrap();
        out
    }

    fn drain(dec: &mut FrameDecoder) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        while let Some(p) = dec.next_frame()? {
            out.push(p);
        }
        Ok(out)
    }

    #[test]
    fn frames_round_trip() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let payloads: Vec<&[u8]> = vec![b"hello", b"", b"world"];
        for p in &payloads {
            dec.push(&framed(p));
        }
        let got = drain(&mut dec).unwrap();
        assert_eq!(got, payloads);
        assert_eq!(dec.buffered(), 0);
        dec.finish().unwrap();
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let wire = framed(b"split me");
        // Byte-at-a-time delivery: only the final byte completes a frame.
        for (i, b) in wire.iter().enumerate() {
            dec.push(&[*b]);
            let got = dec.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "frame complete too early at byte {i}");
            } else {
                assert_eq!(got.unwrap(), b"split me");
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocation() {
        let mut dec = FrameDecoder::new(16);
        let mut wire = Vec::new();
        wire.extend_from_slice(&1_000_000u32.to_le_bytes());
        wire.push(PROTOCOL_VERSION);
        dec.push(&wire);
        match dec.next_frame() {
            Err(NetError::FrameTooLarge { len: 1_000_000, max: 16 }) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // Only the 5 header bytes were ever buffered.
        assert_eq!(dec.buffered(), HEADER_LEN);
    }

    #[test]
    fn bad_version_byte_is_a_typed_error() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut wire = framed(b"x");
        wire[4] = 99;
        dec.push(&wire);
        match dec.next_frame() {
            Err(NetError::BadVersion { got: 99 }) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_fails_finish_with_missing_count() {
        // Mid-payload close.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let wire = framed(b"abcdef");
        dec.push(&wire[..HEADER_LEN + 2]);
        assert!(dec.next_frame().unwrap().is_none());
        match dec.finish() {
            Err(NetError::TruncatedFrame { missing: 4 }) => {}
            other => panic!("expected 4 missing bytes, got {other:?}"),
        }
        // Mid-header close.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&wire[..3]);
        match dec.finish() {
            Err(NetError::TruncatedFrame { missing: 2 }) => {}
            other => panic!("expected 2 missing header bytes, got {other:?}"),
        }
        // Clean boundary is fine.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&wire);
        drain(&mut dec).unwrap();
        dec.finish().unwrap();
    }

    #[test]
    fn unencodable_payload_length_is_a_typed_error() {
        // The length check is exercised directly — allocating a >4 GiB
        // payload in a test is not reasonable, which is exactly why the
        // old silent `as u32` truncation survived so long.
        let too_big = u32::MAX as usize + 1;
        match payload_len_prefix(too_big) {
            Err(NetError::PayloadTooLarge { len }) => assert_eq!(len, too_big),
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
        assert_eq!(payload_len_prefix(u32::MAX as usize).unwrap(), u32::MAX);
        assert_eq!(payload_len_prefix(0).unwrap(), 0);
        // And the public entry points propagate it.
        assert!(encode_frame(b"ok", &mut Vec::new()).is_ok());
    }

    #[test]
    fn frames_written_in_place_match_and_vanish_on_error() {
        let mut out = framed(b"first");
        let mut expected = out.clone();
        for payload in [&b"second, written in place"[..], b""] {
            encode_frame(payload, &mut expected).unwrap();
            encode_frame_with(&mut out, |o| {
                o.extend_from_slice(payload);
                Ok(())
            })
            .unwrap();
            assert_eq!(out, expected);
        }
        // A writer that fails part-way leaves nothing of its frame behind.
        let failed = encode_frame_with(&mut out, |o| {
            o.extend_from_slice(b"half a payl");
            Err(NetError::PayloadTooLarge { len: 11 })
        });
        assert!(matches!(failed, Err(NetError::PayloadTooLarge { len: 11 })), "{failed:?}");
        assert_eq!(out, expected, "`out` is untouched on error");
    }

    #[test]
    fn finish_surfaces_header_errors_not_bogus_truncation() {
        // Over-cap header buffered at close: the old code trusted the
        // hostile length prefix and reported a giant bogus `missing`.
        let mut dec = FrameDecoder::new(16);
        let mut wire = Vec::new();
        wire.extend_from_slice(&1_000_000u32.to_le_bytes());
        wire.push(PROTOCOL_VERSION);
        dec.push(&wire);
        match dec.finish() {
            Err(NetError::FrameTooLarge { len: 1_000_000, max: 16 }) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }

        // Wrong-version header buffered at close.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut wire = framed(b"x");
        wire[4] = 99;
        dec.push(&wire[..HEADER_LEN]);
        match dec.finish() {
            Err(NetError::BadVersion { got: 99 }) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }

        // finish() and next_frame() agree on the same buffered bytes.
        let mut by_next = FrameDecoder::new(16);
        by_next.push(&1_000_000u32.to_le_bytes());
        by_next.push(&[PROTOCOL_VERSION]);
        assert!(matches!(by_next.next_frame(), Err(NetError::FrameTooLarge { .. })));
    }

    #[test]
    fn compaction_keeps_the_buffer_bounded() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let wire = framed(&[7u8; 128]);
        for _ in 0..1_000 {
            dec.push(&wire);
            assert_eq!(drain(&mut dec).unwrap().len(), 1);
        }
        // The consumed prefix must not accumulate across 1000 frames.
        assert!(dec.buf.len() < 4 * wire.len(), "buffer grew to {}", dec.buf.len());
    }

    proptest! {
        /// Arbitrary payload sequences survive arbitrary re-chunking.
        #[test]
        fn prop_roundtrip_any_payloads_any_chunking(
            payloads in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 0..512), 1..8),
            chunk in 1usize..64,
        ) {
            let mut wire = Vec::new();
            for p in &payloads {
                encode_frame(p, &mut wire).unwrap();
            }
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.push(piece);
                while let Some(p) = dec.next_frame().unwrap() {
                    got.push(p);
                }
            }
            prop_assert_eq!(got, payloads);
            dec.finish().unwrap();
        }

        /// Garbage prefixes never panic: decoding either yields a typed
        /// error or keeps waiting for bytes — and never allocates past
        /// the cap.
        #[test]
        fn prop_garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
            let cap = 64u32;
            let mut dec = FrameDecoder::new(cap);
            dec.push(&bytes);
            loop {
                match dec.next_frame() {
                    Ok(Some(p)) => prop_assert!(p.len() <= cap as usize),
                    Ok(None) => break,
                    Err(NetError::FrameTooLarge { len, max }) => {
                        prop_assert!(len > max);
                        break;
                    }
                    Err(NetError::BadVersion { got }) => {
                        prop_assert_ne!(got, PROTOCOL_VERSION);
                        break;
                    }
                    Err(other) => prop_assert!(false, "unexpected error {}", other),
                }
            }
            let _ = dec.finish();
        }
    }
}

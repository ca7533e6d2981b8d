//! Typed messages carried inside frames.
//!
//! The wire vocabulary is deliberately thin: requests wrap the existing
//! [`RequestMsg`] (hop 1 of Figure 5) plus the gateway lane, and every
//! reply mirrors exactly one terminal [`opaque::ServiceEvent`] — so the
//! network layer adds framing and routing, never semantics. Batch
//! reports are **not** wire messages: they aggregate other clients'
//! requests and stay on the server (the loopback determinism test reads
//! them from [`crate::server::NetServer::reports`]).

use crate::error::{NetError, Result};
use crate::frame::encode_frame_with;
use opaque::{ClientId, Priority, RejectReason, RequestMsg, ResultMsg, Ticket};

/// Client → server: one directions request, routed into a gateway lane.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireRequest {
    /// The paper's hop-1 message.
    pub request: RequestMsg,
    /// Which admission lane to ride.
    pub priority: Priority,
}

/// Server → client: the terminal answer for one submitted request, or a
/// connection-fatal error notice.
///
/// Every frame a client sends receives exactly one terminal reply —
/// [`WireReply::Result`], [`WireReply::Unreachable`],
/// [`WireReply::Rejected`], or [`WireReply::Cancelled`] — except after a
/// [`WireReply::Error`], which announces the connection is closing and
/// voids that accounting for frames not yet submitted.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WireReply {
    /// Hop 4: the delivered path.
    Result {
        /// Gateway ticket the reply resolves.
        ticket: Ticket,
        /// The delivered message, byte-for-byte what the in-process
        /// gateway emits in `ServiceEvent::ResponseReady`.
        result: ResultMsg,
        /// Seconds the request waited in the admission queue.
        waited: f64,
    },
    /// The true pair is disconnected on the server's map.
    Unreachable {
        /// Gateway ticket the reply resolves.
        ticket: Ticket,
        /// The requesting client.
        client: ClientId,
        /// Seconds the request waited in the admission queue.
        waited: f64,
    },
    /// Refused — at the door (`ticket` is `None`: the gateway never
    /// issued one) or later (deadline shed, infeasible obfuscation).
    Rejected {
        /// The ticket, when the request got far enough to earn one.
        ticket: Option<Ticket>,
        /// The requesting client.
        client: ClientId,
        /// The gateway's typed reason.
        reason: RejectReason,
        /// Seconds waited in the queue (0 for door refusals).
        waited: f64,
    },
    /// Acknowledges a cancellation before the window flushed.
    Cancelled {
        /// The cancelled ticket.
        ticket: Ticket,
        /// The client whose request was cancelled.
        client: ClientId,
    },
    /// The connection violated the protocol (malformed frame, bad
    /// version, oversized length); the server flushes pending replies
    /// and closes. Purely connection-level: queued batches and other
    /// connections are unaffected.
    Error {
        /// Human-readable cause (the [`NetError`]'s message).
        reason: String,
    },
}

impl WireReply {
    /// The client a terminal reply answers (`None` for
    /// [`WireReply::Error`]).
    pub fn client(&self) -> Option<ClientId> {
        match self {
            WireReply::Result { result, .. } => Some(result.client),
            WireReply::Unreachable { client, .. }
            | WireReply::Rejected { client, .. }
            | WireReply::Cancelled { client, .. } => Some(*client),
            WireReply::Error { .. } => None,
        }
    }
}

/// Serialize a message into its frame payload (compact JSON, like every
/// other hop the experiments measure).
///
/// # Errors
/// [`NetError::Malformed`] if the message fails to serialize. The wire
/// types round-trip by construction (pinned by the tests below), so in
/// practice this never fires — but the hot path treats it as a
/// connection-level fault rather than asserting, because an assert here
/// would be process-fatal.
pub fn encode_message<M: serde::Serialize>(msg: &M) -> Result<Vec<u8>> {
    serde_json::to_vec(msg).map_err(encode_error)
}

fn encode_error(e: serde_json::Error) -> NetError {
    NetError::Malformed { reason: format!("encode: {e:?}") }
}

/// Serialize a message straight into `out` as one frame — what
/// [`encode_message`] + [`crate::frame::encode_frame`] append, without
/// the payload buffer in between.
///
/// # Errors
/// As [`encode_message`] and [`crate::frame::encode_frame`]; `out` is
/// untouched on error.
pub(crate) fn frame_message<M: serde::Serialize>(msg: &M, out: &mut Vec<u8>) -> Result<()> {
    encode_frame_with(out, |payload| serde_json::to_writer(payload, msg).map_err(encode_error))
}

/// Decode a frame payload into a message.
///
/// # Errors
/// [`NetError::Malformed`] when the payload is not UTF-8 JSON of the
/// expected shape.
pub fn decode_message<M: serde::Deserialize>(payload: &[u8]) -> Result<M> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| NetError::Malformed { reason: "payload is not UTF-8".to_string() })?;
    serde_json::from_str(text).map_err(|e| NetError::Malformed { reason: format!("{e:?}") })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use opaque::{PathQuery, ProtectionSettings};
    use roadnet::NodeId;

    fn request() -> WireRequest {
        WireRequest {
            request: RequestMsg {
                client: ClientId(7),
                query: PathQuery::new(NodeId(1), NodeId(2)),
                protection: ProtectionSettings::new(3, 3).unwrap(),
            },
            priority: Priority::Bulk,
        }
    }

    #[test]
    fn requests_round_trip() {
        let msg = request();
        let back: WireRequest = decode_message(&encode_message(&msg).unwrap()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn replies_round_trip_including_optional_tickets() {
        let replies = vec![
            WireReply::Unreachable { ticket: Ticket(4), client: ClientId(1), waited: 0.5 },
            WireReply::Rejected {
                ticket: None,
                client: ClientId(2),
                reason: RejectReason::QueueFull { depth: 8 },
                waited: 0.0,
            },
            WireReply::Rejected {
                ticket: Some(Ticket(9)),
                client: ClientId(3),
                reason: RejectReason::DeadlineExpired { waited: 2.0 },
                waited: 2.0,
            },
            WireReply::Cancelled { ticket: Ticket(11), client: ClientId(4) },
            WireReply::Error { reason: "bad version".to_string() },
        ];
        for reply in replies {
            let back: WireReply = decode_message(&encode_message(&reply).unwrap()).unwrap();
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn messages_framed_in_place_are_the_bytes_of_encode_then_frame() {
        let json = br#"{"Result":{"ticket":3,"result":{"client":7,"path":{"nodes":[1,8,2],"distance":2.25}},"waited":0.125}}"#;
        let reply: WireReply = decode_message(json).unwrap();
        assert_eq!(encode_message(&reply).unwrap(), json);
        let mut in_place = b"already queued".to_vec();
        let mut two_step = in_place.clone();
        frame_message(&request(), &mut in_place).unwrap();
        frame_message(&reply, &mut in_place).unwrap();
        encode_frame(&encode_message(&request()).unwrap(), &mut two_step).unwrap();
        encode_frame(&encode_message(&reply).unwrap(), &mut two_step).unwrap();
        assert_eq!(in_place, two_step);
    }

    #[test]
    fn replies_expose_their_client() {
        assert_eq!(
            WireReply::Cancelled { ticket: Ticket(1), client: ClientId(9) }.client(),
            Some(ClientId(9))
        );
        assert_eq!(WireReply::Error { reason: "x".to_string() }.client(), None);
    }

    #[test]
    fn malformed_payloads_are_typed_errors_not_panics() {
        // Nesting floods (the parser recurses per level) and numbers that
        // are not an integer of the field's type: a fraction, a negative,
        // an overflow, and an id that would alias onto u32::MAX.
        let flood = vec![b'['; 100_000];
        let object_flood = br#"{"a":"#.repeat(50_000);
        let request = |client: &str, source: &str, f_s: &str| {
            format!(
                r#"{{"request":{{"client":{client},"query":{{"source":{source},"destination":5}},"protection":{{"f_s":{f_s},"f_t":3}}}},"priority":"Interactive"}}"#
            )
        };
        assert!(decode_message::<WireRequest>(request("1", "0", "3").as_bytes()).is_ok());
        let bad_integers = [
            request("1.9", "0", "3"),
            request("1", "-3", "3"),
            request("1", "0", "1e300"),
            request("4294967297", "0", "3"),
        ];
        let hostile = [&b"\xff\xfe"[..], b"not json", b"{\"request\":3}", &flood, &object_flood];
        for bad in hostile.into_iter().chain(bad_integers.iter().map(String::as_bytes)) {
            match decode_message::<WireRequest>(bad) {
                Err(NetError::Malformed { .. }) => {}
                other => {
                    let shown = String::from_utf8_lossy(&bad[..bad.len().min(120)]);
                    panic!("expected Malformed for {shown:?}, got {other:?}")
                }
            }
        }
    }

    #[test]
    fn deserialized_protection_is_revalidated_by_the_gateway_not_trusted() {
        // A hostile peer can hand-craft f_s = 0 (Deserialize bypasses
        // ProtectionSettings::new); the wire layer must pass it through
        // and let the gateway answer InvalidProtection rather than panic.
        let json = r#"{"request":{"client":1,"query":{"source":0,"destination":5},
                        "protection":{"f_s":0,"f_t":3}},"priority":"Interactive"}"#;
        let msg: WireRequest = decode_message(json.as_bytes()).unwrap();
        assert_eq!(msg.request.protection.f_s, 0, "decode must not silently repair");
    }
}

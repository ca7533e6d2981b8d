//! Network front door for the OPAQUE reproduction.
//!
//! Everything below the gateway in this workspace is in-process; this
//! crate puts the paper's hop 1 and hop 4 on real sockets. It is
//! deliberately dependency-free (no tokio, no mio, no libc): a
//! hand-rolled reactor over the `poll(2)` syscall ([`reactor`]),
//! non-blocking `std::net` sockets, a length-delimited frame codec
//! ([`frame`]), and an explicit per-connection state machine ([`conn`])
//! wired onto [`opaque::OpaqueService`]'s event API ([`server`]).
//!
//! The design invariant inherited from the gateway carries to the wire:
//! **every request frame gets exactly one terminal reply** — a result,
//! an unreachable notice, a typed rejection, or a cancellation ack —
//! and a connection that breaks the protocol gets a typed
//! [`wire::WireReply::Error`] before the close, never a silent reset.
//! The loopback determinism test (`tests/net_loopback.rs` at the
//! workspace root) pins the stronger property that motivates the
//! layering: the wire path's [`opaque::BatchReport`] bytes are
//! identical to the in-process gateway's for the same requests.

#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod error;
pub mod frame;
pub mod reactor;
pub mod server;
pub mod wire;

pub use client::{FleetConfig, FleetOutcome, NetClient, run_fleet};
pub use conn::Connection;
pub use error::{NetError, Result};
pub use frame::{DEFAULT_MAX_FRAME, FrameDecoder, PROTOCOL_VERSION};
pub use server::{NetServer, NetStats, ServerConfig};
pub use wire::{WireReply, WireRequest};

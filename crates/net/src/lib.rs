//! Network serving for fault-tolerant spanner engines.
//!
//! This crate puts a TCP front door on the in-process serving
//! [`Engine`](fault_tolerant_spanners::Engine):
//!
//! * [`protocol`] — a versioned, length-prefixed framed wire protocol with
//!   typed decode errors and allocation-bomb guards (the same discipline as
//!   the `.ftspan` artifact format);
//! * [`server`] — a thread-per-connection server whose admission gate caps
//!   the batches running at once and the batches waiting, with typed
//!   [`Overloaded`](protocol::Response::Overloaded) backpressure,
//!   per-connection timeouts and graceful drain on shutdown;
//! * [`client`] — a blocking client speaking the same frames.
//!
//! The server is **observationally transparent** over the engine: a batch
//! sent through a [`Client`] returns results identical to calling
//! [`Engine::run_batch`](fault_tolerant_spanners::Engine::run_batch)
//! in-process — including typed per-query errors, which round-trip the wire
//! losslessly — at any worker count and any queue capacity.
//!
//! The `ftspan_serve` binary wraps [`Server`] around an artifact-store
//! directory. The repository benchmark (`perfbench/`) drives it with an
//! open-loop load generator and reports CPU time per query; the
//! `delta_smoke` example is the end-to-end smoke driver.
//!
//! Everything is dependency-free `std`: threads, `TcpListener`, and a
//! `Mutex` + condvar gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod protocol;
pub mod server;

pub use client::{BatchReply, Client};
pub use error::NetError;
pub use protocol::{
    ArtifactInfo, DeltaApplyInfo, Request, Response, ServerStats, MAX_FRAME_LEN, PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
};
pub use server::{RunningServer, Server, ServerConfig, ServerHandle};

// The README's Rust examples, compiled (and, unless marked `no_run`, run)
// as doctests of this crate, which depends on both the facade and itself.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

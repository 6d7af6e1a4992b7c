//! The wire protocol: versioned, length-prefixed frames over a byte stream.
//!
//! Every frame is `magic (4) · version (u32 LE) · tag (4) · payload length
//! (u64 LE) · payload`. The magic is [`PROTOCOL_MAGIC`] (`FTNW`), the version
//! is [`PROTOCOL_VERSION`], and the tag selects the frame type ([`Request`]
//! or [`Response`]). Payloads are flat little-endian encodings with
//! length-prefixed strings and sequences, with these defenses:
//!
//! * a declared payload length above [`MAX_FRAME_LEN`] is rejected **before**
//!   any allocation ([`NetError::FrameTooLarge`]);
//! * payload bytes are read through [`Read::take`], so a frame lying about
//!   its length can never read past its own end, and a short stream is a
//!   typed [`NetError::Truncated`] — not a hang or a huge allocation;
//! * inside a payload, every sequence count is validated against the bytes
//!   actually remaining before any element is allocated, so a hostile count
//!   cannot become an allocation bomb;
//! * trailing bytes after a well-formed payload are [`NetError::Malformed`]
//!   (a frame must mean exactly one thing).
//!
//! Decoding never panics on adversarial input: every failure is a typed
//! [`NetError`].
//!
//! # Example
//!
//! ```
//! use fault_tolerant_spanners::prelude::*;
//! use ftspan_net::protocol::{Request, Response};
//!
//! // A client encodes a batch request into a frame...
//! let request = Request::RunBatch(vec![Query::distance(
//!     "backbone",
//!     vec![NodeId::new(3)],
//!     NodeId::new(0),
//!     NodeId::new(7),
//! )]);
//! let mut wire = Vec::new();
//! request.write_to(&mut wire).unwrap();
//!
//! // ...and the server decodes exactly the same request back.
//! let decoded = Request::read_from(&mut wire.as_slice()).unwrap();
//! assert_eq!(decoded, request);
//!
//! // Responses travel the same way, including typed per-query errors.
//! let response = Response::Overloaded;
//! let mut wire = Vec::new();
//! response.write_to(&mut wire).unwrap();
//! assert_eq!(Response::read_from(&mut wire.as_slice()).unwrap(), response);
//! ```

use crate::error::NetError;
use fault_tolerant_spanners::core::{CoreError, FaultModel, StretchCertificate};
use fault_tolerant_spanners::graph::{GraphError, NodeId};
use fault_tolerant_spanners::lp::LpError;
use fault_tolerant_spanners::{EdgeDelta, EngineStats, Query, QueryKind, QueryOutcome};
use std::io::{Read, Write};

/// First four bytes of every frame.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"FTNW";

/// Protocol version carried in every frame; peers reject skewed versions
/// with [`NetError::VersionSkew`] instead of misinterpreting payloads.
///
/// Version 2 added the [`Request::ApplyDeltas`] / [`Response::DeltasApplied`]
/// frames and the dynamic-artifact counters in [`ServerStats`].
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a frame's declared payload length. Declaring more is
/// [`NetError::FrameTooLarge`] — rejected before any allocation.
pub const MAX_FRAME_LEN: u64 = 64 * 1024 * 1024;

const TAG_REQ_BATCH: [u8; 4] = *b"QBAT";
const TAG_REQ_LIST: [u8; 4] = *b"LIST";
const TAG_REQ_STATS: [u8; 4] = *b"STAT";
const TAG_REQ_SHUTDOWN: [u8; 4] = *b"SHUT";
const TAG_REQ_APPLY_DELTAS: [u8; 4] = *b"ADLT";
const TAG_RESP_BATCH: [u8; 4] = *b"RBAT";
const TAG_RESP_LIST: [u8; 4] = *b"RLST";
const TAG_RESP_STATS: [u8; 4] = *b"RSTA";
const TAG_RESP_OVERLOADED: [u8; 4] = *b"OVLD";
const TAG_RESP_SHUTTING_DOWN: [u8; 4] = *b"RSHD";
const TAG_RESP_DELTAS_APPLIED: [u8; 4] = *b"RADL";

/// What a client can ask a server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a query batch through the server's engine
    /// (answered by [`Response::Batch`], or [`Response::Overloaded`] /
    /// [`Response::ShuttingDown`] when admission control rejects it).
    RunBatch(Vec<Query>),
    /// List the artifacts the server is holding ([`Response::Artifacts`]).
    ListArtifacts,
    /// Snapshot the server's serving counters ([`Response::Stats`]).
    Stats,
    /// Ask the server to shut down gracefully, draining in-flight batches
    /// (acknowledged with [`Response::ShuttingDown`]).
    Shutdown,
    /// Apply an edge-delta batch to a dynamic artifact and warm-swap the new
    /// version in ([`Response::DeltasApplied`]). Deltas are sent bare —
    /// the server numbers them after the artifact's last applied sequence
    /// number, so clients never have to coordinate them. Deltas are
    /// volatile: the server keeps no history and persists nothing, so a
    /// restarted server serves the stored base and clients re-send.
    ApplyDeltas {
        /// Serving name of the dynamic artifact to evolve.
        artifact: String,
        /// The edge mutations, applied in order as one atomic batch.
        deltas: Vec<EdgeDelta>,
    },
}

/// What a server answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One result per query of the batch, **in input order** — byte-identical
    /// to what `Engine::run_batch` returns in-process, including typed
    /// per-query errors.
    Batch(Vec<Result<QueryOutcome, CoreError>>),
    /// The server's registered artifacts.
    Artifacts(Vec<ArtifactInfo>),
    /// A snapshot of the server's serving counters.
    Stats(ServerStats),
    /// Admission control rejected the batch: every permit is held and the
    /// line of batches waiting for one is full. The connection stays
    /// usable — retry later.
    Overloaded,
    /// The server is shutting down (sent for batches arriving during the
    /// drain, and as the acknowledgement of [`Request::Shutdown`]).
    ShuttingDown,
    /// The outcome of a [`Request::ApplyDeltas`]: the swap summary on
    /// success, or the same typed [`CoreError`] the in-process
    /// `Engine::apply_deltas` would have returned.
    DeltasApplied(Result<DeltaApplyInfo, CoreError>),
}

/// Summary of a completed delta apply ([`Response::DeltasApplied`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaApplyInfo {
    /// Version number of the artifact now being served.
    pub version: u64,
    /// Deltas applied in this batch.
    pub applied: u64,
    /// Sequence number the server assigned to the batch's last delta.
    pub last_seq: u64,
    /// `true` when the new version came from a full rebuild rather than an
    /// incremental patch.
    pub rebuilt: bool,
}

/// One registered artifact, as reported by [`Response::Artifacts`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactInfo {
    /// Serving name the artifact is registered under.
    pub name: String,
    /// Fault model the artifact guarantees.
    pub fault_model: FaultModel,
    /// Declared fault budget `r`.
    pub fault_budget: u64,
    /// Declared stretch bound `k`.
    pub stretch: f64,
    /// Number of vertices.
    pub nodes: u64,
    /// Number of edges in the spanner.
    pub spanner_edges: u64,
}

/// A snapshot of a server's serving counters ([`Response::Stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Batches admitted by the server's gate, to run at once or to wait for
    /// a permit.
    pub batches_enqueued: u64,
    /// Batches that have taken a permit and begun executing.
    pub batches_started: u64,
    /// Batches fully executed and answered.
    pub batches_completed: u64,
    /// Batches rejected with [`Response::Overloaded`].
    pub batches_rejected: u64,
    /// Admitted batches currently waiting for a permit.
    pub queue_depth: u64,
    /// The underlying engine's planner and cache counters.
    pub engine: EngineStats,
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

/// Writes one frame: magic, version, `tag`, payload length, payload.
pub fn write_frame(w: &mut impl Write, tag: [u8; 4], payload: &[u8]) -> Result<(), NetError> {
    if payload.len() as u64 > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge {
            declared: payload.len() as u64,
            limit: MAX_FRAME_LEN,
        });
    }
    let mut header = [0u8; 20];
    header[..4].copy_from_slice(&PROTOCOL_MAGIC);
    header[4..8].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header[8..12].copy_from_slice(&tag);
    header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, returning its tag and payload.
///
/// A clean end-of-stream **before the first header byte** is
/// [`NetError::Closed`] (the peer hung up between frames); anywhere else a
/// short read is [`NetError::Truncated`]. The declared payload length is
/// checked against [`MAX_FRAME_LEN`] before reading, and the payload is
/// pulled through [`Read::take`], so a lying length can neither over-read
/// nor over-allocate.
pub fn read_frame(r: &mut impl Read) -> Result<([u8; 4], Vec<u8>), NetError> {
    let mut magic = [0u8; 4];
    read_exact_or(r, &mut magic, true)?;
    if magic != PROTOCOL_MAGIC {
        return Err(NetError::BadMagic { found: magic });
    }
    let mut version = [0u8; 4];
    read_exact_or(r, &mut version, false)?;
    let version = u32::from_le_bytes(version);
    if version != PROTOCOL_VERSION {
        return Err(NetError::VersionSkew {
            found: version,
            expected: PROTOCOL_VERSION,
        });
    }
    let mut tag = [0u8; 4];
    read_exact_or(r, &mut tag, false)?;
    let mut len = [0u8; 8];
    read_exact_or(r, &mut len, false)?;
    let len = u64::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge {
            declared: len,
            limit: MAX_FRAME_LEN,
        });
    }
    // read_to_end grows the buffer as bytes actually arrive, so a frame
    // declaring 64 MiB but carrying 10 bytes costs 10 bytes, not 64 MiB.
    let mut payload = Vec::new();
    r.take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(NetError::Truncated {
            context: "frame payload",
        });
    }
    Ok((tag, payload))
}

/// `read_exact` with the protocol's end-of-stream semantics: a clean EOF on
/// the very first byte is [`NetError::Closed`] when `start_of_frame`,
/// otherwise any short read is [`NetError::Truncated`].
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], start_of_frame: bool) -> Result<(), NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if start_of_frame && filled == 0 {
                    NetError::Closed
                } else {
                    NetError::Truncated {
                        context: "frame header",
                    }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

impl Request {
    /// Encodes this request as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), NetError> {
        let (tag, payload) = match self {
            Request::RunBatch(queries) => {
                let mut buf = Vec::new();
                put_seq(&mut buf, queries, put_query);
                (TAG_REQ_BATCH, buf)
            }
            Request::ListArtifacts => (TAG_REQ_LIST, Vec::new()),
            Request::Stats => (TAG_REQ_STATS, Vec::new()),
            Request::Shutdown => (TAG_REQ_SHUTDOWN, Vec::new()),
            Request::ApplyDeltas { artifact, deltas } => {
                let mut buf = Vec::new();
                put_str(&mut buf, artifact);
                put_seq(&mut buf, deltas, put_edge_delta);
                (TAG_REQ_APPLY_DELTAS, buf)
            }
        };
        write_frame(w, tag, &payload)
    }

    /// Reads and decodes one request frame.
    pub fn read_from(r: &mut impl Read) -> Result<Self, NetError> {
        let (tag, payload) = read_frame(r)?;
        let mut c = Cursor::new(&payload);
        let request = match tag {
            TAG_REQ_BATCH => Request::RunBatch(c.seq(Cursor::query)?),
            TAG_REQ_LIST => Request::ListArtifacts,
            TAG_REQ_STATS => Request::Stats,
            TAG_REQ_SHUTDOWN => Request::Shutdown,
            TAG_REQ_APPLY_DELTAS => Request::ApplyDeltas {
                artifact: c.string("delta artifact")?,
                deltas: c.seq(Cursor::edge_delta)?,
            },
            _ => return Err(NetError::UnknownTag { tag }),
        };
        c.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes this response as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), NetError> {
        let (tag, payload) = match self {
            Response::Batch(results) => {
                let mut buf = Vec::new();
                put_seq(&mut buf, results, put_result);
                (TAG_RESP_BATCH, buf)
            }
            Response::Artifacts(infos) => {
                let mut buf = Vec::new();
                put_seq(&mut buf, infos, put_artifact_info);
                (TAG_RESP_LIST, buf)
            }
            Response::Stats(stats) => {
                let mut buf = Vec::new();
                put_server_stats(&mut buf, stats);
                (TAG_RESP_STATS, buf)
            }
            Response::Overloaded => (TAG_RESP_OVERLOADED, Vec::new()),
            Response::ShuttingDown => (TAG_RESP_SHUTTING_DOWN, Vec::new()),
            Response::DeltasApplied(result) => {
                let mut buf = Vec::new();
                match result {
                    Ok(info) => {
                        put_u8(&mut buf, 0);
                        put_u64(&mut buf, info.version);
                        put_u64(&mut buf, info.applied);
                        put_u64(&mut buf, info.last_seq);
                        put_u8(&mut buf, u8::from(info.rebuilt));
                    }
                    Err(e) => {
                        put_u8(&mut buf, 1);
                        put_core_error(&mut buf, e);
                    }
                }
                (TAG_RESP_DELTAS_APPLIED, buf)
            }
        };
        write_frame(w, tag, &payload)
    }

    /// Reads and decodes one response frame.
    pub fn read_from(r: &mut impl Read) -> Result<Self, NetError> {
        let (tag, payload) = read_frame(r)?;
        let mut c = Cursor::new(&payload);
        let response = match tag {
            TAG_RESP_BATCH => Response::Batch(c.seq(Cursor::result)?),
            TAG_RESP_LIST => Response::Artifacts(c.seq(Cursor::artifact_info)?),
            TAG_RESP_STATS => Response::Stats(c.server_stats()?),
            TAG_RESP_OVERLOADED => Response::Overloaded,
            TAG_RESP_SHUTTING_DOWN => Response::ShuttingDown,
            TAG_RESP_DELTAS_APPLIED => {
                Response::DeltasApplied(match c.u8("apply result kind")? {
                    0 => Ok(DeltaApplyInfo {
                        version: c.u64("apply field")?,
                        applied: c.u64("apply field")?,
                        last_seq: c.u64("apply field")?,
                        rebuilt: match c.u8("apply rebuilt flag")? {
                            0 => false,
                            1 => true,
                            other => {
                                return Err(NetError::Malformed {
                                    message: format!("invalid rebuilt discriminant {other}"),
                                })
                            }
                        },
                    }),
                    1 => Err(c.core_error()?),
                    other => {
                        return Err(NetError::Malformed {
                            message: format!("invalid apply result discriminant {other}"),
                        })
                    }
                })
            }
            _ => return Err(NetError::UnknownTag { tag }),
        };
        c.finish()?;
        Ok(response)
    }
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_seq<T>(buf: &mut Vec<u8>, items: &[T], put: impl Fn(&mut Vec<u8>, &T)) {
    put_u64(buf, items.len() as u64);
    for item in items {
        put(buf, item);
    }
}

fn put_node(buf: &mut Vec<u8>, v: NodeId) {
    put_u64(buf, v.index() as u64);
}

fn put_opt_path(buf: &mut Vec<u8>, path: &Option<Vec<NodeId>>) {
    match path {
        None => put_u8(buf, 0),
        Some(nodes) => {
            put_u8(buf, 1);
            put_seq(buf, nodes, |b, &n| put_node(b, n));
        }
    }
}

fn fault_model_code(m: FaultModel) -> u8 {
    match m {
        FaultModel::Vertex => 0,
        FaultModel::Edge => 1,
    }
}

fn put_edge_delta(buf: &mut Vec<u8>, delta: &EdgeDelta) {
    match delta {
        EdgeDelta::Insert { u, v, weight } => {
            put_u8(buf, 0);
            put_node(buf, *u);
            put_node(buf, *v);
            put_f64(buf, *weight);
        }
        EdgeDelta::Delete { u, v } => {
            put_u8(buf, 1);
            put_node(buf, *u);
            put_node(buf, *v);
        }
        EdgeDelta::Reweight { u, v, weight } => {
            put_u8(buf, 2);
            put_node(buf, *u);
            put_node(buf, *v);
            put_f64(buf, *weight);
        }
    }
}

fn put_query(buf: &mut Vec<u8>, q: &Query) {
    put_str(buf, &q.artifact);
    put_seq(buf, &q.faults, |b, &n| put_node(b, n));
    put_seq(buf, &q.edge_faults, |b, &(u, v)| {
        put_node(b, u);
        put_node(b, v);
    });
    put_node(buf, q.u);
    put_node(buf, q.v);
    put_u8(
        buf,
        match q.kind {
            QueryKind::Distance => 0,
            QueryKind::Path => 1,
            QueryKind::Certificate => 2,
        },
    );
}

fn put_outcome(buf: &mut Vec<u8>, outcome: &QueryOutcome) {
    match outcome {
        QueryOutcome::Distance(d) => {
            put_u8(buf, 0);
            put_f64(buf, *d);
        }
        QueryOutcome::Path(path) => {
            put_u8(buf, 1);
            put_opt_path(buf, path);
        }
        QueryOutcome::Certificate(cert) => {
            put_u8(buf, 2);
            put_node(buf, cert.u);
            put_node(buf, cert.v);
            put_f64(buf, cert.spanner_distance);
            put_f64(buf, cert.baseline_distance);
            put_f64(buf, cert.stretch);
            put_f64(buf, cert.bound);
            put_opt_path(buf, &cert.path);
        }
    }
}

fn put_core_error(buf: &mut Vec<u8>, e: &CoreError) {
    match e {
        CoreError::Graph(g) => {
            put_u8(buf, 0);
            put_graph_error(buf, g);
        }
        CoreError::Lp(l) => {
            put_u8(buf, 1);
            put_lp_error(buf, l);
        }
        CoreError::InvalidParameter { message } => {
            put_u8(buf, 2);
            put_str(buf, message);
        }
        CoreError::TooManyFaults { given, budget } => {
            put_u8(buf, 3);
            put_u64(buf, *given as u64);
            put_u64(buf, *budget as u64);
        }
        CoreError::UnknownNode { node, nodes } => {
            put_u8(buf, 4);
            put_u64(buf, *node as u64);
            put_u64(buf, *nodes as u64);
        }
        CoreError::UnknownEdge { u, v } => {
            put_u8(buf, 5);
            put_u64(buf, *u as u64);
            put_u64(buf, *v as u64);
        }
        CoreError::FaultModelMismatch {
            declared,
            requested,
        } => {
            put_u8(buf, 6);
            put_u8(buf, fault_model_code(*declared));
            put_u8(buf, fault_model_code(*requested));
        }
        CoreError::UnknownArtifact { name } => {
            put_u8(buf, 7);
            put_str(buf, name);
        }
    }
}

fn put_graph_error(buf: &mut Vec<u8>, e: &GraphError) {
    match e {
        GraphError::NodeOutOfBounds { node, len } => {
            put_u8(buf, 0);
            put_u64(buf, *node as u64);
            put_u64(buf, *len as u64);
        }
        GraphError::EdgeOutOfBounds { edge, len } => {
            put_u8(buf, 1);
            put_u64(buf, *edge as u64);
            put_u64(buf, *len as u64);
        }
        GraphError::SelfLoop { node } => {
            put_u8(buf, 2);
            put_u64(buf, *node as u64);
        }
        GraphError::InvalidWeight { weight } => {
            put_u8(buf, 3);
            put_f64(buf, *weight);
        }
        GraphError::MismatchedEdgeSet { set_len, graph_len } => {
            put_u8(buf, 4);
            put_u64(buf, *set_len as u64);
            put_u64(buf, *graph_len as u64);
        }
        GraphError::InvalidParameter { message } => {
            put_u8(buf, 5);
            put_str(buf, message);
        }
        // Codes 6 and 7 are retired and decode as `Malformed`; do not reuse
        // them without a protocol version bump.
        GraphError::PartitionStalled { unassigned } => {
            put_u8(buf, 8);
            put_u64(buf, *unassigned as u64);
        }
    }
}

fn put_lp_error(buf: &mut Vec<u8>, e: &LpError) {
    match e {
        LpError::Infeasible => put_u8(buf, 0),
        LpError::Unbounded => put_u8(buf, 1),
        LpError::IterationLimit { iterations } => {
            put_u8(buf, 2);
            put_u64(buf, *iterations as u64);
        }
        LpError::InvalidProblem { message } => {
            put_u8(buf, 3);
            put_str(buf, message);
        }
    }
}

fn put_result(buf: &mut Vec<u8>, result: &Result<QueryOutcome, CoreError>) {
    match result {
        Ok(outcome) => {
            put_u8(buf, 0);
            put_outcome(buf, outcome);
        }
        Err(e) => {
            put_u8(buf, 1);
            put_core_error(buf, e);
        }
    }
}

fn put_artifact_info(buf: &mut Vec<u8>, info: &ArtifactInfo) {
    put_str(buf, &info.name);
    put_u8(buf, fault_model_code(info.fault_model));
    put_u64(buf, info.fault_budget);
    put_f64(buf, info.stretch);
    put_u64(buf, info.nodes);
    put_u64(buf, info.spanner_edges);
}

fn put_server_stats(buf: &mut Vec<u8>, s: &ServerStats) {
    put_u64(buf, s.connections_accepted);
    put_u64(buf, s.batches_enqueued);
    put_u64(buf, s.batches_started);
    put_u64(buf, s.batches_completed);
    put_u64(buf, s.batches_rejected);
    put_u64(buf, s.queue_depth);
    put_u64(buf, s.engine.batches);
    put_u64(buf, s.engine.queries);
    put_u64(buf, s.engine.planner_groups);
    put_u64(buf, s.engine.planner_units);
    put_u64(buf, s.engine.cache_hits);
    put_u64(buf, s.engine.cache_misses);
    put_u64(buf, s.engine.swaps);
    put_u64(buf, s.engine.deltas_applied);
    put_u64(buf, s.engine.rebuilds);
}

// ---------------------------------------------------------------------------
// Payload decoding
// ---------------------------------------------------------------------------

/// A bounds-checked decoding cursor over one payload. Every read is
/// validated against the remaining bytes; nothing is allocated from a count
/// the remaining bytes cannot cover.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(NetError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, NetError> {
        Ok(self.bytes(1, context)?[0])
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, NetError> {
        let b = self.bytes(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn usize(&mut self, context: &'static str) -> Result<usize, NetError> {
        usize::try_from(self.u64(context)?).map_err(|_| NetError::Malformed {
            message: format!("{context}: value does not fit a usize"),
        })
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, NetError> {
        let b = self.bytes(8, context)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            b.try_into().expect("8 bytes"),
        )))
    }

    fn string(&mut self, context: &'static str) -> Result<String, NetError> {
        let len = self.usize(context)?;
        if self.remaining() < len {
            return Err(NetError::Truncated { context });
        }
        let s =
            std::str::from_utf8(self.bytes(len, context)?).map_err(|_| NetError::Malformed {
                message: format!("{context}: string is not valid UTF-8"),
            })?;
        Ok(s.to_string())
    }

    /// Decodes a length-prefixed sequence. The declared count is validated
    /// against the remaining bytes (each element encodes to at least one
    /// byte), so a lying count fails typed before any allocation.
    fn seq<T>(
        &mut self,
        decode: impl Fn(&mut Self) -> Result<T, NetError>,
    ) -> Result<Vec<T>, NetError> {
        let count = self.usize("sequence length")?;
        if count > self.remaining() {
            return Err(NetError::Malformed {
                message: format!(
                    "sequence declares {count} elements but only {} bytes remain",
                    self.remaining()
                ),
            });
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(decode(self)?);
        }
        Ok(items)
    }

    fn node(&mut self, context: &'static str) -> Result<NodeId, NetError> {
        Ok(NodeId::new(self.usize(context)?))
    }

    fn opt_path(&mut self) -> Result<Option<Vec<NodeId>>, NetError> {
        match self.u8("optional path")? {
            0 => Ok(None),
            1 => Ok(Some(self.seq(|c| c.node("path vertex"))?)),
            other => Err(NetError::Malformed {
                message: format!("invalid option discriminant {other}"),
            }),
        }
    }

    fn fault_model(&mut self) -> Result<FaultModel, NetError> {
        match self.u8("fault model")? {
            0 => Ok(FaultModel::Vertex),
            1 => Ok(FaultModel::Edge),
            other => Err(NetError::Malformed {
                message: format!("invalid fault model discriminant {other}"),
            }),
        }
    }

    fn edge_delta(&mut self) -> Result<EdgeDelta, NetError> {
        match self.u8("delta kind")? {
            0 => Ok(EdgeDelta::Insert {
                u: self.node("delta endpoint")?,
                v: self.node("delta endpoint")?,
                weight: self.f64("delta weight")?,
            }),
            1 => Ok(EdgeDelta::Delete {
                u: self.node("delta endpoint")?,
                v: self.node("delta endpoint")?,
            }),
            2 => Ok(EdgeDelta::Reweight {
                u: self.node("delta endpoint")?,
                v: self.node("delta endpoint")?,
                weight: self.f64("delta weight")?,
            }),
            other => Err(NetError::Malformed {
                message: format!("invalid delta kind discriminant {other}"),
            }),
        }
    }

    fn query(&mut self) -> Result<Query, NetError> {
        let artifact = self.string("query artifact")?;
        let faults = self.seq(|c| c.node("vertex fault"))?;
        let edge_faults = self.seq(|c| {
            let u = c.node("edge fault endpoint")?;
            let v = c.node("edge fault endpoint")?;
            Ok((u, v))
        })?;
        let u = self.node("query endpoint")?;
        let v = self.node("query endpoint")?;
        let kind = match self.u8("query kind")? {
            0 => QueryKind::Distance,
            1 => QueryKind::Path,
            2 => QueryKind::Certificate,
            other => {
                return Err(NetError::Malformed {
                    message: format!("invalid query kind discriminant {other}"),
                })
            }
        };
        Ok(Query {
            artifact,
            faults,
            edge_faults,
            u,
            v,
            kind,
        })
    }

    fn outcome(&mut self) -> Result<QueryOutcome, NetError> {
        match self.u8("outcome kind")? {
            0 => Ok(QueryOutcome::Distance(self.f64("distance")?)),
            1 => Ok(QueryOutcome::Path(self.opt_path()?)),
            2 => Ok(QueryOutcome::Certificate(StretchCertificate {
                u: self.node("certificate endpoint")?,
                v: self.node("certificate endpoint")?,
                spanner_distance: self.f64("certificate field")?,
                baseline_distance: self.f64("certificate field")?,
                stretch: self.f64("certificate field")?,
                bound: self.f64("certificate field")?,
                path: self.opt_path()?,
            })),
            other => Err(NetError::Malformed {
                message: format!("invalid outcome discriminant {other}"),
            }),
        }
    }

    fn core_error(&mut self) -> Result<CoreError, NetError> {
        Ok(match self.u8("error kind")? {
            0 => CoreError::Graph(self.graph_error()?),
            1 => CoreError::Lp(self.lp_error()?),
            2 => CoreError::InvalidParameter {
                message: self.string("error message")?,
            },
            3 => CoreError::TooManyFaults {
                given: self.usize("error field")?,
                budget: self.usize("error field")?,
            },
            4 => CoreError::UnknownNode {
                node: self.usize("error field")?,
                nodes: self.usize("error field")?,
            },
            5 => CoreError::UnknownEdge {
                u: self.usize("error field")?,
                v: self.usize("error field")?,
            },
            6 => CoreError::FaultModelMismatch {
                declared: self.fault_model()?,
                requested: self.fault_model()?,
            },
            7 => CoreError::UnknownArtifact {
                name: self.string("error artifact name")?,
            },
            other => {
                return Err(NetError::Malformed {
                    message: format!("invalid core error discriminant {other}"),
                })
            }
        })
    }

    fn graph_error(&mut self) -> Result<GraphError, NetError> {
        Ok(match self.u8("graph error kind")? {
            0 => GraphError::NodeOutOfBounds {
                node: self.usize("error field")?,
                len: self.usize("error field")?,
            },
            1 => GraphError::EdgeOutOfBounds {
                edge: self.usize("error field")?,
                len: self.usize("error field")?,
            },
            2 => GraphError::SelfLoop {
                node: self.usize("error field")?,
            },
            3 => GraphError::InvalidWeight {
                weight: self.f64("error field")?,
            },
            4 => GraphError::MismatchedEdgeSet {
                set_len: self.usize("error field")?,
                graph_len: self.usize("error field")?,
            },
            5 => GraphError::InvalidParameter {
                message: self.string("error message")?,
            },
            8 => GraphError::PartitionStalled {
                unassigned: self.usize("error field")?,
            },
            other => {
                return Err(NetError::Malformed {
                    message: format!("invalid graph error discriminant {other}"),
                })
            }
        })
    }

    fn lp_error(&mut self) -> Result<LpError, NetError> {
        Ok(match self.u8("lp error kind")? {
            0 => LpError::Infeasible,
            1 => LpError::Unbounded,
            2 => LpError::IterationLimit {
                iterations: self.usize("error field")?,
            },
            3 => LpError::InvalidProblem {
                message: self.string("error message")?,
            },
            other => {
                return Err(NetError::Malformed {
                    message: format!("invalid lp error discriminant {other}"),
                })
            }
        })
    }

    fn result(&mut self) -> Result<Result<QueryOutcome, CoreError>, NetError> {
        match self.u8("result kind")? {
            0 => Ok(Ok(self.outcome()?)),
            1 => Ok(Err(self.core_error()?)),
            other => Err(NetError::Malformed {
                message: format!("invalid result discriminant {other}"),
            }),
        }
    }

    fn artifact_info(&mut self) -> Result<ArtifactInfo, NetError> {
        Ok(ArtifactInfo {
            name: self.string("artifact name")?,
            fault_model: self.fault_model()?,
            fault_budget: self.u64("artifact field")?,
            stretch: self.f64("artifact field")?,
            nodes: self.u64("artifact field")?,
            spanner_edges: self.u64("artifact field")?,
        })
    }

    fn server_stats(&mut self) -> Result<ServerStats, NetError> {
        Ok(ServerStats {
            connections_accepted: self.u64("stats field")?,
            batches_enqueued: self.u64("stats field")?,
            batches_started: self.u64("stats field")?,
            batches_completed: self.u64("stats field")?,
            batches_rejected: self.u64("stats field")?,
            queue_depth: self.u64("stats field")?,
            engine: EngineStats {
                batches: self.u64("stats field")?,
                queries: self.u64("stats field")?,
                planner_groups: self.u64("stats field")?,
                planner_units: self.u64("stats field")?,
                cache_hits: self.u64("stats field")?,
                cache_misses: self.u64("stats field")?,
                swaps: self.u64("stats field")?,
                deltas_applied: self.u64("stats field")?,
                rebuilds: self.u64("stats field")?,
            },
        })
    }

    /// A payload must be consumed exactly: trailing bytes mean the peer and
    /// we disagree about the encoding, which is never safe to ignore.
    fn finish(self) -> Result<(), NetError> {
        if self.pos != self.buf.len() {
            return Err(NetError::Malformed {
                message: format!(
                    "{} trailing bytes after a complete payload",
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let mut wire = Vec::new();
        request.write_to(&mut wire).unwrap();
        let decoded = Request::read_from(&mut wire.as_slice()).unwrap();
        assert_eq!(decoded, request);
    }

    fn round_trip_response(response: Response) {
        let mut wire = Vec::new();
        response.write_to(&mut wire).unwrap();
        let decoded = Response::read_from(&mut wire.as_slice()).unwrap();
        assert_eq!(decoded, response);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::ListArtifacts);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::RunBatch(vec![]));
        round_trip_request(Request::RunBatch(vec![
            Query::distance(
                "backbone",
                vec![NodeId::new(3)],
                NodeId::new(0),
                NodeId::new(7),
            ),
            Query::path("alt", vec![], NodeId::new(1), NodeId::new(2)),
            Query::certificate(
                "backbone",
                vec![NodeId::new(9)],
                NodeId::new(4),
                NodeId::new(5),
            ),
            Query::distance("edges", vec![], NodeId::new(0), NodeId::new(1))
                .with_edge_faults(vec![(NodeId::new(0), NodeId::new(3))]),
        ]));
        round_trip_request(Request::ApplyDeltas {
            artifact: "backbone".into(),
            deltas: vec![],
        });
        round_trip_request(Request::ApplyDeltas {
            artifact: "backbone".into(),
            deltas: vec![
                EdgeDelta::Insert {
                    u: NodeId::new(0),
                    v: NodeId::new(7),
                    weight: 1.5,
                },
                EdgeDelta::Delete {
                    u: NodeId::new(3),
                    v: NodeId::new(4),
                },
                EdgeDelta::Reweight {
                    u: NodeId::new(2),
                    v: NodeId::new(9),
                    weight: 0.25,
                },
            ],
        });
    }

    #[test]
    fn responses_round_trip_including_every_error_variant() {
        round_trip_response(Response::Overloaded);
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Artifacts(vec![ArtifactInfo {
            name: "backbone".into(),
            fault_model: FaultModel::Edge,
            fault_budget: 2,
            stretch: 3.0,
            nodes: 30,
            spanner_edges: 87,
        }]));
        round_trip_response(Response::Stats(ServerStats {
            connections_accepted: 1,
            batches_enqueued: 2,
            batches_started: 3,
            batches_completed: 4,
            batches_rejected: 5,
            queue_depth: 6,
            engine: EngineStats {
                batches: 7,
                queries: 8,
                planner_groups: 9,
                planner_units: 10,
                cache_hits: 11,
                cache_misses: 12,
                swaps: 13,
                deltas_applied: 14,
                rebuilds: 15,
            },
        }));
        round_trip_response(Response::DeltasApplied(Ok(DeltaApplyInfo {
            version: 4,
            applied: 17,
            last_seq: 42,
            rebuilt: true,
        })));
        round_trip_response(Response::DeltasApplied(Err(CoreError::UnknownArtifact {
            name: "backbone".into(),
        })));

        let errors: Vec<CoreError> = vec![
            CoreError::Graph(GraphError::NodeOutOfBounds { node: 9, len: 4 }),
            CoreError::Graph(GraphError::EdgeOutOfBounds { edge: 7, len: 2 }),
            CoreError::Graph(GraphError::SelfLoop { node: 3 }),
            CoreError::Graph(GraphError::InvalidWeight { weight: -2.5 }),
            CoreError::Graph(GraphError::MismatchedEdgeSet {
                set_len: 4,
                graph_len: 6,
            }),
            CoreError::Graph(GraphError::InvalidParameter {
                message: "p must be in [0,1]".into(),
            }),
            CoreError::Graph(GraphError::PartitionStalled { unassigned: 5 }),
            CoreError::Lp(LpError::Infeasible),
            CoreError::Lp(LpError::Unbounded),
            CoreError::Lp(LpError::IterationLimit { iterations: 70 }),
            CoreError::Lp(LpError::InvalidProblem {
                message: "empty".into(),
            }),
            CoreError::InvalidParameter {
                message: "r must be positive".into(),
            },
            CoreError::TooManyFaults {
                given: 5,
                budget: 2,
            },
            CoreError::UnknownNode { node: 9, nodes: 4 },
            CoreError::UnknownEdge { u: 1, v: 2 },
            CoreError::FaultModelMismatch {
                declared: FaultModel::Vertex,
                requested: FaultModel::Edge,
            },
            CoreError::UnknownArtifact {
                name: "prod".into(),
            },
        ];
        let outcomes: Vec<Result<QueryOutcome, CoreError>> = vec![
            Ok(QueryOutcome::Distance(2.5)),
            Ok(QueryOutcome::Distance(f64::INFINITY)),
            Ok(QueryOutcome::Path(None)),
            Ok(QueryOutcome::Path(Some(vec![
                NodeId::new(0),
                NodeId::new(4),
                NodeId::new(2),
            ]))),
            Ok(QueryOutcome::Certificate(StretchCertificate {
                u: NodeId::new(1),
                v: NodeId::new(8),
                spanner_distance: 4.0,
                baseline_distance: 2.0,
                stretch: 2.0,
                bound: 3.0,
                path: Some(vec![NodeId::new(1), NodeId::new(5), NodeId::new(8)]),
            })),
        ];
        let mut results = outcomes;
        results.extend(errors.into_iter().map(Err));
        round_trip_response(Response::Batch(results));
    }

    #[test]
    fn frame_header_defenses() {
        // Bad magic.
        let mut wire = Vec::new();
        Request::Stats.write_to(&mut wire).unwrap();
        wire[0] = b'X';
        assert!(matches!(
            Request::read_from(&mut wire.as_slice()),
            Err(NetError::BadMagic { .. })
        ));

        // Version skew.
        let mut wire = Vec::new();
        Request::Stats.write_to(&mut wire).unwrap();
        wire[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Request::read_from(&mut wire.as_slice()),
            Err(NetError::VersionSkew {
                found: 99,
                expected: PROTOCOL_VERSION
            })
        );

        // Unknown tag.
        let mut wire = Vec::new();
        Request::Stats.write_to(&mut wire).unwrap();
        wire[8..12].copy_from_slice(b"ZZZZ");
        assert_eq!(
            Request::read_from(&mut wire.as_slice()),
            Err(NetError::UnknownTag { tag: *b"ZZZZ" })
        );

        // Oversized declared length is rejected before allocation.
        let mut wire = Vec::new();
        Request::Stats.write_to(&mut wire).unwrap();
        wire[12..20].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            Request::read_from(&mut wire.as_slice()),
            Err(NetError::FrameTooLarge {
                declared: MAX_FRAME_LEN + 1,
                limit: MAX_FRAME_LEN
            })
        );

        // A clean hang-up between frames is Closed, mid-header is Truncated.
        assert_eq!(
            Request::read_from(&mut [].as_slice()),
            Err(NetError::Closed)
        );
        let mut wire = Vec::new();
        Request::Stats.write_to(&mut wire).unwrap();
        for cut in 1..wire.len() {
            let err = Request::read_from(&mut &wire[..cut]).unwrap_err();
            assert!(
                matches!(err, NetError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload = Vec::new();
        put_seq(&mut payload, &[] as &[Query], put_query);
        payload.push(0xFF);
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_REQ_BATCH, &payload).unwrap();
        assert!(matches!(
            Request::read_from(&mut wire.as_slice()),
            Err(NetError::Malformed { .. })
        ));
    }

    #[test]
    fn lying_sequence_counts_fail_before_allocating() {
        // A batch declaring u64::MAX queries in a 9-byte payload must fail
        // typed without attempting a huge allocation.
        let mut payload = Vec::new();
        put_u64(&mut payload, u64::MAX);
        payload.push(0);
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_REQ_BATCH, &payload).unwrap();
        assert!(matches!(
            Request::read_from(&mut wire.as_slice()),
            Err(NetError::Malformed { .. })
        ));
    }
}

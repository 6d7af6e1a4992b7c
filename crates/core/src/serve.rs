//! The query side of fault tolerance: [`FtSpanner`] artifacts and
//! fault-scoped [`FaultSession`]s.
//!
//! The constructions exist so that, *after* faults strike, the surviving
//! spanner still answers distance queries with bounded stretch — yet a
//! [`SpannerReport`] is only a bag of edges. This module promotes it to a
//! first-class artifact:
//!
//! * [`FtSpanner`] — an owned, immutable artifact built from a report and
//!   its source graph. The spanner and the source adjacency are CSR-packed
//!   for cache-friendly traversal, and the artifact carries its provenance
//!   and declared `(k, r, FaultModel)` guarantee.
//! * [`FaultSession`] — created by [`FtSpanner::under_faults`] (or
//!   [`FtSpanner::under_edge_faults`]): masks a concrete fault set *without
//!   copying* and answers [`distance`](FaultSession::distance),
//!   [`path`](FaultSession::path) and
//!   [`stretch_certificate`](FaultSession::stretch_certificate) queries.
//!   Fault sets larger than the declared budget `r` are rejected with the
//!   typed [`CoreError::TooManyFaults`].
//! * [`CachedSession`] — a session with a bounded LRU of per-source
//!   shortest-path trees ([`FaultSession::cached`]): serving batches
//!   dominated by repeated `(source, fault scope)` pairs reuse one Dijkstra
//!   tree per source instead of recomputing per query, with answers
//!   byte-identical to the plain session at any capacity.
//! * [`QuerySession`] — the one query surface every session answers
//!   through (`distance`, `path`, `stretch_certificate`, `cache_stats`), so
//!   a serving layer dispatches over plain, cached and sharded sessions
//!   alike.
//! * Round-trip serialization so artifacts can be built once and served many
//!   times, on other machines, with no extra dependencies: the versioned
//!   binary `.ftspan` format ([`FtSpanner::to_binary_writer`] /
//!   [`FtSpanner::from_binary_slice`] / [`FtSpanner::from_binary_file`]),
//!   decoded only through the validated zero-copy [`FtSpannerView`].
//!
//! # Example
//!
//! ```
//! use ftspan_core::algorithms::core_algorithms;
//! use ftspan_core::{serve::FtSpanner, Registry, SpannerRequest};
//! use ftspan_graph::{generate, NodeId};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let g = generate::connected_gnp(24, 0.3, generate::WeightKind::Unit, &mut rng);
//! let registry = Registry::from_algorithms(core_algorithms());
//! let report = registry
//!     .get("conversion")
//!     .unwrap()
//!     .build((&g).into(), &SpannerRequest::new(1), &mut rng)
//!     .unwrap();
//!
//! let artifact = FtSpanner::from_report(&g, &report).unwrap();
//! let session = artifact.under_faults(&[NodeId::new(3)]).unwrap();
//! let cert = session
//!     .stretch_certificate(NodeId::new(0), NodeId::new(5))
//!     .unwrap();
//! assert!(cert.holds());
//! ```

use crate::api::{FaultModel, ResolvedSource, SpannerEdges, SpannerReport};
use crate::{CoreError, Result};
use ftspan_graph::csr::{reconstruct_path, CsrSubgraph, SsspWorkspace};
use ftspan_graph::{EdgeSet, Graph, NodeId};
use std::io::Write;

/// Numerical slack used when comparing a certificate's stretch to its bound.
const EPS: f64 = 1e-9;

/// Magic prefix of the binary artifact format (see
/// [`FtSpanner::to_binary_writer`]).
pub const BINARY_MAGIC: [u8; 4] = *b"FTSP";

/// Version tag of the binary artifact format: the fixed-width, 8-byte-aligned
/// layout written by [`FtSpanner::to_binary_writer`] and read by
/// [`FtSpannerView::parse`].
pub const BINARY_VERSION: u32 = 2;

/// Largest node count a binary artifact with `m` edges may declare.
///
/// The edge arrays are backed by real bytes (16 per edge), but the node
/// count is a bare integer that [`FtSpannerView::materialize`] turns into an
/// `O(n)` allocation — so a corrupted or crafted header could
/// otherwise demand ~100 GB from an 80-byte file. Bounding `n` by the edge
/// count caps the amplification at a harmless ~24 MB (the 2^20 floor) plus
/// ~100 bytes allocated per byte actually present, while admitting every
/// plausible artifact: a connected source graph already has `n <= m + 1`,
/// and even a pathologically disconnected one passes unless it is mostly
/// isolated vertices at million scale. [`FtSpanner::to_binary_writer`]
/// enforces the same bound so everything it writes is readable.
fn binary_node_bound(m: usize) -> usize {
    (1 << 20) + 64 * m
}

/// The report's undirected edge set; a directed 2-spanner plan is not a
/// distance-query artifact.
fn undirected_edges(report: &SpannerReport) -> Result<&EdgeSet> {
    match &report.edges {
        SpannerEdges::Undirected(edges) => Ok(edges),
        SpannerEdges::Directed(_) => Err(CoreError::InvalidParameter {
            message: format!(
                "algorithm `{}` produced a directed 2-spanner plan; only undirected \
                 spanners can serve distance queries",
                report.algorithm
            ),
        }),
    }
}

/// An owned, immutable, queryable fault-tolerant spanner.
///
/// Built from a [`SpannerReport`] (undirected constructions only) and its
/// source graph by [`FtSpanner::from_report`]; queried through fault-scoped
/// [`FaultSession`]s. The artifact packs both the spanner and the source
/// adjacency in CSR form once, so every session query streams through
/// contiguous memory instead of re-deriving subgraphs.
#[derive(Debug, Clone, PartialEq)]
pub struct FtSpanner {
    algorithm: String,
    provenance: String,
    fault_model: FaultModel,
    faults: usize,
    stretch: f64,
    source: Graph,
    spanner_edges: EdgeSet,
    source_csr: CsrSubgraph,
    spanner_csr: CsrSubgraph,
}

impl FtSpanner {
    /// Builds the artifact from a construction report and the graph it was
    /// built on.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if the report carries directed arcs
    ///   (2-spanner plans are not distance-query artifacts).
    /// * [`CoreError::Graph`] if the report's edge set was built for a
    ///   different graph.
    pub fn from_report(graph: &Graph, report: &SpannerReport) -> Result<Self> {
        Self::adopt_report(graph.clone(), None, report)
    }

    /// Like [`FtSpanner::from_report`], but adopts a source CSR that was
    /// already packed at the construction boundary instead of re-packing
    /// `graph`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FtSpanner::from_report`], plus
    /// [`CoreError::InvalidParameter`] if `source_csr` is not a full
    /// packing of `graph` (wrong vertex count, or a partial edge view).
    pub fn from_report_with_csr(
        graph: &Graph,
        source_csr: CsrSubgraph,
        report: &SpannerReport,
    ) -> Result<Self> {
        Self::adopt_report(graph.clone(), Some(source_csr), report)
    }

    /// Like [`FtSpanner::from_report_with_csr`], but takes the resolved
    /// source by value (the `FtSpannerBuilder::artifact_on_graph` path): the
    /// artifact adopts its graph and CSR without copying either.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FtSpanner::from_report_with_csr`], plus
    /// [`CoreError::InvalidParameter`] for a directed source.
    pub fn from_resolved(source: ResolvedSource, report: &SpannerReport) -> Result<Self> {
        match source {
            ResolvedSource::Undirected { graph, csr } => {
                Self::adopt_report(graph, Some(csr), report)
            }
            ResolvedSource::Directed(_) => Err(CoreError::InvalidParameter {
                message: format!(
                    "algorithm `{}` consumed a directed input; only undirected spanners \
                     can serve distance queries",
                    report.algorithm
                ),
            }),
        }
    }

    /// [`FtSpanner::from_report_with_csr`] taking ownership of `graph`;
    /// `None` packs the source CSR here.
    pub(crate) fn adopt_report(
        graph: Graph,
        source_csr: Option<CsrSubgraph>,
        report: &SpannerReport,
    ) -> Result<Self> {
        let edges = undirected_edges(report)?;
        if let Some(csr) = source_csr.as_ref().filter(|csr| {
            csr.node_count() != graph.node_count()
                || csr.edge_count() != graph.edge_count()
                || csr.edge_count() != csr.parent_edge_count()
        }) {
            return Err(CoreError::InvalidParameter {
                message: format!(
                    "source CSR ({} nodes, {} of {} edges) is not a full packing of the \
                     {}-node, {}-edge graph",
                    csr.node_count(),
                    csr.edge_count(),
                    csr.parent_edge_count(),
                    graph.node_count(),
                    graph.edge_count(),
                ),
            });
        }
        Self::from_parts(
            graph,
            source_csr,
            edges.clone(),
            &report.algorithm,
            &report.provenance,
            report.fault_model,
            report.faults,
            report.stretch,
        )
    }

    /// Adopts an arbitrary edge subset of `graph` as an artifact with the
    /// *declared* guarantee `(k, r, fault_model)`.
    ///
    /// The guarantee is recorded, not checked — this is the escape hatch for
    /// spanners built outside the registry (a plain non-fault-tolerant
    /// spanner can be adopted with `faults = 0`, a hand-rolled construction
    /// with whatever it promises). Constructions built through the unified
    /// API should use [`FtSpanner::from_report`], which copies the report's
    /// authoritative guarantee.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] if `edges` was built for a different
    /// graph.
    pub fn from_edge_set(
        graph: &Graph,
        edges: EdgeSet,
        algorithm: &str,
        provenance: &str,
        fault_model: FaultModel,
        faults: usize,
        stretch: f64,
    ) -> Result<Self> {
        Self::from_parts(
            graph.clone(),
            None,
            edges,
            algorithm,
            provenance,
            fault_model,
            faults,
            stretch,
        )
    }

    /// Builds the artifact from raw parts, taking ownership of `graph`: the
    /// deserializer and the delta repair hand over the graph they just
    /// built instead of copying it. A source CSR packed earlier at the API
    /// boundary can be adopted via `source_csr`; `None` packs one here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        graph: Graph,
        source_csr: Option<CsrSubgraph>,
        spanner_edges: EdgeSet,
        algorithm: &str,
        provenance: &str,
        fault_model: FaultModel,
        faults: usize,
        stretch: f64,
    ) -> Result<Self> {
        let spanner_csr =
            CsrSubgraph::from_edge_set(&graph, &spanner_edges).map_err(CoreError::Graph)?;
        Ok(FtSpanner {
            algorithm: algorithm.to_string(),
            provenance: provenance.to_string(),
            fault_model,
            faults,
            stretch,
            source_csr: source_csr.unwrap_or_else(|| CsrSubgraph::from_graph(&graph)),
            spanner_csr,
            spanner_edges,
            source: graph,
        })
    }

    /// Registry name of the algorithm that produced this artifact.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Human-readable provenance of the construction.
    pub fn provenance(&self) -> &str {
        &self.provenance
    }

    /// The fault model of the declared guarantee.
    pub fn fault_model(&self) -> FaultModel {
        self.fault_model
    }

    /// The declared fault budget `r`: sessions reject larger fault sets.
    pub fn fault_budget(&self) -> usize {
        self.faults
    }

    /// The declared stretch `k`.
    pub fn stretch(&self) -> f64 {
        self.stretch
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.source.node_count()
    }

    /// Number of edges in the spanner.
    pub fn spanner_edge_count(&self) -> usize {
        self.spanner_csr.edge_count()
    }

    /// Number of edges in the source graph.
    pub fn source_edge_count(&self) -> usize {
        self.source.edge_count()
    }

    /// The spanner's edges, as a subset of the source graph's edges.
    pub fn spanner_edges(&self) -> &EdgeSet {
        &self.spanner_edges
    }

    /// The source graph the artifact was built from.
    pub fn source_graph(&self) -> &Graph {
        &self.source
    }

    /// Opens a query session with no faults (the spanner as built).
    pub fn session(&self) -> FaultSession<'_> {
        FaultSession {
            artifact: self,
            dead_nodes: None,
            dead_edges: None,
            fault_ends: Vec::new(),
            fault_count: 0,
        }
    }

    /// Opens a query session in which the given vertices have failed.
    ///
    /// The fault set is masked during traversal — nothing is copied. The
    /// guarantee `d_H\F(u, v) ≤ k · d_G\F(u, v)` holds for every session
    /// whose (deduplicated) fault set is within the declared budget.
    ///
    /// # Errors
    ///
    /// * [`CoreError::FaultModelMismatch`] if the artifact declares
    ///   edge-fault tolerance.
    /// * [`CoreError::UnknownNode`] if a fault is out of bounds.
    /// * [`CoreError::TooManyFaults`] if the deduplicated fault set is
    ///   larger than the declared budget `r`.
    pub fn under_faults(&self, faults: &[NodeId]) -> Result<FaultSession<'_>> {
        if self.fault_model != FaultModel::Vertex {
            return Err(CoreError::FaultModelMismatch {
                declared: self.fault_model,
                requested: FaultModel::Vertex,
            });
        }
        let session = self.under_faults_unchecked(faults)?;
        if session.fault_count > self.faults {
            return Err(CoreError::TooManyFaults {
                given: session.fault_count,
                budget: self.faults,
            });
        }
        Ok(session)
    }

    /// Opens a vertex-fault query session *without* enforcing the declared
    /// fault budget or fault model, for studying how a spanner degrades
    /// beyond what it was built for (the guarantee — and thus
    /// [`StretchCertificate::holds`] — may no longer hold).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if a fault is out of bounds.
    pub fn under_faults_unchecked(&self, faults: &[NodeId]) -> Result<FaultSession<'_>> {
        let n = self.node_count();
        let mut dead = vec![false; n];
        let mut fault_ends = Vec::new();
        for &f in faults {
            if f.index() >= n {
                return Err(CoreError::UnknownNode {
                    node: f.index(),
                    nodes: n,
                });
            }
            if !dead[f.index()] {
                dead[f.index()] = true;
                fault_ends.push(f);
            }
        }
        Ok(FaultSession {
            artifact: self,
            dead_nodes: if fault_ends.is_empty() {
                None
            } else {
                Some(dead)
            },
            dead_edges: None,
            fault_count: fault_ends.len(),
            fault_ends,
        })
    }

    /// Opens a query session in which the given edges (named by their
    /// endpoints) have failed.
    ///
    /// # Errors
    ///
    /// * [`CoreError::FaultModelMismatch`] if the artifact declares
    ///   vertex-fault tolerance.
    /// * [`CoreError::UnknownNode`] / [`CoreError::UnknownEdge`] if an
    ///   endpoint is out of bounds or the named edge does not exist.
    /// * [`CoreError::TooManyFaults`] if the deduplicated fault set is
    ///   larger than the declared budget `r`.
    pub fn under_edge_faults(&self, faults: &[(NodeId, NodeId)]) -> Result<FaultSession<'_>> {
        if self.fault_model != FaultModel::Edge {
            return Err(CoreError::FaultModelMismatch {
                declared: self.fault_model,
                requested: FaultModel::Edge,
            });
        }
        let n = self.node_count();
        let mut dead = vec![false; self.source.edge_count()];
        let mut distinct = 0usize;
        let mut fault_ends = Vec::new();
        for &(u, v) in faults {
            for x in [u, v] {
                if x.index() >= n {
                    return Err(CoreError::UnknownNode {
                        node: x.index(),
                        nodes: n,
                    });
                }
            }
            let id = self.source.find_edge(u, v).ok_or(CoreError::UnknownEdge {
                u: u.index(),
                v: v.index(),
            })?;
            if !dead[id.index()] {
                dead[id.index()] = true;
                distinct += 1;
                fault_ends.extend([u, v]);
            }
        }
        if distinct > self.faults {
            return Err(CoreError::TooManyFaults {
                given: distinct,
                budget: self.faults,
            });
        }
        Ok(FaultSession {
            artifact: self,
            dead_nodes: None,
            dead_edges: if distinct == 0 { None } else { Some(dead) },
            fault_ends,
            fault_count: distinct,
        })
    }

    /// Serializes the artifact in the binary `.ftspan` format: a
    /// fixed-width, 8-byte-aligned layout that [`FtSpannerView::parse`]
    /// validates and then borrows without copying. Round trips through
    /// [`FtSpanner::from_binary_slice`] and [`FtSpanner::from_binary_file`].
    ///
    /// # Layout
    ///
    /// All integers are little-endian. The file opens with a 16-byte header
    /// followed immediately by the section table:
    ///
    /// | offset | bytes | contents                      |
    /// |-------:|------:|-------------------------------|
    /// | 0      | 4     | magic `FTSP`                  |
    /// | 4      | 4     | `u32` version = 2             |
    /// | 8      | 4     | `u32` section count = 6       |
    /// | 12     | 4     | `u32` reserved, zero          |
    /// | 16     | 6×24  | section table                 |
    ///
    /// Each table entry is 24 bytes: a 4-byte tag, a reserved `u32` of
    /// zeros, a `u64` absolute byte offset and a `u64` payload length.
    /// Every offset is a multiple of 8; each section begins at the previous
    /// section's end rounded up to a multiple of 8, the first at the end of
    /// the table; the file ends at the last section's end rounded up to a
    /// multiple of 8; all padding bytes are zero. The sections, in their
    /// required order:
    ///
    /// | tag    | payload |
    /// |--------|---------|
    /// | `META` | `u64` fault budget, `f64` stretch bits, `u32` fault model (0 = vertex, 1 = edge), `u32` algorithm length `a`, `u32` provenance length `p`, `u32` reserved zero, then `a` + `p` UTF-8 bytes |
    /// | `DIMS` | `u64` node count `n`, `u64` edge count `m`, `u64` spanner edge count `s` |
    /// | `EDGU` | `m × u32` edge tails |
    /// | `EDGV` | `m × u32` edge heads |
    /// | `EDGW` | `m × f64` edge weight bits |
    /// | `SPAN` | `s × u32` strictly increasing spanner edge identifiers into the edge arrays |
    ///
    /// The fixed-width arrays are what make the layout mmap-ready: a reader
    /// bounds-checks the table once and then addresses any record by offset
    /// arithmetic, with no per-edge parsing state or allocation.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`; returns
    /// [`std::io::ErrorKind::InvalidInput`] for a source graph whose node
    /// count exceeds the format's per-edge bound (isolated vertices beyond
    /// ~64 per edge — see the allocation guard in [`FtSpannerView::parse`]),
    /// or for a count or string length wider than `u32`.
    pub fn to_binary_writer<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        if self.node_count() > binary_node_bound(self.source.edge_count()) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "cannot serialize {} nodes with only {} edges: the binary format caps \
                     the node count at {} so readers can bound their allocations",
                    self.node_count(),
                    self.source.edge_count(),
                    binary_node_bound(self.source.edge_count()),
                ),
            ));
        }
        // Counts and string lengths are stored as u32; anything wider would
        // silently wrap into a corrupt (or worse, differently-shaped) file.
        let widest = self
            .node_count()
            .max(self.source.edge_count())
            .max(self.algorithm.len())
            .max(self.provenance.len());
        if widest > u32::MAX as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{widest} exceeds the binary format's u32 counters"),
            ));
        }

        let (n, m) = (self.source.node_count(), self.source.edge_count());
        let s = self.spanner_edges.len();

        let mut meta = Vec::with_capacity(32 + self.algorithm.len() + self.provenance.len());
        meta.extend_from_slice(&(self.faults as u64).to_le_bytes());
        meta.extend_from_slice(&self.stretch.to_le_bytes());
        meta.extend_from_slice(
            &match self.fault_model {
                FaultModel::Vertex => 0u32,
                FaultModel::Edge => 1u32,
            }
            .to_le_bytes(),
        );
        meta.extend_from_slice(&(self.algorithm.len() as u32).to_le_bytes());
        meta.extend_from_slice(&(self.provenance.len() as u32).to_le_bytes());
        meta.extend_from_slice(&0u32.to_le_bytes());
        meta.extend_from_slice(self.algorithm.as_bytes());
        meta.extend_from_slice(self.provenance.as_bytes());

        let mut dims = Vec::with_capacity(24);
        dims.extend_from_slice(&(n as u64).to_le_bytes());
        dims.extend_from_slice(&(m as u64).to_le_bytes());
        dims.extend_from_slice(&(s as u64).to_le_bytes());

        let mut edgu = Vec::with_capacity(4 * m);
        let mut edgv = Vec::with_capacity(4 * m);
        let mut edgw = Vec::with_capacity(8 * m);
        for (_, e) in self.source.edges() {
            edgu.extend_from_slice(&(e.u.index() as u32).to_le_bytes());
            edgv.extend_from_slice(&(e.v.index() as u32).to_le_bytes());
            edgw.extend_from_slice(&e.weight.to_le_bytes());
        }
        let mut span = Vec::with_capacity(4 * s);
        for id in self.spanner_edges.iter() {
            span.extend_from_slice(&(id.index() as u32).to_le_bytes());
        }

        let sections: [(&[u8; 4], &[u8]); 6] = [
            (b"META", &meta),
            (b"DIMS", &dims),
            (b"EDGU", &edgu),
            (b"EDGV", &edgv),
            (b"EDGW", &edgw),
            (b"SPAN", &span),
        ];
        writer.write_all(&BINARY_MAGIC)?;
        writer.write_all(&BINARY_VERSION.to_le_bytes())?;
        writer.write_all(&(sections.len() as u32).to_le_bytes())?;
        writer.write_all(&0u32.to_le_bytes())?;
        let mut offset = (V2_HEADER_LEN + V2_ENTRY_LEN * sections.len()) as u64;
        for (tag, payload) in &sections {
            writer.write_all(*tag)?;
            writer.write_all(&0u32.to_le_bytes())?;
            writer.write_all(&offset.to_le_bytes())?;
            writer.write_all(&(payload.len() as u64).to_le_bytes())?;
            offset += align8(payload.len()) as u64;
        }
        for (_, payload) in &sections {
            writer.write_all(payload)?;
            let pad = align8(payload.len()) - payload.len();
            writer.write_all(&[0u8; 7][..pad])?;
        }
        Ok(())
    }

    /// Decodes an in-memory binary artifact written by
    /// [`FtSpanner::to_binary_writer`]: the image is validated and borrowed
    /// by [`FtSpannerView::parse`], then copied out by
    /// [`FtSpannerView::materialize`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for any malformed image, as
    /// documented on [`FtSpannerView::parse`] and
    /// [`FtSpannerView::materialize`].
    pub fn from_binary_slice(data: &[u8]) -> Result<Self> {
        FtSpannerView::parse(data)?.materialize()
    }

    /// Loads a binary artifact from a file in one read.
    ///
    /// The whole image lands in a single buffer and is then decoded by
    /// [`FtSpanner::from_binary_slice`], so a cold load is I/O-bound rather
    /// than parse-bound.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] naming the path when the
    /// file cannot be read or its contents are malformed.
    pub fn from_binary_file(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let path = path.as_ref();
        let data = std::fs::read(path).map_err(|e| CoreError::InvalidParameter {
            message: format!(
                "cannot read ftspanner binary file `{}`: {e}",
                path.display()
            ),
        })?;
        // Name the file in parse failures too: a directory cold load surfaces
        // the first corrupt artifact, and without the path an operator can't
        // tell which of dozens of files to re-ship.
        Self::from_binary_slice(&data).map_err(|e| CoreError::InvalidParameter {
            message: format!(
                "cannot parse ftspanner binary file `{}`: {e}",
                path.display()
            ),
        })
    }
}

/// Byte size of the version-2 header (magic, version, section count,
/// reserved word).
const V2_HEADER_LEN: usize = 16;

/// Byte size of one version-2 section-table entry (tag, reserved word,
/// offset, length).
const V2_ENTRY_LEN: usize = 24;

/// The version-2 section tags in their required file order.
const V2_TAGS: [&[u8; 4]; 6] = [b"META", b"DIMS", b"EDGU", b"EDGV", b"EDGW", b"SPAN"];

/// Rounds a length up to the next multiple of 8 (the version-2 section
/// alignment).
fn align8(len: usize) -> usize {
    len.div_ceil(8) * 8
}

/// Little-endian `u32` at a byte offset the caller has bounds-checked.
fn read_u32_at(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"))
}

/// Little-endian `u64` at a byte offset the caller has bounds-checked.
fn read_u64_at(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

/// A validated, zero-copy view of a binary `.ftspan` artifact — the one
/// path by which an artifact is decoded.
///
/// [`FtSpanner::to_binary_writer`] documents the byte layout.
/// [`FtSpannerView::parse`] bounds-checks the section table, validates every
/// header field, edge record and spanner edge identifier, and then *borrows*
/// the fixed-width sections from the caller's buffer — parsing performs no
/// allocation at all, and nothing is copied until
/// [`FtSpannerView::materialize`] builds an owned [`FtSpanner`]. Accessors
/// decode individual records with `from_le_bytes`, so the buffer needs no
/// particular alignment and can come straight from a memory-mapped file.
///
/// The one malformation `parse` cannot reject without allocating is a
/// duplicate edge (detecting it needs a set over the endpoints);
/// `materialize` reports it as the usual typed error.
#[derive(Debug, Clone, Copy)]
pub struct FtSpannerView<'a> {
    algorithm: &'a str,
    provenance: &'a str,
    fault_model: FaultModel,
    faults: usize,
    stretch: f64,
    nodes: usize,
    edge_u: &'a [u8],
    edge_v: &'a [u8],
    edge_w: &'a [u8],
    span: &'a [u8],
}

impl<'a> FtSpannerView<'a> {
    /// Validates a version-2 binary image and borrows its sections without
    /// copying or allocating.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on a bad magic or version, a
    /// wrong section count, tag or order, a misaligned, overlapping or
    /// out-of-bounds section, non-zero padding or reserved bytes, a
    /// malformed `META` section, an implausible node count (more than the
    /// format's per-edge bound, refused before anything is allocated),
    /// mismatched section lengths, an out-of-range endpoint, self-loop or
    /// non-finite weight in the edge arrays, or spanner edge identifiers
    /// that are out of range or not strictly increasing.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        let fail = |message: String| {
            Err(CoreError::InvalidParameter {
                message: format!("{message} in ftspanner v2 binary data"),
            })
        };
        if data.len() < V2_HEADER_LEN {
            return fail(format!(
                "image of {} bytes is shorter than the {V2_HEADER_LEN}-byte header",
                data.len()
            ));
        }
        if data[..4] != BINARY_MAGIC {
            return fail(format!("bad magic {:?}", &data[..4]));
        }
        let version = read_u32_at(data, 4);
        if version != BINARY_VERSION {
            return fail(format!("version {version} is not {BINARY_VERSION}"));
        }
        let count = read_u32_at(data, 8) as usize;
        if count != V2_TAGS.len() {
            return fail(format!("section count {count} is not {}", V2_TAGS.len()));
        }
        if read_u32_at(data, 12) != 0 {
            return fail("non-zero reserved header word".to_string());
        }
        let table_end = V2_HEADER_LEN + V2_ENTRY_LEN * count;
        if data.len() < table_end {
            return fail(format!(
                "image of {} bytes is shorter than its {table_end}-byte section table",
                data.len()
            ));
        }

        let mut sections = [&data[..0]; 6];
        let mut prev_end = table_end;
        for (i, tag) in V2_TAGS.iter().enumerate() {
            let base = V2_HEADER_LEN + V2_ENTRY_LEN * i;
            // Only error paths may allocate (the zero-allocation claim on
            // successful parses is pinned by a counting-allocator test), so
            // the printable tag is built lazily.
            let name = || String::from_utf8_lossy(&tag[..]).into_owned();
            if data[base..base + 4] != tag[..] {
                return fail(format!(
                    "expected `{}` section tag, got {:?}",
                    name(),
                    &data[base..base + 4]
                ));
            }
            if read_u32_at(data, base + 4) != 0 {
                return fail(format!(
                    "non-zero reserved word in `{}` table entry",
                    name()
                ));
            }
            let offset = read_u64_at(data, base + 8);
            let len = read_u64_at(data, base + 16);
            // Sections are dense: each starts at the previous end rounded
            // up to the 8-byte alignment, so offsets are fully determined
            // and a lying table cannot alias or reorder payloads.
            if offset != align8(prev_end) as u64 {
                return fail(format!(
                    "`{}` section at offset {offset}, expected {}",
                    name(),
                    align8(prev_end)
                ));
            }
            let Some(end) = offset.checked_add(len).filter(|&e| e <= data.len() as u64) else {
                return fail(format!(
                    "`{}` section of {len} bytes at offset {offset} overruns the \
                     {}-byte image",
                    name(),
                    data.len()
                ));
            };
            if data[prev_end..offset as usize].iter().any(|&b| b != 0) {
                return fail(format!("non-zero padding before `{}` section", name()));
            }
            sections[i] = &data[offset as usize..end as usize];
            prev_end = end as usize;
        }
        if data.len() != align8(prev_end) {
            return fail(format!(
                "image of {} bytes does not end at the last section's padded end {}",
                data.len(),
                align8(prev_end)
            ));
        }
        if data[prev_end..].iter().any(|&b| b != 0) {
            return fail("non-zero trailing padding".to_string());
        }

        let meta = sections[0];
        if meta.len() < 32 {
            return fail(format!(
                "`META` section of {} bytes is shorter than its 32-byte fixed part",
                meta.len()
            ));
        }
        let faults = read_u64_at(meta, 0);
        let Ok(faults) = usize::try_from(faults) else {
            return fail(format!("fault budget {faults} overflows usize"));
        };
        let stretch = f64::from_bits(read_u64_at(meta, 8));
        let fault_model = match read_u32_at(meta, 16) {
            0 => FaultModel::Vertex,
            1 => FaultModel::Edge,
            other => return fail(format!("unknown fault model tag {other}")),
        };
        let alg_len = read_u32_at(meta, 20) as usize;
        let prov_len = read_u32_at(meta, 24) as usize;
        if read_u32_at(meta, 28) != 0 {
            return fail("non-zero reserved word in `META` section".to_string());
        }
        if meta.len() != 32 + alg_len + prov_len {
            return fail(format!(
                "`META` section of {} bytes does not match its declared string \
                 lengths {alg_len} + {prov_len}",
                meta.len()
            ));
        }
        let Ok(algorithm) = std::str::from_utf8(&meta[32..32 + alg_len]) else {
            return fail("non-UTF-8 algorithm string in `META` section".to_string());
        };
        let Ok(provenance) = std::str::from_utf8(&meta[32 + alg_len..]) else {
            return fail("non-UTF-8 provenance string in `META` section".to_string());
        };

        let dims = sections[1];
        if dims.len() != 24 {
            return fail(format!(
                "`DIMS` section of {} bytes is not 24 bytes",
                dims.len()
            ));
        }
        let n = read_u64_at(dims, 0);
        let m = read_u64_at(dims, 8);
        let s = read_u64_at(dims, 16);
        // The edge arrays bound everything: m and s are backed by real
        // bytes below, and n is capped by the per-edge allocation guard.
        if m > u32::MAX as u64 || s > m {
            return fail(format!("implausible dimensions m = {m}, s = {s}"));
        }
        let m = m as usize;
        let s = s as usize;
        if n > binary_node_bound(m) as u64 {
            return fail(format!(
                "implausible node count {n} for {m} edges (limit {}): refusing the allocation",
                binary_node_bound(m)
            ));
        }
        let n = n as usize;

        let (edge_u, edge_v, edge_w, span) = (sections[2], sections[3], sections[4], sections[5]);
        for (name, section, want) in [
            ("EDGU", edge_u, 4 * m),
            ("EDGV", edge_v, 4 * m),
            ("EDGW", edge_w, 8 * m),
            ("SPAN", span, 4 * s),
        ] {
            if section.len() != want {
                return fail(format!(
                    "`{name}` section of {} bytes does not match the declared \
                     {want}-byte record array",
                    section.len()
                ));
            }
        }
        for i in 0..m {
            let u = read_u32_at(edge_u, 4 * i) as usize;
            let v = read_u32_at(edge_v, 4 * i) as usize;
            let w = f64::from_bits(read_u64_at(edge_w, 8 * i));
            if u >= n || v >= n || u == v || !w.is_finite() || w < 0.0 {
                return fail(format!(
                    "invalid edge {i}: ({u}, {v}) weight {w} in a \
                     {n}-vertex graph"
                ));
            }
        }
        let mut prev: Option<u32> = None;
        for i in 0..s {
            let id = read_u32_at(span, 4 * i);
            if id as usize >= m || prev.is_some_and(|p| p >= id) {
                return fail(format!(
                    "spanner edge identifier {id} at position {i} is out of range for \
                     {m} edges or not strictly increasing"
                ));
            }
            prev = Some(id);
        }

        Ok(FtSpannerView {
            algorithm,
            provenance,
            fault_model,
            faults,
            stretch,
            nodes: n,
            edge_u,
            edge_v,
            edge_w,
            span,
        })
    }

    /// Name of the construction algorithm that produced the spanner.
    pub fn algorithm(&self) -> &'a str {
        self.algorithm
    }

    /// Free-text provenance recorded at construction time.
    pub fn provenance(&self) -> &'a str {
        self.provenance
    }

    /// Which objects the guarantee lets fail.
    pub fn fault_model(&self) -> FaultModel {
        self.fault_model
    }

    /// The declared fault budget `r`.
    pub fn fault_budget(&self) -> usize {
        self.faults
    }

    /// The declared stretch bound `k`.
    pub fn stretch(&self) -> f64 {
        self.stretch
    }

    /// Number of vertices in the source graph.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of edges in the source graph.
    pub fn edge_count(&self) -> usize {
        self.edge_u.len() / 4
    }

    /// Number of edges the spanner keeps.
    pub fn spanner_edge_count(&self) -> usize {
        self.span.len() / 4
    }

    /// Decodes source edge `i` as `(u, v, weight)` straight from the
    /// borrowed arrays.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.edge_count()`.
    pub fn edge(&self, i: usize) -> (NodeId, NodeId, f64) {
        assert!(i < self.edge_count(), "edge index {i} out of range");
        (
            NodeId::new(read_u32_at(self.edge_u, 4 * i) as usize),
            NodeId::new(read_u32_at(self.edge_v, 4 * i) as usize),
            f64::from_bits(read_u64_at(self.edge_w, 8 * i)),
        )
    }

    /// Decodes the `i`-th spanner edge identifier.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.spanner_edge_count()`.
    pub fn spanner_edge(&self, i: usize) -> ftspan_graph::EdgeId {
        assert!(
            i < self.spanner_edge_count(),
            "spanner edge index {i} out of range"
        );
        ftspan_graph::EdgeId::new(read_u32_at(self.span, 4 * i) as usize)
    }

    /// Builds an owned [`FtSpanner`] from the view — the first point at
    /// which anything is copied out of the underlying buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a duplicate edge (the
    /// one malformation [`FtSpannerView::parse`] cannot detect without
    /// allocating).
    pub fn materialize(&self) -> Result<FtSpanner> {
        let mut graph = Graph::new(self.nodes);
        for i in 0..self.edge_count() {
            let (u, v, w) = self.edge(i);
            graph
                .add_edge(u, v, w)
                .map_err(|e| CoreError::InvalidParameter {
                    message: format!("invalid edge {i} in ftspanner binary data: {e}"),
                })?;
        }
        let mut edges = graph.empty_edge_set();
        for i in 0..self.spanner_edge_count() {
            edges.insert(self.spanner_edge(i));
        }
        FtSpanner::from_parts(
            graph,
            None,
            edges,
            self.algorithm,
            self.provenance,
            self.fault_model,
            self.faults,
            self.stretch,
        )
    }
}

/// A fault-scoped view of an [`FtSpanner`]: the declared fault set is masked
/// during traversal (no subgraph is materialized) and every query is
/// answered against the surviving spanner.
///
/// Queries naming a failed vertex report infinite distance — the vertex is
/// gone, so nothing reaches it. Out-of-range vertices are a typed error.
#[derive(Debug, Clone)]
pub struct FaultSession<'a> {
    artifact: &'a FtSpanner,
    dead_nodes: Option<Vec<bool>>,
    dead_edges: Option<Vec<bool>>,
    /// Every dead vertex and both endpoints of every dead edge: where a
    /// repair of a fault-free row starts.
    fault_ends: Vec<NodeId>,
    fault_count: usize,
}

/// The answer to a [`FaultSession::stretch_certificate`] query: both sides
/// of the stretch guarantee for one vertex pair, plus the witnessing path.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchCertificate {
    /// First query vertex.
    pub u: NodeId,
    /// Second query vertex.
    pub v: NodeId,
    /// Distance in the surviving spanner `H \ F`.
    pub spanner_distance: f64,
    /// Distance in the surviving source graph `G \ F` (the baseline the
    /// guarantee is measured against).
    pub baseline_distance: f64,
    /// Realized stretch `spanner_distance / baseline_distance`
    /// ([`ftspan_graph::verify::pair_stretch`]): `1.0` when the pair is
    /// disconnected in `G \ F` (the guarantee is vacuous there); at baseline
    /// distance 0, `1.0` if the spanner distance is 0 too and infinite
    /// otherwise.
    pub stretch: f64,
    /// The declared bound `k` the certificate is checked against.
    pub bound: f64,
    /// A shortest surviving spanner path from `u` to `v`, if any.
    pub path: Option<Vec<NodeId>>,
}

impl StretchCertificate {
    /// A certificate for `(u, v)` from both distances, the declared bound
    /// and the witnessing path. The realized stretch is
    /// [`ftspan_graph::verify::pair_stretch`] of the two distances.
    pub fn new(
        u: NodeId,
        v: NodeId,
        spanner_distance: f64,
        baseline_distance: f64,
        bound: f64,
        path: Option<Vec<NodeId>>,
    ) -> Self {
        StretchCertificate {
            u,
            v,
            spanner_distance,
            baseline_distance,
            stretch: ftspan_graph::verify::pair_stretch(spanner_distance, baseline_distance),
            bound,
            path,
        }
    }

    /// Returns `true` if the realized stretch is within the declared bound.
    pub fn holds(&self) -> bool {
        self.stretch <= self.bound + EPS
    }
}

impl<'a> FaultSession<'a> {
    /// The artifact this session queries.
    pub fn artifact(&self) -> &'a FtSpanner {
        self.artifact
    }

    /// Number of distinct faults masked by this session.
    pub fn fault_count(&self) -> usize {
        self.fault_count
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        let n = self.artifact.node_count();
        if v.index() >= n {
            return Err(CoreError::UnknownNode {
                node: v.index(),
                nodes: n,
            });
        }
        Ok(())
    }

    fn masks(&self) -> (Option<&[bool]>, Option<&[bool]>) {
        (self.dead_nodes.as_deref(), self.dead_edges.as_deref())
    }

    /// A search from `u` on `csr` under this session's masks that stops
    /// once `v`'s label is final ([`CsrSubgraph::sssp_target_into`]: the
    /// same distance and path to `v` as a full traversal, bit for bit).
    /// `None` when `v` has failed: a dead vertex is never labelled, so
    /// there is nothing to search for.
    fn search_to(&self, csr: &CsrSubgraph, u: NodeId, v: NodeId) -> Result<Option<SsspWorkspace>> {
        self.check_node(u)?;
        self.check_node(v)?;
        let (dead, dead_edges) = self.masks();
        if dead.is_some_and(|d| d[v.index()]) {
            return Ok(None);
        }
        let mut workspace = SsspWorkspace::new();
        csr.sssp_target_into(u, v, dead, dead_edges, &mut workspace)
            .map_err(CoreError::Graph)?;
        Ok(Some(workspace))
    }

    /// Shortest-path distance from `u` to `v` in the surviving spanner
    /// `H \ F` (`INFINITY` when disconnected or an endpoint has failed).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if an endpoint is out of bounds.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Result<f64> {
        let search = self.search_to(&self.artifact.spanner_csr, u, v)?;
        Ok(search.map_or(f64::INFINITY, |ws| ws.distances()[v.index()]))
    }

    /// All shortest-path distances from `u` in the surviving spanner (one
    /// traversal; cheaper than `n` [`FaultSession::distance`] calls).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if `u` is out of bounds.
    pub fn distances_from(&self, u: NodeId) -> Result<Vec<f64>> {
        self.check_node(u)?;
        let (dead, dead_edges) = self.masks();
        self.artifact
            .spanner_csr
            .sssp(u, dead, dead_edges)
            .map_err(CoreError::Graph)
    }

    /// A shortest surviving spanner path from `u` to `v`, as the ordered
    /// vertex sequence (`None` when disconnected or an endpoint has failed).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if an endpoint is out of bounds.
    pub fn path(&self, u: NodeId, v: NodeId) -> Result<Option<Vec<NodeId>>> {
        let search = self.search_to(&self.artifact.spanner_csr, u, v)?;
        Ok(search.and_then(|ws| reconstruct_path(ws.parents(), ws.distances(), u, v)))
    }

    /// Distance from `u` to `v` in the surviving *source* graph `G \ F` —
    /// the baseline the stretch guarantee compares against.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if an endpoint is out of bounds.
    pub fn baseline_distance(&self, u: NodeId, v: NodeId) -> Result<f64> {
        let search = self.search_to(&self.artifact.source_csr, u, v)?;
        Ok(search.map_or(f64::INFINITY, |ws| ws.distances()[v.index()]))
    }

    /// All shortest-path distances from `u` in the surviving *source* graph
    /// `G \ F` (one traversal; the baseline analogue of
    /// [`FaultSession::distances_from`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if `u` is out of bounds.
    pub fn baseline_distances_from(&self, u: NodeId) -> Result<Vec<f64>> {
        self.check_node(u)?;
        let (dead, dead_edges) = self.masks();
        self.artifact
            .source_csr
            .sssp(u, dead, dead_edges)
            .map_err(CoreError::Graph)
    }

    /// Produces a [`StretchCertificate`] for the pair `(u, v)`: the spanner
    /// distance, the baseline distance in `G \ F`, the realized stretch and
    /// a witnessing path, checked against the declared bound `k` via
    /// [`StretchCertificate::holds`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if an endpoint is out of bounds.
    pub fn stretch_certificate(&self, u: NodeId, v: NodeId) -> Result<StretchCertificate> {
        let (distance, path) = match self.search_to(&self.artifact.spanner_csr, u, v)? {
            Some(ws) => (
                ws.distances()[v.index()],
                reconstruct_path(ws.parents(), ws.distances(), u, v),
            ),
            None => (f64::INFINITY, None),
        };
        Ok(StretchCertificate::new(
            u,
            v,
            distance,
            self.baseline_distance(u, v)?,
            self.artifact.stretch,
            path,
        ))
    }

    /// Worst realized stretch over every surviving edge of the source graph
    /// (the fault-tolerant spanner condition, checked over edges — which
    /// suffices, see Section 2 of the paper). `1.0` when no edge survives.
    ///
    /// This is the same sweep the verification oracles run
    /// ([`ftspan_graph::verify::max_stretch_masked_csr_threaded`], on one
    /// worker), over the artifact's already-packed CSRs.
    pub fn max_stretch(&self) -> f64 {
        let (dead, dead_edges) = self.masks();
        ftspan_graph::verify::max_stretch_masked_csr_threaded(
            &self.artifact.source,
            &self.artifact.source_csr,
            &self.artifact.spanner_csr,
            dead,
            dead_edges,
            1,
        )
    }

    /// Returns `true` if every surviving edge is stretched at most the
    /// declared bound `k` in this session (the per-fault-set spanner
    /// condition).
    pub fn is_within_guarantee(&self) -> bool {
        self.max_stretch() <= self.artifact.stretch + EPS
    }

    /// Wraps this session in a [`CachedSession`] whose bounded LRU source
    /// cache reuses one Dijkstra tree per query source.
    ///
    /// `capacity` is the number of distinct sources kept (`0` disables
    /// caching entirely — every query recomputes, exactly like the plain
    /// session). Caching is **observationally transparent**: every answer is
    /// identical to the plain session's, at any capacity.
    pub fn cached(self, capacity: usize) -> CachedSession<'a> {
        CachedSession {
            session: self,
            capacity,
            trees: Vec::new(),
            workspace: SsspWorkspace::new(),
            hits: 0,
            misses: 0,
        }
    }
}

/// A snapshot of a [`CachedSession`]'s source-cache counters
/// ([`QuerySession::cache_stats`]).
///
/// Hits are queries answered from a resident per-source Dijkstra tree;
/// misses ran a full traversal. The counters are observability only — they
/// never influence answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from a cached tree.
    pub hits: u64,
    /// Queries that had to run Dijkstra.
    pub misses: u64,
}

impl CacheStats {
    /// Hits plus misses.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One cached shortest-path tree of a [`CachedSession`]: the spanner-side
/// distances and parents from a source, plus the lazily computed baseline
/// distances (only certificate queries need them).
#[derive(Debug, Clone)]
struct CachedTree {
    source: NodeId,
    dist: Vec<f64>,
    parents: Vec<Option<NodeId>>,
    baseline: Option<Vec<f64>>,
}

/// A [`FaultSession`] with a bounded LRU cache of per-source shortest-path
/// trees, created by [`FaultSession::cached`].
///
/// Serving batches are dominated by repeated `(source, fault scope)` pairs;
/// a `distance`, `path` or `stretch_certificate` query from a source whose
/// tree is cached costs an array lookup (plus a path walk) instead of a full
/// Dijkstra. Cache misses compute through a reusable [`SsspWorkspace`], so
/// even a cold cache allocates less than the plain session.
///
/// The cache is **observationally transparent**: for every query and every
/// capacity (including `0` = off), the answer is byte-identical to the
/// underlying [`FaultSession`]'s. Methods take `&mut self` only to maintain
/// the cache.
///
/// The recency list is a plain `Vec` scanned linearly, a deliberate
/// small-capacity design: at the tens-to-hundreds of sources a serving
/// group sees, the scan is noise next to the Dijkstra run a hit saves.
/// Capacities in the many thousands would want an index next to the list.
#[derive(Debug)]
pub struct CachedSession<'a> {
    session: FaultSession<'a>,
    capacity: usize,
    /// LRU order: least recently used first, most recent last.
    trees: Vec<CachedTree>,
    workspace: SsspWorkspace,
    hits: u64,
    misses: u64,
}

impl<'a> CachedSession<'a> {
    /// The underlying fault-scoped session.
    pub fn session(&self) -> &FaultSession<'a> {
        &self.session
    }

    /// The artifact this session queries.
    pub fn artifact(&self) -> &'a FtSpanner {
        self.session.artifact
    }

    /// Ensures the tree rooted at `u` is resident and returns its index
    /// (always the most-recent slot, `self.trees.len() - 1`).
    fn ensure_tree(&mut self, u: NodeId) -> Result<usize> {
        self.session.check_node(u)?;
        if self.capacity > 0 {
            if let Some(i) = self.trees.iter().position(|t| t.source == u) {
                self.hits += 1;
                let tree = self.trees.remove(i);
                self.trees.push(tree);
                return Ok(self.trees.len() - 1);
            }
        }
        self.misses += 1;
        let (dead, dead_edges) = (
            self.session.dead_nodes.as_deref(),
            self.session.dead_edges.as_deref(),
        );
        self.session
            .artifact
            .spanner_csr
            .sssp_into(u, dead, dead_edges, &mut self.workspace)
            .map_err(CoreError::Graph)?;
        let tree = CachedTree {
            source: u,
            dist: self.workspace.distances().to_vec(),
            parents: self.workspace.parents().to_vec(),
            baseline: None,
        };
        if self.capacity == 0 {
            self.trees.clear();
        } else {
            while self.trees.len() >= self.capacity {
                self.trees.remove(0);
            }
        }
        self.trees.push(tree);
        Ok(self.trees.len() - 1)
    }

    /// Ensures the baseline (source-graph) distances of the tree at `slot`
    /// are computed.
    fn ensure_baseline(&mut self, slot: usize) -> Result<()> {
        if self.trees[slot].baseline.is_some() {
            return Ok(());
        }
        let u = self.trees[slot].source;
        let (dead, dead_edges) = (
            self.session.dead_nodes.as_deref(),
            self.session.dead_edges.as_deref(),
        );
        self.session
            .artifact
            .source_csr
            .sssp_into(u, dead, dead_edges, &mut self.workspace)
            .map_err(CoreError::Graph)?;
        self.trees[slot].baseline = Some(self.workspace.distances().to_vec());
        Ok(())
    }

    /// All shortest-path distances from `u` in the surviving spanner
    /// (identical to [`FaultSession::distances_from`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if `u` is out of bounds.
    pub fn distances_from(&mut self, u: NodeId) -> Result<Vec<f64>> {
        Ok(self.distance_row(u, false)?.to_vec())
    }

    /// Borrows the cached row of distances from `u`: the surviving spanner
    /// distances, or with `baseline` the source-graph ones. The same values
    /// as [`CachedSession::distances_from`] /
    /// [`CachedSession::baseline_distances_from`], without the copy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if `u` is out of bounds.
    pub fn distance_row(&mut self, u: NodeId, baseline: bool) -> Result<&[f64]> {
        let slot = self.ensure_tree(u)?;
        if baseline {
            self.ensure_baseline(slot)?;
            return Ok(self.trees[slot].baseline.as_deref().expect("just ensured"));
        }
        Ok(&self.trees[slot].dist)
    }

    /// Repairs `free`, the fault-free row from `u` (spanner distances, or
    /// with `baseline` source-graph ones), into this session's row from `u`
    /// — the same values as [`CachedSession::distance_row`], bit for bit —
    /// with [`CsrSubgraph::sssp_repair_into`] in the session's workspace.
    /// Nothing is cached and the cache counters do not move; the returned
    /// row lives until the session's next traversal.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if `u` is out of bounds, and
    /// [`CoreError::Graph`] if `free` is not one distance per vertex.
    pub fn repair_distance_row(
        &mut self,
        u: NodeId,
        free: &[f64],
        baseline: bool,
    ) -> Result<&[f64]> {
        self.session.check_node(u)?;
        let artifact = self.session.artifact;
        let csr = if baseline {
            &artifact.source_csr
        } else {
            &artifact.spanner_csr
        };
        csr.sssp_repair_into(
            u,
            free,
            self.session.dead_nodes.as_deref(),
            self.session.dead_edges.as_deref(),
            &self.session.fault_ends,
            &mut self.workspace,
        )
        .map_err(CoreError::Graph)?;
        Ok(self.workspace.distances())
    }

    /// All baseline (source-graph) distances from `u` (identical to
    /// [`FaultSession::baseline_distances_from`]), cached per source like
    /// every other query.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if `u` is out of bounds.
    pub fn baseline_distances_from(&mut self, u: NodeId) -> Result<Vec<f64>> {
        Ok(self.distance_row(u, true)?.to_vec())
    }
}

/// The query surface of a fault-scoped session: the three answers a
/// serving layer asks for, whatever the session underneath.
///
/// [`CachedSession`] and the facade's sharded session implement it
/// directly; [`FaultSession`] keeps its `&self` methods as the uncached
/// reference executor and forwards to them. Every implementation checks
/// `u` before `v` and reports the same typed errors, so callers can swap
/// one session for another without changing any answer.
pub trait QuerySession {
    /// Shortest-path distance from `u` to `v` in the surviving spanner
    /// `H \ F` (`INFINITY` when disconnected or an endpoint has failed).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if an endpoint is out of bounds.
    fn distance(&mut self, u: NodeId, v: NodeId) -> Result<f64>;

    /// A shortest surviving spanner path from `u` to `v`, as the ordered
    /// vertex sequence (`None` when disconnected or an endpoint has failed).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if an endpoint is out of bounds.
    fn path(&mut self, u: NodeId, v: NodeId) -> Result<Option<Vec<NodeId>>>;

    /// A [`StretchCertificate`] for the pair `(u, v)`: both distances, the
    /// realized stretch against the declared bound, and a witnessing path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if an endpoint is out of bounds.
    fn stretch_certificate(&mut self, u: NodeId, v: NodeId) -> Result<StretchCertificate>;

    /// The session's source-cache counters (zero for a session without a
    /// cache).
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

impl QuerySession for FaultSession<'_> {
    fn distance(&mut self, u: NodeId, v: NodeId) -> Result<f64> {
        FaultSession::distance(self, u, v)
    }

    fn path(&mut self, u: NodeId, v: NodeId) -> Result<Option<Vec<NodeId>>> {
        FaultSession::path(self, u, v)
    }

    fn stretch_certificate(&mut self, u: NodeId, v: NodeId) -> Result<StretchCertificate> {
        FaultSession::stretch_certificate(self, u, v)
    }
}

/// Identical answers to the wrapped [`FaultSession`]'s, with per-source
/// trees served from the cache.
impl QuerySession for CachedSession<'_> {
    fn distance(&mut self, u: NodeId, v: NodeId) -> Result<f64> {
        // Endpoints are checked in the same order as the plain session, so
        // error values are identical too.
        self.session.check_node(u)?;
        self.session.check_node(v)?;
        let slot = self.ensure_tree(u)?;
        Ok(self.trees[slot].dist[v.index()])
    }

    fn path(&mut self, u: NodeId, v: NodeId) -> Result<Option<Vec<NodeId>>> {
        self.session.check_node(u)?;
        self.session.check_node(v)?;
        let slot = self.ensure_tree(u)?;
        let tree = &self.trees[slot];
        Ok(reconstruct_path(&tree.parents, &tree.dist, u, v))
    }

    fn stretch_certificate(&mut self, u: NodeId, v: NodeId) -> Result<StretchCertificate> {
        self.session.check_node(u)?;
        self.session.check_node(v)?;
        let slot = self.ensure_tree(u)?;
        self.ensure_baseline(slot)?;
        let tree = &self.trees[slot];
        Ok(StretchCertificate::new(
            u,
            v,
            tree.dist[v.index()],
            tree.baseline.as_ref().expect("just ensured")[v.index()],
            self.session.artifact.stretch,
            reconstruct_path(&tree.parents, &tree.dist, u, v),
        ))
    }

    /// A snapshot of the hit/miss counters (the serving engine aggregates
    /// these across planned groups into its `EngineStats` surface).
    fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::core_algorithms;
    use crate::api::Registry;
    use crate::SpannerRequest;
    use ftspan_graph::{generate, shortest_path, verify};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn conversion_artifact(seed: u64, faults: usize) -> (Graph, FtSpanner) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::connected_gnp(20, 0.3, generate::WeightKind::Unit, &mut rng);
        let registry = Registry::from_algorithms(core_algorithms());
        let report = registry
            .get("conversion")
            .unwrap()
            .build((&g).into(), &SpannerRequest::new(faults), &mut rng)
            .unwrap();
        let artifact = FtSpanner::from_report(&g, &report).unwrap();
        (g, artifact)
    }

    #[test]
    fn artifact_carries_the_declared_guarantee() {
        let (g, artifact) = conversion_artifact(1, 2);
        assert_eq!(artifact.algorithm(), "conversion");
        assert_eq!(artifact.fault_budget(), 2);
        assert_eq!(artifact.fault_model(), FaultModel::Vertex);
        assert_eq!(artifact.stretch(), 3.0);
        assert_eq!(artifact.node_count(), g.node_count());
        assert_eq!(artifact.source_edge_count(), g.edge_count());
        assert_eq!(
            artifact.spanner_edge_count(),
            artifact.spanner_edges().len()
        );
        assert!(artifact.provenance().contains("Theorem"));
    }

    #[test]
    fn session_distance_matches_independent_dijkstra() {
        let (g, artifact) = conversion_artifact(2, 1);
        for fault in 0..5usize {
            let session = artifact.under_faults(&[NodeId::new(fault)]).unwrap();
            // Independent oracle: materialize H \ F and run plain Dijkstra.
            let h = g
                .subgraph(artifact.spanner_edges())
                .unwrap()
                .remove_vertices(&[NodeId::new(fault)]);
            for u in [0usize, 3, 9] {
                let expected = shortest_path::dijkstra(&h, NodeId::new(u)).unwrap();
                for (v, &oracle) in expected.iter().enumerate() {
                    let got = session.distance(NodeId::new(u), NodeId::new(v)).unwrap();
                    let want = if fault == u || fault == v {
                        f64::INFINITY
                    } else {
                        oracle
                    };
                    assert_eq!(got, want, "fault {fault}, pair ({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn session_rejects_oversized_fault_sets_with_typed_error() {
        let (_, artifact) = conversion_artifact(3, 1);
        let err = artifact
            .under_faults(&[NodeId::new(0), NodeId::new(1)])
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::TooManyFaults {
                given: 2,
                budget: 1
            }
        );
        // Duplicates are collapsed before the budget check.
        assert!(artifact
            .under_faults(&[NodeId::new(4), NodeId::new(4)])
            .is_ok());
        let err = artifact.under_faults(&[NodeId::new(999)]).unwrap_err();
        assert!(matches!(err, CoreError::UnknownNode { node: 999, .. }));
    }

    #[test]
    fn session_rejects_wrong_fault_kind() {
        let (_, artifact) = conversion_artifact(4, 1);
        let err = artifact
            .under_edge_faults(&[(NodeId::new(0), NodeId::new(1))])
            .unwrap_err();
        assert!(matches!(err, CoreError::FaultModelMismatch { .. }));
    }

    #[test]
    fn paths_witness_distances() {
        let (g, artifact) = conversion_artifact(5, 1);
        let session = artifact.under_faults(&[NodeId::new(2)]).unwrap();
        for u in 0..6usize {
            for v in 0..6usize {
                let d = session.distance(NodeId::new(u), NodeId::new(v)).unwrap();
                let p = session.path(NodeId::new(u), NodeId::new(v)).unwrap();
                match p {
                    None => assert!(d.is_infinite()),
                    Some(path) => {
                        assert_eq!(path.first(), Some(&NodeId::new(u)));
                        assert_eq!(path.last(), Some(&NodeId::new(v)));
                        let mut total = 0.0;
                        for w in path.windows(2) {
                            let e = g.find_edge(w[0], w[1]).expect("path edges exist");
                            assert!(
                                artifact.spanner_edges().contains(e),
                                "path used a non-spanner edge"
                            );
                            assert!(
                                !w.iter().any(|x| x.index() == 2),
                                "path passed through the failed vertex"
                            );
                            total += g.edge(e).weight;
                        }
                        assert!((total - d).abs() < 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn certificates_hold_within_budget_and_match_the_oracle() {
        let (g, artifact) = conversion_artifact(6, 1);
        let oracle = verify::StretchOracle::new(&g, artifact.spanner_edges());
        for fault in 0..g.node_count() {
            let session = artifact.under_faults(&[NodeId::new(fault)]).unwrap();
            assert!(session.is_within_guarantee());
            let dead =
                ftspan_graph::faults::FaultSet::from_indices([fault]).to_dead_mask(g.node_count());
            let expected = oracle.max_stretch_masked(Some(&dead), None);
            assert!((session.max_stretch() - expected).abs() < 1e-9);
            for (u, v) in [(0usize, 5), (1, 9), (3, 17)] {
                let cert = session
                    .stretch_certificate(NodeId::new(u), NodeId::new(v))
                    .unwrap();
                assert!(cert.holds(), "certificate violated at fault {fault}");
                assert_eq!(cert.bound, 3.0);
            }
        }
    }

    #[test]
    fn zero_distance_pair_breaks_the_certificate() {
        // w(0, 1) = 0 with a 0-2-1 detour of weight 2; the spanner drops
        // (0, 1), so the pair sits at distance 0 in G and 2 in H.
        let g = Graph::from_edges(3, [(0, 1, 0.0), (0, 2, 1.0), (2, 1, 1.0)]).unwrap();
        let mut detour = g.full_edge_set();
        detour.remove(ftspan_graph::EdgeId::new(0));
        let artifact =
            FtSpanner::from_edge_set(&g, detour, "test", "test", FaultModel::Vertex, 1, 3.0)
                .unwrap();
        let session = artifact.session();
        let cert = session
            .stretch_certificate(NodeId::new(0), NodeId::new(1))
            .unwrap();
        assert_eq!(cert.spanner_distance, 2.0);
        assert_eq!(cert.baseline_distance, 0.0);
        assert!(cert.stretch.is_infinite());
        assert!(!cert.holds());
        assert!(!session.is_within_guarantee());
        // A coinciding pair stays exact.
        let cert = session
            .stretch_certificate(NodeId::new(1), NodeId::new(1))
            .unwrap();
        assert_eq!(cert.stretch, 1.0);
    }

    #[test]
    fn edge_fault_sessions_mask_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = generate::connected_gnp(16, 0.35, generate::WeightKind::Unit, &mut rng);
        let registry = Registry::from_algorithms(core_algorithms());
        let report = registry
            .get("edge-fault")
            .unwrap()
            .build((&g).into(), &SpannerRequest::new(1), &mut rng)
            .unwrap();
        let artifact = FtSpanner::from_report(&g, &report).unwrap();
        assert_eq!(artifact.fault_model(), FaultModel::Edge);
        // Vertex sessions are the wrong kind.
        assert!(matches!(
            artifact.under_faults(&[NodeId::new(0)]),
            Err(CoreError::FaultModelMismatch { .. })
        ));
        // Fail each spanner edge in turn: the guarantee must survive.
        for id in artifact.spanner_edges().iter().take(10) {
            let e = *g.edge(id);
            let session = artifact.under_edge_faults(&[(e.u, e.v)]).unwrap();
            assert!(session.is_within_guarantee(), "edge fault {id} broke it");
        }
        // A non-edge is a typed error.
        let missing = (0..g.node_count())
            .flat_map(|u| ((u + 1)..g.node_count()).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(NodeId::new(u), NodeId::new(v)))
            .expect("sparse graph has a non-edge");
        assert!(matches!(
            artifact.under_edge_faults(&[(NodeId::new(missing.0), NodeId::new(missing.1))]),
            Err(CoreError::UnknownEdge { .. })
        ));
    }

    #[test]
    fn directed_reports_are_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let dg = generate::directed_gnp(8, 0.5, generate::WeightKind::Unit, &mut rng);
        let registry = Registry::from_algorithms(core_algorithms());
        let report = registry
            .get("two-spanner-greedy")
            .unwrap()
            .build((&dg).into(), &SpannerRequest::new(1), &mut rng)
            .unwrap();
        let g = Graph::new(8);
        assert!(matches!(
            FtSpanner::from_report(&g, &report),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn adopted_artifacts_and_unchecked_sessions() {
        // Adopt a plain (non-fault-tolerant) spanner with a zero budget: the
        // checked session rejects any fault, the unchecked one still serves.
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generate::connected_gnp(14, 0.4, generate::WeightKind::Unit, &mut rng);
        let artifact = FtSpanner::from_edge_set(
            &g,
            g.full_edge_set(),
            "adopted",
            "hand-rolled full graph",
            FaultModel::Vertex,
            0,
            1.0,
        )
        .unwrap();
        assert!(matches!(
            artifact.under_faults(&[NodeId::new(0)]),
            Err(CoreError::TooManyFaults {
                given: 1,
                budget: 0
            })
        ));
        let session = artifact.under_faults_unchecked(&[NodeId::new(0)]).unwrap();
        assert_eq!(session.fault_count(), 1);
        // The full graph is a 1-spanner under any fault set.
        assert!(session.is_within_guarantee());
        assert!(artifact.under_faults_unchecked(&[NodeId::new(99)]).is_err());
    }

    #[test]
    fn binary_v2_round_trips_through_the_view() {
        let (g, artifact) = conversion_artifact(11, 2);
        let mut buf = Vec::new();
        artifact.to_binary_writer(&mut buf).unwrap();
        assert_eq!(&buf[..4], &BINARY_MAGIC);
        assert_eq!(read_u32_at(&buf, 4), BINARY_VERSION);
        assert_eq!(buf.len() % 8, 0, "v2 images end 8-byte aligned");

        // The view sees the artifact's exact shape without materializing.
        let view = FtSpannerView::parse(&buf).unwrap();
        assert_eq!(view.algorithm(), artifact.algorithm());
        assert_eq!(view.provenance(), artifact.provenance());
        assert_eq!(view.fault_model(), artifact.fault_model());
        assert_eq!(view.fault_budget(), artifact.fault_budget());
        assert_eq!(view.stretch(), artifact.stretch());
        assert_eq!(view.node_count(), artifact.node_count());
        assert_eq!(view.edge_count(), g.edge_count());
        assert_eq!(view.spanner_edge_count(), artifact.spanner_edge_count());
        for (i, (_, e)) in g.edges().enumerate() {
            assert_eq!(view.edge(i), (e.u, e.v, e.weight));
        }

        // Materializing the view is the slice decoder, and both give back
        // the original.
        assert_eq!(view.materialize().unwrap(), artifact);
        assert_eq!(FtSpanner::from_binary_slice(&buf).unwrap(), artifact);

        // Byte-stable: re-serializing the restored artifact is identical.
        let mut again = Vec::new();
        view.materialize()
            .unwrap()
            .to_binary_writer(&mut again)
            .unwrap();
        assert_eq!(buf, again);
    }

    #[test]
    fn binary_file_load_names_the_path() {
        let (_, artifact) = conversion_artifact(13, 1);
        let dir =
            std::env::temp_dir().join(format!("ftspan-core-v2-{}-{}", std::process::id(), line!()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("artifact.ftspan");
        let mut buf = Vec::new();
        artifact.to_binary_writer(&mut buf).unwrap();
        std::fs::write(&good, &buf).unwrap();
        assert_eq!(FtSpanner::from_binary_file(&good).unwrap(), artifact);

        // Unreadable and malformed files are typed errors naming the file.
        let corrupt = dir.join("corrupt.ftspan");
        std::fs::write(&corrupt, &buf[..buf.len() / 2]).unwrap();
        for name in ["absent.ftspan", "corrupt.ftspan"] {
            match FtSpanner::from_binary_file(dir.join(name)) {
                Err(CoreError::InvalidParameter { message }) => {
                    assert!(message.contains(name), "error names the path: {message}");
                }
                other => panic!("expected a typed error for {name}, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_v2_corruption_is_a_typed_error() {
        let (_, artifact) = conversion_artifact(12, 1);
        let mut good = Vec::new();
        artifact.to_binary_writer(&mut good).unwrap();
        assert!(FtSpannerView::parse(&good).is_ok());

        let expect_reject = |bytes: &[u8], what: &str| {
            assert!(
                matches!(
                    FtSpannerView::parse(bytes),
                    Err(CoreError::InvalidParameter { .. })
                ),
                "view accepted {what}"
            );
            assert!(
                matches!(
                    FtSpanner::from_binary_slice(bytes),
                    Err(CoreError::InvalidParameter { .. })
                ),
                "decoder accepted {what}"
            );
        };

        // Truncation everywhere: inside the header, the table, each section.
        for cut in [0, 4, 9, 20, 100, good.len() / 2, good.len() - 8] {
            expect_reject(&good[..cut], &format!("truncation at {cut}"));
        }
        // Trailing garbage past the padded end.
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0u8; 8]);
        expect_reject(&trailing, "trailing bytes");
        let mut dirty_pad = good.clone();
        dirty_pad.extend_from_slice(&[1u8; 8]);
        expect_reject(&dirty_pad, "non-zero trailing bytes");

        // Header lies: magic, section count, reserved word.
        let mut patched = good.clone();
        patched[0] = b'X';
        expect_reject(&patched, "bad magic");
        let mut patched = good.clone();
        patched[8] = 7;
        expect_reject(&patched, "wrong section count");
        let mut patched = good.clone();
        patched[12] = 1;
        expect_reject(&patched, "non-zero reserved header word");

        // Table lies: tag, offset, length.
        let mut patched = good.clone();
        patched[V2_HEADER_LEN] = b'X';
        expect_reject(&patched, "wrong first tag");
        let mut patched = good.clone();
        patched[V2_HEADER_LEN + 8] = patched[V2_HEADER_LEN + 8].wrapping_add(8);
        expect_reject(&patched, "shifted META offset");
        let mut patched = good.clone();
        patched[V2_HEADER_LEN + 16] = patched[V2_HEADER_LEN + 16].wrapping_add(1);
        expect_reject(&patched, "lying META length");

        // META lies: fault model tag, string lengths, non-UTF-8 bytes.
        let meta_at = V2_HEADER_LEN + V2_ENTRY_LEN * V2_TAGS.len();
        let mut patched = good.clone();
        patched[meta_at + 16] = 9;
        expect_reject(&patched, "unknown fault model");
        let mut patched = good.clone();
        patched[meta_at + 20] = patched[meta_at + 20].wrapping_add(1);
        expect_reject(&patched, "lying algorithm length");
        let mut patched = good.clone();
        patched[meta_at + 32] = 0xFF; // algorithm strings are non-empty ASCII
        expect_reject(&patched, "non-UTF-8 algorithm");

        // DIMS lies: giant node count (the allocation guard), s > m.
        let dims_at = {
            let meta_len = read_u64_at(&good, V2_HEADER_LEN + 16) as usize;
            align8(meta_at + meta_len)
        };
        let mut patched = good.clone();
        patched[dims_at..dims_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        expect_reject(&patched, "a u64::MAX node count");
        let mut patched = good.clone();
        let m = read_u64_at(&good, dims_at + 8);
        patched[dims_at + 16..dims_at + 24].copy_from_slice(&(m + 1).to_le_bytes());
        expect_reject(&patched, "more spanner edges than edges");

        // Edge and spanner records: out-of-range endpoint, self-loop,
        // non-finite weight, out-of-order spanner identifiers.
        let section_offset =
            |i: usize| read_u64_at(&good, V2_HEADER_LEN + V2_ENTRY_LEN * i + 8) as usize;
        let (edgu_at, edgv_at, edgw_at, span_at) = (
            section_offset(2),
            section_offset(3),
            section_offset(4),
            section_offset(5),
        );
        let mut patched = good.clone();
        patched[edgu_at..edgu_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        expect_reject(&patched, "an out-of-range endpoint");
        let mut patched = good.clone();
        let v0 = read_u32_at(&good, edgv_at);
        patched[edgu_at..edgu_at + 4].copy_from_slice(&v0.to_le_bytes());
        expect_reject(&patched, "a self-loop");
        let mut patched = good.clone();
        patched[edgw_at..edgw_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        expect_reject(&patched, "a NaN weight");
        let span_count = read_u64_at(&good, dims_at + 16) as usize;
        assert!(span_count >= 2, "test artifact keeps at least two edges");
        let mut patched = good.clone();
        let (a, b) = (read_u32_at(&good, span_at), read_u32_at(&good, span_at + 4));
        patched[span_at..span_at + 4].copy_from_slice(&b.to_le_bytes());
        patched[span_at + 4..span_at + 8].copy_from_slice(&a.to_le_bytes());
        expect_reject(&patched, "out-of-order spanner identifiers");

        // A duplicate edge (edge 1 given edge 0's endpoints) is the one
        // malformation the allocation-free parse cannot see; materializing
        // must still refuse it with the typed error.
        let mut patched = good.clone();
        patched.copy_within(edgu_at..edgu_at + 4, edgu_at + 4);
        patched.copy_within(edgv_at..edgv_at + 4, edgv_at + 4);
        assert!(
            FtSpannerView::parse(&patched).is_ok(),
            "parse checks records one at a time"
        );
        assert!(
            matches!(
                FtSpanner::from_binary_slice(&patched),
                Err(CoreError::InvalidParameter { .. })
            ),
            "decoder accepted a duplicate edge"
        );
    }

    #[test]
    fn binary_format_preserves_newlines_and_weight_bits() {
        // Newlines in free-text fields and weights that have no short decimal
        // form survive the round trip bit for bit.
        let g = Graph::from_edges(3, [(0, 1, 0.1 + 0.2), (1, 2, 1e-300)]).unwrap();
        let artifact = FtSpanner::from_edge_set(
            &g,
            g.full_edge_set(),
            "adopted",
            "line one\nline two",
            FaultModel::Vertex,
            1,
            3.0,
        )
        .unwrap();
        let mut buf = Vec::new();
        artifact.to_binary_writer(&mut buf).unwrap();
        let restored = FtSpanner::from_binary_slice(&buf).unwrap();
        assert_eq!(restored.provenance(), "line one\nline two");
        let bits = |a: &FtSpanner| -> Vec<u64> {
            a.source_graph()
                .edges()
                .map(|(_, e)| e.weight.to_bits())
                .collect()
        };
        assert_eq!(
            bits(&restored),
            vec![(0.1f64 + 0.2).to_bits(), 1e-300f64.to_bits()]
        );
        assert_eq!(restored, artifact);
    }

    #[test]
    fn implausible_node_counts_are_rejected_not_allocated() {
        // A lying node count has no backing bytes, so the decoder must refuse
        // it as a typed error instead of attempting an `O(n)` allocation a
        // few corrupted bytes could inflate to gigabytes.
        let (_, artifact) = conversion_artifact(12, 1);
        let mut bytes = Vec::new();
        artifact.to_binary_writer(&mut bytes).unwrap();
        let dims_at = read_u64_at(&bytes, V2_HEADER_LEN + V2_ENTRY_LEN + 8) as usize;
        bytes[dims_at..dims_at + 8].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
        match FtSpanner::from_binary_slice(&bytes) {
            Err(CoreError::InvalidParameter { message }) => {
                assert!(
                    message.contains("implausible node count"),
                    "unexpected error: {message}"
                );
            }
            other => panic!("accepted a 4-billion-node header: {other:?}"),
        }

        // The writer enforces the same bound, so nothing it accepts is
        // unreadable: an artifact that is almost all isolated vertices at
        // million scale is refused at save time.
        let mut sparse = Graph::new((1 << 20) + 100);
        sparse
            .add_edge(NodeId::new(0), NodeId::new(1), 1.0)
            .unwrap();
        let wide = FtSpanner::from_edge_set(
            &sparse,
            sparse.full_edge_set(),
            "adopted",
            "p",
            FaultModel::Vertex,
            0,
            1.0,
        )
        .unwrap();
        let err = wide
            .to_binary_writer(&mut Vec::new())
            .expect_err("2^20 + 100 nodes on 1 edge must not serialize");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn cached_session_is_observationally_transparent() {
        let (_, artifact) = conversion_artifact(13, 2);
        let n = artifact.node_count();
        let faults = [NodeId::new(2), NodeId::new(5)];
        for capacity in [0usize, 1, 3, 64] {
            let plain = artifact.under_faults(&faults).unwrap();
            let mut cached = artifact.under_faults(&faults).unwrap().cached(capacity);
            // Repeat the sweep so every capacity exercises hits, evictions
            // and (for 0) the no-cache path.
            for _ in 0..2 {
                for u in 0..n {
                    for v in [0usize, 3, n - 1] {
                        let (u, v) = (NodeId::new(u), NodeId::new(v));
                        assert_eq!(
                            plain.distance(u, v).unwrap(),
                            cached.distance(u, v).unwrap()
                        );
                        assert_eq!(plain.path(u, v).unwrap(), cached.path(u, v).unwrap());
                        assert_eq!(
                            plain.stretch_certificate(u, v).unwrap(),
                            cached.stretch_certificate(u, v).unwrap()
                        );
                    }
                }
            }
            assert_eq!(
                plain.distances_from(NodeId::new(1)).unwrap(),
                cached.distances_from(NodeId::new(1)).unwrap()
            );
            let stats = cached.cache_stats();
            if capacity == 0 {
                assert_eq!(stats.hits, 0, "capacity 0 must never hit");
            } else {
                assert!(stats.hits > 0);
            }
            assert!(stats.misses > 0);
            assert_eq!(stats.total(), stats.hits + stats.misses);
            assert_eq!(cached.session().fault_count(), 2);
            assert_eq!(cached.artifact().node_count(), n);
        }
    }

    /// The plain session's target-bounded searches answer bit for bit like
    /// the cached session's full trees on an artifact above the 2048
    /// half-edge frontier switch (both CSRs run on the bucket queue) with
    /// `{0, 1, 2}` weights, whose zero-weight edges and equal labels make
    /// ties everywhere. Pairs include dead endpoints and the source itself.
    #[test]
    fn plain_bounded_session_matches_cached_trees_on_the_bucket_frontier() {
        let (rows, cols) = (40, 40);
        let grid = generate::grid(rows, cols);
        let g = Graph::from_edges(
            grid.node_count(),
            grid.edges().map(|(id, e)| {
                let w = (id.index().wrapping_mul(2_654_435_761) >> 7) % 3;
                (e.u.index(), e.v.index(), w as f64)
            }),
        )
        .unwrap();
        let mut spanner = g.empty_edge_set();
        for (id, _) in g.edges() {
            if id.index() % 4 != 0 {
                spanner.insert(id);
            }
        }
        let artifact =
            FtSpanner::from_edge_set(&g, spanner, "test", "test", FaultModel::Vertex, 2, 3.0)
                .unwrap();
        assert!(2 * artifact.spanner_csr.edge_count() >= 2048);
        let n = artifact.node_count();
        let faults = [NodeId::new(cols + 1), NodeId::new(n / 2)];
        let plain = artifact.under_faults(&faults).unwrap();
        let mut cached = artifact.under_faults(&faults).unwrap().cached(64);
        for u in (0..n).step_by(37).chain([cols + 1]) {
            for v in [0, 1, cols, cols + 1, n / 2, n / 2 + 7, n - 1, u] {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                let d = plain.distance(u, v).unwrap();
                assert_eq!(d.to_bits(), cached.distance(u, v).unwrap().to_bits());
                assert_eq!(plain.path(u, v).unwrap(), cached.path(u, v).unwrap());
                let (a, b) = (
                    plain.stretch_certificate(u, v).unwrap(),
                    cached.stretch_certificate(u, v).unwrap(),
                );
                assert_eq!(a, b);
                assert_eq!(a.spanner_distance.to_bits(), b.spanner_distance.to_bits());
                assert_eq!(a.baseline_distance.to_bits(), b.baseline_distance.to_bits());
                assert_eq!(
                    plain.baseline_distance(u, v).unwrap().to_bits(),
                    b.baseline_distance.to_bits()
                );
            }
        }
    }

    #[test]
    fn cached_session_rejects_unknown_nodes_like_the_plain_session() {
        let (_, artifact) = conversion_artifact(14, 1);
        let plain = artifact.session();
        let mut cached = artifact.session().cached(4);
        let bad = NodeId::new(999);
        let good = NodeId::new(0);
        for (u, v) in [(bad, good), (good, bad), (bad, bad)] {
            assert_eq!(
                plain.distance(u, v).unwrap_err(),
                cached.distance(u, v).unwrap_err()
            );
            assert_eq!(
                plain.path(u, v).unwrap_err(),
                cached.path(u, v).unwrap_err()
            );
            assert_eq!(
                plain.stretch_certificate(u, v).unwrap_err(),
                cached.stretch_certificate(u, v).unwrap_err()
            );
        }
        assert_eq!(
            plain.distances_from(bad).unwrap_err(),
            cached.distances_from(bad).unwrap_err()
        );
    }
}

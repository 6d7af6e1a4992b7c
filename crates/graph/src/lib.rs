//! Graph substrate for the fault-tolerant spanner library.
//!
//! This crate provides everything the spanner constructions of
//! Dinitz & Krauthgamer (PODC 2011) need from a graph library, built from
//! scratch:
//!
//! * [`Graph`] — an undirected graph with non-negative edge lengths, the
//!   setting of the conversion theorem (Theorem 2.1) for stretch `k >= 3`.
//! * [`DiGraph`] — a directed graph with non-negative edge *costs* and unit
//!   lengths, the setting of the minimum-cost `r`-fault-tolerant 2-spanner
//!   problem (Section 3 of the paper).
//! * [`EdgeSet`] — a compact subset of the edges of a parent graph; spanners
//!   are represented this way throughout the workspace.
//! * [`shortest_path`] — Dijkstra / BFS, including variants restricted to a
//!   surviving vertex set (used for fault-tolerance verification).
//! * [`csr`] — cache-friendly CSR packing of edge subsets with masked
//!   traversal, the substrate behind query serving and the verification
//!   oracles' repeated shortest-path sweeps.
//! * [`generate`] — workload generators (Erdős–Rényi, geometric, grids,
//!   complete and bipartite graphs, hypercubes, preferential attachment,
//!   small-world graphs, and the integrality-gap gadgets from Section 3 of
//!   the paper).
//! * [`stream`] — streaming, memory-bounded generators (`G(n, m)` by edge-
//!   index sampling, grid/torus, preferential attachment) that emit straight
//!   into a CSR builder for million-node construction runs.
//! * [`faults`] — vertex- and edge-fault-set enumeration, sampling, and
//!   adversarial heuristics.
//! * [`par`] — a dependency-free scoped-thread work pool with deterministic,
//!   index-ordered results; the shared substrate behind every parallel hot
//!   path in the workspace.
//! * [`partition`] — seeded, deterministic balanced partitioning into
//!   connected parts (the front half of the sharded spanner pipeline).
//! * [`verify`] — spanner and fault-tolerant spanner verification oracles,
//!   including the Lemma 3.1 characterization for 2-spanners and the
//!   edge-fault analogues.
//! * [`components`] — union–find, connected components, articulation points
//!   and vertex connectivity (the connectivity limits on fault tolerance).
//! * [`tree`] — minimum spanning forests and the lightness measure.
//! * [`stats`] — degree and per-edge stretch distributions and girth for
//!   reporting.
//!
//! # Example
//!
//! ```
//! use ftspan_graph::{generate, verify, NodeId};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let g = generate::gnp(40, 0.3, generate::WeightKind::Unit, &mut rng);
//! // The full edge set is trivially a 1-spanner of the graph.
//! let all = g.full_edge_set();
//! assert!(verify::is_k_spanner(&g, &all, 1.0));
//! assert_eq!(g.degree(NodeId::new(0)), g.neighbors(NodeId::new(0)).count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod digraph;
mod edge_set;
mod error;
mod graph;
mod ids;

pub mod components;
pub mod csr;
pub mod faults;
pub mod generate;
pub mod par;
pub mod partition;
pub mod shortest_path;
pub mod stats;
pub mod stream;
pub mod tree;
pub mod verify;

pub use digraph::{Arc, ArcSet, DiGraph};
pub use edge_set::EdgeSet;
pub use error::GraphError;
pub use graph::{Edge, Graph};
pub use ids::{ArcId, EdgeId, NodeId};

/// Result alias used across the graph substrate.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Numeric distance value representing "unreachable".
pub const INFINITY: f64 = f64::INFINITY;

//! Fault-tolerant graph spanners — a Rust implementation of
//! *"Fault-Tolerant Spanners: Better and Simpler"* (Dinitz & Krauthgamer,
//! PODC 2011), together with every substrate it needs.
//!
//! Every construction in the workspace — the Theorem 2.1 black-box
//! conversion, the Theorem 3.3/3.4 minimum-cost 2-spanner approximations,
//! the edge-fault and adaptive variants, the CLPR09/DK10 baselines, and the
//! distributed (LOCAL-model) algorithms of Theorems 2.3 and 3.9 — implements
//! one trait, [`FtSpannerAlgorithm`](ftspan_core::FtSpannerAlgorithm), takes
//! one parameter type, [`SpannerRequest`](ftspan_core::SpannerRequest), and
//! returns one result type, [`SpannerReport`](ftspan_core::SpannerReport).
//! Algorithms are selected at runtime by name from the [`registry`], most
//! conveniently through the fluent [`FtSpannerBuilder`].
//!
//! Construction is half the story: reports can be promoted to queryable
//! [`FtSpanner`](ftspan_core::FtSpanner) artifacts whose fault-scoped
//! sessions answer `distance` / `path` / `stretch_certificate` queries; the
//! batched [`Engine`] serves named artifacts through a session-reusing query
//! planner (grouped fault scopes, per-source Dijkstra caching, worker
//! threads — see [`Engine::run_batch`]); artifacts persist as versioned
//! binary `.ftspan` files through the directory-backed [`ArtifactStore`] —
//! build once, query many. When the graph churns, a
//! [`DynamicArtifact`] registered through
//! [`Engine::register_dynamic`] absorbs edge deltas in place:
//! [`Engine::apply_deltas`] builds the next version off-lock (incremental
//! repair where the construction's locality allows, full rebuild otherwise)
//! and swaps it in atomically under live query load.
//!
//! # Quickstart
//!
//! ```
//! use fault_tolerant_spanners::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! // A random network of 30 nodes.
//! let network = generate::gnp(30, 0.3, generate::WeightKind::Unit, &mut rng);
//!
//! // A 3-spanner that survives any single node failure (Theorem 2.1).
//! let report = FtSpannerBuilder::new("conversion")
//!     .faults(1)
//!     .stretch(3.0)
//!     .build(&network)
//!     .unwrap();
//! assert!(verify::is_fault_tolerant_k_spanner(
//!     &network,
//!     report.edge_set().unwrap(),
//!     report.stretch,
//!     report.faults,
//! ));
//! println!("{}: {} edges in {:?}", report.provenance, report.size(), report.elapsed);
//! ```
//!
//! Or skip the bag-of-edges report entirely and query the spanner under a
//! concrete fault set through a session:
//!
//! ```
//! use fault_tolerant_spanners::prelude::*;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! # use rand::SeedableRng;
//! let network = generate::connected_gnp(30, 0.25, generate::WeightKind::Unit, &mut rng);
//! let artifact = FtSpannerBuilder::new("conversion")
//!     .faults(1)
//!     .build_artifact(&network)
//!     .unwrap();
//!
//! // Node 7 is down; the surviving spanner still answers with stretch <= 3.
//! let session = artifact.under_faults(&[NodeId::new(7)]).unwrap();
//! let cert = session.stretch_certificate(NodeId::new(0), NodeId::new(12)).unwrap();
//! assert!(cert.holds());
//! assert!(cert.spanner_distance <= 3.0 * cert.baseline_distance + 1e-9);
//!
//! // Two faults exceed the r = 1 budget: a typed, queryable rejection.
//! assert!(matches!(
//!     artifact.under_faults(&[NodeId::new(1), NodeId::new(2)]),
//!     Err(fault_tolerant_spanners::core::CoreError::TooManyFaults { given: 2, budget: 1 })
//! ));
//! ```
//!
//! Directed minimum-cost instances go through the same builder:
//!
//! ```
//! use fault_tolerant_spanners::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
//! let routers = generate::directed_gnp(12, 0.4, generate::WeightKind::Unit, &mut rng);
//! // Theorem 3.3: O(log n)-approximate min-cost 1-fault-tolerant 2-spanner.
//! let plan = FtSpannerBuilder::new("two-spanner-lp")
//!     .faults(1)
//!     .build_directed(&routers)
//!     .unwrap();
//! assert!(verify::is_ft_two_spanner(&routers, plan.arc_set().unwrap(), 1));
//! // The report carries the LP lower bound, so the realized ratio is free.
//! assert!(plan.ratio_vs_lp().unwrap() >= 1.0);
//! ```
//!
//! And the whole zoo can be enumerated for comparisons:
//!
//! ```
//! use fault_tolerant_spanners::registry;
//!
//! for algorithm in registry().iter() {
//!     println!("{:<24} {:<28} {}", algorithm.name(), algorithm.reference(), algorithm.summary());
//! }
//! ```
//!
//! # Theorem → registry name
//!
//! | registry name | paper result | input | output guarantee |
//! |---|---|---|---|
//! | `conversion` | Theorem 2.1 | undirected | `r`-fault-tolerant `k`-spanner |
//! | `corollary-2.2` | Corollary 2.2 | undirected | size `O(r^{2−2/(k+1)} n^{1+2/(k+1)} log n)` |
//! | `adaptive` | Theorem 2.1 (early stopping) | undirected | verified `r`-fault-tolerant `k`-spanner |
//! | `edge-fault` | Theorem 2.1 (edge extension) | undirected | `r`-**edge**-fault-tolerant `k`-spanner |
//! | `clpr09` | CLPR09 baseline | undirected | `r`-fault-tolerant `k`-spanner (exponential size in `r`) |
//! | `two-spanner-lp` | Theorem 3.3 | directed | `O(log n)`-approx min-cost FT 2-spanner |
//! | `two-spanner-greedy` | Lemma 3.1 heuristic | directed | valid FT 2-spanner, no ratio bound |
//! | `two-spanner-lll` | Theorem 3.4 | directed, unit costs | `O(log Δ)`-approximation |
//! | `dk10` | DK10 baseline | directed | `O(r log n)`-approximation |
//! | `distributed-conversion` | Theorem 2.3 / Cor. 2.4 | undirected | FT 3-spanner in `O(r³ log n)` rounds |
//! | `distributed-two-spanner` | Theorem 3.9 / Alg. 2 | directed | `O(log n)`-approx in `O(log² n)` rounds |
//!
//! # Crate layout
//!
//! This crate is a thin facade re-exporting the workspace's library crates so
//! downstream users (and the examples in `examples/`) have a single
//! dependency:
//!
//! * [`graph`] — graph substrate: [`graph::Graph`], [`graph::DiGraph`],
//!   shortest paths, generators, fault sets and verification oracles.
//! * [`spanners`] — classic (non-fault-tolerant) spanner constructions used
//!   as black boxes by the conversion theorem.
//! * [`lp`] — the simplex / cutting-plane toolkit behind the 2-spanner
//!   approximation.
//! * [`core`] — the paper's constructions, the unified
//!   [`FtSpannerAlgorithm`](ftspan_core::FtSpannerAlgorithm) API, and the
//!   query-side [`FtSpanner`](ftspan_core::FtSpanner) /
//!   [`FaultSession`](ftspan_core::FaultSession) artifacts.
//! * [`local`] — the LOCAL-model simulator and the distributed algorithms of
//!   Theorems 2.3 and 3.9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ftspan_core as core;
pub use ftspan_graph as graph;
pub use ftspan_local as local;
pub use ftspan_lp as lp;
pub use ftspan_spanners as spanners;

mod builder;
mod engine;
mod registry;
mod shard;
mod store;

pub use builder::FtSpannerBuilder;
pub use engine::{
    ArtifactHandle, ArtifactSummary, Engine, EngineStats, Query, QueryKind, QueryOutcome,
};
pub use ftspan_core::{
    ApplyAction, ApplyReport, BuildRecipe, DynamicArtifact, EdgeDelta, RebuildPolicy,
    RebuildReason, SequencedDelta,
};
pub use registry::registry;
pub use shard::{CutEdge, ShardedArtifact, ShardedSession};
pub use store::{ArtifactStore, ARTIFACT_EXTENSION, SHARD_MANIFEST_EXTENSION};

/// The most commonly used items, re-exported flat for convenient glob
/// imports in examples and applications.
///
/// Constructions are reached through [`FtSpannerBuilder`] / [`registry`];
/// the graph substrate (generators, verification oracles, fault-set tooling)
/// and the classic black boxes are re-exported directly.
pub mod prelude {
    // The unified construction API.
    pub use crate::builder::FtSpannerBuilder;
    pub use crate::registry::registry;
    pub use ftspan_core::{
        FaultModel, FtSpannerAlgorithm, GraphFamily, GraphInput, GraphSource, Registry,
        ResolvedSource, SpannerEdges, SpannerReport, SpannerRequest,
    };
    pub use ftspan_graph::stream::GeneratorSpec;

    // The query side: artifacts, fault-scoped sessions, the serving engine
    // and the directory-backed artifact store.
    pub use crate::engine::{
        ArtifactHandle, ArtifactSummary, Engine, EngineStats, Query, QueryKind, QueryOutcome,
    };
    pub use crate::shard::{CutEdge, ShardedArtifact, ShardedSession};
    pub use crate::store::ArtifactStore;
    pub use ftspan_core::{
        CacheStats, CachedSession, FaultSession, FtSpanner, FtSpannerView, QuerySession,
        StretchCertificate,
    };

    // The dynamic-graph subsystem: volatile edge deltas, build recipes,
    // incremental repair and the warm hand-off policy knob.
    pub use ftspan_core::{
        ApplyAction, ApplyReport, BuildRecipe, DynamicArtifact, EdgeDelta, RebuildPolicy,
        RebuildReason, SequencedDelta,
    };

    // Combinatorial lower bounds, reported alongside construction sizes.
    pub use ftspan_core::lower_bounds::{
        directed_cost_lower_bound, directed_size_lower_bound, edge_fault_size_lower_bound,
        vertex_fault_size_lower_bound,
    };

    // The graph substrate.
    pub use ftspan_graph::{
        components, faults, generate, par, partition, shortest_path, stats, stream, tree, verify,
        ArcSet, DiGraph, EdgeSet, Graph, NodeId,
    };

    // Distributed verification (LOCAL-model checkers).
    pub use ftspan_local::verify::{distributed_stretch_check, distributed_two_spanner_check};

    // The classic black boxes consumed by the conversion theorem.
    pub use ftspan_spanners::{
        BaswanaSenSpanner, BlackBoxKind, ClusterSpanner, GreedySpanner, SpannerAlgorithm,
        SpannerStats, ThorupZwickSpanner,
    };
}

//! Fault-tolerant spanners: the constructions of Dinitz & Krauthgamer
//! ("Fault-Tolerant Spanners: Better and Simpler", PODC 2011).
//!
//! A subgraph `H ⊆ G` is an *`r`-fault-tolerant `k`-spanner* if for every set
//! `F` of at most `r` vertices, `H \ F` is a `k`-spanner of `G \ F`. This
//! crate implements both of the paper's constructions plus the baselines it
//! compares against:
//!
//! * [`conversion`] — **Theorem 2.1 / Corollary 2.2** (stretch `k ≥ 3`):
//!   a black-box transformation turning any `k`-spanner algorithm with size
//!   `f(n)` into an `r`-fault-tolerant one of size `O(r³ log n · f(2n/r))`,
//!   by repeatedly *oversampling* a random fault set and building a spanner
//!   on what remains. The same converter also protects against edge faults
//!   (an extension beyond the paper: every edge joins the oversampled fault
//!   set instead of every vertex).
//! * [`two_spanner`] — **Theorem 3.3 / 3.4** (stretch `k = 2`, directed,
//!   arbitrary costs): an `O(log n)`-approximation for minimum-cost
//!   `r`-fault-tolerant 2-spanner via a knapsack-cover-strengthened LP
//!   relaxation and per-vertex threshold rounding, plus the `O(log Δ)`
//!   bounded-degree variant using the constructive Lovász Local Lemma.
//! * [`baselines`] — the prior-work comparison points: a CLPR09-style
//!   union-over-fault-sets construction and the DK10 rounding with
//!   `α = Θ(r log n)`.
//! * [`adaptive`] — a practical variant of the conversion that stops as soon
//!   as the union passes a verification battery, instead of always running
//!   the full `Θ(r³ log n)` iterations.
//! * [`lower_bounds`] — folklore degree-based lower bounds on the size and
//!   cost of any fault-tolerant spanner, reported by the experiments.
//! * [`serve`] — the query side: the [`FtSpanner`] artifact (CSR-packed,
//!   with provenance and a declared `(k, r, FaultModel)` guarantee) and
//!   fault-scoped [`FaultSession`]s answering `distance` / `path` /
//!   `stretch_certificate` queries, plus text round-trip serialization.
//!
//! # Quickstart
//!
//! ```
//! use ftspan_core::conversion::{ConversionParams, FaultTolerantConverter};
//! use ftspan_spanners::GreedySpanner;
//! use ftspan_graph::{generate, verify};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let g = generate::gnp(20, 0.4, generate::WeightKind::Unit, &mut rng);
//! let converter = FaultTolerantConverter::new(ConversionParams::new(1));
//! let result = converter.build_with_threads(&g, &GreedySpanner::new(3.0), &mut rng, 1);
//! // The result tolerates any single vertex fault with stretch 3 (verified
//! // exhaustively here because the graph is small).
//! assert!(verify::is_fault_tolerant_k_spanner(&g, &result.edges, 3.0, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod algorithms;
pub mod api;
pub mod baselines;
pub mod conversion;
pub mod dynamic;
mod error;
pub mod lower_bounds;
pub mod par;
pub mod serve;
pub mod two_spanner;

pub use api::{
    FaultModel, FtSpannerAlgorithm, GraphFamily, GraphInput, GraphSource, Registry, ResolvedSource,
    SpannerEdges, SpannerReport, SpannerRequest,
};
pub use dynamic::{
    ApplyAction, ApplyReport, BuildRecipe, DynamicArtifact, EdgeDelta, RebuildPolicy,
    RebuildReason, SequencedDelta,
};
pub use error::CoreError;
pub use serve::{
    CacheStats, CachedSession, FaultSession, FtSpanner, FtSpannerView, QuerySession,
    StretchCertificate,
};

/// Result alias for fault-tolerant spanner constructions.
pub type Result<T> = std::result::Result<T, CoreError>;

//! Classic (non-fault-tolerant) spanner constructions.
//!
//! The conversion theorem of Dinitz & Krauthgamer (Theorem 2.1) is a *black
//! box* transformation: it takes **any** algorithm that builds a `k`-spanner
//! with `f(n)` edges and produces an `r`-fault-tolerant `k`-spanner with
//! `O(r³ log n · f(2n/r))` edges. This crate provides the black boxes:
//!
//! * [`GreedySpanner`] — the greedy construction of Althöfer et al., size
//!   `O(n^{1+2/(k+1)})` for stretch `k = 2t+1`; this is the instantiation used
//!   by Corollary 2.2.
//! * [`BaswanaSenSpanner`] — the randomized clustering construction of
//!   Baswana & Sen, expected size `O(k n^{1+1/k})` for stretch `2k−1`.
//! * [`ThorupZwickSpanner`] — the cluster spanner underlying the
//!   Thorup–Zwick distance oracles, the construction the CLPR09 baseline is
//!   built on; expected size `O(k n^{1+1/k})` for stretch `2k−1`.
//! * [`ClusterSpanner`] — a simple ball-carving cluster spanner that is easy
//!   to run distributedly; it stands in for the Derbel–Gavoille–Peleg–Viennot
//!   construction used by Corollary 2.4 (see the *Substitutions* section of
//!   the workspace README).
//! * [`SpannerAlgorithm`] — the trait all of them implement, and which
//!   `ftspan-core::conversion` consumes.
//!
//! # Example
//!
//! ```
//! use ftspan_spanners::{GreedySpanner, SpannerAlgorithm};
//! use ftspan_graph::{generate, verify};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let g = generate::gnp(60, 0.4, generate::WeightKind::Unit, &mut rng);
//! let spanner = GreedySpanner::new(3.0).build(&g, &mut rng);
//! assert!(verify::is_k_spanner(&g, &spanner, 3.0));
//! assert!(spanner.len() <= g.edge_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algorithm;
mod baswana_sen;
mod cluster;
mod greedy;
mod kinds;
pub mod size_bounds;
mod thorup_zwick;

pub use algorithm::{SpannerAlgorithm, SpannerStats};
pub use baswana_sen::BaswanaSenSpanner;
pub use cluster::ClusterSpanner;
pub use greedy::GreedySpanner;
pub use kinds::BlackBoxKind;
pub use thorup_zwick::ThorupZwickSpanner;

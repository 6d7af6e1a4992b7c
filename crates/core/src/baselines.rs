//! Prior-work baselines the paper compares against.
//!
//! * [`ClprStyleBaseline`] — the conceptual form of the Chechik–Langberg–
//!   Peleg–Roditty (STOC 2009) construction, as described in Section 1.1 of
//!   the paper: apply a spanner construction to `G \ F` for every possible
//!   fault set `F` and take the union. Its size grows with the number of
//!   fault sets (exponentially in `r`), which is exactly the behaviour the
//!   conversion theorem improves on; the `clpr09/fault-sets` rows of the
//!   `exp_paper` table measure the contrast.
//!   (The real CLPR09 algorithm shares the work between fault sets via the
//!   Thorup–Zwick hierarchy, but its size bound keeps the `k^{r+1}` factor —
//!   see the *Substitutions* section of the workspace README.)
//! * [`dk10_two_spanner_with_threads`] — the Dinitz–Krauthgamer (arXiv
//!   2010) `O(r log n)`-approximation for the 2-spanner case: the same
//!   threshold rounding, but applied to the weaker relaxation (no
//!   knapsack-cover inequalities) and therefore needing inflation
//!   `α = Θ(r log n)`.

use crate::conversion::{union_runs, ConversionResult, Faults};
use crate::par;
use crate::two_spanner::{approximate_two_spanner, ApproxConfig, ApproxResult};
use crate::Result;
use ftspan_graph::faults::{enumerate_fault_sets, sample_fault_sets, FaultSet};
use ftspan_graph::{DiGraph, Graph};
use ftspan_spanners::SpannerAlgorithm;
use rand::RngCore;

/// How the CLPR-style baseline enumerates fault sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSetMode {
    /// All fault sets of size at most `r` (exponentially many; small
    /// instances only).
    Exhaustive,
    /// A fixed number of random fault sets of size exactly `r`.
    Sampled(usize),
}

/// The union-over-fault-sets baseline in the spirit of CLPR09.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClprStyleBaseline {
    /// Number of vertex faults to tolerate.
    pub faults: usize,
    /// Fault-set enumeration strategy.
    pub mode: FaultSetMode,
}

impl ClprStyleBaseline {
    /// Exhaustive baseline for `faults` failures.
    pub fn new(faults: usize) -> Self {
        ClprStyleBaseline {
            faults,
            mode: FaultSetMode::Exhaustive,
        }
    }

    /// Uses `count` sampled fault sets instead of exhaustive enumeration.
    pub fn sampled(faults: usize, count: usize) -> Self {
        ClprStyleBaseline {
            faults,
            mode: FaultSetMode::Sampled(count),
        }
    }

    /// Builds the baseline spanner: for each fault set `F`, run `algorithm`
    /// on `G \ F` and union the results.
    ///
    /// The output is returned in the same [`ConversionResult`] shape as the
    /// conversion theorem so the experiments can compare them directly (the
    /// `per_iteration` entries record one entry per fault set).
    ///
    /// The per-fault-set black-box runs fan out across up to `threads`
    /// workers (the [`crate::par`] discipline: sequentially derived per-task
    /// streams, in-order merge — output byte-identical at any worker count).
    pub fn build_with_threads<A>(
        &self,
        graph: &Graph,
        algorithm: &A,
        rng: &mut dyn RngCore,
        threads: usize,
    ) -> ConversionResult
    where
        A: SpannerAlgorithm + ?Sized,
    {
        let n = graph.node_count();
        let fault_sets: Vec<FaultSet> = match self.mode {
            FaultSetMode::Exhaustive => enumerate_fault_sets(n, self.faults).collect(),
            FaultSetMode::Sampled(count) => sample_fault_sets(n, self.faults, count, rng),
        };
        let seeds = par::derive_seeds(rng, fault_sets.len());
        let mut union = graph.empty_edge_set();
        let per_iteration = union_runs(
            graph,
            algorithm,
            &seeds,
            |i| Faults::Explicit(&fault_sets[i]),
            threads,
            &mut union,
        );
        ConversionResult {
            edges: union,
            iterations: fault_sets.len(),
            per_iteration,
        }
    }
}

/// The DK10 baseline for minimum-cost `r`-fault-tolerant 2-spanner: the same
/// rounding scheme, but on the relaxation *without* knapsack-cover
/// inequalities and with inflation `α = C · (r + 1) · ln n` — giving an
/// `O(r log n)` approximation instead of `O(log n)`.
///
/// # Errors
///
/// Same conditions as [`crate::two_spanner::approximate_two_spanner`].
///
/// The relaxation's separation oracle is granted up to `threads` workers
/// (identical output at any count).
pub fn dk10_two_spanner_with_threads(
    graph: &DiGraph,
    faults: usize,
    rng: &mut dyn RngCore,
    threads: usize,
) -> Result<ApproxResult> {
    let config = ApproxConfig {
        faults,
        alpha_constant: 3.0 * (faults + 1) as f64,
        knapsack_cover: false,
        max_cut_rounds: 1,
        repair: true,
        threads: threads.max(1),
    };
    approximate_two_spanner(graph, &config, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generate, verify};
    use ftspan_spanners::GreedySpanner;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn exhaustive_clpr_baseline_is_fault_tolerant() {
        let mut r = rng(1);
        let g = generate::gnp(15, 0.5, generate::WeightKind::Unit, &mut r);
        let baseline = ClprStyleBaseline::new(1);
        let result = baseline.build_with_threads(&g, &GreedySpanner::new(3.0), &mut r, 1);
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            &result.edges,
            3.0,
            1
        ));
        // One iteration per fault set of size <= 1.
        assert_eq!(
            result.iterations as u128,
            ftspan_graph::faults::count_fault_sets(15, 1)
        );
    }

    #[test]
    fn sampled_clpr_baseline_bounds_work() {
        let mut r = rng(2);
        let g = generate::gnp(20, 0.4, generate::WeightKind::Unit, &mut r);
        let baseline = ClprStyleBaseline::sampled(2, 10);
        let result = baseline.build_with_threads(&g, &GreedySpanner::new(3.0), &mut r, 1);
        assert_eq!(result.iterations, 10);
        assert!(result.size() <= g.edge_count());
        // Every iteration removed exactly 2 vertices.
        for it in &result.per_iteration {
            assert_eq!(it.surviving_vertices, 18);
        }
    }

    #[test]
    fn clpr_baseline_grows_with_r() {
        let mut r = rng(3);
        let g = generate::gnp(12, 0.6, generate::WeightKind::Unit, &mut r);
        let small =
            ClprStyleBaseline::new(0).build_with_threads(&g, &GreedySpanner::new(3.0), &mut r, 1);
        let large =
            ClprStyleBaseline::new(2).build_with_threads(&g, &GreedySpanner::new(3.0), &mut r, 1);
        assert!(large.iterations > small.iterations);
        assert!(large.size() >= small.size());
    }

    #[test]
    fn dk10_baseline_is_valid_but_pays_more_inflation() {
        let mut r = rng(4);
        let g = generate::directed_gnp(10, 0.5, generate::WeightKind::Unit, &mut r);
        let result = dk10_two_spanner_with_threads(&g, 1, &mut r, 1).unwrap();
        assert!(verify::is_ft_two_spanner(&g, &result.arcs, 1));
        // alpha = 3 * (r+1) * ln n, i.e. twice the Theorem 3.3 inflation.
        let expected = 3.0 * 2.0 * (10f64).ln();
        assert!((result.alpha - expected).abs() < 1e-9);
    }

    #[test]
    fn full_arc_set_is_always_valid() {
        let g = generate::complete_digraph(6);
        let all = g.full_arc_set();
        assert_eq!(all.len(), g.arc_count());
        for r in 0..4 {
            assert!(verify::is_ft_two_spanner(&g, &all, r));
        }
    }
}

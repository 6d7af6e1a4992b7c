//! Algorithm 1 (threshold rounding) and the Theorem 3.3 driver.

use super::relaxation::{solve_relaxation, FractionalSolution, RelaxationConfig};
use crate::{CoreError, Result};
use ftspan_graph::verify::two_spanner_violations;
use ftspan_graph::{ArcSet, DiGraph};
use ftspan_lp::CutStats;
use rand::Rng;
use rand::RngCore;

/// Algorithm 1 of the paper: every vertex `v` draws an independent uniform
/// threshold `T_v ∈ [0, 1]`, and the output buys every arc `(u, v)` with
/// `min(T_u, T_v) ≤ α · x_{(u,v)}`.
///
/// Returns the selected arcs and the drawn thresholds (the thresholds are
/// re-used by the Lovász-Local-Lemma resampling of Theorem 3.4).
///
/// # Panics
///
/// Panics if `x` does not have one entry per arc of `graph`.
pub fn round_thresholds(
    graph: &DiGraph,
    x: &[f64],
    alpha: f64,
    rng: &mut dyn RngCore,
) -> (ArcSet, Vec<f64>) {
    assert_eq!(
        x.len(),
        graph.arc_count(),
        "fractional solution does not match the digraph"
    );
    let thresholds: Vec<f64> = (0..graph.node_count()).map(|_| rng.gen::<f64>()).collect();
    let arcs = select_with_thresholds(graph, x, alpha, &thresholds);
    (arcs, thresholds)
}

/// The deterministic part of Algorithm 1: applies fixed thresholds to a
/// fractional solution.
pub(crate) fn select_with_thresholds(
    graph: &DiGraph,
    x: &[f64],
    alpha: f64,
    thresholds: &[f64],
) -> ArcSet {
    let mut arcs = graph.empty_arc_set();
    for (id, arc) in graph.arcs() {
        let t = thresholds[arc.tail.index()].min(thresholds[arc.head.index()]);
        if t <= alpha * x[id.index()] {
            arcs.insert(id);
        }
    }
    arcs
}

/// Configuration of the Theorem 3.3 approximation algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// Number of vertex faults `r` to tolerate.
    pub faults: usize,
    /// The constant `C` in the inflation factor `α = C · ln n`.
    pub alpha_constant: f64,
    /// Whether to strengthen the relaxation with knapsack-cover inequalities
    /// (LP (4), the paper's choice). Disabling this reproduces the weaker
    /// relaxation whose rounding needs `α = Θ(r log n)` (the DK10 baseline).
    pub knapsack_cover: bool,
    /// Maximum number of cutting-plane rounds for the relaxation.
    pub max_cut_rounds: usize,
    /// If `true` (default), any arc still violating the Lemma 3.1
    /// characterization after rounding is added outright. The paper's
    /// analysis makes this unnecessary with high probability; the repair
    /// keeps the implementation's output *always* valid and its extent is
    /// reported in [`ApproxResult::repaired_arcs`].
    pub repair: bool,
    /// Worker threads for the relaxation's separation-oracle rounds (see
    /// [`RelaxationConfig::threads`]); the solve is identical at any count.
    pub threads: usize,
}

impl ApproxConfig {
    /// The paper's configuration for `faults` failures (`α = 3 ln n`,
    /// knapsack-cover on, repair on).
    pub fn new(faults: usize) -> Self {
        ApproxConfig {
            faults,
            alpha_constant: 3.0,
            knapsack_cover: true,
            max_cut_rounds: 50,
            repair: true,
            threads: 1,
        }
    }

    /// Grants the separation oracle up to `threads` workers (clamped to at
    /// least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the constant `C` of `α = C ln n`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not positive.
    pub fn with_alpha_constant(mut self, c: f64) -> Self {
        assert!(c > 0.0, "alpha constant must be positive");
        self.alpha_constant = c;
        self
    }

    /// Disables the post-rounding repair step.
    pub fn without_repair(mut self) -> Self {
        self.repair = false;
        self
    }
}

/// Output of the Theorem 3.3 approximation.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxResult {
    /// The arcs of the `r`-fault-tolerant 2-spanner.
    pub arcs: ArcSet,
    /// Total cost of the selected arcs.
    pub cost: f64,
    /// Optimal value of the LP relaxation — a lower bound on OPT, so
    /// `cost / lp_objective` bounds the realized approximation ratio.
    pub lp_objective: f64,
    /// The inflation factor `α` that was used.
    pub alpha: f64,
    /// Number of arcs added by the repair step (0 in the typical case).
    pub repaired_arcs: usize,
    /// Cutting-plane statistics of the relaxation solve.
    pub cut_stats: CutStats,
    /// The fractional solution the rounding started from.
    pub fractional: FractionalSolution,
}

impl ApproxResult {
    /// The realized approximation ratio relative to the LP lower bound
    /// (`infinity` if the LP value is 0, which only happens on graphs with no
    /// arcs of positive cost).
    pub fn ratio_vs_lp(&self) -> f64 {
        if self.lp_objective <= f64::EPSILON {
            if self.cost <= f64::EPSILON {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.cost / self.lp_objective
        }
    }
}

/// The Theorem 3.3 algorithm: solve LP (4) and round with per-vertex
/// thresholds inflated by `α = C ln n`, yielding an
/// `O(log n)`-approximation for minimum-cost `r`-fault-tolerant 2-spanner
/// (independent of `r`).
///
/// # Errors
///
/// Returns [`CoreError::Lp`] if the relaxation cannot be solved and
/// [`CoreError::InvalidParameter`] if the graph has no vertices.
///
/// # Example
///
/// ```
/// use ftspan_core::two_spanner::{approximate_two_spanner, ApproxConfig};
/// use ftspan_graph::{generate, verify};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
/// let g = generate::directed_gnp(12, 0.5, generate::WeightKind::Unit, &mut rng);
/// let result = approximate_two_spanner(&g, &ApproxConfig::new(1), &mut rng)?;
/// assert!(verify::is_ft_two_spanner(&g, &result.arcs, 1));
/// assert!(result.cost <= g.total_cost());
/// # Ok(())
/// # }
/// ```
pub fn approximate_two_spanner(
    graph: &DiGraph,
    config: &ApproxConfig,
    rng: &mut dyn RngCore,
) -> Result<ApproxResult> {
    if graph.node_count() == 0 {
        return Err(CoreError::InvalidParameter {
            message: "cannot build a 2-spanner of a graph with no vertices".to_string(),
        });
    }
    let relax_cfg = RelaxationConfig {
        faults: config.faults,
        knapsack_cover: config.knapsack_cover,
        max_cut_rounds: config.max_cut_rounds,
        separation_tolerance: 1e-7,
        threads: config.threads.max(1),
    };
    let fractional = solve_relaxation(graph, &relax_cfg)?;
    let alpha = config.alpha_constant * (graph.node_count().max(2) as f64).ln();
    let (mut arcs, _thresholds) = round_thresholds(graph, &fractional.x, alpha, rng);
    let mut repaired = 0usize;
    if config.repair {
        // Adding a violating arc itself always satisfies it (Lemma 3.1), and
        // never invalidates other arcs, so a single pass suffices.
        for arc in two_spanner_violations(graph, &arcs, config.faults) {
            arcs.insert(arc);
            repaired += 1;
        }
    }
    let cost = graph.arc_set_cost(&arcs)?;
    Ok(ApproxResult {
        cost,
        lp_objective: fractional.objective,
        alpha,
        repaired_arcs: repaired,
        cut_stats: fractional.cuts,
        fractional,
        arcs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::generate;
    use ftspan_graph::verify;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn rounding_includes_saturated_arcs() {
        let g = generate::complete_digraph(4);
        let x = vec![1.0; g.arc_count()];
        let (arcs, thresholds) = round_thresholds(&g, &x, 2.0, &mut rng(1));
        // alpha * x = 2 >= any threshold, so every arc is selected.
        assert_eq!(arcs.len(), g.arc_count());
        assert_eq!(thresholds.len(), g.node_count());
    }

    #[test]
    fn rounding_excludes_zero_arcs() {
        let g = generate::complete_digraph(4);
        let x = vec![0.0; g.arc_count()];
        let (arcs, _) = round_thresholds(&g, &x, 10.0, &mut rng(2));
        // Thresholds are > 0 almost surely, so nothing is selected.
        assert!(arcs.is_empty());
    }

    #[test]
    fn approximation_is_valid_and_bounded_on_random_digraphs() {
        let mut r = rng(3);
        for faults in [0usize, 1, 2] {
            let g = generate::directed_gnp(10, 0.5, generate::WeightKind::Unit, &mut r);
            let result = approximate_two_spanner(&g, &ApproxConfig::new(faults), &mut r).unwrap();
            assert!(
                verify::is_ft_two_spanner(&g, &result.arcs, faults),
                "output is not an {faults}-fault-tolerant 2-spanner"
            );
            assert!(result.cost <= g.total_cost() + 1e-9);
            assert!(result.lp_objective <= result.cost + 1e-6);
            assert!(result.ratio_vs_lp() >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn approximation_handles_costs() {
        let mut r = rng(4);
        let g = generate::directed_gnp(
            10,
            0.6,
            generate::WeightKind::Uniform {
                min: 1.0,
                max: 10.0,
            },
            &mut r,
        );
        let result = approximate_two_spanner(&g, &ApproxConfig::new(1), &mut r).unwrap();
        assert!(verify::is_ft_two_spanner(&g, &result.arcs, 1));
        assert!(result.cost <= g.total_cost() + 1e-9);
    }

    #[test]
    fn gap_gadget_forces_expensive_arc() {
        let mut r = rng(5);
        let g = generate::gap_gadget(2, 40.0).unwrap();
        let result = approximate_two_spanner(&g, &ApproxConfig::new(2), &mut r).unwrap();
        // The only valid 2-fault-tolerant spanner buys everything.
        assert_eq!(result.arcs.len(), g.arc_count());
        assert!((result.cost - g.total_cost()).abs() < 1e-9);
        // And the LP lower bound agrees (no integrality gap here thanks to
        // the knapsack-cover inequalities).
        assert!((result.lp_objective - g.total_cost()).abs() < 1e-4);
    }

    #[test]
    fn without_repair_reports_violations_instead_of_fixing() {
        // With a tiny alpha the rounding drops almost everything; without
        // repair the result is allowed to be invalid, with repair it never is.
        let mut r = rng(6);
        let g = generate::complete_digraph(6);
        let cfg = ApproxConfig::new(2)
            .with_alpha_constant(0.01)
            .without_repair();
        let result = approximate_two_spanner(&g, &cfg, &mut r).unwrap();
        let violations = verify::two_spanner_violations(&g, &result.arcs, 2);
        // Tiny alpha: the spanner is essentially empty, so there must be
        // uncovered arcs.
        assert!(!violations.is_empty());

        let mut r2 = rng(6);
        let repaired =
            approximate_two_spanner(&g, &ApproxConfig::new(2).with_alpha_constant(0.01), &mut r2)
                .unwrap();
        assert!(verify::is_ft_two_spanner(&g, &repaired.arcs, 2));
        assert!(repaired.repaired_arcs > 0);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = ftspan_graph::DiGraph::new(0);
        let err = approximate_two_spanner(&g, &ApproxConfig::new(1), &mut rng(7));
        assert!(err.is_err());
    }

    #[test]
    fn ratio_handles_zero_cost_graphs() {
        let g = ftspan_graph::DiGraph::from_arcs(3, [(0, 1, 0.0), (1, 2, 0.0)]).unwrap();
        let result = approximate_two_spanner(&g, &ApproxConfig::new(0), &mut rng(8)).unwrap();
        assert!(result.ratio_vs_lp().is_finite());
    }
}

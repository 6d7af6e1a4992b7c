//! The LP relaxations of Section 3: LP (3), the knapsack-cover inequalities
//! of LP (4), and the Lemma 3.2 separation oracle.
//!
//! Variables: a capacity variable `x_a ∈ [0, 1]` for every arc `a`, and a
//! flow variable `f_{a,P} ≥ 0` for every arc `a = (u, v)` and every length-2
//! path `P ∈ P_{u,v}`. Because a 2-path is identified by its midpoint, each
//! capacity constraint of the paper collapses to the pair of constraints
//! `f_{a,P} ≤ x_{first(P)}` and `f_{a,P} ≤ x_{second(P)}`.
//!
//! LP (3) additionally has, per arc, the covering constraint
//! `(r+1)·x_a + Σ_P f_{a,P} ≥ r+1`. LP (4) adds the knapsack-cover
//! inequalities `(r+1−|W|)·x_a + Σ_{P∉W} f_{a,P} ≥ r+1−|W|` for every
//! `W ⊆ P_{u,v}` with `|W| ≤ r`; these are generated lazily by the
//! internal knapsack-cover oracle, which implements the separation routine of
//! Lemma 3.2 (it suffices to check, for each arc and each `w ≤ r`, the `w`
//! paths carrying the most flow).

use super::paths::TwoPathIndex;
use crate::par;
use crate::Result;
use ftspan_graph::{ArcId, DiGraph};
use ftspan_lp::{
    cutting_plane_solve_with_resolve_budget, Constraint, ConstraintOp, CutStats, LpProblem,
    SeparationOracle, SimplexSolver,
};

/// Configuration of the LP relaxation solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelaxationConfig {
    /// Number of vertex faults `r` to tolerate.
    pub faults: usize,
    /// Whether to add the knapsack-cover inequalities of LP (4). With
    /// `false` only LP (3) is solved — this is what the DK10 baseline and the
    /// integrality-gap experiment use.
    pub knapsack_cover: bool,
    /// Maximum number of cutting-plane rounds.
    pub max_cut_rounds: usize,
    /// Violation tolerance of the separation oracle.
    pub separation_tolerance: f64,
    /// Worker threads for the separation oracle's per-arc scan (the Lemma 3.2
    /// round is independent per arc). Cuts are emitted in arc order, so the
    /// solve is identical at any worker count.
    pub threads: usize,
}

impl RelaxationConfig {
    /// The paper's LP (4) configuration for `faults` failures.
    pub fn new(faults: usize) -> Self {
        RelaxationConfig {
            faults,
            knapsack_cover: true,
            max_cut_rounds: 50,
            separation_tolerance: 1e-7,
            threads: 1,
        }
    }

    /// The weaker LP (3) (no knapsack-cover inequalities).
    pub fn without_knapsack_cover(mut self) -> Self {
        self.knapsack_cover = false;
        self
    }

    /// Grants the separation oracle up to `threads` workers (clamped to at
    /// least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// An optimal fractional solution of the relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalSolution {
    /// Capacity value `x_a` per arc (indexed by arc id).
    pub x: Vec<f64>,
    /// Flow values per arc and per 2-path, in the order of
    /// [`TwoPathIndex::paths`].
    pub flows: Vec<Vec<f64>>,
    /// The optimal objective value — a lower bound on the cost of every
    /// integral `r`-fault-tolerant 2-spanner.
    pub objective: f64,
    /// Cutting-plane statistics (1 round and 0 cuts when knapsack-cover
    /// inequalities are disabled).
    pub cuts: CutStats,
}

/// Index layout of the LP variables: arcs first, then flow variables grouped
/// by arc.
#[derive(Debug, Clone)]
struct VariableLayout {
    arc_count: usize,
    /// Start offset of the flow block of each arc (relative to `arc_count`).
    flow_offsets: Vec<usize>,
    total_vars: usize,
}

impl VariableLayout {
    fn new(index: &TwoPathIndex) -> Self {
        let arc_count = index.arc_count();
        let mut flow_offsets = Vec::with_capacity(arc_count);
        let mut cursor = 0usize;
        for a in 0..arc_count {
            flow_offsets.push(cursor);
            cursor += index.paths(ArcId::new(a)).len();
        }
        VariableLayout {
            arc_count,
            flow_offsets,
            total_vars: arc_count + cursor,
        }
    }

    fn x_var(&self, arc: usize) -> usize {
        arc
    }

    fn f_var(&self, arc: usize, path: usize) -> usize {
        self.arc_count + self.flow_offsets[arc] + path
    }
}

/// The Lemma 3.2 separation oracle for knapsack-cover inequalities.
#[derive(Debug)]
struct KnapsackCoverOracle {
    layout: VariableLayout,
    paths_per_arc: Vec<usize>,
    faults: usize,
    tolerance: f64,
    threads: usize,
}

impl KnapsackCoverOracle {
    /// The most violated knapsack-cover cut for one arc, if any.
    fn separate_arc(&self, values: &[f64], arc: usize) -> Option<Constraint> {
        let r = self.faults;
        let path_count = self.paths_per_arc[arc];
        if path_count == 0 {
            return None;
        }
        let x = values[self.layout.x_var(arc)];
        // Flow values sorted in non-increasing order, remembering which
        // path they belong to.
        let mut flows: Vec<(usize, f64)> = (0..path_count)
            .map(|p| (p, values[self.layout.f_var(arc, p)]))
            .collect();
        flows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

        // For each prefix size w (= |W|), check the inequality with W the
        // w largest flows; keep only the most violated one for this arc.
        let mut best: Option<(f64, usize)> = None; // (violation, w)
        let mut prefix_sum = 0.0;
        let total: f64 = flows.iter().map(|&(_, f)| f).sum();
        for w in 1..=r.min(path_count) {
            prefix_sum += flows[w - 1].1;
            let need = (r + 1 - w) as f64;
            let lhs = need * x + (total - prefix_sum);
            let violation = need - lhs;
            if violation > self.tolerance {
                match best {
                    Some((v, _)) if v >= violation => {}
                    _ => best = Some((violation, w)),
                }
            }
        }
        let (_, w) = best?;
        let need = (r + 1 - w) as f64;
        let excluded: std::collections::HashSet<usize> =
            flows.iter().take(w).map(|&(p, _)| p).collect();
        let mut coeffs = vec![(self.layout.x_var(arc), need)];
        for p in 0..path_count {
            if !excluded.contains(&p) {
                coeffs.push((self.layout.f_var(arc, p), 1.0));
            }
        }
        Some(Constraint::new(coeffs, ConstraintOp::Ge, need))
    }
}

impl SeparationOracle for KnapsackCoverOracle {
    fn separate(&mut self, values: &[f64]) -> Vec<Constraint> {
        // The Lemma 3.2 round is independent per arc; fan the scan across the
        // pool and keep the cuts in arc order so the cutting-plane solve is
        // identical at any worker count.
        par::map(self.threads, self.layout.arc_count, |arc| {
            self.separate_arc(values, arc)
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Builds LP (3) for `graph` and `faults`, returning the problem and the
/// variable layout.
fn build_base_lp(
    graph: &DiGraph,
    index: &TwoPathIndex,
    faults: usize,
) -> (LpProblem, VariableLayout) {
    let layout = VariableLayout::new(index);
    let mut lp = LpProblem::minimize(layout.total_vars);

    // Objective and multiplicity constraints on the x variables.
    for (a, arc) in graph.arcs() {
        lp.set_objective(layout.x_var(a.index()), arc.cost);
        lp.set_upper_bound(layout.x_var(a.index()), 1.0);
    }

    let r1 = (faults + 1) as f64;
    for (a, _) in graph.arcs() {
        let ai = a.index();
        let paths = index.paths(a);
        // Capacity constraints: f_{a,P} <= x_e for both arcs of P.
        for (p, path) in paths.iter().enumerate() {
            let f = layout.f_var(ai, p);
            lp.add_constraint(
                vec![(f, 1.0), (layout.x_var(path.first.index()), -1.0)],
                ConstraintOp::Le,
                0.0,
            );
            lp.add_constraint(
                vec![(f, 1.0), (layout.x_var(path.second.index()), -1.0)],
                ConstraintOp::Le,
                0.0,
            );
        }
        // Covering constraint: (r+1) x_a + sum_P f_{a,P} >= r+1.
        let mut coeffs = vec![(layout.x_var(ai), r1)];
        for p in 0..paths.len() {
            coeffs.push((layout.f_var(ai, p), 1.0));
        }
        lp.add_constraint(coeffs, ConstraintOp::Ge, r1);
    }
    (lp, layout)
}

/// Solves the LP relaxation of the minimum-cost `r`-fault-tolerant 2-spanner
/// problem on `graph`.
///
/// With [`RelaxationConfig::knapsack_cover`] enabled this is LP (4), solved
/// by cutting planes with the Lemma 3.2 separation oracle; otherwise it is
/// plain LP (3).
///
/// # Errors
///
/// Returns an error if the LP solver fails; for well-formed digraphs the
/// relaxation is always feasible (set every `x_a = 1`), so an error indicates
/// a numerical problem.
pub fn solve_relaxation(graph: &DiGraph, config: &RelaxationConfig) -> Result<FractionalSolution> {
    let index = TwoPathIndex::build(graph);
    let (mut lp, layout) = build_base_lp(graph, &index, config.faults);
    let solver = SimplexSolver::default();

    let (solution, cuts) = if config.knapsack_cover {
        // Knapsack-cover cut systems are heavily degenerate and a re-solve
        // can crawl for hundreds of thousands of pivots with negligible
        // objective movement. Cap the pivot budget of the *re-solves* only
        // (the base LP keeps the full default budget): when a round exceeds
        // it, the previous round's optimum is returned, which is the exact
        // optimum of a valid (slightly weaker) relaxation — still a correct
        // lower bound and rounding input.
        let resolve_solver = SimplexSolver {
            max_iterations: 40_000,
            ..solver
        };
        let mut oracle = KnapsackCoverOracle {
            paths_per_arc: (0..index.arc_count())
                .map(|a| index.paths(ArcId::new(a)).len())
                .collect(),
            layout: layout.clone(),
            faults: config.faults,
            tolerance: config.separation_tolerance,
            threads: config.threads.max(1),
        };
        cutting_plane_solve_with_resolve_budget(
            &mut lp,
            &solver,
            &resolve_solver,
            &mut oracle,
            config.max_cut_rounds,
        )?
    } else {
        let s = solver.solve(&lp)?;
        (
            s,
            CutStats {
                rounds: 1,
                cuts_added: 0,
                separated_to_optimality: true,
            },
        )
    };

    let x: Vec<f64> = (0..graph.arc_count())
        .map(|a| solution.values[layout.x_var(a)].clamp(0.0, 1.0))
        .collect();
    let flows: Vec<Vec<f64>> = (0..graph.arc_count())
        .map(|a| {
            (0..index.paths(ArcId::new(a)).len())
                .map(|p| solution.values[layout.f_var(a, p)].max(0.0))
                .collect()
        })
        .collect();
    Ok(FractionalSolution {
        x,
        flows,
        objective: solution.objective,
        cuts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::generate;

    #[test]
    fn gap_gadget_lp3_is_fooled_but_lp4_is_not() {
        // Section 3.2: the costly-arc gadget has an Ω(r) gap for LP (3) but
        // the knapsack-cover inequalities force the expensive arc to be
        // bought fractionally in full.
        let r = 3;
        let expensive = 60.0;
        let g = generate::gap_gadget(r, expensive).unwrap();

        let weak =
            solve_relaxation(&g, &RelaxationConfig::new(r).without_knapsack_cover()).unwrap();
        let strong = solve_relaxation(&g, &RelaxationConfig::new(r)).unwrap();

        // LP (3): x_(u,v) = 1/(r+1) suffices, so the objective is about
        // expensive/(r+1) + 2r.
        let weak_expected = expensive / (r as f64 + 1.0) + 2.0 * r as f64;
        assert!(
            (weak.objective - weak_expected).abs() < 1e-4,
            "LP(3) objective {} expected {}",
            weak.objective,
            weak_expected
        );
        // LP (4): only r 2-paths exist, so the knapsack-cover constraint with
        // W = all paths forces x_(u,v) = 1; the optimum buys everything.
        let strong_expected = expensive + 2.0 * r as f64;
        assert!(
            (strong.objective - strong_expected).abs() < 1e-4,
            "LP(4) objective {} expected {}",
            strong.objective,
            strong_expected
        );
        assert!(strong.cuts.cuts_added > 0);
        assert!(strong.cuts.separated_to_optimality);
    }

    #[test]
    fn complete_digraph_lp_is_below_the_integral_optimum() {
        // On K_n with unit costs, every integral r-fault-tolerant 2-spanner
        // must give each vertex out-degree at least min(n-1, r+1) (otherwise
        // some omitted out-arc has fewer than r+1 two-paths), so OPT >=
        // (r+1)·n arcs. The symmetric fractional solution of LP (3) sets
        // every x_e = (r+1)/(n+r-1), which is strictly cheaper — the LP gap
        // the `sec3.1/kn-lp3` rows of the `exp_paper` table check.
        let n = 7usize;
        let r = 3usize;
        let g = generate::complete_digraph(n);
        let weak =
            solve_relaxation(&g, &RelaxationConfig::new(r).without_knapsack_cover()).unwrap();
        let symmetric = (n * (n - 1)) as f64 * (r + 1) as f64 / (n + r - 1) as f64;
        // The dense simplex accumulates a little floating-point drift on this
        // ~1000-row instance; allow a small absolute slack.
        assert!(
            weak.objective <= symmetric + 1e-2,
            "LP(3) objective {} exceeds the symmetric feasible value {}",
            weak.objective,
            symmetric
        );
        let integral_lower_bound = ((r + 1) * n) as f64;
        assert!(
            weak.objective < integral_lower_bound,
            "LP(3) objective {} should be below the integral lower bound {}",
            weak.objective,
            integral_lower_bound
        );
    }

    #[test]
    fn lp_objective_is_lower_bound_on_buying_everything() {
        let g = generate::complete_digraph(5);
        let sol = solve_relaxation(&g, &RelaxationConfig::new(1)).unwrap();
        assert!(sol.objective <= g.total_cost() + 1e-6);
        assert_eq!(sol.x.len(), g.arc_count());
        assert_eq!(sol.flows.len(), g.arc_count());
    }

    #[test]
    fn zero_faults_matches_plain_two_spanner_relaxation() {
        // With r = 0 the covering constraint is x_a + sum f >= 1: the classic
        // fractional 2-spanner LP. On the gadget the cheap 2-paths cover the
        // expensive arc entirely.
        let g = generate::gap_gadget(2, 50.0).unwrap();
        let sol = solve_relaxation(&g, &RelaxationConfig::new(0)).unwrap();
        assert!(sol.objective <= 2.0 * 2.0 + 1.0 + 1e-6);
        // The expensive arc should not be (fully) bought.
        assert!(sol.x[0] < 0.6);
    }

    #[test]
    fn arcs_without_two_paths_must_be_bought() {
        // A single arc with no 2-paths: the LP must set x = 1 regardless of r.
        let g = ftspan_graph::DiGraph::from_arcs(2, [(0, 1, 7.0)]).unwrap();
        for r in [0usize, 2] {
            let sol = solve_relaxation(&g, &RelaxationConfig::new(r)).unwrap();
            assert!((sol.x[0] - 1.0).abs() < 1e-6);
            assert!((sol.objective - 7.0).abs() < 1e-6);
        }
    }
}

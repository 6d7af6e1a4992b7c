//! The paper's checkable claims as one table of [`ClaimRow`]s.
//!
//! [`rows`] generates every instance from one seed, runs the registry
//! algorithms at their default parameters (full iteration budgets, no
//! scaling), and checks each measured number against the formula or bound
//! the paper states for it. The `exp_paper` binary prints the rows and
//! writes them to `target/experiments/paper_claims.csv`;
//! `tests/paper_claims.rs` asserts every row's `valid` over three seeds and
//! pins [`digest`] at [`DEFAULT_SEED`].
//!
//! The formulas (`⌈4r²(r+2) ln n⌉` iterations, `α = 3 ln n`, …) are written
//! out here rather than read from the constructions' parameter types, so a
//! changed constant in a construction fails a row instead of moving the
//! reference along with it.
//!
//! Instances are small enough for the whole table to take seconds: undirected
//! `G(n, p)` graphs with 30 to 120 vertices and directed ones with at most 12.
//! Random directed instances use arc probability 0.3, because denser ones
//! make the simplex on LP (4) occasionally degenerate and slow.

use crate::scenarios::Fnv;
use crate::{fmt, Table};
use fault_tolerant_spanners::core::two_spanner::{solve_relaxation, RelaxationConfig};
use fault_tolerant_spanners::prelude::*;
use ftspan_graph::verify::{FaultToleranceReport, StretchOracle};
use ftspan_spanners::size_bounds;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The seed of the pinned table (and of `exp_paper` without `--seed`).
pub const DEFAULT_SEED: u64 = 2011;

/// Stretch of every undirected row.
const K: f64 = 3.0;
/// Sizes of the shared undirected instances (average degree about 10).
const SIZES: [usize; 3] = [30, 60, 120];
/// Random fault sets per sampled fault-tolerance check.
const SAMPLES: usize = 30;
/// The constant `C` of Theorem 3.9's `rounds ≤ C ln² n`, from the round
/// accounting in `ftspan_local::two_spanner`: `t = ⌈3 ln n⌉` repetitions,
/// each charging `cap = ⌈2 ln n⌉` flooding rounds plus `2(radius + 1) ≤
/// 2(cap + 1)` gathering rounds, then 3 rounds of rounding and repair. That
/// is at most `(3L + 1)(6L + 5) + 3 = 18L² + 21L + 8` for `L = ln n`, which
/// is below `31 L²` once `L ≥ 2` (`n ≥ 8`).
const THM_3_9_ROUNDS_C: f64 = 31.0;

/// One checked claim on one instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClaimRow {
    /// Claim identifier, `<paper result>/<quantity>` (`thm2.1/iterations`).
    pub claim: &'static str,
    /// Registry name of the construction the row measures.
    pub algorithm: &'static str,
    /// Vertices of the instance.
    pub n: usize,
    /// Edges (undirected instances) or arcs (directed instances).
    pub m: usize,
    /// Faults tolerated.
    pub r: usize,
    /// Stretch.
    pub k: f64,
    /// The measured quantity.
    pub measured: f64,
    /// What the claim compares `measured` with: the paper's formula, a lower
    /// bound, or the competing construction's value.
    pub reference: f64,
    /// The bound `measured` is checked against (the formula itself for exact
    /// claims).
    pub limit: f64,
    /// Whether the row's check holds.
    pub valid: bool,
}

/// Computes every claim row for `seed`. Deterministic in `seed`.
pub fn rows(seed: u64) -> Vec<ClaimRow> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graphs: Vec<Graph> = SIZES
        .iter()
        .map(|&n| generate::connected_gnp(n, 8.0 / n as f64, generate::WeightKind::Unit, &mut rng))
        .collect();
    let mut rows = Vec::new();
    conversion_rows(&graphs, &mut rng, &mut rows);
    small_instance_rows(&mut rng, &mut rows);
    two_spanner_rows(&mut rng, &mut rows);
    gap_rows(&mut rows);
    bounded_degree_rows(&mut rng, &mut rows);
    distributed_rows(&graphs, &mut rng, &mut rows);
    registry_rows(&mut rng, &mut rows);
    rows
}

/// FNV-1a over every field of every row (no wall-clock is recorded).
pub fn digest(rows: &[ClaimRow]) -> u64 {
    let mut h = Fnv::new();
    for row in rows {
        for text in [row.claim, row.algorithm] {
            h.write_u64(text.len() as u64);
            h.write_bytes(text.as_bytes());
        }
        for v in [row.n, row.m, row.r, usize::from(row.valid)] {
            h.write_u64(v as u64);
        }
        for v in [row.k, row.measured, row.reference, row.limit] {
            h.write_f64(v);
        }
    }
    h.finish()
}

/// The rows as a [`Table`] named `paper_claims`.
pub fn table(rows: &[ClaimRow]) -> Table {
    let header = "claim algorithm n m r k measured reference limit valid";
    let columns: Vec<&str> = header.split(' ').collect();
    let mut table = Table::new("paper_claims", &columns);
    let num = |v: f64| fmt(v, if v.fract() == 0.0 { 0 } else { 3 });
    for row in rows {
        table.add_row(vec![
            row.claim.to_string(),
            row.algorithm.to_string(),
            row.n.to_string(),
            row.m.to_string(),
            row.r.to_string(),
            num(row.k),
            num(row.measured),
            num(row.reference),
            num(row.limit),
            row.valid.to_string(),
        ]);
    }
    table
}

/// Theorem 2.1's iteration count `⌈4r²(r+2) ln n⌉`.
fn vertex_iterations(n: usize, r: usize) -> f64 {
    let r = r as f64;
    (4.0 * r * r * (r + 2.0) * (n as f64).ln()).ceil()
}

/// The edge-fault extension's iteration count `⌈4r(r+2) ln n⌉`.
fn edge_iterations(n: usize, r: usize) -> f64 {
    let r = r as f64;
    (4.0 * r * (r + 2.0) * (n as f64).ln()).ceil()
}

/// `C(n, i)`, exact in `f64` for the sizes used here.
fn binomial(n: usize, i: usize) -> f64 {
    (0..i).fold(1.0, |c, j| c * (n - j) as f64 / (j + 1) as f64)
}

/// A diagnostic a report may leave unset, as `NaN` (which fails any check).
fn count(value: Option<usize>) -> f64 {
    value.map_or(f64::NAN, |v| v as f64)
}

/// As [`count`], for real-valued diagnostics.
fn or_nan(value: Option<f64>) -> f64 {
    value.unwrap_or(f64::NAN)
}

/// Lemma 3.1's oracle on a directed report's arcs.
fn ft_two_spanner(g: &DiGraph, report: &SpannerReport, r: usize) -> bool {
    verify::is_ft_two_spanner(g, report.arc_set().expect("directed report"), r)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1.0)
}

impl ClaimRow {
    /// A row for `algorithm` on `input`, before its claim is checked.
    fn on(algorithm: &'static str, input: GraphInput<'_>, r: usize) -> Self {
        let (n, m, k) = match input {
            GraphInput::Undirected(g) => (g.node_count(), g.edge_count(), K),
            GraphInput::Directed(g) => (g.node_count(), g.arc_count(), 2.0),
        };
        let nan = f64::NAN;
        ClaimRow {
            claim: "",
            algorithm,
            n,
            m,
            r,
            k,
            measured: nan,
            reference: nan,
            limit: nan,
            valid: false,
        }
    }

    fn row(
        self,
        claim: &'static str,
        measured: f64,
        reference: f64,
        limit: f64,
        valid: bool,
    ) -> Self {
        ClaimRow {
            claim,
            measured,
            reference,
            limit,
            valid,
            ..self
        }
    }

    /// `measured` equals the formula `expected`.
    fn exact(self, claim: &'static str, measured: f64, expected: f64) -> Self {
        let ok = close(measured, expected);
        self.row(claim, measured, expected, expected, ok)
    }

    /// `reference ≤ measured ≤ limit`, and `ok`.
    fn within(
        self,
        claim: &'static str,
        measured: f64,
        reference: f64,
        limit: f64,
        ok: bool,
    ) -> Self {
        let inside = reference <= measured + 1e-6 && measured <= limit + 1e-6;
        self.row(claim, measured, reference, limit, ok && inside)
    }

    /// A fault-tolerance oracle's verdict: the worst stretch seen against `k`.
    fn stretch<F>(self, claim: &'static str, check: &FaultToleranceReport<F>) -> Self {
        self.row(claim, check.worst_stretch, self.k, self.k, check.is_valid())
    }

    /// Vertex-fault tolerance of `report`'s spanner over every fault set.
    fn exhaustive(self, claim: &'static str, g: &Graph, report: &SpannerReport) -> Self {
        let check = oracle(g, report).verify_exhaustive(K, self.r);
        self.stretch(claim, &check)
    }

    /// Vertex-fault tolerance of `report`'s spanner over sampled fault sets.
    fn sampled(
        self,
        claim: &'static str,
        g: &Graph,
        report: &SpannerReport,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let check = oracle(g, report).verify_sampled(K, self.r, SAMPLES, rng);
        self.stretch(claim, &check)
    }
}

/// The stretch oracle over `report`'s undirected spanner of `g`.
fn oracle<'a>(g: &'a Graph, report: &SpannerReport) -> StretchOracle<'a> {
    StretchOracle::new(g, report.edge_set().expect("undirected report"))
}

fn build(name: &str, input: GraphInput<'_>, r: usize, rng: &mut ChaCha8Rng) -> SpannerReport {
    let algorithm = registry().get(name).expect("registered algorithm");
    algorithm
        .build(input, &SpannerRequest::new(r), rng)
        .unwrap_or_else(|e| panic!("`{name}` failed at its default parameters: {e}"))
}

/// The edge-fault extension of Theorem 2.1: `conversion` asked for edge faults.
fn build_edge(g: &Graph, r: usize, rng: &mut ChaCha8Rng) -> SpannerReport {
    let request = SpannerRequest::new(r).with_fault_model(FaultModel::Edge);
    let conversion = registry().get("conversion").expect("registered algorithm");
    conversion
        .build(g.into(), &request, rng)
        .expect("conversion takes edge faults")
}

/// Theorem 2.1 (vertex and edge faults) and Corollary 2.2 on the shared
/// undirected instances.
fn conversion_rows(graphs: &[Graph], rng: &mut ChaCha8Rng, rows: &mut Vec<ClaimRow>) {
    for g in graphs {
        let n = g.node_count();
        for r in [1, 2] {
            let at = ClaimRow::on("conversion", g.into(), r);
            let vertex = build("conversion", g.into(), r, rng);
            let iterations = vertex.iterations as f64;
            rows.push(at.exact("thm2.1/iterations", iterations, vertex_iterations(n, r)));
            rows.push(if r == 1 {
                at.exhaustive("thm2.1/valid-exhaustive", g, &vertex)
            } else {
                at.sampled("thm2.1/valid-sampled", g, &vertex, rng)
            });
            let iterations = build_edge(g, r, rng).iterations as f64;
            rows.push(at.exact("edge/iterations", iterations, edge_iterations(n, r)));
        }
        let at = ClaimRow::on("corollary-2.2", g.into(), 2);
        let cor = build("corollary-2.2", g.into(), 2, rng);
        let lower = vertex_fault_size_lower_bound(g, 2) as f64;
        let bound = size_bounds::corollary_2_2_bound(n, 2, K);
        rows.push(at.within("cor2.2/size", cor.size() as f64, lower, bound, true));
        rows.push(at.sampled("cor2.2/valid-sampled", g, &cor, rng));
    }
}

/// Exhaustive edge-fault validity, the CLPR09 baseline's fault-set count
/// (next to Theorem 2.1's iteration count) and the adaptive conversion on a
/// sparser 30-vertex instance.
fn small_instance_rows(rng: &mut ChaCha8Rng, rows: &mut Vec<ClaimRow>) {
    let g = &generate::connected_gnp(30, 0.1, generate::WeightKind::Unit, rng);
    let n = g.node_count();
    for r in [1, 2] {
        let edges = build_edge(g, r, rng).edges;
        let spanner = edges.as_undirected().expect("undirected report");
        let check = StretchOracle::new(g, spanner).verify_edge_exhaustive(K, r);
        rows.push(ClaimRow::on("conversion", g.into(), r).stretch("edge/valid-exhaustive", &check));

        let fault_sets: f64 = (0..=r).map(|i| binomial(n, i)).sum();
        let used = build("clpr09", g.into(), r, rng).iterations as f64;
        let at = ClaimRow::on("clpr09", g.into(), r);
        let (ours, ok) = (vertex_iterations(n, r), used == fault_sets);
        rows.push(at.row("clpr09/fault-sets", used, ours, fault_sets, ok));

        let at = ClaimRow::on("adaptive", g.into(), r);
        let adaptive = build("adaptive", g.into(), r, rng);
        let (used, budget) = (adaptive.iterations as f64, vertex_iterations(n, r));
        let theorem = count(adaptive.theorem_iterations);
        let ok = used <= budget && theorem == budget && adaptive.verified == Some(true);
        rows.push(at.row("adaptive/iterations", used, theorem, budget, ok));
        if r == 1 {
            rows.push(at.exhaustive("adaptive/valid-exhaustive", g, &adaptive));
        }
    }
}

/// Theorem 3.3 against DK10 and the greedy cover on one random-cost digraph.
fn two_spanner_rows(rng: &mut ChaCha8Rng, rows: &mut Vec<ClaimRow>) {
    let (min, max) = (1.0, 10.0);
    let costs = generate::WeightKind::Uniform { min, max };
    let g = &generate::directed_gnp(12, 0.3, costs, rng);
    let ln_n = (g.node_count() as f64).ln();
    for r in 0..=3 {
        let lp = build("two-spanner-lp", g.into(), r, rng);
        let dk10 = build("dk10", g.into(), r, rng);
        let greedy = build("two-spanner-greedy", g.into(), r, rng);
        let (lp4, lp3) = (or_nan(lp.lp_objective), or_nan(dk10.lp_objective));
        let (alpha, dk10_alpha) = (3.0 * ln_n, 3.0 * (r + 1) as f64 * ln_n);

        let at = ClaimRow::on("two-spanner-lp", g.into(), r);
        rows.push(at.exact("thm3.3/alpha", or_nan(lp.alpha), alpha));
        rows.push(at.within(
            "thm3.3/ratio",
            lp.cost,
            lp4,
            alpha * lp4,
            ft_two_spanner(g, &lp, r),
        ));
        let at = ClaimRow::on("dk10", g.into(), r);
        let used = or_nan(dk10.alpha);
        let grows = close(used, dk10_alpha) && (r == 0 || used > alpha + 1e-9);
        rows.push(at.row("dk10/alpha", used, alpha, dk10_alpha, grows));
        rows.push(at.within(
            "dk10/ratio",
            dk10.cost,
            lp3,
            dk10_alpha * lp3,
            ft_two_spanner(g, &dk10, r),
        ));
        let at = ClaimRow::on("two-spanner-greedy", g.into(), r);
        let (buy_all, ok) = (g.total_cost(), ft_two_spanner(g, &greedy, r));
        rows.push(at.within("lemma3.1/greedy-cost", greedy.cost, lp4, buy_all, ok));
    }
}

/// Sections 3.1–3.2: LP (4) closes the gap LP (3) leaves on the costly-arc
/// gadget, and LP (3) pays less than any integral solution on `K_n`. An
/// unsolved LP yields `NaN` and an invalid row.
fn gap_rows(rows: &mut Vec<ClaimRow>) {
    let objective = |g: &DiGraph, config: RelaxationConfig| {
        solve_relaxation(g, &config).map_or(f64::NAN, |s| s.objective)
    };
    let expensive = 100.0;
    let mut previous_gap = 1.0;
    for r in [1, 2, 4, 8] {
        let g = &generate::gap_gadget(r, expensive).expect("r >= 1");
        let opt = expensive + 2.0 * r as f64;
        let lp4 = objective(g, RelaxationConfig::new(r));
        rows.push(ClaimRow::on("two-spanner-lp", g.into(), r).exact("sec3.2/lp4-gap", lp4, opt));
        let gap = opt / objective(g, RelaxationConfig::new(r).without_knapsack_cover());
        let at = ClaimRow::on("dk10", g.into(), r);
        let ok = gap > previous_gap;
        rows.push(at.row("sec3.2/lp3-gap", gap, opt / lp4, previous_gap, ok));
        previous_gap = gap;
    }
    // Every integral solution keeps r + 1 out-arcs per vertex of K_n, while
    // x_e = (r+1)/(n+r-1) is feasible for LP (3).
    for (n, r) in [(4, 1), (4, 2), (5, 1), (5, 2), (5, 3)] {
        let g = &generate::complete_digraph(n);
        let lp3 = objective(g, RelaxationConfig::new(r).without_knapsack_cover());
        let integral = directed_cost_lower_bound(g, r);
        let symmetric = (n * (n - 1) * (r + 1)) as f64 / (n + r - 1) as f64;
        let ok = lp3 <= symmetric + 1e-2 && symmetric < integral;
        let at = ClaimRow::on("dk10", g.into(), r);
        rows.push(at.row("sec3.1/kn-lp3", lp3, integral, symmetric, ok));
    }
}

/// Theorem 3.4 on near-regular unit-cost digraphs. Its `α = 4 ln Δ` is
/// below Theorem 3.3's `3 ln n` whenever `Δ < n^{3/4}`, as here.
fn bounded_degree_rows(rng: &mut ChaCha8Rng, rows: &mut Vec<ClaimRow>) {
    let r = 1;
    for d in [3, 4] {
        let g = &DiGraph::from_graph(&generate::random_near_regular(12, d, rng));
        let lll = build("two-spanner-lll", g.into(), r, rng);
        let alpha = 4.0 * (g.max_degree().max(2) as f64).ln().max(1.0);
        let theorem_3_3 = 3.0 * (g.node_count() as f64).ln();
        let (used, lp) = (or_nan(lll.alpha), or_nan(lll.lp_objective));
        let at = ClaimRow::on("two-spanner-lll", g.into(), r);
        let below = close(used, alpha) && used < theorem_3_3;
        rows.push(at.row("thm3.4/alpha", used, alpha, theorem_3_3, below));
        let valid = ft_two_spanner(g, &lll, r);
        rows.push(at.within("thm3.4/ratio", lll.cost, lp, alpha * lp, valid));
    }
}

/// Theorems 2.3 and 3.9: the LOCAL algorithms' rounds, messages and output.
/// A simulated round carries at most one message per direction of each
/// communication edge, so `messages ≤ 2 m · rounds`.
fn distributed_rows(graphs: &[Graph], rng: &mut ChaCha8Rng, rows: &mut Vec<ClaimRow>) {
    for g in &graphs[..2] {
        let n = g.node_count();
        for r in [1, 2] {
            let at = ClaimRow::on("distributed-conversion", g.into(), r);
            let out = build("distributed-conversion", g.into(), r, rng);
            let (rounds, alpha) = (count(out.rounds), vertex_iterations(n, r));
            let exact = rounds == 2.0 * alpha && out.iterations as f64 == alpha;
            rows.push(at.row("thm2.3/rounds", rounds, alpha, 2.0 * alpha, exact));
            let (messages, limit) = (count(out.messages), 2.0 * at.m as f64 * rounds);
            rows.push(at.within("thm2.3/messages", messages, 1.0, limit, true));
            rows.push(if r == 1 {
                at.exhaustive("thm2.3/valid-exhaustive", g, &out)
            } else {
                at.sampled("thm2.3/valid-sampled", g, &out, rng)
            });
        }
    }
    for n in [8, 10] {
        let g = &generate::directed_gnp(n, 0.3, generate::WeightKind::Unit, rng);
        let ln_n = (n as f64).ln();
        for r in [0, 1] {
            let at = ClaimRow::on("distributed-two-spanner", g.into(), r);
            let out = build("distributed-two-spanner", g.into(), r, rng);
            let central =
                solve_relaxation(g, &RelaxationConfig::new(r)).map_or(f64::NAN, |s| s.objective);
            let valid = ft_two_spanner(g, &out, r);
            rows.push(at.within("thm3.9/cost", out.cost, central, g.total_cost(), valid));
            // `reference` is the exact part: t repetitions of `cap` flooding
            // rounds and at least two gathering rounds, then one rounding and
            // two repair rounds.
            let (t, cap) = ((3.0 * ln_n).ceil(), (2.0 * ln_n).ceil());
            let (rounds, floor) = (count(out.rounds), t * (cap + 2.0) + 3.0);
            let (limit, ok) = (THM_3_9_ROUNDS_C * ln_n * ln_n, out.iterations as f64 == t);
            rows.push(at.within("thm3.9/rounds<=31ln^2n", rounds, floor, limit, ok));
            let (messages, limit) = (count(out.messages), 2.0 * at.m as f64 * rounds);
            rows.push(at.within("thm3.9/messages", messages, 1.0, limit, true));
        }
    }
}

/// Every registered algorithm at `r = 1` on one shared undirected and one
/// shared directed instance, checked by the oracle for its fault model.
/// `reference` is the degree lower bound on the size, `limit` the input size.
fn registry_rows(rng: &mut ChaCha8Rng, rows: &mut Vec<ClaimRow>) {
    let g = &generate::connected_gnp(40, 0.2, generate::WeightKind::Unit, rng);
    let dg = &generate::directed_gnp(10, 0.3, generate::WeightKind::Unit, rng);
    let r = 1;
    for algorithm in registry().iter() {
        let input = match algorithm.graph_family() {
            GraphFamily::Undirected => GraphInput::from(g),
            GraphFamily::Directed => GraphInput::from(dg),
        };
        let lower = match input {
            GraphInput::Undirected(g) => vertex_fault_size_lower_bound(g, r),
            GraphInput::Directed(g) => directed_size_lower_bound(g, r),
        };
        let at = ClaimRow::on(algorithm.name(), input, r);
        let (lower, limit) = (lower as f64, at.m as f64);
        rows.push(match algorithm.build(input, &SpannerRequest::new(r), rng) {
            Ok(report) => {
                let k = report.stretch;
                let valid = match (&report.edges, report.fault_model) {
                    (SpannerEdges::Directed(arcs), _) => verify::is_ft_two_spanner(dg, arcs, r),
                    (SpannerEdges::Undirected(edges), FaultModel::Vertex) => {
                        verify::is_fault_tolerant_k_spanner(g, edges, k, r)
                    }
                    (SpannerEdges::Undirected(edges), FaultModel::Edge) => {
                        verify::is_edge_fault_tolerant_k_spanner(g, edges, k, r)
                    }
                };
                let at = ClaimRow { k, ..at };
                at.within("registry/smoke", report.size() as f64, lower, limit, valid)
            }
            Err(_) => at.row("registry/smoke", f64::NAN, lower, limit, false),
        });
    }
}

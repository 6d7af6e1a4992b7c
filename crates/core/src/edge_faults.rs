//! Edge-fault-tolerant spanners via the conversion theorem.
//!
//! The paper states Theorem 2.1 for *vertex* faults; edge faults are the
//! natural companion model (and the one the geometric fault-tolerant spanner
//! literature started with). The same oversampling idea applies verbatim: in
//! each iteration every **edge** joins the oversized fault set `J`
//! independently with probability `p = 1 − 1/r`, the black-box `k`-spanner
//! algorithm runs on `(V, E \ J)`, and the output is the union over all
//! iterations.
//!
//! The analysis is in fact slightly better than the vertex case. Fix an edge
//! fault set `F` (`|F| ≤ r`) and a surviving edge `e ∈ E'_F` whose shortest
//! path in `G \ F` is the edge itself. An iteration covers the pair when
//! `e ∉ J` and `F ⊆ J`, which happens with probability
//! `(1 − p) · p^r = (1/r)(1 − 1/r)^r ≥ 1/(4r)` for `r ≥ 2`, so
//! `α = Θ(r² log n)` iterations suffice for a union bound over the at most
//! `m^{r+1}` (edge, fault set) pairs — one factor of `r` less than the vertex
//! version. The expected number of surviving edges per iteration is `m / r`.
//!
//! This module is an extension beyond the paper's statements, provided
//! because a library user who asks for "fault tolerance" usually needs to
//! pick one of the two models; it reuses the vertex-fault machinery wherever
//! possible and is verified by the edge-fault oracles in
//! [`ftspan_graph::verify`].

use crate::par;
use ftspan_graph::{EdgeSet, Graph};
use ftspan_spanners::SpannerAlgorithm;
use rand::Rng;
use rand::RngCore;

/// Parameters of the edge-fault-tolerant conversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeFaultParams {
    /// Number of edge faults `r` to tolerate.
    pub faults: usize,
    /// Explicit number of iterations `α`. When `None`, the default
    /// `⌈scale · 4 r (r + 2) ln n⌉` is used.
    pub iterations: Option<usize>,
    /// Multiplier on the default iteration count (see
    /// [`ConversionParams::scale`](crate::conversion::ConversionParams)).
    pub scale: f64,
}

impl EdgeFaultParams {
    /// Parameters tolerating `faults` edge failures with the default
    /// iteration count.
    pub fn new(faults: usize) -> Self {
        EdgeFaultParams {
            faults,
            iterations: None,
            scale: 1.0,
        }
    }

    /// Overrides the number of iterations `α`.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Scales the default iteration count by `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "iteration scale must be positive");
        self.scale = scale;
        self
    }

    /// The probability with which each edge joins the oversized fault set
    /// (`1 − 1/r`, or `1/2` when `r ≤ 1`).
    pub fn sampling_probability(&self) -> f64 {
        if self.faults <= 1 {
            0.5
        } else {
            1.0 - 1.0 / self.faults as f64
        }
    }

    /// The number of iterations `α` used for an `n`-vertex graph.
    ///
    /// The per-iteration success probability for a fixed (edge, fault set)
    /// pair is at least `1/(4r)`, and the union bound is over at most
    /// `m^{r+1} ≤ n^{2(r+1)}` pairs, giving `α ≈ 4 r · 2(r + 2) ln n`; the
    /// constant is folded into the same `4 r (r + 2) ln n` shape as the
    /// vertex-fault default with one factor of `r` removed.
    pub fn iterations_for(&self, n: usize) -> usize {
        if let Some(it) = self.iterations {
            return it.max(1);
        }
        let r = self.faults.max(1) as f64;
        let ln_n = (n.max(2) as f64).ln();
        let alpha = self.scale * 4.0 * r * (r + 2.0) * ln_n;
        alpha.ceil().max(1.0) as usize
    }

    /// The size bound `O(r² log n · f(n))` of the edge-fault conversion,
    /// evaluated with the concrete iteration count (the black box runs on the
    /// full vertex set, so `f` is evaluated at `n`, not `2n/r`).
    pub fn size_bound(&self, n: usize, f: impl Fn(usize) -> f64) -> f64 {
        self.iterations_for(n) as f64 * f(n.max(2))
    }
}

/// The output of the edge-fault-tolerant conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeFaultResult {
    /// The edges of the `r`-edge-fault-tolerant `k`-spanner.
    pub edges: EdgeSet,
    /// Number of iterations that were run.
    pub iterations: usize,
    /// Number of edges surviving the oversampling in each iteration.
    pub surviving_edges: Vec<usize>,
}

impl EdgeFaultResult {
    /// Number of edges in the constructed spanner.
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// Mean number of edges surviving the oversampling per iteration
    /// (concentrates around `m / r`).
    pub fn mean_surviving_edges(&self) -> f64 {
        if self.surviving_edges.is_empty() {
            return 0.0;
        }
        self.surviving_edges.iter().sum::<usize>() as f64 / self.surviving_edges.len() as f64
    }
}

/// Builds an `r`-edge-fault-tolerant `k`-spanner of `graph` by the
/// edge-sampling conversion, using `algorithm` as the `k`-spanner black box.
///
/// The output is valid with high probability; certainty requires re-checking
/// with [`ftspan_graph::verify::verify_edge_fault_tolerance_exhaustive`] (or
/// the sampled variant on larger instances).
///
/// # Example
///
/// ```
/// use ftspan_core::edge_faults::{edge_fault_tolerant_spanner, EdgeFaultParams};
/// use ftspan_spanners::GreedySpanner;
/// use ftspan_graph::{generate, verify};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let g = generate::gnp(20, 0.5, generate::WeightKind::Unit, &mut rng);
/// let result = edge_fault_tolerant_spanner(
///     &g,
///     &GreedySpanner::new(3.0),
///     &EdgeFaultParams::new(1),
///     &mut rng,
/// );
/// assert!(verify::is_edge_fault_tolerant_k_spanner(&g, &result.edges, 3.0, 1));
/// ```
pub fn edge_fault_tolerant_spanner<A>(
    graph: &Graph,
    algorithm: &A,
    params: &EdgeFaultParams,
    rng: &mut dyn RngCore,
) -> EdgeFaultResult
where
    A: SpannerAlgorithm + ?Sized,
{
    edge_fault_tolerant_spanner_with_threads(graph, algorithm, params, rng, 1)
}

/// [`edge_fault_tolerant_spanner`] with the `α` independent iterations fanned
/// out across up to `threads` workers.
///
/// Each iteration derives a private random stream from a seed drawn
/// sequentially from `rng` and results merge in iteration order (the
/// [`crate::par`] discipline), so the output is byte-identical at any worker
/// count.
pub fn edge_fault_tolerant_spanner_with_threads<A>(
    graph: &Graph,
    algorithm: &A,
    params: &EdgeFaultParams,
    rng: &mut dyn RngCore,
    threads: usize,
) -> EdgeFaultResult
where
    A: SpannerAlgorithm + ?Sized,
{
    let n = graph.node_count();
    let m = graph.edge_count();
    let p = params.sampling_probability();
    let alpha = params.iterations_for(n);
    let seeds = par::derive_seeds(rng, alpha);

    let outcomes = par::map(threads, alpha, |i| {
        let mut task_rng = par::stream(seeds[i]);
        // Sample the oversized edge fault set J; its complement is the mask
        // the black box runs on.
        let live: Vec<bool> = (0..m).map(|_| task_rng.gen::<f64>() >= p).collect();
        let edges = algorithm.build_masked(graph, &live, &mut task_rng);
        (edges, live.iter().filter(|&&l| l).count())
    });

    let mut union = graph.empty_edge_set();
    let mut surviving_edges = Vec::with_capacity(alpha);
    for (edges, surviving) in outcomes {
        surviving_edges.push(surviving);
        union.union_with(&edges);
    }

    EdgeFaultResult {
        edges: union,
        iterations: alpha,
        surviving_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generate, verify};
    use ftspan_spanners::{BaswanaSenSpanner, GreedySpanner};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn iteration_count_and_probability() {
        let p = EdgeFaultParams::new(3);
        assert!((p.sampling_probability() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(EdgeFaultParams::new(1).sampling_probability(), 0.5);
        let n = 100;
        let expected = (4.0 * 3.0 * 5.0 * (100f64).ln()).ceil() as usize;
        assert_eq!(p.iterations_for(n), expected);
        assert_eq!(p.with_iterations(9).iterations_for(n), 9);
        assert!(EdgeFaultParams::new(3).with_scale(0.25).iterations_for(n) < expected);
        // Edge-fault iterations are cheaper than vertex-fault iterations by a
        // factor of r.
        let vertex = crate::conversion::ConversionParams::new(3).iterations_for(n);
        assert!(p.iterations_for(n) < vertex);
    }

    #[test]
    #[should_panic]
    fn zero_scale_rejected() {
        EdgeFaultParams::new(1).with_scale(0.0);
    }

    #[test]
    fn output_is_edge_fault_tolerant_r1() {
        let mut r = rng(11);
        let g = generate::gnp(18, 0.5, generate::WeightKind::Unit, &mut r);
        let result = edge_fault_tolerant_spanner(
            &g,
            &GreedySpanner::new(3.0),
            &EdgeFaultParams::new(1),
            &mut r,
        );
        assert!(verify::is_edge_fault_tolerant_k_spanner(
            &g,
            &result.edges,
            3.0,
            1
        ));
        assert!(result.size() <= g.edge_count());
        assert_eq!(result.surviving_edges.len(), result.iterations);
    }

    #[test]
    fn output_is_edge_fault_tolerant_r2_weighted() {
        let mut r = rng(12);
        let g = generate::connected_gnp(
            14,
            0.4,
            generate::WeightKind::Uniform { min: 1.0, max: 2.0 },
            &mut r,
        );
        let result = edge_fault_tolerant_spanner(
            &g,
            &BaswanaSenSpanner::new(2),
            &EdgeFaultParams::new(2),
            &mut r,
        );
        assert!(verify::is_edge_fault_tolerant_k_spanner(
            &g,
            &result.edges,
            3.0,
            2
        ));
    }

    #[test]
    fn oversampling_keeps_roughly_m_over_r_edges() {
        let mut r = rng(13);
        let g = generate::gnp(40, 0.4, generate::WeightKind::Unit, &mut r);
        let m = g.edge_count() as f64;
        let params = EdgeFaultParams::new(4).with_iterations(150);
        let result = edge_fault_tolerant_spanner(&g, &GreedySpanner::new(3.0), &params, &mut r);
        let mean = result.mean_surviving_edges();
        assert!(
            mean > 0.15 * m && mean < 0.35 * m,
            "mean surviving edges {mean} not around m/4 = {}",
            m / 4.0
        );
    }

    #[test]
    fn size_bound_composes_f() {
        let params = EdgeFaultParams::new(2);
        let bound = params.size_bound(50, |n| 2.0 * n as f64);
        assert_eq!(bound, params.iterations_for(50) as f64 * 100.0);
    }

    #[test]
    fn empty_graph_yields_empty_spanner() {
        let mut r = rng(14);
        let g = Graph::new(0);
        let result = edge_fault_tolerant_spanner(
            &g,
            &GreedySpanner::new(3.0),
            &EdgeFaultParams::new(2),
            &mut r,
        );
        assert_eq!(result.size(), 0);
        assert_eq!(result.mean_surviving_edges(), 0.0);
    }
}

//! [`FtSpannerAlgorithm`] implementations for every centralized construction
//! in this crate.
//!
//! Each implementation is a stateless descriptor that translates the unified
//! [`SpannerRequest`] into the construction's native parameters, runs it, and
//! normalizes the result into a [`SpannerReport`]. The distributed
//! constructions get the same treatment in `ftspan-local`; the facade crate
//! merges both sets into one registry.

use crate::adaptive::{adaptive_fault_tolerant_spanner_with_threads, AdaptiveConfig, StoppingRule};
use crate::api::{
    FaultModel, FtSpannerAlgorithm, GraphFamily, GraphInput, SpannerEdges, SpannerReport,
    SpannerRequest,
};
use crate::baselines::{dk10_two_spanner_with_threads, ClprStyleBaseline};
use crate::conversion::{ConversionParams, ConversionResult, FaultTolerantConverter};
use crate::two_spanner::{
    approximate_two_spanner, bounded_degree_two_spanner, greedy_ft_two_spanner, ApproxConfig,
    ApproxResult, LllConfig,
};
use crate::{CoreError, Result};
use ftspan_graph::Graph;
use ftspan_spanners::SpannerAlgorithm;
use rand::RngCore;
use std::time::Instant;

/// Everything a Theorem 2.1 union build of one registry entry needs: the
/// converter, the black box, the stretch it guarantees, the fault model the
/// output tolerates and the provenance it records. The registry build and
/// the dynamic (traced) build share it, so an artifact's provenance is the
/// same whichever path produced it.
pub(crate) struct ConversionPlan {
    pub(crate) converter: FaultTolerantConverter,
    pub(crate) black_box: Box<dyn SpannerAlgorithm>,
    pub(crate) stretch: f64,
    pub(crate) fault_model: FaultModel,
    pub(crate) provenance: String,
}

/// The [`ConversionPlan`] of `conversion` (under the request's fault model),
/// `corollary-2.2` (greedy black box, vertex faults) or `edge-fault`; `None`
/// for every other name.
pub(crate) fn conversion_plan(algorithm: &str, request: &SpannerRequest) -> Option<ConversionPlan> {
    let (black_box, fault_model) = match algorithm {
        "conversion" => (
            request.black_box.instantiate(request.stretch),
            request.fault_model,
        ),
        "corollary-2.2" => (
            Box::new(ftspan_spanners::GreedySpanner::new(request.stretch))
                as Box<dyn SpannerAlgorithm>,
            FaultModel::Vertex,
        ),
        "edge-fault" => (
            request.black_box.instantiate(request.stretch),
            FaultModel::Edge,
        ),
        _ => return None,
    };
    let stretch = black_box.stretch();
    let (faults, bb) = (request.faults, request.black_box);
    let provenance = match (algorithm, fault_model) {
        ("corollary-2.2", _) => format!("Corollary 2.2 (greedy, k = {stretch}, r = {faults})"),
        (_, FaultModel::Vertex) => {
            format!("Theorem 2.1 conversion over {bb} (k = {stretch}, r = {faults})")
        }
        (_, FaultModel::Edge) => {
            format!("edge-fault conversion over {bb} (k = {stretch}, r = {faults})")
        }
    };
    let mut params = ConversionParams::new(faults)
        .with_fault_model(fault_model)
        .with_scale(request.scale);
    if let Some(iterations) = request.iterations {
        params = params.with_iterations(iterations);
    }
    Some(ConversionPlan {
        converter: FaultTolerantConverter::new(params),
        black_box,
        stretch,
        fault_model,
        provenance,
    })
}

/// Runs `algorithm`'s [`ConversionPlan`] through the registry.
fn build_conversion(
    algorithm: &dyn FtSpannerAlgorithm,
    input: GraphInput<'_>,
    request: &SpannerRequest,
    rng: &mut dyn RngCore,
) -> Result<SpannerReport> {
    let graph = input.expect_undirected(algorithm.name())?;
    let plan = conversion_plan(algorithm.name(), request)
        .expect("only conversion-family algorithms build through a plan");
    let start = Instant::now();
    let result = plan.converter.build_with_threads(
        graph,
        plan.black_box.as_ref(),
        rng,
        request.effective_threads(),
    );
    let elapsed = start.elapsed();
    let mut report = undirected_report(
        algorithm,
        graph,
        request,
        plan.provenance,
        plan.stretch,
        result,
    );
    report.elapsed = elapsed;
    Ok(report)
}

fn approx_config(request: &SpannerRequest) -> ApproxConfig {
    let mut config = ApproxConfig::new(request.faults);
    if let Some(c) = request.alpha_constant {
        config = config.with_alpha_constant(c);
    }
    config.max_cut_rounds = request.max_cut_rounds;
    config.repair = request.repair;
    config.threads = request.effective_threads();
    config
}

fn undirected_report(
    algorithm: &dyn FtSpannerAlgorithm,
    graph: &Graph,
    request: &SpannerRequest,
    provenance: String,
    stretch: f64,
    result: ConversionResult,
) -> SpannerReport {
    let cost = graph
        .edge_set_weight(&result.edges)
        .expect("constructed edges belong to the input graph");
    let mut report = SpannerReport::new(
        algorithm.name(),
        provenance,
        algorithm.fault_model(request),
        request.faults,
        stretch,
        SpannerEdges::Undirected(result.edges),
        cost,
    );
    report.iterations = result.iterations;
    report.per_iteration = result.per_iteration;
    report
}

fn directed_report(
    algorithm: &dyn FtSpannerAlgorithm,
    request: &SpannerRequest,
    provenance: String,
    result: ApproxResult,
) -> SpannerReport {
    let mut report = SpannerReport::new(
        algorithm.name(),
        provenance,
        FaultModel::Vertex,
        request.faults,
        2.0,
        SpannerEdges::Directed(result.arcs),
        result.cost,
    );
    report.iterations = 1;
    report.lp_objective = Some(result.lp_objective);
    report.alpha = Some(result.alpha);
    report.repaired_arcs = result.repaired_arcs;
    report.cuts_added = Some(result.cut_stats.cuts_added);
    report
}

fn reject_edge_model(name: &str, request: &SpannerRequest) -> Result<()> {
    if request.fault_model == FaultModel::Edge {
        return Err(CoreError::InvalidParameter {
            message: format!(
                "algorithm `{name}` tolerates vertex faults only; \
                 use `edge-fault` (or `conversion`, which dispatches on the fault model) \
                 for edge faults"
            ),
        });
    }
    Ok(())
}

/// Theorem 2.1: the black-box conversion. Honors the request's fault model
/// (vertex faults run the paper's construction, edge faults the library's
/// edge-sampling extension), stretch, black box, and iteration knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConversionAlgorithm;

impl FtSpannerAlgorithm for ConversionAlgorithm {
    fn name(&self) -> &'static str {
        "conversion"
    }

    fn reference(&self) -> &'static str {
        "Theorem 2.1"
    }

    fn summary(&self) -> &'static str {
        "black-box conversion: union of spanners over oversampled fault sets"
    }

    fn graph_family(&self) -> GraphFamily {
        GraphFamily::Undirected
    }

    fn fault_model(&self, request: &SpannerRequest) -> FaultModel {
        request.fault_model
    }

    fn guaranteed_stretch(&self, request: &SpannerRequest) -> f64 {
        request.black_box.instantiate(request.stretch).stretch()
    }

    fn build(
        &self,
        input: GraphInput<'_>,
        request: &SpannerRequest,
        rng: &mut dyn RngCore,
    ) -> Result<SpannerReport> {
        build_conversion(self, input, request, rng)
    }
}

/// Corollary 2.2: the conversion instantiated with the greedy spanner of
/// Althöfer et al. (the black-box knob is fixed; stretch and iteration knobs
/// are honored).
#[derive(Debug, Clone, Copy, Default)]
pub struct Corollary22Algorithm;

impl FtSpannerAlgorithm for Corollary22Algorithm {
    fn name(&self) -> &'static str {
        "corollary-2.2"
    }

    fn reference(&self) -> &'static str {
        "Corollary 2.2"
    }

    fn summary(&self) -> &'static str {
        "conversion over the greedy spanner: size O(r^{2-2/(k+1)} n^{1+2/(k+1)} log n)"
    }

    fn graph_family(&self) -> GraphFamily {
        GraphFamily::Undirected
    }

    fn supports(&self, request: &SpannerRequest) -> Result<()> {
        reject_edge_model(self.name(), request)
    }

    fn build(
        &self,
        input: GraphInput<'_>,
        request: &SpannerRequest,
        rng: &mut dyn RngCore,
    ) -> Result<SpannerReport> {
        self.supports(request)?;
        build_conversion(self, input, request, rng)
    }
}

/// The adaptive conversion: Theorem 2.1 run in batches with a verification
/// battery as stopping rule. Honors stretch, black box, batch and sample
/// knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveAlgorithm;

impl FtSpannerAlgorithm for AdaptiveAlgorithm {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn reference(&self) -> &'static str {
        "Theorem 2.1 (adaptive iteration count)"
    }

    fn summary(&self) -> &'static str {
        "conversion that stops as soon as a verification battery passes"
    }

    fn graph_family(&self) -> GraphFamily {
        GraphFamily::Undirected
    }

    fn supports(&self, request: &SpannerRequest) -> Result<()> {
        reject_edge_model(self.name(), request)
    }

    fn guaranteed_stretch(&self, request: &SpannerRequest) -> f64 {
        request.black_box.instantiate(request.stretch).stretch()
    }

    fn build(
        &self,
        input: GraphInput<'_>,
        request: &SpannerRequest,
        rng: &mut dyn RngCore,
    ) -> Result<SpannerReport> {
        self.supports(request)?;
        let graph = input.expect_undirected(self.name())?;
        let black_box = request.black_box.instantiate(request.stretch);
        let mut config = AdaptiveConfig::new(request.faults, graph.node_count());
        if let Some(batch) = request.batch {
            config = config.with_batch(batch);
        }
        if let Some(samples) = request.samples {
            config = config.with_stopping(StoppingRule::Sampled { samples });
        }
        let start = Instant::now();
        let result = adaptive_fault_tolerant_spanner_with_threads(
            graph,
            black_box.as_ref(),
            &config,
            rng,
            request.effective_threads(),
        );
        let elapsed = start.elapsed();
        let provenance = format!(
            "adaptive Theorem 2.1 conversion over {} (k = {}, r = {})",
            request.black_box,
            black_box.stretch(),
            request.faults
        );
        let union = ConversionResult {
            edges: result.edges,
            iterations: result.iterations,
            per_iteration: result.per_iteration,
        };
        let stretch = black_box.stretch();
        let mut report = undirected_report(self, graph, request, provenance, stretch, union);
        report.theorem_iterations = Some(result.theorem_iterations);
        report.verified = Some(result.verified);
        report.elapsed = elapsed;
        Ok(report)
    }
}

/// The edge-fault conversion under its own registry name (the `conversion`
/// entry reaches the same construction when the request's fault model is
/// [`FaultModel::Edge`]). The fault model is fixed by construction: the
/// request's `fault_model` knob is ignored and the report always declares
/// [`FaultModel::Edge`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeFaultAlgorithm;

impl FtSpannerAlgorithm for EdgeFaultAlgorithm {
    fn name(&self) -> &'static str {
        "edge-fault"
    }

    fn reference(&self) -> &'static str {
        "Theorem 2.1 (edge-fault extension)"
    }

    fn summary(&self) -> &'static str {
        "edge-sampling conversion tolerating r edge faults in Θ(r² log n) iterations"
    }

    fn graph_family(&self) -> GraphFamily {
        GraphFamily::Undirected
    }

    fn fault_model(&self, _request: &SpannerRequest) -> FaultModel {
        FaultModel::Edge
    }

    fn guaranteed_stretch(&self, request: &SpannerRequest) -> f64 {
        request.black_box.instantiate(request.stretch).stretch()
    }

    fn build(
        &self,
        input: GraphInput<'_>,
        request: &SpannerRequest,
        rng: &mut dyn RngCore,
    ) -> Result<SpannerReport> {
        build_conversion(self, input, request, rng)
    }
}

/// The CLPR09-style union-over-fault-sets baseline. Exhaustive by default;
/// [`SpannerRequest::samples`] switches to that many sampled fault sets.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClprBaselineAlgorithm;

impl FtSpannerAlgorithm for ClprBaselineAlgorithm {
    fn name(&self) -> &'static str {
        "clpr09"
    }

    fn reference(&self) -> &'static str {
        "CLPR09 baseline (Section 1.1)"
    }

    fn summary(&self) -> &'static str {
        "union of black-box spanners over explicit fault sets (exponential in r)"
    }

    fn graph_family(&self) -> GraphFamily {
        GraphFamily::Undirected
    }

    fn supports(&self, request: &SpannerRequest) -> Result<()> {
        reject_edge_model(self.name(), request)
    }

    fn guaranteed_stretch(&self, request: &SpannerRequest) -> f64 {
        request.black_box.instantiate(request.stretch).stretch()
    }

    fn build(
        &self,
        input: GraphInput<'_>,
        request: &SpannerRequest,
        rng: &mut dyn RngCore,
    ) -> Result<SpannerReport> {
        self.supports(request)?;
        let graph = input.expect_undirected(self.name())?;
        let black_box = request.black_box.instantiate(request.stretch);
        let baseline = match request.samples {
            Some(samples) => ClprStyleBaseline::sampled(request.faults, samples),
            None => ClprStyleBaseline::new(request.faults),
        };
        let start = Instant::now();
        let result = baseline.build_with_threads(
            graph,
            black_box.as_ref(),
            rng,
            request.effective_threads(),
        );
        let elapsed = start.elapsed();
        let provenance = format!(
            "CLPR09-style union over {} fault sets ({}, k = {}, r = {})",
            result.iterations,
            request.black_box,
            black_box.stretch(),
            request.faults
        );
        let mut report = undirected_report(
            self,
            graph,
            request,
            provenance,
            black_box.stretch(),
            result,
        );
        report.elapsed = elapsed;
        Ok(report)
    }
}

/// Theorem 3.3: the knapsack-cover LP rounding, an `O(log n)`-approximation
/// for minimum-cost `r`-fault-tolerant 2-spanner.
#[derive(Debug, Clone, Copy, Default)]
pub struct LpTwoSpannerAlgorithm;

impl FtSpannerAlgorithm for LpTwoSpannerAlgorithm {
    fn name(&self) -> &'static str {
        "two-spanner-lp"
    }

    fn reference(&self) -> &'static str {
        "Theorem 3.3"
    }

    fn summary(&self) -> &'static str {
        "knapsack-cover LP + threshold rounding: O(log n)-approximate min-cost 2-spanner"
    }

    fn graph_family(&self) -> GraphFamily {
        GraphFamily::Directed
    }

    fn supports(&self, request: &SpannerRequest) -> Result<()> {
        reject_edge_model(self.name(), request)
    }

    fn guaranteed_stretch(&self, _request: &SpannerRequest) -> f64 {
        2.0
    }

    fn build(
        &self,
        input: GraphInput<'_>,
        request: &SpannerRequest,
        rng: &mut dyn RngCore,
    ) -> Result<SpannerReport> {
        self.supports(request)?;
        let graph = input.expect_directed(self.name())?;
        let config = approx_config(request);
        let start = Instant::now();
        let result = approximate_two_spanner(graph, &config, rng)?;
        let elapsed = start.elapsed();
        let provenance = format!(
            "Theorem 3.3 LP(4) rounding (alpha = {:.2}, r = {})",
            result.alpha, request.faults
        );
        let mut report = directed_report(self, request, provenance, result);
        report.elapsed = elapsed;
        Ok(report)
    }
}

/// The DK10 baseline: threshold rounding on the weak relaxation with
/// inflation `Θ(r log n)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dk10BaselineAlgorithm;

impl FtSpannerAlgorithm for Dk10BaselineAlgorithm {
    fn name(&self) -> &'static str {
        "dk10"
    }

    fn reference(&self) -> &'static str {
        "DK10 baseline (arXiv 2010)"
    }

    fn summary(&self) -> &'static str {
        "weak-LP rounding with inflation Θ(r log n): the prior 2-spanner approximation"
    }

    fn graph_family(&self) -> GraphFamily {
        GraphFamily::Directed
    }

    fn supports(&self, request: &SpannerRequest) -> Result<()> {
        reject_edge_model(self.name(), request)
    }

    fn guaranteed_stretch(&self, _request: &SpannerRequest) -> f64 {
        2.0
    }

    fn build(
        &self,
        input: GraphInput<'_>,
        request: &SpannerRequest,
        rng: &mut dyn RngCore,
    ) -> Result<SpannerReport> {
        self.supports(request)?;
        let graph = input.expect_directed(self.name())?;
        let start = Instant::now();
        let result =
            dk10_two_spanner_with_threads(graph, request.faults, rng, request.effective_threads())?;
        let elapsed = start.elapsed();
        let provenance = format!(
            "DK10 rounding on the weak relaxation (alpha = {:.2}, r = {})",
            result.alpha, request.faults
        );
        let mut report = directed_report(self, request, provenance, result);
        report.elapsed = elapsed;
        Ok(report)
    }
}

/// The LP-free greedy cover heuristic: always valid, no approximation
/// guarantee, deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyTwoSpannerAlgorithm;

impl FtSpannerAlgorithm for GreedyTwoSpannerAlgorithm {
    fn name(&self) -> &'static str {
        "two-spanner-greedy"
    }

    fn reference(&self) -> &'static str {
        "Lemma 3.1 (greedy cover heuristic)"
    }

    fn summary(&self) -> &'static str {
        "LP-free greedy maintaining the Lemma 3.1 invariant arc by arc"
    }

    fn graph_family(&self) -> GraphFamily {
        GraphFamily::Directed
    }

    fn supports(&self, request: &SpannerRequest) -> Result<()> {
        reject_edge_model(self.name(), request)
    }

    fn guaranteed_stretch(&self, _request: &SpannerRequest) -> f64 {
        2.0
    }

    fn build(
        &self,
        input: GraphInput<'_>,
        request: &SpannerRequest,
        _rng: &mut dyn RngCore,
    ) -> Result<SpannerReport> {
        self.supports(request)?;
        let graph = input.expect_directed(self.name())?;
        let start = Instant::now();
        let result = greedy_ft_two_spanner(graph, request.faults);
        let elapsed = start.elapsed();
        let provenance = format!(
            "greedy Lemma 3.1 cover (bought {}, covered {}, r = {})",
            result.bought_directly, result.covered_by_paths, request.faults
        );
        let mut report = SpannerReport::new(
            self.name(),
            provenance,
            FaultModel::Vertex,
            request.faults,
            2.0,
            SpannerEdges::Directed(result.arcs),
            result.cost,
        );
        report.iterations = 1;
        report.elapsed = elapsed;
        Ok(report)
    }
}

/// Theorem 3.4: the bounded-degree `O(log Δ)`-approximation via the
/// constructive Lovász Local Lemma (unit arc costs only).
#[derive(Debug, Clone, Copy, Default)]
pub struct LllTwoSpannerAlgorithm;

impl FtSpannerAlgorithm for LllTwoSpannerAlgorithm {
    fn name(&self) -> &'static str {
        "two-spanner-lll"
    }

    fn reference(&self) -> &'static str {
        "Theorem 3.4"
    }

    fn summary(&self) -> &'static str {
        "Moser-Tardos resampled rounding: O(log Δ)-approximation for unit costs"
    }

    fn graph_family(&self) -> GraphFamily {
        GraphFamily::Directed
    }

    fn supports(&self, request: &SpannerRequest) -> Result<()> {
        reject_edge_model(self.name(), request)
    }

    fn guaranteed_stretch(&self, _request: &SpannerRequest) -> f64 {
        2.0
    }

    fn build(
        &self,
        input: GraphInput<'_>,
        request: &SpannerRequest,
        rng: &mut dyn RngCore,
    ) -> Result<SpannerReport> {
        self.supports(request)?;
        let graph = input.expect_directed(self.name())?;
        if let Some(bound) = request.degree_bound {
            let delta = graph.max_degree();
            if delta > bound {
                return Err(CoreError::InvalidParameter {
                    message: format!(
                        "input has maximum degree {delta}, above the requested bound {bound}"
                    ),
                });
            }
        }
        let mut config = LllConfig::new(request.faults);
        if let Some(c) = request.alpha_constant {
            config = config.with_alpha_constant(c);
        }
        config.max_cut_rounds = request.max_cut_rounds;
        config.threads = request.effective_threads();
        let start = Instant::now();
        let result = bounded_degree_two_spanner(graph, &config, rng)?;
        let elapsed = start.elapsed();
        let provenance = format!(
            "Theorem 3.4 LLL rounding (Δ = {}, alpha = {:.2}, {} resamples, r = {})",
            result.max_degree, result.alpha, result.resamples, request.faults
        );
        let mut report = SpannerReport::new(
            self.name(),
            provenance,
            FaultModel::Vertex,
            request.faults,
            2.0,
            SpannerEdges::Directed(result.arcs),
            result.cost,
        );
        report.iterations = 1;
        report.lp_objective = Some(result.lp_objective);
        report.alpha = Some(result.alpha);
        report.repaired_arcs = result.repaired_arcs;
        report.resamples = Some(result.resamples);
        report.elapsed = elapsed;
        Ok(report)
    }
}

/// The centralized algorithms this crate contributes to the registry.
pub fn core_algorithms() -> Vec<Box<dyn FtSpannerAlgorithm>> {
    vec![
        Box::new(ConversionAlgorithm),
        Box::new(Corollary22Algorithm),
        Box::new(AdaptiveAlgorithm),
        Box::new(EdgeFaultAlgorithm),
        Box::new(ClprBaselineAlgorithm),
        Box::new(LpTwoSpannerAlgorithm),
        Box::new(GreedyTwoSpannerAlgorithm),
        Box::new(LllTwoSpannerAlgorithm),
        Box::new(Dk10BaselineAlgorithm),
    ]
}

/// Small graphs to smoke-test a [`FtSpannerAlgorithm`] implementation on (a
/// seeded G(n, p) of the right family), shared by the unit tests here and the
/// distributed implementations' tests.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Registry;
    use ftspan_graph::{generate, verify, DiGraph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn undirected(seed: u64) -> Graph {
        generate::gnp(18, 0.45, generate::WeightKind::Unit, &mut rng(seed))
    }

    fn directed(seed: u64) -> DiGraph {
        generate::directed_gnp(9, 0.5, generate::WeightKind::Unit, &mut rng(seed))
    }

    #[test]
    fn registry_has_all_core_algorithms_with_unique_names() {
        let registry = Registry::from_algorithms(core_algorithms());
        assert_eq!(registry.len(), 9);
        for name in [
            "conversion",
            "corollary-2.2",
            "adaptive",
            "edge-fault",
            "clpr09",
            "two-spanner-lp",
            "two-spanner-greedy",
            "two-spanner-lll",
            "dk10",
        ] {
            let algorithm = registry
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(algorithm.name(), name);
            assert!(!algorithm.summary().is_empty());
            assert!(!algorithm.reference().is_empty());
        }
        assert!(registry.get("no-such-algorithm").is_none());
    }

    #[test]
    fn conversion_report_is_fault_tolerant_and_complete() {
        let g = undirected(1);
        let request = SpannerRequest::new(1);
        let report = ConversionAlgorithm
            .build(GraphInput::from(&g), &request, &mut rng(2))
            .unwrap();
        assert_eq!(report.algorithm, "conversion");
        assert_eq!(report.fault_model, FaultModel::Vertex);
        assert!(report.provenance.contains("Theorem 2.1"));
        assert_eq!(report.per_iteration.len(), report.iterations);
        assert!(report.size() > 0);
        assert!(report.cost > 0.0);
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            report.edge_set().unwrap(),
            report.stretch,
            1
        ));
    }

    #[test]
    fn conversion_dispatches_on_fault_model() {
        let g = undirected(3);
        let request = SpannerRequest::new(1).with_fault_model(FaultModel::Edge);
        let report = ConversionAlgorithm
            .build(GraphInput::from(&g), &request, &mut rng(4))
            .unwrap();
        assert_eq!(report.fault_model, FaultModel::Edge);
        assert!(report.provenance.contains("edge-fault"));
        assert!(verify::is_edge_fault_tolerant_k_spanner(
            &g,
            report.edge_set().unwrap(),
            report.stretch,
            1
        ));
        assert!(report.mean_surviving_edges() > 0.0);
    }

    #[test]
    fn vertex_only_algorithms_reject_the_edge_model() {
        let g = undirected(5);
        let dg = directed(5);
        let request = SpannerRequest::new(1).with_fault_model(FaultModel::Edge);
        assert!(Corollary22Algorithm.supports(&request).is_err());
        assert!(Corollary22Algorithm
            .build(GraphInput::from(&g), &request, &mut rng(6))
            .is_err());
        assert!(LpTwoSpannerAlgorithm
            .build(GraphInput::from(&dg), &request, &mut rng(6))
            .is_err());
    }

    #[test]
    fn family_mismatch_is_a_clean_error() {
        let g = undirected(7);
        let dg = directed(7);
        let request = SpannerRequest::new(1);
        let err = LpTwoSpannerAlgorithm
            .build(GraphInput::from(&g), &request, &mut rng(8))
            .unwrap_err();
        assert!(err.to_string().contains("directed"));
        let err = ConversionAlgorithm
            .build(GraphInput::from(&dg), &request, &mut rng(8))
            .unwrap_err();
        assert!(err.to_string().contains("undirected"));
    }

    #[test]
    fn adaptive_report_carries_budget_diagnostics() {
        let g = undirected(9);
        let request = SpannerRequest::new(1);
        let report = AdaptiveAlgorithm
            .build(GraphInput::from(&g), &request, &mut rng(10))
            .unwrap();
        assert_eq!(report.verified, Some(true));
        assert!(report.theorem_iterations.unwrap() >= report.iterations);
        assert_eq!(report.per_iteration.len(), report.iterations);
        // `new_edges` counts against the union across batches, so the
        // batches' new edges add up to the spanner.
        let new_edges: usize = report.per_iteration.iter().map(|s| s.new_edges).sum();
        assert_eq!(new_edges, report.size());
        assert!(report.budget_fraction() <= 1.0);
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            report.edge_set().unwrap(),
            report.stretch,
            1
        ));
    }

    #[test]
    fn clpr_baseline_honors_the_samples_knob() {
        let g = undirected(11);
        let exhaustive = ClprBaselineAlgorithm
            .build(GraphInput::from(&g), &SpannerRequest::new(1), &mut rng(12))
            .unwrap();
        assert_eq!(exhaustive.iterations, 1 + g.node_count());
        let sampled = ClprBaselineAlgorithm
            .build(
                GraphInput::from(&g),
                &SpannerRequest::new(1).with_samples(5),
                &mut rng(12),
            )
            .unwrap();
        assert_eq!(sampled.iterations, 5);
    }

    #[test]
    fn directed_reports_expose_lp_diagnostics() {
        let dg = directed(13);
        let request = SpannerRequest::new(1);
        for algorithm in [
            Box::new(LpTwoSpannerAlgorithm) as Box<dyn FtSpannerAlgorithm>,
            Box::new(Dk10BaselineAlgorithm),
        ] {
            let report = algorithm
                .build(GraphInput::from(&dg), &request, &mut rng(14))
                .unwrap();
            assert_eq!(report.stretch, 2.0);
            assert!(report.lp_objective.is_some());
            assert!(report.alpha.is_some());
            assert!(report.ratio_vs_lp().unwrap() >= 1.0 - 1e-9);
            assert!(verify::is_ft_two_spanner(&dg, report.arc_set().unwrap(), 1));
        }
    }

    #[test]
    fn greedy_two_spanner_is_deterministic_and_valid() {
        let dg = directed(15);
        let request = SpannerRequest::new(2);
        let a = GreedyTwoSpannerAlgorithm
            .build(GraphInput::from(&dg), &request, &mut rng(16))
            .unwrap();
        let b = GreedyTwoSpannerAlgorithm
            .build(GraphInput::from(&dg), &request, &mut rng(999))
            .unwrap();
        assert_eq!(a.edges, b.edges);
        assert!(verify::is_ft_two_spanner(&dg, a.arc_set().unwrap(), 2));
    }

    #[test]
    fn lll_respects_the_degree_bound_knob() {
        let mut r = rng(17);
        let ug = generate::random_near_regular(14, 4, &mut r);
        let dg = DiGraph::from_graph(&ug);
        let ok = LllTwoSpannerAlgorithm.build(
            GraphInput::from(&dg),
            &SpannerRequest::new(1).with_degree_bound(dg.max_degree()),
            &mut r,
        );
        assert!(ok.is_ok());
        assert!(ok.unwrap().resamples.is_some());
        let too_tight = LllTwoSpannerAlgorithm.build(
            GraphInput::from(&dg),
            &SpannerRequest::new(1).with_degree_bound(1),
            &mut r,
        );
        assert!(too_tight.is_err());
    }
}

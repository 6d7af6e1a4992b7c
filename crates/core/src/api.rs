//! The unified construction API: one trait, one request type, one report
//! type for *every* fault-tolerant spanner construction in the workspace.
//!
//! The paper's central idea is a black-box conversion — a *regular interface*
//! over spanner algorithms — yet the constructions themselves (conversion,
//! 2-spanner approximations, baselines, distributed variants) historically
//! each had a differently-shaped entry point. This module closes that gap:
//!
//! * [`FtSpannerAlgorithm`] — the object-safe trait every construction
//!   implements: `build(GraphInput, &SpannerRequest, &mut dyn RngCore)`
//!   in, [`SpannerReport`] out.
//! * [`SpannerRequest`] — the unified knob set (faults `r`, stretch `k`,
//!   [`FaultModel`], black-box choice, iteration/budget overrides).
//! * [`SpannerReport`] — the unified result: the selected edges (undirected
//!   or directed), size/cost, per-iteration statistics, wall-clock time and
//!   an algorithm provenance string.
//! * [`Registry`] — a string-keyed collection of algorithms so examples and
//!   bench binaries can select constructions by name at runtime; the facade
//!   crate assembles the full registry (centralized + distributed).
//!
//! Implementations for the centralized constructions live in
//! [`crate::algorithms`]; the distributed ones in `ftspan-local`.

use crate::conversion::IterationStats;
use crate::{CoreError, Result};
use ftspan_graph::csr::CsrSubgraph;
use ftspan_graph::stream::GeneratorSpec;
use ftspan_graph::{ArcSet, DiGraph, EdgeSet, Graph};
use ftspan_spanners::BlackBoxKind;
use rand::RngCore;
use std::time::Duration;

/// Which failures a construction protects against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultModel {
    /// Up to `r` vertices may fail (the paper's setting).
    #[default]
    Vertex,
    /// Up to `r` edges may fail (the library's extension).
    Edge,
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultModel::Vertex => "vertex",
            FaultModel::Edge => "edge",
        })
    }
}

/// Which graph family a construction consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFamily {
    /// Undirected graphs with non-negative lengths (stretch `k ≥ 3`).
    Undirected,
    /// Directed graphs with arc costs (the minimum-cost 2-spanner setting).
    Directed,
}

impl std::fmt::Display for GraphFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GraphFamily::Undirected => "undirected",
            GraphFamily::Directed => "directed",
        })
    }
}

/// A borrowed input graph, undirected or directed.
///
/// This is what algorithms consume during a build. Callers holding an owned
/// payload — a graph, a pre-packed CSR, or a seeded
/// [`GeneratorSpec`] — should go
/// through [`GraphSource`], which packs the CSR once at the API boundary
/// and lends the algorithm a `GraphInput` view of it.
#[derive(Debug, Clone, Copy)]
pub enum GraphInput<'a> {
    /// An undirected instance.
    Undirected(&'a Graph),
    /// A directed instance.
    Directed(&'a DiGraph),
}

impl<'a> GraphInput<'a> {
    /// The family of this input.
    pub fn family(&self) -> GraphFamily {
        match self {
            GraphInput::Undirected(_) => GraphFamily::Undirected,
            GraphInput::Directed(_) => GraphFamily::Directed,
        }
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        match self {
            GraphInput::Undirected(g) => g.node_count(),
            GraphInput::Directed(g) => g.node_count(),
        }
    }

    /// The undirected graph, or an error mentioning `algorithm`.
    pub fn expect_undirected(&self, algorithm: &str) -> Result<&'a Graph> {
        match self {
            GraphInput::Undirected(g) => Ok(g),
            GraphInput::Directed(_) => Err(CoreError::InvalidParameter {
                message: format!(
                    "algorithm `{algorithm}` builds spanners of undirected graphs; \
                     got a directed input"
                ),
            }),
        }
    }

    /// The directed graph, or an error mentioning `algorithm`.
    pub fn expect_directed(&self, algorithm: &str) -> Result<&'a DiGraph> {
        match self {
            GraphInput::Directed(g) => Ok(g),
            GraphInput::Undirected(_) => Err(CoreError::InvalidParameter {
                message: format!(
                    "algorithm `{algorithm}` solves the directed 2-spanner problem; \
                     got an undirected input"
                ),
            }),
        }
    }
}

impl<'a> From<&'a Graph> for GraphInput<'a> {
    fn from(graph: &'a Graph) -> Self {
        GraphInput::Undirected(graph)
    }
}

impl<'a> From<&'a DiGraph> for GraphInput<'a> {
    fn from(graph: &'a DiGraph) -> Self {
        GraphInput::Directed(graph)
    }
}

/// An *owned* graph input: what a caller hands to the construction boundary
/// (`FtSpannerBuilder::on_graph` in the facade), as opposed to the borrowed
/// [`GraphInput`] the algorithms themselves consume.
///
/// Besides owned [`Graph`]/[`DiGraph`] instances, a source can be a
/// pre-packed CSR (skipping the adjacency-list graph entirely until the
/// boundary) or a seeded [`GeneratorSpec`] (nothing is materialized until
/// the build runs — the spec streams its edges straight into a CSR). The
/// boundary resolves every variant into a graph *plus a CSR packed exactly
/// once*, which serving artifacts adopt instead of re-packing.
///
/// `From` impls exist for all four payloads, so `impl Into<GraphSource>`
/// APIs accept any of them directly.
#[derive(Debug, Clone)]
pub enum GraphSource {
    /// An owned undirected instance.
    Undirected(Graph),
    /// An owned directed instance (2-spanner setting; no CSR involved).
    Directed(DiGraph),
    /// A pre-packed *full* CSR view (`edge_count == parent_edge_count`).
    /// Partial views are rejected at resolution: spanner edge sets refer to
    /// parent-graph edge identifiers the view could not speak for.
    Csr(CsrSubgraph),
    /// A seeded generator description; evaluated lazily at resolution.
    Generated(GeneratorSpec),
}

impl GraphSource {
    /// The family this source resolves to.
    pub fn family(&self) -> GraphFamily {
        match self {
            GraphSource::Directed(_) => GraphFamily::Directed,
            _ => GraphFamily::Undirected,
        }
    }

    /// Number of vertices the source will resolve to (available without
    /// evaluating generators).
    pub fn node_count(&self) -> usize {
        match self {
            GraphSource::Undirected(g) => g.node_count(),
            GraphSource::Directed(g) => g.node_count(),
            GraphSource::Csr(c) => c.node_count(),
            GraphSource::Generated(spec) => spec.node_count(),
        }
    }

    /// Resolves the source into concrete graph data, packing the
    /// undirected CSR exactly once.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for a partial CSR view or
    ///   inconsistent generator parameters.
    /// * [`CoreError::Graph`] if a CSR view cannot be reconstructed into a
    ///   simple graph (duplicate or missing edge identifiers).
    pub fn resolve(self) -> Result<ResolvedSource> {
        match self {
            GraphSource::Undirected(graph) => {
                let csr = CsrSubgraph::from_graph(&graph);
                Ok(ResolvedSource::Undirected { graph, csr })
            }
            GraphSource::Directed(graph) => Ok(ResolvedSource::Directed(graph)),
            GraphSource::Csr(csr) => {
                let graph = csr.to_graph().map_err(CoreError::Graph)?;
                Ok(ResolvedSource::Undirected { graph, csr })
            }
            GraphSource::Generated(spec) => {
                let (graph, csr) = spec.generate_with_csr().map_err(CoreError::Graph)?;
                Ok(ResolvedSource::Undirected { graph, csr })
            }
        }
    }
}

impl From<Graph> for GraphSource {
    fn from(graph: Graph) -> Self {
        GraphSource::Undirected(graph)
    }
}

impl From<DiGraph> for GraphSource {
    fn from(graph: DiGraph) -> Self {
        GraphSource::Directed(graph)
    }
}

impl From<CsrSubgraph> for GraphSource {
    fn from(csr: CsrSubgraph) -> Self {
        GraphSource::Csr(csr)
    }
}

impl From<GeneratorSpec> for GraphSource {
    fn from(spec: GeneratorSpec) -> Self {
        GraphSource::Generated(spec)
    }
}

/// A [`GraphSource`] after resolution: concrete graph data with the
/// undirected CSR packed once at the boundary.
#[derive(Debug, Clone)]
pub enum ResolvedSource {
    /// An undirected instance and its full CSR packing.
    Undirected {
        /// The adjacency-list graph the algorithms consume.
        graph: Graph,
        /// The same graph packed as a full CSR, ready for serving
        /// artifacts to adopt without re-packing.
        csr: CsrSubgraph,
    },
    /// A directed instance.
    Directed(DiGraph),
}

impl ResolvedSource {
    /// A borrowed [`GraphInput`] over the resolved data, as the
    /// [`FtSpannerAlgorithm`] trait expects.
    pub fn as_input(&self) -> GraphInput<'_> {
        match self {
            ResolvedSource::Undirected { graph, .. } => GraphInput::Undirected(graph),
            ResolvedSource::Directed(graph) => GraphInput::Directed(graph),
        }
    }
}

/// The unified parameter set understood by every [`FtSpannerAlgorithm`].
///
/// Every knob has a sensible default; algorithms ignore knobs that do not
/// apply to them (a conversion has no LP inflation constant, a 2-spanner has
/// no stretch knob — its stretch is 2 by definition) and document which ones
/// they read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpannerRequest {
    /// Number of faults `r` to tolerate (vertices or edges, per
    /// [`Self::fault_model`]). Default 1.
    pub faults: usize,
    /// Target stretch `k` for the conversion-family algorithms. Directed
    /// 2-spanner algorithms have stretch fixed at 2 and ignore this.
    /// Default 3.
    pub stretch: f64,
    /// Whether vertices or edges fail. Only the conversion-family algorithms
    /// support [`FaultModel::Edge`]. Algorithms whose model is fixed by
    /// construction ignore this knob (`edge-fault` always protects edges;
    /// vertex-only algorithms reject [`FaultModel::Edge`] requests) — the
    /// report's [`SpannerReport::fault_model`] is authoritative for what the
    /// output tolerates. Default [`FaultModel::Vertex`].
    pub fault_model: FaultModel,
    /// The black-box spanner construction used by the conversion-family
    /// algorithms. Default [`BlackBoxKind::Greedy`] (Corollary 2.2's choice).
    pub black_box: BlackBoxKind,
    /// Overrides the iteration count `α` (conversion family) when set.
    pub iterations: Option<usize>,
    /// Multiplier on the default iteration budget (conversion family).
    /// Default 1.0.
    pub scale: f64,
    /// Overrides the constant `C` in the LP rounding inflation (`α = C ln n`
    /// or `C ln Δ`) when set.
    pub alpha_constant: Option<f64>,
    /// Advisory maximum degree of the input; when set, bounded-degree
    /// algorithms validate the input against it.
    pub degree_bound: Option<usize>,
    /// Maximum cutting-plane rounds for LP-based algorithms. Default 50.
    pub max_cut_rounds: usize,
    /// Repetition count `t` of the distributed 2-spanner (Algorithm 2);
    /// `None` uses the paper's `⌈3 ln n⌉`.
    pub repetitions: Option<usize>,
    /// Batch size of the adaptive conversion; `None` picks `max(4, r²)`.
    pub batch: Option<usize>,
    /// Sample count for sampled verification batteries / sampled fault-set
    /// enumeration; `None` lets each algorithm pick its default (and keeps
    /// the CLPR09 baseline exhaustive).
    pub samples: Option<usize>,
    /// Whether LP-rounding algorithms repair any arc left uncovered, keeping
    /// the output always valid. Default `true`.
    pub repair: bool,
    /// Worker threads for the construction's parallel hot paths (per-fault-set
    /// iterations, verification sweeps, separation-oracle rounds). `None`
    /// uses one worker per available CPU; `Some(1)` runs sequentially.
    /// Results are **byte-identical at any worker count** — parallel tasks
    /// draw from derived per-task random streams and land in input order —
    /// so this knob only affects wall-clock time. Default `None`.
    pub threads: Option<usize>,
}

impl Default for SpannerRequest {
    fn default() -> Self {
        SpannerRequest {
            faults: 1,
            stretch: 3.0,
            fault_model: FaultModel::Vertex,
            black_box: BlackBoxKind::Greedy,
            iterations: None,
            scale: 1.0,
            alpha_constant: None,
            degree_bound: None,
            max_cut_rounds: 50,
            repetitions: None,
            batch: None,
            samples: None,
            repair: true,
            threads: None,
        }
    }
}

impl SpannerRequest {
    /// A request tolerating `faults` failures, all other knobs default.
    pub fn new(faults: usize) -> Self {
        SpannerRequest {
            faults,
            ..Self::default()
        }
    }

    /// Sets the target stretch `k`.
    ///
    /// # Panics
    ///
    /// Panics if `stretch < 1`.
    pub fn with_stretch(mut self, stretch: f64) -> Self {
        assert!(stretch >= 1.0, "stretch must be at least 1");
        self.stretch = stretch;
        self
    }

    /// Sets the fault model.
    pub fn with_fault_model(mut self, model: FaultModel) -> Self {
        self.fault_model = model;
        self
    }

    /// Sets the conversion black box.
    pub fn with_black_box(mut self, kind: BlackBoxKind) -> Self {
        self.black_box = kind;
        self
    }

    /// Overrides the iteration count `α`.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Scales the default iteration budget.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "iteration scale must be positive");
        self.scale = scale;
        self
    }

    /// Declares the input's maximum degree (validated by bounded-degree
    /// algorithms).
    pub fn with_degree_bound(mut self, delta: usize) -> Self {
        self.degree_bound = Some(delta);
        self
    }

    /// Sets the distributed 2-spanner repetition count `t`.
    pub fn with_repetitions(mut self, t: usize) -> Self {
        self.repetitions = Some(t.max(1));
        self
    }

    /// Sets the adaptive conversion's batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        self.batch = Some(batch);
        self
    }

    /// Sets the sample count for sampled verification / enumeration.
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = Some(samples);
        self
    }

    /// Sets the worker-thread count for parallel construction hot paths
    /// (clamped to at least 1; results are identical at any count).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The effective worker count: the configured value, or one worker per
    /// available CPU when unset.
    pub fn effective_threads(&self) -> usize {
        ftspan_graph::par::resolve_threads(self.threads)
    }
}

/// The edges selected by a construction, in the representation native to its
/// graph family.
#[derive(Debug, Clone, PartialEq)]
pub enum SpannerEdges {
    /// Edges of an undirected spanner.
    Undirected(EdgeSet),
    /// Arcs of a directed 2-spanner.
    Directed(ArcSet),
}

impl SpannerEdges {
    /// Number of selected edges/arcs.
    pub fn len(&self) -> usize {
        match self {
            SpannerEdges::Undirected(e) => e.len(),
            SpannerEdges::Directed(a) => a.len(),
        }
    }

    /// `true` if nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The undirected edge set, if this is an undirected result.
    pub fn as_undirected(&self) -> Option<&EdgeSet> {
        match self {
            SpannerEdges::Undirected(e) => Some(e),
            SpannerEdges::Directed(_) => None,
        }
    }

    /// The directed arc set, if this is a directed result.
    pub fn as_directed(&self) -> Option<&ArcSet> {
        match self {
            SpannerEdges::Directed(a) => Some(a),
            SpannerEdges::Undirected(_) => None,
        }
    }
}

/// The unified output of every [`FtSpannerAlgorithm`].
///
/// Mandatory fields are filled by every algorithm; the optional ones carry
/// whichever diagnostics the construction naturally produces (LP lower
/// bounds, LOCAL-model round counts, resampling counts, …) so experiment
/// harnesses can report algorithms side by side without downcasting.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannerReport {
    /// Registry name of the algorithm that produced this report.
    pub algorithm: String,
    /// Human-readable provenance, e.g.
    /// `"Theorem 2.1 conversion over greedy (k = 3, r = 2)"`.
    pub provenance: String,
    /// The fault model the output tolerates.
    pub fault_model: FaultModel,
    /// The number of faults `r` the output tolerates.
    pub faults: usize,
    /// The stretch guarantee of the output.
    pub stretch: f64,
    /// The selected edges.
    pub edges: SpannerEdges,
    /// Total weight (undirected) or cost (directed) of the selection.
    pub cost: f64,
    /// Iterations / repetitions the construction ran.
    pub iterations: usize,
    /// Per-iteration statistics where the construction is iterative.
    pub per_iteration: Vec<IterationStats>,
    /// Wall-clock time of the construction.
    pub elapsed: Duration,
    /// LP relaxation optimum (a lower bound on OPT), for LP-based algorithms.
    pub lp_objective: Option<f64>,
    /// The rounding inflation `α` that was used, for LP-based algorithms.
    pub alpha: Option<f64>,
    /// Arcs added by a repair step (0 when rounding succeeded outright).
    pub repaired_arcs: usize,
    /// Moser–Tardos resampling steps (bounded-degree algorithm only).
    pub resamples: Option<usize>,
    /// Knapsack-cover cutting planes added (LP-based algorithms only).
    pub cuts_added: Option<usize>,
    /// LOCAL-model communication rounds (distributed algorithms only).
    pub rounds: Option<usize>,
    /// LOCAL-model messages delivered (distributed algorithms only).
    pub messages: Option<usize>,
    /// Whether a built-in verification battery passed (adaptive conversion).
    pub verified: Option<bool>,
    /// The worst-case iteration budget of the underlying theorem, where the
    /// construction may stop early (adaptive conversion).
    pub theorem_iterations: Option<usize>,
}

impl SpannerReport {
    /// A report skeleton with the mandatory fields set and every optional
    /// diagnostic empty; constructions fill in what they measured.
    pub fn new(
        algorithm: &str,
        provenance: String,
        fault_model: FaultModel,
        faults: usize,
        stretch: f64,
        edges: SpannerEdges,
        cost: f64,
    ) -> Self {
        SpannerReport {
            algorithm: algorithm.to_string(),
            provenance,
            fault_model,
            faults,
            stretch,
            edges,
            cost,
            iterations: 0,
            per_iteration: Vec::new(),
            elapsed: Duration::ZERO,
            lp_objective: None,
            alpha: None,
            repaired_arcs: 0,
            resamples: None,
            cuts_added: None,
            rounds: None,
            messages: None,
            verified: None,
            theorem_iterations: None,
        }
    }

    /// Number of selected edges/arcs.
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// The undirected edge set (`None` for directed results).
    pub fn edge_set(&self) -> Option<&EdgeSet> {
        self.edges.as_undirected()
    }

    /// The directed arc set (`None` for undirected results).
    pub fn arc_set(&self) -> Option<&ArcSet> {
        self.edges.as_directed()
    }

    /// Realized cost over the LP lower bound (`1.0` when both are zero,
    /// `None` when the algorithm produced no LP bound).
    pub fn ratio_vs_lp(&self) -> Option<f64> {
        let lp = self.lp_objective?;
        Some(if lp <= f64::EPSILON {
            if self.cost <= f64::EPSILON {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.cost / lp
        })
    }

    /// Mean vertices surviving the oversampling per iteration (conversion
    /// family; `0.0` when no per-iteration statistics were recorded).
    pub fn mean_surviving_vertices(&self) -> f64 {
        if self.per_iteration.is_empty() {
            return 0.0;
        }
        self.per_iteration
            .iter()
            .map(|s| s.surviving_vertices as f64)
            .sum::<f64>()
            / self.per_iteration.len() as f64
    }

    /// Mean edges surviving the oversampling per iteration (edge-fault
    /// conversion; `0.0` when no per-iteration statistics were recorded).
    pub fn mean_surviving_edges(&self) -> f64 {
        if self.per_iteration.is_empty() {
            return 0.0;
        }
        self.per_iteration
            .iter()
            .map(|s| s.surviving_edges as f64)
            .sum::<f64>()
            / self.per_iteration.len() as f64
    }

    /// Fraction of the theorem's iteration budget actually used (`1.0` for
    /// non-adaptive constructions).
    pub fn budget_fraction(&self) -> f64 {
        match self.theorem_iterations {
            Some(0) | None => 1.0,
            Some(budget) => self.iterations as f64 / budget as f64,
        }
    }
}

/// A fault-tolerant spanner construction behind the uniform interface.
///
/// Implementations are stateless descriptors (the per-call parameters all
/// live in the [`SpannerRequest`]), so a single registry instance can serve
/// any number of builds, including concurrently.
pub trait FtSpannerAlgorithm: Send + Sync {
    /// The stable registry key, e.g. `"conversion"` or `"two-spanner-lp"`.
    fn name(&self) -> &'static str;

    /// The paper result this construction implements, e.g. `"Theorem 2.1"`.
    fn reference(&self) -> &'static str;

    /// One-line human description for listings.
    fn summary(&self) -> &'static str;

    /// The graph family this construction consumes.
    fn graph_family(&self) -> GraphFamily;

    /// The fault model of the *output* for the given request (conversion-family
    /// algorithms honor [`SpannerRequest::fault_model`]; everything else is
    /// vertex-fault only).
    fn fault_model(&self, request: &SpannerRequest) -> FaultModel {
        let _ = request;
        FaultModel::Vertex
    }

    /// The stretch the output guarantees for `request` (2-spanner algorithms
    /// return 2 regardless of [`SpannerRequest::stretch`]).
    fn guaranteed_stretch(&self, request: &SpannerRequest) -> f64 {
        request.stretch
    }

    /// Validates that this construction can serve `request` (independent of
    /// any concrete input graph). [`Self::build`] performs the same check.
    fn supports(&self, request: &SpannerRequest) -> Result<()> {
        let _ = request;
        Ok(())
    }

    /// Builds the fault-tolerant spanner.
    fn build(
        &self,
        input: GraphInput<'_>,
        request: &SpannerRequest,
        rng: &mut dyn RngCore,
    ) -> Result<SpannerReport>;
}

/// A string-keyed collection of [`FtSpannerAlgorithm`]s.
///
/// The facade crate's `registry()` returns the full set (centralized and
/// distributed); `ftspan-core` exposes only the centralized ones via
/// [`crate::algorithms::core_algorithms`].
pub struct Registry {
    entries: Vec<Box<dyn FtSpannerAlgorithm>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }

    /// Builds a registry from the given algorithms.
    ///
    /// # Panics
    ///
    /// Panics if two algorithms share a name.
    pub fn from_algorithms(entries: Vec<Box<dyn FtSpannerAlgorithm>>) -> Self {
        let mut registry = Registry::new();
        for entry in entries {
            registry.register(entry);
        }
        registry
    }

    /// Adds an algorithm.
    ///
    /// # Panics
    ///
    /// Panics if an algorithm with the same name is already registered.
    pub fn register(&mut self, algorithm: Box<dyn FtSpannerAlgorithm>) {
        assert!(
            self.get(algorithm.name()).is_none(),
            "duplicate registry entry `{}`",
            algorithm.name()
        );
        self.entries.push(algorithm);
    }

    /// Looks an algorithm up by name.
    pub fn get(&self, name: &str) -> Option<&dyn FtSpannerAlgorithm> {
        self.entries
            .iter()
            .find(|a| a.name() == name)
            .map(|a| a.as_ref())
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|a| a.name()).collect()
    }

    /// Iterates over the registered algorithms.
    pub fn iter(&self) -> impl Iterator<Item = &dyn FtSpannerAlgorithm> {
        self.entries.iter().map(|a| a.as_ref())
    }

    /// Number of registered algorithms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no algorithm is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders_compose() {
        let request = SpannerRequest::new(2)
            .with_stretch(5.0)
            .with_fault_model(FaultModel::Edge)
            .with_black_box(BlackBoxKind::BaswanaSen)
            .with_scale(0.5)
            .with_iterations(40)
            .with_samples(10);
        assert_eq!(request.faults, 2);
        assert_eq!(request.stretch, 5.0);
        assert_eq!(request.fault_model, FaultModel::Edge);
        assert_eq!(request.black_box, BlackBoxKind::BaswanaSen);
        assert_eq!(request.scale, 0.5);
        assert_eq!(request.iterations, Some(40));
        assert_eq!(request.samples, Some(10));
    }

    #[test]
    #[should_panic]
    fn zero_scale_rejected() {
        SpannerRequest::new(1).with_scale(0.0);
    }

    #[test]
    fn graph_input_family_dispatch() {
        let g = Graph::new(3);
        let dg = DiGraph::new(3);
        let ug = GraphInput::from(&g);
        let dig = GraphInput::from(&dg);
        assert_eq!(ug.family(), GraphFamily::Undirected);
        assert_eq!(dig.family(), GraphFamily::Directed);
        assert!(ug.expect_undirected("x").is_ok());
        assert!(ug.expect_directed("x").is_err());
        assert!(dig.expect_directed("x").is_ok());
        assert!(dig.expect_undirected("x").is_err());
        assert_eq!(ug.node_count(), 3);
    }

    #[test]
    fn report_ratio_and_budget_edge_cases() {
        let g = Graph::new(2);
        let mut report = SpannerReport::new(
            "test",
            "test".to_string(),
            FaultModel::Vertex,
            1,
            3.0,
            SpannerEdges::Undirected(g.empty_edge_set()),
            0.0,
        );
        assert_eq!(report.ratio_vs_lp(), None);
        report.lp_objective = Some(0.0);
        assert_eq!(report.ratio_vs_lp(), Some(1.0));
        report.cost = 2.0;
        assert_eq!(report.ratio_vs_lp(), Some(f64::INFINITY));
        assert_eq!(report.budget_fraction(), 1.0);
        report.iterations = 5;
        report.theorem_iterations = Some(20);
        assert_eq!(report.budget_fraction(), 0.25);
        assert_eq!(report.mean_surviving_vertices(), 0.0);
        assert!(report.edge_set().is_some());
        assert!(report.arc_set().is_none());
        assert!(report.edges.is_empty());
    }
}

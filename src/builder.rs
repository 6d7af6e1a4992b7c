//! The fluent entry point: [`FtSpannerBuilder`].

use crate::registry::registry;
use ftspan_core::serve::FtSpanner;
use ftspan_core::{
    BuildRecipe, CoreError, GraphInput, GraphSource, Result, SpannerReport, SpannerRequest,
};
use ftspan_graph::{DiGraph, Graph};
use ftspan_spanners::BlackBoxKind;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Fluent builder over the algorithm [`registry`]: pick a construction by
/// name, set the unified [`SpannerRequest`] knobs, and build on an undirected
/// or directed graph.
///
/// Randomized constructions draw from a deterministic generator seeded by
/// [`FtSpannerBuilder::seed`] (default `2011`, the paper's year), so repeated
/// builds with the same configuration reproduce; pass your own generator via
/// [`FtSpannerBuilder::build_with_rng`] to share randomness with surrounding
/// code.
///
/// # Example
///
/// ```
/// use fault_tolerant_spanners::prelude::*;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let network = generate::gnp(30, 0.3, generate::WeightKind::Unit, &mut rng);
/// // A 3-spanner that survives any single node failure (Theorem 2.1).
/// let report = FtSpannerBuilder::new("conversion")
///     .faults(1)
///     .stretch(3.0)
///     .build(&network)
///     .unwrap();
/// assert!(verify::is_fault_tolerant_k_spanner(
///     &network,
///     report.edge_set().unwrap(),
///     report.stretch,
///     report.faults,
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct FtSpannerBuilder {
    algorithm: String,
    request: SpannerRequest,
    seed: u64,
}

impl FtSpannerBuilder {
    /// A builder for the named algorithm (a key of [`registry`]) with every
    /// knob at its default. The name is validated at build time so builders
    /// can be configured before the registry is consulted.
    pub fn new(algorithm: &str) -> Self {
        FtSpannerBuilder {
            algorithm: algorithm.to_string(),
            request: SpannerRequest::default(),
            seed: 2011,
        }
    }

    /// Switches to a different algorithm, keeping the configured knobs.
    pub fn algorithm(mut self, name: &str) -> Self {
        self.algorithm = name.to_string();
        self
    }

    /// Number of faults `r` to tolerate.
    pub fn faults(mut self, faults: usize) -> Self {
        self.request.faults = faults;
        self
    }

    /// Target stretch `k` (conversion-family algorithms).
    ///
    /// # Panics
    ///
    /// Panics if `stretch < 1`.
    pub fn stretch(mut self, stretch: f64) -> Self {
        self.request = self.request.with_stretch(stretch);
        self
    }

    /// Protect against vertex failures (the default).
    pub fn vertex_faults(mut self) -> Self {
        self.request.fault_model = ftspan_core::FaultModel::Vertex;
        self
    }

    /// Protect against edge failures (conversion-family algorithms only).
    pub fn edge_faults(mut self) -> Self {
        self.request.fault_model = ftspan_core::FaultModel::Edge;
        self
    }

    /// The black-box spanner used by conversion-family algorithms.
    pub fn black_box(mut self, kind: BlackBoxKind) -> Self {
        self.request.black_box = kind;
        self
    }

    /// Overrides the iteration count `α`.
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.request = self.request.with_iterations(iterations);
        self
    }

    /// Scales the default iteration budget.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn scale(mut self, scale: f64) -> Self {
        self.request = self.request.with_scale(scale);
        self
    }

    /// Declares the input's maximum degree (checked by bounded-degree
    /// algorithms).
    pub fn degree_bound(mut self, delta: usize) -> Self {
        self.request = self.request.with_degree_bound(delta);
        self
    }

    /// Repetition count `t` of the distributed 2-spanner.
    pub fn repetitions(mut self, t: usize) -> Self {
        self.request = self.request.with_repetitions(t);
        self
    }

    /// Batch size of the adaptive conversion.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn batch(mut self, batch: usize) -> Self {
        self.request = self.request.with_batch(batch);
        self
    }

    /// Sample count for sampled verification / fault-set enumeration.
    pub fn samples(mut self, samples: usize) -> Self {
        self.request = self.request.with_samples(samples);
        self
    }

    /// Worker threads for the construction's parallel hot paths (per-fault-set
    /// iterations, verification sweeps, separation-oracle rounds). The default
    /// is one worker per available CPU; `threads(1)` runs sequentially.
    /// Results are byte-identical at any worker count, so this knob only
    /// affects wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.request = self.request.with_threads(threads);
        self
    }

    /// Seed of the builder-owned deterministic generator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds on an undirected graph with the builder-owned generator.
    pub fn build(&self, graph: &Graph) -> Result<SpannerReport> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        self.build_with_rng(GraphInput::from(graph), &mut rng)
    }

    /// Builds on any owned [`GraphSource`] — an owned [`Graph`] or
    /// [`DiGraph`], a pre-packed full CSR, or a seeded
    /// [`GeneratorSpec`](ftspan_graph::stream::GeneratorSpec) — resolving
    /// the source at the boundary (generators are evaluated here, streaming
    /// straight into CSR form; nothing is generated before this call).
    ///
    /// This is the scale-out entry point: at `n = 10^5..10^6` a generator
    /// spec skips the per-edge sorted-insertion build entirely, and
    /// [`FtSpannerBuilder::artifact_on_graph`] additionally reuses the
    /// boundary CSR for serving instead of re-packing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FtSpannerBuilder::build`], plus resolution
    /// errors (partial CSR views, inconsistent generator parameters).
    ///
    /// # Example
    ///
    /// ```
    /// use fault_tolerant_spanners::prelude::*;
    /// use fault_tolerant_spanners::graph::stream::GeneratorSpec;
    ///
    /// let spec = GeneratorSpec::Gnm {
    ///     nodes: 200,
    ///     edges: 900,
    ///     weights: generate::WeightKind::Unit,
    ///     seed: 11,
    /// };
    /// let report = FtSpannerBuilder::new("conversion")
    ///     .faults(1)
    ///     .on_graph(spec)
    ///     .unwrap();
    /// assert!(report.size() <= 900);
    /// ```
    pub fn on_graph(&self, source: impl Into<GraphSource>) -> Result<SpannerReport> {
        let resolved = source.into().resolve()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        self.build_with_rng(resolved.as_input(), &mut rng)
    }

    /// Like [`FtSpannerBuilder::on_graph`], but promotes the report to a
    /// queryable [`FtSpanner`] artifact. The graph and the CSR packed when
    /// the source was resolved are moved into the artifact — the source
    /// graph is packed exactly once end to end and never copied.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FtSpannerBuilder::on_graph`], plus an error if
    /// the selected algorithm produces directed plans (they cannot serve
    /// distance queries).
    pub fn artifact_on_graph(&self, source: impl Into<GraphSource>) -> Result<FtSpanner> {
        let resolved = source.into().resolve()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut report = self.build_with_rng(resolved.as_input(), &mut rng)?;
        report.provenance = self.recipe().tagged_provenance(&report.provenance);
        FtSpanner::from_resolved(resolved, &report)
    }

    /// Builds on a directed graph with the builder-owned generator.
    pub fn build_directed(&self, graph: &DiGraph) -> Result<SpannerReport> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        self.build_with_rng(GraphInput::from(graph), &mut rng)
    }

    /// Builds on an undirected graph and promotes the report to a queryable
    /// [`FtSpanner`] artifact (CSR-packed, with the declared guarantee),
    /// ready for [`FtSpanner::under_faults`] sessions or registration in an
    /// [`Engine`](crate::Engine).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FtSpannerBuilder::build`], plus an error if the
    /// selected algorithm produces directed plans.
    ///
    /// # Example
    ///
    /// ```
    /// use fault_tolerant_spanners::prelude::*;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    /// let network = generate::connected_gnp(24, 0.3, generate::WeightKind::Unit, &mut rng);
    /// let artifact = FtSpannerBuilder::new("conversion")
    ///     .faults(1)
    ///     .build_artifact(&network)
    ///     .unwrap();
    /// let session = artifact.under_faults(&[NodeId::new(5)]).unwrap();
    /// let cert = session.stretch_certificate(NodeId::new(0), NodeId::new(9)).unwrap();
    /// assert!(cert.holds());
    /// ```
    pub fn build_artifact(&self, graph: &Graph) -> Result<FtSpanner> {
        let mut report = self.build(graph)?;
        report.provenance = self.recipe().tagged_provenance(&report.provenance);
        FtSpanner::from_report(graph, &report)
    }

    /// The [`BuildRecipe`] this builder's seeded artifact constructors run:
    /// algorithm, knobs, and root seed. [`FtSpannerBuilder::build_artifact`]
    /// and [`FtSpannerBuilder::artifact_on_graph`] append its
    /// [tag](BuildRecipe::provenance_tag) to the artifact provenance, which
    /// is what lets `ftspan_serve --dynamic` rebuild a stored artifact
    /// bit-identically instead of guessing defaults.
    pub fn recipe(&self) -> BuildRecipe {
        BuildRecipe::new(&self.algorithm, self.request, self.seed)
    }

    /// Like [`FtSpannerBuilder::build_artifact`] with a caller-supplied
    /// generator. The artifact provenance carries **no** recipe tag: with
    /// external randomness there is no seed a recipe could reproduce the
    /// build from.
    pub fn build_artifact_with_rng(
        &self,
        graph: &Graph,
        rng: &mut dyn RngCore,
    ) -> Result<FtSpanner> {
        let report = self.build_with_rng(GraphInput::from(graph), rng)?;
        FtSpanner::from_report(graph, &report)
    }

    /// Builds on either graph family with a caller-supplied generator.
    pub fn build_with_rng(
        &self,
        input: GraphInput<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<SpannerReport> {
        let registry = registry();
        let algorithm =
            registry
                .get(&self.algorithm)
                .ok_or_else(|| CoreError::InvalidParameter {
                    message: format!(
                        "unknown algorithm `{}`; registered: {}",
                        self.algorithm,
                        registry.names().join(", ")
                    ),
                })?;
        algorithm.build(input, &self.request, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generate, verify};

    #[test]
    fn builder_runs_centralized_and_distributed_algorithms() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generate::gnp(16, 0.5, generate::WeightKind::Unit, &mut rng);
        let dg = generate::directed_gnp(8, 0.5, generate::WeightKind::Unit, &mut rng);

        let conversion = FtSpannerBuilder::new("conversion")
            .faults(1)
            .build(&g)
            .unwrap();
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            conversion.edge_set().unwrap(),
            conversion.stretch,
            1
        ));

        let lp = FtSpannerBuilder::new("two-spanner-lp")
            .faults(1)
            .build_directed(&dg)
            .unwrap();
        assert!(verify::is_ft_two_spanner(&dg, lp.arc_set().unwrap(), 1));

        let distributed = FtSpannerBuilder::new("distributed-two-spanner")
            .faults(1)
            .repetitions(3)
            .build_directed(&dg)
            .unwrap();
        assert!(verify::is_ft_two_spanner(
            &dg,
            distributed.arc_set().unwrap(),
            1
        ));
        assert!(distributed.rounds.unwrap() > 0);
    }

    #[test]
    fn unknown_algorithm_lists_the_registry() {
        let g = Graph::new(4);
        let err = FtSpannerBuilder::new("nope").build(&g).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("unknown algorithm `nope`"));
        assert!(message.contains("conversion"));
        assert!(message.contains("distributed-two-spanner"));
    }

    #[test]
    fn same_seed_reproduces_same_spanner() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generate::gnp(14, 0.5, generate::WeightKind::Unit, &mut rng);
        let builder = FtSpannerBuilder::new("corollary-2.2").faults(1).seed(77);
        let a = builder.build(&g).unwrap();
        let b = builder.build(&g).unwrap();
        assert_eq!(a.edges, b.edges);
        let c = builder.clone().seed(78).build(&g).unwrap();
        // Different seed almost surely differs on a non-trivial instance.
        assert!(a.edges != c.edges || a.size() == g.edge_count());
    }

    #[test]
    fn on_graph_accepts_every_source_form() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = generate::gnp(18, 0.4, generate::WeightKind::Unit, &mut rng);
        let builder = FtSpannerBuilder::new("conversion").faults(1);
        let by_ref = builder.build(&g).unwrap();
        // Owned graph, pre-packed CSR: identical reports (same seed, same
        // resolved graph).
        let by_owned = builder.on_graph(g.clone()).unwrap();
        assert_eq!(by_ref.edges, by_owned.edges);
        let csr = ftspan_graph::csr::CsrSubgraph::from_graph(&g);
        let by_csr = builder.on_graph(csr).unwrap();
        assert_eq!(by_ref.edges, by_csr.edges);
        // Generator spec: reproducible, and the artifact path adopts the
        // boundary CSR.
        let spec = ftspan_graph::stream::GeneratorSpec::Gnm {
            nodes: 60,
            edges: 240,
            weights: generate::WeightKind::Unit,
            seed: 4,
        };
        let a = builder.artifact_on_graph(spec).unwrap();
        let b = builder.artifact_on_graph(spec).unwrap();
        assert_eq!(a.spanner_edges(), b.spanner_edges());
        assert_eq!(a.node_count(), 60);
        assert_eq!(a.source_edge_count(), 240);
        // Directed owned input flows through the same entry point.
        let dg = generate::directed_gnp(8, 0.5, generate::WeightKind::Unit, &mut rng);
        let lp = FtSpannerBuilder::new("two-spanner-lp").faults(1);
        assert_eq!(
            lp.build_directed(&dg).unwrap().edges,
            lp.on_graph(dg.clone()).unwrap().edges
        );
        // ...but cannot become a distance-serving artifact.
        assert!(lp.artifact_on_graph(dg).is_err());
    }

    #[test]
    fn edge_fault_knob_reaches_the_conversion() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generate::gnp(14, 0.5, generate::WeightKind::Unit, &mut rng);
        let report = FtSpannerBuilder::new("conversion")
            .faults(1)
            .edge_faults()
            .build(&g)
            .unwrap();
        assert_eq!(report.fault_model, ftspan_core::FaultModel::Edge);
        assert!(verify::is_edge_fault_tolerant_k_spanner(
            &g,
            report.edge_set().unwrap(),
            report.stretch,
            1
        ));
    }
}

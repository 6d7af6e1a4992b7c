//! The [`SpannerAlgorithm`] trait: the black box consumed by the conversion
//! theorem.

use ftspan_graph::{EdgeSet, Graph};
use rand::RngCore;

/// A `k`-spanner construction.
///
/// Implementations build, for any input graph, a subgraph (given as an
/// [`EdgeSet`] over the input's edges) that is a `k`-spanner of the input for
/// the stretch reported by [`SpannerAlgorithm::stretch`].
///
/// The conversion theorem of the paper (Theorem 2.1, implemented in
/// `ftspan-core::conversion`) accepts any type implementing this trait, runs
/// it on `O(r³ log n)` random vertex-induced subgraphs, and unions the
/// results into an `r`-fault-tolerant `k`-spanner. It never materializes
/// those subgraphs: each run is [`SpannerAlgorithm::build_masked`] on the
/// parent graph with the dead edges masked out.
///
/// Deterministic algorithms simply ignore the random source.
///
/// Implementations must be [`Sync`]: the conversion constructions in
/// `ftspan-core` share one black-box instance across their worker threads
/// (each iteration carries its own derived random stream, so the shared state
/// is read-only).
pub trait SpannerAlgorithm: Sync {
    /// Short human-readable name for reporting ("greedy", "baswana-sen", …).
    fn name(&self) -> &str;

    /// The stretch `k` this construction guarantees.
    fn stretch(&self) -> f64;

    /// Builds a spanner of the subgraph of `graph` made of the edges `e`
    /// with `live[e.index()]` (all vertices kept), returning the selected
    /// edges over `graph`'s edge ids.
    ///
    /// The mask contract: `live` has one entry per edge of `graph`, and the
    /// result — edges *and* the draws taken from `rng` — is exactly what
    /// [`SpannerAlgorithm::build`] returns on the materialized subgraph
    /// (the live edges added in edge-id order, on the same vertex set),
    /// with each of its edge ids mapped back to the parent's. Kernels meet
    /// it by skipping dead edges wherever they read adjacency: a graph's
    /// adjacency lists are sorted by neighbor, so the parent's, filtered,
    /// equal the subgraph's, and the id map preserves edge order.
    ///
    /// # Panics
    ///
    /// May panic if `live.len() != graph.edge_count()`.
    fn build_masked(&self, graph: &Graph, live: &[bool], rng: &mut dyn RngCore) -> EdgeSet;

    /// Builds a spanner of `graph`, returning the selected edges: a
    /// [`SpannerAlgorithm::build_masked`] with every edge live.
    ///
    /// The result must be a `self.stretch()`-spanner of `graph`; randomized
    /// constructions may use `rng`.
    fn build(&self, graph: &Graph, rng: &mut dyn RngCore) -> EdgeSet {
        self.build_masked(graph, &vec![true; graph.edge_count()], rng)
    }

    /// The size guarantee `f(n)` of this construction: an upper bound on the
    /// number of edges produced on any `n`-vertex graph (up to the constant
    /// documented by the implementation).
    ///
    /// Used by the experiments to plot measured sizes against the bound the
    /// conversion theorem predicts.
    fn size_bound(&self, n: usize) -> f64;
}

/// Summary statistics about a constructed spanner, collected by experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpannerStats {
    /// Number of vertices of the input graph.
    pub nodes: usize,
    /// Number of edges of the input graph.
    pub input_edges: usize,
    /// Number of edges selected by the construction.
    pub spanner_edges: usize,
    /// Total weight of the selected edges.
    pub spanner_weight: f64,
    /// The stretch bound the construction guarantees.
    pub stretch: f64,
}

impl SpannerStats {
    /// Gathers statistics for `spanner` built on `graph` with stretch `k`.
    ///
    /// # Panics
    ///
    /// Panics if `spanner` was built for a different graph.
    pub fn collect(graph: &Graph, spanner: &EdgeSet, stretch: f64) -> Self {
        let weight = graph
            .edge_set_weight(spanner)
            .expect("spanner must belong to the graph");
        SpannerStats {
            nodes: graph.node_count(),
            input_edges: graph.edge_count(),
            spanner_edges: spanner.len(),
            spanner_weight: weight,
            stretch,
        }
    }

    /// Fraction of input edges kept by the spanner (1.0 for an empty input).
    pub fn compression_ratio(&self) -> f64 {
        if self.input_edges == 0 {
            1.0
        } else {
            self.spanner_edges as f64 / self.input_edges as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generate, EdgeId};

    struct KeepAll;

    impl SpannerAlgorithm for KeepAll {
        fn name(&self) -> &str {
            "keep-all"
        }
        fn stretch(&self) -> f64 {
            1.0
        }
        fn build_masked(&self, graph: &Graph, live: &[bool], _rng: &mut dyn RngCore) -> EdgeSet {
            let mut kept = graph.empty_edge_set();
            kept.extend((0..live.len()).filter(|&e| live[e]).map(EdgeId::new));
            kept
        }
        fn size_bound(&self, n: usize) -> f64 {
            (n * n) as f64
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let alg: Box<dyn SpannerAlgorithm> = Box::new(KeepAll);
        assert_eq!(alg.name(), "keep-all");
        assert_eq!(alg.stretch(), 1.0);
        assert!(alg.size_bound(10) >= 100.0);
    }

    #[test]
    fn stats_collection() {
        let g = generate::complete(5);
        let full = g.full_edge_set();
        let stats = SpannerStats::collect(&g, &full, 1.0);
        assert_eq!(stats.nodes, 5);
        assert_eq!(stats.input_edges, 10);
        assert_eq!(stats.spanner_edges, 10);
        assert_eq!(stats.spanner_weight, 10.0);
        assert_eq!(stats.compression_ratio(), 1.0);

        let empty = g.empty_edge_set();
        let stats2 = SpannerStats::collect(&g, &empty, 3.0);
        assert_eq!(stats2.compression_ratio(), 0.0);
    }

    #[test]
    fn compression_ratio_of_empty_graph_is_one() {
        let g = Graph::new(3);
        let stats = SpannerStats::collect(&g, &g.full_edge_set(), 3.0);
        assert_eq!(stats.compression_ratio(), 1.0);
    }
}

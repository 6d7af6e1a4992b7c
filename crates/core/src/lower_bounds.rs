//! Combinatorial lower bounds on the size and cost of fault-tolerant
//! spanners.
//!
//! The paper's open-question section asks for lower bounds on the size of
//! `r`-fault-tolerant spanners beyond those that already hold at `r = 0`.
//! The bounds here are the folklore degree bounds, which *do* grow with `r`
//! and are the natural yardstick the experiments report alongside measured
//! sizes:
//!
//! * **Vertex version.** Any `r`-fault-tolerant spanner (for any finite
//!   stretch) must keep at least `min(deg_G(v), r + 1)` edges incident to
//!   every vertex `v`: otherwise failing `v`'s (at most `r`) spanner
//!   neighbors leaves `v` isolated in the spanner while it still has a live
//!   neighbor in `G`. Summing and halving gives
//!   [`vertex_fault_size_lower_bound`].
//! * **Directed version.** In the minimum-cost 2-spanner setting of
//!   Section 3, every vertex must keep its `min(outdeg, r + 1)` cheapest
//!   outgoing arcs' worth of cost (and symmetrically for incoming arcs),
//!   giving [`directed_cost_lower_bound`].
//!
//! Both bounds also certify optimality of the trivial solution on extreme
//! instances (e.g. on `K_n` with `r ≥ n − 2` every edge is forced), which is
//! how the integrality-gap experiment anchors its "integral optimum" column.

use ftspan_graph::{DiGraph, Graph};

/// Lower bound on the number of edges of any `r`-fault-tolerant spanner of
/// `graph` with any finite stretch bound:
/// `⌈ Σ_v min(deg_G(v), r + 1) / 2 ⌉`.
///
/// # Example
///
/// ```
/// use ftspan_core::lower_bounds::vertex_fault_size_lower_bound;
/// use ftspan_graph::generate;
///
/// let g = generate::complete(10);
/// // Every vertex needs r + 1 = 3 incident edges.
/// assert_eq!(vertex_fault_size_lower_bound(&g, 2), 15);
/// // With r >= n - 2 every edge of K_n is forced.
/// assert_eq!(vertex_fault_size_lower_bound(&g, 8), 45);
/// ```
pub fn vertex_fault_size_lower_bound(graph: &Graph, r: usize) -> usize {
    let total: usize = graph.nodes().map(|v| graph.degree(v).min(r + 1)).sum();
    total.div_ceil(2)
}

/// Lower bound on the number of edges of any `r`-*edge*-fault-tolerant
/// spanner of `graph` with any finite stretch bound.
///
/// The argument is the same as the vertex version: a vertex with fewer than
/// `min(deg_G(v), r + 1)` incident spanner edges can be cut off from a still
/// live neighbor by failing only its spanner edges.
pub fn edge_fault_size_lower_bound(graph: &Graph, r: usize) -> usize {
    vertex_fault_size_lower_bound(graph, r)
}

/// Lower bound on the cost of any `r`-fault-tolerant 2-spanner of the
/// directed cost graph `graph` (the Section 3 problem).
///
/// For every vertex the spanner must keep at least `min(outdeg_G(v), r + 1)`
/// outgoing arcs, so its cost is at least the sum over vertices of the
/// cheapest that many outgoing arcs; symmetrically for incoming arcs. The
/// bound returned is the larger of the two sums (each is individually valid
/// because the arc sets counted are disjoint across vertices).
pub fn directed_cost_lower_bound(graph: &DiGraph, r: usize) -> f64 {
    let keep = r + 1;
    let mut out_total = 0.0;
    let mut in_total = 0.0;
    for v in graph.nodes() {
        let mut out_costs: Vec<f64> = graph
            .out_incident(v)
            .map(|(_, a)| graph.arc(a).cost)
            .collect();
        out_costs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        out_total += out_costs.iter().take(keep).sum::<f64>();

        let mut in_costs: Vec<f64> = graph
            .in_incident(v)
            .map(|(_, a)| graph.arc(a).cost)
            .collect();
        in_costs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        in_total += in_costs.iter().take(keep).sum::<f64>();
    }
    out_total.max(in_total)
}

/// Lower bound on the number of arcs of any `r`-fault-tolerant 2-spanner of
/// a directed graph, ignoring costs:
/// `max( Σ_v min(outdeg, r+1), Σ_v min(indeg, r+1) )`.
pub fn directed_size_lower_bound(graph: &DiGraph, r: usize) -> usize {
    let keep = r + 1;
    let out: usize = graph.nodes().map(|v| graph.out_degree(v).min(keep)).sum();
    let inn: usize = graph.nodes().map(|v| graph.in_degree(v).min(keep)).sum();
    out.max(inn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conversion::{ConversionParams, FaultTolerantConverter};
    use ftspan_graph::{generate, verify, NodeId};
    use ftspan_spanners::GreedySpanner;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn complete_graph_bound_matches_hand_computation() {
        let g = generate::complete(8);
        // r = 0: every vertex needs one incident edge -> at least 4 edges.
        assert_eq!(vertex_fault_size_lower_bound(&g, 0), 4);
        // r = 3: 8 * 4 / 2 = 16.
        assert_eq!(vertex_fault_size_lower_bound(&g, 3), 16);
        // Saturation at the full degree.
        assert_eq!(vertex_fault_size_lower_bound(&g, 100), 28);
        assert_eq!(edge_fault_size_lower_bound(&g, 3), 16);
    }

    #[test]
    fn bound_saturates_at_the_input_size_shape() {
        let g = generate::path(10);
        // Interior vertices have degree 2, ends degree 1; for any r >= 1 the
        // bound is (2*8 + 2) / 2 = 9 = all edges.
        assert_eq!(vertex_fault_size_lower_bound(&g, 1), 9);
        assert_eq!(vertex_fault_size_lower_bound(&g, 0), 5);
    }

    #[test]
    fn bound_is_monotone_in_r() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = generate::gnp(30, 0.3, generate::WeightKind::Unit, &mut rng);
        let mut prev = 0;
        for r in 0..6 {
            let b = vertex_fault_size_lower_bound(&g, r);
            assert!(b >= prev);
            assert!(b <= g.edge_count());
            prev = b;
        }
    }

    #[test]
    fn every_verified_ft_spanner_respects_the_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let g = generate::gnp(16, 0.6, generate::WeightKind::Unit, &mut rng);
        for r in 0..3usize {
            let result = FaultTolerantConverter::new(ConversionParams::new(r)).build_with_threads(
                &g,
                &GreedySpanner::new(3.0),
                &mut rng,
                1,
            );
            assert!(verify::is_fault_tolerant_k_spanner(
                &g,
                &result.edges,
                3.0,
                r
            ));
            assert!(
                result.size() >= vertex_fault_size_lower_bound(&g, r),
                "spanner smaller than the degree lower bound at r = {r}"
            );
        }
    }

    #[test]
    fn directed_bounds_on_the_complete_digraph() {
        let g = generate::complete_digraph(6);
        // Every vertex needs r + 1 = 3 outgoing and incoming arcs.
        assert_eq!(directed_size_lower_bound(&g, 2), 18);
        assert_eq!(directed_cost_lower_bound(&g, 2), 18.0);
        // Saturation.
        assert_eq!(directed_size_lower_bound(&g, 9), 30);
    }

    #[test]
    fn directed_cost_bound_prefers_cheap_arcs() {
        let mut g = DiGraph::new(3);
        g.add_arc(NodeId::new(0), NodeId::new(1), 5.0).unwrap();
        g.add_arc(NodeId::new(0), NodeId::new(2), 1.0).unwrap();
        g.add_arc(NodeId::new(1), NodeId::new(2), 2.0).unwrap();
        // r = 0: vertex 0 keeps its cheapest out-arc (1.0), vertex 1 keeps
        // 2.0; out-sum = 3.0. In-sums: vertex 1 keeps 5.0, vertex 2 keeps
        // 1.0 -> 6.0. The bound is the max.
        assert_eq!(directed_cost_lower_bound(&g, 0), 6.0);
        // The gap gadget's expensive arc is not forced at r = 0.
        let gadget = generate::gap_gadget(2, 100.0).unwrap();
        assert!(directed_cost_lower_bound(&gadget, 0) < 100.0);
    }

    #[test]
    fn bounds_handle_trivial_graphs() {
        assert_eq!(vertex_fault_size_lower_bound(&Graph::new(0), 3), 0);
        assert_eq!(vertex_fault_size_lower_bound(&Graph::new(5), 3), 0);
        assert_eq!(directed_size_lower_bound(&DiGraph::new(4), 1), 0);
        assert_eq!(directed_cost_lower_bound(&DiGraph::new(4), 1), 0.0);
    }
}

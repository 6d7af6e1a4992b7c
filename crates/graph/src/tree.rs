//! Spanning trees and tree-based quality measures.
//!
//! Spanner papers traditionally measure *size* (edge count) and *weight*
//! (total length); the natural normalizer for weight is the minimum spanning
//! tree, giving the *lightness* `w(H) / w(MST)` of a spanner `H`. This module
//! provides:
//!
//! * [`minimum_spanning_forest`] — Kruskal's algorithm over the
//!   [`crate::components::UnionFind`] forest.
//! * [`lightness`] — the weight of an edge set normalized by the MST weight.

use crate::components::UnionFind;
use crate::{EdgeSet, Graph, Result};

/// A minimum spanning forest of `graph` (a minimum spanning tree per
/// connected component), returned as an [`EdgeSet`] over the graph's edges.
///
/// Uses Kruskal's algorithm: edges sorted by weight, joined through a
/// union–find forest. Ties are broken by edge identifier, so the result is
/// deterministic.
///
/// # Example
///
/// ```
/// use ftspan_graph::{tree, Graph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)])?;
/// let mst = tree::minimum_spanning_forest(&g);
/// assert_eq!(mst.len(), 3);
/// assert_eq!(g.edge_set_weight(&mst)?, 3.0);
/// # Ok(())
/// # }
/// ```
pub fn minimum_spanning_forest(graph: &Graph) -> EdgeSet {
    let mut order: Vec<_> = graph.edges().map(|(id, e)| (id, e.weight)).collect();
    order.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let mut uf = UnionFind::new(graph.node_count());
    let mut forest = graph.empty_edge_set();
    for (id, _) in order {
        let e = graph.edge(id);
        if uf.union(e.u.index(), e.v.index()) {
            forest.insert(id);
        }
    }
    forest
}

/// Total MST weight of `graph` (summed over components).
pub fn mst_weight(graph: &Graph) -> f64 {
    let forest = minimum_spanning_forest(graph);
    graph
        .edge_set_weight(&forest)
        .expect("forest edges come from the graph")
}

/// Lightness of the edge set `edges`: its total weight divided by the weight
/// of a minimum spanning forest of `graph`.
///
/// Returns `1.0` when the MST weight is zero (a graph with no edges or only
/// zero-weight edges), so the measure is always defined.
///
/// # Errors
///
/// Returns [`MismatchedEdgeSet`](crate::GraphError::MismatchedEdgeSet) if
/// `edges` was built for a different graph.
pub fn lightness(graph: &Graph, edges: &EdgeSet) -> Result<f64> {
    let w = graph.edge_set_weight(edges)?;
    let base = mst_weight(graph);
    if base == 0.0 {
        Ok(1.0)
    } else {
        Ok(w / base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, NodeId};

    #[test]
    fn mst_of_a_cycle_drops_the_heaviest_edge() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 9.0)]).unwrap();
        let mst = minimum_spanning_forest(&g);
        assert_eq!(mst.len(), 3);
        assert_eq!(g.edge_set_weight(&mst).unwrap(), 6.0);
        assert!(!mst.contains(g.find_edge(NodeId::new(3), NodeId::new(0)).unwrap()));
    }

    #[test]
    fn mst_of_disconnected_graph_is_a_forest() {
        let g = Graph::from_unit_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]).unwrap();
        let forest = minimum_spanning_forest(&g);
        assert_eq!(forest.len(), 4); // 2 + 2 edges
        assert_eq!(mst_weight(&g), 4.0);
    }

    #[test]
    fn mst_weight_of_unit_connected_graph_is_n_minus_one() {
        let g = generate::complete(7);
        assert_eq!(mst_weight(&g), 6.0);
    }

    #[test]
    fn mst_is_deterministic() {
        let g = generate::grid(4, 5);
        assert_eq!(minimum_spanning_forest(&g), minimum_spanning_forest(&g));
    }

    #[test]
    fn lightness_of_the_mst_is_one() {
        let g = generate::grid(3, 3);
        let mst = minimum_spanning_forest(&g);
        assert!((lightness(&g, &mst).unwrap() - 1.0).abs() < 1e-12);
        let full = g.full_edge_set();
        assert!(lightness(&g, &full).unwrap() >= 1.0);
    }

    #[test]
    fn lightness_of_edgeless_graph_is_defined() {
        let g = Graph::new(4);
        assert_eq!(lightness(&g, &g.full_edge_set()).unwrap(), 1.0);
        let wrong = EdgeSet::new(7);
        assert!(lightness(&g, &wrong).is_err());
    }
}

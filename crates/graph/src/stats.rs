//! Descriptive statistics over graphs and spanners.
//!
//! The experiments report more than a single worst-case stretch number: the
//! distribution of per-edge stretches, the degree profile of the workload
//! graphs, and the girth behind the greedy spanner's size bound. This module
//! gathers those summaries in one place so the experiment binaries and the
//! examples do not each reimplement them.

use crate::csr::CsrSubgraph;
use crate::verify::pair_stretch;
use crate::{EdgeSet, Graph, GraphError, Result};

/// Summary of the degrees of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree (0 for the empty graph).
    pub min: usize,
    /// Maximum degree (0 for the empty graph).
    pub max: usize,
    /// Mean degree (0.0 for the empty graph).
    pub mean: f64,
    /// Full histogram: `histogram[d]` is the number of vertices of degree `d`.
    pub histogram: Vec<usize>,
}

impl DegreeStats {
    /// Number of isolated vertices (degree 0).
    pub fn isolated(&self) -> usize {
        self.histogram.first().copied().unwrap_or(0)
    }
}

/// Computes the degree summary of `graph`.
///
/// # Example
///
/// ```
/// use ftspan_graph::{generate, stats};
///
/// let g = generate::path(5);
/// let d = stats::degree_stats(&g);
/// assert_eq!(d.min, 1);
/// assert_eq!(d.max, 2);
/// assert_eq!(d.histogram[1], 2);
/// assert_eq!(d.histogram[2], 3);
/// ```
pub fn degree_stats(graph: &Graph) -> DegreeStats {
    let n = graph.node_count();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            histogram: Vec::new(),
        };
    }
    let degrees: Vec<usize> = graph.nodes().map(|v| graph.degree(v)).collect();
    let max = degrees.iter().copied().max().unwrap_or(0);
    let min = degrees.iter().copied().min().unwrap_or(0);
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    let mut histogram = vec![0usize; max + 1];
    for d in degrees {
        histogram[d] += 1;
    }
    DegreeStats {
        min,
        max,
        mean,
        histogram,
    }
}

/// Summary of the distribution of per-edge stretches of a spanner.
///
/// The stretch of an edge `(u, v)` is `d_H(u, v) / d_G(u, v)`: how much
/// longer the best route in the spanner `H` is than the best route in the
/// input ([`crate::verify::pair_stretch`]; a pair at input distance 0 is
/// exact only at spanner distance 0, and infinitely stretched otherwise). The paper's guarantee is about the maximum, but the distribution
/// shows how conservative the construction is on typical edges.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchStats {
    /// Number of edges measured (every edge of the input).
    pub edges: usize,
    /// Worst (maximum) stretch; `INFINITY` if some edge is disconnected in
    /// the spanner, or at distance 0 in the input but not in the spanner.
    pub max: f64,
    /// Mean stretch over measured edges (1.0 when no edge was measured).
    pub mean: f64,
    /// Median stretch (1.0 when no edge was measured).
    pub median: f64,
    /// Fraction of edges whose stretch is exactly 1 (within numerical slack).
    pub fraction_exact: f64,
}

/// Computes the distribution of per-edge stretches of `spanner` on `graph`.
///
/// # Errors
///
/// Returns [`GraphError::MismatchedEdgeSet`] if `spanner` was built for a
/// different graph.
pub fn stretch_stats(graph: &Graph, spanner: &EdgeSet) -> Result<StretchStats> {
    if spanner.capacity() != graph.edge_count() {
        return Err(GraphError::MismatchedEdgeSet {
            set_len: spanner.capacity(),
            graph_len: graph.edge_count(),
        });
    }
    // Both views packed once; the per-source sweeps then run on flat arrays
    // (the same discipline as the verification oracles).
    let full = CsrSubgraph::from_graph(graph);
    let sub = CsrSubgraph::from_edge_set(graph, spanner)?;
    let mut stretches = Vec::with_capacity(graph.edge_count());
    for u in graph.nodes() {
        if graph.degree(u) == 0 {
            continue;
        }
        let dg = full.sssp(u, None, None)?;
        let dh = sub.sssp(u, None, None)?;
        for (v, _) in graph.incident(u) {
            if v < u {
                continue;
            }
            stretches.push(pair_stretch(dh[v.index()], dg[v.index()]));
        }
    }
    if stretches.is_empty() {
        return Ok(StretchStats {
            edges: 0,
            max: 1.0,
            mean: 1.0,
            median: 1.0,
            fraction_exact: 1.0,
        });
    }
    stretches.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let edges = stretches.len();
    let max = *stretches.last().expect("non-empty");
    let mean = if stretches.iter().any(|s| s.is_infinite()) {
        f64::INFINITY
    } else {
        stretches.iter().sum::<f64>() / edges as f64
    };
    let median = if edges % 2 == 1 {
        stretches[edges / 2]
    } else {
        (stretches[edges / 2 - 1] + stretches[edges / 2]) / 2.0
    };
    let fraction_exact =
        stretches.iter().filter(|&&s| s <= 1.0 + 1e-9).count() as f64 / edges as f64;
    Ok(StretchStats {
        edges,
        max,
        mean,
        median,
        fraction_exact,
    })
}

/// The girth of the graph (length of its shortest cycle, counting hops), or
/// `None` if the graph is a forest.
///
/// Computed by a BFS from every vertex in `O(n · m)` time, which is fine for
/// the instance sizes the experiments use. The girth is the quantity behind
/// the greedy spanner's size bound: a `k`-spanner built greedily on
/// unit-weight graphs has girth greater than `k + 1`, which by the Moore
/// bound caps its size at `O(n^{1 + 2/(k+1)})` — the `f(n)` that Corollary
/// 2.2 plugs into the conversion theorem.
pub fn girth(graph: &Graph) -> Option<usize> {
    let n = graph.node_count();
    let mut best: Option<usize> = None;
    for start in graph.nodes() {
        // BFS recording parents; a non-tree edge closes a cycle whose length
        // is dist[u] + dist[v] + 1 (an upper bound that is tight for the
        // vertex on the cycle closest to `start`, so the minimum over all
        // starts is exact).
        let mut dist = vec![usize::MAX; n];
        let mut parent_edge = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[start.index()] = 0;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for (u, eid) in graph.incident(v) {
                if eid.index() == parent_edge[v.index()] {
                    continue;
                }
                if dist[u.index()] == usize::MAX {
                    dist[u.index()] = dist[v.index()] + 1;
                    parent_edge[u.index()] = eid.index();
                    queue.push_back(u);
                } else if dist[u.index()] >= dist[v.index()] {
                    // Non-tree edge: closes a cycle through `start`'s BFS tree.
                    let cycle = dist[u.index()] + dist[v.index()] + 1;
                    if best.is_none_or(|b| cycle < b) {
                        best = Some(cycle);
                    }
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, tree, NodeId};

    #[test]
    fn degree_stats_of_a_star() {
        let g = Graph::from_unit_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let d = degree_stats(&g);
        assert_eq!(d.min, 1);
        assert_eq!(d.max, 4);
        assert!((d.mean - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(d.histogram, vec![0, 4, 0, 0, 1]);
        assert_eq!(d.isolated(), 0);
    }

    #[test]
    fn degree_stats_of_trivial_graphs() {
        let empty = degree_stats(&Graph::new(0));
        assert_eq!(empty.max, 0);
        assert_eq!(empty.mean, 0.0);
        assert!(empty.histogram.is_empty());
        let isolated = degree_stats(&Graph::new(3));
        assert_eq!(isolated.isolated(), 3);
        assert_eq!(isolated.histogram, vec![3]);
    }

    #[test]
    fn stretch_stats_of_the_full_graph_are_trivial() {
        let g = generate::complete(6);
        let s = stretch_stats(&g, &g.full_edge_set()).unwrap();
        assert_eq!(s.edges, 15);
        assert_eq!(s.max, 1.0);
        assert_eq!(s.mean, 1.0);
        assert_eq!(s.median, 1.0);
        assert_eq!(s.fraction_exact, 1.0);
    }

    #[test]
    fn stretch_stats_of_a_tree_spanner() {
        let g = generate::cycle(8);
        let mst = tree::minimum_spanning_forest(&g);
        let s = stretch_stats(&g, &mst).unwrap();
        // Dropping one cycle edge stretches exactly that edge to n - 1 hops.
        assert_eq!(s.edges, 8);
        assert_eq!(s.max, 7.0);
        assert!(s.fraction_exact >= 7.0 / 8.0 - 1e-12);
        assert!(s.mean > 1.0 && s.mean < s.max);
        assert_eq!(s.median, 1.0);
    }

    #[test]
    fn stretch_stats_report_disconnection_as_infinite() {
        let g = generate::path(4);
        let empty = g.empty_edge_set();
        let s = stretch_stats(&g, &empty).unwrap();
        assert!(s.max.is_infinite());
        assert!(s.mean.is_infinite());
        assert_eq!(s.fraction_exact, 0.0);

        // A zero-weight edge whose spanner detour has positive length is
        // measured, not skipped.
        let g = Graph::from_edges(3, [(0, 1, 0.0), (0, 2, 1.0), (2, 1, 1.0)]).unwrap();
        let mut detour = g.full_edge_set();
        detour.remove(crate::EdgeId::new(0));
        let s = stretch_stats(&g, &detour).unwrap();
        assert_eq!(s.edges, 3);
        assert!(s.max.is_infinite());
    }

    #[test]
    fn stretch_stats_validate_the_edge_set() {
        let g = generate::path(4);
        assert!(stretch_stats(&g, &EdgeSet::new(99)).is_err());
        // Edgeless graph: nothing to measure, all statistics default to 1.
        let empty = Graph::new(3);
        let s = stretch_stats(&empty, &empty.full_edge_set()).unwrap();
        assert_eq!(s.edges, 0);
        assert_eq!(s.max, 1.0);
    }

    #[test]
    fn girth_of_standard_graphs() {
        assert_eq!(girth(&generate::cycle(7)), Some(7));
        assert_eq!(girth(&generate::complete(5)), Some(3));
        assert_eq!(girth(&generate::complete_bipartite(3, 3)), Some(4));
        assert_eq!(girth(&generate::hypercube(3)), Some(4));
        assert_eq!(girth(&generate::grid(2, 4)), Some(4));
        // Forests have no cycle.
        assert_eq!(girth(&generate::path(6)), None);
        assert_eq!(girth(&Graph::new(4)), None);
        assert_eq!(girth(&generate::star(5)), None);
    }

    #[test]
    fn girth_of_two_disjoint_cycles_is_the_shorter_one() {
        let mut g = Graph::new(9);
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            g.add_edge(NodeId::new(a), NodeId::new(b), 1.0).unwrap();
        }
        for (a, b) in [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 3)] {
            g.add_edge(NodeId::new(a), NodeId::new(b), 1.0).unwrap();
        }
        assert_eq!(girth(&g), Some(3));
    }
}

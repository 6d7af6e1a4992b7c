//! Graph generators used as workloads by the experiments.
//!
//! The paper's constructions are analysed for arbitrary graphs; the
//! experiment suite exercises them on the classic random-graph families
//! below, plus the two integrality-gap gadgets from Section 3 of the paper
//! ([`complete_digraph`] for the `Ω(r)` gap of the flow LP on `K_n`, and
//! [`gap_gadget`] for the costly-edge gadget showing the gap of LP (3)).

use crate::{DiGraph, Graph, GraphError, NodeId, Result};
use rand::seq::SliceRandom;
use rand::Rng;

/// How generated edges are weighted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightKind {
    /// Every edge has weight 1 (the unit-length setting of Section 3).
    Unit,
    /// Weights drawn independently and uniformly from `[min, max)`.
    Uniform {
        /// Inclusive lower bound of the weight range.
        min: f64,
        /// Exclusive upper bound of the weight range.
        max: f64,
    },
    /// Euclidean distance between the embedded endpoints; only meaningful for
    /// geometric generators, others fall back to unit weights.
    Euclidean,
}

impl WeightKind {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            WeightKind::Unit | WeightKind::Euclidean => 1.0,
            WeightKind::Uniform { min, max } => rng.gen_range(min..max),
        }
    }
}

/// Erdős–Rényi `G(n, p)`: every unordered pair becomes an edge independently
/// with probability `p`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, weights: WeightKind, rng: &mut R) -> Graph {
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability must be in [0, 1], got {p}"
    );
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                let w = weights.sample(rng);
                edges.push((u, v, w));
            }
        }
    }
    Graph::from_sorted_edges(n, edges).expect("pair loop emits sorted, valid edges")
}

/// A connected Erdős–Rényi-like graph: a random Hamiltonian path guarantees
/// connectivity, and every remaining pair is added independently with
/// probability `p`.
///
/// Experiments that need `d_{G}(u,v)` finite for all pairs use this variant.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or `n == 0`.
pub fn connected_gnp<R: Rng + ?Sized>(n: usize, p: f64, weights: WeightKind, rng: &mut R) -> Graph {
    assert!(n > 0, "connected graph needs at least one vertex");
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability must be in [0, 1], got {p}"
    );
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut g = Graph::new(n);
    for w in order.windows(2) {
        let weight = weights.sample(rng);
        g.add_edge(NodeId::new(w[0]), NodeId::new(w[1]), weight)
            .expect("path edges are valid");
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if !g.has_edge(NodeId::new(u), NodeId::new(v)) && rng.gen::<f64>() < p {
                let w = weights.sample(rng);
                g.add_edge(NodeId::new(u), NodeId::new(v), w)
                    .expect("generated edges are valid");
            }
        }
    }
    g
}

/// Random geometric graph: `n` points uniform in the unit square, an edge
/// between every pair at Euclidean distance at most `radius`.
///
/// With [`WeightKind::Euclidean`] the edge weight is the point distance,
/// otherwise weights are sampled from `weights`.
pub fn random_geometric<R: Rng + ?Sized>(
    n: usize,
    radius: f64,
    weights: WeightKind,
    rng: &mut R,
) -> Graph {
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            let d = (dx * dx + dy * dy).sqrt();
            if d <= radius {
                let w = match weights {
                    WeightKind::Euclidean => d.max(1e-9),
                    other => other.sample(rng),
                };
                edges.push((u, v, w));
            }
        }
    }
    Graph::from_sorted_edges(n, edges).expect("pair loop emits sorted, valid edges")
}

/// The `rows × cols` grid graph with unit edge weights.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let id = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1), 1.0));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c), 1.0));
            }
        }
    }
    Graph::from_sorted_edges(rows * cols, edges).expect("row-major emission is sorted")
}

/// The complete graph `K_n` with unit edge weights.
pub fn complete(n: usize) -> Graph {
    let edges = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v, 1.0)));
    Graph::from_sorted_edges(n, edges).expect("pair loop emits sorted, valid edges")
}

/// The complete bipartite graph `K_{a,b}` with unit edge weights.
///
/// Vertices `0..a` form one side, `a..a+b` the other. Every 2-spanner of
/// `K_{a,b}` must contain every edge, which is the paper's example of why no
/// non-trivial absolute size bound exists for stretch 2.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let edges = (0..a).flat_map(move |u| (0..b).map(move |v| (u, a + v, 1.0)));
    Graph::from_sorted_edges(a + b, edges).expect("side-by-side emission is sorted")
}

/// The `dim`-dimensional hypercube graph (`2^dim` vertices) with unit
/// weights.
pub fn hypercube(dim: u32) -> Graph {
    let n = 1usize << dim;
    let mut edges = Vec::new();
    for u in 0..n {
        for b in 0..dim {
            let v = u ^ (1usize << b);
            if u < v {
                edges.push((u, v, 1.0));
            }
        }
    }
    Graph::from_sorted_edges(n, edges).expect("ascending-bit emission is sorted")
}

/// The path graph on `n` vertices with unit weights.
pub fn path(n: usize) -> Graph {
    let edges = (1..n).map(|i| (i - 1, i, 1.0));
    Graph::from_sorted_edges(n, edges).expect("consecutive pairs are sorted")
}

/// The cycle graph on `n >= 3` vertices with unit weights.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least three vertices");
    let mut g = path(n);
    g.add_edge(NodeId::new(n - 1), NodeId::new(0), 1.0)
        .expect("cycle closing edge is valid");
    g
}

/// A near-`d`-regular random graph built with the configuration model,
/// discarding self-loops and parallel edges (so a few vertices may end up
/// with degree slightly below `d`).
///
/// Used by the bounded-degree experiments for Theorem 3.4.
///
/// # Panics
///
/// Panics if `d >= n`.
pub fn random_near_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(d < n, "degree must be smaller than the number of vertices");
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    stubs.shuffle(rng);
    let mut g = Graph::new(n);
    for pair in stubs.chunks(2) {
        if pair.len() < 2 {
            break;
        }
        let (u, v) = (pair[0], pair[1]);
        if u != v && !g.has_edge(NodeId::new(u), NodeId::new(v)) {
            g.add_edge(NodeId::new(u), NodeId::new(v), 1.0)
                .expect("configuration-model edges are valid");
        }
    }
    g
}

/// Random directed graph: every ordered pair `(u, v)`, `u != v`, becomes an
/// arc independently with probability `p`, with costs drawn from `costs`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn directed_gnp<R: Rng + ?Sized>(n: usize, p: f64, costs: WeightKind, rng: &mut R) -> DiGraph {
    assert!(
        (0.0..=1.0).contains(&p),
        "arc probability must be in [0, 1], got {p}"
    );
    let mut g = DiGraph::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen::<f64>() < p {
                let c = costs.sample(rng);
                g.add_arc(NodeId::new(u), NodeId::new(v), c)
                    .expect("generated arcs are valid");
            }
        }
    }
    g
}

/// The complete directed graph on `n` vertices with unit arc costs.
///
/// Section 3.1 of the paper uses `K_n` to exhibit the `Ω(r)` integrality gap
/// of the naive flow LP: the optimum needs at least `r·n` arcs while the LP
/// pays only `O(n)`.
pub fn complete_digraph(n: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                g.add_arc(NodeId::new(u), NodeId::new(v), 1.0)
                    .expect("complete digraph arcs are valid");
            }
        }
    }
    g
}

/// The star graph: vertex 0 joined to every other vertex, unit weights.
///
/// The star is the extreme case for fault tolerance: removing the hub
/// disconnects everything, so no spanner of the star is 1-fault tolerant
/// with finite stretch — a useful sanity instance for the verifiers.
pub fn star(n: usize) -> Graph {
    let edges = (1..n).map(|v| (0, v, 1.0));
    Graph::from_sorted_edges(n, edges).expect("hub emission is sorted")
}

/// The wheel graph: a cycle on vertices `1..n` plus a hub (vertex 0) joined
/// to every cycle vertex, unit weights.
///
/// # Panics
///
/// Panics if `n < 4` (the rim needs at least three vertices).
pub fn wheel(n: usize) -> Graph {
    assert!(
        n >= 4,
        "a wheel needs a hub and at least three rim vertices"
    );
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(NodeId::new(0), NodeId::new(v), 1.0)
            .expect("wheel spoke edges are valid");
        let next = if v == n - 1 { 1 } else { v + 1 };
        g.add_edge(NodeId::new(v), NodeId::new(next), 1.0)
            .expect("wheel rim edges are valid");
    }
    g
}

/// The barbell graph: two cliques `K_k` joined by a single bridge edge,
/// unit weights. Vertices `0..k` form one clique, `k..2k` the other; the
/// bridge joins `k - 1` and `k`.
///
/// The bridge endpoints are articulation points, so the barbell is the
/// canonical instance where a single well-placed fault is fatal.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn barbell(k: usize) -> Graph {
    assert!(k >= 2, "each bell needs at least two vertices");
    let mut g = Graph::new(2 * k);
    for offset in [0, k] {
        for u in 0..k {
            for v in (u + 1)..k {
                g.add_edge(NodeId::new(offset + u), NodeId::new(offset + v), 1.0)
                    .expect("clique edges are valid");
            }
        }
    }
    g.add_edge(NodeId::new(k - 1), NodeId::new(k), 1.0)
        .expect("bridge edge is valid");
    g
}

/// Watts–Strogatz small-world graph: a ring lattice where every vertex is
/// joined to its `k` nearest neighbors (`k/2` on each side), with each edge
/// rewired to a random endpoint independently with probability `beta`.
///
/// Rewirings that would create self-loops or parallel edges are skipped, so
/// the graph stays simple and the edge count stays `n * k / 2`-ish.
///
/// # Panics
///
/// Panics if `k` is odd, `k >= n`, or `beta` is not in `[0, 1]`.
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(k % 2 == 0, "lattice degree k must be even");
    assert!(
        k < n,
        "lattice degree must be smaller than the number of vertices"
    );
    assert!(
        (0.0..=1.0).contains(&beta),
        "rewiring probability must be in [0, 1], got {beta}"
    );
    let mut g = Graph::new(n);
    for u in 0..n {
        for j in 1..=(k / 2) {
            let v = (u + j) % n;
            let (mut a, mut b) = (u, v);
            if rng.gen::<f64>() < beta {
                // Rewire the far endpoint to a uniformly random vertex.
                let candidate = rng.gen_range(0..n);
                if candidate != a && !g.has_edge(NodeId::new(a), NodeId::new(candidate)) {
                    b = candidate;
                }
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            if !g.has_edge(NodeId::new(a), NodeId::new(b)) {
                g.add_edge(NodeId::new(a), NodeId::new(b), 1.0)
                    .expect("small-world edges are valid");
            }
        }
    }
    g
}

/// The Section 3.2 integrality-gap gadget for LP (3).
///
/// Vertices: `u = 0`, `v = 1`, and midpoints `w_1..w_r` (ids `2..r+2`).
/// Arcs: `(u, v)` with cost `expensive_cost`, and unit-cost arcs
/// `(u, w_i)` and `(w_i, v)` for every `i`.
///
/// The set of all midpoints is a valid fault set, so every `r`-fault-tolerant
/// 2-spanner must buy the expensive `(u, v)` arc; without the knapsack-cover
/// inequalities the LP pays only `expensive_cost / (r + 1) + 2r`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `r == 0`.
pub fn gap_gadget(r: usize, expensive_cost: f64) -> Result<DiGraph> {
    if r == 0 {
        return Err(GraphError::InvalidParameter {
            message: "the gap gadget needs at least one midpoint (r >= 1)".to_string(),
        });
    }
    let mut g = DiGraph::new(r + 2);
    let u = NodeId::new(0);
    let v = NodeId::new(1);
    g.add_arc(u, v, expensive_cost)?;
    for i in 0..r {
        let w = NodeId::new(2 + i);
        g.add_arc(u, w, 1.0)?;
        g.add_arc(w, v, 1.0)?;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn gnp_edge_count_is_reasonable() {
        let g = gnp(60, 0.5, WeightKind::Unit, &mut rng());
        let max = 60 * 59 / 2;
        // With p = 1/2 the edge count concentrates around max/2.
        assert!(g.edge_count() > max / 3 && g.edge_count() < 2 * max / 3);
        assert!(g.is_unit_weight());
        let empty = gnp(20, 0.0, WeightKind::Unit, &mut rng());
        assert_eq!(empty.edge_count(), 0);
        let full = gnp(10, 1.0, WeightKind::Unit, &mut rng());
        assert_eq!(full.edge_count(), 45);
    }

    #[test]
    fn gnp_uniform_weights_in_range() {
        let g = gnp(
            20,
            0.5,
            WeightKind::Uniform { min: 2.0, max: 3.0 },
            &mut rng(),
        );
        for (_, e) in g.edges() {
            assert!(e.weight >= 2.0 && e.weight < 3.0);
        }
    }

    #[test]
    #[should_panic]
    fn gnp_rejects_bad_probability() {
        gnp(5, 1.5, WeightKind::Unit, &mut rng());
    }

    #[test]
    fn connected_gnp_is_connected() {
        for p in [0.0, 0.05, 0.3] {
            let g = connected_gnp(50, p, WeightKind::Unit, &mut rng());
            assert!(g.is_connected(), "p={p} not connected");
        }
    }

    #[test]
    fn geometric_weights_match_kind() {
        let g = random_geometric(40, 0.4, WeightKind::Euclidean, &mut rng());
        for (_, e) in g.edges() {
            assert!(e.weight > 0.0 && e.weight <= 0.4 + 1e-9);
        }
        let gu = random_geometric(40, 0.4, WeightKind::Unit, &mut rng());
        assert!(gu.is_unit_weight());
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn complete_and_bipartite() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
        let b = complete_bipartite(3, 4);
        assert_eq!(b.edge_count(), 12);
        assert_eq!(b.node_count(), 7);
        // No edge inside a side.
        assert!(!b.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(b.has_edge(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert!(g.is_connected());
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn path_and_cycle() {
        let p = path(5);
        assert_eq!(p.edge_count(), 4);
        let c = cycle(5);
        assert_eq!(c.edge_count(), 5);
        for v in c.nodes() {
            assert_eq!(c.degree(v), 2);
        }
    }

    #[test]
    #[should_panic]
    fn cycle_too_small_panics() {
        cycle(2);
    }

    #[test]
    fn near_regular_degree_bound() {
        let g = random_near_regular(60, 6, &mut rng());
        assert!(
            g.max_degree() <= 7,
            "configuration model should stay near d"
        );
        for v in g.nodes() {
            assert!(g.degree(v) <= 6 + 1);
        }
    }

    #[test]
    fn directed_gnp_and_complete() {
        let g = directed_gnp(20, 0.3, WeightKind::Unit, &mut rng());
        assert!(g.arc_count() > 0);
        let k = complete_digraph(5);
        assert_eq!(k.arc_count(), 20);
        assert_eq!(k.max_degree(), 4);
    }

    #[test]
    fn star_and_wheel_structure() {
        let s = star(6);
        assert_eq!(s.edge_count(), 5);
        assert_eq!(s.degree(NodeId::new(0)), 5);
        assert_eq!(s.max_degree(), 5);
        let w = wheel(7);
        assert_eq!(w.node_count(), 7);
        assert_eq!(w.edge_count(), 12); // 6 spokes + 6 rim edges
        assert_eq!(w.degree(NodeId::new(0)), 6);
        for v in 1..7 {
            assert_eq!(w.degree(NodeId::new(v)), 3);
        }
        assert!(w.is_connected());
    }

    #[test]
    #[should_panic]
    fn wheel_too_small_panics() {
        wheel(3);
    }

    #[test]
    fn barbell_structure() {
        let g = barbell(4);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 2 * 6 + 1);
        assert!(g.is_connected());
        assert!(g.has_edge(NodeId::new(3), NodeId::new(4)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(7)));
    }

    #[test]
    fn watts_strogatz_structure() {
        let g = watts_strogatz(40, 4, 0.0, &mut rng());
        // With beta = 0 the ring lattice is exact: every vertex has degree 4.
        assert_eq!(g.edge_count(), 80);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(g.is_connected());
        let rewired = watts_strogatz(40, 4, 0.3, &mut rng());
        assert!(rewired.edge_count() <= 80);
        assert!(rewired.edge_count() >= 60);
    }

    #[test]
    #[should_panic]
    fn watts_strogatz_rejects_odd_degree() {
        watts_strogatz(10, 3, 0.1, &mut rng());
    }

    #[test]
    fn gap_gadget_structure() {
        let g = gap_gadget(4, 100.0).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.arc_count(), 1 + 2 * 4);
        assert_eq!(g.arc(crate::ArcId::new(0)).cost, 100.0);
        let mids: Vec<_> = g
            .two_path_midpoints(NodeId::new(0), NodeId::new(1))
            .collect();
        assert_eq!(mids.len(), 4);
        assert!(gap_gadget(0, 1.0).is_err());
    }
}

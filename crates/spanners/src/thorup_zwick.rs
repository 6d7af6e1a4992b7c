//! The Thorup–Zwick cluster spanner.
//!
//! Thorup and Zwick's approximate distance oracles (J. ACM 2005) are built
//! on a sampled hierarchy of vertex sets; the union of the shortest-path
//! trees of the resulting *clusters* is a `(2k − 1)`-spanner with expected
//! size `O(k · n^{1 + 1/k})`. This is the construction that the CLPR09
//! fault-tolerant spanner (the baseline the paper improves on) applies to
//! every fault set, so having it as a [`SpannerAlgorithm`] black box lets the
//! experiments run both the baseline and the paper's conversion on the same
//! underlying construction.

use crate::SpannerAlgorithm;
use ftspan_graph::shortest_path::HeapEntry;
use ftspan_graph::{EdgeId, EdgeSet, Graph, NodeId};
use rand::{Rng, RngCore};
use std::collections::BinaryHeap;

/// The Thorup–Zwick `(2k − 1)`-spanner construction.
///
/// A hierarchy `V = A_0 ⊇ A_1 ⊇ … ⊇ A_k = ∅` is sampled by keeping each
/// vertex of `A_i` in `A_{i+1}` independently with probability `n^{-1/k}`.
/// For every center `w ∈ A_i \ A_{i+1}` the *cluster* of `w` is
/// `C(w) = { v : d(w, v) < d(A_{i+1}, v) }`, and the spanner is the union of
/// the shortest-path trees of all clusters, rooted at their centers.
///
/// * Stretch: `2k − 1` (with certainty — the stretch argument does not
///   depend on the random sampling).
/// * Size: `O(k · n^{1 + 1/k})` in expectation.
///
/// # Example
///
/// ```
/// use ftspan_spanners::{SpannerAlgorithm, ThorupZwickSpanner};
/// use ftspan_graph::{generate, verify};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let g = generate::gnp(40, 0.4, generate::WeightKind::Unit, &mut rng);
/// let alg = ThorupZwickSpanner::new(2); // stretch 3
/// let spanner = alg.build(&g, &mut rng);
/// assert!(verify::is_k_spanner(&g, &spanner, alg.stretch()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThorupZwickSpanner {
    k: usize,
}

impl ThorupZwickSpanner {
    /// Creates the construction with hierarchy depth `k >= 1` (stretch
    /// `2k − 1`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(
            k >= 1,
            "the Thorup-Zwick hierarchy needs at least one level"
        );
        ThorupZwickSpanner { k }
    }

    /// The hierarchy depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Multi-source Dijkstra over the live edges: distance from every vertex to
/// its nearest source. Returns `INFINITY` entries when `sources` is empty.
fn multi_source_distances(graph: &Graph, live: &[bool], sources: &[bool]) -> Vec<f64> {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    for v in 0..n {
        if sources[v] {
            dist[v] = 0.0;
            heap.push(HeapEntry {
                dist: 0.0,
                node: NodeId::new(v),
            });
        }
    }
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if d > dist[v.index()] {
            continue;
        }
        for (u, eid) in graph.incident(v).filter(|(_, eid)| live[eid.index()]) {
            let nd = d + graph.edge(eid).weight;
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                heap.push(HeapEntry { dist: nd, node: u });
            }
        }
    }
    dist
}

/// Dijkstra from `center` over the live edges, restricted to the cluster
/// `{ v : d(center, v) < bound[v] }`; inserts the tree edge of every cluster
/// member into `spanner`.
fn grow_cluster(
    graph: &Graph,
    live: &[bool],
    center: NodeId,
    bound: &[f64],
    spanner: &mut EdgeSet,
) {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut via: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[center.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: center,
    });
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if d > dist[v.index()] {
            continue;
        }
        if let Some(e) = via[v.index()] {
            spanner.insert(e);
        }
        for (u, eid) in graph.incident(v).filter(|(_, eid)| live[eid.index()]) {
            let nd = d + graph.edge(eid).weight;
            // The defining condition of a Thorup-Zwick cluster: only grow
            // into u while the distance from the center stays strictly below
            // u's distance to the next level of the hierarchy.
            if nd < dist[u.index()] && nd < bound[u.index()] {
                dist[u.index()] = nd;
                via[u.index()] = Some(eid);
                heap.push(HeapEntry { dist: nd, node: u });
            }
        }
    }
}

impl SpannerAlgorithm for ThorupZwickSpanner {
    fn name(&self) -> &str {
        "thorup-zwick"
    }

    fn stretch(&self) -> f64 {
        (2 * self.k - 1) as f64
    }

    fn build_masked(&self, graph: &Graph, live: &[bool], rng: &mut dyn RngCore) -> EdgeSet {
        let n = graph.node_count();
        let mut spanner = graph.empty_edge_set();
        if n == 0 || !live.contains(&true) {
            return spanner;
        }
        let p = (n as f64).powf(-1.0 / self.k as f64);

        // Sample the hierarchy A_0 ⊇ A_1 ⊇ ... ⊇ A_{k-1}; A_k = ∅.
        let mut levels: Vec<Vec<bool>> = Vec::with_capacity(self.k + 1);
        levels.push(vec![true; n]);
        for i in 1..self.k {
            let prev = &levels[i - 1];
            let next: Vec<bool> = prev
                .iter()
                .map(|&in_prev| in_prev && rng.gen::<f64>() < p)
                .collect();
            levels.push(next);
        }
        levels.push(vec![false; n]);

        for i in 0..self.k {
            // Distance of every vertex to the next level A_{i+1}
            // (INFINITY at the top level, so the last clusters are whole
            // shortest-path trees — exactly the Thorup-Zwick definition).
            let bound = multi_source_distances(graph, live, &levels[i + 1]);
            for (w, (&in_level, &in_next)) in levels[i].iter().zip(levels[i + 1].iter()).enumerate()
            {
                if in_level && !in_next {
                    grow_cluster(graph, live, NodeId::new(w), &bound, &mut spanner);
                }
            }
        }
        spanner
    }

    fn size_bound(&self, n: usize) -> f64 {
        crate::size_bounds::thorup_zwick_size_bound(n, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generate, verify};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(2025)
    }

    #[test]
    #[should_panic]
    fn rejects_zero_levels() {
        ThorupZwickSpanner::new(0);
    }

    #[test]
    fn k_one_keeps_every_edge_on_shortest_paths() {
        // With k = 1 the only level is V itself and every vertex is a
        // cluster center with an unbounded cluster: the spanner contains a
        // full shortest-path tree per vertex, hence stretch 1.
        let g = generate::complete(10);
        let alg = ThorupZwickSpanner::new(1);
        assert_eq!(alg.stretch(), 1.0);
        let s = alg.build(&g, &mut rng());
        assert!(verify::is_k_spanner(&g, &s, 1.0));
    }

    #[test]
    fn stretch_holds_on_random_unit_graphs() {
        let mut r = rng();
        for k in [2usize, 3] {
            let alg = ThorupZwickSpanner::new(k);
            for seed in 0..3u64 {
                let mut gr = ChaCha8Rng::seed_from_u64(seed);
                let g = generate::gnp(45, 0.25, generate::WeightKind::Unit, &mut gr);
                let s = alg.build(&g, &mut r);
                assert!(
                    verify::is_k_spanner(&g, &s, alg.stretch()),
                    "not a {}-spanner (k = {k}, seed = {seed})",
                    alg.stretch()
                );
            }
        }
    }

    #[test]
    fn stretch_holds_on_weighted_graphs() {
        let mut r = rng();
        let alg = ThorupZwickSpanner::new(2);
        let g = generate::gnp(
            40,
            0.3,
            generate::WeightKind::Uniform { min: 0.5, max: 5.0 },
            &mut r,
        );
        let s = alg.build(&g, &mut r);
        assert!(verify::is_k_spanner(&g, &s, 3.0));
    }

    #[test]
    fn three_spanner_of_complete_graph_is_sparse() {
        let g = generate::complete(50);
        let alg = ThorupZwickSpanner::new(2);
        let mut sizes = Vec::new();
        let mut r = rng();
        for _ in 0..5 {
            sizes.push(alg.build(&g, &mut r).len());
        }
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        // K_50 has 1225 edges; expected size is O(k n^{1.5}) ≈ 700, so the
        // average over a few runs stays clearly below the input size.
        assert!(avg < 1100.0, "spanner too dense on average: {avg}");
        assert!(verify::is_k_spanner(&g, &alg.build(&g, &mut r), 3.0));
    }

    #[test]
    fn handles_trivial_graphs() {
        let alg = ThorupZwickSpanner::new(2);
        assert!(alg.build(&Graph::new(0), &mut rng()).is_empty());
        assert!(alg.build(&Graph::new(5), &mut rng()).is_empty());
    }

    #[test]
    fn size_bound_grows_with_n_and_k() {
        let a = ThorupZwickSpanner::new(2);
        let b = ThorupZwickSpanner::new(3);
        assert!(a.size_bound(200) > a.size_bound(100));
        // Larger k gives asymptotically fewer edges per level but more levels;
        // the bound stays finite and positive.
        assert!(b.size_bound(100) > 0.0);
        assert_eq!(a.name(), "thorup-zwick");
        assert_eq!(a.k(), 2);
    }
}

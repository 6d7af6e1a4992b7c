//! Fault sets: enumeration, sampling and adversarial heuristics.
//!
//! An `r`-fault-tolerant `k`-spanner must remain a `k`-spanner of `G \ F` for
//! *every* vertex set `F` with `|F| <= r`. Verification therefore needs to
//! enumerate (for small instances) or sample (for larger ones) fault sets;
//! the types here provide both, plus adversarial heuristics (high-degree
//! vertices and articulation points) for instances too large to enumerate.

use crate::components::articulation_points;
use crate::{EdgeId, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// A set of failed vertices, stored sorted and deduplicated.
///
/// # Example
///
/// ```
/// use ftspan_graph::{faults::FaultSet, NodeId};
///
/// let f = FaultSet::from_nodes(vec![NodeId::new(3), NodeId::new(1), NodeId::new(3)]);
/// assert_eq!(f.len(), 2);
/// assert!(f.contains(NodeId::new(1)));
/// let mask = f.to_dead_mask(5);
/// assert_eq!(mask, vec![false, true, false, true, false]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FaultSet {
    nodes: Vec<NodeId>,
}

impl FaultSet {
    /// The empty fault set.
    pub fn empty() -> Self {
        FaultSet { nodes: Vec::new() }
    }

    /// Builds a fault set from arbitrary vertex ids (sorted, deduplicated).
    pub fn from_nodes(mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        FaultSet { nodes }
    }

    /// Builds a fault set from raw indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        Self::from_nodes(indices.into_iter().map(NodeId::new).collect())
    }

    /// Number of failed vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no vertex failed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns `true` if `v` is in the fault set.
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// The failed vertices in increasing order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Converts the fault set into a boolean "dead" mask of length `n`,
    /// suitable for [`SsspOptions::forbid_vertices`](crate::shortest_path::SsspOptions::forbid_vertices).
    pub fn to_dead_mask(&self, n: usize) -> Vec<bool> {
        let mut mask = vec![false; n];
        for &v in &self.nodes {
            if v.index() < n {
                mask[v.index()] = true;
            }
        }
        mask
    }
}

impl FromIterator<NodeId> for FaultSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        Self::from_nodes(iter.into_iter().collect())
    }
}

/// Iterator over all `k`-subsets of `0..n`, in lexicographic order.
///
/// Used by exhaustive fault-tolerance verification on small instances.
#[derive(Debug, Clone)]
pub struct Combinations {
    n: usize,
    k: usize,
    current: Option<Vec<usize>>,
}

impl Combinations {
    /// Creates an iterator over the `k`-subsets of `{0, .., n-1}`.
    pub fn new(n: usize, k: usize) -> Self {
        let current = if k <= n { Some((0..k).collect()) } else { None };
        Combinations { n, k, current }
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.current.clone()?;
        // Advance to the next combination.
        let mut next = current.clone();
        let mut i = self.k;
        loop {
            if i == 0 {
                self.current = None;
                break;
            }
            i -= 1;
            if next[i] < self.n - (self.k - i) {
                next[i] += 1;
                for j in (i + 1)..self.k {
                    next[j] = next[j - 1] + 1;
                }
                self.current = Some(next);
                break;
            }
        }
        Some(current)
    }
}

/// Enumerates every fault set of size at most `r` over `n` vertices
/// (including the empty set), in order of increasing size.
///
/// The number of sets is `sum_{i=0}^{r} C(n, i)`; callers are expected to use
/// this only for small `n` and `r` (exhaustive verification in tests).
pub fn enumerate_fault_sets(n: usize, r: usize) -> impl Iterator<Item = FaultSet> {
    (0..=r.min(n)).flat_map(move |k| Combinations::new(n, k).map(FaultSet::from_indices))
}

/// Number of fault sets [`enumerate_fault_sets`] would yield.
pub fn count_fault_sets(n: usize, r: usize) -> u128 {
    let mut total: u128 = 0;
    for k in 0..=r.min(n) {
        let mut c: u128 = 1;
        for i in 0..k {
            c = c * (n - i) as u128 / (i + 1) as u128;
        }
        total += c;
    }
    total
}

/// Samples a uniformly random fault set of size exactly `min(r, n)`.
pub fn sample_fault_set<R: Rng + ?Sized>(n: usize, r: usize, rng: &mut R) -> FaultSet {
    let mut all: Vec<usize> = (0..n).collect();
    all.shuffle(rng);
    FaultSet::from_indices(all.into_iter().take(r.min(n)))
}

/// Samples `count` independent random fault sets of size `min(r, n)`.
pub fn sample_fault_sets<R: Rng + ?Sized>(
    n: usize,
    r: usize,
    count: usize,
    rng: &mut R,
) -> Vec<FaultSet> {
    (0..count).map(|_| sample_fault_set(n, r, rng)).collect()
}

/// Greedy adversarial fault heuristic for undirected graphs: repeatedly fail
/// the highest-degree surviving vertex.
///
/// High-degree vertices are the most likely to be essential intermediate
/// hops, so this is a useful stress test when exhaustive enumeration is out
/// of reach.
pub fn high_degree_faults(graph: &crate::Graph, r: usize) -> FaultSet {
    let mut degrees: Vec<(usize, usize)> = graph
        .nodes()
        .map(|v| (graph.degree(v), v.index()))
        .collect();
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    FaultSet::from_indices(degrees.into_iter().take(r).map(|(_, v)| v))
}

/// Adversarial fault heuristic targeting the connectivity structure:
/// articulation points first (each one is a single fault that disconnects
/// the graph), then highest-degree vertices to fill up to `r` faults.
///
/// If the graph has an articulation point and `r >= 1`, the returned fault
/// set is guaranteed to disconnect the graph — the strongest possible stress
/// test for a fault-tolerant spanner verifier (both the spanner and the
/// input lose the connection, so the stretch bound must still be judged
/// against distances in `G \ F`).
pub fn articulation_faults(graph: &crate::Graph, r: usize) -> FaultSet {
    let mut picked: Vec<usize> = articulation_points(graph)
        .into_iter()
        .take(r)
        .map(NodeId::index)
        .collect();
    if picked.len() < r {
        let already: std::collections::HashSet<usize> = picked.iter().copied().collect();
        let mut degrees: Vec<(usize, usize)> = graph
            .nodes()
            .filter(|v| !already.contains(&v.index()))
            .map(|v| (graph.degree(v), v.index()))
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        picked.extend(degrees.into_iter().take(r - picked.len()).map(|(_, v)| v));
    }
    FaultSet::from_indices(picked)
}

/// A set of failed *edges*, stored sorted and deduplicated.
///
/// Edge faults are the natural companion model to the paper's vertex faults:
/// an `r`-edge-fault-tolerant `k`-spanner must remain a `k`-spanner of
/// `G \ F` for every edge set `F` with `|F| <= r`. The conversion theorem
/// adapts to this model by sampling edges instead of vertices
/// (`FaultModel::Edge` in `ftspan-core`'s conversion), and the edge-fault
/// sweeps of [`crate::verify::StretchOracle`] report an [`EdgeFaultSet`] as
/// their witness.
///
/// # Example
///
/// ```
/// use ftspan_graph::{faults::EdgeFaultSet, EdgeId};
///
/// let f = EdgeFaultSet::from_indices([4, 0, 4]);
/// assert_eq!(f.len(), 2);
/// assert!(f.contains(EdgeId::new(0)));
/// assert!(!f.contains(EdgeId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct EdgeFaultSet {
    edges: Vec<EdgeId>,
}

impl EdgeFaultSet {
    /// The empty edge-fault set.
    pub fn empty() -> Self {
        EdgeFaultSet { edges: Vec::new() }
    }

    /// Builds an edge-fault set from arbitrary edge ids (sorted, deduplicated).
    pub fn from_edges(mut edges: Vec<EdgeId>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        EdgeFaultSet { edges }
    }

    /// Builds an edge-fault set from raw indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        Self::from_edges(indices.into_iter().map(EdgeId::new).collect())
    }

    /// Number of failed edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if no edge failed.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Returns `true` if `e` is in the fault set.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.edges.binary_search(&e).is_ok()
    }

    /// The failed edges in increasing order.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Converts the fault set into a boolean "dead edge" mask of length `m`,
    /// suitable for the masked traversals of
    /// [`CsrSubgraph`](crate::csr::CsrSubgraph).
    pub fn to_dead_mask(&self, m: usize) -> Vec<bool> {
        let mut mask = vec![false; m];
        for &e in &self.edges {
            if e.index() < m {
                mask[e.index()] = true;
            }
        }
        mask
    }

    /// Removes the failed edges from `set`, returning the surviving subset.
    ///
    /// Typically `set` is either a graph's full edge set (to get the edges of
    /// `G \ F`) or a candidate spanner (to get `H \ F`).
    pub fn remove_from(&self, set: &crate::EdgeSet) -> crate::EdgeSet {
        let mut out = set.clone();
        for &e in &self.edges {
            if e.index() < out.capacity() {
                out.remove(e);
            }
        }
        out
    }
}

impl FromIterator<EdgeId> for EdgeFaultSet {
    fn from_iter<T: IntoIterator<Item = EdgeId>>(iter: T) -> Self {
        Self::from_edges(iter.into_iter().collect())
    }
}

/// Enumerates every edge-fault set of size at most `r` over `m` edges
/// (including the empty set), in order of increasing size.
pub fn enumerate_edge_fault_sets(m: usize, r: usize) -> impl Iterator<Item = EdgeFaultSet> {
    (0..=r.min(m)).flat_map(move |k| Combinations::new(m, k).map(EdgeFaultSet::from_indices))
}

/// Samples a uniformly random edge-fault set of size exactly `min(r, m)`.
pub fn sample_edge_fault_set<R: Rng + ?Sized>(m: usize, r: usize, rng: &mut R) -> EdgeFaultSet {
    let mut all: Vec<usize> = (0..m).collect();
    all.shuffle(rng);
    EdgeFaultSet::from_indices(all.into_iter().take(r.min(m)))
}

/// Adversarial edge-fault heuristic: fail the `r` heaviest edges of the
/// graph (the ones whose loss forces the longest detours in a weighted
/// instance).
pub fn heavy_edge_faults(graph: &crate::Graph, r: usize) -> EdgeFaultSet {
    let mut by_weight: Vec<(EdgeId, f64)> = graph.edges().map(|(id, e)| (id, e.weight)).collect();
    by_weight.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    EdgeFaultSet::from_edges(by_weight.into_iter().take(r).map(|(id, _)| id).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fault_set_dedups_and_sorts() {
        let f = FaultSet::from_indices([5, 1, 5, 3]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.nodes(), &[NodeId::new(1), NodeId::new(3), NodeId::new(5)]);
        assert!(f.contains(NodeId::new(3)));
        assert!(!f.contains(NodeId::new(2)));
        assert!(FaultSet::empty().is_empty());
    }

    #[test]
    fn dead_mask_ignores_out_of_range() {
        let f = FaultSet::from_indices([1, 9]);
        let mask = f.to_dead_mask(4);
        assert_eq!(mask, vec![false, true, false, false]);
    }

    #[test]
    fn combinations_counts() {
        assert_eq!(Combinations::new(5, 2).count(), 10);
        assert_eq!(Combinations::new(5, 0).count(), 1);
        assert_eq!(Combinations::new(5, 5).count(), 1);
        assert_eq!(Combinations::new(3, 4).count(), 0);
        let all: Vec<_> = Combinations::new(4, 2).collect();
        assert_eq!(all[0], vec![0, 1]);
        assert_eq!(all[5], vec![2, 3]);
    }

    #[test]
    fn enumerate_and_count_agree() {
        for (n, r) in [(5, 0), (5, 2), (6, 3), (4, 4)] {
            let enumerated = enumerate_fault_sets(n, r).count() as u128;
            assert_eq!(enumerated, count_fault_sets(n, r), "n={n} r={r}");
        }
        assert_eq!(count_fault_sets(5, 2), 1 + 5 + 10);
    }

    #[test]
    fn enumerated_sets_are_unique_and_bounded() {
        let sets: Vec<_> = enumerate_fault_sets(6, 2).collect();
        let unique: std::collections::HashSet<_> = sets.iter().cloned().collect();
        assert_eq!(unique.len(), sets.len());
        assert!(sets.iter().all(|f| f.len() <= 2));
    }

    #[test]
    fn sampling_respects_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let f = sample_fault_set(10, 3, &mut rng);
        assert_eq!(f.len(), 3);
        let g = sample_fault_set(2, 5, &mut rng);
        assert_eq!(g.len(), 2);
        let many = sample_fault_sets(10, 2, 7, &mut rng);
        assert_eq!(many.len(), 7);
    }

    #[test]
    fn high_degree_faults_pick_hubs() {
        let g = generate::complete_bipartite(2, 6);
        // The two left vertices have degree 6, all others degree 2.
        let f = high_degree_faults(&g, 2);
        assert!(f.contains(NodeId::new(0)));
        assert!(f.contains(NodeId::new(1)));
    }

    #[test]
    fn articulation_faults_target_cut_vertices() {
        let g = generate::barbell(4);
        let f = articulation_faults(&g, 1);
        assert_eq!(f.len(), 1);
        let v = f.nodes()[0];
        assert!(v == NodeId::new(3) || v == NodeId::new(4));
        // On a biconnected graph the heuristic falls back to high degree.
        let c = generate::cycle(6);
        let f2 = articulation_faults(&c, 2);
        assert_eq!(f2.len(), 2);
        // Requesting more faults than articulation points fills up.
        let p = generate::path(4);
        let f3 = articulation_faults(&p, 3);
        assert_eq!(f3.len(), 3);
        assert!(f3.contains(NodeId::new(1)) && f3.contains(NodeId::new(2)));
    }

    #[test]
    fn edge_fault_set_basics() {
        let f = EdgeFaultSet::from_indices([7, 2, 7, 0]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.edges(), &[EdgeId::new(0), EdgeId::new(2), EdgeId::new(7)]);
        assert!(f.contains(EdgeId::new(2)));
        assert!(!f.contains(EdgeId::new(3)));
        assert!(EdgeFaultSet::empty().is_empty());
        let collected: EdgeFaultSet = [EdgeId::new(1), EdgeId::new(1)].into_iter().collect();
        assert_eq!(collected.len(), 1);
    }

    #[test]
    fn edge_fault_set_removes_from_edge_sets() {
        let g = generate::path(5);
        let full = g.full_edge_set();
        let f = EdgeFaultSet::from_indices([1, 3, 99]);
        let survived = f.remove_from(&full);
        assert_eq!(survived.len(), 2);
        assert!(survived.contains(EdgeId::new(0)));
        assert!(!survived.contains(EdgeId::new(1)));
    }

    #[test]
    fn enumerate_edge_fault_sets_counts() {
        let sets: Vec<_> = enumerate_edge_fault_sets(5, 2).collect();
        assert_eq!(sets.len() as u128, count_fault_sets(5, 2));
        let unique: std::collections::HashSet<_> = sets.iter().cloned().collect();
        assert_eq!(unique.len(), sets.len());
    }

    #[test]
    fn sample_edge_fault_set_respects_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(sample_edge_fault_set(10, 4, &mut rng).len(), 4);
        assert_eq!(sample_edge_fault_set(3, 9, &mut rng).len(), 3);
    }

    #[test]
    fn heavy_edge_faults_pick_heaviest() {
        let g = crate::Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 9.0), (2, 3, 5.0)]).unwrap();
        let f = heavy_edge_faults(&g, 2);
        assert_eq!(f.len(), 2);
        assert!(f.contains(EdgeId::new(1)));
        assert!(f.contains(EdgeId::new(2)));
        assert!(!f.contains(EdgeId::new(0)));
    }
}

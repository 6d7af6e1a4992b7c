//! The randomized clustering spanner of Baswana & Sen.

use crate::SpannerAlgorithm;
use ftspan_graph::{EdgeId, EdgeSet, Graph, NodeId};
use rand::Rng;
use rand::RngCore;

/// The Baswana–Sen randomized `(2k−1)`-spanner construction.
///
/// The algorithm maintains a clustering of the vertices and runs `k − 1`
/// rounds of cluster sampling (each cluster survives with probability
/// `n^{−1/k}`), followed by a final vertex–cluster joining phase. Its expected
/// size is `O(k · n^{1+1/k})` and it works with arbitrary non-negative edge
/// lengths.
///
/// In this workspace it serves as an alternative black box for the conversion
/// theorem (Theorem 2.1), exercising the theorem's claim that *any* spanner
/// construction can be made fault tolerant.
///
/// # Example
///
/// ```
/// use ftspan_spanners::{BaswanaSenSpanner, SpannerAlgorithm};
/// use ftspan_graph::{generate, verify};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let g = generate::gnp(50, 0.4, generate::WeightKind::Unit, &mut rng);
/// let alg = BaswanaSenSpanner::new(2); // stretch 2*2 - 1 = 3
/// let spanner = alg.build(&g, &mut rng);
/// assert!(verify::is_k_spanner(&g, &spanner, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaswanaSenSpanner {
    k: usize,
}

impl BaswanaSenSpanner {
    /// Creates the construction with parameter `k >= 1`; the produced spanner
    /// has stretch `2k − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "Baswana-Sen parameter k must be at least 1");
        BaswanaSenSpanner { k }
    }

    /// The clustering parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Scans `v`'s adjacency once. The minimum-weight alive edge from `v` to
    /// each adjacent cluster goes into `best` as a `(cluster, weight, edge)`
    /// entry, and every alive edge from `v` to a clustered neighbor goes into
    /// `incident` as a `(cluster, edge)` entry, so the discard step afterwards
    /// walks that short list instead of the adjacency again.
    ///
    /// `best` is kept sorted by cluster id, so iteration (and therefore
    /// tie-breaking among equal-weight edges) is ordered by cluster id: the
    /// construction must be a pure function of `(graph, rng state)` for the
    /// workspace's determinism guarantees, which rules out hash-ordered
    /// traversal. Among equal-weight edges into one cluster the first
    /// incident one wins. Both buffers are reused across vertices, so the
    /// kernel allocates nothing per vertex.
    fn neighbor_clusters(
        graph: &Graph,
        alive: &[bool],
        cluster: &[u32],
        v: NodeId,
        best: &mut Vec<(u32, f64, EdgeId)>,
        incident: &mut Vec<(u32, EdgeId)>,
    ) {
        best.clear();
        incident.clear();
        for (u, eid) in graph.incident(v) {
            let c = cluster[u.index()];
            if !alive[eid.index()] || c == UNCLUSTERED {
                continue;
            }
            incident.push((c, eid));
            let w = graph.edge(eid).weight;
            match best.binary_search_by_key(&c, |entry| entry.0) {
                Ok(slot) => {
                    if w < best[slot].1 {
                        best[slot] = (c, w, eid);
                    }
                }
                Err(slot) => best.insert(slot, (c, w, eid)),
            }
        }
    }

    /// Discards every edge of `incident` whose cluster `drop` selects.
    fn discard_edges(alive: &mut [bool], incident: &[(u32, EdgeId)], drop: impl Fn(u32) -> bool) {
        for &(c, eid) in incident {
            if drop(c) {
                alive[eid.index()] = false;
            }
        }
    }
}

/// The cluster id of a vertex that has left the clustering.
const UNCLUSTERED: u32 = u32::MAX;

impl SpannerAlgorithm for BaswanaSenSpanner {
    fn name(&self) -> &str {
        "baswana-sen"
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

        // Dead edges start out discarded; every pass below reads only alive
        // ones.
        let mut alive = live.to_vec();
        // active[v]: v has an alive edge. Alive edges are only ever
        // discarded, so a vertex that is not active has nothing to buy or
        // discard for the rest of the run, and its adjacency is not scanned.
        // On the conversion's induced subgraphs that is most vertices.
        let mut active = vec![false; n];
        for (eid, e) in graph.edges() {
            active[e.u.index()] |= alive[eid.index()];
            active[e.v.index()] |= alive[eid.index()];
        }
        // cluster[v] = its center while v is clustered, UNCLUSTERED once
        // discarded. Vertex ids fit in u32 (NodeId is one), below the sentinel.
        assert!(
            n < UNCLUSTERED as usize,
            "Baswana-Sen needs fewer than 2^32 - 1 vertices"
        );
        let mut cluster: Vec<u32> = (0..n as u32).collect();
        let mut next_cluster = vec![UNCLUSTERED; n];
        let mut is_center = vec![false; n];
        let mut sampled = vec![false; n];
        let mut neighbors: Vec<(u32, f64, EdgeId)> = Vec::new();
        let mut incident: Vec<(u32, EdgeId)> = Vec::new();

        // Phase 1: k - 1 rounds of cluster sampling.
        for _round in 0..self.k.saturating_sub(1) {
            // Which cluster centers survive this round? The coin flips are
            // assigned to centers in ascending id order so the sampled set is
            // a pure function of the rng state.
            is_center.fill(false);
            for &c in cluster.iter().filter(|&&c| c != UNCLUSTERED) {
                is_center[c as usize] = true;
            }
            for c in 0..n {
                sampled[c] = is_center[c] && rng.gen::<f64>() < p;
            }

            // Vertices of sampled clusters stay put; every other vertex starts
            // out unclustered for the next round.
            for (next, &c) in next_cluster.iter_mut().zip(&cluster) {
                *next = if c != UNCLUSTERED && sampled[c as usize] {
                    c
                } else {
                    UNCLUSTERED
                };
            }

            for v_idx in 0..n {
                let own = cluster[v_idx];
                if !active[v_idx] || own == UNCLUSTERED || sampled[own as usize] {
                    continue;
                }
                let v = NodeId::new(v_idx);
                Self::neighbor_clusters(graph, &alive, &cluster, v, &mut neighbors, &mut incident);
                if incident.is_empty() {
                    // Nothing to buy or discard, and v already leaves the
                    // clustering.
                    continue;
                }
                // Closest sampled neighbor cluster, if any (the first of
                // equally close ones in cluster-id order).
                let best_sampled = neighbors
                    .iter()
                    .filter(|(c, _, _)| sampled[*c as usize])
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .copied();

                match best_sampled {
                    None => {
                        // No sampled neighbor: buy the cheapest edge to every
                        // neighboring cluster and drop out of the clustering.
                        for &(_c, _w, e) in &neighbors {
                            spanner.insert(e);
                        }
                        Self::discard_edges(&mut alive, &incident, |_| true);
                    }
                    Some((c_star, w_star, e_star)) => {
                        spanner.insert(e_star);
                        next_cluster[v_idx] = c_star;
                        for &(c, w, e) in &neighbors {
                            if c != c_star && w < w_star {
                                spanner.insert(e);
                            }
                        }
                        let bought = |c: u32| {
                            c == c_star || {
                                let slot = neighbors
                                    .binary_search_by_key(&c, |entry| entry.0)
                                    .expect("every adjacent cluster has an entry");
                                neighbors[slot].1 < w_star
                            }
                        };
                        Self::discard_edges(&mut alive, &incident, bought);
                    }
                }
            }

            // Remove edges that became internal to a cluster, and find the
            // vertices that still have an alive edge.
            active.fill(false);
            for (eid, e) in graph.edges() {
                let (cu, cv) = (next_cluster[e.u.index()], next_cluster[e.v.index()]);
                let keep = alive[eid.index()] & ((cu != cv) | (cu == UNCLUSTERED));
                alive[eid.index()] = keep;
                active[e.u.index()] |= keep;
                active[e.v.index()] |= keep;
            }

            std::mem::swap(&mut cluster, &mut next_cluster);
        }

        // Phase 2: every vertex buys the cheapest edge to each remaining
        // adjacent cluster.
        for v_idx in (0..n).filter(|&v| active[v]) {
            let v = NodeId::new(v_idx);
            Self::neighbor_clusters(graph, &alive, &cluster, v, &mut neighbors, &mut incident);
            for &(_c, _w, e) in &neighbors {
                spanner.insert(e);
            }
            Self::discard_edges(&mut alive, &incident, |_| true);
        }

        spanner
    }

    fn size_bound(&self, n: usize) -> f64 {
        crate::size_bounds::baswana_sen_size_bound(n, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generate, verify};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    #[should_panic]
    fn rejects_k_zero() {
        BaswanaSenSpanner::new(0);
    }

    #[test]
    fn k_one_keeps_every_edge() {
        // Stretch 1 requires every edge of a unit-weight complete graph.
        let g = generate::complete(7);
        let s = BaswanaSenSpanner::new(1).build(&g, &mut rng(1));
        assert_eq!(s.len(), g.edge_count());
    }

    #[test]
    fn stretch_guarantee_on_random_graphs() {
        let mut r = rng(2);
        for k in [2usize, 3] {
            for trial in 0..5 {
                let g = generate::gnp(
                    40,
                    0.3,
                    generate::WeightKind::Uniform { min: 1.0, max: 5.0 },
                    &mut r,
                );
                let alg = BaswanaSenSpanner::new(k);
                let s = alg.build(&g, &mut r);
                assert!(
                    verify::is_k_spanner(&g, &s, alg.stretch()),
                    "trial {trial}: not a {}-spanner",
                    alg.stretch()
                );
            }
        }
    }

    #[test]
    fn stretch_guarantee_on_dense_unit_graph() {
        let mut r = rng(3);
        let g = generate::complete(30);
        let alg = BaswanaSenSpanner::new(2);
        let s = alg.build(&g, &mut r);
        assert!(verify::is_k_spanner(&g, &s, 3.0));
        // Expected size O(k n^{1.5}) ≈ 2 * 164; leave generous slack but stay
        // well below the 435 input edges.
        assert!(s.len() < 420, "spanner too dense: {}", s.len());
    }

    #[test]
    fn handles_empty_and_tiny_graphs() {
        let alg = BaswanaSenSpanner::new(3);
        let empty = Graph::new(0);
        assert_eq!(alg.build(&empty, &mut rng(4)).len(), 0);
        let isolated = Graph::new(5);
        assert_eq!(alg.build(&isolated, &mut rng(5)).len(), 0);
        let mut two = Graph::new(2);
        two.add_edge(NodeId::new(0), NodeId::new(1), 2.0).unwrap();
        let s = alg.build(&two, &mut rng(6));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn size_bound_grows_with_k_and_n() {
        let a2 = BaswanaSenSpanner::new(2);
        let a3 = BaswanaSenSpanner::new(3);
        assert!(a2.size_bound(1000) > a3.size_bound(1000) / 3.0);
        assert!(a2.size_bound(2000) > a2.size_bound(1000));
    }

    #[test]
    fn reports_name_and_stretch() {
        let alg = BaswanaSenSpanner::new(4);
        assert_eq!(alg.name(), "baswana-sen");
        assert_eq!(alg.stretch(), 7.0);
        assert_eq!(alg.k(), 4);
    }
}

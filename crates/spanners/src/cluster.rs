//! A simple ball-carving cluster spanner, the distributed-friendly black box.

use crate::SpannerAlgorithm;
use ftspan_graph::{EdgeSet, Graph, NodeId};
use rand::seq::SliceRandom;
use rand::RngCore;
use std::collections::{HashMap, VecDeque};

/// A ball-carving cluster spanner for unit-length graphs.
///
/// Vertices are visited in random order; each unclustered vertex starts a new
/// cluster and absorbs all unclustered vertices within `radius` hops, adding
/// the BFS tree edges to the spanner. Finally one edge is added between every
/// pair of adjacent clusters.
///
/// For unit-length graphs the resulting subgraph is a `(4·radius + 1)`-spanner:
/// an intra-cluster edge is replaced by a tree path of length at most
/// `2·radius`, and an inter-cluster edge `(u, v)` by a path through the two
/// cluster trees and the representative edge, of length at most
/// `4·radius + 1`.
///
/// This construction is the sequential counterpart of the algorithm run by
/// `ftspan-local`; it stands in for the Derbel–Gavoille–Peleg–Viennot
/// construction referenced by Corollary 2.4 of the paper (see the
/// *Substitutions* section of the workspace README).
/// On weighted graphs it still produces a spanning structure but the stretch
/// guarantee applies to hop counts only.
///
/// # Example
///
/// ```
/// use ftspan_spanners::{ClusterSpanner, SpannerAlgorithm};
/// use ftspan_graph::{generate, verify};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
/// let g = generate::gnp(60, 0.2, generate::WeightKind::Unit, &mut rng);
/// let alg = ClusterSpanner::with_radius(1); // stretch 5
/// let s = alg.build(&g, &mut rng);
/// assert!(verify::is_k_spanner(&g, &s, 5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpanner {
    radius: usize,
}

impl ClusterSpanner {
    /// Creates a cluster spanner carving balls of the given hop `radius`.
    pub fn with_radius(radius: usize) -> Self {
        ClusterSpanner { radius }
    }

    /// Creates a cluster spanner whose stretch is at most `k`, i.e. with
    /// radius `⌊(k − 1) / 4⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 1`.
    pub fn for_stretch(k: usize) -> Self {
        assert!(k >= 1, "stretch must be at least 1");
        ClusterSpanner {
            radius: (k - 1) / 4,
        }
    }

    /// The ball radius used when carving clusters.
    pub fn radius(&self) -> usize {
        self.radius
    }
}

impl SpannerAlgorithm for ClusterSpanner {
    fn name(&self) -> &str {
        "cluster"
    }

    fn stretch(&self) -> f64 {
        (4 * self.radius + 1) as f64
    }

    fn build_masked(&self, graph: &Graph, live: &[bool], rng: &mut dyn RngCore) -> EdgeSet {
        let n = graph.node_count();
        let mut spanner = graph.empty_edge_set();
        if n == 0 {
            return spanner;
        }

        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);

        // cluster id of each vertex, usize::MAX = unclustered
        let mut cluster = vec![usize::MAX; n];
        let mut next_cluster = 0usize;

        for &start in &order {
            if cluster[start] != usize::MAX {
                continue;
            }
            let cid = next_cluster;
            next_cluster += 1;
            // BFS over unclustered vertices up to `radius` hops, adding tree
            // edges to the spanner.
            cluster[start] = cid;
            let mut queue = VecDeque::new();
            queue.push_back((NodeId::new(start), 0usize));
            while let Some((v, depth)) = queue.pop_front() {
                if depth == self.radius {
                    continue;
                }
                for (u, eid) in graph.incident(v).filter(|(_, eid)| live[eid.index()]) {
                    if cluster[u.index()] == usize::MAX {
                        cluster[u.index()] = cid;
                        spanner.insert(eid);
                        queue.push_back((u, depth + 1));
                    }
                }
            }
        }

        // One representative edge per pair of adjacent clusters.
        let mut picked: HashMap<(usize, usize), ftspan_graph::EdgeId> = HashMap::new();
        for (eid, e) in graph.edges().filter(|(eid, _)| live[eid.index()]) {
            let cu = cluster[e.u.index()];
            let cv = cluster[e.v.index()];
            if cu != cv {
                let key = (cu.min(cv), cu.max(cv));
                picked.entry(key).or_insert(eid);
            }
        }
        for (_, eid) in picked {
            spanner.insert(eid);
        }
        spanner
    }

    fn size_bound(&self, n: usize) -> f64 {
        // n - 1 tree edges plus at most one edge per cluster pair; with q
        // clusters that is q(q-1)/2, and q <= n, so the loose worst case is
        // quadratic. Experiments report measured sizes instead.
        (n as f64) + (n as f64) * (n as f64) / 2.0
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
    fn radius_zero_keeps_every_edge() {
        let g = generate::complete(8);
        let alg = ClusterSpanner::with_radius(0);
        assert_eq!(alg.stretch(), 1.0);
        let s = alg.build(&g, &mut rng(1));
        assert_eq!(s.len(), g.edge_count());
    }

    #[test]
    fn for_stretch_maps_to_radius() {
        assert_eq!(ClusterSpanner::for_stretch(1).radius(), 0);
        assert_eq!(ClusterSpanner::for_stretch(5).radius(), 1);
        assert_eq!(ClusterSpanner::for_stretch(9).radius(), 2);
        assert_eq!(ClusterSpanner::for_stretch(7).radius(), 1);
    }

    #[test]
    fn stretch_guarantee_on_unit_graphs() {
        let mut r = rng(2);
        for radius in [1usize, 2] {
            for _ in 0..4 {
                let g = generate::gnp(50, 0.15, generate::WeightKind::Unit, &mut r);
                let alg = ClusterSpanner::with_radius(radius);
                let s = alg.build(&g, &mut r);
                assert!(
                    verify::is_k_spanner(&g, &s, alg.stretch()),
                    "not a {}-spanner with radius {radius}",
                    alg.stretch()
                );
            }
        }
    }

    #[test]
    fn grid_spanner_preserves_connectivity() {
        let g = generate::grid(8, 8);
        let alg = ClusterSpanner::with_radius(2);
        let s = alg.build(&g, &mut rng(3));
        let sub = g.subgraph(&s).unwrap();
        assert!(sub.is_connected());
        assert!(verify::is_k_spanner(&g, &s, alg.stretch()));
    }

    #[test]
    fn handles_empty_graph() {
        let g = Graph::new(0);
        let s = ClusterSpanner::with_radius(1).build(&g, &mut rng(4));
        assert!(s.is_empty());
    }

    #[test]
    fn dense_graph_is_compressed() {
        let g = generate::complete(40);
        let alg = ClusterSpanner::with_radius(1);
        let s = alg.build(&g, &mut rng(5));
        // One cluster swallows everything at radius 1 of the first center in
        // K_n, so the spanner is close to a tree.
        assert!(s.len() < g.edge_count() / 2);
        assert!(verify::is_k_spanner(&g, &s, alg.stretch()));
    }

    #[test]
    fn reports_metadata() {
        let alg = ClusterSpanner::with_radius(3);
        assert_eq!(alg.name(), "cluster");
        assert_eq!(alg.stretch(), 13.0);
        assert!(alg.size_bound(10) > 0.0);
    }
}

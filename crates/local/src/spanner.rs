//! The distributed fault-tolerant spanner conversion (Theorem 2.3 /
//! Corollary 2.4).
//!
//! Theorem 2.3 observes that the conversion of Theorem 2.1 is trivially
//! distributed: the fault-set oversampling is a purely local coin flip at
//! every vertex, so if the underlying `k`-spanner algorithm is distributed
//! (takes `t(n)` rounds), the whole construction takes `O(r³ log n · t(n))`
//! rounds.
//!
//! The underlying distributed black box here is the classic one-level
//! clustering 3-spanner (the `k = 2` case of Baswana–Sen): every vertex
//! becomes a cluster center with probability `n^{-1/2}`; every other vertex
//! either joins an adjacent center (keeping that star edge) or, if it has no
//! sampled neighbor, keeps all its edges; finally every vertex keeps one edge
//! into every adjacent cluster. This takes a constant number of LOCAL rounds,
//! produces a 3-spanner of expected size `O(n^{3/2})` on unit-length graphs,
//! and — unlike ball-carving with weak-diameter clusters — has connected
//! (star) clusters, so the stretch argument is exact. It stands in for the
//! Derbel–Gavoille–Peleg–Viennot construction of Corollary 2.4 (see the
//! *Substitutions* section of the workspace README).

use crate::simulator::{RoundStats, Simulator};
use ftspan_graph::{EdgeSet, Graph, NodeId};
use rand::Rng;
use rand::RngCore;

/// Configuration of the distributed conversion (stretch 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedConversionConfig {
    /// Number of vertex faults `r` to tolerate.
    pub faults: usize,
    /// Explicit number of iterations; `None` uses the Theorem 2.1 default
    /// (see [`ftspan_core::conversion::ConversionParams`]).
    pub iterations: Option<usize>,
    /// Scale factor on the default iteration count.
    pub scale: f64,
}

impl DistributedConversionConfig {
    /// Configuration tolerating `faults` failures (stretch is 3; the
    /// `stretch` argument is kept for symmetry with the centralized API and
    /// must be 3).
    ///
    /// # Panics
    ///
    /// Panics if `stretch != 3`.
    pub fn new(faults: usize, stretch: usize) -> Self {
        assert_eq!(
            stretch, 3,
            "the distributed black box implemented here is a 3-spanner; \
             use the centralized conversion for other stretches"
        );
        DistributedConversionConfig {
            faults,
            iterations: None,
            scale: 1.0,
        }
    }

    /// Overrides the iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Scales the default iteration count.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.scale = scale;
        self
    }

    /// The stretch guaranteed by the construction.
    pub fn stretch(&self) -> f64 {
        3.0
    }

    fn conversion_params(&self) -> ftspan_core::conversion::ConversionParams {
        let mut p =
            ftspan_core::conversion::ConversionParams::new(self.faults).with_scale(self.scale);
        if let Some(it) = self.iterations {
            p = p.with_iterations(it);
        }
        p
    }
}

/// Output of the distributed conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedSpanner {
    /// The edges of the fault-tolerant spanner (over the input graph's edge
    /// identifiers).
    pub edges: EdgeSet,
    /// Number of conversion iterations executed.
    pub iterations: usize,
    /// Measured round/message accounting over the whole execution.
    pub stats: RoundStats,
}

/// One run of the distributed 3-spanner (one-level clustering) on the
/// surviving vertices `alive`.
///
/// The construction uses exactly two communication rounds on the simulator:
/// one in which sampled centers announce themselves, and one in which every
/// vertex announces the cluster it joined.
pub fn distributed_three_spanner(
    graph: &Graph,
    alive: &[bool],
    sim: &mut Simulator<'_>,
    rng: &mut dyn RngCore,
) -> EdgeSet {
    let n = graph.node_count();
    let mut spanner = graph.empty_edge_set();
    if n == 0 {
        return spanner;
    }
    assert_eq!(alive.len(), n, "one liveness flag per vertex required");

    let alive_count = alive.iter().filter(|&&a| a).count().max(1);
    let sample_p = (alive_count as f64).powf(-0.5);

    // Every surviving vertex flips its sampling coin locally.
    let sampled: Vec<bool> = (0..n)
        .map(|v| alive[v] && rng.gen::<f64>() < sample_p)
        .collect();

    // Round 1: sampled vertices announce themselves.
    let inboxes = sim.exchange(|sender, _| {
        if sampled[sender.index()] {
            Some(sender.index())
        } else {
            None
        }
    });

    // Local step: every unsampled surviving vertex either joins the
    // smallest-id sampled neighbor (keeping that edge) or, if it heard no
    // center, keeps every edge to a surviving neighbor.
    // cluster_of[v] = Some(center) for clustered vertices.
    let mut cluster_of: Vec<Option<NodeId>> = vec![None; n];
    for v in 0..n {
        if !alive[v] {
            continue;
        }
        if sampled[v] {
            cluster_of[v] = Some(NodeId::new(v));
            continue;
        }
        let mut centers: Vec<usize> = inboxes[v]
            .iter()
            .filter(|&&(from, _)| alive[from.index()])
            .map(|&(_, c)| c)
            .collect();
        centers.sort_unstable();
        if let Some(&c) = centers.first() {
            cluster_of[v] = Some(NodeId::new(c));
            if let Some(eid) = graph.find_edge(NodeId::new(v), NodeId::new(c)) {
                spanner.insert(eid);
            }
        } else {
            // Unclustered: keep every edge to a surviving neighbor.
            for (u, eid) in graph.incident(NodeId::new(v)) {
                if alive[u.index()] {
                    spanner.insert(eid);
                }
            }
        }
    }

    // Round 2: every clustered vertex announces its cluster id; every
    // surviving vertex then keeps one edge (to its smallest-id neighbor) into
    // each adjacent foreign cluster.
    let announcements = sim.exchange(|sender, _| {
        if alive[sender.index()] {
            cluster_of[sender.index()].map(|c| c.index())
        } else {
            None
        }
    });
    for v in 0..n {
        if !alive[v] {
            continue;
        }
        let own = cluster_of[v];
        let mut best_per_cluster: std::collections::HashMap<usize, NodeId> =
            std::collections::HashMap::new();
        for &(from, cluster) in &announcements[v] {
            if !alive[from.index()] || Some(NodeId::new(cluster)) == own {
                continue;
            }
            best_per_cluster
                .entry(cluster)
                .and_modify(|cur| {
                    if from < *cur {
                        *cur = from;
                    }
                })
                .or_insert(from);
        }
        for (_, neighbor) in best_per_cluster {
            if let Some(eid) = graph.find_edge(NodeId::new(v), neighbor) {
                spanner.insert(eid);
            }
        }
    }
    spanner
}

/// The distributed conversion of Theorem 2.3: every vertex locally samples
/// whether it joins the oversized fault set `J`, the distributed 3-spanner
/// runs on `G \ J`, and the union over `α` iterations is returned.
pub fn distributed_fault_tolerant_spanner(
    graph: &Graph,
    config: &DistributedConversionConfig,
    rng: &mut dyn RngCore,
) -> DistributedSpanner {
    let n = graph.node_count();
    let params = config.conversion_params();
    let alpha = params.iterations_for(n);
    let p = params.sampling_probability();

    let mut union = graph.empty_edge_set();
    let mut stats = RoundStats::default();
    for _ in 0..alpha {
        // Local coin flip at every vertex; no communication needed.
        let alive: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() >= p).collect();
        let mut sim = Simulator::new(graph);
        let edges = distributed_three_spanner(graph, &alive, &mut sim, rng);
        union.union_with(&edges);
        stats.absorb(sim.stats());
    }
    DistributedSpanner {
        edges: union,
        iterations: alpha,
        stats,
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
    fn non_three_stretch_rejected() {
        DistributedConversionConfig::new(1, 5);
    }

    #[test]
    fn three_spanner_is_valid_on_random_graphs() {
        let mut r = rng(1);
        for _ in 0..5 {
            let g = generate::gnp(40, 0.2, generate::WeightKind::Unit, &mut r);
            let alive = vec![true; 40];
            let mut sim = Simulator::new(&g);
            let s = distributed_three_spanner(&g, &alive, &mut sim, &mut r);
            assert!(verify::is_k_spanner(&g, &s, 3.0), "not a 3-spanner");
            assert_eq!(sim.stats().rounds, 2);
        }
    }

    #[test]
    fn three_spanner_compresses_dense_graphs() {
        let mut r = rng(2);
        let g = generate::complete(60);
        let alive = vec![true; 60];
        let mut sim = Simulator::new(&g);
        let s = distributed_three_spanner(&g, &alive, &mut sim, &mut r);
        assert!(verify::is_k_spanner(&g, &s, 3.0));
        // Expected size O(n^{3/2}) = ~465, far below the 1770 edges of K_60.
        assert!(s.len() < 1200, "spanner too dense: {}", s.len());
    }

    #[test]
    fn three_spanner_ignores_dead_vertices() {
        let mut r = rng(3);
        let g = generate::gnp(30, 0.3, generate::WeightKind::Unit, &mut r);
        let mut alive = vec![true; 30];
        for dead in [3usize, 7, 11] {
            alive[dead] = false;
        }
        let mut sim = Simulator::new(&g);
        let s = distributed_three_spanner(&g, &alive, &mut sim, &mut r);
        for eid in s.iter() {
            let e = g.edge(eid);
            assert!(alive[e.u.index()] && alive[e.v.index()]);
        }
        // And it spans the survivors with stretch 3 — checked through a
        // fault-scoped session on the adopted artifact instead of an ad-hoc
        // subgraph + re-Dijkstra sweep.
        let artifact = ftspan_core::FtSpanner::from_edge_set(
            &g,
            s,
            "distributed-three-spanner",
            "one oversampling iteration of Theorem 2.3",
            ftspan_core::FaultModel::Vertex,
            3,
            3.0,
        )
        .unwrap();
        let session = artifact
            .under_faults(&[NodeId::new(3), NodeId::new(7), NodeId::new(11)])
            .unwrap();
        assert!(session.is_within_guarantee());
    }

    #[test]
    fn distributed_conversion_is_fault_tolerant() {
        let mut r = rng(4);
        let g = generate::gnp(22, 0.4, generate::WeightKind::Unit, &mut r);
        let cfg = DistributedConversionConfig::new(1, 3);
        let out = distributed_fault_tolerant_spanner(&g, &cfg, &mut r);
        // Fault tolerance, verified one session per fault set.
        let artifact = ftspan_core::FtSpanner::from_edge_set(
            &g,
            out.edges.clone(),
            "distributed-conversion",
            "Theorem 2.3 conversion",
            ftspan_core::FaultModel::Vertex,
            1,
            3.0,
        )
        .unwrap();
        for faults in ftspan_graph::faults::enumerate_fault_sets(g.node_count(), 1) {
            let session = artifact.under_faults(faults.nodes()).unwrap();
            assert!(
                session.is_within_guarantee(),
                "fault set {:?} broke the spanner",
                faults.nodes()
            );
        }
        assert_eq!(out.iterations, cfg.conversion_params().iterations_for(22));
        // Two communication rounds per iteration.
        assert_eq!(out.stats.rounds, out.iterations * 2);
    }

    #[test]
    fn round_count_scales_with_iterations() {
        let mut r = rng(5);
        let g = generate::gnp(20, 0.3, generate::WeightKind::Unit, &mut r);
        let few = DistributedConversionConfig::new(1, 3).with_iterations(5);
        let many = DistributedConversionConfig::new(1, 3).with_iterations(20);
        let out_few = distributed_fault_tolerant_spanner(&g, &few, &mut r);
        let out_many = distributed_fault_tolerant_spanner(&g, &many, &mut r);
        assert_eq!(out_few.stats.rounds, 5 * 2);
        assert_eq!(out_many.stats.rounds, 20 * 2);
        assert!(out_many.edges.len() >= out_few.edges.len());
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = Graph::new(0);
        let cfg = DistributedConversionConfig::new(1, 3).with_iterations(3);
        let out = distributed_fault_tolerant_spanner(&g, &cfg, &mut rng(6));
        assert!(out.edges.is_empty());
    }
}

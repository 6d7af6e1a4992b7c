//! Differential test of the Baswana–Sen kernel against the original
//! implementation.
//!
//! The reference below is the construction as it was first written: a
//! `BTreeMap` of adjacent clusters per vertex, a `HashSet` of sampled
//! centers, and one pass over the incident edges per discarded cluster. The
//! allocation-free builder must select exactly the same edges *and* leave
//! the random generator in exactly the same state — the conversion theorem
//! runs the black box inside per-iteration streams, so a kernel that drew
//! one coin more or less would shift every later draw. Inputs cover unit
//! weights (ties everywhere), a few distinct weights (long tie runs) and
//! continuous weights, at k = 1, 2 and 3.

use ftspan_graph::{generate, EdgeId, EdgeSet, Graph, NodeId};
use ftspan_spanners::{BaswanaSenSpanner, SpannerAlgorithm};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashSet};

/// The original Baswana–Sen implementation, kept verbatim.
struct ReferenceBaswanaSen {
    k: usize,
}

impl ReferenceBaswanaSen {
    /// Minimum-weight alive edge from `v` to each adjacent cluster.
    ///
    /// Keyed by a `BTreeMap` so iteration (and therefore tie-breaking among
    /// equal-weight edges) is ordered by cluster id: the construction must be
    /// a pure function of `(graph, rng state)` for the workspace's
    /// determinism guarantees, which rules out hash-ordered traversal.
    fn neighbor_clusters(
        graph: &Graph,
        alive: &[bool],
        cluster: &[Option<usize>],
        v: NodeId,
    ) -> BTreeMap<usize, (f64, EdgeId)> {
        let mut best: BTreeMap<usize, (f64, EdgeId)> = BTreeMap::new();
        for (u, eid) in graph.incident(v) {
            if !alive[eid.index()] {
                continue;
            }
            if let Some(c) = cluster[u.index()] {
                let w = graph.edge(eid).weight;
                best.entry(c)
                    .and_modify(|entry| {
                        if w < entry.0 {
                            *entry = (w, eid);
                        }
                    })
                    .or_insert((w, eid));
            }
        }
        best
    }

    /// Discards every alive edge between `v` and the cluster `c`.
    fn discard_edges_to_cluster(
        graph: &Graph,
        alive: &mut [bool],
        cluster: &[Option<usize>],
        v: NodeId,
        c: usize,
    ) {
        for (u, eid) in graph.incident(v) {
            if alive[eid.index()] && cluster[u.index()] == Some(c) {
                alive[eid.index()] = false;
            }
        }
    }

    fn build(&self, graph: &Graph, rng: &mut dyn RngCore) -> EdgeSet {
        let n = graph.node_count();
        let mut spanner = graph.empty_edge_set();
        if n == 0 || graph.edge_count() == 0 {
            return spanner;
        }
        let p = (n as f64).powf(-1.0 / self.k as f64);

        let mut alive = vec![true; graph.edge_count()];
        // cluster[v] = Some(center) while v is clustered, None once discarded.
        let mut cluster: Vec<Option<usize>> = (0..n).map(Some).collect();

        // Phase 1: k - 1 rounds of cluster sampling.
        for _round in 0..self.k.saturating_sub(1) {
            // Which cluster centers survive this round? The coin flips are
            // assigned to centers in ascending id order so the sampled set is
            // a pure function of the rng state (hash order is not).
            let mut centers: Vec<usize> = cluster.iter().flatten().copied().collect();
            centers.sort_unstable();
            centers.dedup();
            let sampled: HashSet<usize> = centers
                .into_iter()
                .filter(|_| rng.gen::<f64>() < p)
                .collect();

            let mut next_cluster: Vec<Option<usize>> = vec![None; n];
            // Vertices of sampled clusters stay put.
            for v in 0..n {
                if let Some(c) = cluster[v] {
                    if sampled.contains(&c) {
                        next_cluster[v] = Some(c);
                    }
                }
            }

            for v_idx in 0..n {
                let v = NodeId::new(v_idx);
                let Some(own) = cluster[v_idx] else { continue };
                if sampled.contains(&own) {
                    continue;
                }
                let neighbors = Self::neighbor_clusters(graph, &alive, &cluster, v);
                // Closest sampled neighbor cluster, if any.
                let best_sampled = neighbors
                    .iter()
                    .filter(|(c, _)| sampled.contains(c))
                    .min_by(|a, b| {
                        a.1 .0
                            .partial_cmp(&b.1 .0)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(&c, &(w, e))| (c, w, e));

                match best_sampled {
                    None => {
                        // No sampled neighbor: buy the cheapest edge to every
                        // neighboring cluster and drop out of the clustering.
                        for (&c, &(_w, e)) in &neighbors {
                            spanner.insert(e);
                            Self::discard_edges_to_cluster(graph, &mut alive, &cluster, v, c);
                        }
                        next_cluster[v_idx] = None;
                    }
                    Some((c_star, w_star, e_star)) => {
                        spanner.insert(e_star);
                        next_cluster[v_idx] = Some(c_star);
                        Self::discard_edges_to_cluster(graph, &mut alive, &cluster, v, c_star);
                        for (&c, &(w, e)) in &neighbors {
                            if c != c_star && w < w_star {
                                spanner.insert(e);
                                Self::discard_edges_to_cluster(graph, &mut alive, &cluster, v, c);
                            }
                        }
                    }
                }
            }

            // Remove edges that became internal to a cluster.
            for (eid, e) in graph.edges() {
                if alive[eid.index()] {
                    if let (Some(cu), Some(cv)) =
                        (next_cluster[e.u.index()], next_cluster[e.v.index()])
                    {
                        if cu == cv {
                            alive[eid.index()] = false;
                        }
                    }
                }
            }

            cluster = next_cluster;
        }

        // Phase 2: every vertex buys the cheapest edge to each remaining
        // adjacent cluster.
        for v_idx in 0..n {
            let v = NodeId::new(v_idx);
            let neighbors = Self::neighbor_clusters(graph, &alive, &cluster, v);
            for (&c, &(_w, e)) in &neighbors {
                spanner.insert(e);
                Self::discard_edges_to_cluster(graph, &mut alive, &cluster, v, c);
            }
        }

        spanner
    }
}

/// A graph on `n` vertices with the edges picked by `bits`; `family`
/// chooses the weights: 0 unit, 1 one of three values, 2 continuous.
fn random_graph(n: usize, bits: &[bool], family: usize, picks: &[u64], reals: &[f64]) -> Graph {
    let mut g = Graph::new(n);
    let mut idx = 0usize;
    for u in 0..n {
        for v in (u + 1)..n {
            if bits.get(idx).copied().unwrap_or(false) {
                let w = match family {
                    0 => 1.0,
                    1 => [1.0, 2.0, 3.0][(picks.get(idx).copied().unwrap_or(0) % 3) as usize],
                    _ => reals.get(idx).copied().unwrap_or(1.0),
                };
                g.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
            }
            idx += 1;
        }
    }
    g
}

/// Builds with both kernels from the same generator state and compares the
/// selected edges and the generator state afterwards.
fn assert_matches_reference(g: &Graph, k: usize, seed: u64) -> Result<(), TestCaseError> {
    let mut got_rng = ChaCha8Rng::seed_from_u64(seed);
    let mut want_rng = ChaCha8Rng::seed_from_u64(seed);
    let got = BaswanaSenSpanner::new(k).build(g, &mut got_rng);
    let want = ReferenceBaswanaSen { k }.build(g, &mut want_rng);
    let got: Vec<usize> = got.iter().map(|e| e.index()).collect();
    let want: Vec<usize> = want.iter().map(|e| e.index()).collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Identical edges and generator state on random graphs of every weight
    /// family at k = 1, 2, 3.
    #[test]
    fn baswana_sen_matches_the_reference(
        n in 1usize..40,
        bits in proptest::collection::vec(any::<bool>(), 0..780),
        family in 0usize..3,
        picks in proptest::collection::vec(any::<u64>(), 0..780),
        reals in proptest::collection::vec(0.01f64..5.0, 0..780),
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, &bits, family, &picks, &reals);
        assert_matches_reference(&g, k, seed)?;
    }
}

#[test]
fn baswana_sen_matches_the_reference_on_larger_graphs() {
    // Sparse meshes like the conversion's induced subgraphs, and denser
    // random graphs with every weight family, at k = 1, 2, 3.
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    let mut graphs = vec![generate::grid(12, 12)];
    for family in 0..3 {
        let n = 120;
        let bits: Vec<bool> = (0..n * (n - 1) / 2).map(|_| rng.gen_bool(0.08)).collect();
        let picks: Vec<u64> = bits.iter().map(|_| rng.next_u64()).collect();
        let reals: Vec<f64> = bits.iter().map(|_| rng.gen_range(0.01..5.0)).collect();
        graphs.push(random_graph(n, &bits, family, &picks, &reals));
    }
    for (i, g) in graphs.iter().enumerate() {
        for k in 1..=3 {
            for seed in 0..4 {
                assert_matches_reference(g, k, seed)
                    .unwrap_or_else(|e| panic!("graph {i}, k = {k}, seed {seed}: {e:?}"));
            }
        }
    }
}

//! Differential test of the greedy spanner against its definition.
//!
//! The reference below is the construction of Althöfer et al. written out
//! literally: sort the edges as `GreedySpanner` does, then for each edge run
//! a full, unpruned Dijkstra from its lower endpoint over the edges selected
//! so far and keep the edge when the distance exceeds `k · w`. The optimized
//! builder must select exactly the same edge set, including on inputs where
//! floating-point path sums land on the `k · w` boundary (decimal weights),
//! where ties decide the order (few distinct weights), and where zero-length
//! edges (both `0.0` and `-0.0`) make distances collapse.

use ftspan_graph::{shortest_path, EdgeSet, Graph, NodeId};
use ftspan_spanners::{GreedySpanner, SpannerAlgorithm};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const STRETCHES: [f64; 4] = [1.0, 2.0, 3.0, 5.0];

/// The greedy spanner by definition, one full Dijkstra per edge.
fn reference_greedy(graph: &Graph, k: f64) -> EdgeSet {
    let mut order: Vec<_> = graph.edges().map(|(id, e)| (e.weight, id)).collect();
    order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut spanner = graph.empty_edge_set();
    for (w, id) in order {
        let e = graph.edge(id);
        let dist = shortest_path::dijkstra_on_edges(graph, &spanner, e.u).unwrap();
        if dist[e.v.index()] > k * w {
            spanner.insert(id);
        }
    }
    spanner
}

/// An edge weight from one of the weight families: `pick` chooses within
/// the discrete families, `continuous` is the weight of the last one.
fn weight(family: usize, pick: u64, continuous: f64) -> f64 {
    match family {
        // Unit weights: every decision is a tie on the sort key.
        0 => 1.0,
        // Few distinct weights: long runs of ties.
        1 => [1.0, 2.0, 3.0][(pick % 3) as usize],
        // Decimals whose sums round across the k·w boundary, e.g.
        // (0.1 + 0.2) + 0.3 > 0.6 while (0.3 + 0.2) + 0.1 == 0.6.
        2 => [0.1, 0.2, 0.3, 0.6, 0.7][(pick % 5) as usize],
        // Zero-length edges of both signs beside positive ones.
        3 => [0.0, -0.0, 0.5, 1.0][(pick % 4) as usize],
        _ => continuous,
    }
}

fn random_graph(n: usize, bits: &[bool], family: usize, picks: &[u64], reals: &[f64]) -> Graph {
    let mut g = Graph::new(n);
    let mut idx = 0usize;
    for u in 0..n {
        for v in (u + 1)..n {
            if bits.get(idx).copied().unwrap_or(false) {
                let w = weight(
                    family,
                    picks.get(idx).copied().unwrap_or(0),
                    reals.get(idx).copied().unwrap_or(1.0),
                );
                g.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
            }
            idx += 1;
        }
    }
    g
}

fn assert_matches_reference(g: &Graph, k: f64) -> Result<(), TestCaseError> {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let got = GreedySpanner::new(k).build(g, &mut rng);
    let want = reference_greedy(g, k);
    let got: Vec<usize> = got.iter().map(|e| e.index()).collect();
    let want: Vec<usize> = want.iter().map(|e| e.index()).collect();
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The builder selects exactly the reference's edges on random graphs of
    /// every weight family and stretch.
    #[test]
    fn greedy_matches_the_definition(
        n in 2usize..24,
        bits in proptest::collection::vec(any::<bool>(), 0..276),
        family in 0usize..5,
        picks in proptest::collection::vec(any::<u64>(), 0..276),
        reals in proptest::collection::vec(0.01f64..5.0, 0..276),
        k in 0usize..4,
    ) {
        let g = random_graph(n, &bits, family, &picks, &reals);
        assert_matches_reference(&g, STRETCHES[k])?;
    }
}

#[test]
fn greedy_matches_the_definition_on_denser_graphs() {
    // Larger, denser inputs than the proptest draws: many edges per check,
    // so the pruned early-exit search is exercised at depth.
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    for family in 0..5 {
        for k in STRETCHES {
            let n = 60;
            let bits: Vec<bool> = (0..n * (n - 1) / 2).map(|_| rng.gen_bool(0.3)).collect();
            let picks: Vec<u64> = bits.iter().map(|_| rng.next_u64()).collect();
            let reals: Vec<f64> = bits.iter().map(|_| rng.gen_range(0.01..5.0)).collect();
            let g = random_graph(n, &bits, family, &picks, &reals);
            assert_matches_reference(&g, k)
                .unwrap_or_else(|e| panic!("family {family}, k = {k}: {e:?}"));
        }
    }
}

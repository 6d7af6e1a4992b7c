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
//!
//! Every run of the Theorem 2.1 conversion goes through
//! [`SpannerAlgorithm::build_masked`], so every case runs it against the
//! reference on the masked subgraph, unmasked and under vertex-induced and
//! edge masks, including hubs whose many equal-weight edges are decided
//! exactly at `k · w`, and long cycles and ladders where the two sides of a
//! bidirectional check meet far from both endpoints.

use ftspan_graph::{shortest_path, EdgeSet, Graph, NodeId};
use ftspan_spanners::{GreedySpanner, SpannerAlgorithm};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const STRETCHES: [f64; 4] = [1.0, 2.0, 3.0, 5.0];

/// The greedy spanner by definition, one full Dijkstra per edge, and the
/// lower endpoint of every edge whose distance was exactly `k · w`.
fn reference_greedy(graph: &Graph, k: f64) -> (EdgeSet, Vec<NodeId>) {
    let mut order: Vec<_> = graph.edges().map(|(id, e)| (e.weight, id)).collect();
    order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut spanner = graph.empty_edge_set();
    let mut boundary = Vec::new();
    for (w, id) in order {
        let e = graph.edge(id);
        let dist = shortest_path::dijkstra_on_edges(graph, &spanner, e.u).unwrap();
        if dist[e.v.index()] == k * w {
            boundary.push(e.u);
        }
        if dist[e.v.index()] > k * w {
            spanner.insert(id);
        }
    }
    (spanner, boundary)
}

/// The reference on the masked subgraph: the live edges copied into a fresh
/// graph on the same vertex set (in edge-id order), the selection mapped
/// back to the parent's ids, and the boundary roots.
fn reference_masked(graph: &Graph, live: &[bool], k: f64) -> (Vec<usize>, Vec<NodeId>) {
    let mut sub = Graph::new(graph.node_count());
    let mut ids = Vec::new();
    for (id, e) in graph.edges() {
        if live[id.index()] {
            sub.add_edge(e.u, e.v, e.weight).unwrap();
            ids.push(id.index());
        }
    }
    let (spanner, boundary) = reference_greedy(&sub, k);
    (spanner.iter().map(|e| ids[e.index()]).collect(), boundary)
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

/// Checks `build_masked` against the reference on the masked subgraph and
/// returns the reference's boundary roots.
fn assert_matches_reference(
    g: &Graph,
    live: &[bool],
    k: f64,
) -> Result<Vec<NodeId>, TestCaseError> {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let got = GreedySpanner::new(k).build_masked(g, live, &mut rng);
    let got: Vec<usize> = got.iter().map(|e| e.index()).collect();
    let (want, boundary) = reference_masked(g, live, k);
    prop_assert_eq!(got, want);
    Ok(boundary)
}

/// The edge masks [`mask`] draws, by kind.
const MASKS: [&str; 3] = ["unmasked", "vertex-induced", "edge"];

/// Every edge live (kind 0), the edges between vertices that are `alive`
/// (kind 1, `alive` indexed by vertex), or the edges that are `alive` (kind
/// 2, indexed by edge id).
fn mask(g: &Graph, kind: usize, alive: &[bool]) -> Vec<bool> {
    g.edges()
        .map(|(id, e)| match kind {
            0 => true,
            1 => alive[e.u.index()] && alive[e.v.index()],
            _ => alive[id.index()],
        })
        .collect()
}

/// Hub weights, 0.1 twice as likely as the others: a fold of `k` 0.1s is
/// exactly `k · 0.1` for every stretch tested (0.1 + 0.1 + 0.1 and 3 · 0.1
/// are both 0.30000000000000004), while 0.1 + 0.2 overshoots 0.3.
const HUB_WEIGHTS: [f64; 4] = [0.1, 0.1, 0.2, 0.3];

/// A hub graph: every pair of the vertices `1..n` joined with probability
/// `p`, then vertex 0 joined to each of them, all with decimal weights.
/// Vertex 0 is the lower endpoint of each of its edges, and its edges come
/// last in id order, so among equal weights they are decided after the
/// others.
fn hub_graph(n: usize, p: f64, rng: &mut ChaCha8Rng) -> Graph {
    let mut g = Graph::new(n);
    let join = |g: &mut Graph, u: usize, v: usize, rng: &mut ChaCha8Rng| {
        let w = HUB_WEIGHTS[rng.gen_range(0..HUB_WEIGHTS.len())];
        g.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
    };
    for u in 1..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                join(&mut g, u, v, rng);
            }
        }
    }
    for v in 1..n {
        join(&mut g, 0, v, rng);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The builder selects exactly the reference's edges on random graphs of
    /// every weight family and stretch, unmasked and through vertex-induced
    /// and edge masks.
    #[test]
    fn greedy_matches_the_definition(
        n in 2usize..24,
        bits in proptest::collection::vec(any::<bool>(), 0..276),
        family in 0usize..5,
        picks in proptest::collection::vec(any::<u64>(), 0..276),
        reals in proptest::collection::vec(0.01f64..5.0, 0..276),
        k in 0usize..4,
        kind in 0usize..3,
        alive in proptest::collection::vec(any::<bool>(), 276..277),
    ) {
        let g = random_graph(n, &bits, family, &picks, &reals);
        assert_matches_reference(&g, &mask(&g, kind, &alive), STRETCHES[k])?;
    }
}

#[test]
fn greedy_matches_the_definition_on_denser_graphs() {
    // Larger, denser inputs than the proptest draws: many edges per check,
    // so the pruned early-exit search is exercised at depth, under each
    // kind of mask.
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    let mut mask_rng = ChaCha8Rng::seed_from_u64(2013);
    for family in 0..5 {
        for k in STRETCHES {
            let n = 60;
            let bits: Vec<bool> = (0..n * (n - 1) / 2).map(|_| rng.gen_bool(0.3)).collect();
            let picks: Vec<u64> = bits.iter().map(|_| rng.next_u64()).collect();
            let reals: Vec<f64> = bits.iter().map(|_| rng.gen_range(0.01..5.0)).collect();
            let g = random_graph(n, &bits, family, &picks, &reals);
            let alive: Vec<bool> = bits.iter().map(|_| mask_rng.gen_bool(0.75)).collect();
            for (kind, name) in MASKS.iter().enumerate() {
                assert_matches_reference(&g, &mask(&g, kind, &alive), k)
                    .unwrap_or_else(|e| panic!("family {family}, k = {k}, {name}: {e:?}"));
            }
        }
    }
}

#[test]
fn masked_greedy_matches_the_definition_on_hubs() {
    // Hubs of 20 to 38 edges, unmasked, with a vertex-induced mask that
    // keeps the hub, and with an edge mask. The hub's decisions that land
    // exactly on `k · w` are counted, so the family provably reaches the
    // boundary, where a meeting's estimate can say "covered" while the fold
    // from the hub does not.
    let mut rng = ChaCha8Rng::seed_from_u64(2017);
    for k in STRETCHES {
        let mut at_boundary = 0;
        for case in 0..24 {
            let n = 21 + case % 19;
            let g = hub_graph(n, 0.2, &mut rng);
            let mut alive: Vec<bool> = (0..g.edge_count().max(n))
                .map(|_| rng.gen_bool(0.8))
                .collect();
            alive[0] = true;
            for (kind, name) in MASKS.iter().enumerate() {
                let boundary = assert_matches_reference(&g, &mask(&g, kind, &alive), k)
                    .unwrap_or_else(|e| panic!("k = {k}, case {case}, {name}: {e:?}"));
                at_boundary += boundary.iter().filter(|&&u| u == NodeId::new(0)).count();
            }
        }
        assert!(
            at_boundary >= 20,
            "k = {k}: only {at_boundary} hub decisions at k · w"
        );
    }
}

/// Long-path weights: a path of many of them folds to different sums from
/// its two ends, e.g. (0.1 + 0.2) + 0.3 > 0.6 == (0.3 + 0.2) + 0.1.
const LONG_WEIGHTS: [f64; 3] = [0.1, 0.2, 0.3];

/// A long sparse graph with weights from [`LONG_WEIGHTS`]: a cycle through
/// `0..n` with chords spanning 2 to `n / 4` cycle edges (`ladder` false), or
/// a ladder whose two rails are the paths `0..n/2` and `n/2..n`, joined by
/// rungs `(i, n/2 + i)` (`ladder` true). Each vertex starts one chord of a
/// random span, or each rung is present, with probability 0.3.
fn long_graph(n: usize, ladder: bool, rng: &mut ChaCha8Rng) -> Graph {
    let mut g = Graph::new(n);
    let mut join = |u: usize, v: usize, rng: &mut ChaCha8Rng| {
        let (u, v) = (NodeId::new(u), NodeId::new(v));
        if !g.has_edge(u, v) {
            let w = LONG_WEIGHTS[rng.gen_range(0..LONG_WEIGHTS.len())];
            g.add_edge(u, v, w).unwrap();
        }
    };
    let h = n / 2;
    for i in 0..n {
        if ladder {
            if i + 1 != h && i + 1 < n {
                join(i, i + 1, rng);
            }
        } else {
            join(i, (i + 1) % n, rng);
        }
    }
    for i in 0..n {
        if !rng.gen_bool(0.3) {
            continue;
        }
        if ladder {
            if i < h {
                join(i, h + i, rng);
            }
        } else {
            join(i, (i + rng.gen_range(2..n / 4 + 1)) % n, rng);
        }
    }
    g
}

#[test]
fn greedy_matches_the_definition_on_long_paths() {
    // Cycles with chords and ladders of 40 to 64 vertices, unmasked and
    // through both kinds of mask. A chord or rung of weight w can be covered
    // by a path of up to k · w / 0.1 (15 at k = 5) edges, so the two sides
    // of a check meet far from both endpoints, after many roundings. The
    // decisions that land exactly on `k · w` (59 over all stretches) are
    // counted, so the family provably reaches the boundary.
    let mut rng = ChaCha8Rng::seed_from_u64(2019);
    let mut at_boundary = 0;
    for k in STRETCHES {
        for case in 0..16 {
            let n = 40 + 8 * (case % 4);
            let g = long_graph(n, case % 2 == 1, &mut rng);
            let alive: Vec<bool> = (0..g.edge_count().max(n))
                .map(|_| rng.gen_bool(0.9))
                .collect();
            for (kind, name) in MASKS.iter().enumerate() {
                let boundary = assert_matches_reference(&g, &mask(&g, kind, &alive), k)
                    .unwrap_or_else(|e| panic!("k = {k}, case {case}, {name}: {e:?}"));
                at_boundary += boundary.len();
            }
        }
    }
    assert!(at_boundary >= 40, "only {at_boundary} decisions at k · w");
}

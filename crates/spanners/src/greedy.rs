//! The greedy spanner of Althöfer, Das, Dobkin, Joseph and Soares.

use crate::SpannerAlgorithm;
use ftspan_graph::shortest_path::HeapEntry;
use ftspan_graph::{EdgeSet, Graph, NodeId};
use rand::RngCore;
use std::collections::BinaryHeap;

/// The greedy `k`-spanner construction (Althöfer et al., Discrete Comput.
/// Geom. 1993).
///
/// Edges are examined in non-decreasing order of weight; an edge `(u, v)` is
/// added to the spanner exactly when the distance between `u` and `v` in the
/// spanner built so far exceeds `k · w(u, v)`.
///
/// For stretch `k = 2t − 1` the resulting spanner has girth greater than
/// `2t`, hence at most `O(n^{1+1/t})` edges — equivalently, for odd
/// `k` the size is `O(n^{1 + 2/(k+1)})`, the bound used by Corollary 2.2 of
/// the paper. The construction is deterministic and works with arbitrary
/// non-negative edge lengths.
///
/// # The distance check
///
/// Each check is a Dijkstra from `u` over an adjacency list holding only the
/// edges accepted so far, with one distance array (reset through the list of
/// vertices it touched) and one heap reused across checks. It drops every
/// relaxation above `k · w` and answers "covered" the moment a relaxation
/// reaches `v` within `k · w`. The decisions are exactly those of the
/// definition (a full Dijkstra from `u` over the spanner so far):
///
/// * Adding a non-negative weight to a float is monotone in the sum and never
///   decreases it, so any Dijkstra from `u` computes, for every vertex, the
///   minimum over paths of the path's weights folded left to right from `u`.
/// * A dropped relaxation starts a path whose fold already exceeds `k · w`;
///   extending it can never bring the fold back down, so pruning loses no
///   path that could cover the edge.
/// * The relaxation that reaches `v` within `k · w` is the fold of an actual
///   path, so the minimum is within `k · w` too and stopping there is safe.
/// * Before searching, the check looks at the label that the latest search
///   rooted at `u` gave `v`. That label is the fold from `u` of a path in the
///   spanner as it stood then; accepted edges are never removed, so the path
///   still exists and the minimum is at most the label. A recorded label
///   within `k · w` therefore answers "covered" exactly, and no search runs.
///   Only searches rooted at `u` answer: a label of `u` in a search rooted at
///   `v` folds the same path from the other end and can round differently.
///   A search records labels only for the unchecked edges rooted at `u`,
///   one slot per edge, so the records take `O(m)` memory and each search
///   `O(deg(u))` extra time.
///
/// Two things must not change, because both can flip a decision that sits
/// exactly at `k · w`. The order is a stable sort by `partial_cmp` on the
/// weight, ties in edge-id order (`total_cmp` would put `-0.0` before
/// `0.0`). The search folds sums outward from `u`: a search from `v`, or a
/// bidirectional one, adds the same path's weights in another order and can
/// round differently.
///
/// # Example
///
/// ```
/// use ftspan_spanners::{GreedySpanner, SpannerAlgorithm};
/// use ftspan_graph::{generate, verify};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let g = generate::complete(30);
/// let spanner = GreedySpanner::new(3.0).build(&g, &mut rng);
/// assert!(verify::is_k_spanner(&g, &spanner, 3.0));
/// // K_30 has 435 edges; the 3-spanner is much sparser.
/// assert!(spanner.len() < 200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedySpanner {
    stretch: f64,
}

impl GreedySpanner {
    /// Creates a greedy spanner construction with the given stretch `k >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `stretch < 1` or is not finite.
    pub fn new(stretch: f64) -> Self {
        assert!(
            stretch.is_finite() && stretch >= 1.0,
            "stretch must be a finite number >= 1, got {stretch}"
        );
        GreedySpanner { stretch }
    }
}

impl SpannerAlgorithm for GreedySpanner {
    fn name(&self) -> &str {
        "greedy"
    }

    fn stretch(&self) -> f64 {
        self.stretch
    }

    fn build_masked(&self, graph: &Graph, live: &[bool], _rng: &mut dyn RngCore) -> EdgeSet {
        select(graph, live, self.stretch).0
    }

    fn size_bound(&self, n: usize) -> f64 {
        crate::size_bounds::greedy_size_bound(n, self.stretch)
    }
}

/// The selection loop of [`GreedySpanner::build_masked`]: the greedy
/// `stretch`-spanner of the live edges, and the number of distance searches
/// it ran (live edges minus those a recorded label covered).
pub(crate) fn select(graph: &Graph, live: &[bool], stretch: f64) -> (EdgeSet, usize) {
    let mut order: Vec<_> = graph
        .edges()
        .filter(|(id, _)| live[id.index()])
        .map(|(id, e)| (e.weight, id))
        .collect();
    order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    let n = graph.node_count();
    // `rooted[u]`: the edges whose lower endpoint is `u`, as (position in
    // `order`, upper endpoint), in order; `rooted[u][decided[u]..]` are the
    // ones still to check.
    let mut rooted: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); n];
    for (i, &(_, id)) in order.iter().enumerate() {
        let e = graph.edge(id);
        rooted[e.u.index()].push((i, e.v));
    }
    let mut decided = vec![0; n];
    // `label[i]`: the label of edge `i`'s upper endpoint in the latest
    // search rooted at its lower one, infinite if that search missed it.
    let mut label = vec![f64::INFINITY; order.len()];
    let mut accepted: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
    let mut dist = vec![f64::INFINITY; n];
    let mut touched = Vec::new();
    let mut heap = BinaryHeap::new();
    let mut spanner = graph.empty_edge_set();
    let mut searches = 0;
    for (i, &(w, id)) in order.iter().enumerate() {
        let e = graph.edge(id);
        let budget = stretch * w;
        decided[e.u.index()] += 1;
        if label[i] <= budget {
            continue;
        }
        searches += 1;
        dist[e.u.index()] = 0.0;
        touched.push(e.u);
        heap.push(HeapEntry {
            dist: 0.0,
            node: e.u,
        });
        let mut covered = false;
        'search: while let Some(HeapEntry { dist: d, node: x }) = heap.pop() {
            if d > dist[x.index()] {
                continue;
            }
            for &(y, wy) in &accepted[x.index()] {
                let nd = d + wy;
                if nd > budget || nd >= dist[y.index()] {
                    continue;
                }
                if y == e.v {
                    covered = true;
                    break 'search;
                }
                if dist[y.index()] == f64::INFINITY {
                    touched.push(y);
                }
                dist[y.index()] = nd;
                heap.push(HeapEntry { dist: nd, node: y });
            }
        }
        heap.clear();
        for &(j, v) in &rooted[e.u.index()][decided[e.u.index()]..] {
            label[j] = dist[v.index()];
        }
        for x in touched.drain(..) {
            dist[x.index()] = f64::INFINITY;
        }
        if !covered {
            spanner.insert(id);
            accepted[e.u.index()].push((e.v, w));
            accepted[e.v.index()].push((e.u, w));
        }
    }
    (spanner, searches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generate, verify, NodeId};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    #[test]
    #[should_panic]
    fn rejects_stretch_below_one() {
        GreedySpanner::new(0.5);
    }

    #[test]
    fn stretch_one_keeps_all_edges_of_a_metric_graph() {
        // In a unit-weight complete graph every edge is the unique shortest
        // path, so a 1-spanner must keep everything.
        let g = generate::complete(8);
        let s = GreedySpanner::new(1.0).build(&g, &mut rng());
        assert_eq!(s.len(), g.edge_count());
    }

    #[test]
    fn produces_valid_spanners_on_random_graphs() {
        let mut r = rng();
        for k in [3.0, 5.0, 7.0] {
            let g = generate::gnp(
                50,
                0.3,
                generate::WeightKind::Uniform { min: 1.0, max: 4.0 },
                &mut r,
            );
            let s = GreedySpanner::new(k).build(&g, &mut r);
            assert!(
                verify::is_k_spanner(&g, &s, k),
                "greedy output is not a {k}-spanner"
            );
        }
    }

    #[test]
    fn three_spanner_of_complete_graph_is_sparse() {
        let g = generate::complete(40);
        let s = GreedySpanner::new(3.0).build(&g, &mut rng());
        // Girth > 4 implies O(n^{3/2}) edges; for n = 40 that is ~ 253 + 40,
        // far below the 780 edges of K_40.
        assert!(s.len() < 300, "3-spanner too dense: {}", s.len());
        assert!(verify::is_k_spanner(&g, &s, 3.0));
    }

    #[test]
    fn keeps_a_spanning_structure_when_connected() {
        let mut r = rng();
        let g = generate::connected_gnp(30, 0.2, generate::WeightKind::Unit, &mut r);
        let s = GreedySpanner::new(5.0).build(&g, &mut r);
        let sub = g.subgraph(&s).unwrap();
        assert!(sub.is_connected());
    }

    #[test]
    fn respects_edge_weights() {
        // Heavy shortcut edge must be dropped: 0-1-2 path of total weight 2,
        // shortcut (0,2) of weight 10 is within stretch 3 * d(0,2)=2? No:
        // d(0,2) = 2, spanner must give <= 3*2 = 6 <= path already 2, so the
        // shortcut (weight 10) is never needed.
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)]).unwrap();
        let s = GreedySpanner::new(3.0).build(&g, &mut rng());
        assert_eq!(s.len(), 2);
        let kept = g.subgraph(&s).unwrap();
        assert!(!kept.has_edge(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn greedy_spanner_girth_exceeds_stretch_plus_one() {
        // The size analysis of Althöfer et al. rests on exactly this: on
        // unit-weight graphs the greedy k-spanner contains no cycle of length
        // k + 1 or shorter.
        let mut r = rng();
        for k in [3.0f64, 5.0] {
            let g = generate::gnp(40, 0.3, generate::WeightKind::Unit, &mut r);
            let s = GreedySpanner::new(k).build(&g, &mut r);
            let sub = g.subgraph(&s).unwrap();
            if let Some(girth) = ftspan_graph::stats::girth(&sub) {
                assert!(
                    girth as f64 > k + 1.0,
                    "girth {girth} too small for stretch {k}"
                );
            }
        }
    }

    #[test]
    fn path_sums_fold_outward_from_the_lower_endpoint() {
        // The path 0-1-2-3 covers edge (0, 3) of weight 0.6 at stretch 1
        // exactly when its weights, summed from vertex 0, stay within 0.6.
        // (0.1 + 0.2) + 0.3 rounds to 0.6000000000000001, so the edge is
        // kept; folded from vertex 3, (0.3 + 0.2) + 0.1 is exactly 0.6 and it
        // would be dropped.
        let kept = |a: f64, c: f64| {
            let g = Graph::from_edges(4, [(0, 1, a), (1, 2, 0.2), (2, 3, c), (0, 3, 0.6)]).unwrap();
            GreedySpanner::new(1.0).build(&g, &mut rng()).len()
        };
        assert_eq!(kept(0.1, 0.3), 4);
        assert_eq!(kept(0.3, 0.1), 3);
    }

    #[test]
    fn a_recorded_label_at_k_w_covers_without_a_search() {
        // The search for (0, 1) reaches 3 over 0-2-4-3 at 1 + 1 + 1, exactly
        // the budget 2 · 1.5 of the tied edge (0, 3), which its record then
        // covers: four searches for five edges, and (0, 3) is dropped.
        let g = Graph::from_edges(
            5,
            [
                (0, 2, 1.0),
                (2, 4, 1.0),
                (3, 4, 1.0),
                (0, 1, 1.5),
                (0, 3, 1.5),
            ],
        )
        .unwrap();
        let (spanner, searches) = select(&g, &[true; 5], 2.0);
        let kept: Vec<usize> = spanner.iter().map(|e| e.index()).collect();
        assert_eq!(kept, [0, 1, 2, 3]);
        assert_eq!(searches, 4);
    }

    #[test]
    fn only_records_rooted_at_the_lower_endpoint_answer() {
        // The search for (3, 4) labels 0 with (0.3 + 0.2) + 0.1 == 0.6, the
        // budget of (0, 3) at stretch 1; folded from 0 the same path is
        // 0.6000000000000001, so (0, 3) must still be kept.
        let g = Graph::from_edges(
            5,
            [
                (0, 1, 0.1),
                (1, 2, 0.2),
                (2, 3, 0.3),
                (3, 4, 0.6),
                (0, 3, 0.6),
            ],
        )
        .unwrap();
        assert_eq!(GreedySpanner::new(1.0).build(&g, &mut rng()).len(), 5);
    }

    #[test]
    fn recorded_labels_spare_most_searches() {
        // Pins the work: a change that stops consulting the records, or
        // keeps more or fewer of them, moves this count.
        let mut r = ChaCha8Rng::seed_from_u64(2011);
        let g = generate::gnp(
            120,
            0.3,
            generate::WeightKind::Uniform {
                min: 1.0,
                max: 10.0,
            },
            &mut r,
        );
        let alive: Vec<bool> = g.nodes().map(|_| r.gen_bool(0.9)).collect();
        let live: Vec<bool> = g
            .edges()
            .map(|(_, e)| alive[e.u.index()] && alive[e.v.index()])
            .collect();
        let live_edges = live.iter().filter(|&&l| l).count();
        let (_, searches) = select(&g, &live, 3.0);
        assert_eq!((live_edges, searches), (1683, 510));
        assert!(searches < live_edges);
    }

    #[test]
    fn size_bound_is_monotone_in_n() {
        let alg = GreedySpanner::new(3.0);
        assert!(alg.size_bound(100) < alg.size_bound(200));
        assert!(alg.size_bound(10) >= 10.0);
    }
}

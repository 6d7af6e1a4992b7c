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
/// Each edge `(u, v)` of weight `w`, `u` the lower endpoint, is checked by
/// one bidirectional bounded Dijkstra (Pohl 1971) over an adjacency list
/// holding only the edges accepted so far. Its arrays (reset through the
/// list of vertices it touched) and heaps are reused across checks. Let
/// `B = k · w` and `B_hi = B · (1 + 4nε)`, with `n` the vertex count and `ε`
/// the machine epsilon.
///
/// * The *forward* side runs from `u` and drops every relaxation above `B`.
///   The *backward* side runs from `v`, drops every relaxation above `B_hi`,
///   and records each labelled vertex's next hop toward `v`. The side whose
///   frontier minimum is smaller expands next.
/// * When a relaxation labels a vertex `y` that the other side has already
///   labelled, the *estimate* is the sum of `y`'s two labels. If it is at
///   most `B_hi`, the walk's *fold from `u`* is computed explicitly: `y`'s
///   forward label, then the backward tree's weights in order toward `v`.
///   A fold within `B` answers "covered" and the check stops.
/// * Otherwise the check stops when the two frontier minima sum to more than
///   `B_hi` or a frontier empties, and answers "not covered". If some
///   estimate was within `B_hi` but its fold exceeded `B`, the margin cannot
///   decide: the check reruns with the backward side switched off (the
///   forward-only search, where only `v` carries a backward label), and that
///   answer is the decision.
///
/// The decisions are exactly those of the definition, a full Dijkstra from
/// `u` over the spanner so far, whose label of `v` is compared with `B`:
///
/// * Adding a non-negative weight to a float is monotone in the sum and never
///   decreases it, so any Dijkstra from `u` computes, for every vertex, the
///   minimum over paths of the path's weights folded left to right from `u`,
///   and a dropped relaxation above `B` loses no path whose fold could stay
///   within `B`. The forward-only search is therefore exact.
/// * "Covered" found a walk from `u` to `v` whose fold is within `B`. Cutting
///   a cycle out of a walk never raises its fold (the fold where the cycle
///   starts is at most the fold where it ends, and the rest is monotone in
///   its start), so some path, and with it the minimum, is within `B`.
/// * Conversely, take a path `u = x_0, …, x_L = v` whose fold from `u` is
///   at most `B`. Let `F_i` be the fold of its first `i` weights from `u`,
///   and `G_i` the fold of its last `L − i` weights from `v`.
///   - *The margin.* With `m = n − 2`, folding `L ≤ n − 1` non-negative
///     weights errs by at most `γ = (mε/2) / (1 − mε/2)` of their real sum
///     `S` (Higham, *Accuracy and Stability of Numerical Algorithms*,
///     §4.2). So `S ≤ B / (1 − γ)`, and `F_i + G_i ≤ (1 + γ) S ≤ B / (1 −
///     mε) ≤ B (1 + 2nε)` while `nε ≤ 1/2`. Computing `B_hi` rounds twice,
///     so `B_hi ≥ B (1 + 4nε)(1 − ε) ≥ B (1 + 2nε)`. Every `F_i + G_i` and
///     every `G_i` is therefore within `B_hi`, and no relaxation along the
///     path is dropped on either side. Rounding is monotone and `B_hi` is a
///     float, so the computed sums compare with `B_hi` as the real ones do.
///   - *A frontier empties.* That side has labelled the other endpoint,
///     whose two labels then sum to at most `F_L ≤ B` or `G_0 ≤ B_hi`.
///   - *The minima sum to more than `B_hi`.* Each minimum is at most its
///     side's bound, so both are positive. No `x_i` has `F_i` and `G_i` both
///     at or above the minima, so each `x_i` is settled forward (`F_i` below
///     the forward minimum, as for `x_0`) or backward (as `x_L`). The first
///     `x_{i+1}` not settled forward is settled backward, and `x_i` relaxed
///     the edge to it, so its two labels sum to at most `F_{i+1} + G_{i+1}`.
///   - Every relaxation that sets one label of a vertex the other side has
///     labelled checks the current pair. So in both cases the search checked
///     an estimate within `B_hi`: its fold was within `B`, or it forced the
///     rerun.
///
/// Two things must not change, because both can flip a decision that sits
/// exactly at `k · w`. The order is a stable sort by `partial_cmp` on the
/// weight, ties in edge-id order (`total_cmp` would put `-0.0` before
/// `0.0`). Every decision compares a fold outward from `u` with `B`: the
/// same path folded from `v` can round differently, which is why a meeting
/// is confirmed by its explicit fold and never by its estimate.
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

/// Work done by one [`select`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Vertices settled (popped and expanded) by either side of every check,
    /// forward-only reruns included.
    pub(crate) settled: usize,
    /// Checks the margin could not decide, rerun forward-only.
    pub(crate) fallbacks: usize,
}

/// The selection loop of [`GreedySpanner::build_masked`]: the greedy
/// `stretch`-spanner of the live edges, and the work its checks did.
pub(crate) fn select(graph: &Graph, live: &[bool], stretch: f64) -> (EdgeSet, Work) {
    select_with(graph, live, stretch, true)
}

/// [`select`] with every check bidirectional (`both_sides`) or forward-only.
fn select_with(graph: &Graph, live: &[bool], stretch: f64, both_sides: bool) -> (EdgeSet, Work) {
    let mut order: Vec<_> = graph
        .edges()
        .filter(|(id, _)| live[id.index()])
        .map(|(id, e)| (e.weight, id))
        .collect();
    order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    let n = graph.node_count();
    let margin = 1.0 + 4.0 * n as f64 * f64::EPSILON;
    let mut accepted: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
    let mut search = Search::new(n);
    let mut spanner = graph.empty_edge_set();
    let mut fallbacks = 0;
    for &(w, id) in &order {
        let e = graph.edge(id);
        let budget = stretch * w;
        let hi = both_sides.then_some(budget * margin);
        let mut check = search.run(&accepted, e.u, e.v, budget, hi);
        if check == Check::Unsure {
            fallbacks += 1;
            check = search.run(&accepted, e.u, e.v, budget, None);
        }
        if check != Check::Covered {
            spanner.insert(id);
            accepted[e.u.index()].push((e.v, w));
            accepted[e.v.index()].push((e.u, w));
        }
    }
    let work = Work {
        settled: search.settled,
        fallbacks,
    };
    (spanner, work)
}

/// The answer of one bounded search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Check {
    Covered,
    NotCovered,
    /// Not covered within the margin, but a meeting's estimate was within
    /// `B_hi` while its fold from `u` exceeded `B`.
    Unsure,
}

/// The reusable state of the distance check; side 0 is the forward side
/// (labels fold from `u`), side 1 the backward one (labels fold from `v`).
struct Search {
    label: [Vec<f64>; 2],
    /// The next hop toward `v` of every backward-labelled vertex, with the
    /// weight of the edge to it.
    next: Vec<(NodeId, f64)>,
    heap: [BinaryHeap<HeapEntry>; 2],
    touched: Vec<NodeId>,
    /// Vertices settled by every run so far.
    settled: usize,
}

impl Search {
    fn new(n: usize) -> Self {
        Search {
            label: [vec![f64::INFINITY; n], vec![f64::INFINITY; n]],
            next: vec![(NodeId::new(0), 0.0); n],
            heap: [BinaryHeap::new(), BinaryHeap::new()],
            touched: Vec::new(),
            settled: 0,
        }
    }

    /// Whether `accepted` joins `u` to `v` by a path whose fold from `u` is
    /// within `budget`. `hi` is the backward side's bound `B_hi`, `None` for
    /// the forward-only search (which never answers [`Check::Unsure`]).
    fn run(
        &mut self,
        accepted: &[Vec<(NodeId, f64)>],
        u: NodeId,
        v: NodeId,
        budget: f64,
        hi: Option<f64>,
    ) -> Check {
        let bound = [budget, hi.unwrap_or(budget)];
        self.label[0][u.index()] = 0.0;
        self.label[1][v.index()] = 0.0;
        self.touched.extend([u, v]);
        self.heap[0].push(HeapEntry { dist: 0.0, node: u });
        if hi.is_some() {
            self.heap[1].push(HeapEntry { dist: 0.0, node: v });
        }
        let mut unsure = false;
        let check = 'search: loop {
            // The side with the smaller frontier minimum expands; the check
            // stops when the minima sum past `B_hi` or a frontier empties
            // (the forward-only search has no backward frontier).
            let side = match (self.heap[0].peek(), self.heap[1].peek()) {
                (Some(f), Some(b)) if f.dist + b.dist > bound[1] => break Check::NotCovered,
                (Some(f), Some(b)) => usize::from(f.dist > b.dist),
                (Some(_), None) if hi.is_none() => 0,
                _ => break Check::NotCovered,
            };
            let HeapEntry { dist: d, node: x } = self.heap[side].pop().unwrap();
            if d > self.label[side][x.index()] {
                continue;
            }
            self.settled += 1;
            for &(y, w) in &accepted[x.index()] {
                let nd = d + w;
                if nd > bound[side] || nd >= self.label[side][y.index()] {
                    continue;
                }
                let other = self.label[1 - side][y.index()];
                if self.label[side][y.index()] == f64::INFINITY && other == f64::INFINITY {
                    self.touched.push(y);
                }
                self.label[side][y.index()] = nd;
                if side == 1 {
                    self.next[y.index()] = (x, w);
                }
                if other != f64::INFINITY {
                    match self.meet(y, v, budget, bound[1]) {
                        Some(true) => break 'search Check::Covered,
                        Some(false) => unsure = true,
                        None => {}
                    }
                }
                self.heap[side].push(HeapEntry { dist: nd, node: y });
            }
        };
        for heap in &mut self.heap {
            heap.clear();
        }
        for x in self.touched.drain(..) {
            self.label[0][x.index()] = f64::INFINITY;
            self.label[1][x.index()] = f64::INFINITY;
        }
        if check == Check::NotCovered && unsure {
            Check::Unsure
        } else {
            check
        }
    }

    /// The meeting at `y`, labelled by both sides: `None` if the estimate
    /// exceeds `hi`, else whether the fold from `u` of the walk along the
    /// forward label to `y`, then the backward tree to `v`, is within
    /// `budget`.
    fn meet(&self, y: NodeId, v: NodeId, budget: f64, hi: f64) -> Option<bool> {
        let mut fold = self.label[0][y.index()];
        if fold + self.label[1][y.index()] > hi {
            return None;
        }
        let mut x = y;
        while x != v {
            let (next, w) = self.next[x.index()];
            fold += w;
            x = next;
        }
        Some(fold <= budget)
    }
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
    fn a_path_at_exactly_k_w_covers() {
        // The path 0-2-4-3 folds to 1 + 1 + 1, exactly the budget 2 · 1.5 of
        // the tied edge (0, 3), which is dropped; the five checks settle nine
        // vertices and never fall back.
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
        let (spanner, work) = select(&g, &[true; 5], 2.0);
        let kept: Vec<usize> = spanner.iter().map(|e| e.index()).collect();
        assert_eq!(kept, [0, 1, 2, 3]);
        assert_eq!(
            work,
            Work {
                settled: 9,
                fallbacks: 0
            }
        );
    }

    #[test]
    fn a_meeting_only_the_backward_fold_covers_falls_back() {
        // Checking (0, 3) at stretch 1, the sides meet on the path 0-1-2-3:
        // its estimates, (0.1 + 0.2) + 0.3 at vertex 2 and 0.1 + (0.3 + 0.2)
        // at vertex 1, are within the margin, and the latter is exactly the
        // budget 0.6. Folded from 0 the path is 0.6000000000000001, so no
        // meeting confirms, the check reruns forward-only, and (0, 3) is
        // kept.
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
        let (spanner, work) = select(&g, &[true; 5], 1.0);
        assert_eq!(spanner.len(), 5);
        assert!(work.fallbacks >= 1, "{work:?}");
    }

    #[test]
    fn bidirectional_checks_settle_fewer_vertices() {
        // Pins the work: a change that switches the backward side off,
        // widens the margin or falls back more often moves these counts.
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
        let (spanner, work) = select(&g, &live, 3.0);
        let (forward_spanner, forward) = select_with(&g, &live, 3.0, false);
        assert_eq!(spanner, forward_spanner);
        assert_eq!(forward.fallbacks, 0);
        assert_eq!((live_edges, work.settled, work.fallbacks), (1683, 11003, 0));
        assert!(work.settled < forward.settled, "{work:?} vs {forward:?}");
    }

    #[test]
    fn size_bound_is_monotone_in_n() {
        let alg = GreedySpanner::new(3.0);
        assert!(alg.size_bound(100) < alg.size_bound(200));
        assert!(alg.size_bound(10) >= 10.0);
    }
}

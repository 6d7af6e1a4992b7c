//! Shortest-path computations on the graph substrate.
//!
//! Everything the spanner constructions and verification oracles need:
//! Dijkstra on the full graph, on an edge-subset (a candidate spanner), and
//! restricted to a surviving vertex set (after faults), plus bounded-radius
//! and hop-count variants.

use crate::{EdgeSet, Graph, GraphError, NodeId, Result, INFINITY};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A [`BinaryHeap`] entry ordered by ascending distance, so the max-heap
/// pops the nearest tentative label first; ties pop the smaller node first.
/// Every Dijkstra loop in the workspace that runs on a binary heap uses it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapEntry {
    /// Tentative distance (finite and non-negative).
    pub dist: f64,
    /// The vertex (or index) the distance belongs to.
    pub node: NodeId,
}

impl Eq for HeapEntry {}

// `#[inline]`: the comparator runs on every heap operation, also in the
// crates that use this type.
impl Ord for HeapEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want the minimum
        // distance on top. Distances are finite and non-negative, so
        // partial_cmp never fails for entries that reach the heap.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Options restricting a shortest-path computation.
///
/// The default options impose no restriction; the builder-style setters
/// restrict the traversal to a subset of edges (a candidate spanner) or to a
/// set of surviving vertices (after faults).
///
/// # Example
///
/// ```
/// use ftspan_graph::{Graph, NodeId, shortest_path::SsspOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_unit_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])?;
/// let dead = vec![false, true, false, false];
/// let dist = SsspOptions::new().forbid_vertices(&dead).run(&g, NodeId::new(0))?;
/// // With vertex 1 removed, vertex 2 is reached the long way around.
/// assert_eq!(dist[2], 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SsspOptions<'a> {
    edges: Option<&'a EdgeSet>,
    dead: Option<&'a [bool]>,
}

impl<'a> SsspOptions<'a> {
    /// Creates options with no restrictions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts the traversal to edges contained in `edges`.
    pub fn restrict_edges(mut self, edges: &'a EdgeSet) -> Self {
        self.edges = Some(edges);
        self
    }

    /// Forbids traversal through vertices `v` with `dead[v] == true`.
    ///
    /// If the source itself is dead, every distance is `INFINITY`.
    pub fn forbid_vertices(mut self, dead: &'a [bool]) -> Self {
        self.dead = Some(dead);
        self
    }

    /// Runs Dijkstra from `source` under these options and returns the
    /// distance to every vertex (`INFINITY` when unreachable).
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if `source` is out of bounds or the
    ///   forbidden-vertex slice has the wrong length.
    /// * [`GraphError::MismatchedEdgeSet`] if the edge restriction was built
    ///   for a different graph.
    pub fn run(self, graph: &Graph, source: NodeId) -> Result<Vec<f64>> {
        let n = graph.node_count();
        if source.index() >= n {
            return Err(GraphError::NodeOutOfBounds {
                node: source.index(),
                len: n,
            });
        }
        if let Some(dead) = self.dead {
            if dead.len() != n {
                return Err(GraphError::NodeOutOfBounds {
                    node: dead.len(),
                    len: n,
                });
            }
        }
        if let Some(edges) = self.edges {
            if edges.capacity() != graph.edge_count() {
                return Err(GraphError::MismatchedEdgeSet {
                    set_len: edges.capacity(),
                    graph_len: graph.edge_count(),
                });
            }
        }

        let mut dist = vec![INFINITY; n];
        let is_dead = |v: NodeId| self.dead.is_some_and(|d| d[v.index()]);
        if is_dead(source) {
            return Ok(dist);
        }
        let mut heap = BinaryHeap::new();
        dist[source.index()] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });

        while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
            if d > dist[v.index()] {
                continue;
            }
            for (u, eid) in graph.incident(v) {
                if is_dead(u) {
                    continue;
                }
                if let Some(edges) = self.edges {
                    if !edges.contains(eid) {
                        continue;
                    }
                }
                let nd = d + graph.edge(eid).weight;
                if nd < dist[u.index()] {
                    dist[u.index()] = nd;
                    heap.push(HeapEntry { dist: nd, node: u });
                }
            }
        }
        Ok(dist)
    }
}

/// Single-source shortest-path distances from `source` in `graph`.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfBounds`] if `source` is out of bounds.
///
/// # Example
///
/// ```
/// use ftspan_graph::{Graph, NodeId, shortest_path};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0)])?;
/// let d = shortest_path::dijkstra(&g, NodeId::new(0))?;
/// assert_eq!(d[2], 3.0);
/// # Ok(())
/// # }
/// ```
pub fn dijkstra(graph: &Graph, source: NodeId) -> Result<Vec<f64>> {
    SsspOptions::new().run(graph, source)
}

/// Shortest-path distances from `source` using only the edges in `edges`.
///
/// # Errors
///
/// Returns an error if `source` is out of bounds or `edges` was built for a
/// different graph.
pub fn dijkstra_on_edges(graph: &Graph, edges: &EdgeSet, source: NodeId) -> Result<Vec<f64>> {
    SsspOptions::new().restrict_edges(edges).run(graph, source)
}

/// Shortest-path distances from `source` avoiding the vertices marked `true`
/// in `dead`.
///
/// # Errors
///
/// Returns an error if `source` is out of bounds or `dead` has the wrong
/// length.
pub fn dijkstra_avoiding(graph: &Graph, source: NodeId, dead: &[bool]) -> Result<Vec<f64>> {
    SsspOptions::new().forbid_vertices(dead).run(graph, source)
}

/// Shortest-path distance between a single pair of vertices.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfBounds`] if either endpoint is out of
/// bounds.
pub fn distance(graph: &Graph, u: NodeId, v: NodeId) -> Result<f64> {
    if v.index() >= graph.node_count() {
        return Err(GraphError::NodeOutOfBounds {
            node: v.index(),
            len: graph.node_count(),
        });
    }
    let d = dijkstra(graph, u)?;
    Ok(d[v.index()])
}

/// Hop-count (unweighted BFS) distances from `source`.
///
/// Unreachable vertices report `usize::MAX`.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfBounds`] if `source` is out of bounds.
pub fn bfs_hops(graph: &Graph, source: NodeId) -> Result<Vec<usize>> {
    let n = graph.node_count();
    if source.index() >= n {
        return Err(GraphError::NodeOutOfBounds {
            node: source.index(),
            len: n,
        });
    }
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for u in graph.neighbors(v) {
            if dist[u.index()] == usize::MAX {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    Ok(dist)
}

/// Vertices within hop-distance `radius` of `source`, including `source`
/// itself, in BFS order.
///
/// This is the primitive the padded-decomposition construction (Lemma 3.7 of
/// the paper) uses: a cluster is the ball of radius `r_u` around its center.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfBounds`] if `source` is out of bounds.
pub fn ball(graph: &Graph, source: NodeId, radius: usize) -> Result<Vec<NodeId>> {
    let hops = bfs_hops(graph, source)?;
    Ok(graph
        .nodes()
        .filter(|v| hops[v.index()] <= radius)
        .collect())
}

/// All-pairs shortest-path distances, computed by running Dijkstra from every
/// vertex. Intended for the small graphs used by verification and tests.
///
/// # Errors
///
/// Never fails for a well-formed graph; propagates internal errors otherwise.
pub fn all_pairs(graph: &Graph) -> Result<Vec<Vec<f64>>> {
    graph.nodes().map(|v| dijkstra(graph, v)).collect()
}

/// Most buckets one relaxation can span: [`BucketQueue::suggest_delta`]
/// never returns a width below `max_weight / MAX_RING_SPAN`. The CSR search
/// keeps weight spreads within 100 on the bucket queue, but zero-weight
/// half-edges do not count towards the spread and pull the mean down, so on
/// large graphs that are mostly zero-weight this clamp still bounds the ring.
const MAX_RING_SPAN: f64 = 4096.0;

/// A circular bucket queue (Dial's algorithm, generalized to real weights)
/// for label-correcting shortest-path runs.
///
/// Tentative distances are binned into buckets of width `delta` and drained
/// in ascending bucket order, replacing the binary heap's `O(log n)`
/// push/pop with `O(1)` array appends. Entries are lazily deleted: a popped
/// `(dist, node)` pair whose `dist` exceeds the node's current tentative
/// distance is stale and must be skipped by the caller. Within a bucket the
/// drain order is arbitrary, so a node can be settled with a provisional
/// distance and corrected later — run to exhaustion, the relaxation fixpoint
/// (and therefore every distance, bit for bit) is the same one binary-heap
/// Dijkstra computes, because floating-point addition of non-negative
/// weights is monotone and the fixpoint of strict-improvement relaxation is
/// unique.
///
/// # Delta-choice heuristic
///
/// [`BucketQueue::suggest_delta`] picks the **mean edge weight**, clamped
/// from below by `max_weight / 4096`:
///
/// * the mean keeps the expansion order close to Dijkstra's, so nodes are
///   rarely popped before their final distance is known and re-relaxations
///   stay rare;
/// * the clamp bounds the ring to at most `4096` buckets plus rounding
///   (`ceil(max_weight / delta) + 3`), so resetting the queue between runs
///   stays cheap;
/// * unit-weight graphs get `delta = 1`, which degenerates to textbook
///   Dial — exact Dijkstra order with `O(1)` queue operations.
///
/// Any positive `delta` is *correct* (it only shifts work between bucket
/// scanning and re-relaxation), so the heuristic is purely about
/// performance.
#[derive(Debug, Clone, Default)]
pub(crate) struct BucketQueue {
    /// Ring of buckets; absolute bucket `i` lives at slot `i % buckets.len()`.
    buckets: Vec<Vec<(f64, NodeId)>>,
    /// Bucket width (always positive after `reset`).
    delta: f64,
    /// Absolute index of the bucket currently being drained.
    cursor: u64,
    /// Number of entries across all buckets (including stale ones).
    live: usize,
}

impl BucketQueue {
    /// Suggested bucket width for a graph with the given half-edge weight
    /// sum, maximum edge weight and half-edge count (see the type-level
    /// docs for the rationale). Falls back to `1.0` for empty or all-zero
    /// weight profiles.
    pub fn suggest_delta(weight_sum: f64, max_weight: f64, half_edges: usize) -> f64 {
        if half_edges == 0 || weight_sum.is_nan() || weight_sum <= 0.0 {
            return 1.0;
        }
        let mean = weight_sum / half_edges as f64;
        mean.max(max_weight / MAX_RING_SPAN)
    }

    /// Clears the queue and sizes the ring for distances that grow by at
    /// most `max_weight` per relaxation, binned at width `delta`.
    ///
    /// A non-positive or non-finite `delta` is replaced by `1.0`. The ring
    /// holds `ceil(max_weight / delta) + 3` buckets: entries pushed while
    /// draining absolute bucket `b` land in `[b, b + ceil(max_weight /
    /// delta) + 1]` (the `+1` absorbs floating-point rounding of the new
    /// tentative distance), so live entries never wrap onto each other.
    /// `delta` must be at least `max_weight / 4096`, as
    /// [`BucketQueue::suggest_delta`] returns, which keeps the ring small.
    pub fn reset(&mut self, delta: f64, max_weight: f64) {
        let delta = if delta.is_finite() && delta > 0.0 {
            delta
        } else {
            1.0
        };
        let span = if max_weight.is_finite() && max_weight > 0.0 {
            (max_weight / delta).ceil() as usize
        } else {
            0
        };
        // One bucket of slack for the rounding of `max_weight / delta`.
        debug_assert!(
            span <= MAX_RING_SPAN as usize + 1,
            "delta {delta} is below max_weight / {MAX_RING_SPAN} for max_weight {max_weight}"
        );
        let want = span.saturating_add(3);
        if self.buckets.len() < want {
            self.buckets.resize_with(want, Vec::new);
        }
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.delta = delta;
        self.cursor = 0;
        self.live = 0;
    }

    /// Enqueues `node` at tentative distance `dist` (finite, non-negative).
    ///
    /// # Panics
    ///
    /// Panics if called before [`BucketQueue::reset`].
    pub fn push(&mut self, dist: f64, node: NodeId) {
        let ring = self.buckets.len() as u64;
        // Never file an entry before the drain cursor: monotone relaxation
        // guarantees new distances belong to the current bucket or later,
        // and clamping keeps rounding edge cases inside the live window.
        let index = ((dist / self.delta) as u64).max(self.cursor);
        self.buckets[(index % ring) as usize].push((dist, node));
        self.live += 1;
    }

    /// Removes and returns an entry from the lowest non-empty bucket, or
    /// `None` when the queue is exhausted. Entries may be stale; callers
    /// compare the returned distance against their tentative-distance array
    /// and skip outdated pairs.
    pub fn pop(&mut self) -> Option<(f64, NodeId)> {
        self.skip_empty();
        if self.live == 0 {
            return None;
        }
        let slot = (self.cursor % self.buckets.len() as u64) as usize;
        self.live -= 1;
        self.buckets[slot].pop()
    }

    /// Advances the drain cursor to the next non-empty bucket (a no-op on
    /// an exhausted queue).
    fn skip_empty(&mut self) {
        let ring = self.buckets.len() as u64;
        while self.live > 0 && self.buckets[(self.cursor % ring) as usize].is_empty() {
            self.cursor += 1;
        }
    }

    /// Returns `true` when no queued entry has a distance below `bound`,
    /// so no later pop can strictly lower a label at or below `bound`.
    ///
    /// Conservative: the answer is `true` only once the drain cursor is at
    /// least two buckets past `bound`'s bucket (or the queue is empty).
    /// An entry's absolute bucket is its rounded quotient `dist / delta`
    /// (in a relaxation loop the clamp in [`BucketQueue::push`] never
    /// fires: a candidate is never below the entry just popped), and no
    /// queued entry's bucket is behind the cursor, which only moves past an
    /// empty slot. So every queued quotient is at least two above `bound`'s
    /// bucket, more than one whole bucket above `bound`'s own quotient, and
    /// its distance exceeds `bound` without trusting the last bit of either
    /// quotient. Order within a bucket (LIFO, unsorted) never enters the
    /// argument.
    pub(crate) fn nothing_below(&mut self, bound: f64) -> bool {
        self.skip_empty();
        self.live == 0 || self.cursor >= ((bound / self.delta) as u64).saturating_add(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeId;

    fn weighted_square() -> Graph {
        // 0 -1- 1
        // |     |
        // 4     1
        // |     |
        // 3 -1- 2
        Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 4.0)]).unwrap()
    }

    #[test]
    fn dijkstra_basic() {
        let g = weighted_square();
        let d = dijkstra(&g, NodeId::new(0)).unwrap();
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        let d = dijkstra(&g, NodeId::new(0)).unwrap();
        assert_eq!(d[1], 1.0);
        assert!(d[2].is_infinite());
    }

    #[test]
    fn dijkstra_source_out_of_bounds() {
        let g = weighted_square();
        assert!(dijkstra(&g, NodeId::new(10)).is_err());
        assert!(distance(&g, NodeId::new(0), NodeId::new(10)).is_err());
    }

    #[test]
    fn dijkstra_respects_edge_restriction() {
        let g = weighted_square();
        let mut s = g.empty_edge_set();
        s.insert(EdgeId::new(0)); // (0,1)
        s.insert(EdgeId::new(3)); // (3,0)
        let d = dijkstra_on_edges(&g, &s, NodeId::new(0)).unwrap();
        assert_eq!(d[1], 1.0);
        assert_eq!(d[3], 4.0);
        assert!(d[2].is_infinite());
    }

    #[test]
    fn dijkstra_respects_dead_vertices() {
        let g = weighted_square();
        let dead = vec![false, true, false, false];
        let d = dijkstra_avoiding(&g, NodeId::new(0), &dead).unwrap();
        assert!(d[1].is_infinite());
        assert_eq!(d[2], 5.0); // forced around through vertex 3
                               // Dead source: everything infinite.
        let dead_src = vec![true, false, false, false];
        let d2 = dijkstra_avoiding(&g, NodeId::new(0), &dead_src).unwrap();
        assert!(d2.iter().all(|x| x.is_infinite()));
    }

    #[test]
    fn pairwise_distance() {
        let g = weighted_square();
        assert_eq!(distance(&g, NodeId::new(0), NodeId::new(3)).unwrap(), 3.0);
        assert_eq!(distance(&g, NodeId::new(3), NodeId::new(0)).unwrap(), 3.0);
    }

    #[test]
    fn bfs_and_ball() {
        let g = Graph::from_unit_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let hops = bfs_hops(&g, NodeId::new(0)).unwrap();
        assert_eq!(hops[4], 4);
        assert_eq!(hops[5], usize::MAX);
        let b = ball(&g, NodeId::new(0), 2).unwrap();
        assert_eq!(b.len(), 3);
        assert!(b.contains(&NodeId::new(2)));
        assert!(!b.contains(&NodeId::new(3)));
    }

    #[test]
    fn all_pairs_is_symmetric() {
        let g = weighted_square();
        let apsp = all_pairs(&g).unwrap();
        for (i, row) in apsp.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, apsp[j][i]);
            }
            assert_eq!(row[i], 0.0);
        }
    }

    #[test]
    fn bucket_queue_drains_in_bucket_order() {
        let mut q = BucketQueue::default();
        q.reset(1.0, 4.0);
        q.push(0.0, NodeId::new(0));
        q.push(3.5, NodeId::new(3));
        q.push(1.2, NodeId::new(1));
        q.push(1.7, NodeId::new(2));
        let mut popped = Vec::new();
        while let Some((d, v)) = q.pop() {
            popped.push((d, v.index()));
        }
        // Bucket indices (floor(d / delta)) come out ascending; order within
        // a bucket is unspecified.
        let indices: Vec<u64> = popped.iter().map(|&(d, _)| d as u64).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
        assert_eq!(popped.len(), 4);
    }

    #[test]
    fn bucket_queue_handles_same_bucket_reinsertion() {
        // Zero-weight relaxations re-file into the bucket being drained.
        let mut q = BucketQueue::default();
        q.reset(1.0, 1.0);
        q.push(0.5, NodeId::new(0));
        assert!(q.pop().is_some());
        q.push(0.5, NodeId::new(1)); // same absolute bucket as the cursor
        assert_eq!(q.pop(), Some((0.5, NodeId::new(1))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bucket_queue_delta_heuristic() {
        // Unit weights: mean is exactly 1.
        assert_eq!(BucketQueue::suggest_delta(10.0, 1.0, 10), 1.0);
        // Heavy-tailed weights: the clamp keeps the ring bounded.
        let delta = BucketQueue::suggest_delta(1.0e3, 1.0e9, 1000);
        assert!(delta >= 1.0e9 / 4096.0);
        // Degenerate profiles fall back to 1.
        assert_eq!(BucketQueue::suggest_delta(0.0, 0.0, 0), 1.0);
        assert_eq!(BucketQueue::suggest_delta(0.0, 0.0, 5), 1.0);
        // Reset survives nonsense deltas.
        let mut q = BucketQueue::default();
        q.reset(f64::NAN, f64::INFINITY);
        q.push(2.0, NodeId::new(0));
        assert_eq!(q.pop(), Some((2.0, NodeId::new(0))));
    }

    #[test]
    fn options_validate_inputs() {
        let g = weighted_square();
        let bad_dead = vec![false; 2];
        assert!(SsspOptions::new()
            .forbid_vertices(&bad_dead)
            .run(&g, NodeId::new(0))
            .is_err());
        let bad_edges = EdgeSet::new(1);
        assert!(SsspOptions::new()
            .restrict_edges(&bad_edges)
            .run(&g, NodeId::new(0))
            .is_err());
    }
}

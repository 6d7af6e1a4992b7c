//! Cache-friendly CSR (compressed sparse row) views of edge subsets.
//!
//! The verification oracles and the query-serving machinery all answer the
//! same kind of question many times over: "shortest paths in this fixed edge
//! subset, with some vertices (or edges) masked out". The general-purpose
//! [`SsspOptions`](crate::shortest_path::SsspOptions) traversal walks the
//! *parent* graph's adjacency and filters per edge, which pays for every
//! non-spanner edge on every relaxation. [`CsrSubgraph`] instead packs the
//! selected edges once into a flat offsets/targets/weights layout, so
//! repeated traversals touch only the edges that can actually be used and
//! stream through contiguous memory.
//!
//! Fault masking is non-copying: a dead-vertex mask (and optionally a
//! dead-edge mask over *parent* edge identifiers, which each CSR entry
//! remembers) is consulted during traversal instead of rebuilding the
//! subgraph per fault set.

use crate::graph::Edge;
use crate::shortest_path::{BucketQueue, HeapEntry};
use crate::{EdgeId, EdgeSet, Graph, GraphError, NodeId, Result, INFINITY};
use std::collections::BinaryHeap;

/// Half-edge count at which [`CsrSubgraph::sssp_into`] switches its
/// frontier from the binary heap to the bucket queue. Small traversals are
/// dominated by setup cost, where the heap's zero-reset wins; past a few
/// thousand half-edges the bucket queue's `O(1)` operations take over.
const BUCKET_QUEUE_HALF_EDGES: usize = 2048;

/// Largest ratio of the maximum to the smallest positive half-edge weight
/// at which [`CsrSubgraph::sssp_into`] uses the bucket queue. On a wider
/// spread the bucket width (the mean weight, which follows the heaviest
/// edges) dwarfs the labels of paths over light edges, which pile into the
/// first few buckets, whose unordered draining re-relaxes vertices over and
/// over; the heap's cost does not depend on the spread. 100 is the measured
/// crossover on log-uniform weights: about two decades.
const BUCKET_QUEUE_MAX_SPREAD: f64 = 100.0;

/// The priority queue of a Dijkstra run: [`CsrSubgraph::relax`] pops the
/// nearest tentative label and pushes every strict improvement.
trait Frontier {
    fn push(&mut self, dist: f64, node: NodeId);
    fn pop(&mut self) -> Option<(f64, NodeId)>;
    /// `true` only if no queued entry is below `bound` (it may answer
    /// `false` when that holds; a stop is then just later).
    fn nothing_below(&mut self, bound: f64) -> bool;
}

impl Frontier for BinaryHeap<HeapEntry> {
    #[inline]
    fn push(&mut self, dist: f64, node: NodeId) {
        BinaryHeap::push(self, HeapEntry { dist, node });
    }

    #[inline]
    fn pop(&mut self) -> Option<(f64, NodeId)> {
        BinaryHeap::pop(self).map(|e| (e.dist, e.node))
    }

    #[inline]
    fn nothing_below(&mut self, bound: f64) -> bool {
        self.peek().is_none_or(|e| e.dist >= bound)
    }
}

impl Frontier for BucketQueue {
    #[inline]
    fn push(&mut self, dist: f64, node: NodeId) {
        BucketQueue::push(self, dist, node);
    }

    #[inline]
    fn pop(&mut self) -> Option<(f64, NodeId)> {
        BucketQueue::pop(self)
    }

    #[inline]
    fn nothing_below(&mut self, bound: f64) -> bool {
        BucketQueue::nothing_below(self, bound)
    }
}

/// When [`CsrSubgraph::relax`] may end before its frontier is empty. A
/// type, not a value tested per pop, so a full run compiles to the plain
/// loop.
trait Stop: Copy {
    fn reached<F: Frontier>(self, frontier: &mut F, dist: &[f64]) -> bool;
}

/// Run to exhaustion: every label is final.
impl Stop for () {
    #[inline]
    fn reached<F: Frontier>(self, _: &mut F, _: &[f64]) -> bool {
        false
    }
}

/// Stop as soon as this target's label is final: no queued entry can
/// still strictly lower it.
impl Stop for NodeId {
    #[inline]
    fn reached<F: Frontier>(self, frontier: &mut F, dist: &[f64]) -> bool {
        frontier.nothing_below(dist[self.index()])
    }
}

/// A CSR-packed view of a subset of a parent [`Graph`]'s edges.
///
/// The vertex set (and the vertex identifiers) are those of the parent
/// graph; only the selected edges are materialized. Each stored half-edge
/// remembers the parent's [`EdgeId`], so edge-fault masks expressed over the
/// parent graph apply directly.
///
/// # Example
///
/// ```
/// use ftspan_graph::{csr::CsrSubgraph, Graph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_unit_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])?;
/// let csr = CsrSubgraph::from_graph(&g);
/// let dead = vec![false, true, false, false];
/// let dist = csr.sssp(NodeId::new(0), Some(&dead), None)?;
/// // With vertex 1 dead, vertex 2 is reached the long way around.
/// assert_eq!(dist[2], 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrSubgraph {
    /// `offsets[v]..offsets[v + 1]` indexes the half-edges out of `v`.
    offsets: Vec<u32>,
    /// Neighbor of each half-edge.
    targets: Vec<NodeId>,
    /// Weight of each half-edge.
    weights: Vec<f64>,
    /// Parent-graph edge identifier of each half-edge.
    edge_ids: Vec<EdgeId>,
    /// Number of selected (undirected) edges.
    edge_count: usize,
    /// Edge count of the parent graph (for mask validation).
    parent_edge_count: usize,
    /// Largest half-edge weight (0 when no edges are selected); drives the
    /// bucket-queue ring size.
    max_weight: f64,
    /// Smallest positive half-edge weight (`INFINITY` when there is none);
    /// with `max_weight` it decides whether searches use the bucket queue.
    min_positive_weight: f64,
    /// Sum of all half-edge weights; `weight_sum / targets.len()` is the
    /// mean weight the bucket-queue delta heuristic starts from.
    weight_sum: f64,
}

impl CsrSubgraph {
    /// Packs the edges of `graph` selected by `edges` into CSR form.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MismatchedEdgeSet`] if `edges` was built for a
    /// different edge count.
    pub fn from_edge_set(graph: &Graph, edges: &EdgeSet) -> Result<Self> {
        if edges.capacity() != graph.edge_count() {
            return Err(GraphError::MismatchedEdgeSet {
                set_len: edges.capacity(),
                graph_len: graph.edge_count(),
            });
        }
        let n = graph.node_count();
        let mut degree = vec![0u32; n];
        for id in edges.iter() {
            let e = graph.edge(id);
            degree[e.u.index()] += 1;
            degree[e.v.index()] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let half = offsets[n] as usize;
        let mut targets = vec![NodeId::new(0); half];
        let mut weights = vec![0.0f64; half];
        let mut edge_ids = vec![EdgeId::new(0); half];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for id in edges.iter() {
            let e = graph.edge(id);
            for (from, to) in [(e.u, e.v), (e.v, e.u)] {
                let slot = cursor[from.index()] as usize;
                targets[slot] = to;
                weights[slot] = e.weight;
                edge_ids[slot] = id;
                cursor[from.index()] += 1;
            }
        }
        let (max_weight, min_positive_weight, weight_sum) = weight_stats(&weights);
        Ok(CsrSubgraph {
            offsets,
            targets,
            weights,
            edge_ids,
            edge_count: edges.len(),
            parent_edge_count: graph.edge_count(),
            max_weight,
            min_positive_weight,
            weight_sum,
        })
    }

    /// Packs *every* edge of `graph` into CSR form.
    pub fn from_graph(graph: &Graph) -> Self {
        Self::from_edge_set(graph, &graph.full_edge_set())
            .expect("the full edge set always matches the graph")
    }

    /// Packs an `n`-vertex graph directly from an edge list, without ever
    /// materializing a [`Graph`].
    ///
    /// This is the streaming generators' back end: edges flow straight into
    /// the two-pass counting build, so peak memory is the CSR itself plus
    /// the caller's edge list. Edge identifiers are assigned in input order
    /// and the resulting view is *full* (`edge_count == parent_edge_count`),
    /// so edge-fault masks of length `edges.len()` apply directly.
    ///
    /// Duplicate edges are not detected here (the list is not required to
    /// be sorted); [`CsrSubgraph::to_graph`] rejects them when a simple
    /// graph is reconstructed.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if any endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if any edge is a self-loop.
    /// * [`GraphError::InvalidWeight`] if any weight is negative or not
    ///   finite.
    pub fn from_edge_list(n: usize, edges: &[(usize, usize, f64)]) -> Result<Self> {
        let mut builder = CsrBuilder::new(n);
        for &(u, v, _) in edges {
            builder.count_edge(u, v)?;
        }
        builder.begin_fill();
        for &(u, v, w) in edges {
            builder.push_edge(u, v, w)?;
        }
        builder.finish()
    }

    /// Reconstructs a [`Graph`] from a *full* CSR view (one where every
    /// parent edge is selected), preserving edge identifiers exactly: edge
    /// `i` of the returned graph is the CSR half-edge pair labelled `i`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if this view selects only a
    /// subset of its parent's edges (partial views cannot speak for parent
    /// edge identifiers they do not contain), if an edge identifier is
    /// missing or duplicated, or if the reconstruction would contain
    /// parallel edges.
    pub fn to_graph(&self) -> Result<Graph> {
        if self.edge_count != self.parent_edge_count {
            return Err(GraphError::InvalidParameter {
                message: format!(
                    "to_graph requires a full CSR view ({} of {} parent edges selected)",
                    self.edge_count, self.parent_edge_count
                ),
            });
        }
        let mut records: Vec<Option<Edge>> = vec![None; self.edge_count];
        for v in 0..self.node_count() {
            let lo = self.offsets[v] as usize;
            let hi = self.offsets[v + 1] as usize;
            for i in lo..hi {
                let u = self.targets[i];
                if v < u.index() {
                    let slot = self.edge_ids[i].index();
                    if records[slot].is_some() {
                        return Err(GraphError::InvalidParameter {
                            message: format!("edge id {slot} appears twice in CSR view"),
                        });
                    }
                    records[slot] = Some(Edge {
                        u: NodeId::new(v),
                        v: u,
                        weight: self.weights[i],
                    });
                }
            }
        }
        let edges: Vec<Edge> = records
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                e.ok_or_else(|| GraphError::InvalidParameter {
                    message: format!("edge id {i} missing from CSR view"),
                })
            })
            .collect::<Result<_>>()?;
        Graph::from_indexed_edges(self.node_count(), edges)
    }

    /// Number of vertices (the parent graph's).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of selected (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Edge count of the parent graph this view was packed from.
    #[inline]
    pub fn parent_edge_count(&self) -> usize {
        self.parent_edge_count
    }

    /// Degree of `v` within the selected edge subset.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Iterator over `(neighbor, weight, parent EdgeId)` triples out of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64, EdgeId)> + '_ {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        (lo..hi).map(move |i| (self.targets[i], self.weights[i], self.edge_ids[i]))
    }

    fn validate_masks(
        &self,
        source: NodeId,
        dead: Option<&[bool]>,
        dead_edges: Option<&[bool]>,
    ) -> Result<()> {
        let n = self.node_count();
        if source.index() >= n {
            return Err(GraphError::NodeOutOfBounds {
                node: source.index(),
                len: n,
            });
        }
        if let Some(dead) = dead {
            if dead.len() != n {
                return Err(GraphError::NodeOutOfBounds {
                    node: dead.len(),
                    len: n,
                });
            }
        }
        if let Some(dead_edges) = dead_edges {
            if dead_edges.len() != self.parent_edge_count {
                return Err(GraphError::MismatchedEdgeSet {
                    set_len: dead_edges.len(),
                    graph_len: self.parent_edge_count,
                });
            }
        }
        Ok(())
    }

    /// Dijkstra from `source` over the packed edges, skipping vertices with
    /// `dead[v] == true` and half-edges whose parent edge is marked in
    /// `dead_edges` (a mask over *parent* edge identifiers).
    ///
    /// Returns the distance to every vertex (`INFINITY` when unreachable; a
    /// dead source reaches nothing).
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if `source` is out of bounds or
    ///   `dead` has the wrong length.
    /// * [`GraphError::MismatchedEdgeSet`] if `dead_edges` does not match the
    ///   parent graph's edge count.
    pub fn sssp(
        &self,
        source: NodeId,
        dead: Option<&[bool]>,
        dead_edges: Option<&[bool]>,
    ) -> Result<Vec<f64>> {
        Ok(self.sssp_with_parents(source, dead, dead_edges)?.0)
    }

    /// Like [`CsrSubgraph::sssp`], but also returns the predecessor of every
    /// reached vertex (`None` for the source and unreachable vertices), so
    /// callers can extract actual shortest paths.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CsrSubgraph::sssp`].
    pub fn sssp_with_parents(
        &self,
        source: NodeId,
        dead: Option<&[bool]>,
        dead_edges: Option<&[bool]>,
    ) -> Result<(Vec<f64>, Vec<Option<NodeId>>)> {
        let mut workspace = SsspWorkspace::new();
        self.sssp_into(source, dead, dead_edges, &mut workspace)?;
        let SsspWorkspace { dist, parent, .. } = workspace;
        Ok((dist, parent))
    }

    /// Like [`CsrSubgraph::sssp_with_parents`], but writes into a reusable
    /// [`SsspWorkspace`] instead of allocating fresh distance/parent arrays.
    ///
    /// Serving hot paths answer thousands of queries against the same CSR;
    /// reusing one workspace across them removes three allocations (and the
    /// page-faulting they imply) per traversal. The results are **identical**
    /// to the allocating variants — the workspace only changes where they
    /// land.
    ///
    /// The frontier is a bucket queue (Dial's algorithm with real-valued
    /// bucket widths) when the CSR has at least 2048 half-edges and its
    /// largest weight is at most 100 times its smallest positive one, and a
    /// binary heap otherwise: a deterministic function of the packed CSR.
    /// Either way the distances are **bit-identical**:
    /// floating-point addition of non-negative weights is monotone, so the
    /// strict-improvement relaxation fixpoint the traversal converges to is
    /// unique regardless of expansion order. Parent trees are valid
    /// shortest-path trees (`dist[v] == dist[parent[v]] + w` exactly, for an
    /// edge of weight `w`), though ties may be broken differently by the two
    /// frontiers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CsrSubgraph::sssp`].
    pub fn sssp_into(
        &self,
        source: NodeId,
        dead: Option<&[bool]>,
        dead_edges: Option<&[bool]>,
        workspace: &mut SsspWorkspace,
    ) -> Result<()> {
        self.search(source, (), dead, dead_edges, workspace)
    }

    /// Like [`CsrSubgraph::sssp_into`], but stops as soon as `target`'s
    /// label is final: the point-to-point query. Afterwards
    /// `workspace.distances()[target]` and the path
    /// [`reconstruct_path`] reads from the workspace to `target` are
    /// **bit-identical** to those of the full [`CsrSubgraph::sssp_into`]
    /// run on the same CSR and masks; every other entry may be partial
    /// (`INFINITY` for a vertex the search never reached, or a label the
    /// full run would lower). An unreachable or dead target is never
    /// final early, so the search then runs to exhaustion.
    ///
    /// Why it is exact: the search is the full run's relaxation loop,
    /// which before each pop asks its frontier whether any queued entry is
    /// below `dist[target]`, and ends when none is. The binary heap answers
    /// by peeking; the bucket queue answers once its drain cursor is two
    /// buckets past `dist[target]`'s.
    ///
    /// 1. After the stop, every queued entry is at least the frontier
    ///    bound, which is at least `dist[target]`; every later candidate
    ///    `d + w` is at least a popped `d` (weights are non-negative and
    ///    floating-point addition is monotone), so it is too.
    /// 2. So no later strict improvement can reach `target`, nor any vertex
    ///    labelled at most `dist[target]` — which includes every vertex on
    ///    `target`'s parent chain, since labels only grow along it. Parents
    ///    change only on a strict improvement, so the chain is final too.
    /// 3. The frontier, the pushes and the pops are those of the full run
    ///    up to the stop: the bounded run is a prefix of the full run's pop
    ///    sequence, so `dist[target]` and the reconstructed path equal the
    ///    full run's.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CsrSubgraph::sssp`], and
    /// [`GraphError::NodeOutOfBounds`] if `target` is out of bounds.
    pub fn sssp_target_into(
        &self,
        source: NodeId,
        target: NodeId,
        dead: Option<&[bool]>,
        dead_edges: Option<&[bool]>,
        workspace: &mut SsspWorkspace,
    ) -> Result<()> {
        let n = self.node_count();
        if target.index() >= n {
            return Err(GraphError::NodeOutOfBounds {
                node: target.index(),
                len: n,
            });
        }
        self.search(source, target, dead, dead_edges, workspace)
    }

    /// The body of [`CsrSubgraph::sssp_into`] and
    /// [`CsrSubgraph::sssp_target_into`]: validation, frontier choice and
    /// one [`CsrSubgraph::relax`] run ending at `stop`.
    fn search<S: Stop>(
        &self,
        source: NodeId,
        stop: S,
        dead: Option<&[bool]>,
        dead_edges: Option<&[bool]>,
        workspace: &mut SsspWorkspace,
    ) -> Result<()> {
        self.validate_masks(source, dead, dead_edges)?;
        workspace.reset(self.node_count());
        let is_dead = |v: NodeId| dead.is_some_and(|d| d[v.index()]);
        if is_dead(source) {
            return Ok(());
        }
        let live = |i: usize, u: NodeId| {
            !is_dead(u) && !dead_edges.is_some_and(|m| m[self.edge_ids[i].index()])
        };
        let SsspWorkspace {
            dist,
            parent,
            heap,
            buckets,
            ..
        } = workspace;
        dist[source.index()] = 0.0;
        if self.uses_bucket_queue() {
            let delta =
                BucketQueue::suggest_delta(self.weight_sum, self.max_weight, self.targets.len());
            buckets.reset(delta, self.max_weight);
            buckets.push(0.0, source);
            self.relax(buckets, dist, Some(parent), live, stop);
        } else {
            Frontier::push(heap, 0.0, source);
            self.relax(heap, dist, Some(parent), live, stop);
        }
        Ok(())
    }

    /// Whether [`CsrSubgraph::search`] runs on the bucket queue: enough
    /// half-edges to amortize its reset, and a weight spread narrow enough
    /// for its buckets to keep labels apart.
    fn uses_bucket_queue(&self) -> bool {
        self.targets.len() >= BUCKET_QUEUE_HALF_EDGES
            && self.max_weight <= BUCKET_QUEUE_MAX_SPREAD * self.min_positive_weight
    }

    /// Dijkstra's relaxation loop, shared by every search and by the
    /// recomputation phase of [`CsrSubgraph::sssp_repair_into`]: pops
    /// `frontier` until it is empty or `stop` is reached, skips stale
    /// entries, and relaxes each half-edge `i` out of the popped vertex
    /// whose head `u` passes `live(i, u)`. Every strict improvement is
    /// pushed, and recorded in `parent` when one is given.
    #[inline]
    fn relax<F: Frontier, S: Stop>(
        &self,
        frontier: &mut F,
        dist: &mut [f64],
        mut parent: Option<&mut Vec<Option<NodeId>>>,
        live: impl Fn(usize, NodeId) -> bool,
        stop: S,
    ) {
        while !stop.reached(frontier, dist) {
            let Some((d, v)) = frontier.pop() else {
                break;
            };
            if d > dist[v.index()] {
                continue;
            }
            for i in self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize {
                let u = self.targets[i];
                if !live(i, u) {
                    continue;
                }
                let nd = d + self.weights[i];
                if nd < dist[u.index()] {
                    dist[u.index()] = nd;
                    if let Some(parent) = parent.as_deref_mut() {
                        parent[u.index()] = Some(v);
                    }
                    frontier.push(nd, u);
                }
            }
        }
    }

    /// Derives the masked distance row from `source` out of its unmasked
    /// row `free` (what [`CsrSubgraph::sssp_into`] writes with no masks) by
    /// a local repair: writes exactly the distances `sssp_into` would write
    /// under the given masks, bit for bit, but past one copy of
    /// `free` it visits only the vertices whose every tight path runs
    /// through a fault, and their neighbours. Parents are not produced:
    /// [`SsspWorkspace::parents`] is empty after a repair.
    ///
    /// `fault_ends` must list every dead vertex and both endpoints of every
    /// dead edge (duplicates are harmless); the repair is seeded from that
    /// list, never by scanning the masks.
    ///
    /// Why it is exact: both rows are the unique relaxation fixpoints of
    /// their graphs (see [`CsrSubgraph::sssp_into`]), the masked row is never below
    /// the free one, and a vertex with a live path whose every edge is tight
    /// in `free` (`free[z] + w == free[y]`, in floating point) therefore
    /// keeps its free label. The repair certifies such paths in ascending
    /// `free` order from the tight out-neighbours of the faults, marks every
    /// vertex it cannot certify *affected*, and recomputes the affected
    /// region with a Dijkstra seeded from its live unaffected neighbours.
    /// Certification demands a strictly smaller in-neighbour label, so ties
    /// through zero-weight edges may mark a vertex affected that would keep
    /// its label; the recomputation gives it that label anyway.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if `source` or a `fault_ends`
    ///   entry is out of bounds, or `dead` has the wrong length.
    /// * [`GraphError::MismatchedEdgeSet`] if `dead_edges` does not match
    ///   the parent graph's edge count.
    /// * [`GraphError::InvalidParameter`] if `free` is not one distance per
    ///   vertex.
    pub fn sssp_repair_into(
        &self,
        source: NodeId,
        free: &[f64],
        dead: Option<&[bool]>,
        dead_edges: Option<&[bool]>,
        fault_ends: &[NodeId],
        workspace: &mut SsspWorkspace,
    ) -> Result<()> {
        self.validate_masks(source, dead, dead_edges)?;
        let n = self.node_count();
        if free.len() != n {
            return Err(GraphError::InvalidParameter {
                message: format!("free row has {} entries for {n} vertices", free.len()),
            });
        }
        if let Some(x) = fault_ends.iter().find(|x| x.index() >= n) {
            return Err(GraphError::NodeOutOfBounds {
                node: x.index(),
                len: n,
            });
        }
        let is_dead = |v: NodeId| dead.is_some_and(|d| d[v.index()]);
        let edge_dead = |i: usize| dead_edges.is_some_and(|m| m[self.edge_ids[i].index()]);
        let SsspWorkspace {
            dist,
            parent,
            heap,
            mark,
            affected,
            ..
        } = workspace;
        parent.clear();
        heap.clear();
        affected.clear();
        dist.clear();
        if is_dead(source) {
            dist.resize(n, INFINITY);
            return Ok(());
        }
        dist.extend_from_slice(free);
        mark.clear();
        mark.resize(n, UNSEEN);

        // Seeds: the tight out-neighbours of every dead vertex and the tight
        // heads of every dead edge.
        for &x in fault_ends {
            let x_dead = is_dead(x);
            if x_dead {
                dist[x.index()] = INFINITY;
            }
            let fx = free[x.index()];
            if fx.is_infinite() {
                continue;
            }
            for i in self.offsets[x.index()] as usize..self.offsets[x.index() + 1] as usize {
                let y = self.targets[i];
                if (x_dead || edge_dead(i))
                    && y != source
                    && !is_dead(y)
                    && mark[y.index()] == UNSEEN
                    && fx + self.weights[i] == free[y.index()]
                {
                    mark[y.index()] = SEEN;
                    heap.push(HeapEntry {
                        dist: free[y.index()],
                        node: y,
                    });
                }
            }
        }

        // Certification in ascending `free` order: every push carries a key
        // no smaller than the one being popped, so an in-neighbour with a
        // strictly smaller label has its final status by now.
        while let Some(HeapEntry { dist: fy, node: y }) = heap.pop() {
            let lo = self.offsets[y.index()] as usize;
            let hi = self.offsets[y.index() + 1] as usize;
            let certified = (lo..hi).any(|i| {
                let z = self.targets[i];
                let fz = free[z.index()];
                fz < fy
                    && fz + self.weights[i] == fy
                    && mark[z.index()] != AFFECTED
                    && !is_dead(z)
                    && !edge_dead(i)
            });
            if certified {
                continue;
            }
            mark[y.index()] = AFFECTED;
            dist[y.index()] = INFINITY;
            affected.push(y);
            for i in lo..hi {
                let x = self.targets[i];
                if x != source
                    && mark[x.index()] == UNSEEN
                    && !is_dead(x)
                    && fy + self.weights[i] == free[x.index()]
                {
                    mark[x.index()] = SEEN;
                    heap.push(HeapEntry {
                        dist: free[x.index()],
                        node: x,
                    });
                }
            }
        }

        // Dijkstra over the affected region, entered from its live
        // unaffected neighbours (whose labels are final).
        for &a in affected.iter() {
            let mut best = INFINITY;
            for i in self.offsets[a.index()] as usize..self.offsets[a.index() + 1] as usize {
                let z = self.targets[i];
                if mark[z.index()] != AFFECTED && !is_dead(z) && !edge_dead(i) {
                    let nd = dist[z.index()] + self.weights[i];
                    if nd < best {
                        best = nd;
                    }
                }
            }
            if best.is_finite() {
                dist[a.index()] = best;
                heap.push(HeapEntry {
                    dist: best,
                    node: a,
                });
            }
        }
        self.relax(
            heap,
            dist,
            None,
            |i, u| mark[u.index()] == AFFECTED && !edge_dead(i),
            (),
        );
        Ok(())
    }
}

/// [`CsrSubgraph::sssp_repair_into`] vertex states: not reached by the
/// repair, queued for (or passed) certification, or affected.
const UNSEEN: u8 = 0;
const SEEN: u8 = 1;
const AFFECTED: u8 = 2;

/// Two-phase streaming builder for a *full* [`CsrSubgraph`], the back end
/// of the memory-bounded generators in
/// [`stream`](crate::stream): callers first announce every edge's endpoints
/// ([`CsrBuilder::count_edge`]), then replay the same edges with weights
/// ([`CsrBuilder::push_edge`]), and no intermediate [`Graph`] or edge list
/// is ever materialized — peak memory is the finished CSR plus one cursor
/// array.
///
/// Edge identifiers are assigned in push order, so the two passes must
/// enumerate edges identically (same edges, same order).
///
/// # Example
///
/// ```
/// use ftspan_graph::csr::CsrBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let edges = [(0, 1, 1.0), (1, 2, 2.0)];
/// let mut b = CsrBuilder::new(3);
/// for &(u, v, _) in &edges {
///     b.count_edge(u, v)?;
/// }
/// b.begin_fill();
/// for &(u, v, w) in &edges {
///     b.push_edge(u, v, w)?;
/// }
/// let csr = b.finish()?;
/// assert_eq!(csr.edge_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    /// During counting, `offsets[v + 1]` accumulates `degree(v)`; after
    /// `begin_fill` it is the finished prefix-sum array.
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<f64>,
    edge_ids: Vec<EdgeId>,
    cursor: Vec<u32>,
    counted: usize,
    filled: usize,
    filling: bool,
}

impl CsrBuilder {
    /// A builder for an `n`-vertex CSR, in the counting phase.
    pub fn new(n: usize) -> Self {
        CsrBuilder {
            offsets: vec![0u32; n + 1],
            targets: Vec::new(),
            weights: Vec::new(),
            edge_ids: Vec::new(),
            cursor: Vec::new(),
            counted: 0,
            filled: 0,
            filling: false,
        }
    }

    /// Number of vertices of the CSR under construction.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Phase one: record that an edge `(u, v)` will be pushed later.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if an endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    /// * [`GraphError::InvalidParameter`] if counting after
    ///   [`CsrBuilder::begin_fill`], or past `u32::MAX / 2` edges.
    pub fn count_edge(&mut self, u: usize, v: usize) -> Result<()> {
        if self.filling {
            return Err(GraphError::InvalidParameter {
                message: "count_edge called after begin_fill".into(),
            });
        }
        let n = self.node_count();
        for x in [u, v] {
            if x >= n {
                return Err(GraphError::NodeOutOfBounds { node: x, len: n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.counted >= (u32::MAX / 2) as usize {
            return Err(GraphError::InvalidParameter {
                message: "CSR builder is limited to u32::MAX / 2 edges".into(),
            });
        }
        self.offsets[u + 1] += 1;
        self.offsets[v + 1] += 1;
        self.counted += 1;
        Ok(())
    }

    /// Switches from counting to filling: builds the offset prefix sums and
    /// allocates the half-edge arrays. Idempotent.
    pub fn begin_fill(&mut self) {
        if self.filling {
            return;
        }
        let n = self.node_count();
        for v in 0..n {
            self.offsets[v + 1] += self.offsets[v];
        }
        let half = self.offsets[n] as usize;
        self.targets = vec![NodeId::new(0); half];
        self.weights = vec![0.0f64; half];
        self.edge_ids = vec![EdgeId::new(0); half];
        self.cursor = self.offsets[..n].to_vec();
        self.filling = true;
    }

    /// Phase two: push edge `(u, v)` with its weight. Edges must arrive in
    /// the same order as the counting pass; the edge receives the next
    /// sequential [`EdgeId`].
    ///
    /// # Errors
    ///
    /// * [`GraphError::InvalidWeight`] if `w` is negative or not finite.
    /// * [`GraphError::NodeOutOfBounds`] / [`GraphError::SelfLoop`] as in
    ///   [`CsrBuilder::count_edge`].
    /// * [`GraphError::InvalidParameter`] if called before
    ///   [`CsrBuilder::begin_fill`] or with more edges than were counted.
    pub fn push_edge(&mut self, u: usize, v: usize, w: f64) -> Result<()> {
        if !self.filling {
            return Err(GraphError::InvalidParameter {
                message: "push_edge called before begin_fill".into(),
            });
        }
        let n = self.node_count();
        for x in [u, v] {
            if x >= n {
                return Err(GraphError::NodeOutOfBounds { node: x, len: n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if !(w.is_finite() && w >= 0.0) {
            return Err(GraphError::InvalidWeight { weight: w });
        }
        if self.filled >= self.counted {
            return Err(GraphError::InvalidParameter {
                message: "more edges pushed than counted".into(),
            });
        }
        let id = EdgeId::new(self.filled);
        for (from, to) in [(u, v), (v, u)] {
            let slot = self.cursor[from] as usize;
            // A fill pass that deviates from the counting pass can overrun a
            // vertex's slot range; the cheap invariant check below catches
            // it at the vertex boundary.
            if slot >= self.offsets[from + 1] as usize {
                return Err(GraphError::InvalidParameter {
                    message: format!("fill pass disagrees with counting pass at vertex {from}"),
                });
            }
            self.targets[slot] = NodeId::new(to);
            self.weights[slot] = w;
            self.edge_ids[slot] = id;
            self.cursor[from] += 1;
        }
        self.filled += 1;
        Ok(())
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if fewer edges were pushed
    /// than counted.
    pub fn finish(mut self) -> Result<CsrSubgraph> {
        self.begin_fill(); // no-op unless zero edges were pushed at all
        if self.filled != self.counted {
            return Err(GraphError::InvalidParameter {
                message: format!(
                    "CSR builder counted {} edges but {} were pushed",
                    self.counted, self.filled
                ),
            });
        }
        let (max_weight, min_positive_weight, weight_sum) = weight_stats(&self.weights);
        Ok(CsrSubgraph {
            offsets: self.offsets,
            targets: self.targets,
            weights: self.weights,
            edge_ids: self.edge_ids,
            edge_count: self.filled,
            parent_edge_count: self.filled,
            max_weight,
            min_positive_weight,
            weight_sum,
        })
    }
}

/// Maximum, smallest positive value and sum of the half-edge weight array
/// (0, `INFINITY` and 0 when no weight is positive).
fn weight_stats(weights: &[f64]) -> (f64, f64, f64) {
    let mut max_weight = 0.0f64;
    let mut min_positive = f64::INFINITY;
    let mut weight_sum = 0.0f64;
    for &w in weights {
        if w > max_weight {
            max_weight = w;
        }
        if w > 0.0 && w < min_positive {
            min_positive = w;
        }
        weight_sum += w;
    }
    (max_weight, min_positive, weight_sum)
}

/// Reusable buffers for [`CsrSubgraph::sssp_into`]: the distance array, the
/// parent array and the binary heap of one Dijkstra run (plus the vertex
/// states of a [`CsrSubgraph::sssp_repair_into`] run).
///
/// One workspace serves any number of traversals (over CSRs of any size —
/// buffers grow as needed and are reset, not reallocated, between runs).
/// After a run, [`SsspWorkspace::distances`] and [`SsspWorkspace::parents`]
/// expose the results exactly as [`CsrSubgraph::sssp_with_parents`] would
/// have returned them.
#[derive(Debug, Clone, Default)]
pub struct SsspWorkspace {
    dist: Vec<f64>,
    parent: Vec<Option<NodeId>>,
    heap: BinaryHeap<HeapEntry>,
    buckets: BucketQueue,
    mark: Vec<u8>,
    affected: Vec<NodeId>,
}

impl SsspWorkspace {
    /// An empty workspace (buffers are sized lazily by the first run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Distances of the last run (`INFINITY` for unreached vertices).
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Predecessors of the last run (`None` for the source and unreached
    /// vertices; empty after a repair).
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parent
    }

    /// Clears the buffers and sizes them for an `n`-vertex traversal.
    fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, INFINITY);
        self.parent.clear();
        self.parent.resize(n, None);
        self.heap.clear();
    }
}

/// Reconstructs the path `source -> target` from a predecessor array
/// produced by [`CsrSubgraph::sssp_with_parents`] run from `source`.
///
/// Returns `None` when `target` was not reached. The path lists vertices in
/// order, starting at `source` and ending at `target` (a single-vertex path
/// when they coincide and the source was reached).
pub fn reconstruct_path(
    parents: &[Option<NodeId>],
    dist: &[f64],
    source: NodeId,
    target: NodeId,
) -> Option<Vec<NodeId>> {
    if target.index() >= dist.len() || dist[target.index()].is_infinite() {
        return None;
    }
    let mut path = vec![target];
    let mut cursor = target;
    while cursor != source {
        cursor = parents[cursor.index()]?;
        path.push(cursor);
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::shortest_path::SsspOptions;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn csr_matches_graph_adjacency() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (0, 3, 4.0)]).unwrap();
        let csr = CsrSubgraph::from_graph(&g);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.degree(NodeId::new(0)), 2);
        let nbrs: Vec<NodeId> = csr.neighbors(NodeId::new(1)).map(|(v, _, _)| v).collect();
        assert!(nbrs.contains(&NodeId::new(0)));
        assert!(nbrs.contains(&NodeId::new(2)));
    }

    #[test]
    fn csr_sssp_agrees_with_sssp_options_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..8 {
            let g = generate::gnp(
                20,
                0.3,
                generate::WeightKind::Uniform { min: 0.5, max: 3.0 },
                &mut rng,
            );
            // A random edge subset as "spanner".
            let mut subset = g.empty_edge_set();
            for (id, _) in g.edges() {
                if rand::Rng::gen::<f64>(&mut rng) < 0.7 {
                    subset.insert(id);
                }
            }
            let csr = CsrSubgraph::from_edge_set(&g, &subset).unwrap();
            let dead = {
                let mut d = vec![false; g.node_count()];
                d[3] = true;
                d[7] = true;
                d
            };
            for src in [0usize, 5, 11] {
                let reference = SsspOptions::new()
                    .restrict_edges(&subset)
                    .forbid_vertices(&dead)
                    .run(&g, NodeId::new(src))
                    .unwrap();
                let fast = csr.sssp(NodeId::new(src), Some(&dead), None).unwrap();
                assert_eq!(reference, fast);
            }
        }
    }

    #[test]
    fn csr_edge_mask_drops_edges() {
        let g = Graph::from_unit_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let csr = CsrSubgraph::from_graph(&g);
        let mut dead_edges = vec![false; g.edge_count()];
        dead_edges[0] = true; // kill (0, 1)
        let d = csr.sssp(NodeId::new(0), None, Some(&dead_edges)).unwrap();
        assert_eq!(d[1], 3.0); // forced the long way: 0-3-2-1
    }

    #[test]
    fn csr_paths_are_consistent_with_distances() {
        let g =
            Graph::from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 10.0)]).unwrap();
        let csr = CsrSubgraph::from_graph(&g);
        let (dist, parents) = csr.sssp_with_parents(NodeId::new(0), None, None).unwrap();
        let p = reconstruct_path(&parents, &dist, NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(
            p,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
        // Path weight equals the reported distance.
        let mut total = 0.0;
        for w in p.windows(2) {
            let e = g.find_edge(w[0], w[1]).unwrap();
            total += g.edge(e).weight;
        }
        assert_eq!(total, dist[3]);
        // Self-path and unreachable targets.
        assert_eq!(
            reconstruct_path(&parents, &dist, NodeId::new(0), NodeId::new(0)),
            Some(vec![NodeId::new(0)])
        );
        let g2 = Graph::new(2);
        let csr2 = CsrSubgraph::from_graph(&g2);
        let (d2, p2) = csr2.sssp_with_parents(NodeId::new(0), None, None).unwrap();
        assert_eq!(
            reconstruct_path(&p2, &d2, NodeId::new(0), NodeId::new(1)),
            None
        );
    }

    #[test]
    fn csr_dead_source_reaches_nothing() {
        let g = generate::cycle(5);
        let csr = CsrSubgraph::from_graph(&g);
        let mut dead = vec![false; 5];
        dead[0] = true;
        let d = csr.sssp(NodeId::new(0), Some(&dead), None).unwrap();
        assert!(d.iter().all(|x| x.is_infinite()));
    }

    #[test]
    fn workspace_runs_match_allocating_runs_across_csrs() {
        // One workspace, reused across CSRs of different sizes and masks:
        // results must match the allocating API exactly.
        let mut ws = SsspWorkspace::new();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for n in [6usize, 17, 9] {
            let g = generate::gnp(n, 0.4, generate::WeightKind::Unit, &mut rng);
            let csr = CsrSubgraph::from_graph(&g);
            let mut dead = vec![false; n];
            dead[n / 2] = true;
            for src in 0..n.min(4) {
                let (dist, parents) = csr
                    .sssp_with_parents(NodeId::new(src), Some(&dead), None)
                    .unwrap();
                csr.sssp_into(NodeId::new(src), Some(&dead), None, &mut ws)
                    .unwrap();
                assert_eq!(ws.distances(), dist.as_slice());
                assert_eq!(ws.parents(), parents.as_slice());
            }
        }
        // Invalid inputs are still typed errors through the workspace path.
        let g = generate::path(4);
        let csr = CsrSubgraph::from_graph(&g);
        assert!(csr.sssp_into(NodeId::new(9), None, None, &mut ws).is_err());
    }

    #[test]
    fn edge_list_roundtrips_through_graph() {
        let list = [(0usize, 1usize, 1.5), (2, 1, 0.5), (0, 3, 2.0), (2, 3, 1.0)];
        let csr = CsrSubgraph::from_edge_list(4, &list).unwrap();
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.parent_edge_count(), 4);
        let g = csr.to_graph().unwrap();
        assert_eq!(g.edge_count(), 4);
        // Edge ids follow list order, endpoints normalized.
        let e1 = g.edge(EdgeId::new(1));
        assert_eq!(
            (e1.u, e1.v, e1.weight),
            (NodeId::new(1), NodeId::new(2), 0.5)
        );
        // The reconstruction packs back to the same CSR.
        assert_eq!(CsrSubgraph::from_graph(&g), csr);
        // And distances agree with a Graph built the usual way.
        let reference = Graph::from_edges(4, list).unwrap();
        assert_eq!(
            CsrSubgraph::from_graph(&reference)
                .sssp(NodeId::new(0), None, None)
                .unwrap(),
            csr.sssp(NodeId::new(0), None, None).unwrap()
        );
    }

    #[test]
    fn edge_list_and_builder_validate() {
        assert!(CsrSubgraph::from_edge_list(3, &[(0, 3, 1.0)]).is_err());
        assert!(CsrSubgraph::from_edge_list(3, &[(1, 1, 1.0)]).is_err());
        assert!(CsrSubgraph::from_edge_list(3, &[(0, 1, -2.0)]).is_err());
        // Duplicates pack fine (multigraph view) but cannot become a Graph.
        let dup = CsrSubgraph::from_edge_list(3, &[(0, 1, 1.0), (1, 0, 2.0)]).unwrap();
        assert!(dup.to_graph().is_err());
        // A partial view cannot speak for its parent's edge ids.
        let g = generate::path(4);
        let mut keep = g.empty_edge_set();
        keep.insert(EdgeId::new(0));
        let partial = CsrSubgraph::from_edge_set(&g, &keep).unwrap();
        assert!(partial.to_graph().is_err());
        // Builder phase errors are typed.
        let mut b = CsrBuilder::new(2);
        assert!(b.push_edge(0, 1, 1.0).is_err()); // fill before begin_fill
        b.count_edge(0, 1).unwrap();
        b.begin_fill();
        assert!(b.count_edge(0, 1).is_err()); // count after begin_fill
        assert!(b.clone().finish().is_err()); // fewer pushed than counted
        b.push_edge(0, 1, 1.0).unwrap();
        assert!(b.push_edge(0, 1, 1.0).is_err()); // more pushed than counted
        let csr = b.finish().unwrap();
        assert_eq!(csr.edge_count(), 1);
    }

    #[test]
    fn csr_validates_inputs() {
        let g = generate::path(4);
        let csr = CsrSubgraph::from_graph(&g);
        assert!(csr.sssp(NodeId::new(9), None, None).is_err());
        let short_mask = vec![false; 2];
        assert!(csr.sssp(NodeId::new(0), Some(&short_mask), None).is_err());
        let bad_edges = vec![false; 99];
        assert!(csr.sssp(NodeId::new(0), None, Some(&bad_edges)).is_err());
        let wrong = EdgeSet::new(42);
        assert!(CsrSubgraph::from_edge_set(&g, &wrong).is_err());
    }

    #[test]
    fn frontier_choice_follows_size_and_weight_spread() {
        use crate::stream::GeneratorSpec;
        // The perfbench serve-churn road mesh, whose reweights multiply a
        // weight by less than 3, and the serve-fanout G(400, 8000).
        let mesh = GeneratorSpec::PlanarMesh {
            rows: 50,
            cols: 50,
            diagonal_p: 0.3,
            jitter: 0.3,
            seed: 2011,
        }
        .generate_csr()
        .unwrap();
        assert!(mesh.uses_bucket_queue());
        assert!(3.0 * mesh.max_weight <= BUCKET_QUEUE_MAX_SPREAD * mesh.min_positive_weight);
        let gnm = GeneratorSpec::Gnm {
            nodes: 400,
            edges: 8000,
            weights: generate::WeightKind::Uniform {
                min: 1.0,
                max: 10.0,
            },
            seed: 11,
        }
        .generate_csr()
        .unwrap();
        assert!(gnm.uses_bucket_queue());
        // A path of 2048 half-edges: zero weights do not count towards the
        // spread, one heavy edge past it selects the heap, and so does a
        // path one edge shorter.
        let path = |n: usize, heavy: f64| {
            let edges: Vec<_> = (0..n - 1)
                .map(|i| (i, i + 1, [1.0, 0.0, heavy][i % 3]))
                .collect();
            CsrSubgraph::from_edge_list(n, &edges).unwrap()
        };
        assert!(path(1025, 100.0).uses_bucket_queue());
        assert!(!path(1025, 101.0).uses_bucket_queue());
        assert!(!path(1024, 1.0).uses_bucket_queue());
    }
}

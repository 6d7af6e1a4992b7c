//! Sharded fault-tolerant spanner artifacts: partition the input graph,
//! build one [`FtSpanner`] per part, and answer whole-graph queries by
//! scatter-gather over a boundary overlay.
//!
//! # Why sharding is sound
//!
//! Let `V = V₁ ∪ … ∪ V_p` be a partition of `G`'s vertices, let `H_i` be an
//! `r`-fault-tolerant `k`-spanner of the induced subgraph `G[V_i]`, and let
//! `C` be the set of *cut edges* (edges of `G` crossing parts). Then
//!
//! ```text
//! H  =  H₁ ∪ … ∪ H_p ∪ C
//! ```
//!
//! is an `r`-fault-tolerant `k`-spanner of `G`: the fault-tolerant spanner
//! condition only has to hold per *surviving edge* (Section 2 of the paper),
//! and every edge of `G` is either inside some `G[V_i]` — where `H_i`
//! provides the detour — or a cut edge kept verbatim in `H`.
//!
//! # Why the overlay is exact, and where rounding enters
//!
//! A query `d_{H\F}(u, v)` never materializes `H`. Instead each
//! [`ShardedSession`] runs Dijkstra over a small *overlay* graph whose nodes
//! are the boundary vertices (endpoints of cut edges) plus `u` and `v`, and
//! whose edges are
//!
//! * every surviving cut edge, with its own weight, and
//! * for each part, a clique over that part's overlay nodes where the edge
//!   `(a, b)` weighs `d_{H_i \ F}(a, b)` — a row of the per-shard session's
//!   Dijkstra tree.
//!
//! Any `u`–`v` path in `H \ F` decomposes into maximal intra-shard segments
//! joined by cut edges; each segment connects two overlay nodes of one part
//! and is no shorter than the corresponding clique edge. Conversely every
//! overlay edge is realized by an actual surviving path, so the overlay
//! distance is the length of a shortest `u`–`v` path in `H \ F` — not an
//! approximation of it. Baseline distances `d_{G\F}` compose identically
//! over the shard *source* graphs (the induced subgraphs plus the cut edges
//! are exactly `G`), which is what a session's
//! [`stretch_certificate`](QuerySession::stretch_certificate)
//! reports against.
//!
//! That argument is over real numbers. In floating point the overlay sums a
//! path's weights per shard segment and then across segments, while a flat
//! Dijkstra over `H` folds them edge by edge from `u`, so the two may differ
//! in the last bits. What the tests pin: on unit weights every finite
//! distance is a small integer and the answers are bit-identical to the
//! union artifact (`tests/sharded.rs`); on the weighted planar-mesh and
//! hyperbolic families they agree within 1e-12 relative error, with
//! identical typed errors (`tests/adversarial.rs`). Sharded answers are
//! bit-identical to themselves at every worker count.
//!
//! # Where the shard rows come from
//!
//! The "boundary distance matrix" is never computed eagerly; each row is
//! made the first time the overlay pops that node. The rows come from three
//! tiers:
//!
//! * **Artifact-wide fault-free rows.** A fault set `F` with `|F| ≤ r`
//!   touches only the shards holding a faulted vertex or a faulted
//!   intra-shard edge (a cut-edge fault touches none). Every other shard
//!   answers with `H_i \ F = H_i`, the same for every query. So the rows of
//!   the boundary vertices of such a *clean* shard are kept on the
//!   [`ShardedArtifact`] itself, filled on first use and shared by every
//!   later session on every thread. Each is the Dijkstra run of a fault-free
//!   shard session — the very computation a clean shard's per-session cache
//!   would make — so answers are bit-identical whichever tier serves a row.
//! * **Repaired rows.** A boundary row of a *faulted* shard starts from the
//!   same shared fault-free row (filled if cold) and is repaired under the
//!   shard's faults by
//!   [`CsrSubgraph::sssp_repair_into`](ftspan_graph::csr::CsrSubgraph::sssp_repair_into),
//!   then kept for the rest of the session. Removing `F` changes only the
//!   labels whose every shortest path runs through `F`: both rows are the
//!   unique relaxation fixpoints of their graphs, the faulted row is never
//!   below the fault-free one, so a vertex with a surviving path of
//!   fault-free-tight edges keeps its label bit for bit, and the repair
//!   recomputes every other vertex with a Dijkstra over that region alone.
//!   The repaired row is therefore exactly the faulted shard's Dijkstra row.
//! * **Per-session rows.** The rows of query endpoints that are not
//!   boundary vertices go through the session's per-shard
//!   [`CachedSession`]s, as do all path expansions.
//!
//! The shared table stores distances only, one spanner and one baseline row
//! per boundary vertex, so it never holds more than
//! `2 · Σ_p |B_p| · |V_p|` floats (`B_p` the boundary vertices of part `p`);
//! [`ShardedArtifact::shared_row_bytes`] reports what it holds now. A
//! session's repaired rows are bounded the same way over its faulted shards.

use ftspan_core::serve::{CacheStats, CachedSession, FtSpanner, QuerySession};
use ftspan_core::{CoreError, FaultModel, Result, StretchCertificate};
use ftspan_graph::partition::{partition, PartitionConfig};
use ftspan_graph::shortest_path::HeapEntry;
use ftspan_graph::{Graph, NodeId};
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::OnceLock;

use crate::engine::SOURCE_CACHE_CAPACITY;
use crate::FtSpannerBuilder;

/// An edge of the source graph whose endpoints live in different shards.
///
/// Cut edges are carried verbatim (they are part of the sharded spanner *and*
/// of the reassembled source graph) and are addressed by their global
/// endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutEdge {
    /// Smaller-index endpoint (global vertex id).
    pub u: NodeId,
    /// Larger-index endpoint (global vertex id).
    pub v: NodeId,
    /// Edge length (finite, `>= 0`).
    pub weight: f64,
}

/// Internal: a cut edge plus the boundary ranks of its endpoints, so the
/// overlay Dijkstra never has to binary-search during relaxation.
#[derive(Debug, Clone, Copy)]
struct IndexedCut {
    u: NodeId,
    v: NodeId,
    weight: f64,
    u_rank: u32,
    v_rank: u32,
}

/// The artifact-wide table of fault-free shard rows: entry
/// `2 · rank + baseline` holds the distances, over the local ids of its
/// part, from boundary vertex `boundary[rank]` in that part's spanner (or,
/// with `baseline`, its source graph). Filled lazily, never evicted.
#[derive(Clone)]
struct SharedRows(Box<[OnceLock<Box<[f64]>>]>);

impl SharedRows {
    fn new(boundary: usize) -> Self {
        Self((0..2 * boundary).map(|_| OnceLock::new()).collect())
    }

    fn filled(&self) -> impl Iterator<Item = &[f64]> {
        self.0
            .iter()
            .filter_map(|cell| cell.get().map(|row| &row[..]))
    }
}

/// Prints the fill level, not the (up to megabytes of) row contents.
impl fmt::Debug for SharedRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SharedRows {{ filled: {}, total: {} }}",
            self.filled().count(),
            self.0.len()
        )
    }
}

/// A fault-tolerant spanner artifact split across shards.
///
/// Built by [`ShardedArtifact::build`] (partition → per-shard construction
/// through the registry → overlay assembly) or reassembled from persisted
/// parts with [`ShardedArtifact::from_parts`]. Queries go through
/// [`ShardedSession`]s, which answer what a single-artifact session over the
/// union spanner would answer — bit for bit on unit weights, within float
/// summation order on weighted graphs (see the module docs for the argument
/// and the tests that pin each) — while only ever running Dijkstra inside
/// individual shards and over the boundary overlay.
#[derive(Debug, Clone)]
pub struct ShardedArtifact {
    /// Per-part artifacts over shard-local vertex ids (`0..members[p].len()`).
    shards: Vec<FtSpanner>,
    /// Global vertex id → part index.
    part_of: Vec<u32>,
    /// Global vertex id → local id within its part.
    local_of: Vec<u32>,
    /// Part index → ascending global ids (local id = rank in this list).
    members: Vec<Vec<NodeId>>,
    /// Cut edges sorted by normalized `(u, v)` endpoint pair.
    cuts: Vec<IndexedCut>,
    /// Ascending global ids of all cut-edge endpoints.
    boundary: Vec<NodeId>,
    /// Boundary rank → indices into `cuts` incident to that vertex.
    cut_adj: Vec<Vec<u32>>,
    /// Fault-free boundary rows, shared by every session.
    rows: SharedRows,
    fault_model: FaultModel,
    faults: usize,
    stretch: f64,
    nodes: usize,
}

impl ShardedArtifact {
    /// Partitions `graph` with `config`, builds one spanner artifact per
    /// part through `builder` (each part sees an induced subgraph with
    /// shard-local vertex ids), and assembles the boundary overlay.
    ///
    /// Construction is deterministic: the partitioner is seeded, and every
    /// shard is built by the same (seeded) builder configuration.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Graph`] if partitioning fails (bad part count, or a
    ///   part's leftover vertices cannot be placed — see
    ///   [`ftspan_graph::GraphError::PartitionStalled`]).
    /// * Any construction error from the underlying registry algorithm.
    pub fn build(
        graph: &Graph,
        builder: &FtSpannerBuilder,
        config: &PartitionConfig,
    ) -> Result<Self> {
        let part = partition(graph, config).map_err(CoreError::Graph)?;
        let parts = part.part_count();
        let assignment: Vec<u32> = part.assignment().to_vec();

        // Induce one shard-local subgraph per part.
        let members: Vec<Vec<NodeId>> = (0..parts).map(|p| part.members(p)).collect();
        let mut local_of = vec![0u32; graph.node_count()];
        for list in &members {
            for (local, &g) in list.iter().enumerate() {
                local_of[g.index()] = local as u32;
            }
        }
        let mut shard_graphs: Vec<Graph> =
            members.iter().map(|list| Graph::new(list.len())).collect();
        let mut cut_edges = Vec::new();
        for (_, e) in graph.edges() {
            let (pu, pv) = (assignment[e.u.index()], assignment[e.v.index()]);
            if pu == pv {
                shard_graphs[pu as usize]
                    .add_edge(
                        NodeId::new(local_of[e.u.index()] as usize),
                        NodeId::new(local_of[e.v.index()] as usize),
                        e.weight,
                    )
                    .map_err(CoreError::Graph)?;
            } else {
                cut_edges.push(CutEdge {
                    u: e.u,
                    v: e.v,
                    weight: e.weight,
                });
            }
        }

        let shards = shard_graphs
            .iter()
            .map(|g| builder.build_artifact(g))
            .collect::<Result<Vec<_>>>()?;
        Self::from_parts(shards, assignment, cut_edges)
    }

    /// Reassembles a sharded artifact from its persisted parts: per-shard
    /// artifacts (over local ids), the global vertex → part assignment, and
    /// the cut edges.
    ///
    /// All derived structure (members, boundary, cut adjacency) is recomputed
    /// and the parts are cross-validated, so a corrupted manifest surfaces as
    /// a typed error rather than a wrong answer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the parts are mutually
    /// inconsistent: no shards, mismatched `(fault model, budget, stretch)`
    /// metadata across shards, an assignment entry naming a missing part, a
    /// shard whose node count disagrees with the assignment, or a cut edge
    /// that is out of bounds, self-looped, non-crossing, duplicated, or
    /// carrying a non-finite/negative weight.
    pub fn from_parts(
        shards: Vec<FtSpanner>,
        assignment: Vec<u32>,
        cut_edges: Vec<CutEdge>,
    ) -> Result<Self> {
        let invalid = |message: String| Err(CoreError::InvalidParameter { message });
        if shards.is_empty() {
            return invalid("sharded artifact needs at least one shard".into());
        }
        let (fault_model, faults, stretch) = (
            shards[0].fault_model(),
            shards[0].fault_budget(),
            shards[0].stretch(),
        );
        for (p, s) in shards.iter().enumerate() {
            if s.fault_model() != fault_model || s.fault_budget() != faults {
                return invalid(format!(
                    "shard {p} declares ({:?}, r={}) but shard 0 declares ({:?}, r={})",
                    s.fault_model(),
                    s.fault_budget(),
                    fault_model,
                    faults
                ));
            }
            if s.stretch() != stretch {
                return invalid(format!(
                    "shard {p} declares stretch {} but shard 0 declares {stretch}",
                    s.stretch()
                ));
            }
        }

        let nodes = assignment.len();
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); shards.len()];
        let mut local_of = vec![0u32; nodes];
        for (g, &p) in assignment.iter().enumerate() {
            let Some(list) = members.get_mut(p as usize) else {
                return invalid(format!(
                    "vertex {g} is assigned to part {p} but only {} shards exist",
                    shards.len()
                ));
            };
            local_of[g] = list.len() as u32;
            list.push(NodeId::new(g));
        }
        for (p, (s, list)) in shards.iter().zip(&members).enumerate() {
            if s.node_count() != list.len() {
                return invalid(format!(
                    "shard {p} has {} nodes but the assignment gives it {}",
                    s.node_count(),
                    list.len()
                ));
            }
        }

        let mut cuts: Vec<IndexedCut> = Vec::with_capacity(cut_edges.len());
        for c in &cut_edges {
            let (u, v) = if c.u <= c.v { (c.u, c.v) } else { (c.v, c.u) };
            if v.index() >= nodes || u == v {
                return invalid(format!(
                    "cut edge ({}, {}) is out of bounds or a self-loop for {nodes} nodes",
                    c.u.index(),
                    c.v.index()
                ));
            }
            if assignment[u.index()] == assignment[v.index()] {
                return invalid(format!(
                    "cut edge ({}, {}) does not cross parts (both in part {})",
                    u.index(),
                    v.index(),
                    assignment[u.index()]
                ));
            }
            if !c.weight.is_finite() || c.weight < 0.0 {
                return invalid(format!(
                    "cut edge ({}, {}) has invalid weight {}",
                    u.index(),
                    v.index(),
                    c.weight
                ));
            }
            cuts.push(IndexedCut {
                u,
                v,
                weight: c.weight,
                u_rank: 0,
                v_rank: 0,
            });
        }
        cuts.sort_by_key(|c| (c.u, c.v));
        if cuts
            .windows(2)
            .any(|w| (w[0].u, w[0].v) == (w[1].u, w[1].v))
        {
            return invalid("duplicate cut edge".into());
        }

        let mut boundary: Vec<NodeId> = cuts.iter().flat_map(|c| [c.u, c.v]).collect();
        boundary.sort_unstable();
        boundary.dedup();
        let rank = |x: NodeId| boundary.binary_search(&x).expect("endpoint is boundary") as u32;
        let mut cut_adj = vec![Vec::new(); boundary.len()];
        for (i, c) in cuts.iter_mut().enumerate() {
            c.u_rank = rank(c.u);
            c.v_rank = rank(c.v);
            cut_adj[c.u_rank as usize].push(i as u32);
            cut_adj[c.v_rank as usize].push(i as u32);
        }

        Ok(Self {
            shards,
            part_of: assignment,
            local_of,
            members,
            cuts,
            rows: SharedRows::new(boundary.len()),
            boundary,
            cut_adj,
            fault_model,
            faults,
            stretch,
            nodes,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard artifacts, over shard-local vertex ids.
    pub fn shards(&self) -> &[FtSpanner] {
        &self.shards
    }

    /// Global vertex id → part index.
    pub fn assignment(&self) -> &[u32] {
        &self.part_of
    }

    /// The part a global vertex belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn part_of(&self, v: NodeId) -> usize {
        self.part_of[v.index()] as usize
    }

    /// Ascending global ids of part `p` (local id = rank in this list).
    ///
    /// # Panics
    ///
    /// Panics if `p >= shard_count()`.
    pub fn shard_members(&self, p: usize) -> &[NodeId] {
        &self.members[p]
    }

    /// The cut edges, sorted by normalized endpoint pair.
    pub fn cut_edges(&self) -> impl Iterator<Item = CutEdge> + '_ {
        self.cuts.iter().map(|c| CutEdge {
            u: c.u,
            v: c.v,
            weight: c.weight,
        })
    }

    /// Number of cut edges.
    pub fn cut_edge_count(&self) -> usize {
        self.cuts.len()
    }

    /// Ascending global ids of all cut-edge endpoints.
    pub fn boundary_vertices(&self) -> &[NodeId] {
        &self.boundary
    }

    /// Declared fault model (uniform across shards).
    pub fn fault_model(&self) -> FaultModel {
        self.fault_model
    }

    /// Declared fault budget `r` (uniform across shards).
    pub fn fault_budget(&self) -> usize {
        self.faults
    }

    /// Declared stretch bound `k` (uniform across shards).
    pub fn stretch(&self) -> f64 {
        self.stretch
    }

    /// Number of vertices of the whole (unsharded) graph.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Edges of the union spanner `H = ∪ H_i ∪ C`.
    pub fn spanner_edge_count(&self) -> usize {
        self.shards
            .iter()
            .map(FtSpanner::spanner_edge_count)
            .sum::<usize>()
            + self.cuts.len()
    }

    /// Edges of the reassembled source graph `G` (induced shard edges plus
    /// cut edges).
    pub fn source_edge_count(&self) -> usize {
        self.shards
            .iter()
            .map(FtSpanner::source_edge_count)
            .sum::<usize>()
            + self.cuts.len()
    }

    /// Bytes held by the fault-free shard rows filled so far (see the
    /// module docs: at most `2 · Σ_p |B_p| · |V_p|` floats, and `0` until
    /// the first query).
    pub fn shared_row_bytes(&self) -> usize {
        self.rows.filled().map(std::mem::size_of_val).sum()
    }

    /// The fault-free row of boundary vertex `boundary[rank]` within its
    /// shard (spanner distances, or with `baseline` source-graph ones),
    /// computed on first use.
    fn shared_row(&self, rank: usize, baseline: bool) -> Result<&[f64]> {
        let cell = &self.rows.0[2 * rank + usize::from(baseline)];
        if let Some(row) = cell.get() {
            return Ok(row);
        }
        let x = self.boundary[rank];
        let session = self.shards[self.part_of[x.index()] as usize].session();
        let local = NodeId::new(self.local_of[x.index()] as usize);
        let row = if baseline {
            session.baseline_distances_from(local)?
        } else {
            session.distances_from(local)?
        };
        // A racing thread may have filled the cell meanwhile; its row is the
        // same, so whichever landed first is kept.
        Ok(cell.get_or_init(|| row.into_boxed_slice()))
    }

    /// Reassembles the union spanner `H = ∪ H_i ∪ C` as a single artifact
    /// over global vertex ids — the reference object the sharded query path
    /// is differential-tested against, and an escape hatch for tooling that
    /// wants one flat [`FtSpanner`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] if the parts do not reassemble into a
    /// simple graph (cannot happen for artifacts built by
    /// [`ShardedArtifact::build`]).
    pub fn to_union_artifact(&self) -> Result<FtSpanner> {
        let mut g = Graph::new(self.nodes);
        let mut spanner_edges = Vec::new();
        for (p, shard) in self.shards.iter().enumerate() {
            let list = &self.members[p];
            for (id, e) in shard.source_graph().edges() {
                let global = g
                    .add_edge(list[e.u.index()], list[e.v.index()], e.weight)
                    .map_err(CoreError::Graph)?;
                if shard.spanner_edges().contains(id) {
                    spanner_edges.push(global);
                }
            }
        }
        for c in &self.cuts {
            let global = g.add_edge(c.u, c.v, c.weight).map_err(CoreError::Graph)?;
            spanner_edges.push(global);
        }
        let mut set = g.empty_edge_set();
        for e in spanner_edges {
            set.insert(e);
        }
        FtSpanner::from_edge_set(
            &g,
            set,
            self.shards[0].algorithm(),
            &format!("sharded union of {} parts", self.shards.len()),
            self.fault_model,
            self.faults,
            self.stretch,
        )
    }

    /// Opens a query session with no faults.
    pub fn session(&self) -> ShardedSession<'_> {
        self.under_faults(&[])
            .expect("empty fault set is always valid")
    }

    /// Opens a query session in which the given (global) vertices have
    /// failed. Each shard's session caches the rows of non-boundary query
    /// endpoints and the trees of path expansions for up to 64 sources
    /// (boundary rows are shared or repaired instead).
    ///
    /// # Errors
    ///
    /// Exactly the single-artifact contract of
    /// [`FtSpanner::under_faults`]: [`CoreError::FaultModelMismatch`] if the
    /// artifact declares edge faults, [`CoreError::UnknownNode`] for an
    /// out-of-bounds fault, [`CoreError::TooManyFaults`] if the deduplicated
    /// set exceeds the budget.
    pub fn under_faults(&self, faults: &[NodeId]) -> Result<ShardedSession<'_>> {
        if self.fault_model != FaultModel::Vertex {
            return Err(CoreError::FaultModelMismatch {
                declared: self.fault_model,
                requested: FaultModel::Vertex,
            });
        }
        let mut dead = vec![false; self.nodes];
        let mut distinct = 0usize;
        for &f in faults {
            if f.index() >= self.nodes {
                return Err(CoreError::UnknownNode {
                    node: f.index(),
                    nodes: self.nodes,
                });
            }
            if !dead[f.index()] {
                dead[f.index()] = true;
                distinct += 1;
            }
        }
        if distinct > self.faults {
            return Err(CoreError::TooManyFaults {
                given: distinct,
                budget: self.faults,
            });
        }
        // Scatter the global fault set into per-shard local fault lists. A
        // shard sees a subset of a within-budget set, so its own budget
        // check can never fire.
        let mut local: Vec<Vec<NodeId>> = vec![Vec::new(); self.shards.len()];
        if distinct > 0 {
            for (g, &d) in dead.iter().enumerate() {
                if d {
                    local[self.part_of[g] as usize].push(NodeId::new(self.local_of[g] as usize));
                }
            }
        }
        let sessions = self
            .shards
            .iter()
            .zip(&local)
            .map(|(s, f)| Ok(s.under_faults(f)?.cached(SOURCE_CACHE_CAPACITY)))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedSession {
            artifact: self,
            shards: sessions,
            clean: local.iter().map(Vec::is_empty).collect(),
            dead: if distinct == 0 { Vec::new() } else { dead },
            dead_cut: Vec::new(),
            repaired: Vec::new(),
            fault_count: distinct,
        })
    }

    /// Opens a query session in which the given edges (named by their global
    /// endpoints) have failed, with the per-shard caches of
    /// [`ShardedArtifact::under_faults`].
    ///
    /// # Errors
    ///
    /// Exactly the single-artifact contract of
    /// [`FtSpanner::under_edge_faults`]: [`CoreError::FaultModelMismatch`]
    /// if the artifact declares vertex faults, [`CoreError::UnknownNode`] /
    /// [`CoreError::UnknownEdge`] for a bad endpoint or a non-edge,
    /// [`CoreError::TooManyFaults`] over budget.
    pub fn under_edge_faults(&self, faults: &[(NodeId, NodeId)]) -> Result<ShardedSession<'_>> {
        if self.fault_model != FaultModel::Edge {
            return Err(CoreError::FaultModelMismatch {
                declared: self.fault_model,
                requested: FaultModel::Edge,
            });
        }
        // Mirrors FtSpanner::under_edge_faults: per pair in input order —
        // endpoint bounds, then edge existence — then dedup, then budget.
        let mut dead_cut = vec![false; self.cuts.len()];
        let mut dead_local: Vec<Vec<bool>> = self
            .shards
            .iter()
            .map(|s| vec![false; s.source_edge_count()])
            .collect();
        let mut distinct = 0usize;
        let mut any_cut = false;
        for &(u, v) in faults {
            for x in [u, v] {
                if x.index() >= self.nodes {
                    return Err(CoreError::UnknownNode {
                        node: x.index(),
                        nodes: self.nodes,
                    });
                }
            }
            let (a, b) = if u <= v { (u, v) } else { (v, u) };
            let missing = CoreError::UnknownEdge {
                u: u.index(),
                v: v.index(),
            };
            if a == b {
                return Err(missing);
            }
            let (pa, pb) = (self.part_of[a.index()], self.part_of[b.index()]);
            if pa == pb {
                let p = pa as usize;
                let (la, lb) = (
                    NodeId::new(self.local_of[a.index()] as usize),
                    NodeId::new(self.local_of[b.index()] as usize),
                );
                let id = self.shards[p]
                    .source_graph()
                    .find_edge(la, lb)
                    .ok_or(missing)?;
                if !dead_local[p][id.index()] {
                    dead_local[p][id.index()] = true;
                    distinct += 1;
                }
            } else {
                let i = self
                    .cuts
                    .binary_search_by_key(&(a, b), |c| (c.u, c.v))
                    .map_err(|_| missing)?;
                if !dead_cut[i] {
                    dead_cut[i] = true;
                    distinct += 1;
                    any_cut = true;
                }
            }
        }
        if distinct > self.faults {
            return Err(CoreError::TooManyFaults {
                given: distinct,
                budget: self.faults,
            });
        }
        let sessions = self
            .shards
            .iter()
            .zip(&dead_local)
            .map(|(s, mask)| {
                let pairs: Vec<(NodeId, NodeId)> = mask
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d)
                    .map(|(id, _)| {
                        let e = s.source_graph().edge(ftspan_graph::EdgeId::new(id));
                        (e.u, e.v)
                    })
                    .collect();
                Ok(s.under_edge_faults(&pairs)?.cached(SOURCE_CACHE_CAPACITY))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedSession {
            artifact: self,
            shards: sessions,
            clean: dead_local
                .iter()
                .map(|mask| !mask.contains(&true))
                .collect(),
            dead: Vec::new(),
            dead_cut: if any_cut { dead_cut } else { Vec::new() },
            repaired: Vec::new(),
            fault_count: distinct,
        })
    }
}

/// How an overlay Dijkstra step reached a node: through a cut edge, or
/// through a shard-internal shortest path (a clique edge of part `p`).
#[derive(Debug, Clone, Copy)]
enum Via {
    Cut,
    Shard(u32),
}

/// A fault-scoped query session over a [`ShardedArtifact`].
///
/// Implements [`QuerySession`] — `distance` / `path` /
/// `stretch_certificate` with the same edge-case semantics as a flat
/// [`FaultSession`](ftspan_core::FaultSession) (`INFINITY` / `None` for
/// dead or disconnected endpoints, vacuous stretch `1.0`) — but routes every
/// query through the boundary overlay described in the module docs.
///
/// The session records which shards its fault set leaves *clean* (no
/// faulted vertex, no faulted intra-shard edge). Boundary rows of clean
/// shards are read from the artifact-wide table, shared with every other
/// session; boundary rows of faulted shards are repaired from that table
/// and kept for the session. The per-shard [`CachedSession`]s hold only the
/// rows of non-boundary endpoints and the trees of path expansions. That
/// memoization is why methods take `&mut self`. Every tier yields exactly
/// the surviving shard's Dijkstra row, so answers do not depend on which
/// one served a row, nor on what earlier sessions asked.
#[derive(Debug)]
pub struct ShardedSession<'a> {
    artifact: &'a ShardedArtifact,
    shards: Vec<CachedSession<'a>>,
    /// Per shard: no fault touches it, so its boundary rows are shared.
    clean: Vec<bool>,
    /// Global dead-vertex mask; empty when no vertex faults.
    dead: Vec<bool>,
    /// Dead cut-edge mask; empty when no cut edge is faulted.
    dead_cut: Vec<bool>,
    /// Boundary rows of faulted shards repaired so far, laid out like the
    /// artifact's shared rows; empty until the first one is needed.
    repaired: Vec<Option<Box<[f64]>>>,
    fault_count: usize,
}

impl<'a> ShardedSession<'a> {
    /// The artifact this session queries.
    pub fn artifact(&self) -> &'a ShardedArtifact {
        self.artifact
    }

    /// Number of distinct faults masked by this session (across all shards
    /// and cut edges).
    pub fn fault_count(&self) -> usize {
        self.fault_count
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        let n = self.artifact.nodes;
        if v.index() >= n {
            return Err(CoreError::UnknownNode {
                node: v.index(),
                nodes: n,
            });
        }
        Ok(())
    }

    fn is_dead(&self, v: NodeId) -> bool {
        !self.dead.is_empty() && self.dead[v.index()]
    }

    /// The row of boundary vertex `boundary[rank]` within its faulted
    /// shard, repaired from the shared fault-free row on first use and kept
    /// for the rest of the session.
    fn repaired_row(&mut self, rank: usize, baseline: bool) -> Result<&[f64]> {
        let art = self.artifact;
        if self.repaired.is_empty() {
            self.repaired = vec![None; 2 * art.boundary.len()];
        }
        let slot = 2 * rank + usize::from(baseline);
        if self.repaired[slot].is_none() {
            let x = art.boundary[rank];
            let local = NodeId::new(art.local_of[x.index()] as usize);
            let free = art.shared_row(rank, baseline)?;
            let row = self.shards[art.part_of[x.index()] as usize]
                .repair_distance_row(local, free, baseline)?;
            self.repaired[slot] = Some(row.into());
        }
        Ok(self.repaired[slot].as_deref().expect("just filled"))
    }

    /// Distance from `u` to `v` in the surviving *source* graph `G \ F` —
    /// the baseline the stretch guarantee compares against, composed from
    /// shard source graphs plus cut edges.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if an endpoint is out of bounds.
    pub fn baseline_distance(&mut self, u: NodeId, v: NodeId) -> Result<f64> {
        self.check_node(u)?;
        self.check_node(v)?;
        Ok(self.overlay(u, v, true, false)?.0)
    }

    /// The exact overlay Dijkstra. `baseline` selects shard *source* rows
    /// (for `d_{G\F}`) instead of shard *spanner* rows (for `d_{H\F}`);
    /// `want_path` additionally expands the overlay route into a global
    /// vertex path.
    fn overlay(
        &mut self,
        u: NodeId,
        v: NodeId,
        baseline: bool,
        want_path: bool,
    ) -> Result<(f64, Option<Vec<NodeId>>)> {
        if self.is_dead(u) || self.is_dead(v) {
            return Ok((f64::INFINITY, None));
        }
        let art = self.artifact;
        let b = art.boundary.len();

        // Overlay nodes: every boundary vertex, plus u and v when they are
        // not boundary vertices themselves.
        let mut nodes: Vec<NodeId> = art.boundary.clone();
        let ui = match art.boundary.binary_search(&u) {
            Ok(i) => i,
            Err(_) => {
                nodes.push(u);
                nodes.len() - 1
            }
        };
        let vi = if v == u {
            ui
        } else {
            match art.boundary.binary_search(&v) {
                Ok(i) => i,
                Err(_) => {
                    nodes.push(v);
                    nodes.len() - 1
                }
            }
        };

        // Per-part lists of live overlay nodes: the clique targets.
        let mut part_nodes: Vec<Vec<u32>> = vec![Vec::new(); art.shards.len()];
        for (i, &x) in nodes.iter().enumerate() {
            if !self.is_dead(x) {
                part_nodes[art.part_of[x.index()] as usize].push(i as u32);
            }
        }

        let mut dist = vec![f64::INFINITY; nodes.len()];
        let mut parent: Vec<Option<(u32, Via)>> = if want_path {
            vec![None; nodes.len()]
        } else {
            Vec::new()
        };
        let mut heap = BinaryHeap::new();
        dist[ui] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: NodeId::new(ui),
        });
        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            let i = node.index();
            if d > dist[i] {
                continue;
            }
            if i == vi {
                break;
            }
            let x = nodes[i];
            let p = art.part_of[x.index()] as usize;
            let row = if i >= b {
                let lx = NodeId::new(art.local_of[x.index()] as usize);
                self.shards[p].distance_row(lx, baseline)?
            } else if self.clean[p] {
                art.shared_row(i, baseline)?
            } else {
                self.repaired_row(i, baseline)?
            };
            for &j32 in &part_nodes[p] {
                let j = j32 as usize;
                if j == i {
                    continue;
                }
                let w = row[art.local_of[nodes[j].index()] as usize];
                if !w.is_finite() {
                    continue;
                }
                let nd = d + w;
                if nd < dist[j] {
                    dist[j] = nd;
                    if want_path {
                        parent[j] = Some((i as u32, Via::Shard(p as u32)));
                    }
                    heap.push(HeapEntry {
                        dist: nd,
                        node: NodeId::new(j),
                    });
                }
            }
            if i < b {
                for &ci in &art.cut_adj[i] {
                    let ci = ci as usize;
                    if !self.dead_cut.is_empty() && self.dead_cut[ci] {
                        continue;
                    }
                    let c = &art.cuts[ci];
                    let (j, y) = if c.u == x {
                        (c.v_rank as usize, c.v)
                    } else {
                        (c.u_rank as usize, c.u)
                    };
                    // Never relax *into* a dead vertex: a live→dead cut edge
                    // must not give the dead endpoint a finite label that a
                    // second cut edge could route through.
                    if self.is_dead(y) {
                        continue;
                    }
                    let nd = d + c.weight;
                    if nd < dist[j] {
                        dist[j] = nd;
                        if want_path {
                            parent[j] = Some((i as u32, Via::Cut));
                        }
                        heap.push(HeapEntry {
                            dist: nd,
                            node: NodeId::new(j),
                        });
                    }
                }
            }
        }

        let total = dist[vi];
        if !want_path || total.is_infinite() {
            return Ok((total, None));
        }

        // Expand the overlay route: cut hops contribute their far endpoint,
        // shard hops contribute the shard-internal shortest path.
        let mut hops = Vec::new();
        let mut cursor = vi;
        while cursor != ui {
            let (prev, via) = parent[cursor].expect("finite distance has a parent chain");
            hops.push((prev as usize, via, cursor));
            cursor = prev as usize;
        }
        hops.reverse();
        let mut path = vec![u];
        for (from, via, to) in hops {
            match via {
                Via::Cut => path.push(nodes[to]),
                Via::Shard(p) => {
                    let p = p as usize;
                    let (a, z) = (nodes[from], nodes[to]);
                    let (la, lz) = (
                        NodeId::new(art.local_of[a.index()] as usize),
                        NodeId::new(art.local_of[z.index()] as usize),
                    );
                    let local = if baseline {
                        // Baseline overlays are only ever run distance-only.
                        unreachable!("baseline overlay never expands paths")
                    } else {
                        self.shards[p].path(la, lz)?
                    };
                    let local = local.expect("finite clique edge has a witnessing path");
                    path.extend(local[1..].iter().map(|l| art.members[p][l.index()]));
                }
            }
        }
        Ok((total, Some(path)))
    }
}

/// Distances and paths come from the overlay over the surviving union
/// spanner, in global vertex ids; certificate baselines come from the same
/// overlay over shard source graphs plus cut edges.
impl QuerySession for ShardedSession<'_> {
    fn distance(&mut self, u: NodeId, v: NodeId) -> Result<f64> {
        self.check_node(u)?;
        self.check_node(v)?;
        Ok(self.overlay(u, v, false, false)?.0)
    }

    fn path(&mut self, u: NodeId, v: NodeId) -> Result<Option<Vec<NodeId>>> {
        self.check_node(u)?;
        self.check_node(v)?;
        Ok(self.overlay(u, v, false, true)?.1)
    }

    fn stretch_certificate(&mut self, u: NodeId, v: NodeId) -> Result<StretchCertificate> {
        self.check_node(u)?;
        self.check_node(v)?;
        let (spanner_distance, path) = self.overlay(u, v, false, true)?;
        let (baseline_distance, _) = self.overlay(u, v, true, false)?;
        Ok(StretchCertificate::new(
            u,
            v,
            spanner_distance,
            baseline_distance,
            self.artifact.stretch,
            path,
        ))
    }

    /// Aggregated per-shard source-cache counters: endpoint rows and path
    /// trees only. Rows read from the artifact-wide fault-free table, and
    /// faulted-shard boundary rows repaired from it, count as neither hit
    /// nor miss.
    fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let cs = s.cache_stats();
            total.hits += cs.hits;
            total.misses += cs.misses;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build_sharded(n: usize, p: f64, parts: usize, seed: u64) -> (Graph, ShardedArtifact) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::connected_gnp(n, p, generate::WeightKind::Unit, &mut rng);
        let builder = FtSpannerBuilder::new("conversion").faults(1).stretch(3.0);
        let sharded =
            ShardedArtifact::build(&g, &builder, &PartitionConfig::new(parts).with_seed(seed))
                .expect("sharded build succeeds");
        (g, sharded)
    }

    #[test]
    fn sharded_build_partitions_and_reassembles_the_graph() {
        let (g, sharded) = build_sharded(40, 0.15, 3, 7);
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(sharded.node_count(), g.node_count());
        assert_eq!(sharded.source_edge_count(), g.edge_count());
        let member_total: usize = (0..3).map(|p| sharded.shard_members(p).len()).sum();
        assert_eq!(member_total, g.node_count());
        // Every cut edge exists in G with the same weight, and crosses parts.
        for c in sharded.cut_edges() {
            let id = g.find_edge(c.u, c.v).expect("cut edge is a G edge");
            assert_eq!(g.edge(id).weight, c.weight);
            assert_ne!(sharded.part_of(c.u), sharded.part_of(c.v));
        }
        // The union artifact reassembles G exactly.
        let union = sharded.to_union_artifact().expect("union assembles");
        assert_eq!(union.node_count(), g.node_count());
        assert_eq!(union.source_edge_count(), g.edge_count());
        assert_eq!(union.spanner_edge_count(), sharded.spanner_edge_count());
    }

    #[test]
    fn sharded_distances_match_the_union_artifact_exactly() {
        let (g, sharded) = build_sharded(36, 0.18, 3, 11);
        let union = sharded.to_union_artifact().expect("union assembles");
        let faults = [NodeId::new(5)];
        let reference = union.under_faults(&faults).expect("session opens");
        let mut session = sharded.under_faults(&faults).expect("session opens");
        for u in 0..g.node_count() {
            let want = reference.distances_from(NodeId::new(u)).expect("row");
            for (v, &expected) in want.iter().enumerate() {
                let got = session
                    .distance(NodeId::new(u), NodeId::new(v))
                    .expect("distance");
                // Unit weights: every finite distance is an integer, so the
                // overlay must agree bit for bit.
                assert_eq!(got, expected, "distance({u}, {v}) under faults");
            }
        }
    }

    #[test]
    fn sharded_paths_are_valid_and_tight() {
        let (_, sharded) = build_sharded(30, 0.2, 2, 3);
        let union = sharded.to_union_artifact().expect("union assembles");
        let faults = [NodeId::new(2)];
        let reference = union.under_faults(&faults).expect("session opens");
        let mut session = sharded.under_faults(&faults).expect("session opens");
        let spanner_graph = union.source_graph();
        for u in 0..sharded.node_count() {
            for v in 0..sharded.node_count() {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                let d = session.distance(u, v).expect("distance");
                let path = session.path(u, v).expect("path");
                match path {
                    None => assert!(d.is_infinite()),
                    Some(p) => {
                        assert_eq!(p.first(), Some(&u));
                        assert_eq!(p.last(), Some(&v));
                        // Walk the path: every hop is a surviving spanner
                        // edge, and the lengths sum to the claimed distance.
                        let mut total = 0.0;
                        for w in p.windows(2) {
                            assert!(!reference
                                .distance(w[0], w[1])
                                .expect("edge check")
                                .is_infinite());
                            let id = spanner_graph
                                .find_edge(w[0], w[1])
                                .expect("path hop is a graph edge");
                            assert!(union.spanner_edges().contains(id));
                            total += spanner_graph.edge(id).weight;
                        }
                        if u != v {
                            assert_eq!(total, d, "path length equals distance");
                        }
                        assert!(!p.iter().any(|&x| x == NodeId::new(2)));
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_error_precedence_mirrors_the_single_artifact() {
        let (_, sharded) = build_sharded(24, 0.2, 2, 13);
        let n = sharded.node_count();
        // Unknown fault node beats the budget check (input order).
        assert!(matches!(
            sharded.under_faults(&[NodeId::new(n + 3), NodeId::new(0), NodeId::new(1)]),
            Err(CoreError::UnknownNode { node, nodes }) if node == n + 3 && nodes == n
        ));
        // Duplicates do not count against the budget.
        assert!(sharded
            .under_faults(&[NodeId::new(1), NodeId::new(1)])
            .is_ok());
        assert!(matches!(
            sharded.under_faults(&[NodeId::new(1), NodeId::new(2)]),
            Err(CoreError::TooManyFaults {
                given: 2,
                budget: 1
            })
        ));
        // Edge faults against a vertex-fault artifact are a model mismatch.
        assert!(matches!(
            sharded.under_edge_faults(&[(NodeId::new(0), NodeId::new(1))]),
            Err(CoreError::FaultModelMismatch {
                declared: FaultModel::Vertex,
                requested: FaultModel::Edge,
            })
        ));
        // Dead endpoints answer INFINITY/None, not an error.
        let mut session = sharded.under_faults(&[NodeId::new(4)]).expect("opens");
        assert!(session
            .distance(NodeId::new(4), NodeId::new(0))
            .expect("distance")
            .is_infinite());
        assert_eq!(
            session.path(NodeId::new(0), NodeId::new(4)).expect("path"),
            None
        );
        // Out-of-bounds queries are typed errors.
        assert!(matches!(
            session.distance(NodeId::new(n), NodeId::new(0)),
            Err(CoreError::UnknownNode { .. })
        ));
    }

    #[test]
    fn sharded_edge_fault_sessions_cover_cut_and_intra_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generate::connected_gnp(32, 0.2, generate::WeightKind::Unit, &mut rng);
        let builder = FtSpannerBuilder::new("edge-fault").faults(1).stretch(3.0);
        let sharded = ShardedArtifact::build(&g, &builder, &PartitionConfig::new(2).with_seed(5))
            .expect("sharded build succeeds");
        assert_eq!(sharded.fault_model(), FaultModel::Edge);
        let union = sharded.to_union_artifact().expect("union assembles");

        // One cut edge and one intra-shard edge, faulted in turn: the
        // sharded answers must match the union artifact bit for bit.
        let cut = sharded.cut_edges().next().expect("cuts exist");
        let intra = g
            .edges()
            .map(|(_, e)| e)
            .find(|e| sharded.part_of(e.u) == sharded.part_of(e.v))
            .expect("intra edge exists");
        for (a, b) in [(cut.u, cut.v), (intra.u, intra.v)] {
            let reference = union.under_edge_faults(&[(a, b)]).expect("opens");
            let mut session = sharded.under_edge_faults(&[(a, b)]).expect("opens");
            assert_eq!(session.fault_count(), 1);
            for u in (0..g.node_count()).step_by(3) {
                let want = reference.distances_from(NodeId::new(u)).expect("row");
                for (v, &expected) in want.iter().enumerate() {
                    let got = session
                        .distance(NodeId::new(u), NodeId::new(v))
                        .expect("distance");
                    assert_eq!(got, expected, "edge fault ({a:?},{b:?}), d({u},{v})");
                }
            }
        }

        // A non-edge is UnknownEdge even when both endpoints are valid.
        let missing = (0..g.node_count())
            .flat_map(|u| ((u + 1)..g.node_count()).map(move |v| (u, v)))
            .find(|&(u, v)| g.find_edge(NodeId::new(u), NodeId::new(v)).is_none())
            .expect("G(n, 0.2) is not complete");
        assert!(matches!(
            sharded.under_edge_faults(&[(NodeId::new(missing.0), NodeId::new(missing.1))]),
            Err(CoreError::UnknownEdge { u, v }) if (u, v) == missing
        ));
    }

    #[test]
    fn sharded_certificates_hold_and_report_exact_baselines() {
        let (g, sharded) = build_sharded(30, 0.2, 3, 17);
        let union = sharded.to_union_artifact().expect("union assembles");
        let faults = [NodeId::new(9)];
        let reference = union.under_faults(&faults).expect("opens");
        let mut session = sharded.under_faults(&faults).expect("opens");
        for u in (0..g.node_count()).step_by(2) {
            for v in (1..g.node_count()).step_by(3) {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                let got = session.stretch_certificate(u, v).expect("certificate");
                let want = reference.stretch_certificate(u, v).expect("certificate");
                assert_eq!(got.spanner_distance, want.spanner_distance);
                assert_eq!(got.baseline_distance, want.baseline_distance);
                assert_eq!(got.stretch, want.stretch);
                assert_eq!(got.bound, want.bound);
                assert!(got.holds(), "declared guarantee holds under faults");
            }
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_shards() {
        let (_, sharded) = build_sharded(24, 0.2, 2, 19);
        let shards: Vec<FtSpanner> = sharded.shards().to_vec();
        let assignment = sharded.assignment().to_vec();
        let cuts: Vec<CutEdge> = sharded.cut_edges().collect();

        // The pristine parts reassemble.
        assert!(
            ShardedArtifact::from_parts(shards.clone(), assignment.clone(), cuts.clone()).is_ok()
        );
        // No shards.
        assert!(ShardedArtifact::from_parts(Vec::new(), assignment.clone(), cuts.clone()).is_err());
        // Assignment naming a missing part.
        let mut bad = assignment.clone();
        bad[0] = 9;
        assert!(ShardedArtifact::from_parts(shards.clone(), bad, cuts.clone()).is_err());
        // Non-crossing cut edge.
        let mut bad_cuts = cuts.clone();
        let part0 = sharded.shard_members(0);
        bad_cuts.push(CutEdge {
            u: part0[0],
            v: part0[1],
            weight: 1.0,
        });
        assert!(ShardedArtifact::from_parts(shards.clone(), assignment.clone(), bad_cuts).is_err());
        // Duplicate cut edge.
        let mut dup = cuts.clone();
        dup.push(cuts[0]);
        assert!(ShardedArtifact::from_parts(shards.clone(), assignment.clone(), dup).is_err());
        // Negative cut weight.
        let mut neg = cuts.clone();
        neg[0].weight = -1.0;
        assert!(ShardedArtifact::from_parts(shards, assignment, neg).is_err());
    }

    #[test]
    fn shared_row_bytes_count_exactly_the_filled_rows() {
        let (_, sharded) = build_sharded(30, 0.2, 3, 29);
        assert_eq!(sharded.shared_row_bytes(), 0, "nothing is filled at load");
        let len = |rank: usize| {
            let x = sharded.boundary_vertices()[rank];
            sharded.shard_members(sharded.part_of(x)).len()
        };
        sharded.shared_row(0, false).expect("row");
        sharded.shared_row(0, true).expect("row");
        sharded.shared_row(1, false).expect("row");
        sharded.shared_row(1, false).expect("row");
        let filled = 2 * len(0) + len(1);
        assert_eq!(sharded.shared_row_bytes(), filled * 8);
        assert_eq!(
            format!("{:?}", sharded.rows),
            format!(
                "SharedRows {{ filled: 3, total: {} }}",
                2 * sharded.boundary_vertices().len()
            )
        );
    }

    #[test]
    fn shared_rows_stay_fault_free_under_faulted_sessions() {
        let (g, sharded) = build_sharded(30, 0.2, 3, 31);
        let fault = sharded.boundary_vertices()[0];
        let faulted = sharded.part_of(fault);
        let mut session = sharded.under_faults(&[fault]).expect("opens");
        for u in 0..g.node_count() {
            for v in 0..g.node_count() {
                session
                    .stretch_certificate(NodeId::new(u), NodeId::new(v))
                    .expect("certificate");
            }
        }
        // The faulted shard fills shared rows too (the fault-free rows its
        // repairs start from); every filled row must still be exactly the
        // fault-free shard row.
        let mut faulted_filled = 0;
        for (rank, &x) in sharded.boundary_vertices().iter().enumerate() {
            let p = sharded.part_of(x);
            let local = NodeId::new(sharded.local_of[x.index()] as usize);
            for baseline in [false, true] {
                let Some(row) = sharded.rows.0[2 * rank + usize::from(baseline)].get() else {
                    continue;
                };
                let fresh = sharded.shards()[p].session();
                let want = if baseline {
                    fresh.baseline_distances_from(local)
                } else {
                    fresh.distances_from(local)
                }
                .expect("row");
                let same = row
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    same && row.len() == want.len(),
                    "shared row of {x:?} ({baseline})"
                );
                faulted_filled += usize::from(p == faulted);
            }
        }
        assert!(
            faulted_filled > 0,
            "the faulted shard's repairs read shared rows"
        );
    }

    #[test]
    fn faulted_shard_boundary_rows_run_no_shard_dijkstra_when_warm() {
        let (_, sharded) = build_sharded(30, 0.2, 3, 31);
        let fault = sharded.boundary_vertices()[0];
        let faulted = sharded.part_of(fault);
        let mut pair = sharded
            .boundary_vertices()
            .iter()
            .copied()
            .filter(|&x| x != fault && sharded.part_of(x) == faulted);
        let (a, z) = (
            pair.next().expect("boundary"),
            pair.next().expect("boundary"),
        );
        // Warm every shared row the query can touch.
        for rank in 0..sharded.boundary_vertices().len() {
            sharded.shared_row(rank, false).expect("row");
        }
        let mut session = sharded.under_faults(&[fault]).expect("opens");
        session.distance(a, z).expect("distance");
        assert_eq!(
            session.cache_stats().misses,
            0,
            "rows were repaired, not recomputed"
        );
    }
}

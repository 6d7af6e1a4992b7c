//! The serving [`Engine`]: named [`FtSpanner`] artifacts, batched queries,
//! a session-reusing query planner, worker threads.
//!
//! The build-once/query-many workflow: construct artifacts through
//! [`FtSpannerBuilder::build_artifact`](crate::FtSpannerBuilder::build_artifact)
//! (or load them with [`FtSpanner::from_binary_file`] / an
//! [`ArtifactStore`](crate::ArtifactStore)), register them under names, then
//! execute whole batches of [`Query`] values. Results come back **in input
//! order**, so a batch is deterministic regardless of worker count or
//! scheduling.
//!
//! # The query planner
//!
//! Serving batches are dominated by repeated fault scopes: thousands of
//! queries against the same artifact under the same fault set, often from a
//! handful of sources. [`Engine::run_batch`] therefore does not open a fresh
//! session per query. It **canonicalizes** each query's fault scope (sorted,
//! deduplicated vertex or edge faults), **groups** the batch by
//! `(artifact, fault scope)`, opens each group's session once, and fans the
//! groups out across the `ftspan_core::par` worker pool.
//!
//! Every query takes the same path, whatever was registered: one `open`
//! checks the query's fault kind against the artifact's [`FaultModel`] and
//! returns a boxed [`QuerySession`], and one `answer` turns the query kind
//! into a `distance`, `path` or `stretch_certificate` call on it. The session
//! behind the trait is a [`FaultSession`] on a flat or dynamic artifact
//! (wrapped in a [`CachedSession`] for a group of more than one query, whose
//! LRU keeps the Dijkstra trees of up to 64 query sources), or a
//! [`ShardedSession`](crate::ShardedSession) that scatter-gathers over the
//! shards.
//!
//! The plan is **observationally transparent**: the results — including
//! per-query errors — are identical to running every query in its own
//! session ([`Engine::run_batch_naive`]), at any worker count.
//!
//! # Dynamic artifacts and warm hand-off
//!
//! An artifact registered through [`Engine::register_dynamic`] carries its
//! build recipe and last applied sequence number (a [`DynamicArtifact`]) and
//! can be evolved in place with [`Engine::apply_deltas`]: version `v_{k+1}`
//! is built **outside the registry lock** — by incremental repair when the
//! [`RebuildPolicy`] allows, by a full rebuild otherwise — while `v_k` keeps
//! serving, then swapped in atomically. Deltas are volatile: no history is
//! kept, and nothing is persisted. Every batch snapshots the registry
//! exactly once before planning, so all of a batch's queries are answered by
//! the same artifact version, and in-flight batches pin the version they
//! started with (`Arc`) until their last query completes: **no query ever
//! observes a half-swapped artifact**, and a swap never waits on queries.
//!
//! [`FaultSession`]: ftspan_core::FaultSession
//! [`CachedSession`]: ftspan_core::CachedSession
//!
//! # Example
//!
//! ```
//! use fault_tolerant_spanners::prelude::*;
//! use fault_tolerant_spanners::{Engine, Query};
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! # use rand::SeedableRng;
//! let network = generate::connected_gnp(30, 0.2, generate::WeightKind::Unit, &mut rng);
//! let artifact = FtSpannerBuilder::new("conversion")
//!     .faults(1)
//!     .build_artifact(&network)
//!     .unwrap();
//!
//! let mut engine = Engine::new();
//! engine.register("backbone", artifact);
//! let queries = vec![
//!     Query::distance("backbone", vec![NodeId::new(3)], NodeId::new(0), NodeId::new(7)),
//!     Query::certificate("backbone", vec![], NodeId::new(1), NodeId::new(4)),
//! ];
//! let results = engine.run_batch(&queries);
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

use crate::shard::ShardedArtifact;
use ftspan_core::serve::{CacheStats, FtSpanner, QuerySession, StretchCertificate};
use ftspan_core::{
    par, ApplyReport, CoreError, DynamicArtifact, EdgeDelta, FaultModel, RebuildPolicy, Result,
};
use ftspan_graph::NodeId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// What a [`Query`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Shortest surviving spanner distance between two vertices.
    Distance,
    /// A shortest surviving spanner path between two vertices.
    Path,
    /// A full [`StretchCertificate`] for the pair.
    Certificate,
}

/// One unit of serving work: an artifact name, a fault scope, a vertex pair
/// and the kind of answer wanted.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Name of the registered artifact to query.
    pub artifact: String,
    /// The failed vertices this query is scoped to (vertex-fault artifacts).
    pub faults: Vec<NodeId>,
    /// The failed edges this query is scoped to (edge-fault artifacts).
    pub edge_faults: Vec<(NodeId, NodeId)>,
    /// First query vertex.
    pub u: NodeId,
    /// Second query vertex.
    pub v: NodeId,
    /// The kind of answer wanted.
    pub kind: QueryKind,
}

impl Query {
    /// A distance query under the given vertex faults.
    pub fn distance(artifact: &str, faults: Vec<NodeId>, u: NodeId, v: NodeId) -> Self {
        Query {
            artifact: artifact.to_string(),
            faults,
            edge_faults: Vec::new(),
            u,
            v,
            kind: QueryKind::Distance,
        }
    }

    /// A path query under the given vertex faults.
    pub fn path(artifact: &str, faults: Vec<NodeId>, u: NodeId, v: NodeId) -> Self {
        Query {
            artifact: artifact.to_string(),
            faults,
            edge_faults: Vec::new(),
            u,
            v,
            kind: QueryKind::Path,
        }
    }

    /// A stretch-certificate query under the given vertex faults.
    pub fn certificate(artifact: &str, faults: Vec<NodeId>, u: NodeId, v: NodeId) -> Self {
        Query {
            artifact: artifact.to_string(),
            faults,
            edge_faults: Vec::new(),
            u,
            v,
            kind: QueryKind::Certificate,
        }
    }

    /// Scopes this query to failed edges instead of failed vertices (for
    /// artifacts declaring [`FaultModel::Edge`]).
    pub fn with_edge_faults(mut self, edge_faults: Vec<(NodeId, NodeId)>) -> Self {
        self.edge_faults = edge_faults;
        self.faults = Vec::new();
        self
    }
}

/// The answer to one [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// Answer to a [`QueryKind::Distance`] query.
    Distance(f64),
    /// Answer to a [`QueryKind::Path`] query (`None` when disconnected).
    Path(Option<Vec<NodeId>>),
    /// Answer to a [`QueryKind::Certificate`] query.
    Certificate(StretchCertificate),
}

impl QueryOutcome {
    /// The distance, if this is a distance outcome.
    pub fn as_distance(&self) -> Option<f64> {
        match self {
            QueryOutcome::Distance(d) => Some(*d),
            _ => None,
        }
    }
}

/// Capacity of the LRU source cache of every cached session the engine (or
/// a [`ShardedArtifact`](crate::ShardedArtifact), per shard) opens: the
/// number of distinct query sources whose Dijkstra trees are kept per
/// `(artifact, fault scope)` group. Lookups scan the recency list linearly;
/// at this size the scan is noise next to the Dijkstra run a hit saves.
pub(crate) const SOURCE_CACHE_CAPACITY: usize = 64;

/// A point-in-time snapshot of an [`Engine`]'s serving counters
/// ([`Engine::stats`]).
///
/// Counters accumulate across every [`Engine::run_batch`] and
/// [`Engine::apply_deltas`] call over the engine's lifetime (the naive
/// reference executor [`Engine::run_batch_naive`] is deliberately
/// uninstrumented). They are observability only — they never influence
/// answers. Clones of an engine share one stats sink, so a server handing
/// clones to worker threads reads fleet-wide totals from any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Batches executed through [`Engine::run_batch`].
    pub batches: u64,
    /// Total queries across those batches.
    pub queries: u64,
    /// `(artifact, fault scope)` groups the planner formed.
    pub planner_groups: u64,
    /// Work units the planner fanned out (groups after splitting).
    pub planner_units: u64,
    /// Source-cache hits inside grouped units (queries answered from a
    /// resident Dijkstra tree).
    pub cache_hits: u64,
    /// Source-cache misses inside grouped units (queries that ran a full
    /// traversal). Singleton units skip the cache machinery entirely and are
    /// counted in neither hits nor misses.
    pub cache_misses: u64,
    /// Warm artifact swaps completed by [`Engine::apply_deltas`] (one per
    /// successfully installed version).
    pub swaps: u64,
    /// Edge deltas applied across those swaps.
    pub deltas_applied: u64,
    /// Swaps whose new version came from a full rebuild rather than an
    /// incremental patch (see
    /// [`RebuildPolicy`]).
    pub rebuilds: u64,
}

impl EngineStats {
    /// Cache hits as a fraction of cache-visible queries (`0.0` when no
    /// grouped query has been served yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Shared atomic counters behind [`Engine::stats`]. Relaxed ordering is
/// enough: the counters are monotone tallies with no cross-field invariant a
/// reader could observe torn.
#[derive(Debug, Default)]
struct StatsCell {
    batches: AtomicU64,
    queries: AtomicU64,
    planner_groups: AtomicU64,
    planner_units: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    swaps: AtomicU64,
    deltas_applied: AtomicU64,
    rebuilds: AtomicU64,
}

impl StatsCell {
    fn snapshot(&self) -> EngineStats {
        EngineStats {
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            planner_groups: self.planner_groups.load(Ordering::Relaxed),
            planner_units: self.planner_units.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
        }
    }
}

/// One consistent view of the registry: all queries of a batch are answered
/// from a single snapshot, taken once before planning.
type Snapshot = BTreeMap<String, ArtifactHandle>;

/// A registered serving target, one variant per registration path
/// ([`Engine::register`] / [`Engine::register_sharded`] /
/// [`Engine::register_dynamic`]): a flat artifact, a sharded one whose
/// queries scatter-gather over a boundary overlay, or a dynamic one carrying
/// its recipe and last applied sequence number. The registry stores these handles, so a
/// registry snapshot is a cheap map clone of `Arc`s and an in-flight batch
/// keeps the version it planned against alive across a concurrent swap.
///
/// Obtained from [`Engine::artifact_handle`]. The uniform accessors
/// (`fault_model`, `stretch`, [`ArtifactHandle::summary`], …) answer the
/// questions a listing or routing layer asks without branching on the
/// artifact kind; `as_single` / `as_sharded` / `as_dynamic` recover the
/// concrete type when a caller genuinely needs one shape. The handle holds
/// `Arc`s, so it stays valid (pinned to the version it was taken at) even if
/// the artifact is concurrently swapped or unregistered.
#[derive(Debug, Clone)]
pub enum ArtifactHandle {
    /// A flat artifact registered through [`Engine::register`].
    Single(Arc<FtSpanner>),
    /// A sharded artifact registered through [`Engine::register_sharded`].
    Sharded(Arc<ShardedArtifact>),
    /// A dynamic artifact registered through [`Engine::register_dynamic`].
    Dynamic(Arc<DynamicArtifact>),
}

impl ArtifactHandle {
    /// Declared fault model.
    pub fn fault_model(&self) -> FaultModel {
        match self {
            ArtifactHandle::Single(a) => a.fault_model(),
            ArtifactHandle::Sharded(a) => a.fault_model(),
            ArtifactHandle::Dynamic(d) => d.artifact().fault_model(),
        }
    }

    /// Declared fault budget `r`.
    pub fn fault_budget(&self) -> usize {
        match self {
            ArtifactHandle::Single(a) => a.fault_budget(),
            ArtifactHandle::Sharded(a) => a.fault_budget(),
            ArtifactHandle::Dynamic(d) => d.artifact().fault_budget(),
        }
    }

    /// Declared stretch bound `k`.
    pub fn stretch(&self) -> f64 {
        match self {
            ArtifactHandle::Single(a) => a.stretch(),
            ArtifactHandle::Sharded(a) => a.stretch(),
            ArtifactHandle::Dynamic(d) => d.artifact().stretch(),
        }
    }

    /// Vertices of the (whole) source graph.
    pub fn node_count(&self) -> usize {
        match self {
            ArtifactHandle::Single(a) => a.node_count(),
            ArtifactHandle::Sharded(a) => a.node_count(),
            ArtifactHandle::Dynamic(d) => d.artifact().node_count(),
        }
    }

    /// Edges of the spanner (for sharded artifacts: the union spanner,
    /// shard spanners plus cut edges).
    pub fn spanner_edge_count(&self) -> usize {
        match self {
            ArtifactHandle::Single(a) => a.spanner_edge_count(),
            ArtifactHandle::Sharded(a) => a.spanner_edge_count(),
            ArtifactHandle::Dynamic(d) => d.artifact().spanner_edge_count(),
        }
    }

    /// Number of shards, or `None` for a flat or dynamic artifact.
    pub fn shard_count(&self) -> Option<usize> {
        match self {
            ArtifactHandle::Single(_) | ArtifactHandle::Dynamic(_) => None,
            ArtifactHandle::Sharded(a) => Some(a.shard_count()),
        }
    }

    /// The flat artifact underneath. For a dynamic registration this is the
    /// currently served version — the handle's answer-giving shape is a
    /// plain [`FtSpanner`] in both cases.
    pub fn as_single(&self) -> Option<&FtSpanner> {
        match self {
            ArtifactHandle::Single(a) => Some(a),
            ArtifactHandle::Dynamic(d) => Some(d.artifact()),
            ArtifactHandle::Sharded(_) => None,
        }
    }

    /// The sharded artifact underneath, if this handle is one.
    pub fn as_sharded(&self) -> Option<&ShardedArtifact> {
        match self {
            ArtifactHandle::Sharded(a) => Some(a),
            _ => None,
        }
    }

    /// The dynamic artifact underneath, if this handle is one.
    pub fn as_dynamic(&self) -> Option<&DynamicArtifact> {
        match self {
            ArtifactHandle::Dynamic(d) => Some(d),
            _ => None,
        }
    }

    /// The owned, kind-agnostic shape of this artifact.
    pub fn summary(&self) -> ArtifactSummary {
        ArtifactSummary {
            fault_model: self.fault_model(),
            fault_budget: self.fault_budget(),
            stretch: self.stretch(),
            nodes: self.node_count(),
            spanner_edges: self.spanner_edge_count(),
            shards: self.shard_count(),
        }
    }
}

/// The serving-relevant shape of a registered artifact, uniform across flat,
/// sharded and dynamic registrations ([`Engine::artifact_summary`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArtifactSummary {
    /// Declared fault model.
    pub fault_model: FaultModel,
    /// Declared fault budget `r`.
    pub fault_budget: usize,
    /// Declared stretch bound `k`.
    pub stretch: f64,
    /// Vertices of the (whole) source graph.
    pub nodes: usize,
    /// Edges of the spanner (for sharded artifacts: the union spanner,
    /// shard spanners plus cut edges).
    pub spanner_edges: usize,
    /// Number of shards, or `None` for a flat or dynamic artifact.
    pub shards: Option<usize>,
}

/// A serving engine holding named [`FtSpanner`] artifacts and executing
/// query batches through a session-reusing planner across worker threads.
///
/// Results are returned in input order and depend only on the artifacts and
/// the queries — never on the worker count — so repeated runs of the same
/// batch are byte-identical.
///
/// Clones share everything: the artifact registry (so a swap through one
/// clone is visible to all), the [`EngineStats`] sink, but each clone keeps
/// its own worker count ([`Engine::with_workers`]). A server hands clones to
/// worker threads and applies deltas through any of them.
#[derive(Debug, Clone)]
pub struct Engine {
    artifacts: Arc<RwLock<Snapshot>>,
    workers: usize,
    stats: Arc<StatsCell>,
}

impl Engine {
    /// An empty engine with one worker per available CPU.
    pub fn new() -> Self {
        Engine {
            artifacts: Arc::new(RwLock::new(BTreeMap::new())),
            workers: par::available_threads(),
            stats: Arc::new(StatsCell::default()),
        }
    }

    /// A snapshot of the engine's lifetime serving counters.
    ///
    /// Counters are shared across clones of this engine, so a server handing
    /// clones to worker threads can read fleet-wide totals from any clone.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    /// Sets the number of worker threads query batches fan out across
    /// (clamped to at least 1; the default is one per available CPU). It
    /// never affects results. `ftspan_net::Server` runs its engine at one
    /// worker: its own worker pool parallelises across batches instead.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    fn registry(&self) -> std::sync::RwLockReadGuard<'_, Snapshot> {
        self.artifacts.read().expect("artifact registry poisoned")
    }

    fn registry_mut(&self) -> std::sync::RwLockWriteGuard<'_, Snapshot> {
        self.artifacts.write().expect("artifact registry poisoned")
    }

    /// One consistent view of the registry for a whole batch: a cheap map
    /// clone of `Arc`s taken under the read lock.
    fn snapshot(&self) -> Snapshot {
        self.registry().clone()
    }

    /// Registers (or replaces) an artifact under `name`.
    pub fn register(&mut self, name: &str, artifact: FtSpanner) -> &mut Self {
        self.registry_mut()
            .insert(name.to_string(), ArtifactHandle::Single(Arc::new(artifact)));
        self
    }

    /// Registers (or replaces) a sharded artifact under `name`. Sharded
    /// artifacts serve the same [`Query`] values as flat ones — the routing
    /// (scatter-gather over the boundary overlay) is an engine concern, not
    /// a client concern.
    pub fn register_sharded(&mut self, name: &str, artifact: ShardedArtifact) -> &mut Self {
        self.registry_mut().insert(
            name.to_string(),
            ArtifactHandle::Sharded(Arc::new(artifact)),
        );
        self
    }

    /// Registers (or replaces) a dynamic artifact under `name`. Dynamic
    /// artifacts serve the same [`Query`] values as flat ones and can be
    /// evolved in place with [`Engine::apply_deltas`].
    pub fn register_dynamic(&mut self, name: &str, artifact: DynamicArtifact) -> &mut Self {
        self.registry_mut().insert(
            name.to_string(),
            ArtifactHandle::Dynamic(Arc::new(artifact)),
        );
        self
    }

    /// Looks up any registered artifact as a kind-agnostic
    /// [`ArtifactHandle`]. This is the one accessor listing and routing
    /// layers need; [`Engine::artifact`] / [`Engine::sharded_artifact`] /
    /// [`Engine::dynamic_artifact`] remain as kind-specific conveniences
    /// built on top of it.
    pub fn artifact_handle(&self, name: &str) -> Option<ArtifactHandle> {
        self.registry().get(name).cloned()
    }

    /// Looks up the served [`FtSpanner`] of a flat **or dynamic**
    /// registration (for a dynamic one: the currently served version).
    /// `None` for names registered through [`Engine::register_sharded`]; use
    /// [`Engine::artifact_handle`] for a kind-agnostic view.
    pub fn artifact(&self, name: &str) -> Option<Arc<FtSpanner>> {
        match self.registry().get(name)? {
            ArtifactHandle::Single(a) => Some(Arc::clone(a)),
            ArtifactHandle::Dynamic(d) => Some(d.artifact_arc()),
            ArtifactHandle::Sharded(_) => None,
        }
    }

    /// Looks up a registered *sharded* artifact.
    pub fn sharded_artifact(&self, name: &str) -> Option<Arc<ShardedArtifact>> {
        match self.registry().get(name)? {
            ArtifactHandle::Sharded(a) => Some(Arc::clone(a)),
            _ => None,
        }
    }

    /// Looks up a registered *dynamic* artifact (the current version — a
    /// concurrent [`Engine::apply_deltas`] replaces the registry slot, never
    /// the value this `Arc` points at).
    pub fn dynamic_artifact(&self, name: &str) -> Option<Arc<DynamicArtifact>> {
        match self.registry().get(name)? {
            ArtifactHandle::Dynamic(d) => Some(Arc::clone(d)),
            _ => None,
        }
    }

    /// The serving-relevant shape of a registered artifact, uniform across
    /// flat, sharded and dynamic registrations.
    pub fn artifact_summary(&self, name: &str) -> Option<ArtifactSummary> {
        Some(self.artifact_handle(name)?.summary())
    }

    /// The registered artifact names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.registry().keys().cloned().collect()
    }

    /// Number of registered artifacts.
    pub fn len(&self) -> usize {
        self.registry().len()
    }

    /// Returns `true` if no artifact is registered.
    pub fn is_empty(&self) -> bool {
        self.registry().is_empty()
    }

    /// Applies a delta batch to the dynamic artifact registered under
    /// `name`, building the next version **off the registry lock** and then
    /// swapping it in atomically.
    ///
    /// # Warm hand-off
    ///
    /// The sequence is: take the current version's `Arc` under a read lock;
    /// release the lock; run [`DynamicArtifact::apply`] (incremental repair
    /// or full rebuild per `policy`) while queries keep being served from
    /// the old version; re-take the lock for writing and swap the registry
    /// slot only if it still holds the version the batch was computed
    /// against (compare-and-swap on `Arc` identity). Batches that snapshot
    /// the registry before the swap finish against the old version —
    /// answers within one batch are always single-version — and the old
    /// version is freed when its last in-flight batch drops it.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownArtifact`] when `name` is not registered;
    /// [`CoreError::InvalidParameter`] when `name` is not a dynamic
    /// registration, when the batch is empty or invalid (see
    /// [`DynamicArtifact::apply`]), or when a concurrent `apply_deltas` /
    /// re-registration replaced the artifact while this batch was building —
    /// in that case nothing is swapped and the caller should retry against
    /// the new current version.
    pub fn apply_deltas(
        &self,
        name: &str,
        deltas: &[EdgeDelta],
        policy: &RebuildPolicy,
    ) -> Result<ApplyReport> {
        let current = match self.registry().get(name) {
            None => {
                return Err(CoreError::UnknownArtifact {
                    name: name.to_string(),
                })
            }
            Some(ArtifactHandle::Dynamic(d)) => Arc::clone(d),
            Some(_) => {
                return Err(CoreError::InvalidParameter {
                    message: format!(
                        "artifact `{name}` was not registered as dynamic; register it \
                         through Engine::register_dynamic to apply deltas"
                    ),
                })
            }
        };
        // Build v_{k+1} with no lock held: v_k keeps serving throughout.
        let (next, report) = current.apply(deltas, policy)?;
        let next = Arc::new(next);
        {
            let mut registry = self.registry_mut();
            match registry.get_mut(name) {
                Some(ArtifactHandle::Dynamic(slot)) if Arc::ptr_eq(slot, &current) => {
                    *slot = next;
                }
                _ => {
                    return Err(CoreError::InvalidParameter {
                        message: format!(
                            "artifact `{name}` changed while the delta batch was \
                             building; retry against the current version"
                        ),
                    })
                }
            }
        }
        self.stats
            .deltas_applied
            .fetch_add(report.applied as u64, Ordering::Relaxed);
        self.stats.swaps.fetch_add(1, Ordering::Relaxed);
        if !report.action.is_patch() {
            self.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        Ok(report)
    }

    fn lookup<'s>(snapshot: &'s Snapshot, query: &Query) -> Result<&'s ArtifactHandle> {
        snapshot
            .get(&query.artifact)
            .ok_or_else(|| CoreError::UnknownArtifact {
                name: query.artifact.clone(),
            })
    }

    /// Opens the session `query`'s fault scope asks for on `target`: a
    /// [`FaultSession`](ftspan_core::FaultSession) on a flat or dynamic
    /// artifact, wrapped in a [`CachedSession`](ftspan_core::CachedSession)
    /// when `grouped` queries will share it, or a
    /// [`ShardedSession`](crate::ShardedSession). Every cache holds
    /// [`SOURCE_CACHE_CAPACITY`] sources.
    ///
    /// A query carrying the wrong kind of faults for the artifact — alone or
    /// next to the right kind — is a typed error: silently ignoring the
    /// supplied fault set would return confidently wrong (unmasked) answers.
    fn open<'s>(
        &self,
        target: &'s ArtifactHandle,
        query: &Query,
        grouped: bool,
    ) -> Result<Box<dyn QuerySession + 's>> {
        let declared = target.fault_model();
        let edge = declared == FaultModel::Edge;
        let (stray, requested) = if edge {
            (!query.faults.is_empty(), FaultModel::Vertex)
        } else {
            (!query.edge_faults.is_empty(), FaultModel::Edge)
        };
        if stray {
            return Err(CoreError::FaultModelMismatch {
                declared,
                requested,
            });
        }
        if let ArtifactHandle::Sharded(artifact) = target {
            return Ok(Box::new(if edge {
                artifact.under_edge_faults(&query.edge_faults)?
            } else {
                artifact.under_faults(&query.faults)?
            }));
        }
        let artifact = target.as_single().expect("non-sharded target is flat");
        let session = if edge {
            artifact.under_edge_faults(&query.edge_faults)?
        } else {
            artifact.under_faults(&query.faults)?
        };
        Ok(if grouped {
            Box::new(session.cached(SOURCE_CACHE_CAPACITY))
        } else {
            Box::new(session)
        })
    }

    /// Answers `query` from an open session: the engine's one dispatch on
    /// the query kind.
    fn answer(session: &mut dyn QuerySession, query: &Query) -> Result<QueryOutcome> {
        let (u, v) = (query.u, query.v);
        Ok(match query.kind {
            QueryKind::Distance => QueryOutcome::Distance(session.distance(u, v)?),
            QueryKind::Path => QueryOutcome::Path(session.path(u, v)?),
            QueryKind::Certificate => QueryOutcome::Certificate(session.stretch_certificate(u, v)?),
        })
    }

    /// Answers `query` in a fresh uncached session of its own: the
    /// reference semantics every planned answer must match.
    fn answer_alone(&self, snapshot: &Snapshot, query: &Query) -> Result<QueryOutcome> {
        let target = Self::lookup(snapshot, query)?;
        Self::answer(self.open(target, query, false)?.as_mut(), query)
    }

    /// Runs one planned work unit: all of `indices` share a canonical fault
    /// scope, so one session serves them all. A unit of one query has
    /// nothing to reuse, so it skips the source cache and counts neither
    /// hits nor misses (the cache is transparent, so the answer is
    /// identical); its flat session then runs a target-bounded search that
    /// stops once `v`'s label is final instead of a full tree (the same
    /// answer bit for bit, see `CsrSubgraph::sssp_target_into`). If the
    /// shared session cannot be opened, every query is
    /// answered alone so each reports exactly the error it would have
    /// produced on its own — error queries never poison their group.
    fn run_unit(
        &self,
        snapshot: &Snapshot,
        queries: &[Query],
        indices: &[usize],
    ) -> Vec<Result<QueryOutcome>> {
        let grouped = indices.len() > 1;
        let first = &queries[indices[0]];
        match Self::lookup(snapshot, first).and_then(|target| self.open(target, first, grouped)) {
            Ok(mut session) => {
                let results = indices
                    .iter()
                    .map(|&i| Self::answer(session.as_mut(), &queries[i]))
                    .collect();
                if grouped {
                    self.record_cache(session.cache_stats());
                }
                results
            }
            Err(_) => indices
                .iter()
                .map(|&i| self.answer_alone(snapshot, &queries[i]))
                .collect(),
        }
    }

    fn record_cache(&self, cache: CacheStats) {
        self.stats
            .cache_hits
            .fetch_add(cache.hits, Ordering::Relaxed);
        self.stats
            .cache_misses
            .fetch_add(cache.misses, Ordering::Relaxed);
    }

    /// Executes a batch of queries through the query planner and returns one
    /// result per query **in input order**.
    ///
    /// The planner snapshots the registry **once** (so every query in the
    /// batch — and every retry inside it — sees the same artifact
    /// versions, even while [`Engine::apply_deltas`] swaps concurrently),
    /// canonicalizes each query's fault scope, groups the batch by
    /// `(artifact, fault scope)`, builds each group's session **once**,
    /// reuses per-source Dijkstra trees within a group (up to 64 sources)
    /// and fans the groups out
    /// across the worker pool (large groups are split so a single hot scope
    /// still uses every worker).
    ///
    /// Per-query failures (unknown artifact, oversized fault set, unknown
    /// vertex, mismatched fault kind) are reported in the corresponding
    /// slot; they never abort the rest of the batch, and they are identical
    /// to what [`Engine::run_batch_naive`] reports for the same query.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<Result<QueryOutcome>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let snapshot = self.snapshot();
        let workers = self.workers.min(queries.len());

        // Group by canonical (artifact, fault scope).
        let mut groups: BTreeMap<ScopeKey<'_>, Vec<usize>> = BTreeMap::new();
        for (i, query) in queries.iter().enumerate() {
            groups.entry(ScopeKey::of(query)).or_default().push(i);
        }
        self.stats
            .planner_groups
            .fetch_add(groups.len() as u64, Ordering::Relaxed);

        // Split every group into work units of at most `ceil(batch/workers)`
        // queries: few big groups still spread across the pool, many small
        // groups each stay one unit.
        let unit_size = queries.len().div_ceil(workers);
        let units: Vec<Vec<usize>> = groups
            .into_values()
            .flat_map(|indices| {
                indices
                    .chunks(unit_size)
                    .map(<[usize]>::to_vec)
                    .collect::<Vec<_>>()
            })
            .collect();

        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        self.stats
            .planner_units
            .fetch_add(units.len() as u64, Ordering::Relaxed);

        let per_unit = par::map(workers, units.len(), |i| {
            self.run_unit(&snapshot, queries, &units[i])
        });

        let mut results: Vec<Option<Result<QueryOutcome>>> = vec![None; queries.len()];
        for (unit, unit_results) in units.iter().zip(per_unit) {
            for (&i, result) in unit.iter().zip(unit_results) {
                results[i] = Some(result);
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every query index is planned into exactly one unit"))
            .collect()
    }

    /// The reference executor: answers every query sequentially in its own
    /// fresh session, with no planning, grouping or caching (it still
    /// snapshots the registry once, so its batches are single-version too).
    ///
    /// This is the semantics [`Engine::run_batch`] is pinned against (the
    /// planner must be observationally transparent); it exists for tests,
    /// benchmarks and debugging — serving traffic should use
    /// [`Engine::run_batch`].
    pub fn run_batch_naive(&self, queries: &[Query]) -> Vec<Result<QueryOutcome>> {
        let snapshot = self.snapshot();
        queries
            .iter()
            .map(|q| self.answer_alone(&snapshot, q))
            .collect()
    }
}

/// The canonical fault scope of a query: artifact name plus sorted,
/// deduplicated vertex faults and endpoint-normalized, sorted, deduplicated
/// edge faults. Two queries with the same key are served by one session.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ScopeKey<'q> {
    artifact: &'q str,
    vertex_faults: Vec<usize>,
    edge_faults: Vec<(usize, usize)>,
}

impl<'q> ScopeKey<'q> {
    fn of(query: &'q Query) -> Self {
        let mut vertex_faults: Vec<usize> = query.faults.iter().map(|f| f.index()).collect();
        vertex_faults.sort_unstable();
        vertex_faults.dedup();
        let mut edge_faults: Vec<(usize, usize)> = query
            .edge_faults
            .iter()
            .map(|&(u, v)| {
                let (u, v) = (u.index(), v.index());
                (u.min(v), u.max(v))
            })
            .collect();
        edge_faults.sort_unstable();
        edge_faults.dedup();
        ScopeKey {
            artifact: &query.artifact,
            vertex_faults,
            edge_faults,
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FtSpannerBuilder;
    use ftspan_core::dynamic::apply_deltas;
    use ftspan_core::{BuildRecipe, DynamicArtifact, SequencedDelta, SpannerRequest};
    use ftspan_graph::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn engine_with_artifact(seed: u64) -> (Engine, usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::connected_gnp(24, 0.25, generate::WeightKind::Unit, &mut rng);
        let artifact = FtSpannerBuilder::new("conversion")
            .faults(1)
            .build_artifact(&g)
            .unwrap();
        let n = g.node_count();
        let mut engine = Engine::new();
        engine.register("net", artifact);
        (engine, n)
    }

    fn dynamic_recipe(faults: usize) -> BuildRecipe {
        let request = SpannerRequest {
            faults,
            stretch: 3.0,
            iterations: Some(6),
            threads: Some(1),
            ..SpannerRequest::default()
        };
        BuildRecipe::new("corollary-2.2", request, 2011)
    }

    #[test]
    fn batches_are_deterministic_across_worker_counts() {
        let (engine, n) = engine_with_artifact(1);
        let queries: Vec<Query> = (0..n)
            .flat_map(|u| {
                (0..n).map(move |v| {
                    Query::distance(
                        "net",
                        vec![NodeId::new((u + v) % n)],
                        NodeId::new(u),
                        NodeId::new(v),
                    )
                })
            })
            .collect();
        let reference = engine.clone().with_workers(1).run_batch(&queries);
        for workers in [2usize, 3, 8] {
            let got = engine.clone().with_workers(workers).run_batch(&queries);
            assert_eq!(reference, got, "worker count {workers} changed the batch");
        }
    }

    #[test]
    fn per_query_errors_do_not_abort_the_batch() {
        let (engine, _) = engine_with_artifact(2);
        let queries = vec![
            Query::distance("net", vec![], NodeId::new(0), NodeId::new(1)),
            Query::distance("missing", vec![], NodeId::new(0), NodeId::new(1)),
            Query::distance(
                "net",
                vec![NodeId::new(0), NodeId::new(1)], // budget is 1
                NodeId::new(2),
                NodeId::new(3),
            ),
            Query::path("net", vec![], NodeId::new(0), NodeId::new(5)),
        ];
        let results = engine.run_batch(&queries);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(CoreError::UnknownArtifact { .. })));
        assert!(matches!(results[2], Err(CoreError::TooManyFaults { .. })));
        assert!(results[3].is_ok());
    }

    #[test]
    fn registry_of_artifacts_is_inspectable() {
        let (mut engine, _) = engine_with_artifact(3);
        assert_eq!(engine.names(), vec!["net"]);
        assert_eq!(engine.len(), 1);
        assert!(!engine.is_empty());
        assert!(engine.artifact("net").is_some());
        assert!(engine.artifact("nope").is_none());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generate::connected_gnp(10, 0.4, generate::WeightKind::Unit, &mut rng);
        let other = FtSpannerBuilder::new("corollary-2.2")
            .faults(1)
            .build_artifact(&g)
            .unwrap();
        engine.register("alt", other);
        assert_eq!(engine.names(), vec!["alt", "net"]);
    }

    #[test]
    fn artifact_handle_is_uniform_across_kinds() {
        let (mut engine, _) = engine_with_artifact(6);
        let mut rng = ChaCha8Rng::seed_from_u64(60);
        let g = generate::connected_gnp(30, 0.2, generate::WeightKind::Unit, &mut rng);
        let builder = FtSpannerBuilder::new("conversion").faults(1).seed(60);
        let config = ftspan_graph::partition::PartitionConfig::new(3).with_seed(60);
        let sharded = crate::shard::ShardedArtifact::build(&g, &builder, &config).unwrap();
        engine.register_sharded("backbone", sharded);
        let live = DynamicArtifact::build(&g, dynamic_recipe(1)).unwrap();
        engine.register_dynamic("live", live);

        // The handle answers shape questions without branching on kind, and
        // its summary is exactly what artifact_summary reports.
        for name in ["net", "backbone", "live"] {
            let handle = engine.artifact_handle(name).unwrap();
            assert_eq!(Some(handle.summary()), engine.artifact_summary(name));
        }
        assert!(engine.artifact_handle("missing").is_none());

        // Kind-specific recovery follows the registration path.
        let flat = engine.artifact_handle("net").unwrap();
        assert!(flat.as_single().is_some());
        assert!(flat.as_sharded().is_none());
        assert!(flat.as_dynamic().is_none());
        assert_eq!(flat.shard_count(), None);
        let sharded = engine.artifact_handle("backbone").unwrap();
        assert!(sharded.as_single().is_none());
        assert!(sharded.as_sharded().is_some());
        assert!(sharded.as_dynamic().is_none());
        assert_eq!(sharded.shard_count(), Some(3));
        assert_eq!(sharded.node_count(), 30);
        let dynamic = engine.artifact_handle("live").unwrap();
        assert!(dynamic.as_dynamic().is_some());
        assert!(dynamic.as_sharded().is_none());
        // A dynamic handle's serving surface is its current flat version.
        assert!(dynamic.as_single().is_some());
        assert_eq!(dynamic.shard_count(), None);

        // The legacy kind-specific accessors are now thin wrappers; they
        // must agree with the handle.
        assert!(engine.artifact("net").is_some());
        assert!(engine.artifact("backbone").is_none());
        assert!(engine.artifact("live").is_some());
        assert!(engine.sharded_artifact("backbone").is_some());
        assert!(engine.sharded_artifact("net").is_none());
        assert!(engine.dynamic_artifact("live").is_some());
        assert!(engine.dynamic_artifact("net").is_none());
    }

    #[test]
    fn empty_batch_is_empty() {
        let (engine, _) = engine_with_artifact(5);
        assert!(engine.run_batch(&[]).is_empty());
    }

    #[test]
    fn planner_matches_naive_execution_exactly() {
        // A messy batch: repeated fault scopes in different orders and with
        // duplicates, multiple artifacts, every query kind, interleaved
        // error queries. The planner must reproduce the naive results slot
        // for slot.
        let (mut engine, n) = engine_with_artifact(8);
        let mut rng = ChaCha8Rng::seed_from_u64(80);
        let g = generate::connected_gnp(18, 0.3, generate::WeightKind::Unit, &mut rng);
        let second = FtSpannerBuilder::new("corollary-2.2")
            .faults(2)
            .build_artifact(&g)
            .unwrap();
        engine.register("alt", second);

        let mut queries = Vec::new();
        for i in 0..n {
            let (u, v) = (NodeId::new(i), NodeId::new((i * 5 + 2) % n));
            // Same canonical scope, permuted and duplicated raw fault lists.
            let scope = match i % 3 {
                0 => vec![NodeId::new(1), NodeId::new(4)],
                1 => vec![NodeId::new(4), NodeId::new(1)],
                _ => vec![NodeId::new(4), NodeId::new(1), NodeId::new(4)],
            };
            queries.push(Query::distance("net", scope.clone(), u, v));
            queries.push(Query::path("net", scope.clone(), u, v));
            queries.push(Query::certificate(
                "alt",
                scope[..1.min(scope.len())].to_vec(),
                NodeId::new(i % 18),
                NodeId::new((i + 7) % 18),
            ));
            if i % 4 == 0 {
                queries.push(Query::distance("missing", vec![], u, v)); // unknown artifact
                queries.push(Query::distance("net", vec![NodeId::new(999)], u, v)); // bad fault
                queries.push(Query::distance("net", scope, NodeId::new(999), v));
                // bad endpoint
            }
        }
        let naive = engine.run_batch_naive(&queries);
        for workers in [1usize, 2, 8] {
            let planned = engine.clone().with_workers(workers).run_batch(&queries);
            assert_eq!(naive, planned, "planner diverged at workers={workers}");
        }
    }

    #[test]
    fn error_queries_do_not_poison_their_group() {
        // Every query here lands in the same (artifact, scope) group; the
        // oversized scope makes the shared session unbuildable. Each query
        // must still report its own typed error, and a healthy group in the
        // same batch must be unaffected.
        let (engine, _) = engine_with_artifact(9);
        let too_many = vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]; // budget is 1
        let queries = vec![
            Query::distance("net", too_many.clone(), NodeId::new(3), NodeId::new(4)),
            Query::certificate("net", too_many.clone(), NodeId::new(5), NodeId::new(6)),
            Query::distance("net", vec![NodeId::new(0)], NodeId::new(3), NodeId::new(4)),
            Query::path("net", too_many, NodeId::new(7), NodeId::new(8)),
        ];
        let results = engine.run_batch(&queries);
        assert!(matches!(
            results[0],
            Err(CoreError::TooManyFaults {
                given: 3,
                budget: 1
            })
        ));
        assert!(matches!(results[1], Err(CoreError::TooManyFaults { .. })));
        assert!(results[2].is_ok(), "healthy group poisoned by error group");
        assert!(matches!(results[3], Err(CoreError::TooManyFaults { .. })));
        assert_eq!(results, engine.run_batch_naive(&queries));
    }

    #[test]
    fn edge_fault_scopes_group_and_serve_through_the_planner() {
        // Edge-fault artifacts are queryable through the engine: scopes
        // canonicalize (endpoint order and duplicates collapse) and answers
        // match the naive path.
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generate::connected_gnp(16, 0.35, generate::WeightKind::Unit, &mut rng);
        let artifact = FtSpannerBuilder::new("edge-fault")
            .faults(1)
            .build_artifact(&g)
            .unwrap();
        let (e_u, e_v) = {
            let id = artifact.spanner_edges().iter().next().unwrap();
            let e = *g.edge(id);
            (e.u, e.v)
        };
        let mut engine = Engine::new();
        engine.register("edges", artifact);
        let queries = vec![
            Query::distance("edges", vec![], NodeId::new(0), NodeId::new(5))
                .with_edge_faults(vec![(e_u, e_v)]),
            // Same scope, endpoints flipped and duplicated.
            Query::distance("edges", vec![], NodeId::new(5), NodeId::new(0))
                .with_edge_faults(vec![(e_v, e_u), (e_u, e_v)]),
            Query::certificate("edges", vec![], NodeId::new(1), NodeId::new(4))
                .with_edge_faults(vec![(e_v, e_u)]),
            // A non-existent edge is a typed error that stays per-query.
            Query::distance("edges", vec![], NodeId::new(0), NodeId::new(1))
                .with_edge_faults(vec![(NodeId::new(0), NodeId::new(999))]),
        ];
        let results = engine.run_batch(&queries);
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        assert!(results[2].is_ok());
        assert!(results[3].is_err());
        assert_eq!(results, engine.run_batch_naive(&queries));
        // The symmetric pair answered symmetrically.
        assert_eq!(
            results[0].as_ref().unwrap().as_distance(),
            results[1].as_ref().unwrap().as_distance()
        );
    }

    #[test]
    fn workers_are_clamped_to_one() {
        let (engine, _) = engine_with_artifact(9);
        let engine = engine.with_workers(0);
        assert_eq!(engine.workers, 1, "workers are clamped to 1");
        let query = Query::distance("net", vec![], NodeId::new(0), NodeId::new(3));
        assert_eq!(
            engine.run_batch(&[query.clone(), query.clone()]),
            engine.run_batch_naive(&[query.clone(), query])
        );
    }

    #[test]
    fn stats_accumulate_across_batches_and_are_shared_by_clones() {
        let (engine, n) = engine_with_artifact(11);
        assert_eq!(engine.stats(), EngineStats::default());
        assert_eq!(engine.stats().hit_rate(), 0.0);

        // One hot scope, repeated sources: grouped serving with cache reuse.
        let queries: Vec<Query> = (0..20)
            .map(|i| {
                Query::distance(
                    "net",
                    vec![NodeId::new(2)],
                    NodeId::new(i % 4),
                    NodeId::new((i + 5) % n),
                )
            })
            .collect();
        let clone = engine.clone().with_workers(1);
        let results = clone.run_batch(&queries);
        assert!(results.iter().all(|r| r.is_ok()));

        // The clone ran the batch, but the original sees the same counters.
        let stats = engine.stats();
        assert_eq!(stats, clone.stats());
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.queries, 20);
        assert_eq!(stats.planner_groups, 1);
        assert_eq!(stats.planner_units, 1);
        assert_eq!(stats.cache_hits + stats.cache_misses, 20);
        // 4 distinct sources fit the default cache; everything else hits.
        assert_eq!(stats.cache_misses, 4);
        assert_eq!(stats.cache_hits, 16);
        assert!((stats.hit_rate() - 16.0 / 20.0).abs() < 1e-12);

        // A second batch with two scopes accumulates on top.
        let more = vec![
            Query::distance("net", vec![], NodeId::new(0), NodeId::new(1)),
            Query::distance("net", vec![NodeId::new(3)], NodeId::new(0), NodeId::new(1)),
        ];
        clone.run_batch(&more);
        let stats = engine.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.queries, 22);
        assert_eq!(stats.planner_groups, 3);
        // Singleton units skip the cache machinery: no new hits or misses.
        assert_eq!(stats.cache_hits + stats.cache_misses, 20);

        // The naive reference path is uninstrumented.
        clone.run_batch_naive(&more);
        assert_eq!(engine.stats().batches, 2);

        // A fresh engine starts from zero — stats are per-lineage, not global.
        let (fresh, _) = engine_with_artifact(11);
        assert_eq!(fresh.stats(), EngineStats::default());
    }

    #[test]
    fn mismatched_fault_kind_is_rejected_not_ignored() {
        // Supplying vertex faults to an edge-fault artifact (or vice versa)
        // must be a typed error — never a silently unmasked answer.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = generate::connected_gnp(16, 0.35, generate::WeightKind::Unit, &mut rng);
        let edge_model = FtSpannerBuilder::new("edge-fault")
            .faults(1)
            .build_artifact(&g)
            .unwrap();
        let (mut engine, _) = engine_with_artifact(7);
        engine.register("edges", edge_model);

        let vertex_faults_on_edge_artifact = Query::distance(
            "edges",
            vec![NodeId::new(3)],
            NodeId::new(0),
            NodeId::new(1),
        );
        let edge_faults_on_vertex_artifact =
            Query::distance("net", vec![], NodeId::new(0), NodeId::new(1))
                .with_edge_faults(vec![(NodeId::new(0), NodeId::new(1))]);
        let ok_edge_query = Query::distance("edges", vec![], NodeId::new(0), NodeId::new(1));
        let results = engine.run_batch(&[
            vertex_faults_on_edge_artifact,
            edge_faults_on_vertex_artifact,
            ok_edge_query,
        ]);
        assert!(matches!(
            results[0],
            Err(CoreError::FaultModelMismatch { .. })
        ));
        assert!(matches!(
            results[1],
            Err(CoreError::FaultModelMismatch { .. })
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn apply_deltas_swaps_the_served_version_and_counts_it() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = generate::connected_gnp(20, 0.3, generate::WeightKind::Unit, &mut rng);
        let live = DynamicArtifact::build(&g, dynamic_recipe(1)).unwrap();
        let mut engine = Engine::new();
        engine.register_dynamic("live", live);
        let v1 = engine.dynamic_artifact("live").unwrap();
        assert_eq!(v1.version(), 1);

        // Insert a fresh edge through a *clone*: the registry is shared, so
        // the original engine serves the new version after the swap.
        let clone = engine.clone();
        let fresh = (0..20)
            .flat_map(|u| (u + 1..20).map(move |v| (u, v)))
            .find(|&(u, v)| g.find_edge(NodeId::new(u), NodeId::new(v)).is_none())
            .map(|(u, v)| EdgeDelta::Insert {
                u: NodeId::new(u),
                v: NodeId::new(v),
                weight: 1.0,
            })
            .expect("a G(20, 0.3) draw is not complete");
        let report = clone
            .apply_deltas(
                "live",
                std::slice::from_ref(&fresh),
                &RebuildPolicy::always_patch(),
            )
            .unwrap();
        assert_eq!(report.version, 2);
        assert_eq!(report.applied, 1);
        assert!(report.action.is_patch(), "always_patch must patch");

        let v2 = engine.dynamic_artifact("live").unwrap();
        assert_eq!(v2.version(), 2);
        assert_eq!(v2.applied_seq(), 1);
        // The pre-swap handle still pins version 1 — in-flight batches that
        // snapshotted before the swap keep answering from it.
        assert_eq!(v1.version(), 1);

        let stats = engine.stats();
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.deltas_applied, 1);
        assert_eq!(stats.rebuilds, 0);

        // Force the rebuild path; the rebuild counter moves.
        let (fu, fv) = fresh.endpoints();
        let report = engine
            .apply_deltas(
                "live",
                &[EdgeDelta::Delete { u: fu, v: fv }],
                &RebuildPolicy::always_rebuild(),
            )
            .unwrap();
        assert!(!report.action.is_patch());
        let stats = engine.stats();
        assert_eq!(stats.swaps, 2);
        assert_eq!(stats.deltas_applied, 2);
        assert_eq!(stats.rebuilds, 1);
        assert_eq!(engine.dynamic_artifact("live").unwrap().version(), 3);

        // Both swapped versions answer queries through the normal path.
        let results = engine.run_batch(&[Query::distance(
            "live",
            vec![NodeId::new(2)],
            NodeId::new(0),
            NodeId::new(5),
        )]);
        assert!(results[0].is_ok());
    }

    #[test]
    fn apply_deltas_rejects_missing_and_non_dynamic_targets() {
        let (engine, _) = engine_with_artifact(22);
        let delta = EdgeDelta::Delete {
            u: NodeId::new(0),
            v: NodeId::new(1),
        };
        assert!(matches!(
            engine.apply_deltas(
                "missing",
                std::slice::from_ref(&delta),
                &RebuildPolicy::default()
            ),
            Err(CoreError::UnknownArtifact { .. })
        ));
        // `net` is a flat registration: deltas need a recipe to replay.
        assert!(matches!(
            engine.apply_deltas("net", &[delta], &RebuildPolicy::default()),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn swapped_version_answers_like_a_fresh_build_on_the_post_delta_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let g = generate::connected_gnp(18, 0.35, generate::WeightKind::Unit, &mut rng);
        let live = DynamicArtifact::build(&g, dynamic_recipe(1)).unwrap();
        let mut engine = Engine::new();
        engine.register_dynamic("live", live);

        let (_, doomed) = g.edges().next().unwrap();
        let doomed = *doomed;
        let deltas = vec![
            EdgeDelta::Delete {
                u: doomed.u,
                v: doomed.v,
            },
            EdgeDelta::Insert {
                u: doomed.u,
                v: doomed.v,
                weight: 2.5,
            },
        ];
        engine
            .apply_deltas("live", &deltas, &RebuildPolicy::default())
            .unwrap();

        // A from-scratch dynamic build on the post-delta graph must be the
        // same artifact, and the engine must serve identical answers.
        let sequenced: Vec<SequencedDelta> = deltas
            .into_iter()
            .zip(1..)
            .map(|(delta, seq)| SequencedDelta { seq, delta })
            .collect();
        let replayed = apply_deltas(&g, &sequenced).unwrap();
        let fresh = DynamicArtifact::build(&replayed, dynamic_recipe(1)).unwrap();
        assert_eq!(fresh.artifact(), engine.artifact("live").unwrap().as_ref());
    }
}

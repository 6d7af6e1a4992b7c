//! Dynamic-graph subsystem: edge deltas, incremental artifact repair, and
//! the rebuild scheduler.
//!
//! Every [`crate::FtSpanner`] is a snapshot of its source graph. This module
//! makes the snapshot *maintainable* under edge churn:
//!
//! * [`EdgeDelta`] — one edge mutation (insert / delete / reweight);
//!   [`SequencedDelta`] stamps it with a strictly increasing sequence number.
//! * [`apply_deltas`] — the canonical post-delta graph: deletions compact,
//!   insertions append, so the relative order of surviving edges is
//!   preserved. That order contract is what makes incremental repair sound.
//! * [`DynamicArtifact`] — an artifact bundled with its build recipe, its
//!   last applied sequence number, and (for the conversion-family
//!   constructions) a [`ConversionTrace`]. [`DynamicArtifact::apply`]
//!   produces the next version either by **incremental repair** —
//!   re-running the black box only for the iterations whose oversampled
//!   fault set exposes a changed edge — or by a full rebuild, and the result
//!   is pinned bit-identical to a from-scratch build on the post-delta graph
//!   either way.
//! * [`RebuildPolicy`] — the scheduler deciding patch vs. rebuild from the
//!   delta volume relative to the artifact. By default it patches whenever a
//!   trace exists and the batch is small, because a patch never costs more
//!   than a rebuild.
//!
//! Deltas are volatile: a version is fully determined by its recipe and its
//! post-delta graph, so no delta history is kept or persisted. A restart
//! serves the stored base artifact, and clients re-send their deltas.
//!
//! The locality argument is the same one the sharded overlay uses: the
//! conversion of Theorem 2.1 unions independent black-box runs, each a pure
//! function of `(seed, induced subgraph)`. An edge-only delta leaves every
//! iteration's oversampled fault set unchanged (the mask consumes exactly
//! `n` draws from the iteration seed), so an iteration can only be affected
//! when one of the changed edges has both endpoints alive in its mask — for
//! sampling probability `p`, an expected `(1 − p)²` fraction of iterations
//! per changed edge.
//!
//! The trace makes a patch cost only those iterations: it keeps each
//! vertex's survivor mask over the iterations (the touched set is a few
//! word-wide ANDs per changed edge), per edge the number of iterations that
//! selected it, and each iteration's output as a bitset over the edge ids.
//! A patch re-runs the touched iterations, moves their selections from the
//! old outputs to the new ones, and carries the counts across the edge-id
//! compaction in one pass. Untouched iterations never re-run: their output
//! bitsets cross the compaction a word at a time.

use crate::algorithms::{conversion_plan, core_algorithms, ConversionPlan};
use crate::api::{FaultModel, GraphInput, Registry, SpannerRequest};
use crate::conversion::ConversionTrace;
use crate::serve::FtSpanner;
use crate::{CoreError, Result};
use ftspan_graph::{EdgeId, Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A single edge mutation.
///
/// Endpoints refer to the (fixed) vertex set of the artifact's source graph;
/// the subsystem handles edge churn only — vertex insertions would change
/// the length of every oversampled-mask draw and therefore invalidate the
/// replay discipline (see [`ConversionTrace`]).
#[derive(Debug, Clone, PartialEq)]
pub enum EdgeDelta {
    /// Add the edge `(u, v)` with the given weight. Fails on apply if the
    /// edge already exists.
    Insert {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// Edge weight (finite, non-negative).
        weight: f64,
    },
    /// Remove the edge `(u, v)`. Fails on apply if the edge is missing.
    Delete {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Change the weight of the existing edge `(u, v)`. Fails on apply if
    /// the edge is missing.
    Reweight {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// The new weight (finite, non-negative).
        weight: f64,
    },
}

impl EdgeDelta {
    /// The endpoint pair this delta touches.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeDelta::Insert { u, v, .. }
            | EdgeDelta::Delete { u, v }
            | EdgeDelta::Reweight { u, v, .. } => (u, v),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            EdgeDelta::Insert { .. } => "insert",
            EdgeDelta::Delete { .. } => "delete",
            EdgeDelta::Reweight { .. } => "reweight",
        }
    }
}

impl fmt::Display for EdgeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EdgeDelta::Insert { u, v, weight } => write!(f, "insert ({u}, {v}) w={weight}"),
            EdgeDelta::Delete { u, v } => write!(f, "delete ({u}, {v})"),
            EdgeDelta::Reweight { u, v, weight } => write!(f, "reweight ({u}, {v}) w={weight}"),
        }
    }
}

/// An [`EdgeDelta`] stamped with its sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencedDelta {
    /// Monotone sequence number (1-based; [`DynamicArtifact::apply`]
    /// continues from the artifact's last applied one).
    pub seq: u64,
    /// The mutation.
    pub delta: EdgeDelta,
}

/// Applies sequenced deltas to `base`, producing the canonical post-delta
/// graph.
///
/// The canonical order contract — relied on by the incremental repair in
/// [`crate::conversion::FaultTolerantConverter::repair_traced`] — is:
/// surviving edges keep their relative order (deletions compact the edge
/// list), and inserted edges are appended in delta order. Edge identifiers
/// are reassigned accordingly.
///
/// The post-delta graph is patched from `base`, not rebuilt edge by edge:
/// each delta is checked against `base.find_edge` (and against the pairs
/// the batch itself touched before), deletions compact the edge list and
/// renumber the adjacency lists in one pass, reweights overwrite, and
/// insertions are appended with a sorted insert into both adjacency lists.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] if the sequence numbers are not strictly
/// increasing, an endpoint is out of range or a self-loop, a weight is not
/// finite and non-negative, an insert targets an existing edge, or a delete
/// or reweight targets a missing edge. `base` is never modified.
pub fn apply_deltas(base: &Graph, deltas: &[SequencedDelta]) -> Result<Graph> {
    /// Where an endpoint pair the batch has already touched stands.
    #[derive(Clone, Copy)]
    enum Pair {
        /// A base edge that is still present, with its new weight if the
        /// batch reweighted it.
        Base(EdgeId, Option<f64>),
        /// An edge the batch inserted, by its index in `inserts`.
        Inserted(usize),
        /// No edge.
        Absent,
    }
    let n = base.node_count();
    // Only pairs the batch touches are kept here; every other pair is looked
    // up in `base`.
    let mut touched: HashMap<(NodeId, NodeId), Pair> = HashMap::new();
    let mut inserts: Vec<Option<(NodeId, NodeId, f64)>> = Vec::new();
    let mut removed = Vec::new();

    let mut prev_seq = 0u64;
    for record in deltas {
        if record.seq <= prev_seq {
            return Err(CoreError::InvalidParameter {
                message: format!(
                    "delta sequence numbers must increase strictly: {} after {prev_seq}",
                    record.seq
                ),
            });
        }
        prev_seq = record.seq;
        let (u, v) = record.delta.endpoints();
        let reject = |why: String| CoreError::InvalidParameter {
            message: format!(
                "delta #{} ({} ({u}, {v})): {why}",
                record.seq,
                record.delta.kind()
            ),
        };
        if u.index() >= n || v.index() >= n {
            return Err(reject(format!("endpoint out of range for {n} vertices")));
        }
        if u == v {
            return Err(reject("self-loops are not allowed".to_string()));
        }
        let key = (u.min(v), u.max(v));
        let pair = touched.get(&key).copied().unwrap_or_else(|| {
            base.find_edge(key.0, key.1)
                .map_or(Pair::Absent, |id| Pair::Base(id, None))
        });
        let invalid = |weight: f64| !weight.is_finite() || weight < 0.0;
        let next = match (&record.delta, pair) {
            (EdgeDelta::Insert { weight, .. } | EdgeDelta::Reweight { weight, .. }, _)
                if invalid(*weight) =>
            {
                return Err(reject(format!("invalid weight {weight}")));
            }
            (EdgeDelta::Insert { weight, .. }, Pair::Absent) => {
                inserts.push(Some((key.0, key.1, *weight)));
                Pair::Inserted(inserts.len() - 1)
            }
            (EdgeDelta::Insert { .. }, _) => {
                return Err(reject("edge already exists".to_string()));
            }
            (EdgeDelta::Delete { .. }, Pair::Base(id, _)) => {
                removed.push(id);
                Pair::Absent
            }
            (EdgeDelta::Delete { .. }, Pair::Inserted(i)) => {
                inserts[i] = None;
                Pair::Absent
            }
            (EdgeDelta::Reweight { weight, .. }, Pair::Base(id, _)) => {
                Pair::Base(id, Some(*weight))
            }
            (EdgeDelta::Reweight { weight, .. }, Pair::Inserted(i)) => {
                inserts[i] = Some((key.0, key.1, *weight));
                pair
            }
            (EdgeDelta::Delete { .. } | EdgeDelta::Reweight { .. }, Pair::Absent) => {
                return Err(reject("edge does not exist".to_string()));
            }
        };
        touched.insert(key, next);
    }

    // Deletions compact the base, reweights follow their edge to its new
    // id, and insertions append in delta order.
    removed.sort_unstable();
    let mut graph = base.without_edges(&removed);
    for (&(u, v), pair) in &touched {
        if let Pair::Base(_, Some(weight)) = *pair {
            let id = graph
                .find_edge(u, v)
                .expect("a base edge the batch did not delete survives the compaction");
            graph
                .set_weight(id, weight)
                .expect("reweights were validated above");
        }
    }
    for (u, v, w) in inserts.into_iter().flatten() {
        graph
            .add_edge(u, v, w)
            .expect("inserts were validated above and are absent from the graph");
    }
    Ok(graph)
}

/// The rebuild scheduler: decides whether a delta batch is patched
/// incrementally or triggers a full rebuild.
///
/// The limit is a *performance* knob — patch and rebuild produce
/// bit-identical artifacts, so the policy never affects answers, only how
/// much work the next version costs.
///
/// The default follows from the cost of the two paths. With `c_iter` the
/// cost of one conversion iteration (mask draw, then the black box on the
/// masked graph):
///
/// * a patch costs `touched × c_iter + O(m)` — it re-runs only the touched
///   iterations and updates the per-edge selection counts of the
///   [`ConversionTrace`];
/// * a rebuild costs `α × c_iter + O(m)`.
///
/// Since `touched ≤ α`, a patch is never the more expensive path, so there
/// is no touched-iteration budget. A single changed edge touches a
/// `(1 − p)²` share of the iterations (25% at `r = 1`), so a patch costs
/// roughly a quarter of a build plus the `O(m)` copies.
///
/// Measured on the 2 500-vertex, 5 620-edge road mesh of the `serve-churn`
/// benchmark (conversion over Baswana–Sen, `r = 1`, 94 iterations, on a
/// 2-vCPU Xeon VM). There `c_iter` is about 0.1 ms on one thread: about
/// 11 µs of mask and about 90 µs of masked Baswana–Sen run. So a build is
/// about 94 × 0.1 ms of iterations, and a single-edge patch about 23 of
/// them plus the `O(m)` work. In one traced 30 s run of seed 1 (2 workers),
/// a single-edge patch took 3.5 ms at the median and 4.5 ms at p90
/// (`dynamic.apply_ms`), against 12.4 ms for a full build
/// (`dynamic.promote_s`).
///
/// The delta-volume limit stays: a batch large enough to touch every
/// iteration gains nothing from the patch bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildPolicy {
    /// Patch only when the batch has at most `max_delta_fraction ×
    /// source-edge-count` deltas (minimum 1); larger batches invalidate so
    /// many iterations that a rebuild is no more expensive.
    pub max_delta_fraction: f64,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy {
            max_delta_fraction: 0.05,
        }
    }
}

impl RebuildPolicy {
    /// A policy that always rebuilds from scratch (useful as a baseline and
    /// for differential testing).
    pub fn always_rebuild() -> Self {
        RebuildPolicy {
            max_delta_fraction: -1.0,
        }
    }

    /// A policy that patches whenever a trace exists, whatever the batch
    /// size.
    pub fn always_patch() -> Self {
        RebuildPolicy {
            max_delta_fraction: f64::INFINITY,
        }
    }

    /// `true` when a batch of `deltas` mutations against a graph of
    /// `source_edges` edges is small enough to patch.
    pub fn patch_allowed(&self, deltas: usize, source_edges: usize) -> bool {
        if self.max_delta_fraction < 0.0 {
            return false;
        }
        if self.max_delta_fraction.is_infinite() {
            return true;
        }
        let budget = (self.max_delta_fraction * source_edges.max(1) as f64).floor() as usize;
        deltas <= budget.max(1)
    }
}

/// Why an apply fell back to a full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// The recipe's algorithm is not incrementally repairable (no trace).
    NoTrace,
    /// The batch exceeded [`RebuildPolicy::max_delta_fraction`].
    DeltaVolume,
}

impl fmt::Display for RebuildReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebuildReason::NoTrace => write!(f, "algorithm is not incrementally repairable"),
            RebuildReason::DeltaVolume => write!(f, "delta batch too large relative to artifact"),
        }
    }
}

/// How [`DynamicArtifact::apply`] produced the new version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyAction {
    /// Incremental repair: only the touched iterations re-ran the black box.
    Patched {
        /// Iterations whose black box re-ran.
        touched_iterations: usize,
        /// Total iterations `α` of the construction.
        total_iterations: usize,
    },
    /// Full rebuild on the post-delta graph.
    Rebuilt {
        /// What ruled the patch out.
        reason: RebuildReason,
    },
}

impl ApplyAction {
    /// `true` for the incremental-repair outcome.
    pub fn is_patch(&self) -> bool {
        matches!(self, ApplyAction::Patched { .. })
    }
}

/// The outcome of one [`DynamicArtifact::apply`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyReport {
    /// Version number of the *new* artifact.
    pub version: u64,
    /// Number of deltas applied in this batch.
    pub applied: usize,
    /// Sequence number of the batch's last delta.
    pub last_seq: u64,
    /// Patch or rebuild, and why.
    pub action: ApplyAction,
}

/// Everything needed to rebuild an artifact from scratch, deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildRecipe {
    /// Registry name of the construction (`ftspan_core` algorithms only).
    pub algorithm: String,
    /// The construction's knobs.
    pub request: SpannerRequest,
    /// Root seed; the build draws from `ChaCha8Rng::seed_from_u64(seed)`
    /// exactly as `FtSpannerBuilder` does, so a recipe reproduces the
    /// builder's artifact bit-for-bit.
    pub seed: u64,
}

/// Opening marker of the machine-readable recipe tag (see
/// [`BuildRecipe::provenance_tag`]).
const RECIPE_TAG_OPEN: &str = "[recipe v1 ";

impl BuildRecipe {
    /// A recipe for `algorithm` with the given knobs and root seed.
    pub fn new(algorithm: impl Into<String>, request: SpannerRequest, seed: u64) -> Self {
        BuildRecipe {
            algorithm: algorithm.into(),
            request,
            seed,
        }
    }

    /// The machine-readable tag recording every result-affecting knob of
    /// this recipe, as appended to artifact provenance by the recipe build
    /// paths and by `FtSpannerBuilder`'s artifact constructors.
    ///
    /// The tag is what lets `ftspan_serve --dynamic` re-derive the *exact*
    /// recipe a stored artifact was built with (seed included) instead of
    /// guessing defaults. Floating-point knobs are encoded as IEEE-754 bit
    /// patterns in hex, so parsing reproduces them exactly. The `threads`
    /// knob is deliberately excluded: results are byte-identical at any
    /// worker count, and omitting it keeps artifacts built at different
    /// worker counts byte-identical too.
    pub fn provenance_tag(&self) -> String {
        fn opt_usize(v: Option<usize>) -> String {
            v.map_or_else(|| "-".to_string(), |x| x.to_string())
        }
        fn opt_bits(v: Option<f64>) -> String {
            v.map_or_else(|| "-".to_string(), |x| format!("{:016x}", x.to_bits()))
        }
        let r = &self.request;
        format!(
            "{RECIPE_TAG_OPEN}seed={} faults={} stretch={:016x} model={} bb={} iters={} \
             scale={:016x} alpha={} degree={} cuts={} reps={} batch={} samples={} repair={}]",
            self.seed,
            r.faults,
            r.stretch.to_bits(),
            match r.fault_model {
                FaultModel::Vertex => "vertex",
                FaultModel::Edge => "edge",
            },
            r.black_box.name(),
            opt_usize(r.iterations),
            r.scale.to_bits(),
            opt_bits(r.alpha_constant),
            opt_usize(r.degree_bound),
            r.max_cut_rounds,
            opt_usize(r.repetitions),
            opt_usize(r.batch),
            opt_usize(r.samples),
            u8::from(r.repair),
        )
    }

    /// `base` with this recipe's tag appended — the provenance string the
    /// recipe build paths store on their artifacts.
    pub fn tagged_provenance(&self, base: &str) -> String {
        format!("{base} {}", self.provenance_tag())
    }

    /// Recovers the recipe of an artifact from its `algorithm` and tagged
    /// `provenance`, inverting [`BuildRecipe::provenance_tag`].
    ///
    /// Returns `None` when the provenance carries no tag (artifacts written
    /// before tagging existed, or built through the untagged report paths),
    /// or when the tag is malformed — callers are expected to fall back to
    /// serving the stored artifact as-is rather than rebuilding under
    /// guessed parameters.
    pub fn from_tagged_provenance(algorithm: &str, provenance: &str) -> Option<BuildRecipe> {
        let start = provenance.rfind(RECIPE_TAG_OPEN)?;
        let tag = &provenance[start + RECIPE_TAG_OPEN.len()..];
        let tag = tag.strip_suffix(']')?;

        fn parse_usize(v: &str) -> Option<Option<usize>> {
            if v == "-" {
                Some(None)
            } else {
                v.parse().ok().map(Some)
            }
        }
        fn parse_bits(v: &str) -> Option<f64> {
            u64::from_str_radix(v, 16).ok().map(f64::from_bits)
        }

        let mut request = SpannerRequest::default();
        let mut seed = None;
        for field in tag.split(' ') {
            let (key, value) = field.split_once('=')?;
            match key {
                "seed" => seed = Some(value.parse().ok()?),
                "faults" => request.faults = value.parse().ok()?,
                "stretch" => request.stretch = parse_bits(value)?,
                "model" => {
                    request.fault_model = match value {
                        "vertex" => FaultModel::Vertex,
                        "edge" => FaultModel::Edge,
                        _ => return None,
                    }
                }
                "bb" => request.black_box = ftspan_spanners::BlackBoxKind::parse(value)?,
                "iters" => request.iterations = parse_usize(value)?,
                "scale" => request.scale = parse_bits(value)?,
                "alpha" => {
                    request.alpha_constant = if value == "-" {
                        None
                    } else {
                        Some(parse_bits(value)?)
                    }
                }
                "degree" => request.degree_bound = parse_usize(value)?,
                "cuts" => request.max_cut_rounds = value.parse().ok()?,
                "reps" => request.repetitions = parse_usize(value)?,
                "batch" => request.batch = parse_usize(value)?,
                "samples" => request.samples = parse_usize(value)?,
                "repair" => {
                    request.repair = match value {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    }
                }
                _ => return None,
            }
        }
        request.threads = None;
        Some(BuildRecipe::new(algorithm, request, seed?))
    }
}

/// The plan of the traced (repairable) build path of a recipe: the
/// vertex-fault conversions. The edge model samples *edges* into the
/// oversized fault set, so an edge delta touches every iteration — there is
/// no locality to exploit.
fn repairable_plan(recipe: &BuildRecipe) -> Option<ConversionPlan> {
    if recipe.request.fault_model != FaultModel::Vertex {
        return None;
    }
    conversion_plan(&recipe.algorithm, &recipe.request)
        .filter(|plan| plan.fault_model == FaultModel::Vertex)
}

/// An [`FtSpanner`] bundled with its build recipe, its last applied
/// sequence number, and — when the construction is incrementally
/// repairable — its [`ConversionTrace`].
///
/// [`DynamicArtifact::apply`] is *functional*: it returns the next version
/// and leaves `self` untouched, which is what lets `Engine` serve version
/// `v_k` (behind its own `Arc`) while `v_{k+1}` builds, then swap atomically.
/// No delta history is kept: a version is determined by its recipe and its
/// source graph, which the artifact already holds.
#[derive(Debug, Clone)]
pub struct DynamicArtifact {
    artifact: Arc<FtSpanner>,
    version: u64,
    recipe: BuildRecipe,
    trace: Option<ConversionTrace>,
    applied_seq: u64,
}

impl DynamicArtifact {
    /// Builds version 1 from a recipe.
    ///
    /// For the repairable constructions (`conversion` with vertex faults,
    /// `corollary-2.2`) this runs the traced build and keeps the trace; for
    /// every other registered algorithm it runs the normal registry build
    /// (applying deltas then always rebuilds from scratch). Either way the
    /// artifact is bit-identical to what `FtSpannerBuilder` with the same
    /// algorithm, knobs, and seed would produce.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an unknown algorithm; otherwise
    /// whatever the construction itself reports.
    pub fn build(graph: &Graph, recipe: BuildRecipe) -> Result<Self> {
        let (artifact, trace) = build_for_recipe(Cow::Borrowed(graph), &recipe)?;
        Ok(DynamicArtifact {
            artifact: Arc::new(artifact),
            version: 1,
            recipe,
            trace,
            applied_seq: 0,
        })
    }

    /// The served artifact.
    pub fn artifact(&self) -> &FtSpanner {
        &self.artifact
    }

    /// The served artifact, shared.
    pub fn artifact_arc(&self) -> Arc<FtSpanner> {
        Arc::clone(&self.artifact)
    }

    /// Version number, starting at 1 and incremented by every apply.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The build recipe.
    pub fn recipe(&self) -> &BuildRecipe {
        &self.recipe
    }

    /// The highest applied sequence number (0 before any apply).
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// `true` when the construction supports incremental repair.
    pub fn is_repairable(&self) -> bool {
        self.trace.is_some()
    }

    /// Applies a delta batch and returns the next version.
    ///
    /// The batch is numbered after [`DynamicArtifact::applied_seq`], the
    /// post-delta graph is materialized via [`apply_deltas`], and the
    /// new artifact is produced by incremental repair when `policy` allows —
    /// otherwise by a full rebuild with the same recipe. **Both paths yield
    /// the same bytes**: the repaired artifact equals a from-scratch build
    /// on the post-delta graph, bit for bit.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an empty batch or an invalid
    /// delta (see [`apply_deltas`]); construction errors pass through. On
    /// error `self` is unchanged and no version is produced.
    pub fn apply(
        &self,
        deltas: &[EdgeDelta],
        policy: &RebuildPolicy,
    ) -> Result<(DynamicArtifact, ApplyReport)> {
        if deltas.is_empty() {
            return Err(CoreError::InvalidParameter {
                message: "empty delta batch has nothing to apply".to_string(),
            });
        }
        let batch: Vec<SequencedDelta> = deltas
            .iter()
            .zip(self.applied_seq + 1..)
            .map(|(delta, seq)| SequencedDelta {
                seq,
                delta: delta.clone(),
            })
            .collect();
        let new_graph = apply_deltas(self.artifact.source_graph(), &batch)?;
        let last_seq = self.applied_seq + deltas.len() as u64;

        let patchable = match &self.trace {
            None => Err(RebuildReason::NoTrace),
            Some(_)
                if !policy
                    .patch_allowed(deltas.len(), self.artifact.source_graph().edge_count()) =>
            {
                Err(RebuildReason::DeltaVolume)
            }
            Some(trace) => Ok(trace),
        };
        let (artifact, trace, action) = match patchable {
            Ok(trace) => {
                let changed: Vec<(NodeId, NodeId)> =
                    deltas.iter().map(EdgeDelta::endpoints).collect();
                let total = trace.seeds.len();
                let plan =
                    repairable_plan(&self.recipe).ok_or_else(|| CoreError::InvalidParameter {
                        message: format!(
                            "artifact carries a trace but recipe `{}` is not repairable",
                            self.recipe.algorithm
                        ),
                    })?;
                let repaired = plan.converter.repair_traced(
                    self.artifact.source_graph(),
                    &new_graph,
                    plan.black_box.as_ref(),
                    trace,
                    &changed,
                    self.recipe.request.effective_threads(),
                )?;
                let artifact = FtSpanner::from_parts(
                    new_graph,
                    None,
                    repaired.edges,
                    &self.recipe.algorithm,
                    &self.recipe.tagged_provenance(&plan.provenance),
                    FaultModel::Vertex,
                    self.recipe.request.faults,
                    plan.stretch,
                )?;
                let action = ApplyAction::Patched {
                    touched_iterations: repaired.touched_iterations,
                    total_iterations: total,
                };
                (artifact, Some(repaired.trace), action)
            }
            Err(reason) => {
                let (artifact, trace) = build_for_recipe(Cow::Owned(new_graph), &self.recipe)?;
                (artifact, trace, ApplyAction::Rebuilt { reason })
            }
        };

        let version = self.version + 1;
        let report = ApplyReport {
            version,
            applied: deltas.len(),
            last_seq,
            action,
        };
        Ok((
            DynamicArtifact {
                artifact: Arc::new(artifact),
                version,
                recipe: self.recipe.clone(),
                trace,
                applied_seq: last_seq,
            },
            report,
        ))
    }
}

/// Runs a recipe from scratch on `graph`: the traced path for repairable
/// algorithms, the registry path otherwise. The artifact adopts an owned
/// graph and copies a borrowed one only once the build is done.
fn build_for_recipe(
    graph: Cow<'_, Graph>,
    recipe: &BuildRecipe,
) -> Result<(FtSpanner, Option<ConversionTrace>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(recipe.seed);
    if let Some(plan) = repairable_plan(recipe) {
        let (result, trace) = plan.converter.build_traced(
            &graph,
            plan.black_box.as_ref(),
            &mut rng,
            recipe.request.effective_threads(),
        );
        let artifact = FtSpanner::from_parts(
            graph.into_owned(),
            None,
            result.edges,
            &recipe.algorithm,
            &recipe.tagged_provenance(&plan.provenance),
            FaultModel::Vertex,
            recipe.request.faults,
            plan.stretch,
        )?;
        return Ok((artifact, Some(trace)));
    }
    let registry = Registry::from_algorithms(core_algorithms());
    let algorithm = registry
        .get(&recipe.algorithm)
        .ok_or_else(|| CoreError::InvalidParameter {
            message: format!(
                "unknown algorithm `{}`; registered: {}",
                recipe.algorithm,
                registry.names().join(", ")
            ),
        })?;
    let mut report = algorithm.build(GraphInput::from(&*graph), &recipe.request, &mut rng)?;
    report.provenance = recipe.tagged_provenance(&report.provenance);
    let artifact = FtSpanner::adopt_report(graph.into_owned(), None, &report)?;
    Ok((artifact, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::generate;
    use rand::Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn node(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// `deltas` numbered from 1, as one replayable history.
    fn sequenced(deltas: &[EdgeDelta]) -> Vec<SequencedDelta> {
        deltas
            .iter()
            .zip(1..)
            .map(|(delta, seq)| SequencedDelta {
                seq,
                delta: delta.clone(),
            })
            .collect()
    }

    fn small_request(faults: usize, iterations: usize) -> SpannerRequest {
        SpannerRequest {
            faults,
            iterations: Some(iterations),
            threads: Some(1),
            ..SpannerRequest::default()
        }
    }

    #[test]
    fn recipe_tag_round_trips_every_knob_exactly() {
        let request = SpannerRequest {
            faults: 3,
            stretch: 5.0_f64.sqrt(), // an irrational: only bit-exact encoding survives
            fault_model: FaultModel::Edge,
            black_box: ftspan_spanners::BlackBoxKind::BaswanaSen,
            iterations: Some(12),
            scale: 0.75,
            alpha_constant: Some(1.5),
            degree_bound: Some(9),
            max_cut_rounds: 17,
            repetitions: Some(4),
            batch: Some(6),
            samples: Some(32),
            repair: false,
            threads: Some(8),
        };
        let recipe = BuildRecipe::new("conversion", request, 0xDEADBEEF);
        let provenance = recipe.tagged_provenance("Theorem 2.1 conversion over greedy");
        let back = BuildRecipe::from_tagged_provenance("conversion", &provenance)
            .expect("tagged provenance parses");
        assert_eq!(back.algorithm, "conversion");
        assert_eq!(back.seed, 0xDEADBEEF);
        // Every knob but `threads` round-trips exactly; `threads` is
        // normalized away (results are worker-count invariant).
        let mut expected = request;
        expected.threads = None;
        assert_eq!(back.request, expected);
        // Re-tagging the parsed recipe reproduces the same tag bytes.
        assert_eq!(back.provenance_tag(), recipe.provenance_tag());
    }

    #[test]
    fn recipe_tag_parser_rejects_untagged_and_mangled_provenance() {
        assert!(BuildRecipe::from_tagged_provenance("conversion", "").is_none());
        assert!(BuildRecipe::from_tagged_provenance(
            "conversion",
            "Theorem 2.1 conversion over greedy (k = 3, r = 1)"
        )
        .is_none());
        let recipe = BuildRecipe::new("conversion", SpannerRequest::default(), 7);
        let good = recipe.tagged_provenance("base");
        assert!(BuildRecipe::from_tagged_provenance("conversion", &good).is_some());
        // Truncations and field mutations must parse to None, never panic.
        for cut in 0..good.len() {
            let _ = BuildRecipe::from_tagged_provenance("conversion", &good[..cut]);
        }
        for mangled in [
            good.replace("model=vertex", "model=diagonal"),
            good.replace("bb=greedy", "bb=unknown"),
            good.replace("repair=1", "repair=yes"),
            good.replace("seed=7", "seed=x"),
            good.replace("stretch=", "stretchiness="),
        ] {
            assert!(
                BuildRecipe::from_tagged_provenance("conversion", &mangled).is_none(),
                "mangled tag parsed: {mangled}"
            );
        }
    }

    #[test]
    fn recipe_builds_store_a_parseable_tag_that_reproduces_the_artifact() {
        let mut r = rng(88);
        let g = generate::connected_gnp(18, 0.3, generate::WeightKind::Unit, &mut r);
        for algorithm in ["conversion", "corollary-2.2", "edge-fault"] {
            let recipe = BuildRecipe::new(algorithm, small_request(1, 4), 88);
            let built = DynamicArtifact::build(&g, recipe.clone()).unwrap();
            let parsed = BuildRecipe::from_tagged_provenance(
                built.artifact().algorithm(),
                built.artifact().provenance(),
            )
            .expect("recipe builds tag their provenance");
            let again = DynamicArtifact::build(&g, parsed).unwrap();
            assert_eq!(
                built.artifact(),
                again.artifact(),
                "{algorithm}: the recorded recipe does not reproduce the artifact"
            );
        }
    }

    #[test]
    fn apply_deltas_validates_and_preserves_order() {
        let g = Graph::from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]).unwrap();
        let patched = apply_deltas(
            &g,
            &sequenced(&[
                EdgeDelta::Delete {
                    u: node(1),
                    v: node(2),
                },
                EdgeDelta::Insert {
                    u: node(0),
                    v: node(4),
                    weight: 2.0,
                },
                EdgeDelta::Reweight {
                    u: node(2),
                    v: node(3),
                    weight: 5.0,
                },
            ]),
        )
        .unwrap();
        // Surviving edges keep relative order; the insert lands at the end.
        let edges: Vec<(usize, usize, f64)> = patched
            .edges()
            .map(|(_, e)| (e.u.index(), e.v.index(), e.weight))
            .collect();
        assert_eq!(
            edges,
            vec![(0, 1, 1.0), (2, 3, 5.0), (3, 4, 1.0), (0, 4, 2.0)]
        );

        let bad =
            |delta: EdgeDelta| apply_deltas(&g, &[SequencedDelta { seq: 1, delta }]).unwrap_err();
        bad(EdgeDelta::Insert {
            u: node(0),
            v: node(1),
            weight: 1.0,
        }); // exists
        bad(EdgeDelta::Delete {
            u: node(0),
            v: node(3),
        }); // missing
        bad(EdgeDelta::Reweight {
            u: node(0),
            v: node(3),
            weight: 1.0,
        }); // missing
        bad(EdgeDelta::Delete {
            u: node(0),
            v: node(9),
        }); // out of range
        bad(EdgeDelta::Insert {
            u: node(2),
            v: node(2),
            weight: 1.0,
        }); // self-loop
        bad(EdgeDelta::Insert {
            u: node(0),
            v: node(3),
            weight: f64::NAN,
        }); // bad weight
    }

    #[test]
    fn patch_allowed_follows_the_delta_volume_budget() {
        let policy = RebuildPolicy::default();
        assert!(policy.patch_allowed(1, 10)); // minimum budget of 1
        assert!(policy.patch_allowed(5, 100));
        assert!(!policy.patch_allowed(6, 100));
        assert!(!RebuildPolicy::always_rebuild().patch_allowed(1, 1_000_000));
        assert!(RebuildPolicy::always_patch().patch_allowed(1_000, 10));
    }

    #[test]
    fn dynamic_build_matches_the_registry_build_bit_for_bit() {
        let g = generate::connected_gnp(20, 0.3, generate::WeightKind::Unit, &mut rng(30));
        for algorithm in ["conversion", "corollary-2.2", "clpr09"] {
            let request = small_request(1, 20);
            let recipe = BuildRecipe::new(algorithm, request, 2011);
            let dynamic = DynamicArtifact::build(&g, recipe.clone()).unwrap();
            let registry = Registry::from_algorithms(core_algorithms());
            let mut r = rng(2011);
            let mut report = registry
                .get(algorithm)
                .unwrap()
                .build(GraphInput::from(&g), &request, &mut r)
                .unwrap();
            // Recipe builds tag their provenance; the reference build gets
            // the same tag to stay byte-comparable.
            report.provenance = recipe.tagged_provenance(&report.provenance);
            let reference = FtSpanner::from_report(&g, &report).unwrap();
            assert_eq!(*dynamic.artifact(), reference, "algorithm = {algorithm}");
            assert_eq!(
                dynamic.is_repairable(),
                algorithm != "clpr09",
                "algorithm = {algorithm}"
            );
        }
    }

    #[test]
    fn patched_apply_matches_a_from_scratch_rebuild() {
        let g = generate::connected_gnp(24, 0.3, generate::WeightKind::Unit, &mut rng(31));
        let recipe = BuildRecipe::new("conversion", small_request(2, 40), 7);
        let v1 = DynamicArtifact::build(&g, recipe.clone()).unwrap();

        // A mixed batch: delete an existing edge, insert a fresh one.
        let existing = *g.edge(ftspan_graph::EdgeId::new(1));
        let mut r = rng(32);
        let (mut iu, mut iv) = (0, 0);
        while iu == iv || g.has_edge(node(iu), node(iv)) {
            iu = r.gen_range(0..g.node_count());
            iv = r.gen_range(0..g.node_count());
        }
        let deltas = vec![
            EdgeDelta::Delete {
                u: existing.u,
                v: existing.v,
            },
            EdgeDelta::Insert {
                u: node(iu),
                v: node(iv),
                weight: 1.0,
            },
        ];

        let (patched, report) = v1.apply(&deltas, &RebuildPolicy::always_patch()).unwrap();
        assert!(report.action.is_patch(), "action = {:?}", report.action);
        assert_eq!(report.version, 2);
        assert_eq!(report.applied, 2);
        assert_eq!(report.last_seq, 2);
        assert_eq!(patched.applied_seq(), 2);

        let (rebuilt, rebuilt_report) =
            v1.apply(&deltas, &RebuildPolicy::always_rebuild()).unwrap();
        assert!(!rebuilt_report.action.is_patch());
        assert_eq!(*patched.artifact(), *rebuilt.artifact());

        // And both equal a version-1 build on the post-delta graph.
        assert_eq!(v1.applied_seq(), 0, "v1 itself must be untouched");
        let fresh_graph = apply_deltas(&g, &sequenced(&deltas)).unwrap();
        let fresh = DynamicArtifact::build(&fresh_graph, recipe).unwrap();
        assert_eq!(*patched.artifact(), *fresh.artifact());

        // A second batch patches on top of the first.
        let deltas2 = vec![EdgeDelta::Reweight {
            u: node(iu),
            v: node(iv),
            weight: 3.0,
        }];
        let (v3, report3) = patched
            .apply(&deltas2, &RebuildPolicy::always_patch())
            .unwrap();
        assert!(report3.action.is_patch());
        assert_eq!(v3.version(), 3);
        assert_eq!(v3.applied_seq(), 3);
        let history: Vec<EdgeDelta> = deltas.iter().chain(&deltas2).cloned().collect();
        let fresh3_graph = apply_deltas(&g, &sequenced(&history)).unwrap();
        let fresh3 = DynamicArtifact::build(&fresh3_graph, v3.recipe().clone()).unwrap();
        assert_eq!(*v3.artifact(), *fresh3.artifact());
    }

    #[test]
    fn policy_falls_back_to_rebuild_and_reports_why() {
        let g = generate::connected_gnp(18, 0.4, generate::WeightKind::Unit, &mut rng(33));
        let recipe = BuildRecipe::new("conversion", small_request(1, 20), 9);
        let v1 = DynamicArtifact::build(&g, recipe).unwrap();
        let existing = *g.edge(ftspan_graph::EdgeId::new(0));
        let deltas = vec![EdgeDelta::Reweight {
            u: existing.u,
            v: existing.v,
            weight: 4.0,
        }];

        let (_, report) = v1.apply(&deltas, &RebuildPolicy::always_rebuild()).unwrap();
        assert_eq!(
            report.action,
            ApplyAction::Rebuilt {
                reason: RebuildReason::DeltaVolume
            }
        );

        // A non-repairable algorithm reports NoTrace even under always_patch.
        let recipe = BuildRecipe::new("clpr09", small_request(1, 4), 9);
        let v1 = DynamicArtifact::build(&g, recipe).unwrap();
        let (_, report) = v1.apply(&deltas, &RebuildPolicy::always_patch()).unwrap();
        assert_eq!(
            report.action,
            ApplyAction::Rebuilt {
                reason: RebuildReason::NoTrace
            }
        );
    }
}

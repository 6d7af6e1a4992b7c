//! The conversion theorem (Theorem 2.1) and Corollary 2.2.
//!
//! The construction is deliberately simple — the paper's title promise. In
//! each of `α = Θ(r³ log n)` independent iterations:
//!
//! 1. every vertex joins a sampled "oversized fault set" `J` independently
//!    with probability `p = 1 − 1/r` (`p = 1/2` when `r ≤ 1`);
//! 2. the given black-box `k`-spanner algorithm is run on `G \ J`, given as
//!    a mask over `G`'s edges (live when both endpoints survive) — `G \ J`
//!    is never materialized as a graph of its own;
//! 3. the resulting edges are added to the output.
//!
//! For any real fault set `F` (`|F| ≤ r`) and any surviving edge `(u, v)`
//! whose shortest surviving path is the edge itself, an iteration "covers"
//! the pair when `u, v ∉ J` and `F ⊆ J`; this happens with probability at
//! least `1/(4r²)`, so `Θ(r³ log n)` iterations cover every pair and every
//! fault set with high probability. The expected number of surviving vertices
//! per iteration is `n/r`, which is where the `f(2n/r)` in the size bound
//! comes from.
//!
//! # Edge faults
//!
//! The paper states Theorem 2.1 for vertex faults; with
//! [`FaultModel::Edge`] the same converter protects against edge faults, the
//! companion model (and the one the geometric fault-tolerant spanner
//! literature started with). In each iteration every **edge** joins `J`
//! independently with probability `p`, and the black box runs on
//! `(V, E \ J)`. The analysis is slightly better than the vertex case. Fix an
//! edge fault set `F` (`|F| ≤ r`) and a surviving edge `e` whose shortest
//! path in `G \ F` is the edge itself. An iteration covers the pair when
//! `e ∉ J` and `F ⊆ J`, which happens with probability
//! `(1 − p) · p^r = (1/r)(1 − 1/r)^r ≥ 1/(4r)` for `r ≥ 2`, so
//! `α = Θ(r² log n)` iterations suffice for a union bound over the at most
//! `m^{r+1}` (edge, fault set) pairs — one factor of `r` less than the vertex
//! version. The expected number of surviving edges per iteration is `m/r`,
//! and the black box always sees all `n` vertices, so the size bound
//! evaluates `f` at `n`. The output is valid with high probability;
//! `ftspan_graph::verify`'s edge-fault oracles check it.
//!
//! Every union construction of this crate — both fault models here and the
//! CLPR09 baseline in [`crate::baselines`], which fails explicit fault sets —
//! runs its black box through one masked-run kernel and merges the runs in
//! order, so their per-iteration statistics mean the same thing.

use crate::api::FaultModel;
use crate::par;
use crate::{CoreError, Result};
use ftspan_graph::faults::FaultSet;
use ftspan_graph::{EdgeId, EdgeSet, Graph, NodeId};
use ftspan_spanners::SpannerAlgorithm;
use rand::Rng;
use rand::RngCore;
use std::sync::Arc;

/// Parameters of the fault-tolerant conversion (Theorem 2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversionParams {
    /// Number of faults `r` to tolerate.
    pub faults: usize,
    /// Whether vertices (the paper's setting, the default) or edges join the
    /// oversized fault set `J`.
    pub fault_model: FaultModel,
    /// Explicit number of iterations `α`. When `None`,
    /// [`ConversionParams::iterations_for`]'s formula is used.
    pub iterations: Option<usize>,
    /// Multiplier on the default iteration count. The paper's analysis uses a
    /// conservative union bound; experiments can lower this (and re-verify
    /// the output) to study how many iterations are needed in practice — the
    /// `adaptive/iterations` row of `ftspan-bench`'s `exp_paper` table puts
    /// the adaptive conversion's count next to the full budget.
    pub scale: f64,
}

impl ConversionParams {
    /// Parameters tolerating `faults` vertex failures with the default
    /// iteration count.
    pub fn new(faults: usize) -> Self {
        ConversionParams {
            faults,
            fault_model: FaultModel::Vertex,
            iterations: None,
            scale: 1.0,
        }
    }

    /// Sets which failures the conversion protects against.
    pub fn with_fault_model(mut self, fault_model: FaultModel) -> Self {
        self.fault_model = fault_model;
        self
    }

    /// Overrides the number of iterations `α`.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Scales the default iteration count by `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "iteration scale must be positive");
        self.scale = scale;
        self
    }

    /// The sampling probability `p` with which each vertex (or edge) joins
    /// the oversized fault set `J` (Theorem 2.1 uses `1 − 1/r`, or `1/2`
    /// when `r ≤ 1`).
    pub fn sampling_probability(&self) -> f64 {
        if self.faults <= 1 {
            0.5
        } else {
            1.0 - 1.0 / self.faults as f64
        }
    }

    /// The number of iterations `α` that will be used for an `n`-vertex
    /// graph.
    ///
    /// The default follows the proof of Theorem 2.1: the per-iteration
    /// success probability for a fixed pair and fault set is at least
    /// `1/(4r²)`, and a union bound over the roughly `n^{r+2}` (pair, fault
    /// set) combinations requires `α ≈ 4 r² (r + 2) ln n`. Under
    /// [`FaultModel::Edge`] the per-iteration probability is `1/(4r)` and the
    /// union bound is over at most `m^{r+1} ≤ n^{2(r+1)}` pairs; the constant
    /// is folded into the same shape with one factor of `r` removed,
    /// `α ≈ 4 r (r + 2) ln n`.
    pub fn iterations_for(&self, n: usize) -> usize {
        if let Some(it) = self.iterations {
            return it.max(1);
        }
        let r = self.faults.max(1) as f64;
        let ln_n = (n.max(2) as f64).ln();
        let per_pair = match self.fault_model {
            FaultModel::Vertex => self.scale * 4.0 * r * r,
            FaultModel::Edge => self.scale * 4.0 * r,
        };
        let alpha = per_pair * (r + 2.0) * ln_n;
        alpha.ceil().max(1.0) as usize
    }

    /// The size bound of the conversion, evaluated with the concrete
    /// iteration count used by this configuration and the black box's own
    /// size bound `f`: `O(r³ log n · f(2n/r))` for vertex faults
    /// (Theorem 2.1), `O(r² log n · f(n))` for edge faults, whose black box
    /// runs on the full vertex set.
    pub fn size_bound(&self, n: usize, f: impl Fn(usize) -> f64) -> f64 {
        let per_iteration_n = match self.fault_model {
            FaultModel::Vertex => 2 * n / self.faults.max(1),
            FaultModel::Edge => n,
        };
        self.iterations_for(n) as f64 * f(per_iteration_n.max(2))
    }

    /// What fails in one iteration's black-box run.
    fn sampled_faults(&self) -> Faults<'static> {
        let p = self.sampling_probability();
        match self.fault_model {
            FaultModel::Vertex => Faults::Vertices(p),
            FaultModel::Edge => Faults::Edges(p),
        }
    }
}

/// Per-iteration record kept by [`FaultTolerantConverter::build_with_threads`] (and, one
/// per fault set, by the CLPR09 baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationStats {
    /// Number of vertices that survived the oversampled fault set `J` (all
    /// `n` under [`FaultModel::Edge`]).
    pub surviving_vertices: usize,
    /// Number of edges of `G \ J`.
    pub surviving_edges: usize,
    /// Number of edges the black box selected in this iteration.
    pub spanner_edges: usize,
    /// Number of those edges that were new to the union.
    pub new_edges: usize,
}

/// The output of the conversion: the fault-tolerant spanner plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ConversionResult {
    /// The edges of the `r`-fault-tolerant `k`-spanner (over the input
    /// graph's edge identifiers).
    pub edges: EdgeSet,
    /// The number of iterations that were run.
    pub iterations: usize,
    /// Per-iteration statistics, in order.
    pub per_iteration: Vec<IterationStats>,
}

impl ConversionResult {
    /// Number of edges in the constructed spanner.
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// The mean number of vertices surviving the oversampling per iteration
    /// (the paper's analysis shows this concentrates around `n/r`).
    pub fn mean_surviving_vertices(&self) -> f64 {
        if self.per_iteration.is_empty() {
            return 0.0;
        }
        self.per_iteration
            .iter()
            .map(|s| s.surviving_vertices as f64)
            .sum::<f64>()
            / self.per_iteration.len() as f64
    }
}

/// The Theorem 2.1 converter: wraps any [`SpannerAlgorithm`] and produces
/// `r`-fault-tolerant spanners.
///
/// # Example
///
/// ```
/// use ftspan_core::conversion::{ConversionParams, FaultTolerantConverter};
/// use ftspan_spanners::{BaswanaSenSpanner, SpannerAlgorithm};
/// use ftspan_graph::{generate, verify};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let g = generate::gnp(30, 0.4, generate::WeightKind::Unit, &mut rng);
/// let alg = BaswanaSenSpanner::new(2); // a 3-spanner black box
/// let converter = FaultTolerantConverter::new(ConversionParams::new(1));
/// let result = converter.build_with_threads(&g, &alg, &mut rng, 1);
/// assert!(verify::is_fault_tolerant_k_spanner(&g, &result.edges, 3.0, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultTolerantConverter {
    params: ConversionParams,
}

impl FaultTolerantConverter {
    /// Creates a converter with the given parameters.
    pub fn new(params: ConversionParams) -> Self {
        FaultTolerantConverter { params }
    }

    /// The conversion parameters.
    pub fn params(&self) -> &ConversionParams {
        &self.params
    }

    /// Runs the conversion of Theorem 2.1 on `graph` with the given black-box
    /// spanner algorithm, the `α` independent iterations fanned out across up
    /// to `threads` workers (`1` runs sequentially).
    ///
    /// The output is an `r`-fault-tolerant `algorithm.stretch()`-spanner
    /// under the parameters' [`FaultModel`] with high probability; use
    /// `ftspan_graph::verify` to check it when certainty is required.
    ///
    /// Each iteration derives a private random stream from a seed drawn
    /// sequentially from `rng` (see [`crate::par`]) and the per-iteration
    /// results are merged in iteration order, so the output — the edge union
    /// *and* every statistic — is byte-identical at any worker count.
    pub fn build_with_threads<A>(
        &self,
        graph: &Graph,
        algorithm: &A,
        rng: &mut dyn RngCore,
        threads: usize,
    ) -> ConversionResult
    where
        A: SpannerAlgorithm + ?Sized,
    {
        let mut union = graph.empty_edge_set();
        let per_iteration = self.build_into(graph, algorithm, rng, threads, &mut union);
        ConversionResult {
            edges: union,
            iterations: per_iteration.len(),
            per_iteration,
        }
    }

    /// [`FaultTolerantConverter::build_with_threads`] merged, in iteration
    /// order, into a caller's running `union`; each returned
    /// [`IterationStats::new_edges`] counts against that union.
    pub(crate) fn build_into<A>(
        &self,
        graph: &Graph,
        algorithm: &A,
        rng: &mut dyn RngCore,
        threads: usize,
        union: &mut EdgeSet,
    ) -> Vec<IterationStats>
    where
        A: SpannerAlgorithm + ?Sized,
    {
        let seeds = par::derive_seeds(rng, self.params.iterations_for(graph.node_count()));
        let faults = self.params.sampled_faults();
        union_runs(graph, algorithm, &seeds, |_| faults, threads, union)
    }
}

/// What fails in one black-box run: every vertex, or every edge,
/// independently with the given probability (the conversion's oversized
/// fault set `J`), or exactly the given vertices (the CLPR09 baseline).
#[derive(Clone, Copy)]
pub(crate) enum Faults<'a> {
    Vertices(f64),
    Edges(f64),
    Explicit(&'a FaultSet),
}

/// One black-box run: the vertex survivor mask, the black box's output on
/// what survived (over the parent graph's edge ids), and its statistics
/// (`new_edges` is filled by the in-order merge).
struct MaskedRun {
    alive: Vec<bool>,
    edges: Vec<EdgeId>,
    stats: IterationStats,
}

/// The one place a union construction runs its black box. A sampled mask is
/// drawn first from the run's private stream — vertices in id order, or
/// edges in id order — and the black box then continues on the same stream
/// over the surviving edges, given as a mask over `graph`.
fn run_masked<A>(graph: &Graph, algorithm: &A, seed: u64, faults: Faults<'_>) -> MaskedRun
where
    A: SpannerAlgorithm + ?Sized,
{
    let mut task_rng = par::stream(seed);
    let n = graph.node_count();
    let mut draw = |count: usize, p: f64| -> Vec<bool> {
        (0..count).map(|_| task_rng.gen::<f64>() >= p).collect()
    };
    let (alive, live) = match faults {
        Faults::Edges(p) => (vec![true; n], draw(graph.edge_count(), p)),
        Faults::Vertices(p) => vertex_masks(graph, draw(n, p)),
        Faults::Explicit(set) => {
            vertex_masks(graph, set.to_dead_mask(n).iter().map(|&d| !d).collect())
        }
    };
    let edges: Vec<EdgeId> = algorithm
        .build_masked(graph, &live, &mut task_rng)
        .iter()
        .collect();
    let stats = IterationStats {
        surviving_vertices: alive.iter().filter(|&&a| a).count(),
        surviving_edges: live.iter().filter(|&&l| l).count(),
        spanner_edges: edges.len(),
        new_edges: 0,
    };
    MaskedRun {
        alive,
        edges,
        stats,
    }
}

/// `alive` and the edges of `graph` with both endpoints alive.
fn vertex_masks(graph: &Graph, alive: Vec<bool>) -> (Vec<bool>, Vec<bool>) {
    let live = graph
        .edges()
        .map(|(_, e)| alive[e.u.index()] && alive[e.v.index()])
        .collect();
    (alive, live)
}

/// Runs the black box once per seed, run `i` with `faults(i)` failing,
/// across up to `threads` workers, and merges the outputs into `union` in
/// run order. Returns each run's statistics, `new_edges` counted against
/// `union`.
pub(crate) fn union_runs<'a, A>(
    graph: &Graph,
    algorithm: &A,
    seeds: &[u64],
    faults: impl Fn(usize) -> Faults<'a> + Sync,
    threads: usize,
    union: &mut EdgeSet,
) -> Vec<IterationStats>
where
    A: SpannerAlgorithm + ?Sized,
{
    par::map(threads, seeds.len(), |i| {
        let run = run_masked(graph, algorithm, seeds[i], faults(i));
        (run.edges, run.stats)
    })
    .into_iter()
    .map(|(edges, stats)| merge_iteration(union, &edges, stats))
    .collect()
}

/// Adds one run's output to the union, in run order, counting the edges new
/// to it.
fn merge_iteration(
    union: &mut EdgeSet,
    edges: &[EdgeId],
    mut stats: IterationStats,
) -> IterationStats {
    for &parent in edges {
        if union.insert(parent) {
            stats.new_edges += 1;
        }
    }
    stats
}

/// Normalized endpoint pairs of `edges`, in order.
fn endpoints_of(graph: &Graph, edges: &[EdgeId]) -> Arc<[(NodeId, NodeId)]> {
    edges
        .iter()
        .map(|&id| {
            let e = graph.edge(id);
            (e.u, e.v)
        })
        .collect()
}

/// Everything needed to repair a conversion build after an edge-only
/// change without revisiting the iterations the change cannot affect.
///
/// A trace makes the conversion *incrementally repairable*: after an
/// edge-only change to the graph, an iteration whose oversampled fault set
/// does not expose any changed edge (no changed edge has both endpoints
/// alive) produced — and would again produce — exactly the same black-box
/// output. A repair therefore re-runs only the touched iterations and keeps
/// everything else. See [`FaultTolerantConverter::repair_traced`].
///
/// The trace stores three things per build:
///
/// * the **survivor masks** of every iteration as one bitset per vertex, so
///   the touched set of a change is `OR over changed (u, v) of
///   alive[u] & alive[v]` — `⌈α/64⌉` word operations per changed edge;
/// * the **selection counts**: for each edge, the number of iterations
///   whose black box selected it. The spanner is exactly the edges with a
///   positive count, so a repair subtracts the touched iterations' old
///   outputs and adds their new ones instead of re-unioning all `α`;
/// * each iteration's **output** as endpoint pairs, which stay valid across
///   edge-id compaction. They are shared (`Arc`) between versions: a repair
///   replaces only the touched iterations' entries.
///
/// Under [`FaultModel::Edge`] every vertex survives every iteration, so any
/// change touches every iteration: the trace stays valid but saves nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ConversionTrace {
    /// Vertex count of the graph the trace was built on. Repair requires the
    /// vertex set to be unchanged (edge-only deltas), because the alive mask
    /// consumes exactly this many draws per iteration.
    pub nodes: usize,
    /// Per-iteration seeds, in iteration order, as drawn by
    /// [`crate::par::derive_seeds`] from the root generator.
    pub seeds: Vec<u64>,
    /// Survivor masks, vertex-major with `w = ⌈α/64⌉` words per vertex: bit
    /// `i % 64` of word `v · w + i / 64` is set when vertex `v` survived
    /// iteration `i`'s oversampled fault set. A pure function of `nodes` and
    /// `seeds`, so every version of an artifact shares it.
    pub alive: Arc<[u64]>,
    /// Per edge id of the traced graph, the number of iterations whose black
    /// box selected the edge.
    pub counts: Vec<u32>,
    /// Per iteration, the normalized `(u, v)` endpoint pairs of the edges the
    /// black box admitted, in output order.
    pub outputs: Vec<Arc<[(NodeId, NodeId)]>>,
}

impl ConversionTrace {
    /// The iterations, ascending, in which some pair in `changed` has both
    /// endpoints alive — the only iterations whose induced subgraph a change
    /// to those edges can alter.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not below [`ConversionTrace::nodes`].
    pub fn touched_iterations(&self, changed: &[(NodeId, NodeId)]) -> Vec<usize> {
        let words = self.seeds.len().div_ceil(64);
        let mask = |v: NodeId| &self.alive[v.index() * words..(v.index() + 1) * words];
        let mut touched = vec![0u64; words];
        for &(u, v) in changed {
            for ((t, a), b) in touched.iter_mut().zip(mask(u)).zip(mask(v)) {
                *t |= a & b;
            }
        }
        (0..self.seeds.len())
            .filter(|&i| touched[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }
}

/// A successful incremental repair: the spanner on the post-delta graph, the
/// refreshed trace (valid for the *post-delta* graph), and how much work it
/// took.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairedConversion {
    /// The spanner on the post-delta graph — the same edge set
    /// [`FaultTolerantConverter::build_traced`] produces from scratch with
    /// the same root generator state.
    pub edges: EdgeSet,
    /// The refreshed trace, equal to the one a from-scratch
    /// [`FaultTolerantConverter::build_traced`] records, usable for the next
    /// repair.
    pub trace: ConversionTrace,
    /// Number of iterations whose black box had to be re-run.
    pub touched_iterations: usize,
}

impl FaultTolerantConverter {
    /// [`FaultTolerantConverter::build_with_threads`], additionally recording
    /// a [`ConversionTrace`] that makes the build incrementally repairable.
    ///
    /// The returned [`ConversionResult`] is bit-identical to what
    /// [`FaultTolerantConverter::build_with_threads`] produces from the same
    /// generator state — tracing only records, it never draws.
    pub fn build_traced<A>(
        &self,
        graph: &Graph,
        algorithm: &A,
        rng: &mut dyn RngCore,
        threads: usize,
    ) -> (ConversionResult, ConversionTrace)
    where
        A: SpannerAlgorithm + ?Sized,
    {
        let n = graph.node_count();
        let alpha = self.params.iterations_for(n);
        let seeds = par::derive_seeds(rng, alpha);
        let faults = self.params.sampled_faults();

        let runs = par::map(threads, alpha, |i| {
            let run = run_masked(graph, algorithm, seeds[i], faults);
            let output = endpoints_of(graph, &run.edges);
            (run, output)
        });

        let words = alpha.div_ceil(64);
        let mut alive = vec![0u64; n * words];
        let mut counts = vec![0u32; graph.edge_count()];
        let mut union = graph.empty_edge_set();
        let mut per_iteration = Vec::with_capacity(alpha);
        let mut outputs = Vec::with_capacity(alpha);
        for (i, (run, output)) in runs.into_iter().enumerate() {
            for (v, _) in run.alive.iter().enumerate().filter(|(_, &a)| a) {
                alive[v * words + i / 64] |= 1 << (i % 64);
            }
            for &e in &run.edges {
                counts[e.index()] += 1;
            }
            per_iteration.push(merge_iteration(&mut union, &run.edges, run.stats));
            outputs.push(output);
        }

        (
            ConversionResult {
                edges: union,
                iterations: alpha,
                per_iteration,
            },
            ConversionTrace {
                nodes: n,
                seeds,
                alive: alive.into(),
                counts,
                outputs,
            },
        )
    }

    /// Incrementally repairs a traced build after an edge-only change, in
    /// `O(touched black-box runs + m)`.
    ///
    /// `graph` is the graph `trace` was built on. `new_graph` must be the
    /// post-delta graph with the *same vertex set* and with the relative
    /// order of surviving edges preserved (deletions compact, insertions
    /// append — the contract of `ftspan_core::dynamic::apply_deltas`).
    /// `changed` lists the endpoint pairs of every inserted, deleted, or
    /// reweighted edge.
    ///
    /// Only the touched iterations (see
    /// [`ConversionTrace::touched_iterations`]) re-run the black box, from
    /// the recorded seed, drawing the mask first so the stream position
    /// matches a from-scratch run. The selection counts lose the touched
    /// iterations' old outputs, follow the surviving edges to their new ids,
    /// and gain the new outputs; untouched iterations are never visited.
    /// The result — edge set and trace — equals what
    /// [`FaultTolerantConverter::build_traced`] records on `new_graph` from
    /// the same root generator state, because that build would draw the very
    /// same seeds (`α` depends only on `n` and the parameters, both
    /// unchanged).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if the vertex count changed, if the
    /// parameters no longer yield the traced iteration count, if the trace
    /// does not belong to `graph`, if a changed endpoint is out of range, or
    /// if a deleted edge is still selected by an untouched iteration (the
    /// `changed` list was incomplete).
    pub fn repair_traced<A>(
        &self,
        graph: &Graph,
        new_graph: &Graph,
        algorithm: &A,
        trace: &ConversionTrace,
        changed: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Result<RepairedConversion>
    where
        A: SpannerAlgorithm + ?Sized,
    {
        let invalid = |message: String| CoreError::InvalidParameter { message };
        let n = new_graph.node_count();
        if n != trace.nodes || graph.node_count() != trace.nodes {
            return Err(invalid(format!(
                "conversion repair requires an unchanged vertex set: trace has {} nodes, \
                 graphs have {} and {n}",
                trace.nodes,
                graph.node_count()
            )));
        }
        let alpha = self.params.iterations_for(n);
        if alpha != trace.seeds.len() || trace.outputs.len() != trace.seeds.len() {
            return Err(invalid(format!(
                "conversion repair parameters drifted: trace has {} iterations, parameters \
                 now yield {alpha}",
                trace.seeds.len()
            )));
        }
        if trace.alive.len() != n * alpha.div_ceil(64) || trace.counts.len() != graph.edge_count() {
            return Err(invalid(format!(
                "conversion trace does not belong to the {n}-node, {}-edge graph",
                graph.edge_count()
            )));
        }
        if let Some(&(u, v)) = changed
            .iter()
            .find(|(u, v)| u.index() >= n || v.index() >= n)
        {
            return Err(invalid(format!(
                "changed edge ({u}, {v}) is out of range for {n} vertices"
            )));
        }
        let faults = self.params.sampled_faults();
        let touched = trace.touched_iterations(changed);

        let runs = par::map(threads, touched.len(), |t| {
            let run = run_masked(new_graph, algorithm, trace.seeds[touched[t]], faults);
            let output = endpoints_of(new_graph, &run.edges);
            (run.edges, output)
        });

        // Take the touched iterations' old outputs out of the counts.
        let mut counts = trace.counts.clone();
        for &i in &touched {
            for &(u, v) in trace.outputs[i].iter() {
                let id = graph
                    .find_edge(u, v)
                    .map(|id| id.index())
                    .filter(|&id| counts[id] > 0)
                    .ok_or_else(|| {
                        invalid(format!(
                            "conversion trace records edge ({u}, {v}) in iteration {i}, but the \
                             traced graph does not select it"
                        ))
                    })?;
                counts[id] -= 1;
            }
        }

        // Follow the surviving edges to their post-delta ids: they keep their
        // relative order, so one merge pass pairs them up. A deleted edge
        // must have lost every selection with the touched iterations.
        let mut new_counts = vec![0u32; new_graph.edge_count()];
        let mut next = 0;
        for (id, e) in graph.edges() {
            match new_graph.get_edge(EdgeId::new(next)) {
                Some(f) if (f.u, f.v) == (e.u, e.v) => {
                    new_counts[next] = counts[id.index()];
                    next += 1;
                }
                _ if counts[id.index()] > 0 => {
                    return Err(invalid(format!(
                        "conversion repair: edge ({}, {}) left the graph but untouched \
                         iterations still select it — the changed-edge list was incomplete",
                        e.u, e.v
                    )));
                }
                _ => {}
            }
        }

        let mut outputs = trace.outputs.clone();
        for (&i, (edges, output)) in touched.iter().zip(runs) {
            for e in edges {
                new_counts[e.index()] += 1;
            }
            outputs[i] = output;
        }
        let mut edges = new_graph.empty_edge_set();
        for (id, _) in new_counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            edges.insert(EdgeId::new(id));
        }

        Ok(RepairedConversion {
            edges,
            trace: ConversionTrace {
                nodes: n,
                seeds: trace.seeds.clone(),
                alive: Arc::clone(&trace.alive),
                counts: new_counts,
                outputs,
            },
            touched_iterations: touched.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Corollary 2.2's construction: the conversion over the greedy
    /// 3-spanner, on one worker.
    fn greedy_union(g: &Graph, faults: usize, rng: &mut dyn RngCore) -> ConversionResult {
        FaultTolerantConverter::new(ConversionParams::new(faults)).build_with_threads(
            g,
            &GreedySpanner::new(3.0),
            rng,
            1,
        )
    }
    use ftspan_graph::{generate, verify};
    use ftspan_spanners::{BaswanaSenSpanner, GreedySpanner};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn edge(faults: usize) -> ConversionParams {
        ConversionParams::new(faults).with_fault_model(FaultModel::Edge)
    }

    #[test]
    fn iteration_count_follows_theorem() {
        let p = ConversionParams::new(2);
        let n = 100;
        let expected = (4.0 * 4.0 * 4.0 * (100f64).ln()).ceil() as usize;
        assert_eq!(p.iterations_for(n), expected);
        assert_eq!(p.with_iterations(17).iterations_for(n), 17);
        let scaled = ConversionParams::new(2).with_scale(0.5);
        assert!(scaled.iterations_for(n) < expected);
        // Edge faults: 4 r (r + 2) ln n, one factor of r below the vertex
        // count.
        let expected = (4.0 * 3.0 * 5.0 * (100f64).ln()).ceil() as usize;
        assert_eq!(edge(3).iterations_for(n), expected);
        assert_eq!(edge(3).with_iterations(9).iterations_for(n), 9);
        assert!(edge(3).with_scale(0.25).iterations_for(n) < expected);
        assert!(edge(3).iterations_for(n) < ConversionParams::new(3).iterations_for(n));
    }

    #[test]
    fn sampling_probability_special_cases() {
        assert_eq!(ConversionParams::new(0).sampling_probability(), 0.5);
        assert_eq!(ConversionParams::new(1).sampling_probability(), 0.5);
        assert_eq!(ConversionParams::new(4).sampling_probability(), 0.75);
        assert_eq!(edge(1).sampling_probability(), 0.5);
        assert!((edge(3).sampling_probability() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_scale_rejected() {
        for params in [ConversionParams::new(1), edge(1)] {
            assert!(std::panic::catch_unwind(|| params.with_scale(0.0)).is_err());
        }
    }

    #[test]
    fn output_is_fault_tolerant_r1_k3() {
        let mut r = rng(1);
        let g = generate::gnp(25, 0.5, generate::WeightKind::Unit, &mut r);
        let result = greedy_union(&g, 1, &mut r);
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            &result.edges,
            3.0,
            1
        ));
        assert!(result.size() <= g.edge_count());
        assert_eq!(result.per_iteration.len(), result.iterations);

        let mut r = rng(11);
        let g = generate::gnp(18, 0.5, generate::WeightKind::Unit, &mut r);
        let result = FaultTolerantConverter::new(edge(1)).build_with_threads(
            &g,
            &GreedySpanner::new(3.0),
            &mut r,
            1,
        );
        assert!(verify::is_edge_fault_tolerant_k_spanner(
            &g,
            &result.edges,
            3.0,
            1
        ));
        assert!(result.size() <= g.edge_count());
        assert_eq!(result.per_iteration.len(), result.iterations);
    }

    #[test]
    fn output_is_fault_tolerant_r2_weighted() {
        let mut r = rng(2);
        let g = generate::connected_gnp(
            18,
            0.4,
            generate::WeightKind::Uniform { min: 1.0, max: 3.0 },
            &mut r,
        );
        let result = greedy_union(&g, 2, &mut r);
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            &result.edges,
            3.0,
            2
        ));

        let mut r = rng(12);
        let g = generate::connected_gnp(
            14,
            0.4,
            generate::WeightKind::Uniform { min: 1.0, max: 2.0 },
            &mut r,
        );
        let result = FaultTolerantConverter::new(edge(2)).build_with_threads(
            &g,
            &BaswanaSenSpanner::new(2),
            &mut r,
            1,
        );
        assert!(verify::is_edge_fault_tolerant_k_spanner(
            &g,
            &result.edges,
            3.0,
            2
        ));
    }

    #[test]
    fn works_with_baswana_sen_black_box() {
        let mut r = rng(3);
        let g = generate::gnp(24, 0.5, generate::WeightKind::Unit, &mut r);
        let alg = BaswanaSenSpanner::new(2);
        let converter = FaultTolerantConverter::new(ConversionParams::new(1));
        let result = converter.build_with_threads(&g, &alg, &mut r, 1);
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            &result.edges,
            3.0,
            1
        ));
    }

    #[test]
    fn oversampling_keeps_roughly_n_over_r_vertices() {
        let mut r = rng(4);
        let g = generate::gnp(60, 0.2, generate::WeightKind::Unit, &mut r);
        let params = ConversionParams::new(4).with_iterations(200);
        let converter = FaultTolerantConverter::new(params);
        let result = converter.build_with_threads(&g, &GreedySpanner::new(3.0), &mut r, 1);
        let mean = result.mean_surviving_vertices();
        // Expected survivors: n / r = 15; allow generous sampling slack.
        assert!(mean > 9.0 && mean < 21.0, "mean survivors {mean}");

        // Edge faults keep every vertex and roughly m / r edges.
        let mut r = rng(13);
        let g = generate::gnp(40, 0.4, generate::WeightKind::Unit, &mut r);
        let m = g.edge_count() as f64;
        let converter = FaultTolerantConverter::new(edge(4).with_iterations(150));
        let result = converter.build_with_threads(&g, &GreedySpanner::new(3.0), &mut r, 1);
        assert_eq!(result.mean_surviving_vertices(), 40.0);
        let stats = &result.per_iteration;
        let mean = stats.iter().map(|s| s.surviving_edges).sum::<usize>() as f64 / 150.0;
        assert!(
            mean > 0.15 * m && mean < 0.35 * m,
            "mean surviving edges {mean} not around m/4 = {}",
            m / 4.0
        );
    }

    #[test]
    fn more_faults_need_more_edges() {
        let mut r = rng(5);
        let g = generate::gnp(30, 0.5, generate::WeightKind::Unit, &mut r);
        let small = greedy_union(&g, 1, &mut r).size();
        let large = greedy_union(&g, 3, &mut r).size();
        assert!(
            large >= small,
            "r=3 spanner ({large}) smaller than r=1 ({small})"
        );
    }

    #[test]
    fn size_bound_helper_composes_f() {
        let params = ConversionParams::new(2);
        let bound = params.size_bound(100, |n| n as f64);
        assert_eq!(bound, params.iterations_for(100) as f64 * 100.0);
        // Edge faults evaluate f at n, not 2n/r.
        let params = edge(2);
        let bound = params.size_bound(50, |n| 2.0 * n as f64);
        assert_eq!(bound, params.iterations_for(50) as f64 * 100.0);
    }

    #[test]
    fn empty_graph_yields_empty_spanner() {
        let mut r = rng(7);
        let g = Graph::new(0);
        let result = greedy_union(&g, 2, &mut r);
        assert_eq!(result.size(), 0);
        let converter = FaultTolerantConverter::new(edge(2));
        let result = converter.build_with_threads(&g, &GreedySpanner::new(3.0), &mut rng(14), 1);
        assert_eq!(result.size(), 0);
        assert!(result.per_iteration.iter().all(|s| s.surviving_edges == 0));
    }

    #[test]
    fn traced_build_matches_untraced_build_exactly() {
        let g = generate::gnp(22, 0.4, generate::WeightKind::Unit, &mut rng(11));
        let converter = FaultTolerantConverter::new(ConversionParams::new(2).with_iterations(70));
        let plain = converter.build_with_threads(&g, &GreedySpanner::new(3.0), &mut rng(12), 2);
        let (traced, trace) = converter.build_traced(&g, &GreedySpanner::new(3.0), &mut rng(12), 2);
        assert_eq!(plain, traced);
        assert_eq!(trace.nodes, g.node_count());
        assert_eq!(trace.seeds.len(), 70);
        assert_eq!(trace.outputs.len(), 70);
        // Two mask words per vertex for α = 70.
        assert_eq!(trace.alive.len(), 2 * g.node_count());
        for (i, (output, stats)) in trace.outputs.iter().zip(&traced.per_iteration).enumerate() {
            assert_eq!(output.len(), stats.spanner_edges);
            let survivors = (0..g.node_count())
                .filter(|v| trace.alive[v * 2 + i / 64] >> (i % 64) & 1 == 1)
                .count();
            assert_eq!(survivors, stats.surviving_vertices, "iteration {i}");
        }
        // The spanner is exactly the edges some iteration selected.
        let selected: Vec<usize> = (0..g.edge_count())
            .filter(|&e| trace.counts[e] > 0)
            .collect();
        let union: Vec<usize> = traced.edges.iter().map(|e| e.index()).collect();
        assert_eq!(selected, union);
        let total: u32 = trace.counts.iter().sum();
        let outputs: usize = trace.outputs.iter().map(|o| o.len()).sum();
        assert_eq!(total as usize, outputs);
    }

    /// `g` with edge 0 deleted (compacting), one absent pair inserted, and
    /// then edge 0 re-inserted at the end with a new weight — the order
    /// contract of `dynamic::apply_deltas` — plus the changed pairs.
    fn post_delta(g: &Graph) -> (Graph, Vec<(NodeId, NodeId)>) {
        let dropped = *g.edge(EdgeId::new(0));
        let mut new_graph = Graph::new(g.node_count());
        for (_, e) in g.edges().skip(1) {
            new_graph.add_edge(e.u, e.v, e.weight).unwrap();
        }
        let (u, v) = (0..g.node_count())
            .flat_map(|u| ((u + 1)..g.node_count()).map(move |v| (NodeId::new(u), NodeId::new(v))))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("test graph is not complete");
        new_graph.add_edge(u, v, 1.0).unwrap();
        new_graph.add_edge(dropped.u, dropped.v, 2.5).unwrap();
        (new_graph, vec![(dropped.u, dropped.v), (u, v)])
    }

    fn repaired(
        converter: &FaultTolerantConverter,
        g: &Graph,
        new_graph: &Graph,
        alg: &dyn SpannerAlgorithm,
        trace: &ConversionTrace,
        changed: &[(NodeId, NodeId)],
        threads: usize,
    ) -> RepairedConversion {
        converter
            .repair_traced(g, new_graph, alg, trace, changed, threads)
            .unwrap()
    }

    #[test]
    fn repair_with_no_changes_keeps_the_trace_verbatim() {
        let g = generate::gnp(20, 0.4, generate::WeightKind::Unit, &mut rng(13));
        let converter = FaultTolerantConverter::new(ConversionParams::new(1).with_iterations(25));
        let alg = GreedySpanner::new(3.0);
        let (result, trace) = converter.build_traced(&g, &alg, &mut rng(14), 1);
        let repaired = repaired(&converter, &g, &g, &alg, &trace, &[], 2);
        assert_eq!(repaired.edges, result.edges);
        assert_eq!(repaired.trace, trace);
        assert_eq!(repaired.touched_iterations, 0);
    }

    #[test]
    fn repair_matches_a_from_scratch_rebuild_bit_for_bit() {
        let mut r = rng(15);
        let g = generate::connected_gnp(24, 0.3, generate::WeightKind::Unit, &mut r);
        let converter = FaultTolerantConverter::new(ConversionParams::new(2).with_iterations(40));
        let alg = GreedySpanner::new(3.0);
        let (_, trace) = converter.build_traced(&g, &alg, &mut rng(16), 2);
        let (new_graph, changed) = post_delta(&g);

        let (reference, reference_trace) =
            converter.build_traced(&new_graph, &alg, &mut rng(16), 1);
        for threads in [1usize, 2, 8] {
            let repaired = repaired(&converter, &g, &new_graph, &alg, &trace, &changed, threads);
            assert_eq!(repaired.edges, reference.edges, "threads = {threads}");
            assert_eq!(repaired.trace, reference_trace, "threads = {threads}");
            assert!(repaired.touched_iterations > 0);
            assert!(repaired.touched_iterations < trace.seeds.len());
        }

        // Under edge faults every vertex survives every iteration, so the
        // change touches all of them: the repair is a full re-run, and still
        // equals the from-scratch build.
        let converter = FaultTolerantConverter::new(edge(2).with_iterations(40));
        let (_, trace) = converter.build_traced(&g, &alg, &mut rng(16), 2);
        let (reference, reference_trace) =
            converter.build_traced(&new_graph, &alg, &mut rng(16), 1);
        let repaired = repaired(&converter, &g, &new_graph, &alg, &trace, &changed, 2);
        assert_eq!(repaired.edges, reference.edges);
        assert_eq!(repaired.trace, reference_trace);
        assert_eq!(repaired.touched_iterations, 40);
    }

    /// A black box that counts its runs.
    struct Counting<A> {
        inner: A,
        builds: AtomicUsize,
    }

    impl<A: SpannerAlgorithm> SpannerAlgorithm for Counting<A> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn stretch(&self) -> f64 {
            self.inner.stretch()
        }

        fn build_masked(&self, graph: &Graph, live: &[bool], rng: &mut dyn RngCore) -> EdgeSet {
            self.builds.fetch_add(1, Ordering::Relaxed);
            self.inner.build_masked(graph, live, rng)
        }

        fn size_bound(&self, n: usize) -> f64 {
            self.inner.size_bound(n)
        }
    }

    /// The touched set recomputed from the seeds alone: redraw every
    /// iteration's mask and test every changed pair against it.
    fn touched_from_seeds(
        params: &ConversionParams,
        trace: &ConversionTrace,
        changed: &[(NodeId, NodeId)],
    ) -> Vec<usize> {
        let p = params.sampling_probability();
        (0..trace.seeds.len())
            .filter(|&i| {
                let mut task_rng = par::stream(trace.seeds[i]);
                let alive: Vec<bool> = (0..trace.nodes)
                    .map(|_| task_rng.gen::<f64>() >= p)
                    .collect();
                changed
                    .iter()
                    .any(|&(u, v)| alive[u.index()] && alive[v.index()])
            })
            .collect()
    }

    #[test]
    fn repair_runs_the_black_box_only_for_touched_iterations() {
        let g = generate::grid(8, 9);
        let params = ConversionParams::new(1).with_iterations(130);
        let converter = FaultTolerantConverter::new(params);
        let alg = Counting {
            inner: BaswanaSenSpanner::new(2),
            builds: AtomicUsize::new(0),
        };
        let (_, trace) = converter.build_traced(&g, &alg, &mut rng(19), 2);
        assert_eq!(alg.builds.swap(0, Ordering::Relaxed), 130);
        let (new_graph, changed) = post_delta(&g);

        let touched = trace.touched_iterations(&changed);
        assert_eq!(touched, touched_from_seeds(&params, &trace, &changed));
        for pair in &changed {
            let single = std::slice::from_ref(pair);
            assert_eq!(
                trace.touched_iterations(single),
                touched_from_seeds(&params, &trace, single)
            );
        }

        let repaired = repaired(&converter, &g, &new_graph, &alg, &trace, &changed, 2);
        assert_eq!(repaired.touched_iterations, touched.len());
        assert_eq!(alg.builds.load(Ordering::Relaxed), touched.len());
        // Masks, counts and per-iteration outputs all equal the trace a
        // from-scratch build records on the post-delta graph.
        let (reference, reference_trace) =
            converter.build_traced(&new_graph, &alg, &mut rng(19), 1);
        assert_eq!(repaired.trace.alive, reference_trace.alive);
        assert_eq!(repaired.trace.counts, reference_trace.counts);
        assert_eq!(repaired.trace.outputs, reference_trace.outputs);
        assert_eq!(repaired.trace, reference_trace);
        assert_eq!(repaired.edges, reference.edges);
        // Untouched iterations' outputs are shared with the old trace, not
        // copied.
        for i in (0..130).filter(|i| !touched.contains(i)) {
            assert!(Arc::ptr_eq(&repaired.trace.outputs[i], &trace.outputs[i]));
        }
    }

    #[test]
    fn repair_rejects_an_incomplete_changed_list() {
        let g = generate::gnp(18, 0.5, generate::WeightKind::Unit, &mut rng(17));
        let converter = FaultTolerantConverter::new(ConversionParams::new(1).with_iterations(20));
        let alg = GreedySpanner::new(3.0);
        let (_, trace) = converter.build_traced(&g, &alg, &mut rng(18), 1);
        // Delete an edge some iteration selected, but leave it off the list.
        let doomed = (0..g.edge_count())
            .find(|&e| trace.counts[e] > 0)
            .expect("some edge is selected");
        let mut new_graph = Graph::new(g.node_count());
        for (id, e) in g.edges() {
            if id.index() != doomed {
                new_graph.add_edge(e.u, e.v, e.weight).unwrap();
            }
        }
        let err = converter
            .repair_traced(&g, &new_graph, &alg, &trace, &[], 1)
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::InvalidParameter { message } if message.contains("incomplete")),
            "{err:?}"
        );
        // With the deleted pair listed, the same repair succeeds.
        let e = *g.edge(EdgeId::new(doomed));
        assert!(converter
            .repair_traced(&g, &new_graph, &alg, &trace, &[(e.u, e.v)], 1)
            .is_ok());
    }

    #[test]
    fn repair_rejects_node_changes_and_foreign_traces() {
        let g = generate::gnp(18, 0.5, generate::WeightKind::Unit, &mut rng(17));
        let converter = FaultTolerantConverter::new(ConversionParams::new(1).with_iterations(20));
        let alg = GreedySpanner::new(3.0);
        let (_, trace) = converter.build_traced(&g, &alg, &mut rng(18), 1);
        let bigger = Graph::new(g.node_count() + 1);
        assert!(converter
            .repair_traced(&g, &bigger, &alg, &trace, &[], 1)
            .is_err());
        // A trace of a different graph on the same vertices.
        let other = Graph::new(g.node_count());
        assert!(converter
            .repair_traced(&other, &other, &alg, &trace, &[], 1)
            .is_err());
        let out_of_range = [(NodeId::new(0), NodeId::new(g.node_count()))];
        assert!(converter
            .repair_traced(&g, &g, &alg, &trace, &out_of_range, 1)
            .is_err());
        // Parameters that no longer yield the traced iteration count.
        let drifted = FaultTolerantConverter::new(ConversionParams::new(1).with_iterations(21));
        assert!(drifted.repair_traced(&g, &g, &alg, &trace, &[], 1).is_err());
    }

    #[test]
    fn parallel_build_is_byte_identical_across_worker_counts() {
        let g = generate::gnp(24, 0.4, generate::WeightKind::Unit, &mut rng(8));
        let converter = FaultTolerantConverter::new(ConversionParams::new(2).with_iterations(40));
        let reference = converter.build_with_threads(&g, &GreedySpanner::new(3.0), &mut rng(9), 1);
        for threads in [2usize, 3, 8] {
            let got =
                converter.build_with_threads(&g, &GreedySpanner::new(3.0), &mut rng(9), threads);
            assert_eq!(reference, got, "threads = {threads} changed the result");
        }
        // The randomized black box follows the same discipline, under both
        // fault models and in the CLPR09 baseline's explicit fault sets.
        let bs = BaswanaSenSpanner::new(2);
        let edge_converter = FaultTolerantConverter::new(edge(2).with_iterations(40));
        let clpr = crate::baselines::ClprStyleBaseline::sampled(2, 30);
        for threads in [2usize, 4, 8] {
            let reference = converter.build_with_threads(&g, &bs, &mut rng(10), 1);
            let got = converter.build_with_threads(&g, &bs, &mut rng(10), threads);
            assert_eq!(reference, got, "vertex, threads = {threads}");
            let reference = edge_converter.build_with_threads(&g, &bs, &mut rng(10), 1);
            let got = edge_converter.build_with_threads(&g, &bs, &mut rng(10), threads);
            assert_eq!(reference, got, "edge, threads = {threads}");
            let reference = clpr.build_with_threads(&g, &bs, &mut rng(10), 1);
            let got = clpr.build_with_threads(&g, &bs, &mut rng(10), threads);
            assert_eq!(reference, got, "clpr09, threads = {threads}");
        }
    }
}

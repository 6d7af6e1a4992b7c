//! Construction through the public entry points: `GeneratorSpec` input,
//! `FtSpannerBuilder` build, `FtSpanner` assembly and `ArtifactStore::save`.
//!
//! The untraced path times whole builds. The traced path times each layer
//! call, then replays the conversion's black-box runs on the same
//! per-iteration subgraphs (the black box has no public entry point of its
//! own inside the conversion) and checks that the union of the replayed
//! outputs is the artifact's edge set, which proves the replay did the same
//! work.

use crate::report::Report;
use crate::stats::fnv1a;
use crate::trace::Tracer;
use crate::Values;
use fault_tolerant_spanners::core::conversion::ConversionParams;
use fault_tolerant_spanners::core::par;
use fault_tolerant_spanners::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// One construction a workload serves.
pub struct Construction {
    /// Store name of the artifact.
    pub name: &'static str,
    pub spec: GeneratorSpec,
    pub builder: FtSpannerBuilder,
    /// The black box the registry algorithm runs in every iteration.
    pub black_box: Box<dyn SpannerAlgorithm>,
    pub faults: usize,
}

pub struct Built {
    pub artifact: FtSpanner,
    /// CPU time of each build, all threads.
    pub build_cpu_s: Vec<f64>,
    pub digest: u64,
}

/// FNV-1a over the spanner's edges as `(u, v)` endpoint pairs in edge-id
/// order: equal digests mean equal spanners.
pub fn edge_digest(artifact: &FtSpanner) -> u64 {
    let graph = artifact.source_graph();
    fnv1a(artifact.spanner_edges().iter().flat_map(|e| {
        let edge = graph.edge(e);
        let (u, v) = (edge.u.index() as u64, edge.v.index() as u64);
        u.to_le_bytes().into_iter().chain(v.to_le_bytes())
    }))
}

/// Generates the input, then builds and saves the artifact, `repeats`
/// times; only the build and save are timed, in wall-clock and in CPU time
/// of this process (nothing else runs in it meanwhile). Every repeat must
/// reproduce the same spanner.
pub fn build_untraced(
    c: &Construction,
    store: &ArtifactStore,
    repeats: usize,
    report: &mut Report,
) -> Result<Built, String> {
    let mut build_cpu_s = Vec::new();
    let cpu = || crate::sys::cpu_s(None).ok_or("cannot read this process's CPU time");
    let mut last: Option<(FtSpanner, u64)> = None;
    for _ in 0..repeats {
        let csr = c
            .spec
            .generate_csr()
            .map_err(|e| format!("generate {}: {e}", c.name))?;
        let start = Instant::now();
        let start_cpu = cpu()?;
        let artifact = c
            .builder
            .artifact_on_graph(csr)
            .map_err(|e| format!("build {}: {e}", c.name))?;
        store
            .save(c.name, &artifact)
            .map_err(|e| format!("save {}: {e}", c.name))?;
        let wall_s = start.elapsed().as_secs_f64();
        build_cpu_s.push(cpu()? - start_cpu);
        eprintln!(
            "perfbench: built and saved `{}` in {wall_s:.3} s ({:.3} s of CPU)",
            c.name,
            build_cpu_s[build_cpu_s.len() - 1]
        );

        let digest = edge_digest(&artifact);
        let previous = last.as_ref().map_or(digest, |(_, d)| *d);
        report.check(previous == digest, || {
            format!(
                "{}: repeated builds differ ({previous:016x} vs {digest:016x})",
                c.name
            )
        });
        last = Some((artifact, digest));
    }
    let (artifact, digest) = last.ok_or("no build ran")?;
    Ok(Built {
        artifact,
        build_cpu_s,
        digest,
    })
}

/// Checks the artifact with the sampled stretch oracle: the empty fault set
/// plus `samples` random vertex-fault sets of size `r`.
pub fn verify_sampled(artifact: &FtSpanner, samples: usize, seed: u64, report: &mut Report) {
    let oracle = verify::StretchOracle::new(artifact.source_graph(), artifact.spanner_edges())
        .with_threads(par::available_threads());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let outcome = oracle.verify_sampled(
        artifact.stretch(),
        artifact.fault_budget(),
        samples,
        &mut rng,
    );
    report.check(outcome.is_valid(), || {
        format!(
            "stretch oracle: worst stretch {} exceeds {} under faults {:?}",
            outcome.worst_stretch,
            artifact.stretch(),
            outcome.violating_faults
        )
    });
}

/// What the traced construction measured.
pub struct TracedBuild {
    pub artifact: FtSpanner,
    pub iterations: usize,
    pub union_new_ratio: f64,
    pub black_box_calls: usize,
    /// Share of the build window (build through save) that layer spans
    /// cover.
    pub coverage: f64,
    pub store_bytes: u64,
}

/// One build with a span around every layer call, followed by the
/// black-box replay.
pub fn build_traced(
    c: &Construction,
    store: &ArtifactStore,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<TracedBuild, String> {
    let seed = c.builder.recipe().seed;
    let csr = tracer
        .span("stream.generate", 0, |_| c.spec.generate_csr())
        .map_err(|e| format!("generate {}: {e}", c.name))?;

    let window = Instant::now();
    let first_span = tracer.spans().len();
    let resolved = tracer
        .span("source.resolve", 0, |_| GraphSource::from(csr).resolve())
        .map_err(|e| format!("resolve {}: {e}", c.name))?;
    let mut spanner_report = tracer
        .span("builder.build", 0, |_| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            c.builder.build_with_rng(resolved.as_input(), &mut rng)
        })
        .map_err(|e| format!("build {}: {e}", c.name))?;
    let ResolvedSource::Undirected { graph, csr } = resolved else {
        return Err(format!("{}: input resolved to a directed graph", c.name));
    };
    let artifact = tracer
        .span("serve.assemble", 0, |_| {
            spanner_report.provenance = c
                .builder
                .recipe()
                .tagged_provenance(&spanner_report.provenance);
            FtSpanner::from_report_with_csr(&graph, csr, &spanner_report)
        })
        .map_err(|e| format!("assemble {}: {e}", c.name))?;
    let path = tracer
        .span("store.save", 0, |_| store.save(c.name, &artifact))
        .map_err(|e| format!("save {}: {e}", c.name))?;
    let window_s = window.elapsed().as_secs_f64();
    let covered_s: f64 = tracer.spans()[first_span..]
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_s())
        .sum();

    let per_iteration = &spanner_report.per_iteration;
    let new_edges: usize = per_iteration.iter().map(|s| s.new_edges).sum();
    let black_box_edges: usize = per_iteration.iter().map(|s| s.spanner_edges).sum();

    let replayed = tracer.span("conversion.replay", 0, |t| replay(c, &graph, seed, t));
    let expected: Vec<usize> = artifact.spanner_edges().iter().map(|e| e.index()).collect();
    report.check(replayed.0 == expected, || {
        format!(
            "{}: black-box replay union has {} edges, the artifact {}",
            c.name,
            replayed.0.len(),
            expected.len()
        )
    });

    Ok(TracedBuild {
        iterations: spanner_report.iterations,
        union_new_ratio: new_edges as f64 / black_box_edges.max(1) as f64,
        black_box_calls: replayed.1,
        coverage: covered_s / window_s,
        store_bytes: std::fs::metadata(path).map_or(0, |m| m.len()),
        artifact,
    })
}

/// Re-runs the conversion's iterations one by one on one thread: the same
/// seeds (`par::derive_seeds` on the builder's root generator), the same
/// per-iteration streams (`par::stream`) and the same sampling rule. Returns
/// the sorted union of the black-box outputs and the number of black-box
/// calls.
fn replay(c: &Construction, graph: &Graph, seed: u64, tracer: &mut Tracer) -> (Vec<usize>, usize) {
    let n = graph.node_count();
    let params = ConversionParams::new(c.faults);
    let p = params.sampling_probability();
    let alpha = params.iterations_for(n);
    let mut root = ChaCha8Rng::seed_from_u64(seed);
    let seeds = par::derive_seeds(&mut root, alpha);
    let mut union = vec![false; graph.edge_count()];
    for (i, &task_seed) in seeds.iter().enumerate() {
        let mut task_rng = par::stream(task_seed);
        let (sub, edge_map) = tracer.span("conversion.sample", i as u64, |_| {
            let alive: Vec<bool> = (0..n).map(|_| task_rng.gen::<f64>() >= p).collect();
            let mut sub = Graph::new(n);
            let mut edge_map = Vec::new();
            for (id, e) in graph.edges() {
                if alive[e.u.index()] && alive[e.v.index()] {
                    sub.add_edge(e.u, e.v, e.weight)
                        .expect("edges of a valid graph stay valid in a subgraph");
                    edge_map.push(id);
                }
            }
            (sub, edge_map)
        });
        let spanner = tracer.span("spanners.black_box", i as u64, |_| {
            c.black_box.build(&sub, &mut task_rng)
        });
        for e in spanner.iter() {
            union[edge_map[e.index()].index()] = true;
        }
    }
    let edges = (0..union.len()).filter(|&i| union[i]).collect();
    (edges, alpha)
}

/// Checks the edge digest against the one pinned for this seed, if any.
pub fn check_pinned(pinned: &[(u64, u64)], seed: u64, digest: u64, report: &mut Report) {
    if let Some(&(_, expected)) = pinned.iter().find(|(s, _)| *s == seed) {
        report.check(digest == expected, || {
            format!("edge digest {digest:016x} differs from the one pinned for seed {seed}: {expected:016x}")
        });
    }
}

/// The traced build, recorded as per-layer values; returns the artifact.
pub fn traced_values(
    c: &Construction,
    store: &ArtifactStore,
    tracer: &mut Tracer,
    report: &mut Report,
    values: &mut Values,
) -> Result<FtSpanner, String> {
    let traced = build_traced(c, store, tracer, report)?;
    report.check(traced.coverage >= 0.9, || {
        format!("layer spans cover only {:.3} of the build", traced.coverage)
    });
    let layers = tracer.layers();
    let self_s = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s);
    values.insert("stream.generate_s", self_s("stream.generate"));
    values.insert("conversion.iterations", traced.iterations as f64);
    values.insert("conversion.sample_s", self_s("conversion.sample"));
    values.insert("spanners.black_box_s", self_s("spanners.black_box"));
    values.insert("spanners.black_box_calls", traced.black_box_calls as f64);
    values.insert("conversion.union_new_ratio", traced.union_new_ratio);
    values.insert("serve.assemble_s", self_s("serve.assemble"));
    values.insert("store.save_s", self_s("store.save"));
    values.insert("store.bytes", traced.store_bytes as f64);
    values.insert("trace.build_coverage", traced.coverage);
    Ok(traced.artifact)
}

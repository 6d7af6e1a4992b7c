//! `serve-churn`: the conversion over Baswana–Sen (r = 1) on a seeded
//! road-like planar mesh, served dynamic, next to the same graph as a
//! 4-shard scatter-gather artifact, while a writer closes, reweights and
//! reopens roads.
//!
//! The road network, its partition, the build seed and the writer's road
//! works are fixed: how fast a scatter-gather query is depends on where the
//! partition cuts, and a new city per seed would move capacity by a
//! quarter; whether a change is patched or forces a rebuild depends on the
//! change, and a new sequence per seed would move the server's CPU time by
//! a fifth. The seed draws the queries.
//!
//! Every query has its own uniform source and its own single-vertex fault
//! scope, so the planner and the cache give nothing: each query is a session
//! open plus a full traversal. One query in four goes to the sharded
//! artifact, one in every request: a scatter-gather query costs some forty
//! flat ones, and requests that all carry one keep the latency distribution
//! unimodal, so its percentiles are steady. Rebuilds run on the same two cores as the
//! queries, and one changed edge touches (1 - p)^2 = 25% of the iterations,
//! which is `RebuildPolicy`'s 25% threshold, so both the patch path and the
//! rebuild path run.

use crate::construct::{self, Construction};
use crate::replay::{self, Sampler};
use crate::report::Report;
use crate::serving::{self, Schedule, Traffic};
use crate::stats::{median, quantile};
use crate::{Ctx, Values};
use fault_tolerant_spanners::core::dynamic::apply_deltas;
use fault_tolerant_spanners::graph::partition::PartitionConfig;
use fault_tolerant_spanners::prelude::*;
use fault_tolerant_spanners::{Query, QueryOutcome};
use ftspan_net::protocol::{Request, Response};
use ftspan_net::Client;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

const ROWS: usize = 50;
const COLS: usize = 50;
const NAME: &str = "road";
const SHARDED: &str = "road-sharded";
const SHARDS: usize = 4;
const QUERIES_PER_REQUEST: usize = 4;
/// One delta batch per period on the writer's connection.
const WRITE_PERIOD: Duration = Duration::from_millis(400);
/// Every this many requests, the reply's `road-sharded` answer is compared
/// with the in-process reference executor.
const CHECK_EVERY: usize = 8;
/// Delta batches replayed in-process by the traced run.
const APPLY_REPLAY: usize = 16;

pub const SCHEDULE: Schedule = Schedule {
    low_rps: 12.0,
    high_rps: 24.0,
    depth: 3,
    ceiling_rps: 300.0,
    limit_ms: 100.0,
};

/// Seed of the road network, its partition and its build.
const CITY: u64 = 2011;
/// Edge digest of the road artifact (see `construct::edge_digest`).
const ROAD_DIGEST: u64 = 0x9cbd_67b8_972f_3ddd;

pub fn construction() -> Construction {
    Construction {
        name: NAME,
        spec: GeneratorSpec::PlanarMesh {
            rows: ROWS,
            cols: COLS,
            diagonal_p: 0.3,
            jitter: 0.3,
            seed: CITY,
        },
        builder: FtSpannerBuilder::new("conversion")
            .faults(1)
            .stretch(3.0)
            .black_box(BlackBoxKind::BaswanaSen)
            .seed(CITY),
        black_box: BlackBoxKind::BaswanaSen.instantiate(3.0),
        faults: 1,
    }
}

/// The seeded query stream: one query of every request targets the sharded
/// artifact.
pub struct Requests {
    rng: ChaCha8Rng,
    sent: usize,
}

impl Requests {
    pub fn new(seed: u64) -> Self {
        Requests {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xc4u64 << 32),
            sent: 0,
        }
    }

    pub fn next(&mut self) -> Vec<Query> {
        let n = ROWS * COLS;
        let sharded = self.sent % QUERIES_PER_REQUEST;
        self.sent += 1;
        (0..QUERIES_PER_REQUEST)
            .map(|i| {
                let artifact = if i == sharded { SHARDED } else { NAME };
                let u = self.rng.gen_range(0..n);
                let v = loop {
                    let v = self.rng.gen_range(0..n);
                    if v != u {
                        break v;
                    }
                };
                let fault = loop {
                    let f = self.rng.gen_range(0..n);
                    if f != u && f != v {
                        break vec![NodeId::new(f)];
                    }
                };
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                match self.rng.gen_range(0..4usize) {
                    0 | 1 => Query::distance(artifact, fault, u, v),
                    2 => Query::path(artifact, fault, u, v),
                    _ => Query::certificate(artifact, fault, u, v),
                }
            })
            .collect()
    }
}

/// The writer: tracks the graph itself so every batch is valid. Each batch
/// closes a road (delete), changes its travel time (reweight) or reopens a
/// closed one (insert with its original weight).
pub struct Writer {
    rng: ChaCha8Rng,
    /// `(u, v, original weight)` of open and of closed roads.
    open: Vec<(NodeId, NodeId, f64)>,
    closed: Vec<(NodeId, NodeId, f64)>,
    pub sent: Vec<EdgeDelta>,
}

impl Writer {
    pub fn new(graph: &Graph) -> Self {
        Writer {
            rng: ChaCha8Rng::seed_from_u64(CITY ^ 0xde17a),
            open: graph.edges().map(|(_, e)| (e.u, e.v, e.weight)).collect(),
            closed: Vec::new(),
            sent: Vec::new(),
        }
    }

    pub fn next(&mut self) -> EdgeDelta {
        let choices: usize = if self.closed.is_empty() { 2 } else { 3 };
        let delta = match self.rng.gen_range(0..choices) {
            0 => {
                let road = self
                    .open
                    .swap_remove(self.rng.gen_range(0..self.open.len()));
                self.closed.push(road);
                EdgeDelta::Delete {
                    u: road.0,
                    v: road.1,
                }
            }
            1 => {
                let (u, v, w) = self.open[self.rng.gen_range(0..self.open.len())];
                EdgeDelta::Reweight {
                    u,
                    v,
                    weight: w * self.rng.gen_range(1.0..3.0),
                }
            }
            _ => {
                let road = self
                    .closed
                    .swap_remove(self.rng.gen_range(0..self.closed.len()));
                self.open.push(road);
                EdgeDelta::Insert {
                    u: road.0,
                    v: road.1,
                    weight: road.2,
                }
            }
        };
        self.sent.push(delta.clone());
        delta
    }

    /// The graph after every delta sent so far, in the order the server's
    /// delta log numbered them.
    pub fn final_graph(&self, base: &Graph) -> Result<Graph, String> {
        let sequenced: Vec<SequencedDelta> = self
            .sent
            .iter()
            .enumerate()
            .map(|(i, delta)| SequencedDelta {
                seq: i as u64 + 1,
                delta: delta.clone(),
            })
            .collect();
        apply_deltas(base, &sequenced).map_err(|e| format!("writer's deltas do not apply: {e}"))
    }
}

fn apply_request(delta: EdgeDelta) -> Request {
    Request::ApplyDeltas {
        artifact: NAME.to_string(),
        deltas: vec![delta],
    }
}

/// Every certificate in a reply must hold.
fn certificates_hold(response: &Response) -> Result<(), String> {
    if let Response::Batch(results) = response {
        for outcome in results.iter().flatten() {
            if let QueryOutcome::Certificate(c) = outcome {
                if !c.holds() {
                    return Err(format!("certificate for ({}, {}) does not hold", c.u, c.v));
                }
            }
        }
    }
    Ok(())
}

/// Builds the road network as a sharded artifact and saves it next to the
/// flat one.
fn save_sharded(store: &ArtifactStore, graph: &Graph) -> Result<ShardedArtifact, String> {
    let sharded = ShardedArtifact::build(
        graph,
        &construction().builder,
        &PartitionConfig::new(SHARDS).with_seed(CITY),
    )
    .map_err(|e| format!("sharded build: {e}"))?;
    store
        .save_sharded(SHARDED, &sharded)
        .map_err(|e| format!("sharded save: {e}"))?;
    Ok(sharded)
}

pub fn run(ctx: &Ctx, report: &mut Report, values: &mut Values) -> Result<(), String> {
    let store = ctx.store()?;
    // A build takes some 60 ms of CPU, so many repeats make a steady median.
    let built = construct::build_untraced(&construction(), &store, 25, report)?;
    save_sharded(&store, built.artifact.source_graph())?;
    construct::check_pinned(&[(CITY, ROAD_DIGEST)], CITY, built.digest, report);
    values.insert("build_cpu_s", median(&built.build_cpu_s));
    values.insert("spanner_edges", built.artifact.spanner_edge_count() as f64);
    let base = built.artifact.source_graph();

    let server = ctx.start_server(true, values)?;
    let mut requests = Requests::new(ctx.seed);
    let mut sent = 0usize;
    let mut next = || {
        sent += 1;
        (requests.next(), sent.is_multiple_of(CHECK_EVERY))
    };
    let mut writer = Writer::new(base);
    let mut next_write = || apply_request(writer.next());
    let mut traffic = Traffic {
        connections: 1,
        next_request: &mut next,
        writer: Some((WRITE_PERIOD, &mut next_write)),
        verify: &certificates_hold,
    };
    let serve = serving::run_serve(&server, &mut traffic, &SCHEDULE, ctx.seconds, report);
    serving::cpu_values(&serve, values);

    // The served version must answer like a from-scratch build on the
    // writer's final graph.
    let probe = probe_queries(ctx.seed);
    let served = Client::connect(server.addr)
        .and_then(|mut c| c.run_batch(&probe))
        .map_err(|e| format!("probe: {e}"))?
        .expect_results()
        .map_err(|e| format!("probe: {e}"))?;
    ctx.stop_server(server, values)?;
    let final_graph = writer.final_graph(base)?;
    let recipe = construction().builder.recipe();
    let fresh =
        DynamicArtifact::build(&final_graph, recipe).map_err(|e| format!("fresh build: {e}"))?;
    let mut reference = Engine::new();
    reference.register_dynamic(NAME, fresh);
    report.check(
        replay::same_bytes(
            &Response::Batch(served),
            &Response::Batch(reference.run_batch_naive(&probe)),
        ),
        || "after the churn, the served version differs from a from-scratch build".to_string(),
    );

    let mut reference = Engine::new();
    store
        .load_into(&mut reference)
        .map_err(|e| format!("reference load: {e}"))?;
    for (queries, reply) in &serve.kept {
        let Response::Batch(results) = reply else {
            continue;
        };
        let (sharded, served): (Vec<Query>, Vec<_>) = queries
            .iter()
            .zip(results)
            .filter(|(q, _)| q.artifact == SHARDED)
            .map(|(q, r)| (q.clone(), r.clone()))
            .unzip();
        let expected = Response::Batch(reference.run_batch_naive(&sharded));
        report.check(
            replay::same_bytes(&expected, &Response::Batch(served)),
            || "a road-sharded answer differs from the in-process reference".to_string(),
        );
    }
    Ok(())
}

/// 32 queries on the dynamic artifact, with and without a fault.
fn probe_queries(seed: u64) -> Vec<Query> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9806e);
    let n = ROWS * COLS;
    (0..32)
        .map(|i| {
            let (u, v) = (
                NodeId::new(rng.gen_range(0..n)),
                NodeId::new(rng.gen_range(0..n)),
            );
            let faults = if i % 2 == 0 {
                vec![]
            } else {
                vec![NodeId::new(rng.gen_range(0..n))]
            };
            match i % 4 {
                0 | 1 => Query::distance(NAME, faults, u, v),
                2 => Query::path(NAME, faults, u, v),
                _ => Query::certificate(NAME, faults, u, v),
            }
        })
        .collect()
}

pub fn traced(ctx: &Ctx, report: &mut Report, values: &mut Values) -> Result<(), String> {
    let store = ctx.store()?;
    let c = construction();
    let mut tracer = crate::trace::Tracer::new(true);
    let built = construct::traced_values(&c, &store, &mut tracer, report, values)?;
    let sharded = save_sharded(&store, built.source_graph())?;

    let mut engine = replay::load_engine(ctx, &mut tracer, values)?;
    replay::resident_ratio(ctx, values)?;
    let flat = engine
        .artifact(NAME)
        .ok_or("artifact missing from the store")?;
    let recipe = BuildRecipe::from_tagged_provenance(flat.algorithm(), flat.provenance())
        .ok_or("the artifact records no build recipe")?;
    let start = Instant::now();
    let dynamic = tracer
        .span("dynamic.build", 0, |_| {
            DynamicArtifact::build(flat.source_graph(), recipe)
        })
        .map_err(|e| format!("promotion: {e}"))?;
    values.insert("dynamic.promote_s", start.elapsed().as_secs_f64());
    report.check(dynamic.artifact() == &*flat, || {
        "promotion does not reproduce the stored artifact".to_string()
    });
    engine.register_dynamic(NAME, dynamic);

    let mut requests = Requests::new(ctx.seed);
    let stream: Vec<Vec<Query>> = (0..200).map(|_| requests.next()).collect();
    let sampler = Sampler {
        flat: Some(&flat),
        sharded: Some(&sharded),
        cache: false,
    };
    let in_process = replay::requests(&engine, &stream, &sampler, &mut tracer, values);

    let server = ctx.start_server(true, values)?;
    replay::live_overhead(&server, &stream[..100], &in_process, values, report)?;
    let mut requests = Requests::new(ctx.seed);
    let mut next = || (requests.next(), false);
    let mut writer = Writer::new(flat.source_graph());
    let mut next_write = || apply_request(writer.next());
    let mut traffic = Traffic {
        connections: 1,
        next_request: &mut next,
        writer: Some((WRITE_PERIOD, &mut next_write)),
        verify: &certificates_hold,
    };
    replay::open_loop_values(
        &server,
        &mut traffic,
        &SCHEDULE,
        ctx.seconds * 0.5,
        values,
        report,
    )?;
    ctx.stop_server(server, values)?;

    let mut writer = Writer::new(flat.source_graph());
    let policy = RebuildPolicy::default();
    let mut apply_ms = Vec::new();
    let mut rebuilds = 0usize;
    for i in 0..APPLY_REPLAY {
        let delta = writer.next();
        let start = Instant::now();
        let applied = tracer
            .span("engine.apply_deltas", i as u64, |_| {
                engine.apply_deltas(NAME, &[delta], &policy)
            })
            .map_err(|e| format!("in-process apply: {e}"))?;
        apply_ms.push(start.elapsed().as_secs_f64() * 1e3);
        rebuilds += usize::from(!applied.action.is_patch());
    }
    values.insert("dynamic.apply_ms.p50", median(&apply_ms));
    values.insert("dynamic.apply_ms.p90", quantile(&apply_ms, 0.9));
    values.insert(
        "dynamic.rebuild_share",
        rebuilds as f64 / APPLY_REPLAY as f64,
    );
    ctx.write_spans(&tracer, report);
    Ok(())
}

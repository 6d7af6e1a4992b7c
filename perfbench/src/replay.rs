//! The traced run's serving side: the seeded request stream replayed
//! in-process through each layer's public functions, then a closed-loop and
//! a short open-loop pass against the live server.

use crate::report::Report;
use crate::server::ServeProcess;
use crate::serving::{self, Schedule, Traffic};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Ctx, Values};
use fault_tolerant_spanners::prelude::*;
use fault_tolerant_spanners::{EngineStats, Query};
use ftspan_net::protocol::{Request, Response};
use ftspan_net::Client;
use std::path::Path;
use std::time::Instant;

/// Every this many requests, queries also go through the session layers one
/// call at a time.
const SAMPLE_EVERY: usize = 8;

fn encode(response: &Response) -> Vec<u8> {
    let mut bytes = Vec::new();
    response
        .write_to(&mut bytes)
        .expect("encoding into memory cannot fail");
    bytes
}

/// Bit-for-bit equality of two replies, as they travel on the wire.
pub fn same_bytes(a: &Response, b: &Response) -> bool {
    encode(a) == encode(b)
}

/// Loads the run's store into a fresh engine inside a span, recording the
/// load time.
pub fn load_engine(ctx: &Ctx, tracer: &mut Tracer, values: &mut Values) -> Result<Engine, String> {
    let store = ctx.store()?;
    let mut engine = Engine::new();
    let start = Instant::now();
    tracer
        .span("store.load_into", 0, |_| store.load_into(&mut engine))
        .map_err(|e| format!("load: {e}"))?;
    values.insert("store.load_s", start.elapsed().as_secs_f64());
    Ok(engine)
}

fn bytes_on_disk(dir: &Path) -> Result<u64, String> {
    Ok(std::fs::read_dir(dir)
        .map_err(|e| format!("listing {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum())
}

/// Resident memory a server adds per byte of store it loads: the RSS of
/// `ftspan_serve` on the run's store, minus its RSS on a store holding one
/// 9-vertex artifact, over the difference in bytes on disk. Both are fresh
/// processes, so the figure is what loading costs, not what an allocator
/// had left over.
pub fn resident_ratio(ctx: &Ctx, values: &mut Values) -> Result<(), String> {
    let tiny =
        ArtifactStore::open(ctx.dir.join("tiny-store")).map_err(|e| format!("store: {e}"))?;
    let grid = GeneratorSpec::Grid {
        rows: 3,
        cols: 3,
        wrap: false,
        weights: generate::WeightKind::Unit,
        seed: 1,
    };
    let artifact = FtSpannerBuilder::new("conversion")
        .faults(1)
        .artifact_on_graph(grid)
        .map_err(|e| format!("tiny build: {e}"))?;
    tiny.save("tiny", &artifact)
        .map_err(|e| format!("tiny save: {e}"))?;
    let mut rss = Vec::new();
    for dir in [tiny.dir(), &ctx.dir.join("store")] {
        let server =
            ServeProcess::spawn(&ctx.serve_bin, dir, false, &ctx.dir.join("serve-rss.log"))?;
        rss.push(server.rss_kb().ok_or("cannot read the server's VmRSS")? as f64 * 1024.0);
        server.shutdown()?;
    }
    let added = bytes_on_disk(&ctx.dir.join("store"))? - bytes_on_disk(tiny.dir())?;
    values.insert(
        "store.resident_ratio",
        (rss[1] - rss[0]) / added.max(1) as f64,
    );
    Ok(())
}

/// Artifacts whose session layers are timed one call at a time.
pub struct Sampler<'a> {
    pub flat: Option<&'a FtSpanner>,
    pub sharded: Option<&'a ShardedArtifact>,
    /// Time a `CachedSession` hit too (the engine's path on this workload
    /// reaches the cache).
    pub cache: bool,
}

/// Replays `stream` through the codec and `Engine::run_batch`, first
/// untraced, then traced, then untraced again, and records the per-layer
/// values. Returns each request's untraced `run_batch` time in seconds.
pub fn requests(
    engine: &Engine,
    stream: &[Vec<Query>],
    sampler: &Sampler,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Vec<f64> {
    let mut untraced = Tracer::new(false);
    pass(engine, stream, &mut untraced); // warm-up
    let start = Instant::now();
    let first = pass(engine, stream, &mut untraced);
    let first_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let traced = pass(engine, stream, tracer);
    let traced_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let second = pass(engine, stream, &mut untraced);
    let second_s = start.elapsed().as_secs_f64();
    values.insert(
        "trace.overhead_share",
        traced_s / ((first_s + second_s) / 2.0) - 1.0,
    );

    let batch_ms: Vec<f64> = traced.run_batch_s.iter().map(|s| s * 1e3).collect();
    values.insert("engine.run_batch_ms.p50", median(&batch_ms));
    values.insert("engine.run_batch_ms.p99", quantile(&batch_ms, 0.99));
    let n = stream.len() as f64;
    let delta = traced.stats;
    values.insert("engine.units_per_request", delta.planner_units as f64 / n);
    values.insert("engine.cache_hit_rate", delta.hit_rate());
    values.insert("protocol.encode_us", traced.encode_s / n * 1e6);
    values.insert("protocol.decode_us", traced.decode_s / n * 1e6);
    values.insert("protocol.bytes_per_request", traced.bytes as f64 / n);

    sample_sessions(stream, sampler, tracer, values);
    par_map(values);
    first
        .run_batch_s
        .iter()
        .zip(&second.run_batch_s)
        .map(|(a, b)| a.min(*b))
        .collect()
}

#[derive(Default)]
struct Pass {
    run_batch_s: Vec<f64>,
    encode_s: f64,
    decode_s: f64,
    bytes: usize,
    stats: EngineStats,
}

fn pass(engine: &Engine, stream: &[Vec<Query>], tracer: &mut Tracer) -> Pass {
    let mut out = Pass::default();
    let before = engine.stats();
    for (i, queries) in stream.iter().enumerate() {
        let request_id = i as u64;
        let request = Request::RunBatch(queries.clone());
        let mut wire = Vec::new();
        let t = Instant::now();
        tracer
            .span("protocol.encode", request_id, |_| {
                request.write_to(&mut wire)
            })
            .expect("encoding into memory cannot fail");
        out.encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let decoded = tracer
            .span("protocol.decode", request_id, |_| {
                Request::read_from(&mut wire.as_slice())
            })
            .expect("a frame this harness encoded decodes");
        out.decode_s += t.elapsed().as_secs_f64();
        let Request::RunBatch(queries) = decoded else {
            unreachable!("a batch frame decodes to a batch")
        };

        let t = Instant::now();
        let results = tracer.span("engine.run_batch", request_id, |_| {
            engine.run_batch(&queries)
        });
        out.run_batch_s.push(t.elapsed().as_secs_f64());

        let response = Response::Batch(results);
        let mut reply = Vec::new();
        let t = Instant::now();
        tracer
            .span("protocol.encode", request_id, |_| {
                response.write_to(&mut reply)
            })
            .expect("encoding into memory cannot fail");
        out.encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        tracer
            .span("protocol.decode", request_id, |_| {
                Response::read_from(&mut reply.as_slice())
            })
            .expect("a frame this harness encoded decodes");
        out.decode_s += t.elapsed().as_secs_f64();
        out.bytes += wire.len() + reply.len();
    }
    out.stats = stats_delta(before, engine.stats());
    out
}

fn stats_delta(a: EngineStats, b: EngineStats) -> EngineStats {
    EngineStats {
        batches: b.batches - a.batches,
        queries: b.queries - a.queries,
        planner_groups: b.planner_groups - a.planner_groups,
        planner_units: b.planner_units - a.planner_units,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        swaps: b.swaps - a.swaps,
        deltas_applied: b.deltas_applied - a.deltas_applied,
        rebuilds: b.rebuilds - a.rebuilds,
    }
}

/// Times single calls into the session layers for a sample of requests:
/// opening a fault session, an uncached traversal and a cache hit on the
/// first flat query, and a scatter-gather query on the first sharded one.
fn sample_sessions(
    stream: &[Vec<Query>],
    sampler: &Sampler,
    tracer: &mut Tracer,
    values: &mut Values,
) {
    let (mut open, mut sssp, mut hit, mut shard) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, queries) in stream.iter().enumerate().step_by(SAMPLE_EVERY) {
        let id = i as u64;
        let (sharded_queries, flat_queries): (Vec<&Query>, Vec<&Query>) = queries
            .iter()
            .partition(|q| q.artifact.ends_with("-sharded"));
        if let (Some(q), Some(sharded)) = (sharded_queries.first(), sampler.sharded) {
            let t = Instant::now();
            tracer
                .span("shard.query", id, |_| {
                    sharded
                        .under_faults(&q.faults)
                        .and_then(|mut s| s.distance(q.u, q.v))
                })
                .expect("sampled queries are valid");
            shard.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let (Some(q), Some(flat)) = (flat_queries.first(), sampler.flat) else {
            continue;
        };
        let t = Instant::now();
        let session = tracer
            .span("serve.session_open", id, |_| flat.under_faults(&q.faults))
            .expect("sampled queries are valid");
        open.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        tracer
            .span("serve.sssp", id, |_| session.distance(q.u, q.v))
            .expect("sampled queries are valid");
        sssp.push(t.elapsed().as_secs_f64() * 1e6);
        if sampler.cache {
            let mut cached = session.cached(64);
            cached
                .distance(q.u, q.v)
                .expect("sampled queries are valid");
            let t = Instant::now();
            tracer
                .span("serve.cache_hit", id, |_| {
                    cached.distance(q.u, queries[0].v)
                })
                .expect("sampled queries are valid");
            hit.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    for (name, samples) in [
        ("serve.session_open_us", open),
        ("serve.sssp_us", sssp),
        ("serve.cache_hit_us", hit),
        ("shard.query_us", shard),
    ] {
        if !samples.is_empty() {
            values.insert(name, median(&samples));
        }
    }
}

/// The cost of one `par::map` fan-out over the engine's workers with empty
/// tasks: the thread spawn every batch pays.
fn par_map(values: &mut Values) {
    let workers = par::available_threads();
    let samples: Vec<f64> = (0..300)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(par::map(workers, workers, |i| i));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    values.insert("par.map_us", median(&samples));
}

/// Sends each request only after the previous reply arrived, and takes the
/// server's overhead as the round trip minus the in-process `run_batch`
/// time of the same request.
pub fn live_overhead(
    server: &ServeProcess,
    stream: &[Vec<Query>],
    in_process_s: &[f64],
    values: &mut Values,
    report: &mut Report,
) -> Result<(), String> {
    let mut client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut overhead_us = Vec::new();
    for (queries, engine_s) in stream.iter().zip(in_process_s) {
        let t = Instant::now();
        let reply = client
            .run_batch(queries)
            .map_err(|e| format!("closed-loop pass: {e}"))?;
        let rtt = t.elapsed().as_secs_f64();
        let ok = reply
            .expect_results()
            .is_ok_and(|r| r.iter().all(Result::is_ok));
        report.check(ok, || "closed-loop pass: a request failed".to_string());
        overhead_us.push((rtt - engine_s) * 1e6);
    }
    values.insert("server.overhead_us", median(&overhead_us));
    Ok(())
}

/// The serve phases against the live server, shortened to `seconds`: the
/// generator's wall-clock view (latency percentiles, throughput, its own
/// send lag, the writer's batches) and the server's rejection count.
pub fn open_loop_values(
    server: &ServeProcess,
    traffic: &mut Traffic,
    schedule: &Schedule,
    seconds: f64,
    values: &mut Values,
    report: &mut Report,
) -> Result<(), String> {
    let serve = serving::run_serve(server, traffic, schedule, seconds, report);
    serving::wall_values(&serve, values);
    let stats = server.stats()?;
    values.insert("server.rejected", stats.batches_rejected as f64);
    Ok(())
}

//! The repository benchmark's harness: runs one workload for one seed
//! against the shipped code and prints every metric, then one JSON line.
//!
//! ```text
//! perfbench --workload serve-fanout|serve-churn --seed N --seconds S
//!           --trace 0|1 --serve-bin PATH --out DIR
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the same workload and seed once more with a span around each layer
//! call and prints the per-layer metrics. `perfbench/run.py` builds this
//! harness and `ftspan_serve` and is the command to use.

mod churn;
mod construct;
mod fanout;
mod loadgen;
mod replay;
mod report;
mod server;
mod serving;
mod stats;
mod sys;
mod trace;

use fault_tolerant_spanners::ArtifactStore;
use report::Report;
use server::ServeProcess;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Every end-to-end metric, with its unit. Each workload reports all of
/// them.
///
/// Work is measured in CPU time of the process doing it, not in wall-clock
/// time. On the shared 2-vCPU virtual machine the benchmark was calibrated
/// on, the hypervisor takes 2% to 30% of the CPUs' time for other tenants
/// (steal), in spells of seconds to minutes, and wakes an idle virtual CPU
/// milliseconds late. Wall-clock latency at a fixed rate then moved by half
/// from run to run (p50 at 120 req/s: 1.2 to 2.2 ms; p90: 6 to 26 ms) and
/// capacity by a third. The CPU time of the same work leaves steal and late
/// wake-ups out: it held within a few percent inside a run, and moved by up
/// to a quarter between runs only when tenants sharing the physical cores
/// slowed them. The wall-clock percentiles and throughput are still
/// measured, printed by every run and reported per layer by the traced run
/// (`loadgen.*`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_cpu_s", "s"),
    ("spanner_edges", "edges"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "fraction"),
    ("cpu_us_per_query.low", "us"),
    ("cpu_us_per_query.high", "us"),
    ("cpu_us_per_query.max", "us"),
];

/// Every per-layer metric, with its unit. A layer the workload bypasses
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("stream.generate_s", "s"),
    ("conversion.iterations", "count"),
    ("conversion.sample_s", "s"),
    ("spanners.black_box_s", "s"),
    ("spanners.black_box_calls", "count"),
    ("conversion.union_new_ratio", "ratio"),
    ("serve.assemble_s", "s"),
    ("store.save_s", "s"),
    ("store.bytes", "bytes"),
    ("trace.build_coverage", "ratio"),
    ("store.load_s", "s"),
    ("store.resident_ratio", "ratio"),
    ("dynamic.promote_s", "s"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes_per_request", "bytes"),
    ("server.overhead_us", "us"),
    ("server.rejected", "count"),
    ("par.map_us", "us"),
    ("engine.run_batch_ms.p50", "ms"),
    ("engine.run_batch_ms.p99", "ms"),
    ("engine.units_per_request", "count"),
    ("engine.cache_hit_rate", "ratio"),
    ("serve.session_open_us", "us"),
    ("serve.sssp_us", "us"),
    ("serve.cache_hit_us", "us"),
    ("shard.query_us", "us"),
    ("dynamic.apply_ms.p50", "ms"),
    ("dynamic.apply_ms.p90", "ms"),
    ("dynamic.rebuild_share", "ratio"),
    ("loadgen.p50_ms.low", "ms"),
    ("loadgen.p90_ms.low", "ms"),
    ("loadgen.p50_ms.high", "ms"),
    ("loadgen.p90_ms.high", "ms"),
    ("loadgen.max_qps", "queries/s"),
    ("loadgen.send_lag_p99_ms", "ms"),
    ("loadgen.apply_p50_ms", "ms"),
    ("loadgen.apply_p90_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// `ftspan_serve` is started this many times per untraced run; `setup_s` is
/// the median CPU time of a start-up.
const SPAWNS: usize = 15;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
    pub serve_bin: PathBuf,
    /// This run's working directory: store, server logs, spans.
    pub dir: PathBuf,
}

impl Ctx {
    pub fn store(&self) -> Result<ArtifactStore, String> {
        ArtifactStore::open(self.dir.join("store")).map_err(|e| format!("store: {e}"))
    }

    /// Starts `ftspan_serve` on the run's store, records the median CPU time
    /// of its start-up (store load, dynamic promotion and bind, up to its
    /// `PORT` line) as `setup_s`, and returns the last server started. The
    /// wall-clock start-up is printed.
    pub fn start_server(&self, dynamic: bool, values: &mut Values) -> Result<ServeProcess, String> {
        let spawns = if self.trace { 1 } else { SPAWNS };
        let mut startups = Vec::new();
        let mut walls = Vec::new();
        for i in 0..spawns {
            let log = self.dir.join(format!("serve-{i}.log"));
            let server =
                ServeProcess::spawn(&self.serve_bin, &self.dir.join("store"), dynamic, &log)?;
            startups.push(server.startup_cpu_s);
            walls.push(server.startup.as_secs_f64());
            if i + 1 == spawns {
                eprintln!(
                    "perfbench: server start-up: median {:.3} ms wall-clock, {:.3} ms of CPU",
                    stats::median(&walls) * 1e3,
                    stats::median(&startups) * 1e3
                );
                values.insert("setup_s", stats::median(&startups));
                return Ok(server);
            }
            server.shutdown()?;
        }
        unreachable!("at least one spawn")
    }

    /// Records the server's peak RSS as `peak_rss_mb`, then shuts it down.
    pub fn stop_server(&self, server: ServeProcess, values: &mut Values) -> Result<(), String> {
        let kb = server
            .peak_rss_kb()
            .ok_or("cannot read the server's VmHWM")?;
        values.insert("peak_rss_mb", kb as f64 / 1024.0);
        server.shutdown()
    }

    pub fn write_spans(&self, tracer: &Tracer, report: &mut Report) {
        let path = self.dir.join("spans.jsonl");
        let written = tracer.write_jsonl(&path);
        report.check(written.is_ok(), || {
            format!("cannot write {}: {written:?}", path.display())
        });
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn run(args: Args) -> Result<ExitCode, String> {
    let dir = args.out.join(format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        serve_bin: args.serve_bin,
        dir,
    };
    let mut report = Report::default();
    let mut values = Values::new();
    match (args.workload.as_str(), args.trace) {
        ("serve-fanout", false) => fanout::run(&ctx, &mut report, &mut values)?,
        ("serve-fanout", true) => fanout::traced(&ctx, &mut report, &mut values)?,
        ("serve-churn", false) => churn::run(&ctx, &mut report, &mut values)?,
        ("serve-churn", true) => churn::traced(&ctx, &mut report, &mut values)?,
        (other, _) => return Err(format!("unknown workload `{other}`")),
    }
    values.insert("ok_share", report.ok_share());
    let metrics = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in metrics {
        let value = match values.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("the workload measured no `{name}`")),
        };
        report.metric(name, value, unit);
    }
    println!(
        "workload {} seed {} trace {}: {} operations, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    report.print();
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

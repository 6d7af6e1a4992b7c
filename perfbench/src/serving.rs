//! Phases of load against a live server: open-loop phases at the fixed
//! `low` and `high` rates, and a phase with a bounded backlog that keeps the
//! server saturated and measures `max_qps`. Every phase also reads the
//! server's CPU time, from which the end-to-end cost per query comes.

use crate::loadgen::{self, Outcome, Pace, Planned, Verify};
use crate::report::Report;
use crate::server::ServeProcess;
use crate::stats::{median, quantile};
use fault_tolerant_spanners::Query;
use ftspan_net::protocol::{Request, Response};
use std::time::Duration;

/// The frozen offered rates, backlog and latency limit of a serve workload.
///
/// `low` and `high` sit near a tenth and a quarter of the capacity measured
/// at calibration on a 2-vCPU virtual machine shared with other tenants.
/// There, slow spells halve the capacity for seconds at a time: a phase
/// offered more than a third of the calibrated capacity then queues, and
/// its wall-clock percentiles measure the spell rather than the server.
pub struct Schedule {
    /// Requests per second of the `low` and `high` phases.
    pub low_rps: f64,
    pub high_rps: f64,
    /// Requests kept in flight on each query connection while `max_qps` is
    /// measured.
    pub depth: usize,
    /// More requests per second than the server can answer: the
    /// bounded-backlog phase plans this many.
    pub ceiling_rps: f64,
    /// p99 latency limit of the workload.
    pub limit_ms: f64,
}

/// Where a workload's traffic comes from.
pub struct Traffic<'a> {
    /// Connections that carry query requests.
    pub connections: usize,
    /// The next query request; `true` keeps its reply for a later check.
    pub next_request: &'a mut dyn FnMut() -> (Vec<Query>, bool),
    /// A second stream of writes on its own connection, one per period.
    pub writer: Option<(Duration, &'a mut dyn FnMut() -> Request)>,
    pub verify: &'a Verify,
}

/// Latency percentiles are taken in up to this many equal time windows of a
/// phase and the median window is reported, so stalls of the host in a few
/// windows do not decide a phase's figure.
const WINDOWS: usize = 9;
/// A window holds at least this many requests, so its p90 rests on at least
/// 10 samples beyond it; phases with fewer requests form fewer windows.
const MIN_WINDOW: usize = 100;

/// What one phase's requests saw.
#[derive(Default)]
pub struct Stats {
    pub requests: usize,
    pub failed: usize,
    pub queries_done: usize,
    /// `(send time in s, latency in ms)` of every answered request; the
    /// send time is the intended one in an open-loop phase.
    pub latency_ms: Vec<(f64, f64)>,
    /// `(arrival time in s, queries)` of every answered request.
    pub answered: Vec<(f64, usize)>,
    pub lag_ms: Vec<f64>,
    /// When the last reply arrived, from the start of the phase.
    pub last_arrival_s: f64,
    pub first_error: Option<String>,
}

impl Stats {
    fn add(&mut self, plan: &[Planned], outcomes: &[Outcome]) {
        for (p, o) in plan.iter().zip(outcomes) {
            self.requests += 1;
            self.lag_ms.push(o.lag.as_secs_f64() * 1e3);
            if let Some(arrived) = o.arrived {
                self.last_arrival_s = self.last_arrival_s.max(arrived.as_secs_f64());
                self.answered.push((arrived.as_secs_f64(), p.queries));
            }
            match o.latency {
                Some(latency) => {
                    self.latency_ms
                        .push((o.at.as_secs_f64(), latency.as_secs_f64() * 1e3));
                    self.queries_done += p.queries;
                }
                None => {
                    self.failed += 1;
                    if self.first_error.is_none() {
                        self.first_error.clone_from(&o.error);
                    }
                }
            }
        }
    }

    /// Latencies of each time window, in send order.
    fn windows(&self) -> Vec<Vec<f64>> {
        let mut sorted = self.latency_ms.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let count = (sorted.len() / MIN_WINDOW).clamp(1, WINDOWS);
        let span = sorted.last().map_or(0.0, |l| l.0) + 1e-9;
        let mut windows = vec![Vec::new(); count];
        for (at, ms) in sorted {
            windows[((at / span * count as f64) as usize).min(count - 1)].push(ms);
        }
        windows
    }

    /// The median over the phase's time windows of each window's
    /// `q`-quantile of latency.
    pub fn p(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, q))
            .collect();
        median(&per_window)
    }

    pub fn lag_p99(&self) -> f64 {
        quantile(&self.lag_ms, 0.99)
    }

    /// The median over `WINDOWS` equal time windows of `[from_s, to_s)` of
    /// the queries answered per second in each.
    fn qps_between(&self, from_s: f64, to_s: f64) -> f64 {
        let span = (to_s - from_s) / WINDOWS as f64;
        let mut per_window = [0usize; WINDOWS];
        for &(at, queries) in &self.answered {
            if at >= from_s && at < to_s {
                per_window[(((at - from_s) / span) as usize).min(WINDOWS - 1)] += queries;
            }
        }
        let rates: Vec<f64> = per_window.iter().map(|&q| q as f64 / span).collect();
        median(&rates)
    }

    /// The generator kept to its schedule: at the 99th percentile, sends
    /// left at most a quarter of the latency limit late. (Latency counts
    /// from the intended send time either way; a generator further behind
    /// offers less load than the phase claims.)
    pub fn generator_kept_up(&self, limit_ms: f64) -> bool {
        self.lag_p99() <= limit_ms / 4.0
    }
}

pub struct Phase {
    pub queries: Stats,
    pub writes: Stats,
    /// `(time from the start, CPU time)` of the server, read every
    /// `CPU_EVERY` from the phase's start to its last reply. The CPU time
    /// covers queries, writes and the server's idle housekeeping.
    pub server_cpu: Vec<(f64, f64)>,
    /// Replies kept for output checks, with their requests.
    pub kept: Vec<(Vec<Query>, Response)>,
}

impl Phase {
    /// Queries answered per second, from the phase's start to its last
    /// reply.
    pub fn qps(&self) -> f64 {
        self.queries.queries_done as f64 / self.queries.last_arrival_s
    }

    /// Server CPU time per answered query, in microseconds: the median over
    /// the phase's `CPU_EVERY` windows of the CPU the server used in the
    /// window over the queries answered in it, so a spell of contention in a
    /// few windows does not decide the figure.
    pub fn cpu_us_per_query(&self) -> f64 {
        let per_window: Vec<f64> = self
            .server_cpu
            .windows(2)
            .filter_map(|w| {
                let ((from, cpu_from), (to, cpu_to)) = (w[0], w[1]);
                let queries: usize = self
                    .queries
                    .answered
                    .iter()
                    .filter(|a| a.0 >= from && a.0 < to)
                    .map(|a| a.1)
                    .sum();
                // The short tail after the last full window is left out.
                (to - from >= CPU_EVERY.as_secs_f64() * 0.5 && queries > 0)
                    .then(|| (cpu_to - cpu_from) / queries as f64 * 1e6)
            })
            .collect();
        median(&per_window)
    }
}

/// How a phase loads the query connections.
#[derive(Clone, Copy)]
pub enum Load {
    /// This many requests per second, spread round-robin over the
    /// connections (open loop).
    Rate(f64),
    /// This many requests in flight on each connection; requests are
    /// planned at `ceiling_rps` (closed loop, bounded backlog).
    Backlog { depth: usize, ceiling_rps: f64 },
}

/// Loads the query connections for `seconds` as `load` says, while the
/// writer's stream, if any, keeps its own schedule.
pub fn run_phase(
    server: &ServeProcess,
    traffic: &mut Traffic,
    load: Load,
    seconds: f64,
    report: &mut Report,
) -> Phase {
    let (rps, query_pace) = match load {
        Load::Rate(rps) => (rps, Pace::Scheduled),
        Load::Backlog { depth, ceiling_rps } => (
            ceiling_rps,
            Pace::Window {
                depth,
                until: Duration::from_secs_f64(seconds),
            },
        ),
    };
    let count = (rps * seconds).round() as usize;
    let mut plans: Vec<Vec<Planned>> = (0..traffic.connections).map(|_| Vec::new()).collect();
    let mut kept_queries: Vec<Vec<Option<Vec<Query>>>> =
        (0..traffic.connections).map(|_| Vec::new()).collect();
    for i in 0..count {
        let (queries, keep) = (traffic.next_request)();
        let at = Duration::from_secs_f64(i as f64 / rps);
        let conn = i % traffic.connections;
        let size = queries.len();
        let request = Request::RunBatch(queries);
        plans[conn].push(Planned::new(at, &request, size, keep));
        kept_queries[conn].push(match request {
            Request::RunBatch(queries) if keep => Some(queries),
            _ => None,
        });
    }
    if let Some((period, next_write)) = traffic.writer.as_mut() {
        let writes = (seconds / period.as_secs_f64()).floor() as usize;
        plans.push(
            (0..writes)
                .map(|i| Planned::new(*period * i as u32 + *period / 2, &next_write(), 0, false))
                .collect(),
        );
    }

    let mut paces = vec![query_pace; traffic.connections];
    paces.resize(plans.len(), Pace::Scheduled);
    let drain = Duration::from_secs(10);
    let read = || server.cpu_s();
    let probe = loadgen::Probe {
        every: CPU_EVERY,
        read: &read,
    };
    let (outcomes, readings) =
        loadgen::run(server.addr, &plans, &paces, drain, traffic.verify, &probe);
    let server_cpu: Vec<(f64, f64)> = readings
        .iter()
        .filter_map(|&(at, cpu)| Some((at.as_secs_f64(), cpu?)))
        .collect();
    report.check(server_cpu.len() == readings.len(), || {
        "cannot read the server's CPU time".to_string()
    });
    let mut phase = Phase {
        queries: Stats::default(),
        writes: Stats::default(),
        server_cpu,
        kept: Vec::new(),
    };
    for (conn, (plan, outcomes)) in plans.iter().zip(outcomes).enumerate() {
        if conn < traffic.connections {
            phase.queries.add(plan, &outcomes);
            for (queries, o) in kept_queries[conn].iter_mut().zip(outcomes) {
                if let (Some(queries), Some(response)) = (queries.take(), o.response) {
                    phase.kept.push((queries, response));
                }
            }
        } else {
            phase.writes.add(plan, &outcomes);
        }
    }
    let q = &phase.queries;
    let by_window = |p: f64| -> String {
        q.windows()
            .iter()
            .map(|w| format!("{:.2}", quantile(w, p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "perfbench:   windows p90 [{}] p99 [{}]",
        by_window(0.9),
        by_window(0.99)
    );
    let offered = match load {
        Load::Rate(rps) => format!("{rps:.1} req/s"),
        Load::Backlog { depth, .. } => format!("{depth} in flight per connection"),
    };
    eprintln!(
        "perfbench: {offered} for {seconds:.1} s: p50 {:.3} ms, p99 {:.3} ms, send lag p99 {:.3} ms, \
         {:.0} queries/s, {:.1} us of server CPU per query, {} failed{}",
        q.p(0.5),
        q.p(0.99),
        q.lag_p99(),
        phase.qps(),
        phase.cpu_us_per_query(),
        q.failed,
        if phase.writes.requests > 0 {
            format!(", writes p50 {:.1} ms p90 {:.1} ms", phase.writes.p(0.5), phase.writes.p(0.9))
        } else {
            String::new()
        }
    );
    for stats in [&phase.queries, &phase.writes] {
        report.tally(stats.requests as u64, stats.failed as u64, || {
            format!(
                "{} of {} requests failed at {offered}: {}",
                stats.failed,
                stats.requests,
                stats.first_error.as_deref().unwrap_or("?")
            )
        });
    }
    phase
}

/// The measured phases of one serve run.
pub struct Serve {
    pub low: Phase,
    pub high: Phase,
    pub backlog: Phase,
    /// Queries answered per second with `depth` requests in flight on every
    /// query connection: the median over time windows of the phase, its
    /// first tenth (the backlog filling) left out.
    pub max_qps: f64,
    pub kept: Vec<(Vec<Query>, Response)>,
}

/// Warm-up (discarded), `low`, `high`, then the bounded-backlog phase.
/// `seconds` is split between the measured phases.
///
/// With a fixed backlog of `depth` requests per connection a request waits
/// behind at most `depth - 1` others, so the latency stays far inside the
/// limit and the queue cannot grow: the rate the server then sustains is
/// the highest that meets the limit without a growing backlog. Unlike a
/// ladder of open-loop rates, it does not end at the first host stall that
/// pushes one rung's p99 past the limit.
pub fn run_serve(
    server: &ServeProcess,
    traffic: &mut Traffic,
    schedule: &Schedule,
    seconds: f64,
    report: &mut Report,
) -> Serve {
    let mut kept = Vec::new();
    let mut collect = |phase: &mut Phase| kept.append(&mut phase.kept);
    collect(&mut run_phase(
        server,
        traffic,
        Load::Rate(schedule.low_rps),
        WARMUP_S,
        report,
    ));
    let mut low = run_phase(
        server,
        traffic,
        Load::Rate(schedule.low_rps),
        seconds * 0.35,
        report,
    );
    let mut high = run_phase(
        server,
        traffic,
        Load::Rate(schedule.high_rps),
        seconds * 0.35,
        report,
    );
    collect(&mut low);
    collect(&mut high);
    for (name, phase) in [("low", &low), ("high", &high)] {
        if !phase.queries.generator_kept_up(schedule.limit_ms) {
            eprintln!(
                "perfbench: warning: {name} phase invalid: the generator fell behind \
                 (send lag p99 {:.3} ms)",
                phase.queries.lag_p99()
            );
        }
    }
    let backlog_s = seconds * 0.3;
    let load = Load::Backlog {
        depth: schedule.depth,
        ceiling_rps: schedule.ceiling_rps,
    };
    let mut backlog = run_phase(server, traffic, load, backlog_s, report);
    collect(&mut backlog);
    let q = &backlog.queries;
    if q.requests as f64 >= schedule.ceiling_rps * backlog_s {
        eprintln!("perfbench: warning: the server outran the planned requests; raise ceiling_rps");
    }
    if q.p(0.99) > schedule.limit_ms {
        eprintln!(
            "perfbench: warning: with {} in flight, p99 {:.3} ms exceeds the {} ms limit",
            schedule.depth,
            q.p(0.99),
            schedule.limit_ms
        );
    }
    let max_qps = q.qps_between(backlog_s * 0.1, backlog_s);
    Serve {
        low,
        high,
        backlog,
        max_qps,
        kept,
    }
}

const WARMUP_S: f64 = 2.0;

/// How often a phase reads the server's CPU time.
const CPU_EVERY: Duration = Duration::from_secs(1);

/// The end-to-end values of a serve run: the server's CPU time per query
/// at each load.
pub fn cpu_values(serve: &Serve, values: &mut crate::Values) {
    values.insert("cpu_us_per_query.low", serve.low.cpu_us_per_query());
    values.insert("cpu_us_per_query.high", serve.high.cpu_us_per_query());
    values.insert("cpu_us_per_query.max", serve.backlog.cpu_us_per_query());
}

/// The wall-clock values of a serve run, as the generator saw them.
pub fn wall_values(serve: &Serve, values: &mut crate::Values) {
    values.insert("loadgen.p50_ms.low", serve.low.queries.p(0.5));
    values.insert("loadgen.p90_ms.low", serve.low.queries.p(0.9));
    values.insert("loadgen.p50_ms.high", serve.high.queries.p(0.5));
    values.insert("loadgen.p90_ms.high", serve.high.queries.p(0.9));
    values.insert("loadgen.max_qps", serve.max_qps);
    let lag = serve
        .low
        .queries
        .lag_p99()
        .max(serve.high.queries.lag_p99());
    values.insert("loadgen.send_lag_p99_ms", lag);
    let apply_ms: Vec<f64> = [&serve.low, &serve.high, &serve.backlog]
        .iter()
        .flat_map(|p| p.writes.latency_ms.iter().map(|l| l.1))
        .collect();
    if !apply_ms.is_empty() {
        values.insert("loadgen.apply_p50_ms", median(&apply_ms));
        values.insert("loadgen.apply_p90_ms", quantile(&apply_ms, 0.9));
    }
}

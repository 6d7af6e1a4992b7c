//! `serve-fanout`: Corollary 2.2 (greedy black box, r = 1, k = 3) on a dense
//! uniformly weighted G(n, m), then one-to-many requests against it.
//!
//! Each request holds 16 queries under one of 4 standing outages (one of
//! them "none"), from 2 sources drawn Zipf(1), to uniform targets, in the
//! ratio 6:1:1 of distance, path and certificate queries. Queries on
//! n ~ 10^3 are cheap, so planner grouping, the per-source cache, the frame
//! codec, the queue hand-off and the per-batch worker spawn are a large
//! share of the latency.

use crate::construct::{self, Construction};
use crate::replay::{self, Sampler};
use crate::report::Report;
use crate::serving::{self, Schedule, Traffic};
use crate::{Ctx, Values};
use fault_tolerant_spanners::prelude::*;
use fault_tolerant_spanners::Query;
use ftspan_net::protocol::Response;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const NODES: usize = 400;
const EDGES: usize = 8000;
const NAME: &str = "gnm";
const QUERIES_PER_REQUEST: usize = 16;
const OUTAGES: usize = 4;
/// Every this many requests, the reply is compared with the in-process
/// reference executor.
const CHECK_EVERY: usize = 64;
const ORACLE_SAMPLES: usize = 16;

pub const SCHEDULE: Schedule = Schedule {
    low_rps: 120.0,
    high_rps: 300.0,
    depth: 4,
    ceiling_rps: 5000.0,
    limit_ms: 25.0,
};

/// Spanner edge digests pinned for seeds 1 to 40 (see
/// `construct::edge_digest`): a change that alters the construction's output
/// fails the run.
const PINNED_DIGESTS: &[(u64, u64)] = &[
    (1, 0x6527_c8e8_ceca_b6ae),
    (2, 0xa1e4_d66d_8c7e_26bb),
    (3, 0x0084_8533_4ef4_4573),
    (4, 0xccca_9efd_5ca0_5ea5),
    (5, 0x93f2_96b0_0f04_560f),
    (6, 0x6c42_6aad_c863_f20e),
    (7, 0x2597_625f_d954_1102),
    (8, 0xd0a8_049d_b033_db6e),
    (9, 0x3c83_8614_7754_31b6),
    (10, 0x9dc4_f918_5858_4964),
    (11, 0x7502_123c_d0bb_be79),
    (12, 0x4405_58bd_e9bf_9a9d),
    (13, 0xd18c_cdf8_b86d_be86),
    (14, 0x7da3_bae4_ca0f_ce16),
    (15, 0x8495_b244_f8ca_6edb),
    (16, 0x7c2b_1216_bcb7_5777),
    (17, 0x9e7e_00b4_9767_c485),
    (18, 0x196d_5824_715b_2eee),
    (19, 0xd523_cfb6_eb83_2684),
    (20, 0x1481_0385_2c47_5ee8),
    (21, 0x451b_4ac2_01ca_74b7),
    (22, 0x37f3_8fdc_87ce_a66d),
    (23, 0x22be_9b0d_af8f_bb63),
    (24, 0xfc27_2cfa_f1da_306e),
    (25, 0x7b17_5ea5_6305_6210),
    (26, 0x46cd_88db_6fa2_312c),
    (27, 0x9ea7_2e3a_8b6d_a223),
    (28, 0x30bb_d0c8_cc83_28fd),
    (29, 0x00f3_fa9a_a757_5af2),
    (30, 0xa8ed_83d3_6592_a254),
    (31, 0x3e53_ce62_3c48_a631),
    (32, 0x31ee_a27e_c5da_da06),
    (33, 0x5e9c_2d68_26eb_be5c),
    (34, 0xdd53_30ce_d083_33b8),
    (35, 0x0a58_19cd_4939_fbf0),
    (36, 0x0681_a0a0_3d54_1b9f),
    (37, 0x1b07_bfc0_6c95_2cab),
    (38, 0xa943_b4f7_aabf_2c6b),
    (39, 0xea8c_b8bd_c602_1c95),
    (40, 0xee11_6e5b_7621_05fc),
];

pub fn construction(seed: u64) -> Construction {
    Construction {
        name: NAME,
        spec: GeneratorSpec::Gnm {
            nodes: NODES,
            edges: EDGES,
            weights: generate::WeightKind::Uniform {
                min: 1.0,
                max: 10.0,
            },
            seed,
        },
        builder: FtSpannerBuilder::new("corollary-2.2")
            .faults(1)
            .stretch(3.0)
            .seed(seed),
        black_box: Box::new(GreedySpanner::new(3.0)),
        faults: 1,
    }
}

/// The seeded request stream.
pub struct Requests {
    rng: ChaCha8Rng,
    outages: Vec<Vec<NodeId>>,
    /// Cumulative Zipf(1) weights of source ranks; rank `i` is vertex
    /// `by_rank[i]`.
    zipf: Vec<f64>,
    by_rank: Vec<usize>,
}

impl Requests {
    pub fn new(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0f0f_a11e);
        let mut outages = vec![Vec::new()];
        while outages.len() < OUTAGES {
            outages.push(vec![NodeId::new(rng.gen_range(0..NODES))]);
        }
        let mut by_rank: Vec<usize> = (0..NODES).collect();
        for i in (1..NODES).rev() {
            by_rank.swap(i, rng.gen_range(0..i + 1));
        }
        let mut total = 0.0;
        let zipf = (1..=NODES)
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect();
        Requests {
            rng,
            outages,
            zipf,
            by_rank,
        }
    }

    fn vertex_outside(&mut self, scope: &[NodeId], draw: impl Fn(&mut Self) -> usize) -> NodeId {
        loop {
            let v = NodeId::new(draw(self));
            if !scope.contains(&v) {
                return v;
            }
        }
    }

    pub fn next(&mut self) -> Vec<Query> {
        let scope = self.outages[self.rng.gen_range(0..OUTAGES)].clone();
        let zipf = |s: &mut Self| {
            let u = s.rng.gen::<f64>() * s.zipf[NODES - 1];
            s.by_rank[s.zipf.partition_point(|&c| c < u).min(NODES - 1)]
        };
        let sources = [
            self.vertex_outside(&scope, zipf),
            self.vertex_outside(&scope, zipf),
        ];
        (0..QUERIES_PER_REQUEST)
            .map(|_| {
                let u = sources[self.rng.gen_range(0..2usize)];
                let v = self.vertex_outside(&scope, |s| s.rng.gen_range(0..NODES));
                match self.rng.gen_range(0..8usize) {
                    0..=5 => Query::distance(NAME, scope.clone(), u, v),
                    6 => Query::path(NAME, scope.clone(), u, v),
                    _ => Query::certificate(NAME, scope.clone(), u, v),
                }
            })
            .collect()
    }
}

pub fn run(ctx: &Ctx, report: &mut Report, values: &mut Values) -> Result<(), String> {
    let store = ctx.store()?;
    let c = construction(ctx.seed);
    let built = construct::build_untraced(&c, &store, 3, report)?;
    construct::verify_sampled(&built.artifact, ORACLE_SAMPLES, ctx.seed, report);
    construct::check_pinned(PINNED_DIGESTS, ctx.seed, built.digest, report);
    values.insert("build_cpu_s", crate::stats::median(&built.build_cpu_s));
    values.insert("spanner_edges", built.artifact.spanner_edge_count() as f64);

    let server = ctx.start_server(false, values)?;
    let mut requests = Requests::new(ctx.seed);
    let mut sent = 0usize;
    let mut next = || {
        sent += 1;
        (requests.next(), sent.is_multiple_of(CHECK_EVERY))
    };
    let mut traffic = Traffic {
        connections: 2,
        next_request: &mut next,
        writer: None,
        verify: &|_: &Response| Ok(()),
    };
    let serve = serving::run_serve(&server, &mut traffic, &SCHEDULE, ctx.seconds, report);
    serving::cpu_values(&serve, values);
    ctx.stop_server(server, values)?;

    let mut engine = Engine::new();
    store
        .load_into(&mut engine)
        .map_err(|e| format!("reference load: {e}"))?;
    for (queries, reply) in &serve.kept {
        let reference = Response::Batch(engine.run_batch_naive(queries));
        report.check(replay::same_bytes(&reference, reply), || {
            "a served reply differs from Engine::run_batch_naive".to_string()
        });
    }
    Ok(())
}

pub fn traced(ctx: &Ctx, report: &mut Report, values: &mut Values) -> Result<(), String> {
    let store = ctx.store()?;
    let c = construction(ctx.seed);
    let mut tracer = crate::trace::Tracer::new(true);
    construct::traced_values(&c, &store, &mut tracer, report, values)?;

    let engine = replay::load_engine(ctx, &mut tracer, values)?;
    replay::resident_ratio(ctx, values)?;
    let artifact = engine
        .artifact(NAME)
        .ok_or("artifact missing from the store")?;
    let mut requests = Requests::new(ctx.seed);
    let stream: Vec<Vec<Query>> = (0..1200).map(|_| requests.next()).collect();
    let sampler = Sampler {
        flat: Some(&artifact),
        sharded: None,
        cache: true,
    };
    let in_process = replay::requests(&engine, &stream, &sampler, &mut tracer, values);

    let server = ctx.start_server(false, values)?;
    replay::live_overhead(&server, &stream[..200], &in_process, values, report)?;
    let mut requests = Requests::new(ctx.seed);
    let mut next = || (requests.next(), false);
    let mut traffic = Traffic {
        connections: 2,
        next_request: &mut next,
        writer: None,
        verify: &|_: &Response| Ok(()),
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
    ctx.write_spans(&tracer, report);
    Ok(())
}

//! The seeded scenario suite behind `bench_runner` and the checked
//! scenario table.
//!
//! A **scenario** is a named, fully seeded workload: a graph family at a
//! profile-dependent size, a registry algorithm (or the serving [`Engine`]),
//! and fixed request knobs. Running one produces a [`ScenarioResult`] row:
//!
//! * a **digest** — an FNV-1a hash of the scenario's semantic output
//!   (selected edges, costs, query answers), identical across runs and
//!   across worker counts for a fixed seed;
//! * **work counters** the library already reports — black-box iterations
//!   and the edges handed to them, planner groups and units, source-cache
//!   hits and misses, warm swaps, patched iterations, bytes on disk — exact
//!   functions of the seed and the worker count;
//! * wall-clock time and throughput (input edges/sec for constructions,
//!   queries/sec for serving), which are reported only.
//!
//! `tests/scenario_table.rs` pins every row's digest and counters at zero
//! tolerance, so it catches wrong answers and extra work on any host; slow
//! code is `perfbench`'s job. Two [`Profile`]s exist: [`Profile::Ci`]
//! (small sizes, seconds total — what the table pins) and [`Profile::Full`]
//! (larger sizes for tracking real trends). [`run_all`] executes every
//! scenario and [`BenchReport`] writes the rows as `BENCH.json`.

use fault_tolerant_spanners::prelude::*;
use fault_tolerant_spanners::{ArtifactStore, Engine, Query, QueryOutcome};
use ftspan_graph::{DiGraph, Graph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Which sizes the suite runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Small sizes with fixed seeds: the pinned scenario table.
    Ci,
    /// Larger sizes for tracking real performance trends.
    Full,
}

impl Profile {
    /// Stable name (accepted by [`Profile::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Profile::Ci => "ci",
            Profile::Full => "full",
        }
    }

    /// Looks a profile up by name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ci" => Some(Profile::Ci),
            "full" => Some(Profile::Full),
            _ => None,
        }
    }
}

impl std::fmt::Display for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a suite run is configured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Size profile.
    pub profile: Profile,
    /// Base seed; each scenario derives its own stream from
    /// `seed ^ fnv1a(name)`, so scenarios are independent of suite order.
    pub seed: u64,
    /// Worker threads for constructions and the engine (`None` = one per
    /// available CPU). Digests are identical at any worker count; planner
    /// units and cache counts depend on it.
    pub threads: Option<usize>,
}

impl ScenarioConfig {
    /// The default configuration for a profile (seed 2011, auto threads).
    pub fn new(profile: Profile) -> Self {
        ScenarioConfig {
            profile,
            seed: 2011,
            threads: None,
        }
    }
}

/// The measured outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Wall-clock time of the measured section, in milliseconds.
    pub wall_ms: f64,
    /// Vertices of the input graph.
    pub input_nodes: usize,
    /// Edges (or arcs) of the input graph.
    pub input_edges: usize,
    /// Edges (or arcs) selected by the construction (0 for serving
    /// scenarios).
    pub spanner_edges: usize,
    /// Input edges processed per second (construction scenarios).
    pub edges_per_sec: Option<f64>,
    /// Queries answered per second (serving scenarios).
    pub queries_per_sec: Option<f64>,
    /// Exact work counters, in a fixed per-scenario order: what the library
    /// reports about the work it did (see the module docs). A function of
    /// the seed and the worker count only.
    pub counters: Vec<(&'static str, u64)>,
    /// FNV-1a digest of the semantic output; seed-stable and worker-count
    /// invariant.
    pub digest: String,
}

/// FNV-1a, the workspace's dependency-free digest.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

fn fnv1a_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(s.as_bytes());
    h.finish()
}

/// The graph family a scenario constructs on.
#[derive(Debug, Clone, Copy)]
enum Family {
    /// `connected_gnp(n, p)`.
    Gnp,
    /// `grid(side, side)`.
    Grid,
    /// `random_near_regular(n, degree)` — the bounded-degree family.
    NearRegular,
    /// [`GeneratorSpec::PlanarMesh`] — the road-network-like jittered mesh.
    PlanarMesh,
    /// [`GeneratorSpec::Hyperbolic`] — heavy-tailed degrees, tight core.
    Hyperbolic,
    /// `directed_gnp(n, p)` for the 2-spanner problem.
    DirectedGnp,
}

/// What a scenario measures.
#[derive(Debug, Clone, Copy)]
enum Workload {
    /// One registry construction on one family.
    Construction {
        algorithm: &'static str,
        family: Family,
        faults: usize,
        /// `Some(s)` switches sampled enumeration/verification on.
        samples: Option<usize>,
    },
    /// Build one artifact, then answer a batch of queries through the
    /// [`Engine`].
    EngineThroughput,
    /// The planner's home turf: a large batch in which thousands of queries
    /// share a handful of fault scopes and sources, served through grouped
    /// sessions and the per-source cache.
    ServeRepeatedFaults,
    /// A batch whose sources follow a Zipf-like popularity distribution
    /// (few hot sources, a long cold tail) under a few fault scopes.
    ServeZipfSources,
    /// Cold serving startup: load a directory of binary `.ftspan` artifacts
    /// through an [`ArtifactStore`] into a fresh engine and answer a first
    /// mixed batch.
    ServeStoreColdLoad,
    /// End-to-end network serving: an in-process `ftspan-net` server on a
    /// loopback TCP socket, a client streaming the batch through the framed
    /// wire protocol, measured round trip — frames, queue, workers, planner.
    ServeNetThroughput,
    /// The whole sharded construction pipeline: seeded partition, per-shard
    /// spanner builds and boundary-overlay assembly.
    ShardBuild,
    /// Scatter-gather serving: a repeated-scope batch answered through a
    /// sharded artifact (per-shard sessions plus the boundary overlay).
    ServeShardedBatch,
    /// Large-n construction through the streaming input path: a seeded
    /// G(n, m) [`GeneratorSpec`] fed straight to
    /// [`FtSpannerBuilder::on_graph`], CSR packed once at the boundary,
    /// iteration-capped conversion on top of the Baswana–Sen black box.
    LargeConstruction,
    /// Large-n shortest paths: repeated [`sssp_into`] sweeps over a
    /// generated CSR — the bucket-queue strategy's home turf (the automatic
    /// strategy choice picks buckets at these sizes).
    ///
    /// [`sssp_into`]: ftspan_graph::csr::CsrSubgraph::sssp_into
    LargeSssp,
    /// The dynamic-artifact maintenance loop: a seeded edge-delta stream
    /// applied round by round through [`DynamicArtifact::apply`] under the
    /// default patch-vs-rebuild policy — the cost of keeping an artifact
    /// fresh without serving in the way.
    DeltaReplay,
    /// Serving under churn: query batches streamed through a loopback
    /// `ftspan-net` server, interleaved with `ApplyDeltas` frames that warm-
    /// swap the served version between batches — the full read/write wire
    /// path.
    ServeUnderChurn,
}

/// A named, seeded benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable name (key of `BENCH.json` and of the pinned table).
    pub name: &'static str,
    /// One-line description shown by `bench_runner --list`.
    pub description: &'static str,
    workload: Workload,
}

/// Every scenario of the suite, in run order.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "conversion-gnp",
            description: "Theorem 2.1 conversion (greedy black box, r = 1) on connected G(n, p)",
            workload: Workload::Construction {
                algorithm: "conversion",
                family: Family::Gnp,
                faults: 1,
                samples: None,
            },
        },
        Scenario {
            name: "conversion-grid",
            description: "Theorem 2.1 conversion (r = 1) on a square grid",
            workload: Workload::Construction {
                algorithm: "conversion",
                family: Family::Grid,
                faults: 1,
                samples: None,
            },
        },
        Scenario {
            name: "conversion-regular",
            description: "Theorem 2.1 conversion (r = 1) on a bounded-degree near-regular graph",
            workload: Workload::Construction {
                algorithm: "conversion",
                family: Family::NearRegular,
                faults: 1,
                samples: None,
            },
        },
        Scenario {
            name: "construct-planar-mesh",
            description: "Theorem 2.1 conversion (r = 1) on a road-network-like jittered planar mesh",
            workload: Workload::Construction {
                algorithm: "conversion",
                family: Family::PlanarMesh,
                faults: 1,
                samples: None,
            },
        },
        Scenario {
            name: "construct-hyperbolic",
            description: "Theorem 2.1 conversion (r = 1) on a hyperbolic random graph (heavy-tailed degrees)",
            workload: Workload::Construction {
                algorithm: "conversion",
                family: Family::Hyperbolic,
                faults: 1,
                samples: None,
            },
        },
        Scenario {
            name: "corollary22-gnp-r2",
            description: "Corollary 2.2 (greedy, r = 2) on connected G(n, p)",
            workload: Workload::Construction {
                algorithm: "corollary-2.2",
                family: Family::Gnp,
                faults: 2,
                samples: None,
            },
        },
        Scenario {
            name: "edge-fault-gnp",
            description: "edge-fault conversion (r = 1) on connected G(n, p)",
            workload: Workload::Construction {
                algorithm: "edge-fault",
                family: Family::Gnp,
                faults: 1,
                samples: None,
            },
        },
        Scenario {
            name: "adaptive-gnp",
            description: "adaptive conversion (verification-battery stopping) on connected G(n, p)",
            workload: Workload::Construction {
                algorithm: "adaptive",
                family: Family::Gnp,
                faults: 1,
                samples: None,
            },
        },
        Scenario {
            name: "clpr09-sampled-gnp",
            description: "CLPR09-style baseline over 20 sampled fault sets on connected G(n, p)",
            workload: Workload::Construction {
                algorithm: "clpr09",
                family: Family::Gnp,
                faults: 2,
                samples: Some(20),
            },
        },
        Scenario {
            name: "two-spanner-lp-gnp",
            description: "Theorem 3.3 knapsack-cover LP rounding on directed G(n, p)",
            workload: Workload::Construction {
                algorithm: "two-spanner-lp",
                family: Family::DirectedGnp,
                faults: 1,
                samples: None,
            },
        },
        Scenario {
            name: "two-spanner-greedy-gnp",
            description: "LP-free greedy Lemma 3.1 cover on directed G(n, p)",
            workload: Workload::Construction {
                algorithm: "two-spanner-greedy",
                family: Family::DirectedGnp,
                faults: 1,
                samples: None,
            },
        },
        Scenario {
            name: "engine-queries",
            description: "Engine query throughput: batched distance/certificate queries under rotating faults",
            workload: Workload::EngineThroughput,
        },
        Scenario {
            name: "serve-repeated-faults",
            description: "planner throughput on a batch sharing a few fault scopes and sources",
            workload: Workload::ServeRepeatedFaults,
        },
        Scenario {
            name: "serve-zipf-sources",
            description: "planner throughput under a Zipf source distribution (hot sources, cold tail)",
            workload: Workload::ServeZipfSources,
        },
        Scenario {
            name: "serve-store-cold-load",
            description: "cold start: ArtifactStore loads binary .ftspan artifacts and serves a first batch",
            workload: Workload::ServeStoreColdLoad,
        },
        Scenario {
            name: "serve-net-throughput",
            description: "network serving: batched queries through the framed TCP protocol over loopback",
            workload: Workload::ServeNetThroughput,
        },
        Scenario {
            name: "shard-build",
            description: "sharded construction: partition, per-shard conversion builds, boundary overlay",
            workload: Workload::ShardBuild,
        },
        Scenario {
            name: "serve-sharded-batch",
            description: "scatter-gather serving: a repeated-scope batch through a sharded artifact",
            workload: Workload::ServeShardedBatch,
        },
        Scenario {
            name: "construct-large-gnm",
            description: "large-n construction: streaming G(n, m) spec through on_graph into an iteration-capped conversion",
            workload: Workload::LargeConstruction,
        },
        Scenario {
            name: "sssp-large",
            description: "large-n shortest paths: bucket-queue SSSP sweeps over a generated CSR",
            workload: Workload::LargeSssp,
        },
        Scenario {
            name: "delta-replay",
            description: "dynamic maintenance: a seeded delta stream applied through DynamicArtifact::apply",
            workload: Workload::DeltaReplay,
        },
        Scenario {
            name: "serve-under-churn",
            description: "network serving interleaved with ApplyDeltas warm swaps over loopback",
            workload: Workload::ServeUnderChurn,
        },
    ]
}

/// The exact scenario name set, in run order — what `bench_runner --list`
/// prints and the scenario table pins (pinned by a unit test so the suite
/// cannot silently lose a scenario).
pub fn names() -> Vec<&'static str> {
    all().iter().map(|s| s.name).collect()
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

impl Scenario {
    /// The scenario's private seed for a base seed (independent of suite
    /// order).
    pub fn seed_for(&self, base: u64) -> u64 {
        base ^ fnv1a_str(self.name)
    }

    /// Runs the scenario once and measures it.
    pub fn run(&self, config: &ScenarioConfig) -> ScenarioResult {
        match self.workload {
            Workload::Construction {
                algorithm,
                family,
                faults,
                samples,
            } => self.run_construction(config, algorithm, family, faults, samples),
            Workload::EngineThroughput => self.run_engine(config),
            Workload::ServeRepeatedFaults => self.run_serve_repeated(config),
            Workload::ServeZipfSources => self.run_serve_zipf(config),
            Workload::ServeStoreColdLoad => self.run_serve_store(config),
            Workload::ServeNetThroughput => self.run_serve_net(config),
            Workload::ShardBuild => self.run_shard_build(config),
            Workload::ServeShardedBatch => self.run_serve_sharded(config),
            Workload::LargeConstruction => self.run_construct_large(config),
            Workload::LargeSssp => self.run_sssp_large(config),
            Workload::DeltaReplay => self.run_delta_replay(config),
            Workload::ServeUnderChurn => self.run_serve_under_churn(config),
        }
    }

    fn run_construction(
        &self,
        config: &ScenarioConfig,
        algorithm: &str,
        family: Family,
        faults: usize,
        samples: Option<usize>,
    ) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let mut builder = FtSpannerBuilder::new(algorithm).faults(faults).seed(seed);
        if let Some(s) = samples {
            builder = builder.samples(s);
        }
        if let Some(t) = config.threads {
            builder = builder.threads(t);
        }

        let mut gen_rng = ChaCha8Rng::seed_from_u64(seed);
        let (report, nodes, edges) = match family {
            Family::DirectedGnp => {
                let g = directed_input(config.profile, &mut gen_rng);
                let report = builder
                    .build_directed(&g)
                    .expect("scenario inputs satisfy the algorithm's requirements");
                (report, g.node_count(), g.arc_count())
            }
            _ => {
                let g = undirected_input(family, config.profile, &mut gen_rng);
                let report = builder
                    .build(&g)
                    .expect("scenario inputs satisfy the algorithm's requirements");
                (report, g.node_count(), g.edge_count())
            }
        };

        // Wall-clock of the construction proper, as measured inside the
        // algorithm (excludes input generation).
        let wall_ms = report.elapsed.as_secs_f64() * 1e3;
        let mut digest = Fnv::new();
        digest.write_bytes(report.algorithm.as_bytes());
        digest.write_u64(report.faults as u64);
        digest.write_f64(report.stretch);
        digest.write_f64(report.cost);
        match &report.edges {
            SpannerEdges::Undirected(edges) => {
                for id in edges.iter() {
                    digest.write_u64(id.index() as u64);
                }
            }
            SpannerEdges::Directed(arcs) => {
                for id in arcs.iter() {
                    digest.write_u64(id.index() as u64);
                }
            }
        }

        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: nodes,
            input_edges: edges,
            spanner_edges: report.size(),
            edges_per_sec: throughput(edges, wall_ms),
            queries_per_sec: None,
            counters: report_counters(&report),
            digest: format!("{:016x}", digest.finish()),
        }
    }

    fn run_engine(&self, config: &ScenarioConfig) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let mut gen_rng = ChaCha8Rng::seed_from_u64(seed);
        let n = match config.profile {
            Profile::Ci => 40,
            Profile::Full => 100,
        };
        let p = match config.profile {
            Profile::Ci => 0.12,
            Profile::Full => 0.06,
        };
        let g = generate::connected_gnp(n, p, generate::WeightKind::Unit, &mut gen_rng);
        let engine = backbone_engine(config, &g, "conversion", 1, seed);

        let mut queries = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let fault = NodeId::new((u + v) % n);
                let (a, b) = (NodeId::new(u), NodeId::new(v));
                if (u + v) % 2 == 0 {
                    queries.push(Query::distance("backbone", vec![fault], a, b));
                } else {
                    queries.push(Query::certificate("backbone", vec![fault], a, b));
                }
            }
        }

        let start = Instant::now();
        let results = engine.run_batch(&queries);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut digest = Fnv::new();
        digest_outcomes(&mut digest, &results);

        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: n,
            input_edges: g.edge_count(),
            spanner_edges: 0,
            edges_per_sec: None,
            queries_per_sec: throughput(queries.len(), wall_ms),
            counters: serving_counters(engine.stats()),
            digest: format!("{:016x}", digest.finish()),
        }
    }

    /// The repeated-fault-set serving batch: queries share
    /// [`REPEATED_FAULT_SCOPES`] fault scopes and [`REPEATED_SOURCES`]
    /// sources, so grouped sessions plus the source cache answer almost
    /// everything from precomputed trees.
    fn run_serve_repeated(&self, config: &ScenarioConfig) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let (engine, g, queries) = repeated_fault_workload(config, seed);
        let start = Instant::now();
        let results = engine.run_batch(&queries);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut digest = Fnv::new();
        digest_outcomes(&mut digest, &results);
        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: g.node_count(),
            input_edges: g.edge_count(),
            spanner_edges: 0,
            edges_per_sec: None,
            queries_per_sec: throughput(queries.len(), wall_ms),
            counters: serving_counters(engine.stats()),
            digest: format!("{:016x}", digest.finish()),
        }
    }

    fn run_serve_zipf(&self, config: &ScenarioConfig) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, batch) = match config.profile {
            Profile::Ci => (48, 4000),
            Profile::Full => (120, 24000),
        };
        let g = generate::connected_gnp(n, 24.0 / n as f64, generate::WeightKind::Unit, &mut rng);
        let engine = backbone_engine(config, &g, "conversion", 1, seed);

        // Zipf-like source popularity: source rank i has weight 1/(i + 1).
        let cumulative: Vec<f64> = (0..n)
            .scan(0.0f64, |acc, i| {
                *acc += 1.0 / (i as f64 + 1.0);
                Some(*acc)
            })
            .collect();
        let total = *cumulative.last().expect("n >= 1");
        let mut zipf_source = || {
            let x: f64 = rng.gen::<f64>() * total;
            NodeId::new(cumulative.partition_point(|&c| c < x).min(n - 1))
        };
        let scopes = [vec![NodeId::new(0)], vec![NodeId::new(n / 2)], vec![]];
        let mut queries = Vec::with_capacity(batch);
        for q in 0..batch {
            let u = zipf_source();
            let v = NodeId::new((q * 7 + 3) % n);
            let scope = scopes[q % scopes.len()].clone();
            queries.push(match q % 9 {
                0 => Query::certificate("backbone", scope, u, v),
                1 => Query::path("backbone", scope, u, v),
                _ => Query::distance("backbone", scope, u, v),
            });
        }

        let start = Instant::now();
        let results = engine.run_batch(&queries);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut digest = Fnv::new();
        digest_outcomes(&mut digest, &results);
        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: n,
            input_edges: g.edge_count(),
            spanner_edges: 0,
            edges_per_sec: None,
            queries_per_sec: throughput(queries.len(), wall_ms),
            counters: serving_counters(engine.stats()),
            digest: format!("{:016x}", digest.finish()),
        }
    }

    /// The end-to-end network path: the same serving workload shape as the
    /// in-process scenarios, but streamed through an `ftspan-net` server on
    /// loopback. The timed section covers frame encode/decode, the TCP
    /// round trips and admission control — everything a
    /// real client pays. One connection issues sequential batch requests,
    /// so results arrive in input order and the digest is comparable across
    /// runs, worker counts and queue capacities.
    fn run_serve_net(&self, config: &ScenarioConfig) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, batch, per_request) = match config.profile {
            Profile::Ci => (40, 3000, 50),
            Profile::Full => (96, 20000, 100),
        };
        let g = generate::connected_gnp(n, 24.0 / n as f64, generate::WeightKind::Unit, &mut rng);
        let engine = backbone_engine(config, &g, "conversion", 1, seed);

        let scopes = [vec![NodeId::new(1)], vec![NodeId::new(n / 3)], vec![]];
        let sources: Vec<NodeId> = (0..8).map(|s| NodeId::new((s * 5 + 2) % n)).collect();
        let mut queries = Vec::with_capacity(batch);
        for q in 0..batch {
            let u = sources[q % sources.len()];
            let v = NodeId::new((q * 13 + 4) % n);
            let scope = scopes[q % scopes.len()].clone();
            queries.push(match q % 8 {
                0 => Query::certificate("backbone", scope, u, v),
                1 => Query::path("backbone", scope, u, v),
                _ => Query::distance("backbone", scope, u, v),
            });
        }

        // Setup (untimed): bind the server and connect the client.
        let server_config = ftspan_net::ServerConfig {
            workers: config.threads.unwrap_or_else(par::available_threads),
            ..ftspan_net::ServerConfig::default()
        };
        let server = ftspan_net::Server::bind(engine.clone(), "127.0.0.1:0", server_config)
            .expect("loopback bind succeeds")
            .spawn()
            .expect("server threads start");
        let mut client =
            ftspan_net::Client::connect(server.addr()).expect("loopback connect succeeds");

        // Timed: stream the whole workload through the wire.
        let start = Instant::now();
        let mut results = Vec::with_capacity(batch);
        for chunk in queries.chunks(per_request) {
            let reply = client
                .run_batch(chunk)
                .expect("loopback request succeeds")
                .expect_results()
                .expect("a sequential client is never rejected");
            results.extend(reply);
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        drop(client);
        server.shutdown().expect("server drains cleanly");

        let mut digest = Fnv::new();
        digest_outcomes(&mut digest, &results);
        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: n,
            input_edges: g.edge_count(),
            spanner_edges: 0,
            edges_per_sec: None,
            queries_per_sec: throughput(queries.len(), wall_ms),
            counters: serving_counters(engine.stats()),
            digest: format!("{:016x}", digest.finish()),
        }
    }

    /// The dynamic-artifact maintenance loop in isolation: a seeded churn
    /// stream applied round by round through [`DynamicArtifact::apply`],
    /// each round generated against the *current* post-delta graph. The
    /// timed section covers delta generation, patch-vs-rebuild decisions
    /// and the repairs themselves. The digest pins the final version,
    /// applied sequence and a query battery over the final artifact — so
    /// any drift in the repair path (at any worker count) fails the
    /// scenario table before it could reach serving; the touched-iteration
    /// and rebuild counters catch a repair that does more work than needed.
    fn run_delta_replay(&self, config: &ScenarioConfig) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, rounds, churn) = match config.profile {
            Profile::Ci => (40, 6, 6),
            Profile::Full => (96, 12, 12),
        };
        let g = generate::connected_gnp(n, 24.0 / n as f64, generate::WeightKind::Unit, &mut rng);
        let input_edges = g.edge_count();
        let mut current = DynamicArtifact::build(&g, dynamic_recipe(config, seed))
            .expect("scenario inputs build");

        let policy = RebuildPolicy::default();
        let mut applied_total = 0usize;
        let (mut touched_iterations, mut rebuilds) = (0u64, 0u64);
        let start = Instant::now();
        for _ in 0..rounds {
            let deltas = churn_batch(current.artifact().source_graph(), &mut rng, churn);
            let (next, report) = current
                .apply(&deltas, &policy)
                .expect("churn batches are valid against the current graph");
            applied_total += report.applied;
            match report.action {
                ApplyAction::Patched {
                    touched_iterations: t,
                    ..
                } => touched_iterations += t as u64,
                ApplyAction::Rebuilt { .. } => rebuilds += 1,
            }
            current = next;
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut digest = Fnv::new();
        digest.write_u64(current.version());
        digest.write_u64(current.applied_seq());
        let spanner_edges = current.artifact().spanner_edge_count();
        let mut engine = engine_with_workers(config);
        engine.register_dynamic("backbone", current);
        let mut queries = Vec::with_capacity(200);
        for q in 0..200usize {
            let u = NodeId::new((q * 7 + 1) % n);
            let v = NodeId::new((q * 11 + 3) % n);
            let scope = if q % 3 == 0 {
                vec![NodeId::new((q * 5 + 2) % n)]
            } else {
                vec![]
            };
            queries.push(match q % 5 {
                0 => Query::certificate("backbone", scope, u, v),
                1 => Query::path("backbone", scope, u, v),
                _ => Query::distance("backbone", scope, u, v),
            });
        }
        digest_outcomes(&mut digest, &engine.run_batch(&queries));
        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: n,
            input_edges,
            spanner_edges,
            edges_per_sec: throughput(applied_total, wall_ms),
            queries_per_sec: None,
            counters: vec![
                ("touched_iterations", touched_iterations),
                ("rebuilds", rebuilds),
            ],
            digest: format!("{:016x}", digest.finish()),
        }
    }

    /// Serving under churn: the loopback network path of `serve-net`, but
    /// interleaved with `ApplyDeltas` warm swaps. One sequential client
    /// alternates a query batch with a churn batch each round, so the
    /// version every query observes is a pure function of the seed and the
    /// digest is comparable across runs and worker counts. Churn batches
    /// are generated from the engine's *shared* registry snapshot — the
    /// same post-delta graph the server just swapped in.
    fn run_serve_under_churn(&self, config: &ScenarioConfig) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, rounds, per_round, churn) = match config.profile {
            Profile::Ci => (40, 8, 250, 4),
            Profile::Full => (96, 12, 1500, 8),
        };
        let g = generate::connected_gnp(n, 24.0 / n as f64, generate::WeightKind::Unit, &mut rng);
        let artifact = DynamicArtifact::build(&g, dynamic_recipe(config, seed))
            .expect("scenario inputs build");
        let mut engine = engine_with_workers(config);
        engine.register_dynamic("backbone", artifact);

        // Setup (untimed): bind the server on a clone sharing the registry,
        // keep our copy for snapshotting the current graph between rounds.
        let server_config = ftspan_net::ServerConfig {
            workers: config.threads.unwrap_or_else(par::available_threads),
            ..ftspan_net::ServerConfig::default()
        };
        let server = ftspan_net::Server::bind(engine.clone(), "127.0.0.1:0", server_config)
            .expect("loopback bind succeeds")
            .spawn()
            .expect("server threads start");
        let mut client =
            ftspan_net::Client::connect(server.addr()).expect("loopback connect succeeds");

        let mut digest = Fnv::new();
        let start = Instant::now();
        for round in 0..rounds {
            let mut queries = Vec::with_capacity(per_round);
            for q in 0..per_round {
                let u = NodeId::new((q * 7 + round + 1) % n);
                let v = NodeId::new((q * 13 + 4) % n);
                let scope = if q % 4 == 0 {
                    vec![NodeId::new((q * 3 + round) % n)]
                } else {
                    vec![]
                };
                queries.push(match q % 6 {
                    0 => Query::certificate("backbone", scope, u, v),
                    1 => Query::path("backbone", scope, u, v),
                    _ => Query::distance("backbone", scope, u, v),
                });
            }
            let results = client
                .run_batch(&queries)
                .expect("loopback request succeeds")
                .expect_results()
                .expect("a sequential client is never rejected");
            digest_outcomes(&mut digest, &results);

            let deltas = {
                let snapshot = engine.artifact("backbone").expect("backbone is registered");
                churn_batch(snapshot.source_graph(), &mut rng, churn)
            };
            let info = client
                .apply_deltas("backbone", &deltas)
                .expect("loopback request succeeds")
                .expect("churn batches are valid against the current graph");
            digest.write_u64(info.version);
            digest.write_u64(info.applied);
            digest.write_u64(info.last_seq);
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        drop(client);
        server.shutdown().expect("server drains cleanly");

        let stats = engine.stats();
        let mut counters = serving_counters(stats);
        counters.extend([
            ("swaps", stats.swaps),
            ("deltas_applied", stats.deltas_applied),
            ("rebuilds", stats.rebuilds),
        ]);
        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: n,
            input_edges: g.edge_count(),
            spanner_edges: 0,
            edges_per_sec: None,
            queries_per_sec: throughput(rounds * per_round, wall_ms),
            counters,
            digest: format!("{:016x}", digest.finish()),
        }
    }

    fn run_serve_store(&self, config: &ScenarioConfig) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, batch) = match config.profile {
            Profile::Ci => (32, 600),
            Profile::Full => (72, 2400),
        };
        // Setup (untimed): build three artifacts and persist them as binary
        // `.ftspan` files.
        let dir = std::env::temp_dir().join(format!(
            "ftspan-bench-store-{seed:x}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = ArtifactStore::open(&dir).expect("temp store is creatable");
        let g = generate::connected_gnp(n, 0.15, generate::WeightKind::Unit, &mut rng);
        for (name, algorithm, edge_model) in [
            ("conv", "conversion", false),
            ("cor22", "corollary-2.2", false),
            ("edge", "edge-fault", true),
        ] {
            let mut builder = configured_builder(config, algorithm, 1, seed);
            if edge_model {
                builder = builder.edge_faults();
            }
            let artifact = builder.build_artifact(&g).expect("scenario inputs build");
            store.save(name, &artifact).expect("temp store is writable");
        }
        let bytes_on_disk: u64 = std::fs::read_dir(&dir)
            .expect("temp store is readable")
            .map(|entry| entry.and_then(|e| e.metadata()).map_or(0, |m| m.len()))
            .sum();
        let edge_pair = {
            let (_, e) = g.edges().next().expect("connected graph has edges");
            (e.u, e.v)
        };
        let mut queries = Vec::with_capacity(batch);
        for q in 0..batch {
            let u = NodeId::new(q % n);
            let v = NodeId::new((q * 3 + 1) % n);
            queries.push(match q % 3 {
                0 => Query::distance("conv", vec![NodeId::new((q / 3) % n)], u, v),
                1 => Query::certificate("cor22", vec![NodeId::new((q / 3) % n)], u, v),
                _ => Query::distance("edge", vec![], u, v).with_edge_faults(vec![edge_pair]),
            });
        }

        // Timed: cold start — open the store, load every artifact, serve the
        // first batch.
        let start = Instant::now();
        let store = ArtifactStore::open(&dir).expect("temp store exists");
        let mut engine = engine_with_workers(config);
        let loaded = store.load_into(&mut engine).expect("artifacts load back");
        let results = engine.run_batch(&queries);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        std::fs::remove_dir_all(&dir).ok();
        let mut counters = serving_counters(engine.stats());
        counters.push(("bytes_on_disk", bytes_on_disk));
        let mut digest = Fnv::new();
        for name in &loaded {
            digest.write_bytes(name.as_bytes());
        }
        digest_outcomes(&mut digest, &results);
        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: n,
            input_edges: g.edge_count(),
            spanner_edges: 0,
            edges_per_sec: None,
            queries_per_sec: throughput(queries.len(), wall_ms),
            counters,
            digest: format!("{:016x}", digest.finish()),
        }
    }

    /// Times the whole sharded construction pipeline on connected G(n, p):
    /// seeded partition, per-shard conversion builds, overlay assembly.
    fn run_shard_build(&self, config: &ScenarioConfig) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, p, parts) = match config.profile {
            Profile::Ci => (64, 0.12, 4),
            Profile::Full => (160, 0.06, 6),
        };
        let g = generate::connected_gnp(n, p, generate::WeightKind::Unit, &mut rng);
        let builder = configured_builder(config, "conversion", 1, seed);
        let partition_config = partition::PartitionConfig::new(parts).with_seed(seed);

        let start = Instant::now();
        let sharded =
            ShardedArtifact::build(&g, &builder, &partition_config).expect("scenario inputs shard");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut digest = Fnv::new();
        for &part in sharded.assignment() {
            digest.write_u64(part as u64);
        }
        for cut in sharded.cut_edges() {
            digest.write_u64(cut.u.index() as u64);
            digest.write_u64(cut.v.index() as u64);
            digest.write_f64(cut.weight);
        }
        for shard in sharded.shards() {
            for id in shard.spanner_edges().iter() {
                digest.write_u64(id.index() as u64);
            }
        }

        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: n,
            input_edges: g.edge_count(),
            spanner_edges: sharded.spanner_edge_count(),
            edges_per_sec: throughput(g.edge_count(), wall_ms),
            queries_per_sec: None,
            counters: vec![("cut_edges", sharded.cut_edge_count() as u64)],
            digest: format!("{:016x}", digest.finish()),
        }
    }

    /// Serves a repeated-scope batch through a sharded registration — the
    /// scatter-gather counterpart of `serve-repeated-faults`, grouped by the
    /// same planner.
    fn run_serve_sharded(&self, config: &ScenarioConfig) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, parts, batch) = match config.profile {
            Profile::Ci => (48, 3, 2000),
            Profile::Full => (120, 5, 12000),
        };
        let g = generate::connected_gnp(n, 24.0 / n as f64, generate::WeightKind::Unit, &mut rng);
        let builder = configured_builder(config, "conversion", 2, seed);
        let partition_config = partition::PartitionConfig::new(parts).with_seed(seed);
        let sharded =
            ShardedArtifact::build(&g, &builder, &partition_config).expect("scenario inputs shard");
        let mut engine = engine_with_workers(config);
        engine.register_sharded("backbone", sharded);

        let scopes: Vec<Vec<NodeId>> = (0..REPEATED_FAULT_SCOPES)
            .map(|s| vec![NodeId::new(s * 2 % n), NodeId::new((s * 5 + 1) % n)])
            .collect();
        let sources: Vec<NodeId> = (0..REPEATED_SOURCES)
            .map(|s| NodeId::new((s * 4 + 2) % n))
            .collect();
        let mut queries = Vec::with_capacity(batch);
        for q in 0..batch {
            let u = sources[q % sources.len()];
            let v = NodeId::new((q * 11 + 5) % n);
            let scope = scopes[q % scopes.len()].clone();
            queries.push(match q % 7 {
                0 => Query::certificate("backbone", scope, u, v),
                1 => Query::path("backbone", scope, u, v),
                _ => Query::distance("backbone", scope, u, v),
            });
        }

        let start = Instant::now();
        let results = engine.run_batch(&queries);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut digest = Fnv::new();
        digest_outcomes(&mut digest, &results);
        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: n,
            input_edges: g.edge_count(),
            spanner_edges: 0,
            edges_per_sec: None,
            queries_per_sec: throughput(queries.len(), wall_ms),
            counters: serving_counters(engine.stats()),
            digest: format!("{:016x}", digest.finish()),
        }
    }

    /// Large-n construction end to end through the redesigned input path:
    /// a seeded G(n, m) spec streams through [`FtSpannerBuilder::on_graph`]
    /// (CSR packed once at the boundary, adopted by the artifact), with the
    /// conversion capped at two Baswana–Sen iterations so the scenario
    /// measures pipeline scale rather than the full Θ(r³ log n) union. The
    /// artifact keeps no [`SpannerReport`], so the row carries no counters.
    fn run_construct_large(&self, config: &ScenarioConfig) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let (nodes, edges) = match config.profile {
            Profile::Ci => (100_000, 300_000),
            Profile::Full => (1_000_000, 4_000_000),
        };
        let spec = GeneratorSpec::Gnm {
            nodes,
            edges,
            weights: generate::WeightKind::Unit,
            seed,
        };
        let mut builder = FtSpannerBuilder::new("conversion")
            .faults(1)
            .black_box(BlackBoxKind::BaswanaSen)
            .iterations(2)
            .seed(seed);
        if let Some(t) = config.threads {
            builder = builder.threads(t);
        }

        // The measured section covers generation, boundary CSR packing and
        // the construction — the whole pipeline the streaming path exists
        // to keep memory-bounded.
        let start = Instant::now();
        let artifact = builder
            .artifact_on_graph(spec)
            .expect("G(n, m) specs satisfy the conversion's requirements");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut digest = Fnv::new();
        digest.write_u64(artifact.node_count() as u64);
        digest.write_u64(artifact.source_edge_count() as u64);
        for id in artifact.spanner_edges().iter() {
            digest.write_u64(id.index() as u64);
        }
        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: nodes,
            input_edges: edges,
            spanner_edges: artifact.spanner_edge_count(),
            edges_per_sec: throughput(edges, wall_ms),
            queries_per_sec: None,
            counters: Vec::new(),
            digest: format!("{:016x}", digest.finish()),
        }
    }

    /// Large-n shortest paths: a generated CSR served directly (no Graph
    /// detour), swept from a rotating set of sources through one reused
    /// [`SsspWorkspace`]. At these sizes, with weights from 1 to 4, every
    /// sweep runs on the bucket queue; the digest folds every distance of
    /// every sweep, so the result also pins the bucket/heap distance
    /// equivalence at scale. The
    /// library counts no SSSP work, so the row carries no counters.
    ///
    /// [`SsspWorkspace`]: ftspan_graph::csr::SsspWorkspace
    fn run_sssp_large(&self, config: &ScenarioConfig) -> ScenarioResult {
        let seed = self.seed_for(config.seed);
        let (nodes, edges, sources) = match config.profile {
            Profile::Ci => (100_000, 400_000, 8),
            Profile::Full => (1_000_000, 4_000_000, 8),
        };
        let spec = GeneratorSpec::Gnm {
            nodes,
            edges,
            weights: generate::WeightKind::Uniform { min: 1.0, max: 4.0 },
            seed,
        };
        let csr = spec.generate_csr().expect("G(n, m) specs generate");
        let mut workspace = ftspan_graph::csr::SsspWorkspace::new();

        let start = Instant::now();
        let mut digest = Fnv::new();
        for s in 0..sources {
            let source = NodeId::new(s * (nodes / sources) % nodes);
            csr.sssp_into(source, None, None, &mut workspace)
                .expect("in-bounds sources sweep");
            for &d in workspace.distances() {
                digest.write_f64(d);
            }
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        ScenarioResult {
            name: self.name.to_string(),
            wall_ms,
            input_nodes: nodes,
            input_edges: edges,
            spanner_edges: 0,
            edges_per_sec: None,
            queries_per_sec: throughput(sources, wall_ms),
            counters: Vec::new(),
            digest: format!("{:016x}", digest.finish()),
        }
    }
}

/// A seeded, always-valid delta batch against `g`: deletes and reweights
/// draw from the current edge list, inserts draw fresh absent pairs, and no
/// pair is touched twice within one batch — so the batch always applies
/// cleanly and the stream is a pure function of the seed.
fn churn_batch(g: &Graph, rng: &mut ChaCha8Rng, size: usize) -> Vec<EdgeDelta> {
    let pairs: Vec<(NodeId, NodeId, f64)> = g.edges().map(|(_, e)| (e.u, e.v, e.weight)).collect();
    let n = g.node_count();
    let mut touched = std::collections::BTreeSet::new();
    let mut deltas = Vec::with_capacity(size);
    for _ in 0..size {
        match rng.gen_range(0..4u32) {
            0 if !pairs.is_empty() => {
                // Bounded retries: an occupied draw is skipped, keeping the
                // loop total even when the batch covers most of the graph.
                for _ in 0..8 {
                    let (u, v, _) = pairs[rng.gen_range(0..pairs.len())];
                    if touched.insert((u.index(), v.index())) {
                        deltas.push(EdgeDelta::Delete { u, v });
                        break;
                    }
                }
            }
            1 if !pairs.is_empty() => {
                for _ in 0..8 {
                    let (u, v, weight) = pairs[rng.gen_range(0..pairs.len())];
                    if touched.insert((u.index(), v.index())) {
                        deltas.push(EdgeDelta::Reweight {
                            u,
                            v,
                            weight: weight + 0.25,
                        });
                        break;
                    }
                }
            }
            _ => {
                for _ in 0..32 {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    if a == b {
                        continue;
                    }
                    let (u, v) = (NodeId::new(a.min(b)), NodeId::new(a.max(b)));
                    if g.find_edge(u, v).is_some() || !touched.insert((u.index(), v.index())) {
                        continue;
                    }
                    deltas.push(EdgeDelta::Insert {
                        u,
                        v,
                        weight: 1.0 + rng.gen::<f64>(),
                    });
                    break;
                }
            }
        }
    }
    deltas
}

/// The recipe both dynamic scenarios build from: a repairable construction
/// with a fixed iteration budget, threaded per the config (digests are
/// thread-count invariant).
fn dynamic_recipe(config: &ScenarioConfig, seed: u64) -> BuildRecipe {
    let request = SpannerRequest {
        faults: 1,
        stretch: 3.0,
        iterations: Some(8),
        threads: config.threads,
        ..SpannerRequest::default()
    };
    BuildRecipe::new("corollary-2.2", request, seed)
}

/// The shared serving-scenario setup: a builder for `algorithm` with
/// `config.threads` threaded through.
fn configured_builder(
    config: &ScenarioConfig,
    algorithm: &str,
    faults: usize,
    seed: u64,
) -> FtSpannerBuilder {
    let mut builder = FtSpannerBuilder::new(algorithm).faults(faults).seed(seed);
    if let Some(t) = config.threads {
        builder = builder.threads(t);
    }
    builder
}

/// An empty engine with `config.threads` workers (engine defaults otherwise).
fn engine_with_workers(config: &ScenarioConfig) -> Engine {
    let mut engine = Engine::new();
    if let Some(t) = config.threads {
        engine = engine.with_workers(t);
    }
    engine
}

/// Builds `algorithm` on `g` and registers it as `"backbone"` — the whole
/// setup of the single-artifact serving scenarios.
fn backbone_engine(
    config: &ScenarioConfig,
    g: &Graph,
    algorithm: &str,
    faults: usize,
    seed: u64,
) -> Engine {
    let artifact = configured_builder(config, algorithm, faults, seed)
        .build_artifact(g)
        .expect("scenario inputs build");
    let mut engine = engine_with_workers(config);
    engine.register("backbone", artifact);
    engine
}

/// Number of distinct fault scopes in the repeated-fault serving scenario.
const REPEATED_FAULT_SCOPES: usize = 4;
/// Number of distinct query sources in the repeated-fault serving scenario.
const REPEATED_SOURCES: usize = 12;

/// Builds the repeated-fault-set serving workload: the engine (planner
/// configured from `config`), the input graph and the query batch. Shared
/// with the speedup acceptance test in `tests/`.
pub fn repeated_fault_workload(config: &ScenarioConfig, seed: u64) -> (Engine, Graph, Vec<Query>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (n, batch) = match config.profile {
        Profile::Ci => (48, 4000),
        Profile::Full => (120, 24000),
    };
    let g = generate::connected_gnp(n, 24.0 / n as f64, generate::WeightKind::Unit, &mut rng);
    let engine = backbone_engine(config, &g, "conversion", 2, seed);

    let scopes: Vec<Vec<NodeId>> = (0..REPEATED_FAULT_SCOPES)
        .map(|s| vec![NodeId::new(s * 2 % n), NodeId::new((s * 5 + 1) % n)])
        .collect();
    let sources: Vec<NodeId> = (0..REPEATED_SOURCES)
        .map(|s| NodeId::new((s * 4 + 2) % n))
        .collect();
    let mut queries = Vec::with_capacity(batch);
    for q in 0..batch {
        let u = sources[q % sources.len()];
        let v = NodeId::new((q * 11 + 5) % n);
        let scope = scopes[q % scopes.len()].clone();
        queries.push(match q % 7 {
            0 => Query::certificate("backbone", scope, u, v),
            1 => Query::path("backbone", scope, u, v),
            _ => Query::distance("backbone", scope, u, v),
        });
    }
    (engine, g, queries)
}

/// Folds a batch's outcomes into a digest (semantic output only: distances,
/// paths, certificate numbers, error strings).
fn digest_outcomes(
    digest: &mut Fnv,
    results: &[fault_tolerant_spanners::core::Result<QueryOutcome>],
) {
    for outcome in results {
        match outcome {
            Ok(QueryOutcome::Distance(d)) => {
                digest.write_bytes(b"d");
                digest.write_f64(*d);
            }
            Ok(QueryOutcome::Path(p)) => {
                digest.write_bytes(b"p");
                if let Some(path) = p {
                    for v in path {
                        digest.write_u64(v.index() as u64);
                    }
                }
            }
            Ok(QueryOutcome::Certificate(c)) => {
                digest.write_bytes(b"c");
                digest.write_f64(c.spanner_distance);
                digest.write_f64(c.baseline_distance);
            }
            Err(e) => {
                digest.write_bytes(b"e");
                digest.write_bytes(e.to_string().as_bytes());
            }
        }
    }
}

/// A construction row's counters: black-box iterations, the edges of
/// `G \ J` handed to the black boxes, and the LP rounding diagnostics where
/// the algorithm sets them.
fn report_counters(report: &SpannerReport) -> Vec<(&'static str, u64)> {
    let mut counters = vec![("iterations", report.iterations as u64)];
    if !report.per_iteration.is_empty() {
        let handed: usize = report.per_iteration.iter().map(|i| i.surviving_edges).sum();
        counters.push(("black_box_edges", handed as u64));
    }
    if report.alpha.is_some() {
        counters.push(("repaired_arcs", report.repaired_arcs as u64));
    }
    for (name, value) in [
        ("cuts_added", report.cuts_added),
        ("resamples", report.resamples),
    ] {
        if let Some(v) = value {
            counters.push((name, v as u64));
        }
    }
    counters
}

/// A serving row's planner counters. Every scenario serves from a fresh
/// engine, so its lifetime [`EngineStats`] are the scenario's own.
fn serving_counters(stats: EngineStats) -> Vec<(&'static str, u64)> {
    vec![
        ("planner_groups", stats.planner_groups),
        ("planner_units", stats.planner_units),
        ("cache_hits", stats.cache_hits),
        ("cache_misses", stats.cache_misses),
    ]
}

fn throughput(items: usize, wall_ms: f64) -> Option<f64> {
    if wall_ms <= 0.0 {
        None
    } else {
        Some(items as f64 / (wall_ms / 1e3))
    }
}

fn undirected_input(family: Family, profile: Profile, rng: &mut ChaCha8Rng) -> Graph {
    match (family, profile) {
        (Family::Gnp, Profile::Ci) => {
            generate::connected_gnp(48, 0.15, generate::WeightKind::Unit, rng)
        }
        (Family::Gnp, Profile::Full) => {
            generate::connected_gnp(120, 0.08, generate::WeightKind::Unit, rng)
        }
        (Family::Grid, Profile::Ci) => generate::grid(8, 8),
        (Family::Grid, Profile::Full) => generate::grid(16, 16),
        (Family::NearRegular, Profile::Ci) => generate::random_near_regular(48, 6, rng),
        (Family::NearRegular, Profile::Full) => generate::random_near_regular(120, 6, rng),
        (Family::PlanarMesh, Profile::Ci) => planar_mesh_input(8, 9, rng),
        (Family::PlanarMesh, Profile::Full) => planar_mesh_input(16, 16, rng),
        (Family::Hyperbolic, Profile::Ci) => hyperbolic_input(64, rng),
        (Family::Hyperbolic, Profile::Full) => hyperbolic_input(160, rng),
        (Family::DirectedGnp, _) => unreachable!("directed families use directed_input"),
    }
}

/// A seeded road-network-like mesh through the [`GeneratorSpec`] path (the
/// same generator the adversarial battery sweeps).
fn planar_mesh_input(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Graph {
    GeneratorSpec::PlanarMesh {
        rows,
        cols,
        diagonal_p: 0.4,
        jitter: 0.25,
        seed: rng.gen(),
    }
    .generate()
    .expect("mesh parameters are valid")
}

/// A seeded *connected* hyperbolic instance: connectivity is seed-dependent
/// at these sizes, so the first connected seed in a fixed window derived
/// from the scenario stream is used — deterministic for a fixed base seed.
fn hyperbolic_input(nodes: usize, rng: &mut ChaCha8Rng) -> Graph {
    let radius = 2.0 * (nodes as f64).ln() * 0.55;
    let base: u64 = rng.gen();
    for offset in 0..64 {
        let g = GeneratorSpec::Hyperbolic {
            nodes,
            alpha: 0.75,
            radius,
            seed: base.wrapping_add(offset),
        }
        .generate()
        .expect("hyperbolic parameters are valid");
        if g.is_connected() {
            return g;
        }
    }
    panic!("no connected hyperbolic instance with {nodes} nodes in 64 seeds; retune alpha/radius")
}

fn directed_input(profile: Profile, rng: &mut ChaCha8Rng) -> DiGraph {
    match profile {
        Profile::Ci => generate::directed_gnp(12, 0.35, generate::WeightKind::Unit, rng),
        Profile::Full => generate::directed_gnp(18, 0.3, generate::WeightKind::Unit, rng),
    }
}

/// Runs every scenario of the suite under `config`, in suite order.
pub fn run_all(config: &ScenarioConfig) -> Vec<ScenarioResult> {
    all().iter().map(|s| s.run(config)).collect()
}

/// A full `BENCH.json` document: the configuration plus one result per
/// scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Profile the suite ran at.
    pub profile: String,
    /// Base seed of the run.
    pub seed: u64,
    /// The per-scenario results, in run order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// Assembles a report from a run.
    pub fn new(config: &ScenarioConfig, scenarios: Vec<ScenarioResult>) -> Self {
        BenchReport {
            profile: config.profile.name().to_string(),
            seed: config.seed,
            scenarios,
        }
    }

    /// Serializes the report as pretty-printed JSON, one key per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"ftspan-bench/2\",\n");
        out.push_str(&format!("  \"profile\": \"{}\",\n", self.profile));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value}"))
                .collect();
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", s.name));
            out.push_str(&format!("      \"wall_ms\": {:.3},\n", s.wall_ms));
            out.push_str(&format!("      \"input_nodes\": {},\n", s.input_nodes));
            out.push_str(&format!("      \"input_edges\": {},\n", s.input_edges));
            out.push_str(&format!("      \"spanner_edges\": {},\n", s.spanner_edges));
            out.push_str(&format!(
                "      \"edges_per_sec\": {},\n",
                json_number(s.edges_per_sec)
            ));
            out.push_str(&format!(
                "      \"queries_per_sec\": {},\n",
                json_number(s.queries_per_sec)
            ));
            out.push_str(&format!(
                "      \"counters\": {{{}}},\n",
                counters.join(", ")
            ));
            out.push_str(&format!("      \"digest\": \"{}\"\n", s.digest));
            out.push_str(if i + 1 == self.scenarios.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

fn json_number(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.3}"),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_at_least_eight_named_scenarios() {
        let scenarios = all();
        assert!(scenarios.len() >= 8, "only {} scenarios", scenarios.len());
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.workload, Workload::EngineThroughput)));
    }

    #[test]
    fn find_resolves_names() {
        assert!(find("conversion-gnp").is_some());
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn scenario_set_is_pinned() {
        // The exact set `bench_runner --list` prints and
        // `tests/scenario_table.rs` pins row by row. A scenario can only be
        // added or removed by updating this test and the table.
        assert_eq!(
            names(),
            vec![
                "conversion-gnp",
                "conversion-grid",
                "conversion-regular",
                "construct-planar-mesh",
                "construct-hyperbolic",
                "corollary22-gnp-r2",
                "edge-fault-gnp",
                "adaptive-gnp",
                "clpr09-sampled-gnp",
                "two-spanner-lp-gnp",
                "two-spanner-greedy-gnp",
                "engine-queries",
                "serve-repeated-faults",
                "serve-zipf-sources",
                "serve-store-cold-load",
                "serve-net-throughput",
                "shard-build",
                "serve-sharded-batch",
                "construct-large-gnm",
                "sssp-large",
                "delta-replay",
                "serve-under-churn",
            ]
        );
    }

    #[test]
    fn scenario_seeds_differ_by_name() {
        let a = find("conversion-gnp").unwrap().seed_for(1);
        let b = find("conversion-grid").unwrap().seed_for(1);
        assert_ne!(a, b);
    }
}

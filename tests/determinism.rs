//! The determinism suite: every parallelized construction must be
//! byte-identical across worker counts.
//!
//! The workspace's parallel discipline (see `ftspan_core::par`) promises that
//! `threads` is a pure wall-clock knob: for a fixed seed, a construction's
//! `SpannerReport` — the selected edges, cost, per-iteration statistics and
//! every diagnostic — is the same at `threads = 1`, `2` and `8`. This suite
//! pins that promise for **every** registry algorithm (centralized and
//! distributed, undirected and directed, vertex- and edge-fault), plus the
//! repeated-run reproducibility of a single configuration and the pinned
//! edge digests of the greedy-backed constructions.

use fault_tolerant_spanners::core::CoreError;
use fault_tolerant_spanners::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Reports are compared with the wall-clock zeroed: `elapsed` is the one
/// field that legitimately varies between runs.
fn canonical(mut report: SpannerReport) -> SpannerReport {
    report.elapsed = Duration::ZERO;
    report
}

fn build_with_threads(algorithm: &str, threads: usize) -> SpannerReport {
    let registry = registry();
    let entry = registry.get(algorithm).expect("registry name");
    let mut rng = ChaCha8Rng::seed_from_u64(97);
    let g = generate::connected_gnp(20, 0.35, generate::WeightKind::Unit, &mut rng);
    let dg = generate::directed_gnp(9, 0.5, generate::WeightKind::Unit, &mut rng);

    let mut builder = FtSpannerBuilder::new(algorithm)
        .faults(1)
        .seed(2011)
        .threads(threads);
    // Keep the exponential constructions and the distributed 2-spanner small.
    if algorithm == "clpr09" {
        builder = builder.samples(8);
    }
    if algorithm == "distributed-two-spanner" {
        builder = builder.repetitions(3);
    }
    let report = match entry.graph_family() {
        GraphFamily::Undirected => builder.build(&g),
        GraphFamily::Directed => builder.build_directed(&dg),
    };
    canonical(report.expect("every registry algorithm builds on its smoke input"))
}

#[test]
fn every_registry_algorithm_is_byte_identical_across_worker_counts() {
    for name in registry().names() {
        let reference = build_with_threads(name, 1);
        for threads in &THREAD_COUNTS[1..] {
            let got = build_with_threads(name, *threads);
            assert_eq!(
                reference, got,
                "algorithm `{name}`: threads = {threads} changed the report"
            );
        }
        assert!(
            reference.size() > 0 || reference.cost == 0.0,
            "algorithm `{name}` produced an implausible smoke report"
        );
    }
}

#[test]
fn edge_fault_model_is_byte_identical_across_worker_counts() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let g = generate::connected_gnp(18, 0.4, generate::WeightKind::Unit, &mut rng);
    let build = |threads: usize| {
        canonical(
            FtSpannerBuilder::new("conversion")
                .faults(1)
                .edge_faults()
                .seed(5)
                .threads(threads)
                .build(&g)
                .unwrap(),
        )
    };
    let reference = build(1);
    assert_eq!(reference.fault_model, FaultModel::Edge);
    for threads in [2usize, 8] {
        assert_eq!(reference, build(threads), "threads = {threads}");
    }
}

#[test]
fn non_default_black_boxes_follow_the_same_discipline() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let g = generate::connected_gnp(20, 0.3, generate::WeightKind::Unit, &mut rng);
    for black_box in [
        BlackBoxKind::BaswanaSen,
        BlackBoxKind::ThorupZwick,
        BlackBoxKind::Cluster,
    ] {
        let build = |threads: usize| {
            canonical(
                FtSpannerBuilder::new("conversion")
                    .faults(1)
                    .black_box(black_box)
                    .seed(13)
                    .threads(threads)
                    .build(&g)
                    .unwrap(),
            )
        };
        let reference = build(1);
        for threads in [2usize, 8] {
            assert_eq!(
                reference,
                build(threads),
                "black box {black_box}: threads = {threads} changed the report"
            );
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one little-endian `u64` into an FNV-1a hash.
fn fnv_word(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over the spanner's edges as `(u, v)` endpoint pairs in edge-id
/// order, little-endian `u64`s — the digest the repo benchmark pins.
fn edge_digest(artifact: &FtSpanner) -> u64 {
    let graph = artifact.source_graph();
    let mut hash = FNV_OFFSET;
    for e in artifact.spanner_edges().iter() {
        let edge = graph.edge(e);
        fnv_word(&mut hash, edge.u.index() as u64);
        fnv_word(&mut hash, edge.v.index() as u64);
    }
    hash
}

#[test]
fn greedy_backed_constructions_reproduce_pinned_digests() {
    // Every greedy-backed registry algorithm on a seeded G(200, 3000) with
    // uniform weights: any change to the greedy black box's decisions (or
    // to the conversions around it) moves these digests.
    let pinned: [(&str, [u64; 3]); 3] = [
        (
            "corollary-2.2",
            [
                0x56d9_226d_1384_c61e,
                0x4008_f712_1ade_0fba,
                0xc514_a1db_824a_ce89,
            ],
        ),
        (
            "edge-fault",
            [
                0x5ee2_12ea_9d45_6df2,
                0x571f_fb8f_fdde_9bf1,
                0xd849_81da_3324_d82c,
            ],
        ),
        (
            "adaptive",
            [
                0x46a8_d7e5_b4ee_95cb,
                0x226c_a001_396e_3b36,
                0x6df1_55dd_9baa_b5a8,
            ],
        ),
    ];
    for (algorithm, digests) in pinned {
        for (seed, expected) in (1u64..=3).zip(digests) {
            let spec = GeneratorSpec::Gnm {
                nodes: 200,
                edges: 3000,
                weights: generate::WeightKind::Uniform {
                    min: 1.0,
                    max: 10.0,
                },
                seed,
            };
            let mut builder = FtSpannerBuilder::new(algorithm)
                .faults(1)
                .stretch(3.0)
                .seed(seed);
            // Sampled verification keeps the adaptive stopping rule cheap (the
            // default checks all 201 fault sets after every batch).
            if algorithm == "adaptive" {
                builder = builder.samples(8);
            }
            let artifact = builder.artifact_on_graph(spec).unwrap();
            let digest = edge_digest(&artifact);
            assert_eq!(
                digest, expected,
                "`{algorithm}` seed {seed}: edge digest {digest:#018x} moved from the pinned {expected:#018x}"
            );
        }
    }
}

#[test]
fn repeated_runs_with_one_seed_reproduce() {
    // Same configuration, same seed, different processes-worth of calls: the
    // construction is a pure function of its inputs (hash-order-free).
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let g = generate::connected_gnp(22, 0.3, generate::WeightKind::Unit, &mut rng);
    let builder = FtSpannerBuilder::new("conversion")
        .faults(2)
        .black_box(BlackBoxKind::BaswanaSen)
        .seed(77)
        .threads(4);
    let a = canonical(builder.build(&g).unwrap());
    let b = canonical(builder.build(&g).unwrap());
    assert_eq!(a, b);
}

/// Folds an optional vertex path into an FNV-1a hash: its length (or
/// `u64::MAX` for `None`), then every vertex id.
fn fnv_path(hash: &mut u64, path: &Option<Vec<NodeId>>) {
    match path {
        None => fnv_word(hash, u64::MAX),
        Some(p) => {
            fnv_word(hash, p.len() as u64);
            for x in p {
                fnv_word(hash, x.index() as u64);
            }
        }
    }
}

#[test]
fn sharded_answers_reproduce_a_pinned_digest() {
    // A weighted planar mesh cut into 3 shards: FNV-1a over the bits of every
    // distance, path and certificate answer, fault-free and under single
    // vertex faults. Any change to the overlay's sums, its tie-breaks or the
    // rows it reads moves this digest.
    let g = GeneratorSpec::PlanarMesh {
        rows: 7,
        cols: 8,
        diagonal_p: 0.4,
        jitter: 0.25,
        seed: 2026,
    }
    .generate()
    .unwrap();
    let builder = FtSpannerBuilder::new("conversion").faults(1).seed(81);
    let config = partition::PartitionConfig::new(3).with_seed(81);
    let sharded = ShardedArtifact::build(&g, &builder, &config).unwrap();
    let n = g.node_count();
    let mut hash = FNV_OFFSET;
    for scope in [vec![], vec![9], vec![22], vec![30], vec![41], vec![50]] {
        let faults: Vec<NodeId> = scope.into_iter().map(NodeId::new).collect();
        let mut session = sharded.under_faults(&faults).unwrap();
        for u in (0..n).step_by(3) {
            for v in (1..n).step_by(5) {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                fnv_word(&mut hash, session.distance(u, v).unwrap().to_bits());
                fnv_path(&mut hash, &session.path(u, v).unwrap());
                let cert = session.stretch_certificate(u, v).unwrap();
                assert!(cert.holds());
                for x in [cert.spanner_distance, cert.baseline_distance, cert.stretch] {
                    fnv_word(&mut hash, x.to_bits());
                }
                fnv_path(&mut hash, &cert.path);
            }
        }
    }
    let expected = 0x8a6e_79c8_6608_3828u64;
    assert_eq!(
        hash, expected,
        "sharded answer digest {hash:#018x} moved from the pinned {expected:#018x}"
    );
}

/// The engine battery: one engine holding a flat, a dynamic and a 3-shard
/// sharded registration under each fault model, and one batch that asks
/// every query kind of each of them. Valid scopes repeat with permuted and
/// duplicated fault lists, so the planner groups them; one scope per
/// artifact is a singleton. The batch ends with one query per typed error,
/// paired with the exact error it must produce.
fn engine_battery() -> (Engine, Vec<Query>, Vec<(usize, CoreError)>) {
    let mut rng = ChaCha8Rng::seed_from_u64(151);
    let g = generate::connected_gnp(24, 0.25, generate::WeightKind::Unit, &mut rng);
    let n = g.node_count();
    let mut engine = Engine::new();
    for (tag, algorithm) in [("vertex", "conversion"), ("edge", "edge-fault")] {
        let builder = FtSpannerBuilder::new(algorithm).faults(1).seed(15);
        engine.register(&format!("flat-{tag}"), builder.build_artifact(&g).unwrap());
        let request = SpannerRequest {
            faults: 1,
            iterations: Some(6),
            threads: Some(1),
            ..SpannerRequest::default()
        };
        let live = DynamicArtifact::build(&g, BuildRecipe::new(algorithm, request, 15)).unwrap();
        engine.register_dynamic(&format!("live-{tag}"), live);
        let config = partition::PartitionConfig::new(3).with_seed(15);
        let sharded = ShardedArtifact::build(&g, &builder, &config).unwrap();
        engine.register_sharded(&format!("sharded-{tag}"), sharded);
    }

    let edge = |i: usize| {
        let (_, e) = g.edges().nth(i).unwrap();
        (e.u, e.v)
    };
    let (e1, e2, e3) = (edge(0), edge(7), edge(19));
    let non_edge = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (NodeId::new(u), NodeId::new(v))))
        .find(|&(u, v)| g.find_edge(u, v).is_none())
        .unwrap();
    let node = NodeId::new;
    let vertex_scopes = [
        (vec![], 6),
        (vec![node(3)], 6),
        (vec![node(3), node(3)], 6),
        (vec![node(17)], 6),
        (vec![node(11)], 1),
    ];
    let edge_scopes = [
        (vec![], 6),
        (vec![e1], 6),
        (vec![(e1.1, e1.0), e1], 6),
        (vec![e2], 6),
        (vec![e3], 1),
    ];

    let mut queries = Vec::new();
    for kind in ["flat", "live", "sharded"] {
        for (i, (faults, pairs)) in vertex_scopes.iter().enumerate() {
            let name = format!("{kind}-vertex");
            for p in 0..*pairs {
                let (u, v) = (node((p * 5 + i) % n), node((p * 7 + 2 * i + 1) % n));
                queries.push(Query::distance(&name, faults.clone(), u, v));
                queries.push(Query::path(&name, faults.clone(), u, v));
                queries.push(Query::certificate(&name, faults.clone(), u, v));
            }
        }
        for (i, (faults, pairs)) in edge_scopes.iter().enumerate() {
            let name = format!("{kind}-edge");
            for p in 0..*pairs {
                let (u, v) = (node((p * 3 + i) % n), node((p * 11 + i + 4) % n));
                for query in [
                    Query::distance(&name, vec![], u, v),
                    Query::path(&name, vec![], u, v),
                    Query::certificate(&name, vec![], u, v),
                ] {
                    queries.push(query.with_edge_faults(faults.clone()));
                }
            }
        }
    }

    let unknown_node = |node: usize| CoreError::UnknownNode { node, nodes: n };
    let too_many = CoreError::TooManyFaults {
        given: 2,
        budget: 1,
    };
    let mismatch = |declared, requested| CoreError::FaultModelMismatch {
        declared,
        requested,
    };
    let mut errors = vec![(
        Query::distance("missing", vec![], node(0), node(1)),
        CoreError::UnknownArtifact {
            name: "missing".to_string(),
        },
    )];
    for kind in ["flat", "live", "sharded"] {
        let vertex = format!("{kind}-vertex");
        let edge = format!("{kind}-edge");
        let both = |name: &str| Query {
            edge_faults: vec![e1],
            ..Query::certificate(name, vec![node(3)], node(0), node(5))
        };
        errors.extend([
            // An unknown endpoint inside a grouped scope, and inside a
            // singleton one.
            (
                Query::distance(&vertex, vec![node(3)], node(n + 4), node(1)),
                unknown_node(n + 4),
            ),
            (
                Query::path(&vertex, vec![node(5)], node(0), node(n)),
                unknown_node(n),
            ),
            (
                Query::certificate(&edge, vec![], node(2), node(n + 1)).with_edge_faults(vec![e1]),
                unknown_node(n + 1),
            ),
            // Bad faults: an unknown vertex, an out-of-range edge endpoint,
            // a pair that is not an edge.
            (
                Query::distance(&vertex, vec![node(999)], node(0), node(1)),
                unknown_node(999),
            ),
            (
                Query::distance(&edge, vec![], node(0), node(1))
                    .with_edge_faults(vec![(node(0), node(999))]),
                unknown_node(999),
            ),
            (
                Query::path(&edge, vec![], node(0), node(1)).with_edge_faults(vec![non_edge]),
                CoreError::UnknownEdge {
                    u: non_edge.0.index(),
                    v: non_edge.1.index(),
                },
            ),
            // Over budget beats an unknown endpoint.
            (
                Query::distance(&vertex, vec![node(1), node(2)], node(n), node(1)),
                too_many.clone(),
            ),
            (
                Query::certificate(&edge, vec![], node(0), node(1)).with_edge_faults(vec![e1, e2]),
                too_many.clone(),
            ),
            // The wrong fault kind, alone and together with the right one.
            (
                Query::distance(&vertex, vec![], node(0), node(1)).with_edge_faults(vec![e1]),
                mismatch(FaultModel::Vertex, FaultModel::Edge),
            ),
            (
                Query::distance(&edge, vec![node(3)], node(0), node(1)),
                mismatch(FaultModel::Edge, FaultModel::Vertex),
            ),
            (
                both(&vertex),
                mismatch(FaultModel::Vertex, FaultModel::Edge),
            ),
            (both(&edge), mismatch(FaultModel::Edge, FaultModel::Vertex)),
        ]);
    }
    let expected = errors
        .into_iter()
        .map(|(query, error)| {
            queries.push(query);
            (queries.len() - 1, error)
        })
        .collect();
    (engine, queries, expected)
}

#[test]
fn engine_battery_plans_like_the_naive_executor() {
    let (engine, queries, errors) = engine_battery();
    let naive = engine.run_batch_naive(&queries);
    let failed = naive.iter().filter(|r| r.is_err()).count();
    assert_eq!(failed, errors.len(), "only the error queries fail");
    for (i, error) in errors {
        assert_eq!(naive[i], Err(error), "query {i}: {:?}", queries[i]);
    }
    for workers in [1usize, 2, 8] {
        let planned = engine.clone().with_workers(workers).run_batch(&queries);
        assert_eq!(naive, planned, "planner diverged at workers={workers}");
    }
}

#[test]
fn engine_battery_answers_reproduce_a_pinned_digest() {
    // FNV-1a over every answer of the battery, in input order: distance
    // bits, paths, certificate scalars and paths, and the debug form of
    // every typed error. Any change to an answer, an error or its fields
    // moves this digest.
    let (engine, queries, _) = engine_battery();
    let mut hash = FNV_OFFSET;
    for result in engine.run_batch(&queries) {
        match result {
            Ok(QueryOutcome::Distance(d)) => {
                fnv_word(&mut hash, 0);
                fnv_word(&mut hash, d.to_bits());
            }
            Ok(QueryOutcome::Path(path)) => {
                fnv_word(&mut hash, 1);
                fnv_path(&mut hash, &path);
            }
            Ok(QueryOutcome::Certificate(cert)) => {
                fnv_word(&mut hash, 2);
                for x in [cert.spanner_distance, cert.baseline_distance, cert.stretch] {
                    fnv_word(&mut hash, x.to_bits());
                }
                fnv_word(&mut hash, cert.bound.to_bits());
                fnv_path(&mut hash, &cert.path);
            }
            Err(error) => {
                fnv_word(&mut hash, 3);
                for b in format!("{error:?}").bytes() {
                    fnv_word(&mut hash, u64::from(b));
                }
            }
        }
    }
    let expected = 0x32de_b99b_b563_7295u64;
    assert_eq!(
        hash, expected,
        "engine battery digest {hash:#018x} moved from the pinned {expected:#018x}"
    );
}

//! Loopback differential test: a shuffled, mixed query batch — including
//! queries that fail with typed `CoreError`s — pushed through a real TCP
//! server must come back **identical** to what `Engine::run_batch` returns
//! in-process, at every worker count. The network layer is observationally
//! transparent; serialization is lossless down to error variants and
//! `f64::INFINITY` distances.

use fault_tolerant_spanners::prelude::*;
use ftspan_net::{Client, Server, ServerConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Two vertex-fault artifacts with different sizes, budgets and weights,
/// plus a sharded one served by scatter-gather (the same input as the demo
/// store's `wide`: G(60, 0.15) in 3 parts, `conversion` at r = 1).
fn build_engine(seed: u64) -> Engine {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generate::connected_gnp(40, 0.25, generate::WeightKind::Unit, &mut rng);
    let backbone = FtSpannerBuilder::new("conversion")
        .faults(2)
        .build_artifact(&g)
        .expect("backbone artifact builds");
    let h = generate::connected_gnp(
        24,
        0.35,
        generate::WeightKind::Uniform { min: 1.0, max: 4.0 },
        &mut rng,
    );
    let mesh = FtSpannerBuilder::new("conversion")
        .faults(1)
        .build_artifact(&h)
        .expect("mesh artifact builds");
    let wide = generate::connected_gnp(60, 0.15, generate::WeightKind::Unit, &mut rng);
    let wide = ShardedArtifact::build(
        &wide,
        &FtSpannerBuilder::new("conversion").faults(1),
        &partition::PartitionConfig::new(3).with_seed(seed),
    )
    .expect("wide artifact builds");
    let mut engine = Engine::new();
    engine.register("backbone", backbone);
    engine.register("mesh", mesh);
    engine.register_sharded("wide", wide);
    engine
}

/// A mixed batch: every query kind, repeated and fresh fault scopes, all
/// three artifacts, plus queries that must fail with typed errors (unknown
/// artifact, out-of-range vertex, over-budget scopes, wrong fault model).
fn mixed_batch(seed: u64) -> Vec<Query> {
    let scopes = [
        vec![],
        vec![NodeId::new(3)],
        vec![NodeId::new(5), NodeId::new(11)],
        vec![NodeId::new(17)],
    ];
    let mut queries = Vec::new();
    for q in 0..240usize {
        let (name, n) = if q % 3 == 0 {
            ("mesh", 24)
        } else {
            ("backbone", 40)
        };
        let scope = if name == "mesh" {
            // mesh's budget is 1: only scopes of size <= 1 are valid here.
            scopes[q % 2].clone()
        } else {
            scopes[q % scopes.len()].clone()
        };
        let u = NodeId::new((q * 7 + 1) % n);
        let v = NodeId::new((q * 11 + 3) % n);
        queries.push(match q % 5 {
            0 => Query::certificate(name, scope, u, v),
            1 => Query::path(name, scope, u, v),
            _ => Query::distance(name, scope, u, v),
        });
    }
    for q in 0..60usize {
        // wide's budget is 1 as well.
        let scope = scopes[[0, 1, 3][q % 3]].clone();
        let u = NodeId::new((q * 13 + 2) % 60);
        let v = NodeId::new((q * 17 + 5) % 60);
        queries.push(match q % 4 {
            0 => Query::certificate("wide", scope, u, v),
            1 => Query::path("wide", scope, u, v),
            _ => Query::distance("wide", scope, u, v),
        });
    }
    // Typed-error queries: each must come back as the SAME CoreError the
    // in-process engine returns.
    queries.push(Query::distance(
        "ghost",
        vec![],
        NodeId::new(0),
        NodeId::new(1),
    ));
    queries.push(Query::distance(
        "backbone",
        vec![],
        NodeId::new(4000),
        NodeId::new(1),
    ));
    queries.push(Query::path(
        "backbone",
        vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
        NodeId::new(4),
        NodeId::new(5),
    ));
    queries.push(
        Query::distance("backbone", vec![], NodeId::new(6), NodeId::new(7))
            .with_edge_faults(vec![(NodeId::new(6), NodeId::new(8))]),
    );
    queries.push(Query::certificate(
        "mesh",
        vec![NodeId::new(1), NodeId::new(2)],
        NodeId::new(0),
        NodeId::new(3),
    ));
    queries.push(Query::distance(
        "wide",
        vec![NodeId::new(5), NodeId::new(11)],
        NodeId::new(0),
        NodeId::new(9),
    ));
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51);
    queries.shuffle(&mut rng);
    queries
}

#[test]
fn server_results_are_identical_to_in_process_at_every_worker_count() {
    let engine = build_engine(2011);
    let queries = mixed_batch(2011);
    let expected = engine.run_batch(&queries);
    assert_eq!(expected.len(), queries.len());
    let error_count = expected.iter().filter(|r| r.is_err()).count();
    assert!(
        error_count >= 6,
        "the batch must exercise typed errors (got {error_count})"
    );
    let sharded_answers = queries
        .iter()
        .zip(&expected)
        .filter(|(q, r)| q.artifact == "wide" && r.is_ok())
        .count();
    assert_eq!(sharded_answers, 60, "every in-budget sharded query answers");

    for workers in [1usize, 2, 8] {
        // The engine asks for 8 workers; the server must ignore that and run
        // each batch on one of its own workers.
        let server = Server::bind(
            engine.clone().with_workers(8),
            "127.0.0.1:0",
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
        .expect("loopback bind")
        .spawn()
        .expect("server spawns");

        // Whole batch in one frame.
        let mut client = Client::connect(server.addr()).expect("loopback connect");
        // Engine clones share one stats sink, so compare deltas.
        let before = client.stats().expect("stats succeed").engine;
        let one_shot = client
            .run_batch(&queries)
            .expect("request succeeds")
            .expect_results()
            .expect("batch is admitted");
        assert_eq!(
            one_shot, expected,
            "one-frame batch differs at workers={workers}"
        );
        // A served batch is never split: each (artifact, fault scope) group
        // is one unit, with one session and one source cache.
        let after = client.stats().expect("stats succeed").engine;
        let groups = after.planner_groups - before.planner_groups;
        assert!(groups > 1, "the batch spans several scope groups");
        assert_eq!(
            after.planner_units - before.planner_units,
            groups,
            "the server split a batch at workers={workers}"
        );

        // Same batch chunked across many frames: per-query answers are
        // independent of batch composition, so the concatenation must match
        // the one-shot result too.
        let mut chunked = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(17) {
            chunked.extend(
                client
                    .run_batch(chunk)
                    .expect("request succeeds")
                    .expect_results()
                    .expect("batch is admitted"),
            );
        }
        assert_eq!(
            chunked, expected,
            "chunked batch differs at workers={workers}"
        );

        drop(client);
        let stats = server.shutdown().expect("clean shutdown");
        let requests = 1 + queries.len().div_ceil(17) as u64;
        assert_eq!(stats.batches_completed, requests);
        assert_eq!(stats.batches_rejected, 0);
        assert_eq!(stats.queue_depth, 0);
    }
}

#[test]
fn artifact_listing_and_stats_reflect_the_engine() {
    let engine = build_engine(7);
    let server = Server::bind(engine, "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind")
        .spawn()
        .expect("server spawns");
    let mut client = Client::connect(server.addr()).expect("loopback connect");

    let mut artifacts = client.artifacts().expect("listing succeeds");
    artifacts.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(artifacts.len(), 3);
    assert_eq!(artifacts[0].name, "backbone");
    assert_eq!(artifacts[0].fault_budget, 2);
    assert_eq!(artifacts[0].nodes, 40);
    assert!(artifacts[0].spanner_edges > 0);
    assert_eq!(artifacts[1].name, "mesh");
    assert_eq!(artifacts[1].fault_budget, 1);
    assert_eq!(artifacts[1].nodes, 24);
    assert_eq!(artifacts[2].name, "wide");
    assert_eq!(artifacts[2].fault_budget, 1);
    assert_eq!(artifacts[2].nodes, 60);

    let before = client.stats().expect("stats succeed");
    assert_eq!(before.batches_completed, 0);
    client
        .run_batch(&[Query::distance(
            "backbone",
            vec![],
            NodeId::new(0),
            NodeId::new(5),
        )])
        .expect("request succeeds")
        .expect_results()
        .expect("batch admitted");
    let after = client.stats().expect("stats succeed");
    assert_eq!(after.batches_completed, 1);
    assert_eq!(after.engine.queries, 1);
    assert_eq!(after.connections_accepted, 1);

    drop(client);
    server.shutdown().expect("clean shutdown");
}

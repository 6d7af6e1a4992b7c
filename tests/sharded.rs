//! Differential battery for the sharded serving path.
//!
//! An [`Engine`] holding a sharded artifact must be observationally
//! indistinguishable from an engine holding the equivalent single artifact —
//! the union of the per-shard spanners plus every cut edge, assembled by
//! [`ShardedArtifact::to_union_artifact`]. Distances and certificate scalars
//! must match bit-for-bit, paths must be equally short and walk only
//! surviving spanner edges (tie-breaks may legitimately differ), and typed
//! errors must be identical — on G(n, p) and grid topologies, under vertex
//! and edge faults, at any worker count and cache capacity. Certificate
//! baselines are additionally oracle-checked against a fresh Dijkstra run on
//! the source graph, independent of both serving paths.

use fault_tolerant_spanners::core::CoreError;
use fault_tolerant_spanners::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One engine's answers to a batch, in input order.
type BatchResults = Vec<Result<QueryOutcome, CoreError>>;

/// Builds the differential pair over `g`: a sharded artifact cut into
/// `parts` and the single-artifact reference carrying exactly the same
/// spanner edge set over the same source graph.
fn differential_pair(g: &Graph, parts: usize, seed: u64) -> (ShardedArtifact, FtSpanner) {
    let builder = FtSpannerBuilder::new("conversion").faults(1).stretch(3.0);
    let config = partition::PartitionConfig::new(parts).with_seed(seed);
    let sharded = ShardedArtifact::build(g, &builder, &config).expect("sharded build succeeds");
    let union = sharded
        .to_union_artifact()
        .expect("union artifact assembles");
    (sharded, union)
}

/// A mixed battery of vertex-fault queries against `names` (which may
/// include unregistered artifacts): all three query kinds, fault lists that
/// are empty, valid, duplicated, oversized, or out of range.
fn vertex_battery(names: &[&str], n: usize, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let name = names[rng.gen_range(0..names.len())];
            let u = NodeId::new(rng.gen_range(0..n));
            let v = NodeId::new(rng.gen_range(0..n));
            let mut faults: Vec<NodeId> = (0..rng.gen_range(0..3usize))
                .map(|_| NodeId::new(rng.gen_range(0..n + 2)))
                .collect();
            if rng.gen_bool(0.2) && !faults.is_empty() {
                faults.push(faults[0]); // duplicates must dedup, not count twice
            }
            match rng.gen_range(0..3usize) {
                0 => Query::distance(name, faults, u, v),
                1 => Query::path(name, faults, u, v),
                _ => Query::certificate(name, faults, u, v),
            }
        })
        .collect()
}

/// Checks one (sharded, reference) path pair: same reachability, equal
/// length, and the sharded path walks only surviving spanner edges of the
/// union artifact — no dead vertex, no dead edge.
fn assert_path_equivalent(
    i: usize,
    query: &Query,
    union: &FtSpanner,
    sharded_path: &Option<Vec<NodeId>>,
    reference_path: &Option<Vec<NodeId>>,
) {
    let spanner_graph = union.source_graph();
    match (sharded_path, reference_path) {
        (None, None) => {}
        (Some(p), Some(q)) => {
            assert_eq!(p.first(), Some(&query.u), "query {i}: path start");
            assert_eq!(p.last(), Some(&query.v), "query {i}: path end");
            let length = |path: &[NodeId]| {
                path.windows(2)
                    .map(|w| {
                        let id = spanner_graph
                            .find_edge(w[0], w[1])
                            .unwrap_or_else(|| panic!("query {i}: hop not an edge"));
                        assert!(
                            union.spanner_edges().contains(id),
                            "query {i}: hop outside the spanner"
                        );
                        spanner_graph.edge(id).weight
                    })
                    .sum::<f64>()
            };
            let (la, lb) = (length(p), length(q));
            assert!(
                (la - lb).abs() < 1e-9,
                "query {i}: sharded path length {la} != reference {lb}"
            );
            assert!(
                !p.iter().any(|x| query.faults.contains(x)),
                "query {i}: sharded path visits a dead vertex"
            );
            for w in p.windows(2) {
                let dead = query
                    .edge_faults
                    .iter()
                    .any(|&(a, b)| (a, b) == (w[0], w[1]) || (a, b) == (w[1], w[0]));
                assert!(!dead, "query {i}: sharded path crosses a dead edge");
            }
        }
        _ => panic!("query {i}: reachability diverged: {sharded_path:?} vs {reference_path:?}"),
    }
}

/// Asserts the sharded results match the union-reference results: bit-equal
/// distances, certificate scalars and errors; structurally equivalent paths.
fn assert_differential(
    g: &Graph,
    union: &FtSpanner,
    queries: &[Query],
    sharded: &[Result<QueryOutcome, CoreError>],
    reference: &[Result<QueryOutcome, CoreError>],
) {
    assert_eq!(sharded.len(), queries.len());
    assert_eq!(reference.len(), queries.len());
    for (i, ((s, r), query)) in sharded.iter().zip(reference).zip(queries).enumerate() {
        match (s, r) {
            (Ok(QueryOutcome::Path(a)), Ok(QueryOutcome::Path(b))) => {
                assert_path_equivalent(i, query, union, a, b)
            }
            (Ok(QueryOutcome::Certificate(a)), Ok(QueryOutcome::Certificate(b))) => {
                assert_eq!(a.u, b.u, "query {i}: certificate u");
                assert_eq!(a.v, b.v, "query {i}: certificate v");
                assert_eq!(
                    a.spanner_distance.to_bits(),
                    b.spanner_distance.to_bits(),
                    "query {i}: certificate spanner distance"
                );
                assert_eq!(
                    a.baseline_distance.to_bits(),
                    b.baseline_distance.to_bits(),
                    "query {i}: certificate baseline distance"
                );
                assert_eq!(
                    a.stretch.to_bits(),
                    b.stretch.to_bits(),
                    "query {i}: certificate stretch"
                );
                assert_eq!(
                    a.bound.to_bits(),
                    b.bound.to_bits(),
                    "query {i}: certificate bound"
                );
                assert_path_equivalent(i, query, union, &a.path, &b.path);
            }
            _ => assert_eq!(s, r, "query {i} ({:?}) diverged", query.kind),
        }
        // Oracle check, independent of both serving paths: every certificate
        // holds and its baseline equals a fresh Dijkstra on the source graph
        // with the faulted vertices removed.
        if let Ok(QueryOutcome::Certificate(cert)) = s {
            assert!(cert.holds(), "query {i}: certificate does not hold");
            if query.edge_faults.is_empty() {
                let mut dead = vec![false; g.node_count()];
                for f in &query.faults {
                    dead[f.index()] = true;
                }
                if !dead[query.u.index()] && !dead[query.v.index()] {
                    let oracle = shortest_path::dijkstra_avoiding(g, query.u, &dead)
                        .expect("oracle dijkstra runs");
                    assert_eq!(
                        cert.baseline_distance.to_bits(),
                        oracle[query.v.index()].to_bits(),
                        "query {i}: baseline diverges from the source-graph oracle"
                    );
                }
            }
        }
    }
}

/// Registers the pair under the same name in two engines and returns
/// `(sharded grouped results, union naive-reference results)`.
fn run_differential(
    sharded: &ShardedArtifact,
    union: &FtSpanner,
    queries: &[Query],
) -> (BatchResults, BatchResults) {
    let mut sharded_engine = Engine::new();
    sharded_engine.register_sharded("net", sharded.clone());
    let mut union_engine = Engine::new();
    union_engine.register("net", union.clone());
    let got = sharded_engine.run_batch(queries);
    let want = union_engine.run_batch_naive(queries);
    (got, want)
}

#[test]
fn gnp_sharded_engine_matches_union_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let g = generate::connected_gnp(36, 0.18, generate::WeightKind::Unit, &mut rng);
    let (sharded, union) = differential_pair(&g, 3, 5);
    assert_eq!(sharded.shard_count(), 3);
    assert!(
        sharded.cut_edge_count() > 0,
        "partition should cut something"
    );
    let queries = vertex_battery(&["net", "net", "net", "ghost"], g.node_count(), 160, 21);
    let (got, want) = run_differential(&sharded, &union, &queries);
    assert_differential(&g, &union, &queries, &got, &want);
    // The battery must actually exercise unknown-artifact routing.
    let ghosts = queries.iter().filter(|q| q.artifact == "ghost").count();
    assert!(ghosts > 0, "battery should include unknown artifacts");
}

#[test]
fn grid_sharded_engine_matches_union_reference() {
    let g = generate::grid(6, 7);
    let (sharded, union) = differential_pair(&g, 4, 9);
    assert_eq!(sharded.shard_count(), 4);
    let queries = vertex_battery(&["net"], g.node_count(), 160, 33);
    let (got, want) = run_differential(&sharded, &union, &queries);
    assert_differential(&g, &union, &queries, &got, &want);
}

#[test]
fn worker_count_does_not_change_sharded_answers() {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let g = generate::connected_gnp(30, 0.2, generate::WeightKind::Unit, &mut rng);
    let (sharded, _) = differential_pair(&g, 3, 2);
    let queries = vertex_battery(&["net"], g.node_count(), 120, 41);

    let mut engine = Engine::new();
    engine.register_sharded("net", sharded);
    let baseline = engine.clone().with_workers(1).run_batch(&queries);
    for workers in [2, 8] {
        let got = engine.clone().with_workers(workers).run_batch(&queries);
        assert_eq!(baseline, got, "answers changed at workers {workers}");
    }
}

#[test]
fn engine_and_direct_sharded_sessions_share_one_cache_capacity() {
    // More than 64 boundary vertices, so a per-shard capacity derived from
    // the boundary would keep more trees than the engine's sessions do.
    let g = generate::grid(24, 24);
    let builder = FtSpannerBuilder::new("conversion").faults(1).stretch(3.0);
    let config = partition::PartitionConfig::new(4).with_seed(5);
    let sharded = ShardedArtifact::build(&g, &builder, &config).expect("sharded build succeeds");
    assert!(sharded.boundary_vertices().len() > 64);

    // Two passes of path queries from 70 interior sources of shard 0 to one
    // far vertex: a cycle longer than the per-shard cache, so it evicts.
    let target = NodeId::new(g.node_count() - 1);
    let sources: Vec<NodeId> = g
        .nodes()
        .filter(|&x| {
            sharded.part_of(x) == 0 && sharded.boundary_vertices().binary_search(&x).is_err()
        })
        .take(70)
        .collect();
    assert_eq!(sources.len(), 70);
    let pass: Vec<Query> = sources
        .iter()
        .map(|&u| Query::path("net", vec![], u, target))
        .collect();

    let mut direct = sharded.under_faults(&[]).expect("opens");
    let mut answers = Vec::new();
    for query in &pass {
        answers.push(direct.path(query.u, query.v).expect("path"));
    }
    let first_pass = direct.cache_stats();
    for query in &pass {
        answers.push(direct.path(query.u, query.v).expect("path"));
    }
    let stats = direct.cache_stats();

    let mut engine = Engine::new().with_workers(1);
    engine.register_sharded("net", sharded);
    let batch: Vec<Query> = pass.iter().chain(&pass).cloned().collect();
    let results = engine.run_batch(&batch);
    let want: Vec<_> = answers
        .into_iter()
        .map(|p| Ok(QueryOutcome::Path(p)))
        .collect();
    assert_eq!(results, want);
    let served = engine.stats();
    assert_eq!(
        (served.cache_hits, served.cache_misses),
        (stats.hits, stats.misses),
        "the engine and a direct session count the same hits and misses"
    );
    assert!(
        stats.misses > first_pass.misses,
        "the second pass must miss evicted trees"
    );
}

#[test]
fn edge_fault_sharded_engine_matches_union_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let g = generate::connected_gnp(30, 0.2, generate::WeightKind::Unit, &mut rng);
    let builder = FtSpannerBuilder::new("edge-fault").faults(1).stretch(3.0);
    let config = partition::PartitionConfig::new(2).with_seed(4);
    let sharded = ShardedArtifact::build(&g, &builder, &config).expect("sharded build succeeds");
    let union = sharded
        .to_union_artifact()
        .expect("union artifact assembles");

    // Edge faults drawn from the real edge list (cut and intra-shard edges
    // alike), plus fabricated non-edges and out-of-range endpoints.
    let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(_, e)| (e.u, e.v)).collect();
    let n = g.node_count();
    let mut battery_rng = ChaCha8Rng::seed_from_u64(51);
    let queries: Vec<Query> = (0..160)
        .map(|_| {
            let u = NodeId::new(battery_rng.gen_range(0..n));
            let v = NodeId::new(battery_rng.gen_range(0..n));
            let edge_faults: Vec<(NodeId, NodeId)> = (0..battery_rng.gen_range(0..3usize))
                .map(|_| match battery_rng.gen_range(0..8usize) {
                    0 => (u, u),                               // self-loop: never an edge
                    1 => (NodeId::new(n + 1), NodeId::new(0)), // out of range
                    _ => edges[battery_rng.gen_range(0..edges.len())],
                })
                .collect();
            let base = match battery_rng.gen_range(0..3usize) {
                0 => Query::distance("net", Vec::new(), u, v),
                1 => Query::path("net", Vec::new(), u, v),
                _ => Query::certificate("net", Vec::new(), u, v),
            };
            if battery_rng.gen_bool(0.1) {
                // Wrong fault kind: must be a FaultModelMismatch either way.
                Query {
                    faults: vec![NodeId::new(0)],
                    ..base
                }
            } else {
                base.with_edge_faults(edge_faults)
            }
        })
        .collect();

    let (got, want) = run_differential(&sharded, &union, &queries);
    assert_differential(&g, &union, &queries, &got, &want);
}

/// Answers each query through a fresh session on `artifact`, the way a
/// server answers a one-query request.
fn serve(artifact: &ShardedArtifact, queries: &[Query]) -> BatchResults {
    queries
        .iter()
        .map(|q| {
            let mut session = if artifact.fault_model() == FaultModel::Edge {
                artifact.under_edge_faults(&q.edge_faults)?
            } else {
                artifact.under_faults(&q.faults)?
            };
            Ok(match q.kind {
                QueryKind::Distance => QueryOutcome::Distance(session.distance(q.u, q.v)?),
                QueryKind::Path => QueryOutcome::Path(session.path(q.u, q.v)?),
                QueryKind::Certificate => {
                    QueryOutcome::Certificate(session.stretch_certificate(q.u, q.v)?)
                }
            })
        })
        .collect()
}

/// Bit-exact comparison: `{:?}` prints every `f64` with its sign and in
/// shortest round-trip form, so equal strings mean equal bits.
fn assert_bit_equal(got: &BatchResults, want: &BatchResults, what: &str) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
}

/// Fills the shared fault-free rows of every boundary vertex (spanner and
/// baseline) with fault-free certificates between boundary vertices.
fn warm(artifact: &ShardedArtifact) {
    assert_eq!(artifact.shared_row_bytes(), 0, "a fresh artifact is cold");
    let boundary = artifact.boundary_vertices();
    let queries: Vec<Query> = boundary
        .iter()
        .zip(boundary.iter().rev())
        .map(|(&a, &b)| Query::certificate("net", vec![], a, b))
        .collect();
    for answer in serve(artifact, &queries) {
        answer.expect("fault-free queries answer");
    }
    assert!(artifact.shared_row_bytes() > 0, "warming fills shared rows");
}

/// A boundary pair `(a, b)` of one shard, the shard's own shortest `a`–`b`
/// path in global ids and its length, for every such pair the shard
/// connects (read from the shard artifacts, so the sharded one stays cold).
fn internal_boundary_paths(sharded: &ShardedArtifact) -> Vec<(NodeId, NodeId, Vec<NodeId>, f64)> {
    let boundary = sharded.boundary_vertices();
    let mut found = Vec::new();
    for (i, &a) in boundary.iter().enumerate() {
        for &b in &boundary[i + 1..] {
            let p = sharded.part_of(a);
            if sharded.part_of(b) != p {
                continue;
            }
            let members = sharded.shard_members(p);
            let local = |x: NodeId| NodeId::new(members.binary_search(&x).expect("member"));
            let session = sharded.shards()[p].session();
            if let Some(path) = session.path(local(a), local(b)).expect("path") {
                let length = session.distance(local(a), local(b)).expect("distance");
                let path = path.iter().map(|l| members[l.index()]).collect();
                found.push((a, b, path, length));
            }
        }
    }
    found
}

/// `(a, b, scope)` where `scope` faults the inside of a shard's own
/// shortest boundary path `a`–`b` and lengthens `d(a, b)` in the union
/// spanner: a session that read that shard's fault-free rows would answer
/// `(a, b)` too short. `faults_of` proposes the scopes for one path.
fn sharp_fault<S>(
    sharded: &ShardedArtifact,
    faulted_distance: impl Fn(&S, NodeId, NodeId) -> f64,
    faults_of: impl Fn(&[NodeId]) -> Vec<S>,
) -> (NodeId, NodeId, S) {
    for (a, b, path, free) in internal_boundary_paths(sharded) {
        for scope in faults_of(&path) {
            if faulted_distance(&scope, a, b) > free * (1.0 + 1e-9) {
                return (a, b, scope);
            }
        }
    }
    panic!("no shard-internal fault lengthens a boundary distance; pick another seed")
}

/// The battery: every query kind for the sharp pair under its fault, then
/// strided pairs under the same fault, then the same pairs fault-free (so a
/// cold artifact answers faulted queries before any fault-free ones).
fn sharp_battery(n: usize, a: NodeId, b: NodeId, faulted: impl Fn(Query) -> Query) -> Vec<Query> {
    let strided = (0..n).step_by(3).flat_map(|u| {
        (1..n)
            .step_by(4)
            .map(move |v| (NodeId::new(u), NodeId::new(v)))
    });
    let pairs: Vec<(NodeId, NodeId)> = [(a, b), (a, b), (a, b)]
        .into_iter()
        .chain(strided)
        .collect();
    let query = |i: usize, (u, v): (NodeId, NodeId)| match i % 3 {
        0 => Query::distance("net", vec![], u, v),
        1 => Query::path("net", vec![], u, v),
        _ => Query::certificate("net", vec![], u, v),
    };
    let faulted_queries = pairs.iter().enumerate().map(|(i, &p)| faulted(query(i, p)));
    let free_queries = pairs.iter().enumerate().map(|(i, &p)| query(i, p));
    faulted_queries.chain(free_queries).collect()
}

/// Runs `battery` from two threads over one shared cold artifact, released
/// together so they race to fill the same rows; each thread's answers must
/// be bit-equal to `sequential`.
fn assert_threads_agree(cold: &ShardedArtifact, battery: &[Query], sequential: &BatchResults) {
    assert_eq!(cold.shared_row_bytes(), 0);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    serve(cold, battery)
                })
            })
            .collect();
        for handle in handles {
            let got = handle.join().expect("thread answers");
            assert_bit_equal(
                &got,
                sequential,
                "a thread diverged from the sequential run",
            );
        }
    });
}

#[test]
fn shared_fault_free_rows_never_answer_for_a_faulted_shard() {
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let g = generate::connected_gnp(40, 0.15, generate::WeightKind::Unit, &mut rng);
    let n = g.node_count();

    // Vertex faults: the fault sits inside a shard's own shortest path
    // between two of its boundary vertices.
    let (sharded, union) = differential_pair(&g, 3, 7);
    let cold = sharded.clone();
    let (a, b, x) = sharp_fault(
        &sharded,
        |&x, a, b| union.under_faults(&[x]).unwrap().distance(a, b).unwrap(),
        |path| path[1..path.len() - 1].to_vec(),
    );
    let battery = sharp_battery(n, a, b, |q| Query {
        faults: vec![x],
        ..q
    });
    warm(&sharded);
    let got = serve(&sharded, &battery);
    let want = Engine::new()
        .register("net", union.clone())
        .run_batch_naive(&battery);
    assert_differential(&g, &union, &battery, &got, &want);
    assert_threads_agree(&cold, &battery, &got);

    // Edge faults: an intra-shard edge of such a path.
    let builder = FtSpannerBuilder::new("edge-fault").faults(1).stretch(3.0);
    let config = partition::PartitionConfig::new(3).with_seed(7);
    let sharded = ShardedArtifact::build(&g, &builder, &config).expect("sharded build succeeds");
    let union = sharded.to_union_artifact().expect("union assembles");
    let cold = sharded.clone();
    let (a, b, e) = sharp_fault(
        &sharded,
        |&e, a, b| {
            union
                .under_edge_faults(&[e])
                .unwrap()
                .distance(a, b)
                .unwrap()
        },
        |path| path.windows(2).map(|w| (w[0], w[1])).collect(),
    );
    let battery = sharp_battery(n, a, b, |q| q.with_edge_faults(vec![e]));
    warm(&sharded);
    let got = serve(&sharded, &battery);
    let want = Engine::new()
        .register("net", union.clone())
        .run_batch_naive(&battery);
    assert_differential(&g, &union, &battery, &got, &want);
    assert_threads_agree(&cold, &battery, &got);
}

#[test]
fn warm_weighted_mesh_answers_bit_for_bit_like_a_cold_artifact() {
    let g = GeneratorSpec::PlanarMesh {
        rows: 7,
        cols: 8,
        diagonal_p: 0.4,
        jitter: 0.25,
        seed: 2026,
    }
    .generate()
    .expect("mesh generates");
    let builder = FtSpannerBuilder::new("conversion").faults(1).seed(81);
    let config = partition::PartitionConfig::new(3).with_seed(81);
    let sharded = ShardedArtifact::build(&g, &builder, &config).expect("sharded build succeeds");
    let union = sharded.to_union_artifact().expect("union assembles");
    let (cold, threaded) = (sharded.clone(), sharded.clone());
    let (a, b, x) = sharp_fault(
        &sharded,
        |&x, a, b| union.under_faults(&[x]).unwrap().distance(a, b).unwrap(),
        |path| path[1..path.len() - 1].to_vec(),
    );
    let battery = sharp_battery(g.node_count(), a, b, |q| Query {
        faults: vec![x],
        ..q
    });

    warm(&sharded);
    let got = serve(&sharded, &battery);
    assert_bit_equal(
        &got,
        &serve(&cold, &battery),
        "warm and cold artifacts diverged",
    );
    assert_threads_agree(&threaded, &battery, &got);
    // Against the union spanner only summation order may differ.
    let want = Engine::new()
        .register("net", union)
        .run_batch_naive(&battery);
    for (i, (s, r)) in got.iter().zip(&want).enumerate() {
        let (Ok(QueryOutcome::Distance(s)), Ok(QueryOutcome::Distance(r))) = (s, r) else {
            continue;
        };
        assert!(
            (s - r).abs() <= 1e-12 * s.abs().max(r.abs()).max(1.0),
            "query {i}: sharded distance {s} vs union distance {r}"
        );
    }
}

/// `{0, 1, 2}`-integer weights (every sum exact, zero-weight ties
/// everywhere) and `r = 2` vertex faults, both in one shard and split
/// across two: faulted shards answer from repaired fault-free rows, and
/// distances, path lengths and certificate scalars must be bit-equal to the
/// union artifact — through batched engine sessions and through a fresh
/// session per query.
#[test]
fn tied_integer_weights_under_two_faults_match_the_union_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(61);
    let unit = generate::connected_gnp(40, 0.15, generate::WeightKind::Unit, &mut rng);
    let g = Graph::from_edges(
        unit.node_count(),
        unit.edges()
            .map(|(_, e)| (e.u.index(), e.v.index(), f64::from(rng.gen_range(0u8..3))))
            .collect::<Vec<_>>(),
    )
    .expect("reweighted graph");
    let builder = FtSpannerBuilder::new("conversion").faults(2).stretch(3.0);
    let config = partition::PartitionConfig::new(3).with_seed(61);
    let sharded = ShardedArtifact::build(&g, &builder, &config).expect("sharded build succeeds");
    let union = sharded.to_union_artifact().expect("union assembles");

    // Two faults in each shard (a boundary vertex and an inner one where
    // the shard has both), and one fault in each of two shards.
    let boundary = sharded.boundary_vertices();
    let mut scopes = Vec::new();
    for p in 0..sharded.shard_count() {
        let members = sharded.shard_members(p);
        let b = members.iter().copied().find(|x| boundary.contains(x));
        let inner = members.iter().copied().rev().find(|x| Some(*x) != b);
        scopes.push(b.into_iter().chain(inner).collect::<Vec<_>>());
    }
    for p in 0..sharded.shard_count() {
        let q = (p + 1) % sharded.shard_count();
        scopes.push(vec![
            sharded.shard_members(p)[1],
            sharded.shard_members(q)[2],
        ]);
    }
    assert!(scopes.iter().all(|s| s.len() == 2));

    let n = g.node_count();
    let queries: Vec<Query> = scopes
        .iter()
        .flat_map(|faults| {
            (0..n).step_by(2).flat_map(move |u| {
                (1..n).step_by(3).map(move |v| {
                    let (u, v) = (NodeId::new(u), NodeId::new(v));
                    match (u.index() + v.index()) % 3 {
                        0 => Query::distance("net", faults.clone(), u, v),
                        1 => Query::path("net", faults.clone(), u, v),
                        _ => Query::certificate("net", faults.clone(), u, v),
                    }
                })
            })
        })
        .collect();
    let (batched, want) = run_differential(&sharded, &union, &queries);
    assert_differential(&g, &union, &queries, &batched, &want);
    let fresh = serve(&sharded, &queries);
    assert_differential(&g, &union, &queries, &fresh, &want);

    // Path lengths are exact sums too: bit-equal, not merely close.
    let spanner_graph = union.source_graph();
    let length = |path: &[NodeId]| {
        path.windows(2)
            .map(|w| {
                spanner_graph
                    .edge(spanner_graph.find_edge(w[0], w[1]).unwrap())
                    .weight
            })
            .sum::<f64>()
    };
    let mut compared = 0;
    for got in [&batched, &fresh] {
        for (i, (s, r)) in got.iter().zip(&want).enumerate() {
            let (s, r) = match (s, r) {
                (Ok(QueryOutcome::Path(Some(s))), Ok(QueryOutcome::Path(Some(r)))) => (s, r),
                (Ok(QueryOutcome::Certificate(s)), Ok(QueryOutcome::Certificate(r))) => {
                    match (&s.path, &r.path) {
                        (Some(s), Some(r)) => (s, r),
                        _ => continue,
                    }
                }
                _ => continue,
            };
            assert_eq!(
                length(s).to_bits(),
                length(r).to_bits(),
                "query {i}: path length"
            );
            compared += 1;
        }
    }
    assert!(compared > 100, "the battery compares paths ({compared})");
}

//! End-to-end smoke test for `ftspan_serve` — the driver of the CI
//! serve-smoke job:
//!
//! ```text
//! delta_smoke STORE_DIR ADDR [--artifact NAME] [--shutdown]
//! ```
//!
//! Connects to a running `ftspan_serve --dynamic` instance serving
//! `STORE_DIR` and checks three things; any transport or protocol error,
//! typed rejection, or answer mismatch panics (non-zero exit).
//!
//! 1. **Load.** A [`BURST`]-long burst on [`BURST_CONNECTIONS`]
//!    connections sends seeded batches of distance, path and certificate
//!    queries over every artifact the server lists — sharded ones
//!    included, so scatter-gather is exercised. Fault scopes rotate;
//!    edge-fault artifacts are queried fault-free. An `Overloaded` reply
//!    is retried after 1 ms. The burst must sustain [`MIN_QPS`], and the
//!    server's stats are printed as `key=value` lines afterwards.
//! 2. **Promotion.** The promoted artifact is invisible until the first
//!    delta: a mixed query battery against the server must answer
//!    bit-identically to the flat stored artifact loaded locally.
//! 3. **Repair.** A deterministic edge-delta batch goes to `NAME` (default
//!    `mesh`) through `ApplyDeltas`, and the warm-swapped artifact must
//!    answer the battery **identically** to a from-scratch
//!    `DynamicArtifact::build` on the post-delta graph computed locally —
//!    the paper-level repair invariant, checked over a real socket.
//!
//! With `--shutdown`, asks the server to drain and exit afterwards.

use fault_tolerant_spanners::core::dynamic::apply_deltas;
use fault_tolerant_spanners::core::FaultModel;
use fault_tolerant_spanners::prelude::*;
use fault_tolerant_spanners::{ArtifactStore, BuildRecipe, DynamicArtifact, EdgeDelta};
use ftspan_net::{BatchReply, Client, ServerStats};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long the load burst runs.
const BURST: Duration = Duration::from_secs(2);
/// Concurrent connections driving the burst.
const BURST_CONNECTIONS: u64 = 2;
/// Queries per second the burst must sustain.
const MIN_QPS: f64 = 5_000.0;
/// Queries per request frame in the burst.
const BURST_BATCH: usize = 32;

/// One burst connection: seeded batches over every artifact the server
/// lists until `deadline`. Returns the queries answered per artifact.
fn drive(addr: &str, seed: u64, deadline: Instant) -> BTreeMap<String, u64> {
    let mut client = Client::connect(addr).expect("server is reachable");
    let artifacts = client.artifacts().expect("artifact listing succeeds");
    assert!(!artifacts.is_empty(), "the server holds no artifacts");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut answered: BTreeMap<String, u64> =
        artifacts.iter().map(|a| (a.name.clone(), 0)).collect();
    let mut rotation = 0usize;
    while Instant::now() < deadline {
        let mut queries = Vec::with_capacity(BURST_BATCH);
        for _ in 0..BURST_BATCH {
            let info = &artifacts[rng.gen_range(0..artifacts.len())];
            let n = (info.nodes as usize).max(1);
            let (u, v) = (
                NodeId::new(rng.gen_range(0..n)),
                NodeId::new(rng.gen_range(0..n)),
            );
            // The fault-free scope, then three single-vertex scopes.
            rotation = (rotation + 1) % 4;
            let scope = if rotation == 0 || info.fault_model == FaultModel::Edge {
                Vec::new()
            } else {
                vec![NodeId::new((rotation * 7 + 1) % n)]
            };
            let name = info.name.as_str();
            queries.push(match rng.gen_range(0..8u32) {
                0 => Query::certificate(name, scope, u, v),
                1 => Query::path(name, scope, u, v),
                _ => Query::distance(name, scope, u, v),
            });
        }
        loop {
            match client.run_batch(&queries).expect("burst request succeeds") {
                BatchReply::Results(results) => {
                    assert_eq!(results.len(), queries.len(), "one answer per query");
                    for query in &queries {
                        *answered.get_mut(&query.artifact).expect("listed artifact") += 1;
                    }
                    break;
                }
                BatchReply::Overloaded => std::thread::sleep(Duration::from_millis(1)),
                BatchReply::ShuttingDown => panic!("the server shut down during the burst"),
            }
        }
    }
    answered
}

/// Runs the load burst and asserts its throughput floor and coverage.
fn burst(addr: &str) {
    let start = Instant::now();
    let deadline = start + BURST;
    let connections: Vec<_> = (0..BURST_CONNECTIONS)
        .map(|i| {
            let addr = addr.to_string();
            std::thread::spawn(move || drive(&addr, 2011 + i, deadline))
        })
        .collect();
    let mut answered = BTreeMap::new();
    for connection in connections {
        let per_artifact = connection.join().expect("burst connection panicked");
        for (name, count) in per_artifact {
            *answered.entry(name).or_insert(0) += count;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total: u64 = answered.values().sum();
    let qps = total as f64 / elapsed;
    println!(
        "delta-smoke burst: {total} queries in {elapsed:.2} s on {BURST_CONNECTIONS} \
         connections ({qps:.0} q/s, floor {MIN_QPS:.0}), 0 protocol errors"
    );
    for (name, count) in &answered {
        println!("delta-smoke burst: {name} answered {count} queries");
    }
    assert!(
        answered.values().all(|&count| count > 0),
        "every served artifact answers queries"
    );
    assert!(
        qps >= MIN_QPS,
        "burst throughput {qps:.0} q/s is below the {MIN_QPS:.0} q/s floor"
    );
}

/// Prints the server's counters, one `key=value` line each.
fn print_stats(stats: &ServerStats) {
    let engine = &stats.engine;
    for (key, value) in [
        ("connections_accepted", stats.connections_accepted),
        ("batches_completed", stats.batches_completed),
        ("batches_rejected", stats.batches_rejected),
        ("queue_depth", stats.queue_depth),
        ("engine_queries", engine.queries),
        ("planner_groups", engine.planner_groups),
        ("planner_units", engine.planner_units),
        ("cache_hits", engine.cache_hits),
        ("cache_misses", engine.cache_misses),
        ("swaps", engine.swaps),
        ("deltas_applied", engine.deltas_applied),
        ("rebuilds", engine.rebuilds),
    ] {
        println!("{key}={value}");
    }
    println!("cache_hit_rate={:.3}", engine.hit_rate());
}

fn main() {
    let mut positional = Vec::new();
    let mut artifact_name = "mesh".to_string();
    let mut shutdown = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--artifact" => {
                artifact_name = it.next().expect("--artifact requires a value");
            }
            "--shutdown" => shutdown = true,
            other => positional.push(other.to_string()),
        }
    }
    let [store_dir, addr] = positional.as_slice() else {
        panic!("usage: delta_smoke STORE_DIR ADDR [--artifact NAME] [--shutdown]");
    };

    // Re-derive the exact recipe the server's `--dynamic` promotion used:
    // the one recorded in the stored artifact's own provenance tag.
    let store = ArtifactStore::open(store_dir).expect("store opens");
    let flat = store.load(&artifact_name).expect("stored artifact loads");
    let base = flat.source_graph().clone();
    let recipe = BuildRecipe::from_tagged_provenance(flat.algorithm(), flat.provenance())
        .expect("the stored artifact records its build recipe");

    // A deterministic churn batch: drop the first edge, reweight the last,
    // and insert the lexicographically first absent pair.
    let n = base.node_count();
    let (_, first) = base.edges().next().expect("graph has edges");
    let (_, last) = base.edges().last().expect("graph has edges");
    let absent = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .find(|&(u, v)| {
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            base.find_edge(u, v).is_none() && !(first.u == u && first.v == v)
        })
        .expect("the demo graphs are not complete");
    let deltas = vec![
        EdgeDelta::Delete {
            u: first.u,
            v: first.v,
        },
        EdgeDelta::Reweight {
            u: last.u,
            v: last.v,
            weight: last.weight + 0.5,
        },
        EdgeDelta::Insert {
            u: NodeId::new(absent.0),
            v: NodeId::new(absent.1),
            weight: 1.25,
        },
    ];

    // A mixed battery: plain and fault-scoped distances, paths and
    // certificates, plus one over-budget scope that must fail identically.
    let battery = |n: usize| {
        let mut queries = Vec::new();
        for q in 0..60usize {
            let u = NodeId::new((q * 7 + 1) % n);
            let v = NodeId::new((q * 11 + 3) % n);
            let scope = if q % 3 == 0 {
                vec![NodeId::new((q * 5 + 2) % n)]
            } else {
                vec![]
            };
            queries.push(match q % 4 {
                0 => Query::certificate(&artifact_name, scope, u, v),
                1 => Query::path(&artifact_name, scope, u, v),
                _ => Query::distance(&artifact_name, scope, u, v),
            });
        }
        queries.push(Query::distance(
            &artifact_name,
            (0..n.min(8)).map(NodeId::new).collect(),
            NodeId::new(0),
            NodeId::new(1),
        ));
        queries
    };

    let mut client = Client::connect(addr).expect("server is reachable");
    burst(addr);
    print_stats(&client.stats().expect("stats succeed"));

    // Before any delta, promotion must be invisible: the server's answers
    // must be bit-identical to the flat stored artifact served locally.
    let queries = battery(n);
    let mut flat_engine = Engine::new();
    flat_engine.register(&artifact_name, flat.clone());
    let expected_flat = flat_engine.run_batch(&queries);
    let got_flat = client
        .run_batch(&queries)
        .expect("transport succeeds")
        .expect_results()
        .expect("batch admitted");
    assert_eq!(
        got_flat, expected_flat,
        "promoted artifact answers differ from the stored flat artifact before any delta"
    );
    println!(
        "delta-smoke: {} pre-delta answers identical to the stored flat artifact",
        queries.len()
    );

    let info = client
        .apply_deltas(&artifact_name, &deltas)
        .expect("transport succeeds")
        .expect("deltas apply cleanly");
    assert_eq!(info.applied, deltas.len() as u64, "all deltas applied");
    assert!(info.version >= 2, "the served version advanced");

    // The local differential: replay the same deltas on the base graph and
    // build from scratch with the same recipe.
    let sequenced: Vec<SequencedDelta> = deltas
        .iter()
        .zip(1..)
        .map(|(delta, seq)| SequencedDelta {
            seq,
            delta: delta.clone(),
        })
        .collect();
    let post = apply_deltas(&base, &sequenced).expect("deltas replay on the base graph");
    let fresh = DynamicArtifact::build(&post, recipe).expect("fresh build succeeds");
    let mut expected_engine = Engine::new();
    expected_engine.register_dynamic(&artifact_name, fresh);

    let queries = battery(n);
    let expected = expected_engine.run_batch(&queries);
    let got = client
        .run_batch(&queries)
        .expect("transport succeeds")
        .expect_results()
        .expect("batch admitted");
    assert_eq!(
        got, expected,
        "post-swap answers differ from a fresh rebuild on the post-delta graph"
    );

    let stats = client.stats().expect("stats succeed");
    assert!(stats.engine.swaps >= 1, "the swap counter moved");
    assert_eq!(
        stats.engine.deltas_applied,
        deltas.len() as u64,
        "the delta counter moved"
    );

    println!(
        "delta-smoke OK: {} deltas -> version {} ({}), {} answers identical to fresh rebuild",
        info.applied,
        info.version,
        if info.rebuilt { "rebuilt" } else { "patched" },
        queries.len(),
    );

    if shutdown {
        client
            .shutdown_server()
            .expect("server acknowledges shutdown");
    }
}

//! Loopback tests for the `ApplyDeltas` frame and the warm hand-off.
//!
//! A delta batch pushed through a real TCP connection must (a) produce the
//! same artifact a from-scratch rebuild on the post-delta graph produces,
//! (b) surface typed errors for bad targets, and (c) never let a concurrent
//! query batch observe a half-swapped artifact: every batch is answered
//! entirely by one version.

use fault_tolerant_spanners::core::dynamic::apply_deltas;
use fault_tolerant_spanners::core::CoreError;
use fault_tolerant_spanners::prelude::*;
use ftspan_net::{Client, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A recipe whose artifact on a ring is fully determined: any 3-spanner of
/// a unit-weight cycle must keep every cycle edge (the detour is longer than
/// the stretch bound), so distances are exact and version-revealing.
fn ring_recipe(faults: usize) -> BuildRecipe {
    let request = SpannerRequest {
        faults,
        stretch: 3.0,
        // Enough iterations that (for this pinned seed) every ring edge is
        // covered by some sampled survivor set — distances are then exact.
        iterations: Some(40),
        threads: Some(1),
        ..SpannerRequest::default()
    };
    BuildRecipe::new("corollary-2.2", request, 2011)
}

fn ring_engine(n: usize) -> (Engine, Graph) {
    let g = generate::cycle(n);
    let live = DynamicArtifact::build(&g, ring_recipe(1)).expect("ring artifact builds");
    let mut engine = Engine::new();
    engine.register_dynamic("ring", live);
    (engine, g)
}

#[test]
fn deltas_over_the_wire_match_a_fresh_rebuild_on_the_post_delta_graph() {
    let (engine, g) = ring_engine(20);
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind")
        .spawn()
        .expect("server spawns");
    let mut client = Client::connect(server.addr()).expect("loopback connect");

    // A bad target is a typed inner error, not a transport failure.
    let ghost = client
        .apply_deltas(
            "ghost",
            &[EdgeDelta::Delete {
                u: NodeId::new(0),
                v: NodeId::new(1),
            }],
        )
        .expect("transport succeeds");
    assert!(matches!(ghost, Err(CoreError::UnknownArtifact { .. })));

    // Cut the ring and add a chord.
    let deltas = [
        EdgeDelta::Delete {
            u: NodeId::new(0),
            v: NodeId::new(1),
        },
        EdgeDelta::Insert {
            u: NodeId::new(2),
            v: NodeId::new(11),
            weight: 0.5,
        },
    ];
    let info = client
        .apply_deltas("ring", &deltas)
        .expect("transport succeeds")
        .expect("deltas apply");
    assert_eq!(info.version, 2);
    assert_eq!(info.applied, 2);
    assert_eq!(info.last_seq, 2);

    // The served artifact is bit-identical to a from-scratch dynamic build
    // on the replayed post-delta graph.
    assert_eq!(
        engine
            .dynamic_artifact("ring")
            .expect("dynamic artifact")
            .applied_seq(),
        2
    );
    let sequenced: Vec<SequencedDelta> = deltas
        .iter()
        .zip(1..)
        .map(|(delta, seq)| SequencedDelta {
            seq,
            delta: delta.clone(),
        })
        .collect();
    let replayed = apply_deltas(&g, &sequenced).expect("replay succeeds");
    let fresh = DynamicArtifact::build(&replayed, ring_recipe(1)).expect("fresh build");
    assert_eq!(
        fresh.artifact(),
        engine.artifact("ring").expect("served artifact").as_ref()
    );

    // And the wire answers match the fresh artifact's engine answers.
    let queries: Vec<Query> = (0..20)
        .map(|v| Query::distance("ring", vec![], NodeId::new(0), NodeId::new(v)))
        .collect();
    let mut expected_engine = Engine::new();
    expected_engine.register_dynamic("ring", fresh);
    let expected = expected_engine.run_batch(&queries);
    let got = client
        .run_batch(&queries)
        .expect("transport succeeds")
        .expect_results()
        .expect("batch admitted");
    assert_eq!(got, expected);

    // The engine counters made it into the wire stats.
    let stats = client.stats().expect("stats succeed");
    assert_eq!(stats.engine.swaps, 1);
    assert_eq!(stats.engine.deltas_applied, 2);

    drop(client);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn concurrent_query_batches_never_observe_a_mixed_version_answer() {
    let n = 24;
    let (engine, g) = ring_engine(n);

    // The version-revealing probe: dist(0, 1) is 1.0 on the intact ring and
    // n - 1 going the long way once the (0, 1) edge is deleted. Pin both
    // expectations in-process first so a drifting construction fails loudly
    // here, not as a flaky concurrency assertion.
    let probe = Query::distance("ring", vec![], NodeId::new(0), NodeId::new(1));
    let old_answer = match engine.run_batch(std::slice::from_ref(&probe))[0] {
        Ok(QueryOutcome::Distance(d)) => d,
        ref other => panic!("probe failed pre-swap: {other:?}"),
    };
    assert_eq!(old_answer, 1.0, "a 3-spanner of a ring keeps every edge");
    let delta = EdgeDelta::Delete {
        u: NodeId::new(0),
        v: NodeId::new(1),
    };
    let cut = apply_deltas(
        &g,
        &[SequencedDelta {
            seq: 1,
            delta: delta.clone(),
        }],
    )
    .expect("replay succeeds");
    let fresh = DynamicArtifact::build(&cut, ring_recipe(1)).expect("post-cut build");
    let mut fresh_engine = Engine::new();
    fresh_engine.register_dynamic("ring", fresh);
    let new_answer = match fresh_engine.run_batch(std::slice::from_ref(&probe))[0] {
        Ok(QueryOutcome::Distance(d)) => d,
        ref other => panic!("probe failed post-cut: {other:?}"),
    };
    assert_eq!(
        new_answer,
        (n - 1) as f64,
        "the detour spans the whole ring"
    );

    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind")
    .spawn()
    .expect("server spawns");
    let addr = server.addr();

    // Reader threads hammer the probe in homogeneous batches while the main
    // thread swaps versions. Each batch must be answered entirely by ONE
    // version: all 1.0 or all n - 1, never a mixture.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let probe = probe.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connects");
                let batch: Vec<Query> = std::iter::repeat_with(|| probe.clone()).take(16).collect();
                let mut batches = 0u64;
                let mut last = f64::NAN;
                while !stop.load(Ordering::Relaxed) {
                    let results = client
                        .run_batch(&batch)
                        .expect("transport succeeds")
                        .expect_results()
                        .expect("batch admitted");
                    let distances: Vec<f64> = results
                        .into_iter()
                        .map(|r| match r {
                            Ok(QueryOutcome::Distance(d)) => d,
                            other => panic!("probe failed mid-churn: {other:?}"),
                        })
                        .collect();
                    let first = distances[0];
                    assert!(
                        distances.iter().all(|&d| d == first),
                        "mixed-version batch: {distances:?}"
                    );
                    last = first;
                    batches += 1;
                }
                (batches, last)
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    let mut writer = Client::connect(addr).expect("writer connects");
    let info = writer
        .apply_deltas("ring", &[delta])
        .expect("transport succeeds")
        .expect("deltas apply");
    assert_eq!(info.version, 2);
    // Let readers run against the swapped version before stopping them.
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);

    for reader in readers {
        let (batches, last) = reader.join().expect("reader thread survives");
        assert!(batches > 0, "a reader never completed a batch");
        // The final batch, issued well after the swap acknowledgement, must
        // already serve the new version.
        assert_eq!(last, new_answer, "a reader is stuck on the old version");
    }

    drop(writer);
    server.shutdown().expect("clean shutdown");
}

//! Acceptance battery for the dynamic-graph subsystem: after any seeded
//! delta stream, a repaired [`DynamicArtifact`] must be **bit-identical** to
//! a from-scratch build on the post-delta graph — same spanner, same
//! provenance, same answers to every (fault-set, query) batch — at every
//! engine worker count. If repair ever drifts from rebuild, serving would
//! silently answer from a spanner nobody can reproduce.

use fault_tolerant_spanners::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded, always-valid delta batch against `g`: deletes and reweights
/// draw from the current edge list, inserts draw fresh absent pairs, no
/// pair touched twice within a batch.
fn churn_batch(g: &Graph, rng: &mut ChaCha8Rng, size: usize) -> Vec<EdgeDelta> {
    let pairs: Vec<(NodeId, NodeId, f64)> = g.edges().map(|(_, e)| (e.u, e.v, e.weight)).collect();
    let n = g.node_count();
    let mut touched = std::collections::BTreeSet::new();
    let mut deltas = Vec::with_capacity(size);
    for _ in 0..size {
        match rng.gen_range(0..4u32) {
            0 if !pairs.is_empty() => {
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

fn recipe(algorithm: &str, threads: usize, seed: u64) -> BuildRecipe {
    let request = SpannerRequest {
        faults: 1,
        stretch: 3.0,
        iterations: Some(6),
        threads: Some(threads),
        ..SpannerRequest::default()
    };
    BuildRecipe::new(algorithm, request, seed)
}

/// A mixed (fault-set, query) battery over an `n`-vertex artifact: rotating
/// single-fault scopes, all three query kinds, plus the fault-free scope.
fn battery(name: &str, n: usize) -> Vec<Query> {
    let mut queries = Vec::new();
    for q in 0..80usize {
        let u = NodeId::new((q * 7 + 1) % n);
        let v = NodeId::new((q * 11 + 3) % n);
        let scope = if q % 3 == 0 {
            vec![NodeId::new((q * 5 + 2) % n)]
        } else {
            vec![]
        };
        queries.push(match q % 4 {
            0 => Query::certificate(name, scope, u, v),
            1 => Query::path(name, scope, u, v),
            _ => Query::distance(name, scope, u, v),
        });
    }
    queries
}

/// The core differential: stream seeded churn through `apply`, and after
/// every round check the repaired artifact against a from-scratch build on
/// the post-delta graph — structurally (PartialEq covers the edge set, the
/// provenance and the embedded source graph) and behaviorally (every query
/// batch, at workers 1, 2 and 8).
fn assert_repair_matches_rebuild(base: &Graph, algorithm: &str, policy: &RebuildPolicy, seed: u64) {
    for workers in [1usize, 2, 8] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let recipe = recipe(algorithm, workers, seed);
        let mut current =
            DynamicArtifact::build(base, recipe.clone()).expect("base build succeeds");
        for round in 0..4 {
            let deltas = churn_batch(current.artifact().source_graph(), &mut rng, 5);
            let (next, report) = current
                .apply(&deltas, policy)
                .expect("churn batches are valid against the current graph");
            assert_eq!(report.applied, deltas.len(), "every delta lands");
            current = next;

            let post = current.artifact().source_graph().clone();
            let fresh = DynamicArtifact::build(&post, recipe.clone()).expect("rebuild succeeds");
            assert_eq!(
                current.artifact(),
                fresh.artifact(),
                "{algorithm} round {round} workers {workers}: repaired artifact is not \
                 bit-identical to a from-scratch build on the post-delta graph"
            );

            let queries = battery("dyn", base.node_count());
            let mut repaired_engine = Engine::new().with_workers(workers);
            repaired_engine.register_dynamic("dyn", current.clone());
            let mut fresh_engine = Engine::new().with_workers(workers);
            fresh_engine.register_dynamic("dyn", fresh);
            assert_eq!(
                repaired_engine.run_batch(&queries),
                fresh_engine.run_batch(&queries),
                "{algorithm} round {round} workers {workers}: answers diverge"
            );
        }
    }
}

#[test]
fn gnp_repairs_match_from_scratch_builds_at_every_worker_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(4021);
    let g = generate::connected_gnp(28, 0.18, generate::WeightKind::Unit, &mut rng);
    assert_repair_matches_rebuild(&g, "conversion", &RebuildPolicy::default(), 4021);
    assert_repair_matches_rebuild(&g, "corollary-2.2", &RebuildPolicy::default(), 4021);
}

#[test]
fn grid_repairs_match_from_scratch_builds_at_every_worker_count() {
    let g = generate::grid(5, 6);
    assert_repair_matches_rebuild(&g, "conversion", &RebuildPolicy::default(), 4022);
    assert_repair_matches_rebuild(&g, "corollary-2.2", &RebuildPolicy::default(), 4022);
}

#[test]
fn forced_patch_and_forced_rebuild_agree_with_each_other() {
    // The patch path and the rebuild path must land on the same artifact —
    // otherwise the policy knob would change answers, not just cost.
    let mut rng = ChaCha8Rng::seed_from_u64(4023);
    let g = generate::connected_gnp(24, 0.2, generate::WeightKind::Unit, &mut rng);
    let recipe = recipe("corollary-2.2", 2, 4023);
    let base = DynamicArtifact::build(&g, recipe).expect("base build succeeds");
    let deltas = churn_batch(&g, &mut rng, 3);

    let (patched, patch_report) = base
        .apply(&deltas, &RebuildPolicy::always_patch())
        .expect("patch applies");
    let (rebuilt, rebuild_report) = base
        .apply(&deltas, &RebuildPolicy::always_rebuild())
        .expect("rebuild applies");
    assert!(patch_report.action.is_patch(), "always_patch must patch");
    assert!(
        !rebuild_report.action.is_patch(),
        "always_rebuild must rebuild"
    );
    assert_eq!(patched.artifact(), rebuilt.artifact());
    assert_eq!(patched.version(), rebuilt.version());
    assert_eq!(patched.applied_seq(), rebuilt.applied_seq());
}

/// The `serve-churn` shape at test size: the conversion over Baswana–Sen at
/// r = 1 on a road-like mesh, one edge per batch, as roads close, reweight
/// and reopen. Every sixth batch reopens the road closed just before it, so
/// the same pair leaves the graph and comes back under a new, last edge id —
/// the selection counts must follow it. At every version the default
/// policy (which patches), `always_rebuild` and a from-scratch build land on
/// the same artifact, at 1, 2 and 8 workers.
#[test]
fn single_edge_stream_on_a_mesh_patches_like_a_rebuild() {
    let g = GeneratorSpec::PlanarMesh {
        rows: 12,
        cols: 12,
        diagonal_p: 0.3,
        jitter: 0.3,
        seed: 2011,
    }
    .generate()
    .expect("valid mesh");
    for workers in [1usize, 2, 8] {
        let request = SpannerRequest {
            faults: 1,
            stretch: 3.0,
            black_box: BlackBoxKind::BaswanaSen,
            threads: Some(workers),
            ..SpannerRequest::default()
        };
        let recipe = BuildRecipe::new("conversion", request, 2011);
        let mut patched = DynamicArtifact::build(&g, recipe.clone()).expect("base build");
        let mut rebuilt = patched.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(0xde17a);
        let mut closed: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for round in 0..48 {
            let graph = patched.artifact().source_graph();
            let open: Vec<(NodeId, NodeId, f64)> =
                graph.edges().map(|(_, e)| (e.u, e.v, e.weight)).collect();
            let choice = match round % 6 {
                0 => 0,
                1 => 2,
                _ => rng.gen_range(0..3u32),
            };
            let delta = match choice {
                0 => {
                    let road = open[rng.gen_range(0..open.len())];
                    closed.push(road);
                    EdgeDelta::Delete {
                        u: road.0,
                        v: road.1,
                    }
                }
                2 if !closed.is_empty() => {
                    let road = if round % 6 == 1 {
                        closed.pop().expect("closed in the previous round")
                    } else {
                        closed.swap_remove(rng.gen_range(0..closed.len()))
                    };
                    EdgeDelta::Insert {
                        u: road.0,
                        v: road.1,
                        weight: road.2,
                    }
                }
                _ => {
                    let (u, v, w) = open[rng.gen_range(0..open.len())];
                    EdgeDelta::Reweight {
                        u,
                        v,
                        weight: w * rng.gen_range(1.0..3.0),
                    }
                }
            };
            let batch = std::slice::from_ref(&delta);
            let (next, report) = patched
                .apply(batch, &RebuildPolicy::default())
                .expect("the stream is valid");
            assert!(
                report.action.is_patch(),
                "round {round} workers {workers}: the default policy must patch, got {:?}",
                report.action
            );
            patched = next;
            let (next, report) = rebuilt
                .apply(batch, &RebuildPolicy::always_rebuild())
                .expect("the stream is valid");
            assert!(!report.action.is_patch());
            rebuilt = next;

            let post = patched.artifact().source_graph().clone();
            let fresh = DynamicArtifact::build(&post, recipe.clone()).expect("rebuild succeeds");
            assert_eq!(
                patched.artifact(),
                rebuilt.artifact(),
                "round {round} workers {workers} ({delta}): patch and rebuild diverge"
            );
            assert_eq!(
                patched.artifact(),
                fresh.artifact(),
                "round {round} workers {workers} ({delta}): patch diverges from a fresh build"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized streams, not just the seeded ones: any delta stream the
    /// churn generator can produce (seed chosen by proptest) must keep the
    /// repair-equals-rebuild invariant through multiple rounds.
    #[test]
    fn random_delta_streams_keep_repair_identical_to_rebuild(
        seed in any::<u64>(),
        rounds in 1usize..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::connected_gnp(18, 0.25, generate::WeightKind::Unit, &mut rng);
        let recipe = recipe("corollary-2.2", 2, seed);
        let mut current =
            DynamicArtifact::build(&g, recipe.clone()).expect("base build succeeds");
        for _ in 0..rounds {
            let deltas = churn_batch(current.artifact().source_graph(), &mut rng, 4);
            let (next, _) = current
                .apply(&deltas, &RebuildPolicy::default())
                .expect("churn batches are valid");
            current = next;
        }
        let post = current.artifact().source_graph().clone();
        let fresh = DynamicArtifact::build(&post, recipe).expect("rebuild succeeds");
        prop_assert_eq!(current.artifact(), fresh.artifact());
    }
}

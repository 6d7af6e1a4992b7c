//! Differential test of the masked black boxes against a materialized
//! subgraph.
//!
//! The fault-tolerant constructions run every black box on `G \ J` through
//! [`SpannerAlgorithm::build_masked`], an edge mask over the parent graph.
//! The reference below is how each run used to be made: copy the live edges
//! into a fresh graph on the same vertex set (in edge-id order), `build` on
//! it, and map the selected edges back to the parent's ids. Every kernel
//! must select exactly the same edges *and* leave the random generator in
//! exactly the same state — the conversion runs the black box inside
//! per-iteration streams, so one coin more or less would shift every later
//! draw. The all-false mask pins the "no live edge" early returns, where a
//! kernel that still drew its coins would leave the stream elsewhere.

use ftspan_graph::stream::GeneratorSpec;
use ftspan_graph::{generate, EdgeId, EdgeSet, Graph};
use ftspan_spanners::{BlackBoxKind, SpannerAlgorithm};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The materialize + `build` + id-map reference.
fn materialized_build(
    alg: &dyn SpannerAlgorithm,
    graph: &Graph,
    live: &[bool],
    rng: &mut dyn RngCore,
) -> EdgeSet {
    let mut sub = Graph::new(graph.node_count());
    let mut map = Vec::new();
    for (id, e) in graph.edges() {
        if live[id.index()] {
            sub.add_edge(e.u, e.v, e.weight)
                .expect("edges of a valid graph remain valid in a subgraph");
            map.push(id);
        }
    }
    let mut edges = graph.empty_edge_set();
    edges.extend(alg.build(&sub, rng).iter().map(|e| map[e.index()]));
    edges
}

/// The inputs: unit and weighted G(n, p), a planar mesh, and a graph whose
/// last vertices have no edges at all.
fn graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = ChaCha8Rng::seed_from_u64(2019);
    let unit = generate::gnp(48, 0.15, generate::WeightKind::Unit, &mut rng);
    let weighted = generate::gnp(
        48,
        0.15,
        generate::WeightKind::Uniform { min: 0.5, max: 4.0 },
        &mut rng,
    );
    let mesh = GeneratorSpec::PlanarMesh {
        rows: 8,
        cols: 9,
        diagonal_p: 0.4,
        jitter: 0.25,
        seed: 7,
    }
    .generate()
    .expect("mesh parameters are valid");
    let core = generate::gnp(30, 0.2, generate::WeightKind::Unit, &mut rng);
    let mut isolated = Graph::new(core.node_count() + 6);
    for (_, e) in core.edges() {
        isolated.add_edge(e.u, e.v, e.weight).unwrap();
    }
    vec![
        ("unit gnp", unit),
        ("weighted gnp", weighted),
        ("planar mesh", mesh),
        ("isolated vertices", isolated),
    ]
}

/// The masks: vertex-induced at survival probabilities 1/4, 1/2 and 3/4,
/// random edge masks at the same densities, all-false and all-true.
fn masks(graph: &Graph, rng: &mut ChaCha8Rng) -> Vec<(String, Vec<bool>)> {
    let m = graph.edge_count();
    let mut masks = vec![
        ("all-false".to_string(), vec![false; m]),
        ("all-true".to_string(), vec![true; m]),
    ];
    for p in [0.25, 0.5, 0.75] {
        let alive: Vec<bool> = (0..graph.node_count()).map(|_| rng.gen_bool(p)).collect();
        let induced = graph
            .edges()
            .map(|(_, e)| alive[e.u.index()] && alive[e.v.index()])
            .collect();
        masks.push((format!("vertex-induced p = {p}"), induced));
        let edges = (0..m).map(|_| rng.gen_bool(p)).collect();
        masks.push((format!("edge p = {p}"), edges));
    }
    masks
}

#[test]
fn masked_kernels_match_a_materialized_subgraph() {
    let mut mask_rng = ChaCha8Rng::seed_from_u64(11);
    for (name, graph) in graphs() {
        for (mask_name, live) in masks(&graph, &mut mask_rng) {
            for kind in BlackBoxKind::ALL {
                for stretch in [3.0, 5.0] {
                    let alg = kind.instantiate(stretch);
                    for seed in 0..3u64 {
                        let case =
                            format!("{kind} at {stretch} on {name}, {mask_name}, seed {seed}");
                        let mut got_rng = ChaCha8Rng::seed_from_u64(seed);
                        let mut want_rng = ChaCha8Rng::seed_from_u64(seed);
                        let got = alg.build_masked(&graph, &live, &mut got_rng);
                        let want = materialized_build(alg.as_ref(), &graph, &live, &mut want_rng);
                        let got_ids: Vec<EdgeId> = got.iter().collect();
                        let want_ids: Vec<EdgeId> = want.iter().collect();
                        assert_eq!(got_ids, want_ids, "{case}: edges differ");
                        assert!(
                            got_ids.iter().all(|e| live[e.index()]),
                            "{case}: selected a dead edge"
                        );
                        assert_eq!(
                            got_rng.next_u64(),
                            want_rng.next_u64(),
                            "{case}: generator state differs"
                        );
                    }
                }
            }
        }
    }
}

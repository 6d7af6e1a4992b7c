//! The registry contract: every registered algorithm builds on a small
//! seeded G(n, p) instance of its declared graph family, and the resulting
//! report verifies under the oracle matching its declared fault model —
//! `is_fault_tolerant_k_spanner` for vertex faults on undirected inputs, the
//! edge-fault oracle for edge faults, and the Lemma 3.1 2-spanner oracle for
//! directed outputs.

use fault_tolerant_spanners::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn verify_report(report: &SpannerReport, g: &Graph, dg: &DiGraph) {
    match &report.edges {
        SpannerEdges::Undirected(edges) => match report.fault_model {
            FaultModel::Vertex => {
                assert!(
                    verify::is_fault_tolerant_k_spanner(g, edges, report.stretch, report.faults),
                    "`{}` output is not a {}-fault-tolerant {}-spanner",
                    report.algorithm,
                    report.faults,
                    report.stretch
                );
            }
            FaultModel::Edge => {
                assert!(
                    verify::is_edge_fault_tolerant_k_spanner(
                        g,
                        edges,
                        report.stretch,
                        report.faults
                    ),
                    "`{}` output is not a {}-edge-fault-tolerant {}-spanner",
                    report.algorithm,
                    report.faults,
                    report.stretch
                );
            }
        },
        SpannerEdges::Directed(arcs) => {
            assert_eq!(report.stretch, 2.0, "directed outputs are 2-spanners");
            assert!(
                verify::is_ft_two_spanner(dg, arcs, report.faults),
                "`{}` output is not a {}-fault-tolerant 2-spanner",
                report.algorithm,
                report.faults
            );
        }
    }
}

#[test]
fn every_registered_algorithm_builds_and_verifies() {
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    let g = generate::connected_gnp(16, 0.4, generate::WeightKind::Unit, &mut rng);
    let dg = generate::directed_gnp(8, 0.5, generate::WeightKind::Unit, &mut rng);

    let registry = registry();
    assert_eq!(registry.len(), 11);

    for algorithm in registry.iter() {
        // Keep the distributed 2-spanner's repetition count small; every
        // other knob stays at its default.
        let request = SpannerRequest::new(1).with_repetitions(3);
        algorithm
            .supports(&request)
            .unwrap_or_else(|e| panic!("`{}` rejects the default request: {e}", algorithm.name()));

        let input = match algorithm.graph_family() {
            GraphFamily::Undirected => GraphInput::from(&g),
            GraphFamily::Directed => GraphInput::from(&dg),
        };
        let report = algorithm
            .build(input, &request, &mut rng)
            .unwrap_or_else(|e| panic!("`{}` failed to build: {e}", algorithm.name()));

        // Report invariants shared by every construction.
        assert_eq!(report.algorithm, algorithm.name());
        assert_eq!(report.faults, 1);
        assert_eq!(report.fault_model, algorithm.fault_model(&request));
        assert!(
            (report.stretch - algorithm.guaranteed_stretch(&request)).abs() < 1e-9,
            "`{}` reported stretch {} but declares {}",
            algorithm.name(),
            report.stretch,
            algorithm.guaranteed_stretch(&request)
        );
        assert!(!report.provenance.is_empty());
        assert_eq!(report.size(), report.edges.len());
        assert!(report.cost >= 0.0);

        // And the oracle matching the declared fault model must accept it.
        verify_report(&report, &g, &dg);
    }
}

#[test]
fn registry_rejects_inputs_of_the_wrong_family() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let g = generate::gnp(10, 0.4, generate::WeightKind::Unit, &mut rng);
    let dg = generate::directed_gnp(6, 0.5, generate::WeightKind::Unit, &mut rng);
    let request = SpannerRequest::new(1);

    for algorithm in registry().iter() {
        let wrong = match algorithm.graph_family() {
            GraphFamily::Undirected => GraphInput::from(&dg),
            GraphFamily::Directed => GraphInput::from(&g),
        };
        assert!(
            algorithm.build(wrong, &request, &mut rng).is_err(),
            "`{}` accepted an input of the wrong graph family",
            algorithm.name()
        );
    }
}

#[test]
fn edge_fault_requests_are_either_honored_or_cleanly_rejected() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let g = generate::connected_gnp(14, 0.4, generate::WeightKind::Unit, &mut rng);
    let dg = generate::directed_gnp(6, 0.5, generate::WeightKind::Unit, &mut rng);
    let request = SpannerRequest::new(1).with_fault_model(FaultModel::Edge);

    for algorithm in registry().iter() {
        let input = match algorithm.graph_family() {
            GraphFamily::Undirected => GraphInput::from(&g),
            GraphFamily::Directed => GraphInput::from(&dg),
        };
        match algorithm.supports(&request) {
            Ok(()) => {
                let report = algorithm.build(input, &request, &mut rng).unwrap();
                assert_eq!(
                    report.fault_model,
                    FaultModel::Edge,
                    "`{}` accepted an edge-fault request but built for vertex faults",
                    algorithm.name()
                );
                verify_report(&report, &g, &dg);
            }
            Err(e) => {
                // supports() and build() must agree.
                let build_err = algorithm.build(input, &request, &mut rng).unwrap_err();
                assert_eq!(e.to_string(), build_err.to_string());
            }
        }
    }
}

#[test]
fn zero_weight_edges_keep_every_union_construction_fault_tolerant() {
    // G(14, 1/2) with weights in {0, 1, 2}: about a third of the edges join
    // their endpoints at distance 0, which a spanner must then match exactly
    // (any positive detour is an unbounded stretch).
    let dg = DiGraph::new(1);
    for seed in 0..6 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = Graph::new(14);
        for u in 0..14 {
            for v in (u + 1)..14 {
                if rng.gen_bool(0.5) {
                    let weight = rng.gen_range(0..3u32) as f64;
                    g.add_edge(NodeId::new(u), NodeId::new(v), weight).unwrap();
                }
            }
        }
        let mut builders = vec![
            FtSpannerBuilder::new("corollary-2.2"),
            FtSpannerBuilder::new("adaptive"),
        ];
        for kind in BlackBoxKind::ALL {
            for name in ["conversion", "edge-fault", "clpr09"] {
                builders.push(FtSpannerBuilder::new(name).black_box(kind));
            }
        }
        for builder in builders {
            let report = builder.faults(1).seed(seed).build(&g).unwrap();
            verify_report(&report, &g, &dg);
        }
    }
}

#[test]
fn union_constructions_report_what_every_iteration_selected() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let g = generate::connected_gnp(40, 0.2, generate::WeightKind::Unit, &mut rng);
    let builders = [
        FtSpannerBuilder::new("conversion"),
        FtSpannerBuilder::new("conversion").edge_faults(),
        FtSpannerBuilder::new("corollary-2.2"),
        FtSpannerBuilder::new("edge-fault"),
        FtSpannerBuilder::new("clpr09"),
        FtSpannerBuilder::new("adaptive"),
    ];
    for builder in builders {
        let report = builder.faults(1).seed(3).build(&g).unwrap();
        let name = format!("{} ({})", report.algorithm, report.fault_model);
        assert_eq!(report.per_iteration.len(), report.iterations, "{name}");
        // Each run's new edges count against the union in run order, so
        // they add up to the spanner.
        let new_edges: usize = report.per_iteration.iter().map(|s| s.new_edges).sum();
        assert_eq!(new_edges, report.size(), "{name}");
        for stats in &report.per_iteration {
            assert!(stats.spanner_edges >= stats.new_edges, "{name}: {stats:?}");
        }
    }
}

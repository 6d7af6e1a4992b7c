//! Cross-crate integration tests: every spanner produced through the unified
//! `FtSpannerBuilder` API is re-verified with the independent oracles in
//! `ftspan_graph::verify`, and the centralized, distributed and baseline
//! constructions are checked for consistency against each other.

use fault_tolerant_spanners::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

#[test]
fn conversion_theorem_with_every_black_box() {
    // Theorem 2.1 is black-box: the output must be fault tolerant no matter
    // which spanner construction is plugged in — selected by name here.
    let mut r = rng(1);
    let g = generate::gnp(22, 0.45, generate::WeightKind::Unit, &mut r);
    for kind in BlackBoxKind::ALL {
        let report = FtSpannerBuilder::new("conversion")
            .faults(1)
            .stretch(5.0)
            .black_box(kind)
            .build_with_rng(GraphInput::from(&g), &mut r)
            .unwrap();
        assert!(
            verify::is_fault_tolerant_k_spanner(&g, report.edge_set().unwrap(), 5.0, 1),
            "conversion with the {kind} black box is not 1-fault-tolerant"
        );
        // The report's guarantee never exceeds what was asked for.
        assert!(report.stretch <= 5.0 + 1e-9);
    }
}

#[test]
fn fault_tolerant_spanner_beats_plain_spanner_under_faults() {
    // A plain greedy spanner of a graph with hubs breaks when a hub dies;
    // the converted spanner does not.
    let mut r = rng(2);
    let g = generate::gnp(24, 0.5, generate::WeightKind::Unit, &mut r);
    let ft = FtSpannerBuilder::new("corollary-2.2")
        .faults(1)
        .stretch(3.0)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    let oracle = verify::StretchOracle::new(&g, ft.edge_set().unwrap());
    for v in 0..g.node_count() {
        let dead = faults::FaultSet::from_indices([v]).to_dead_mask(g.node_count());
        let s = oracle.max_stretch_masked(Some(&dead), None);
        assert!(
            s <= 3.0 + 1e-9,
            "fault at {v} breaks the spanner (stretch {s})"
        );
    }
}

#[test]
fn weighted_graphs_are_supported_end_to_end() {
    let mut r = rng(3);
    let g = generate::connected_gnp(
        18,
        0.35,
        generate::WeightKind::Uniform { min: 0.5, max: 5.0 },
        &mut r,
    );
    let report = FtSpannerBuilder::new("corollary-2.2")
        .faults(2)
        .stretch(5.0)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    assert!(verify::is_fault_tolerant_k_spanner(
        &g,
        report.edge_set().unwrap(),
        5.0,
        2
    ));
    // The report's cost is the spanner weight and never exceeds the input's.
    let w = g.edge_set_weight(report.edge_set().unwrap()).unwrap();
    assert!((w - report.cost).abs() < 1e-9);
    assert!(w <= g.total_weight() + 1e-9);
}

#[test]
fn centralized_and_distributed_conversions_agree_on_guarantees() {
    let mut r = rng(4);
    let g = generate::connected_gnp(20, 0.3, generate::WeightKind::Unit, &mut r);
    let central = FtSpannerBuilder::new("corollary-2.2")
        .faults(1)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    let distributed = FtSpannerBuilder::new("distributed-conversion")
        .faults(1)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    for report in [&central, &distributed] {
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            report.edge_set().unwrap(),
            3.0,
            1
        ));
    }
    // The distributed execution actually communicated; the centralized one
    // reports no LOCAL-model accounting at all.
    assert!(distributed.rounds.unwrap() > 0);
    assert!(distributed.messages.unwrap() > 0);
    assert_eq!(central.rounds, None);
}

#[test]
fn two_spanner_pipeline_matches_lemma_3_1_and_definition() {
    // The rounded LP solution must satisfy both the characterization
    // (Lemma 3.1) and the definitional fault-by-fault check.
    let mut r = rng(5);
    let g = generate::directed_gnp(9, 0.5, generate::WeightKind::Unit, &mut r);
    for faults in [0usize, 1, 2] {
        let report = FtSpannerBuilder::new("two-spanner-lp")
            .faults(faults)
            .build_with_rng(GraphInput::from(&g), &mut r)
            .unwrap();
        let arcs = report.arc_set().unwrap();
        assert!(verify::is_ft_two_spanner(&g, arcs, faults));
        assert!(verify::is_ft_two_spanner_by_definition(&g, arcs, faults));
    }
}

#[test]
fn knapsack_cover_lp_dominates_weak_lp() {
    // LP (4) has more constraints than LP (3), so its optimum can only be
    // larger (a tighter lower bound on OPT).
    use fault_tolerant_spanners::core::two_spanner::{solve_relaxation, RelaxationConfig};
    let mut r = rng(6);
    for _ in 0..3 {
        let g = generate::directed_gnp(10, 0.4, generate::WeightKind::Unit, &mut r);
        for faults in [1usize, 2] {
            let weak =
                solve_relaxation(&g, &RelaxationConfig::new(faults).without_knapsack_cover())
                    .unwrap();
            let strong = solve_relaxation(&g, &RelaxationConfig::new(faults)).unwrap();
            assert!(
                strong.objective >= weak.objective - 1e-6,
                "knapsack-cover LP ({}) below the weak LP ({})",
                strong.objective,
                weak.objective
            );
        }
    }
}

#[test]
fn approximation_cost_is_sandwiched_between_lp_and_buying_everything() {
    let mut r = rng(7);
    let g = generate::directed_gnp(
        11,
        0.5,
        generate::WeightKind::Uniform { min: 1.0, max: 6.0 },
        &mut r,
    );
    let report = FtSpannerBuilder::new("two-spanner-lp")
        .faults(1)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    assert!(report.lp_objective.unwrap() <= report.cost + 1e-6);
    assert!(report.cost <= g.total_cost() + 1e-9);
    assert!(report.ratio_vs_lp().unwrap() >= 1.0 - 1e-9);
}

#[test]
fn dk10_and_new_algorithm_are_both_valid_but_new_is_cheaper_on_average() {
    // Averaged over several instances the Theorem 3.3 algorithm should not be
    // more expensive than the DK10 baseline (its inflation is a factor r+1
    // smaller); individual instances may tie because of the repair step.
    let mut r = rng(8);
    let faults = 2;
    let mut ours_total = 0.0;
    let mut dk10_total = 0.0;
    for _ in 0..5 {
        let g = generate::directed_gnp(10, 0.5, generate::WeightKind::Unit, &mut r);
        let ours = FtSpannerBuilder::new("two-spanner-lp")
            .faults(faults)
            .build_with_rng(GraphInput::from(&g), &mut r)
            .unwrap();
        let base = FtSpannerBuilder::new("dk10")
            .faults(faults)
            .build_with_rng(GraphInput::from(&g), &mut r)
            .unwrap();
        assert!(verify::is_ft_two_spanner(
            &g,
            ours.arc_set().unwrap(),
            faults
        ));
        assert!(verify::is_ft_two_spanner(
            &g,
            base.arc_set().unwrap(),
            faults
        ));
        // Both roundings are inflated, but DK10 pays the extra factor r + 1.
        assert!(base.alpha.unwrap() > ours.alpha.unwrap());
        ours_total += ours.cost;
        dk10_total += base.cost;
    }
    assert!(
        ours_total <= dk10_total + 1e-9,
        "new algorithm ({ours_total}) more expensive than DK10 ({dk10_total}) on average"
    );
}

#[test]
fn distributed_two_spanner_is_valid_and_counts_rounds() {
    let mut r = rng(9);
    let g = generate::directed_gnp(10, 0.45, generate::WeightKind::Unit, &mut r);
    let report = FtSpannerBuilder::new("distributed-two-spanner")
        .faults(1)
        .repetitions(3)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    assert!(verify::is_ft_two_spanner(&g, report.arc_set().unwrap(), 1));
    assert_eq!(report.iterations, 3);
    assert!(report.rounds.unwrap() > 0);
}

#[test]
fn clpr_baseline_and_conversion_are_both_valid_on_the_same_graph() {
    let mut r = rng(10);
    let g = generate::gnp(14, 0.5, generate::WeightKind::Unit, &mut r);
    let ours = FtSpannerBuilder::new("corollary-2.2")
        .faults(1)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    let clpr = FtSpannerBuilder::new("clpr09")
        .faults(1)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    for report in [&ours, &clpr] {
        assert!(verify::is_fault_tolerant_k_spanner(
            &g,
            report.edge_set().unwrap(),
            3.0,
            1
        ));
    }
    // The baseline does one run per fault set; ours does Θ(r³ log n) runs.
    assert_eq!(clpr.iterations, 1 + g.node_count());
}

#[test]
fn gap_gadget_end_to_end() {
    // On the Section 3.2 gadget every algorithm must buy the expensive arc.
    let mut r = rng(11);
    let g = generate::gap_gadget(3, 50.0).unwrap();
    let expensive_arc = fault_tolerant_spanners::graph::ArcId::new(0);

    for (name, extra_reps) in [
        ("two-spanner-lp", None),
        ("dk10", None),
        ("distributed-two-spanner", Some(3)),
    ] {
        let mut builder = FtSpannerBuilder::new(name).faults(3);
        if let Some(t) = extra_reps {
            builder = builder.repetitions(t);
        }
        let report = builder
            .build_with_rng(GraphInput::from(&g), &mut r)
            .unwrap();
        assert!(
            report.arc_set().unwrap().contains(expensive_arc),
            "`{name}` did not buy the forced expensive arc"
        );
    }
}

#[test]
fn thorup_zwick_works_as_a_conversion_black_box() {
    // The conversion theorem is black-box, so the Thorup-Zwick construction
    // (the ingredient of the CLPR09 baseline) must slot in unchanged.
    let mut r = rng(13);
    let g = generate::gnp(20, 0.45, generate::WeightKind::Unit, &mut r);
    let report = FtSpannerBuilder::new("conversion")
        .faults(1)
        .black_box(BlackBoxKind::ThorupZwick)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    assert!(verify::is_fault_tolerant_k_spanner(
        &g,
        report.edge_set().unwrap(),
        3.0,
        1
    ));
    assert!(report.size() >= vertex_fault_size_lower_bound(&g, 1));
}

#[test]
fn edge_fault_conversion_end_to_end() {
    let mut r = rng(14);
    let g = generate::connected_gnp(16, 0.35, generate::WeightKind::Unit, &mut r);
    let report = FtSpannerBuilder::new("edge-fault")
        .faults(2)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    assert_eq!(report.fault_model, FaultModel::Edge);
    let edges = report.edge_set().unwrap();
    let oracle = verify::StretchOracle::new(&g, edges);
    assert!(oracle.verify_edge_exhaustive(3.0, 2).is_valid());
    assert!(report.size() >= vertex_fault_size_lower_bound(&g, 2));
    assert!(report.size() <= g.edge_count());
    // Adversarial heavy-edge failures are covered by the exhaustive check but
    // exercise a single fixed-mask query too.
    let heavy = faults::heavy_edge_faults(&g, 2).to_dead_mask(g.edge_count());
    assert!(oracle.max_stretch_masked(None, Some(&heavy)) <= 3.0 + 1e-9);
}

#[test]
fn edge_fault_verifier_reports_a_violating_edge_set() {
    // Drop one spanner edge that only a fault makes necessary: the trimmed
    // set is still a 3-spanner of the grid (each edge has a detour of
    // length 3), but not a 1-edge-fault-tolerant one. The
    // verifier's witness must be a real edge-fault set under which the
    // trimmed spanner breaks the bound, at any worker count.
    let mut r = rng(14);
    let g = generate::grid(5, 5);
    let report = FtSpannerBuilder::new("edge-fault")
        .faults(1)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    let edges = report.edge_set().unwrap();
    let mut checked = 0;
    for e in edges.iter() {
        let mut trimmed = edges.clone();
        trimmed.remove(e);
        if !verify::is_k_spanner(&g, &trimmed, 3.0) {
            continue;
        }
        let oracle = verify::StretchOracle::new(&g, &trimmed);
        let sweep = oracle.verify_edge_exhaustive(3.0, 1);
        if sweep.is_valid() {
            continue;
        }
        let witness = sweep.violating_faults.as_ref().unwrap();
        assert_eq!(
            witness.len(),
            1,
            "the fault-free set passes, so one edge fails"
        );
        let dead_edges = witness.to_dead_mask(g.edge_count());
        assert!(oracle.max_stretch_masked(None, Some(&dead_edges)) > 3.0);
        let threaded = oracle.with_threads(4).verify_edge_exhaustive(3.0, 1);
        assert_eq!(threaded, sweep);
        checked += 1;
    }
    assert!(checked > 0, "no spanner edge was needed only under faults");
}

#[test]
fn adaptive_conversion_end_to_end() {
    let mut r = rng(15);
    let g = generate::connected_gnp(20, 0.35, generate::WeightKind::Unit, &mut r);
    let report = FtSpannerBuilder::new("adaptive")
        .faults(1)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    assert_eq!(report.verified, Some(true));
    assert!(report.iterations <= report.theorem_iterations.unwrap());
    assert!(report.budget_fraction() <= 1.0);
    assert!(verify::is_fault_tolerant_k_spanner(
        &g,
        report.edge_set().unwrap(),
        3.0,
        1
    ));
    assert!(report.size() >= vertex_fault_size_lower_bound(&g, 1));
}

#[test]
fn greedy_cover_and_lp_rounding_are_both_valid_and_above_the_lp_bound() {
    let mut r = rng(16);
    let g = generate::directed_gnp(
        10,
        0.5,
        generate::WeightKind::Uniform { min: 1.0, max: 4.0 },
        &mut r,
    );
    for faults in [0usize, 1, 2] {
        let rounded = FtSpannerBuilder::new("two-spanner-lp")
            .faults(faults)
            .build_with_rng(GraphInput::from(&g), &mut r)
            .unwrap();
        let greedy = FtSpannerBuilder::new("two-spanner-greedy")
            .faults(faults)
            .build_with_rng(GraphInput::from(&g), &mut r)
            .unwrap();
        assert!(verify::is_ft_two_spanner(
            &g,
            rounded.arc_set().unwrap(),
            faults
        ));
        assert!(verify::is_ft_two_spanner(
            &g,
            greedy.arc_set().unwrap(),
            faults
        ));
        // The LP optimum and the degree bound are lower bounds on any valid
        // solution, including the greedy one.
        assert!(greedy.cost >= rounded.lp_objective.unwrap() - 1e-6);
        assert!(greedy.cost >= directed_cost_lower_bound(&g, faults) - 1e-9);
        assert!(rounded.cost >= directed_cost_lower_bound(&g, faults) - 1e-9);
    }
}

#[test]
fn distributed_verification_agrees_with_centralized_oracles() {
    let mut r = rng(17);
    // Directed 2-spanner check against the greedy construction's output.
    let dg = generate::complete_digraph(8);
    let greedy = FtSpannerBuilder::new("two-spanner-greedy")
        .faults(2)
        .build_with_rng(GraphInput::from(&dg), &mut r)
        .unwrap();
    let arcs = greedy.arc_set().unwrap();
    assert!(verify::is_ft_two_spanner(&dg, arcs, 2));
    assert!(distributed_two_spanner_check(&dg, arcs, 2).is_valid());
    assert!(!distributed_two_spanner_check(&dg, &dg.empty_arc_set(), 2).is_valid());

    // Undirected stretch check against the centralized verifier.
    let g = generate::connected_gnp(22, 0.3, generate::WeightKind::Unit, &mut r);
    let spanner = GreedySpanner::new(3.0).build(&g, &mut r);
    assert_eq!(
        verify::is_k_spanner(&g, &spanner, 3.0),
        distributed_stretch_check(&g, &spanner, 3).is_valid()
    );
}

#[test]
fn csr_roundtrip_preserves_spanner_validity() {
    let mut r = rng(18);
    let g = generate::connected_gnp(
        20,
        0.3,
        generate::WeightKind::Uniform { min: 0.5, max: 2.5 },
        &mut r,
    );
    let spanner = GreedySpanner::new(3.0).build(&g, &mut r);
    assert!(verify::is_k_spanner(&g, &spanner, 3.0));

    // Packing into CSR and reconstructing keeps vertex and edge identifiers
    // and weights, so the same EdgeSet still describes a valid spanner of
    // the reconstructed graph.
    let loaded = fault_tolerant_spanners::graph::csr::CsrSubgraph::from_graph(&g)
        .to_graph()
        .unwrap();
    assert_eq!(loaded.node_count(), g.node_count());
    assert_eq!(loaded.edge_count(), g.edge_count());
    for (id, e) in g.edges() {
        let other = loaded.edge(id);
        assert_eq!((other.u, other.v), (e.u, e.v));
        assert_eq!(other.weight.to_bits(), e.weight.to_bits());
    }
    assert!(verify::is_k_spanner(&loaded, &spanner, 3.0));
}

#[test]
fn statistics_agree_with_the_verification_oracles() {
    let mut r = rng(19);
    let g = generate::connected_gnp(18, 0.3, generate::WeightKind::Unit, &mut r);
    let spanner = GreedySpanner::new(3.0).build(&g, &mut r);
    let s = stats::stretch_stats(&g, &spanner).unwrap();
    assert!((s.max - verify::max_stretch(&g, &spanner)).abs() < 1e-9);
    assert!(s.mean <= s.max + 1e-9);
    // The spanner contains a spanning structure, so its lightness is at least 1.
    assert!(tree::lightness(&g, &spanner).unwrap() >= 1.0 - 1e-9);
    // Degree statistics are consistent with the graph.
    let d = stats::degree_stats(&g);
    assert_eq!(d.histogram.iter().sum::<usize>(), g.node_count());
    assert_eq!(d.max, g.max_degree());
}

#[test]
fn fault_tolerance_is_limited_by_vertex_connectivity() {
    // On a graph with an articulation point, removing it disconnects the
    // graph; the fault-tolerant spanner must still match the (now infinite)
    // distances of G \ F, which the verifier accounts for. This test pins the
    // interaction between the connectivity helpers and the verifier.
    let g = generate::barbell(4);
    assert_eq!(components::vertex_connectivity(&g), 1);
    let cut = components::articulation_points(&g);
    assert_eq!(cut.len(), 2);
    let mut r = rng(20);
    let ft = FtSpannerBuilder::new("corollary-2.2")
        .faults(1)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    assert!(verify::is_fault_tolerant_k_spanner(
        &g,
        ft.edge_set().unwrap(),
        3.0,
        1
    ));
    // Failing a bridge endpoint disconnects both G and the spanner; the
    // stretch over surviving edges stays bounded.
    let dead = faults::FaultSet::from_nodes(vec![cut[0]]).to_dead_mask(g.node_count());
    let oracle = verify::StretchOracle::new(&g, ft.edge_set().unwrap());
    assert!(oracle.max_stretch_masked(Some(&dead), None) <= 3.0 + 1e-9);
}

#[test]
fn bounded_degree_variant_is_consistent_with_general_variant() {
    let mut r = rng(12);
    let ug = generate::random_near_regular(18, 4, &mut r);
    let g = DiGraph::from_graph(&ug);
    let lll = FtSpannerBuilder::new("two-spanner-lll")
        .faults(1)
        .degree_bound(g.max_degree())
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    let general = FtSpannerBuilder::new("two-spanner-lp")
        .faults(1)
        .build_with_rng(GraphInput::from(&g), &mut r)
        .unwrap();
    assert!(verify::is_ft_two_spanner(&g, lll.arc_set().unwrap(), 1));
    assert!(verify::is_ft_two_spanner(&g, general.arc_set().unwrap(), 1));
    // Both are measured against the same LP value (same relaxation).
    assert!((lll.lp_objective.unwrap() - general.lp_objective.unwrap()).abs() < 1e-4);
    assert!(lll.resamples.is_some());
}

/// The registry algorithms whose reports can serve as distance-query
/// artifacts (undirected constructions; the directed 2-spanner planners are
/// rejected by `FtSpanner::from_report`, covered separately below).
const ARTIFACT_ALGORITHMS: [&str; 6] = [
    "conversion",
    "corollary-2.2",
    "adaptive",
    "edge-fault",
    "clpr09",
    "distributed-conversion",
];

#[test]
fn session_distance_matches_independent_oracle_on_randomized_instances() {
    // Acceptance bar: >= 100 randomized (graph, algorithm, fault-set)
    // instances where FaultSession::distance equals an independent Dijkstra
    // on the materialized fault-restricted spanner subgraph — the session
    // machinery (CSR packing + masked traversal) against the oldest, dumbest
    // oracle in the workspace.
    let mut r = rng(100);
    let mut instances = 0usize;
    for graph_seed in 0..3u64 {
        let mut graph_rng = rng(1000 + graph_seed);
        let g = generate::connected_gnp(14, 0.3, generate::WeightKind::Unit, &mut graph_rng);
        for name in ARTIFACT_ALGORITHMS {
            let faults = 1usize;
            let artifact = FtSpannerBuilder::new(name)
                .faults(faults)
                .build_artifact_with_rng(&g, &mut r)
                .unwrap_or_else(|e| panic!("`{name}` failed to build an artifact: {e}"));
            assert_eq!(artifact.algorithm(), name);
            for _ in 0..6 {
                instances += 1;
                if artifact.fault_model() == FaultModel::Edge {
                    let fault_set = faults::sample_edge_fault_set(g.edge_count(), faults, &mut r);
                    let pairs: Vec<(NodeId, NodeId)> = fault_set
                        .edges()
                        .iter()
                        .map(|&id| {
                            let e = g.edge(id);
                            (e.u, e.v)
                        })
                        .collect();
                    let session = artifact.under_edge_faults(&pairs).unwrap();
                    // Independent oracle: drop the failed edges from the
                    // spanner edge set and run plain Dijkstra.
                    let surviving = fault_set.remove_from(artifact.spanner_edges());
                    let h = g.subgraph(&surviving).unwrap();
                    for u in g.nodes() {
                        let expected = shortest_path::dijkstra(&h, u).unwrap();
                        let got = session.distances_from(u).unwrap();
                        assert_eq!(got, expected, "`{name}` edge-fault session diverged");
                    }
                } else {
                    let fault_set = faults::sample_fault_set(g.node_count(), faults, &mut r);
                    let session = artifact.under_faults(fault_set.nodes()).unwrap();
                    // Independent oracle: materialize H \ F and run plain
                    // Dijkstra on it.
                    let h = g
                        .subgraph(artifact.spanner_edges())
                        .unwrap()
                        .remove_vertices(fault_set.nodes());
                    for u in g.nodes() {
                        let expected = shortest_path::dijkstra(&h, u).unwrap();
                        let got = session.distances_from(u).unwrap();
                        for v in g.nodes() {
                            let want = if fault_set.contains(u) || fault_set.contains(v) {
                                f64::INFINITY
                            } else {
                                expected[v.index()]
                            };
                            assert_eq!(
                                got[v.index()],
                                want,
                                "`{name}` session diverged at ({u}, {v})"
                            );
                        }
                    }
                    // And every certificate verifies against the declared k.
                    for (u, v) in [(0usize, 7), (2, 13)] {
                        let cert = session
                            .stretch_certificate(NodeId::new(u), NodeId::new(v))
                            .unwrap();
                        assert!(cert.holds(), "`{name}` certificate violated");
                        assert_eq!(cert.bound, artifact.stretch());
                    }
                }
            }
        }
    }
    assert!(
        instances >= 100,
        "only {instances} randomized instances were checked"
    );
}

#[test]
fn directed_planners_cannot_become_artifacts() {
    let mut r = rng(101);
    let dg = generate::directed_gnp(8, 0.5, generate::WeightKind::Unit, &mut r);
    let report = FtSpannerBuilder::new("two-spanner-greedy")
        .faults(1)
        .build_directed(&dg)
        .unwrap();
    let err = FtSpanner::from_report(&Graph::new(8), &report).unwrap_err();
    assert!(err.to_string().contains("two-spanner-greedy"));
}

#[test]
fn engine_batches_are_byte_identical_across_runs() {
    // Acceptance bar: Engine batch results are byte-identical across
    // repeated runs with the same seed — including across worker counts and
    // across a serialization round trip of the artifacts.
    let mut r = rng(102);
    let g = generate::connected_gnp(20, 0.25, generate::WeightKind::Unit, &mut r);
    let primary = FtSpannerBuilder::new("conversion")
        .faults(2)
        .seed(7)
        .build_artifact(&g)
        .unwrap();
    let secondary = FtSpannerBuilder::new("corollary-2.2")
        .faults(1)
        .seed(7)
        .build_artifact(&g)
        .unwrap();

    // Round-trip the primary artifact through its binary serialization.
    let mut buf = Vec::new();
    primary.to_binary_writer(&mut buf).unwrap();
    let reloaded = FtSpanner::from_binary_slice(&buf).unwrap();
    assert_eq!(primary, reloaded);

    let make_engine = |a: FtSpanner, b: FtSpanner| {
        let mut e = Engine::new();
        e.register("primary", a).register("secondary", b);
        e
    };
    let engine = make_engine(primary, secondary.clone());
    let engine_reloaded = make_engine(reloaded, secondary);

    // A seeded batch mixing artifacts, fault scopes and query kinds.
    let mut batch_rng = rng(103);
    let n = g.node_count();
    let batch: Vec<Query> = (0..300)
        .map(|i| {
            let name = if i % 3 == 0 { "secondary" } else { "primary" };
            let budget = if name == "primary" { 2 } else { 1 };
            let f = faults::sample_fault_set(n, i % (budget + 1), &mut batch_rng);
            let u = NodeId::new(i % n);
            let v = NodeId::new((i * 7 + 3) % n);
            match i % 4 {
                0 => Query::distance(name, f.nodes().to_vec(), u, v),
                1 => Query::path(name, f.nodes().to_vec(), u, v),
                _ => Query::certificate(name, f.nodes().to_vec(), u, v),
            }
        })
        .collect();

    let reference = format!("{:?}", engine.clone().with_workers(1).run_batch(&batch));
    for workers in [2usize, 4] {
        let run = format!(
            "{:?}",
            engine.clone().with_workers(workers).run_batch(&batch)
        );
        assert_eq!(reference, run, "worker count {workers} changed the bytes");
    }
    // Same batch, same seed, reloaded artifacts: still byte-identical.
    let reloaded_run = format!("{:?}", engine_reloaded.run_batch(&batch));
    assert_eq!(reference, reloaded_run);
    // And re-running on the same engine is idempotent.
    let rerun = format!("{:?}", engine.run_batch(&batch));
    assert_eq!(reference, rerun);
}

#[test]
fn builder_requests_round_trip_through_the_trait_api() {
    // The builder is sugar over registry() + FtSpannerAlgorithm::build: the
    // two paths must produce identical spanners for identical seeds.
    let mut seed_a = rng(21);
    let mut seed_b = rng(21);
    let g = generate::gnp(16, 0.5, generate::WeightKind::Unit, &mut seed_a);
    let g2 = generate::gnp(16, 0.5, generate::WeightKind::Unit, &mut seed_b);

    let via_builder = FtSpannerBuilder::new("conversion")
        .faults(1)
        .scale(0.5)
        .build_with_rng(GraphInput::from(&g), &mut seed_a)
        .unwrap();
    let request = SpannerRequest::new(1).with_scale(0.5);
    let via_registry = registry()
        .get("conversion")
        .unwrap()
        .build(GraphInput::from(&g2), &request, &mut seed_b)
        .unwrap();
    assert_eq!(via_builder.edges, via_registry.edges);
    assert_eq!(via_builder.provenance, via_registry.provenance);
}

#[test]
fn binary_serialization_round_trips_for_every_registry_algorithm() {
    // Round-trip battery: for every artifact-capable registry algorithm,
    // decoding and re-encoding the `.ftspan` image reproduces its bytes
    // exactly, and the restored artifact compares equal (same edges,
    // provenance, guarantee) and answers queries identically.
    let mut r = rng(300);
    let weighted = generate::connected_gnp(
        14,
        0.35,
        generate::WeightKind::Uniform { min: 0.5, max: 3.0 },
        &mut r,
    );
    // The distributed conversion refuses non-unit weights (its 3-spanner
    // black box clusters by hops), so it round-trips on a unit-weight copy
    // of the same topology.
    let mut unit = Graph::new(weighted.node_count());
    for (_, e) in weighted.edges() {
        unit.add_edge(e.u, e.v, 1.0).unwrap();
    }
    let mut covered = 0usize;
    for algorithm in registry().iter() {
        if algorithm.graph_family() != GraphFamily::Undirected {
            continue;
        }
        covered += 1;
        let g = if algorithm.name() == "distributed-conversion" {
            &unit
        } else {
            &weighted
        };
        let artifact = FtSpannerBuilder::new(algorithm.name())
            .faults(1)
            .seed(11)
            .build_artifact(g)
            .unwrap();

        // binary -> artifact -> binary reproduces the bytes.
        let mut image = Vec::new();
        artifact.to_binary_writer(&mut image).unwrap();
        let restored = FtSpanner::from_binary_slice(&image).unwrap();
        let mut again = Vec::new();
        restored.to_binary_writer(&mut again).unwrap();
        assert_eq!(
            image,
            again,
            "`{}`: re-serialization changed the bytes",
            algorithm.name()
        );

        // The restored artifact is the same artifact with the same answers.
        assert_eq!(artifact, restored, "`{}` binary", algorithm.name());
        assert_eq!(artifact.algorithm(), algorithm.name());
        let a = artifact.session();
        let b = restored.session();
        for u in [0usize, 5, 13] {
            assert_eq!(
                a.distances_from(NodeId::new(u)).unwrap(),
                b.distances_from(NodeId::new(u)).unwrap(),
                "`{}`: restored artifact answers diverged",
                algorithm.name()
            );
        }
    }
    // Every undirected construction in the registry was exercised.
    assert!(covered >= 6, "only {covered} artifact-capable algorithms");
}

#[test]
fn unchecked_sessions_serve_beyond_the_declared_budget() {
    // `under_faults_unchecked` exists to study degradation past the declared
    // budget: it must keep answering (consistently with a materialized
    // oracle) where the checked session refuses.
    let mut r = rng(301);
    let g = generate::connected_gnp(18, 0.35, generate::WeightKind::Unit, &mut r);
    let artifact = FtSpannerBuilder::new("conversion")
        .faults(1)
        .seed(13)
        .build_artifact(&g)
        .unwrap();
    let faults = [NodeId::new(1), NodeId::new(4), NodeId::new(9)]; // budget is 1
    assert!(matches!(
        artifact.under_faults(&faults),
        Err(fault_tolerant_spanners::core::CoreError::TooManyFaults {
            given: 3,
            budget: 1
        })
    ));
    let session = artifact.under_faults_unchecked(&faults).unwrap();
    assert_eq!(session.fault_count(), 3);

    // Distances match plain Dijkstra on the materialized surviving spanner.
    let h = g
        .subgraph(artifact.spanner_edges())
        .unwrap()
        .remove_vertices(&faults);
    for u in [0usize, 3, 12] {
        let expected = shortest_path::dijkstra(&h, NodeId::new(u)).unwrap();
        let got = session.distances_from(NodeId::new(u)).unwrap();
        for v in 0..g.node_count() {
            let dead = faults.contains(&NodeId::new(v));
            let want = if dead { f64::INFINITY } else { expected[v] };
            assert_eq!(got[v], want, "unchecked session diverged at ({u}, {v})");
        }
    }
    // Certificates still compute (holds() may legitimately be false out
    // here), and the cached wrapper stays transparent beyond the budget.
    let cert = session
        .stretch_certificate(NodeId::new(0), NodeId::new(12))
        .unwrap();
    assert!(cert.stretch >= 1.0 - 1e-9 || cert.spanner_distance.is_infinite());
    let mut cached = artifact.under_faults_unchecked(&faults).unwrap().cached(8);
    for u in 0..g.node_count() {
        for v in [2usize, 7, 15] {
            assert_eq!(
                session.distance(NodeId::new(u), NodeId::new(v)).unwrap(),
                cached.distance(NodeId::new(u), NodeId::new(v)).unwrap()
            );
        }
    }
    assert!(cached.cache_stats().hits > 0);
    // The out-of-range error path is unchanged.
    assert!(artifact.under_faults_unchecked(&[NodeId::new(99)]).is_err());
}

#[test]
fn planner_groups_surface_typed_errors_without_poisoning_sessions() {
    // FaultModelMismatch and UnknownArtifact must surface through planned
    // (grouped) batches exactly as they do per query, while healthy queries
    // sharing the batch — including ones sharing the error queries' fault
    // scope on the *right* artifact — are answered normally.
    let mut r = rng(302);
    let g = generate::connected_gnp(16, 0.35, generate::WeightKind::Unit, &mut r);
    let vertex = FtSpannerBuilder::new("conversion")
        .faults(1)
        .seed(5)
        .build_artifact(&g)
        .unwrap();
    let edge = FtSpannerBuilder::new("edge-fault")
        .faults(1)
        .seed(5)
        .build_artifact(&g)
        .unwrap();
    let some_edge = {
        let (_, e) = g.edges().next().unwrap();
        (e.u, e.v)
    };
    let mut engine = Engine::new();
    engine.register("vertex", vertex).register("edge", edge);

    let scope = vec![NodeId::new(2)];
    let batch = vec![
        // Healthy vertex-scope query.
        Query::distance("vertex", scope.clone(), NodeId::new(0), NodeId::new(7)),
        // Same scope on the edge artifact: FaultModelMismatch.
        Query::distance("edge", scope.clone(), NodeId::new(0), NodeId::new(7)),
        // Edge faults on the vertex artifact: FaultModelMismatch.
        Query::distance("vertex", vec![], NodeId::new(0), NodeId::new(7))
            .with_edge_faults(vec![some_edge]),
        // Unknown artifact, same scope.
        Query::certificate("nowhere", scope.clone(), NodeId::new(0), NodeId::new(7)),
        // Healthy edge-scope query.
        Query::distance("edge", vec![], NodeId::new(0), NodeId::new(7))
            .with_edge_faults(vec![some_edge]),
        // Another healthy query in the first group.
        Query::certificate("vertex", scope, NodeId::new(3), NodeId::new(11)),
    ];
    for workers in [1usize, 4] {
        let results = engine.clone().with_workers(workers).run_batch(&batch);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(
                fault_tolerant_spanners::core::CoreError::FaultModelMismatch {
                    declared: FaultModel::Edge,
                    requested: FaultModel::Vertex,
                }
            )
        ));
        assert!(matches!(
            results[2],
            Err(
                fault_tolerant_spanners::core::CoreError::FaultModelMismatch {
                    declared: FaultModel::Vertex,
                    requested: FaultModel::Edge,
                }
            )
        ));
        assert!(matches!(
            results[3],
            Err(fault_tolerant_spanners::core::CoreError::UnknownArtifact { ref name }) if name == "nowhere"
        ));
        assert!(results[4].is_ok());
        assert!(results[5].is_ok());
        assert_eq!(results, engine.run_batch_naive(&batch));
    }
}

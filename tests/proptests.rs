//! Property-based tests (proptest) on the workspace's core invariants:
//! random graphs, random parameters — the guarantees must always hold.

use fault_tolerant_spanners::core::CoreError;
use fault_tolerant_spanners::graph::GraphError;
use fault_tolerant_spanners::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// A fixed serving fixture for the planner-transparency property: one
/// vertex-fault and one edge-fault artifact over the same graph (built once
/// — the property's randomness lives in the query batches).
fn serving_fixture() -> &'static (Engine, Graph) {
    static FIXTURE: OnceLock<(Engine, Graph)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(2026);
        let g = generate::connected_gnp(14, 0.3, generate::WeightKind::Unit, &mut rng);
        let vertex = FtSpannerBuilder::new("conversion")
            .faults(2)
            .build_artifact(&g)
            .unwrap();
        let edge = FtSpannerBuilder::new("edge-fault")
            .faults(1)
            .build_artifact(&g)
            .unwrap();
        let mut engine = Engine::new();
        engine.register("vertex", vertex);
        engine.register("edge", edge);
        (engine, g)
    })
}

/// Builds a random undirected unit-weight graph from a proptest-generated
/// edge selection over `n` vertices.
fn graph_from_bits(n: usize, bits: &[bool]) -> Graph {
    let mut g = Graph::new(n);
    let mut idx = 0usize;
    for u in 0..n {
        for v in (u + 1)..n {
            if idx < bits.len() && bits[idx] {
                g.add_edge(NodeId::new(u), NodeId::new(v), 1.0).unwrap();
            }
            idx += 1;
        }
    }
    g
}

/// Builds a random directed unit-cost graph from a bit selection.
fn digraph_from_bits(n: usize, bits: &[bool]) -> DiGraph {
    let mut g = DiGraph::new(n);
    let mut idx = 0usize;
    for u in 0..n {
        for v in 0..n {
            if u != v {
                if idx < bits.len() && bits[idx] {
                    g.add_arc(NodeId::new(u), NodeId::new(v), 1.0).unwrap();
                }
                idx += 1;
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The greedy spanner is always a valid spanner and never larger than the
    /// input, on arbitrary graphs.
    #[test]
    fn greedy_spanner_is_always_valid(
        n in 4usize..14,
        bits in proptest::collection::vec(any::<bool>(), 0..100),
        seed in any::<u64>(),
        k in 1usize..4,
    ) {
        let g = graph_from_bits(n, &bits);
        let stretch = (2 * k - 1) as f64;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = GreedySpanner::new(stretch).build(&g, &mut rng);
        prop_assert!(s.len() <= g.edge_count());
        prop_assert!(verify::is_k_spanner(&g, &s, stretch));
    }

    /// Baswana-Sen with parameter k is always a (2k-1)-spanner.
    #[test]
    fn baswana_sen_is_always_valid(
        n in 4usize..14,
        bits in proptest::collection::vec(any::<bool>(), 0..100),
        seed in any::<u64>(),
        k in 1usize..4,
    ) {
        let g = graph_from_bits(n, &bits);
        let alg = BaswanaSenSpanner::new(k);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = alg.build(&g, &mut rng);
        prop_assert!(verify::is_k_spanner(&g, &s, alg.stretch()));
    }

    /// The conversion theorem output is r-fault tolerant on arbitrary small
    /// graphs (verified exhaustively), for r in {1, 2}.
    ///
    /// The theorem's guarantee is "with high probability in n"; for the tiny
    /// graphs proptest generates the asymptotic iteration count is not enough
    /// to make the failure probability negligible, so the iteration budget is
    /// pinned high enough that a failure would indicate a real bug rather
    /// than bad luck.
    #[test]
    fn conversion_is_always_fault_tolerant(
        n in 4usize..10,
        bits in proptest::collection::vec(any::<bool>(), 0..45),
        seed in any::<u64>(),
        r in 1usize..3,
    ) {
        let g = graph_from_bits(n, &bits);
        let result = FtSpannerBuilder::new("conversion")
            .faults(r)
            .iterations(800)
            .seed(seed)
            .build(&g)
            .unwrap();
        prop_assert!(verify::is_fault_tolerant_k_spanner(&g, result.edge_set().unwrap(), 3.0, r));
    }

    /// Lemma 3.1: the characterization-based check and the definitional
    /// (fault-enumeration) check agree on arbitrary digraphs and arc subsets.
    #[test]
    fn lemma_3_1_equivalence(
        n in 2usize..7,
        bits in proptest::collection::vec(any::<bool>(), 0..42),
        subset in proptest::collection::vec(any::<bool>(), 0..42),
        r in 0usize..3,
    ) {
        let g = digraph_from_bits(n, &bits);
        let mut arcs = g.empty_arc_set();
        for (i, (id, _)) in g.arcs().enumerate() {
            if subset.get(i).copied().unwrap_or(false) {
                arcs.insert(id);
            }
        }
        prop_assert_eq!(
            verify::is_ft_two_spanner(&g, &arcs, r),
            verify::is_ft_two_spanner_by_definition(&g, &arcs, r)
        );
    }

    /// The Theorem 3.3 pipeline always returns a valid fault-tolerant
    /// 2-spanner whose cost is between the LP bound and the full cost.
    #[test]
    fn two_spanner_approximation_is_always_valid(
        n in 3usize..8,
        bits in proptest::collection::vec(any::<bool>(), 0..56),
        seed in any::<u64>(),
        r in 0usize..3,
    ) {
        let g = digraph_from_bits(n, &bits);
        if g.arc_count() == 0 {
            return Ok(());
        }
        let result = FtSpannerBuilder::new("two-spanner-lp")
            .faults(r)
            .seed(seed)
            .build_directed(&g)
            .unwrap();
        prop_assert!(verify::is_ft_two_spanner(&g, result.arc_set().unwrap(), r));
        prop_assert!(result.lp_objective.unwrap() <= result.cost + 1e-6);
        prop_assert!(result.cost <= g.total_cost() + 1e-9);
    }

    /// Fault sets never report out-of-range vertices and masks round-trip.
    #[test]
    fn fault_set_mask_roundtrip(
        n in 1usize..40,
        indices in proptest::collection::vec(0usize..40, 0..10),
    ) {
        let f = faults::FaultSet::from_indices(indices.clone());
        let mask = f.to_dead_mask(n);
        for (v, &dead) in mask.iter().enumerate() {
            prop_assert_eq!(dead, f.contains(NodeId::new(v)));
        }
        prop_assert!(f.len() <= indices.len());
    }

    /// Removing vertices never increases the edge count and never changes
    /// vertex identifiers.
    #[test]
    fn remove_vertices_is_monotone(
        n in 2usize..12,
        bits in proptest::collection::vec(any::<bool>(), 0..66),
        kill in proptest::collection::vec(0usize..12, 0..4),
    ) {
        let g = graph_from_bits(n, &bits);
        let faults: Vec<NodeId> = kill.iter().filter(|&&v| v < n).map(|&v| NodeId::new(v)).collect();
        let h = g.remove_vertices(&faults);
        prop_assert_eq!(h.node_count(), g.node_count());
        prop_assert!(h.edge_count() <= g.edge_count());
        for &f in &faults {
            prop_assert_eq!(h.degree(f), 0);
        }
    }

    /// The Thorup-Zwick construction is always a (2k-1)-spanner.
    #[test]
    fn thorup_zwick_is_always_valid(
        n in 4usize..14,
        bits in proptest::collection::vec(any::<bool>(), 0..100),
        seed in any::<u64>(),
        k in 1usize..4,
    ) {
        let g = graph_from_bits(n, &bits);
        let alg = ThorupZwickSpanner::new(k);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = alg.build(&g, &mut rng);
        prop_assert!(s.len() <= g.edge_count());
        prop_assert!(verify::is_k_spanner(&g, &s, alg.stretch()));
    }

    /// The greedy cover heuristic always satisfies the Lemma 3.1
    /// characterization, on arbitrary digraphs and fault budgets.
    #[test]
    fn greedy_cover_is_always_valid(
        n in 2usize..8,
        bits in proptest::collection::vec(any::<bool>(), 0..56),
        r in 0usize..4,
    ) {
        let g = digraph_from_bits(n, &bits);
        let result = FtSpannerBuilder::new("two-spanner-greedy")
            .faults(r)
            .build_directed(&g)
            .unwrap();
        let arcs = result.arc_set().unwrap();
        prop_assert!(verify::is_ft_two_spanner(&g, arcs, r));
        prop_assert!(verify::is_ft_two_spanner_by_definition(&g, arcs, r));
        prop_assert!(result.cost <= g.total_cost() + 1e-9);
        prop_assert!(result.cost >= directed_cost_lower_bound(&g, r) - 1e-9);
    }

    /// The edge-fault conversion output survives every single edge failure
    /// (verified exhaustively) on arbitrary small graphs.
    #[test]
    fn edge_fault_conversion_is_always_tolerant(
        n in 4usize..10,
        bits in proptest::collection::vec(any::<bool>(), 0..45),
        seed in any::<u64>(),
    ) {
        let g = graph_from_bits(n, &bits);
        let result = FtSpannerBuilder::new("edge-fault")
            .faults(1)
            .iterations(400)
            .seed(seed)
            .build(&g)
            .unwrap();
        prop_assert!(verify::is_edge_fault_tolerant_k_spanner(
            &g,
            result.edge_set().unwrap(),
            3.0,
            1
        ));
    }

    /// The degree lower bound never exceeds the size of any valid
    /// fault-tolerant spanner (here: the full edge set) and is monotone in r.
    #[test]
    fn degree_lower_bound_is_consistent(
        n in 2usize..12,
        bits in proptest::collection::vec(any::<bool>(), 0..66),
        r in 0usize..5,
    ) {
        let g = graph_from_bits(n, &bits);
        let bound = vertex_fault_size_lower_bound(&g, r);
        prop_assert!(bound <= g.edge_count());
        prop_assert!(vertex_fault_size_lower_bound(&g, r + 1) >= bound);
    }

    /// Connectivity helpers are mutually consistent: the component count from
    /// the union-find matches the BFS labelling, a graph has vertex
    /// connectivity 0 iff it is disconnected (or trivial), and removing an
    /// articulation point disconnects its component.
    #[test]
    fn connectivity_helpers_are_consistent(
        n in 2usize..12,
        bits in proptest::collection::vec(any::<bool>(), 0..66),
    ) {
        let g = graph_from_bits(n, &bits);
        let cc = components::connected_components(&g);
        let mut uf = components::UnionFind::new(g.node_count());
        for (_, e) in g.edges() {
            uf.union(e.u.index(), e.v.index());
        }
        prop_assert_eq!(cc.count(), uf.set_count());
        prop_assert_eq!(components::vertex_connectivity(&g) == 0, !g.is_connected() || n <= 1);
        for cut in components::articulation_points(&g) {
            let before = cc.count();
            let after = components::connected_components(&g.remove_vertices(&[cut])).count();
            // Removing the cut vertex isolates it (one new singleton) and
            // splits its component into at least two parts.
            prop_assert!(after >= before + 2, "removing {cut:?} did not disconnect");
        }
    }

    /// The stretch-distribution statistics agree with the verification oracle
    /// on the maximum, and the MST is never heavier than any spanning
    /// connected subgraph.
    #[test]
    fn stats_and_tree_agree_with_oracles(
        n in 2usize..10,
        bits in proptest::collection::vec(any::<bool>(), 0..45),
        subset in proptest::collection::vec(any::<bool>(), 0..45),
    ) {
        let g = graph_from_bits(n, &bits);
        let mut spanner = g.empty_edge_set();
        for (i, (id, _)) in g.edges().enumerate() {
            if subset.get(i).copied().unwrap_or(true) {
                spanner.insert(id);
            }
        }
        let s = stats::stretch_stats(&g, &spanner).unwrap();
        let oracle = verify::max_stretch(&g, &spanner);
        prop_assert!(s.max == oracle || (s.max - oracle).abs() < 1e-9);
        // MST weight is a lower bound on the weight of the full edge set of a
        // connected graph with unit weights (n - 1 vs m).
        let mst = tree::minimum_spanning_forest(&g);
        prop_assert!(g.edge_set_weight(&mst).unwrap() <= g.total_weight() + 1e-9);
        let cc = components::connected_components(&g);
        prop_assert_eq!(mst.len(), g.node_count() - cc.count());
    }

    /// The distributed Lemma 3.1 check agrees with the centralized oracle on
    /// arbitrary digraphs and arc subsets.
    #[test]
    fn distributed_two_spanner_check_matches_centralized(
        n in 2usize..7,
        bits in proptest::collection::vec(any::<bool>(), 0..42),
        subset in proptest::collection::vec(any::<bool>(), 0..42),
        r in 0usize..3,
    ) {
        let g = digraph_from_bits(n, &bits);
        let mut arcs = g.empty_arc_set();
        for (i, (id, _)) in g.arcs().enumerate() {
            if subset.get(i).copied().unwrap_or(false) {
                arcs.insert(id);
            }
        }
        prop_assert_eq!(
            verify::is_ft_two_spanner(&g, &arcs, r),
            distributed_two_spanner_check(&g, &arcs, r).is_valid()
        );
    }

    /// For random graphs, random fault sets `|F| <= r` and every registry
    /// algorithm, `FaultSession::distance` equals Dijkstra on the
    /// fault-restricted spanner subgraph, and every `stretch_certificate`
    /// verifies against the declared `k`. Directed planners must be rejected
    /// by the artifact constructor instead.
    #[test]
    fn sessions_agree_with_dijkstra_for_every_registry_algorithm(
        n in 8usize..13,
        bits in proptest::collection::vec(any::<bool>(), 0..66),
        seed in any::<u64>(),
        r in 1usize..3,
        fault_picks in proptest::collection::vec(0usize..13, 0..2),
    ) {
        let g = graph_from_bits(n, &bits);
        let fault_set: Vec<NodeId> = {
            let mut picks: Vec<usize> =
                fault_picks.iter().map(|&v| v % n).take(r).collect();
            picks.sort_unstable();
            picks.dedup();
            picks.into_iter().map(NodeId::new).collect()
        };
        for algorithm in registry().iter() {
            if algorithm.graph_family() != GraphFamily::Undirected {
                continue;
            }
            let mut builder = FtSpannerBuilder::new(algorithm.name()).faults(r).seed(seed);
            // The oversampling theorems are "with high probability in n"; on
            // proptest's tiny adversarial graphs the asymptotic budget is not
            // enough, so pin it high (same practice as the conversion
            // property above). The other algorithms verify or enumerate.
            if matches!(
                algorithm.name(),
                "conversion" | "corollary-2.2" | "edge-fault" | "distributed-conversion"
            ) {
                builder = builder.iterations(800);
            }
            let artifact = builder.build_artifact(&g).unwrap();
            let session = if artifact.fault_model() == FaultModel::Edge {
                // Edge-fault artifacts take edge faults; the vertex picks
                // translate to each picked vertex's first incident edge.
                let edge_faults: Vec<(NodeId, NodeId)> = fault_set
                    .iter()
                    .filter_map(|&v| g.incident(v).next().map(|(w, _)| (v, w)))
                    .take(r)
                    .collect();
                let surviving: ftspan_graph::faults::EdgeFaultSet = edge_faults
                    .iter()
                    .filter_map(|&(u, v)| g.find_edge(u, v))
                    .collect();
                let session = artifact.under_edge_faults(&edge_faults).unwrap();
                let h = g.subgraph(&surviving.remove_from(artifact.spanner_edges())).unwrap();
                for u in g.nodes() {
                    let expected = shortest_path::dijkstra(&h, u).unwrap();
                    prop_assert_eq!(
                        session.distances_from(u).unwrap(),
                        expected,
                        "`{}` edge-fault session diverged", algorithm.name()
                    );
                }
                session
            } else {
                let session = artifact.under_faults(&fault_set).unwrap();
                let h = g
                    .subgraph(artifact.spanner_edges())
                    .unwrap()
                    .remove_vertices(&fault_set);
                for u in g.nodes() {
                    let expected = shortest_path::dijkstra(&h, u).unwrap();
                    let got = session.distances_from(u).unwrap();
                    for v in g.nodes() {
                        let dead = fault_set.contains(&u) || fault_set.contains(&v);
                        let want = if dead { f64::INFINITY } else { expected[v.index()] };
                        prop_assert_eq!(
                            got[v.index()], want,
                            "`{}` session diverged at ({}, {})", algorithm.name(), u, v
                        );
                    }
                }
                session
            };
            for u in 0..n {
                let cert = session
                    .stretch_certificate(NodeId::new(u), NodeId::new((u + 3) % n))
                    .unwrap();
                prop_assert!(
                    cert.holds(),
                    "`{}` certificate violated the declared k", algorithm.name()
                );
            }
        }
        // The directed planners cannot serve distance queries.
        let dg = digraph_from_bits(4, &[true; 12]);
        let plan = FtSpannerBuilder::new("two-spanner-greedy")
            .faults(1)
            .build_directed(&dg)
            .unwrap();
        prop_assert!(ftspan_core::FtSpanner::from_report(&Graph::new(4), &plan).is_err());
    }

    /// The engine's query planner is observationally transparent: for
    /// arbitrary batches — mixed artifacts (including unknown ones), mixed
    /// query kinds, arbitrary fault lists (duplicated, unsorted, out of
    /// range, oversized, or of the wrong kind) — grouped execution returns
    /// exactly what naive per-query sessions return, at any worker count,
    /// and commutes with batch shuffling.
    #[test]
    fn planner_grouped_batches_match_naive_sessions(
        picks in proptest::collection::vec(
            (0usize..4, 0usize..3, 0usize..16, 0usize..16,
             proptest::collection::vec(0usize..16, 0..4), any::<bool>()),
            1..40,
        ),
        workers in 1usize..9,
        perm_seed in any::<u64>(),
    ) {
        let (engine, g) = serving_fixture();
        let m = g.edge_count();
        let edge_of = |i: usize| {
            let (_, e) = g.edges().nth(i % m).unwrap();
            (e.u, e.v)
        };
        let queries: Vec<Query> = picks
            .iter()
            .map(|&(artifact, kind, u, v, ref fault_picks, mismatch)| {
                let artifact = ["vertex", "edge", "vertex", "ghost"][artifact];
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                let faults: Vec<NodeId> =
                    fault_picks.iter().map(|&f| NodeId::new(f)).collect();
                let mut query = match kind {
                    0 => Query::distance(artifact, faults, u, v),
                    1 => Query::path(artifact, faults, u, v),
                    _ => Query::certificate(artifact, faults, u, v),
                };
                // Route fault lists to the kind the artifact expects —
                // unless `mismatch` deliberately sends the wrong kind.
                if artifact == "edge" && !mismatch {
                    let edge_faults: Vec<(NodeId, NodeId)> =
                        fault_picks.iter().map(|&f| edge_of(f)).collect();
                    query = query.with_edge_faults(edge_faults);
                } else if artifact == "vertex" && mismatch {
                    query = query.with_edge_faults(vec![edge_of(0)]);
                }
                query
            })
            .collect();

        let naive = engine.run_batch_naive(&queries);
        let planned = engine.clone().with_workers(workers).run_batch(&queries);
        prop_assert_eq!(&naive, &planned, "planner diverged (workers {})", workers);

        // Shuffling the batch permutes the results and nothing else.
        let mut order: Vec<usize> = (0..queries.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(perm_seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let shuffled: Vec<Query> = order.iter().map(|&i| queries[i].clone()).collect();
        let planned_shuffled = engine.clone().with_workers(workers).run_batch(&shuffled);
        for (slot, &original) in order.iter().enumerate() {
            prop_assert_eq!(&planned_shuffled[slot], &naive[original],
                "shuffled slot {} diverged from original slot {}", slot, original);
        }
    }

    /// The partitioner emits a disjoint full cover with connected parts
    /// within the imbalance bound at any seed and part count — or the
    /// documented typed error when the graph cannot be covered — and the
    /// same configuration always reproduces the same assignment.
    #[test]
    fn partitioner_always_covers_within_bound(
        n in 2usize..32,
        bits in proptest::collection::vec(any::<bool>(), 0..300),
        parts in 1usize..6,
        seed in any::<u64>(),
    ) {
        let g = graph_from_bits(n, &bits);
        let parts = parts.min(n);
        let config = partition::PartitionConfig::new(parts).with_seed(seed);
        match partition::partition(&g, &config) {
            Ok(p) => {
                prop_assert_eq!(p.part_count(), parts);
                prop_assert_eq!(p.sizes().iter().sum::<usize>(), n);
                let mut seen = vec![false; n];
                for part in 0..parts {
                    prop_assert_eq!(p.members(part).len(), p.sizes()[part]);
                    prop_assert!(p.sizes()[part] <= p.capacity());
                    prop_assert!(p.sizes()[part] >= 1);
                    for v in p.members(part) {
                        prop_assert!(!seen[v.index()], "vertex {} claimed twice", v);
                        seen[v.index()] = true;
                        prop_assert_eq!(p.part_of(v), part);
                    }
                    // Each part induces a connected subgraph.
                    let members = p.members(part);
                    let mut reach = vec![false; n];
                    let mut stack = vec![members[0]];
                    reach[members[0].index()] = true;
                    while let Some(u) = stack.pop() {
                        for (w, _) in g.incident(u) {
                            if p.part_of(w) == part && !reach[w.index()] {
                                reach[w.index()] = true;
                                stack.push(w);
                            }
                        }
                    }
                    for &v in &members {
                        prop_assert!(reach[v.index()], "part {} is disconnected at {}", part, v);
                    }
                }
                prop_assert!(seen.iter().all(|&b| b), "partition is not a full cover");
                // Cut edges are exactly the edges crossing parts, and the
                // boundary is exactly their endpoint set.
                let cut = p.cut_edges(&g).unwrap();
                for (id, e) in g.edges() {
                    prop_assert_eq!(
                        cut.binary_search(&id).is_ok(),
                        p.part_of(e.u) != p.part_of(e.v)
                    );
                }
                let boundary = p.boundary_vertices(&g).unwrap();
                for v in g.nodes() {
                    let crosses = g.incident(v).any(|(w, _)| p.part_of(w) != p.part_of(v));
                    prop_assert_eq!(boundary.binary_search(&v).is_ok(), crosses);
                }
                // Deterministic: the same configuration reproduces itself.
                let again = partition::partition(&g, &config).unwrap();
                prop_assert_eq!(again.assignment(), p.assignment());
            }
            Err(e) => prop_assert!(
                matches!(e, GraphError::PartitionStalled { .. }),
                "unexpected error kind: {}", e
            ),
        }
    }

    /// The CSR search is exact at every weight spread: on a graph above the
    /// bucket queue's size switch with log-uniform weights over 0 to 13
    /// decades (so on both sides of the 100x spread rule), `sssp_into`
    /// distances are bit-equal to the reference Dijkstra, and the
    /// target-bounded search agrees with the full run at its target.
    #[test]
    fn csr_sssp_matches_reference_at_every_weight_spread(
        n in 150usize..260,
        extra in 1100usize..1500,
        decades in 0.0f64..13.0,
        seed in any::<u64>(),
    ) {
        use fault_tolerant_spanners::graph::csr::{CsrSubgraph, SsspWorkspace};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = Graph::new(n);
        let mut seen = std::collections::HashSet::new();
        while g.edge_count() < extra {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v && seen.insert((u.min(v), u.max(v))) {
                let w = 1e-3 * 10f64.powf(decades * rng.gen::<f64>());
                g.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
            }
        }
        let csr = CsrSubgraph::from_graph(&g);
        let source = NodeId::new(rng.gen_range(0..n));
        let target = NodeId::new(rng.gen_range(0..n));
        let want = shortest_path::dijkstra(&g, source).unwrap();
        let mut ws = SsspWorkspace::new();
        csr.sssp_into(source, None, None, &mut ws).unwrap();
        for (v, (a, b)) in want.iter().zip(ws.distances()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "vertex {}", v);
        }
        let mut bounded = SsspWorkspace::new();
        csr.sssp_target_into(source, target, None, None, &mut bounded).unwrap();
        prop_assert_eq!(
            bounded.distances()[target.index()].to_bits(),
            want[target.index()].to_bits()
        );
    }

    /// Decoding `.ftspan` v2 images never panics: the pristine image round
    /// trips exactly, every truncation is a typed error, and arbitrary byte
    /// mutations either decode cleanly or fail with a typed error.
    #[test]
    fn binary_v2_decoding_survives_mutation(
        n in 4usize..12,
        bits in proptest::collection::vec(any::<bool>(), 1..66),
        cut_pick in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), any::<u64>()), 1..6),
    ) {
        let g = graph_from_bits(n, &bits);
        let artifact = FtSpanner::from_edge_set(
            &g,
            g.full_edge_set(),
            "adopted",
            "proptest",
            FaultModel::Vertex,
            1,
            3.0,
        )
        .unwrap();
        let mut image = Vec::new();
        artifact.to_binary_writer(&mut image).unwrap();
        prop_assert_eq!(&FtSpanner::from_binary_slice(&image).unwrap(), &artifact);
        prop_assert_eq!(&FtSpannerView::parse(&image).unwrap().materialize().unwrap(), &artifact);

        // Every proper prefix is rejected, never a panic.
        let cut = cut_pick % image.len();
        prop_assert!(FtSpanner::from_binary_slice(&image[..cut]).is_err());

        // Arbitrary byte mutations must decode or fail with a typed error.
        let mut mutated = image.clone();
        for &(at, byte) in &flips {
            let i = at % mutated.len();
            mutated[i] ^= (byte & 0xFF) as u8;
        }
        match FtSpanner::from_binary_slice(&mutated) {
            Ok(decoded) => {
                // Still well-formed (e.g. only weights or text changed).
                prop_assert!(decoded.spanner_edge_count() <= decoded.source_edge_count());
            }
            Err(e) => {
                prop_assert!(matches!(e, CoreError::InvalidParameter { .. }), "{e:?}");
            }
        }
    }
}

//! `CsrSubgraph::sssp_into` pinned **bit-equal** to the `SsspOptions`
//! reference Dijkstra on the parent graph, and
//! `CsrSubgraph::sssp_target_into` pinned bit-equal to `sssp_into` at its
//! target.
//!
//! `sssp_into` runs one relaxation loop over one of two frontiers, picked
//! from the packed CSR: a bucket queue from 2048 half-edges on when the
//! largest weight is at most 100 times the smallest positive one, a binary
//! heap otherwise. Both drive the same strict-improvement relaxation to
//! exhaustion, so their distance arrays must agree with the reference to the
//! last bit on every graph and mask; that exact equality is what lets the
//! serving paths switch frontiers without changing a single digest. The
//! cases below cover CSRs on both sides of the switch, full and partial edge
//! views, vertex and edge masks. Parent trees may break ties differently
//! (any tight shortest-path tree is correct), so they are checked for
//! validity, not identity.
//!
//! The target-bounded search is the same loop stopped once the target's
//! label is final, so on the same CSR and masks its target distance and
//! reconstructed path must equal the full run's exactly: every case also
//! runs it to a pseudo-random target, to the source, to a dead target and
//! to an unreachable one. A separate test checks that the stop happens at
//! all, which equality alone cannot see.

use ftspan_graph::csr::{reconstruct_path, CsrSubgraph, SsspWorkspace};
use ftspan_graph::shortest_path::SsspOptions;
use ftspan_graph::stream::GeneratorSpec;
use ftspan_graph::{generate, EdgeSet, Graph, NodeId};
use proptest::prelude::*;

/// Half-edge count from which `sssp_into` may use the bucket queue.
const BUCKET_HALF_EDGES: usize = 2048;

fn graph_from_bits(n: usize, bits: &[bool], weights: &[f64]) -> Graph {
    let mut g = Graph::new(n);
    let mut idx = 0usize;
    for u in 0..n {
        for v in (u + 1)..n {
            if idx < bits.len() && bits[idx] {
                let w = weights.get(idx).copied().unwrap_or(1.0).abs().max(0.01);
                g.add_edge(NodeId::new(u), NodeId::new(v), w).unwrap();
            }
            idx += 1;
        }
    }
    g
}

/// Runs `sssp_into` on `csr` (packed from the edges `selected` of `g`) and
/// checks the contract: distances bit-identical to the reference Dijkstra
/// over the selected, live edges of `g`, and a valid (tight, alive, rooted)
/// parent tree. Then checks the bounded search against that full run
/// ([`assert_bounded_runs_match`]), in the same workspace.
fn assert_matches_reference(
    g: &Graph,
    selected: &EdgeSet,
    csr: &CsrSubgraph,
    source: NodeId,
    dead: Option<&[bool]>,
    dead_edges: Option<&[bool]>,
    ws: &mut SsspWorkspace,
) {
    csr.sssp_into(source, dead, dead_edges, ws).unwrap();

    let mut live = g.empty_edge_set();
    for e in selected.iter() {
        if !dead_edges.is_some_and(|m| m[e.index()]) {
            live.insert(e);
        }
    }
    let mut reference = SsspOptions::new().restrict_edges(&live);
    if let Some(dead) = dead {
        reference = reference.forbid_vertices(dead);
    }
    let want = reference.run(g, source).unwrap();
    let got = ws.distances();
    assert_eq!(want.len(), got.len());
    for v in 0..want.len() {
        assert_eq!(
            want[v].to_bits(),
            got[v].to_bits(),
            "vertex {v}: reference {} vs sssp_into {} ({} half-edges)",
            want[v],
            got[v],
            2 * csr.edge_count()
        );
    }

    let source_dead = dead.is_some_and(|d| d[source.index()]);
    for (v, parent) in ws.parents().iter().enumerate() {
        match parent {
            None => {
                // Only the (alive) source and unreached vertices lack a
                // parent.
                if v == source.index() && !source_dead {
                    assert_eq!(got[v], 0.0);
                } else {
                    assert!(got[v].is_infinite(), "vertex {v} reached without parent");
                }
            }
            Some(p) => {
                assert!(got[v].is_finite());
                assert!(got[p.index()].is_finite());
                assert!(!dead.is_some_and(|m| m[v] || m[p.index()]));
                // Some alive edge (p, v) must make the label exactly tight —
                // the defining property of a shortest-path tree edge under
                // floating-point arithmetic.
                let tight = csr.neighbors(*p).any(|(nbr, w, e)| {
                    nbr.index() == v
                        && !dead_edges.is_some_and(|m| m[e.index()])
                        && got[v] == got[p.index()] + w
                });
                assert!(tight, "vertex {v}: parent edge not tight/alive");
            }
        }
    }
    let full_dist = got.to_vec();
    let full_parents = ws.parents().to_vec();
    assert_bounded_runs_match(csr, source, dead, dead_edges, &full_dist, &full_parents, ws);
}

/// Runs `sssp_target_into` from `source` to a pseudo-random target, to the
/// source itself, to the first dead vertex and to the first live vertex
/// the full run left unreached (when those exist), and checks each against
/// the full run's `full_dist` / `full_parents` on the same CSR and masks:
/// the target's distance bit for bit, and the reconstructed path.
fn assert_bounded_runs_match(
    csr: &CsrSubgraph,
    source: NodeId,
    dead: Option<&[bool]>,
    dead_edges: Option<&[bool]>,
    full_dist: &[f64],
    full_parents: &[Option<NodeId>],
    ws: &mut SsspWorkspace,
) {
    let n = csr.node_count();
    let is_dead = |v: usize| dead.is_some_and(|d| d[v]);
    let random = (source.index().wrapping_mul(2_654_435_761) + 7 * csr.edge_count() + 1) % n;
    let dead_target = (0..n).find(|&v| is_dead(v));
    let unreachable = (0..n).find(|&v| !is_dead(v) && full_dist[v].is_infinite());
    let targets = [Some(random), Some(source.index()), dead_target, unreachable];
    for t in targets.into_iter().flatten() {
        let target = NodeId::new(t);
        csr.sssp_target_into(source, target, dead, dead_edges, ws)
            .unwrap();
        assert_eq!(
            ws.distances()[t].to_bits(),
            full_dist[t].to_bits(),
            "target {t} from {}: bounded {} vs full {} ({} half-edges)",
            source.index(),
            ws.distances()[t],
            full_dist[t],
            2 * csr.edge_count()
        );
        assert_eq!(
            reconstruct_path(ws.parents(), ws.distances(), source, target),
            reconstruct_path(full_parents, full_dist, source, target),
            "target {t} from {}: paths differ",
            source.index()
        );
    }
}

/// Checks a full and a partial (every other edge) view of `g` from
/// `sources`, with no masks, each mask alone and both together.
fn assert_views_match(g: &Graph, sources: &[usize], ws: &mut SsspWorkspace) {
    let full = g.full_edge_set();
    let mut partial = g.empty_edge_set();
    for (id, _) in g.edges() {
        if id.index() % 2 == 0 {
            partial.insert(id);
        }
    }
    // Every ninth vertex and every seventh edge id are dead.
    let dead: Vec<bool> = (0..g.node_count()).map(|v| v % 9 == 4).collect();
    let dead_edges: Vec<bool> = (0..g.edge_count()).map(|e| e % 7 == 3).collect();
    for selected in [&full, &partial] {
        let csr = CsrSubgraph::from_edge_set(g, selected).unwrap();
        for &src in sources {
            let source = NodeId::new(src);
            for (dead, dead_edges) in [
                (None, None),
                (Some(&dead[..]), None),
                (None, Some(&dead_edges[..])),
                (Some(&dead[..]), Some(&dead_edges[..])),
            ] {
                assert_matches_reference(g, selected, &csr, source, dead, dead_edges, ws);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// G(n, p)-style random graphs with arbitrary positive weights (heap
    /// frontier), under random vertex and edge masks.
    #[test]
    fn small_random_graphs_match_reference(
        n in 2usize..14,
        bits in proptest::collection::vec(any::<bool>(), 0..91),
        weights in proptest::collection::vec(0.01f64..50.0, 0..91),
        dead_bits in proptest::collection::vec(any::<bool>(), 14..15),
        dead_edge_bits in proptest::collection::vec(any::<bool>(), 91..92),
    ) {
        let g = graph_from_bits(n, &bits, &weights);
        let full = g.full_edge_set();
        let csr = CsrSubgraph::from_graph(&g);
        let dead: Vec<bool> = dead_bits[..n].to_vec();
        let dead_edges: Vec<bool> = (0..g.edge_count())
            .map(|e| dead_edge_bits[e % dead_edge_bits.len()])
            .collect();
        let mut ws = SsspWorkspace::new();
        for src in 0..n {
            let source = NodeId::new(src);
            assert_matches_reference(&g, &full, &csr, source, None, None, &mut ws);
            assert_matches_reference(
                &g, &full, &csr, source, Some(&dead), Some(&dead_edges), &mut ws,
            );
        }
    }

    /// Grids and tori from the streaming generator with seeded uniform
    /// weights, from 1x1 up to 30x30: the larger ones cross the switch to
    /// the bucket queue, the family in which many buckets hold many entries
    /// at once.
    #[test]
    fn grids_match_reference(
        rows in 1usize..31,
        cols in 1usize..31,
        wrap in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = GeneratorSpec::Grid {
            rows,
            cols,
            wrap,
            weights: generate::WeightKind::Uniform { min: 0.5, max: 3.0 },
            seed,
        };
        let g = spec.generate_csr().unwrap().to_graph().unwrap();
        let n = g.node_count();
        let mut ws = SsspWorkspace::new();
        assert_views_match(&g, &[0, n / 2, n - 1], &mut ws);
    }

    /// Preferential-attachment (power-law) graphs: hubs concentrate
    /// relaxations, unit weights collapse everything into few buckets.
    #[test]
    fn power_law_graphs_match_reference(
        nodes in 5usize..600,
        attach in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = GeneratorSpec::PreferentialAttachment { nodes, attach, seed };
        let g = spec.generate_csr().unwrap().to_graph().unwrap();
        let mut ws = SsspWorkspace::new();
        assert_views_match(&g, &[0, nodes - 1], &mut ws);
    }
}

/// G(n, m) graphs with unit, `{0, 1, 2}`-integer (zero-weight ties) and
/// continuous weights, just below and just above the 2048-half-edge
/// switch, so each weight profile runs through both frontiers.
#[test]
fn both_frontiers_match_reference() {
    let below = BUCKET_HALF_EDGES / 2 - 24;
    let above = BUCKET_HALF_EDGES / 2 + 24;
    let profiles: [fn(usize) -> f64; 3] = [
        |_| 1.0,
        |e| (e % 3) as f64,
        |e| 0.01 + (e.wrapping_mul(2_654_435_761) % 1000) as f64 / 100.0,
    ];
    let mut ws = SsspWorkspace::new();
    let mut sides = [false; 2];
    for (seed, weight) in (11..).zip(profiles) {
        for edges in [below, above] {
            let spec = GeneratorSpec::Gnm {
                nodes: 400,
                edges,
                weights: generate::WeightKind::Unit,
                seed,
            };
            let unit = spec.generate_csr().unwrap().to_graph().unwrap();
            let g = Graph::from_edges(
                unit.node_count(),
                unit.edges()
                    .map(|(id, e)| (e.u.index(), e.v.index(), weight(id.index()))),
            )
            .unwrap();
            sides[usize::from(2 * g.edge_count() >= BUCKET_HALF_EDGES)] = true;
            assert_views_match(&g, &[0, 133, 399], &mut ws);
        }
    }
    assert_eq!(sides, [true, true], "both frontiers must be exercised");
}

/// One workspace serves an interleaved sequence of graphs of very
/// different sizes and weight scales, on both sides of the switch; every
/// traversal must produce the same bits as a traversal into a fresh
/// workspace, and as the reference.
#[test]
fn workspace_reuse_never_leaks_state() {
    let specs = [
        GeneratorSpec::Gnm {
            nodes: 300,
            edges: 1500,
            weights: generate::WeightKind::Uniform {
                min: 0.001,
                max: 0.01,
            },
            seed: 1,
        },
        GeneratorSpec::Grid {
            rows: 9,
            cols: 11,
            wrap: true,
            weights: generate::WeightKind::Uniform {
                min: 100.0,
                max: 90000.0,
            },
            seed: 2,
        },
        GeneratorSpec::PreferentialAttachment {
            nodes: 50,
            attach: 2,
            seed: 3,
        },
        GeneratorSpec::Gnm {
            nodes: 8,
            edges: 12,
            weights: generate::WeightKind::Unit,
            seed: 4,
        },
    ];
    let mut shared = SsspWorkspace::new();
    for spec in &specs {
        let csr = spec.generate_csr().unwrap();
        let g = csr.to_graph().unwrap();
        let full = g.full_edge_set();
        let n = csr.node_count();
        for src in [0, n - 1] {
            let source = NodeId::new(src);
            assert_matches_reference(&g, &full, &csr, source, None, None, &mut shared);
            // `shared` last held bounded runs: a full run after them must
            // see none of their partial state.
            csr.sssp_into(source, None, None, &mut shared).unwrap();
            let mut fresh = SsspWorkspace::new();
            csr.sssp_into(source, None, None, &mut fresh).unwrap();
            assert_eq!(fresh.distances(), shared.distances());
            assert_eq!(fresh.parents(), shared.parents());
        }
    }
}

/// Reweights `g` edge by edge with `weight(edge id)`.
fn reweighted(g: &Graph, weight: impl Fn(usize) -> f64) -> Graph {
    Graph::from_edges(
        g.node_count(),
        g.edges()
            .map(|(id, e)| (e.u.index(), e.v.index(), weight(id.index()))),
    )
    .unwrap()
}

/// Grids with hashed `{0, 1, 2}` weights, on both sides of the switch:
/// zero-weight edges and many equal labels, the profile in which ties are
/// everywhere and a stop at `dist[target]` must not cut off an equal-label
/// entry that could still matter.
#[test]
fn tied_weight_grids_match_reference() {
    let mut ws = SsspWorkspace::new();
    for (rows, cols) in [(9, 11), (40, 40)] {
        let spec = GeneratorSpec::Grid {
            rows,
            cols,
            wrap: false,
            weights: generate::WeightKind::Unit,
            seed: 5,
        };
        let unit = spec.generate_csr().unwrap().to_graph().unwrap();
        let g = reweighted(&unit, |e| (e.wrapping_mul(2_654_435_761) >> 7) as f64 % 3.0);
        let n = g.node_count();
        assert_views_match(&g, &[0, n / 3, n - 1], &mut ws);
    }
}

/// Weights of 1 to 10 with every third edge heavy, above the size switch.
/// At 100 the spread is the widest that keeps the bucket queue: the bucket
/// width is the mean weight, far above most edges, so almost every entry
/// lands in the first few buckets — the regime where a stop decided per
/// bucket is coarsest. At 1e9 the search runs on the heap.
#[test]
fn wide_weight_spread_matches_reference() {
    let spec = GeneratorSpec::Gnm {
        nodes: 500,
        edges: 1500,
        weights: generate::WeightKind::Unit,
        seed: 17,
    };
    let unit = spec.generate_csr().unwrap().to_graph().unwrap();
    let mut ws = SsspWorkspace::new();
    for heavy in [100.0, 1e9] {
        let g = reweighted(&unit, |e| {
            let h = e.wrapping_mul(2_654_435_761) % 1_000_003;
            if h % 3 == 0 {
                heavy
            } else {
                1.0 + (h % 10) as f64
            }
        });
        assert!(2 * g.edge_count() >= BUCKET_HALF_EDGES);
        let mut weights: Vec<f64> = g.edges().map(|(_, e)| e.weight).collect();
        let mean = weights.iter().sum::<f64>() / weights.len() as f64;
        weights.sort_by(f64::total_cmp);
        let median = weights[weights.len() / 2];
        assert!(mean >= 4.0 * median, "mean {mean}, median {median}");
        assert_views_match(&g, &[0, 250, 499], &mut ws);
    }
}

/// Log-uniform weights from 1e-3 over 6, 9 and 12 decades: a spread far
/// past the bucket queue's, which buckets of the mean weight would drain
/// almost in arbitrary order, re-relaxing vertices many times over.
#[test]
fn heavy_tailed_weights_match_reference() {
    let spec = GeneratorSpec::Gnm {
        nodes: 500,
        edges: 1500,
        weights: generate::WeightKind::Unit,
        seed: 23,
    };
    let unit = spec.generate_csr().unwrap().to_graph().unwrap();
    let mut ws = SsspWorkspace::new();
    for decades in [6.0, 9.0, 12.0] {
        let g = reweighted(&unit, |e| {
            let h = e.wrapping_mul(2_654_435_761) % 1_000_003;
            1e-3 * 10f64.powf(decades * h as f64 / 1_000_003.0)
        });
        assert!(2 * g.edge_count() >= BUCKET_HALF_EDGES);
        assert_views_match(&g, &[0, 250, 499], &mut ws);
    }
}

/// The stop happens: a bounded search to a neighbour of the source leaves
/// the far half of a long path unlabelled, on the bucket queue (a path of
/// at least 2048 half-edges) and on the heap (a short one), from an end and
/// from the middle. A search that never stopped would label everything and
/// still answer exactly, so only this test can see it.
#[test]
fn bounded_search_stops_near_the_source() {
    let mut ws = SsspWorkspace::new();
    for n in [1100usize, 40] {
        let csr = CsrSubgraph::from_graph(&generate::path(n));
        assert_eq!(
            2 * csr.edge_count() >= BUCKET_HALF_EDGES,
            n == 1100,
            "one run per frontier"
        );
        for (source, target, far) in [(0, 1, n / 2..n), (n / 2, n / 2 + 1, 0..n / 4)] {
            csr.sssp_target_into(
                NodeId::new(source),
                NodeId::new(target),
                None,
                None,
                &mut ws,
            )
            .unwrap();
            assert_eq!(ws.distances()[target], 1.0);
            let labelled = far
                .clone()
                .filter(|&v| ws.distances()[v].is_finite())
                .count();
            assert_eq!(
                labelled, 0,
                "n = {n}: search from {source} went past {far:?}"
            );
        }
    }
}

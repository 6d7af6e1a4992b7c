//! Differential battery for [`CsrSubgraph::sssp_repair_into`]: repairing
//! the fault-free row from a source must give **bit-identical** distances
//! to a masked [`CsrSubgraph::sssp_into`] run under the same masks.
//!
//! The cases mix unit, `{0, 1, 2}`-integer (zero-weight ties) and
//! continuous weights; 0–3 dead vertices and random dead edges (including
//! dead parent edges outside a partial CSR); dead sources; disconnected
//! graphs; and CSRs on both sides of the 2048-half-edge switch from the
//! binary heap to the bucket queue, so the free row comes from both.

use ftspan_graph::csr::{CsrSubgraph, SsspWorkspace};
use ftspan_graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Half-edge count at which `sssp_into` switches to the bucket queue.
const BUCKET_HALF_EDGES: usize = 2048;

/// Edge weights of one case.
#[derive(Debug, Clone, Copy)]
enum Weights {
    Unit,
    ZeroOneTwo,
    Continuous,
}

impl Weights {
    fn from_index(i: u8) -> Self {
        [Weights::Unit, Weights::ZeroOneTwo, Weights::Continuous][usize::from(i % 3)]
    }

    fn draw(self, rng: &mut ChaCha8Rng) -> f64 {
        match self {
            Weights::Unit => 1.0,
            Weights::ZeroOneTwo => f64::from(rng.gen_range(0u8..3)),
            Weights::Continuous => rng.gen_range(0.01..10.0),
        }
    }
}

/// A random graph of `n` vertices and about `m` edges; with `split`, no
/// edge joins the two halves of the vertex range, so it is disconnected.
fn random_graph(n: usize, m: usize, weights: Weights, split: bool, rng: &mut ChaCha8Rng) -> Graph {
    let mut g = Graph::new(n);
    let half = n / 2;
    for _ in 0..m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || (split && (u < half) != (v < half)) {
            continue;
        }
        let (u, v) = (NodeId::new(u), NodeId::new(v));
        if g.find_edge(u, v).is_none() {
            g.add_edge(u, v, weights.draw(rng)).unwrap();
        }
    }
    g
}

/// One case's fault set: the vertex and parent-edge masks, and the
/// fault-end list the repair is seeded from (dead vertices, then both
/// endpoints of each dead edge).
struct Faults {
    dead: Vec<bool>,
    dead_edges: Vec<bool>,
    ends: Vec<NodeId>,
}

/// Masks `dead_count` random vertices and about `dead_edge_count` random
/// parent edges.
fn random_faults(
    g: &Graph,
    dead_count: usize,
    dead_edge_count: usize,
    rng: &mut ChaCha8Rng,
) -> Faults {
    let n = g.node_count();
    let mut dead = vec![false; n];
    let mut ends = Vec::new();
    for _ in 0..dead_count {
        let x = rng.gen_range(0..n);
        dead[x] = true;
        ends.push(NodeId::new(x));
    }
    let mut dead_edges = vec![false; g.edge_count()];
    if g.edge_count() > 0 {
        for _ in 0..dead_edge_count {
            let id = rng.gen_range(0..g.edge_count());
            dead_edges[id] = true;
            let e = g.edge(ftspan_graph::EdgeId::new(id));
            ends.extend([e.u, e.v]);
        }
    }
    Faults {
        dead,
        dead_edges,
        ends,
    }
}

/// Repairs the free row from `source` and checks it bit for bit against a
/// masked traversal, for vertex masks, edge masks and both together. The
/// three workspaces (free, masked, repair) are reused across calls.
fn assert_repair_matches(
    csr: &CsrSubgraph,
    source: NodeId,
    faults: &Faults,
    [free_ws, masked_ws, repair_ws]: &mut [SsspWorkspace; 3],
) -> Result<(), TestCaseError> {
    csr.sssp_into(source, None, None, free_ws).unwrap();
    let free = free_ws.distances();
    let (dead, dead_edges) = (&faults.dead[..], &faults.dead_edges[..]);
    for (dead, dead_edges) in [
        (Some(dead), None),
        (None, Some(dead_edges)),
        (Some(dead), Some(dead_edges)),
    ] {
        csr.sssp_into(source, dead, dead_edges, masked_ws).unwrap();
        csr.sssp_repair_into(source, free, dead, dead_edges, &faults.ends, repair_ws)
            .unwrap();
        let (want, got) = (masked_ws.distances(), repair_ws.distances());
        prop_assert_eq!(want.len(), got.len());
        for v in 0..want.len() {
            prop_assert!(
                want[v].to_bits() == got[v].to_bits(),
                "source {}, vertex {}: masked {} vs repaired {} (vertex mask {}, edge mask {})",
                source.index(),
                v,
                want[v],
                got[v],
                dead.is_some(),
                dead_edges.is_some()
            );
        }
        prop_assert!(repair_ws.parents().is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small graphs (binary-heap free rows), every vertex as the source —
    /// so dead sources are covered whenever a vertex dies — over full and
    /// partial CSRs.
    #[test]
    fn repair_matches_masked_sssp_on_small_graphs(
        n in 2usize..40,
        density in 1usize..5,
        kind in 0u8..3,
        dead_count in 0usize..4,
        dead_edge_count in 0usize..4,
        split in any::<bool>(),
        partial in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random_graph(n, density * n, Weights::from_index(kind), split, &mut rng);
        let csr = if partial {
            let mut keep = g.empty_edge_set();
            for (id, _) in g.edges() {
                if rng.gen_bool(0.7) {
                    keep.insert(id);
                }
            }
            CsrSubgraph::from_edge_set(&g, &keep).unwrap()
        } else {
            CsrSubgraph::from_graph(&g)
        };
        prop_assert!(2 * csr.edge_count() < BUCKET_HALF_EDGES);
        let faults = random_faults(&g, dead_count, dead_edge_count, &mut rng);
        let mut workspaces = Default::default();
        for src in 0..n {
            assert_repair_matches(&csr, NodeId::new(src), &faults, &mut workspaces)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Graphs past the bucket-queue switch (bucket-queue free rows), with
    /// a handful of sources including a dead one.
    #[test]
    fn repair_matches_masked_sssp_on_large_graphs(
        n in 300usize..500,
        kind in 0u8..3,
        dead_count in 0usize..4,
        dead_edge_count in 0usize..4,
        split in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random_graph(n, 8 * n, Weights::from_index(kind), split, &mut rng);
        let csr = CsrSubgraph::from_graph(&g);
        prop_assert!(2 * csr.edge_count() >= BUCKET_HALF_EDGES);
        let faults = random_faults(&g, dead_count, dead_edge_count, &mut rng);
        let mut workspaces = Default::default();
        let mut sources: Vec<usize> = (0..6).map(|_| rng.gen_range(0..n)).collect();
        sources.extend(faults.ends.first().map(|x| x.index()));
        for src in sources {
            assert_repair_matches(&csr, NodeId::new(src), &faults, &mut workspaces)?;
        }
    }
}

/// A zero-weight path beside a dead vertex: a tied in-neighbour cannot
/// certify a label (it may itself be cut off), so the tied vertices are
/// recomputed — and must come out exact.
#[test]
fn zero_weight_ties_are_recomputed_exactly() {
    // 0 -1- 1 -0- 2 -0- 3, and 0 -1- 4 -1- 2: every free label is 1 but
    // 0's; killing 1 leaves 2 and 3 at distance 2 through 4.
    let g = Graph::from_edges(
        5,
        [
            (0, 1, 1.0),
            (1, 2, 0.0),
            (2, 3, 0.0),
            (0, 4, 1.0),
            (4, 2, 1.0),
        ],
    )
    .unwrap();
    let csr = CsrSubgraph::from_graph(&g);
    let free = csr.sssp(NodeId::new(0), None, None).unwrap();
    assert_eq!(free, [0.0, 1.0, 1.0, 1.0, 1.0]);
    let mut dead = vec![false; 5];
    dead[1] = true;
    let mut ws = SsspWorkspace::new();
    csr.sssp_repair_into(
        NodeId::new(0),
        &free,
        Some(&dead),
        None,
        &[NodeId::new(1)],
        &mut ws,
    )
    .unwrap();
    let want = csr.sssp(NodeId::new(0), Some(&dead), None).unwrap();
    assert_eq!(ws.distances(), want.as_slice());
    assert_eq!(ws.distances(), &[0.0, f64::INFINITY, 2.0, 2.0, 1.0]);
}

#[test]
fn repair_rejects_malformed_inputs() {
    let g = Graph::from_unit_edges(3, [(0, 1), (1, 2)]).unwrap();
    let csr = CsrSubgraph::from_graph(&g);
    let free = csr.sssp(NodeId::new(0), None, None).unwrap();
    let mut ws = SsspWorkspace::new();
    // A free row of the wrong length, an out-of-bounds fault end or
    // source, and a mask of the wrong length are typed errors.
    assert!(csr
        .sssp_repair_into(NodeId::new(0), &free[..2], None, None, &[], &mut ws)
        .is_err());
    assert!(csr
        .sssp_repair_into(
            NodeId::new(0),
            &free,
            None,
            None,
            &[NodeId::new(7)],
            &mut ws
        )
        .is_err());
    assert!(csr
        .sssp_repair_into(NodeId::new(3), &free, None, None, &[], &mut ws)
        .is_err());
    assert!(csr
        .sssp_repair_into(NodeId::new(0), &free, Some(&[false]), None, &[], &mut ws)
        .is_err());
    // No faults: the free row comes back unchanged.
    csr.sssp_repair_into(NodeId::new(0), &free, None, None, &[], &mut ws)
        .unwrap();
    assert_eq!(ws.distances(), free.as_slice());
}

//! Pinned per-iteration statistics of seeded conversion, CLPR09 and
//! edge-fault builds — every union construction of `ftspan-core`, which all
//! run their black box through one masked-run kernel.
//!
//! Every black-box run sees `G \ J` as an edge mask over the parent graph,
//! and the statistics count the mask: surviving vertices, surviving edges,
//! the black box's output size and the edges new to the union. The values
//! below were recorded when each run still built `G \ J` as a graph of its
//! own, so they pin that masking changed neither what the runs see nor what
//! they select. Each case pins the iteration count, the spanner size, the
//! per-field sums, an FNV-1a digest of the whole per-iteration sequence and
//! one of the spanner's edge ids.

use ftspan_core::baselines::ClprStyleBaseline;
use ftspan_core::conversion::{ConversionParams, ConversionResult, FaultTolerantConverter};
use ftspan_core::FaultModel;
use ftspan_graph::stream::GeneratorSpec;
use ftspan_graph::{generate, EdgeSet, Graph};
use ftspan_spanners::BlackBoxKind;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn mesh() -> Graph {
    GeneratorSpec::PlanarMesh {
        rows: 12,
        cols: 12,
        diagonal_p: 0.4,
        jitter: 0.25,
        seed: 5,
    }
    .generate()
    .expect("mesh parameters are valid")
}

fn weighted_gnp(n: usize, p: f64, seed: u64) -> Graph {
    let weights = generate::WeightKind::Uniform { min: 1.0, max: 4.0 };
    generate::gnp(n, p, weights, &mut rng(seed))
}

/// FNV-1a over a sequence of counts.
fn digest(values: impl IntoIterator<Item = usize>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (v as u64)
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The digest of a spanner's edge ids, ascending.
fn edge_digest(edges: &EdgeSet) -> u64 {
    digest(edges.iter().map(|e| e.index()))
}

/// `[iterations, spanner size, Σ surviving_vertices, Σ surviving_edges,
/// Σ spanner_edges, Σ new_edges]`, the digest of every iteration's four
/// fields in order, and the digest of the spanner.
fn summary(result: &ConversionResult) -> ([usize; 6], u64, u64) {
    let stats = &result.per_iteration;
    let sum = |f: fn(&ftspan_core::conversion::IterationStats) -> usize| stats.iter().map(f).sum();
    let counts = [
        result.iterations,
        result.size(),
        sum(|s| s.surviving_vertices),
        sum(|s| s.surviving_edges),
        sum(|s| s.spanner_edges),
        sum(|s| s.new_edges),
    ];
    let fields = stats.iter().flat_map(|s| {
        [
            s.surviving_vertices,
            s.surviving_edges,
            s.spanner_edges,
            s.new_edges,
        ]
    });
    (counts, digest(fields), edge_digest(&result.edges))
}

#[test]
fn conversion_iteration_stats_are_pinned() {
    let mesh = mesh();
    let gnp = weighted_gnp(40, 0.2, 1);
    let cases = [
        (&mesh, BlackBoxKind::BaswanaSen, 1, 3.0, 2),
        (&mesh, BlackBoxKind::ThorupZwick, 2, 5.0, 3),
        (&gnp, BlackBoxKind::Greedy, 2, 3.0, 4),
        (&gnp, BlackBoxKind::Cluster, 3, 5.0, 5),
    ];
    let mut got = Vec::new();
    for (graph, kind, faults, stretch, seed) in cases {
        let converter = FaultTolerantConverter::new(ConversionParams::new(faults).with_scale(0.5));
        let alg = kind.instantiate(stretch);
        got.push(summary(&converter.build_with_threads(
            graph,
            alg.as_ref(),
            &mut rng(seed),
            2,
        )));
    }
    assert_eq!(
        got,
        [
            (
                [30, 323, 2155, 2412, 2382, 323],
                4631020928365809695,
                7023023755851027469
            ),
            (
                [160, 323, 11494, 12820, 12659, 323],
                10275277371808829623,
                7023023755851027469
            ),
            (
                [119, 158, 2374, 4870, 2754, 158],
                5119834561068971287,
                1665730802644989536
            ),
            (
                [332, 165, 4470, 6252, 4607, 165],
                16258192142480328965,
                7589024660070115809
            ),
        ]
    );
}

#[test]
fn clpr_iteration_stats_are_pinned() {
    let gnp = weighted_gnp(24, 0.3, 6);
    let cases = [
        (ClprStyleBaseline::new(1), BlackBoxKind::ThorupZwick, 3.0, 7),
        (
            ClprStyleBaseline::sampled(2, 30),
            BlackBoxKind::BaswanaSen,
            3.0,
            8,
        ),
        (
            ClprStyleBaseline::sampled(3, 20),
            BlackBoxKind::Greedy,
            5.0,
            9,
        ),
    ];
    let mut got = Vec::new();
    for (baseline, kind, stretch, seed) in cases {
        let alg = kind.instantiate(stretch);
        got.push(summary(&baseline.build_with_threads(
            &gnp,
            alg.as_ref(),
            &mut rng(seed),
            2,
        )));
    }
    assert_eq!(
        got,
        [
            (
                [25, 81, 576, 1932, 1584, 81],
                9729196396764312318,
                14950873161701316586
            ),
            (
                [30, 84, 660, 2110, 1954, 84],
                17085484168602236545,
                10361947250162597797
            ),
            (
                [20, 40, 420, 1283, 434, 40],
                17423090953869722834,
                7752670800694459727
            ),
        ]
    );
}

#[test]
fn edge_fault_iteration_stats_are_pinned() {
    let mesh = mesh();
    let gnp = weighted_gnp(30, 0.25, 10);
    let cases = [
        (&mesh, BlackBoxKind::BaswanaSen, 1, 3.0, 11),
        (&gnp, BlackBoxKind::Greedy, 2, 3.0, 12),
        (&gnp, BlackBoxKind::Cluster, 2, 5.0, 13),
        (&mesh, BlackBoxKind::ThorupZwick, 3, 3.0, 14),
    ];
    let mut got = Vec::new();
    let mut edge_runs = Vec::new();
    for (graph, kind, faults, stretch, seed) in cases {
        let params = ConversionParams::new(faults)
            .with_fault_model(FaultModel::Edge)
            .with_scale(0.5);
        let alg = kind.instantiate(stretch);
        let result = FaultTolerantConverter::new(params).build_with_threads(
            graph,
            alg.as_ref(),
            &mut rng(seed),
            2,
        );
        let surviving = result.per_iteration.iter().map(|s| s.surviving_edges);
        got.push((
            [result.iterations, result.size(), surviving.clone().sum()],
            digest(surviving),
            edge_digest(&result.edges),
        ));
        // Every vertex survives every iteration, and the runs' new edges add
        // up to the spanner.
        let (counts, _, _) = summary(&result);
        assert_eq!(counts[2], counts[0] * graph.node_count());
        assert_eq!(counts[5], counts[1]);
        edge_runs.push([counts[4], counts[5]]);
    }
    assert_eq!(
        got,
        [
            ([30, 323, 4798], 8188663697045782479, 7023023755851027469),
            ([55, 114, 3196], 9903934626634201547, 17045211530843328609),
            ([55, 116, 3215], 13147302267988516118, 69274334838492901),
            ([150, 323, 16108], 16928384404080205573, 7023023755851027469),
        ]
    );
    // Σ spanner_edges and Σ new_edges per case.
    assert_eq!(
        edge_runs,
        [[4769, 323], [1995, 114], [2312, 116], [16083, 323]]
    );
}

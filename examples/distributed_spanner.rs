//! Distributed construction in the LOCAL model: every node of the network
//! runs the algorithm itself, talking only to its neighbors.
//!
//! Demonstrates both distributed results of the paper:
//! Theorem 2.3 (fault-tolerant 3-spanner via local oversampling) and
//! Theorem 3.9 (the O(log n)-approximate fault-tolerant 2-spanner via padded
//! decompositions and per-cluster LPs) — both reached through the same
//! `FtSpannerBuilder` as their centralized counterparts, with the LOCAL-model
//! round/message accounting surfaced on the unified report.
//!
//! Run with:
//!
//! ```text
//! cargo run --example distributed_spanner
//! ```

use fault_tolerant_spanners::local::padded::{
    sample_padded_decomposition, PaddedDecompositionConfig,
};
use fault_tolerant_spanners::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);

    // ---------------------------------------------------------------- k >= 3
    let n = 50;
    let network = generate::connected_gnp(n, 0.12, generate::WeightKind::Unit, &mut rng);
    println!(
        "undirected network: {} nodes, {} links",
        network.node_count(),
        network.edge_count()
    );

    let spanner = FtSpannerBuilder::new("distributed-conversion")
        .faults(1)
        .stretch(3.0)
        .build_with_rng(GraphInput::from(&network), &mut rng)
        .expect("the distributed conversion accepts stretch-3 requests");
    println!(
        "Theorem 2.3: distributed 1-fault-tolerant 3-spanner with {} edges in {} LOCAL rounds \
         ({} messages, {} conversion iterations)",
        spanner.size(),
        spanner.rounds.unwrap(),
        spanner.messages.unwrap(),
        spanner.iterations
    );
    let report =
        verify::StretchOracle::new(&network, spanner.edge_set().unwrap()).verify_exhaustive(3.0, 1);
    println!(
        "verification: {} fault sets checked, worst stretch {:.3}, valid = {}",
        report.checked,
        report.worst_stretch,
        report.is_valid()
    );

    // A padded decomposition on its own, the tool behind Algorithm 2.
    let decomposition =
        sample_padded_decomposition(&network, &PaddedDecompositionConfig::default(), &mut rng);
    println!(
        "padded decomposition: {} clusters, max radius {}, padded fraction {:.2}, {} rounds",
        decomposition.centers().len(),
        decomposition.max_radius(),
        decomposition.padded_fraction(&network),
        decomposition.stats.rounds
    );

    // ----------------------------------------------------------------- k = 2
    let routers = 12;
    let directed = generate::directed_gnp(routers, 0.4, generate::WeightKind::Unit, &mut rng);
    println!(
        "\ndirected network: {} routers, {} links",
        directed.node_count(),
        directed.arc_count()
    );
    let two = FtSpannerBuilder::new("distributed-two-spanner")
        .faults(1)
        .repetitions(4)
        .build_with_rng(GraphInput::from(&directed), &mut rng)
        .expect("cluster LPs are always feasible");
    println!(
        "Theorem 3.9: distributed 1-fault-tolerant 2-spanner with cost {:.0} in {} LOCAL rounds \
         ({} repetitions, {} repaired arcs)",
        two.cost,
        two.rounds.unwrap(),
        two.iterations,
        two.repaired_arcs
    );
    assert!(verify::is_ft_two_spanner(
        &directed,
        two.arc_set().unwrap(),
        1
    ));
    println!("verification: valid 1-fault-tolerant 2-spanner");
}

//! Edge faults: links fail instead of routers.
//!
//! The paper's constructions tolerate *vertex* failures; this example uses
//! the library's edge-fault extension to protect a network against link
//! failures, compares it against the vertex-fault construction, and verifies
//! both with the centralized and the distributed (LOCAL-model) checkers.
//! Both fault models go through the same `FtSpannerBuilder`, switched by
//! `.edge_faults()` / `.vertex_faults()`.
//!
//! Run with:
//!
//! ```text
//! cargo run --example edge_fault_tolerance
//! ```

use fault_tolerant_spanners::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(1337);

    // A small-world backbone: a ring lattice with a few random long links.
    let n = 50;
    let network = generate::watts_strogatz(n, 4, 0.2, &mut rng);
    println!(
        "backbone: {} routers, {} links, vertex connectivity {}",
        network.node_count(),
        network.edge_count(),
        components::vertex_connectivity(&network)
    );

    let stretch = 3.0;
    let r = 2;

    // Protect against r link failures.
    let edge_ft = FtSpannerBuilder::new("conversion")
        .edge_faults()
        .faults(r)
        .stretch(stretch)
        .scale(0.5)
        .build_with_rng(GraphInput::from(&network), &mut rng)
        .expect("the conversion accepts edge-fault requests");
    println!(
        "\n{}: {} edges after {} iterations (mean surviving edges per iteration {:.1})",
        edge_ft.provenance,
        edge_ft.size(),
        edge_ft.iterations,
        edge_ft.mean_surviving_edges()
    );
    let edge_spanner = edge_ft.edge_set().expect("undirected construction");
    let lower = vertex_fault_size_lower_bound(&network, r);
    println!("degree lower bound for any {r}-fault-tolerant spanner: {lower} edges");

    // Exhaustive verification over all single link failures, sampled beyond.
    let oracle = verify::StretchOracle::new(&network, edge_spanner);
    let report = oracle.verify_edge_exhaustive(stretch, 1);
    println!(
        "all {} single-link failures verified, worst stretch {:.2}",
        report.checked - 1,
        report.worst_stretch
    );
    let sampled = oracle.verify_edge_sampled(stretch, r, 40, &mut rng);
    println!(
        "{} sampled double-link failures verified, worst stretch {:.2}, valid = {}",
        sampled.checked - 1,
        sampled.worst_stretch,
        sampled.is_valid()
    );

    // Compare against protecting routers (vertex faults) on the same network.
    let vertex_ft = FtSpannerBuilder::new("conversion")
        .vertex_faults()
        .faults(r)
        .stretch(stretch)
        .scale(0.5)
        .build_with_rng(GraphInput::from(&network), &mut rng)
        .expect("the conversion accepts vertex-fault requests");
    println!(
        "\nvertex-fault-tolerant 3-spanner for comparison: {} edges after {} iterations",
        vertex_ft.size(),
        vertex_ft.iterations
    );

    // Adversarial stress test: fail the heaviest links and the busiest hub.
    let heavy = faults::heavy_edge_faults(&network, r).to_dead_mask(network.edge_count());
    let after_links = oracle.max_stretch_masked(None, Some(&heavy));
    println!("after failing the {r} heaviest links: worst stretch {after_links:.2}");
    let hubs = faults::high_degree_faults(&network, r).to_dead_mask(network.node_count());
    let after_hubs = verify::StretchOracle::new(&network, vertex_ft.edge_set().unwrap())
        .max_stretch_masked(Some(&hubs), None);
    println!("after failing the {r} busiest routers: worst stretch {after_hubs:.2}");

    // The plain 3-spanner can be verified distributedly in 4 LOCAL rounds.
    let plain = GreedySpanner::new(stretch).build(&network, &mut rng);
    let check = distributed_stretch_check(&network, &plain, stretch as usize);
    println!(
        "\ndistributed stretch check of the plain spanner: {} rounds, {} messages, valid = {}",
        check.stats.rounds,
        check.stats.messages,
        check.is_valid()
    );

    assert!(sampled.is_valid());
    assert!(after_links <= stretch + 1e-9);
    println!("\nall checks passed.");
}

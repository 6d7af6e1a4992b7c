//! Experiment E11 — how many of Theorem 2.1's `Θ(r³ log n)` iterations are
//! needed in practice.
//!
//! The adaptive construction (registry name `adaptive`) runs the conversion
//! in batches and stops once the union passes a verification battery. This
//! binary reports, for growing `r`, the iterations the adaptive construction
//! used, the theorem's budget, and the sizes of both outputs — quantifying
//! how conservative the union-bound analysis is.

use fault_tolerant_spanners::prelude::*;
use ftspan_bench::{fmt, Table};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let seed = ftspan_bench::seed_from_args(11);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = 80;
    let graph = generate::connected_gnp(n, 0.12, generate::WeightKind::Unit, &mut rng);
    let k = 3.0;
    println!(
        "E11: n = {}, m = {}, stretch {k}\n",
        graph.node_count(),
        graph.edge_count()
    );

    let mut table = Table::new(
        "e11_adaptive_alpha",
        &[
            "r",
            "adaptive_iters",
            "theorem_iters",
            "budget_fraction",
            "adaptive_edges",
            "full_alpha_edges",
            "verified",
            "valid_exhaustive_r1",
        ],
    );

    for &r in &[1usize, 2, 3] {
        let adaptive = FtSpannerBuilder::new("adaptive")
            .faults(r)
            .stretch(k)
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("the adaptive conversion accepts undirected inputs");
        let full = FtSpannerBuilder::new("corollary-2.2")
            .faults(r)
            .stretch(k)
            .build_with_rng(GraphInput::from(&graph), &mut rng)
            .expect("corollary-2.2 accepts undirected inputs");
        // Exhaustive re-verification is affordable only at r = 1 on this
        // instance; report it where available, "-" otherwise.
        let exhaustive = if r == 1 {
            verify::is_fault_tolerant_k_spanner(&graph, adaptive.edge_set().unwrap(), k, r)
                .to_string()
        } else {
            "-".to_string()
        };
        table.row(&[
            r.to_string(),
            adaptive.iterations.to_string(),
            adaptive.theorem_iterations.unwrap().to_string(),
            fmt(adaptive.budget_fraction(), 3),
            adaptive.size().to_string(),
            full.size().to_string(),
            adaptive.verified.unwrap().to_string(),
            exhaustive,
        ]);
    }
    table.print_and_save();
    println!(
        "Expected shape: the adaptive construction needs a small fraction of the theorem's\n\
         iteration budget while producing a spanner of comparable size that still verifies."
    );
}

//! Spanner zoo: every construction in the library run on the same network,
//! with size, weight, lightness and stretch-distribution statistics side by
//! side.
//!
//! This is the "which spanner should I use?" tour: the classic black boxes
//! (greedy, Baswana–Sen, Thorup–Zwick, ball-carving clusters), then every
//! undirected fault-tolerant construction in the `registry()`, selected
//! purely by name — the same loop a benchmark harness or a service
//! configuration would run.
//!
//! Run with:
//!
//! ```text
//! cargo run --example spanner_zoo
//! ```

use fault_tolerant_spanners::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn describe(name: &str, graph: &Graph, spanner: &EdgeSet, stretch: f64) {
    let basic = SpannerStats::collect(graph, spanner, stretch);
    let distribution = stats::stretch_stats(graph, spanner).expect("spanner matches the graph");
    let light = tree::lightness(graph, spanner).expect("spanner matches the graph");
    println!(
        "{name:<28} edges {:>5}  weight {:>8.1}  lightness {:>5.2}  \
         max-stretch {:>5.2}  mean-stretch {:>4.2}  exact {:>5.1}%",
        basic.spanner_edges,
        basic.spanner_weight,
        light,
        distribution.max,
        distribution.mean,
        100.0 * distribution.fraction_exact,
    );
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);

    // A weighted random geometric network: the classic "sensors on a field"
    // workload that motivates spanners in the first place.
    let n = 120;
    let network = generate::random_geometric(n, 0.22, generate::WeightKind::Euclidean, &mut rng);
    let cc = components::connected_components(&network);
    println!(
        "network: {} nodes, {} edges, {} component(s), max degree {}, MST weight {:.1}\n",
        network.node_count(),
        network.edge_count(),
        cc.count(),
        network.max_degree(),
        tree::mst_weight(&network),
    );

    println!("-- classic (non-fault-tolerant) spanners, stretch 3 --");
    let greedy = GreedySpanner::new(3.0).build(&network, &mut rng);
    describe("greedy (Althofer et al.)", &network, &greedy, 3.0);
    let bs = BaswanaSenSpanner::new(2).build(&network, &mut rng);
    describe("Baswana-Sen", &network, &bs, 3.0);
    let tz = ThorupZwickSpanner::new(2).build(&network, &mut rng);
    describe("Thorup-Zwick", &network, &tz, 3.0);
    let cluster = ClusterSpanner::for_stretch(3).build(&network, &mut rng);
    describe("cluster (ball carving)", &network, &cluster, 3.0);
    let mst = tree::minimum_spanning_forest(&network);
    describe("minimum spanning forest", &network, &mst, f64::INFINITY);

    println!("\n-- 1-fault-tolerant 3-spanners (Theorem 2.1 conversion) --");
    for black_box in [BlackBoxKind::Greedy, BlackBoxKind::ThorupZwick] {
        let result = FtSpannerBuilder::new("conversion")
            .faults(1)
            .stretch(3.0)
            .black_box(black_box)
            .scale(0.5)
            .build_with_rng(GraphInput::from(&network), &mut rng)
            .expect("conversion accepts undirected inputs");
        describe(
            &format!("conversion over {black_box}"),
            &network,
            result.edge_set().unwrap(),
            result.stretch,
        );
        let check = verify::StretchOracle::new(&network, result.edge_set().unwrap())
            .verify_sampled(result.stretch, 1, 25, &mut rng);
        println!(
            "{:>28} sampled verification: {} fault sets, worst stretch {:.2}, valid = {}",
            "",
            check.checked,
            check.worst_stretch,
            check.is_valid()
        );
    }

    println!("\n-- adaptive conversion (stops when verification passes) --");
    let adaptive = FtSpannerBuilder::new("adaptive")
        .faults(1)
        .stretch(3.0)
        .build_with_rng(GraphInput::from(&network), &mut rng)
        .expect("adaptive accepts undirected inputs");
    describe(
        "adaptive conversion",
        &network,
        adaptive.edge_set().unwrap(),
        adaptive.stretch,
    );
    println!(
        "{:>28} used {} of {} iterations ({:.0}% of the theorem budget), verified = {:?}",
        "",
        adaptive.iterations,
        adaptive.theorem_iterations.unwrap_or(0),
        100.0 * adaptive.budget_fraction(),
        adaptive.verified.unwrap_or(false)
    );

    // The registry knows the whole zoo — print what else there is to try.
    println!("\n-- the full registry --");
    for algorithm in registry().iter() {
        println!(
            "{:<24} {:<28} [{}] {}",
            algorithm.name(),
            algorithm.reference(),
            algorithm.graph_family(),
            algorithm.summary()
        );
    }
}

//! The paper's claims as one checked table (see `ftspan_bench::paper`).
//!
//! ```text
//! cargo run --release -p ftspan-bench --bin exp_paper -- --seed 2011
//! ```
//!
//! Prints every row, writes `target/experiments/paper_claims.csv`, and exits
//! with status 1 if any row's check fails.

use ftspan_bench::paper;
use std::time::Instant;

fn main() {
    let seed = ftspan_bench::seed_from_args(paper::DEFAULT_SEED);
    let start = Instant::now();
    let rows = paper::rows(seed);
    paper::table(&rows).print_and_save();
    let failed: Vec<&str> = rows.iter().filter(|r| !r.valid).map(|r| r.claim).collect();
    println!(
        "seed {seed}: {} rows, {} failed {failed:?}, digest {:#018x}, {:.1} s",
        rows.len(),
        failed.len(),
        paper::digest(&rows),
        start.elapsed().as_secs_f64()
    );
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

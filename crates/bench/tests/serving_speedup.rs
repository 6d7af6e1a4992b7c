//! Acceptance pins for the serving planner, on the same workload as the
//! `serve-repeated-faults` scenario:
//!
//! * the planned batch is **at least 2x faster** than a naive
//!   per-query-session run of the same batch (the real ratio is far larger;
//!   2x is the generous floor so scheduler noise cannot flake the test);
//! * the results are **byte-identical** to the naive run at worker counts
//!   1/2/8.

use ftspan_bench::scenarios::{repeated_fault_workload, Profile, ScenarioConfig};
use std::time::{Duration, Instant};

fn best_of<F: FnMut() -> Duration>(runs: usize, mut f: F) -> Duration {
    (0..runs).map(|_| f()).min().expect("runs >= 1")
}

#[test]
fn planner_is_at_least_2x_faster_than_naive_per_query_sessions() {
    // One worker on both sides: the measured gap is session/tree reuse, not
    // parallelism.
    let config = ScenarioConfig {
        profile: Profile::Ci,
        seed: 2011,
        threads: Some(1),
    };
    let (engine, _, queries) = repeated_fault_workload(&config, 42);

    let mut naive_results = Vec::new();
    let naive = best_of(3, || {
        let start = Instant::now();
        naive_results = engine.run_batch_naive(&queries);
        start.elapsed()
    });
    let mut planned_results = Vec::new();
    let planned = best_of(3, || {
        let start = Instant::now();
        planned_results = engine.run_batch(&queries);
        start.elapsed()
    });

    assert_eq!(
        naive_results, planned_results,
        "planner changed the batch results"
    );
    assert!(
        planned * 2 <= naive,
        "planned batch is not 2x faster: planned {planned:?} vs naive {naive:?}"
    );
}

#[test]
fn planned_results_are_identical_at_any_worker_count() {
    let config = ScenarioConfig {
        profile: Profile::Ci,
        seed: 2011,
        threads: Some(1),
    };
    let (engine, _, queries) = repeated_fault_workload(&config, 7);
    let reference = engine.run_batch_naive(&queries);
    for workers in [1usize, 2, 8] {
        let got = engine.clone().with_workers(workers).run_batch(&queries);
        assert_eq!(reference, got, "results diverged at workers={workers}");
    }
}

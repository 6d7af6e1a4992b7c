//! Every row of the paper-claims table (`ftspan_bench::paper`) holds at three
//! seeds, and the table at the default seed is pinned by its digest.

use fault_tolerant_spanners::registry;
use ftspan_bench::paper::{self, ClaimRow, DEFAULT_SEED};

/// `paper::digest(&paper::rows(DEFAULT_SEED))`. When a change moves it,
/// read the new table (`cargo run --release -p ftspan-bench --bin exp_paper`)
/// row by row before re-pinning.
const PINNED_DIGEST: u64 = 0x3f25_52c9_3986_abc0;

fn checked_rows(seed: u64) -> Vec<ClaimRow> {
    let rows = paper::rows(seed);
    let failed: Vec<String> = rows
        .iter()
        .filter(|row| !row.valid)
        .map(|row| format!("{row:?}"))
        .collect();
    assert!(
        failed.is_empty(),
        "seed {seed}: {} claim rows fail:\n{}",
        failed.len(),
        failed.join("\n")
    );
    // An LP that is not solved (e.g. one that hits the simplex's pivot cap)
    // reports NaN; no row may carry one.
    for row in &rows {
        let numbers = [row.measured, row.reference, row.limit];
        assert!(
            numbers.iter().all(|v| v.is_finite()),
            "seed {seed}: {row:?}"
        );
    }
    rows
}

#[test]
fn claims_hold_and_the_table_is_pinned_at_the_default_seed() {
    let rows = checked_rows(DEFAULT_SEED);
    let smoked: Vec<&str> = rows
        .iter()
        .filter(|row| row.claim == "registry/smoke")
        .map(|row| row.algorithm)
        .collect();
    assert_eq!(smoked, registry().names(), "one smoke row per algorithm");
    assert_eq!(
        paper::digest(&rows),
        PINNED_DIGEST,
        "the paper-claims table moved: {:#018x}",
        paper::digest(&rows)
    );
}

#[test]
fn claims_hold_at_seed_2012() {
    checked_rows(2012);
}

#[test]
fn claims_hold_at_seed_2013() {
    checked_rows(2013);
}

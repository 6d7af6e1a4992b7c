//! The scenario suite as one checked table: every row's digest, spanner
//! size and exact work counters, pinned at zero tolerance.
//!
//! Digests catch wrong answers and counters catch extra work (a planner that
//! skips the source cache, a patch that re-runs every black-box iteration),
//! on any host and at any speed. Wall-clock is not checked here; slow code
//! is `perfbench`'s job. The table is pinned at seed 2011 with two workers,
//! because planner units and cache counts depend on the worker count;
//! digests are also checked at one and eight workers.

use ftspan_bench::scenarios::{self, BenchReport, Profile, ScenarioConfig, ScenarioResult};

/// One pinned row of the ci-profile table.
struct Row {
    name: &'static str,
    digest: &'static str,
    spanner_edges: usize,
    counters: &'static [(&'static str, u64)],
}

const TABLE: [Row; 22] = [
    Row {
        name: "conversion-gnp",
        digest: "422e4b60f5bbc810",
        spanner_edges: 215,
        counters: &[("iterations", 47), ("black_box_edges", 2556)],
    },
    Row {
        name: "conversion-grid",
        digest: "b6533ff4379ba190",
        spanner_edges: 112,
        counters: &[("iterations", 50), ("black_box_edges", 1351)],
    },
    Row {
        name: "conversion-regular",
        digest: "862578c5460d4f14",
        spanner_edges: 138,
        counters: &[("iterations", 47), ("black_box_edges", 1793)],
    },
    Row {
        name: "construct-planar-mesh",
        digest: "88774e34f173a9f3",
        spanner_edges: 149,
        counters: &[("iterations", 52), ("black_box_edges", 2017)],
    },
    Row {
        name: "construct-hyperbolic",
        digest: "de2498fdb83ee1bf",
        spanner_edges: 309,
        counters: &[("iterations", 50), ("black_box_edges", 7107)],
    },
    Row {
        name: "corollary22-gnp-r2",
        digest: "a7a56647e43969d2",
        spanner_edges: 226,
        counters: &[("iterations", 248), ("black_box_edges", 13937)],
    },
    Row {
        name: "edge-fault-gnp",
        digest: "6d8aa845c57d1772",
        spanner_edges: 213,
        counters: &[("iterations", 47), ("black_box_edges", 5037)],
    },
    Row {
        name: "adaptive-gnp",
        digest: "a502114f7f2b4817",
        spanner_edges: 168,
        counters: &[("iterations", 16), ("black_box_edges", 771)],
    },
    Row {
        name: "clpr09-sampled-gnp",
        digest: "b2ec53c4185fe132",
        spanner_edges: 140,
        counters: &[("iterations", 20), ("black_box_edges", 3550)],
    },
    Row {
        name: "two-spanner-lp-gnp",
        digest: "8f82fa38bb199710",
        spanner_edges: 38,
        counters: &[("iterations", 1), ("repaired_arcs", 0), ("cuts_added", 25)],
    },
    Row {
        name: "two-spanner-greedy-gnp",
        digest: "63ed6a10a74a6ec2",
        spanner_edges: 49,
        counters: &[("iterations", 1)],
    },
    Row {
        name: "engine-queries",
        digest: "0fab626bc3f8b1d9",
        spanner_edges: 0,
        counters: &[
            ("planner_groups", 40),
            ("planner_units", 40),
            ("cache_hits", 0),
            ("cache_misses", 780),
        ],
    },
    Row {
        name: "serve-repeated-faults",
        digest: "44db232a01567e14",
        spanner_edges: 0,
        counters: &[
            ("planner_groups", 4),
            ("planner_units", 4),
            ("cache_hits", 3988),
            ("cache_misses", 12),
        ],
    },
    Row {
        name: "serve-zipf-sources",
        digest: "6189252c57889f53",
        spanner_edges: 0,
        counters: &[
            ("planner_groups", 3),
            ("planner_units", 3),
            ("cache_hits", 3856),
            ("cache_misses", 144),
        ],
    },
    Row {
        name: "serve-store-cold-load",
        digest: "d30bc430d2ce2789",
        spanner_edges: 0,
        counters: &[
            ("planner_groups", 65),
            ("planner_units", 65),
            ("cache_hits", 504),
            ("cache_misses", 96),
            ("bytes_on_disk", 6896),
        ],
    },
    Row {
        name: "serve-net-throughput",
        digest: "6050162b4038a418",
        spanner_edges: 0,
        counters: &[
            ("planner_groups", 180),
            ("planner_units", 180),
            ("cache_hits", 1560),
            ("cache_misses", 1440),
        ],
    },
    Row {
        name: "shard-build",
        digest: "008435459708b049",
        spanner_edges: 321,
        counters: &[("cut_edges", 208)],
    },
    Row {
        name: "serve-sharded-batch",
        digest: "e719eefa531ca1da",
        spanner_edges: 0,
        counters: &[
            ("planner_groups", 4),
            ("planner_units", 4),
            ("cache_hits", 295),
            ("cache_misses", 14),
        ],
    },
    Row {
        name: "construct-large-gnm",
        digest: "75e708ea34924108",
        spanner_edges: 131192,
        counters: &[],
    },
    Row {
        name: "sssp-large",
        digest: "fa19681f5dffbfe5",
        spanner_edges: 0,
        counters: &[],
    },
    Row {
        name: "delta-replay",
        digest: "ce6f218386ee48dd",
        spanner_edges: 155,
        counters: &[("touched_iterations", 38), ("rebuilds", 0)],
    },
    Row {
        name: "serve-under-churn",
        digest: "7901f42ccca2f899",
        spanner_edges: 0,
        counters: &[
            ("planner_groups", 88),
            ("planner_units", 88),
            ("cache_hits", 1680),
            ("cache_misses", 320),
            ("swaps", 8),
            ("deltas_applied", 32),
            ("rebuilds", 0),
        ],
    },
];

fn config(seed: u64, threads: Option<usize>) -> ScenarioConfig {
    ScenarioConfig {
        profile: Profile::Ci,
        seed,
        threads,
    }
}

/// Why `got` differs from the pinned `row`, if it does.
fn mismatch(row: &Row, got: &ScenarioResult) -> Option<String> {
    let pinned = (row.digest, row.spanner_edges, row.counters);
    let measured = (
        got.digest.as_str(),
        got.spanner_edges,
        got.counters.as_slice(),
    );
    (pinned != measured).then(|| {
        format!(
            "row `{}`: pinned (digest, size, counters) {pinned:?}, got {measured:?}",
            row.name
        )
    })
}

#[test]
fn every_row_is_pinned_and_digests_hold_at_any_worker_count() {
    let names: Vec<&str> = TABLE.iter().map(|row| row.name).collect();
    assert_eq!(
        names,
        scenarios::names(),
        "the table covers every scenario, in order"
    );

    let mut failures = Vec::new();
    for row in &TABLE {
        let scenario = scenarios::find(row.name).expect("pinned scenario exists");
        failures.extend(mismatch(row, &scenario.run(&config(2011, Some(2)))));
        for threads in [1, 8] {
            let digest = scenario.run(&config(2011, Some(threads))).digest;
            if digest != row.digest {
                failures.push(format!(
                    "row `{}`: digest {digest} at {threads} workers, pinned {}",
                    row.name, row.digest
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn repeated_runs_agree_on_every_row() {
    let config = config(7, None);
    for scenario in scenarios::all() {
        let (a, b) = (scenario.run(&config), scenario.run(&config));
        assert_eq!(
            (&a.digest, a.spanner_edges, &a.counters),
            (&b.digest, b.spanner_edges, &b.counters),
            "{}: a repeated run changed the row",
            scenario.name
        );
        assert!(
            a.edges_per_sec.or(a.queries_per_sec).is_some(),
            "{}: the row reports no throughput",
            scenario.name
        );
    }
}

#[test]
fn digests_depend_on_the_seed() {
    let scenario = scenarios::find("conversion-gnp").unwrap();
    let digest = |seed| scenario.run(&config(seed, Some(2))).digest;
    assert_ne!(digest(1), digest(2));
}

#[test]
fn bench_json_carries_every_row_field() {
    let row = |name: &str, edges_per_sec, queries_per_sec| ScenarioResult {
        name: name.to_string(),
        wall_ms: 12.5,
        input_nodes: 10,
        input_edges: 20,
        spanner_edges: 5,
        edges_per_sec,
        queries_per_sec,
        counters: vec![("iterations", 47), ("black_box_edges", 2556)],
        digest: "00ff00ff00ff00ff".to_string(),
    };
    let report = BenchReport::new(
        &config(2011, None),
        vec![row("a", Some(123.456), None), row("b", None, Some(8.0))],
    );
    let json = report.to_json();
    for needle in [
        "\"schema\": \"ftspan-bench/2\"",
        "\"profile\": \"ci\"",
        "\"seed\": 2011",
        "\"name\": \"a\"",
        "\"name\": \"b\"",
        "\"wall_ms\": 12.500",
        "\"edges_per_sec\": 123.456",
        "\"queries_per_sec\": null",
        "\"queries_per_sec\": 8.000",
        "\"counters\": {\"iterations\": 47, \"black_box_edges\": 2556}",
        "\"digest\": \"00ff00ff00ff00ff\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in\n{json}");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.trim_end().ends_with("]\n}"));
}

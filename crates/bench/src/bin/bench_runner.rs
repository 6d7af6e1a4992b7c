//! `bench_runner` — runs the seeded scenario suite, prints each row and
//! writes `BENCH.json`.
//!
//! ```text
//! bench_runner [--profile ci|full] [--seed N] [--threads N] [--out PATH] [--list]
//! ```
//!
//! * `--profile` — scenario sizes (`ci` is small and seconds-fast; default).
//! * `--seed` — base seed (default 2011); every scenario derives its own.
//! * `--threads` — worker threads (default: one per CPU). Digests are
//!   identical at any value; planner units and cache counts are not.
//! * `--out` — where to write the JSON report (default `BENCH.json`).
//! * `--list` — print the scenario registry and exit.
//!
//! The report is a record, not a gate: `tests/scenario_table.rs` pins every
//! row's digest and work counters (ci profile, seed 2011, two workers), and
//! wall-clock and throughput are only reported.

use ftspan_bench::scenarios::{self, BenchReport, Profile, ScenarioConfig};
use ftspan_bench::Table;

struct Args {
    config: ScenarioConfig,
    out: std::path::PathBuf,
    list: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        config: ScenarioConfig::new(Profile::Ci),
        out: std::path::PathBuf::from("BENCH.json"),
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--profile" => {
                let v = value_of("--profile");
                args.config.profile = Profile::parse(&v)
                    .unwrap_or_else(|| panic!("unknown profile `{v}` (expected ci|full)"));
            }
            "--seed" => {
                args.config.seed = value_of("--seed").parse().expect("--seed expects a u64");
            }
            "--threads" => {
                args.config.threads = Some(
                    value_of("--threads")
                        .parse()
                        .expect("--threads expects a positive integer"),
                );
            }
            "--out" => args.out = value_of("--out").into(),
            "--list" => args.list = true,
            other => panic!("unknown argument `{other}` (see the bench_runner docs)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    if args.list {
        let mut table = Table::new("scenarios", &["name", "description"]);
        for s in scenarios::all() {
            table.row(&[s.name, s.description]);
        }
        println!("{}", table.render());
        return;
    }

    println!(
        "running {} scenarios (profile {}, seed {}, threads {})",
        scenarios::all().len(),
        args.config.profile,
        args.config.seed,
        args.config
            .threads
            .map(|t| t.to_string())
            .unwrap_or_else(|| "auto".to_string()),
    );
    let results = scenarios::run_all(&args.config);

    let mut table = Table::new(
        "bench",
        &[
            "scenario",
            "wall_ms",
            "edges/s",
            "queries/s",
            "size",
            "digest",
            "counters",
        ],
    );
    for r in &results {
        let counters: Vec<String> = r
            .counters
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        table.row(&[
            r.name.clone(),
            format!("{:.2}", r.wall_ms),
            r.edges_per_sec
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".to_string()),
            r.queries_per_sec
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".to_string()),
            r.spanner_edges.to_string(),
            r.digest.clone(),
            counters.join(" "),
        ]);
    }
    println!("{}", table.render());

    let report = BenchReport::new(&args.config, results);
    if let Some(dir) = args.out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("output directory is creatable");
        }
    }
    std::fs::write(&args.out, report.to_json()).expect("BENCH.json is writable");
    println!("wrote {}", args.out.display());
}

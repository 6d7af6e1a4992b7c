//! `ftspan_serve` — serve an artifact-store directory over TCP.
//!
//! ```text
//! ftspan_serve --store DIR [--addr HOST:PORT] [--workers N]
//!              [--queue-capacity N] [--timeout-secs N] [--dynamic]
//!              [--print-port]
//! ```
//!
//! * `--store` — directory of `.ftspan` artifacts (required). Every
//!   artifact is loaded into the engine at startup under its file stem.
//! * `--dynamic` — promote every flat artifact to a *dynamic* registration:
//!   the exact `BuildRecipe` (seed, black box, every request knob) is
//!   recovered from the recipe tag the builder records in the artifact's
//!   provenance, the artifact is rebuilt from its embedded source graph and
//!   checked **bit-identical** to the stored one, and clients may then push
//!   `ApplyDeltas` frames at it — the server patches or rebuilds off-lock
//!   and warm-swaps the new version under live traffic. Deltas are
//!   volatile: nothing is written back to the store, so a restart serves
//!   the stored base and clients re-send their deltas. Sharded artifacts
//!   stay sharded (they have no delta path). A flat artifact with no recipe
//!   tag, whose recipe cannot rebuild, or whose rebuild does not reproduce
//!   the stored bytes keeps its flat registration, with a warning — the
//!   server never silently serves a different spanner than the store holds.
//! * `--addr` — listen address (default `127.0.0.1:0`; port 0 lets the OS
//!   pick).
//! * `--workers` — batches that execute at once (default: one per CPU).
//!   Each batch runs on the connection thread that read it, holding one of
//!   these permits; this is the server's only parallelism.
//! * `--queue-capacity` — batches that may wait for a permit; beyond it
//!   batches are answered `Overloaded` (default 64).
//! * `--timeout-secs` — per-connection read/write timeout (default 30).
//! * `--print-port` — print `PORT <n>` on stdout once listening (used by
//!   the CI smoke test to discover the ephemeral port).
//!
//! The server runs until a client sends a `Shutdown` frame, then drains
//! in-flight batches and exits 0, printing a final stats line (with the
//! process's peak resident set, `peak_rss_kb`, where `/proc/self/status`
//! is readable).

use fault_tolerant_spanners::{ArtifactStore, BuildRecipe, DynamicArtifact, Engine};
use ftspan_net::{Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    store: Option<std::path::PathBuf>,
    addr: String,
    config: ServerConfig,
    dynamic: bool,
    print_port: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        store: None,
        addr: "127.0.0.1:0".to_string(),
        config: ServerConfig::default(),
        dynamic: false,
        print_port: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--store" => args.store = Some(value_of("--store").into()),
            "--addr" => args.addr = value_of("--addr"),
            "--workers" => {
                args.config.workers = value_of("--workers")
                    .parse()
                    .expect("--workers expects a positive integer");
            }
            "--queue-capacity" => {
                args.config.queue_capacity = value_of("--queue-capacity")
                    .parse()
                    .expect("--queue-capacity expects a positive integer");
            }
            "--timeout-secs" => {
                let secs: u64 = value_of("--timeout-secs")
                    .parse()
                    .expect("--timeout-secs expects a positive integer");
                args.config.read_timeout = Some(Duration::from_secs(secs));
                args.config.write_timeout = Some(Duration::from_secs(secs));
            }
            "--dynamic" => args.dynamic = true,
            "--print-port" => args.print_port = true,
            other => panic!("unknown argument `{other}` (see the ftspan_serve docs)"),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(store_dir) = args.store else {
        eprintln!("ftspan_serve: --store DIR is required");
        return ExitCode::FAILURE;
    };

    let store = match ArtifactStore::open(&store_dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("ftspan_serve: cannot open store: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut engine = Engine::new();
    let names = match store.load_into(&mut engine) {
        Ok(names) => names,
        Err(e) => {
            eprintln!("ftspan_serve: cannot load store: {e}");
            return ExitCode::FAILURE;
        }
    };
    if names.is_empty() {
        eprintln!(
            "ftspan_serve: store {} holds no artifacts",
            store_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let mut dynamic_count = 0usize;
    if args.dynamic {
        for name in &names {
            // Only flat registrations are promoted (`artifact` is `None` for
            // sharded ones); sharded artifacts keep their scatter-gather
            // serving path.
            let Some(flat) = engine.artifact(name) else {
                continue;
            };
            // The recipe comes from the artifact's own recorded provenance;
            // an artifact without a tag (pre-tag stores, external-RNG
            // builds) is *not* rebuilt under guessed parameters.
            let Some(recipe) =
                BuildRecipe::from_tagged_provenance(flat.algorithm(), flat.provenance())
            else {
                eprintln!(
                    "ftspan_serve: `{name}` records no build recipe in its provenance; \
                     serving it as a flat artifact"
                );
                continue;
            };
            match DynamicArtifact::build(flat.source_graph(), recipe) {
                Ok(dynamic) => {
                    // Promotion must be invisible until the first delta: the
                    // rebuilt artifact has to reproduce the stored bytes.
                    if dynamic.artifact() != &*flat {
                        eprintln!(
                            "ftspan_serve: rebuilding `{name}` from its recorded recipe \
                             does not reproduce the stored artifact; serving it as a \
                             flat artifact"
                        );
                        continue;
                    }
                    engine.register_dynamic(name, dynamic);
                    dynamic_count += 1;
                }
                Err(e) => {
                    eprintln!(
                        "ftspan_serve: cannot promote `{name}` to dynamic ({e}); \
                         serving it as a flat artifact"
                    );
                }
            }
        }
    }

    let server = match Server::bind(engine, args.addr.as_str(), args.config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ftspan_serve: cannot serve on {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("ftspan_serve: cannot resolve listen address: {e}");
            return ExitCode::FAILURE;
        }
    };
    let running = match server.spawn() {
        Ok(running) => running,
        Err(e) => {
            eprintln!("ftspan_serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "ftspan_serve: serving {} artifact(s) [{}] on {addr} ({} workers, queue {}, \
         {dynamic_count} dynamic)",
        names.len(),
        names.join(", "),
        args.config.workers,
        args.config.queue_capacity,
    );
    if args.print_port {
        // Machine-readable line for scripts driving an ephemeral port.
        // Explicit flush: stdout is block-buffered when piped, and the
        // script is waiting on this line.
        use std::io::Write;
        println!("PORT {}", addr.port());
        std::io::stdout().flush().ok();
    }

    // Block until a client requests shutdown, then drain and exit.
    running.handle().wait_for_shutdown();
    match running.shutdown() {
        Ok(stats) => {
            let peak = peak_rss_kb()
                .map(|kb| format!(", peak_rss_kb={kb}"))
                .unwrap_or_default();
            eprintln!(
                "ftspan_serve: drained and stopped ({} connections, {} batches completed, \
                 {} rejected, {} queries{peak})",
                stats.connections_accepted,
                stats.batches_completed,
                stats.batches_rejected,
                stats.engine.queries,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ftspan_serve: shutdown failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The process's peak resident set in kB (`VmHWM` of `/proc/self/status`),
/// or `None` where that file cannot be read.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

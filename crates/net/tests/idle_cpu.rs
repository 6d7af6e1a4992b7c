//! An idle `ftspan_serve` does no work: no polling acceptor, no polling
//! main thread. The server process is spawned on a tiny store and its CPU
//! time (summed over every thread) is read from `/proc` across an idle
//! window in which no client connects.

#![cfg(target_os = "linux")]

use fault_tolerant_spanners::prelude::*;
use ftspan_net::Client;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Nanoseconds the process has spent on a CPU so far: field 1 of every
/// thread's `schedstat`, summed.
fn cpu_ns(pid: u32) -> u64 {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("the server's task directory is readable")
        .filter_map(|task| {
            let path = task.ok()?.path().join("schedstat");
            let line = std::fs::read_to_string(path).ok()?;
            line.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// Kills the server if the test fails before it exits on its own.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

#[test]
fn idle_ftspan_serve_does_not_spin() {
    let dir = std::env::temp_dir().join(format!("ftspan-idle-cpu-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir).expect("store directory is creatable");
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    let g = generate::connected_gnp(24, 0.3, generate::WeightKind::Unit, &mut rng);
    let artifact = FtSpannerBuilder::new("conversion")
        .faults(1)
        .build_artifact(&g)
        .expect("artifact builds");
    store.save("backbone", &artifact).expect("artifact saves");

    let mut server = Serve(
        Command::new(env!("CARGO_BIN_EXE_ftspan_serve"))
            .arg("--store")
            .arg(&dir)
            .args(["--dynamic", "--print-port"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("ftspan_serve starts"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .expect("ftspan_serve prints its port");
    let port: u16 = line
        .strip_prefix("PORT ")
        .and_then(|p| p.trim().parse().ok())
        .unwrap_or_else(|| panic!("expected `PORT <n>`, got {line:?}"));

    let pid = server.0.id();
    let before = cpu_ns(pid);
    thread::sleep(Duration::from_secs(2));
    let idle_ns = cpu_ns(pid) - before;

    let mut client = Client::connect(("127.0.0.1", port)).expect("client connects");
    client.shutdown_server().expect("shutdown acknowledged");
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("wait on ftspan_serve") {
            break status;
        }
        if Instant::now() > deadline {
            panic!("ftspan_serve did not exit after a Shutdown frame");
        }
        thread::sleep(Duration::from_millis(20));
    };
    std::fs::remove_dir_all(&dir).ok();

    assert!(status.success(), "ftspan_serve exited with {status}");
    assert!(
        idle_ns < 10_000_000,
        "an idle ftspan_serve used {:.1} ms of CPU in 2 s",
        idle_ns as f64 / 1e6
    );
}

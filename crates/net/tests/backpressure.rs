//! Backpressure and graceful-shutdown acceptance tests.
//!
//! A server with one worker and a pending-batch queue of capacity 1 is
//! driven into saturation: while the worker grinds a deliberately slow
//! batch and a second batch sits in the queue, a probe batch must be
//! answered with a **typed** `Overloaded` rejection — not a hang, not a
//! dropped connection — and shutdown must still drain both admitted batches
//! to completion, delivering their full responses.

use fault_tolerant_spanners::prelude::*;
use ftspan_net::{BatchReply, Client, NetError, Server, ServerConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::Read;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

fn build_engine(seed: u64, n: usize) -> Engine {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generate::connected_gnp(n, 24.0 / n as f64, generate::WeightKind::Unit, &mut rng);
    let artifact = FtSpannerBuilder::new("conversion")
        .faults(2)
        .build_artifact(&g)
        .expect("artifact builds");
    let mut engine = Engine::new();
    engine.register("backbone", artifact);
    engine
}

/// A batch designed to keep a worker busy for a while: thousands of path
/// queries, (almost) every one under a distinct two-vertex fault scope, so
/// the planner cannot amortize session construction across queries.
fn slow_batch(n: usize, count: usize) -> Vec<Query> {
    (0..count)
        .map(|q| {
            let a = q % n;
            let mut b = (q / n) % n;
            if b == a {
                b = (b + 1) % n;
            }
            Query::path(
                "backbone",
                vec![NodeId::new(a), NodeId::new(b)],
                NodeId::new((q * 3 + 1) % n),
                NodeId::new((q * 5 + 2) % n),
            )
        })
        .collect()
}

#[test]
fn full_queue_yields_typed_overloaded_and_shutdown_drains_admitted_batches() {
    let n = 96;
    let engine = build_engine(41, n);
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind")
    .spawn()
    .expect("server spawns");
    let addr = server.addr();

    let slow = slow_batch(n, 6000);
    let slow_len = slow.len();

    // Client A: occupies the single worker.
    let a = {
        let slow = slow.clone();
        thread::spawn(move || {
            let mut client = Client::connect(addr).expect("client A connects");
            client
                .run_batch(&slow)
                .expect("request A succeeds")
                .expect_results()
                .expect("batch A is admitted and drained")
                .len()
        })
    };
    // Wait until A's batch has actually STARTED on the worker.
    wait_until(&server, |s| s.batches_started == 1, "batch A starts");

    // Client B: fills the queue (capacity 1) while the worker is busy.
    let b = {
        let slow = slow.clone();
        thread::spawn(move || {
            let mut client = Client::connect(addr).expect("client B connects");
            client
                .run_batch(&slow)
                .expect("request B succeeds")
                .expect_results()
                .expect("batch B is admitted and drained")
                .len()
        })
    };
    // Wait until B's batch is sitting in the queue: worker still on A
    // (started == 1, completed == 0) and queue depth == 1.
    wait_until(
        &server,
        |s| s.batches_started == 1 && s.batches_completed == 0 && s.queue_depth == 1,
        "batch B queues",
    );

    // Probe: the queue is full, so admission control must answer with a
    // typed Overloaded immediately — the connection stays usable.
    let mut probe = Client::connect(addr).expect("probe connects");
    let tiny = [Query::distance(
        "backbone",
        vec![],
        NodeId::new(0),
        NodeId::new(1),
    )];
    let reply = probe.run_batch(&tiny).expect("probe request succeeds");
    assert!(
        reply.is_overloaded(),
        "expected a typed Overloaded while saturated, got {reply:?}"
    );
    assert_eq!(reply, BatchReply::Overloaded);
    // The rejection is per-batch, not per-connection: the same connection
    // can still talk to the server.
    assert!(!probe.artifacts().expect("listing still works").is_empty());
    drop(probe);

    // Graceful shutdown must drain BOTH admitted batches: A (in flight) and
    // B (queued) run to completion and their full responses are delivered.
    let stats = server.shutdown().expect("clean shutdown");
    assert_eq!(a.join().expect("client A thread"), slow_len);
    assert_eq!(b.join().expect("client B thread"), slow_len);
    assert_eq!(stats.batches_completed, 2, "both admitted batches drained");
    assert!(stats.batches_rejected >= 1, "the probe was rejected");
    assert_eq!(stats.queue_depth, 0, "nothing left behind in the queue");
}

#[test]
fn batches_after_shutdown_request_get_a_typed_shutting_down_reply() {
    let engine = build_engine(43, 32);
    let server = Server::bind(engine, "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind")
        .spawn()
        .expect("server spawns");
    let mut client = Client::connect(server.addr()).expect("client connects");

    // A wire-level shutdown request is acknowledged...
    client.shutdown_server().expect("shutdown acknowledged");
    // ...and every later batch on any connection is refused with a typed
    // ShuttingDown, not an error or a hang.
    let reply = client
        .run_batch(&[Query::distance(
            "backbone",
            vec![],
            NodeId::new(0),
            NodeId::new(1),
        )])
        .expect("request still gets a reply");
    assert_eq!(reply, BatchReply::ShuttingDown);
    assert!(reply.expect_results().is_err());

    drop(client);
    let stats = server.shutdown().expect("clean shutdown");
    assert_eq!(stats.batches_completed, 0);
}

/// Runs `route` against a fresh idle server (no connection ever accepted
/// before shutdown starts) and asserts it finishes within a few seconds.
/// The route runs on its own thread, so a hung shutdown fails the test
/// instead of hanging it.
fn assert_idle_shutdown_is_prompt(
    bind: &str,
    route: impl FnOnce(ftspan_net::RunningServer) + Send + 'static,
) {
    let server = Server::bind(build_engine(47, 32), bind, ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("server spawns");
    assert_eq!(server.stats().connections_accepted, 0);
    let (done, finished) = std::sync::mpsc::channel();
    let runner = thread::spawn(move || {
        route(server);
        done.send(()).ok();
    });
    let outcome = finished.recv_timeout(Duration::from_secs(5));
    if outcome.is_ok() || runner.is_finished() {
        // Re-raise a panic inside `route` with its own message.
        runner.join().expect("shutdown route");
    }
    assert!(outcome.is_ok(), "idle shutdown on {bind} took over 5 s");
}

#[test]
fn idle_server_shuts_down_promptly_by_every_route() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        assert_idle_shutdown_is_prompt(bind, |server| {
            let stats = server.shutdown().expect("clean shutdown");
            assert_eq!(stats.connections_accepted, 0);
        });
        assert_idle_shutdown_is_prompt(bind, |server| {
            let handle = server.handle();
            let requester = thread::spawn(move || handle.request_shutdown());
            server.handle().wait_for_shutdown();
            requester.join().expect("requester thread");
            let stats = server.shutdown().expect("clean shutdown");
            assert_eq!(stats.connections_accepted, 0);
        });
        assert_idle_shutdown_is_prompt(bind, |server| {
            let port = server.addr().port();
            let mut client = Client::connect(("127.0.0.1", port)).expect("client connects");
            client.shutdown_server().expect("shutdown acknowledged");
            drop(client);
            let stats = server.shutdown().expect("clean shutdown");
            assert_eq!(stats.connections_accepted, 1, "only the client counts");
        });
    }
}

#[test]
fn zero_timeouts_are_rejected_at_bind() {
    // std refuses a zero socket timeout, so a server that accepted one would
    // leave every connection blocking forever instead of timing out.
    let engine = build_engine(53, 24);
    for field in ["read_timeout", "write_timeout"] {
        let mut config = ServerConfig::default();
        match field {
            "read_timeout" => config.read_timeout = Some(Duration::ZERO),
            _ => config.write_timeout = Some(Duration::ZERO),
        }
        let outcome = Server::bind(engine.clone(), "127.0.0.1:0", config);
        assert_eq!(
            outcome.err(),
            Some(NetError::ZeroTimeout { field }),
            "a zero {field} must be a typed bind error"
        );
    }

    // `ftspan_serve --timeout-secs 0` exits non-zero with that message
    // instead of serving connections that never time out.
    let dir = std::env::temp_dir().join(format!("ftspan-zero-timeout-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir).expect("store directory is creatable");
    let artifact = engine.artifact("backbone").expect("backbone is registered");
    store.save("backbone", &artifact).expect("artifact saves");
    let mut serve = Command::new(env!("CARGO_BIN_EXE_ftspan_serve"))
        .arg("--store")
        .arg(&dir)
        .args(["--timeout-secs", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ftspan_serve starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = serve.try_wait().expect("wait on ftspan_serve") {
            break status;
        }
        if Instant::now() >= deadline {
            serve.kill().ok();
            serve.wait().ok();
            std::fs::remove_dir_all(&dir).ok();
            panic!("ftspan_serve --timeout-secs 0 kept serving");
        }
        thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    serve
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr is readable");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!status.success(), "ftspan_serve must exit non-zero");
    let expected = NetError::ZeroTimeout {
        field: "read_timeout",
    }
    .to_string();
    assert!(
        stderr.contains(&expected),
        "stderr must carry {expected:?}, got {stderr:?}"
    );
}

fn wait_until(
    server: &ftspan_net::RunningServer,
    condition: impl Fn(&ftspan_net::ServerStats) -> bool,
    what: &str,
) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = server.stats();
        if condition(&stats) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; stats: {stats:?}"
        );
        thread::sleep(Duration::from_millis(1));
    }
}

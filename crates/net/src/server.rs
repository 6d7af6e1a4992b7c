//! The TCP server: connection threads behind an admission gate, over an
//! [`Engine`].
//!
//! # Architecture
//!
//! One acceptor thread blocks in `accept()`; an idle server does no work.
//! Each accepted connection gets its own thread that reads request frames
//! and answers them. A [`Request::RunBatch`] frame runs on the connection
//! thread that read it, but only once it holds one of the gate's
//! [`ServerConfig::workers`] permits: at most that many batches execute at
//! once, whatever the number of clients, and a batch never crosses to
//! another thread on its way to the engine or back.
//!
//! The permits are the only parallelism on the serving path. [`Server::bind`]
//! runs its engine at one worker, so each batch executes on its connection
//! thread alone — one session and one source cache per `(artifact, fault
//! scope)` group, no threads spawned per batch — and batches run in parallel
//! across connections, never inside one.
//!
//! Admission control is non-blocking: at most
//! [`ServerConfig::queue_capacity`] batches wait for a permit, and a batch
//! beyond that is answered immediately with a typed
//! [`Response::Overloaded`] frame — never a hang, never a dropped
//! connection. The client owns the retry policy.
//!
//! # Graceful shutdown
//!
//! [`ServerHandle::request_shutdown`] (or a
//! [`Request::Shutdown`] frame) drains
//! rather than drops: the acceptor is woken out of `accept()` by a single
//! loopback connect and stops accepting, and the gate closes, so newly
//! arriving batches are answered `ShuttingDown`. Batches already admitted —
//! running, or waiting for a permit — run to completion and their responses
//! are written; [`RunningServer::shutdown`] waits until the gate is idle,
//! and only then shuts down connection read-halves to unblock idle readers.
//! Responses for drained batches are never lost because only the **read**
//! half of each connection is closed.

use crate::error::NetError;
use crate::protocol::{ArtifactInfo, DeltaApplyInfo, Request, Response, ServerStats};
use fault_tolerant_spanners::{EdgeDelta, Engine, Query, RebuildPolicy};
use std::io::BufWriter;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Batches that execute at once (clamped to at least 1), each on the
    /// connection thread that read it. Defaults to one per available CPU.
    /// This is the server's only parallelism: each batch runs on one
    /// thread, and the engine's own
    /// [`Engine::with_workers`](fault_tolerant_spanners::Engine::with_workers)
    /// setting is ignored.
    pub workers: usize,
    /// Batches that may wait for one of the `workers` permits (clamped to
    /// at least 1). A batch arriving while this many wait is answered
    /// `Overloaded`.
    pub queue_capacity: usize,
    /// Per-connection read timeout. A connection idle longer than this is
    /// closed. `None` waits forever; [`Server::bind`] rejects zero.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout for response frames. `None` waits
    /// forever; [`Server::bind`] rejects zero.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: fault_tolerant_spanners::graph::par::available_threads(),
            queue_capacity: 64,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Why [`Gate::enter`] turned a batch away.
#[derive(Debug, PartialEq)]
enum Refusal {
    /// As many batches as the gate's capacity already wait for a permit.
    Full,
    /// The gate closed for shutdown.
    Closed,
}

/// The admission gate: a counting semaphore of `permits` with a bounded
/// line of waiters. Entering never blocks to refuse — a full line or a
/// closed gate answers at once — and closing it turns away newcomers while
/// every batch already admitted, running or waiting, still runs.
struct Gate {
    state: Mutex<GateState>,
    /// Signalled once per released permit.
    freed: Condvar,
    /// Signalled when the last running or waiting batch leaves.
    idle: Condvar,
}

struct GateState {
    permits: usize,
    capacity: usize,
    running: usize,
    waiting: usize,
    /// Batches admitted over the gate's lifetime.
    admitted: u64,
    closed: bool,
}

/// A held permit; dropping it releases the permit.
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(permits: usize, capacity: usize) -> Self {
        Gate {
            state: Mutex::new(GateState {
                permits: permits.max(1),
                capacity: capacity.max(1),
                running: 0,
                waiting: 0,
                admitted: 0,
                closed: false,
            }),
            freed: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        // No holder can panic between two updates, so the state stays
        // consistent even if the lock is poisoned.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a batch and returns its permit, waiting while every permit is
    /// held.
    fn enter(&self) -> Result<Permit<'_>, Refusal> {
        let mut state = self.lock();
        if state.closed {
            return Err(Refusal::Closed);
        }
        let busy = state.running >= state.permits;
        if busy && state.waiting >= state.capacity {
            return Err(Refusal::Full);
        }
        state.admitted += 1;
        if busy {
            state.waiting += 1;
            state = self
                .freed
                .wait_while(state, |s| s.running >= s.permits)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
        state.running += 1;
        Ok(Permit(self))
    }

    /// Turns away every later batch; admitted ones still run.
    fn close(&self) {
        self.lock().closed = true;
    }

    /// Blocks until no batch is running or waiting.
    fn wait_idle(&self) {
        let state = self.lock();
        drop(
            self.idle
                .wait_while(state, |s| s.running > 0 || s.waiting > 0)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let gate = self.0;
        let mut state = gate.lock();
        state.running -= 1;
        let idle = state.running == 0 && state.waiting == 0;
        drop(state);
        gate.freed.notify_one();
        if idle {
            gate.idle.notify_all();
        }
    }
}

/// Serving counters, shared between all server threads and snapshotted into
/// [`ServerStats`] wire frames.
#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    batches_started: AtomicU64,
    batches_completed: AtomicU64,
    batches_rejected: AtomicU64,
}

/// State shared by the acceptor, connection threads and handles.
struct Shared {
    engine: Engine,
    gate: Gate,
    counters: Counters,
    shutting_down: AtomicBool,
    /// Paired with `shutdown_signal` so [`ServerHandle::wait_for_shutdown`]
    /// can block until `shutting_down` is set.
    shutdown_lock: Mutex<()>,
    shutdown_signal: Condvar,
    /// A connectable form of the listener's address: the one loopback
    /// connect that wakes the acceptor out of `accept()` goes here.
    wake_addr: SocketAddr,
    /// Read-half handles of live connections, so shutdown can unblock
    /// threads parked in `read`. Writes stay open for drained responses.
    /// Slots are cleared when a connection thread exits, so a dead
    /// connection does not pin its file descriptor until shutdown.
    connections: Mutex<Vec<Option<TcpStream>>>,
}

impl Shared {
    /// Starts a graceful shutdown; later calls are no-ops. Sets the flag
    /// (connection threads reject new batches), closes the gate (admitted
    /// batches still run), signals [`ServerHandle::wait_for_shutdown`], and
    /// wakes the acceptor.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.gate.close();
        // Taking the lock once means a waiter either saw the flag or is
        // already parked and gets this notification.
        drop(self.shutdown_lock.lock().expect("shutdown lock poisoned"));
        self.shutdown_signal.notify_all();
        // The acceptor sees the flag once this connection is accepted. If
        // the connect fails the listener is already gone, so nobody waits.
        TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1)).ok();
    }

    fn stats(&self) -> ServerStats {
        let (batches_enqueued, queue_depth) = {
            let gate = self.gate.lock();
            (gate.admitted, gate.waiting as u64)
        };
        ServerStats {
            connections_accepted: self.counters.connections_accepted.load(Ordering::Relaxed),
            batches_enqueued,
            batches_started: self.counters.batches_started.load(Ordering::Relaxed),
            batches_completed: self.counters.batches_completed.load(Ordering::Relaxed),
            batches_rejected: self.counters.batches_rejected.load(Ordering::Relaxed),
            queue_depth,
            engine: self.engine.stats(),
        }
    }

    fn artifact_infos(&self) -> Vec<ArtifactInfo> {
        self.engine
            .names()
            .into_iter()
            .map(|name| {
                let handle = self
                    .engine
                    .artifact_handle(&name)
                    .expect("names() only lists registered artifacts");
                ArtifactInfo {
                    name,
                    fault_model: handle.fault_model(),
                    fault_budget: handle.fault_budget() as u64,
                    stretch: handle.stretch(),
                    nodes: handle.node_count() as u64,
                    spanner_edges: handle.spanner_edge_count() as u64,
                }
            })
            .collect()
    }
}

/// A bound-but-not-yet-running server. [`Server::spawn`] starts the
/// acceptor, which starts the connection threads, and returns a
/// [`RunningServer`].
///
/// # Example
///
/// ```
/// use fault_tolerant_spanners::prelude::*;
/// use ftspan_net::{Client, Server, ServerConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let network = generate::connected_gnp(20, 0.3, generate::WeightKind::Unit, &mut rng);
/// let artifact = FtSpannerBuilder::new("conversion")
///     .faults(1)
///     .build_artifact(&network)
///     .unwrap();
/// let mut engine = Engine::new();
/// engine.register("backbone", artifact);
///
/// let server = Server::bind(engine, "127.0.0.1:0", ServerConfig::default())
///     .unwrap()
///     .spawn()
///     .unwrap();
/// let mut client = Client::connect(server.addr()).unwrap();
/// let reply = client
///     .run_batch(&[Query::distance("backbone", vec![], NodeId::new(0), NodeId::new(5))])
///     .unwrap()
///     .expect_results()
///     .unwrap();
/// assert!(reply[0].is_ok());
/// drop(client);
/// server.shutdown().unwrap();
/// ```
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    config: ServerConfig,
}

impl Server {
    /// Binds a listener and prepares the shared state. `addr` may use port
    /// 0 to let the OS pick an ephemeral port ([`Server::local_addr`] /
    /// [`RunningServer::addr`] report the resolved address). A zero read or
    /// write timeout is rejected with [`NetError::ZeroTimeout`].
    pub fn bind(
        engine: Engine,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Server, NetError> {
        for (field, timeout) in [
            ("read_timeout", config.read_timeout),
            ("write_timeout", config.write_timeout),
        ] {
            if timeout == Some(Duration::ZERO) {
                return Err(NetError::ZeroTimeout { field });
            }
        }
        let listener = TcpListener::bind(addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::new(Shared {
            // The gate's permits are the only parallelism: a batch runs on
            // its connection thread and never fans out again.
            engine: engine.with_workers(1),
            gate: Gate::new(config.workers, config.queue_capacity),
            counters: Counters::default(),
            shutting_down: AtomicBool::new(false),
            shutdown_lock: Mutex::new(()),
            shutdown_signal: Condvar::new(),
            wake_addr,
            connections: Mutex::new(Vec::new()),
        });
        Ok(Server {
            listener,
            shared,
            config,
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Starts the acceptor thread; returns immediately.
    pub fn spawn(self) -> Result<RunningServer, NetError> {
        let addr = self.local_addr()?;
        let acceptor = {
            let shared = Arc::clone(&self.shared);
            let listener = self.listener;
            let config = self.config;
            thread::Builder::new()
                .name("ftspan-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared, &config))
                .expect("spawn acceptor thread")
        };
        Ok(RunningServer {
            addr,
            shared: self.shared,
            acceptor,
        })
    }
}

/// A live server: its address, a stats/shutdown surface, and the acceptor
/// thread [`RunningServer::shutdown`] joins.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: thread::JoinHandle<()>,
}

impl RunningServer {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server's counters (same numbers a client sees via
    /// [`Request::Stats`]).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// A cloneable handle for triggering shutdown from another thread (or
    /// from a ctrl-c handler).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Gracefully shuts down: stop accepting, answer new batches
    /// `ShuttingDown`, drain running and waiting batches (their responses
    /// are written), then close connections and join every thread.
    pub fn shutdown(self) -> Result<ServerStats, NetError> {
        // Order matters. (1) Flag, closed gate, woken acceptor: nothing new
        // is accepted or admitted.
        self.shared.begin_shutdown();
        // (2) Admitted batches run to completion on their connection threads.
        self.shared.gate.wait_idle();
        // (3) Every admitted batch has now run; its connection thread writes
        // the response on the still-open write half. Unblock readers: shut
        // down only the READ half so an in-flight response write can still
        // complete.
        for conn in self
            .shared
            .connections
            .lock()
            .expect("registry poisoned")
            .iter()
            .flatten()
        {
            conn.shutdown(Shutdown::Read).ok();
        }
        // (4) The acceptor has left `accept()`, joins the connection threads
        // (their reads now return 0) and exits.
        self.acceptor.join().map_err(|_| NetError::Io {
            message: "the acceptor thread panicked".into(),
        })?;
        Ok(self.shared.stats())
    }
}

/// A cloneable shutdown/stats handle onto a [`RunningServer`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Requests shutdown. The acceptor stops and the gate begins draining;
    /// call [`RunningServer::shutdown`] to join the threads.
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until shutdown has been requested, by this handle or by a
    /// [`Request::Shutdown`] frame.
    pub fn wait_for_shutdown(&self) {
        let shared = &self.shared;
        let guard = shared.shutdown_lock.lock().expect("shutdown lock poisoned");
        let _guard = shared
            .shutdown_signal
            .wait_while(guard, |_| !shared.shutting_down.load(Ordering::SeqCst))
            .expect("shutdown lock poisoned");
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>, config: &ServerConfig) {
    let mut connection_threads = Vec::new();
    while !shared.shutting_down.load(Ordering::SeqCst) {
        match listener.accept() {
            // The wake-up connect from `begin_shutdown` (or a client that
            // raced it): drop it unserved.
            Ok(_) if shared.shutting_down.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => {
                shared
                    .counters
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(config.read_timeout).ok();
                stream.set_write_timeout(config.write_timeout).ok();
                let slot = {
                    let mut connections = shared.connections.lock().expect("registry poisoned");
                    connections.push(stream.try_clone().ok());
                    connections.len() - 1
                };
                let shared = Arc::clone(shared);
                if let Ok(handle) =
                    thread::Builder::new()
                        .name("ftspan-conn".into())
                        .spawn(move || {
                            connection_loop(stream, &shared);
                            shared.connections.lock().expect("registry poisoned")[slot] = None;
                        })
                {
                    connection_threads.push(handle);
                }
            }
            // Back off on real errors (e.g. out of file descriptors) rather
            // than spin on them.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    for handle in connection_threads {
        handle.join().ok();
    }
}

/// Serves one connection: read a request frame, answer it, repeat until the
/// peer hangs up, times out, or sends garbage. Protocol errors terminate
/// the connection (the stream position is unrecoverable after a malformed
/// frame) but never the server.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        let request = match Request::read_from(&mut reader) {
            Ok(request) => request,
            // Clean hang-up, timeout, reset, or garbage: close this
            // connection. Each is per-connection, never server-fatal.
            Err(_) => return,
        };
        let response = match request {
            Request::RunBatch(queries) => run_batch_response(shared, queries),
            Request::ListArtifacts => Response::Artifacts(shared.artifact_infos()),
            Request::Stats => Response::Stats(shared.stats()),
            Request::Shutdown => {
                shared.begin_shutdown();
                Response::ShuttingDown
            }
            // Runs without a gate permit: a minutes-long rebuild must not
            // hold one of the batch permits, and query traffic keeps flowing
            // against the old version while the new one builds. One slow
            // updater stalls only its own connection.
            Request::ApplyDeltas { artifact, deltas } => {
                apply_deltas_response(shared, &artifact, &deltas)
            }
        };
        if response.write_to(&mut writer).is_err() {
            return;
        }
    }
}

fn apply_deltas_response(shared: &Arc<Shared>, artifact: &str, deltas: &[EdgeDelta]) -> Response {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Response::ShuttingDown;
    }
    let result = shared
        .engine
        .apply_deltas(artifact, deltas, &RebuildPolicy::default())
        .map(|report| DeltaApplyInfo {
            version: report.version,
            applied: report.applied as u64,
            last_seq: report.last_seq,
            rebuilt: !report.action.is_patch(),
        });
    Response::DeltasApplied(result)
}

fn run_batch_response(shared: &Arc<Shared>, queries: Vec<Query>) -> Response {
    match shared.gate.enter() {
        Ok(_permit) => {
            let counters = &shared.counters;
            counters.batches_started.fetch_add(1, Ordering::Relaxed);
            let results = shared.engine.run_batch(&queries);
            counters.batches_completed.fetch_add(1, Ordering::Relaxed);
            Response::Batch(results)
        }
        Err(Refusal::Full) => {
            shared
                .counters
                .batches_rejected
                .fetch_add(1, Ordering::Relaxed);
            Response::Overloaded
        }
        Err(Refusal::Closed) => Response::ShuttingDown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    /// Spins until `count` batches wait at `gate`.
    fn until_waiting(gate: &Gate, count: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while gate.lock().waiting != count {
            assert!(Instant::now() < deadline, "{count} waiters never arrived");
            thread::yield_now();
        }
    }

    /// Enters `gate` from a thread of `scope` and returns its answer, or
    /// `None` if the entrant still waits after 10 s. A refusal is immediate;
    /// an entrant wrongly left waiting gets its permit once the caller
    /// releases one, so a failing test fails instead of hanging.
    fn probe<'scope>(
        scope: &'scope thread::Scope<'scope, '_>,
        gate: &'scope Gate,
    ) -> Option<Result<(), Refusal>> {
        let (answer, answered) = mpsc::channel();
        scope.spawn(move || answer.send(gate.enter().map(drop)).ok());
        answered.recv_timeout(Duration::from_secs(10)).ok()
    }

    #[test]
    fn gate_admits_up_to_its_permits() {
        let gate = Gate::new(2, 1);
        let first = gate.enter().expect("first permit");
        let second = gate.enter().expect("second permit");
        assert_eq!(gate.lock().running, 2);
        drop(first);
        let third = gate.enter().expect("a released permit is reused");
        drop((second, third));
        let state = gate.lock();
        assert_eq!((state.running, state.waiting, state.admitted), (0, 0, 3));
    }

    #[test]
    fn next_batch_waits_and_the_one_after_is_full() {
        // One permit and one waiting slot, given directly and as the clamp
        // of zero.
        for gate in [Gate::new(1, 1), Gate::new(0, 0)] {
            let held = gate.enter().expect("the only permit");
            thread::scope(|scope| {
                let waiter = scope.spawn(|| gate.enter().map(drop));
                until_waiting(&gate, 1);
                let refused = probe(scope, &gate);
                drop(held);
                assert_eq!(refused, Some(Err(Refusal::Full)));
                assert_eq!(waiter.join().expect("waiter thread"), Ok(()));
            });
        }
    }

    #[test]
    fn closed_gate_turns_newcomers_away_but_runs_admitted_waiters() {
        let gate = Gate::new(1, 2);
        let held = gate.enter().expect("the only permit");
        thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.enter().map(drop));
            until_waiting(&gate, 1);
            gate.close();
            let refused = probe(scope, &gate);
            drop(held);
            assert_eq!(refused, Some(Err(Refusal::Closed)));
            assert_eq!(waiter.join().expect("waiter thread"), Ok(()));
        });
        assert_eq!(gate.lock().admitted, 2);
    }

    #[test]
    fn wait_idle_returns_once_the_last_batch_leaves() {
        let gate = Gate::new(1, 1);
        gate.wait_idle();
        let held = gate.enter().expect("the only permit");
        let (left, idle) = mpsc::channel();
        thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.enter().map(drop));
            until_waiting(&gate, 1);
            scope.spawn(|| {
                gate.wait_idle();
                let state = gate.lock();
                left.send(state.running + state.waiting).ok();
            });
            drop(held);
            assert_eq!(waiter.join().expect("waiter thread"), Ok(()));
            assert_eq!(idle.recv().expect("wait_idle returns"), 0);
        });
    }
}

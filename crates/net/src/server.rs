//! The TCP server: a worker pool with admission control and backpressure
//! over an [`Engine`].
//!
//! # Architecture
//!
//! One acceptor thread blocks in `accept()`; an idle server does no work.
//! Each accepted connection gets its own thread that reads request frames
//! and answers them. [`Request::RunBatch`] frames do
//! **not** run on the connection thread: they are admitted into a bounded
//! pending-batch queue and executed by a fixed worker pool, so one slow
//! batch cannot starve protocol handling and the server's concurrency is
//! capped regardless of how many clients connect.
//!
//! That pool is the only parallelism on the serving path. [`Server::bind`]
//! runs its engine at one worker, so each batch executes on the single
//! server worker that popped it — one session and one source cache per
//! `(artifact, fault scope)` group, no threads spawned per batch — and
//! batches run in parallel across workers, never inside one.
//!
//! Admission control is non-blocking: when the queue is full the batch is
//! answered immediately with a typed
//! [`Response::Overloaded`] frame —
//! never a hang, never a dropped connection. The client owns the retry
//! policy.
//!
//! # Graceful shutdown
//!
//! [`ServerHandle::request_shutdown`] (or a
//! [`Request::Shutdown`] frame) drains
//! rather than drops: the acceptor is woken out of `accept()` by a single
//! loopback connect and stops accepting, newly arriving batches
//! are answered `ShuttingDown`, queued and in-flight batches run to
//! completion and their responses are written, and only then are connection
//! read-halves shut down to unblock idle readers. Responses for drained
//! batches are never lost because only the **read** half of each connection
//! is closed.

use crate::error::NetError;
use crate::protocol::{ArtifactInfo, DeltaApplyInfo, Request, Response, ServerStats};
use fault_tolerant_spanners::core::CoreError;
use fault_tolerant_spanners::{EdgeDelta, Engine, Query, QueryOutcome, RebuildPolicy};
use std::collections::VecDeque;
use std::io::BufWriter;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Worker threads executing admitted batches (clamped to at least 1).
    /// Defaults to one per available CPU. This is the server's only
    /// parallelism: each batch runs on one worker, and the engine's own
    /// [`EngineConfig::workers`](fault_tolerant_spanners::EngineConfig::workers)
    /// is ignored.
    pub workers: usize,
    /// Capacity of the pending-batch queue (clamped to at least 1). A batch
    /// arriving while the queue holds this many is answered `Overloaded`.
    pub queue_capacity: usize,
    /// Per-connection read timeout. A connection idle longer than this is
    /// closed. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout for response frames.
    pub write_timeout: Option<Duration>,
    /// Patch-vs-rebuild policy applied to [`Request::ApplyDeltas`] frames.
    pub rebuild_policy: RebuildPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: fault_tolerant_spanners::graph::par::available_threads(),
            queue_capacity: 64,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            rebuild_policy: RebuildPolicy::default(),
        }
    }
}

/// One admitted batch: the decoded queries plus the channel its results go
/// back through to the owning connection thread.
struct Job {
    queries: Vec<Query>,
    reply: mpsc::SyncSender<Vec<Result<QueryOutcome, CoreError>>>,
}

/// Outcome of a non-blocking push attempt on the pending-batch queue.
enum Admission {
    Admitted,
    Full,
    Closed,
}

/// The bounded pending-batch queue: a plain `Mutex<VecDeque>` with one
/// condvar for poppers. Pushes never block (admission control answers
/// `Overloaded` instead); pops block until an item arrives or the queue is
/// closed **and** drained, so closing the queue lets workers finish every
/// admitted batch before exiting.
struct BoundedQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
}

struct QueueInner {
    items: VecDeque<Job>,
    capacity: usize,
    closed: bool,
}

impl BoundedQueue {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    fn try_push(&self, job: Job) -> Admission {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Admission::Closed;
        }
        if inner.items.len() >= inner.capacity {
            return Admission::Full;
        }
        inner.items.push_back(job);
        drop(inner);
        self.not_empty.notify_one();
        Admission::Admitted
    }

    /// Blocks until a job is available; `None` once the queue is closed and
    /// every admitted job has been handed out.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(job) = inner.items.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue poisoned");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }

    fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }
}

/// Serving counters, shared between all server threads and snapshotted into
/// [`ServerStats`] wire frames.
#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    batches_enqueued: AtomicU64,
    batches_started: AtomicU64,
    batches_completed: AtomicU64,
    batches_rejected: AtomicU64,
}

/// State shared by the acceptor, connection threads, workers and handles.
struct Shared {
    engine: Engine,
    queue: BoundedQueue,
    counters: Counters,
    rebuild_policy: RebuildPolicy,
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
    /// (connection threads reject new batches), closes the queue (workers
    /// drain what was admitted, then exit), signals
    /// [`ServerHandle::wait_for_shutdown`], and wakes the acceptor.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // Taking the lock once means a waiter either saw the flag or is
        // already parked and gets this notification.
        drop(self.shutdown_lock.lock().expect("shutdown lock poisoned"));
        self.shutdown_signal.notify_all();
        // The acceptor sees the flag once this connection is accepted. If
        // the connect fails the listener is already gone, so nobody waits.
        TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1)).ok();
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.counters.connections_accepted.load(Ordering::Relaxed),
            batches_enqueued: self.counters.batches_enqueued.load(Ordering::Relaxed),
            batches_started: self.counters.batches_started.load(Ordering::Relaxed),
            batches_completed: self.counters.batches_completed.load(Ordering::Relaxed),
            batches_rejected: self.counters.batches_rejected.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
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
/// acceptor, workers and connection threads and returns a
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
    /// [`RunningServer::addr`] report the resolved address).
    pub fn bind(
        engine: Engine,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::new(Shared {
            // The worker pool is the only parallelism: a batch runs on the
            // worker that popped it and never fans out again.
            engine: engine.with_workers(1),
            queue: BoundedQueue::new(config.queue_capacity),
            counters: Counters::default(),
            rebuild_policy: config.rebuild_policy,
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

    /// Starts the worker pool and the acceptor thread; returns immediately.
    pub fn spawn(self) -> Result<RunningServer, NetError> {
        let addr = self.local_addr()?;
        let workers: Vec<_> = (0..self.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                thread::Builder::new()
                    .name(format!("ftspan-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&self.shared);
            let listener = self.listener;
            let config = self.config.clone();
            thread::Builder::new()
                .name("ftspan-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared, &config))
                .expect("spawn acceptor thread")
        };
        Ok(RunningServer {
            addr,
            shared: self.shared,
            workers,
            acceptor,
        })
    }
}

/// A live server: its address, a stats/shutdown surface, and the thread
/// handles [`RunningServer::shutdown`] joins.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
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
    /// `ShuttingDown`, drain queued and in-flight batches (their responses
    /// are written), then close connections and join every thread.
    pub fn shutdown(self) -> Result<ServerStats, NetError> {
        // Order matters. (1) Flag, closed queue, woken acceptor: nothing new
        // is accepted or admitted, and workers drain what was admitted.
        self.shared.begin_shutdown();
        // (2) Workers exit once the queue is drained.
        for worker in self.workers {
            worker.join().map_err(|_| NetError::Io {
                message: "a worker thread panicked".into(),
            })?;
        }
        // (3) Every admitted batch has now been answered through its reply
        // channel and written by its connection thread (writes happen on the
        // still-open write half). Unblock readers: shut down only the READ
        // half so an in-flight response write can still complete.
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
    /// Requests shutdown. The acceptor and workers begin draining; call
    /// [`RunningServer::shutdown`] to join the threads.
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

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        shared
            .counters
            .batches_started
            .fetch_add(1, Ordering::Relaxed);
        let results = shared.engine.run_batch(&job.queries);
        shared
            .counters
            .batches_completed
            .fetch_add(1, Ordering::Relaxed);
        // A dropped receiver means the connection died mid-batch; the work
        // is wasted but nothing else is affected.
        job.reply.send(results).ok();
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
            // Runs inline on the connection thread, NOT on the worker pool:
            // a minutes-long rebuild must not occupy a batch worker, and
            // query traffic keeps flowing against the old version while the
            // new one builds. One slow updater stalls only its own
            // connection.
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
        .apply_deltas(artifact, deltas, &shared.rebuild_policy)
        .map(|report| DeltaApplyInfo {
            version: report.version,
            applied: report.applied as u64,
            last_seq: report.last_seq,
            rebuilt: !report.action.is_patch(),
        });
    Response::DeltasApplied(result)
}

fn run_batch_response(shared: &Arc<Shared>, queries: Vec<Query>) -> Response {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Response::ShuttingDown;
    }
    // Rendezvous channel: the worker parks on `send` only if this thread
    // died between admitting and receiving, which `recv`'s error arm covers.
    let (reply, results) = mpsc::sync_channel(1);
    match shared.queue.try_push(Job { queries, reply }) {
        Admission::Admitted => {
            shared
                .counters
                .batches_enqueued
                .fetch_add(1, Ordering::Relaxed);
            match results.recv() {
                Ok(results) => Response::Batch(results),
                // Workers only drop a job's reply sender without sending if
                // they exited before popping it — i.e. mid-shutdown.
                Err(_) => Response::ShuttingDown,
            }
        }
        Admission::Full => {
            shared
                .counters
                .batches_rejected
                .fetch_add(1, Ordering::Relaxed);
            Response::Overloaded
        }
        Admission::Closed => Response::ShuttingDown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(reply: mpsc::SyncSender<Vec<Result<QueryOutcome, CoreError>>>) -> Job {
        Job {
            queries: Vec::new(),
            reply,
        }
    }

    #[test]
    fn queue_admits_up_to_capacity_then_rejects() {
        let queue = BoundedQueue::new(2);
        let (tx, _rx) = mpsc::sync_channel(1);
        assert!(matches!(
            queue.try_push(job(tx.clone())),
            Admission::Admitted
        ));
        assert!(matches!(
            queue.try_push(job(tx.clone())),
            Admission::Admitted
        ));
        assert!(matches!(queue.try_push(job(tx.clone())), Admission::Full));
        assert_eq!(queue.len(), 2);
        assert!(queue.pop().is_some());
        assert!(matches!(queue.try_push(job(tx)), Admission::Admitted));
    }

    #[test]
    fn closed_queue_rejects_pushes_and_drains_pops() {
        let queue = BoundedQueue::new(4);
        let (tx, _rx) = mpsc::sync_channel(1);
        assert!(matches!(
            queue.try_push(job(tx.clone())),
            Admission::Admitted
        ));
        queue.close();
        assert!(matches!(queue.try_push(job(tx)), Admission::Closed));
        // The admitted job is still handed out; then pops return None.
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());
        assert!(queue.pop().is_none());
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let queue = BoundedQueue::new(0);
        let (tx, _rx) = mpsc::sync_channel(1);
        assert!(matches!(
            queue.try_push(job(tx.clone())),
            Admission::Admitted
        ));
        assert!(matches!(queue.try_push(job(tx)), Admission::Full));
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let queue = Arc::new(BoundedQueue::new(1));
        let popper = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.pop().is_some())
        };
        thread::sleep(Duration::from_millis(20));
        let (tx, _rx) = mpsc::sync_channel(1);
        assert!(matches!(queue.try_push(job(tx)), Admission::Admitted));
        assert!(popper.join().unwrap());

        let waiter = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.pop().is_none())
        };
        thread::sleep(Duration::from_millis(20));
        queue.close();
        assert!(waiter.join().unwrap());
    }
}

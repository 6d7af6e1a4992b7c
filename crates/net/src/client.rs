//! A blocking client for the framed protocol.

use crate::error::NetError;
use crate::protocol::{ArtifactInfo, DeltaApplyInfo, Request, Response, ServerStats};
use fault_tolerant_spanners::core::CoreError;
use fault_tolerant_spanners::{EdgeDelta, Query, QueryOutcome};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The server's answer to a batch: results, or a typed admission-control
/// rejection the caller must decide how to handle (retry, back off, fail).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchReply {
    /// One result per query, in input order — exactly what
    /// `Engine::run_batch` would have returned in-process.
    Results(Vec<Result<QueryOutcome, CoreError>>),
    /// The server's line of batches waiting for a permit was full; the
    /// batch did not run.
    Overloaded,
    /// The server is shutting down; the batch did not run.
    ShuttingDown,
}

impl BatchReply {
    /// Unwraps the results, turning `Overloaded` / `ShuttingDown` into a
    /// typed [`NetError::Io`] for callers that treat rejection as failure.
    pub fn expect_results(self) -> Result<Vec<Result<QueryOutcome, CoreError>>, NetError> {
        match self {
            BatchReply::Results(results) => Ok(results),
            BatchReply::Overloaded => Err(NetError::Io {
                message: "server overloaded: batch was rejected by admission control".into(),
            }),
            BatchReply::ShuttingDown => Err(NetError::Io {
                message: "server is shutting down: batch was not executed".into(),
            }),
        }
    }

    /// `true` for [`BatchReply::Overloaded`].
    pub fn is_overloaded(&self) -> bool {
        matches!(self, BatchReply::Overloaded)
    }
}

/// A blocking connection to an `ftspan_serve` server.
///
/// One request is in flight at a time (the protocol is strict
/// request/response per connection); open several clients for concurrency.
///
/// # Example
///
/// ```no_run
/// use fault_tolerant_spanners::prelude::*;
/// use ftspan_net::Client;
///
/// let mut client = Client::connect("127.0.0.1:7401").unwrap();
/// for artifact in client.artifacts().unwrap() {
///     println!("{}: {} nodes", artifact.name, artifact.nodes);
/// }
/// let reply = client
///     .run_batch(&[Query::distance("backbone", vec![], NodeId::new(0), NodeId::new(5))])
///     .unwrap();
/// ```
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connects with a connect timeout, and applies the same duration as
    /// the read and write timeout of the resulting connection.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Client, NetError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Self::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> Result<Client, NetError> {
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        request.write_to(&mut self.writer)?;
        Response::read_from(&mut self.reader)
    }

    /// Executes a query batch on the server.
    pub fn run_batch(&mut self, queries: &[Query]) -> Result<BatchReply, NetError> {
        match self.call(&Request::RunBatch(queries.to_vec()))? {
            Response::Batch(results) => Ok(BatchReply::Results(results)),
            Response::Overloaded => Ok(BatchReply::Overloaded),
            Response::ShuttingDown => Ok(BatchReply::ShuttingDown),
            other => Err(unexpected(&other, "batch")),
        }
    }

    /// Lists the artifacts the server is holding.
    pub fn artifacts(&mut self) -> Result<Vec<ArtifactInfo>, NetError> {
        match self.call(&Request::ListArtifacts)? {
            Response::Artifacts(infos) => Ok(infos),
            other => Err(unexpected(&other, "artifact list")),
        }
    }

    /// Snapshots the server's serving counters.
    pub fn stats(&mut self) -> Result<ServerStats, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other, "stats")),
        }
    }

    /// Applies an edge-delta batch to a dynamic artifact on the server and
    /// waits for the warm swap to complete. The inner `Result` is the same
    /// typed outcome `Engine::apply_deltas` returns in-process (unknown or
    /// non-dynamic artifact, invalid delta, concurrent-change retry); the
    /// outer error is transport-level. A server mid-shutdown answers
    /// `ShuttingDown`, surfaced here as a typed [`NetError::Io`].
    pub fn apply_deltas(
        &mut self,
        artifact: &str,
        deltas: &[EdgeDelta],
    ) -> Result<Result<DeltaApplyInfo, CoreError>, NetError> {
        let request = Request::ApplyDeltas {
            artifact: artifact.to_string(),
            deltas: deltas.to_vec(),
        };
        match self.call(&request)? {
            Response::DeltasApplied(result) => Ok(result),
            Response::ShuttingDown => Err(NetError::Io {
                message: "server is shutting down: deltas were not applied".into(),
            }),
            other => Err(unexpected(&other, "deltas-applied")),
        }
    }

    /// Asks the server to shut down gracefully; returns once the server has
    /// acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(&other, "shutdown acknowledgement")),
        }
    }
}

fn unexpected(response: &Response, wanted: &str) -> NetError {
    NetError::Malformed {
        message: format!("expected a {wanted} response, got {response:?}"),
    }
}

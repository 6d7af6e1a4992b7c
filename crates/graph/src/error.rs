//! Error type for the graph substrate.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by graph construction and manipulation.
///
/// All fallible public functions in this crate return
/// [`Result<T>`](crate::Result) with this error type.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A vertex index was outside `0..n`.
    NodeOutOfBounds {
        /// The offending index.
        node: usize,
        /// The number of vertices in the graph.
        len: usize,
    },
    /// An edge index was outside `0..m`.
    EdgeOutOfBounds {
        /// The offending index.
        edge: usize,
        /// The number of edges in the graph.
        len: usize,
    },
    /// A self-loop was supplied where simple graphs are required.
    SelfLoop {
        /// The vertex with the attempted self-loop.
        node: usize,
    },
    /// An edge weight or cost was negative or NaN.
    InvalidWeight {
        /// The offending weight value.
        weight: f64,
    },
    /// An [`EdgeSet`](crate::EdgeSet) was used with a graph of a different
    /// edge count than the one it was created for.
    MismatchedEdgeSet {
        /// Edge capacity of the edge set.
        set_len: usize,
        /// Edge count of the graph.
        graph_len: usize,
    },
    /// A parameter of a generator or algorithm was invalid.
    InvalidParameter {
        /// Human-readable description of the violated requirement.
        message: String,
    },
    /// A balanced partition could not cover every vertex: growth stalled
    /// with vertices unreachable from any part with spare capacity (a
    /// disconnected input, or an imbalance bound too tight for its shape).
    PartitionStalled {
        /// Number of vertices no part could claim.
        unassigned: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, len } => {
                write!(
                    f,
                    "node index {node} out of bounds for graph with {len} vertices"
                )
            }
            GraphError::EdgeOutOfBounds { edge, len } => {
                write!(
                    f,
                    "edge index {edge} out of bounds for graph with {len} edges"
                )
            }
            GraphError::SelfLoop { node } => {
                write!(
                    f,
                    "self-loop at vertex {node} is not allowed in a simple graph"
                )
            }
            GraphError::InvalidWeight { weight } => {
                write!(
                    f,
                    "edge weight {weight} is not a non-negative finite number"
                )
            }
            GraphError::MismatchedEdgeSet { set_len, graph_len } => {
                write!(
                    f,
                    "edge set was built for {set_len} edges but the graph has {graph_len} edges"
                )
            }
            GraphError::InvalidParameter { message } => {
                write!(f, "invalid parameter: {message}")
            }
            GraphError::PartitionStalled { unassigned } => {
                write!(
                    f,
                    "partition growth stalled with {unassigned} vertices unreachable from any \
                     part with spare capacity (disconnected input or too-tight imbalance bound)"
                )
            }
        }
    }
}

impl StdError for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = GraphError::NodeOutOfBounds { node: 7, len: 3 };
        let s = e.to_string();
        assert!(s.contains('7'));
        assert!(s.contains('3'));
        assert!(s.starts_with("node index"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: StdError + Send + Sync + 'static>() {}
        assert_err::<GraphError>();
    }

    #[test]
    fn all_variants_display_nonempty() {
        let errors = vec![
            GraphError::NodeOutOfBounds { node: 1, len: 0 },
            GraphError::EdgeOutOfBounds { edge: 1, len: 0 },
            GraphError::SelfLoop { node: 2 },
            GraphError::InvalidWeight { weight: -1.0 },
            GraphError::MismatchedEdgeSet {
                set_len: 3,
                graph_len: 4,
            },
            GraphError::InvalidParameter {
                message: "p must be in [0,1]".into(),
            },
            GraphError::PartitionStalled { unassigned: 5 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}

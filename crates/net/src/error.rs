//! The typed error surface of the network layer.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by the wire protocol, the server and the client.
///
/// Every way a peer can misbehave — wrong magic, skewed version, lying
/// lengths, truncation, trailing garbage — decodes to one of these variants;
/// the protocol layer never panics on adversarial bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The first four bytes of a frame were not the protocol magic.
    BadMagic {
        /// The bytes that were found instead.
        found: [u8; 4],
    },
    /// The peer speaks a different protocol version.
    VersionSkew {
        /// The version the peer sent.
        found: u32,
        /// The version this build speaks.
        expected: u32,
    },
    /// A frame declared a payload larger than the protocol allows.
    FrameTooLarge {
        /// The declared payload length.
        declared: u64,
        /// The allowed maximum.
        limit: u64,
    },
    /// The stream ended inside a frame or a payload field.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// A frame carried a tag this build does not know.
    UnknownTag {
        /// The unknown tag bytes.
        tag: [u8; 4],
    },
    /// A payload was structurally invalid (bad discriminant, lying sequence
    /// count, invalid UTF-8, trailing bytes).
    Malformed {
        /// What was wrong.
        message: String,
    },
    /// An I/O failure outside the protocol's own framing (connect, read,
    /// write, timeouts), rendered as a string so the error stays cloneable
    /// and comparable.
    Io {
        /// The underlying I/O error.
        message: String,
    },
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// A [`ServerConfig`](crate::ServerConfig) timeout was
    /// `Some(Duration::ZERO)`. The OS rejects a zero socket timeout, so it
    /// would silently mean "wait forever"; `None` says that explicitly.
    ZeroTimeout {
        /// The config field: `"read_timeout"` or `"write_timeout"`.
        field: &'static str,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadMagic { found } => {
                write!(f, "bad frame magic {found:?} (expected \"FTNW\")")
            }
            NetError::VersionSkew { found, expected } => {
                write!(
                    f,
                    "protocol version skew: peer speaks v{found}, this build speaks v{expected}"
                )
            }
            NetError::FrameTooLarge { declared, limit } => {
                write!(
                    f,
                    "frame declares a {declared}-byte payload (limit {limit})"
                )
            }
            NetError::Truncated { context } => {
                write!(f, "stream ended while decoding {context}")
            }
            NetError::UnknownTag { tag } => write!(f, "unknown frame tag {tag:?}"),
            NetError::Malformed { message } => write!(f, "malformed payload: {message}"),
            NetError::Io { message } => write!(f, "network i/o failed: {message}"),
            NetError::Closed => write!(f, "connection closed by peer"),
            NetError::ZeroTimeout { field } => write!(
                f,
                "server {field} is zero; a timeout must be positive (None waits forever)"
            ),
        }
    }
}

impl StdError for NetError {}

impl From<std::io::Error> for NetError {
    fn from(err: std::io::Error) -> Self {
        NetError::Io {
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_display_nonempty_and_informative() {
        let errors = vec![
            NetError::BadMagic { found: *b"HTTP" },
            NetError::VersionSkew {
                found: 2,
                expected: 1,
            },
            NetError::FrameTooLarge {
                declared: 1 << 40,
                limit: 1 << 26,
            },
            NetError::Truncated {
                context: "frame header",
            },
            NetError::UnknownTag { tag: *b"ZZZZ" },
            NetError::Malformed {
                message: "trailing bytes".into(),
            },
            NetError::Io {
                message: "connection reset".into(),
            },
            NetError::Closed,
            NetError::ZeroTimeout {
                field: "read_timeout",
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
        assert!(NetError::VersionSkew {
            found: 2,
            expected: 1
        }
        .to_string()
        .contains("v2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<E: StdError + Send + Sync>() {}
        check::<NetError>();
    }
}

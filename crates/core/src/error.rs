//! Top-level error type.
//!
//! Dispatch errors are *structured* (not stringly) so the session service
//! can map them to stable wire-protocol error codes ([`Pi2Error::code`])
//! without parsing messages.

use std::fmt;

/// Errors surfaced by the end-to-end API.
#[derive(Debug, Clone, PartialEq)]
pub enum Pi2Error {
    /// A query failed to parse.
    Parse(String),
    /// No input queries were provided.
    EmptyWorkload,
    /// The search could not produce a mappable interface.
    NoInterface,
    /// An event referenced an interaction index the interface doesn't have.
    UnknownInteraction {
        /// The out-of-range interaction index the event carried.
        interaction: usize,
    },
    /// An interaction's target node no longer exists in the forest (the
    /// interface and the forest disagree — a stale generation artifact).
    StaleNode,
    /// An event was well-addressed but its payload cannot apply: wrong
    /// payload shape for the target, an out-of-range option, a value that
    /// is not expressible, or a rebinding that resolves to an invalid
    /// query. The state is left unchanged.
    InvalidEvent {
        /// Why the event was rejected.
        reason: String,
    },
    /// A session or protocol request referenced a workload name the
    /// service has no registration for.
    UnknownWorkload(String),
    /// A protocol request referenced a wire-session id the service does
    /// not hold (never opened, or already closed).
    UnknownSession(u64),
    /// A protocol message failed to parse or violated the versioned spec.
    Protocol(String),
    /// The server refused an event because the target session's mailbox
    /// is full: the client is producing events faster than the session
    /// dispatches them. Retry after draining in-flight responses.
    Backpressure {
        /// The wire session whose mailbox was full.
        session: u64,
    },
    /// The server refused new work entirely: over the connection admission
    /// limit, or draining for shutdown.
    Overloaded(String),
    /// Other runtime failures (e.g. a generation whose forest no longer
    /// expresses its workload).
    Runtime(String),
    /// Query execution failed.
    Execution(String),
    /// A live-data append was rejected by the catalogue: unknown table,
    /// arity mismatch, or rows the target schema cannot hold. The
    /// catalogue version is unchanged.
    Append(String),
}

impl Pi2Error {
    /// Shorthand for an [`Pi2Error::InvalidEvent`].
    pub fn invalid(reason: impl Into<String>) -> Pi2Error {
        Pi2Error::InvalidEvent {
            reason: reason.into(),
        }
    }

    /// The stable wire-protocol error code of this error (see the protocol
    /// spec in README.md): front-ends switch on this, never on messages.
    pub fn code(&self) -> &'static str {
        match self {
            Pi2Error::Parse(_) => "parse",
            Pi2Error::EmptyWorkload => "empty_workload",
            Pi2Error::NoInterface => "no_interface",
            Pi2Error::UnknownInteraction { .. } => "unknown_interaction",
            Pi2Error::StaleNode => "stale_node",
            Pi2Error::InvalidEvent { .. } => "invalid_event",
            Pi2Error::UnknownWorkload(_) => "unknown_workload",
            Pi2Error::UnknownSession(_) => "unknown_session",
            Pi2Error::Protocol(_) => "protocol",
            Pi2Error::Backpressure { .. } => "backpressure",
            Pi2Error::Overloaded(_) => "overloaded",
            Pi2Error::Runtime(_) => "runtime",
            Pi2Error::Execution(_) => "execution",
            Pi2Error::Append(_) => "append",
        }
    }

    /// The HTTP status an HTTP transport reports this error under. The
    /// mapping is *total* — every variant has a pinned status (see the
    /// table-driven `codes_statuses_are_total_and_pinned` test), so
    /// transport and in-process callers classify failures identically:
    /// the wire code ([`Pi2Error::code`]) is the contract, the status is
    /// its HTTP projection.
    pub fn http_status(&self) -> u16 {
        match self {
            // The request itself was malformed.
            Pi2Error::Parse(_) | Pi2Error::EmptyWorkload | Pi2Error::Protocol(_) => 400,
            // The addressed resource does not exist.
            Pi2Error::UnknownWorkload(_) | Pi2Error::UnknownSession(_) => 404,
            // The interface and forest disagree: a stale artifact.
            Pi2Error::StaleNode => 409,
            // Well-formed but semantically unservable.
            Pi2Error::NoInterface
            | Pi2Error::UnknownInteraction { .. }
            | Pi2Error::InvalidEvent { .. }
            | Pi2Error::Append(_) => 422,
            Pi2Error::Backpressure { .. } => 429,
            Pi2Error::Runtime(_) | Pi2Error::Execution(_) => 500,
            Pi2Error::Overloaded(_) => 503,
        }
    }
}

impl fmt::Display for Pi2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pi2Error::Parse(m) => write!(f, "parse error: {m}"),
            Pi2Error::EmptyWorkload => write!(f, "no input queries"),
            Pi2Error::NoInterface => write!(f, "no valid interface mapping found"),
            Pi2Error::UnknownInteraction { interaction } => {
                write!(f, "no interaction #{interaction}")
            }
            Pi2Error::StaleNode => write!(f, "stale target node"),
            Pi2Error::InvalidEvent { reason } => write!(f, "invalid event: {reason}"),
            Pi2Error::UnknownWorkload(name) => write!(f, "unknown workload '{name}'"),
            Pi2Error::UnknownSession(id) => write!(f, "unknown session #{id}"),
            Pi2Error::Protocol(m) => write!(f, "protocol error: {m}"),
            Pi2Error::Backpressure { session } => {
                write!(
                    f,
                    "session #{session} mailbox is full; retry after draining"
                )
            }
            Pi2Error::Overloaded(m) => write!(f, "server overloaded: {m}"),
            Pi2Error::Runtime(m) => write!(f, "runtime error: {m}"),
            Pi2Error::Execution(m) => write!(f, "execution error: {m}"),
            Pi2Error::Append(m) => write!(f, "append rejected: {m}"),
        }
    }
}

impl std::error::Error for Pi2Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(Pi2Error::Parse("x".into()).to_string().contains("parse"));
        assert!(Pi2Error::EmptyWorkload.to_string().contains("queries"));
        assert!(Pi2Error::NoInterface.to_string().contains("interface"));
        assert!(Pi2Error::UnknownInteraction { interaction: 7 }
            .to_string()
            .contains("#7"));
        assert!(Pi2Error::invalid("bad payload")
            .to_string()
            .contains("bad payload"));
        assert!(Pi2Error::UnknownWorkload("covid".into())
            .to_string()
            .contains("covid"));
    }

    /// One sample of every variant with its pinned wire code and HTTP
    /// status. `code()`/`http_status()` match without a wildcard arm, so a
    /// new variant fails to compile until it is mapped — extend THIS table
    /// in the same change, never renumber an existing row: both columns
    /// are frozen protocol surface.
    fn wire_table() -> Vec<(Pi2Error, &'static str, u16)> {
        vec![
            (Pi2Error::Parse("x".into()), "parse", 400),
            (Pi2Error::EmptyWorkload, "empty_workload", 400),
            (Pi2Error::NoInterface, "no_interface", 422),
            (
                Pi2Error::UnknownInteraction { interaction: 0 },
                "unknown_interaction",
                422,
            ),
            (Pi2Error::StaleNode, "stale_node", 409),
            (Pi2Error::invalid("r"), "invalid_event", 422),
            (
                Pi2Error::UnknownWorkload("w".into()),
                "unknown_workload",
                404,
            ),
            (Pi2Error::UnknownSession(1), "unknown_session", 404),
            (Pi2Error::Protocol("p".into()), "protocol", 400),
            (Pi2Error::Backpressure { session: 3 }, "backpressure", 429),
            (Pi2Error::Overloaded("o".into()), "overloaded", 503),
            (Pi2Error::Runtime("r".into()), "runtime", 500),
            (Pi2Error::Execution("e".into()), "execution", 500),
            (Pi2Error::Append("no such table".into()), "append", 422),
        ]
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let table = wire_table();
        let codes: std::collections::HashSet<&str> =
            table.iter().map(|(e, _, _)| e.code()).collect();
        assert_eq!(codes.len(), table.len(), "codes must be distinct");
        assert_eq!(Pi2Error::StaleNode.code(), "stale_node");
    }

    #[test]
    fn codes_statuses_are_total_and_pinned() {
        for (error, code, status) in wire_table() {
            assert_eq!(error.code(), code, "{error:?}");
            assert_eq!(error.http_status(), status, "{error:?}");
        }
        // Every status the table uses must be a real, intentional class.
        for (error, _, status) in wire_table() {
            assert!(
                matches!(status, 400 | 404 | 409 | 422 | 429 | 500 | 503),
                "{error:?} maps to unexpected status {status}"
            );
        }
    }
}

//! The contract between the transport and the protocol it serves.
//!
//! The server is deliberately protocol-blind: it parses HTTP, enforces
//! ordering and backpressure, and asks a [`WireService`] for everything
//! else — how to decode a `POST /v1` body, which session (if any) a
//! request must be ordered under, how to serve it, and how to phrase the
//! transport-generated rejections so their error codes stay part of the
//! one protocol namespace. `pi2-core` implements this trait for
//! `Pi2Service`, which keeps this crate free of any dependency on the
//! protocol crates (and lets `pi2-core` re-export it as `pi2::server`).

use std::sync::Arc;

/// Delivers a server-initiated text frame to a live push-capable
/// (WebSocket) connection: `sender(conn, text)` enqueues the frame on
/// the reactor that owns `conn`. Returns `false` when the connection is
/// already gone — callers should drop whatever subscription produced
/// the push.
pub type PushSender = Arc<dyn Fn(u64, String) -> bool + Send + Sync>;

/// The transport context of a request that arrived over a push-capable
/// connection: services use it to bind subscriptions to the connection
/// so later pushes know where to go.
#[derive(Clone)]
pub struct PushLink {
    /// The server's id for the connection the request arrived on.
    pub conn: u64,
    /// How to push a text frame back to any connection on this server.
    pub sender: PushSender,
}

/// A protocol backend the server can host.
pub trait WireService: Send + Sync + 'static {
    /// A decoded `POST /v1` request body.
    type Request: Send + 'static;

    /// Decode a request body, or produce the full `(status, error body)`
    /// response for an undecodable one. The error body must be what the
    /// in-process entry point would return for the same input — transport
    /// and in-process callers must report identically. Runs on a worker
    /// thread; a reactor decodes only the small session-addressed bodies
    /// it offers to [`WireService::try_inline`].
    fn parse(&self, body: &str) -> Result<Self::Request, (u16, String)>;

    /// Cheap scan of a *raw* body for the session routing key. This runs
    /// on the reactor thread — before any full decode — so it must be a
    /// single O(len) pass with no allocation to speak of. A wrong answer
    /// only costs ordering: the request is still fully decoded and
    /// validated on a worker, it just queues under the wrong mailbox (or
    /// none).
    fn route_key(&self, body: &str) -> Option<u64>;

    /// The session a decoded request must be ordered under, if any.
    /// [`WireService::route_key`] is the routing fast path; this is the
    /// decoded-side truth (tests pin the two agree on valid bodies).
    fn session_of(&self, request: &Self::Request) -> Option<u64>;

    /// Serve one decoded request, returning `(status, response body)`.
    fn handle(&self, request: Self::Request) -> (u16, String);

    /// Serve one decoded request with its transport context. `link` is
    /// `Some` when the request arrived over a push-capable (WebSocket)
    /// connection; the default ignores it and delegates to
    /// [`WireService::handle`], so plain request/response services need
    /// not care.
    fn handle_link(&self, request: Self::Request, link: Option<&PushLink>) -> (u16, String) {
        let _ = link;
        self.handle(request)
    }

    /// The run-to-completion fast path: serve a small body routed to
    /// `session` right here on the reactor thread, or decline. The server
    /// calls it only while it holds `session`'s turn token over an empty
    /// mailbox, so nothing of the session is queued or running. Serve only
    /// what needs no computation (a reactor must never run a query) and
    /// never block (take locks with `try_lock`); the answer must be the
    /// bytes [`WireService::handle_link`] would return. Decline before
    /// decoding when a cheap check already says no; after decoding, hand
    /// the request back as [`Inline::Decoded`] so the worker does not
    /// parse it again. Default: decline everything.
    fn try_inline(&self, session: u64, body: &str) -> Inline<Self::Request> {
        let _ = (session, body);
        Inline::Declined
    }

    /// A push-capable connection closed (or was evicted): drop any
    /// subscriptions bound to it. Default: nothing to drop.
    fn connection_closed(&self, conn: u64) {
        let _ = conn;
    }

    /// The service half of the `GET /metrics` response (the server nests
    /// it beside its own counters).
    fn metrics_body(&self) -> String;

    /// The error body for a transport-generated rejection. Implementations
    /// map each [`Reject`] onto the protocol's structured error space so
    /// clients switch on one set of stable codes.
    fn reject_body(&self, reject: &Reject) -> String;
}

/// What [`WireService::try_inline`] did with a request.
#[derive(Debug)]
pub enum Inline<R> {
    /// Served on the reactor: `(status, response body)`.
    Served(u16, String),
    /// Declined without decoding: a worker parses and serves the raw body.
    Declined,
    /// Declined after decoding: a worker serves this request as is.
    Decoded(R),
}

/// Everything the transport itself can reject a request for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// The HTTP request was malformed (bad framing, bad version, bad
    /// length, unsupported transfer encoding…).
    BadRequest(String),
    /// No such endpoint.
    NotFound(String),
    /// Known endpoint, wrong method.
    MethodNotAllowed(String),
    /// Declared body length exceeds the configured limit.
    PayloadTooLarge {
        /// The configured body limit in bytes.
        limit: usize,
    },
    /// The target session's mailbox is full: the client is producing
    /// events faster than the session dispatches them.
    Backpressure {
        /// The session whose mailbox was full.
        session: u64,
    },
    /// The server refused a new connection (admission gate).
    Overloaded(String),
    /// The server is draining for shutdown and takes no new work.
    ShuttingDown,
    /// The handler itself failed (panicked); the request died server-side.
    Internal(String),
}

impl Reject {
    /// The HTTP status this rejection maps to.
    pub fn status(&self) -> u16 {
        match self {
            Reject::BadRequest(_) => 400,
            Reject::NotFound(_) => 404,
            Reject::MethodNotAllowed(_) => 405,
            Reject::PayloadTooLarge { .. } => 413,
            Reject::Backpressure { .. } => 429,
            Reject::Overloaded(_) => 503,
            Reject::ShuttingDown => 503,
            Reject::Internal(_) => 500,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_match_the_http_semantics() {
        assert_eq!(Reject::BadRequest("x".into()).status(), 400);
        assert_eq!(Reject::NotFound("/x".into()).status(), 404);
        assert_eq!(Reject::MethodNotAllowed("PUT".into()).status(), 405);
        assert_eq!(Reject::PayloadTooLarge { limit: 1 }.status(), 413);
        assert_eq!(Reject::Backpressure { session: 1 }.status(), 429);
        assert_eq!(Reject::Overloaded("full".into()).status(), 503);
        assert_eq!(Reject::ShuttingDown.status(), 503);
        assert_eq!(Reject::Internal("boom".into()).status(), 500);
    }
}

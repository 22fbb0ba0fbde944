//! The staged concurrent runtime: acceptor → reactors → mailboxes →
//! workers.
//!
//! One **acceptor** thread owns the listening socket. It applies the
//! admission gate (over `max_connections`, a connection is answered `503`
//! and closed immediately — load sheds at the edge, before any parsing)
//! and hands accepted connections, set non-blocking, to a fixed pool of
//! **reactor** threads round-robin.
//!
//! Each reactor owns its connections outright and drives them off its
//! own epoll [`Selector`]: idle connections cost zero CPU — the reactor
//! only touches connections the kernel reports ready, and the
//! `connScans` counter in `/metrics` proves it. It reads available
//! bytes, parses complete HTTP requests (pipelining included), routes
//! them, and writes finished responses back *in request order* per
//! connection (a reorder buffer keyed by request sequence number absorbs
//! out-of-order completion). A `POST /v1` body is routed by
//! [`WireService::route_key`] — a cheap session-key scan — and normally
//! decoded and served on a worker.
//!
//! **Run-to-completion fast path.** A reactor serves a request itself,
//! writing the response straight into the connection's reorder buffer,
//! when all of these hold: the body is session-addressed and at most
//! `INLINE_MAX_BODY` bytes (so a near-limit body is never decoded on a
//! reactor); the session's turn token is free — nothing of the session is
//! queued or running — and the reactor claims it; and
//! [`WireService::try_inline`] serves it, which a service does only when
//! answering needs no computation and no blocking lock. Everything else
//! goes through the mailbox to a worker, the declined request first (the
//! reactor passes the token it holds), already decoded if the service
//! decoded it. Per-session order, the `429` bound, `pending_cap`, the
//! shutdown drain and unwind isolation (an inline panic answers `500` and
//! releases the token) hold on both paths; `/metrics` counts the inline
//! answers as `inlineResponses`.
//!
//! `GET /ws` upgrades a connection to a **WebSocket** (RFC 6455; see
//! [`crate::ws`]). Complete text frames carry exactly the `POST /v1`
//! JSON messages and route identically (same mailboxes, same per-session
//! ordering, same reorder buffer); responses return as text frames. A
//! WS connection can also receive **server-initiated pushes**: workers
//! call back through a [`PushSender`] that enqueues a frame on the
//! owning reactor's inbox. Push output shares the connection's outbound
//! buffer; a subscriber that stops draining past
//! [`ServerConfig::push_buffer_bytes`] is *evicted* (close frame
//! attempted, connection dropped, `connection_closed` notified) rather
//! than buffering without bound.
//!
//! Routing is where the ordering contract lives: a request addressed to a
//! session goes through that session's bounded mailbox (see
//! [`crate::mailbox`]) and at most one thread — a **worker**, or a reactor
//! on the fast path — drives a session at a time, so one session's events
//! serialize while different sessions
//! dispatch fully in parallel. Sessionless requests go straight to the
//! worker pool. Nothing queues without bound: a full mailbox answers
//! `429` with the protocol's stable `backpressure` code, the global job
//! queue is capped by [`ServerConfig::pending_cap`] (`503` beyond it),
//! and a connection whose unwritten responses exceed a 256 KiB soft cap
//! stops being read until the client drains.
//!
//! [`Server::shutdown`] drains: the acceptor stops, freshly-parsed
//! requests answer `503` ([`Reject::ShuttingDown`] — `Pi2Service` phrases
//! it with wire code `overloaded`), already-accepted work runs to
//! completion, responses flush, and only then do connections close and
//! threads join (bounded: stragglers are abandoned after the drain
//! deadlines rather than hanging the caller).

use crate::http::{encode_response, encode_upgrade_response, parse_request, HttpRequest, Parsed};
use crate::mailbox::{Enqueued, Mailboxes, RunQueue, Runnable};
use crate::poll::{Interest, Selector, Waker};
use crate::wire::{Inline, PushLink, PushSender, Reject, WireService};
use crate::ws;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Reactor (connection I/O) threads.
    pub reactors: usize,
    /// Worker (protocol dispatch) threads. They serve every request the
    /// reactors do not answer inline: sessionless requests, bodies over the
    /// inline size limit, sessions with queued or running work, and
    /// whatever [`WireService::try_inline`] declines (for `Pi2Service`:
    /// anything that computes, any non-event, and push fan-out).
    pub workers: usize,
    /// Admission gate: connections beyond this are answered `503` and
    /// closed at accept time.
    pub max_connections: usize,
    /// Per-session mailbox capacity; a full mailbox answers `429`.
    pub mailbox_cap: usize,
    /// Global cap on jobs queued or executing across the whole server
    /// (sessionless requests included — the run queue is bounded too);
    /// beyond it new requests answer `503`.
    pub pending_cap: usize,
    /// Largest accepted request body (HTTP) or message (WS frame /
    /// assembled fragments); larger declared lengths answer `413` (HTTP)
    /// or fail the connection (WS).
    pub max_body_bytes: usize,
    /// How long [`Server::shutdown`] waits for queued work to drain before
    /// giving up on stragglers.
    pub drain_timeout: Duration,
    /// Outbound-buffer bound for server-initiated pushes: a WebSocket
    /// subscriber whose unwritten output exceeds this when another push
    /// arrives is evicted (slow-consumer policy) instead of buffering
    /// without bound.
    pub push_buffer_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            reactors: 2,
            workers: 4,
            max_connections: 1024,
            mailbox_cap: 64,
            pending_cap: 1024,
            max_body_bytes: 1 << 20,
            drain_timeout: Duration::from_secs(5),
            push_buffer_bytes: 256 * 1024,
        }
    }
}

/// Point-in-time server counters (`GET /metrics` embeds them; tests poll
/// them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted past the admission gate.
    pub accepted_connections: u64,
    /// Connections answered `503` at accept time.
    pub rejected_connections: u64,
    /// Connections currently open.
    pub active_connections: usize,
    /// Well-formed HTTP requests routed (all endpoints, including ones
    /// rejected by policy — backpressure, overload, 404/405) plus
    /// complete WebSocket text messages. Requests whose framing is
    /// itself invalid are not counted.
    pub requests: u64,
    /// Requests a reactor answered itself on the run-to-completion fast
    /// path ([`WireService::try_inline`]), panics answered `500` included.
    pub inline_responses: u64,
    /// Requests answered `429` because a session mailbox was full.
    pub backpressure_rejections: u64,
    /// Responses serialized onto connections (WS: response frames).
    pub responses: u64,
    /// Jobs currently queued (mailboxes + run queue) or executing.
    pub pending_jobs: usize,
    /// Whether the server is draining for shutdown.
    pub shutting_down: bool,
    /// Connections currently speaking WebSocket.
    pub ws_connections: usize,
    /// Server-initiated push frames serialized onto connections.
    pub pushes: u64,
    /// WebSocket connections evicted as slow push consumers.
    pub push_evictions: u64,
    /// Connection processing passes across all reactors. An idle server
    /// holds it flat — the acceptance check for "idle connections cost
    /// zero CPU".
    pub conn_scans: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A finished response travelling from a worker (or the router) back to
/// the owning reactor.
struct Done {
    conn: u64,
    seq: u64,
    status: u16,
    body: String,
    /// Close the connection after this response is flushed.
    close_after: bool,
}

/// Largest body a reactor offers to [`WireService::try_inline`]. Events
/// are ~100 bytes; anything near `max_body_bytes` is decoded on a worker,
/// so it cannot head-of-line block its reactor.
const INLINE_MAX_BODY: usize = 1024;

/// What a worker executes.
enum JobKind<R> {
    /// A raw request body, decoded on the worker.
    Request(String),
    /// A body the reactor decoded before declining to serve it inline.
    Decoded(R),
    /// `GET /metrics`: compose service metrics with server counters.
    Metrics,
}

struct Job<R> {
    conn: u64,
    seq: u64,
    reactor: usize,
    keep_alive: bool,
    /// The request arrived over a WebSocket: hand the service a
    /// [`PushLink`] so it can bind subscriptions to the connection.
    ws: bool,
    kind: JobKind<R>,
}

/// Per-reactor mail: new connections from the acceptor, finished
/// responses from workers, push frames from the fan-out.
struct ReactorInbox {
    new_conns: Vec<(u64, TcpStream)>,
    done: Vec<Done>,
    /// Server-initiated `(conn, text)` frames for WS connections.
    pushes: Vec<(u64, String)>,
}

struct ReactorShared {
    inbox: Mutex<ReactorInbox>,
    waker: Waker,
}

struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    active: AtomicUsize,
    requests: AtomicU64,
    inline_responses: AtomicU64,
    backpressure: AtomicU64,
    responses: AtomicU64,
    pending_jobs: AtomicUsize,
    ws_active: AtomicUsize,
    pushes: AtomicU64,
    push_evictions: AtomicU64,
    conn_scans: AtomicU64,
}

struct Inner<S: WireService> {
    service: Arc<S>,
    config: ServerConfig,
    mailboxes: Mailboxes<Job<S::Request>>,
    run_queue: RunQueue<Job<S::Request>>,
    reactors: Vec<ReactorShared>,
    counters: Counters,
    /// Connections currently speaking WebSocket (push targets):
    /// [`Inner::push_text`] refuses sends to anything else so stale
    /// subscriptions unwind eagerly.
    ws_live: Mutex<HashSet<u64>>,
    /// The closure workers hand to the service inside a [`PushLink`];
    /// set once at startup (holds only a `Weak` back-reference).
    push_sender: OnceLock<PushSender>,
    shutting_down: AtomicBool,
    /// Set when a shutdown drain timed out: reactors drop connections
    /// without waiting for straggler responses or stalled flushes.
    abandon: AtomicBool,
    /// Serving threads still running (incremented before spawn,
    /// decremented by a drop guard in each thread): shutdown joins only
    /// when this reaches zero in time, and detaches otherwise.
    live_threads: AtomicUsize,
}

/// Decrements the live-thread count when a serving thread exits (even by
/// panic).
struct LiveGuard<'a>(&'a AtomicUsize);

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<S: WireService> Inner<S> {
    fn stats(&self) -> ServerStats {
        ServerStats {
            accepted_connections: self.counters.accepted.load(Ordering::Relaxed),
            rejected_connections: self.counters.rejected.load(Ordering::Relaxed),
            active_connections: self.counters.active.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            inline_responses: self.counters.inline_responses.load(Ordering::Relaxed),
            backpressure_rejections: self.counters.backpressure.load(Ordering::Relaxed),
            responses: self.counters.responses.load(Ordering::Relaxed),
            pending_jobs: self.counters.pending_jobs.load(Ordering::Relaxed),
            shutting_down: self.shutting_down.load(Ordering::SeqCst),
            ws_connections: self.counters.ws_active.load(Ordering::Relaxed),
            pushes: self.counters.pushes.load(Ordering::Relaxed),
            push_evictions: self.counters.push_evictions.load(Ordering::Relaxed),
            conn_scans: self.counters.conn_scans.load(Ordering::Relaxed),
        }
    }

    fn reject(&self, reject: Reject) -> (u16, String) {
        (reject.status(), self.service.reject_body(&reject))
    }

    /// Route one parsed HTTP request. `Some(done)` is an immediate
    /// response the reactor queues itself; `None` means a job was handed
    /// to the worker pool and its `Done` arrives via the reactor inbox.
    fn route(&self, reactor: usize, conn: u64, seq: u64, req: HttpRequest) -> Option<Done> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = req.keep_alive;
        // Claim a pending-job slot *before* checking the shutdown flag:
        // the drain loop starts strictly after the flag store, so any
        // request that saw the flag clear is already visible to the drain.
        // Every immediate-response branch releases the claim; job branches
        // keep it until the worker delivers the `Done`.
        self.counters.pending_jobs.fetch_add(1, Ordering::SeqCst);
        let immediate = |status: u16, body: String| {
            self.counters.pending_jobs.fetch_sub(1, Ordering::SeqCst);
            Some(Done {
                conn,
                seq,
                status,
                body,
                close_after: !keep_alive,
            })
        };
        if self.shutting_down.load(Ordering::SeqCst) {
            let (status, body) = self.reject(Reject::ShuttingDown);
            return immediate(status, body);
        }
        // Global admission: the run queue must stay bounded too —
        // sessionless requests (open/describe/metrics) have no mailbox
        // cap, so a pipelining client must not be able to queue without
        // bound.
        if self.counters.pending_jobs.load(Ordering::SeqCst) > self.config.pending_cap {
            let (status, body) = self.reject(Reject::Overloaded(format!(
                "server job queue is full ({} pending)",
                self.config.pending_cap
            )));
            return immediate(status, body);
        }
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => immediate(200, "{\"status\":\"ok\"}".to_string()),
            ("GET", "/metrics") => {
                self.run_queue.push(Runnable::Job(Job {
                    conn,
                    seq,
                    reactor,
                    keep_alive,
                    ws: false,
                    kind: JobKind::Metrics,
                }));
                None
            }
            ("POST", "/v1") => self.enqueue_body(reactor, conn, seq, keep_alive, false, req.body),
            (_, "/v1") | (_, "/metrics") | (_, "/healthz") | (_, "/ws") => {
                let (status, body) = self.reject(Reject::MethodNotAllowed(req.method));
                immediate(status, body)
            }
            (_, path) => {
                let (status, body) = self.reject(Reject::NotFound(path.to_string()));
                immediate(status, body)
            }
        }
    }

    /// Route one complete WebSocket text message (same admission and
    /// mailbox path as `POST /v1`; responses never close the socket —
    /// errors are just messages on a live stream).
    fn route_ws(&self, reactor: usize, conn: u64, seq: u64, body: String) -> Option<Done> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.pending_jobs.fetch_add(1, Ordering::SeqCst);
        let immediate = |status: u16, body: String| {
            self.counters.pending_jobs.fetch_sub(1, Ordering::SeqCst);
            Some(Done {
                conn,
                seq,
                status,
                body,
                close_after: false,
            })
        };
        if self.shutting_down.load(Ordering::SeqCst) {
            let (status, body) = self.reject(Reject::ShuttingDown);
            return immediate(status, body);
        }
        if self.counters.pending_jobs.load(Ordering::SeqCst) > self.config.pending_cap {
            let (status, body) = self.reject(Reject::Overloaded(format!(
                "server job queue is full ({} pending)",
                self.config.pending_cap
            )));
            return immediate(status, body);
        }
        self.enqueue_body(reactor, conn, seq, true, true, body)
    }

    /// Route a raw protocol body: serve it on this reactor when the fast
    /// path applies (see the module docs), otherwise hand it to the worker
    /// pool, ordered under the session its routing key names. The caller
    /// holds a pending-job claim; immediate branches, inline answers
    /// included, release it.
    fn enqueue_body(
        &self,
        reactor: usize,
        conn: u64,
        seq: u64,
        keep_alive: bool,
        ws: bool,
        body: String,
    ) -> Option<Done> {
        let job = |kind: JobKind<S::Request>| Job {
            conn,
            seq,
            reactor,
            keep_alive,
            ws,
            kind,
        };
        let immediate = |status: u16, body: String| {
            self.counters.pending_jobs.fetch_sub(1, Ordering::SeqCst);
            Some(Done {
                conn,
                seq,
                status,
                body,
                close_after: !keep_alive,
            })
        };
        let Some(session) = self.service.route_key(&body) else {
            self.run_queue
                .push(Runnable::Job(job(JobKind::Request(body))));
            return None;
        };
        if body.len() <= INLINE_MAX_BODY && self.mailboxes.try_claim(session) {
            // This reactor holds the session's turn token: nothing of the
            // session is queued or running.
            let kind = match self.try_inline(session, &body) {
                Inline::Served(status, response) => {
                    self.counters
                        .inline_responses
                        .fetch_add(1, Ordering::Relaxed);
                    self.finish_turn(session);
                    return immediate(status, response);
                }
                Inline::Declined => JobKind::Request(body),
                Inline::Decoded(request) => JobKind::Decoded(request),
            };
            // Pass the token on: the declined request runs first.
            self.mailboxes.enqueue_claimed(session, job(kind));
            self.run_queue.push(Runnable::Turn(session));
            return None;
        }
        match self.mailboxes.enqueue(session, job(JobKind::Request(body))) {
            Enqueued::MustSchedule => {
                self.run_queue.push(Runnable::Turn(session));
                None
            }
            Enqueued::Queued => None,
            Enqueued::Full => {
                self.counters.backpressure.fetch_add(1, Ordering::Relaxed);
                let (status, body) = self.reject(Reject::Backpressure { session });
                immediate(status, body)
            }
        }
    }

    /// [`WireService::try_inline`] under the workers' unwind isolation: a
    /// panicking handler answers `500` instead of taking the reactor, the
    /// session's token and the pending-job claim down with it.
    fn try_inline(&self, session: u64, body: &str) -> Inline<S::Request> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.service.try_inline(session, body)
        }))
        .unwrap_or_else(|_| {
            let (status, body) = self.panicked();
            Inline::Served(status, body)
        })
    }

    /// The response to a request whose handler panicked.
    fn panicked(&self) -> (u16, String) {
        self.reject(Reject::Internal("request handler panicked".into()))
    }

    /// End a turn on `session`, rescheduling its token when work queued
    /// behind it.
    fn finish_turn(&self, session: u64) {
        if self.mailboxes.finish_turn(session) {
            self.run_queue.push(Runnable::Turn(session));
        }
    }

    /// Deliver a finished response to the reactor that owns the
    /// connection.
    fn complete(&self, reactor: usize, done: Done) {
        let shared = &self.reactors[reactor];
        lock(&shared.inbox).done.push(done);
        shared.waker.wake();
    }

    /// Enqueue a server-initiated text frame on the reactor owning
    /// `conn`. `false` when the connection is not a live WebSocket.
    fn push_text(&self, conn: u64, text: String) -> bool {
        if !lock(&self.ws_live).contains(&conn) {
            return false;
        }
        let shared = &self.reactors[(conn as usize) % self.reactors.len()];
        lock(&shared.inbox).pushes.push((conn, text));
        shared.waker.wake();
        true
    }

    fn metrics_json(&self) -> String {
        let s = self.stats();
        format!(
            "{{\"v\":1,\"type\":\"server_metrics\",\"server\":{{\
             \"acceptedConnections\":{},\"rejectedConnections\":{},\
             \"activeConnections\":{},\"requests\":{},\"inlineResponses\":{},\
             \"backpressureRejections\":{},\"responses\":{},\
             \"pendingJobs\":{},\"shuttingDown\":{},\
             \"wsConnections\":{},\"pushes\":{},\"pushEvictions\":{},\
             \"connScans\":{},\"selector\":\"epoll\"}},\"service\":{}}}",
            s.accepted_connections,
            s.rejected_connections,
            s.active_connections,
            s.requests,
            s.inline_responses,
            s.backpressure_rejections,
            s.responses,
            s.pending_jobs,
            s.shutting_down,
            s.ws_connections,
            s.pushes,
            s.push_evictions,
            s.conn_scans,
            self.service.metrics_body(),
        )
    }

    fn execute(&self, job: Job<S::Request>) {
        let Job {
            conn,
            seq,
            reactor,
            keep_alive,
            ws,
            kind,
        } = job;
        // A request that arrived over a WebSocket carries its transport
        // context so the service can bind subscriptions to the
        // connection and push back through it later.
        let link = if ws {
            self.push_sender.get().map(|sender| PushLink {
                conn,
                sender: Arc::clone(sender),
            })
        } else {
            None
        };
        // Unwind isolation: a panicking handler must not take the worker
        // with it — that would strand the session's turn token (wedging
        // the session behind 429s forever), leak the pending-jobs claim
        // (stalling every future drain), and shrink the pool. The request
        // dies with a 500 instead; the worker, token, and claim survive.
        let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match kind {
            JobKind::Request(body) => match self.service.parse(&body) {
                Ok(request) => self.service.handle_link(request, link.as_ref()),
                Err(rejected) => rejected,
            },
            JobKind::Decoded(request) => self.service.handle_link(request, link.as_ref()),
            JobKind::Metrics => (200, self.metrics_json()),
        }));
        let (status, body) = handled.unwrap_or_else(|_| self.panicked());
        let done = Done {
            conn,
            seq,
            status,
            body,
            close_after: !keep_alive,
        };
        self.complete(reactor, done);
        // Decrement only after the Done is visible to the reactor: when
        // pending_jobs reads 0 during a drain, every response is already
        // in an inbox.
        self.counters.pending_jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Connection state (reactor-owned)
// ---------------------------------------------------------------------------

/// When a connection's unwritten output exceeds this, the reactor stops
/// reading (and therefore parsing) from it until the client drains — a
/// pipelining client that never reads responses cannot grow server
/// memory without bound.
const OUTBUF_SOFT_CAP: usize = 256 * 1024;

/// Which protocol the connection currently speaks.
enum ConnMode {
    Http,
    Ws(WsState),
}

/// Fragmented-message assembly for an upgraded connection.
#[derive(Default)]
struct WsState {
    /// Accumulated payload of an in-progress fragmented message.
    fragments: Vec<u8>,
    /// Set while a fragmented message is in progress.
    fragmenting: bool,
}

struct Conn {
    stream: TcpStream,
    /// Unparsed inbound bytes.
    inbuf: Vec<u8>,
    /// Serialized outbound bytes not yet written.
    outbuf: Vec<u8>,
    /// Next request sequence number to assign.
    next_seq: u64,
    /// Next response sequence number to serialize (pipelined responses go
    /// out in request order).
    next_write: u64,
    /// Finished responses waiting for their turn.
    ready: BTreeMap<u64, Done>,
    /// Requests routed whose response has not been serialized yet.
    inflight: usize,
    /// Peer closed its write half (or read errored).
    read_closed: bool,
    /// Request framing is broken; stop parsing, close after the error
    /// response flushes.
    parse_dead: bool,
    /// A serialized response demanded close (error, `Connection: close`,
    /// WS close handshake).
    close_when_flushed: bool,
    /// Drop the connection now, without waiting for the outbuf to drain
    /// (slow-consumer eviction).
    kill: bool,
    /// HTTP vs upgraded WebSocket.
    mode: ConnMode,
    /// The upgrade request's sequence number: that `Done` serializes as
    /// the `101` head, later ones as text frames, earlier ones as plain
    /// HTTP responses (pipelined pre-upgrade requests still flush
    /// correctly).
    ws_from_seq: Option<u64>,
    /// Last interest handed to the selector.
    interest: Interest,
    /// Whether the stream is currently registered with the selector.
    registered: bool,
}

enum ReadOutcome {
    Progress,
    Idle,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            next_seq: 0,
            next_write: 0,
            ready: BTreeMap::new(),
            inflight: 0,
            read_closed: false,
            parse_dead: false,
            close_when_flushed: false,
            kill: false,
            mode: ConnMode::Http,
            ws_from_seq: None,
            interest: Interest::default(),
            registered: false,
        }
    }

    /// Parsing buffered bytes is allowed (reading too, unless the peer
    /// already EOF'd).
    fn can_read(&self) -> bool {
        !self.parse_dead
            && !self.close_when_flushed
            && !self.kill
            && self.outbuf.len() <= OUTBUF_SOFT_CAP
    }

    /// Fail a WebSocket connection: queue a close frame, stop parsing,
    /// drop pending work, and close once the frame flushes.
    fn fail_ws(&mut self, code: u16, reason: &str) {
        self.outbuf
            .extend_from_slice(&ws::close_frame(code, reason));
        self.parse_dead = true;
        self.close_when_flushed = true;
        self.ready.clear();
        self.inflight = 0;
    }

    /// Pull whatever the socket has without blocking.
    fn read_available(&mut self) -> ReadOutcome {
        let mut chunk = [0u8; 4096];
        let mut progress = ReadOutcome::Idle;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return ReadOutcome::Progress;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    progress = ReadOutcome::Progress;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return progress,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.read_closed = true;
                    return ReadOutcome::Progress;
                }
            }
        }
    }

    /// Serialize in-order ready responses and push bytes to the socket.
    fn flush(&mut self, responses: &AtomicU64) -> bool {
        let mut progress = false;
        while let Some(done) = self.ready.remove(&self.next_write) {
            self.next_write += 1;
            self.inflight = self.inflight.saturating_sub(1);
            let close = done.close_after;
            match self.ws_from_seq {
                Some(from) if done.seq == from => {
                    // The upgrade acceptance: `body` is the accept digest.
                    self.outbuf
                        .extend_from_slice(&encode_upgrade_response(&done.body));
                }
                Some(from) if done.seq > from => {
                    self.outbuf.extend_from_slice(&ws::text_frame(&done.body));
                    if close {
                        self.outbuf
                            .extend_from_slice(&ws::close_frame(1001, "going away"));
                    }
                }
                _ => {
                    self.outbuf.extend_from_slice(&encode_response(
                        done.status,
                        &done.body,
                        !close,
                    ));
                }
            }
            responses.fetch_add(1, Ordering::Relaxed);
            progress = true;
            if close {
                self.close_when_flushed = true;
                self.ready.clear();
                self.inflight = 0;
                break;
            }
        }
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => {
                    self.read_closed = true; // peer gone
                    self.outbuf.clear();
                    break;
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.read_closed = true;
                    self.outbuf.clear();
                    break;
                }
            }
        }
        progress
    }

    fn should_close(&self, shutting_down: bool) -> bool {
        if self.kill {
            return true;
        }
        if !self.outbuf.is_empty() {
            return false;
        }
        if self.close_when_flushed {
            return true;
        }
        let quiescent = self.inflight == 0 && self.ready.is_empty();
        quiescent && (self.read_closed || shutting_down)
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

fn acceptor_loop<S: WireService>(inner: &Inner<S>, listener: TcpListener) {
    let reactors = inner.reactors.len();
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if inner.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        if inner.counters.active.load(Ordering::SeqCst) >= inner.config.max_connections {
            // Shed load at the edge: answer 503 on the still-blocking
            // socket and close. The write is tiny; a peer that never reads
            // cannot stall the acceptor meaningfully thanks to the socket
            // buffer.
            inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
            let (status, body) = inner.reject(Reject::Overloaded(format!(
                "connection limit of {} reached",
                inner.config.max_connections
            )));
            let _ = stream.write_all(&encode_response(status, &body, false));
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
        inner.counters.active.fetch_add(1, Ordering::SeqCst);
        let id = next_conn;
        next_conn += 1;
        let shared = &inner.reactors[(id as usize) % reactors];
        lock(&shared.inbox).new_conns.push((id, stream));
        shared.waker.wake();
    }
}

/// Serve a `GET /ws` request: validate the handshake and switch the
/// connection to WebSocket mode. The `101` (or the refusal) rides the
/// reorder buffer like any response, so pipelined earlier requests still
/// flush first — but the *parser* switches immediately, since the bytes
/// after the upgrade head are already frames.
fn upgrade_request<S: WireService>(inner: &Inner<S>, id: u64, conn: &mut Conn, req: HttpRequest) {
    inner.counters.requests.fetch_add(1, Ordering::Relaxed);
    let seq = conn.next_seq;
    conn.next_seq += 1;
    conn.inflight += 1;
    let mut refuse = |reject: Reject| {
        let (status, body) = inner.reject(reject);
        conn.ready.insert(
            seq,
            Done {
                conn: id,
                seq,
                status,
                body,
                close_after: !req.keep_alive,
            },
        );
    };
    if inner.shutting_down.load(Ordering::SeqCst) {
        return refuse(Reject::ShuttingDown);
    }
    let Some(upgrade) = req.upgrade.as_ref() else {
        return refuse(Reject::BadRequest(
            "the /ws endpoint requires a WebSocket upgrade handshake".into(),
        ));
    };
    if upgrade.version.trim() != "13" {
        return refuse(Reject::BadRequest(format!(
            "unsupported WebSocket version {:?} (this server speaks 13)",
            upgrade.version
        )));
    }
    conn.ready.insert(
        seq,
        Done {
            conn: id,
            seq,
            status: 101,
            body: ws::accept_key(&upgrade.key),
            close_after: false,
        },
    );
    conn.mode = ConnMode::Ws(WsState::default());
    conn.ws_from_seq = Some(seq);
    inner.counters.ws_active.fetch_add(1, Ordering::SeqCst);
    lock(&inner.ws_live).insert(id);
}

/// Parse buffered bytes as HTTP requests until the buffer runs dry, the
/// framing dies, or an upgrade switches the mode.
fn parse_http<S: WireService>(inner: &Inner<S>, idx: usize, id: u64, conn: &mut Conn) {
    while matches!(conn.mode, ConnMode::Http) && !conn.parse_dead && !conn.close_when_flushed {
        match parse_request(&conn.inbuf, inner.config.max_body_bytes) {
            Parsed::Complete(req, consumed) => {
                conn.inbuf.drain(..consumed);
                if req.method == "GET" && req.path == "/ws" {
                    upgrade_request(inner, id, conn, *req);
                    continue;
                }
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.inflight += 1;
                if let Some(done) = inner.route(idx, id, seq, *req) {
                    conn.ready.insert(done.seq, done);
                }
            }
            Parsed::Partial => break,
            Parsed::Invalid { status, reason } => {
                // Framing is lost: answer once, then close.
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.inflight += 1;
                conn.parse_dead = true;
                let reject = if status == 413 {
                    Reject::PayloadTooLarge {
                        limit: inner.config.max_body_bytes,
                    }
                } else {
                    Reject::BadRequest(reason)
                };
                let body = inner.service.reject_body(&reject);
                conn.ready.insert(
                    seq,
                    Done {
                        conn: id,
                        seq,
                        status,
                        body,
                        close_after: true,
                    },
                );
                break;
            }
        }
    }
}

/// Advance fragmented-message assembly with one data frame. `Ok(Some)`
/// is a complete message payload, `Ok(None)` waits for more fragments,
/// `Err` is a protocol violation (close code + reason).
fn ws_assemble(
    state: &mut WsState,
    frame: ws::Frame,
    max_message: usize,
) -> Result<Option<Vec<u8>>, (u16, String)> {
    match (frame.opcode, state.fragmenting) {
        (ws::Opcode::Text, true) => {
            return Err((1002, "new data frame inside a fragmented message".into()))
        }
        (ws::Opcode::Continuation, false) => {
            return Err((
                1002,
                "continuation frame without a fragmented message".into(),
            ))
        }
        _ => {}
    }
    if frame.opcode == ws::Opcode::Text && frame.fin && state.fragments.is_empty() {
        return Ok(Some(frame.payload)); // unfragmented fast path
    }
    if state.fragments.len() + frame.payload.len() > max_message {
        return Err((
            1009,
            format!("fragmented message exceeds the {max_message}-byte limit"),
        ));
    }
    state.fragments.extend_from_slice(&frame.payload);
    if !frame.fin {
        state.fragmenting = true;
        return Ok(None);
    }
    state.fragmenting = false;
    Ok(Some(std::mem::take(&mut state.fragments)))
}

/// Parse buffered bytes as WebSocket frames, routing complete text
/// messages exactly like `POST /v1` bodies.
fn parse_ws<S: WireService>(inner: &Inner<S>, idx: usize, id: u64, conn: &mut Conn) {
    loop {
        if conn.parse_dead || conn.close_when_flushed || !matches!(conn.mode, ConnMode::Ws(_)) {
            break;
        }
        match ws::parse_frame(&conn.inbuf, inner.config.max_body_bytes, true) {
            ws::ParsedFrame::Partial => break,
            ws::ParsedFrame::Invalid(reason) => {
                conn.fail_ws(1002, &reason);
                break;
            }
            ws::ParsedFrame::Complete(frame, consumed) => {
                conn.inbuf.drain(..consumed);
                match frame.opcode {
                    ws::Opcode::Ping => {
                        conn.outbuf
                            .extend_from_slice(&ws::pong_frame(&frame.payload));
                    }
                    ws::Opcode::Pong => {}
                    ws::Opcode::Close => {
                        // Echo the close handshake, then drop the
                        // connection once it flushes.
                        let code = if frame.payload.len() >= 2 {
                            u16::from_be_bytes([frame.payload[0], frame.payload[1]])
                        } else {
                            1000
                        };
                        conn.fail_ws(code, "");
                    }
                    ws::Opcode::Binary => {
                        conn.fail_ws(1003, "binary frames are not supported (JSON text only)");
                    }
                    ws::Opcode::Text | ws::Opcode::Continuation => {
                        let assembled = match &mut conn.mode {
                            ConnMode::Ws(state) => {
                                ws_assemble(state, frame, inner.config.max_body_bytes)
                            }
                            ConnMode::Http => unreachable!("checked above"),
                        };
                        match assembled {
                            Err((code, reason)) => conn.fail_ws(code, &reason),
                            Ok(None) => {}
                            Ok(Some(bytes)) => match String::from_utf8(bytes) {
                                Err(_) => conn.fail_ws(1007, "text message is not valid UTF-8"),
                                Ok(text) => {
                                    let seq = conn.next_seq;
                                    conn.next_seq += 1;
                                    conn.inflight += 1;
                                    if let Some(done) = inner.route_ws(idx, id, seq, text) {
                                        conn.ready.insert(done.seq, done);
                                    }
                                }
                            },
                        }
                    }
                }
            }
        }
    }
}

/// One full processing pass over a connection: read, parse (in whichever
/// mode the connection is in, following an upgrade mid-pass), flush —
/// and go around again if flushing released the read throttle with
/// bytes still buffered.
fn process_conn<S: WireService>(inner: &Inner<S>, idx: usize, id: u64, conn: &mut Conn) {
    loop {
        let was_readable = conn.can_read();
        if was_readable {
            if !conn.read_closed {
                // Keep parsing buffered bytes even after EOF: a client may
                // half-close after pipelining its requests and still read
                // the responses.
                conn.read_available();
            }
            loop {
                let was_http = matches!(conn.mode, ConnMode::Http);
                if was_http {
                    parse_http(inner, idx, id, conn);
                } else {
                    parse_ws(inner, idx, id, conn);
                }
                // An upgrade switched modes mid-buffer: the remaining
                // bytes are frames — parse them now, in the new mode.
                if was_http == matches!(conn.mode, ConnMode::Http) {
                    break;
                }
            }
        }
        conn.flush(&inner.counters.responses);
        if conn.can_read() && !was_readable && !conn.inbuf.is_empty() {
            continue; // flush released the read throttle; drain the rest
        }
        break;
    }
}

/// Recompute what the selector should watch for this connection and
/// apply the change (deregistering entirely when nothing is wanted, so a
/// hung peer cannot spin the reactor through always-on HUP readiness).
fn update_interest(selector: &mut Selector, id: u64, conn: &mut Conn) {
    let desired = Interest {
        read: !conn.read_closed && conn.can_read(),
        write: !conn.outbuf.is_empty(),
    };
    if desired.is_empty() {
        if conn.registered {
            let _ = selector.deregister(&conn.stream);
            conn.registered = false;
        }
    } else if !conn.registered {
        conn.registered = selector.register(&conn.stream, id, desired).is_ok();
    } else if desired != conn.interest {
        let _ = selector.reregister(&conn.stream, id, desired);
    }
    conn.interest = desired;
}

fn reactor_loop<S: WireService>(inner: &Inner<S>, idx: usize, mut selector: Selector) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut closed: Vec<u64> = Vec::new();
    let mut ready: Vec<u64> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    loop {
        ready.clear();
        // Waits are event-driven; the bound is only a safety net (and the
        // shutdown waker interrupts it anyway).
        selector.wait(&mut ready, Duration::from_millis(100));
        let (new_conns, dones, pushes) = {
            let mut inbox = lock(&inner.reactors[idx].inbox);
            (
                std::mem::take(&mut inbox.new_conns),
                std::mem::take(&mut inbox.done),
                std::mem::take(&mut inbox.pushes),
            )
        };
        let shutting = inner.shutting_down.load(Ordering::SeqCst);
        let abandon = inner.abandon.load(Ordering::SeqCst);
        touched.clear();
        if shutting || abandon {
            touched.extend(conns.keys().copied());
        } else {
            touched.extend(ready.iter().copied());
        }
        for (id, stream) in new_conns {
            let mut conn = Conn::new(stream);
            conn.interest = Interest {
                read: true,
                write: false,
            };
            conn.registered = selector.register(&conn.stream, id, conn.interest).is_ok();
            conns.insert(id, conn);
            touched.push(id);
        }
        for done in dones {
            if let Some(conn) = conns.get_mut(&done.conn) {
                if !conn.close_when_flushed {
                    touched.push(done.conn);
                    conn.ready.insert(done.seq, done);
                }
            }
        }
        for (conn_id, text) in pushes {
            let Some(conn) = conns.get_mut(&conn_id) else {
                continue;
            };
            if conn.close_when_flushed || conn.parse_dead || conn.kill {
                continue;
            }
            touched.push(conn_id);
            if conn.outbuf.len() > inner.config.push_buffer_bytes {
                // Slow-consumer eviction: the socket is not draining and
                // pushes keep coming. Best-effort close frame straight to
                // the socket, then drop — never buffer without bound.
                inner
                    .counters
                    .push_evictions
                    .fetch_add(1, Ordering::Relaxed);
                let _ = conn.stream.write(&ws::close_frame(
                    1008,
                    "slow consumer: push backlog exceeded",
                ));
                conn.kill = true;
            } else {
                conn.outbuf.extend_from_slice(&ws::text_frame(&text));
                inner.counters.pushes.fetch_add(1, Ordering::Relaxed);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &id in &touched {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            inner.counters.conn_scans.fetch_add(1, Ordering::Relaxed);
            process_conn(inner, idx, id, conn);
            if abandon || conn.should_close(shutting) {
                closed.push(id);
            } else {
                update_interest(&mut selector, id, conn);
            }
        }
        for id in closed.drain(..) {
            if let Some(conn) = conns.remove(&id) {
                if conn.registered {
                    let _ = selector.deregister(&conn.stream);
                }
                if conn.ws_from_seq.is_some() {
                    inner.counters.ws_active.fetch_sub(1, Ordering::SeqCst);
                    lock(&inner.ws_live).remove(&id);
                    // Unsubscribe anything bound to the connection — the
                    // service side of slow-consumer eviction and normal
                    // disconnects alike.
                    inner.service.connection_closed(id);
                }
            }
            inner.counters.active.fetch_sub(1, Ordering::SeqCst);
        }
        if shutting && conns.is_empty() {
            let inbox = lock(&inner.reactors[idx].inbox);
            if inbox.new_conns.is_empty() && inbox.done.is_empty() && inbox.pushes.is_empty() {
                break;
            }
        }
    }
}

fn worker_loop<S: WireService>(inner: &Inner<S>) {
    loop {
        match inner.run_queue.pop() {
            Runnable::Stop => break,
            Runnable::Job(job) => inner.execute(job),
            Runnable::Turn(session) => {
                if let Some(job) = inner.mailboxes.pop(session) {
                    inner.execute(job);
                }
                inner.finish_turn(session);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Handle
// ---------------------------------------------------------------------------

/// A running server. Dropping the handle without calling
/// [`Server::shutdown`] detaches the serving threads (they keep serving
/// for the life of the process).
pub struct Server<S: WireService> {
    inner: Arc<Inner<S>>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl<S: WireService> Server<S> {
    /// Bind `config.addr` and start the acceptor, reactor, and worker
    /// threads over `service`. Fails if the address cannot be bound or a
    /// reactor's epoll instance cannot be created.
    pub fn start(service: Arc<S>, config: ServerConfig) -> std::io::Result<Server<S>> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let reactors = config.reactors.max(1);
        let workers = config.workers.max(1);
        let selectors = (0..reactors)
            .map(|_| Selector::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        let inner = Arc::new(Inner {
            mailboxes: Mailboxes::new(config.mailbox_cap),
            run_queue: RunQueue::new(),
            reactors: selectors
                .iter()
                .map(|selector| ReactorShared {
                    inbox: Mutex::new(ReactorInbox {
                        new_conns: Vec::new(),
                        done: Vec::new(),
                        pushes: Vec::new(),
                    }),
                    waker: selector.waker(),
                })
                .collect(),
            counters: Counters {
                accepted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                active: AtomicUsize::new(0),
                requests: AtomicU64::new(0),
                inline_responses: AtomicU64::new(0),
                backpressure: AtomicU64::new(0),
                responses: AtomicU64::new(0),
                pending_jobs: AtomicUsize::new(0),
                ws_active: AtomicUsize::new(0),
                pushes: AtomicU64::new(0),
                push_evictions: AtomicU64::new(0),
                conn_scans: AtomicU64::new(0),
            },
            ws_live: Mutex::new(HashSet::new()),
            push_sender: OnceLock::new(),
            shutting_down: AtomicBool::new(false),
            abandon: AtomicBool::new(false),
            live_threads: AtomicUsize::new(0),
            service,
            config,
        });
        // The sender workers hand to the service. Holds only a Weak so a
        // service that outlives the server cannot keep it alive (pushes
        // to a gone server report dead connections).
        let weak = Arc::downgrade(&inner);
        let sender: PushSender = Arc::new(move |conn, text| {
            weak.upgrade()
                .is_some_and(|inner| inner.push_text(conn, text))
        });
        let _ = inner.push_sender.set(sender);
        let mut threads = Vec::with_capacity(1 + reactors + workers);
        {
            let inner = Arc::clone(&inner);
            inner.live_threads.fetch_add(1, Ordering::SeqCst);
            threads.push(
                std::thread::Builder::new()
                    .name("pi2-acceptor".into())
                    .spawn(move || {
                        let _live = LiveGuard(&inner.live_threads);
                        acceptor_loop(&inner, listener)
                    })?,
            );
        }
        for (i, selector) in selectors.into_iter().enumerate() {
            let inner = Arc::clone(&inner);
            inner.live_threads.fetch_add(1, Ordering::SeqCst);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pi2-reactor-{i}"))
                    .spawn(move || {
                        let _live = LiveGuard(&inner.live_threads);
                        reactor_loop(&inner, i, selector)
                    })?,
            );
        }
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            inner.live_threads.fetch_add(1, Ordering::SeqCst);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pi2-worker-{i}"))
                    .spawn(move || {
                        let _live = LiveGuard(&inner.live_threads);
                        worker_loop(&inner)
                    })?,
            );
        }
        Ok(Server {
            inner,
            addr,
            threads,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    /// Graceful shutdown: stop accepting, answer new requests `503
    /// shutting_down`, drain queued work (bounded by
    /// [`ServerConfig::drain_timeout`]), flush responses, close
    /// connections, join every thread.
    ///
    /// If work is still pending or flushes are still stalled past the
    /// deadlines (a handler wedged inside the service, or a client that
    /// never reads its responses), shutdown *abandons*: connections are
    /// dropped as-is and the serving threads are detached instead of
    /// joined — shutdown always returns within roughly
    /// 2 × [`ServerConfig::drain_timeout`].
    pub fn shutdown(self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Wait for queued/executing jobs to drain: every response must be
        // in a reactor inbox before workers stop.
        let deadline = Instant::now() + self.inner.config.drain_timeout;
        while self.inner.counters.pending_jobs.load(Ordering::SeqCst) > 0
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..self.inner.config.workers.max(1) {
            self.inner.run_queue.push(Runnable::Stop);
        }
        // Reactors flush pending responses, close their connections, and
        // exit on their own once the flag is up. Give them one more
        // drain_timeout of grace: a wedged worker (its job never produces
        // a `Done`) or a client that never reads its responses (flush
        // stalls on WouldBlock forever) would otherwise make a join block
        // indefinitely.
        let deadline = Instant::now() + self.inner.config.drain_timeout;
        loop {
            for shared in &self.inner.reactors {
                shared.waker.wake();
            }
            if self.inner.live_threads.load(Ordering::SeqCst) == 0 {
                // Every serving thread exited; joins return immediately.
                for t in self.threads {
                    let _ = t.join();
                }
                return;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Stragglers: tell reactors to drop connections as-is and leave
        // the threads detached — they exit as soon as they can, and a
        // truly stuck worker leaks for the life of the process (which
        // shutdown callers are usually about to end).
        self.inner.abandon.store(true, Ordering::SeqCst);
        for shared in &self.inner.reactors {
            shared.waker.wake();
        }
    }
}

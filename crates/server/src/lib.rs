#![warn(missing_docs)]
//! # pi2-server: a dependency-free concurrent wire-protocol server
//!
//! The transport layer of the PI2 session service: a std-only HTTP/1.1
//! keep-alive server built for the v1 JSON protocol, with a staged
//! concurrent runtime instead of thread-per-connection:
//!
//! 1. an **acceptor** thread applies the admission gate (`503` beyond
//!    `max_connections`) and hands non-blocking connections to
//! 2. a fixed pool of **reactor** threads that parse pipelined HTTP/1.1
//!    requests and write responses back in request order, routing protocol
//!    work through
//! 3. **per-session bounded mailboxes** (`429` when full — backpressure,
//!    never unbounded queueing) drained by
//! 4. a fixed pool of **worker** threads, at most one per session at a
//!    time — so one session's events stay ordered while different sessions
//!    dispatch fully in parallel.
//!
//! A small session-addressed request whose session has no queued or
//! running work may instead run to completion on its reactor, when the
//! service says it needs no computation ([`WireService::try_inline`]; see
//! [`server`] for the conditions).
//!
//! Reactors drive their connections off an epoll
//! [`Selector`](poll::Selector), so idle connections cost zero CPU — see
//! [`poll`]. Linux is the only supported target.
//!
//! Endpoints: `POST /v1` (the versioned JSON protocol), `GET /ws`
//! (RFC 6455 upgrade — text frames carry the same JSON protocol, plus
//! server-initiated pushes; see [`ws`]), `GET /metrics` (service +
//! server counters), `GET /healthz`.
//!
//! The crate is protocol-blind: everything protocol-specific goes through
//! the [`WireService`] trait, which `pi2-core` implements for
//! `Pi2Service` (and re-exports this crate as `pi2::server`). Graceful
//! shutdown drains mailboxes and flushes responses before closing; see
//! [`Server::shutdown`].

#[cfg(not(target_os = "linux"))]
compile_error!("pi2-server supports Linux only: its reactors are driven by epoll");

pub mod client;
pub mod http;
pub mod mailbox;
pub mod poll;
pub mod server;
pub mod wire;
pub mod ws;

pub use client::{Http1Client, WsClient};
pub use server::{Server, ServerConfig, ServerStats};
pub use wire::{Inline, PushLink, PushSender, Reject, WireService};

#[cfg(test)]
mod tests {
    //! End-to-end tests over a protocol-free echo service: the transport
    //! contract (keep-alive, pipelining, per-session ordering, 404/405,
    //! backpressure, admission, shutdown drain) without the cost of a real
    //! generation.

    use super::*;
    use crate::client::WsMessage;
    use crate::wire::PushLink;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Request format: `session:<id>:<payload>` orders under session
    /// `<id>`; `direct:<payload>` runs sessionless. Responses echo the
    /// payload and the serving thread's name with a per-service monotone
    /// stamp. `session:<id>:fast:<payload>` bodies are served inline on
    /// the reactor (`...:fast:panic` panics there); everything else is
    /// declined to a worker, where `...:gated` waits for the `gate` lock.
    /// Push-capable requests: `...:subscribe` binds the arrival connection
    /// as a push target, `...:notify:<msg>` pushes `<msg>` to every bound
    /// target.
    struct Echo {
        stamp: AtomicU64,
        delay: Duration,
        links: Mutex<Vec<PushLink>>,
        gate: Mutex<()>,
    }

    impl Echo {
        fn new(delay: Duration) -> Echo {
            Echo {
                stamp: AtomicU64::new(0),
                delay,
                links: Mutex::new(Vec::new()),
                gate: Mutex::new(()),
            }
        }

        fn echo(&self, request: &str) -> String {
            let thread = std::thread::current().name().unwrap_or("?").to_string();
            let stamp = self.stamp.fetch_add(1, Ordering::SeqCst);
            format!("{{\"echo\":\"{request}\",\"thread\":\"{thread}\",\"stamp\":{stamp}}}")
        }
    }

    impl WireService for Echo {
        type Request = String;

        fn parse(&self, body: &str) -> Result<String, (u16, String)> {
            if body.starts_with("bad") {
                Err((
                    400,
                    format!("{{\"error\":\"unparsable\",\"got\":\"{body}\"}}"),
                ))
            } else {
                Ok(body.to_string())
            }
        }

        fn route_key(&self, body: &str) -> Option<u64> {
            body.strip_prefix("session:")?
                .split(':')
                .next()?
                .parse()
                .ok()
        }

        fn session_of(&self, request: &String) -> Option<u64> {
            self.route_key(request)
        }

        fn handle(&self, request: String) -> (u16, String) {
            std::thread::sleep(self.delay);
            if request.ends_with(":panic") {
                panic!("echo handler asked to panic");
            }
            if request.ends_with(":gated") {
                drop(self.gate.lock().unwrap());
            }
            if let Some((_, msg)) = request.split_once(":notify:") {
                let links = self.links.lock().unwrap();
                let mut delivered = 0;
                for link in links.iter() {
                    if (link.sender)(link.conn, format!("{{\"pushed\":\"{msg}\"}}")) {
                        delivered += 1;
                    }
                }
                return (200, format!("{{\"notified\":{delivered}}}"));
            }
            (200, self.echo(&request))
        }

        fn try_inline(&self, session: u64, body: &str) -> Inline<String> {
            if !body.starts_with(&format!("session:{session}:fast:")) {
                return Inline::Declined;
            }
            if body.ends_with(":panic") {
                panic!("inline echo handler asked to panic");
            }
            Inline::Served(200, self.echo(body))
        }

        fn handle_link(&self, request: String, link: Option<&PushLink>) -> (u16, String) {
            if request.ends_with(":subscribe") {
                if let Some(link) = link {
                    self.links.lock().unwrap().push(link.clone());
                    return (200, "{\"subscribed\":true}".to_string());
                }
                return (
                    400,
                    "{\"error\":\"not a push-capable connection\"}".to_string(),
                );
            }
            self.handle(request)
        }

        fn connection_closed(&self, conn: u64) {
            self.links.lock().unwrap().retain(|l| l.conn != conn);
        }

        fn metrics_body(&self) -> String {
            format!("{{\"handled\":{}}}", self.stamp.load(Ordering::SeqCst))
        }

        fn reject_body(&self, reject: &Reject) -> String {
            let code = match reject {
                Reject::BadRequest(_) => "bad_request",
                Reject::NotFound(_) => "not_found",
                Reject::MethodNotAllowed(_) => "method_not_allowed",
                Reject::PayloadTooLarge { .. } => "payload_too_large",
                Reject::Backpressure { .. } => "backpressure",
                Reject::Overloaded(_) => "overloaded",
                Reject::ShuttingDown => "shutting_down",
                Reject::Internal(_) => "internal",
            };
            format!("{{\"error\":\"{code}\"}}")
        }
    }

    fn start(delay: Duration, config: ServerConfig) -> Server<Echo> {
        Server::start(Arc::new(Echo::new(delay)), config).expect("server starts")
    }

    fn small_config() -> ServerConfig {
        ServerConfig {
            reactors: 2,
            workers: 4,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn keep_alive_round_trips_and_endpoints() {
        let server = start(Duration::ZERO, small_config());
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        // Several requests over one connection.
        for i in 0..5 {
            let resp = client.post("/v1", &format!("direct:{i}")).unwrap();
            assert_eq!(resp.status, 200);
            assert!(
                resp.body.contains(&format!("\"echo\":\"direct:{i}\"")),
                "{}",
                resp.body
            );
            assert!(!resp.close);
        }
        let health = client.get("/healthz").unwrap();
        assert_eq!(
            (health.status, health.body.as_str()),
            (200, "{\"status\":\"ok\"}")
        );
        let metrics = client.get("/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        assert!(
            metrics.body.contains("\"type\":\"server_metrics\""),
            "{}",
            metrics.body
        );
        assert!(
            metrics.body.contains("\"service\":{\"handled\":"),
            "{}",
            metrics.body
        );
        // Unknown path and wrong method map to the service's error space.
        let missing = client.get("/nope").unwrap();
        assert_eq!(
            (missing.status, missing.body.as_str()),
            (404, "{\"error\":\"not_found\"}")
        );
        let wrong = client.post("/healthz", "").unwrap();
        assert_eq!(wrong.status, 405);
        // Parse rejections surface the service's own error body.
        let bad = client.post("/v1", "bad payload").unwrap();
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("unparsable"), "{}", bad.body);
        server.shutdown();
    }

    #[test]
    fn pipelined_responses_come_back_in_request_order() {
        let server = start(Duration::from_millis(2), small_config());
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        // Mix sessionless (parallel, any completion order) and session
        // requests; responses must still arrive in request order.
        const N: usize = 24;
        for i in 0..N {
            let body = if i % 3 == 0 {
                format!("direct:{i}")
            } else {
                format!("session:{}:{i}", i % 2)
            };
            client.send("POST", "/v1", &body).unwrap();
        }
        for i in 0..N {
            let resp = client.read_response().unwrap();
            assert_eq!(resp.status, 200);
            assert!(
                resp.body.contains(&format!(":{i}\"")),
                "response {i} out of order: {}",
                resp.body
            );
        }
        server.shutdown();
    }

    #[test]
    fn one_sessions_events_serialize_while_sessions_parallelize() {
        let server = start(Duration::from_millis(5), small_config());
        // 4 clients on 4 sessions, each sending 6 ordered events.
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4u64)
            .map(|session| {
                std::thread::spawn(move || {
                    let mut client = Http1Client::connect(addr).unwrap();
                    for i in 0..6 {
                        client
                            .send("POST", "/v1", &format!("session:{session}:{i}"))
                            .unwrap();
                    }
                    (0..6)
                        .map(|_| client.read_response().unwrap().body)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let streams: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (session, stream) in streams.iter().enumerate() {
            // Per-session arrival order is preserved...
            for (i, body) in stream.iter().enumerate() {
                assert!(
                    body.contains(&format!("\"echo\":\"session:{session}:{i}\"")),
                    "session {session} event {i}: {body}"
                );
            }
            // ...and the handler stamps within a session are strictly
            // increasing (no two workers ever interleaved one session).
            let stamps: Vec<u64> = stream
                .iter()
                .map(|b| {
                    b.rsplit("\"stamp\":")
                        .next()
                        .unwrap()
                        .trim_end_matches('}')
                        .parse()
                        .unwrap()
                })
                .collect();
            assert!(
                stamps.windows(2).all(|w| w[0] < w[1]),
                "session {session} stamps not monotone: {stamps:?}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn full_mailbox_answers_429_without_hanging() {
        let server = start(
            Duration::from_millis(30),
            ServerConfig {
                mailbox_cap: 2,
                workers: 2,
                ..small_config()
            },
        );
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        // Pipeline far more events at one session than cap+in-flight can
        // hold while the handler sleeps.
        const N: usize = 12;
        for i in 0..N {
            client
                .send("POST", "/v1", &format!("session:9:{i}"))
                .unwrap();
        }
        let mut ok = 0;
        let mut rejected = 0;
        for _ in 0..N {
            let resp = client.read_response().unwrap();
            match resp.status {
                200 => ok += 1,
                429 => {
                    assert_eq!(resp.body, "{\"error\":\"backpressure\"}");
                    rejected += 1;
                }
                other => panic!("unexpected status {other}: {}", resp.body),
            }
        }
        assert_eq!(ok + rejected, N);
        assert!(rejected > 0, "cap 2 with a slow handler must shed load");
        assert!(ok >= 1, "accepted work must still complete");
        assert_eq!(server.stats().backpressure_rejections, rejected as u64);
        server.shutdown();
    }

    #[test]
    fn a_panicking_handler_answers_500_and_the_session_survives() {
        let server = start(Duration::ZERO, small_config());
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        let resp = client.post("/v1", "session:5:panic").unwrap();
        assert_eq!(resp.status, 500);
        assert_eq!(resp.body, "{\"error\":\"internal\"}");
        // The session's turn token and the worker both survived: later
        // events on the same session still execute.
        let resp = client.post("/v1", "session:5:after").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("session:5:after"), "{}", resp.body);
        // The claim is released moments *after* the response is visible
        // (the worker decrements only once the Done is in an inbox), so
        // give it a beat.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.stats().pending_jobs != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "a panic must not leak its pending-job claim"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // And shutdown stays prompt (no leaked claim to wait on).
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(started.elapsed() < Duration::from_secs(4));
    }

    /// The `"thread"` an Echo response names.
    fn thread_of(body: &str) -> &str {
        body.split("\"thread\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("no thread in {body}"))
    }

    fn stamp_of(body: &str) -> u64 {
        body.rsplit("\"stamp\":")
            .next()
            .and_then(|s| s.trim_end_matches('}').parse().ok())
            .unwrap_or_else(|| panic!("no stamp in {body}"))
    }

    #[test]
    fn inline_answers_come_from_reactors_and_declined_ones_from_workers() {
        let server = start(Duration::ZERO, small_config());
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        let fast = client.post("/v1", "session:1:fast:a").unwrap();
        assert_eq!(fast.status, 200, "{}", fast.body);
        assert!(
            thread_of(&fast.body).starts_with("pi2-reactor-"),
            "{}",
            fast.body
        );
        // Declined by the service, sessionless, or over the inline size
        // limit: all served by a worker.
        let oversized = format!("session:1:fast:{}", "x".repeat(2000));
        for body in ["session:1:plain", "direct:fast:a", oversized.as_str()] {
            let resp = client.post("/v1", body).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert!(
                thread_of(&resp.body).starts_with("pi2-worker-"),
                "{body:.40}: {:.200}",
                resp.body
            );
        }
        // WebSocket messages take the same path.
        let mut ws = WsClient::connect(server.local_addr()).unwrap();
        let reply = ws.round_trip("session:2:fast:ws").unwrap();
        assert!(thread_of(&reply).starts_with("pi2-reactor-"), "{reply}");
        let reply = ws.round_trip("session:2:ws").unwrap();
        assert!(thread_of(&reply).starts_with("pi2-worker-"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn a_queued_token_blocks_inline_service_and_order_holds() {
        let echo = Arc::new(Echo::new(Duration::ZERO));
        let server = Server::start(Arc::clone(&echo), small_config()).unwrap();
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        // The declined first request holds the session's token on a worker
        // until the gate opens; every `fast` request routed meanwhile must
        // queue behind it instead of being served inline.
        let gate = echo.gate.lock().unwrap();
        const FAST: usize = 5;
        client.send("POST", "/v1", "session:7:gated").unwrap();
        for i in 0..FAST {
            client
                .send("POST", "/v1", &format!("session:7:fast:{i}"))
                .unwrap();
        }
        // The reactor routes one connection's requests in order, so once
        // this trailing request is counted every `fast` one is routed.
        client.send("GET", "/healthz", "").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.stats().requests < FAST as u64 + 2 {
            assert!(std::time::Instant::now() < deadline, "{:?}", server.stats());
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(gate);
        let bodies: Vec<String> = (0..=FAST)
            .map(|_| client.read_response().unwrap().body)
            .collect();
        assert_eq!(client.read_response().unwrap().status, 200);
        assert!(
            bodies[0].contains("\"echo\":\"session:7:gated\""),
            "{}",
            bodies[0]
        );
        for (i, body) in bodies[1..].iter().enumerate() {
            assert!(
                body.contains(&format!("\"echo\":\"session:7:fast:{i}\"")),
                "response {} out of order: {body}",
                i + 1
            );
        }
        for body in &bodies {
            assert!(thread_of(body).starts_with("pi2-worker-"), "{body}");
        }
        let stamps: Vec<u64> = bodies.iter().map(|b| stamp_of(b)).collect();
        assert!(
            stamps.windows(2).all(|w| w[0] < w[1]),
            "stamps not serialized: {stamps:?}"
        );
        assert_eq!(server.stats().inline_responses, 0);
        // Once the session drains, the fast path is open again.
        let resp = client.post("/v1", "session:7:fast:after").unwrap();
        assert!(
            thread_of(&resp.body).starts_with("pi2-reactor-"),
            "{}",
            resp.body
        );
        assert!(stamp_of(&resp.body) > stamps[FAST]);
        server.shutdown();
    }

    #[test]
    fn a_panicking_inline_handler_answers_500_and_the_session_survives() {
        let server = start(Duration::ZERO, small_config());
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        let resp = client.post("/v1", "session:5:fast:panic").unwrap();
        assert_eq!(resp.status, 500);
        assert_eq!(resp.body, "{\"error\":\"internal\"}");
        // The token was released: both paths serve the session again.
        let resp = client.post("/v1", "session:5:fast:after").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(
            thread_of(&resp.body).starts_with("pi2-reactor-"),
            "{}",
            resp.body
        );
        let resp = client.post("/v1", "session:5:later").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let stats = server.stats();
        assert_eq!(stats.inline_responses, 2, "{stats:?}");
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.stats().pending_jobs != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "an inline panic must not leak its pending-job claim"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shutdown();
    }

    #[test]
    fn inline_responses_count_exactly_the_inline_answers() {
        let server = start(Duration::ZERO, small_config());
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        const FAST: u64 = 5;
        for i in 0..FAST {
            let resp = client.post("/v1", &format!("session:3:fast:{i}")).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        for body in ["session:3:plain", "direct:x", "bad payload"] {
            client.post("/v1", body).unwrap();
        }
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        let stats = server.stats();
        assert_eq!(stats.inline_responses, FAST, "{stats:?}");
        assert_eq!(stats.requests, FAST + 4);
        let metrics = client.get("/metrics").unwrap();
        assert!(
            metrics.body.contains(&format!(
                "\"requests\":{},\"inlineResponses\":{FAST}",
                FAST + 5
            )),
            "{}",
            metrics.body
        );
        server.shutdown();
    }

    #[test]
    fn global_pending_cap_sheds_sessionless_floods_with_503() {
        // Sessionless requests have no mailbox; the global pending cap is
        // what keeps the run queue bounded.
        let server = start(
            Duration::from_millis(30),
            ServerConfig {
                workers: 1,
                pending_cap: 2,
                ..small_config()
            },
        );
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        const N: usize = 10;
        for i in 0..N {
            client.send("POST", "/v1", &format!("direct:{i}")).unwrap();
        }
        let mut ok = 0;
        let mut shed = 0;
        for _ in 0..N {
            let resp = client.read_response().unwrap();
            match resp.status {
                200 => ok += 1,
                503 => {
                    assert_eq!(resp.body, "{\"error\":\"overloaded\"}");
                    shed += 1;
                }
                other => panic!("unexpected status {other}: {}", resp.body),
            }
        }
        assert_eq!(ok + shed, N);
        assert!(shed > 0, "a flood beyond the cap must shed load");
        assert!(ok >= 1, "admitted work must still complete");
        server.shutdown();
    }

    #[test]
    fn shutdown_abandons_wedged_handlers_after_drain_timeout() {
        // The handler sleeps far longer than the drain timeout: shutdown
        // must give up on the straggler and return instead of joining
        // forever.
        let server = start(
            Duration::from_secs(20),
            ServerConfig {
                drain_timeout: Duration::from_millis(200),
                ..small_config()
            },
        );
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        client.send("POST", "/v1", "session:1:wedged").unwrap();
        // Let the request route and a worker start sleeping in handle().
        std::thread::sleep(Duration::from_millis(100));
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "shutdown hung on a wedged handler ({:?})",
            started.elapsed()
        );
        // The abandoned connection is closed without its response.
        assert!(client.read_response().is_err());
    }

    #[test]
    fn admission_gate_rejects_connections_beyond_the_limit() {
        let server = start(
            Duration::ZERO,
            ServerConfig {
                max_connections: 2,
                ..small_config()
            },
        );
        let addr = server.local_addr();
        let mut a = Http1Client::connect(addr).unwrap();
        let mut b = Http1Client::connect(addr).unwrap();
        assert_eq!(a.get("/healthz").unwrap().status, 200);
        assert_eq!(b.get("/healthz").unwrap().status, 200);
        let mut c = Http1Client::connect(addr).unwrap();
        let resp = c.read_response().unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.body, "{\"error\":\"overloaded\"}");
        assert!(resp.close, "rejected connections are closed");
        let stats = server.stats();
        assert_eq!(stats.rejected_connections, 1);
        // Closing an accepted connection frees a slot.
        drop(a);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(mut d) = Http1Client::connect(addr) {
                if let Ok(resp) = d.get("/healthz") {
                    if resp.status == 200 {
                        break;
                    }
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "slot never freed after close"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work_before_closing() {
        let server = start(Duration::from_millis(10), small_config());
        let addr = server.local_addr();
        let mut client = Http1Client::connect(addr).unwrap();
        const N: usize = 8;
        for i in 0..N {
            client
                .send("POST", "/v1", &format!("session:1:{i}"))
                .unwrap();
        }
        // Shut down while most of those are still queued.
        let reader = std::thread::spawn(move || {
            (0..N)
                .map(|_| client.read_response().map(|r| r.status))
                .collect::<Vec<_>>()
        });
        std::thread::sleep(Duration::from_millis(15));
        server.shutdown();
        let statuses = reader.join().unwrap();
        for (i, status) in statuses.iter().enumerate() {
            assert_eq!(
                status.as_ref().ok(),
                Some(&200),
                "queued request {i} was dropped: {statuses:?}"
            );
        }
        // The port no longer accepts work.
        match Http1Client::connect(addr) {
            Err(_) => {}
            Ok(mut c) => {
                // A racing OS-level accept queue may take the connection;
                // any request on it must fail (no thread will serve it).
                assert!(
                    c.get("/healthz").is_err(),
                    "server still serving after shutdown"
                );
            }
        }
    }

    #[test]
    fn oversized_and_malformed_requests_close_with_an_error() {
        let server = start(
            Duration::ZERO,
            ServerConfig {
                max_body_bytes: 64,
                ..small_config()
            },
        );
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        client.send("POST", "/v1", &"x".repeat(100)).unwrap();
        let resp = client.read_response().unwrap();
        assert_eq!(resp.status, 413);
        assert_eq!(resp.body, "{\"error\":\"payload_too_large\"}");
        assert!(resp.close);
        // Framing is gone: a broken head on a fresh connection gets 400
        // and the connection closes after the error response.
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut bytes = Vec::new();
        raw.read_to_end(&mut bytes).unwrap(); // server closes → EOF
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
        assert!(text.contains("{\"error\":\"bad_request\"}"), "{text}");
        server.shutdown();
    }

    #[test]
    fn websocket_upgrade_carries_the_same_protocol() {
        let server = start(Duration::ZERO, small_config());
        let mut ws = WsClient::connect(server.local_addr()).unwrap();
        // Same routing as POST /v1: sessionless, sessions, parse errors.
        let reply = ws.round_trip("direct:hello").unwrap();
        assert!(reply.contains("\"echo\":\"direct:hello\""), "{reply}");
        let reply = ws.round_trip("session:3:first").unwrap();
        assert!(reply.contains("\"echo\":\"session:3:first\""), "{reply}");
        let reply = ws.round_trip("bad payload").unwrap();
        assert!(reply.contains("unparsable"), "{reply}");
        assert_eq!(server.stats().ws_connections, 1);
        // Close handshake: the server echoes the code and closes.
        ws.send_close(1000).unwrap();
        assert_eq!(ws.read_message().unwrap(), WsMessage::Closed(Some(1000)));
        server.shutdown();
    }

    #[test]
    fn websocket_push_reaches_a_subscribed_connection() {
        let server = start(Duration::ZERO, small_config());
        let addr = server.local_addr();
        let mut subscriber = WsClient::connect(addr).unwrap();
        assert_eq!(
            subscriber.round_trip("direct:subscribe").unwrap(),
            "{\"subscribed\":true}"
        );
        // Notify from a *different* transport entirely: the push still
        // lands on the subscribed WS connection.
        let mut http = Http1Client::connect(addr).unwrap();
        let resp = http.post("/v1", "direct:notify:wave").unwrap();
        assert_eq!((resp.status, resp.body.as_str()), (200, "{\"notified\":1}"));
        assert_eq!(
            subscriber.read_message().unwrap(),
            WsMessage::Text("{\"pushed\":\"wave\"}".to_string())
        );
        let stats = server.stats();
        assert_eq!(stats.pushes, 1);
        // Subscribing over plain HTTP is refused (no push link).
        let resp = http.post("/v1", "direct:subscribe").unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body);
        // Dropping the subscriber unbinds it: the next notify delivers 0.
        drop(subscriber);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let resp = http.post("/v1", "direct:notify:gone").unwrap();
            if resp.body == "{\"notified\":0}" {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "connection_closed never unbound the subscriber: {}",
                resp.body
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }

    #[test]
    fn a_bad_upgrade_request_is_refused_without_killing_http() {
        let server = start(Duration::ZERO, small_config());
        let mut client = Http1Client::connect(server.local_addr()).unwrap();
        // GET /ws without upgrade headers: 400, connection stays usable.
        let resp = client.get("/ws").unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert_eq!(resp.body, "{\"error\":\"bad_request\"}");
        let resp = client.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
        // Wrong method on /ws maps to 405 like the other endpoints.
        let resp = client.post("/ws", "x").unwrap();
        assert_eq!(resp.status, 405, "{}", resp.body);
        server.shutdown();
    }
}

//! Serving glue: [`Pi2Service`] as the protocol backend of the HTTP
//! server.
//!
//! `pi2-server` is protocol-blind — it parses HTTP, orders requests
//! through per-session mailboxes, and applies backpressure; everything it
//! needs to know about the v1 JSON protocol it asks through
//! [`pi2_server::WireService`], implemented here. The response body for a
//! `POST /v1` is exactly what [`Pi2Service::handle_json`] would return for
//! the same message (workers go through [`Pi2Service::handle_request`],
//! the shared core; a reactor serves memo-hit events inline through the
//! same dispatch body run in its non-computing mode), and every
//! transport-generated rejection — unknown path, oversized body,
//! backpressure, overload — is phrased as a standard protocol `error`
//! message with a stable code, so clients never need a second error
//! vocabulary.
//!
//! ```no_run
//! use pi2::{serve, Pi2Service};
//! use pi2::server::ServerConfig;
//! use std::sync::Arc;
//!
//! let service = Arc::new(Pi2Service::new());
//! // … register workloads …
//! let server = serve(service, ServerConfig::default()).unwrap();
//! println!("serving on http://{}", server.local_addr());
//! ```

use crate::error::Pi2Error;
use crate::protocol::{error_to_json, metrics_response, patch_to_json, request_from_json, Request};
use crate::service::Pi2Service;
use pi2_server::{Inline, PushLink, Reject, Server, ServerConfig, WireService};
use std::sync::Arc;

impl WireService for Pi2Service {
    type Request = Request;

    fn parse(&self, body: &str) -> Result<Request, (u16, String)> {
        request_from_json(body).map_err(|e| (e.http_status(), error_to_json(&e)))
    }

    fn route_key(&self, body: &str) -> Option<u64> {
        // Reactor-side routing: one substring find plus a digit scan over
        // the raw body — no JSON decode. Every session-addressed request
        // type (`event`, `close`, `subscribe`, `unsubscribe`) carries a
        // top-level `"session": <int>` member; nothing else in a request
        // uses that key. A false positive (e.g. the word in a string
        // payload) only costs mailbox placement — the worker still
        // decodes and validates the real request.
        let at = body.find("\"session\"")?;
        let rest = body[at + "\"session\"".len()..].trim_start();
        let rest = rest.strip_prefix(':')?.trim_start();
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
        digits.parse().ok()
    }

    fn session_of(&self, request: &Request) -> Option<u64> {
        match request {
            // Session-addressed requests mutate or read session state:
            // they order through the session's mailbox (subscribe too, so
            // a subscription serializes against the session's own event
            // stream). Opens/describes/metrics/negotiate are session-free
            // and dispatch on any worker.
            Request::Event { session, .. }
            | Request::Close { session }
            | Request::Subscribe { session }
            | Request::Unsubscribe { session } => Some(*session),
            Request::Open { .. } | Request::Describe { .. } | Request::Metrics => None,
            // Appends address a workload's live catalogue, not a session:
            // the catalogue's own lock serializes concurrent appends, and
            // subscriber fan-out takes each session's lock as it goes.
            Request::Negotiate | Request::Append { .. } => None,
        }
    }

    fn handle(&self, request: Request) -> (u16, String) {
        match self.handle_request(request) {
            Ok(body) => (200, body),
            Err(e) => (e.http_status(), error_to_json(&e)),
        }
    }

    fn handle_link(&self, request: Request, link: Option<&PushLink>) -> (u16, String) {
        match self.handle_request_link(request, link) {
            Ok(body) => (200, body),
            Err(e) => (e.http_status(), error_to_json(&e)),
        }
    }

    /// The fast path serves exactly one kind of request on the reactor: an
    /// `event` whose session no push subscription touches, whose lock is
    /// free, and whose changed views are all memo hits. The peer check
    /// comes before the decode so declining a push-channel session costs
    /// no parse; a decoded request that declines goes to the worker as is.
    ///
    /// Skipping fan-out here is not a loss: a subscription that lands
    /// between the check and the dispatch could equally have landed just
    /// after a worker's fan-out snapshot. The session's own subscribe is
    /// ordered behind this request by the turn token the server holds.
    fn try_inline(&self, session: u64, body: &str) -> Inline<Request> {
        if self.push_hub().channel_has_subscribers(session) {
            return Inline::Declined;
        }
        let Ok(request) = request_from_json(body) else {
            return Inline::Declined;
        };
        let Request::Event {
            session: target,
            event,
        } = &request
        else {
            return Inline::Decoded(request);
        };
        let slot = match self.wire_session(*target) {
            Some(slot) if *target == session => slot,
            _ => return Inline::Decoded(request),
        };
        let Some(mut guard) = slot.try_lock() else {
            return Inline::Decoded(request);
        };
        let dispatched = guard.dispatch_memo_only(event);
        drop(guard);
        match dispatched {
            Ok(Some(patch)) => Inline::Served(200, patch_to_json(&patch)),
            Ok(None) => Inline::Decoded(request),
            Err(e) => Inline::Served(e.http_status(), error_to_json(&e)),
        }
    }

    fn connection_closed(&self, conn: u64) {
        self.push_hub().drop_conn(conn);
    }

    fn metrics_body(&self) -> String {
        metrics_response(&self.metrics())
    }

    fn reject_body(&self, reject: &Reject) -> String {
        error_to_json(&match reject {
            Reject::BadRequest(detail) => Pi2Error::Protocol(detail.clone()),
            Reject::NotFound(path) => Pi2Error::Protocol(format!(
                "no such endpoint {path:?} (POST /v1, GET /ws, GET /metrics, GET /healthz)"
            )),
            Reject::MethodNotAllowed(method) => {
                Pi2Error::Protocol(format!("method {method} not allowed on this endpoint"))
            }
            Reject::PayloadTooLarge { limit } => {
                Pi2Error::Protocol(format!("request body exceeds the {limit}-byte limit"))
            }
            Reject::Backpressure { session } => Pi2Error::Backpressure { session: *session },
            Reject::Overloaded(detail) => Pi2Error::Overloaded(detail.clone()),
            Reject::ShuttingDown => Pi2Error::Overloaded("server is shutting down".into()),
            Reject::Internal(detail) => Pi2Error::Runtime(detail.clone()),
        })
    }
}

/// Boot the HTTP server over a service. Equivalent to
/// [`Server::start`] — this alias just keeps the common case one import.
pub fn serve(
    service: Arc<Pi2Service>,
    config: ServerConfig,
) -> std::io::Result<Server<Pi2Service>> {
    Server::start(service, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::GenerationConfig;
    use crate::protocol::request_to_json;
    use crate::runtime::Event;
    use pi2_data::{Catalog, DataType, Table, Value};

    fn rows(n: i64) -> Table {
        let rows = (0..n)
            .map(|i| vec![Value::Int(i % 4), Value::Int(10 * (i % 6))])
            .collect();
        Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap()
    }

    /// A registered service plus an event that changes some view's query
    /// from a fresh session's state.
    fn service_and_event() -> (Pi2Service, Event) {
        let mut catalog = Catalog::new();
        catalog.add_table("T", rows(30), vec![]);
        let service = Pi2Service::new();
        let sqls = [
            "SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a",
            "SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a",
        ];
        let g = service
            .register("inline", catalog, &sqls, &GenerationConfig::quick())
            .unwrap();
        let event = (0..g.interface.interactions.len())
            .flat_map(|ix| {
                [
                    Event::Select {
                        interaction: ix,
                        option: 1,
                    },
                    Event::SetValues {
                        interaction: ix,
                        values: vec![Value::Int(20)],
                    },
                ]
            })
            .find(|e| {
                g.session()
                    .unwrap()
                    .dispatch(e)
                    .is_ok_and(|p| !p.is_empty())
            })
            .expect("some event changes a query");
        (service, event)
    }

    fn event_body(session: u64, event: &Event) -> String {
        request_to_json(&Request::Event {
            session,
            event: event.clone(),
        })
    }

    #[test]
    fn try_inline_serves_memo_hits_and_hands_back_everything_else() {
        let (service, event) = service_and_event();
        let (a, _) = service.open_wire("inline").unwrap();
        let (twin, _) = service.open_wire("inline").unwrap();

        // A memo hit is answered with the bytes handle_json gives the twin.
        match service.try_inline(a, &event_body(a, &event)) {
            Inline::Served(200, body) => {
                assert_eq!(body, service.handle_json(&event_body(twin, &event)))
            }
            other => panic!("expected an inline patch, got {other:?}"),
        }
        // Routed under another session, not an event, or the session's
        // lock held elsewhere: decoded, handed back, never waited on.
        let decoded = |session: u64, body: &str| {
            matches!(service.try_inline(session, body), Inline::Decoded(_))
        };
        assert!(decoded(twin, &event_body(a, &event)));
        assert!(decoded(a, &request_to_json(&Request::Close { session: a })));
        let slot = service.wire_session(a).unwrap();
        let guard = slot.lock();
        assert!(decoded(a, &event_body(a, &event)));
        drop(guard);

        // After an append the changed view's result is not in the memo
        // for the new catalogue: the probe declines and leaves the session
        // to the worker's computing dispatch.
        service.append("inline", "T", rows(3)).unwrap();
        let (fresh, slot) = service.open_wire("inline").unwrap();
        assert!(decoded(fresh, &event_body(fresh, &event)));
        assert_eq!(slot.lock().seq(), 0);

        // Any subscription in the channel declines before decoding.
        assert!(service
            .push_hub()
            .subscribe(twin, 1, Arc::new(|_conn, _text| true)));
        assert!(matches!(
            service.try_inline(a, "not even json"),
            Inline::Declined
        ));
    }

    #[test]
    fn rejections_speak_the_protocol_error_space() {
        let service = Pi2Service::new();
        let cases: Vec<(Reject, u16, &str)> = vec![
            (Reject::BadRequest("x".into()), 400, "protocol"),
            (Reject::NotFound("/x".into()), 404, "protocol"),
            (Reject::MethodNotAllowed("PUT".into()), 405, "protocol"),
            (Reject::PayloadTooLarge { limit: 64 }, 413, "protocol"),
            (Reject::Backpressure { session: 7 }, 429, "backpressure"),
            (Reject::Overloaded("full".into()), 503, "overloaded"),
            (Reject::ShuttingDown, 503, "overloaded"),
            (Reject::Internal("boom".into()), 500, "runtime"),
        ];
        for (reject, status, code) in cases {
            assert_eq!(reject.status(), status, "{reject:?}");
            let body = service.reject_body(&reject);
            assert!(
                body.contains(&format!("\"code\":\"{code}\"")),
                "{reject:?}: {body}"
            );
            assert!(body.contains("\"type\":\"error\""), "{body}");
        }
    }

    #[test]
    fn parse_failures_match_handle_json_bytes() {
        let service = Pi2Service::new();
        for bad in ["not json", "{\"v\":1}", "{\"v\":9,\"type\":\"metrics\"}"] {
            let (status, body) = match WireService::parse(&service, bad) {
                Err(pair) => pair,
                Ok(_) => panic!("{bad:?} must not parse"),
            };
            assert_eq!(status, 400);
            assert_eq!(
                body,
                service.handle_json(bad),
                "transport and in-process bodies must agree"
            );
        }
    }

    #[test]
    fn handle_matches_handle_json_bytes() {
        let service = Pi2Service::new();
        // Unknown workload / unknown session flow through handle() with
        // the same bytes handle_json produces, plus the right status.
        let open = "{\"v\":1,\"type\":\"open\",\"workload\":\"nope\"}";
        let parsed = WireService::parse(&service, open).unwrap();
        let (status, body) = WireService::handle(&service, parsed);
        assert_eq!(status, 404);
        assert_eq!(body, service.handle_json(open));
        let event =
            "{\"v\":1,\"type\":\"event\",\"session\":5,\"kind\":\"clear\",\"interaction\":0}";
        let parsed = WireService::parse(&service, event).unwrap();
        assert_eq!(WireService::session_of(&service, &parsed), Some(5));
        let (status, body) = WireService::handle(&service, parsed);
        assert_eq!(status, 404);
        assert_eq!(body, service.handle_json(event));
    }
}

//! The WebSocket serving contract, end to end over real TCP: the `GET
//! /ws` upgrade carries the same versioned JSON protocol as `POST /v1`,
//! protocol v2 `subscribe` joins a session to its workload channel, and a
//! dispatch on one session pushes each subscribed peer's own patch —
//! byte-identical to what that peer's `handle_json` would have produced —
//! as a server-initiated frame. Also pins the readiness-selector contract:
//! under epoll, idle connections cost no connection scans.

mod common;

use common::generate;
use pi2::server::client::WsMessage;
use pi2::server::{Http1Client, ServerConfig, WsClient};
use pi2::{Event, Generation, Pi2Service, Request};
use pi2_workloads::LogKind;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One covid generation shared by every test in this binary.
fn covid() -> &'static Generation {
    static G: OnceLock<Generation> = OnceLock::new();
    G.get_or_init(|| generate(LogKind::Covid))
}

fn covid_service() -> Arc<Pi2Service> {
    let service = Arc::new(Pi2Service::new());
    service
        .register_generation("covid", covid().clone())
        .expect("register covid");
    service
}

/// Events that deterministically dispatch successfully (only successful
/// dispatches fan out): toggle every option-backed widget away from its
/// default and back.
fn probe_events(g: &Generation) -> Vec<Event> {
    use pi2::{InteractionChoice, WidgetKind};
    let mut events = Vec::new();
    for (ix, inst) in g.interface.interactions.iter().enumerate() {
        if let InteractionChoice::Widget { kind, domain, .. } = &inst.choice {
            let selectable = matches!(
                kind,
                WidgetKind::Radio | WidgetKind::Dropdown | WidgetKind::Button
            );
            if selectable && domain.size() >= 2 {
                events.push(Event::Select {
                    interaction: ix,
                    option: 1,
                });
                events.push(Event::Select {
                    interaction: ix,
                    option: 0,
                });
            }
        }
    }
    assert!(!events.is_empty(), "no selectable widget interaction");
    events
}

fn session_id(body: &str) -> u64 {
    pi2::Json::parse(body)
        .unwrap_or_else(|e| panic!("unparsable response {body:?}: {e}"))
        .get("session")
        .and_then(pi2::Json::as_i64)
        .unwrap_or_else(|| panic!("response lacks a session id: {body}")) as u64
}

fn open_request() -> String {
    pi2::request_to_json(&Request::Open {
        workload: "covid".to_string(),
    })
}

fn event_request(session: u64, event: &Event) -> String {
    pi2::request_to_json(&Request::Event {
        session,
        event: event.clone(),
    })
}

/// The tentpole acceptance bar: a dispatch on one WebSocket session
/// delivers, to a subscribed peer over real TCP, exactly the bytes that
/// peer's own `handle_json` would have produced for the same event — and
/// an HTTP-originated dispatch pushes to WebSocket subscribers the same
/// way.
#[test]
fn a_dispatch_pushes_byte_identical_patches_to_subscribed_peers() {
    let service = covid_service();
    let server = pi2::serve(Arc::clone(&service), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // A mirror service over the same generation, driven purely in
    // process, produces the reference byte streams: sessions open in the
    // same order get the same ids, and replaying the same events yields
    // the same seq numbers and patches.
    let mirror = Arc::new(Pi2Service::new());
    mirror
        .register_generation("covid", covid().clone())
        .expect("register mirror");

    let mut writer = WsClient::connect(addr).unwrap();
    let writer_session = session_id(&writer.round_trip(&open_request()).unwrap());
    let mut peer = WsClient::connect(addr).unwrap();
    let peer_session = session_id(&peer.round_trip(&open_request()).unwrap());
    assert_eq!(
        session_id(&mirror.handle_json(&open_request())),
        writer_session
    );
    assert_eq!(
        session_id(&mirror.handle_json(&open_request())),
        peer_session
    );

    // The peer subscribes its session to the shared workload channel.
    let sub = peer
        .round_trip(&pi2::request_to_json(&Request::Subscribe {
            session: peer_session,
        }))
        .unwrap();
    assert!(sub.contains("\"type\":\"subscribed\""), "{sub}");

    peer.set_read_timeout(Duration::from_secs(30)).unwrap();
    let events = probe_events(covid());
    for event in &events {
        // The writer dispatches; its own response matches the mirror's
        // writer-session bytes (request/response equivalence)…
        let response = writer
            .round_trip(&event_request(writer_session, event))
            .unwrap();
        assert_eq!(
            response,
            mirror.handle_json(&event_request(writer_session, event)),
            "writer response diverged from handle_json"
        );
        // …and the peer receives a pushed frame holding exactly what its
        // own dispatch of the same event would have produced.
        let reference = mirror.handle_json(&event_request(peer_session, event));
        match peer.read_message().unwrap() {
            WsMessage::Text(pushed) => assert_eq!(
                pushed, reference,
                "pushed bytes diverged from the peer's own handle_json"
            ),
            other => panic!("expected a pushed frame, got {other:?}"),
        }
    }

    // HTTP-originated dispatch fans out to WebSocket subscribers too.
    let mut http = Http1Client::connect(addr).unwrap();
    let event = &events[0];
    let resp = http
        .post("/v1", &event_request(writer_session, event))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let reference = mirror.handle_json(&event_request(writer_session, event));
    assert_eq!(resp.body, reference);
    let reference = mirror.handle_json(&event_request(peer_session, event));
    match peer.read_message().unwrap() {
        WsMessage::Text(pushed) => assert_eq!(pushed, reference),
        other => panic!("expected a pushed frame, got {other:?}"),
    }

    // The delivery counters show up in /metrics.
    let metrics = http.get("/metrics").unwrap();
    assert!(
        metrics.body.contains("\"push\":{\"subscriptions\":1"),
        "{}",
        metrics.body
    );
    assert!(metrics.body.contains("\"pushes\":"), "{}", metrics.body);
    server.shutdown();
}

/// Unsubscribe (and v2 version gating) over the wire: after a session
/// leaves the channel, later dispatches push nothing to it, and its
/// connection keeps serving request/response traffic.
#[test]
fn unsubscribe_stops_the_push_stream() {
    let service = covid_service();
    let server = pi2::serve(Arc::clone(&service), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut writer = WsClient::connect(addr).unwrap();
    let writer_session = session_id(&writer.round_trip(&open_request()).unwrap());
    let mut peer = WsClient::connect(addr).unwrap();
    let peer_session = session_id(&peer.round_trip(&open_request()).unwrap());

    let sub = peer
        .round_trip(&pi2::request_to_json(&Request::Subscribe {
            session: peer_session,
        }))
        .unwrap();
    assert!(sub.contains("\"type\":\"subscribed\""), "{sub}");
    let events = probe_events(covid());
    writer
        .round_trip(&event_request(writer_session, &events[0]))
        .unwrap();
    assert!(matches!(peer.read_message().unwrap(), WsMessage::Text(_)));

    // Unsubscribe; only after the response is in hand does the writer
    // dispatch again, so no stale push can be in flight.
    let unsub = peer
        .round_trip(&pi2::request_to_json(&Request::Unsubscribe {
            session: peer_session,
        }))
        .unwrap();
    assert!(unsub.contains("\"dropped\":true"), "{unsub}");
    writer
        .round_trip(&event_request(writer_session, &events[1]))
        .unwrap();
    // The peer's next message is the answer to its own request — were a
    // push still flowing, it would arrive first and fail this match.
    let metrics = peer.round_trip("{\"v\":1,\"type\":\"metrics\"}").unwrap();
    assert!(metrics.contains("\"type\":\"metrics\""), "{metrics}");
    server.shutdown();
}

/// Protocol v2 negotiation reports push capability per transport, and the
/// version gate stays strict in both directions over the real wire.
#[test]
fn negotiation_and_version_gating_over_the_wire() {
    let service = covid_service();
    let server = pi2::serve(Arc::clone(&service), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut ws = WsClient::connect(addr).unwrap();
    let reply = ws.round_trip("{\"v\":2,\"type\":\"negotiate\"}").unwrap();
    assert!(reply.contains("\"versions\":[1,2]"), "{reply}");
    assert!(reply.contains("\"push\":true"), "{reply}");

    let mut http = Http1Client::connect(addr).unwrap();
    let resp = http
        .post("/v1", "{\"v\":2,\"type\":\"negotiate\"}")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"push\":false"), "{}", resp.body);

    // v1 types stay v1-only and v2 types v2-only — on both transports,
    // byte-identical to the in-process gate.
    for bad in [
        "{\"v\":2,\"type\":\"metrics\"}",
        "{\"v\":1,\"type\":\"negotiate\"}",
        "{\"v\":3,\"type\":\"metrics\"}",
    ] {
        let resp = http.post("/v1", bad).unwrap();
        assert_eq!(resp.status, 400, "{bad}: {}", resp.body);
        assert_eq!(resp.body, service.handle_json(bad), "{bad}");
        let reply = ws.round_trip(bad).unwrap();
        assert_eq!(reply, service.handle_json(bad), "{bad}");
    }
    // Subscribing over plain HTTP is a protocol error: no push link.
    let resp = http
        .post("/v1", "{\"v\":2,\"type\":\"subscribe\",\"session\":1}")
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("push-capable"), "{}", resp.body);
    server.shutdown();
}

/// The readiness-selector acceptance bar: under epoll, an idle fleet of
/// 100 open connections performs no connection scans — the `connScans`
/// counter in `/metrics` stays flat while they sit idle.
#[test]
fn idle_connections_cost_no_scans_under_epoll() {
    let service = covid_service();
    let server = pi2::serve(Arc::clone(&service), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut metrics_client = Http1Client::connect(addr).unwrap();
    let before_idle = metrics_client.get("/metrics").unwrap().body;
    assert!(
        before_idle.contains("\"selector\":\"epoll\""),
        "{before_idle}"
    );

    // 100 connections that never send a byte. Half plain TCP, half
    // upgraded WebSockets (both sit in the same reactor registrations).
    let mut idle_tcp: Vec<std::net::TcpStream> = Vec::new();
    let mut idle_ws: Vec<WsClient> = Vec::new();
    for i in 0..100 {
        if i % 2 == 0 {
            idle_tcp.push(std::net::TcpStream::connect(addr).unwrap());
        } else {
            idle_ws.push(WsClient::connect(addr).unwrap());
        }
    }
    // Let the registrations settle, then measure scans across a 500 ms
    // idle window.
    std::thread::sleep(Duration::from_millis(100));
    let scans = |body: &str| -> u64 {
        body.split("\"connScans\":")
            .nth(1)
            .and_then(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("metrics lacks connScans: {body}"))
    };
    let start = scans(&metrics_client.get("/metrics").unwrap().body);
    std::thread::sleep(Duration::from_millis(500));
    let end = scans(&metrics_client.get("/metrics").unwrap().body);
    // The only permitted scans are the metrics connection's own request
    // processing (a handful); a reactor that scanned every connection on
    // each wakeup would add 100 per wakeup.
    assert!(
        end - start < 50,
        "idle connections were scanned under epoll: connScans {start} -> {end}"
    );
    let stats = server.stats();
    assert_eq!(stats.ws_connections, 50);
    server.shutdown();
}

//! The live-data serving contract, end to end over real TCP: a protocol
//! v2 `append` through `POST /v1` advances the catalogue epoch, re-executes
//! only the views whose query references the appended table (served
//! incrementally for supported shapes — `ivmHits` in `/metrics` proves the
//! path), and pushes each WebSocket subscriber a data patch byte-identical
//! to the one its own session would produce for the same append.

mod common;

use common::test_config;
use pi2::server::client::WsMessage;
use pi2::server::{Http1Client, ServerConfig, WsClient};
use pi2::{Catalog, DataType, Pi2Service, Request, Session, Table, Value};
use std::sync::Arc;
use std::time::Duration;

/// Two independent tables, so one append leaves the other table's view
/// untouched.
fn two_table_catalog() -> Catalog {
    let mut c = Catalog::new();
    let t_rows: Vec<Vec<Value>> = (0..24)
        .map(|i| vec![Value::Int(i % 4), Value::Int(10 * (i % 6))])
        .collect();
    let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], t_rows).unwrap();
    c.add_table("T", t, vec![]);
    let u_rows: Vec<Vec<Value>> = (0..24)
        .map(|i| vec![Value::Int(i % 3), Value::Int(7 * (i % 5))])
        .collect();
    let u = Table::from_rows(vec![("c", DataType::Int), ("d", DataType::Int)], u_rows).unwrap();
    c.add_table("U", u, vec![]);
    c
}

/// One view per table: the first query's shape is IVM-supported
/// (filter + group + aggregate), the second exists to stay untouched.
const SQLS: [&str; 2] = [
    "SELECT a, sum(b) FROM T GROUP BY a",
    "SELECT c, count(*) FROM U GROUP BY c",
];

fn live_service() -> (Arc<Pi2Service>, pi2::Generation) {
    let service = Arc::new(Pi2Service::new());
    let generation = service
        .register("live", two_table_catalog(), &SQLS, &test_config())
        .expect("register live workload");
    (service, generation)
}

fn delta_rows(vals: &[(i64, i64)]) -> Table {
    Table::from_rows(
        vec![("a", DataType::Int), ("b", DataType::Int)],
        vals.iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect(),
    )
    .unwrap()
}

fn append_request(table: &str, rows: Table) -> String {
    pi2::request_to_json(&Request::Append {
        workload: "live".to_string(),
        table: table.to_string(),
        rows,
    })
}

/// The `live{…}` counters are process-global (one `EvalCache` behind every
/// `Pi2Service` in the process), and the tests below register the same
/// catalogue, so they also share memo keys. Each test holds this lock for
/// its whole body and asserts counter *deltas* from its own starting
/// scrape: whatever another test did, before or not at all, cancels out.
static LIVE_STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn live_state() -> std::sync::MutexGuard<'static, ()> {
    // A sibling test that failed while holding the lock has already been
    // reported; the state it guards stays usable.
    LIVE_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn counter(body: &str, key: &str) -> u64 {
    body.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("metrics lacks {key}: {body}"))
}

/// The tentpole acceptance bar over HTTP: appends commit (epoch, row
/// counts echoed), supported shapes are served incrementally (`ivmHits`
/// rises), rejected appends leave the catalogue version alone, and open
/// sessions see the new rows.
#[test]
fn append_over_http_bumps_epoch_and_serves_ivm() {
    let _serial = live_state();
    let (service, generation) = live_service();
    let server = pi2::serve(Arc::clone(&service), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut http = Http1Client::connect(addr).unwrap();
    let start = http.get("/metrics").unwrap().body;
    let since_start = |metrics: &str, key: &str| counter(metrics, key) - counter(&start, key);

    // A session opened before the append: it must see appended rows on
    // its next fetch without any event being dispatched.
    let session = Session::open(&generation).unwrap();
    let before = session.execute().unwrap();

    let resp = http
        .post(
            "/v1",
            &append_request("T", delta_rows(&[(1, 100), (9, 50)])),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"type\":\"appended\""), "{}", resp.body);
    assert!(resp.body.contains("\"table\":\"T\""), "{}", resp.body);
    assert!(resp.body.contains("\"epoch\":1"), "{}", resp.body);
    assert!(resp.body.contains("\"rows\":2"), "{}", resp.body);
    assert!(resp.body.contains("\"totalRows\":26"), "{}", resp.body);

    // The pre-append session observes the new rows: group a=1 gains 100,
    // and the brand-new group a=9 appears. The U view is unchanged —
    // same result object, no re-execution.
    let after = session.execute().unwrap();
    assert_ne!(before[0], after[0], "T view must reflect the append");
    assert_eq!(before[1], after[1], "U view must be untouched");
    let sum_a1 = |t: &Table| -> f64 {
        (0..t.num_rows())
            .find(|&r| t.value(r, 0) == Value::Int(1))
            .and_then(|r| t.value(r, 1).as_f64())
            .expect("group a=1 present")
    };
    assert_eq!(sum_a1(&after[0]), sum_a1(&before[0]) + 100.0);
    assert!(
        (0..after[0].num_rows()).any(|r| after[0].value(r, 0) == Value::Int(9)),
        "the append's new group must appear"
    );

    // That fetch went through the IVM path (maintenance is lazy: the
    // append invalidates, the next fetch absorbs the delta): the
    // supported shape is an `ivmHit`, nothing fell back, and the append
    // counters reflect the commit.
    let metrics = http.get("/metrics").unwrap().body;
    assert!(metrics.contains("\"live\":{"), "{metrics}");
    assert_eq!(since_start(&metrics, "appendRows"), 2);
    assert_eq!(since_start(&metrics, "epochBumps"), 1);
    assert!(since_start(&metrics, "ivmHits") >= 1, "{metrics}");
    assert_eq!(since_start(&metrics, "ivmFallbacks"), 0, "{metrics}");

    // A second append keeps absorbing into the maintained state.
    let resp = http
        .post("/v1", &append_request("T", delta_rows(&[(2, 5)])))
        .unwrap();
    assert!(resp.body.contains("\"epoch\":2"), "{}", resp.body);

    // Appends the catalogue rejects are structured errors; the epoch
    // stays where it was.
    let resp = http
        .post("/v1", &append_request("nope", delta_rows(&[(0, 0)])))
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("\"code\":\"append\""), "{}", resp.body);
    let one_col = Table::from_rows(vec![("a", DataType::Int)], vec![vec![Value::Int(1)]]).unwrap();
    let resp = http
        .post(
            "/v1",
            &pi2::request_to_json(&Request::Append {
                workload: "live".to_string(),
                table: "T".to_string(),
                rows: one_col,
            }),
        )
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    let metrics = http.get("/metrics").unwrap().body;
    assert_eq!(
        since_start(&metrics, "epochBumps"),
        2,
        "rejected appends must not bump"
    );
    server.shutdown();
}

/// A column has one type over the wire too: an append whose declared
/// column type disagrees with the live table is an `append` error (422),
/// and a cell whose type disagrees with its declared column fails
/// decoding as a `protocol` error (400). Neither bumps the epoch, and the
/// live table keeps typed storage that reads back as before.
#[test]
fn mistyped_appends_are_rejected_and_the_table_stays_typed() {
    let _serial = live_state();
    let (service, generation) = live_service();
    let server = pi2::serve(Arc::clone(&service), ServerConfig::default()).unwrap();
    let mut http = Http1Client::connect(server.local_addr()).unwrap();
    let start = http.get("/metrics").unwrap().body;
    let session = Session::open(&generation).unwrap();
    let before = session.execute().unwrap();

    // `b` declared `str` where the live table's `b` is `int`.
    let str_b = Table::from_rows(
        vec![("a", DataType::Int), ("b", DataType::Str)],
        vec![vec![Value::Int(1), Value::Str("x".into())]],
    )
    .unwrap();
    let resp = http.post("/v1", &append_request("T", str_b)).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("\"code\":\"append\""), "{}", resp.body);
    assert!(
        resp.body.contains("type mismatch: expected int, found str"),
        "{}",
        resp.body
    );

    // `b` declared `int`, but one cell is a string, one a fraction.
    for cell in ["\"x\"", "2.5"] {
        let body = format!(
            "{{\"v\":2,\"type\":\"append\",\"workload\":\"live\",\"table\":\"T\",\
             \"rows\":{{\"rows\":1,\"columns\":[\
             {{\"name\":\"a\",\"type\":\"int\",\"values\":[1]}},\
             {{\"name\":\"b\",\"type\":\"int\",\"values\":[{cell}]}}]}}}}"
        );
        let resp = http.post("/v1", &body).unwrap();
        assert_eq!(resp.status, 400, "{cell}: {}", resp.body);
        assert!(resp.body.contains("\"code\":\"protocol\""), "{}", resp.body);
        assert!(
            resp.body.contains("column 'b': type mismatch"),
            "{}",
            resp.body
        );
    }

    let metrics = http.get("/metrics").unwrap().body;
    assert_eq!(
        counter(&metrics, "epochBumps"),
        counter(&start, "epochBumps"),
        "rejected appends must not bump"
    );
    let live = generation.live.snapshot();
    let t = &live.table("T").expect("T registered").table;
    assert_eq!(t.num_rows(), 24);
    for i in 0..t.num_columns() {
        assert_eq!(t.col(i).dtype(), DataType::Int, "column {i} stays typed");
    }
    let after = session.execute().unwrap();
    assert_eq!(before, after, "reads see the table as before");
    for (i, c) in after[0].schema.columns.iter().enumerate() {
        assert_eq!(after[0].col(i).dtype(), c.dtype, "{}", c.name);
    }
    server.shutdown();
}

/// The push half of the acceptance bar: an append fans out to WebSocket
/// subscribers a data patch covering exactly the affected views — the
/// untouched table's view produces no patch entry — and the pushed bytes
/// are identical to the data patch the subscriber's own session state
/// yields (same memo-shared result a fresh dispatch would serialize).
#[test]
fn append_pushes_data_patches_only_for_affected_views() {
    let _serial = live_state();
    let (service, generation) = live_service();
    let server = pi2::serve(Arc::clone(&service), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut peer = WsClient::connect(addr).unwrap();
    let open = peer
        .round_trip(&pi2::request_to_json(&Request::Open {
            workload: "live".to_string(),
        }))
        .unwrap();
    let peer_session = pi2::Json::parse(&open)
        .unwrap()
        .get("session")
        .and_then(pi2::Json::as_i64)
        .unwrap_or_else(|| panic!("open failed: {open}")) as u64;
    let sub = peer
        .round_trip(&pi2::request_to_json(&Request::Subscribe {
            session: peer_session,
        }))
        .unwrap();
    assert!(sub.contains("\"type\":\"subscribed\""), "{sub}");
    peer.set_read_timeout(Duration::from_secs(30)).unwrap();

    // A local session over the same shared generation, with the same
    // (initial) state as the subscriber: its own data patch is the
    // reference bytes the push must match.
    let reference_session = Session::open(&generation).unwrap();

    let mut http = Http1Client::connect(addr).unwrap();
    let resp = http
        .post("/v1", &append_request("T", delta_rows(&[(3, 77)])))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let pushed = match peer.read_message().unwrap() {
        WsMessage::Text(text) => text,
        other => panic!("expected a pushed data patch, got {other:?}"),
    };
    let reference = reference_session.data_patch("T").unwrap();
    assert_eq!(
        pushed,
        pi2::protocol::patch_to_json(&reference),
        "pushed bytes diverged from the subscriber's own data patch"
    );

    // Only the T view travels: every pushed view's query reads T, and
    // the U view — untouched by the append — produces no patch entry.
    let patch = pi2::patch_from_json(&pushed).unwrap();
    assert!(!patch.views.is_empty());
    assert!(patch.views.iter().all(|v| v.sql.contains("T")), "{pushed}");
    assert!(
        patch.views.len() < generation.interface.views.len(),
        "the untouched view must be omitted: {pushed}"
    );

    // Appending to the other table pushes the complementary patch.
    let u_rows = Table::from_rows(
        vec![("c", DataType::Int), ("d", DataType::Int)],
        vec![vec![Value::Int(0), Value::Int(1)]],
    )
    .unwrap();
    let resp = http.post("/v1", &append_request("U", u_rows)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let pushed = match peer.read_message().unwrap() {
        WsMessage::Text(text) => text,
        other => panic!("expected a pushed data patch, got {other:?}"),
    };
    let patch = pi2::patch_from_json(&pushed).unwrap();
    assert!(patch.views.iter().all(|v| v.sql.contains("U")), "{pushed}");
    server.shutdown();
}

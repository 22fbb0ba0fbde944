//! The load-generation harness behind the `loadgen` binary
//! (`tools/loadgen.rs`) and the `service/server_throughput` bench.
//!
//! Three pieces, each unit-testable without a network: building a
//! *recorded event mix* for a workload (an alternating cycle in which
//! every event changes some view's resolved query — replaying it forever
//! keeps producing non-empty patches), replaying that mix over N
//! concurrent keep-alive connections against a running server
//! ([`run_load`]), and summarizing per-request latencies into a
//! [`LoadReport`] (throughput + p50/p95/p99).

use pi2::server::{Http1Client, WsClient};
use pi2::{
    Event, Generation, GenerationConfig, InteractionChoice, Json, MctsConfig, Pi2, Request,
    Session, Table, Value, WidgetKind,
};
use pi2_workloads::big::big_catalog;
use pi2_workloads::{catalog, log, LogKind};
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The deterministic, CI-sized generation configuration the load and
/// service benches share.
pub fn bench_config() -> GenerationConfig {
    GenerationConfig {
        mcts: MctsConfig {
            workers: 2,
            max_iterations: 120,
            early_stop: 25,
            seed: 42,
            ..MctsConfig::default()
        },
        mapping: Default::default(),
    }
}

/// Generate one of the paper workloads under [`bench_config`].
pub fn generation_for(kind: LogKind) -> Generation {
    let l = log(kind);
    let refs: Vec<&str> = l.queries.iter().map(|s| s.as_str()).collect();
    Pi2::new(catalog())
        .generate_with(&refs, &bench_config())
        .unwrap_or_else(|e| panic!("generation failed for {}: {e}", l.name))
}

/// The big-tier query log: one bench shape with a spread of thresholds,
/// so the mapper mines a drivable interaction over the literal. Kept to a
/// single table — generation cost scales with the row count the caller
/// picks.
pub fn big_queries() -> Vec<String> {
    [700, 900, 1100]
        .iter()
        .map(|t| {
            format!("SELECT state, sum(cases) FROM covid_big WHERE deaths > {t} GROUP BY state")
        })
        .collect()
}

/// Generate an interface over the scaled big tier (`big_catalog(rows)`)
/// under [`bench_config`]: the `loadgen --rows` path, measuring end-to-end
/// serving latency when every event answers against `rows`-row tables
/// instead of the paper-scale ones.
pub fn big_generation(rows: usize) -> Generation {
    let queries = big_queries();
    let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
    Pi2::new(big_catalog(rows))
        .generate_with(&refs, &bench_config())
        .unwrap_or_else(|e| panic!("big-tier generation failed at {rows} rows: {e}"))
}

/// Whether a pair of events truly alternates session state: both must
/// dispatch, and on a second lap each must still produce a non-empty
/// patch. (Continuous payloads snap to the nearest *expressible* option —
/// two payloads can land on the same option and stop alternating, which
/// would silently bench an empty loop.)
fn alternates(probe: &mut Session, pair: &[Event; 2]) -> bool {
    if probe.dispatch(&pair[0]).is_err() || probe.dispatch(&pair[1]).is_err() {
        return false;
    }
    let again_a = probe.dispatch(&pair[0]);
    let again_b = probe.dispatch(&pair[1]);
    matches!((again_a, again_b), (Ok(pa), Ok(pb)) if !pa.is_empty() && !pb.is_empty())
}

/// An alternating event cycle: for each drivable interaction, pairs of
/// events toggling it between two distinct states, validated by probing a
/// scratch session. Replaying the cycle forever keeps changing queries, so
/// every dispatch emits a patch.
pub fn event_cycle(g: &Generation) -> Vec<Event> {
    let mut probe = g.session().expect("probe session");
    let mut cycle = Vec::new();
    for (ix, inst) in g.interface.interactions.iter().enumerate() {
        let pairs: Vec<[Event; 2]> = match &inst.choice {
            InteractionChoice::Widget { kind, domain, .. } => match kind {
                WidgetKind::Toggle => vec![[
                    Event::Toggle {
                        interaction: ix,
                        on: false,
                    },
                    Event::Toggle {
                        interaction: ix,
                        on: true,
                    },
                ]],
                _ if domain.size() >= 2 => vec![[
                    Event::Select {
                        interaction: ix,
                        option: 0,
                    },
                    Event::Select {
                        interaction: ix,
                        option: 1,
                    },
                ]],
                // Continuous widgets (sliders over a range) take value
                // payloads; the probe below keeps only pairs that truly
                // alternate.
                _ => vec![
                    [
                        Event::SetValues {
                            interaction: ix,
                            values: vec![Value::Int(10)],
                        },
                        Event::SetValues {
                            interaction: ix,
                            values: vec![Value::Int(20)],
                        },
                    ],
                    [
                        Event::SetValues {
                            interaction: ix,
                            values: vec![Value::Int(0)],
                        },
                        Event::SetValues {
                            interaction: ix,
                            values: vec![Value::Int(40)],
                        },
                    ],
                ],
            },
            InteractionChoice::Vis { .. } => {
                let ints = |a: i64, b: i64| Event::SetValues {
                    interaction: ix,
                    values: vec![Value::Int(a), Value::Int(b)],
                };
                let dates = |a: &str, b: &str| Event::SetValues {
                    interaction: ix,
                    values: vec![Value::Str(a.into()), Value::Str(b.into())],
                };
                vec![
                    [ints(20, 40), ints(30, 60)],
                    [ints(0, 10), ints(70, 100)],
                    [
                        dates("2019-01-01", "2019-01-31"),
                        dates("2019-02-01", "2019-02-28"),
                    ],
                    [
                        dates("2019-01-25", "2019-02-15"),
                        dates("2019-02-01", "2019-02-20"),
                    ],
                    [
                        Event::SetValues {
                            interaction: ix,
                            values: vec![
                                Value::Int(20),
                                Value::Int(40),
                                Value::Int(1),
                                Value::Int(3),
                            ],
                        },
                        Event::SetValues {
                            interaction: ix,
                            values: vec![
                                Value::Int(30),
                                Value::Int(60),
                                Value::Int(2),
                                Value::Int(4),
                            ],
                        },
                    ],
                ]
            }
        };
        // Keep every truly-alternating pair (not just the first): the
        // expensive views — e.g. the Sales correlated-HAVING tree — must
        // take part for the numbers to mean anything.
        for pair in pairs {
            if alternates(&mut probe, &pair) {
                cycle.extend(pair);
            }
        }
    }
    assert!(!cycle.is_empty(), "no drivable interaction pair found");
    cycle
}

/// `pct`-th percentile (0–100] of an ascending-sorted sample, by the
/// nearest-rank method. Empty samples yield 0.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The result of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrent sessions (connections) driven.
    pub sessions: usize,
    /// Total event requests sent.
    pub events: usize,
    /// Responses that were not `200` patches (protocol errors, transport
    /// rejections). A healthy run reports zero.
    pub errors: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Event latency percentiles, in nanoseconds (request write → full
    /// response read).
    pub p50_ns: u64,
    /// 95th percentile latency (ns).
    pub p95_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_ns: u64,
}

impl LoadReport {
    /// Sustained events/second across all sessions.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.events as f64 / self.elapsed.as_secs_f64()
    }

    /// Merge per-session latency samples into a report.
    pub fn from_latencies(
        sessions: usize,
        mut latencies_ns: Vec<u64>,
        errors: usize,
        elapsed: Duration,
    ) -> LoadReport {
        latencies_ns.sort_unstable();
        LoadReport {
            sessions,
            events: latencies_ns.len(),
            errors,
            elapsed,
            p50_ns: percentile(&latencies_ns, 50.0),
            p95_ns: percentile(&latencies_ns, 95.0),
            p99_ns: percentile(&latencies_ns, 99.0),
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}µs", ns as f64 / 1e3)
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sessions · {} events in {:.2}s · {:.0} events/s · \
             p50 {} · p95 {} · p99 {} · {} errors",
            self.sessions,
            self.events,
            self.elapsed.as_secs_f64(),
            self.throughput(),
            fmt_ns(self.p50_ns),
            fmt_ns(self.p95_ns),
            fmt_ns(self.p99_ns),
            self.errors,
        )
    }
}

/// The result of one WebSocket push-load run: request latency (the
/// writer's send → own response) and push latency (the writer's send →
/// a subscriber receiving its fanned-out patch) are separate
/// distributions — the second includes per-peer replay and the push lane
/// through the reactor.
#[derive(Debug, Clone)]
pub struct WsLoadReport {
    /// Subscribed peer connections (the writer is one more).
    pub subscribers: usize,
    /// Events the writer dispatched.
    pub events: usize,
    /// Pushed messages received across all subscribers (a clean run
    /// receives `subscribers × events`).
    pub pushes: usize,
    /// Writer responses or pushed messages that were not patches.
    pub errors: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Writer request latency percentiles (ns).
    pub request_p50_ns: u64,
    /// 95th percentile writer request latency (ns).
    pub request_p95_ns: u64,
    /// 99th percentile writer request latency (ns).
    pub request_p99_ns: u64,
    /// Push latency percentiles (ns): writer send → subscriber receive.
    pub push_p50_ns: u64,
    /// 95th percentile push latency (ns).
    pub push_p95_ns: u64,
    /// 99th percentile push latency (ns).
    pub push_p99_ns: u64,
}

impl WsLoadReport {
    /// Pushed messages delivered per second across all subscribers.
    pub fn push_throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.pushes as f64 / self.elapsed.as_secs_f64()
    }
}

impl fmt::Display for WsLoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "1 writer + {} subscribers · {} events · {} pushes in {:.2}s · \
             {:.0} pushes/s · request p50 {} p95 {} p99 {} · \
             push p50 {} p95 {} p99 {} · {} errors",
            self.subscribers,
            self.events,
            self.pushes,
            self.elapsed.as_secs_f64(),
            self.push_throughput(),
            fmt_ns(self.request_p50_ns),
            fmt_ns(self.request_p95_ns),
            fmt_ns(self.request_p99_ns),
            fmt_ns(self.push_p50_ns),
            fmt_ns(self.push_p95_ns),
            fmt_ns(self.push_p99_ns),
            self.errors,
        )
    }
}

/// Open a wire session over one WebSocket connection; returns the
/// session id.
pub fn open_ws_session(client: &mut WsClient, workload: &str) -> io::Result<u64> {
    let body = pi2::request_to_json(&Request::Open {
        workload: workload.to_string(),
    });
    let resp = client.round_trip(&body)?;
    let parsed = Json::parse(&resp)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    parsed
        .get("session")
        .and_then(Json::as_i64)
        .map(|id| id as u64)
        .ok_or_else(|| io::Error::other(format!("open over ws failed: {resp}")))
}

/// Drive the protocol v2 push fan-out against a running server: one
/// writer session replays `events` events from `cycle` while
/// `subscribers` WebSocket peers — each with its own wire session
/// subscribed to the shared workload channel — receive every resulting
/// patch as a server-initiated frame. Reports request and push latency
/// separately.
pub fn run_ws_load(
    addr: SocketAddr,
    workload: &str,
    cycle: &[Event],
    subscribers: usize,
    events: usize,
) -> io::Result<WsLoadReport> {
    let mut writer = WsClient::connect(addr)?;
    let writer_session = open_ws_session(&mut writer, workload)?;
    // Subscribe every peer before the first event so no push is missed.
    let mut peers: Vec<WsClient> = Vec::with_capacity(subscribers);
    for _ in 0..subscribers {
        let mut peer = WsClient::connect(addr)?;
        let session = open_ws_session(&mut peer, workload)?;
        let resp = peer.round_trip(&pi2::request_to_json(&Request::Subscribe { session }))?;
        if !resp.contains("\"type\":\"subscribed\"") {
            return Err(io::Error::other(format!("subscribe failed: {resp}")));
        }
        peers.push(peer);
    }

    // The writer stamps each event's send instant before writing it, so a
    // subscriber can compute push latency for the i-th push it receives
    // (pushes arrive in dispatch order per peer).
    let send_times: std::sync::Mutex<Vec<Instant>> = std::sync::Mutex::new(Vec::new());
    let start = Instant::now();
    let (request_result, push_results) = std::thread::scope(|scope| {
        let send_times = &send_times;
        let peer_handles: Vec<_> = peers
            .iter_mut()
            .map(|peer| {
                scope.spawn(move || -> io::Result<(Vec<u64>, usize)> {
                    let mut latencies = Vec::with_capacity(events);
                    let mut errors = 0;
                    for i in 0..events {
                        let msg = match peer.read_message()? {
                            pi2::server::client::WsMessage::Text(msg) => msg,
                            pi2::server::client::WsMessage::Closed(code) => {
                                return Err(io::Error::other(format!(
                                    "subscriber closed (code {code:?}) after {i} pushes"
                                )));
                            }
                        };
                        let sent = send_times.lock().unwrap()[i];
                        latencies.push(sent.elapsed().as_nanos() as u64);
                        if !msg.contains("\"type\":\"patch\"") {
                            errors += 1;
                        }
                    }
                    Ok((latencies, errors))
                })
            })
            .collect();
        let writer_result: io::Result<(Vec<u64>, usize)> = (|| {
            let mut latencies = Vec::with_capacity(events);
            let mut errors = 0;
            for i in 0..events {
                let body = pi2::request_to_json(&Request::Event {
                    session: writer_session,
                    event: cycle[i % cycle.len()].clone(),
                });
                let sent = Instant::now();
                send_times.lock().unwrap().push(sent);
                let resp = writer.round_trip(&body)?;
                latencies.push(sent.elapsed().as_nanos() as u64);
                if !resp.contains("\"type\":\"patch\"") {
                    errors += 1;
                }
            }
            Ok((latencies, errors))
        })();
        let push_results: Vec<io::Result<(Vec<u64>, usize)>> = peer_handles
            .into_iter()
            .map(|h| h.join().expect("subscriber thread panicked"))
            .collect();
        (writer_result, push_results)
    });
    let elapsed = start.elapsed();
    let (mut request_lat, mut errors) = request_result?;
    let mut push_lat = Vec::with_capacity(subscribers * events);
    for result in push_results {
        let (lats, errs) = result?;
        push_lat.extend(lats);
        errors += errs;
    }
    let pushes = push_lat.len();
    request_lat.sort_unstable();
    push_lat.sort_unstable();
    Ok(WsLoadReport {
        subscribers,
        events,
        pushes,
        errors,
        elapsed,
        request_p50_ns: percentile(&request_lat, 50.0),
        request_p95_ns: percentile(&request_lat, 95.0),
        request_p99_ns: percentile(&request_lat, 99.0),
        push_p50_ns: percentile(&push_lat, 50.0),
        push_p95_ns: percentile(&push_lat, 95.0),
        push_p99_ns: percentile(&push_lat, 99.0),
    })
}

/// Open a wire session over one connection; returns the session id.
pub fn open_session(client: &mut Http1Client, workload: &str) -> io::Result<u64> {
    let body = pi2::request_to_json(&Request::Open {
        workload: workload.to_string(),
    });
    let resp = client.post("/v1", &body)?;
    let parsed = Json::parse(&resp.body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if resp.status != 200 {
        return Err(io::Error::other(format!(
            "open failed with {}: {}",
            resp.status, resp.body
        )));
    }
    parsed
        .get("session")
        .and_then(Json::as_i64)
        .map(|id| id as u64)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "opened response lacks session"))
}

/// Replay `events_per_session` events (cycling through `cycle`) on one
/// open keep-alive connection; returns per-event latencies (ns) and the
/// error count.
pub fn replay_session(
    client: &mut Http1Client,
    session: u64,
    cycle: &[Event],
    events_per_session: usize,
) -> io::Result<(Vec<u64>, usize)> {
    let mut latencies = Vec::with_capacity(events_per_session);
    let mut errors = 0;
    for i in 0..events_per_session {
        let body = pi2::request_to_json(&Request::Event {
            session,
            event: cycle[i % cycle.len()].clone(),
        });
        let start = Instant::now();
        let resp = client.post("/v1", &body)?;
        latencies.push(start.elapsed().as_nanos() as u64);
        if resp.status != 200 || !resp.body.contains("\"type\":\"patch\"") {
            errors += 1;
        }
    }
    Ok((latencies, errors))
}

/// Drive `sessions` concurrent keep-alive connections against a running
/// server: each opens its own wire session over `workload`, replays
/// `events_per_session` events from the recorded `cycle`, and closes.
pub fn run_load(
    addr: SocketAddr,
    workload: &str,
    cycle: &[Event],
    sessions: usize,
    events_per_session: usize,
) -> io::Result<LoadReport> {
    let start = Instant::now();
    let results: Vec<io::Result<(Vec<u64>, usize)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Http1Client::connect(addr)?;
                    let session = open_session(&mut client, workload)?;
                    let out = replay_session(&mut client, session, cycle, events_per_session)?;
                    let close = pi2::request_to_json(&Request::Close { session });
                    let resp = client.post("/v1", &close)?;
                    if resp.status != 200 {
                        return Err(io::Error::other(format!(
                            "close failed with {}: {}",
                            resp.status, resp.body
                        )));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut latencies = Vec::with_capacity(sessions * events_per_session);
    let mut errors = 0;
    for result in results {
        let (lats, errs) = result?;
        latencies.extend(lats);
        errors += errs;
    }
    Ok(LoadReport::from_latencies(
        sessions, latencies, errors, elapsed,
    ))
}

/// Synthesize the append payload for a mixed (read/write) run: the first
/// catalogue table the workload's queries actually read (so every append
/// invalidates at least one view), with its first row duplicated as a
/// one-row delta — the schema matches by construction. `None` when no
/// referenced table has rows to clone.
pub fn append_payload(g: &Generation) -> Option<(String, Table)> {
    let referenced: std::collections::BTreeSet<String> = g
        .workload
        .queries
        .iter()
        .flat_map(pi2_engine::referenced_tables)
        .collect();
    let catalog = g.live.snapshot();
    for name in referenced {
        let Some(meta) = catalog.table(&name) else {
            continue;
        };
        if meta.table.num_rows() == 0 {
            continue;
        }
        let schema: Vec<(&str, pi2::DataType)> = meta
            .table
            .schema
            .columns
            .iter()
            .map(|c| (c.name.as_str(), c.dtype))
            .collect();
        let ncols = schema.len();
        let row: Vec<Value> = (0..ncols).map(|c| meta.table.value(0, c)).collect();
        let delta = Table::from_rows(schema, vec![row]).ok()?;
        return Some((meta.name.clone(), delta));
    }
    None
}

/// The read-vs-write split of a mixed load run. The two halves are
/// summarized separately because their latency profiles differ by
/// design: a read answers from the result memo (or IVM), while a write
/// pays catalogue versioning, eviction, and subscriber fan-out.
#[derive(Debug, Clone)]
pub struct MixedLoadReport {
    /// The read half — replayed widget events; `events` counts reads.
    pub read: LoadReport,
    /// The write half — interleaved appends; `events` counts appends.
    pub write: LoadReport,
}

impl MixedLoadReport {
    /// Total non-200 / wrong-shape responses across both halves.
    pub fn errors(&self) -> usize {
        self.read.errors + self.write.errors
    }
}

impl fmt::Display for MixedLoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reads: {} | appends: {}", self.read, self.write)
    }
}

/// One connection's half of a mixed run: latency samples and error
/// count per side.
#[derive(Debug, Default)]
pub struct MixedSamples {
    /// Per-read latencies (ns).
    pub reads: Vec<u64>,
    /// Per-append latencies (ns).
    pub writes: Vec<u64>,
    /// Non-200 / wrong-shape event responses.
    pub read_errors: usize,
    /// Non-200 / wrong-shape append responses.
    pub write_errors: usize,
}

/// Replay `events_per_session` requests on one keep-alive connection,
/// every `append_every`-th being a v2 `append` of `delta` to `table`
/// instead of a widget event.
#[allow(clippy::too_many_arguments)]
pub fn replay_session_mixed(
    client: &mut Http1Client,
    session: u64,
    workload: &str,
    cycle: &[Event],
    events_per_session: usize,
    append_every: usize,
    table: &str,
    delta: &Table,
) -> io::Result<MixedSamples> {
    let mut out = MixedSamples::default();
    for i in 0..events_per_session {
        let write = append_every > 0 && (i + 1) % append_every == 0;
        let (body, expect) = if write {
            (
                pi2::request_to_json(&Request::Append {
                    workload: workload.to_string(),
                    table: table.to_string(),
                    rows: delta.clone(),
                }),
                "\"type\":\"appended\"",
            )
        } else {
            (
                pi2::request_to_json(&Request::Event {
                    session,
                    event: cycle[i % cycle.len()].clone(),
                }),
                "\"type\":\"patch\"",
            )
        };
        let start = Instant::now();
        let resp = client.post("/v1", &body)?;
        let ns = start.elapsed().as_nanos() as u64;
        let bad = resp.status != 200 || !resp.body.contains(expect);
        if write {
            out.writes.push(ns);
            out.write_errors += bad as usize;
        } else {
            out.reads.push(ns);
            out.read_errors += bad as usize;
        }
    }
    Ok(out)
}

/// The mixed-load counterpart of [`run_load`]: `sessions` concurrent
/// connections each replay the recorded mix with every `append_every`-th
/// request swapped for an append of `delta` to `table`. Read and write
/// latencies are reported as separate distributions.
#[allow(clippy::too_many_arguments)]
pub fn run_mixed_load(
    addr: SocketAddr,
    workload: &str,
    cycle: &[Event],
    sessions: usize,
    events_per_session: usize,
    append_every: usize,
    table: &str,
    delta: &Table,
) -> io::Result<MixedLoadReport> {
    let start = Instant::now();
    let results: Vec<io::Result<MixedSamples>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Http1Client::connect(addr)?;
                    let session = open_session(&mut client, workload)?;
                    let out = replay_session_mixed(
                        &mut client,
                        session,
                        workload,
                        cycle,
                        events_per_session,
                        append_every,
                        table,
                        delta,
                    )?;
                    let close = pi2::request_to_json(&Request::Close { session });
                    let resp = client.post("/v1", &close)?;
                    if resp.status != 200 {
                        return Err(io::Error::other(format!(
                            "close failed with {}: {}",
                            resp.status, resp.body
                        )));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut merged = MixedSamples::default();
    for result in results {
        let samples = result?;
        merged.reads.extend(samples.reads);
        merged.writes.extend(samples.writes);
        merged.read_errors += samples.read_errors;
        merged.write_errors += samples.write_errors;
    }
    Ok(MixedLoadReport {
        read: LoadReport::from_latencies(sessions, merged.reads, merged.read_errors, elapsed),
        write: LoadReport::from_latencies(sessions, merged.writes, merged.write_errors, elapsed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2::server::ServerConfig;
    use pi2::{Pi2Service, Table};
    use pi2_data::{Catalog, DataType};
    use std::sync::Arc;

    #[test]
    fn percentile_uses_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50.0), 50);
        assert_eq!(percentile(&sample, 95.0), 95);
        assert_eq!(percentile(&sample, 99.0), 99);
        assert_eq!(percentile(&sample, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn report_summarizes_and_formats() {
        let report = LoadReport::from_latencies(
            4,
            vec![5_000, 1_000, 3_000, 2_000_000],
            1,
            Duration::from_secs(2),
        );
        assert_eq!(report.events, 4);
        assert_eq!(report.p50_ns, 3_000);
        assert_eq!(report.p99_ns, 2_000_000);
        assert_eq!(report.throughput(), 2.0);
        let text = report.to_string();
        assert!(text.contains("p99 2.00ms"), "{text}");
        assert!(text.contains("1 errors"), "{text}");
    }

    /// The `--rows` path at toy scale: generation over a scaled big tier
    /// yields a drivable interface whose recorded mix dispatches cleanly.
    #[test]
    fn big_tier_generation_drives_sessions() {
        let generation = big_generation(2_000);
        let cycle = event_cycle(&generation);
        let mut session = generation.session().unwrap();
        for event in cycle.iter().take(4) {
            session.dispatch(event).unwrap();
        }
    }

    /// End to end over loopback on a tiny synthetic workload: N sessions
    /// replay a recorded mix with zero protocol errors.
    #[test]
    fn load_run_over_tcp_reports_zero_errors() {
        let mut catalog = Catalog::new();
        let rows: Vec<Vec<pi2::Value>> = (0..24)
            .map(|i| vec![pi2::Value::Int(i % 4), pi2::Value::Int(10 * (i % 6))])
            .collect();
        let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap();
        catalog.add_table("T", t, vec![]);
        let service = Arc::new(Pi2Service::new());
        let generation = service
            .register(
                "tiny",
                catalog,
                &[
                    "SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a",
                    "SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a",
                ],
                &GenerationConfig::quick(),
            )
            .unwrap();
        let cycle = event_cycle(&generation);
        let server = pi2::serve(Arc::clone(&service), ServerConfig::default()).unwrap();
        let report = run_load(server.local_addr(), "tiny", &cycle, 4, 12).unwrap();
        assert_eq!(report.sessions, 4);
        assert_eq!(report.events, 48);
        assert_eq!(report.errors, 0, "{report}");
        assert!(report.p99_ns >= report.p50_ns);
        server.shutdown();
    }

    /// The `--append-every` path end to end: every third request is an
    /// append, both halves report separately, and nothing errors — the
    /// append-mix smoke CI runs at larger scale.
    #[test]
    fn mixed_load_run_splits_reads_from_writes() {
        let mut catalog = Catalog::new();
        let rows: Vec<Vec<pi2::Value>> = (0..24)
            .map(|i| vec![pi2::Value::Int(i % 4), pi2::Value::Int(10 * (i % 6))])
            .collect();
        let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap();
        catalog.add_table("T", t, vec![]);
        let service = Arc::new(Pi2Service::new());
        let generation = service
            .register(
                "tiny",
                catalog,
                &[
                    "SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a",
                    "SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a",
                ],
                &GenerationConfig::quick(),
            )
            .unwrap();
        let cycle = event_cycle(&generation);
        let (table, delta) = append_payload(&generation).expect("T is referenced and non-empty");
        assert_eq!(table, "T");
        assert_eq!(delta.num_rows(), 1);
        let server = pi2::serve(Arc::clone(&service), ServerConfig::default()).unwrap();
        let report = run_mixed_load(
            server.local_addr(),
            "tiny",
            &cycle,
            3,
            12,
            3,
            &table,
            &delta,
        )
        .unwrap();
        // Every 3rd of 12 requests per session is an append: 4 writes,
        // 8 reads, times 3 sessions.
        assert_eq!(report.write.events, 12, "{report}");
        assert_eq!(report.read.events, 24, "{report}");
        assert_eq!(report.errors(), 0, "{report}");
        let text = report.to_string();
        assert!(
            text.contains("reads: ") && text.contains("appends: "),
            "{text}"
        );
        server.shutdown();
    }

    /// The WebSocket push path end to end: one writer, N subscribed
    /// peers, every dispatch fanned out to every peer with zero errors.
    #[test]
    fn ws_load_run_fans_out_every_event() {
        let mut catalog = Catalog::new();
        let rows: Vec<Vec<pi2::Value>> = (0..24)
            .map(|i| vec![pi2::Value::Int(i % 4), pi2::Value::Int(10 * (i % 6))])
            .collect();
        let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap();
        catalog.add_table("T", t, vec![]);
        let service = Arc::new(Pi2Service::new());
        let generation = service
            .register(
                "tiny",
                catalog,
                &[
                    "SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a",
                    "SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a",
                ],
                &GenerationConfig::quick(),
            )
            .unwrap();
        let cycle = event_cycle(&generation);
        let server = pi2::serve(Arc::clone(&service), ServerConfig::default()).unwrap();
        let report = run_ws_load(server.local_addr(), "tiny", &cycle, 3, 8).unwrap();
        assert_eq!(report.subscribers, 3);
        assert_eq!(report.events, 8);
        assert_eq!(report.pushes, 24, "{report}");
        assert_eq!(report.errors, 0, "{report}");
        assert!(report.push_p99_ns >= report.push_p50_ns);
        let text = report.to_string();
        assert!(text.contains("push p50"), "{text}");
        server.shutdown();
    }
}

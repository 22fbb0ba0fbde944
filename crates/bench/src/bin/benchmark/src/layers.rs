//! The traced run of a serving workload: where the end-to-end time goes,
//! layer by layer, measured from outside the product.
//!
//! Three sources, all in the benchmark's own files: (1) a count-based
//! wire phase against the server child with `GET /metrics` scraped before
//! and after, for program-side counts and wire-level latencies; (2) the
//! same inputs replayed in-process, with a span around each public call
//! (`request_from_json`, `Session::dispatch`, `patch_to_json`,
//! `Pi2Service::handle_json`, `Pi2Service::append`, `execute`); (3) the
//! set-up's own generation, stage by stage.

use crate::mix::{append_rows, covid_big_rows};
use crate::report::{Outcome, RunArgs};
use crate::scenario::{generate_staged, serving_config};
use crate::serve::{delta, Kind, Local, Phase, Plan, Stage, Stop};
use crate::span::Recorder;
use crate::stats::{median, whole_percentile_us};
use pi2::{patch_to_json, request_from_json, request_to_json, Event, Json, Pi2Service, Request};
use pi2_engine::{execute, referenced_tables, ExecContext};
use pi2_sql::parse_query;
use std::sync::Arc;

/// Units (events; cycles on `live_append`) of the count-based wire phase
/// and of the in-process replay at `--seconds 10`; both scale with
/// `--seconds`.
fn counts(kind: Kind, seconds: u64) -> (u64, u64) {
    let (wire, replay) = match kind {
        Kind::ServeWarm => (40_000, 20_000),
        Kind::PushWs => (20_000, 20_000),
        Kind::ServeScan => (160, 80),
        Kind::LiveAppend => (16, 8),
    };
    let scale = |n: u64| (n * seconds / 10).max(4);
    (scale(wire), scale(replay))
}

/// The box the numbers were taken on, as the run itself sees it.
pub fn reference_box() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": \"{}\", \"rustc\": \"{rustc}\", \"cpu\": \"{cpu}\", \
         \"simd\": \"{:?}\"}}",
        read("/proc/sys/kernel/osrelease"),
        pi2_data::kernels::simd_level(),
    )
}

fn p50_us(samples: &[crate::stats::Sample]) -> f64 {
    whole_percentile_us(samples, 50.0)
}

/// Wire-level numbers of the count-based phase.
fn wire_metrics(kind: Kind, phase: &Phase, out: &mut Outcome) {
    out.layer(
        "wire.events_per_s",
        "1/s",
        phase.ops.len() as f64 / (phase.wall_ns as f64 / 1e9),
    );
    out.layer("wire.p50_us", "us", p50_us(&phase.primary));
    out.layer(
        "wire.p99_us",
        "us",
        whole_percentile_us(&phase.primary, 99.0),
    );
    match kind {
        Kind::ServeWarm => {}
        Kind::ServeScan => {
            out.layer("wire.scan_p50_us", "us", p50_us(&phase.scan));
            out.layer("wire.join_p50_us", "us", p50_us(&phase.join));
        }
        Kind::LiveAppend => {
            out.layer("wire.append_p50_us", "us", p50_us(&phase.append));
            out.layer("wire.push_p50_us", "us", p50_us(&phase.push));
            out.layer("server.push_lag_us", "us", p50_us(&phase.push_lag));
        }
        Kind::PushWs => {
            out.layer("wire.request_p50_us", "us", p50_us(&phase.request));
            out.layer("wire.push_p50_us", "us", p50_us(&phase.push));
            out.layer(
                "wire.push_p99_us",
                "us",
                whole_percentile_us(&phase.push, 99.0),
            );
        }
    }
}

/// Program-side counts: the difference between two `/metrics` scrapes.
fn count_metrics(before: &[(String, f64)], after: &[(String, f64)], out: &mut Outcome) {
    let d = |key: &str| delta(before, after, key);
    let ratio = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };
    out.layer(
        "core.memo_hit_ratio",
        "ratio",
        ratio(
            d("service.resultCache.hits"),
            d("service.resultCache.misses"),
        ),
    );
    out.layer(
        "engine.ivm_hit_ratio",
        "ratio",
        ratio(d("service.live.ivmHits"), d("service.live.ivmFallbacks")),
    );
    out.layer("data.append_rows", "count", d("service.live.appendRows"));
    out.layer(
        "core.invalidated_views",
        "count",
        d("service.live.invalidatedViews"),
    );
    out.layer("core.push_delivered", "count", d("service.push.delivered"));
    out.layer("server.requests", "count", d("server.requests"));
    out.layer(
        "server.backpressure",
        "count",
        d("server.backpressureRejections"),
    );
    out.layer("server.rejected", "count", d("server.rejectedConnections"));
    out.layer("server.push_evictions", "count", d("server.pushEvictions"));
    out.layer("server.conn_scans", "count", d("server.connScans"));
}

/// The in-process twin of the server child: the same generation behind a
/// `Pi2Service`, one wire session, optionally one subscribed peer.
struct Twin {
    service: Pi2Service,
    session: u64,
}

impl Twin {
    fn open(local: &Local, with_peer: bool) -> Result<Twin, String> {
        let name = local.tier.name();
        let service = Pi2Service::new();
        service
            .register_generation(name, local.generation.clone())
            .map_err(|e| format!("register: {e}"))?;
        let open = |service: &Pi2Service| -> Result<u64, String> {
            let resp = service.handle_json(&request_to_json(&Request::Open {
                workload: name.to_string(),
            }));
            Json::parse(&resp)
                .ok()
                .and_then(|j| j.get("session").and_then(Json::as_i64))
                .map(|id| id as u64)
                .ok_or_else(|| format!("in-process open failed: {resp:.160}"))
        };
        if with_peer {
            // A subscriber whose connection swallows every push: the
            // writer's `handle_json` then pays the peer re-dispatch, as it
            // does on the server.
            let peer = open(&service)?;
            service
                .push_hub()
                .subscribe(peer, 1, Arc::new(|_conn, _body| true));
        }
        let session = open(&service)?;
        Ok(Twin { service, session })
    }

    fn body(&self, event: &Event) -> String {
        request_to_json(&Request::Event {
            session: self.session,
            event: event.clone(),
        })
    }

    /// One event through `handle_json` as a whole.
    fn whole(&self, rec: &mut Recorder, op: u64, body: &str) -> String {
        rec.time("core.handle_json", op, |_| self.service.handle_json(body))
    }

    /// One event through the same path call by call.
    fn staged(&self, rec: &mut Recorder, op: u64, body: &str) -> Result<String, String> {
        rec.time("core.staged", op, |rec| {
            let request = rec
                .time("core.decode", op, |_| request_from_json(body))
                .map_err(|e| format!("decode: {e}"))?;
            let Request::Event { session, event } = request else {
                return Err("not an event".into());
            };
            let slot = self
                .service
                .wire_session(session)
                .ok_or("in-process session vanished")?;
            let patch = rec
                .time("core.dispatch", op, |_| slot.lock().dispatch(&event))
                .map_err(|e| format!("dispatch: {e}"))?;
            Ok(rec.time("core.encode", op, |_| patch_to_json(&patch)))
        })
    }
}

/// Replay `events` in-process, alternating between the staged call and
/// the whole one in blocks of `block` events (the two never see the same
/// event, so a memo-miss workload stays a memo-miss workload); `block` 0
/// sends every event through the whole call. Returns the response bodies.
fn replay(
    twin: &Twin,
    rec: &mut Recorder,
    events: impl Iterator<Item = Event>,
    block: usize,
    out: &mut Outcome,
) -> Vec<String> {
    let mut bodies = Vec::new();
    for (i, event) in events.enumerate() {
        let body = twin.body(&event);
        let resp = if block > 0 && (i / block).is_multiple_of(2) {
            twin.staged(rec, i as u64, &body)
        } else {
            Ok(twin.whole(rec, i as u64, &body))
        };
        match resp {
            Ok(resp) => {
                out.check(if crate::verify::is_nonempty_patch(&resp) {
                    Ok(())
                } else {
                    Err(format!("in-process event {i}: {resp:.120}"))
                });
                bodies.push(resp);
            }
            Err(why) => out.check(Err(format!("in-process event {i}: {why}"))),
        }
    }
    bodies
}

/// `core.*` from the replay's spans.
fn core_metrics(rec: &Recorder, bodies: &[String], out: &mut Outcome) {
    let med = |name: &str| median(&rec.durations_us(name));
    let (decode, dispatch, encode) = (med("core.decode"), med("core.dispatch"), med("core.encode"));
    let whole = med("core.handle_json");
    out.layer("core.decode_us", "us", decode);
    out.layer("core.dispatch_us", "us", dispatch);
    out.layer("core.encode_us", "us", encode);
    out.layer("core.handle_json_us", "us", whole);
    out.layer(
        "core.resp_bytes",
        "bytes",
        bodies.iter().map(String::len).sum::<usize>() as f64 / bodies.len().max(1) as f64,
    );
    // Coverage compares like with like: the staged and the whole call see
    // the same number of events of the same shapes, so the mean stage time
    // over the mean whole time is the share of `handle_json` the three
    // stages account for. (Medians would compare different shapes on a
    // bimodal mix.)
    let mean = |name: &str| {
        let d = rec.durations_us(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    out.layer(
        "core.trace_coverage",
        "ratio",
        (mean("core.decode") + mean("core.dispatch") + mean("core.encode"))
            / mean("core.handle_json"),
    );
}

/// Execute view queries directly: default width and pinned to one thread.
fn engine_metrics(
    local_catalog: &pi2::Catalog,
    sqls: &[String],
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let ctx = ExecContext::new(local_catalog);
    let mut rows = 0f64;
    for (i, sql) in sqls.iter().enumerate() {
        let query = parse_query(sql).map_err(|e| format!("{sql}: {e}"))?;
        let join = query.from.len() > 1;
        rows += referenced_tables(&query)
            .iter()
            .filter_map(|t| local_catalog.table(t))
            .map(|m| m.table.num_rows() as f64)
            .sum::<f64>();
        let shape = if join {
            "engine.exec_join"
        } else {
            "engine.exec_scan"
        };
        rec.time("engine.exec", i as u64, |rec| {
            rec.time(shape, i as u64, |_| {
                execute(&query, &ctx).map(std::hint::black_box)
            })
        })
        .map_err(|e| format!("{sql}: {e}"))?;
        rec.time("engine.exec_w1", i as u64, |_| {
            execute(&query, &ctx.with_parallelism(1)).map(std::hint::black_box)
        })
        .map_err(|e| format!("{sql}: {e}"))?;
    }
    let total = |name: &str| rec.durations_us(name).iter().sum::<f64>();
    let med = |name: &str| {
        let d = rec.durations_us(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    out.layer("engine.exec_us", "us", med("engine.exec"));
    out.layer("engine.exec_scan_us", "us", med("engine.exec_scan"));
    out.layer("engine.exec_join_us", "us", med("engine.exec_join"));
    out.layer("engine.exec_w1_us", "us", med("engine.exec_w1"));
    out.layer(
        "engine.par_speedup",
        "ratio",
        total("engine.exec_w1") / total("engine.exec"),
    );
    out.layer(
        "engine.rows_per_s",
        "1/s",
        rows / (total("engine.exec") / 1e6),
    );
    Ok(())
}

/// Distinct view SQL carried by response bodies, in first-seen order,
/// keeping at most `cap` per query shape (scan / join).
fn sample_sqls(bodies: &[String], cap: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let (mut scans, mut joins) = (0, 0);
    for body in bodies {
        let Ok(patch) = pi2::patch_from_json(body) else {
            continue;
        };
        for v in patch.views {
            if out.contains(&v.sql) {
                continue;
            }
            let n = if v.sql.contains(" AS o, ") {
                &mut joins
            } else {
                &mut scans
            };
            if *n < cap {
                *n += 1;
                out.push(v.sql);
            }
        }
    }
    out
}

pub fn run_traced(kind: Kind, args: &RunArgs, rec: &mut Recorder) -> Result<Outcome, String> {
    let tier = kind.tier();
    let mut out = Outcome::new(args);
    let (wire_ops, replay_ops) = counts(kind, args.seconds);

    // The set-up's own generation, stage by stage: the first search in
    // this process, so it is as cold as the server child's.
    let staged = generate_staged(rec, tier.catalog(), &tier.queries(), &serving_config())?;
    let ms = |name: &str| rec.durations_us(name).iter().sum::<f64>() / 1e3;
    out.layer("sql.parse_ms", "ms", ms("sql.parse"));
    out.layer("sql.queries", "count", staged.workload.queries.len() as f64);
    out.layer("difftree.lower_ms", "ms", ms("difftree.lower"));
    out.layer("search.mcts_ms", "ms", ms("search.mcts"));
    out.layer("search.iterations", "count", staged.stats.iterations as f64);
    out.layer(
        "search.states_evaluated",
        "count",
        staged.stats.states_evaluated as f64,
    );
    out.layer("interface.map_ms", "ms", ms("interface.map"));
    out.layer("gen.cost", "cost", staged.cost);
    drop(staged);

    // One set-up, then the count-based wire phase between two scrapes.
    let (mut local, mut plan) = (None, None);
    let mut stage = Stage::open(kind, args.seed, &mut local, &mut plan)?;
    let (local, plan) = (local.expect("built"), plan.expect("built"));
    let before = stage.scrape()?;
    let phase = stage.run(&plan, args.seed, Stop::Count(wire_ops))?;
    let after = stage.scrape()?;
    if let Some((selector, _)) = after.iter().find(|(k, _)| k.starts_with("selector=")) {
        out.note("server", selector);
    }
    crate::serve::verify(kind, &phase, &plan, &local, args.seed, &stage, &mut out);
    wire_metrics(kind, &phase, &mut out);
    count_metrics(&before, &after, &mut out);
    for (name, value) in plan.mix() {
        out.layer(name, "count", value);
    }
    drop(stage);

    // The same inputs in-process, under spans.
    let twin = Twin::open(&local, kind == Kind::PushWs)?;
    let sqls = match &plan {
        Plan::Cycle(cycle) => {
            let n = cycle.events.len();
            // Two untimed laps fill the memos (the wire's further laps
            // only settle the connection).
            for e in cycle.events.iter().cycle().take(2 * n) {
                twin.service.handle_json(&twin.body(e));
            }
            let events = cycle
                .events
                .iter()
                .cycle()
                .take(replay_ops as usize)
                .cloned();
            let bodies = replay(&twin, rec, events, 1, &mut out);
            core_metrics(rec, &bodies, &mut out);
            sample_sqls(&bodies, 32)
        }
        Plan::Scan {
            deaths,
            amount,
            scan_ts,
            join_ts,
        } => {
            let events = (0..replay_ops as usize).map(|i| {
                if i % 4 == 3 {
                    amount.event(join_ts[i / 4])
                } else {
                    deaths.event(scan_ts[i / 4 * 3 + i % 4])
                }
            });
            let bodies = replay(&twin, rec, events, 4, &mut out);
            core_metrics(rec, &bodies, &mut out);
            sample_sqls(&bodies, 12)
        }
        Plan::Live { deaths, reads } => {
            let name = tier.name();
            let events: Vec<Event> = reads.iter().map(|t| deaths.event(*t)).collect();
            for e in &events {
                twin.service.handle_json(&twin.body(e));
            }
            let session = twin
                .service
                .wire_session(twin.session)
                .ok_or("in-process session vanished")?;
            let mut bodies = Vec::new();
            // Cycle 0 builds the IVM bases and is not recorded.
            let mut scratch = Recorder::new();
            for k in 0..=replay_ops {
                let rec = if k == 0 { &mut scratch } else { &mut *rec };
                let rows = covid_big_rows(append_rows(args.seed, k));
                let appended = rec.time("data.append", k, |_| {
                    twin.service.append(name, "covid_big", rows)
                });
                out.check(appended.map(|_| ()).map_err(|e| format!("append {k}: {e}")));
                let refreshed = rec.time("engine.ivm_read", k, |_| session.lock().refresh());
                out.check(
                    refreshed
                        .map(|_| ())
                        .map_err(|e| format!("refresh {k}: {e}")),
                );
                // Even cycles go call by call, odd ones through
                // `handle_json` whole.
                let block = if k % 2 == 0 { usize::MAX } else { 0 };
                let got = replay(&twin, rec, events.iter().cloned(), block, &mut out);
                if k == 0 {
                    continue;
                }
                bodies.extend(got);
                // The session's current query from scratch: what IVM saves.
                let sql = {
                    let s = session.lock();
                    (0..)
                        .map_while(|t| s.sql_for_tree(t).map(str::to_string))
                        .find(|sql| sql.contains("covid_big"))
                        .ok_or("no view over covid_big")?
                };
                let query = parse_query(&sql).map_err(|e| format!("{sql}: {e}"))?;
                let snapshot = local_snapshot(&twin, name)?;
                rec.time("engine.rescan", k, |_| {
                    execute(&query, &ExecContext::new(&snapshot)).map(std::hint::black_box)
                })
                .map_err(|e| format!("{sql}: {e}"))?;
            }
            core_metrics(rec, &bodies, &mut out);
            let med = |name: &str| median(&rec.durations_us(name));
            out.layer("data.append_us", "us", med("data.append"));
            out.layer("engine.ivm_read_us", "us", med("engine.ivm_read"));
            out.layer("engine.rescan_us", "us", med("engine.rescan"));
            sample_sqls(&bodies, 8)
        }
    };
    let catalog = local_snapshot(&twin, tier.name())?;
    engine_metrics(&catalog, &sqls, rec, &mut out)?;

    // What is left of the wire latency once the protocol work is taken out:
    // socket, framing, mailbox wait, worker hop, write.
    if let (Some(p50), Some(handle)) = (out.get("wire.p50_us"), out.get("core.handle_json_us")) {
        let wire = if kind == Kind::PushWs {
            out.get("wire.request_p50_us").unwrap_or(p50)
        } else {
            p50
        };
        out.layer("server.transport_us", "us", wire - handle);
    }
    reconcile(kind, &mut out);
    Ok(out)
}

/// The twin's current catalogue version.
fn local_snapshot(twin: &Twin, name: &str) -> Result<Arc<pi2::Catalog>, String> {
    twin.service
        .generation(name)
        .map(|g| g.live.snapshot())
        .ok_or_else(|| "in-process workload vanished".to_string())
}

/// Does the workload load the layer it was built for? Count-based
/// conditions repeat exactly and fail the run; timing-based ones are
/// recorded.
fn reconcile(kind: Kind, out: &mut Outcome) {
    let get = |out: &Outcome, name: &str| out.get(name).unwrap_or(f64::NAN);
    let memo = get(out, "core.memo_hit_ratio");
    match kind {
        Kind::ServeWarm | Kind::PushWs => out.check(if memo >= 0.99 {
            Ok(())
        } else {
            Err(format!(
                "core.memo_hit_ratio {memo:.4} < 0.99: not a memo-hit workload"
            ))
        }),
        Kind::ServeScan => out.check(if memo <= 0.05 {
            Ok(())
        } else {
            Err(format!(
                "core.memo_hit_ratio {memo:.4} > 0.05: not a memo-miss workload"
            ))
        }),
        Kind::LiveAppend => {
            let ivm = get(out, "engine.ivm_hit_ratio");
            out.check(if ivm >= 0.9 {
                Ok(())
            } else {
                Err(format!(
                    "engine.ivm_hit_ratio {ivm:.4} < 0.9: reads do not take the IVM path"
                ))
            })
        }
    }
    let coverage = get(out, "core.trace_coverage");
    out.note(
        "reconcile.core_trace_coverage",
        match kind {
            // `handle_json` also re-dispatches for the subscribed peer; no
            // public call isolates that, so it shows as missing coverage.
            Kind::PushWs => format!("peer fan-out is {:.3} of handle_json", 1.0 - coverage),
            _ if (0.9..=1.1).contains(&coverage) => "within 0.9-1.1".to_string(),
            _ => "OUTSIDE 0.9-1.1".to_string(),
        },
    );
    let share = match kind {
        Kind::ServeScan => Some(("engine.exec_us", get(out, "engine.exec_us"), 0.9)),
        Kind::ServeWarm => Some(("server.transport_us", get(out, "server.transport_us"), 0.5)),
        _ => None,
    };
    if let Some((name, value, floor)) = share {
        let of = value / get(out, "wire.p50_us");
        out.note(
            "reconcile.layer_share",
            format!("{name} is {of:.3} of wire.p50_us (expected >= {floor})"),
        );
    }
}

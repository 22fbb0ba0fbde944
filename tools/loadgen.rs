//! Load generator for the PI2 HTTP server (logic in `pi2_bench::load`).
//!
//! ```text
//! loadgen [--workload covid|sales|…] [--rows N] [--sessions 8]
//!         [--events 200] [--addr HOST:PORT] [--ws]
//!         [--append-every N] [--fail-on-errors]
//! ```
//!
//! Without `--addr`, boots an in-process `pi2::server` over loopback,
//! registers the workload, and drives it — the self-contained mode CI's
//! `server-smoke` step uses. With `--addr`, targets an already-running
//! server that has the same workload registered under the same name (the
//! event mix is still recorded from a local generation with the bench
//! seed, so both sides agree on the interface).
//!
//! `--rows N` swaps the paper workload for the big tier: the interface is
//! generated over `big_catalog(N)` (registered as workload `big`), so the
//! reported latencies measure end-to-end serving when every widget event
//! answers against N-row tables — the in-engine `engine/exec_big_*`
//! numbers with the wire protocol and session machinery on top.
//!
//! Each of the N sessions opens its own keep-alive connection, replays the
//! recorded event mix, and closes; the report prints throughput and
//! p50/p95/p99 per-event latency. Exit status is non-zero under
//! `--fail-on-errors` when any response was not a `200` patch.
//!
//! `--ws` switches to the protocol v2 push mode: one writer session
//! replays the mix over a WebSocket while `--sessions` subscriber
//! connections (each with its own wire session, subscribed to the shared
//! workload channel) receive every resulting patch as a server-initiated
//! frame. The report then carries *two* latency distributions — request
//! (writer send → own response) and push (writer send → subscriber
//! receive) — since push latency is the figure of merit for streaming.
//!
//! `--append-every N` mixes writes into the replay: every Nth request
//! per session becomes a protocol v2 `append` of one synthesized row to
//! a table the workload's queries read (so each write invalidates at
//! least one view). Read and write latency percentiles are reported as
//! separate distributions — an append pays catalogue versioning and
//! fan-out that a memo-served read never sees. CI's append-mix smoke
//! runs this with `--fail-on-errors`.

use pi2::server::ServerConfig;
use pi2::Pi2Service;
use pi2_bench::load;
use pi2_workloads::{all_logs, log, LogKind};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen [--workload covid] [--rows N] [--sessions 8] [--events 200] \
         [--addr HOST:PORT] [--ws] [--append-every N] [--fail-on-errors]"
    );
    ExitCode::from(2)
}

fn kind_by_name(name: &str) -> Option<LogKind> {
    all_logs()
        .iter()
        .map(|l| l.kind)
        .find(|k| log(*k).name == name)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = "covid".to_string();
    let mut rows: Option<usize> = None;
    let mut sessions: usize = 8;
    let mut events: usize = 200;
    let mut addr: Option<String> = None;
    let mut ws = false;
    let mut append_every: usize = 0;
    let mut fail_on_errors = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => match it.next() {
                Some(v) => workload = v.clone(),
                None => return usage(),
            },
            "--rows" => match it.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                Some(v) => rows = Some(v),
                None => return usage(),
            },
            "--sessions" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => sessions = v,
                None => return usage(),
            },
            "--events" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => events = v,
                None => return usage(),
            },
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return usage(),
            },
            "--ws" => ws = true,
            "--append-every" => match it.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                Some(v) => append_every = v,
                None => return usage(),
            },
            "--fail-on-errors" => fail_on_errors = true,
            _ => return usage(),
        }
    }
    if append_every > 0 && ws {
        eprintln!("loadgen: --append-every drives the HTTP path; drop --ws");
        return ExitCode::from(2);
    }
    let generation = match rows {
        Some(n) => {
            workload = "big".to_string();
            eprintln!("loadgen: generating big-tier interface over {n} rows (bench config)…");
            load::big_generation(n)
        }
        None => {
            let Some(kind) = kind_by_name(&workload) else {
                eprintln!(
                    "loadgen: unknown workload {workload:?} (known: {})",
                    all_logs()
                        .iter()
                        .map(|l| l.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::from(2);
            };
            eprintln!("loadgen: generating {workload} interface (bench config)…");
            load::generation_for(kind)
        }
    };
    let cycle = load::event_cycle(&generation);
    eprintln!(
        "loadgen: recorded event mix of {} events over {} interactions",
        cycle.len(),
        generation.interface.interactions.len()
    );
    // --append-every: synthesize the write payload before the generation
    // is handed to the server.
    let append_payload = if append_every > 0 {
        match load::append_payload(&generation) {
            Some((table, delta)) => {
                eprintln!(
                    "loadgen: every {append_every}th request appends {} row(s) to {table}",
                    delta.num_rows()
                );
                Some((table, delta))
            }
            None => {
                eprintln!("loadgen: no referenced non-empty table to append to");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };

    // Self-contained mode boots a server; --addr targets an external one.
    let (target, local) = match addr {
        Some(external) => {
            let Ok(mut resolved) = std::net::ToSocketAddrs::to_socket_addrs(&external.as_str())
            else {
                eprintln!("loadgen: cannot resolve {external}");
                return ExitCode::from(2);
            };
            let Some(target) = resolved.next() else {
                eprintln!("loadgen: {external} resolved to nothing");
                return ExitCode::from(2);
            };
            (target, None)
        }
        None => {
            let service = Arc::new(Pi2Service::new());
            if let Err(e) = service.register_generation(&workload, generation) {
                eprintln!("loadgen: register failed: {e}");
                return ExitCode::FAILURE;
            }
            let server = match pi2::serve(service, ServerConfig::default()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("loadgen: server failed to start: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "loadgen: serving {workload} on http://{}",
                server.local_addr()
            );
            (server.local_addr(), Some(server))
        }
    };

    let code = if let Some((table, delta)) = append_payload {
        match load::run_mixed_load(
            target,
            &workload,
            &cycle,
            sessions,
            events,
            append_every,
            &table,
            &delta,
        ) {
            Ok(report) => {
                println!("loadgen[{workload},mix={append_every}]: {report}");
                if fail_on_errors && report.errors() > 0 {
                    eprintln!(
                        "loadgen: FAIL — {} read + {} append errors",
                        report.read.errors, report.write.errors
                    );
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("loadgen: mixed run failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else if ws {
        match load::run_ws_load(target, &workload, &cycle, sessions, events) {
            Ok(report) => {
                println!("loadgen[{workload},ws]: {report}");
                let short = report.pushes != sessions * events;
                if fail_on_errors && (report.errors > 0 || short) {
                    eprintln!(
                        "loadgen: FAIL — {} errors, {}/{} pushes",
                        report.errors,
                        report.pushes,
                        sessions * events
                    );
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("loadgen: ws run failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match load::run_load(target, &workload, &cycle, sessions, events) {
            Ok(report) => {
                println!("loadgen[{workload}]: {report}");
                if fail_on_errors && report.errors > 0 {
                    eprintln!("loadgen: FAIL — {} protocol errors", report.errors);
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("loadgen: run failed: {e}");
                ExitCode::FAILURE
            }
        }
    };
    if let Some(server) = local {
        server.shutdown();
    }
    code
}

//! The four serving workloads. Each drives a server child over loopback
//! with closed loops (a client sends its next request only after the
//! previous response has been read): one requesting connection, plus one
//! subscribed WebSocket peer on the two workloads that push. One thread
//! generates all the load.

use crate::child::{peak_rss_mib, ChildProc};
use crate::http::{encode_request, HttpClient};
use crate::mix::{append_rows, build_cycle, covid_big_rows, find_slider, Cycle, Slider};
use crate::report::{Metric, Outcome, RunArgs};
use crate::scenario::{generate, serving_config, Tier};
use crate::stats::{segment_summary, Estimate, Rng, Sample};
use crate::verify::{is_nonempty_patch, looks_like_patch, Reference, Verifier};
use crate::ws::{text_frame, WsClient};
use pi2::{request_to_json, Catalog, Event, Generation, Json, Request};
use std::borrow::Cow;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Timed phases are cut into this many equal segments; rate and latency
/// metrics are the median over segments.
pub const SEGMENTS: usize = 5;

const CYCLE_EVENTS: usize = 512;
/// Untimed laps of the cycle before the timed phase.
const WARM_LAPS: u64 = 8;

/// `serve_scan` sends 3 scan events, then 1 join event.
const SCAN_PATTERN: usize = 4;
/// `live_append`: reads per cycle, over as many pre-warmed slider states.
pub const LIVE_READS: usize = 8;

/// Set-up is repeated (fresh child, fresh connections, warm-up) and
/// `setup_s` is the median: up to this many times, while another
/// repetition still fits the budget.
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(15);

/// Share of responses kept for verification, and every how many pushes.
const SAMPLE_ONE_IN: u64 = 50;
const PUSH_ONE_IN: u64 = 10;
/// Big-tier checks re-execute over 10⁶ rows, so their number is capped.
const MAX_BIG_CHECKS: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeWarm,
    ServeScan,
    LiveAppend,
    PushWs,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "serve_warm" => Some(Kind::ServeWarm),
            "serve_scan" => Some(Kind::ServeScan),
            "live_append" => Some(Kind::LiveAppend),
            "push_ws" => Some(Kind::PushWs),
            _ => None,
        }
    }

    pub fn tier(self) -> Tier {
        match self {
            Kind::ServeWarm | Kind::PushWs => Tier::Covid,
            Kind::ServeScan | Kind::LiveAppend => Tier::Big,
        }
    }
}

/// When a load loop stops: after a wall-clock window (end-to-end runs) or
/// after a fixed number of operations (traced runs, whose program-side
/// counts must repeat exactly).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Count(u64),
}

impl Stop {
    fn done(self, begun: Instant, ops: u64) -> bool {
        match self {
            Stop::After(d) => begun.elapsed() >= d,
            Stop::Count(n) => ops >= n,
        }
    }
}

/// The driver's own copy of what the server child serves.
pub struct Local {
    pub tier: Tier,
    pub catalog: Catalog,
    pub generation: Generation,
}

impl Local {
    pub fn build(tier: Tier) -> Result<Local, String> {
        let catalog = tier.catalog();
        let generation = generate(catalog.clone(), &tier.queries(), &serving_config())?;
        Ok(Local {
            tier,
            catalog,
            generation,
        })
    }
}

/// The inputs of one run, drawn from `--seed`.
pub enum Plan {
    /// `serve_warm` and `push_ws`: the cyclic event mix.
    Cycle(Cycle),
    /// `serve_scan`: never-repeating thresholds for both sliders.
    Scan {
        deaths: Slider,
        amount: Slider,
        scan_ts: Vec<f64>,
        join_ts: Vec<f64>,
    },
    /// `live_append`: the slider states read after every append.
    Live { deaths: Slider, reads: Vec<f64> },
}

impl Plan {
    pub fn build(kind: Kind, local: &Local, seed: u64) -> Result<Plan, String> {
        let g = &local.generation;
        Ok(match kind {
            Kind::ServeWarm | Kind::PushWs => Plan::Cycle(build_cycle(g, seed, CYCLE_EVENTS)?),
            Kind::ServeScan => {
                let deaths = find_slider(g, "deaths")?;
                let amount = find_slider(g, "amount")?;
                let scan_ts = deaths.thresholds(&mut Rng::fork(seed, 0x5ca9));
                let join_ts = amount.thresholds(&mut Rng::fork(seed, 0x7019));
                Plan::Scan {
                    deaths,
                    amount,
                    scan_ts,
                    join_ts,
                }
            }
            Kind::LiveAppend => {
                let deaths = find_slider(g, "deaths")?;
                find_slider(g, "amount")?;
                let mut reads = deaths.thresholds(&mut Rng::fork(seed, 0x11fe));
                reads.truncate(LIVE_READS);
                Plan::Live { deaths, reads }
            }
        })
    }

    /// What the mix drives — `mix.*` names and values — so a changed
    /// interface is visible in every result.
    pub fn mix(&self) -> Vec<(&'static str, f64)> {
        let span = |s: &Slider| (s.max - s.min + 1) as f64;
        match self {
            Plan::Cycle(cycle) => vec![
                ("mix.interactions", cycle.interactions as f64),
                ("mix.states", cycle.states as f64),
                ("mix.cycle_events", cycle.events.len() as f64),
            ],
            Plan::Scan { deaths, amount, .. } => vec![
                ("mix.interactions", 2.0),
                ("mix.threshold_domain", span(deaths) + span(amount)),
            ],
            Plan::Live { deaths, reads } => vec![
                ("mix.interactions", 1.0),
                ("mix.states", reads.len() as f64),
                ("mix.threshold_domain", span(deaths)),
            ],
        }
    }
}

/// A response or pushed frame kept for verification after the phase.
pub struct Kept {
    /// Position in the replayed input (cycle position, event number, …).
    pub at: u64,
    /// Appends the server had applied when this was produced.
    pub appends: u64,
    pub push: bool,
    pub body: String,
}

/// What a load phase measured.
#[derive(Default)]
pub struct Phase {
    pub wall_ns: u64,
    /// Every completed request of the closed loops.
    pub ops: Vec<Sample>,
    /// The workload's primary latency (see README: per workload).
    pub primary: Vec<Sample>,
    pub append: Vec<Sample>,
    pub push: Vec<Sample>,
    /// `push_ws`: the writer's send → push and response both read.
    pub request: Vec<Sample>,
    /// `live_append`: push read − writer's response read.
    pub push_lag: Vec<Sample>,
    pub scan: Vec<Sample>,
    pub join: Vec<Sample>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub kept: Vec<Kept>,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

/// The seeded 1-in-`one_in` sample of operation numbers.
fn keep(seed: u64, i: u64, one_in: u64) -> bool {
    Rng::fork(seed, i).next_u64().is_multiple_of(one_in)
}

fn open_http(client: &mut HttpClient, workload: &str) -> Result<(u64, String), String> {
    let body = request_to_json(&Request::Open {
        workload: workload.to_string(),
    });
    let (status, resp) = client
        .post("/v1", &body)
        .map_err(|e| format!("open: {e}"))?;
    session_of(status, &resp).map(|id| (id, resp))
}

fn session_of(status: u16, resp: &str) -> Result<u64, String> {
    let id = Json::parse(resp)
        .ok()
        .and_then(|j| j.get("session").and_then(Json::as_i64));
    match id {
        Some(id) if status == 200 => Ok(id as u64),
        _ => Err(format!("open failed ({status}): {resp:.200}")),
    }
}

fn open_ws(client: &mut WsClient, workload: &str, subscribe: bool) -> Result<u64, String> {
    let body = request_to_json(&Request::Open {
        workload: workload.to_string(),
    });
    let resp = client
        .round_trip(&body)
        .map_err(|e| format!("ws open: {e}"))?;
    let session = session_of(200, &resp)?;
    if subscribe {
        let resp = client
            .round_trip(&request_to_json(&Request::Subscribe { session }))
            .map_err(|e| format!("subscribe: {e}"))?;
        if !resp.contains("\"type\":\"subscribed\"") {
            return Err(format!("subscribe failed: {resp:.200}"));
        }
    }
    Ok(session)
}

fn event_body(session: u64, event: &Event) -> String {
    request_to_json(&Request::Event {
        session,
        event: event.clone(),
    })
}

fn frame_events(session: u64, events: &[Event]) -> Vec<Vec<u8>> {
    events
        .iter()
        .map(|e| encode_request("POST", "/v1", &event_body(session, e)))
        .collect()
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------
// Request/response workloads (serve_warm, serve_scan)
// ---------------------------------------------------------------------------

/// One event of a request/response loop.
struct NextRequest<'a> {
    /// Position in the replayed input, kept with a sampled response.
    at: u64,
    join: bool,
    request: Cow<'a, [u8]>,
}

/// Event number `i` under `plan`; `None` when a scan plan has run out of
/// never-sent thresholds (better to stop than to bench memo hits).
fn next_request<'a>(
    plan: &Plan,
    session: u64,
    framed: &'a [Vec<u8>],
    i: u64,
) -> Option<NextRequest<'a>> {
    match plan {
        Plan::Scan {
            deaths,
            amount,
            scan_ts,
            join_ts,
        } => {
            let (group, slot) = (i as usize / SCAN_PATTERN, i as usize % SCAN_PATTERN);
            let join = slot == SCAN_PATTERN - 1;
            let event = if join {
                amount.event(*join_ts.get(group)?)
            } else {
                deaths.event(*scan_ts.get(group * (SCAN_PATTERN - 1) + slot)?)
            };
            let body = event_body(session, &event);
            Some(NextRequest {
                at: i,
                join,
                request: Cow::Owned(encode_request("POST", "/v1", &body)),
            })
        }
        _ => {
            let at = i % framed.len() as u64;
            Some(NextRequest {
                at,
                join: false,
                request: Cow::Borrowed(&framed[at as usize]),
            })
        }
    }
}

/// One connection, one wire session, one request in flight.
struct Requester {
    client: HttpClient,
    session: u64,
    /// `serve_warm`: the cycle's events, framed once.
    framed: Vec<Vec<u8>>,
    /// Events sent so far.
    sent: u64,
}

impl Requester {
    fn open(addr: SocketAddr, tier: Tier) -> Result<Requester, String> {
        let mut client = HttpClient::connect(addr).map_err(io_err("connect"))?;
        let (session, _) = open_http(&mut client, tier.name())?;
        Ok(Requester {
            client,
            session,
            framed: Vec::new(),
            sent: 0,
        })
    }

    fn run(&mut self, plan: &Plan, seed: u64, stop: Stop) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let begun = Instant::now();
        let first = self.sent;
        while !stop.done(begun, self.sent - first) {
            let Some(next) = next_request(plan, self.session, &self.framed, self.sent) else {
                break;
            };
            let (at, join) = (next.at, next.join);
            let t0 = Instant::now();
            let (status, body) = self
                .client
                .exchange(&next.request)
                .map_err(io_err("event"))?;
            let done = Instant::now();
            let sample = Sample {
                done_ns: (done - begun).as_nanos() as u64,
                latency_ns: (done - t0).as_nanos() as u64,
            };
            phase.primary.push(sample);
            if join {
                phase.join.push(sample);
            } else {
                phase.scan.push(sample);
            }
            if !looks_like_patch(status, body) {
                phase.fail(format!("event {}: {status} {body:.120}", self.sent));
            } else if keep(seed, self.sent, SAMPLE_ONE_IN) {
                phase.kept.push(Kept {
                    at,
                    appends: 0,
                    push: false,
                    body: body.to_string(),
                });
            }
            self.sent += 1;
        }
        phase.attempted = self.sent - first;
        phase.wall_ns = begun.elapsed().as_nanos() as u64;
        phase.ops = phase.primary.clone();
        Ok(phase)
    }
}

// ---------------------------------------------------------------------------
// Writer + subscribed peer workloads (live_append, push_ws)
//
// One thread drives both connections: it sends a request, then reads the
// writer's response and the peer's pushed frame — first the one the
// workload's primary latency is defined on — and only then sends the next
// request. A reader thread for the peer would make four busy threads
// (writer, peer, reactor, worker) on the reference box's two cores, and
// the latencies would read the scheduler (measured on `push_ws`: p90 a
// quarter apart between two sets of runs of one commit, against a
// twentieth this way).
// ---------------------------------------------------------------------------

/// `live_append`'s connections: an HTTP writer and the subscribed peer
/// that is pushed a frame for every request the writer makes.
struct LiveWires {
    client: HttpClient,
    sub: WsClient,
    /// Frames pushed to the peer so far; every `PUSH_ONE_IN`-th is kept.
    pushes: u64,
}

/// What one request over [`LiveWires`] returned.
struct Answered {
    sample: Sample,
    ok: bool,
    body: String,
}

impl LiveWires {
    /// One request: the response first (read latency is `live_append`'s
    /// primary metric), then the frame it pushed to the peer. `at` is the
    /// read state the peer's view shows and `appends` the appends applied,
    /// to keep a sampled push under; `timed` says the push is an append's
    /// data patch, whose latency counts.
    fn exchange(
        &mut self,
        request: &[u8],
        (at, appends): (u64, u64),
        timed: bool,
        begun: Instant,
        phase: &mut Phase,
    ) -> Result<Answered, String> {
        let t0 = Instant::now();
        let (status, body) = self.client.exchange(request).map_err(io_err("request"))?;
        let answered = Instant::now();
        let (ok, body) = (status == 200, body.to_string());
        let pushed = self.sub.read_text().map_err(io_err("push read"))?;
        let push_read = Instant::now();
        let since = |from: Instant, end: Instant| Sample {
            done_ns: (end - begun).as_nanos() as u64,
            latency_ns: (end - from).as_nanos() as u64,
        };
        if timed {
            phase.push.push(since(t0, push_read));
            phase.push_lag.push(since(answered, push_read));
        }
        if !is_nonempty_patch(&pushed) {
            phase.fail(format!("push {}: not a non-empty patch", self.pushes));
        } else if self.pushes.is_multiple_of(PUSH_ONE_IN) {
            phase.kept.push(Kept {
                at,
                appends,
                push: true,
                body: pushed,
            });
        }
        self.pushes += 1;
        let sample = since(t0, answered);
        phase.ops.push(sample);
        Ok(Answered { sample, ok, body })
    }
}

/// `live_append`: cycles of one append and every read.
struct LivePair {
    wires: LiveWires,
    reads: Vec<Vec<u8>>,
    seed: u64,
    tier: Tier,
    /// Appends the server has applied (warm-up included).
    appends: u64,
}

impl LivePair {
    fn cycle(&mut self, begun: Instant, phase: &mut Phase) -> Result<(), String> {
        let body = request_to_json(&Request::Append {
            workload: self.tier.name().to_string(),
            table: "covid_big".to_string(),
            rows: covid_big_rows(append_rows(self.seed, self.appends)),
        });
        let request = encode_request("POST", "/v1", &body);
        self.appends += 1;
        // The append's data patch shows the state the last read left.
        let shown = (self.reads.len() as u64 - 1, self.appends);
        let got = self.wires.exchange(&request, shown, true, begun, phase)?;
        phase.append.push(got.sample);
        if !got.ok || !got.body.contains("\"type\":\"appended\"") {
            phase.fail(format!("append {}: {:.120}", self.appends, got.body));
        }
        for (r, request) in self.reads.iter().enumerate() {
            let shown = (r as u64, self.appends);
            let got = self.wires.exchange(request, shown, false, begun, phase)?;
            phase.primary.push(got.sample);
            let n = phase.primary.len() as u64;
            if !got.ok || !is_nonempty_patch(&got.body) {
                phase.fail(format!("read {n}: {:.120}", got.body));
            } else if keep(self.seed, n, SAMPLE_ONE_IN) {
                phase.kept.push(Kept {
                    at: r as u64,
                    appends: self.appends,
                    push: false,
                    body: got.body,
                });
            }
        }
        Ok(())
    }

    fn run(&mut self, stop: Stop) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let begun = Instant::now();
        let mut cycles = 0u64;
        while !stop.done(begun, cycles) {
            self.cycle(begun, &mut phase)?;
            cycles += 1;
        }
        phase.wall_ns = begun.elapsed().as_nanos() as u64;
        phase.attempted = 2 * phase.ops.len() as u64;
        Ok(phase)
    }
}

/// `push_ws`'s connections: a WebSocket writer replaying the event cycle
/// and its subscribed peer. The push is read first (its latency is the
/// workload's primary metric), then the writer's own response.
struct PushPair {
    client: WsClient,
    sub: WsClient,
    /// The cycle's events, framed once.
    frames: Vec<Vec<u8>>,
    /// Events sent so far.
    sent: u64,
}

impl PushPair {
    fn run(&mut self, stop: Stop) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let begun = Instant::now();
        let first = self.sent;
        while !stop.done(begun, self.sent - first) {
            let at = self.sent % self.frames.len() as u64;
            let t0 = Instant::now();
            self.client
                .send_frame(&self.frames[at as usize])
                .map_err(io_err("event"))?;
            let pushed = self.sub.read_text().map_err(io_err("push read"))?;
            let push_read = Instant::now();
            let answer = self.client.read_text().map_err(io_err("response"))?;
            let done = Instant::now();
            let since = |end: Instant| Sample {
                done_ns: (end - begun).as_nanos() as u64,
                latency_ns: (end - t0).as_nanos() as u64,
            };
            phase.push.push(since(push_read));
            phase.request.push(since(done));
            if !is_nonempty_patch(&answer) {
                phase.fail(format!("event {}: not a non-empty patch", self.sent));
            }
            if !is_nonempty_patch(&pushed) {
                phase.fail(format!("push {}: not a non-empty patch", self.sent));
            } else if (self.sent - first).is_multiple_of(PUSH_ONE_IN) {
                phase.kept.push(Kept {
                    at,
                    appends: 0,
                    push: true,
                    body: pushed,
                });
            }
            self.sent += 1;
        }
        phase.wall_ns = begun.elapsed().as_nanos() as u64;
        phase.attempted = 2 * (self.sent - first);
        phase.ops = phase.request.clone();
        // The workload's primary latency is the push itself.
        phase.primary = phase.push.clone();
        Ok(phase)
    }
}

// ---------------------------------------------------------------------------
// One set-up: a server child plus the opened, warmed-up connections
// ---------------------------------------------------------------------------

enum Lanes {
    /// `serve_warm`, `serve_scan`.
    Requests(Requester),
    Live(LivePair),
    Push(PushPair),
}

impl Lanes {
    fn run(&mut self, plan: &Plan, seed: u64, stop: Stop) -> Result<Phase, String> {
        match self {
            Lanes::Requests(requester) => requester.run(plan, seed, stop),
            Lanes::Live(pair) => pair.run(stop),
            Lanes::Push(pair) => pair.run(stop),
        }
    }
}

pub struct Stage {
    child: ChildProc,
    pub addr: SocketAddr,
    lanes: Lanes,
}

impl Stage {
    /// Boot a server child and bring the workload to its first timed
    /// operation. `local`/`plan` are built while the child boots, once per
    /// run; later set-ups of the same run reuse them.
    pub fn open(
        kind: Kind,
        seed: u64,
        local: &mut Option<Local>,
        plan: &mut Option<Plan>,
    ) -> Result<Stage, String> {
        let tier = kind.tier();
        let mut child = ChildProc::spawn(&["child-serve".to_string(), tier.name().to_string()])?;
        if local.is_none() {
            *local = Some(Local::build(tier)?);
        }
        let local = local.as_ref().expect("just built");
        if plan.is_none() {
            *plan = Some(Plan::build(kind, local, seed)?);
        }
        let plan = plan.as_ref().expect("just built");
        let addr = child.wait_ready()?;
        let mut lanes = match plan {
            Plan::Cycle(cycle) if kind == Kind::ServeWarm => {
                let mut requester = Requester::open(addr, tier)?;
                requester.framed = frame_events(requester.session, &cycle.events);
                Lanes::Requests(requester)
            }
            Plan::Cycle(cycle) => {
                let mut sub = WsClient::connect(addr).map_err(io_err("ws connect"))?;
                open_ws(&mut sub, tier.name(), true)?;
                let mut client = WsClient::connect(addr).map_err(io_err("ws connect"))?;
                let session = open_ws(&mut client, tier.name(), false)?;
                let frames = cycle
                    .events
                    .iter()
                    .enumerate()
                    .map(|(i, e)| text_frame(&event_body(session, e), i as u32))
                    .collect();
                Lanes::Push(PushPair {
                    client,
                    sub,
                    frames,
                    sent: 0,
                })
            }
            Plan::Scan { .. } => Lanes::Requests(Requester::open(addr, tier)?),
            Plan::Live { deaths, reads } => {
                let mut sub = WsClient::connect(addr).map_err(io_err("ws connect"))?;
                open_ws(&mut sub, tier.name(), true)?;
                let mut client = HttpClient::connect(addr).map_err(io_err("connect"))?;
                let (session, _) = open_http(&mut client, tier.name())?;
                let events: Vec<Event> = reads.iter().map(|t| deaths.event(*t)).collect();
                let reads = frame_events(session, &events);
                // Pre-visit every read state (the warm-up cycle below then
                // finds a result to build each state's IVM base from).
                for read in &reads {
                    client.exchange(read).map_err(io_err("pre-warm"))?;
                    sub.read_text().map_err(io_err("pre-warm push"))?;
                }
                Lanes::Live(LivePair {
                    wires: LiveWires {
                        client,
                        sub,
                        pushes: 0,
                    },
                    reads,
                    seed,
                    tier,
                    appends: 0,
                })
            }
        };
        // Warm-up. Soft failures are not judged here (a first lap may
        // legitimately repeat a state); a broken server fails the timed
        // phase.
        let warm_up = match plan {
            // The first lap reaches the periodic regime, the second fills
            // the session's and the server's memos; the rest let a fresh
            // connection's first tenths of a second pass (scheduler
            // placement, cold caches), which otherwise make up most of
            // `setup_s` and move it by a quarter between sets of runs.
            Plan::Cycle(cycle) => Stop::Count(WARM_LAPS * cycle.events.len() as u64),
            // One group: both query shapes, the morsel pool, the pages.
            Plan::Scan { .. } => Stop::Count(SCAN_PATTERN as u64),
            // One cycle: the first append after a scan builds the IVM bases.
            Plan::Live { .. } => Stop::Count(1),
        };
        lanes.run(plan, seed, warm_up)?;
        Ok(Stage { child, addr, lanes })
    }

    pub fn run(&mut self, plan: &Plan, seed: u64, stop: Stop) -> Result<Phase, String> {
        self.lanes.run(plan, seed, stop)
    }

    pub fn server_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(self.child.pid()).ok_or_else(|| "cannot read the server's VmHWM".into())
    }

    /// `GET /metrics`, flattened to its numeric leaves; the readiness
    /// selector the server reports rides along under `selector=<name>`.
    pub fn scrape(&self) -> Result<Vec<(String, f64)>, String> {
        let mut client = HttpClient::connect(self.addr).map_err(io_err("connect"))?;
        let (status, body) = client.get("/metrics").map_err(io_err("GET /metrics"))?;
        if status != 200 {
            return Err(format!("GET /metrics: {status}"));
        }
        let json = Json::parse(&body).map_err(|e| format!("/metrics: {e}"))?;
        let mut out = Vec::new();
        flatten("", &json, &mut out);
        Ok(out)
    }

    /// A session opened after the phase: its initial patch (every view)
    /// must equal scratch execution on the driver's mirror.
    pub fn fresh_initial_patch(&self, tier: Tier) -> Result<String, String> {
        let mut client = HttpClient::connect(self.addr).map_err(io_err("connect"))?;
        let (_, resp) = open_http(&mut client, tier.name())?;
        let at = resp
            .rfind(",\"patch\":{\"seq\":")
            .ok_or("opened response carries no patch")?;
        let inner = &resp[at + ",\"patch\":{".len()..resp.len() - 1];
        Ok(format!("{{\"v\":1,\"type\":\"patch\",{inner}"))
    }
}

fn flatten(prefix: &str, j: &Json, out: &mut Vec<(String, f64)>) {
    match j {
        Json::Obj(fields) => {
            for (k, v) in fields {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&key, v, out);
            }
        }
        Json::Int(i) => out.push((prefix.to_string(), *i as f64)),
        Json::Float(x) => out.push((prefix.to_string(), *x)),
        Json::Str(name) if prefix == "server.selector" => {
            out.push((format!("selector={name}"), 1.0))
        }
        _ => {}
    }
}

/// Counter difference between two scrapes.
pub fn delta(before: &[(String, f64)], after: &[(String, f64)], key: &str) -> f64 {
    let get = |set: &[(String, f64)]| set.iter().find(|(k, _)| k == key).map_or(0.0, |(_, v)| *v);
    get(after) - get(before)
}

// ---------------------------------------------------------------------------
// Verification of what a phase kept
// ---------------------------------------------------------------------------

/// The driver's mirror of the live catalogue after `appends` appends.
fn mirror(local: &Local, seed: u64, appends: u64) -> Result<Catalog, String> {
    let rows = (0..appends).flat_map(|k| append_rows(seed, k)).collect();
    local
        .catalog
        .append_rows("covid_big", covid_big_rows(rows))
        .map_err(|e| format!("mirror append: {e}"))
}

pub fn verify(
    kind: Kind,
    phase: &Phase,
    plan: &Plan,
    local: &Local,
    seed: u64,
    stage: &Stage,
    out: &mut Outcome,
) {
    out.attempted += phase.attempted;
    for why in &phase.failures {
        out.fail(why.clone());
    }
    match (kind, plan) {
        (Kind::ServeWarm | Kind::PushWs, Plan::Cycle(cycle)) => {
            let mut verifier = Verifier::new(&local.catalog);
            for k in &phase.kept {
                let want = &cycle.expected[k.at as usize];
                out.check(verifier.check_body(&k.body, Some(want), Reference::Scalar));
            }
        }
        (
            Kind::ServeScan,
            Plan::Scan {
                deaths,
                amount,
                scan_ts,
                join_ts,
            },
        ) => {
            let mut verifier = Verifier::new(&local.catalog);
            let (mut scalar_scan, mut scalar_join) = (false, false);
            for k in phase.kept.iter().take(MAX_BIG_CHECKS) {
                let (group, slot) = (k.at as usize / SCAN_PATTERN, k.at as usize % SCAN_PATTERN);
                let join = slot == SCAN_PATTERN - 1;
                let (literal, done) = if join {
                    (amount.literal(join_ts[group]), &mut scalar_join)
                } else {
                    let t = scan_ts[group * (SCAN_PATTERN - 1) + slot];
                    (deaths.literal(t), &mut scalar_scan)
                };
                let mut result = verifier.check_body(&k.body, None, Reference::Sequential);
                if !*done {
                    *done = true;
                    result =
                        result.and_then(|()| verifier.check_body(&k.body, None, Reference::Scalar));
                }
                out.check(result.and_then(|()| carries(&k.body, &literal)));
            }
        }
        (Kind::LiveAppend, Plan::Live { deaths, reads }) => {
            let mut scalar_done = false;
            let (answers, pushes): (Vec<&Kept>, Vec<&Kept>) =
                phase.kept.iter().partition(|k| !k.push);
            fn spaced(set: Vec<&Kept>) -> Vec<&Kept> {
                let step = set.len().div_ceil(MAX_BIG_CHECKS / 2).max(1);
                set.into_iter().step_by(step).collect()
            }
            for k in spaced(answers).into_iter().chain(spaced(pushes)) {
                let result = mirror(local, seed, k.appends).and_then(|catalog| {
                    let mut verifier = Verifier::new(&catalog);
                    verifier.check_body(&k.body, None, Reference::Sequential)?;
                    if !scalar_done {
                        scalar_done = true;
                        verifier.check_body(&k.body, None, Reference::Scalar)?;
                    }
                    carries(&k.body, &deaths.literal(reads[k.at as usize]))
                });
                out.check(result);
            }
            // A session opened now starts from the final catalogue.
            let Lanes::Live(writer) = &stage.lanes else {
                unreachable!("live_append stage")
            };
            let result = mirror(local, seed, writer.appends).and_then(|catalog| {
                let body = stage.fresh_initial_patch(local.tier)?;
                Verifier::new(&catalog).check_body(&body, None, Reference::Scalar)
            });
            out.check(result);
        }
        _ => unreachable!("plan was built for this kind"),
    }
}

/// The response must be for the threshold that was sent.
fn carries(body: &str, literal: &str) -> Result<(), String> {
    if body.contains(literal) {
        Ok(())
    } else {
        Err(format!("response does not carry {literal:?}: {body:.160}"))
    }
}

// ---------------------------------------------------------------------------
// End-to-end scoring
// ---------------------------------------------------------------------------

/// `ops_per_s`, `p50_us`, `tail_us` of a phase: each computed per segment
/// and reported as the median over the five segments, so a burst of host
/// noise that spoils one or two segments does not move the result. The
/// tail is the 90th percentile: on the shared 2-vCPU reference box the
/// 99th reads the hypervisor's hiccups (±25 % between runs of one commit).
/// At 15 s the sparsest workload (`live_append`) has ~170 reads in a
/// segment, 17 of them beyond its p90.
pub fn score(phase: &Phase, out: &mut Outcome) -> Result<(), String> {
    if phase.primary.len() < 20 * SEGMENTS {
        return Err(format!(
            "only {} timed operations: nothing to measure",
            phase.primary.len()
        ));
    }
    let (rate, _) = segment_summary(&phase.ops, phase.wall_ns, SEGMENTS, &[]);
    let (_, lat) = segment_summary(
        &phase.primary,
        phase.wall_ns,
        SEGMENTS,
        &[50.0, 90.0, 95.0, 99.0],
    );
    out.push(Metric::new("ops_per_s", "1/s", rate));
    out.push(Metric::new("p50_us", "us", lat[0]));
    out.push(Metric::new("tail_us", "us", lat[1]));
    out.note(
        "p90/p95/p99_us",
        format!(
            "{:.1} / {:.1} / {:.1}",
            lat[1].value, lat[2].value, lat[3].value
        ),
    );
    out.note("timed_ops", phase.ops.len());
    out.note("timed_s", format!("{:.3}", phase.wall_ns as f64 / 1e9));
    Ok(())
}

/// The untraced run: repeated set-up, one timed phase, verification.
pub fn run(kind: Kind, args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::new(args);
    let mut local = None;
    let mut plan = None;
    let mut setups: Vec<f64> = Vec::new();
    let mut stage: Option<Stage> = None;
    let spent = |s: &[f64]| Duration::from_secs_f64(s.iter().sum());
    while setups.len() < MAX_SETUPS
        && setups
            .last()
            .is_none_or(|last| spent(&setups) + Duration::from_secs_f64(*last) <= SETUP_BUDGET)
    {
        drop(stage.take());
        let t0 = Instant::now();
        stage = Some(Stage::open(kind, args.seed, &mut local, &mut plan)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut stage = stage.expect("at least one set-up");
    let (local, plan) = (local.expect("built"), plan.expect("built"));
    for (name, value) in plan.mix() {
        out.note(name, value);
    }
    out.note("setups", setups.len());
    out.push(Metric::new("setup_s", "s", Estimate::median_of(&setups)));

    let phase = stage.run(&plan, args.seed, Stop::After(args.duration()))?;
    out.push(Metric::new(
        "rss_mb",
        "MiB",
        Estimate::exact(stage.server_rss_mib()?),
    ));
    score(&phase, &mut out)?;
    verify(kind, &phase, &plan, &local, args.seed, &stage, &mut out);
    Ok(out)
}

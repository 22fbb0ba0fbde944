//! What the benchmark runs: the inputs, the fixed configurations, and the
//! two child roles (server, one-shot generator). Driver and children are
//! the same binary, so both sides build identical interfaces from here.

use crate::span::Recorder;
use pi2::server::ServerConfig;
use pi2::{serve, Catalog, Generation, GenerationConfig, MctsConfig, Pi2, Pi2Service};
use pi2_difftree::{Forest, Workload};
use pi2_engine::{execute, ExecContext};
use pi2_interface::{Interface, MappingContext};
use pi2_search::{best_interface, mcts_search, SearchStats};
use pi2_sql::parse_query;
use pi2_workloads::big::big_catalog;
use pi2_workloads::logs::duplicated;
use pi2_workloads::{catalog, log, LogKind};
use std::sync::Arc;
use std::time::Instant;

/// The `generate` inputs: the seven paper logs plus the Filter log
/// duplicated to 90 queries (§7.3's linear-scaling claim).
pub const GEN_INPUTS: [&str; 8] = [
    "explore",
    "abstract",
    "connect",
    "filter",
    "sdss",
    "covid",
    "sales",
    "filter_x10",
];

pub fn gen_queries(input: &str) -> Option<Vec<String>> {
    let kind = match input {
        "explore" => LogKind::Explore,
        "abstract" => LogKind::Abstract,
        "connect" => LogKind::Connect,
        "filter" | "filter_x10" => LogKind::Filter,
        "sdss" => LogKind::Sdss,
        "covid" => LogKind::Covid,
        "sales" => LogKind::Sales,
        _ => return None,
    };
    Some(if input == "filter_x10" {
        duplicated(kind, 90).queries
    } else {
        log(kind).queries
    })
}

/// The search seed of every `generate` child. Search time swings ±15 %
/// with the seed (different trajectories evaluate different state
/// counts), which would drown any bound; `--seed` therefore orders the
/// rounds and the search seed stays the paper default.
pub const GEN_MCTS_SEED: u64 = 0x5eed;

/// `generate`: paper defaults at 2 workers (the reference box has 2 cores).
pub fn generate_config(workers: usize) -> GenerationConfig {
    GenerationConfig {
        mcts: MctsConfig {
            workers,
            seed: GEN_MCTS_SEED,
            ..MctsConfig::default()
        },
        mapping: Default::default(),
    }
}

/// The interfaces the serving workloads drive: one fixed, small search,
/// identical in driver and server child.
pub fn serving_config() -> GenerationConfig {
    GenerationConfig {
        mcts: MctsConfig {
            workers: 2,
            max_iterations: 120,
            early_stop: 25,
            sync_interval: 10,
            seed: 42,
            ..MctsConfig::default()
        },
        mapping: Default::default(),
    }
}

/// Rows per big-tier table.
pub const BIG_ROWS: usize = 1_000_000;

/// The dataset and query log behind a served interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The paper's Covid log over the paper-scale catalogue.
    Covid,
    /// Two query families over `big_catalog(BIG_ROWS)`: a filter+aggregate
    /// scan and a join, each with a literal the mapper turns into a slider.
    Big,
}

impl Tier {
    pub fn name(self) -> &'static str {
        match self {
            Tier::Covid => "covid",
            Tier::Big => "big",
        }
    }

    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "covid" => Some(Tier::Covid),
            "big" => Some(Tier::Big),
            _ => None,
        }
    }

    pub fn catalog(self) -> Catalog {
        match self {
            Tier::Covid => catalog(),
            Tier::Big => big_catalog(BIG_ROWS),
        }
    }

    pub fn queries(self) -> Vec<String> {
        match self {
            Tier::Covid => log(LogKind::Covid).queries,
            Tier::Big => {
                let scan = [700, 900, 1100].map(|t| {
                    format!(
                        "SELECT state, sum(cases) FROM covid_big WHERE deaths > {t} GROUP BY state"
                    )
                });
                let join = [1000, 2500, 4000].map(|t| {
                    format!(
                        "SELECT c.segment, count(*), sum(o.amount) FROM orders AS o, \
                         customers AS c WHERE o.customer_id = c.id AND o.amount > {t} \
                         GROUP BY c.segment"
                    )
                });
                scan.into_iter().chain(join).collect()
            }
        }
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        reactors: 1,
        workers: 2,
        ..ServerConfig::default()
    }
}

pub fn generate(
    catalog: Catalog,
    queries: &[String],
    config: &GenerationConfig,
) -> Result<Generation, String> {
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    Pi2::new(catalog)
        .generate_with(&refs, config)
        .map_err(|e| format!("generation failed: {e}"))
}

/// The pipeline of `Pi2::generate_with`, one public call per stage, each
/// under its own span.
pub struct Staged {
    pub interface: Interface,
    pub cost: f64,
    pub forest: Forest,
    pub workload: Workload,
    pub stats: SearchStats,
}

pub fn generate_staged(
    rec: &mut Recorder,
    catalog: Catalog,
    queries: &[String],
    config: &GenerationConfig,
) -> Result<Staged, String> {
    rec.time("generate", 0, |rec| {
        let mut parsed = Vec::with_capacity(queries.len());
        for (i, sql) in queries.iter().enumerate() {
            let q = rec
                .time("sql.parse", i as u64, |_| parse_query(sql))
                .map_err(|e| format!("{sql}: {e}"))?;
            parsed.push(q);
        }
        let workload = rec.time("difftree.lower", 0, |_| Workload::new(parsed, catalog));
        let (forest, stats) = rec.time("search.mcts", 0, |_| mcts_search(&workload, &config.mcts));
        let (interface, cost) = rec
            .time("interface.map", 0, |_| {
                let map = |forest: &Forest| {
                    let mut ctx = MappingContext::build(forest, &workload)?;
                    ctx.check_safety = config.mcts.check_safety;
                    best_interface(&ctx, &config.mapping)
                };
                map(&forest).or_else(|| map(&Forest::from_workload(&workload)))
            })
            .ok_or("no interface")?;
        Ok(Staged {
            interface,
            cost,
            forest,
            workload,
            stats,
        })
    })
}

/// `child-serve <tier>`: register the tier's interface, serve it on an
/// ephemeral loopback port, announce `READY <addr>`, and leave when stdin
/// closes.
pub fn child_serve(tier: Tier) -> Result<(), String> {
    let generation = generate(tier.catalog(), &tier.queries(), &serving_config())?;
    let service = Arc::new(Pi2Service::new());
    service
        .register_generation(tier.name(), generation)
        .map_err(|e| format!("register: {e}"))?;
    let server = serve(service, server_config()).map_err(|e| format!("serve: {e}"))?;
    println!("READY {}", server.local_addr());
    let mut line = String::new();
    while std::io::stdin().read_line(&mut line).is_ok_and(|n| n > 0) {
        line.clear();
    }
    // The driver has its numbers by now; a drain would only delay the reap.
    std::process::exit(0);
}

/// `child-generate <input> <workers> <plain|staged>`: one cold generation,
/// reported on stdout as a `GEN` line (and `SPAN` lines when staged).
pub fn child_generate(input: &str, workers: usize, staged: bool) -> Result<(), String> {
    let queries = gen_queries(input).ok_or_else(|| format!("unknown input {input:?}"))?;
    let config = generate_config(workers);
    let catalog = catalog();
    let (ms, cost, stats, covered, choices) = if staged {
        let mut rec = Recorder::new();
        let log_catalog = catalog.clone();
        let t0 = Instant::now();
        let g = generate_staged(&mut rec, catalog, &queries, &config)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // What executing the log's own queries costs the engine.
        rec.time("engine.exec_log", 0, |_| {
            let ctx = ExecContext::new(&log_catalog);
            for q in &g.workload.queries {
                std::hint::black_box(execute(q, &ctx).map_err(|e| e.to_string())?);
            }
            Ok::<(), String>(())
        })?;
        for s in rec.spans() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            println!(
                "SPAN {} {} {} {parent} {}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        let covered: usize = g.interface.interactions.iter().map(|i| i.cover.len()).sum();
        (ms, g.cost, g.stats, covered, g.forest.choice_count())
    } else {
        let t0 = Instant::now();
        let g = generate(catalog, &queries, &config)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let covered: usize = g.interface.interactions.iter().map(|i| i.cover.len()).sum();
        (ms, g.cost, g.mcts_stats, covered, g.forest.choice_count())
    };
    let rss = crate::child::peak_rss_mib(std::process::id()).unwrap_or(0.0);
    println!(
        "GEN ms={ms:?} cost={cost:?} iterations={} states={} queries={} \
         covered={covered} choices={choices} rss_mib={rss:?}",
        stats.iterations,
        stats.states_evaluated,
        queries.len(),
    );
    Ok(())
}

//! The `generate` workload: every input generated cold, one fresh child
//! process per generation (the search's transposition tables are
//! process-global and have no reset, so a second in-process generation
//! evaluates no states at all).

use crate::child::ChildProc;
use crate::report::{Metric, Outcome, RunArgs};
use crate::scenario::GEN_INPUTS;
use crate::span::{self_times_ns, Recorder, Span};
use crate::stats::{lower_quartile, median, Estimate, Rng};
use std::collections::BTreeMap;
use std::time::Instant;

/// What one generate child reported.
#[derive(Debug, Clone, PartialEq)]
pub struct GenReport {
    pub ms: f64,
    pub cost: f64,
    pub iterations: u64,
    pub states: u64,
    pub queries: u64,
    pub covered: u64,
    pub choices: u64,
    pub rss_mib: f64,
    pub spans: Vec<Span>,
    /// Driver-side wall time from spawn to reaped, ms.
    pub wall_ms: f64,
}

const SPAN_NAMES: [&str; 6] = [
    "generate",
    "sql.parse",
    "difftree.lower",
    "search.mcts",
    "interface.map",
    "engine.exec_log",
];

pub fn parse_report(lines: &[String], wall_ms: f64) -> Result<GenReport, String> {
    let mut spans = Vec::new();
    let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
    for line in lines {
        if let Some(rest) = line.strip_prefix("SPAN ") {
            let p: Vec<&str> = rest.split(' ').collect();
            let [name, start, end, parent, op] = p[..] else {
                return Err(format!("bad span line {line:?}"));
            };
            let name = SPAN_NAMES
                .iter()
                .find(|n| **n == name)
                .ok_or_else(|| format!("unknown span {name:?}"))?;
            let num = |s: &str| s.parse::<i64>().map_err(|e| format!("{line:?}: {e}"));
            let parent = num(parent)?;
            spans.push(Span {
                name,
                start_ns: num(start)? as u64,
                end_ns: num(end)? as u64,
                parent: (parent >= 0).then_some(parent as usize),
                op: num(op)? as u64,
            });
        } else if let Some(rest) = line.strip_prefix("GEN ") {
            fields = rest
                .split(' ')
                .filter_map(|kv| kv.split_once('='))
                .collect();
        }
    }
    let f = |key: &str| -> Result<f64, String> {
        fields
            .get(key)
            .ok_or_else(|| format!("child report lacks {key}"))?
            .parse::<f64>()
            .map_err(|e| format!("{key}: {e}"))
    };
    Ok(GenReport {
        ms: f("ms")?,
        cost: f("cost")?,
        iterations: f("iterations")? as u64,
        states: f("states")? as u64,
        queries: f("queries")? as u64,
        covered: f("covered")? as u64,
        choices: f("choices")? as u64,
        rss_mib: f("rss_mib")?,
        spans,
        wall_ms,
    })
}

fn run_child(input: &str, workers: usize, staged: bool) -> Result<GenReport, String> {
    let args = [
        "child-generate".to_string(),
        input.to_string(),
        workers.to_string(),
        if staged { "staged" } else { "plain" }.to_string(),
    ];
    let t0 = Instant::now();
    let lines = ChildProc::spawn(&args)?.finish()?;
    parse_report(&lines, t0.elapsed().as_secs_f64() * 1e3)
}

/// Per-input results of a set of rounds. Every child is one checked
/// operation of `out`: it must return `Ok`, its covers must sum to the
/// choice count, it must have been cold, and cost / iterations / states
/// must be identical across rounds of one input.
#[derive(Default)]
struct Rounds {
    by_input: BTreeMap<&'static str, Vec<GenReport>>,
}

impl Rounds {
    fn run(&mut self, out: &mut Outcome, input: &'static str, workers: usize, staged: bool) {
        let report = run_child(input, workers, staged).and_then(|r| {
            let first = self.by_input.get(input).and_then(|v| v.first());
            let verdict = if r.covered != r.choices {
                Err(format!("covers {} != choices {}", r.covered, r.choices))
            } else if r.states == 0 {
                Err("states_evaluated is 0: the generation was not cold".to_string())
            } else if first.is_some_and(|f| {
                (f.cost, f.iterations, f.states) != (r.cost, r.iterations, r.states)
            }) {
                Err(format!(
                    "round differs from the first: cost {}, iterations {}, states {}",
                    r.cost, r.iterations, r.states
                ))
            } else {
                Ok(())
            };
            // A report that fails a check still carries a valid timing.
            self.by_input.entry(input).or_default().push(r);
            verdict
        });
        out.check(report.map_err(|why| format!("{input}: {why}")));
    }

    /// One round over all inputs, in seeded order.
    fn round(&mut self, out: &mut Outcome, rng: &mut Rng, workers: usize, staged: bool) {
        let mut order = GEN_INPUTS;
        rng.shuffle(&mut order);
        for input in order {
            self.run(out, input, workers, staged);
        }
    }

    fn column(&self, input: &str, f: impl Fn(&GenReport) -> f64) -> Vec<f64> {
        self.by_input
            .get(input)
            .map(|v| v.iter().map(f).collect())
            .unwrap_or_default()
    }

    fn all(&self, f: impl Fn(&GenReport) -> f64) -> Vec<f64> {
        self.by_input.values().flatten().map(f).collect()
    }
}

/// Cold wall time of one input: the lower quartile over rounds. The work
/// is deterministic and the noise one-sided (a round is only ever slowed
/// down), so the lower quartile repeats better than the median. The spread
/// shown beside it is the interquartile range.
fn input_ms(rounds: &Rounds, input: &str) -> Estimate {
    let ms = rounds.column(input, |r| r.ms);
    Estimate {
        value: lower_quartile(&ms),
        ..Estimate::quartiles_of(&ms)
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut rng = Rng::fork(args.seed, 0x6e);
    let deadline = Instant::now() + args.duration();
    // One discarded round: page cache, binary, allocator.
    Rounds::default().round(&mut Outcome::new(args), &mut rng, 2, false);
    let mut out = Outcome::new(args);
    let mut rounds = Rounds::default();
    let mut n = 0;
    while n < 3 || Instant::now() < deadline {
        rounds.round(&mut out, &mut rng, 2, false);
        n += 1;
    }
    out.note("rounds", n);
    out.note("inputs", GEN_INPUTS.len());
    if rounds.by_input.len() < GEN_INPUTS.len() {
        return Err(format!("generate produced no timing: {:?}", out.errors));
    }
    let per_input: Vec<Estimate> = GEN_INPUTS.iter().map(|i| input_ms(&rounds, i)).collect();
    let sum = |f: fn(&Estimate) -> f64| per_input.iter().map(f).sum::<f64>();
    let values: Vec<f64> = per_input.iter().map(|e| e.value * 1e3).collect();
    let slowest = per_input
        .iter()
        .max_by(|a, b| a.value.total_cmp(&b.value))
        .expect("eight inputs");
    // Everything a child does around the generation itself: spawn, exec,
    // dataset build, report, reap.
    let setup: Vec<f64> = rounds.all(|r| (r.wall_ms - r.ms) / 1e3);
    out.push(Metric::new("setup_s", "s", Estimate::quartiles_of(&setup)));
    let n_in = GEN_INPUTS.len() as f64;
    out.push(Metric::new(
        "ops_per_s",
        "1/s",
        Estimate {
            value: n_in * 1e3 / sum(|e| e.value),
            lo: n_in * 1e3 / sum(|e| e.hi),
            hi: n_in * 1e3 / sum(|e| e.lo),
        },
    ));
    out.push(Metric::new(
        "p50_us",
        "us",
        Estimate::exact(median(&values)),
    ));
    out.push(Metric::new(
        "tail_us",
        "us",
        Estimate {
            value: slowest.value * 1e3,
            lo: slowest.lo * 1e3,
            hi: slowest.hi * 1e3,
        },
    ));
    let rss = rounds.all(|r| r.rss_mib);
    out.push(Metric::new(
        "rss_mb",
        "MiB",
        Estimate::exact(rss.iter().copied().fold(0.0, f64::max)),
    ));
    Ok(out)
}

/// The traced run: untraced rounds for the per-input rows, staged rounds
/// (the child calls the stages one by one under spans) for the per-layer
/// times, and one staged round at 1 search worker.
pub fn run_traced(args: &RunArgs, rec: &mut Recorder) -> Result<Outcome, String> {
    const ROUNDS: usize = 3;
    let mut rng = Rng::fork(args.seed, 0x6e);
    let mut out = Outcome::new(args);
    let mut plain = Rounds::default();
    let mut staged = Rounds::default();
    let mut w1 = Rounds::default();
    for _ in 0..ROUNDS {
        plain.round(&mut out, &mut rng, 2, false);
        staged.round(&mut out, &mut rng, 2, true);
    }
    w1.round(&mut out, &mut rng, 1, true);
    if staged.by_input.len() < GEN_INPUTS.len() || plain.by_input.len() < GEN_INPUTS.len() {
        return Err(format!("generate produced no trace: {:?}", out.errors));
    }
    // Stage time of one input: lower quartile over its staged rounds of
    // the summed spans of that name; the suite value sums the inputs.
    let stage = |set: &Rounds, name: &str| -> f64 {
        GEN_INPUTS
            .iter()
            .map(|input| {
                let per_round: Vec<f64> = set.by_input[input]
                    .iter()
                    .map(|r| {
                        r.spans
                            .iter()
                            .filter(|s| s.name == name)
                            .map(|s| s.duration_ns() as f64 / 1e6)
                            .sum()
                    })
                    .collect();
                lower_quartile(&per_round)
            })
            .sum()
    };
    let first = |f: fn(&GenReport) -> u64| -> f64 {
        GEN_INPUTS
            .iter()
            .map(|i| f(&staged.by_input[i][0]) as f64)
            .sum()
    };
    out.layer("sql.parse_ms", "ms", stage(&staged, "sql.parse"));
    out.layer("sql.queries", "count", first(|r| r.queries));
    out.layer("difftree.lower_ms", "ms", stage(&staged, "difftree.lower"));
    out.layer("search.mcts_ms", "ms", stage(&staged, "search.mcts"));
    out.layer("search.mcts_w1_ms", "ms", stage(&w1, "search.mcts"));
    out.layer("search.iterations", "count", first(|r| r.iterations));
    out.layer("search.states_evaluated", "count", first(|r| r.states));
    out.layer("interface.map_ms", "ms", stage(&staged, "interface.map"));
    out.layer(
        "engine.exec_log_ms",
        "ms",
        stage(&staged, "engine.exec_log"),
    );
    out.layer(
        "gen.cost",
        "cost",
        GEN_INPUTS
            .iter()
            .map(|i| staged.by_input[i][0].cost)
            .sum::<f64>(),
    );
    for input in GEN_INPUTS {
        out.layer(
            &format!("gen.{input}_ms"),
            "ms",
            input_ms(&plain, input).value,
        );
    }
    // Coverage: the share of the traced wall that the stage spans account
    // for (1 − the root span's self time share), over all staged rounds.
    let (mut root_ns, mut own_ns) = (0u64, 0u64);
    for r in staged.by_input.values().flatten() {
        let own = self_times_ns(&r.spans);
        for (s, own) in r.spans.iter().zip(own) {
            if s.name == "generate" {
                root_ns += s.duration_ns();
                own_ns += own;
            }
        }
    }
    let coverage = 1.0 - own_ns as f64 / root_ns.max(1) as f64;
    out.layer("gen.trace_coverage", "ratio", coverage);
    out.check(if (0.9..=1.1).contains(&coverage) {
        Ok(())
    } else {
        Err(format!("gen.trace_coverage {coverage:.3} outside 0.9–1.1"))
    });
    let traced: f64 = GEN_INPUTS.iter().map(|i| input_ms(&staged, i).value).sum();
    let untraced: f64 = GEN_INPUTS.iter().map(|i| input_ms(&plain, i).value).sum();
    out.layer("gen.trace_overhead", "ratio", traced / untraced);
    out.note("rounds", ROUNDS);

    // Keep one staged round's spans per input for the span file.
    let mut shift = 0u64;
    for input in GEN_INPUTS {
        let mut spans = staged.by_input[input][0].spans.clone();
        let end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        for s in &mut spans {
            s.start_ns += shift;
            s.end_ns += shift;
        }
        shift += end;
        rec.adopt(spans);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_lines_parse() {
        let lines = vec![
            "SPAN generate 0 1000 -1 0".to_string(),
            "SPAN sql.parse 10 20 0 3".to_string(),
            "GEN ms=12.5 cost=300.0 iterations=60 states=17 queries=2 covered=4 \
             choices=4 rss_mib=9.5"
                .to_string(),
        ];
        let r = parse_report(&lines, 20.0).unwrap();
        assert_eq!(r.ms, 12.5);
        assert_eq!((r.iterations, r.states, r.queries), (60, 17, 2));
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].op, 3);
        assert!(parse_report(&["GEN ms=1".to_string()], 1.0).is_err());
        assert!(parse_report(&["SPAN nope 0 1 -1 0".to_string()], 1.0).is_err());
    }
}

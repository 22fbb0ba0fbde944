//! The repo's standing benchmark. See `README.md` beside `Cargo.toml` for
//! the workloads, the metrics and how to read them.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run --seed <n> [--seconds <s>] --out <file>
//! benchmark compare <a.json> <b.json> [--bounds BENCHMARK.json]
//! ```
//!
//! The same binary is the driver (load generation, timing, checks), the
//! server child (`child-serve`) and the one-shot generator
//! (`child-generate`); the driver re-executes itself for the other two.

mod child;
mod compare;
mod gen;
mod http;
mod layers;
mod mix;
mod report;
mod scenario;
mod serve;
mod span;
mod stats;
mod verify;
mod ws;

use report::{Outcome, RunArgs, WORKLOADS};
use span::Recorder;
use std::path::PathBuf;

const USAGE: &str = "usage:
  benchmark --workload <generate|serve_warm|serve_scan|live_append|push_ws> \\
            --seed <n> --seconds <s> --trace <0|1>
  benchmark run --seed <n> [--seconds <s>] --out <file>
  benchmark compare <a.json> <b.json> [--bounds <BENCHMARK.json>]";

/// Where span files go: beside the build, never into the source tree.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target
        .join("benchmark")
        .join(format!("trace-{workload}.jsonl"))
}

/// One run of one workload, end to end or traced.
fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    let mut rec = Recorder::new();
    let mut out = match (args.workload.as_str(), args.trace) {
        ("generate", false) => gen::run(args),
        ("generate", true) => gen::run_traced(args, &mut rec),
        (name, trace) => {
            let kind = serve::Kind::parse(name).ok_or_else(|| {
                format!(
                    "unknown workload {name:?} (one of {})",
                    WORKLOADS.join(", ")
                )
            })?;
            if trace {
                layers::run_traced(kind, args, &mut rec)
            } else {
                serve::run(kind, args)
            }
        }
    }?;
    out.normalise()?;
    if args.trace {
        let path = trace_path(&args.workload);
        rec.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.note(
            "spans",
            format!("{} in {}", rec.spans().len(), path.display()),
        );
    }
    Ok(out)
}

struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, flag: &str) -> Result<Option<u64>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|e| format!("{flag} {v:?}: {e}")))
            .transpose()
    }

    fn required(&self, flag: &str) -> Result<u64, String> {
        self.number(flag)?
            .ok_or_else(|| format!("{flag} is required\n{USAGE}"))
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags(&argv);
    match argv.first().map(String::as_str) {
        Some("child-serve") => {
            let tier = argv
                .get(1)
                .and_then(|t| scenario::Tier::parse(t))
                .ok_or("child-serve <covid|big>")?;
            scenario::child_serve(tier).map(|()| true)
        }
        Some("child-generate") => {
            let [_, input, workers, mode] = &argv[..] else {
                return Err("child-generate <input> <workers> <plain|staged>".into());
            };
            let workers = workers.parse().map_err(|e| format!("workers: {e}"))?;
            scenario::child_generate(input, workers, mode == "staged").map(|()| true)
        }
        Some("run") => {
            let seed = flags.required("--seed")?;
            let seconds = flags.number("--seconds")?.unwrap_or(15);
            let out_path = flags.value("--out").ok_or("--out is required")?;
            // A process of its own per run, as the driver does it: the
            // search tables and the result memo are process-global, so a
            // second run in this process would start warm.
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let mut runs = Vec::new();
            let mut clean = true;
            for workload in WORKLOADS {
                for trace in ["0", "1"] {
                    let done = std::process::Command::new(&exe)
                        .args(["--workload", workload, "--trace", trace, "--full"])
                        .args(["--seed", &seed.to_string()])
                        .args(["--seconds", &seconds.to_string()])
                        .stderr(std::process::Stdio::inherit())
                        .output()
                        .map_err(|e| format!("{workload}: {e}"))?;
                    let text = String::from_utf8_lossy(&done.stdout);
                    let (table, result) = text
                        .trim_end()
                        .rsplit_once('\n')
                        .filter(|_| matches!(done.status.code(), Some(0 | 1)))
                        .ok_or_else(|| format!("{workload} (trace {trace}) produced no result"))?;
                    println!("{table}");
                    clean &= done.status.success();
                    runs.push(format!("    {result}"));
                }
            }
            let text = format!(
                "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"box\": {},\n  \
                 \"runs\": [\n{}\n  ]\n}}\n",
                layers::reference_box(),
                runs.join(",\n")
            );
            std::fs::write(out_path, text).map_err(|e| format!("{out_path}: {e}"))?;
            println!("wrote {out_path}");
            Ok(clean)
        }
        Some("compare") => {
            let [_, a, b, ..] = &argv[..] else {
                return Err(USAGE.into());
            };
            let bounds = flags.value("--bounds").unwrap_or("BENCHMARK.json");
            compare::compare_files(a, b, bounds)
        }
        _ => {
            let workload = flags
                .value("--workload")
                .ok_or_else(|| USAGE.to_string())?
                .to_string();
            let seconds = flags.required("--seconds")?;
            if !(1..=60).contains(&seconds) {
                return Err(format!("--seconds {seconds}: must be 1 to 60"));
            }
            let out = run_workload(&RunArgs {
                workload,
                seed: flags.required("--seed")?,
                seconds,
                trace: flags.required("--trace")? != 0,
            })?;
            print!("{}", out.table());
            // `--full` (used by `run`) adds spreads and notes to the result.
            if argv.iter().any(|a| a == "--full") {
                println!("{}", out.json_full());
            } else {
                println!("{}", out.json_line());
            }
            Ok(out.correct())
        }
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("benchmark: {why}");
            std::process::exit(2);
        }
    }
}

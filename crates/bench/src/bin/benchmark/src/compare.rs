//! `benchmark compare <a.json> <b.json>`: per (metric, workload) row, both
//! values, the ratio with its base, the bound `BENCHMARK.json` fixes, and
//! a verdict. This is how "two sets of runs of one commit agree" is checked
//! and how a later change shows it regressed nothing.

use pi2::Json;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// `b` is not worse by the bound, but the measurements' own spread is
    /// wider than the bound: the rows cannot tell "same" from "changed".
    Unresolved,
    /// A per-layer metric: shown, never judged.
    Info,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Judge `b` against `a`; `spread` is the relative min–max spread of the
/// wider of the two measurements.
pub fn judge(a: f64, b: f64, spread: f64, bound: Option<Bound>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    if worsening(a, b, bound.lower_is_better) > bound.bound {
        Verdict::Worse
    } else if spread > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// One metric of one run of a result file.
struct Measured {
    name: String,
    unit: String,
    value: f64,
    lo: f64,
    hi: f64,
}

impl Measured {
    fn relative_spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.hi - self.lo) / self.value.abs()
        }
    }
}

/// One run of a result file.
struct Run {
    workload: String,
    trace: bool,
    failed: f64,
    metrics: Vec<Measured>,
}

fn runs_of(text: &str, path: &str) -> Result<Vec<Run>, String> {
    let json = Json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let runs = json.get("runs").and_then(Json::as_arr).ok_or_else(|| {
        format!("{path}: no \"runs\" array (is it the output of `benchmark run`?)")
    })?;
    runs.iter()
        .map(|run| {
            let workload = run.get("workload").and_then(Json::as_str);
            let trace = run.get("trace").and_then(Json::as_bool);
            let failed = run.get("failed").and_then(Json::as_f64);
            let metrics = run.get("metrics").and_then(Json::as_obj);
            let (Some(workload), Some(trace), Some(failed), Some(metrics)) =
                (workload, trace, failed, metrics)
            else {
                return Err(format!("{path}: malformed run entry"));
            };
            let num = |m: &Json, key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let metrics = metrics
                .iter()
                .map(|(name, m)| Measured {
                    name: name.clone(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    value: num(m, "value"),
                    lo: num(m, "lo"),
                    hi: num(m, "hi"),
                })
                .collect();
            Ok(Run {
                workload: workload.to_string(),
                trace,
                failed,
                metrics,
            })
        })
        .collect()
}

/// The end-to-end bounds of `BENCHMARK.json`.
pub fn bounds_of(text: &str, path: &str) -> Result<Vec<(String, Bound)>, String> {
    let json = Json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"end_to_end\" array"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok((
                    name.to_string(),
                    Bound {
                        lower_is_better: better == "lower",
                        bound,
                    },
                )),
                _ => Err(format!("{path}: malformed end_to_end entry")),
            }
        })
        .collect()
}

/// Compare two result files; `Ok(false)` when any row is worse or more
/// operations failed.
pub fn compare(a: &str, b: &str, bounds: &[(String, Bound)]) -> Result<(String, bool), String> {
    let (a, b) = (runs_of(a, "a")?, runs_of(b, "b")?);
    let mut report = String::new();
    let mut ok = true;
    let _ = writeln!(
        report,
        "{:<12} {:<26} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    for run_a in &a {
        let (workload, trace) = (&run_a.workload, run_a.trace);
        let Some(run_b) = b
            .iter()
            .find(|r| r.workload == *workload && r.trace == trace)
        else {
            let _ = writeln!(report, "{workload:<12} (trace {trace}) missing from b");
            ok = false;
            continue;
        };
        if run_b.failed > run_a.failed {
            let _ = writeln!(
                report,
                "{workload:<12} failed operations rose from {} to {}",
                run_a.failed, run_b.failed
            );
            ok = false;
        }
        for ma in &run_a.metrics {
            let Some(mb) = run_b.metrics.iter().find(|m| m.name == ma.name) else {
                continue;
            };
            let bound = bounds.iter().find(|(n, _)| *n == ma.name).map(|(_, b)| *b);
            let spread = ma.relative_spread().max(mb.relative_spread());
            let verdict = judge(ma.value, mb.value, spread, bound);
            ok &= verdict != Verdict::Worse;
            let _ = writeln!(
                report,
                "{workload:<12} {:<26} {:>14.4} {:>14.4} {:>9.4} {:>6}  {}",
                format!("{} ({})", ma.name, ma.unit),
                ma.value,
                mb.value,
                mb.value / ma.value,
                bound.map_or("-".to_string(), |b| format!("{:.2}", b.bound)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Info => "",
                }
            );
        }
    }
    Ok((report, ok))
}

pub fn compare_files(a: &str, b: &str, bounds: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = bounds_of(&read(bounds)?, bounds)?;
    let (report, ok) = compare(&read(a)?, &read(b)?, &bounds)?;
    print!("{report}");
    println!(
        "{}",
        if ok {
            "no row is worse"
        } else {
            "WORSE rows above"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(p50: f64, lo: f64, hi: f64, failed: u64) -> String {
        format!(
            "{{\"runs\": [{{\"workload\": \"serve_warm\", \"seed\": 1, \"seconds\": 10, \
             \"trace\": false, \"attempted\": 10, \"failed\": {failed}, \"notes\": {{}}, \
             \"metrics\": {{\"p50_us\": {{\"value\": {p50}, \"unit\": \"us\", \"lo\": {lo}, \
             \"hi\": {hi}}}, \"ops_per_s\": {{\"value\": 100.0, \"unit\": \"1/s\", \
             \"lo\": 100.0, \"hi\": 100.0}}}}}}]}}"
        )
    }

    fn bounds() -> Vec<(String, Bound)> {
        bounds_of(
            "{\"end_to_end\": [{\"name\": \"p50_us\", \"unit\": \"us\", \"better\": \"lower\", \
             \"bound\": 0.1}, {\"name\": \"ops_per_s\", \"unit\": \"1/s\", \"better\": \
             \"higher\", \"bound\": 0.1}]}",
            "b",
        )
        .unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 120.0, true) - 0.2).abs() < 1e-12);
        assert!((worsening(100.0, 120.0, false) + 0.2).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, false) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn within_bound_is_ok_beyond_is_worse() {
        let (_, ok) = compare(
            &file(50.0, 50.0, 50.0, 0),
            &file(54.0, 54.0, 54.0, 0),
            &bounds(),
        )
        .unwrap();
        assert!(ok);
        let (report, ok) = compare(
            &file(50.0, 50.0, 50.0, 0),
            &file(56.0, 56.0, 56.0, 0),
            &bounds(),
        )
        .unwrap();
        assert!(!ok);
        assert!(report.contains("WORSE"), "{report}");
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let (report, ok) = compare(
            &file(50.0, 40.0, 60.0, 0),
            &file(51.0, 51.0, 51.0, 0),
            &bounds(),
        )
        .unwrap();
        assert!(ok, "unresolved does not fail the comparison");
        assert!(report.contains("unresolved"), "{report}");
    }

    #[test]
    fn more_failed_operations_fail_the_comparison() {
        let (report, ok) = compare(
            &file(50.0, 50.0, 50.0, 0),
            &file(50.0, 50.0, 50.0, 2),
            &bounds(),
        )
        .unwrap();
        assert!(!ok);
        assert!(report.contains("failed operations rose"), "{report}");
    }
}

//! The CI perf-regression gate.
//!
//! The vendored criterion shim appends `baseline,bench,mean_ns` lines to
//! `target/criterion-baselines.csv` under `--save-baseline <name>`. The
//! gate compares such a freshly-measured baseline against the committed
//! `BENCH_baseline.json` (a flat `{"bench": mean_ns}` object regenerated
//! whenever a PR moves the numbers, plus an optional `"runners"` section
//! of per-runner-label overrides — see [`parse_baseline_json_for`]) and
//! fails when any **gated** bench — `mcts/*`, `engine/exec_*`,
//! `engine/ivm_*`, `data/kernels_*`, `data/append_big`,
//! `data/register_big`, `service/session_throughput/*`,
//! `service/server_throughput/*`, `service/ws_push_fanout/*`,
//! `service/append_dispatch/*` — regresses
//! by more than the threshold
//! (default 25%). Ungated benches are reported but never fail the job
//! (per-log end-to-end numbers are tracked through the emitted snapshot
//! instead). Runner-sensitive tiers (`engine/exec_big_*`, `engine/ivm_*`,
//! `data/append_big`, `data/register_big`, `data/kernels_*`)
//! only warn when no per-runner baseline entry backs them — their numbers
//! don't transfer across machines (see [`check`]).
//!
//! Used by `tools/bench_gate.rs` (the `bench_gate` binary the `bench-smoke`
//! CI job runs), which also emits the fresh means as a `BENCH_PR<n>.json`
//! artifact so the perf trajectory stays machine-readable per PR.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Bench-name prefixes whose regressions fail the gate.
pub const GATED_PREFIXES: [&str; 11] = [
    "mcts/",
    "engine/exec_",
    "engine/exec_big_",
    "engine/ivm_",
    "data/kernels_",
    "data/append_big",
    "data/register_big",
    "service/session_throughput/",
    "service/server_throughput/",
    "service/ws_push_fanout/",
    "service/append_dispatch/",
];

/// Bench-name prefixes whose absolute numbers depend on the runner's
/// memory bandwidth and SIMD level (the 10⁷-row big tier, its registration
/// and the live-path benches over it, and the kernel microbenches).
/// Comparing these against another machine's flat baseline is meaningless,
/// so without a per-runner baseline entry they warn instead of failing the
/// gate (see [`check`]).
pub const RUNNER_SENSITIVE_PREFIXES: [&str; 5] = [
    "engine/exec_big_",
    "engine/ivm_",
    "data/kernels_",
    "data/append_big",
    "data/register_big",
];

/// Default regression threshold: fail when `fresh > committed * 1.25`.
pub const DEFAULT_THRESHOLD: f64 = 1.25;

/// One gate finding.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// A gated bench regressed beyond the threshold.
    Regression {
        /// Bench name.
        bench: String,
        /// Committed mean (ns).
        committed: f64,
        /// Fresh mean (ns).
        fresh: f64,
    },
    /// A gated bench present in the committed baseline is missing from the
    /// fresh run (a silently-dropped bench must not pass the gate).
    Missing {
        /// Bench name.
        bench: String,
    },
    /// A runner-sensitive bench moved beyond the threshold against a mean
    /// measured on a *different* machine (no per-runner baseline entry):
    /// reported, never fatal. Promote the runner's own numbers (`bench_gate
    /// promote`) to turn these into real [`Finding::Regression`]s.
    Warning {
        /// Bench name.
        bench: String,
        /// Committed mean (ns) — from the flat, other-machine baseline.
        committed: f64,
        /// Fresh mean (ns).
        fresh: f64,
    },
}

impl Finding {
    /// Whether this finding fails the gate (warnings never do).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, Finding::Warning { .. })
    }
}

/// Parse the criterion shim's CSV (`baseline,bench,mean_ns` per line),
/// keeping only rows for `baseline_name`. Later lines win: re-running a
/// bench appends, and the freshest measurement is the one to gate.
pub fn parse_csv(csv: &str, baseline_name: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in csv.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // The bench name may not contain commas (group/fn/param only), so
        // a 3-way split is exact.
        let mut parts = line.splitn(3, ',');
        let (Some(name), Some(bench), Some(mean)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if name != baseline_name {
            continue;
        }
        if let Ok(mean) = mean.trim().parse::<f64>() {
            out.insert(bench.to_string(), mean);
        }
    }
    out
}

/// Parse a committed `BENCH_baseline.json` without runner selection —
/// shorthand for [`parse_baseline_json_for`] with no runner label.
pub fn parse_baseline_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    parse_baseline_json_for(text, None)
}

/// Parse a committed `BENCH_baseline.json`, selecting per-runner
/// overrides.
///
/// The file is a flat `{"bench": mean_ns}` object, optionally holding one
/// special `"runners"` key: `{"<label>": {"bench": mean_ns, …}, …}`. When
/// `runner` names a label with an entry, that label's means override the
/// flat ones *bench by bench* — a bench with no per-runner mean falls back
/// to the unlabeled (dev-machine) baseline, so committing per-runner
/// numbers is incremental: promote them from a CI run's `BENCH_PR.json`
/// artifact one bench at a time, and everything not yet promoted keeps
/// gating against the dev numbers under the wide threshold.
pub fn parse_baseline_json_for(
    text: &str,
    runner: Option<&str>,
) -> Result<BTreeMap<String, f64>, String> {
    let parsed = pi2::Json::parse(text).map_err(|e| e.to_string())?;
    let pi2::Json::Obj(entries) = &parsed else {
        return Err("baseline JSON must be an object".into());
    };
    let mut out = BTreeMap::new();
    let mut overrides = BTreeMap::new();
    for (bench, v) in entries {
        if bench == "runners" {
            let pi2::Json::Obj(runners) = v else {
                return Err("'runners' must be an object of per-runner baselines".into());
            };
            let Some(label) = runner else { continue };
            let Some((_, per_runner)) = runners.iter().find(|(name, _)| name == label) else {
                continue;
            };
            let pi2::Json::Obj(means) = per_runner else {
                return Err(format!("runner {label:?} baseline must be an object"));
            };
            for (bench, mean) in means {
                let mean = mean.as_f64().ok_or_else(|| {
                    format!("runner {label:?} bench {bench:?} has a non-numeric mean")
                })?;
                overrides.insert(bench.clone(), mean);
            }
            continue;
        }
        let mean = v
            .as_f64()
            .ok_or_else(|| format!("bench {bench:?} has a non-numeric mean"))?;
        out.insert(bench.clone(), mean);
    }
    out.extend(overrides);
    Ok(out)
}

/// Serialise means as the flat JSON object both baseline files use.
pub fn means_to_json(means: &BTreeMap<String, f64>) -> String {
    baseline_to_json(means, &BTreeMap::new())
}

/// Per-runner baseline overrides: runner label → bench → mean (ns).
pub type RunnerBaselines = BTreeMap<String, BTreeMap<String, f64>>;

/// Extract a baseline file's `"runners"` section (empty when absent).
/// `write-baseline` uses this to carry hand-promoted per-runner entries
/// through a regeneration instead of silently deleting them.
pub fn parse_runners(text: &str) -> Result<RunnerBaselines, String> {
    let parsed = pi2::Json::parse(text).map_err(|e| e.to_string())?;
    let pi2::Json::Obj(entries) = &parsed else {
        return Err("baseline JSON must be an object".into());
    };
    let mut out = RunnerBaselines::new();
    let Some((_, runners)) = entries.iter().find(|(name, _)| name == "runners") else {
        return Ok(out);
    };
    let pi2::Json::Obj(runners) = runners else {
        return Err("'runners' must be an object of per-runner baselines".into());
    };
    for (label, per_runner) in runners {
        let pi2::Json::Obj(means) = per_runner else {
            return Err(format!("runner {label:?} baseline must be an object"));
        };
        let mut parsed_means = BTreeMap::new();
        for (bench, mean) in means {
            let mean = mean.as_f64().ok_or_else(|| {
                format!("runner {label:?} bench {bench:?} has a non-numeric mean")
            })?;
            parsed_means.insert(bench.clone(), mean);
        }
        out.insert(label.clone(), parsed_means);
    }
    Ok(out)
}

/// Serialise a full baseline file: flat means plus (when non-empty) the
/// `"runners"` override section.
pub fn baseline_to_json(means: &BTreeMap<String, f64>, runners: &RunnerBaselines) -> String {
    let mut out = String::from("{\n");
    for (i, (bench, mean)) in means.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(out, "  \"{}\": {}", bench, *mean as u64);
    }
    if !runners.is_empty() {
        if !means.is_empty() {
            out.push_str(",\n");
        }
        out.push_str("  \"runners\": {\n");
        for (i, (label, per_runner)) in runners.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = writeln!(out, "    \"{}\": {{", label);
            for (j, (bench, mean)) in per_runner.iter().enumerate() {
                if j > 0 {
                    out.push_str(",\n");
                }
                let _ = write!(out, "      \"{}\": {}", bench, *mean as u64);
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// Whether a bench participates in the gate.
pub fn is_gated(bench: &str) -> bool {
    GATED_PREFIXES.iter().any(|p| bench.starts_with(p))
}

/// Whether a bench's numbers are only comparable on the machine that
/// measured the baseline (see [`RUNNER_SENSITIVE_PREFIXES`]).
pub fn runner_sensitive(bench: &str) -> bool {
    RUNNER_SENSITIVE_PREFIXES
        .iter()
        .any(|p| bench.starts_with(p))
}

/// The benches whose committed mean under `runner` comes from a per-runner
/// override (empty with no label, or a label with no entry). [`check`]
/// uses this provenance to decide whether a runner-sensitive bench gates
/// hard or merely warns.
pub fn runner_backed(
    baseline_text: &str,
    runner: Option<&str>,
) -> Result<BTreeSet<String>, String> {
    let Some(label) = runner else {
        return Ok(BTreeSet::new());
    };
    let runners = parse_runners(baseline_text)?;
    Ok(runners
        .get(label)
        .map(|means| means.keys().cloned().collect())
        .unwrap_or_default())
}

/// Promote a CI run's fresh means (a `BENCH_PR<n>.json` artifact) into the
/// committed baseline's `"runners"` section under `label`, returning the
/// rewritten baseline file.
///
/// Only **gated** benches are promoted — ungated benches never fail the
/// gate, so per-runner overrides for them would be dead weight. Promoted
/// means replace the label's previous entry for the same bench; benches
/// the artifact does not measure keep their existing per-runner mean, and
/// the flat (dev-machine) section is untouched. This is the maintained
/// path for turning "CI gates runner numbers against dev numbers under a
/// wide threshold" into apples-to-apples per-runner gating.
pub fn promote(
    baseline_text: &str,
    pr_means: &BTreeMap<String, f64>,
    label: &str,
) -> Result<String, String> {
    let flat = parse_baseline_json(baseline_text)?;
    let mut runners = parse_runners(baseline_text)?;
    let promoted: BTreeMap<String, f64> = pr_means
        .iter()
        .filter(|(bench, _)| is_gated(bench))
        .map(|(bench, &mean)| (bench.clone(), mean))
        .collect();
    if promoted.is_empty() {
        return Err("artifact holds no gated benches to promote".into());
    }
    runners
        .entry(label.to_string())
        .or_default()
        .extend(promoted);
    Ok(baseline_to_json(&flat, &runners))
}

/// Compare fresh means against the committed baseline. Only gated benches
/// produce findings; a gated bench missing from the fresh run is a finding
/// too. Benches new in the fresh run pass (they have no baseline yet).
///
/// `runner_backed` is the provenance set from [`runner_backed`]: a
/// [`runner_sensitive`] bench whose committed mean did **not** come from a
/// per-runner entry produces a non-fatal [`Finding::Warning`] instead of a
/// regression — its baseline was measured on a different machine, so a
/// slower number there says nothing about the change. Benches whose
/// numbers are machine-portable (and any
/// bench with a promoted per-runner mean) still fail hard.
pub fn check(
    committed: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    threshold: f64,
    runner_backed: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (bench, &base) in committed {
        if !is_gated(bench) {
            continue;
        }
        match fresh.get(bench) {
            None => findings.push(Finding::Missing {
                bench: bench.clone(),
            }),
            Some(&now) if base > 0.0 && now > base * threshold => {
                if runner_sensitive(bench) && !runner_backed.contains(bench) {
                    findings.push(Finding::Warning {
                        bench: bench.clone(),
                        committed: base,
                        fresh: now,
                    })
                } else {
                    findings.push(Finding::Regression {
                        bench: bench.clone(),
                        committed: base,
                        fresh: now,
                    })
                }
            }
            Some(_) => {}
        }
    }
    findings
}

/// Human-readable report of a gate run (one line per gated bench).
pub fn report(
    committed: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    threshold: f64,
    runner_backed: &BTreeSet<String>,
) -> String {
    let mut out = String::new();
    for (bench, &now) in fresh {
        let gated = if is_gated(bench) { "gated" } else { "info " };
        match committed.get(bench) {
            Some(&base) if base > 0.0 => {
                let ratio = now / base;
                let verdict = if !is_gated(bench) {
                    "-"
                } else if ratio <= threshold {
                    "ok"
                } else if runner_sensitive(bench) && !runner_backed.contains(bench) {
                    "warn (no per-runner baseline)"
                } else {
                    "FAIL"
                };
                let _ = writeln!(
                    out,
                    "{gated} {bench:<44} {base:>12.0} -> {now:>12.0} ns  ({ratio:>5.2}x)  {verdict}"
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "{gated} {bench:<44} {:>12} -> {now:>12.0} ns  (new)",
                    "-"
                );
            }
        }
    }
    for f in check(committed, fresh, threshold, runner_backed) {
        if let Finding::Missing { bench } = f {
            let _ = writeln!(out, "gated {bench:<44} MISSING from fresh run  FAIL");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn means(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn csv_parses_and_later_lines_win() {
        let csv = "ci,mcts/explore_30iters,1000\n\
                   other,mcts/explore_30iters,9\n\
                   ci,engine/exec_filter/vectorized/8,500\n\
                   ci,mcts/explore_30iters,1100\n";
        let m = parse_csv(csv, "ci");
        assert_eq!(m.len(), 2);
        assert_eq!(m["mcts/explore_30iters"], 1100.0);
        assert_eq!(m["engine/exec_filter/vectorized/8"], 500.0);
    }

    #[test]
    fn json_round_trips() {
        let m = means(&[("mcts/a", 123.0), ("engine/exec_b", 77.0)]);
        let j = means_to_json(&m);
        assert_eq!(parse_baseline_json(&j).unwrap(), m);
    }

    const RUNNER_KEYED: &str = r#"{
        "mcts/a": 1000,
        "engine/exec_b": 200,
        "runners": {
            "ubuntu-latest": { "mcts/a": 3000 },
            "macos-14": { "mcts/a": 1500, "engine/exec_b": 400 }
        }
    }"#;

    #[test]
    fn runner_label_overrides_bench_by_bench() {
        let m = parse_baseline_json_for(RUNNER_KEYED, Some("ubuntu-latest")).unwrap();
        assert_eq!(m["mcts/a"], 3000.0, "per-runner mean wins");
        assert_eq!(
            m["engine/exec_b"], 200.0,
            "unlisted bench falls back to the flat baseline"
        );
        let m = parse_baseline_json_for(RUNNER_KEYED, Some("macos-14")).unwrap();
        assert_eq!((m["mcts/a"], m["engine/exec_b"]), (1500.0, 400.0));
    }

    #[test]
    fn unknown_or_absent_runner_falls_back_entirely() {
        let flat = means(&[("mcts/a", 1000.0), ("engine/exec_b", 200.0)]);
        assert_eq!(
            parse_baseline_json_for(RUNNER_KEYED, Some("windows-2022")).unwrap(),
            flat,
            "label with no entry keeps the committed dev-machine numbers"
        );
        assert_eq!(
            parse_baseline_json_for(RUNNER_KEYED, None).unwrap(),
            flat,
            "no label ignores the runners section"
        );
        // A baseline with no runners section accepts any label.
        let j = means_to_json(&flat);
        assert_eq!(
            parse_baseline_json_for(&j, Some("ubuntu-latest")).unwrap(),
            flat
        );
    }

    #[test]
    fn baseline_serializer_round_trips_runners() {
        let flat = means(&[("mcts/a", 1000.0), ("engine/exec_b", 200.0)]);
        let runners: RunnerBaselines =
            [("ubuntu-latest".to_string(), means(&[("mcts/a", 3000.0)]))]
                .into_iter()
                .collect();
        let j = baseline_to_json(&flat, &runners);
        // The flat section parses as before; the runners section survives
        // a parse → re-serialise cycle (what write-baseline relies on to
        // not delete hand-promoted entries).
        assert_eq!(parse_baseline_json(&j).unwrap(), flat);
        assert_eq!(parse_runners(&j).unwrap(), runners);
        assert_eq!(baseline_to_json(&flat, &parse_runners(&j).unwrap()), j);
        let m = parse_baseline_json_for(&j, Some("ubuntu-latest")).unwrap();
        assert_eq!(m["mcts/a"], 3000.0);
        // Runner-less files yield an empty section, and means_to_json is
        // the runner-less special case.
        assert_eq!(
            parse_runners(&means_to_json(&flat)).unwrap(),
            RunnerBaselines::new()
        );
        assert_eq!(
            baseline_to_json(&flat, &RunnerBaselines::new()),
            means_to_json(&flat)
        );
    }

    #[test]
    fn malformed_runner_sections_error() {
        assert!(parse_baseline_json_for(r#"{"runners": 5}"#, None).is_err());
        assert!(
            parse_baseline_json_for(r#"{"runners": {"x": 5}}"#, Some("x")).is_err(),
            "a runner entry must be an object"
        );
        assert!(
            parse_baseline_json_for(r#"{"runners": {"x": {"b": "fast"}}}"#, Some("x")).is_err(),
            "runner means must be numeric"
        );
    }

    #[test]
    fn gating_prefixes() {
        assert!(is_gated("mcts/explore_30iters"));
        assert!(is_gated("engine/exec_filter/vectorized/8"));
        assert!(is_gated("engine/exec_big_filter/t8"));
        assert!(is_gated("engine/exec_big_join/t1"));
        assert!(is_gated("service/session_throughput/covid/warm"));
        assert!(is_gated("service/server_throughput/covid"));
        assert!(is_gated("service/ws_push_fanout/covid"));
        assert!(is_gated("service/append_dispatch/covid"));
        // Per-log end-to-end benches are informational, not gated — and
        // `engine/exec_` must not swallow `engine/execute_log/*`.
        assert!(!is_gated("engine/execute_log/sdss"));
        assert!(!is_gated("transform/bind_all_filter"));
    }

    #[test]
    fn promote_adds_gated_benches_under_runner_label() {
        let baseline = baseline_to_json(
            &means(&[("mcts/a", 1000.0), ("engine/exec_big_filter/t8", 500.0)]),
            &[("macos-14".to_string(), means(&[("mcts/a", 1500.0)]))]
                .into_iter()
                .collect(),
        );
        let artifact = means(&[
            ("mcts/a", 3000.0),
            ("engine/exec_big_filter/t8", 900.0),
            ("engine/execute_log/sdss", 7.0), // ungated: not promoted
        ]);
        let rewritten = promote(&baseline, &artifact, "ubuntu-latest").unwrap();
        // Flat section untouched; new label holds only the gated benches.
        assert_eq!(
            parse_baseline_json(&rewritten).unwrap(),
            parse_baseline_json(&baseline).unwrap()
        );
        let runners = parse_runners(&rewritten).unwrap();
        assert_eq!(
            runners["ubuntu-latest"],
            means(&[("mcts/a", 3000.0), ("engine/exec_big_filter/t8", 900.0)])
        );
        // Pre-existing labels survive; re-promoting overwrites per bench.
        assert_eq!(runners["macos-14"], means(&[("mcts/a", 1500.0)]));
        let again = promote(&rewritten, &means(&[("mcts/a", 2800.0)]), "ubuntu-latest").unwrap();
        let runners = parse_runners(&again).unwrap();
        assert_eq!(runners["ubuntu-latest"]["mcts/a"], 2800.0);
        assert_eq!(runners["ubuntu-latest"]["engine/exec_big_filter/t8"], 900.0);
        // A gate under the promoted label now uses the CI numbers.
        let m = parse_baseline_json_for(&again, Some("ubuntu-latest")).unwrap();
        assert_eq!(m["mcts/a"], 2800.0);
        // An artifact with nothing gated is an error, not a no-op.
        assert!(promote(&baseline, &means(&[("transform/x", 1.0)]), "l").is_err());
    }

    #[test]
    fn regressions_beyond_threshold_fail() {
        let committed = means(&[("mcts/a", 1000.0), ("engine/exec_b/v/1", 100.0)]);
        // 20% slower passes at a 25% threshold; 30% slower fails.
        let fresh = means(&[("mcts/a", 1200.0), ("engine/exec_b/v/1", 130.0)]);
        let f = check(&committed, &fresh, DEFAULT_THRESHOLD, &BTreeSet::new());
        assert_eq!(
            f,
            vec![Finding::Regression {
                bench: "engine/exec_b/v/1".into(),
                committed: 100.0,
                fresh: 130.0,
            }]
        );
    }

    #[test]
    fn improvements_and_ungated_changes_pass() {
        let committed = means(&[
            ("mcts/a", 1000.0),
            ("engine/execute_log/sales", 100.0), // ungated
        ]);
        let fresh = means(&[
            ("mcts/a", 400.0),                    // improvement
            ("engine/execute_log/sales", 9000.0), // ungated regression
        ]);
        assert!(check(&committed, &fresh, DEFAULT_THRESHOLD, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn missing_gated_bench_fails() {
        let committed = means(&[("mcts/a", 1000.0)]);
        let fresh = means(&[]);
        assert_eq!(
            check(&committed, &fresh, DEFAULT_THRESHOLD, &BTreeSet::new()),
            vec![Finding::Missing {
                bench: "mcts/a".into()
            }]
        );
    }

    #[test]
    fn runner_sensitive_prefixes() {
        assert!(runner_sensitive("engine/exec_big_filter/t8"));
        assert!(runner_sensitive("data/kernels_filter/avx2"));
        assert!(is_gated("data/kernels_agg/t1"), "kernels benches are gated");
        for live in [
            "data/append_big",
            "data/register_big",
            "engine/ivm_delta_big",
            "engine/ivm_build_big",
        ] {
            assert!(is_gated(live) && runner_sensitive(live), "{live}");
        }
        assert!(!runner_sensitive("mcts/explore_30iters"));
        assert!(!runner_sensitive("engine/exec_filter/vectorized/8"));
    }

    #[test]
    fn runner_sensitive_regression_without_runner_entry_warns() {
        let committed = means(&[
            ("engine/exec_big_filter/t8", 100.0),
            ("data/kernels_agg/sum_i64", 50.0),
            ("mcts/a", 1000.0),
        ]);
        // Everything 10x slower: the dev-container numbers against a dev
        // machine's flat baseline.
        let fresh = means(&[
            ("engine/exec_big_filter/t8", 1000.0),
            ("data/kernels_agg/sum_i64", 500.0),
            ("mcts/a", 10_000.0),
        ]);
        let f = check(&committed, &fresh, DEFAULT_THRESHOLD, &BTreeSet::new());
        // The machine-portable mcts bench still fails hard; the two
        // runner-sensitive tiers warn.
        let fatal: Vec<_> = f.iter().filter(|f| f.is_fatal()).collect();
        assert_eq!(
            fatal,
            vec![&Finding::Regression {
                bench: "mcts/a".into(),
                committed: 1000.0,
                fresh: 10_000.0,
            }]
        );
        assert_eq!(f.iter().filter(|f| !f.is_fatal()).count(), 2);
        assert!(f.contains(&Finding::Warning {
            bench: "engine/exec_big_filter/t8".into(),
            committed: 100.0,
            fresh: 1000.0,
        }));
        // The report marks the warn verdict distinctly from FAIL.
        let r = report(&committed, &fresh, DEFAULT_THRESHOLD, &BTreeSet::new());
        assert!(r.contains("warn (no per-runner baseline)"), "{r}");
    }

    #[test]
    fn runner_backed_entry_turns_warning_into_regression() {
        let committed = means(&[("engine/exec_big_filter/t8", 100.0)]);
        let fresh = means(&[("engine/exec_big_filter/t8", 1000.0)]);
        let backed: BTreeSet<String> = ["engine/exec_big_filter/t8".to_string()].into();
        let f = check(&committed, &fresh, DEFAULT_THRESHOLD, &backed);
        assert_eq!(
            f,
            vec![Finding::Regression {
                bench: "engine/exec_big_filter/t8".into(),
                committed: 100.0,
                fresh: 1000.0,
            }]
        );
        // A runner-sensitive bench missing from the fresh run still fails:
        // the warn path is about untrustworthy numbers, not dropped benches.
        let f = check(&committed, &means(&[]), DEFAULT_THRESHOLD, &BTreeSet::new());
        assert!(f.iter().all(Finding::is_fatal));
    }

    #[test]
    fn runner_backed_reads_provenance_from_baseline_text() {
        let baseline = baseline_to_json(
            &means(&[("engine/exec_big_filter/t8", 100.0)]),
            &[(
                "ubuntu-latest".to_string(),
                means(&[("engine/exec_big_filter/t8", 900.0)]),
            )]
            .into_iter()
            .collect(),
        );
        let backed = runner_backed(&baseline, Some("ubuntu-latest")).unwrap();
        assert!(backed.contains("engine/exec_big_filter/t8"));
        assert!(runner_backed(&baseline, None).unwrap().is_empty());
        assert!(runner_backed(&baseline, Some("macos-14"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn inflated_fresh_entry_is_reported_in_text() {
        let committed = means(&[("mcts/a", 1000.0)]);
        let fresh = means(&[("mcts/a", 10_000.0)]);
        let r = report(&committed, &fresh, DEFAULT_THRESHOLD, &BTreeSet::new());
        assert!(r.contains("FAIL"), "{r}");
    }
}

//! Run arguments, the result of one run, and how it is printed: every
//! metric by name with its unit, then — last line of stdout — the one
//! JSON object the contract in `BENCHMARK.json` fixes.

use crate::stats::Estimate;
use std::fmt::Write as _;
use std::time::Duration;

pub const WORKLOADS: [&str; 5] = [
    "generate",
    "serve_warm",
    "serve_scan",
    "live_append",
    "push_ws",
];

/// End-to-end metrics (name, unit): reported by every workload on an
/// untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics (name, unit): reported by every workload on a traced
/// run; a metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("sql.parse_ms", "ms"),
    ("sql.queries", "count"),
    ("difftree.lower_ms", "ms"),
    ("search.mcts_ms", "ms"),
    ("search.mcts_w1_ms", "ms"),
    ("search.iterations", "count"),
    ("search.states_evaluated", "count"),
    ("interface.map_ms", "ms"),
    ("engine.exec_log_ms", "ms"),
    ("engine.exec_us", "us"),
    ("engine.exec_scan_us", "us"),
    ("engine.exec_join_us", "us"),
    ("engine.exec_w1_us", "us"),
    ("engine.par_speedup", "ratio"),
    ("engine.rows_per_s", "1/s"),
    ("engine.ivm_read_us", "us"),
    ("engine.rescan_us", "us"),
    ("engine.ivm_hit_ratio", "ratio"),
    ("data.append_us", "us"),
    ("data.append_rows", "count"),
    ("core.decode_us", "us"),
    ("core.dispatch_us", "us"),
    ("core.encode_us", "us"),
    ("core.handle_json_us", "us"),
    ("core.resp_bytes", "bytes"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.invalidated_views", "count"),
    ("core.push_delivered", "count"),
    ("core.trace_coverage", "ratio"),
    ("server.transport_us", "us"),
    ("server.push_lag_us", "us"),
    ("server.requests", "count"),
    ("server.backpressure", "count"),
    ("server.rejected", "count"),
    ("server.push_evictions", "count"),
    ("server.conn_scans", "count"),
    ("wire.events_per_s", "1/s"),
    ("wire.p50_us", "us"),
    ("wire.p99_us", "us"),
    ("wire.append_p50_us", "us"),
    ("wire.push_p50_us", "us"),
    ("wire.push_p99_us", "us"),
    ("wire.request_p50_us", "us"),
    ("wire.scan_p50_us", "us"),
    ("wire.join_p50_us", "us"),
    ("gen.cost", "cost"),
    ("gen.explore_ms", "ms"),
    ("gen.abstract_ms", "ms"),
    ("gen.connect_ms", "ms"),
    ("gen.filter_ms", "ms"),
    ("gen.sdss_ms", "ms"),
    ("gen.covid_ms", "ms"),
    ("gen.sales_ms", "ms"),
    ("gen.filter_x10_ms", "ms"),
    ("gen.trace_coverage", "ratio"),
    ("gen.trace_overhead", "ratio"),
    ("mix.interactions", "count"),
    ("mix.states", "count"),
    ("mix.cycle_events", "count"),
    ("mix.threshold_domain", "count"),
];

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl RunArgs {
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub est: Estimate,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, est: Estimate) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            est,
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// What the run drove (interaction count, state count, …), so a
    /// changed interface is visible in the output.
    pub notes: Vec<(String, String)>,
    /// One line per failed operation (capped).
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new(args: &RunArgs) -> Outcome {
        Outcome {
            workload: args.workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            errors: Vec::new(),
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(Metric::new(name, unit, Estimate::exact(value)));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Count one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.est.value)
    }

    /// Bring the metric list to exactly the names the contract lists for
    /// this kind of run, in its order. A per-layer metric the workload
    /// does not exercise reads 0; a missing or non-finite end-to-end
    /// metric is an error.
    pub fn normalise(&mut self) -> Result<(), String> {
        let wanted: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut out = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.est.value.is_finite() => out.push(Metric { unit, ..m.clone() }),
                Some(m) => return Err(format!("metric {name} is {}", m.est.value)),
                None if self.trace => out.push(Metric::new(name, unit, Estimate::exact(0.0))),
                None => return Err(format!("workload reported no {name}")),
            }
        }
        if let Some(stray) = self
            .metrics
            .iter()
            .find(|m| !wanted.iter().any(|(n, _)| *n == m.name))
        {
            return Err(format!("metric {} is not in the contract", stray.name));
        }
        self.metrics = out;
        Ok(())
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable block: one line per metric.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# {} seed {} seconds {} trace {}",
            self.workload, self.seed, self.seconds, self.trace as u8
        );
        for (k, v) in &self.notes {
            let _ = writeln!(s, "#   {k}: {v}");
        }
        for m in &self.metrics {
            let _ = write!(s, "{:<28} {:>16.4} {:<6}", m.name, m.est.value, m.unit);
            if m.est.lo != m.est.hi {
                let _ = write!(s, " [{:.4} .. {:.4}]", m.est.lo, m.est.hi);
            }
            s.push('\n');
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "{:<28} {:>16.6} ratio  ({} failed of {} attempted)",
            "failed_share", share, self.failed, self.attempted
        );
        for e in &self.errors {
            let _ = writeln!(s, "! {e}");
        }
        s
    }

    /// The contract's result object.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.est.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The ledger form: the result object plus spreads and notes.
    pub fn json_full(&self) -> String {
        let mut s = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"attempted\": {}, \"failed\": {}, \"notes\": {{",
            self.workload, self.seed, self.seconds, self.trace, self.attempted, self.failed
        );
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": \"{}\"", v.replace('"', "'"));
        }
        s.push_str("}, \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"lo\": {}, \"hi\": {}}}",
                m.name,
                json_num(m.est.value),
                m.unit,
                json_num(m.est.lo),
                json_num(m.est.hi)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(trace: bool) -> RunArgs {
        RunArgs {
            workload: "serve_warm".into(),
            seed: 1,
            seconds: 1,
            trace,
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// `BENCHMARK.json` (the contract the driver checks) and the constants
    /// the binary reports by must name the same things.
    #[test]
    fn benchmark_json_names_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = pi2::Json::parse(&text).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |key: &str, with_unit: bool| -> Vec<(String, String)> {
            json.get(key)
                .and_then(pi2::Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(pi2::Json::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (s("name"), if with_unit { s("unit") } else { String::new() })
                })
                .collect()
        };
        let own = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end", true), own(&END_TO_END));
        assert_eq!(listed("per_layer", true), own(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads", false)
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in json.get("end_to_end").and_then(pi2::Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(pi2::Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }

    #[test]
    fn traced_runs_fill_unexercised_layers_with_zero() {
        let mut o = Outcome::new(&args(true));
        o.layer("core.dispatch_us", "us", 4.5);
        o.normalise().unwrap();
        assert_eq!(o.metrics.len(), PER_LAYER.len());
        assert_eq!(o.get("core.dispatch_us"), Some(4.5));
        assert_eq!(o.get("sql.parse_ms"), Some(0.0));
    }

    #[test]
    fn untraced_runs_must_report_every_end_to_end_metric() {
        let mut o = Outcome::new(&args(false));
        o.push(Metric::new("setup_s", "s", Estimate::exact(0.5)));
        assert!(o.normalise().unwrap_err().contains("ops_per_s"));
        let mut o = Outcome::new(&args(false));
        for (name, unit) in END_TO_END {
            o.push(Metric::new(name, unit, Estimate::exact(1.5)));
        }
        o.layer("bogus", "us", 1.0);
        assert!(o.normalise().unwrap_err().contains("bogus"));
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new(&args(false));
        for (name, unit) in END_TO_END {
            o.push(Metric::new(name, unit, Estimate::exact(1.25)));
        }
        o.check(Ok(()));
        o.check(Err("boom".into()));
        o.normalise().unwrap();
        let line = o.json_line();
        let j = pi2::Json::parse(&line).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("attempted").unwrap().as_i64(), Some(2));
        assert_eq!(j.get("failed").unwrap().as_i64(), Some(1));
        let m = j.get("metrics").unwrap().get("p50_us").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("us"));
        assert!(!line.contains('\n'));
    }
}

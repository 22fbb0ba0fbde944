//! Regenerate Figure 17: parameter sensitivity — MCTS time, mapping time,
//! and interface quality while varying one parameter (early stop,
//! parallelism) with the other at the paper default (es = 30, p = 3). The
//! paper also varies the sync interval `s`; here `s` cannot change a search
//! result (`MctsConfig::sync_interval`), so it is not swept.
//!
//! The paper reports Explore, Filter, and Covid ("the remaining logs have
//! results nearly identical to Explore"). Expected shapes: larger es only
//! delays termination without quality gains; parallelism slows MCTS
//! slightly but improves quality for the complex logs.
//!
//! Run with: `cargo run --release -p pi2-bench --bin fig17`

use pi2_bench::{qualities, run_condition, Measurement};
use pi2_workloads::LogKind;

fn sweep(kind: LogKind, vary: &str, values: &[usize], out: &mut Vec<(String, Measurement)>) {
    for &v in values {
        let (es, p) = match vary {
            "es" => (v, 3),
            _ => (30, v),
        };
        for seed in 0..2u64 {
            let m = run_condition(kind, es, p, 42 + seed);
            out.push((format!("{vary}={v}"), m));
        }
    }
}

fn main() {
    let logs = [LogKind::Explore, LogKind::Filter, LogKind::Covid];
    let mut rows: Vec<(String, Measurement)> = Vec::new();
    for kind in logs {
        sweep(kind, "es", &[5, 15, 30, 60, 100], &mut rows);
        sweep(kind, "p", &[1, 2, 3, 4], &mut rows);
    }
    let measurements: Vec<Measurement> = rows.iter().map(|(_, m)| m.clone()).collect();
    let scored = qualities(&measurements);

    println!("Figure 17: parameter sensitivity (others at defaults es=30, p=3)");
    println!(
        "s is not swept: workers publish their best once, under a total order, so s cannot change a result"
    );
    println!(
        "{:<10} {:<8} {:>12} {:>12} {:>8}",
        "log", "vary", "mcts [ms]", "map [ms]", "quality"
    );
    for ((label, _), (m, q)) in rows.iter().zip(scored.iter()) {
        println!(
            "{:<10} {:<8} {:>12.1} {:>12.1} {:>8.3}",
            m.log,
            label,
            m.mcts_time.as_secs_f64() * 1e3,
            m.mapping_time.as_secs_f64() * 1e3,
            q
        );
    }
}

//! Regenerate Figure 16: the runtime–quality trade-off across search
//! parameter conditions.
//!
//! The paper sweeps early stop `es` and sync interval `s` from 5 to 100 in
//! steps of 5 and parallelism `p` from 1 to 4, over 7 logs × 10 runs. Here
//! `s` cannot change a search result (`MctsConfig::sync_interval`), so only
//! `es` and `p` are swept. The full grid is enormous; the default here is a
//! representative sub-grid (pass `--full` for a denser sweep). The *shape*
//! to reproduce: simple logs find the optimum in well under a second
//! regardless of parameters; Filter and Covid trade runtime for quality.
//!
//! Run with: `cargo run --release -p pi2-bench --bin fig16 [-- --full]`

use pi2_bench::{qualities, run_condition};
use pi2_workloads::LogKind;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (es_values, p_values, repeats): (Vec<usize>, Vec<usize>, u64) = if full {
        (vec![5, 20, 35, 50, 75, 100], vec![1, 2, 3, 4], 3)
    } else {
        (vec![5, 30, 100], vec![1, 3], 2)
    };
    let logs = [LogKind::Explore, LogKind::Filter, LogKind::Covid];

    let mut measurements = Vec::new();
    for kind in logs {
        for &es in &es_values {
            for &p in &p_values {
                for seed in 0..repeats {
                    measurements.push(run_condition(kind, es, p, 42 + seed));
                }
            }
        }
    }

    println!(
        "Figure 16: runtime-quality trade-off ({} conditions)",
        measurements.len()
    );
    println!(
        "s is not swept: workers publish their best once, under a total order, so s cannot change a result"
    );
    println!(
        "{:<10} {:>4} {:>3} {:>12} {:>12} {:>12} {:>8}",
        "log", "es", "p", "mcts [ms]", "map [ms]", "total [ms]", "quality"
    );
    for (m, q) in qualities(&measurements) {
        println!(
            "{:<10} {:>4} {:>3} {:>12.1} {:>12.1} {:>12.1} {:>8.3}",
            m.log,
            m.early_stop,
            m.workers,
            m.mcts_time.as_secs_f64() * 1e3,
            m.mapping_time.as_secs_f64() * 1e3,
            m.total_time().as_secs_f64() * 1e3,
            q
        );
    }

    // Summary: min/max runtime and quality spread per log.
    println!("\nper-log summary:");
    let scored = qualities(&measurements);
    for kind in logs {
        let name = pi2_workloads::log(kind).name;
        let subset: Vec<&(pi2_bench::Measurement, f64)> =
            scored.iter().filter(|(m, _)| m.log == name).collect();
        let min_t = subset
            .iter()
            .map(|(m, _)| m.total_time().as_secs_f64())
            .fold(f64::MAX, f64::min);
        let max_t = subset
            .iter()
            .map(|(m, _)| m.total_time().as_secs_f64())
            .fold(0.0, f64::max);
        let min_q = subset.iter().map(|(_, q)| *q).fold(f64::MAX, f64::min);
        println!(
            "  {name:<10} runtime {:.2}s – {:.2}s, quality {:.3} – 1.000",
            min_t, max_t, min_q
        );
    }
}

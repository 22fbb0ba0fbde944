//! Shared harness utilities for regenerating the paper's tables and
//! figures (§7). Each binary in `src/bin/` prints one artifact;
//! EXPERIMENTS.md records paper-vs-measured values.

pub mod gate;
pub mod load;

use pi2::{Generation, GenerationConfig, MctsConfig, Pi2};
use pi2_workloads::{catalog, log, LogKind};
use std::time::Duration;

/// One measured condition for the §7.3 experiments.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub log: &'static str,
    pub early_stop: usize,
    pub workers: usize,
    pub mcts_time: Duration,
    pub mapping_time: Duration,
    pub cost: f64,
}

impl Measurement {
    pub fn total_time(&self) -> Duration {
        self.mcts_time + self.mapping_time
    }
}

/// The generation configuration for a §7.3 condition; defaults follow the
/// paper (es = 30, p = 3). The sync interval `s` stays at its default: it
/// cannot change a search result (see `MctsConfig::sync_interval`).
pub fn condition_config(early_stop: usize, workers: usize, seed: u64) -> GenerationConfig {
    GenerationConfig {
        mcts: MctsConfig {
            early_stop,
            workers,
            seed,
            ..MctsConfig::default()
        },
        mapping: Default::default(),
    }
}

/// Run one condition against one log.
pub fn run_condition(kind: LogKind, early_stop: usize, workers: usize, seed: u64) -> Measurement {
    let l = log(kind);
    let refs: Vec<&str> = l.queries.iter().map(|s| s.as_str()).collect();
    let pi2 = Pi2::new(catalog());
    let g = pi2
        .generate_with(&refs, &condition_config(early_stop, workers, seed))
        .unwrap_or_else(|e| panic!("[{}] {e}", l.name));
    Measurement {
        log: l.name,
        early_stop,
        workers,
        mcts_time: g.mcts_stats.duration,
        mapping_time: g.mapping_time,
        cost: g.cost,
    }
}

/// Generate with the paper-default configuration.
pub fn generate_default(kind: LogKind, seed: u64) -> Generation {
    let l = log(kind);
    let refs: Vec<&str> = l.queries.iter().map(|s| s.as_str()).collect();
    Pi2::new(catalog())
        .generate_with(&refs, &condition_config(30, 3, seed))
        .unwrap_or_else(|e| panic!("[{}] {e}", l.name))
}

/// §7.3 interface quality: `c*/c`, where `c*` is the minimum cost observed
/// across all conditions for the same log. 1.0 = optimal.
pub fn quality(cost: f64, best: f64) -> f64 {
    if cost <= 0.0 {
        1.0
    } else {
        (best / cost).clamp(0.0, 1.0)
    }
}

/// Group measurements per log and compute each one's quality against the
/// per-log optimum.
pub fn qualities(measurements: &[Measurement]) -> Vec<(Measurement, f64)> {
    let mut out = Vec::with_capacity(measurements.len());
    for m in measurements {
        let best = measurements
            .iter()
            .filter(|o| o.log == m.log)
            .map(|o| o.cost)
            .fold(f64::INFINITY, f64::min);
        out.push((m.clone(), quality(m.cost, best)));
    }
    out
}

/// Median of a sample.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        return f64::NAN;
    }
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_is_bounded() {
        assert_eq!(quality(10.0, 10.0), 1.0);
        assert!(quality(20.0, 10.0) < 1.0);
        assert_eq!(quality(0.0, 0.0), 1.0);
    }

    #[test]
    fn median_of_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn qualities_normalise_per_log() {
        let m = |log: &'static str, cost: f64| Measurement {
            log,
            early_stop: 30,
            workers: 3,
            mcts_time: Duration::ZERO,
            mapping_time: Duration::ZERO,
            cost,
        };
        let ms = vec![m("a", 10.0), m("a", 20.0), m("b", 5.0)];
        let q = qualities(&ms);
        assert_eq!(q[0].1, 1.0);
        assert_eq!(q[1].1, 0.5);
        assert_eq!(q[2].1, 1.0);
    }
}

//! Shared helpers for the integration tests.

use pi2::{GenerationConfig, MctsConfig};

/// A deterministic, test-sized search configuration: enough budget to find
/// the reference designs for the paper logs, bounded for CI.
pub fn test_config() -> GenerationConfig {
    GenerationConfig {
        mcts: MctsConfig {
            workers: 2,
            max_iterations: 120,
            early_stop: 25,
            seed: 42,
            ..MctsConfig::default()
        },
        mapping: Default::default(),
    }
}

/// Generate an interface for one of the paper's query logs.
#[allow(dead_code)] // not every integration-test binary calls every helper
pub fn generate(kind: pi2_workloads::LogKind) -> pi2::Generation {
    generate_log(&pi2_workloads::log(kind))
}

/// Generate an interface for any query list over the workloads catalogue
/// (e.g. `pi2_workloads::duplicated`).
#[allow(dead_code)] // not every integration-test binary calls every helper
pub fn generate_log(log: &pi2_workloads::QueryLog) -> pi2::Generation {
    let refs: Vec<&str> = log.queries.iter().map(|s| s.as_str()).collect();
    pi2::Pi2::new(pi2_workloads::catalog())
        .generate_with(&refs, &test_config())
        .unwrap_or_else(|e| panic!("generation failed for {}: {e}", log.name))
}

/// Every interface must exactly cover the choice nodes of its forest.
#[allow(dead_code)] // not every integration-test binary calls every helper
pub fn assert_exact_cover(g: &pi2::Generation) {
    let covered: usize = g.interface.interactions.iter().map(|i| i.cover.len()).sum();
    assert_eq!(
        covered,
        g.forest.choice_count(),
        "interactions must cover every choice node exactly once"
    );
    let mut seen = std::collections::HashSet::new();
    for i in &g.interface.interactions {
        for id in &i.cover {
            assert!(seen.insert(*id), "choice node {id} covered twice");
        }
    }
}

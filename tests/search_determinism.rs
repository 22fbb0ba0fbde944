//! Search determinism across the state-representation refactor.
//!
//! Rewards are pure functions of (state fingerprint, config seed), so the
//! transposition table a search's workers share cannot leak cross-worker
//! timing into results: the same `MctsConfig` must return an identical best
//! forest on every run, single- or multi-worker. Each search owns its
//! tables, so every run starts them cold. The difftree memos (bindings,
//! type maps, schema signatures) belong to the `Workload`: a fresh workload
//! starts them cold, and a reused one is warm. The mapping layer's
//! `EvalCache` is still process-wide.

mod common;

use common::test_config;
use pi2::{GenerationConfig, MctsConfig};
use pi2_difftree::Workload;
use pi2_search::mcts_search;
use pi2_sql::parse_query;
use pi2_workloads::{catalog, log, LogKind};

fn workload(kind: LogKind) -> Workload {
    let l = log(kind);
    Workload::new(
        l.queries.iter().map(|q| parse_query(q).unwrap()).collect(),
        catalog(),
    )
}

/// The pinned test configuration with one worker returns bit-identical
/// results run over run. The first run is on a fresh workload, so its
/// difftree memos start cold; the second rebuilds its transposition tables
/// from scratch but finds the workload's difftree memos (and the
/// process-wide mapping memo) warm. Memo hits must not change the path:
/// equal forests, iterations and evaluated states.
#[test]
fn single_worker_search_is_reproducible() {
    for kind in [LogKind::Explore, LogKind::Abstract, LogKind::Filter] {
        let w = workload(kind);
        let cfg = MctsConfig {
            workers: 1,
            ..test_config().mcts
        };
        let (s1, st1) = mcts_search(&w, &cfg);
        let (s2, st2) = mcts_search(&w, &cfg);
        assert_eq!(s1, s2, "[{kind:?}] repeated runs must agree");
        assert_eq!(s1.key(), s2.key());
        assert_eq!(st1.best_reward, st2.best_reward);
        assert_eq!(st1.iterations, st2.iterations, "[{kind:?}]");
        assert_eq!(st1.states_evaluated, st2.states_evaluated, "[{kind:?}]");
    }
}

/// The pinned `test_config` (two workers) is equally deterministic: parallel
/// workers share reward estimates but not randomness.
#[test]
fn pinned_test_config_search_is_reproducible() {
    let w = workload(LogKind::Explore);
    let GenerationConfig { mcts: cfg, .. } = test_config();
    let (s1, st1) = mcts_search(&w, &cfg);
    let (s2, st2) = mcts_search(&w, &cfg);
    assert_eq!(s1, s2);
    assert_eq!(st1.best_reward, st2.best_reward);
    assert!(s1.bind_all(&w).is_some(), "result expresses the workload");
}

/// Worker count must not change the *quality floor*: every search returns at
/// least the scripted-seed designs, so more workers never return something
/// worse than one worker's floor by more than reward noise.
#[test]
fn search_never_regresses_below_initial_state() {
    let w = workload(LogKind::Abstract);
    let cfg = MctsConfig {
        workers: 2,
        ..test_config().mcts
    };
    let (state, stats) = mcts_search(&w, &cfg);
    assert!(state.bind_all(&w).is_some());
    assert!(stats.best_reward.is_finite());
    assert!(state.trees.len() <= w.len());
}

/// The synchronisation interval `s` is a no-op: workers never read each
/// other's best state, and each publishes its own once under a total order,
/// so any `s` returns the same forest, reward, iterations and evaluated
/// states for a given worker count.
#[test]
fn sync_interval_does_not_change_the_result() {
    for kind in [LogKind::Filter, LogKind::Covid] {
        let w = workload(kind);
        let run = |sync_interval| {
            let cfg = MctsConfig {
                sync_interval,
                ..test_config().mcts
            };
            mcts_search(&w, &cfg)
        };
        let (s1, st1) = run(1);
        for s in [10, 1000] {
            let (sn, stn) = run(s);
            assert_eq!(s1.key(), sn.key(), "[{kind:?}] s = {s}");
            assert_eq!(st1.best_reward, stn.best_reward, "[{kind:?}] s = {s}");
            assert_eq!(st1.iterations, stn.iterations, "[{kind:?}] s = {s}");
            assert_eq!(
                st1.states_evaluated, stn.states_evaluated,
                "[{kind:?}] s = {s}"
            );
        }
    }
}

//! Ground truth for the search on the small logs: every state reachable
//! from the search's initial state, scored exactly.
//!
//! `exhaustive_best` enumerates the state space breadth-first over
//! `applicable_actions`, one visit per `ForestKey`, and prices each state
//! the way generation prices its answer (`MappingContext::build` +
//! `best_interface`). On Explore, Abstract and Connect the whole space fits
//! under a small cap (18, 112 and 138 states), so its minimum is the
//! optimum the search can reach. Only costs are compared, never timings.

mod common;

use common::test_config;
use pi2::{GenerationConfig, Pi2};
use pi2_difftree::{applicable_actions, apply_action, Workload};
use pi2_interface::MappingContext;
use pi2_search::{best_interface, initial_state, MappingOptions};
use pi2_sql::parse_query;
use pi2_workloads::{catalog, log, LogKind};
use std::collections::{HashSet, VecDeque};

/// The best interface cost over every state reachable from the search's
/// initial state, and the number of states visited; `None` when more than
/// `state_cap` states are reachable.
fn exhaustive_best(w: &Workload, state_cap: usize) -> Option<(f64, usize)> {
    let check_safety = test_config().mcts.check_safety;
    let opts = MappingOptions::default();
    let root = initial_state(w);
    let mut seen = HashSet::from([root.key()]);
    let mut queue = VecDeque::from([root]);
    let mut best = f64::INFINITY;
    while let Some(state) = queue.pop_front() {
        if let Some(mut ctx) = MappingContext::build(&state, w) {
            ctx.check_safety = check_safety;
            if let Some((_, cost)) = best_interface(&ctx, &opts) {
                best = best.min(cost);
            }
        }
        for action in applicable_actions(&state, w) {
            let Some(next) = apply_action(&state, w, action) else {
                continue;
            };
            if seen.insert(next.key()) {
                if seen.len() > state_cap {
                    return None;
                }
                queue.push_back(next);
            }
        }
    }
    Some((best, seen.len()))
}

fn workload(kind: LogKind) -> Workload {
    let l = log(kind);
    Workload::new(
        l.queries.iter().map(|q| parse_query(q).unwrap()).collect(),
        catalog(),
    )
}

fn generated_cost(kind: LogKind, config: &GenerationConfig) -> f64 {
    let l = log(kind);
    let refs: Vec<&str> = l.queries.iter().map(|s| s.as_str()).collect();
    Pi2::new(catalog())
        .generate_with(&refs, config)
        .unwrap_or_else(|e| panic!("generation failed for {kind:?}: {e}"))
        .cost
}

fn assert_cost(kind: LogKind, what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() < 1e-3,
        "[{kind:?}] {what}: cost {got}, expected {want}"
    );
}

/// The optima of the three small logs, and `generate` at the pinned test
/// configuration reaches each of them.
#[test]
fn generate_reaches_the_exhaustive_optimum_on_the_small_logs() {
    for (kind, optimum) in [
        (LogKind::Explore, 300.0),
        (LogKind::Abstract, 450.0),
        (LogKind::Connect, 2079.3653),
    ] {
        let (best, states) = exhaustive_best(&workload(kind), 1_000)
            .unwrap_or_else(|| panic!("[{kind:?}] more than 1000 reachable states"));
        assert!(states > 1, "[{kind:?}] the initial state has successors");
        assert_cost(kind, "exhaustive optimum", best, optimum);
        assert_cost(
            kind,
            "generate at test_config()",
            generated_cost(kind, &test_config()),
            optimum,
        );
    }
}

/// A finding, not a target: one worker at `GenerationConfig::quick()` stops
/// short of Connect's optimum. A change that closes the gap updates this
/// number.
#[test]
fn quick_config_stops_short_on_connect() {
    let cost = generated_cost(LogKind::Connect, &GenerationConfig::quick());
    assert_cost(LogKind::Connect, "generate at quick()", cost, 3321.5788);
}

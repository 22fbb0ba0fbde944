//! Cross-crate pipeline invariants, run over every paper log.

mod common;

use common::{assert_exact_cover, generate, test_config};
use pi2::{Pi2, Value};
use pi2_difftree::{expresses, Forest, Workload};
use pi2_sql::parse_query;
use pi2_workloads::{all_logs, catalog, LogKind};

/// The generated forest expresses every input query (the paper's §6.1
/// guarantee end-to-end), for every log.
#[test]
fn forests_express_their_logs() {
    for kind in [LogKind::Explore, LogKind::Abstract, LogKind::Connect] {
        let g = generate(kind);
        for q in &g.workload.queries {
            assert!(
                expresses(&g.forest, q),
                "[{kind:?}] generated forest lost query {q}"
            );
        }
        assert_exact_cover(&g);
    }
}

/// The runtime can reproduce each input query by re-binding (queries are
/// reachable interface states, not just search artifacts).
#[test]
fn input_queries_are_reachable_states() {
    let g = generate(LogKind::Explore);
    let assignments = g.forest.bind_all(&g.workload).unwrap();
    assert_eq!(assignments.len(), g.workload.queries.len());
    for (qi, a) in assignments.iter().enumerate() {
        let resolved = pi2_difftree::resolve(&g.forest.trees[a.tree], &a.binding).unwrap();
        let raised = pi2_difftree::raise_query(&resolved).unwrap();
        assert_eq!(raised, g.workload.queries[qi]);
    }
}

/// Generation is deterministic for a fixed seed and configuration.
#[test]
fn generation_is_deterministic() {
    let g1 = generate(LogKind::Explore);
    let g2 = generate(LogKind::Explore);
    assert_eq!(g1.forest, g2.forest);
    assert_eq!(g1.interface.views.len(), g2.interface.views.len());
    assert_eq!(
        g1.interface.interactions.len(),
        g2.interface.interactions.len()
    );
    assert!((g1.cost - g2.cost).abs() < 1e-9);
}

/// The JSON spec serialises without structural errors for every log's
/// interface.
#[test]
fn json_specs_are_balanced() {
    for kind in [LogKind::Explore, LogKind::Connect] {
        let g = generate(kind);
        let j = pi2::json::interface_to_json(&g.interface);
        assert!(j.starts_with('{') && j.ends_with('}'));
        let open = j.chars().filter(|&c| c == '{').count();
        let close = j.chars().filter(|&c| c == '}').count();
        assert_eq!(open, close, "unbalanced JSON for {kind:?}");
    }
}

/// ASCII rendering succeeds and stays bounded for every log's interface.
#[test]
fn ascii_renders_for_all_logs() {
    let g = generate(LogKind::Covid);
    let s = pi2::render::render_ascii(&g.interface);
    assert!(!s.is_empty());
    assert!(s.lines().count() <= 120);
}

/// All seven logs produce interfaces end-to-end (smoke, quick config) and
/// report plausible generation times.
#[test]
fn all_logs_generate() {
    let pi2 = Pi2::new(catalog());
    for log in all_logs() {
        let refs: Vec<&str> = log.queries.iter().map(|s| s.as_str()).collect();
        let g = pi2
            .generate_with(&refs, &test_config())
            .unwrap_or_else(|e| panic!("[{}] {e}", log.name));
        assert!(!g.interface.views.is_empty(), "[{}] no views", log.name);
        assert!(g.cost.is_finite());
        assert!(g.total_time().as_secs() < 600, "[{}] too slow", log.name);
        assert_exact_cover(&g);
    }
}

/// Widening the workload beyond the inputs: the Explore interface
/// generalises to unseen range literals (the §2 discussion of
/// generalisation beyond input queries).
#[test]
fn explore_generalises_beyond_inputs() {
    let g = generate(LogKind::Explore);
    let unseen = parse_query(
        "SELECT hp, mpg, origin FROM Cars WHERE hp BETWEEN 70 AND 80 AND mpg BETWEEN 20 AND 33",
    )
    .unwrap();
    assert!(
        expresses(&g.forest, &unseen),
        "VAL generalisation must express unseen literals"
    );
}

/// Initial forests never lose queries even before search.
#[test]
fn initial_forest_invariant() {
    for log in all_logs() {
        let queries = log
            .queries
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let w = Workload::new(queries, catalog());
        let f = Forest::from_workload(&w);
        assert!(f.bind_all(&w).is_some(), "[{}]", log.name);
    }
}

/// Per-state mapping work runs over distinct queries: on the Filter log
/// duplicated to 90 queries, a mapping context keeps one assignment per
/// input query but one binding map, and one binding-tuple row per
/// flattened node, per distinct query.
#[test]
fn mapping_context_holds_distinct_queries() {
    use pi2_interface::MappingContext;
    let log = pi2_workloads::logs::duplicated(LogKind::Filter, 90);
    let queries = log
        .queries
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
    let w = Workload::new(queries, catalog());
    let initial = pi2_search::initial_state(&w);
    let ctx = MappingContext::build(&initial, &w).expect("initial state maps");
    assert_eq!(ctx.assignments.len(), 90);
    assert_eq!(ctx.per_query_maps.iter().map(Vec::len).sum::<usize>(), 9);
    // The initial state's trees are ANY-rooted clusters with nothing to
    // flatten; canonicalizing introduces the VAL nodes brushes bind.
    let state = pi2_difftree::transform::canonicalize(&initial, &w, 48);
    let ctx = MappingContext::build(&state, &w).expect("canonical state maps");
    assert_eq!(ctx.assignments.len(), 90);
    assert_eq!(ctx.per_query_maps.iter().map(Vec::len).sum::<usize>(), 9);
    let mut flats = 0;
    for (t, tree_flats) in ctx.flats.iter().enumerate() {
        for (_, flat) in tree_flats {
            let rows = ctx.binding_tuples(t, flat).len();
            assert_eq!(rows, ctx.per_query_maps[t].len());
            flats += 1;
        }
    }
    assert!(flats > 0, "the canonical state has a flattened node");
}

/// The session round trip: dispatching a value event changes the SQL, and
/// re-executing yields a valid table.
#[test]
fn session_round_trip_on_explore() {
    let g = generate(LogKind::Explore);
    let mut rt = g.session().unwrap();
    let before = rt.queries();
    let ix = g
        .interface
        .interactions
        .iter()
        .position(|i| matches!(i.choice, pi2::InteractionChoice::Vis { .. }))
        .expect("vis interaction");
    let payloads = [
        vec![
            Value::Int(100),
            Value::Int(160),
            Value::Float(10.0),
            Value::Float(25.0),
        ],
        vec![Value::Int(100), Value::Int(160)],
    ];
    let mut ok = false;
    for values in payloads {
        if rt
            .dispatch(&pi2::Event::SetValues {
                interaction: ix,
                values,
            })
            .is_ok()
        {
            ok = true;
            break;
        }
    }
    assert!(ok, "pan dispatch failed");
    assert_ne!(rt.queries(), before);
    let tables = rt.execute().unwrap();
    assert_eq!(tables.len(), g.interface.views.len());
}

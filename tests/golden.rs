//! Golden interfaces: the seven paper logs and `filter_x10` (the Filter
//! log duplicated to 90 queries, the §7.3 scalability input), generated
//! under `common::test_config()`, pinned as files in `tests/golden/`.
//!
//! Each `tests/golden/<log>.json` holds the log's interface spec
//! (`pi2::json::interface_to_json`) and its §5 cost. The spec is compared
//! byte for byte, the cost with a relative tolerance of 1e-9. A change to
//! search, mapping or cost therefore shows up as a reviewable spec diff
//! with a cost delta, not as a scalar that moved.
//!
//! After an intended change, rewrite the files and review their diff:
//!
//! ```sh
//! cargo test -p pi2 --test golden -- --ignored
//! ```

mod common;

use pi2_workloads::logs::duplicated;
use pi2_workloads::{log, LogKind, QueryLog};
use std::path::PathBuf;

/// Relative tolerance on the pinned cost.
const COST_RTOL: f64 = 1e-9;

/// The key whose value (the spec) runs to the end of a golden file.
const SPEC_KEY: &str = "\"interface\": ";

/// The Filter log duplicated to 90 queries: every query occurs ten times.
fn filter_x10() -> QueryLog {
    QueryLog {
        name: "filter_x10",
        ..duplicated(LogKind::Filter, 90)
    }
}

/// Every pinned input, named as its golden file.
fn inputs() -> Vec<QueryLog> {
    let mut all: Vec<QueryLog> = LogKind::ALL.into_iter().map(log).collect();
    all.push(filter_x10());
    all
}

fn golden_path(log: &QueryLog) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.json", log.name))
}

/// Generate one log and render its golden file: a JSON object whose last
/// member is the spec, verbatim.
fn render(log: &QueryLog) -> String {
    let g = common::generate_log(log);
    assert!(g.cost.is_finite(), "[{}] non-finite cost", log.name);
    format!(
        "{{\n\"log\": \"{}\",\n\"cost\": {},\n{SPEC_KEY}{}\n}}\n",
        log.name,
        g.cost,
        pi2::json::interface_to_json(&g.interface)
    )
}

/// Split a golden file into (cost, spec bytes).
fn parse(text: &str) -> (f64, &str) {
    let cost = pi2::Json::parse(text)
        .expect("golden file is JSON")
        .get("cost")
        .and_then(pi2::Json::as_f64)
        .expect("golden file has a numeric cost");
    let spec = text
        .split_once(SPEC_KEY)
        .and_then(|(_, rest)| rest.strip_suffix("\n}\n"))
        .expect("golden file ends with the spec");
    (cost, spec)
}

fn check(kind: LogKind) {
    check_log(&log(kind));
}

fn check_log(log: &QueryLog) {
    let kind = log.name;
    let path = golden_path(log);
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate: see module doc)", path.display()));
    let fresh = render(log);
    let ((pinned_cost, pinned_spec), (cost, spec)) = (parse(&pinned), parse(&fresh));
    assert_eq!(
        spec,
        pinned_spec,
        "[{kind:?}] interface spec differs from {}",
        path.display()
    );
    assert!(
        (cost - pinned_cost).abs() <= COST_RTOL * pinned_cost.abs(),
        "[{kind:?}] cost {cost} differs from pinned {pinned_cost}"
    );
}

#[test]
fn explore_matches_golden() {
    check(LogKind::Explore);
}

#[test]
fn abstract_matches_golden() {
    check(LogKind::Abstract);
}

#[test]
fn connect_matches_golden() {
    check(LogKind::Connect);
}

#[test]
fn filter_matches_golden() {
    check(LogKind::Filter);
}

#[test]
fn sdss_matches_golden() {
    check(LogKind::Sdss);
}

#[test]
fn covid_matches_golden() {
    check(LogKind::Covid);
}

#[test]
fn sales_matches_golden() {
    check(LogKind::Sales);
}

#[test]
fn filter_x10_matches_golden() {
    check_log(&filter_x10());
}

/// Rewrite every golden file from the current code.
#[test]
#[ignore = "rewrites tests/golden/; run after an intended search change"]
fn regenerate_goldens() {
    for log in inputs() {
        let path = golden_path(&log);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render(&log)).unwrap();
    }
}

//! Output verification: a response counts only if the tables it carries
//! are the ones the driver computes itself, on its own copy of the
//! catalogue, through a different executor than the one that served them.

use pi2::{patch_from_json, Catalog, Patch, Table};
use pi2_engine::{execute, execute_scalar, ExecContext};
use pi2_sql::parse_query;
use std::collections::HashMap;

/// Which executor produces the expected table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reference {
    /// The row-at-a-time reference interpreter. Exact, and ~1 s per query
    /// on the big tier — used for every check on the paper-scale tier and
    /// for a few per run on the big tier.
    Scalar,
    /// The vectorized executor pinned to one thread (the server runs
    /// morsel-parallel): an independent path cheap enough to check every
    /// sampled big-tier response.
    Sequential,
}

pub struct Verifier<'a> {
    catalog: &'a Catalog,
    cache: HashMap<(String, Reference), Table>,
}

impl<'a> Verifier<'a> {
    pub fn new(catalog: &'a Catalog) -> Verifier<'a> {
        Verifier {
            catalog,
            cache: HashMap::new(),
        }
    }

    fn expected(&mut self, sql: &str, reference: Reference) -> Result<&Table, String> {
        let key = (sql.to_string(), reference);
        if !self.cache.contains_key(&key) {
            let query = parse_query(sql).map_err(|e| format!("{sql}: {e}"))?;
            let ctx = ExecContext::new(self.catalog);
            let table = match reference {
                Reference::Scalar => execute_scalar(&query, &ctx),
                Reference::Sequential => execute(&query, &ctx.with_parallelism(1)),
            }
            .map_err(|e| format!("{sql}: {e}"))?;
            self.cache.insert(key.clone(), table);
        }
        Ok(&self.cache[&key])
    }

    /// Check a decoded patch: it must carry exactly the `(view, sql)` pairs
    /// in `want` (when given), and every table must equal the reference
    /// execution of its own SQL.
    pub fn check_patch(
        &mut self,
        patch: &Patch,
        want: Option<&[(usize, String)]>,
        reference: Reference,
    ) -> Result<(), String> {
        if let Some(want) = want {
            let got: Vec<(usize, &str)> = patch
                .views
                .iter()
                .map(|v| (v.view, v.sql.as_str()))
                .collect();
            let want: Vec<(usize, &str)> = want.iter().map(|(v, s)| (*v, s.as_str())).collect();
            if got != want {
                return Err(format!("patch carries {got:?}, expected {want:?}"));
            }
        }
        for v in &patch.views {
            let expected = self.expected(&v.sql, reference)?;
            if *expected != *v.table {
                return Err(format!(
                    "view {} ({}): served table ({} rows) differs from the reference ({} rows)",
                    v.view,
                    v.sql,
                    v.table.num_rows(),
                    expected.num_rows()
                ));
            }
        }
        Ok(())
    }

    /// Decode a wire body as a patch and check it.
    pub fn check_body(
        &mut self,
        body: &str,
        want: Option<&[(usize, String)]>,
        reference: Reference,
    ) -> Result<(), String> {
        let patch = patch_from_json(body).map_err(|e| format!("not a patch ({e}): {body:.120}"))?;
        if patch.views.is_empty() {
            return Err("empty patch where a view update is due".into());
        }
        self.check_patch(&patch, want, reference)
    }
}

/// The cheap per-response check done inside the timed loop: status 200
/// and a patch that updates at least one view.
pub fn looks_like_patch(status: u16, body: &str) -> bool {
    status == 200 && is_nonempty_patch(body)
}

pub fn is_nonempty_patch(body: &str) -> bool {
    body.starts_with("{\"v\":1,\"type\":\"patch\",") && !body.contains("\"views\":[]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2::{patch_to_json, DataType, PatchView, Value};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let rows = (0..20)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
            .collect();
        let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap();
        c.add_table("T", t, vec![]);
        c
    }

    const SQL: &str = "SELECT a, sum(b) FROM T WHERE b > 3 GROUP BY a";

    fn served(catalog: &Catalog) -> Table {
        execute(&parse_query(SQL).unwrap(), &ExecContext::new(catalog)).unwrap()
    }

    fn body(table: Table) -> String {
        patch_to_json(&Patch {
            seq: 1,
            views: vec![PatchView {
                view: 0,
                tree: 0,
                sql: SQL.to_string(),
                table: Arc::new(table),
            }],
        })
    }

    #[test]
    fn a_correct_response_passes_both_references() {
        let c = catalog();
        let mut v = Verifier::new(&c);
        let want = vec![(0usize, SQL.to_string())];
        for r in [Reference::Scalar, Reference::Sequential] {
            v.check_body(&body(served(&c)), Some(&want), r).unwrap();
        }
    }

    /// The acceptance check "corrupting one expected table makes the run
    /// fail": a single altered cell is a verification failure.
    #[test]
    fn a_corrupted_table_fails_verification() {
        let c = catalog();
        let good = served(&c);
        let mut rows = good.to_rows();
        rows[0][1] = Value::Int(-1);
        let bad = Table::from_rows(
            good.schema
                .columns
                .iter()
                .map(|col| (col.name.as_str(), col.dtype))
                .collect(),
            rows,
        )
        .unwrap();
        let err = Verifier::new(&c)
            .check_body(&body(bad), None, Reference::Scalar)
            .unwrap_err();
        assert!(err.contains("differs from the reference"), "{err}");
    }

    #[test]
    fn wrong_sql_empty_patches_and_errors_fail() {
        let c = catalog();
        let mut v = Verifier::new(&c);
        let other = vec![(0usize, "SELECT a FROM T".to_string())];
        assert!(v
            .check_body(&body(served(&c)), Some(&other), Reference::Scalar)
            .is_err());
        let empty = patch_to_json(&Patch {
            seq: 1,
            views: vec![],
        });
        assert!(v.check_body(&empty, None, Reference::Scalar).is_err());
        assert!(v
            .check_body("{\"v\":1,\"type\":\"error\"}", None, Reference::Scalar)
            .is_err());
        assert!(!is_nonempty_patch(&empty));
        assert!(is_nonempty_patch(&body(served(&c))));
        assert!(!looks_like_patch(429, &body(served(&c))));
    }
}

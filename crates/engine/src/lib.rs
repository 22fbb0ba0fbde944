#![warn(missing_docs)]
//! In-memory relational executor for the PI2 reproduction.
//!
//! PI2 needs a "database connection to execute queries" (§1) for two
//! purposes: rendering each Difftree's result into its visualization, and
//! the visualization-interaction safety check (§4.2.2), which logically
//! instantiates a chart with each input query's result table. This crate is
//! that connection: it executes the analysis-SQL dialect of `pi2-sql`
//! directly over `pi2-data` tables.
//!
//! Supported: projections (incl. expressions and aliases), `DISTINCT`,
//! comma joins, subqueries in `FROM`, `WHERE` with full boolean logic,
//! `BETWEEN`/`IN` (list + subquery), `GROUP BY` with `count/sum/avg/min/max`,
//! `HAVING` with correlated scalar subqueries (the Sales workload), `ORDER
//! BY`, `LIMIT`, and the date functions `today()` / `date(d, offset)`.
//!
//! [`analyze`] performs static semantic analysis (output schema, attribute
//! provenance, group-key detection) used by Difftree result schemas and
//! visualization mapping.

pub mod analyze;
pub mod error;
pub mod eval;
pub mod exec;
pub mod ivm;
mod scalar;
mod vector;

pub use analyze::{analyze_query, ColType, OutCol, QueryInfo};
pub use error::EngineError;
pub use exec::{execute, execute_scalar, ExecContext};
pub use ivm::{referenced_tables, IvmState};

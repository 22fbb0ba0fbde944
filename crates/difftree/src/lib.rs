#![warn(missing_docs)]
//! Difftrees: the PI2 paper's central data structure (§3).
//!
//! A Difftree extends an abstract syntax tree with four kinds of *choice
//! nodes* — `ANY`, `VAL`, `MULTI`, and `SUBSET` (plus the `OPT` special case
//! of `ANY` and the `CO-OPT` companion produced by `PushOPT1`) — that encode
//! systematic variations between queries. Each choice node corresponds to a
//! production rule in a PEG grammar, so any tree a Difftree expresses is
//! syntactically valid.
//!
//! Module map:
//! * [`gst`] — the generic syntax tree (GST) that mirrors the SQL grammar's
//!   productions; lowering from / raising to `pi2-sql` ASTs,
//! * [`bind`] — query bindings (§3.2.4): matching a concrete query against a
//!   Difftree, and resolving a Difftree + bindings back to a query,
//! * [`types`] — the `AST → str → num` type hierarchy with attribute types
//!   (§3.2.1) over interned attribute ids, and type inference over trees,
//! * [`schema`] — result schemas (§3.2.2),
//! * [`transform`] — the four categories of transformation rules (§6.1,
//!   Fig. 13) that define PI2's search space, and the [`Transitions`] seam
//!   the search's rule loops are written over,
//! * [`forest`] — a set of Difftrees plus the input queries they must keep
//!   expressing (the search state).

pub mod bind;
pub mod forest;
pub mod gst;
pub mod schema;
pub mod transform;
pub mod types;

pub use bind::{bind_query, resolve, Binding, BindingMap, ResolveError};
pub use forest::{
    expresses, structural_fingerprint, Assignment, Forest, ForestKey, Tree, Workload,
};
pub use gst::{
    lower_query, raise_query, sql_snippet, ArithOp, CmpOp, DNode, LitVal, NodeKind, SyntaxKind,
};
pub use schema::{result_schema, union_compatible, ResultCol, ResultSchema};
pub use transform::{
    applicable_actions, apply_action, candidate_actions, cross_tree_candidates, tree_candidates,
    Action, Rule, Transitions,
};
pub use types::{
    infer_types, infer_types_cached, Attr, AttrId, AttrTable, NodeType, PrimType, TypeMap,
};

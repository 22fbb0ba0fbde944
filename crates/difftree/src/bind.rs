//! Query bindings (§3.2.4) and Difftree resolution (§3.1).
//!
//! A *binding* parameterises the choice nodes of a Difftree so that it
//! resolves to one concrete AST:
//!
//! * `ANY` binds an index into its children,
//! * `VAL` binds a literal value,
//! * `MULTI` binds a list of per-repetition sub-bindings,
//! * `SUBSET` binds an ordered set of child indices,
//! * the `PushOPT1` pair (`OptLink`/`CO-OPT`) binds presence through a shared
//!   group id.
//!
//! [`bind_query`] matches a concrete query against a Difftree (backtracking
//! over optional/repeated elements in child lists) and returns the binding
//! needed to express it; [`resolve`] applies a binding to produce the
//! choice-free tree. PI2 uses the round trip `resolve(Δ, bind_query(Δ, q)) ==
//! q` as its expressiveness guarantee: every transform rule application is
//! validated by re-binding all input queries.

use crate::gst::{DNode, NodeKind, SyntaxKind};
use pi2_sql::ast::Literal;
use std::collections::BTreeMap;
use std::fmt;

/// A parameterisation of one choice node.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// `ANY` / `OptLink` (1 = present) / `CoOpt` (informational).
    Index(usize),
    /// `VAL`.
    Value(Literal),
    /// `MULTI`: one sub-binding per repetition, each keyed by the ids of the
    /// choice nodes inside the template.
    List(Vec<BindingMap>),
    /// `SUBSET`: chosen child indices, ascending.
    Indices(Vec<usize>),
}

/// Bindings for all choice nodes of a Difftree, keyed by node id.
pub type BindingMap = BTreeMap<u32, Binding>;

/// Errors raised when a binding does not fit a Difftree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// `MissingBinding`.
    MissingBinding(u32),
    /// `BadBinding`.
    BadBinding(u32, String),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::MissingBinding(id) => {
                write!(f, "missing binding for choice node {id}")
            }
            ResolveError::BadBinding(id, m) => write!(f, "bad binding for node {id}: {m}"),
        }
    }
}

impl std::error::Error for ResolveError {}

// ---------------------------------------------------------------------------
// Matching
// ---------------------------------------------------------------------------

/// Match a concrete (choice-free) query GST against a Difftree, returning
/// the binding that expresses it, or `None` when the Difftree cannot.
pub fn bind_query(difftree: &DNode, concrete: &DNode) -> Option<BindingMap> {
    let mut out = Trail::default();
    match_node(difftree, concrete, &mut out).then_some(out.map)
}

/// Match one Difftree node against one concrete node.
fn match_node(delta: &DNode, conc: &DNode, out: &mut Trail) -> bool {
    match &delta.kind {
        NodeKind::Syntax(k) => {
            let NodeKind::Syntax(ck) = &conc.kind else {
                return false;
            };
            if k != ck {
                return false;
            }
            match_seq(&delta.children, &conc.children, out)
        }
        NodeKind::Any => {
            for (i, alt) in delta.children.iter().enumerate() {
                // Childless CoOpt group markers are metadata, not
                // alternatives.
                if matches!(alt.kind, NodeKind::CoOpt { .. }) && alt.children.is_empty() {
                    continue;
                }
                if alt.is_empty_node() {
                    if conc.is_empty_node() {
                        out.insert(delta.id, Binding::Index(i));
                        return true;
                    }
                    continue;
                }
                let mark = out.mark();
                if match_node(alt, conc, out) {
                    out.insert(delta.id, Binding::Index(i));
                    return true;
                }
                out.rollback(mark);
            }
            false
        }
        NodeKind::Val => {
            if let NodeKind::Syntax(SyntaxKind::Lit(lit)) = &conc.kind {
                out.insert(delta.id, Binding::Value(lit.0.clone()));
                true
            } else {
                false
            }
        }
        // MULTI/SUBSET only make sense inside child lists; as a direct
        // single-node match they must express exactly one element.
        NodeKind::Multi => {
            let Some(template) = delta.children.first() else {
                return false;
            };
            let mut sub = Trail::default();
            if match_node(template, conc, &mut sub) {
                out.insert(delta.id, Binding::List(vec![sub.map]));
                true
            } else {
                false
            }
        }
        NodeKind::Subset => {
            for (i, child) in delta.children.iter().enumerate() {
                let mark = out.mark();
                if match_node(child, conc, out) {
                    out.insert(delta.id, Binding::Indices(vec![i]));
                    return true;
                }
                out.rollback(mark);
            }
            false
        }
        NodeKind::CoOpt { .. } => {
            // Present: match the wrapped subtree (childless group markers
            // never match a concrete node).
            let Some(child) = delta.children.first() else {
                return false;
            };
            if match_node(child, conc, out) {
                out.insert(delta.id, Binding::Index(1));
                return true;
            }
            false
        }
    }
}

/// Ordered sequence matching with backtracking: `OPT` children may consume
/// zero or one concrete element, `MULTI` any number, `SUBSET` an ordered
/// subset, everything else exactly one.
fn match_seq(ds: &[DNode], cs: &[DNode], out: &mut Trail) -> bool {
    let Some((d, rest_d)) = ds.split_first() else {
        return cs.is_empty();
    };
    match &d.kind {
        NodeKind::Any => {
            for (i, alt) in d.children.iter().enumerate() {
                if matches!(alt.kind, NodeKind::CoOpt { .. }) && alt.children.is_empty() {
                    continue;
                }
                let mark = out.mark();
                if alt.is_empty_node() {
                    // Consume nothing.
                    if match_seq(rest_d, cs, out) {
                        out.insert(d.id, Binding::Index(i));
                        return true;
                    }
                } else if let Some((c0, rest_c)) = cs.split_first() {
                    if match_node(alt, c0, out) && match_seq(rest_d, rest_c, out) {
                        out.insert(d.id, Binding::Index(i));
                        return true;
                    }
                }
                out.rollback(mark);
            }
            false
        }
        NodeKind::Val => {
            let Some((c0, rest_c)) = cs.split_first() else {
                return false;
            };
            let NodeKind::Syntax(SyntaxKind::Lit(lit)) = &c0.kind else {
                return false;
            };
            if match_seq(rest_d, rest_c, out) {
                out.insert(d.id, Binding::Value(lit.0.clone()));
                true
            } else {
                false
            }
        }
        NodeKind::Multi => {
            let template = &d.children[0];
            // Greedy: consume as many elements as possible, backtracking down
            // to zero.
            let mut max_k = 0;
            let mut params: Vec<BindingMap> = Vec::new();
            for c in cs {
                let mut sub = Trail::default();
                if match_node(template, c, &mut sub) {
                    params.push(sub.map);
                    max_k += 1;
                } else {
                    break;
                }
            }
            for k in (0..=max_k).rev() {
                let mark = out.mark();
                if match_seq(rest_d, &cs[k..], out) {
                    out.insert(d.id, Binding::List(params[..k].to_vec()));
                    return true;
                }
                out.rollback(mark);
            }
            false
        }
        NodeKind::Subset => {
            // Try each ordered subset of d.children against a prefix of cs,
            // then continue with rest_d.
            fn try_subset(
                children: &[DNode],
                ci: usize,
                cs: &[DNode],
                rest_d: &[DNode],
                chosen: &mut Vec<usize>,
                subset_id: u32,
                out: &mut Trail,
            ) -> bool {
                // Option A: stop choosing; the rest of the sequence matches
                // the remaining concrete elements.
                {
                    let mark = out.mark();
                    if match_seq(rest_d, cs, out) {
                        out.insert(subset_id, Binding::Indices(chosen.clone()));
                        return true;
                    }
                    out.rollback(mark);
                }
                // Option B: choose a further child matching the next element.
                if let Some((c0, rest_c)) = cs.split_first() {
                    for j in ci..children.len() {
                        let mark = out.mark();
                        if match_node(&children[j], c0, out) {
                            chosen.push(j);
                            if try_subset(children, j + 1, rest_c, rest_d, chosen, subset_id, out) {
                                return true;
                            }
                            chosen.pop();
                        }
                        out.rollback(mark);
                    }
                }
                false
            }
            let mut chosen = Vec::new();
            try_subset(&d.children, 0, cs, rest_d, &mut chosen, d.id, out)
        }
        NodeKind::CoOpt { group } => {
            let Some(child) = d.children.first() else {
                // A bare marker consumes nothing.
                return match_seq(rest_d, cs, out);
            };
            // Present: consume one element.
            if let Some((c0, rest_c)) = cs.split_first() {
                let mark = out.mark();
                if match_node(child, c0, out) && match_seq(rest_d, rest_c, out) {
                    out.insert(d.id, Binding::Index(1));
                    return true;
                }
                out.rollback(mark);
            }
            // Absent: consume nothing, and record the linked OPTs inside the
            // subtree as "off" so their query bindings reflect this query.
            let mark = out.mark();
            if match_seq(rest_d, cs, out) {
                out.insert(d.id, Binding::Index(0));
                bind_linked_opts_absent(child, *group, out);
                return true;
            }
            out.rollback(mark);
            false
        }
        NodeKind::Syntax(_) => {
            let Some((c0, rest_c)) = cs.split_first() else {
                return false;
            };
            let mark = out.mark();
            if match_node(d, c0, out) && match_seq(rest_d, rest_c, out) {
                true
            } else {
                out.rollback(mark);
                false
            }
        }
    }
}

/// When a `CO-OPT` subtree is matched absent, bind each linked OPT inside it
/// (ANY nodes carrying the same group marker) to its `Empty` alternative so
/// downstream widgets see the toggle's "off" state.
fn bind_linked_opts_absent(node: &DNode, group: u32, out: &mut Trail) {
    if let NodeKind::Any = node.kind {
        if opt_group(node) == Some(group) {
            if let Some(empty_idx) = node.children.iter().position(|c| c.is_empty_node()) {
                out.insert_absent(node.id, Binding::Index(empty_idx));
            }
        }
    }
    for c in &node.children {
        bind_linked_opts_absent(c, group, out);
    }
}

/// The matcher's binding map with an insertion trail for backtracking: the
/// trail lists the map's keys in insertion order, so a mark is the trail's
/// length and rolling back to it removes exactly the keys inserted since
/// (keys present at the mark survive, with their current values).
#[derive(Default)]
struct Trail {
    map: BindingMap,
    keys: Vec<u32>,
}

impl Trail {
    fn insert(&mut self, id: u32, binding: Binding) {
        if self.map.insert(id, binding).is_none() {
            self.keys.push(id);
        }
    }

    /// Insert unless `id` is already bound.
    fn insert_absent(&mut self, id: u32, binding: Binding) {
        if let std::collections::btree_map::Entry::Vacant(e) = self.map.entry(id) {
            e.insert(binding);
            self.keys.push(id);
        }
    }

    fn mark(&self) -> usize {
        self.keys.len()
    }

    fn rollback(&mut self, mark: usize) {
        for id in self.keys.drain(mark..) {
            self.map.remove(&id);
        }
    }
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

/// Apply a binding to a Difftree, producing a choice-free GST.
pub fn resolve(node: &DNode, map: &BindingMap) -> Result<DNode, ResolveError> {
    // Pre-pass: OPT-link presence by group (PushOPT1 pairs).
    let mut presence: BTreeMap<u32, bool> = BTreeMap::new();
    collect_presence(node, map, &mut presence)?;
    let mut out = Vec::with_capacity(1);
    resolve_into(node, map, &presence, &mut out)?;
    match out.len() {
        1 => Ok(out.pop().unwrap()),
        n => Err(ResolveError::BadBinding(
            node.id,
            format!("root resolved to {n} nodes"),
        )),
    }
}

/// Find each `CoOpt` group's presence from the binding of the ANY node that
/// carries the matching group marker child. An unbound linked OPT counts as
/// absent: it happens when the whole `CO-OPT` subtree (which contains the
/// OPT) was matched absent, so nothing inside it was bound.
fn collect_presence(
    node: &DNode,
    map: &BindingMap,
    out: &mut BTreeMap<u32, bool>,
) -> Result<(), ResolveError> {
    if let NodeKind::Any = node.kind {
        if let Some(group) = opt_group(node) {
            let present = match map.get(&node.id) {
                Some(Binding::Index(i)) => node
                    .children
                    .get(*i)
                    .map(|c| !c.is_empty_node())
                    .unwrap_or(false),
                _ => false,
            };
            out.insert(group, present);
        }
    }
    for c in &node.children {
        collect_presence(c, map, out)?;
    }
    Ok(())
}

/// If this ANY is a `PushOPT1` link (its Empty child is tagged by being the
/// sibling of a `CoOpt` with the same group), return the group id. We encode
/// the link by storing the group id on the ANY node itself via a dedicated
/// child marker: a `CoOpt` node with no children.
fn opt_group(node: &DNode) -> Option<u32> {
    node.children.iter().find_map(|c| match c.kind {
        NodeKind::CoOpt { group } if c.children.is_empty() => Some(group),
        _ => None,
    })
}

fn resolve_into(
    node: &DNode,
    map: &BindingMap,
    presence: &BTreeMap<u32, bool>,
    out: &mut Vec<DNode>,
) -> Result<(), ResolveError> {
    match &node.kind {
        NodeKind::Syntax(SyntaxKind::Empty) => Ok(()), // empties vanish
        NodeKind::Syntax(kind) => {
            let mut children = Vec::with_capacity(node.children.len());
            for c in &node.children {
                resolve_into(c, map, presence, &mut children)?;
            }
            out.push(DNode::syntax(kind.clone(), children));
            Ok(())
        }
        NodeKind::Any => {
            let Some(Binding::Index(i)) = map.get(&node.id) else {
                return Err(ResolveError::MissingBinding(node.id));
            };
            let child = node.children.get(*i).ok_or_else(|| {
                ResolveError::BadBinding(node.id, format!("index {i} out of range"))
            })?;
            // Group-marker CoOpt children are metadata, never resolvable.
            if matches!(child.kind, NodeKind::CoOpt { .. }) && child.children.is_empty() {
                return Err(ResolveError::BadBinding(node.id, "bound to marker".into()));
            }
            resolve_into(child, map, presence, out)
        }
        NodeKind::Val => {
            let Some(Binding::Value(lit)) = map.get(&node.id) else {
                return Err(ResolveError::MissingBinding(node.id));
            };
            out.push(DNode::leaf(SyntaxKind::Lit(crate::gst::LitVal(
                lit.clone(),
            ))));
            Ok(())
        }
        NodeKind::Multi => {
            let Some(Binding::List(params)) = map.get(&node.id) else {
                return Err(ResolveError::MissingBinding(node.id));
            };
            let template = &node.children[0];
            for p in params {
                resolve_into(template, p, presence, out)?;
            }
            Ok(())
        }
        NodeKind::Subset => {
            let Some(Binding::Indices(indices)) = map.get(&node.id) else {
                return Err(ResolveError::MissingBinding(node.id));
            };
            for &i in indices {
                let child = node.children.get(i).ok_or_else(|| {
                    ResolveError::BadBinding(node.id, format!("index {i} out of range"))
                })?;
                resolve_into(child, map, presence, out)?;
            }
            Ok(())
        }
        NodeKind::CoOpt { group } => {
            if node.children.is_empty() {
                // A bare group marker inside an ANY: resolves to nothing.
                return Ok(());
            }
            let present = presence.get(group).copied().unwrap_or_else(|| {
                // No linked OPT found: fall back to this node's own binding.
                matches!(map.get(&node.id), Some(Binding::Index(1)))
            });
            if present {
                resolve_into(&node.children[0], map, presence, out)
            } else {
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gst::{lower_query, raise_query, LitVal};
    use pi2_sql::parse_query;

    fn gst(sql: &str) -> DNode {
        lower_query(&parse_query(sql).unwrap())
    }

    /// Assert the Difftree expresses the query and the binding round-trips.
    fn assert_expresses(delta: &DNode, sql: &str) -> BindingMap {
        let conc = gst(sql);
        let map =
            bind_query(delta, &conc).unwrap_or_else(|| panic!("difftree does not express {sql}"));
        let resolved = resolve(delta, &map).unwrap();
        assert_eq!(
            raise_query(&resolved).unwrap(),
            parse_query(sql).unwrap(),
            "resolution disagreed with the bound query"
        );
        map
    }

    /// ANY over two whole queries expresses both.
    #[test]
    fn any_of_two_queries() {
        let q1 = gst("SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p");
        let q2 = gst("SELECT p, count(*) FROM T WHERE b = 2 GROUP BY p");
        let mut delta = DNode::any(vec![q1, q2]);
        delta.renumber(0);
        let m1 = assert_expresses(&delta, "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p");
        assert_eq!(m1.get(&delta.id), Some(&Binding::Index(0)));
        let m2 = assert_expresses(&delta, "SELECT p, count(*) FROM T WHERE b = 2 GROUP BY p");
        assert_eq!(m2.get(&delta.id), Some(&Binding::Index(1)));
        assert!(bind_query(&delta, &gst("SELECT a FROM T")).is_none());
    }

    /// VAL in a literal position expresses any literal (Figure 3c).
    #[test]
    fn val_generalises_literals() {
        let mut delta = gst("SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p");
        // Replace the literal under Where with VAL.
        let lit = DNode::leaf(SyntaxKind::Lit(LitVal(pi2_sql::ast::Literal::Int(1))));
        let where_ = &mut delta.children[3];
        where_.children[0].children[1] = DNode::val(vec![lit]);
        delta.renumber(0);

        let m = assert_expresses(&delta, "SELECT p, count(*) FROM T WHERE a = 5 GROUP BY p");
        let val_id = delta.choice_nodes()[0].id;
        assert_eq!(
            m.get(&val_id),
            Some(&Binding::Value(pi2_sql::ast::Literal::Int(5)))
        );
        // Still cannot express structurally different queries.
        assert!(bind_query(&delta, &gst("SELECT p FROM T WHERE a = 5")).is_none());
    }

    /// Backtracking out of a partly matched alternative drops the bindings
    /// it made: the first alternative's VAL matches before that
    /// alternative fails on a later conjunct.
    #[test]
    fn failed_alternative_leaves_no_bindings() {
        let mut first = gst("SELECT p FROM T WHERE a = 1 AND b = 2");
        let lit = first.children[3].children[0].children[1].clone();
        first.children[3].children[0].children[1] = DNode::val(vec![lit]);
        let second = gst("SELECT p FROM T WHERE a = 1 AND b = 3");
        let mut delta = DNode::any(vec![first, second]);
        delta.renumber(0);
        let m = assert_expresses(&delta, "SELECT p FROM T WHERE a = 1 AND b = 3");
        assert_eq!(m.len(), 1, "{m:?}");
        assert_eq!(m.get(&delta.id), Some(&Binding::Index(1)));
    }

    /// OPT over a WHERE conjunct makes the predicate optional.
    #[test]
    fn opt_makes_conjunct_optional() {
        let mut delta = gst("SELECT p FROM T WHERE a = 1 AND b = 2");
        let where_ = &mut delta.children[3];
        let pred = where_.children.remove(1);
        where_.children.push(DNode::any(vec![pred, DNode::empty()]));
        delta.renumber(0);

        assert_expresses(&delta, "SELECT p FROM T WHERE a = 1 AND b = 2");
        assert_expresses(&delta, "SELECT p FROM T WHERE a = 1");
        assert!(bind_query(&delta, &gst("SELECT p FROM T WHERE b = 2")).is_none());
    }

    /// MULTI over select items expresses any repetition (Figure 7b).
    #[test]
    fn multi_expresses_repetition() {
        let mut delta = gst("SELECT a FROM T");
        let item = delta.children[1].children.remove(0);
        // Template: SELECT item choosing between columns a and b.
        let col_a = item.children[0].clone();
        let col_b = DNode::leaf(SyntaxKind::ColumnRef {
            table: None,
            column: "b".into(),
        });
        let template = DNode::syntax(SyntaxKind::SelectItem, vec![DNode::any(vec![col_a, col_b])]);
        delta.children[1].children.push(DNode::multi(template));
        delta.renumber(0);

        assert_expresses(&delta, "SELECT a FROM T");
        assert_expresses(&delta, "SELECT a, a FROM T");
        let m = assert_expresses(&delta, "SELECT b, a, b FROM T");
        let multi_id = delta.choice_nodes()[0].id;
        let Some(Binding::List(params)) = m.get(&multi_id) else {
            panic!()
        };
        assert_eq!(params.len(), 3);
        assert!(bind_query(&delta, &gst("SELECT c FROM T")).is_none());
    }

    /// SUBSET over WHERE conjuncts expresses any ordered subset.
    #[test]
    fn subset_expresses_ordered_subsets() {
        let mut delta = gst("SELECT p FROM T WHERE a = 1 AND b = 2 AND c = 3");
        let where_ = &mut delta.children[3];
        let conjuncts: Vec<DNode> = where_.children.drain(..).collect();
        where_.children.push(DNode::subset(conjuncts));
        delta.renumber(0);

        assert_expresses(&delta, "SELECT p FROM T WHERE a = 1 AND b = 2 AND c = 3");
        assert_expresses(&delta, "SELECT p FROM T WHERE a = 1 AND c = 3");
        assert_expresses(&delta, "SELECT p FROM T");
        let m = assert_expresses(&delta, "SELECT p FROM T WHERE b = 2");
        let subset_id = delta.choice_nodes()[0].id;
        assert_eq!(m.get(&subset_id), Some(&Binding::Indices(vec![1])));
        // Out-of-order subsets are not expressible (sep order is fixed).
        assert!(bind_query(&delta, &gst("SELECT p FROM T WHERE c = 3 AND a = 1")).is_none());
    }

    /// Nested choices: ANY inside an OPT'd conjunct.
    #[test]
    fn nested_choice_nodes() {
        let mut delta = gst("SELECT p FROM T WHERE a = 1");
        let where_ = &mut delta.children[3];
        let mut pred = where_.children.remove(0);
        // a = ANY(1, 2)
        let lit1 = pred.children[1].clone();
        let lit2 = DNode::leaf(SyntaxKind::Lit(LitVal(pi2_sql::ast::Literal::Int(2))));
        pred.children[1] = DNode::any(vec![lit1, lit2]);
        where_.children.push(DNode::any(vec![pred, DNode::empty()]));
        delta.renumber(0);

        assert_expresses(&delta, "SELECT p FROM T WHERE a = 1");
        assert_expresses(&delta, "SELECT p FROM T WHERE a = 2");
        assert_expresses(&delta, "SELECT p FROM T");
        assert!(bind_query(&delta, &gst("SELECT p FROM T WHERE a = 3")).is_none());
    }

    #[test]
    fn missing_binding_is_an_error() {
        let mut delta = DNode::any(vec![gst("SELECT a FROM T")]);
        delta.renumber(0);
        let empty = BindingMap::new();
        assert_eq!(
            resolve(&delta, &empty),
            Err(ResolveError::MissingBinding(delta.id))
        );
    }

    #[test]
    fn out_of_range_binding_is_an_error() {
        let mut delta = DNode::any(vec![gst("SELECT a FROM T")]);
        delta.renumber(0);
        let mut map = BindingMap::new();
        map.insert(delta.id, Binding::Index(5));
        assert!(matches!(
            resolve(&delta, &map),
            Err(ResolveError::BadBinding(_, _))
        ));
    }

    /// The PushOPT1 pair: an OPT link controls a CO-OPT'd subtree elsewhere.
    #[test]
    fn co_opt_presence_follows_linked_opt() {
        // Difftree for: SELECT a FROM T [WHERE x = 1 AND y = 2] where both
        // conjuncts exist only together. Model: the first conjunct is an
        // OPT carrying group marker 7; the second is CoOpt{7}.
        let mut delta = gst("SELECT a FROM T WHERE x = 1 AND y = 2");
        let where_ = &mut delta.children[3];
        let second = where_.children.remove(1);
        let first = where_.children.remove(0);
        let marker = DNode {
            id: 0,
            kind: NodeKind::CoOpt { group: 7 },
            children: vec![],
        };
        let opt = DNode::any(vec![first, DNode::empty(), marker]);
        let coopt = DNode {
            id: 0,
            kind: NodeKind::CoOpt { group: 7 },
            children: vec![second],
        };
        where_.children.push(opt);
        where_.children.push(coopt);
        delta.renumber(0);

        assert_expresses(&delta, "SELECT a FROM T WHERE x = 1 AND y = 2");
        assert_expresses(&delta, "SELECT a FROM T");
    }

    /// bind → resolve round trip over a batch of real workload queries.
    #[test]
    fn identity_binding_round_trips() {
        for sql in [
            "SELECT hp, mpg, origin FROM Cars WHERE hp BETWEEN 50 AND 60",
            "SELECT date, price FROM sp500",
            "SELECT hour, count(*) FROM flights GROUP BY hour",
            "SELECT DISTINCT ra, dec FROM specObj WHERE ra BETWEEN 213.2 AND 213.6",
            "SELECT date, cases FROM covid WHERE state = 'CA'",
        ] {
            let mut delta = gst(sql);
            delta.renumber(0);
            let map = bind_query(&delta, &gst(sql)).unwrap();
            assert!(map.is_empty(), "choice-free trees need no bindings");
            let resolved = resolve(&delta, &map).unwrap();
            assert_eq!(raise_query(&resolved).unwrap(), parse_query(sql).unwrap());
        }
    }
}

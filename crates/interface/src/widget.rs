//! The widget library (§4.2.1, Table 2).
//!
//! | Widget                    | Schema            | Constraint |
//! |---------------------------|-------------------|------------|
//! | Button/Radio/Dropdown/Textbox | `<v:_>`       | — |
//! | Toggle                    | `<v:_?>`          | — |
//! | Checkbox                  | `<v:_*>`          | — |
//! | Slider                    | `<v:num>`         | — |
//! | RangeSlider               | `<s:num, e:num>`  | `s ≤ e` |
//! | Adder                     | `<v:_*>`          | — |
//!
//! Widgets are *safe by construction* (§4.2.1): each is initialised with the
//! dynamic node's query bindings, so every input query's parameterisation is
//! reachable through the widget.

use crate::flat::flatten_node;
use pi2_data::Value;
use pi2_difftree::{
    sql_snippet, AttrTable, Binding, BindingMap, DNode, NodeKind, SyntaxKind, TypeMap,
};
use pi2_sql::ast::Literal;
use std::fmt;

/// Widget types in the prototype's library (§4.2.1 lists button, radio
/// list, checkbox list, dropdown, slider, range slider, adder, and textbox).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WidgetKind {
    /// A row of one-shot buttons, one per option.
    Button,
    /// A radio list (exactly one option selected).
    Radio,
    /// A dropdown select.
    Dropdown,
    /// Free-form text entry.
    Textbox,
    /// An on/off switch (maps `OPT` nodes).
    Toggle,
    /// A checkbox list (any subset selected).
    Checkbox,
    /// A single-value numeric slider.
    Slider,
    /// A (start, end) numeric range slider.
    RangeSlider,
    /// Free-form list entry (add/remove items).
    Adder,
}

impl fmt::Display for WidgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WidgetKind::Button => "buttons",
            WidgetKind::Radio => "radio",
            WidgetKind::Dropdown => "dropdown",
            WidgetKind::Textbox => "textbox",
            WidgetKind::Toggle => "toggle",
            WidgetKind::Checkbox => "checkbox",
            WidgetKind::Slider => "slider",
            WidgetKind::RangeSlider => "range slider",
            WidgetKind::Adder => "adder",
        };
        write!(f, "{s}")
    }
}

/// The widget's value domain, used for initialisation, size estimation, and
/// the `|w.d|` term of the manipulation cost.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // inline variant fields are self-describing
pub enum WidgetDomain {
    /// Enumerated options (radio, dropdown, checkbox, buttons).
    Options(Vec<String>),
    /// Continuous numeric range (sliders), initialised from the attribute
    /// domain per §2.
    Range { min: f64, max: f64 },
    /// Free-form entry (textbox, adder).
    Free,
    /// On/off (toggle).
    Binary,
}

impl WidgetDomain {
    /// `|w.d|` for the SUPPLE manipulation polynomial: the number of options
    /// for enumerating widgets, 0 otherwise (§5).
    pub fn size(&self) -> usize {
        match self {
            WidgetDomain::Options(opts) => opts.len(),
            _ => 0,
        }
    }

    /// Reading-time multiplier on the per-option cost: scanning options that
    /// are whole SQL fragments takes longer than scanning short labels
    /// ("CA", "deaths"). This is what steers the search away from
    /// degenerate whole-query preset widgets toward semantic controls.
    pub fn reading_factor(&self) -> f64 {
        match self {
            WidgetDomain::Options(opts) if !opts.is_empty() => {
                let avg = opts.iter().map(|o| o.len()).sum::<usize>() as f64 / opts.len() as f64;
                1.0 + avg / 15.0
            }
            _ => 1.0,
        }
    }
}

/// A candidate widget mapping for one dynamic node.
#[derive(Debug, Clone, PartialEq)]
pub struct WidgetCandidate {
    /// The widget type.
    pub kind: WidgetKind,
    /// The dynamic node this widget binds.
    pub target: u32,
    /// All choice nodes this widget covers (Algorithm 1's `w.cover`).
    pub cover: Vec<u32>,
    /// The widget's value domain.
    pub domain: WidgetDomain,
    /// Human-readable label derived from the node's context.
    pub label: String,
}

impl WidgetCandidate {
    /// The candidate with every node id offset by `base` — converts a
    /// tree-local candidate (from the shared evaluation cache) into the
    /// forest-global id space of one particular state.
    pub fn shifted(&self, base: u32) -> WidgetCandidate {
        WidgetCandidate {
            kind: self.kind,
            target: self.target + base,
            cover: self.cover.iter().map(|id| id + base).collect(),
            domain: self.domain.clone(),
            label: self.label.clone(),
        }
    }
}

/// The bound value of a choice node in a query binding, for constraint
/// checks and change detection.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundValue {
    /// The optional subtree is absent.
    Absent,
    /// A single literal value.
    Scalar(Value),
    /// A structural alternative, by child index.
    Index(usize),
    /// A set of values (MULTI/SUBSET bindings).
    Set(Vec<BoundValue>),
    /// A binding with no scalar projection.
    Other,
}

/// Extract a comparable value for `node` from a query's binding map.
pub fn bound_value(node: &DNode, map: &BindingMap) -> Option<BoundValue> {
    let b = lookup_binding(map, node.id)?;
    Some(match (&node.kind, b) {
        (NodeKind::Val, Binding::Value(lit)) => BoundValue::Scalar(literal_to_value(lit)),
        (NodeKind::Any, Binding::Index(i)) => match node.children.get(*i).map(|c| &c.kind) {
            Some(NodeKind::Syntax(SyntaxKind::Empty)) => BoundValue::Absent,
            Some(NodeKind::Syntax(SyntaxKind::Lit(l))) => {
                BoundValue::Scalar(literal_to_value(&l.0))
            }
            _ => BoundValue::Index(*i),
        },
        (NodeKind::Subset, Binding::Indices(ix)) => {
            BoundValue::Set(ix.iter().map(|i| BoundValue::Index(*i)).collect())
        }
        (NodeKind::Multi, Binding::List(params)) => BoundValue::Set(
            params
                .iter()
                .map(|p| {
                    // Template value: the template's single choice node.
                    node.children[0]
                        .choice_nodes()
                        .first()
                        .and_then(|c| bound_value(c, p))
                        .or_else(|| {
                            if node.children[0].is_choice() {
                                bound_value(&node.children[0], p)
                            } else {
                                None
                            }
                        })
                        .unwrap_or(BoundValue::Other)
                })
                .collect(),
        ),
        _ => BoundValue::Other,
    })
}

/// Find a node's binding, descending into MULTI parameterisations.
fn lookup_binding(map: &BindingMap, id: u32) -> Option<&Binding> {
    if let Some(b) = map.get(&id) {
        return Some(b);
    }
    for b in map.values() {
        if let Binding::List(params) = b {
            for p in params {
                if let Some(found) = lookup_binding(p, id) {
                    return Some(found);
                }
            }
        }
    }
    None
}

/// Convert an AST literal into a runtime value.
pub fn literal_to_value(lit: &Literal) -> Value {
    match lit {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => {
            // ISO date strings compare as dates downstream via sql_cmp.
            Value::Str(s.clone())
        }
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

/// Generate every valid widget candidate for the dynamic nodes of a tree.
///
/// * `per_query` — binding maps of the input queries this tree expresses
///   (for constraint checks such as the range slider's `s ≤ e`);
/// * `attrs` — the workload's attributes, whose statistics give domains.
pub fn widget_candidates(
    tree: &DNode,
    types: &TypeMap,
    per_query: &[&BindingMap],
    attrs: &AttrTable,
) -> Vec<WidgetCandidate> {
    let mut out = Vec::new();
    let mut nodes = Vec::new();
    tree.walk(&mut nodes);
    for node in nodes {
        if !node.is_dynamic() {
            continue;
        }
        let before = out.len();
        match &node.kind {
            NodeKind::Any => any_candidates(node, &mut out),
            NodeKind::Val => val_candidates(node, types, attrs, &mut out),
            NodeKind::Multi => multi_candidates(node, types, attrs, &mut out),
            NodeKind::Subset => {
                let options: Vec<String> = node.children.iter().map(sql_snippet).collect();
                out.push(WidgetCandidate {
                    kind: WidgetKind::Checkbox,
                    target: node.id,
                    cover: vec![node.id],
                    domain: WidgetDomain::Options(options),
                    label: context_label(node),
                });
            }
            NodeKind::CoOpt { .. } => {}
            NodeKind::Syntax(_) => {
                // Multi-element value nodes: range slider over a flattened
                // <num, num> schema (Example 6).
                range_slider_candidates(node, types, per_query, attrs, &mut out);
            }
        }
        // Improve generic labels using the enclosing predicate's column.
        for cand in &mut out[before..] {
            if matches!(cand.label.as_str(), "value" | "choice" | "items" | "subset") {
                if let Some(better) = ancestor_column(tree, node.id) {
                    cand.label = better;
                }
            }
        }
    }
    out
}

/// The column name of the nearest enclosing comparison/BETWEEN/IN predicate
/// of a node — the natural widget label ("hp", "state", …).
fn ancestor_column(tree: &DNode, id: u32) -> Option<String> {
    fn go(node: &DNode, id: u32, ctx: Option<&str>) -> Option<String> {
        let next_ctx: Option<String> = match &node.kind {
            NodeKind::Syntax(
                SyntaxKind::Compare(_) | SyntaxKind::Between { .. } | SyntaxKind::InList { .. },
            ) => node.children.first().and_then(first_column_of),
            _ => None,
        };
        let ctx_now = next_ctx.as_deref().or(ctx);
        if node.id == id {
            return ctx_now.map(|s| s.to_string());
        }
        node.children.iter().find_map(|c| go(c, id, ctx_now))
    }
    fn first_column_of(n: &DNode) -> Option<String> {
        if let NodeKind::Syntax(SyntaxKind::ColumnRef { column, .. }) = &n.kind {
            return Some(column.clone());
        }
        n.children.iter().find_map(first_column_of)
    }
    go(tree, id, None)
}

fn any_candidates(node: &DNode, out: &mut Vec<WidgetCandidate>) {
    let non_marker: Vec<&DNode> = node
        .children
        .iter()
        .filter(|c| !(matches!(c.kind, NodeKind::CoOpt { .. }) && c.children.is_empty()))
        .collect();
    let non_empty: Vec<&DNode> = non_marker
        .iter()
        .copied()
        .filter(|c| !c.is_empty_node())
        .collect();
    let is_opt = non_empty.len() != non_marker.len();
    if is_opt && non_empty.len() <= 1 {
        // OPT → toggle (Table 2: <v:_?>).
        out.push(WidgetCandidate {
            kind: WidgetKind::Toggle,
            target: node.id,
            cover: vec![node.id],
            domain: WidgetDomain::Binary,
            label: non_empty
                .first()
                .map(|c| sql_snippet(c))
                .unwrap_or_default(),
        });
        return;
    }
    // ANY → radio / dropdown / buttons (<v:_>).
    let mut options: Vec<String> = non_empty.iter().map(|c| sql_snippet(c)).collect();
    if is_opt {
        options.push("(none)".to_string());
    }
    for kind in [WidgetKind::Radio, WidgetKind::Dropdown, WidgetKind::Button] {
        out.push(WidgetCandidate {
            kind,
            target: node.id,
            cover: vec![node.id],
            domain: WidgetDomain::Options(options.clone()),
            label: context_label(node),
        });
    }
    // Textbox when the alternatives are all literals (typing the value).
    let all_lits = non_empty
        .iter()
        .all(|c| matches!(c.kind, NodeKind::Syntax(SyntaxKind::Lit(_))));
    if all_lits && !is_opt {
        out.push(WidgetCandidate {
            kind: WidgetKind::Textbox,
            target: node.id,
            cover: vec![node.id],
            domain: WidgetDomain::Free,
            label: context_label(node),
        });
    }
}

fn val_candidates(
    node: &DNode,
    types: &TypeMap,
    attrs: &AttrTable,
    out: &mut Vec<WidgetCandidate>,
) {
    let ty = types.get(node.id as usize);
    // Textbox is always valid for VAL (free-form literal).
    out.push(WidgetCandidate {
        kind: WidgetKind::Textbox,
        target: node.id,
        cover: vec![node.id],
        domain: WidgetDomain::Free,
        label: context_label(node),
    });
    let Some(ty) = ty else { return };
    // Slider: numeric VAL with a known attribute domain (§2: "initialized
    // with the minimum and maximum of attribute a and b's domains").
    if ty.is_num() {
        if let Some((min, max)) = ty.domain(attrs) {
            if let (Some(lo), Some(hi)) = (min.as_f64(), max.as_f64()) {
                out.push(WidgetCandidate {
                    kind: WidgetKind::Slider,
                    target: node.id,
                    cover: vec![node.id],
                    domain: WidgetDomain::Range { min: lo, max: hi },
                    label: context_label(node),
                });
            }
        }
    }
    // Dropdown over the attribute's distinct values when enumerable.
    if let Some(values) = ty.distinct_values(attrs) {
        if !values.is_empty() && values.len() <= 30 {
            let options: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            out.push(WidgetCandidate {
                kind: WidgetKind::Dropdown,
                target: node.id,
                cover: vec![node.id],
                domain: WidgetDomain::Options(options.clone()),
                label: context_label(node),
            });
            out.push(WidgetCandidate {
                kind: WidgetKind::Radio,
                target: node.id,
                cover: vec![node.id],
                domain: WidgetDomain::Options(options),
                label: context_label(node),
            });
        }
    }
}

fn multi_candidates(
    node: &DNode,
    types: &TypeMap,
    attrs: &AttrTable,
    out: &mut Vec<WidgetCandidate>,
) {
    let mut cover = vec![node.id];
    cover.extend(node.children[0].choice_nodes().iter().map(|c| c.id));
    // Adder: free-form repetition.
    out.push(WidgetCandidate {
        kind: WidgetKind::Adder,
        target: node.id,
        cover: cover.clone(),
        domain: WidgetDomain::Free,
        label: context_label(node),
    });
    // Checkbox when the template enumerates options: Multi(Any(…)) or a
    // VAL over an enumerable attribute domain.
    let template = &node.children[0];
    let options: Option<Vec<String>> = match &template.kind {
        NodeKind::Any => Some(
            template
                .children
                .iter()
                .filter(|c| !c.is_empty_node())
                .map(sql_snippet)
                .collect(),
        ),
        NodeKind::Val => types
            .get(template.id as usize)
            .and_then(|t| t.distinct_values(attrs))
            .filter(|v| !v.is_empty() && v.len() <= 30)
            .map(|v| v.iter().map(|x| x.to_string()).collect()),
        NodeKind::Syntax(_) if !template.is_dynamic() => Some(vec![sql_snippet(template)]),
        _ => None,
    };
    if let Some(options) = options {
        out.push(WidgetCandidate {
            kind: WidgetKind::Checkbox,
            target: node.id,
            cover,
            domain: WidgetDomain::Options(options),
            label: context_label(node),
        });
    }
}

fn range_slider_candidates(
    node: &DNode,
    types: &TypeMap,
    per_query: &[&BindingMap],
    attrs: &AttrTable,
    out: &mut Vec<WidgetCandidate>,
) {
    // Only consider compact value nodes, not whole clauses/queries.
    if !matches!(
        node.kind,
        NodeKind::Syntax(SyntaxKind::Between { .. })
            | NodeKind::Syntax(SyntaxKind::And)
            | NodeKind::Syntax(SyntaxKind::InList { .. })
    ) {
        return;
    }
    let Some(flat) = flatten_node(node, types) else {
        return;
    };
    if flat.len() != 2 || !flat.all_numeric() || !flat.all_single() {
        return;
    }
    if flat.elems.iter().any(|e| e.optional) {
        return; // a range slider cannot express absence
    }
    // Constraint s ≤ e over the query bindings (Table 2).
    let (lo_id, hi_id) = (flat.elems[0].node_id, flat.elems[1].node_id);
    let lo_node = node.find(lo_id);
    let hi_node = node.find(hi_id);
    for map in per_query {
        let (Some(lo_n), Some(hi_n)) = (lo_node, hi_node) else {
            return;
        };
        let lo = bound_value(lo_n, map);
        let hi = bound_value(hi_n, map);
        if let (Some(BoundValue::Scalar(a)), Some(BoundValue::Scalar(b))) = (lo, hi) {
            if a.sql_cmp(&b) == Some(std::cmp::Ordering::Greater) {
                return; // violates s ≤ e
            }
        }
    }
    // Domain from the elements' attribute types; falls back to free entry
    // when the catalogue lacks statistics.
    let union_ty = flat.elems[0].ty.union(&flat.elems[1].ty);
    let domain = union_ty
        .domain(attrs)
        .and_then(|(lo, hi)| {
            Some(WidgetDomain::Range {
                min: lo.as_f64()?,
                max: hi.as_f64()?,
            })
        })
        .unwrap_or(WidgetDomain::Free);
    out.push(WidgetCandidate {
        kind: WidgetKind::RangeSlider,
        target: node.id,
        cover: flat.cover.clone(),
        domain,
        label: context_label(node),
    });
}

/// A short, human-readable label for a widget, derived from its node
/// context (column name from comparisons when available).
fn context_label(node: &DNode) -> String {
    fn first_column(n: &DNode) -> Option<String> {
        if let NodeKind::Syntax(SyntaxKind::ColumnRef { column, .. }) = &n.kind {
            return Some(column.clone());
        }
        n.children.iter().find_map(first_column)
    }
    first_column(node).unwrap_or_else(|| match &node.kind {
        NodeKind::Syntax(k) => k.label(),
        NodeKind::Any => "choice".into(),
        NodeKind::Val => "value".into(),
        NodeKind::Multi => "items".into(),
        NodeKind::Subset => "subset".into(),
        NodeKind::CoOpt { .. } => "linked".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_data::{Catalog, DataType, Table};
    use pi2_difftree::{infer_types, lower_query, Forest, Workload};
    use pi2_sql::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_rows(
            vec![("p", DataType::Int), ("a", DataType::Int)],
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
                vec![Value::Int(3), Value::Int(30)],
            ],
        )
        .unwrap();
        c.add_table("T", t, vec!["p"]);
        c
    }

    fn candidates_for(tree: &DNode, cat: &Catalog) -> Vec<WidgetCandidate> {
        let w = Workload::new(vec![], cat.clone());
        let types = infer_types(tree, &w);
        widget_candidates(tree, &types, &[], &w.attrs)
    }

    #[test]
    fn any_gets_radio_dropdown_buttons() {
        let q1 = lower_query(&parse_query("SELECT p FROM T WHERE a = 10").unwrap());
        let q2 = lower_query(&parse_query("SELECT p FROM T WHERE a = 20").unwrap());
        let mut any = DNode::any(vec![q1, q2]);
        any.renumber(0);
        let cat = catalog();
        let cands = candidates_for(&any, &cat);
        let kinds: Vec<WidgetKind> = cands.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&WidgetKind::Radio));
        assert!(kinds.contains(&WidgetKind::Dropdown));
        assert!(kinds.contains(&WidgetKind::Button));
        let radio = cands.iter().find(|c| c.kind == WidgetKind::Radio).unwrap();
        assert_eq!(radio.domain.size(), 2);
        assert_eq!(radio.cover, vec![any.id]);
    }

    #[test]
    fn opt_gets_toggle() {
        let mut gst = lower_query(&parse_query("SELECT p FROM T WHERE a = 10").unwrap());
        let where_ = &mut gst.children[3];
        let pred = where_.children.remove(0);
        where_.children.push(DNode::any(vec![pred, DNode::empty()]));
        gst.renumber(0);
        let cat = catalog();
        let cands = candidates_for(&gst, &cat);
        let toggle = cands.iter().find(|c| c.kind == WidgetKind::Toggle).unwrap();
        assert_eq!(toggle.domain, WidgetDomain::Binary);
        assert!(toggle.label.contains("a = 10"), "label: {}", toggle.label);
    }

    #[test]
    fn val_gets_slider_with_attribute_domain() {
        let mut gst = lower_query(&parse_query("SELECT p FROM T WHERE a = 10").unwrap());
        let pred = &mut gst.children[3].children[0];
        let lit = pred.children[1].clone();
        pred.children[1] = DNode::val(vec![lit]);
        gst.renumber(0);
        let cat = catalog();
        let cands = candidates_for(&gst, &cat);
        let slider = cands.iter().find(|c| c.kind == WidgetKind::Slider).unwrap();
        assert_eq!(
            slider.domain,
            WidgetDomain::Range {
                min: 10.0,
                max: 30.0
            }
        );
        // Textbox always available for VAL.
        assert!(cands.iter().any(|c| c.kind == WidgetKind::Textbox));
        // Dropdown over the 3 distinct attribute values.
        let dd = cands
            .iter()
            .find(|c| c.kind == WidgetKind::Dropdown)
            .expect("dropdown over distinct values");
        assert_eq!(dd.domain.size(), 3);
    }

    #[test]
    fn between_vals_get_range_slider() {
        let mut gst =
            lower_query(&parse_query("SELECT p FROM T WHERE a BETWEEN 10 AND 20").unwrap());
        let pred = &mut gst.children[3].children[0];
        for i in [1usize, 2] {
            let lit = pred.children[i].clone();
            pred.children[i] = DNode::val(vec![lit]);
        }
        gst.renumber(0);
        let cat = catalog();
        let w = Workload::new(
            vec![
                parse_query("SELECT p FROM T WHERE a BETWEEN 10 AND 20").unwrap(),
                parse_query("SELECT p FROM T WHERE a BETWEEN 15 AND 30").unwrap(),
            ],
            cat.clone(),
        );
        let f = Forest::new(vec![gst]);
        let assignments = f.bind_all(&w).unwrap();
        let maps: Vec<&BindingMap> = assignments.iter().map(|a| &*a.binding).collect();
        let types = infer_types(&f.trees[0], &w);
        let cands = widget_candidates(&f.trees[0], &types, &maps, &w.attrs);
        let rs = cands
            .iter()
            .find(|c| c.kind == WidgetKind::RangeSlider)
            .expect("range slider candidate");
        assert_eq!(rs.cover.len(), 2, "covers both VAL nodes");
    }

    #[test]
    fn range_slider_rejects_s_greater_than_e() {
        // Artificial bindings where lo > hi: constraint must reject.
        let mut gst =
            lower_query(&parse_query("SELECT p FROM T WHERE a BETWEEN 20 AND 10").unwrap());
        let pred = &mut gst.children[3].children[0];
        for i in [1usize, 2] {
            let lit = pred.children[i].clone();
            pred.children[i] = DNode::val(vec![lit]);
        }
        gst.renumber(0);
        let cat = catalog();
        let w = Workload::new(
            vec![parse_query("SELECT p FROM T WHERE a BETWEEN 20 AND 10").unwrap()],
            cat.clone(),
        );
        let f = Forest::new(vec![gst]);
        let assignments = f.bind_all(&w).unwrap();
        let maps: Vec<&BindingMap> = assignments.iter().map(|a| &*a.binding).collect();
        let types = infer_types(&f.trees[0], &w);
        let cands = widget_candidates(&f.trees[0], &types, &maps, &w.attrs);
        assert!(!cands.iter().any(|c| c.kind == WidgetKind::RangeSlider));
    }

    #[test]
    fn subset_gets_checkbox() {
        let col = |n: &str| {
            DNode::leaf(SyntaxKind::ColumnRef {
                table: None,
                column: n.into(),
            })
        };
        let pred = |c: &str, v: i64| {
            DNode::syntax(
                SyntaxKind::Compare(pi2_difftree::gst::CmpOp::Eq),
                vec![
                    col(c),
                    DNode::leaf(SyntaxKind::Lit(pi2_difftree::LitVal(Literal::Int(v)))),
                ],
            )
        };
        let mut subset = DNode::subset(vec![pred("a", 1), pred("p", 2)]);
        subset.renumber(0);
        let cat = catalog();
        let cands = candidates_for(&subset, &cat);
        let cb = cands
            .iter()
            .find(|c| c.kind == WidgetKind::Checkbox)
            .unwrap();
        assert_eq!(cb.domain.size(), 2);
        if let WidgetDomain::Options(opts) = &cb.domain {
            assert_eq!(opts[0], "a = 1");
        }
    }

    #[test]
    fn multi_gets_adder_and_checkbox() {
        let lits = vec![
            DNode::leaf(SyntaxKind::Lit(pi2_difftree::LitVal(Literal::Int(1)))),
            DNode::leaf(SyntaxKind::Lit(pi2_difftree::LitVal(Literal::Int(2)))),
        ];
        let mut multi = DNode::multi(DNode::any(lits));
        multi.renumber(0);
        let cat = catalog();
        let cands = candidates_for(&multi, &cat);
        assert!(cands.iter().any(|c| c.kind == WidgetKind::Adder));
        let cb = cands
            .iter()
            .find(|c| c.kind == WidgetKind::Checkbox)
            .unwrap();
        assert_eq!(cb.domain.size(), 2);
        assert_eq!(cb.cover.len(), 2, "covers MULTI and inner ANY");
    }

    #[test]
    fn bound_value_extraction() {
        use pi2_difftree::bind_query;
        let mut gst = lower_query(&parse_query("SELECT p FROM T WHERE a = 10").unwrap());
        let pred = &mut gst.children[3].children[0];
        let lit = pred.children[1].clone();
        pred.children[1] = DNode::val(vec![lit]);
        gst.renumber(0);
        let conc = lower_query(&parse_query("SELECT p FROM T WHERE a = 42").unwrap());
        let map = bind_query(&gst, &conc).unwrap();
        let val_node = gst.choice_nodes()[0];
        assert_eq!(
            bound_value(val_node, &map),
            Some(BoundValue::Scalar(Value::Int(42)))
        );
    }

    #[test]
    fn domain_size_for_cost() {
        assert_eq!(
            WidgetDomain::Options(vec!["a".into(), "b".into()]).size(),
            2
        );
        assert_eq!(WidgetDomain::Range { min: 0.0, max: 1.0 }.size(), 0);
        assert_eq!(WidgetDomain::Free.size(), 0);
        assert_eq!(WidgetDomain::Binary.size(), 0);
    }
}

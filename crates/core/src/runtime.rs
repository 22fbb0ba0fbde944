//! Events and the event-application engine: what makes a generated
//! interface "fully functional".
//!
//! Every interaction instance binds one or more choice nodes. Applying an
//! event re-binds those nodes and re-resolves the owning Difftree(s) to
//! SQL — exactly the query-level semantics the paper's browser front-end
//! implements. The engine (`EventEngine`) is pure staging: it returns the
//! validated per-tree binding maps and raised queries an event produces,
//! and *never* mutates state, so [`crate::Session`] can commit the change,
//! diff resolved-query fingerprints, and emit a delta patch.

use crate::error::Pi2Error;
use pi2_data::{date::format_iso_date, Value};
use pi2_difftree::{Assignment, Binding, BindingMap, DNode, Forest, NodeKind, SyntaxKind, TypeMap};
use pi2_interface::{flatten_node, FlatSchema, Interface};
use pi2_sql::ast::Literal;
use std::sync::Arc;

/// A user interaction event.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // inline variant fields are self-describing
pub enum Event {
    /// Choose option `option` of an enumerating widget (radio / dropdown /
    /// buttons) or click the `option`-th alternative.
    Select { interaction: usize, option: usize },
    /// Turn a toggle on or off.
    Toggle { interaction: usize, on: bool },
    /// Set scalar values aligned with the interaction's flattened elements:
    /// a slider sends one value, a range slider or brush two, a pan/zoom on
    /// a scatterplot four (x-lo, x-hi, y-lo, y-hi), a click one per event
    /// column.
    SetValues {
        interaction: usize,
        values: Vec<Value>,
    },
    /// Set the value set of a repeated element (checkbox over MULTI,
    /// multi-click, adder).
    SetSet {
        interaction: usize,
        values: Vec<Value>,
    },
    /// Choose a subset of options (checkbox over SUBSET).
    SelectMany {
        interaction: usize,
        options: Vec<usize>,
    },
    /// Clear an optional interaction (e.g. clear a brush), removing the
    /// controlled subtree from the query.
    Clear { interaction: usize },
}

impl Event {
    /// Index of the interaction instance this event targets.
    pub fn interaction(&self) -> usize {
        match self {
            Event::Select { interaction, .. }
            | Event::Toggle { interaction, .. }
            | Event::SetValues { interaction, .. }
            | Event::SetSet { interaction, .. }
            | Event::SelectMany { interaction, .. }
            | Event::Clear { interaction } => *interaction,
        }
    }
}

/// The pure event-application engine: borrows one session's state, stages
/// the trees an event touches. Staging is *syntactic* — the session
/// validates each staged binding by resolution (or a resolved-binding
/// cache hit) before committing anything, all-or-nothing.
pub(crate) struct EventEngine<'a> {
    pub forest: &'a Forest,
    /// The workload's input-query assignments over this forest, computed
    /// once at session open (they are a pure function of (forest,
    /// workload) — re-binding per dispatch would repeat that work).
    pub assignments: &'a [Assignment],
    pub interface: &'a Interface,
    pub types: &'a [Arc<TypeMap>],
    pub option_maps: &'a [Vec<usize>],
    pub bindings: &'a [BindingMap],
}

impl EventEngine<'_> {
    /// Stage one event: the per-tree binding maps it produces. Trees the
    /// event does not touch are absent.
    pub fn apply(&self, event: &Event) -> Result<Vec<(usize, BindingMap)>, Pi2Error> {
        let ix = event.interaction();
        let inst = self
            .interface
            .interactions
            .get(ix)
            .ok_or(Pi2Error::UnknownInteraction { interaction: ix })?
            .clone();
        let tree = inst.target_tree;
        let node = self
            .forest
            .node_in_tree(tree, inst.target_node)
            .ok_or(Pi2Error::StaleNode)?
            .clone();

        // Per-tree staged maps; same-tree targets accumulate into one map.
        let mut staged: Vec<(usize, BindingMap)> = Vec::new();
        let staged_map = |staged: &Vec<(usize, BindingMap)>, t: usize| -> BindingMap {
            staged
                .iter()
                .find(|(st, _)| *st == t)
                .map(|(_, m)| m.clone())
                .unwrap_or_else(|| self.bindings[t].clone())
        };
        let commit = |staged: &mut Vec<(usize, BindingMap)>, t: usize, map: BindingMap| {
            if let Some(slot) = staged.iter_mut().find(|(st, _)| *st == t) {
                slot.1 = map;
            } else {
                staged.push((t, map));
            }
        };

        match event {
            Event::Select { option, .. } => {
                let child = self.option_maps[ix]
                    .get(*option)
                    .copied()
                    .ok_or_else(|| Pi2Error::invalid(format!("no option {option}")))?;
                if node.kind != NodeKind::Any {
                    return Err(Pi2Error::invalid("Select targets an ANY node"));
                }
                let mut next = staged_map(&mut staged, tree);
                next.insert(node.id, Binding::Index(child));
                // Nested choices of the newly chosen branch may be unbound;
                // initialise them from any input query using that branch.
                self.fill_missing(tree, &mut next);
                commit(&mut staged, tree, next);
            }
            Event::Toggle { on, .. } => {
                let (present_idx, empty_idx) = opt_indices(&node)
                    .ok_or_else(|| Pi2Error::invalid("Toggle targets an OPT node"))?;
                let mut next = staged_map(&mut staged, tree);
                next.insert(
                    node.id,
                    Binding::Index(if *on { present_idx } else { empty_idx }),
                );
                if *on {
                    self.fill_missing(tree, &mut next);
                }
                commit(&mut staged, tree, next);
            }
            Event::SetValues { values, .. } => {
                // Apply to every target (cross-filter brushes bind nodes in
                // several trees); values tile over longer flat schemas (one
                // (lo, hi) pair can drive co-varying range pairs).
                for (t_tree, t_node) in inst.all_targets() {
                    let t_node = self
                        .forest
                        .node_in_tree(t_tree, t_node)
                        .ok_or(Pi2Error::StaleNode)?
                        .clone();
                    let flat = flatten_node(&t_node, &self.types[t_tree]).ok_or_else(|| {
                        Pi2Error::invalid("interaction target does not accept values")
                    })?;
                    if values.is_empty()
                        || (values.len() != flat.len() && !flat.len().is_multiple_of(values.len()))
                    {
                        return Err(Pi2Error::invalid(format!(
                            "expected {} values, got {}",
                            flat.len(),
                            values.len()
                        )));
                    }
                    // Tile the payload over co-varying pairs, snapping each
                    // position against the first enumerable element so every
                    // pair binds the same (expressible) value.
                    let stride = values.len();
                    let mut harmonised: Vec<Value> = values.clone();
                    for (r, slot) in harmonised.iter_mut().enumerate() {
                        for (j, elem) in flat.elems.iter().enumerate() {
                            if j % stride != r {
                                continue;
                            }
                            let Some(n) = t_node.find(elem.node_id) else {
                                continue;
                            };
                            if n.kind == NodeKind::Any {
                                if let Some(v) = nearest_option_value(n, slot) {
                                    *slot = v;
                                    break;
                                }
                            }
                        }
                    }
                    let tiled: Vec<Value> = harmonised
                        .iter()
                        .cycle()
                        .take(flat.len())
                        .cloned()
                        .collect();
                    let mut t_next = staged_map(&mut staged, t_tree);
                    bind_values(&t_node, &flat, &tiled, &mut t_next)?;
                    commit(&mut staged, t_tree, t_next);
                }
            }
            Event::SetSet { values, .. } => {
                let multi = find_multi(&node)
                    .ok_or_else(|| Pi2Error::invalid("SetSet targets a MULTI node"))?;
                let template = &multi.children[0];
                let mut params = Vec::with_capacity(values.len());
                for v in values {
                    let mut sub = BindingMap::new();
                    bind_template(template, v, &mut sub)?;
                    params.push(sub);
                }
                let mut next = staged_map(&mut staged, tree);
                next.insert(multi.id, Binding::List(params));
                commit(&mut staged, tree, next);
            }
            Event::SelectMany { options, .. } => {
                if node.kind != NodeKind::Subset {
                    return Err(Pi2Error::invalid("SelectMany targets a SUBSET node"));
                }
                let mut sorted = options.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.iter().any(|&o| o >= node.children.len()) {
                    return Err(Pi2Error::invalid("option out of range"));
                }
                let mut next = staged_map(&mut staged, tree);
                next.insert(node.id, Binding::Indices(sorted));
                commit(&mut staged, tree, next);
            }
            Event::Clear { .. } => {
                // Clear every target's optional subtree(s).
                for (t_tree, t_node_id) in inst.all_targets() {
                    let t_node = self
                        .forest
                        .node_in_tree(t_tree, t_node_id)
                        .ok_or(Pi2Error::StaleNode)?
                        .clone();
                    let flat = flatten_node(&t_node, &self.types[t_tree]);
                    let controllers: Vec<u32> = match (&t_node.kind, flat) {
                        (NodeKind::Any, _) if t_node.is_opt() => vec![t_node.id],
                        (_, Some(flat)) => {
                            let mut c: Vec<u32> =
                                flat.elems.iter().filter_map(|e| e.opt_controller).collect();
                            c.dedup();
                            if c.is_empty() {
                                return Err(Pi2Error::invalid("interaction is not clearable"));
                            }
                            c
                        }
                        _ => return Err(Pi2Error::invalid("interaction is not clearable")),
                    };
                    let mut t_next = staged_map(&mut staged, t_tree);
                    for id in controllers {
                        let opt = self.forest.trees[t_tree]
                            .find(id)
                            .ok_or(Pi2Error::StaleNode)?;
                        let (_, empty_idx) =
                            opt_indices(opt).ok_or_else(|| Pi2Error::invalid("not an OPT"))?;
                        t_next.insert(id, Binding::Index(empty_idx));
                    }
                    commit(&mut staged, t_tree, t_next);
                }
            }
        }

        Ok(staged)
    }

    /// Ensure every choice node of the tree has a binding, borrowing from
    /// input-query assignments where the current state is missing one.
    fn fill_missing(&self, tree: usize, map: &mut BindingMap) {
        for a in self.assignments {
            if a.tree != tree {
                continue;
            }
            for (id, b) in a.binding.iter() {
                map.entry(*id).or_insert_with(|| b.clone());
            }
        }
    }
}

/// The displayed options of an ANY node (skipping Empty alternatives and
/// CO-OPT group markers), as child indices.
pub(crate) fn displayed_options(node: &DNode) -> Vec<usize> {
    match node.kind {
        NodeKind::Any => node
            .children
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                !(c.is_empty_node()
                    || matches!(c.kind, NodeKind::CoOpt { .. }) && c.children.is_empty())
            })
            .map(|(i, _)| i)
            .collect(),
        _ => vec![],
    }
}

/// (present child index, empty child index) of an OPT node.
fn opt_indices(node: &DNode) -> Option<(usize, usize)> {
    if node.kind != NodeKind::Any {
        return None;
    }
    let empty = node.children.iter().position(|c| c.is_empty_node())?;
    let present = node.children.iter().position(|c| {
        !(c.is_empty_node() || matches!(c.kind, NodeKind::CoOpt { .. }) && c.children.is_empty())
    })?;
    Some((present, empty))
}

/// Convert a runtime value to an AST literal for VAL bindings.
pub fn value_to_literal(v: &Value) -> Literal {
    match v {
        Value::Int(i) => Literal::Int(*i),
        Value::Float(f) => Literal::Float(*f),
        Value::Str(s) => Literal::Str(s.clone()),
        Value::Bool(b) => Literal::Bool(*b),
        Value::Date(d) => Literal::Str(format_iso_date(*d)),
        Value::Null => Literal::Null,
    }
}

/// Bind scalar values to the flattened elements of a target node.
fn bind_values(
    root: &DNode,
    flat: &FlatSchema,
    values: &[Value],
    map: &mut BindingMap,
) -> Result<(), Pi2Error> {
    for (elem, value) in flat.elems.iter().zip(values.iter()) {
        let node = root.find(elem.node_id).ok_or(Pi2Error::StaleNode)?;
        match &node.kind {
            NodeKind::Val => {
                map.insert(node.id, Binding::Value(value_to_literal(value)));
            }
            NodeKind::Any => {
                // Enumerable ANY: choose the child literal equal to the
                // value, or — for continuous events such as brushes — snap
                // to the nearest expressible option (interfaces express a
                // finite set of queries; the UI snaps to it).
                let exact = node.children.iter().position(|c| match &c.kind {
                    NodeKind::Syntax(SyntaxKind::Lit(l)) => {
                        pi2_interface::literal_to_value(&l.0).sql_eq(value) == Some(true)
                    }
                    _ => false,
                });
                let pos = match exact {
                    Some(p) => p,
                    None => nearest_option(node, value).ok_or_else(|| {
                        Pi2Error::invalid(format!("value {value} is not an option"))
                    })?,
                };
                map.insert(node.id, Binding::Index(pos));
            }
            other => {
                return Err(Pi2Error::invalid(format!(
                    "cannot bind a value to {other:?}"
                )))
            }
        }
        // Setting a value implies presence for optional elements.
        if let Some(ctrl) = elem.opt_controller {
            let opt = root.find(ctrl).ok_or(Pi2Error::StaleNode)?;
            let (present, _) =
                opt_indices(opt).ok_or_else(|| Pi2Error::invalid("controller is not an OPT"))?;
            map.insert(ctrl, Binding::Index(present));
        }
    }
    Ok(())
}

/// The value of the enumerable ANY option closest to `value`.
fn nearest_option_value(node: &DNode, value: &Value) -> Option<Value> {
    let i = nearest_option(node, value)?;
    match &node.children[i].kind {
        NodeKind::Syntax(SyntaxKind::Lit(l)) => Some(pi2_interface::literal_to_value(&l.0)),
        _ => None,
    }
}

/// The option of an enumerable ANY closest to `value` (numeric or date
/// distance); `None` when the children aren't comparable literals.
fn nearest_option(node: &DNode, value: &Value) -> Option<usize> {
    let target = value
        .coerce_to_date()
        .and_then(|v| v.as_f64())
        .or_else(|| value.as_f64())?;
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in node.children.iter().enumerate() {
        let NodeKind::Syntax(SyntaxKind::Lit(l)) = &c.kind else {
            continue;
        };
        let v = pi2_interface::literal_to_value(&l.0);
        let v = v
            .coerce_to_date()
            .and_then(|v| v.as_f64())
            .or_else(|| v.as_f64())?;
        let d = (v - target).abs();
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    best.map(|(i, _)| i)
}

/// Bind one repetition of a MULTI template to a value.
fn bind_template(template: &DNode, value: &Value, map: &mut BindingMap) -> Result<(), Pi2Error> {
    match &template.kind {
        NodeKind::Val => {
            map.insert(template.id, Binding::Value(value_to_literal(value)));
            Ok(())
        }
        NodeKind::Any => {
            let pos = template.children.iter().position(|c| match &c.kind {
                NodeKind::Syntax(SyntaxKind::Lit(l)) => {
                    pi2_interface::literal_to_value(&l.0).sql_eq(value) == Some(true)
                }
                _ => pi2_difftree::sql_snippet(c) == value.to_string(),
            });
            let pos = pos.ok_or_else(|| {
                Pi2Error::invalid(format!("value {value} is not a template option"))
            })?;
            map.insert(template.id, Binding::Index(pos));
            Ok(())
        }
        NodeKind::Syntax(_) if template.is_dynamic() => {
            // Single dynamic descendant: bind through it.
            let choices = template.choice_nodes();
            if choices.len() == 1 {
                bind_template(choices[0], value, map)
            } else {
                Err(Pi2Error::invalid("ambiguous MULTI template"))
            }
        }
        _ => Ok(()),
    }
}

/// Find the MULTI node at-or-below a target node.
fn find_multi(node: &DNode) -> Option<&DNode> {
    if node.kind == NodeKind::Multi {
        return Some(node);
    }
    node.children.iter().find_map(find_multi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::{Generation, GenerationConfig, Pi2};
    use pi2_data::{Catalog, DataType, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let rows: Vec<Vec<Value>> = (0..24)
            .map(|i| vec![Value::Int(i % 4), Value::Int(10 * (i % 6))])
            .collect();
        let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap();
        c.add_table("T", t, vec![]);
        c
    }

    fn generation() -> Generation {
        Pi2::new(catalog())
            .generate_with(
                &[
                    "SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a",
                    "SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a",
                ],
                &GenerationConfig::quick(),
            )
            .unwrap()
    }

    #[test]
    fn session_starts_at_first_query() {
        let g = generation();
        let rt = g.session().unwrap();
        let queries = rt.queries();
        // One of the current queries equals the first input query.
        assert!(queries.iter().any(|q| q == &g.workload.queries[0]));
        let results = rt.execute().unwrap();
        assert_eq!(results.len(), g.interface.views.len());
    }

    #[test]
    fn dispatch_changes_the_query_and_result() {
        let g = generation();
        let mut rt = g.session().unwrap();
        let before = rt.queries();
        // Drive whatever interaction the generator picked: enumerating
        // widgets via Select, value-bearing interactions via SetValues.
        let mut changed = false;
        for (ix, inst) in g.interface.interactions.iter().enumerate() {
            use pi2_interface::InteractionChoice;
            let events: Vec<Event> = match &inst.choice {
                InteractionChoice::Widget { kind, domain, .. } => match kind {
                    pi2_interface::WidgetKind::Radio
                    | pi2_interface::WidgetKind::Dropdown
                    | pi2_interface::WidgetKind::Button
                        if domain.size() >= 2 =>
                    {
                        vec![Event::Select {
                            interaction: ix,
                            option: 1,
                        }]
                    }
                    pi2_interface::WidgetKind::Slider | pi2_interface::WidgetKind::Textbox => {
                        vec![Event::SetValues {
                            interaction: ix,
                            values: vec![Value::Int(30)],
                        }]
                    }
                    pi2_interface::WidgetKind::Toggle => {
                        vec![
                            Event::Toggle {
                                interaction: ix,
                                on: false,
                            },
                            Event::Toggle {
                                interaction: ix,
                                on: true,
                            },
                        ]
                    }
                    _ => continue,
                },
                InteractionChoice::Vis { .. } => {
                    // Try a 1/2/4-value payload (slider/brush/pan shapes).
                    vec![
                        Event::SetValues {
                            interaction: ix,
                            values: vec![Value::Int(30)],
                        },
                        Event::SetValues {
                            interaction: ix,
                            values: vec![Value::Int(20), Value::Int(40)],
                        },
                        Event::SetValues {
                            interaction: ix,
                            values: vec![
                                Value::Int(20),
                                Value::Int(40),
                                Value::Int(1),
                                Value::Int(3),
                            ],
                        },
                    ]
                }
            };
            for event in events {
                if rt.dispatch(&event).is_ok() && rt.queries() != before {
                    changed = true;
                    break;
                }
            }
            if changed {
                break;
            }
        }
        assert!(
            changed,
            "no dispatchable interaction found:\n{}",
            g.describe()
        );
        let after = rt.queries();
        assert_ne!(before, after, "dispatch must change some query");
        rt.execute().unwrap();
    }

    #[test]
    fn invalid_events_are_rejected_without_state_change() {
        let g = generation();
        let mut rt = g.session().unwrap();
        let before = rt.queries();
        assert_eq!(
            rt.dispatch(&Event::Select {
                interaction: 999,
                option: 0
            })
            .unwrap_err(),
            Pi2Error::UnknownInteraction { interaction: 999 }
        );
        // Wrong payload arity → structured InvalidEvent.
        for ix in 0..g.interface.interactions.len() {
            let err = rt
                .dispatch(&Event::SetValues {
                    interaction: ix,
                    values: vec![],
                })
                .unwrap_err();
            assert!(
                matches!(err, Pi2Error::InvalidEvent { .. }),
                "expected InvalidEvent, got {err:?}"
            );
        }
        assert_eq!(rt.queries(), before);
    }

    #[test]
    fn value_literal_round_trip() {
        assert_eq!(value_to_literal(&Value::Int(3)), Literal::Int(3));
        assert_eq!(value_to_literal(&Value::Float(2.5)), Literal::Float(2.5));
        assert_eq!(
            value_to_literal(&Value::Str("CA".into())),
            Literal::Str("CA".into())
        );
        assert_eq!(
            value_to_literal(&Value::Date(0)),
            Literal::Str("1970-01-01".into())
        );
    }
}

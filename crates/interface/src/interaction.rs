//! Visualization interactions (§4.2.1, Figure 9) and the §4.2.2 safety
//! check.
//!
//! A visualization is a one-to-one projection of records to marks; user
//! manipulations emit event streams whose schemas are expressed over the
//! visualization's visual variables and translated — through the
//! visualization mapping — into the Difftree's result schema terms. A
//! candidate maps a *dynamic node* (anywhere in the forest, possibly a
//! different tree than the chart's — that is how multi-view linking arises,
//! Figure 5) to one interaction on one view.

use crate::flat::{event_type_compatible, FlatElem, FlatSchema};
use crate::vis::{VisMapping, VisVar};
use crate::widget::BoundValue;
use pi2_data::Table;
use pi2_difftree::{NodeType, ResultCol, ResultSchema};
use std::fmt;

/// Interaction types (Table 1, right column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InteractionKind {
    /// Select one mark (emits its record).
    Click,
    /// Select a set of marks.
    MultiClick,
    /// Select an x-axis range; clearable.
    BrushX,
    /// Select a y-axis range; clearable.
    BrushY,
    /// Select a 2-D region; clearable.
    BrushXY,
    /// Shift the viewport (rebinds axis ranges).
    Pan,
    /// Scale the viewport (rebinds axis ranges).
    Zoom,
}

impl InteractionKind {
    /// Brushes can be cleared, expressing the *absence* of an optional
    /// subtree ("clearing the brush disables the predicate", §7.1 Filter).
    pub fn can_express_absence(self) -> bool {
        matches!(
            self,
            InteractionKind::BrushX | InteractionKind::BrushY | InteractionKind::BrushXY
        )
    }

    /// Two interactions conflict on the same view when both are brushes or
    /// they are the same kind (§6.2.2 "on one visualization, some
    /// interactions are conflicted").
    pub fn conflicts_with(self, other: InteractionKind) -> bool {
        use InteractionKind::*;
        if self == other {
            return true;
        }
        let brush = |k: InteractionKind| matches!(k, BrushX | BrushY | BrushXY);
        brush(self) && brush(other)
    }
}

impl fmt::Display for InteractionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InteractionKind::Click => "click",
            InteractionKind::MultiClick => "multi-click",
            InteractionKind::BrushX => "brush-x",
            InteractionKind::BrushY => "brush-y",
            InteractionKind::BrushXY => "brush-xy",
            InteractionKind::Pan => "pan",
            InteractionKind::Zoom => "zoom",
        };
        write!(f, "{s}")
    }
}

/// One dynamic node bound by an interaction (cross-filtering brushes bind
/// several, across trees — §7.1 Filter, Figure 14d).
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionTarget {
    /// Index of the tree containing the bound node.
    pub tree: usize,
    /// The bound dynamic node's id.
    pub node: u32,
    /// Choice nodes covered through this target (globally unique ids).
    pub cover: Vec<u32>,
}

/// A candidate mapping of dynamic node(s) to a visualization interaction.
#[derive(Debug, Clone, PartialEq)]
pub struct VisInteractionCandidate {
    /// Index of the view (chart) the interaction happens on.
    pub view: usize,
    /// The interaction type.
    pub kind: InteractionKind,
    /// Bound dynamic nodes (one per tree region the event updates).
    pub targets: Vec<InteractionTarget>,
    /// Result columns of the view feeding each flattened element of the
    /// primary target.
    pub event_cols: Vec<usize>,
}

impl VisInteractionCandidate {
    /// All covered choice node ids across targets.
    pub fn cover(&self) -> Vec<u32> {
        self.covered().collect()
    }

    /// [`cover`](Self::cover) without collecting it.
    pub fn covered(&self) -> impl Iterator<Item = u32> + '_ {
        self.targets.iter().flat_map(|t| t.cover.iter().copied())
    }

    /// The primary target (candidates always have at least one).
    pub fn primary(&self) -> &InteractionTarget {
        &self.targets[0]
    }
}

/// The event-value type a result column produces.
pub fn col_node_type(col: &ResultCol) -> NodeType {
    NodeType {
        prim: pi2_difftree::PrimType::of(col.dtype),
        attrs: col.attrs.clone(),
    }
}

/// Enumerate candidate interactions on one view for one flattened dynamic
/// node. `schema` is the view's result schema.
pub fn vis_interaction_candidates(
    view: usize,
    vis: &VisMapping,
    schema: &ResultSchema,
    target_tree: usize,
    target_node: u32,
    flat: &FlatSchema,
) -> Vec<VisInteractionCandidate> {
    let mut out = Vec::new();
    let col_types: Vec<NodeType> = schema.cols.iter().map(col_node_type).collect();
    let supported = vis.kind.supported_interactions();

    let make = |kind: InteractionKind, event_cols: Vec<usize>| VisInteractionCandidate {
        view,
        kind,
        targets: vec![InteractionTarget {
            tree: target_tree,
            node: target_node,
            cover: flat.cover.clone(),
        }],
        event_cols,
    };

    // Click: select one record; every element binds a distinct column.
    if supported.contains(&InteractionKind::Click)
        && flat.all_single()
        && flat.elems.iter().all(|e| !e.optional)
        && !flat.elems.is_empty()
    {
        if let Some(cols) = assign_columns(&flat.elems, &col_types) {
            out.push(make(InteractionKind::Click, cols));
        }
    }

    // Multi-click: select a set of records; one repeated element.
    if supported.contains(&InteractionKind::MultiClick)
        && flat.len() == 1
        && flat.elems[0].repeated
        && !flat.elems[0].optional
    {
        if let Some(c) = compatible_col(&flat.elems[0], &col_types) {
            out.push(make(InteractionKind::MultiClick, vec![c]));
        }
    }

    // Axis-range interactions.
    let x_col = vis.column_for(VisVar::X);
    let y_col = vis.column_for(VisVar::Y);
    let pair_matches = |elems: &[FlatElem], col: usize| -> bool {
        elems.len() == 2
            && elems
                .iter()
                .all(|e| !e.repeated && event_type_compatible(&col_types[col], &e.ty))
            && all_or_none_optional(elems)
    };
    // A brush's (lo, hi) may bind several co-varying range pairs at once
    // (the Sales dashboard's date range appears in the outer WHERE and in
    // the correlated HAVING subquery; one brush drives both).
    let multi_pair_matches = |elems: &[FlatElem], col: usize| -> bool {
        !elems.is_empty()
            && elems.len().is_multiple_of(2)
            && elems
                .iter()
                .all(|e| !e.repeated && event_type_compatible(&col_types[col], &e.ty))
            && all_or_none_optional(elems)
    };

    for kind in [InteractionKind::BrushX, InteractionKind::BrushY] {
        if !supported.contains(&kind) {
            continue;
        }
        let col = if kind == InteractionKind::BrushX {
            x_col
        } else {
            y_col
        };
        let Some(col) = col else { continue };
        if multi_pair_matches(&flat.elems, col) {
            out.push(make(kind, vec![col, col]));
        }
    }

    // Brush-xy / Pan / Zoom: (x, x, y, y) in either axis order, or a single
    // axis pair for pan/zoom on one dynamic axis.
    for kind in [
        InteractionKind::BrushXY,
        InteractionKind::Pan,
        InteractionKind::Zoom,
    ] {
        if !supported.contains(&kind) {
            continue;
        }
        let absence_ok = kind.can_express_absence();
        if !absence_ok && flat.elems.iter().any(|e| e.optional) {
            continue;
        }
        match (x_col, y_col) {
            (Some(x), Some(y)) if flat.len() == 4 => {
                let (a, b) = flat.elems.split_at(2);
                if pair_matches(a, x) && pair_matches(b, y) {
                    out.push(make(kind, vec![x, x, y, y]));
                } else if pair_matches(a, y) && pair_matches(b, x) {
                    out.push(make(kind, vec![y, y, x, x]));
                }
            }
            _ => {}
        }
        if kind != InteractionKind::BrushXY && flat.len() == 2 {
            // Single-axis pan/zoom (e.g. a time-series x axis).
            if let Some(x) = x_col {
                if pair_matches(&flat.elems, x) {
                    out.push(make(kind, vec![x, x]));
                }
            }
        }
    }
    out
}

/// All elements optional or none: a single brush (which sets or clears all
/// of them together) cannot drive a mix of mandatory and optional
/// predicates.
fn all_or_none_optional(elems: &[FlatElem]) -> bool {
    elems.iter().all(|e| e.optional) || elems.iter().all(|e| !e.optional)
}

/// Injective, order-respecting assignment of elements to compatible result
/// columns (for click events, which emit one full record).
fn assign_columns(elems: &[FlatElem], col_types: &[NodeType]) -> Option<Vec<usize>> {
    fn go(
        elems: &[FlatElem],
        col_types: &[NodeType],
        used: &mut Vec<bool>,
        out: &mut Vec<usize>,
    ) -> bool {
        let Some((e, rest)) = elems.split_first() else {
            return true;
        };
        for (c, ct) in col_types.iter().enumerate() {
            if used[c] || !event_type_compatible(ct, &e.ty) {
                continue;
            }
            used[c] = true;
            out.push(c);
            if go(rest, col_types, used, out) {
                return true;
            }
            out.pop();
            used[c] = false;
        }
        false
    }
    let mut used = vec![false; col_types.len()];
    let mut out = Vec::with_capacity(elems.len());
    if go(elems, col_types, &mut used, &mut out) {
        Some(out)
    } else {
        None
    }
}

fn compatible_col(elem: &FlatElem, col_types: &[NodeType]) -> Option<usize> {
    col_types
        .iter()
        .position(|ct| event_type_compatible(ct, &elem.ty))
}

// ---------------------------------------------------------------------------
// Safety (§4.2.2)
// ---------------------------------------------------------------------------

/// §4.2.2 safety: a mapping is safe when there exists an input query of the
/// *view's* tree whose result table can express every query binding of the
/// covered nodes. `binding_tuples` holds, for each input query the target
/// tree expresses, the bound values of the flattened elements;
/// `view_results` holds the executed result of each input query the view's
/// tree expresses.
pub fn interaction_is_safe(
    cand: &VisInteractionCandidate,
    flat: &FlatSchema,
    binding_tuples: &[Vec<BoundValue>],
    view_results: &[&Table],
) -> bool {
    if view_results.is_empty() {
        return false;
    }
    view_results.iter().any(|table| {
        binding_tuples
            .iter()
            .all(|tuple| tuple_expressible(cand, flat, tuple, table))
    })
}

fn tuple_expressible(
    cand: &VisInteractionCandidate,
    _flat: &FlatSchema,
    tuple: &[BoundValue],
    table: &Table,
) -> bool {
    match cand.kind {
        InteractionKind::Click => {
            // There must be a row whose event columns carry the tuple.
            if tuple.iter().any(|v| matches!(v, BoundValue::Absent)) {
                return false;
            }
            // Allocation-free probe: compare through the column storage
            // rather than materializing each cell.
            (0..table.num_rows()).any(|row| {
                tuple
                    .iter()
                    .zip(cand.event_cols.iter())
                    .all(|(v, &c)| match v {
                        BoundValue::Scalar(val) => {
                            c < table.num_columns()
                                && table.col(c).sql_eq_value(row, val) == Some(true)
                        }
                        _ => false,
                    })
            })
        }
        InteractionKind::MultiClick => {
            let col = cand.event_cols[0];
            let column = table.col(col);
            let contains = |val: &pi2_data::Value| -> bool {
                (0..table.num_rows()).any(|row| column.sql_eq_value(row, val) == Some(true))
            };
            tuple.iter().all(|v| match v {
                BoundValue::Set(items) => items.iter().all(|i| match i {
                    BoundValue::Scalar(val) => contains(val),
                    _ => false,
                }),
                BoundValue::Scalar(val) => contains(val),
                BoundValue::Absent => false,
                _ => false,
            })
        }
        InteractionKind::BrushX | InteractionKind::BrushY | InteractionKind::BrushXY => {
            // Values must lie within the rendered extent; absence is
            // expressible by clearing the brush. Multi-pair targets reuse
            // the event columns cyclically.
            let in_extent =
                tuple
                    .iter()
                    .zip(cand.event_cols.iter().cycle())
                    .all(|(v, &c)| match v {
                        BoundValue::Absent => true,
                        BoundValue::Scalar(val) => {
                            let Some((min, max)) = table.min_max(c) else {
                                return false;
                            };
                            val.sql_cmp(&min)
                                .is_some_and(|o| o != std::cmp::Ordering::Less)
                                && val
                                    .sql_cmp(&max)
                                    .is_some_and(|o| o != std::cmp::Ordering::Greater)
                        }
                        _ => false,
                    });
            // A single brush emits ONE (lo, hi): when it drives several
            // range pairs in one target, every pair must need identical
            // values (the Sales date window repeated in WHERE and HAVING) —
            // otherwise the query is inexpressible through this mapping.
            let pairs_consistent = if tuple.len() > cand.event_cols.len() {
                let stride = cand.event_cols.len().max(1);
                tuple
                    .chunks(stride)
                    .collect::<Vec<_>>()
                    .windows(2)
                    .all(|w| w[0] == w[1])
            } else {
                true
            };
            in_extent && pairs_consistent
        }
        // Pan and zoom shift a continuous viewport: any numeric range is
        // reachable.
        InteractionKind::Pan | InteractionKind::Zoom => tuple
            .iter()
            .all(|v| matches!(v, BoundValue::Scalar(val) if val.is_numeric())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::flatten_node;
    use crate::vis::{vis_mapping_candidates, VisKind};
    use pi2_data::{Catalog, DataType, Value};
    use pi2_difftree::{infer_types, lower_query, AttrTable, DNode, Workload};
    use pi2_sql::parse_query;

    fn cars_catalog() -> Catalog {
        let mut c = Catalog::new();
        let rows: Vec<Vec<Value>> = (0..30)
            .map(|i| {
                vec![
                    Value::Int(40 + i * 3),
                    Value::Float(15.0 + i as f64),
                    Value::Str(["US", "EU", "JP"][(i % 3) as usize].into()),
                ]
            })
            .collect();
        let t = pi2_data::Table::from_rows(
            vec![
                ("hp", DataType::Int),
                ("mpg", DataType::Float),
                ("origin", DataType::Str),
            ],
            rows,
        )
        .unwrap();
        c.add_table("Cars", t, vec![]);
        c
    }

    /// Build the Explore-style Difftree: scatterplot query with both ranges
    /// as VALs, returning (tree, flat schema of Where).
    fn explore_tree(cat: &Catalog) -> (DNode, FlatSchema) {
        let mut gst = lower_query(
            &parse_query(
                "SELECT hp, mpg, origin FROM Cars \
                 WHERE hp BETWEEN 50 AND 60 AND mpg BETWEEN 27 AND 38",
            )
            .unwrap(),
        );
        for pred in &mut gst.children[3].children {
            for i in [1usize, 2] {
                let lit = pred.children[i].clone();
                pred.children[i] = DNode::val(vec![lit]);
            }
        }
        gst.renumber(0);
        let types = infer_types(&gst, &Workload::new(vec![], cat.clone()));
        let flat = flatten_node(&gst.children[3], &types).unwrap();
        (gst, flat)
    }

    fn explore_schema(cat: &Catalog) -> ResultSchema {
        let info = pi2_engine::analyze_query(
            &parse_query("SELECT hp, mpg, origin FROM Cars").unwrap(),
            cat,
        )
        .unwrap();
        pi2_difftree::result_schema(&[&info], &AttrTable::new(cat)).unwrap()
    }

    #[test]
    fn pan_and_zoom_bind_the_two_range_predicates() {
        let cat = cars_catalog();
        let (gst, flat) = explore_tree(&cat);
        let schema = explore_schema(&cat);
        let vis = vis_mapping_candidates(&schema, &[])
            .into_iter()
            .find(|m| {
                m.kind == VisKind::Point
                    && m.column_for(VisVar::X) == Some(0)
                    && m.column_for(VisVar::Y) == Some(1)
            })
            .expect("hp→x, mpg→y scatterplot");
        let where_id = gst.children[3].id;
        let cands = vis_interaction_candidates(0, &vis, &schema, 0, where_id, &flat);
        let kinds: Vec<InteractionKind> = cands.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&InteractionKind::Pan), "kinds: {kinds:?}");
        assert!(kinds.contains(&InteractionKind::Zoom));
        assert!(kinds.contains(&InteractionKind::BrushXY));
        let pan = cands
            .iter()
            .find(|c| c.kind == InteractionKind::Pan)
            .unwrap();
        assert_eq!(pan.event_cols, vec![0, 0, 1, 1]);
        assert_eq!(pan.cover().len(), 4);
    }

    #[test]
    fn swapped_axes_reorder_event_columns() {
        let cat = cars_catalog();
        let (gst, flat) = explore_tree(&cat);
        let schema = explore_schema(&cat);
        // mpg→x, hp→y: the hp pair now matches y.
        let vis = vis_mapping_candidates(&schema, &[])
            .into_iter()
            .find(|m| {
                m.kind == VisKind::Point
                    && m.column_for(VisVar::X) == Some(1)
                    && m.column_for(VisVar::Y) == Some(0)
            })
            .expect("mpg→x, hp→y scatterplot");
        let where_id = gst.children[3].id;
        let cands = vis_interaction_candidates(0, &vis, &schema, 0, where_id, &flat);
        let pan = cands
            .iter()
            .find(|c| c.kind == InteractionKind::Pan)
            .unwrap();
        assert_eq!(pan.event_cols, vec![0, 0, 1, 1]);
    }

    #[test]
    fn click_binds_single_value_elements() {
        let cat = cars_catalog();
        let mut gst = lower_query(&parse_query("SELECT mpg FROM Cars WHERE hp = 52").unwrap());
        let pred = &mut gst.children[3].children[0];
        let lit = pred.children[1].clone();
        pred.children[1] = DNode::val(vec![lit]);
        gst.renumber(0);
        let types = infer_types(&gst, &Workload::new(vec![], cat.clone()));
        let val = gst.choice_nodes()[0];
        let flat = flatten_node(val, &types).unwrap();
        // A bar chart over hp, count(*).
        let info = pi2_engine::analyze_query(
            &parse_query("SELECT hp, count(*) FROM Cars GROUP BY hp").unwrap(),
            &cat,
        )
        .unwrap();
        let schema = pi2_difftree::result_schema(&[&info], &AttrTable::new(&cat)).unwrap();
        let vis = VisMapping {
            kind: VisKind::Bar,
            assignments: vec![(0, VisVar::X), (1, VisVar::Y)],
        };
        let cands = vis_interaction_candidates(1, &vis, &schema, 0, val.id, &flat);
        let click = cands
            .iter()
            .find(|c| c.kind == InteractionKind::Click)
            .expect("click candidate (Figure 5)");
        assert_eq!(click.event_cols, vec![0]); // binds the hp column
        assert_eq!(click.view, 1);
        assert_eq!(click.primary().tree, 0);
    }

    #[test]
    fn brush_allows_optional_elements_but_pan_does_not() {
        let cat = cars_catalog();
        let mut gst = lower_query(
            &parse_query("SELECT hp, mpg, origin FROM Cars WHERE hp BETWEEN 50 AND 60").unwrap(),
        );
        let where_ = &mut gst.children[3];
        let mut pred = where_.children.remove(0);
        for i in [1usize, 2] {
            let lit = pred.children[i].clone();
            pred.children[i] = DNode::val(vec![lit]);
        }
        where_.children.push(DNode::any(vec![pred, DNode::empty()]));
        gst.renumber(0);
        let types = infer_types(&gst, &Workload::new(vec![], cat.clone()));
        let opt = &gst.children[3].children[0];
        let flat = flatten_node(opt, &types).unwrap();
        let schema = explore_schema(&cat);
        let vis = vis_mapping_candidates(&schema, &[])
            .into_iter()
            .find(|m| m.kind == VisKind::Point && m.column_for(VisVar::X) == Some(0))
            .unwrap();
        let cands = vis_interaction_candidates(0, &vis, &schema, 0, opt.id, &flat);
        let kinds: Vec<InteractionKind> = cands.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&InteractionKind::BrushX), "kinds: {kinds:?}");
        assert!(!kinds.contains(&InteractionKind::Pan));
        assert!(!kinds.contains(&InteractionKind::Zoom));
    }

    #[test]
    fn conflict_matrix() {
        use InteractionKind::*;
        assert!(BrushX.conflicts_with(BrushY));
        assert!(BrushX.conflicts_with(BrushX));
        assert!(!Pan.conflicts_with(Zoom));
        assert!(!Click.conflicts_with(BrushX));
    }

    #[test]
    fn click_safety_requires_value_in_result() {
        // Figure 9 / §4.2.2: VAL(4, 5) cannot be clicked if the chart only
        // renders a = 1..4.
        let table = pi2_data::Table::from_rows(
            vec![("a", DataType::Int), ("count", DataType::Int)],
            (1..=4)
                .map(|i| vec![Value::Int(i), Value::Int(i * 30)])
                .collect(),
        )
        .unwrap();
        let cand = VisInteractionCandidate {
            view: 0,
            kind: InteractionKind::Click,
            targets: vec![InteractionTarget {
                tree: 0,
                node: 0,
                cover: vec![0],
            }],
            event_cols: vec![0],
        };
        let flat = FlatSchema::default();
        // Binding 4 is expressible; binding 5 is not.
        let ok = interaction_is_safe(
            &cand,
            &flat,
            &[vec![BoundValue::Scalar(Value::Int(4))]],
            &[&table],
        );
        assert!(ok);
        let bad = interaction_is_safe(
            &cand,
            &flat,
            &[
                vec![BoundValue::Scalar(Value::Int(4))],
                vec![BoundValue::Scalar(Value::Int(5))],
            ],
            &[&table],
        );
        assert!(!bad, "query binding 5 is not expressible by this chart");
    }

    #[test]
    fn brush_safety_uses_extent_and_accepts_absence() {
        let table = pi2_data::Table::from_rows(
            vec![("a", DataType::Int)],
            (0..=100).step_by(10).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        let cand = VisInteractionCandidate {
            view: 0,
            kind: InteractionKind::BrushX,
            targets: vec![InteractionTarget {
                tree: 0,
                node: 0,
                cover: vec![0, 1],
            }],
            event_cols: vec![0, 0],
        };
        let flat = FlatSchema::default();
        assert!(interaction_is_safe(
            &cand,
            &flat,
            &[
                vec![
                    BoundValue::Scalar(Value::Int(20)),
                    BoundValue::Scalar(Value::Int(80))
                ],
                vec![BoundValue::Absent, BoundValue::Absent],
            ],
            &[&table],
        ));
        assert!(!interaction_is_safe(
            &cand,
            &flat,
            &[vec![
                BoundValue::Scalar(Value::Int(20)),
                BoundValue::Scalar(Value::Int(150)) // outside extent
            ]],
            &[&table],
        ));
    }

    #[test]
    fn pan_safety_is_unconditional_for_numeric_bindings() {
        let table =
            pi2_data::Table::from_rows(vec![("a", DataType::Int)], vec![vec![Value::Int(1)]])
                .unwrap();
        let cand = VisInteractionCandidate {
            view: 0,
            kind: InteractionKind::Pan,
            targets: vec![InteractionTarget {
                tree: 0,
                node: 0,
                cover: vec![],
            }],
            event_cols: vec![0, 0],
        };
        let flat = FlatSchema::default();
        assert!(interaction_is_safe(
            &cand,
            &flat,
            &[vec![
                BoundValue::Scalar(Value::Int(-1000)),
                BoundValue::Scalar(Value::Int(1000))
            ]],
            &[&table],
        ));
    }
}

//! Table 1 and Table 2 of the paper, asserted against the live registries.

use pi2::{InteractionKind, VisKind, WidgetKind};
use pi2_interface::{widget_poly, VisVar};

/// Table 1: visualization schemas, FD constraints, supported interactions.
#[test]
fn table1_matches_the_paper() {
    use InteractionKind::*;
    // Table: any schema, Click.
    assert_eq!(VisKind::Table.supported_interactions(), &[Click]);
    assert!(VisKind::Table.schema().is_empty());
    assert!(VisKind::Table.fd_determinants().is_empty());

    // Point <x:Q|C, y:Q, shape:C?, size:C?, color:C?>; Click, Multi-click,
    // Brush-x/y/xy, Pan, Zoom.
    assert_eq!(
        VisKind::Point.supported_interactions(),
        &[Click, MultiClick, BrushX, BrushY, BrushXY, Pan, Zoom]
    );
    let point = VisKind::Point.schema();
    let x = point.iter().find(|s| s.var == VisVar::X).unwrap();
    assert!(x.quantitative && x.categorical && !x.optional);
    let y = point.iter().find(|s| s.var == VisVar::Y).unwrap();
    assert!(y.quantitative && !y.categorical && !y.optional);
    for var in [VisVar::Shape, VisVar::Size, VisVar::Color] {
        let s = point.iter().find(|s| s.var == var).unwrap();
        assert!(s.optional && s.categorical && !s.quantitative);
    }
    assert!(VisKind::Point.fd_determinants().is_empty());

    // Bar <x:C, y:Q, color:C?>; (x, color) → y; Click, Multi-click, Brush-x.
    assert_eq!(
        VisKind::Bar.supported_interactions(),
        &[Click, MultiClick, BrushX]
    );
    let bar = VisKind::Bar.schema();
    let x = bar.iter().find(|s| s.var == VisVar::X).unwrap();
    assert!(x.categorical && !x.quantitative);
    assert_eq!(VisKind::Bar.fd_determinants(), &[VisVar::X, VisVar::Color]);

    // Line: Click, Pan, Zoom; (x, shape, size, color) → y.
    assert_eq!(VisKind::Line.supported_interactions(), &[Click, Pan, Zoom]);
    assert_eq!(
        VisKind::Line.fd_determinants(),
        &[VisVar::X, VisVar::Shape, VisVar::Size, VisVar::Color]
    );
}

/// Table 2: widget schemas and constraints, as embodied in candidate
/// generation. The schema rules are exercised structurally in
/// `pi2-interface`; here we pin the cost-model shape: enumerating widgets
/// pay per option (`a1 > 0`), free/value widgets do not.
#[test]
fn table2_widget_cost_shape() {
    for kind in [
        WidgetKind::Radio,
        WidgetKind::Dropdown,
        WidgetKind::Checkbox,
        WidgetKind::Button,
    ] {
        let (_, a1, _) = widget_poly(kind);
        assert!(a1 > 0.0, "{kind} is an enumerating widget");
    }
    for kind in [
        WidgetKind::Slider,
        WidgetKind::RangeSlider,
        WidgetKind::Toggle,
        WidgetKind::Textbox,
        WidgetKind::Adder,
    ] {
        let (_, a1, _) = widget_poly(kind);
        assert_eq!(a1, 0.0, "{kind} has |w.d| = 0 per §5");
    }
}

/// The range slider's `s ≤ e` constraint (Table 2) is enforced during
/// candidate generation — covered by unit tests in `pi2-interface`; here we
/// assert the public invariant that a slider pair never surfaces reversed.
#[test]
fn range_slider_constraint_is_public() {
    use pi2_data::{Catalog, DataType, Table, Value};
    use pi2_difftree::{infer_types, DNode, Forest, Workload};
    use pi2_sql::parse_query;

    let mut c = Catalog::new();
    let rows: Vec<Vec<Value>> = (0..20).map(|i| vec![Value::Int(i)]).collect();
    c.add_table(
        "T",
        Table::from_rows(vec![("a", DataType::Int)], rows).unwrap(),
        vec![],
    );
    let w = Workload::new(
        vec![parse_query("SELECT a FROM T WHERE a BETWEEN 9 AND 3").unwrap()],
        c,
    );
    let mut tree = w.gsts[0].clone();
    let pred = &mut tree.children[3].children[0];
    for i in [1usize, 2] {
        let lit = pred.children[i].clone();
        pred.children[i] = DNode::val(vec![lit]);
    }
    let f = Forest::new(vec![tree]);
    let assignments = f.bind_all(&w).unwrap();
    let maps: Vec<&pi2_difftree::BindingMap> = assignments.iter().map(|a| &*a.binding).collect();
    let types = infer_types(&f.trees[0], &w);
    let cands = pi2_interface::widget_candidates(&f.trees[0], &types, &maps, &w.attrs);
    assert!(
        !cands
            .iter()
            .any(|cand| cand.kind == WidgetKind::RangeSlider),
        "s > e query bindings violate the range slider constraint"
    );
}

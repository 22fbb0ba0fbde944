//! Flattened dynamic-node schemas.
//!
//! The paper's node schemas (§3.2.3) are nested expressions; for operational
//! matching (sliders, brushes, pans binding several choice nodes at once —
//! Example 6's range slider) it is convenient to flatten a dynamic node into
//! an ordered list of *bindable elements*, each tracing back to the choice
//! node it parameterises. A node flattens only when its variation structure
//! is a simple product of value choices; nodes with structural alternatives
//! (multi-child `ANY`) do not flatten and are handled by enumeration widgets
//! instead.

use pi2_difftree::{DNode, NodeKind, NodeType, SyntaxKind, TypeMap};

/// One bindable element of a flattened schema.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatElem {
    /// The choice node this element binds.
    pub node_id: u32,
    /// The element's (possibly attribute-specialised) type.
    pub ty: NodeType,
    /// The element sits under an `OPT`: absence is expressible. The
    /// controlling OPT node id is in `opt_controller`.
    pub optional: bool,
    /// Id of the controlling OPT (`ANY` with Empty child), when optional.
    pub opt_controller: Option<u32>,
    /// The element repeats (`MULTI`): it binds a *set* of values.
    pub repeated: bool,
    /// For `ANY`-of-literals elements: the element only accepts one of the
    /// enumerated child literals (`None` = full domain, from `VAL`).
    pub enumerable: Option<usize>,
}

/// A flattened schema: ordered bindable elements plus every choice node id
/// covered (the candidate interaction's *cover* in Algorithm 1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatSchema {
    /// The elems.
    pub elems: Vec<FlatElem>,
    /// The cover.
    pub cover: Vec<u32>,
}

impl FlatSchema {
    /// Len.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Is empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// All elements are plain single values (no repetition).
    pub fn all_single(&self) -> bool {
        self.elems.iter().all(|e| !e.repeated)
    }

    /// All elements numeric.
    pub fn all_numeric(&self) -> bool {
        self.elems.iter().all(|e| e.ty.is_num())
    }

    /// The schema with every node id offset by `base` — converts a
    /// tree-local flattening (from the shared evaluation cache) into the
    /// forest-global id space of one particular state.
    pub fn shifted(&self, base: u32) -> FlatSchema {
        FlatSchema {
            elems: self
                .elems
                .iter()
                .map(|e| FlatElem {
                    node_id: e.node_id + base,
                    ty: e.ty.clone(),
                    optional: e.optional,
                    opt_controller: e.opt_controller.map(|id| id + base),
                    repeated: e.repeated,
                    enumerable: e.enumerable,
                })
                .collect(),
            cover: self.cover.iter().map(|id| id + base).collect(),
        }
    }
}

/// Flatten a dynamic node into bindable elements. Returns `None` when the
/// node's variation is structural (not value-like) and cannot be expressed
/// as an ordered tuple of values.
pub fn flatten_node(node: &DNode, types: &TypeMap) -> Option<FlatSchema> {
    let mut out = FlatSchema::default();
    if flatten_into(node, types, false, None, &mut out) {
        if out.elems.is_empty() {
            None
        } else {
            Some(out)
        }
    } else {
        None
    }
}

fn flatten_into(
    node: &DNode,
    types: &TypeMap,
    optional: bool,
    opt_controller: Option<u32>,
    out: &mut FlatSchema,
) -> bool {
    match &node.kind {
        NodeKind::Val => {
            out.cover.push(node.id);
            out.elems.push(FlatElem {
                node_id: node.id,
                ty: types
                    .get(node.id as usize)
                    .cloned()
                    .unwrap_or_else(NodeType::str_),
                optional,
                opt_controller,
                repeated: false,
                enumerable: None,
            });
            true
        }
        NodeKind::Any => {
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
            let has_empty = non_marker.len() != non_empty.len();
            if has_empty && non_empty.len() == 1 {
                // OPT: flatten the alternative with optionality.
                out.cover.push(node.id);
                return flatten_into(non_empty[0], types, true, Some(node.id), out);
            }
            // ANY of literal leaves: a single enumerable element.
            let all_lits = !non_empty.is_empty()
                && non_empty
                    .iter()
                    .all(|c| matches!(c.kind, NodeKind::Syntax(SyntaxKind::Lit(_))));
            if all_lits && !has_empty {
                out.cover.push(node.id);
                out.elems.push(FlatElem {
                    node_id: node.id,
                    ty: types
                        .get(node.id as usize)
                        .cloned()
                        .unwrap_or_else(NodeType::str_),
                    optional,
                    opt_controller,
                    repeated: false,
                    enumerable: Some(non_empty.len()),
                });
                return true;
            }
            // Structural alternatives do not flatten.
            false
        }
        NodeKind::Multi => {
            // A repetition over a single-element template. The element binds
            // through the MULTI node itself (a set of per-repetition
            // parameterisations), so it carries the MULTI's id.
            let before = out.elems.len();
            out.cover.push(node.id);
            if !flatten_into(&node.children[0], types, optional, opt_controller, out) {
                return false;
            }
            if out.elems.len() != before + 1 {
                return false;
            }
            out.elems[before].repeated = true;
            out.elems[before].node_id = node.id;
            true
        }
        NodeKind::Subset | NodeKind::CoOpt { .. } => false,
        NodeKind::Syntax(_) => {
            for c in &node.children {
                if c.is_dynamic() && !flatten_into(c, types, optional, opt_controller, out) {
                    return false;
                }
            }
            true
        }
    }
}

/// Type compatibility between an event element type and a bindable element
/// type: attribute-typed elements require overlapping attribute provenance;
/// primitive elements require primitive-hierarchy compatibility (§3.2.1).
pub fn event_type_compatible(event: &NodeType, elem: &NodeType) -> bool {
    if !elem.attrs.is_empty() {
        return event.shares_attr(elem);
    }
    event.prim.compatible_with(elem.prim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_data::{Catalog, DataType, Table, Value};
    use pi2_difftree::{infer_types, lower_query, Workload};
    use pi2_sql::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_rows(
            vec![("hp", DataType::Int), ("mpg", DataType::Float)],
            vec![
                vec![Value::Int(50), Value::Float(20.0)],
                vec![Value::Int(90), Value::Float(35.0)],
            ],
        )
        .unwrap();
        c.add_table("Cars", t, vec![]);
        c
    }

    fn workload() -> Workload {
        Workload::new(vec![], catalog())
    }

    /// Explore-style Where: two BETWEENs over VALs flattens to 4 numeric
    /// elements — the pan/zoom target.
    #[test]
    fn where_with_two_betweens_flattens_to_four_elems() {
        let mut gst = lower_query(
            &parse_query(
                "SELECT hp, mpg FROM Cars WHERE hp BETWEEN 50 AND 60 AND mpg BETWEEN 27 AND 38",
            )
            .unwrap(),
        );
        // Replace all four literals with VALs.
        for pred in &mut gst.children[3].children {
            for i in [1usize, 2] {
                let lit = pred.children[i].clone();
                pred.children[i] = DNode::val(vec![lit]);
            }
        }
        gst.renumber(0);
        let w = workload();
        let types = infer_types(&gst, &w);
        let where_ = &gst.children[3];
        let flat = flatten_node(where_, &types).expect("flattens");
        assert_eq!(flat.len(), 4);
        assert!(flat.all_numeric());
        assert!(flat.all_single());
        assert_eq!(flat.cover.len(), 4);
        // hp, hp, mpg, mpg attribute order.
        let attrs: Vec<String> = flat
            .elems
            .iter()
            .map(|e| e.ty.display(&w.attrs).to_string())
            .collect();
        assert_eq!(attrs, vec!["Cars.hp", "Cars.hp", "Cars.mpg", "Cars.mpg"]);
    }

    /// An OPT'd BETWEEN flattens with optional elements (brush-clearable).
    #[test]
    fn opt_between_flattens_with_optionality() {
        let mut gst =
            lower_query(&parse_query("SELECT hp FROM Cars WHERE mpg BETWEEN 10 AND 20").unwrap());
        let where_ = &mut gst.children[3];
        let mut pred = where_.children.remove(0);
        for i in [1usize, 2] {
            let lit = pred.children[i].clone();
            pred.children[i] = DNode::val(vec![lit]);
        }
        where_.children.push(DNode::any(vec![pred, DNode::empty()]));
        gst.renumber(0);
        let w = workload();
        let types = infer_types(&gst, &w);
        let opt = &gst.children[3].children[0];
        let flat = flatten_node(opt, &types).unwrap();
        assert_eq!(flat.len(), 2);
        assert!(flat.elems.iter().all(|e| e.optional));
        assert!(flat.elems.iter().all(|e| e.opt_controller == Some(opt.id)));
        // Cover includes the OPT and both VALs.
        assert_eq!(flat.cover.len(), 3);
    }

    /// ANY over whole queries does not flatten (structural variation).
    #[test]
    fn structural_any_does_not_flatten() {
        let q1 = lower_query(&parse_query("SELECT hp FROM Cars").unwrap());
        let q2 = lower_query(&parse_query("SELECT mpg FROM Cars").unwrap());
        let mut any = DNode::any(vec![q1, q2]);
        any.renumber(0);
        let w = workload();
        let types = infer_types(&any, &w);
        assert!(flatten_node(&any, &types).is_none());
    }

    /// ANY of literals flattens to one enumerable element.
    #[test]
    fn literal_any_flattens_enumerably() {
        let mut gst = lower_query(&parse_query("SELECT mpg FROM Cars WHERE hp = 50").unwrap());
        let pred = &mut gst.children[3].children[0];
        let lit = pred.children[1].clone();
        let lit2 = DNode::leaf(SyntaxKind::Lit(pi2_difftree::LitVal(
            pi2_sql::ast::Literal::Int(90),
        )));
        pred.children[1] = DNode::any(vec![lit, lit2]);
        gst.renumber(0);
        let w = workload();
        let types = infer_types(&gst, &w);
        let pred = &gst.children[3].children[0];
        let flat = flatten_node(pred, &types).unwrap();
        assert_eq!(flat.len(), 1);
        assert_eq!(flat.elems[0].enumerable, Some(2));
        assert!(flat.elems[0].ty.is_num());
    }

    /// MULTI over a literal template flattens to one repeated element.
    #[test]
    fn multi_flattens_as_repeated() {
        let mut gst =
            lower_query(&parse_query("SELECT mpg FROM Cars WHERE hp IN (50, 90)").unwrap());
        let pred = &mut gst.children[3].children[0];
        // IN items → Multi(Any(50, 90))
        let items: Vec<DNode> = pred.children.drain(1..).collect();
        pred.children.push(DNode::multi(DNode::any(items)));
        gst.renumber(0);
        let w = workload();
        let types = infer_types(&gst, &w);
        let pred = &gst.children[3].children[0];
        let flat = flatten_node(pred, &types).unwrap();
        assert_eq!(flat.len(), 1);
        assert!(flat.elems[0].repeated);
        // Cover includes the MULTI and the inner ANY.
        assert_eq!(flat.cover.len(), 2);
    }

    #[test]
    fn event_type_compatibility() {
        let w = workload();
        let hp = w.attrs.node_type(w.attrs.lookup("Cars", "hp").unwrap());
        let mpg = w.attrs.node_type(w.attrs.lookup("Cars", "mpg").unwrap());
        assert!(event_type_compatible(&hp, &hp));
        assert!(!event_type_compatible(&hp, &mpg));
        // Attribute events bind primitive-typed elements if prims fit.
        assert!(event_type_compatible(&hp, &NodeType::num()));
        assert!(event_type_compatible(&hp, &NodeType::str_()));
        assert!(!event_type_compatible(&NodeType::str_(), &NodeType::num()));
        // A union shares either attribute.
        assert!(event_type_compatible(&hp, &hp.union(&mpg)));
        assert!(event_type_compatible(&hp.union(&mpg), &mpg));
    }
}

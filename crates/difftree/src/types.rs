//! The Difftree type hierarchy (§3.2.1) and type inference.
//!
//! The paper uses a trivial primitive hierarchy `AST → str → num` plus
//! *attribute types*: a database attribute `T.a` specialises a primitive to
//! `a`'s domain. Leaf nodes get specialised types; internal nodes are `AST`.
//!
//! An attribute type needs the attribute's identity, not its name: every
//! catalogue attribute is interned once per workload in an [`AttrTable`],
//! and types carry [`AttrId`]s. Names are read back through the table only
//! to display a type.
//!
//! Inference has two parts:
//! 1. **Initialisation** from grammar annotations and the catalogue: numeric
//!    literals are `num`, string literals `str`, function calls take their
//!    catalogue return type, column references resolve to attribute types.
//! 2. **Specialisation**: in comparison contexts (`attr = val`, `attr
//!    BETWEEN lo AND hi`, `attr IN (…)`) the literal side inherits the
//!    attribute's type — this is what lets a `VAL` node become a slider over
//!    the attribute's domain (§2).

use crate::forest::{Tree, Workload};
use crate::gst::{DNode, NodeKind, SyntaxKind};
use pi2_data::{Catalog, ColumnStats, DataType, Value};
use pi2_sql::ast::Literal;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Primitive types, ordered by specialisation: `num ⊂ str ⊂ AST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrimType {
    /// `Num`.
    Num,
    /// `Str`.
    Str,
    /// `Ast`.
    Ast,
}

impl PrimType {
    /// Least common ancestor in the hierarchy (the paper's type union).
    pub fn union(self, other: PrimType) -> PrimType {
        self.max(other)
    }

    /// `t1` is compatible with `t2` if its domain is a subset of `t2`'s.
    pub fn compatible_with(self, other: PrimType) -> bool {
        self <= other
    }

    /// The primitive a column of storage type `dtype` specialises.
    pub fn of(dtype: DataType) -> PrimType {
        if dtype.is_numeric() {
            PrimType::Num
        } else {
            PrimType::Str
        }
    }
}

impl fmt::Display for PrimType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrimType::Num => "num",
            PrimType::Str => "str",
            PrimType::Ast => "AST",
        };
        write!(f, "{s}")
    }
}

/// The interned identity of one catalogue attribute, an index into the
/// workload's [`AttrTable`]. Ids follow `(table, column)` name order, so
/// sorted id lists iterate like sorted name pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(u32);

/// One catalogue attribute: its canonical names, storage type and
/// statistics.
#[derive(Debug, Clone)]
pub struct Attr {
    /// Canonical (catalogue) table name.
    pub table: String,
    /// Canonical column name within the table.
    pub column: String,
    /// The column's storage type.
    pub dtype: DataType,
    /// The column's catalogue statistics.
    pub stats: ColumnStats,
}

/// Every attribute of a catalogue, interned. Built once per workload
/// ([`Workload::new`]); ids are a pure function of the catalogue.
#[derive(Debug, Clone, Default)]
pub struct AttrTable {
    /// Attributes in id order.
    attrs: Vec<Attr>,
    /// Per base table, in catalogue order: its canonical name and its
    /// columns' ids in schema order.
    tables: Vec<(String, Vec<AttrId>)>,
}

impl AttrTable {
    /// Intern every attribute of `catalog`.
    pub fn new(catalog: &Catalog) -> AttrTable {
        // (table slot, schema position, attribute), then sorted by name.
        let mut attrs: Vec<(usize, usize, Attr)> = Vec::new();
        let mut tables: Vec<(String, Vec<AttrId>)> = Vec::new();
        for (slot, meta) in catalog
            .table_names()
            .filter_map(|n| catalog.table(n))
            .enumerate()
        {
            tables.push((meta.name.clone(), Vec::new()));
            for (pos, (c, stats)) in meta
                .table
                .schema
                .columns
                .iter()
                .zip(&meta.stats)
                .enumerate()
            {
                let attr = Attr {
                    table: meta.name.clone(),
                    column: c.name.clone(),
                    dtype: c.dtype,
                    stats: stats.clone(),
                };
                attrs.push((slot, pos, attr));
            }
        }
        attrs.sort_by(|(.., a), (.., b)| (&a.table, &a.column).cmp(&(&b.table, &b.column)));
        let mut columns: Vec<Vec<(usize, AttrId)>> = vec![Vec::new(); tables.len()];
        for (i, &(slot, pos, _)) in attrs.iter().enumerate() {
            columns[slot].push((pos, AttrId(i as u32)));
        }
        for ((_, ids), mut cols) in tables.iter_mut().zip(columns) {
            cols.sort();
            *ids = cols.into_iter().map(|(_, id)| id).collect();
        }
        AttrTable {
            attrs: attrs.into_iter().map(|(.., a)| a).collect(),
            tables,
        }
    }

    /// The attribute behind `id`.
    pub fn get(&self, id: AttrId) -> &Attr {
        &self.attrs[id.0 as usize]
    }

    /// Case-insensitive base-table lookup, as [`Catalog::table`]; the
    /// result is a table slot for [`AttrTable::column`].
    fn table(&self, name: &str) -> Option<usize> {
        self.tables
            .iter()
            .position(|(t, _)| t.eq_ignore_ascii_case(name))
    }

    /// Case-insensitive column lookup in one table slot (the first
    /// matching column, as `Schema::index_of`).
    fn column(&self, slot: usize, column: &str) -> Option<AttrId> {
        self.tables[slot]
            .1
            .iter()
            .copied()
            .find(|&id| self.get(id).column.eq_ignore_ascii_case(column))
    }

    /// The attribute `table.column`, both names case-insensitive.
    pub fn lookup(&self, table: &str, column: &str) -> Option<AttrId> {
        self.column(self.table(table)?, column)
    }

    /// The column of the only table that has one named `column`, as
    /// [`Catalog::resolve_column`]; `None` when unknown or ambiguous.
    fn unique_column(&self, column: &str) -> Option<AttrId> {
        let mut hits = (0..self.tables.len()).filter_map(|slot| self.column(slot, column));
        let hit = hits.next()?;
        hits.next().is_none().then_some(hit)
    }

    /// The attribute type of `id`.
    pub fn node_type(&self, id: AttrId) -> NodeType {
        NodeType {
            prim: PrimType::of(self.get(id).dtype),
            attrs: vec![id],
        }
    }
}

/// A node type: a primitive plus the set of attributes it specialises.
/// `attrs` empty means a bare primitive; multiple attrs arise from unions
/// such as the `ANY(a, b)` example in §2 whose schema is `a ∪ b`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeType {
    /// The primitive (`num`/`str`/`AST`).
    pub prim: PrimType,
    /// Source attributes this type specialises (a union), sorted and
    /// deduplicated.
    pub attrs: Vec<AttrId>,
}

impl NodeType {
    /// The top type `AST`.
    pub fn ast() -> NodeType {
        NodeType::bare(PrimType::Ast)
    }

    /// The bare numeric primitive.
    pub fn num() -> NodeType {
        NodeType::bare(PrimType::Num)
    }

    /// The bare string primitive.
    pub fn str_() -> NodeType {
        NodeType::bare(PrimType::Str)
    }

    fn bare(prim: PrimType) -> NodeType {
        NodeType {
            prim,
            attrs: Vec::new(),
        }
    }

    /// Whether the primitive is `num`.
    pub fn is_num(&self) -> bool {
        self.prim == PrimType::Num
    }

    /// The paper's type union `T1 ∪ T2`: least common ancestor of the
    /// primitives, keeping attribute provenance from both sides.
    pub fn union(&self, other: &NodeType) -> NodeType {
        let mut attrs = Vec::with_capacity(self.attrs.len() + other.attrs.len());
        let (mut a, mut b) = (self.attrs.iter().peekable(), other.attrs.iter().peekable());
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            attrs.push(x.min(y));
            if x <= y {
                a.next();
            }
            if y <= x {
                b.next();
            }
        }
        attrs.extend(a.chain(b));
        NodeType {
            prim: self.prim.union(other.prim),
            attrs,
        }
    }

    /// Whether the two types share a source attribute.
    pub fn shares_attr(&self, other: &NodeType) -> bool {
        self.attrs
            .iter()
            .any(|a| other.attrs.binary_search(a).is_ok())
    }

    /// Domain (min, max) over all source attributes, from catalogue stats.
    pub fn domain(&self, attrs: &AttrTable) -> Option<(Value, Value)> {
        let mut lo: Option<Value> = None;
        let mut hi: Option<Value> = None;
        for &a in &self.attrs {
            let stats = &attrs.get(a).stats;
            let (amin, amax) = (stats.min.clone()?, stats.max.clone()?);
            lo = Some(match lo {
                Some(v) if v <= amin => v,
                _ => amin,
            });
            hi = Some(match hi {
                Some(v) if v >= amax => v,
                _ => amax,
            });
        }
        Some((lo?, hi?))
    }

    /// Distinct values over all source attributes, when all are
    /// low-cardinality enough to enumerate.
    pub fn distinct_values(&self, attrs: &AttrTable) -> Option<Vec<Value>> {
        if self.attrs.is_empty() {
            return None;
        }
        let mut out: BTreeSet<Value> = BTreeSet::new();
        for &a in &self.attrs {
            out.extend(attrs.get(a).stats.distinct_values.clone()?);
        }
        Some(out.into_iter().collect())
    }

    /// The type's display form (`num`, `T.a`, `T.a∪T.b`), names read
    /// through `attrs`.
    pub fn display<'a>(&'a self, attrs: &'a AttrTable) -> impl fmt::Display + 'a {
        struct Shown<'a>(&'a NodeType, &'a AttrTable);
        impl fmt::Display for Shown<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let Shown(ty, attrs) = self;
                if ty.attrs.is_empty() {
                    return write!(f, "{}", ty.prim);
                }
                for (i, &a) in ty.attrs.iter().enumerate() {
                    let a = attrs.get(a);
                    let sep = if i == 0 { "" } else { "∪" };
                    write!(f, "{sep}{}.{}", a.table, a.column)?;
                }
                Ok(())
            }
        }
        Shown(self, attrs)
    }
}

/// Per-node type annotations of one tree, indexed by tree-local node id.
pub type TypeMap = Vec<NodeType>;

/// Infer types for every node of a Difftree (§3.2.1) against the
/// workload's catalogue.
pub fn infer_types(root: &DNode, w: &Workload) -> TypeMap {
    let scope = Scope::new(root, &w.attrs);
    let mut map = TypeMap::new();
    assign_base_types(root, &scope, &w.catalog, &mut map);
    specialise_in_comparisons(root, &scope, &mut map);
    map
}

/// [`infer_types`] memoized per tree fingerprint in the workload's memos.
/// Search states share most of their trees and ids are tree-local, so the
/// inferred map transfers between states unchanged; candidate enumeration
/// calls this once per tree per state instead of re-walking every node.
/// The workload fixes the catalogue and its attribute ids, so the key needs
/// nothing else.
pub fn infer_types_cached(tree: &Tree, w: &Workload) -> Arc<TypeMap> {
    let infer = || Arc::new(infer_types(tree.node(), w));
    w.memos.types.get_or_insert_with(&tree.fingerprint(), infer)
}

/// The base tables a tree's FROM clauses name (including those in
/// choice-node branches and subqueries), resolved to table slots once per
/// tree.
struct Scope<'a> {
    attrs: &'a AttrTable,
    /// `(table name or alias, table slot)` per FROM entry, in FROM order;
    /// the slot is `None` when the catalogue lacks the table.
    names: Vec<(&'a str, Option<usize>)>,
    /// Known table slots in FROM order, each once.
    from: Vec<usize>,
}

impl<'a> Scope<'a> {
    fn new(root: &'a DNode, attrs: &'a AttrTable) -> Scope<'a> {
        let mut scope = Scope {
            attrs,
            names: Vec::new(),
            from: Vec::new(),
        };
        scope.collect(root);
        scope
    }

    /// Pre-order, left to right: FROM order.
    fn collect(&mut self, n: &'a DNode) {
        if let NodeKind::Syntax(SyntaxKind::TableRef) = n.kind {
            let mut name: Option<&str> = None;
            let mut alias: Option<&str> = None;
            for c in &n.children {
                match &c.kind {
                    NodeKind::Syntax(SyntaxKind::TableName(t)) => name = Some(t),
                    NodeKind::Syntax(SyntaxKind::AliasName(a)) => alias = Some(a),
                    _ => {}
                }
            }
            if let Some(t) = name {
                let slot = self.attrs.table(t);
                self.names.push((t, slot));
                if let Some(a) = alias {
                    self.names.push((a, slot));
                }
                if let Some(s) = slot.filter(|s| !self.from.contains(s)) {
                    self.from.push(s);
                }
            }
        }
        for c in &n.children {
            self.collect(c);
        }
    }

    /// Resolve a column reference: a qualifier through the FROM names (or
    /// the catalogue when no FROM entry has it); an unqualified column to
    /// the first FROM table that has it, else to the only catalogue table
    /// that does. Names match case-insensitively, and the attribute is the
    /// catalogue's, whatever the query's spelling.
    fn resolve(&self, table: Option<&str>, column: &str) -> Option<AttrId> {
        if let Some(t) = table {
            let slot = match self.names.iter().find(|(n, _)| n.eq_ignore_ascii_case(t)) {
                Some(&(_, slot)) => slot,
                None => self.attrs.table(t),
            };
            return self.attrs.column(slot?, column);
        }
        self.from
            .iter()
            .find_map(|&slot| self.attrs.column(slot, column))
            .or_else(|| self.attrs.unique_column(column))
    }

    /// The attribute type of a column reference.
    fn column_type(&self, table: Option<&str>, column: &str) -> Option<NodeType> {
        self.resolve(table, column)
            .map(|id| self.attrs.node_type(id))
    }
}

/// Set `id`'s type, growing the map as ids arrive.
fn set(map: &mut TypeMap, id: u32, ty: NodeType) {
    let i = id as usize;
    if map.len() <= i {
        map.resize(i + 1, NodeType::ast());
    }
    map[i] = ty;
}

fn assign_base_types(node: &DNode, scope: &Scope<'_>, catalog: &Catalog, map: &mut TypeMap) {
    let ty = match &node.kind {
        NodeKind::Syntax(SyntaxKind::Lit(l)) => Some(match &l.0 {
            Literal::Int(_) | Literal::Float(_) => NodeType::num(),
            Literal::Bool(_) => NodeType::num(),
            Literal::Str(_) | Literal::Null => NodeType::str_(),
        }),
        // Column *references* are str-typed names (Example 2) but we keep
        // provenance so comparisons can specialise their partners.
        NodeKind::Syntax(SyntaxKind::ColumnRef { table, column }) => Some(
            scope
                .column_type(table.as_deref(), column)
                .unwrap_or_else(NodeType::str_),
        ),
        NodeKind::Syntax(SyntaxKind::FuncCall(name)) => {
            let dtype = catalog.function_return_type(name, None);
            Some(match dtype {
                Some(t) if t.is_numeric() => NodeType::num(),
                Some(_) => NodeType::str_(),
                None => NodeType::ast(),
            })
        }
        NodeKind::Syntax(SyntaxKind::TableName(_)) | NodeKind::Syntax(SyntaxKind::AliasName(_)) => {
            Some(NodeType::str_())
        }
        NodeKind::Syntax(_) => Some(NodeType::ast()),
        // Choice nodes: typed below from their children.
        _ => None,
    };
    if let Some(t) = ty {
        set(map, node.id, t);
    }
    for c in &node.children {
        assign_base_types(c, scope, catalog, map);
    }
    // Choice-node types: union of child types (leaf-level only).
    if node.is_choice() {
        let mut ty: Option<NodeType> = None;
        for c in &node.children {
            if c.is_empty_node() {
                continue;
            }
            let ct = if c.children.is_empty() || c.is_choice() {
                map.get(c.id as usize)
                    .cloned()
                    .unwrap_or_else(NodeType::ast)
            } else {
                NodeType::ast()
            };
            ty = Some(match ty {
                Some(t) => t.union(&ct),
                None => ct,
            });
        }
        set(map, node.id, ty.unwrap_or_else(NodeType::ast));
    }
}

/// Walk comparison structures and give literal-ish operands the attribute
/// type of their column partner (Example 2's `1, 2 : T.a`).
fn specialise_in_comparisons(node: &DNode, scope: &Scope<'_>, map: &mut TypeMap) {
    match &node.kind {
        NodeKind::Syntax(SyntaxKind::Compare(_)) if node.children.len() == 2 => {
            if let Some(t) = column_attr(&node.children[0], scope) {
                propagate_attr(&node.children[1], &t, map);
            } else if let Some(t) = column_attr(&node.children[1], scope) {
                propagate_attr(&node.children[0], &t, map);
            }
        }
        NodeKind::Syntax(SyntaxKind::Between { .. }) if node.children.len() == 3 => {
            if let Some(t) = column_attr(&node.children[0], scope) {
                propagate_attr(&node.children[1], &t, map);
                propagate_attr(&node.children[2], &t, map);
            }
        }
        NodeKind::Syntax(SyntaxKind::InList { .. }) if !node.children.is_empty() => {
            if let Some(t) = column_attr(&node.children[0], scope) {
                for item in &node.children[1..] {
                    propagate_attr(item, &t, map);
                }
            }
        }
        _ => {}
    }
    for c in &node.children {
        specialise_in_comparisons(c, scope, map);
    }
}

/// The attribute type of a (possibly `ANY`-wrapped) column reference.
fn column_attr(node: &DNode, scope: &Scope<'_>) -> Option<NodeType> {
    match &node.kind {
        NodeKind::Syntax(SyntaxKind::ColumnRef { table, column }) => {
            scope.column_type(table.as_deref(), column)
        }
        NodeKind::Any | NodeKind::Val => {
            // Union over alternatives that are column refs (the paper's
            // "union type of a and b" case).
            let mut ty: Option<NodeType> = None;
            for c in &node.children {
                let ct = column_attr(c, scope)?;
                ty = Some(match ty {
                    Some(t) => t.union(&ct),
                    None => ct,
                });
            }
            ty
        }
        _ => None,
    }
}

/// Assign the attribute type to literal-like nodes in a subtree (literals,
/// `VAL` nodes, `ANY` nodes whose children are all literal-like, and
/// repetition/subset structures over them).
fn propagate_attr(node: &DNode, attr: &NodeType, map: &mut TypeMap) {
    match &node.kind {
        NodeKind::Syntax(SyntaxKind::Lit(_)) => {
            set(map, node.id, attr.clone());
        }
        NodeKind::Val | NodeKind::Multi | NodeKind::Subset => {
            set(map, node.id, attr.clone());
            for c in &node.children {
                propagate_attr(c, attr, map);
            }
        }
        NodeKind::Any => {
            let all_lits = node.children.iter().all(|c| {
                matches!(c.kind, NodeKind::Syntax(SyntaxKind::Lit(_))) || c.is_empty_node()
            });
            if all_lits {
                set(map, node.id, attr.clone());
                for c in &node.children {
                    if !c.is_empty_node() {
                        propagate_attr(c, attr, map);
                    }
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gst::lower_query;
    use pi2_data::Table;
    use pi2_sql::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_rows(
            vec![
                ("p", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
            ],
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(7)],
                vec![Value::Int(2), Value::Int(20), Value::Int(8)],
            ],
        )
        .unwrap();
        c.add_table("T", t, vec!["p"]);
        c
    }

    fn workload(cat: Catalog) -> Workload {
        Workload::new(vec![], cat)
    }

    fn typed_in(sql: &str, w: &Workload) -> (DNode, TypeMap) {
        let mut gst = lower_query(&parse_query(sql).unwrap());
        gst.renumber(0);
        let map = infer_types(&gst, w);
        (gst, map)
    }

    fn typed(sql: &str) -> (DNode, TypeMap, Workload) {
        let w = workload(catalog());
        let (gst, map) = typed_in(sql, &w);
        (gst, map, w)
    }

    fn find_lit(node: &DNode, text: &str) -> u32 {
        let mut all = Vec::new();
        node.walk(&mut all);
        all.iter()
            .find(|n| match &n.kind {
                NodeKind::Syntax(SyntaxKind::Lit(l)) => l.0.to_string() == text,
                _ => false,
            })
            .unwrap_or_else(|| panic!("literal {text} not found"))
            .id
    }

    /// The type of the literal `text`, displayed.
    fn lit_type(gst: &DNode, map: &TypeMap, w: &Workload, text: &str) -> String {
        map[find_lit(gst, text) as usize]
            .display(&w.attrs)
            .to_string()
    }

    #[test]
    fn prim_hierarchy() {
        assert_eq!(PrimType::Num.union(PrimType::Str), PrimType::Str);
        assert_eq!(PrimType::Num.union(PrimType::Num), PrimType::Num);
        assert_eq!(PrimType::Str.union(PrimType::Ast), PrimType::Ast);
        assert!(PrimType::Num.compatible_with(PrimType::Str));
        assert!(!PrimType::Str.compatible_with(PrimType::Num));
        assert!(PrimType::Num.compatible_with(PrimType::Ast));
    }

    #[test]
    fn equality_specialises_literal_to_attribute() {
        // Example 2: in `a = 1`, the literal 1 gets type T.a.
        let (gst, map, w) = typed("SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p");
        let t = &map[find_lit(&gst, "1") as usize];
        assert_eq!(t.attrs, vec![w.attrs.lookup("T", "a").unwrap()]);
        assert_eq!(lit_type(&gst, &map, &w, "1"), "T.a");
        assert!(t.is_num());
    }

    #[test]
    fn between_specialises_bounds() {
        let (gst, map, w) = typed("SELECT p FROM T WHERE a BETWEEN 3 AND 9");
        for text in ["3", "9"] {
            assert_eq!(lit_type(&gst, &map, &w, text), "T.a");
        }
    }

    #[test]
    fn in_list_specialises_items() {
        let (gst, map, w) = typed("SELECT p FROM T WHERE a IN (10, 20)");
        assert_eq!(lit_type(&gst, &map, &w, "20"), "T.a");
    }

    #[test]
    fn unrelated_literals_stay_primitive() {
        let (gst, map, _) = typed("SELECT p FROM T LIMIT 5");
        let t = &map[find_lit(&gst, "5") as usize];
        assert!(t.attrs.is_empty());
        assert!(t.is_num());
    }

    #[test]
    fn string_literals_are_str() {
        let (gst, map, w) = typed("SELECT p FROM T WHERE b = 1 AND p = 2");
        // b and p both resolve; check the column ref type provenance.
        let mut all = Vec::new();
        gst.walk(&mut all);
        let col_b = all
            .iter()
            .find(|n| {
                matches!(&n.kind, NodeKind::Syntax(SyntaxKind::ColumnRef { column, .. }) if column == "b")
            })
            .unwrap();
        assert_eq!(map[col_b.id as usize].display(&w.attrs).to_string(), "T.b");
    }

    #[test]
    fn any_of_literals_under_compare_gets_union_attr_type() {
        // Build: WHERE ANY(a, b) = ANY(1, 2) — Figure 3(b)'s shape.
        let (mut gst, _, w) = typed("SELECT p FROM T WHERE a = 1");
        let pred = &mut gst.children[3].children[0];
        let col_a = pred.children[0].clone();
        let col_b = DNode::leaf(SyntaxKind::ColumnRef {
            table: None,
            column: "b".into(),
        });
        let lit1 = pred.children[1].clone();
        let lit2 = DNode::leaf(SyntaxKind::Lit(crate::gst::LitVal(Literal::Int(2))));
        pred.children[0] = DNode::any(vec![col_a, col_b]);
        pred.children[1] = DNode::any(vec![lit1, lit2]);
        gst.renumber(0);
        let map = infer_types(&gst, &w);
        // The literal ANY gets the union type T.a ∪ T.b.
        let lit_any = &gst.children[3].children[0].children[1];
        let t = &map[lit_any.id as usize];
        assert_eq!(t.display(&w.attrs).to_string(), "T.a∪T.b");
        assert!(t.is_num());
    }

    #[test]
    fn domain_and_distinct_values_from_catalog() {
        let w = workload(catalog());
        let t = w.attrs.node_type(w.attrs.lookup("T", "a").unwrap());
        assert_eq!(t.domain(&w.attrs), Some((Value::Int(10), Value::Int(20))));
        assert_eq!(
            t.distinct_values(&w.attrs),
            Some(vec![Value::Int(10), Value::Int(20)])
        );
        // Union domain covers both attributes.
        let u = t.union(&w.attrs.node_type(w.attrs.lookup("t", "B").unwrap()));
        assert_eq!(u.domain(&w.attrs), Some((Value::Int(7), Value::Int(20))));
        assert_eq!(NodeType::num().domain(&w.attrs), None);
        assert_eq!(NodeType::num().distinct_values(&w.attrs), None);
    }

    #[test]
    fn type_display() {
        let w = workload(catalog());
        let a = w.attrs.node_type(w.attrs.lookup("T", "a").unwrap());
        assert_eq!(NodeType::num().display(&w.attrs).to_string(), "num");
        assert_eq!(a.display(&w.attrs).to_string(), "T.a");
        assert_eq!(NodeType::ast().display(&w.attrs).to_string(), "AST");
    }

    #[test]
    fn aliased_column_resolution() {
        let (gst, map, w) = typed("SELECT t1.a FROM T AS t1 WHERE t1.a = 3");
        assert_eq!(lit_type(&gst, &map, &w, "3"), "T.a");
    }

    /// Ids follow (table, column) name order, whatever the schema order,
    /// so sorted id lists iterate like the sorted name pairs.
    #[test]
    fn attr_ids_follow_name_order() {
        let mut cat = catalog();
        let u = Table::from_rows(vec![("z", DataType::Str), ("c", DataType::Int)], vec![]).unwrap();
        cat.add_table("A", u, vec![]);
        let attrs = AttrTable::new(&cat);
        let names: Vec<(&str, &str)> = (0..5)
            .map(|i| {
                let a = attrs.get(AttrId(i));
                (a.table.as_str(), a.column.as_str())
            })
            .collect();
        assert_eq!(
            names,
            [("A", "c"), ("A", "z"), ("T", "a"), ("T", "b"), ("T", "p")]
        );
        let a_z = attrs.lookup("a", "Z").unwrap();
        assert_eq!(attrs.get(a_z).dtype, DataType::Str);
        assert_eq!(attrs.node_type(a_z).prim, PrimType::Str);
        assert_eq!(attrs.lookup("T", "missing"), None);
        assert_eq!(attrs.lookup("missing", "a"), None);
    }

    /// An unqualified column that two FROM tables define resolves to the
    /// first of them in FROM order, as the engine's scopes do.
    #[test]
    fn unqualified_column_resolves_to_first_from_table() {
        let mut cat = Catalog::new();
        for name in ["A", "B"] {
            let t =
                Table::from_rows(vec![("x", DataType::Int)], vec![vec![Value::Int(1)]]).unwrap();
            cat.add_table(name, t, vec![]);
        }
        let w = workload(cat);
        for _ in 0..8 {
            let (gst, map) = typed_in("SELECT x FROM A, B WHERE x = 1", &w);
            assert_eq!(lit_type(&gst, &map, &w, "1"), "A.x");
            let (gst, map) = typed_in("SELECT x FROM B, A WHERE x = 1", &w);
            assert_eq!(lit_type(&gst, &map, &w, "1"), "B.x");
        }
    }

    /// A qualified reference resolves to the catalogue's attribute whatever
    /// its spelling, so `T.A` and `a` are one type.
    #[test]
    fn qualified_reference_uses_catalogue_spelling() {
        let (gst, map, w) = typed("SELECT p FROM T WHERE T.A = 1");
        let (gst_a, map_a) = typed_in("SELECT p FROM T WHERE a = 1", &w);
        let lit = &map[find_lit(&gst, "1") as usize];
        assert_eq!(lit, &map_a[find_lit(&gst_a, "1") as usize]);
        assert_eq!(lit.display(&w.attrs).to_string(), "T.a");
    }

    /// The map is indexed by tree-local node id and types every node.
    #[test]
    fn type_map_covers_every_node() {
        let (gst, map, _) = typed("SELECT p FROM T WHERE a BETWEEN 3 AND 9");
        assert_eq!(map.len(), gst.size());
        assert_eq!(map[0], NodeType::ast());
    }
}

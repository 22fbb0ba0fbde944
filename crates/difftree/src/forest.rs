//! The search state: a set of Difftrees plus the machinery to check that it
//! still expresses every input query.
//!
//! The paper's guarantee (§6.1): "All rules are guaranteed to preserve or
//! increase the expressiveness of the Difftrees; since the initial set of
//! Difftrees directly corresponds to the input queries, any reachable set
//! of Difftrees can also express those queries." We enforce this
//! *operationally*: every candidate transform is validated by re-binding all
//! input queries ([`Forest::bound_trees`]), and resolutions are checked to
//! reproduce the bound query exactly.
//!
//! # State representation
//!
//! A [`Forest`] holds its Difftrees as [`Arc<Tree>`]: cloning a forest (the
//! innermost MCTS operation) bumps reference counts instead of copying
//! nodes, and a transform rule copies only the tree it rewrites while every
//! other tree stays shared with the parent state. Each [`Tree`] carries a
//! precomputed 64-bit structural fingerprint (ids excluded), computed once
//! at construction; [`Forest::key`] combines them into a [`ForestKey`] used
//! by the search's transposition table and by the per-(tree, query) binding
//! cache — no tree is ever re-hashed on lookup.
//!
//! Node ids are **tree-local DFS positions**: every tree root has id 0 and
//! ids follow pre-order within the tree. Bindings, actions, and type maps
//! are therefore stable under edits to *sibling* trees. Layers that need
//! forest-global ids (interface covers, exact-cover bookkeeping) offset
//! local ids by [`Forest::base`].
//!
//! # Validation
//!
//! A transform's validity needs only *which* tree expresses each query, not
//! the bindings themselves: [`Forest::bound_trees`] answers that from the
//! binding cache, whose entries are `Arc`-shared so a hit copies a pointer.
//! [`Forest::bind_all`] applies the same first-tree-that-binds rule and
//! hands the layers that read the bindings (mapping, sessions) the cache's
//! `Arc`s.

use crate::bind::{bind_query, resolve, Binding, BindingMap};
use crate::gst::{lower_query, DNode};
use crate::schema::{result_schema, ResultSchema};
use crate::types::{AttrTable, TypeMap};
use pi2_data::{Catalog, ShardedMemo};
use pi2_engine::{analyze_query, QueryInfo};
use pi2_sql::ast::Query;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Shared context for a generation session: the input queries and the
/// catalogue, plus per-query artifacts that are pure functions of the
/// workload (lowered GSTs, GST fingerprints, analyzed schema info) so the
/// search never recomputes them per state, and the per-tree memos its
/// searches fill. Immutable after [`Workload::new`], which `attrs` and the
/// memos assume; a clone shares the memos.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The input queries.
    pub queries: Vec<Query>,
    /// The lowered GST of each query.
    pub gsts: Vec<DNode>,
    /// Structural fingerprint of each GST (binding-cache keys).
    pub gst_fps: Vec<u64>,
    /// Analyzed schema info per query; `None` when analysis fails.
    pub infos: Vec<Option<QueryInfo>>,
    /// Duplicate classes: `class[qi]` is the index of the first query equal
    /// to query `qi` (so `class[qi] == qi` marks a first occurrence, and
    /// `class[qi] <= qi` always). Equal queries have equal GSTs,
    /// fingerprints and analyses, so per-state work evaluates first
    /// occurrences only and copies their results to the duplicates.
    pub class: Vec<usize>,
    /// The catalogue the queries run against.
    pub catalog: Catalog,
    /// The catalogue's attributes, interned: the ids every type and result
    /// schema of this workload carries. Built from `catalog` once.
    pub attrs: AttrTable,
    pub(crate) memos: Arc<TreeMemos>,
}

/// Per-tree facts of one workload, memoized because search states share
/// most of their trees (§6). Uncapped: the trees its searches visit bound
/// them. Shared by the search's workers and freed with the workload.
#[derive(Debug, Default)]
pub(crate) struct TreeMemos {
    /// (tree fp, tree size, query GST fp) → verified tree-local binding.
    pub(crate) binds: ShardedMemo<(u64, u32, u64), Option<Arc<BindingMap>>>,
    /// Tree fp → §3.2.1 type map.
    pub(crate) types: ShardedMemo<u64, Arc<TypeMap>>,
    /// Choice-free query subtree fp → result-schema signature.
    pub(crate) sigs: ShardedMemo<u64, Option<String>>,
}

impl Workload {
    /// Build a workload: lower every query and precompute its fingerprint,
    /// schema analysis and duplicate class.
    pub fn new(queries: Vec<Query>, catalog: Catalog) -> Workload {
        let gsts: Vec<DNode> = queries.iter().map(lower_query).collect();
        let gst_fps: Vec<u64> = gsts.iter().map(structural_fingerprint).collect();
        let infos = queries
            .iter()
            .map(|q| analyze_query(q, &catalog).ok())
            .collect();
        // Equal queries have equal GST fingerprints: compare queries only
        // within a fingerprint's bucket of first occurrences.
        let mut firsts: HashMap<u64, Vec<usize>> = HashMap::new();
        let class = (0..queries.len())
            .map(|qi| {
                let bucket = firsts.entry(gst_fps[qi]).or_default();
                match bucket.iter().find(|&&r| queries[r] == queries[qi]) {
                    Some(&r) => r,
                    None => {
                        bucket.push(qi);
                        qi
                    }
                }
            })
            .collect();
        Workload {
            queries,
            gsts,
            gst_fps,
            infos,
            class,
            attrs: AttrTable::new(&catalog),
            catalog,
            memos: Arc::default(),
        }
    }

    /// Number of input queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Per-query assignment: which tree expresses it, with which binding.
/// Binding keys are **local** to the assigned tree (root id 0).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Index of the tree expressing the query.
    pub tree: usize,
    /// The query's binding over that tree's choice nodes (tree-local ids),
    /// shared with the bind memo: cloning an assignment copies a pointer.
    pub binding: Arc<BindingMap>,
}

/// One Difftree with its cached structural fingerprint and DFS-local ids.
///
/// `Tree` is immutable once built: construction renumbers the root to
/// tree-local DFS ids (root = 0) and fingerprints the structure. It derefs
/// to [`DNode`], so read-only tree traversals work unchanged.
#[derive(Debug)]
pub struct Tree {
    root: DNode,
    fp: u64,
    size: u32,
}

impl Tree {
    /// Seal a node as a tree: assign DFS-local ids and fingerprint it.
    pub fn new(mut root: DNode) -> Tree {
        let size = root.renumber(0);
        let fp = structural_fingerprint(&root);
        Tree { root, fp, size }
    }

    /// The 64-bit structural fingerprint (ids excluded).
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The tree's root node.
    pub fn node(&self) -> &DNode {
        &self.root
    }

    /// An owned copy of the root node (for building derived trees).
    pub fn to_dnode(&self) -> DNode {
        self.root.clone()
    }

    /// Node count (cached).
    pub fn len(&self) -> u32 {
        self.size
    }

    /// Whether the tree is empty (never true: a tree has ≥ 1 node).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }
}

impl Deref for Tree {
    type Target = DNode;

    fn deref(&self) -> &DNode {
        &self.root
    }
}

impl PartialEq for Tree {
    fn eq(&self, other: &Self) -> bool {
        self.fp == other.fp && self.size == other.size && self.root == other.root
    }
}

impl Eq for Tree {}

impl Hash for Tree {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fp);
    }
}

/// Deterministic structural fingerprint of a subtree: hashes kinds and
/// shape, ignores ids. Equal trees always collide; unequal trees collide
/// with probability ~2⁻⁶⁴ (all fingerprint consumers also key on size, and
/// exact-correctness paths fall back to structural equality).
pub fn structural_fingerprint(node: &DNode) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    node.hash(&mut h);
    h.finish()
}

/// The transposition-table key of a forest: an order-sensitive combination
/// of the per-tree fingerprints plus the total node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ForestKey {
    /// Combined structural hash across trees (order-sensitive).
    pub hash: u64,
    /// Total node count across trees.
    pub size: u32,
}

impl ForestKey {
    /// A stable 64-bit seed derived from the key (reward-sampling RNG).
    pub fn seed(&self) -> u64 {
        self.hash ^ ((self.size as u64) << 32)
    }
}

/// A set of Difftrees — one MCTS search state. Trees are structurally
/// shared ([`Arc`]); cloning a forest is O(#trees).
#[derive(Debug, Clone)]
pub struct Forest {
    /// The trees. Always constructed through [`Forest::new`] /
    /// [`Forest::from_trees`], which seal fingerprints.
    pub trees: Vec<Arc<Tree>>,
}

impl PartialEq for Forest {
    fn eq(&self, other: &Self) -> bool {
        self.trees.len() == other.trees.len()
            && self
                .trees
                .iter()
                .zip(&other.trees)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for Forest {}

impl Hash for Forest {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.key().hash);
    }
}

impl Forest {
    /// Seal a list of root nodes into a forest.
    pub fn new(trees: Vec<DNode>) -> Forest {
        Forest {
            trees: trees.into_iter().map(|t| Arc::new(Tree::new(t))).collect(),
        }
    }

    /// Build from already-sealed trees (structural sharing across states).
    pub fn from_trees(trees: Vec<Arc<Tree>>) -> Forest {
        Forest { trees }
    }

    /// Initial state: one (choice-free) Difftree per input query.
    pub fn from_workload(w: &Workload) -> Forest {
        Forest::new(w.gsts.clone())
    }

    /// The forest's transposition key (O(#trees), no node hashing).
    pub fn key(&self) -> ForestKey {
        let mut hash: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut size: u32 = 0;
        for t in &self.trees {
            hash = (hash.rotate_left(7) ^ t.fp).wrapping_mul(0x100_0000_01b3);
            size += t.size;
        }
        ForestKey { hash, size }
    }

    /// Global id of tree `i`'s root: the sum of preceding tree sizes.
    /// Forest-global node ids are `base(tree) + local id`.
    pub fn base(&self, i: usize) -> u32 {
        self.trees[..i].iter().map(|t| t.size).sum()
    }

    /// Map a forest-global node id back to `(tree index, local id)`.
    pub fn locate(&self, global: u32) -> Option<(usize, u32)> {
        let mut base = 0u32;
        for (i, t) in self.trees.iter().enumerate() {
            if global < base + t.size {
                return Some((i, global - base));
            }
            base += t.size;
        }
        None
    }

    /// The node with forest-global id `global`, if it lies in tree `tree`.
    pub fn node_in_tree(&self, tree: usize, global: u32) -> Option<&DNode> {
        let base = self.base(tree);
        let local = global.checked_sub(base)?;
        if local >= self.trees.get(tree)?.size {
            return None;
        }
        self.trees[tree].find(local)
    }

    /// Total node count across trees (cached per tree).
    pub fn size(&self) -> usize {
        self.trees.iter().map(|t| t.size as usize).sum()
    }

    /// Total number of choice nodes.
    pub fn choice_count(&self) -> usize {
        self.trees.iter().map(|t| t.choice_nodes().len()).sum()
    }

    /// Bind every input query to some tree. Returns `None` if any query is
    /// inexpressible (the candidate state violates the §6.1 guarantee).
    /// Bindings are verified by resolving and comparing to the original.
    /// The result holds one assignment per input query; only first
    /// occurrences ([`Workload::class`]) are bound, and each duplicate
    /// shares its first occurrence's binding.
    ///
    /// Results are memoized per (tree fingerprint, query fingerprint) in the
    /// workload's memos: search states share most of their trees, ids are
    /// tree-local, and fingerprints are precomputed, so a cache probe costs
    /// two u64 compares instead of re-hashing the tree.
    pub fn bind_all(&self, w: &Workload) -> Option<Vec<Assignment>> {
        let mut out: Vec<Assignment> = Vec::with_capacity(w.gsts.len());
        for qi in 0..w.len() {
            let first = w.class[qi];
            let a = if first < qi {
                out[first].clone()
            } else {
                self.trees.iter().enumerate().find_map(|(ti, tree)| {
                    bind_tree_cached(tree, w, qi).map(|binding| Assignment { tree: ti, binding })
                })?
            };
            out.push(a);
        }
        Some(out)
    }

    /// The tree column of [`bind_all`](Forest::bind_all): for each input
    /// query, the index of the first tree that expresses it, or `None` if
    /// any query is inexpressible. This is the §6.1 validity check of a
    /// transform; it reads the binding cache without copying a binding.
    pub fn bound_trees(&self, w: &Workload) -> Option<Vec<usize>> {
        let mut out: Vec<usize> = Vec::with_capacity(w.gsts.len());
        for qi in 0..w.len() {
            let first = w.class[qi];
            let t = if first < qi {
                out[first]
            } else {
                self.trees
                    .iter()
                    .position(|tree| bind_tree_cached(tree, w, qi).is_some())?
            };
            out.push(t);
        }
        Some(out)
    }

    /// §3.2.4 query bindings: for each node of `tree_idx`, the set of
    /// distinct bindings needed across all input queries (descending into
    /// `MULTI` sub-bindings). Keys are tree-local ids.
    pub fn node_bindings(
        &self,
        tree_idx: usize,
        assignments: &[Assignment],
    ) -> HashMap<u32, Vec<Binding>> {
        let mut out: HashMap<u32, Vec<Binding>> = HashMap::new();
        for a in assignments {
            if a.tree != tree_idx {
                continue;
            }
            accumulate_bindings(&a.binding, &mut out);
        }
        out
    }

    /// Queries (by index) expressed by each tree under `assignments`.
    pub fn queries_per_tree(&self, assignments: &[Assignment]) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.trees.len()];
        for (qi, a) in assignments.iter().enumerate() {
            out[a.tree].push(qi);
        }
        out
    }

    /// The resolved (typed) queries a tree expresses for the input workload.
    ///
    /// Binding verification guarantees `resolve(tree, binding)` reproduces
    /// the bound query *exactly*, so this is the identity on the workload's
    /// queries — no re-resolution or re-raising per state.
    pub fn resolved_queries(
        &self,
        tree_idx: usize,
        w: &Workload,
        assignments: &[Assignment],
    ) -> Vec<(usize, Query)> {
        assignments
            .iter()
            .enumerate()
            .filter(|(_, a)| a.tree == tree_idx)
            .map(|(qi, _)| (qi, w.queries[qi].clone()))
            .collect()
    }

    /// Analyzed schema info for every distinct input query a tree expresses
    /// (first occurrences only; precomputed once per workload). `trees` is
    /// [`bound_trees`](Forest::bound_trees)' result. Result schemas fold
    /// their inputs with idempotent joins, so duplicates would add nothing.
    pub fn tree_infos<'w>(
        &self,
        tree_idx: usize,
        w: &'w Workload,
        trees: &[usize],
    ) -> Vec<&'w QueryInfo> {
        trees
            .iter()
            .enumerate()
            .filter(|&(qi, &t)| t == tree_idx && w.class[qi] == qi)
            .filter_map(|(qi, _)| w.infos[qi].as_ref())
            .collect()
    }

    /// §3.2.2 result schema of a tree; `None` when undefined (not
    /// union-compatible) or when the tree expresses no input query.
    pub fn tree_result_schema(
        &self,
        tree_idx: usize,
        w: &Workload,
        trees: &[usize],
    ) -> Option<ResultSchema> {
        let infos = self.tree_infos(tree_idx, w, trees);
        if infos.is_empty() {
            return None;
        }
        result_schema(&infos, &w.attrs)
    }
}

/// Cached, verified bind of input query `qi` against one sealed tree.
/// Bindings are tree-local (root id 0), so entries transfer between forests
/// sharing the tree without id shifting; they are `Arc`-shared, so a hit
/// copies a pointer under the shard lock.
fn bind_tree_cached(tree: &Tree, w: &Workload, qi: usize) -> Option<Arc<BindingMap>> {
    let gst = &w.gsts[qi];
    let key = (tree.fp, tree.size, w.gst_fps[qi]);
    w.memos.binds.get_or_insert_with(&key, || {
        bind_query(tree.node(), gst).and_then(|binding| {
            // Verify the round trip: resolve must reproduce the query.
            match resolve(tree.node(), &binding) {
                Ok(resolved) if &resolved == gst => Some(Arc::new(binding)),
                _ => None,
            }
        })
    })
}

/// Merge one query's binding map into the per-node accumulation, recursing
/// into `MULTI` parameterisations.
fn accumulate_bindings(map: &BindingMap, out: &mut HashMap<u32, Vec<Binding>>) {
    for (id, b) in map {
        if let Binding::List(params) = b {
            for p in params {
                accumulate_bindings(p, out);
            }
        }
        let entry = out.entry(*id).or_default();
        if !entry.contains(b) {
            entry.push(b.clone());
        }
    }
}

/// Convenience for tests and examples: does this forest express the query?
pub fn expresses(forest: &Forest, query: &Query) -> bool {
    let gst = lower_query(query);
    forest.trees.iter().any(|t| {
        bind_query(t.node(), &gst)
            .and_then(|b| resolve(t.node(), &b).ok())
            .is_some_and(|r| r == gst)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gst::SyntaxKind;
    use pi2_data::{DataType, Table, Value};
    use pi2_sql::parse_query;

    fn workload(sqls: &[&str]) -> Workload {
        let mut catalog = Catalog::new();
        let t = Table::from_rows(
            vec![
                ("p", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
            ],
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(1), Value::Int(20)],
                vec![Value::Int(3), Value::Int(2), Value::Int(30)],
            ],
        )
        .unwrap();
        catalog.add_table("T", t, vec!["p"]);
        let queries = sqls.iter().map(|s| parse_query(s).unwrap()).collect();
        Workload::new(queries, catalog)
    }

    #[test]
    fn class_points_at_first_equal_query() {
        let (a, b, c) = (
            "SELECT p FROM T WHERE a = 1",
            "SELECT p FROM T WHERE a = 2",
            "SELECT a FROM T",
        );
        let w = workload(&[a, b, a, c, b]);
        assert_eq!(w.class, vec![0, 1, 0, 3, 1]);
        // Queries differing only in a literal stay in different classes.
        let w = workload(&[a, b, "SELECT p FROM T WHERE a = 1.5", a]);
        assert_eq!(w.class, vec![0, 1, 2, 0]);
        // Duplicates are bound once and share their first occurrence's
        // assignment.
        let w = workload(&[a, b, a, c, b]);
        let merged = Forest::new(vec![DNode::any(vec![
            w.gsts[0].clone(),
            w.gsts[1].clone(),
            w.gsts[3].clone(),
        ])]);
        let assignments = merged.bind_all(&w).unwrap();
        assert_eq!(assignments.len(), 5);
        assert_eq!(assignments[2], assignments[0]);
        assert_eq!(assignments[4], assignments[1]);
        assert_ne!(assignments[0], assignments[1]);
        let trees = merged.bound_trees(&w).unwrap();
        assert_eq!(merged.tree_infos(0, &w, &trees).len(), 3);
    }

    #[test]
    fn bound_trees_is_the_tree_column_of_bind_all() {
        let w = workload(&[
            "SELECT p FROM T WHERE a = 1",
            "SELECT a FROM T",
            "SELECT p FROM T WHERE a = 1",
            "SELECT p FROM T WHERE a = 2",
        ]);
        let f = Forest::new(vec![
            w.gsts[1].clone(),
            DNode::any(vec![w.gsts[0].clone(), w.gsts[3].clone()]),
        ]);
        let trees = f.bound_trees(&w).unwrap();
        let column: Vec<usize> = f.bind_all(&w).unwrap().iter().map(|a| a.tree).collect();
        assert_eq!(trees, column);
        assert_eq!(trees, vec![1, 0, 1, 1]);
        // Inexpressible: both agree on `None`.
        let partial = Forest::new(vec![w.gsts[1].clone()]);
        assert!(partial.bound_trees(&w).is_none());
        assert!(partial.bind_all(&w).is_none());
    }

    #[test]
    fn initial_forest_expresses_all_inputs() {
        let w = workload(&[
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE b = 2 GROUP BY p",
            "SELECT a, count(*) FROM T GROUP BY a",
        ]);
        let f = Forest::from_workload(&w);
        assert_eq!(f.trees.len(), 3);
        let assignments = f.bind_all(&w).unwrap();
        assert_eq!(assignments.len(), 3);
        // Identity assignment: query i → tree i.
        for (i, a) in assignments.iter().enumerate() {
            assert_eq!(a.tree, i);
            assert!(a.binding.is_empty());
        }
    }

    #[test]
    fn merged_forest_reassigns_queries() {
        let w = workload(&[
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE b = 2 GROUP BY p",
        ]);
        let merged = Forest::new(vec![DNode::any(w.gsts.clone())]);
        let assignments = merged.bind_all(&w).unwrap();
        assert_eq!(assignments[0].tree, 0);
        assert_eq!(assignments[1].tree, 0);
        assert_ne!(assignments[0].binding, assignments[1].binding);
        let per_tree = merged.queries_per_tree(&assignments);
        assert_eq!(per_tree, vec![vec![0, 1]]);
    }

    #[test]
    fn binding_failure_detected() {
        let w = workload(&["SELECT p FROM T", "SELECT a FROM T"]);
        // A forest holding only the first query cannot express the second.
        let f = Forest::new(vec![w.gsts[0].clone()]);
        assert!(f.bind_all(&w).is_none());
    }

    #[test]
    fn node_bindings_union_across_queries() {
        let w = workload(&["SELECT p FROM T WHERE a = 1", "SELECT p FROM T WHERE a = 2"]);
        // Difftree: SELECT p FROM T WHERE a = VAL(1)
        let mut tree = w.gsts[0].clone();
        let pred = &mut tree.children[3].children[0];
        let lit = pred.children[1].clone();
        pred.children[1] = DNode::val(vec![lit]);
        let f = Forest::new(vec![tree]);
        let assignments = f.bind_all(&w).unwrap();
        let val_id = f.trees[0].choice_nodes()[0].id;
        let nb = f.node_bindings(0, &assignments);
        let vals = nb.get(&val_id).unwrap();
        assert_eq!(vals.len(), 2, "VAL should accumulate both literals");
    }

    #[test]
    fn result_schema_of_merged_tree() {
        let w = workload(&[
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT a, count(*) FROM T GROUP BY a",
        ]);
        let merged = Forest::new(vec![DNode::any(w.gsts.clone())]);
        let trees = merged.bound_trees(&w).unwrap();
        let rs = merged.tree_result_schema(0, &w, &trees).unwrap();
        assert_eq!(rs.cols.len(), 2);
        assert_eq!(rs.cols[0].display_name(), "p∪a");
    }

    #[test]
    fn expresses_helper() {
        let w = workload(&["SELECT p FROM T WHERE a = 1"]);
        let f = Forest::from_workload(&w);
        assert!(expresses(
            &f,
            &parse_query("SELECT p FROM T WHERE a = 1").unwrap()
        ));
        assert!(!expresses(
            &f,
            &parse_query("SELECT p FROM T WHERE a = 2").unwrap()
        ));
    }

    #[test]
    fn forest_key_is_structural() {
        let w = workload(&["SELECT p FROM T"]);
        let f1 = Forest::from_workload(&w);
        let f2 = Forest::from_workload(&w);
        assert_eq!(f1.key(), f2.key());
        assert_eq!(f1, f2);
        // Different structure → different key (with overwhelming probability).
        let w2 = workload(&["SELECT a FROM T"]);
        let f3 = Forest::from_workload(&w2);
        assert_ne!(f1.key(), f3.key());
    }

    #[test]
    fn forest_clone_shares_trees() {
        let w = workload(&["SELECT p FROM T", "SELECT a FROM T"]);
        let f = Forest::from_workload(&w);
        let g = f.clone();
        for (a, b) in f.trees.iter().zip(&g.trees) {
            assert!(Arc::ptr_eq(a, b), "clone must share tree allocations");
        }
    }

    #[test]
    fn bases_and_locate_round_trip() {
        let w = workload(&["SELECT p FROM T WHERE a = 1", "SELECT a FROM T"]);
        let f = Forest::from_workload(&w);
        assert_eq!(f.base(0), 0);
        assert_eq!(f.base(1), f.trees[0].len());
        let total = f.size() as u32;
        for g in 0..total {
            let (t, local) = f.locate(g).unwrap();
            assert_eq!(f.base(t) + local, g);
            assert_eq!(f.trees[t].find(local).unwrap().id, local);
        }
        assert!(f.locate(total).is_none());
        // node_in_tree rejects ids outside the tree's range.
        assert!(f.node_in_tree(0, f.base(1)).is_none());
        assert!(f.node_in_tree(1, 0).is_none());
    }

    #[test]
    fn size_and_choice_count() {
        let w = workload(&["SELECT p FROM T WHERE a = 1"]);
        let f = Forest::from_workload(&w);
        assert!(f.size() > 5);
        assert_eq!(f.choice_count(), 0);
        let mut tree = f.trees[0].to_dnode();
        let pred = &mut tree.children[3].children[0];
        let lit = pred.children[1].clone();
        pred.children[1] = DNode::val(vec![lit]);
        let f = Forest::new(vec![tree]);
        assert_eq!(f.choice_count(), 1);
    }

    #[test]
    fn resolved_queries_round_trip() {
        let w = workload(&["SELECT p FROM T WHERE a = 1", "SELECT p FROM T WHERE a = 2"]);
        let mut tree = w.gsts[0].clone();
        let pred = &mut tree.children[3].children[0];
        let lit = pred.children[1].clone();
        pred.children[1] = DNode::val(vec![lit]);
        let f = Forest::new(vec![tree]);
        let assignments = f.bind_all(&w).unwrap();
        let resolved = f.resolved_queries(0, &w, &assignments);
        assert_eq!(resolved.len(), 2);
        assert_eq!(resolved[0].1, w.queries[0]);
        assert_eq!(resolved[1].1, w.queries[1]);
    }

    #[test]
    fn empty_select_item_kind_sanity() {
        // Guard against accidental SyntaxKind contract changes used by
        // transforms.
        assert!(SyntaxKind::Where.is_list());
        assert!(SyntaxKind::SelectList.is_list());
        assert!(!SyntaxKind::Query.is_list());
        assert_eq!(SyntaxKind::Where.separator(), " AND ");
        assert_eq!(SyntaxKind::SelectList.separator(), ", ");
    }
}

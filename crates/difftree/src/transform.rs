//! Difftree transformation rules (§6.1, Figure 13).
//!
//! Four categories define PI2's search space:
//!
//! * **Refactoring** — `PushANY`, `PushOPT1`, `PushOPT2`, `Partition`:
//!   isolate the precise differences between queries;
//! * **Cross-tree** — `Merge`, `Split`: combine Difftrees (one shared
//!   visualization) or separate them (multiple views);
//! * **Mutation** — `ANY→VAL`, `ANY→MULTI`, `ANY→SUBSET`: change a choice
//!   node's kind, generalising the interface beyond the input queries;
//! * **Simplification** — `Noop`, `MergeANY`: canonicalise tree structure.
//!
//! Every rule must preserve or increase expressiveness. Rather than proving
//! this per rule, [`apply_action`] *validates* each application by re-binding
//! all input queries ([`Forest::bound_trees`]) and rejects the action if any
//! query becomes inexpressible — a runtime enforcement of the paper's §6.1
//! guarantee.
//!
//! # Transitions
//!
//! A search transition is a candidate action ([`candidate_actions`], by
//! rule preconditions only) plus its validated successor
//! ([`apply_action`]). The [`Transitions`] trait names that pair of pure
//! functions, and the rule loops built on it — the valid moves of a state
//! ([`Transitions::applicable`]) and the canonicalization policy
//! ([`Transitions::canonicalize`]) — are written once, over the trait. The
//! free functions [`applicable_actions`] and [`canonicalize`] run them
//! over a source that computes every transition afresh; the MCTS search
//! runs them over per-search tables, so it applies and validates each
//! transition once.
//!
//! Candidates split into cross-tree actions ([`cross_tree_candidates`]:
//! `Merge` and `Split`, which depend on the whole forest) and node-local
//! actions ([`tree_candidates`]), which are a function of one tree alone
//! and can be cached per tree.

use crate::forest::{structural_fingerprint, Forest, Tree, Workload};
use crate::gst::{DNode, NodeKind, SyntaxKind};
use crate::types::infer_types_cached;
use pi2_data::DataType;
use pi2_engine::analyze_query;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The transformation rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Push an `ANY` below a shared child root (Fig. 13).
    PushAny,
    /// Push an `OPT` onto its inner choice node, leaving `CO-OPT`.
    PushOpt1,
    /// Distribute an `OPT` over a list node's children.
    PushOpt2,
    /// Group an `ANY`'s children into homogeneous clusters.
    Partition,
    /// Combine two union-compatible Difftrees under one `ANY`.
    Merge,
    /// Separate an `ANY`-rooted Difftree into its children.
    Split,
    /// Relax a literal `ANY` to a full-domain `VAL`.
    AnyToVal,
    /// Generalise list alternatives to a `MULTI` repetition.
    AnyToMulti,
    /// Generalise list alternatives to an ordered `SUBSET`.
    AnyToSubset,
    /// Remove an `ANY` with a single distinct child.
    Noop,
    /// Flatten a cascade of `ANY` nodes.
    MergeAny,
}

impl Rule {
    /// ALL.
    pub const ALL: [Rule; 11] = [
        Rule::PushAny,
        Rule::PushOpt1,
        Rule::PushOpt2,
        Rule::Partition,
        Rule::Merge,
        Rule::Split,
        Rule::AnyToVal,
        Rule::AnyToMulti,
        Rule::AnyToSubset,
        Rule::Noop,
        Rule::MergeAny,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::PushAny => "PushANY",
            Rule::PushOpt1 => "PushOPT1",
            Rule::PushOpt2 => "PushOPT2",
            Rule::Partition => "Partition",
            Rule::Merge => "Merge",
            Rule::Split => "Split",
            Rule::AnyToVal => "ANY→VAL",
            Rule::AnyToMulti => "ANY→MULTI",
            Rule::AnyToSubset => "ANY→SUBSET",
            Rule::Noop => "Noop",
            Rule::MergeAny => "MergeANY",
        };
        write!(f, "{s}")
    }
}

/// One concrete rule application site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Action {
    /// The transformation rule to apply.
    pub rule: Rule,
    /// Index of the (first) tree involved.
    pub tree: usize,
    /// Target node id within the tree (unused for `Merge`/`Split` at root).
    pub node: u32,
    /// Second tree index for `Merge`; otherwise 0.
    pub other_tree: usize,
}

/// A source of search transitions: a state's candidate actions and the
/// validated successor of an action. Both are pure functions of (state,
/// workload), so an implementation may answer from a table.
pub trait Transitions {
    /// The state's candidate actions, in [`candidate_actions`]' order.
    fn candidates(&self, forest: &Forest) -> Arc<Vec<Action>>;

    /// The validated successor of `forest` under `action`, as
    /// [`apply_action`] returns it.
    fn apply(&self, forest: &Forest, action: Action) -> Option<Arc<Forest>>;

    /// Every valid action of a state with its successor, in candidate
    /// order.
    fn applicable(&self, forest: &Forest) -> Vec<(Action, Arc<Forest>)> {
        self.candidates(forest)
            .iter()
            .filter_map(|&a| self.apply(forest, a).map(|next| (a, next)))
            .collect()
    }

    /// Apply refactoring/mutation/simplification rules to a fixpoint
    /// (bounded by `max_steps`): `Noop` and `MergeANY` to simplify,
    /// `PushANY` to isolate differences, `ANY→VAL` to generalise literal
    /// choices. Each step takes the first candidate, in that rule order,
    /// with a valid successor, so the result stays inside the search space;
    /// this is a *policy* (used by MCTS rollouts to shorten action chains),
    /// not a new rule.
    fn canonicalize(&self, forest: &Arc<Forest>, max_steps: usize) -> Arc<Forest> {
        let mut state = Arc::clone(forest);
        for _ in 0..max_steps {
            let candidates = self.candidates(&state);
            let next = [Rule::Noop, Rule::MergeAny, Rule::PushAny, Rule::AnyToVal]
                .into_iter()
                .find_map(|rule| {
                    candidates
                        .iter()
                        .filter(|a| a.rule == rule)
                        .find_map(|&a| self.apply(&state, a))
                });
            match next {
                Some(s) => state = s,
                None => break,
            }
        }
        state
    }
}

/// Transitions computed afresh on every call.
struct Direct<'w>(&'w Workload);

impl Transitions for Direct<'_> {
    fn candidates(&self, forest: &Forest) -> Arc<Vec<Action>> {
        Arc::new(candidate_actions(forest, self.0))
    }

    fn apply(&self, forest: &Forest, action: Action) -> Option<Arc<Forest>> {
        apply_action(forest, self.0, action).map(Arc::new)
    }
}

/// Enumerate all valid actions for a state. Each candidate is applied and
/// validated (re-binding all input queries); invalid candidates are
/// discarded, so every returned action is safe to take.
pub fn applicable_actions(forest: &Forest, w: &Workload) -> Vec<Action> {
    Direct(w)
        .applicable(forest)
        .into_iter()
        .map(|(a, _)| a)
        .collect()
}

/// Enumerate candidate actions by rule preconditions only (no validation):
/// the cross-tree actions first, then each tree's node-local actions in
/// tree order.
pub fn candidate_actions(forest: &Forest, w: &Workload) -> Vec<Action> {
    let mut out = cross_tree_candidates(forest, w);
    for (ti, tree) in forest.trees.iter().enumerate() {
        out.extend(
            tree_candidates(tree, w)
                .into_iter()
                .map(|a| Action { tree: ti, ..a }),
        );
    }
    out
}

/// The cross-tree candidates of a state: for each tree `i` in order, a
/// `Merge` with every later union-compatible tree, then its `Split` if it
/// is splittable.
pub fn cross_tree_candidates(forest: &Forest, w: &Workload) -> Vec<Action> {
    let mut out = Vec::new();
    // Bind once and analyze each tree once; the pairwise merge check is
    // then a cheap union-compatibility test.
    let tree_infos: Vec<Vec<&pi2_engine::QueryInfo>> = match forest.bound_trees(w) {
        Some(trees) => (0..forest.trees.len())
            .map(|t| forest.tree_infos(t, w, &trees))
            .collect(),
        None => vec![Vec::new(); forest.trees.len()],
    };
    for i in 0..forest.trees.len() {
        for j in i + 1..forest.trees.len() {
            if merge_compatible_infos(&tree_infos[i], &tree_infos[j]) {
                out.push(Action {
                    rule: Rule::Merge,
                    tree: i,
                    node: 0,
                    other_tree: j,
                });
            }
        }
        if splittable(&forest.trees[i]) {
            // Tree roots always have local id 0.
            out.push(Action {
                rule: Rule::Split,
                tree: i,
                node: 0,
                other_tree: 0,
            });
        }
    }
    out
}

/// The node-local candidates of one tree, a function of the tree alone.
/// Every action carries tree index 0; the caller sets the tree's index in
/// its forest.
pub fn tree_candidates(tree: &Tree, w: &Workload) -> Vec<Action> {
    let mut out = Vec::new();
    let local = |rule: Rule, node: u32| Action {
        rule,
        tree: 0,
        node,
        other_tree: 0,
    };
    let types = infer_types_cached(tree, w);
    let mut nodes = Vec::new();
    tree.walk(&mut nodes);
    for n in nodes {
        // List-with-slots MULTI/SUBSET generalisation (Connect's
        // `IN (ANY(1,20), ANY(2,22))` → `IN (MULTI(ANY(…)))`).
        if let NodeKind::Syntax(k) = &n.kind {
            if k.is_list()
                && n.is_dynamic()
                && list_slots(k, n)
                    .and_then(|(_, slots)| slot_alternatives(&slots))
                    .is_some_and(|items| !items.is_empty())
            {
                out.push(local(Rule::AnyToMulti, n.id));
                out.push(local(Rule::AnyToSubset, n.id));
            }
        }
        if n.kind == NodeKind::Any {
            let alts: Vec<&DNode> = non_marker_children(n);
            let non_empty: Vec<&DNode> = alts
                .iter()
                .copied()
                .filter(|c| !c.is_empty_node())
                .collect();
            // Noop: single distinct child, no empty alternative.
            let distinct: std::collections::HashSet<&DNode> = non_empty.iter().copied().collect();
            if distinct.len() == 1 && non_empty.len() == alts.len() {
                out.push(local(Rule::Noop, n.id));
            }
            // MergeANY: a cascade of ANY nodes.
            if non_empty.iter().any(|c| c.kind == NodeKind::Any) {
                out.push(local(Rule::MergeAny, n.id));
            }
            // PushANY: all alternatives share a root kind.
            if non_empty.len() >= 2 && non_empty.len() == alts.len() && same_syntax_kind(&non_empty)
            {
                out.push(local(Rule::PushAny, n.id));
            }
            // Partition: ≥3 alternatives forming ≥2 clusters, at least one
            // non-singular.
            if non_empty.len() >= 3 && non_empty.len() == alts.len() {
                let clusters = cluster_children(&non_empty, w);
                let n_clusters = clusters.iter().max().map(|m| m + 1).unwrap_or(0);
                let has_nonsingular =
                    (0..n_clusters).any(|c| clusters.iter().filter(|&&x| x == c).count() >= 2);
                if n_clusters >= 2 && has_nonsingular {
                    out.push(local(Rule::Partition, n.id));
                }
            }
            // ANY→VAL: all alternatives are literals of a numeric or
            // attribute-specialised type.
            if !non_empty.is_empty()
                && non_empty.len() == alts.len()
                && non_empty
                    .iter()
                    .all(|c| matches!(c.kind, NodeKind::Syntax(SyntaxKind::Lit(_))))
            {
                let ty = types.get(n.id as usize);
                if ty.is_some_and(|t| t.is_num() || !t.attrs.is_empty()) {
                    out.push(local(Rule::AnyToVal, n.id));
                }
            }
            // ANY→MULTI / ANY→SUBSET: alternatives are same-kind list
            // nodes.
            if non_empty.len() >= 2
                && non_empty.len() == alts.len()
                && same_syntax_kind(&non_empty)
                && list_kind(non_empty[0]).is_some()
            {
                out.push(local(Rule::AnyToMulti, n.id));
                out.push(local(Rule::AnyToSubset, n.id));
            }
            // PushOPT rules apply to OPT nodes (ANY with an Empty child and
            // exactly one non-empty alternative).
            if n.is_opt() && non_empty.len() == 1 {
                let inner = non_empty[0];
                if inner.is_dynamic() && !inner.is_choice() {
                    out.push(local(Rule::PushOpt1, n.id));
                }
                if list_kind(inner).is_some() && inner.children.len() >= 2 {
                    out.push(local(Rule::PushOpt2, n.id));
                }
            }
        }
    }
    out
}

/// Apply an action, returning the transformed (validated) forest, or
/// `None` if the action is invalid or breaks expressiveness.
///
/// Only the tree(s) an action rewrites are copied; every other tree is
/// structurally shared with the input forest (`Arc`), so the cost of a
/// rule application is proportional to the touched tree, not the state.
pub fn apply_action(forest: &Forest, w: &Workload, action: Action) -> Option<Forest> {
    let mut trees = forest.trees.clone();
    match action.rule {
        Rule::Merge => {
            if action.other_tree >= trees.len() || action.tree >= trees.len() {
                return None;
            }
            let b = trees.remove(action.other_tree.max(action.tree));
            let a = trees.remove(action.other_tree.min(action.tree));
            // Merging two ANY roots concatenates their children.
            let merged = match (&a.kind, &b.kind) {
                (NodeKind::Any, NodeKind::Any) => {
                    let mut children = a.children.clone();
                    children.extend(b.children.clone());
                    DNode::any(children)
                }
                (NodeKind::Any, _) => {
                    let mut children = a.children.clone();
                    children.push(b.to_dnode());
                    DNode::any(children)
                }
                (_, NodeKind::Any) => {
                    let mut children = vec![a.to_dnode()];
                    children.extend(b.children.clone());
                    DNode::any(children)
                }
                _ => DNode::any(vec![a.to_dnode(), b.to_dnode()]),
            };
            trees.insert(0, Arc::new(Tree::new(merged)));
        }
        Rule::Split => {
            let tree = trees.get(action.tree)?;
            if tree.kind != NodeKind::Any {
                return None;
            }
            let children = tree.children.clone();
            trees.remove(action.tree);
            for (k, c) in children.into_iter().enumerate() {
                if c.is_empty_node() {
                    return None;
                }
                trees.insert(action.tree + k, Arc::new(Tree::new(c)));
            }
        }
        _ => {
            let tree = trees.get(action.tree)?;
            // Copy only the tree this rule rewrites.
            let mut root = tree.to_dnode();
            let target = root.find_mut(action.node)?;
            let replacement = match action.rule {
                Rule::Noop => rule_noop(target)?,
                Rule::MergeAny => rule_merge_any(target)?,
                Rule::PushAny => rule_push_any(target)?,
                Rule::Partition => rule_partition(target, w)?,
                Rule::AnyToVal => rule_any_to_val(target)?,
                Rule::AnyToMulti => rule_any_to_multi(target)?,
                Rule::AnyToSubset => rule_any_to_subset(target)?,
                Rule::PushOpt1 => rule_push_opt1(target)?,
                Rule::PushOpt2 => rule_push_opt2(target)?,
                _ => unreachable!(),
            };
            *target = replacement;
            trees[action.tree] = Arc::new(Tree::new(root));
        }
    }
    let next = Forest::from_trees(trees);
    // Enforce §6.1: the new state must still express every input query.
    next.bound_trees(w)?;
    // Reject the identity transformation (MCTS would loop on it).
    if &next == forest {
        return None;
    }
    Some(next)
}

/// [`Transitions::canonicalize`] with every transition computed afresh.
pub fn canonicalize(forest: &Forest, w: &Workload, max_steps: usize) -> Forest {
    let state = Direct(w).canonicalize(&Arc::new(forest.clone()), max_steps);
    Arc::unwrap_or_clone(state)
}

/// Merge precondition (Figure 13): the two trees' result schemas must be
/// union compatible. We check the analyses of the input queries each tree
/// expresses, without building the combined result schema.
fn merge_compatible_infos(
    infos_i: &[&pi2_engine::QueryInfo],
    infos_j: &[&pi2_engine::QueryInfo],
) -> bool {
    !infos_i.is_empty()
        && !infos_j.is_empty()
        && crate::schema::union_compatible(&[infos_i, infos_j].concat())
}

/// Split precondition: the tree is rooted at an ANY with ≥ 2 non-empty
/// children.
fn splittable(tree: &DNode) -> bool {
    tree.kind == NodeKind::Any
        && tree.children.len() >= 2
        && tree.children.iter().all(|c| !c.is_empty_node())
}

// ---------------------------------------------------------------------------
// Rule implementations (each takes the target node, returns its replacement)
// ---------------------------------------------------------------------------

/// Children of an ANY excluding PushOPT1 group markers.
fn non_marker_children(n: &DNode) -> Vec<&DNode> {
    n.children
        .iter()
        .filter(|c| !(matches!(c.kind, NodeKind::CoOpt { .. }) && c.children.is_empty()))
        .collect()
}

fn same_syntax_kind(children: &[&DNode]) -> bool {
    let Some(first) = children.first() else {
        return false;
    };
    let NodeKind::Syntax(k0) = &first.kind else {
        return false;
    };
    children
        .iter()
        .all(|c| matches!(&c.kind, NodeKind::Syntax(k) if k == k0))
}

fn list_kind(node: &DNode) -> Option<&SyntaxKind> {
    match &node.kind {
        NodeKind::Syntax(k) if k.is_list() => Some(k),
        _ => None,
    }
}

fn rule_noop(target: &DNode) -> Option<DNode> {
    let non_empty: Vec<&DNode> = non_marker_children(target)
        .into_iter()
        .filter(|c| !c.is_empty_node())
        .collect();
    let distinct: std::collections::HashSet<&DNode> = non_empty.iter().copied().collect();
    if distinct.len() == 1 && non_empty.len() == non_marker_children(target).len() {
        Some(non_empty[0].clone())
    } else {
        None
    }
}

fn rule_merge_any(target: &DNode) -> Option<DNode> {
    if target.kind != NodeKind::Any {
        return None;
    }
    let mut children: Vec<DNode> = Vec::new();
    let mut changed = false;
    for c in &target.children {
        if c.kind == NodeKind::Any {
            children.extend(c.children.clone());
            changed = true;
        } else {
            children.push(c.clone());
        }
    }
    if !changed {
        return None;
    }
    // Deduplicate alternatives; keep at most one Empty.
    let mut dedup: Vec<DNode> = Vec::new();
    for c in children {
        if !dedup.contains(&c) {
            dedup.push(c);
        }
    }
    Some(DNode::any(dedup))
}

/// PushANY: all alternatives share a root; push the ANY into the children.
/// For fixed-arity nodes children are merged positionally; for list nodes
/// they are aligned by structural signature, introducing `OPT` for elements
/// present in only some alternatives.
fn rule_push_any(target: &DNode) -> Option<DNode> {
    let alts = non_marker_children(target);
    if alts.iter().any(|c| c.is_empty_node()) {
        return None;
    }
    if !same_syntax_kind(&alts) || alts.len() < 2 {
        return None;
    }
    let NodeKind::Syntax(kind) = &alts[0].kind else {
        return None;
    };
    if kind.is_list() {
        push_any_list(kind.clone(), &alts)
    } else {
        push_any_positional(kind.clone(), &alts)
    }
}

/// Positional alignment for fixed-arity nodes; trailing optional children
/// (e.g. aliases) become OPTs.
fn push_any_positional(kind: SyntaxKind, alts: &[&DNode]) -> Option<DNode> {
    let max_arity = alts.iter().map(|c| c.children.len()).max()?;
    let mut children = Vec::with_capacity(max_arity);
    for j in 0..max_arity {
        let mut variants: Vec<DNode> = Vec::new();
        let mut missing = false;
        for alt in alts {
            match alt.children.get(j) {
                Some(c) => {
                    if !variants.contains(c) {
                        variants.push(c.clone());
                    }
                }
                None => missing = true,
            }
        }
        children.push(merge_variants(variants, missing));
    }
    Some(DNode::syntax(kind, children))
}

/// Merge a set of variant subtrees for one aligned slot. When the variants
/// share a root kind the ANY is pushed recursively (one `PushANY`
/// application reaches the fixpoint for a subtree — Figure 12 shows the rule
/// applied iteratively; collapsing the chain is an optimisation that keeps
/// every fully-pushed state reachable in a single search step).
fn merge_variants(mut variants: Vec<DNode>, missing: bool) -> DNode {
    let merged = if variants.len() == 1 {
        variants.pop().unwrap()
    } else {
        let refs: Vec<&DNode> = variants.iter().collect();
        if same_syntax_kind(&refs) {
            let NodeKind::Syntax(kind) = &variants[0].kind else {
                unreachable!()
            };
            let pushed = if kind.is_list() {
                push_any_list(kind.clone(), &refs)
            } else {
                push_any_positional(kind.clone(), &refs)
            };
            pushed.unwrap_or_else(|| DNode::any(variants))
        } else {
            DNode::any(variants)
        }
    };
    if missing {
        DNode::any(vec![merged, DNode::empty()])
    } else {
        merged
    }
}

/// Structural signature used to align list elements across alternatives.
/// Predicates align by (shape, column); other nodes by root label.
fn slot_signature(node: &DNode) -> String {
    fn head_column(n: &DNode) -> String {
        match &n.kind {
            NodeKind::Syntax(SyntaxKind::ColumnRef { column, .. }) => column.clone(),
            _ => n.children.first().map(head_column).unwrap_or_default(),
        }
    }
    match &node.kind {
        NodeKind::Syntax(SyntaxKind::Compare(_)) => format!("cmp:{}", head_column(node)),
        NodeKind::Syntax(SyntaxKind::Between { .. }) => {
            format!("between:{}", head_column(node))
        }
        NodeKind::Syntax(SyntaxKind::InList { .. }) => format!("in:{}", head_column(node)),
        NodeKind::Syntax(SyntaxKind::SelectItem) => {
            // Align select items by position-independent expression head.
            format!(
                "item:{}",
                node.children
                    .first()
                    .map(slot_signature)
                    .unwrap_or_default()
            )
        }
        NodeKind::Syntax(SyntaxKind::ColumnRef { column, .. }) => format!("col:{column}"),
        NodeKind::Syntax(SyntaxKind::FuncCall(f)) => format!("func:{f}"),
        NodeKind::Syntax(SyntaxKind::Lit(_)) => "lit".into(),
        NodeKind::Syntax(k) => format!("k:{}", k.label()),
        // Choice nodes align by their first concrete alternative so that
        // partially-merged trees keep merging cleanly.
        NodeKind::Any | NodeKind::CoOpt { .. } => node
            .children
            .iter()
            .find(|c| {
                !c.is_empty_node() && !c.children.is_empty()
                    || matches!(c.kind, NodeKind::Syntax(_)) && !c.is_empty_node()
            })
            .map(slot_signature)
            .unwrap_or_else(|| "choice".into()),
        NodeKind::Val => "lit".into(),
        NodeKind::Multi | NodeKind::Subset => node
            .children
            .first()
            .map(slot_signature)
            .unwrap_or_else(|| "items".into()),
    }
}

/// Alignment for list nodes. Same-length lists outside WHERE align
/// positionally (select lists choose the i-th item: `SELECT date,
/// cases|deaths`); everything else aligns by structural signature, with
/// OPTs for slots missing from some alternatives (WHERE conjuncts come and
/// go per query).
fn push_any_list(kind: SyntaxKind, alts: &[&DNode]) -> Option<DNode> {
    let same_len = alts
        .windows(2)
        .all(|w| w[0].children.len() == w[1].children.len());
    let is_where = matches!(kind, SyntaxKind::Where | SyntaxKind::And);
    if same_len && !is_where {
        return push_any_positional(kind, alts);
    }
    push_any_list_by_signature(kind, alts)
}

/// Signature-based alignment for list nodes (WHERE conjunct lists, ragged
/// select lists, …). Produces one slot per (signature, occurrence), ordered
/// by first appearance; slots missing from some alternatives become OPT.
fn push_any_list_by_signature(kind: SyntaxKind, alts: &[&DNode]) -> Option<DNode> {
    // slot key = (signature, occurrence index within its list)
    let mut slot_order: Vec<(String, usize)> = Vec::new();
    let mut slot_contents: HashMap<(String, usize), Vec<DNode>> = HashMap::new();
    let mut slot_presence: HashMap<(String, usize), usize> = HashMap::new();
    // Precedence edges: slot a must come before slot b when a precedes b in
    // some alternative (sequence matching requires the merged slot order to
    // be a supersequence of every alternative's order).
    let mut edges: Vec<(SlotKey, SlotKey)> = Vec::new();
    for alt in alts {
        let mut occurrence: HashMap<String, usize> = HashMap::new();
        let mut prev_keys: Vec<SlotKey> = Vec::new();
        for item in &alt.children {
            let sig = slot_signature(item);
            let occ = occurrence.entry(sig.clone()).or_insert(0);
            let key = (sig, *occ);
            *occ += 1;
            if !slot_order.contains(&key) {
                slot_order.push(key.clone());
            }
            let entry = slot_contents.entry(key.clone()).or_default();
            if !entry.contains(item) {
                entry.push((*item).clone());
            }
            *slot_presence.entry(key.clone()).or_insert(0) += 1;
            for p in &prev_keys {
                let e = (p.clone(), key.clone());
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
            prev_keys.push(key);
        }
    }
    // Topological sort (Kahn), breaking ties by first appearance; fall back
    // to first-appearance order when the precedence graph has a cycle.
    let slot_order = topo_sort(&slot_order, &edges).unwrap_or(slot_order);
    let mut children = Vec::with_capacity(slot_order.len());
    for key in &slot_order {
        let variants = slot_contents.remove(key)?;
        let missing = slot_presence[key] < alts.len();
        children.push(merge_variants(variants, missing));
    }
    Some(DNode::syntax(kind, children))
}

/// A slot key: (structural signature, occurrence index).
type SlotKey = (String, usize);

/// Kahn's algorithm over slot keys; `None` when cyclic.
fn topo_sort(nodes: &[SlotKey], edges: &[(SlotKey, SlotKey)]) -> Option<Vec<SlotKey>> {
    let mut in_degree: HashMap<&SlotKey, usize> = nodes.iter().map(|n| (n, 0)).collect();
    for (_, b) in edges {
        if let Some(d) = in_degree.get_mut(b) {
            *d += 1;
        }
    }
    let mut out = Vec::with_capacity(nodes.len());
    let mut ready: Vec<&SlotKey> = nodes
        .iter()
        .filter(|n| in_degree.get(n) == Some(&0))
        .collect();
    while let Some(n) = ready.first().copied() {
        ready.remove(0);
        out.push(n.clone());
        for (a, b) in edges {
            if a == n {
                if let Some(d) = in_degree.get_mut(b) {
                    *d -= 1;
                    if *d == 0 {
                        // Insert preserving first-appearance tie order.
                        let pos = nodes.iter().position(|x| x == b).unwrap_or(0);
                        let insert_at = ready
                            .iter()
                            .position(|r| nodes.iter().position(|x| x == *r).unwrap_or(0) > pos)
                            .unwrap_or(ready.len());
                        ready.insert(insert_at, b);
                    }
                }
            }
        }
    }
    if out.len() == nodes.len() {
        Some(out)
    } else {
        None
    }
}

/// Partition: cluster an ANY's children; each non-singular cluster becomes a
/// nested ANY.
fn rule_partition(target: &DNode, w: &Workload) -> Option<DNode> {
    let alts: Vec<&DNode> = non_marker_children(target);
    if alts.len() < 3 {
        return None;
    }
    let clusters = cluster_children(&alts, w);
    let n_clusters = clusters.iter().max()? + 1;
    if n_clusters < 2 {
        return None;
    }
    let mut grouped: Vec<Vec<DNode>> = vec![Vec::new(); n_clusters];
    for (c, node) in clusters.iter().zip(alts.iter()) {
        grouped[*c].push((*node).clone());
    }
    let mut children = Vec::with_capacity(n_clusters);
    for group in grouped {
        if group.len() == 1 {
            children.push(group.into_iter().next().unwrap());
        } else {
            children.push(DNode::any(group));
        }
    }
    Some(DNode::any(children))
}

/// Cluster ANY children. Query-rooted children cluster by result-schema
/// signature (the paper partitions input queries by result schema); other
/// children cluster by root label.
fn cluster_children(children: &[&DNode], w: &Workload) -> Vec<usize> {
    let mut keys: Vec<String> = Vec::with_capacity(children.len());
    for c in children {
        let key = if matches!(c.kind, NodeKind::Syntax(SyntaxKind::Query)) {
            query_schema_signature(c, w).unwrap_or_else(|| format!("query:{}", c.children.len()))
        } else {
            match &c.kind {
                NodeKind::Syntax(k) => format!("k:{}", k.label()),
                other => format!("c:{other:?}"),
            }
        };
        keys.push(key);
    }
    let mut order: Vec<String> = Vec::new();
    keys.iter()
        .map(|k| {
            if let Some(i) = order.iter().position(|o| o == k) {
                i
            } else {
                order.push(k.clone());
                order.len() - 1
            }
        })
        .collect()
}

/// Signature of a choice-free query subtree: output arity + column names +
/// types. Name-sensitive so that Partition separates e.g. the Filter log's
/// three group-by attributes while still grouping literal-only variants.
/// Memoized per subtree fingerprint in the workload's memos — the same
/// query subtrees are re-clustered by every Partition candidate along a
/// search path.
fn query_schema_signature(node: &DNode, w: &Workload) -> Option<String> {
    if node.is_dynamic() {
        return None;
    }
    let signature = || {
        let q = crate::gst::raise_query(node).ok()?;
        let info = analyze_query(&q, &w.catalog).ok()?;
        let types: Vec<(String, DataType)> = info
            .cols
            .iter()
            .map(|c| (c.name.to_ascii_lowercase(), c.ty.dtype()))
            .collect();
        Some(format!("{}:{types:?}", info.cols.len()))
    };
    let key = structural_fingerprint(node);
    w.memos.sigs.get_or_insert_with(&key, signature)
}

/// ANY→VAL: relax a literal choice to its full (attribute-typed) domain.
fn rule_any_to_val(target: &DNode) -> Option<DNode> {
    let alts = non_marker_children(target);
    if alts.is_empty()
        || !alts
            .iter()
            .all(|c| matches!(c.kind, NodeKind::Syntax(SyntaxKind::Lit(_))))
    {
        return None;
    }
    Some(DNode::val(alts.into_iter().cloned().collect()))
}

/// ANY→MULTI (two shapes):
/// * an ANY over same-kind lists becomes that list repeating an ANY over
///   the distinct items (Figure 13's diagram);
/// * a list node whose item slots are literal choices (the post-`PushANY`
///   shape, e.g. `IN (ANY(1,20), ANY(2,22))`) becomes the list over
///   `MULTI(ANY(all literals))` — the shape multi-click selection binds.
fn rule_any_to_multi(target: &DNode) -> Option<DNode> {
    if target.kind == NodeKind::Any {
        let alts = non_marker_children(target);
        let kind = list_kind(alts.first()?)?.clone();
        if !same_syntax_kind(&alts) {
            return None;
        }
        let (head, slot_lists) = split_list_heads(&kind, &alts);
        let mut items: Vec<DNode> = Vec::new();
        for slots in &slot_lists {
            for item in slots.iter() {
                if !items.contains(item) {
                    items.push((*item).clone());
                }
            }
        }
        if items.is_empty() {
            return None;
        }
        let template = if items.len() == 1 {
            items.pop().unwrap()
        } else {
            DNode::any(items)
        };
        let mut children = head;
        children.push(DNode::multi(template));
        return Some(DNode::syntax(kind, children));
    }
    // List-with-slots shape.
    let kind = list_kind(target)?.clone();
    let (head, slots) = list_slots(&kind, target)?;
    let items = slot_alternatives(&slots)?;
    if items.is_empty() {
        return None;
    }
    let template = if items.len() == 1 {
        items.into_iter().next().unwrap()
    } else {
        DNode::any(items)
    };
    let mut children = head;
    children.push(DNode::multi(template));
    Some(DNode::syntax(kind, children))
}

/// ANY→SUBSET, with the same two shapes as [`rule_any_to_multi`].
fn rule_any_to_subset(target: &DNode) -> Option<DNode> {
    if target.kind == NodeKind::Any {
        let alts = non_marker_children(target);
        let kind = list_kind(alts.first()?)?.clone();
        if !same_syntax_kind(&alts) {
            return None;
        }
        let (head, slot_lists) = split_list_heads(&kind, &alts);
        let mut items: Vec<DNode> = Vec::new();
        for slots in &slot_lists {
            for item in slots.iter() {
                if !items.contains(item) {
                    items.push((*item).clone());
                }
            }
        }
        // Each alternative must be an ordered subsequence of `items`.
        for slots in &slot_lists {
            let mut pos = 0usize;
            for item in slots.iter() {
                match items[pos..].iter().position(|i| i == *item) {
                    Some(off) => pos += off + 1,
                    None => return None,
                }
            }
        }
        let mut children = head;
        children.push(DNode::subset(items));
        return Some(DNode::syntax(kind, children));
    }
    let kind = list_kind(target)?.clone();
    let (head, slots) = list_slots(&kind, target)?;
    let items = slot_alternatives(&slots)?;
    if items.len() < 2 {
        return None;
    }
    let mut children = head;
    children.push(DNode::subset(items));
    Some(DNode::syntax(kind, children))
}

/// Fixed head children of a list kind (`IN`'s tested expression), shared by
/// every alternative.
fn split_list_heads<'a>(
    kind: &SyntaxKind,
    alts: &[&'a DNode],
) -> (Vec<DNode>, Vec<Vec<&'a DNode>>) {
    let head_len = list_head_len(kind);
    let head: Vec<DNode> = alts
        .first()
        .map(|a| a.children.iter().take(head_len).cloned().collect())
        .unwrap_or_default();
    // Alternatives with differing heads cannot share the generalisation;
    // signal by returning empty slots (callers then produce no items and
    // bail, or the rebind validation rejects the result).
    let consistent = alts
        .iter()
        .all(|a| a.children.len() >= head_len && a.children.iter().take(head_len).eq(head.iter()));
    if !consistent {
        return (head, vec![]);
    }
    let slots = alts
        .iter()
        .map(|a| a.children.iter().skip(head_len).collect())
        .collect();
    (head, slots)
}

fn list_head_len(kind: &SyntaxKind) -> usize {
    match kind {
        SyntaxKind::InList { .. } => 1,
        _ => 0,
    }
}

/// The item slots of a list node, when all alternatives share the head.
fn list_slots<'a>(kind: &SyntaxKind, node: &'a DNode) -> Option<(Vec<DNode>, Vec<&'a DNode>)> {
    let head_len = list_head_len(kind);
    if node.children.len() < head_len + 2 {
        return None; // need at least two item slots to generalise
    }
    let head = node.children.iter().take(head_len).cloned().collect();
    let slots = node.children.iter().skip(head_len).collect();
    Some((head, slots))
}

/// The union of literal alternatives over enumerable slots (each slot a
/// literal or an ANY over literals); `None` when some slot is not
/// enumerable.
fn slot_alternatives(slots: &[&DNode]) -> Option<Vec<DNode>> {
    let mut items: Vec<DNode> = Vec::new();
    for slot in slots {
        match &slot.kind {
            NodeKind::Syntax(SyntaxKind::Lit(_)) => {
                if !items.contains(slot) {
                    items.push((*slot).clone());
                }
            }
            NodeKind::Any => {
                for c in non_marker_children(slot) {
                    if c.is_empty_node() {
                        continue;
                    }
                    if !matches!(c.kind, NodeKind::Syntax(SyntaxKind::Lit(_))) {
                        return None;
                    }
                    if !items.contains(c) {
                        items.push(c.clone());
                    }
                }
            }
            _ => return None,
        }
    }
    Some(items)
}

/// Fresh group id for a PushOPT1 pair, derived from the target node id (ids
/// are globally unique within a forest at application time).
fn fresh_group(target: &DNode) -> u32 {
    target.id.wrapping_mul(2).wrapping_add(1)
}

/// PushOPT1: `OPT(x)` where `x` contains choice nodes → `CO-OPT(x')` where
/// the first choice node inside `x` becomes `OPT(choice)` linked by a group
/// id. The subtree then exists exactly when the pushed-down OPT is present.
fn rule_push_opt1(target: &DNode) -> Option<DNode> {
    if !target.is_opt() {
        return None;
    }
    let inner = target.children.iter().find(|c| !c.is_empty_node())?;
    if !inner.is_dynamic() || inner.is_choice() {
        return None;
    }
    let group = fresh_group(target);
    // Wrap the first (DFS) choice node inside `inner` with a linked OPT.
    let mut new_inner = inner.clone();
    if !wrap_first_choice(&mut new_inner, group) {
        return None;
    }
    Some(DNode {
        id: 0,
        kind: NodeKind::CoOpt { group },
        children: vec![new_inner],
    })
}

fn wrap_first_choice(node: &mut DNode, group: u32) -> bool {
    for c in &mut node.children {
        if c.is_choice() {
            let choice = c.clone();
            let marker = DNode {
                id: 0,
                kind: NodeKind::CoOpt { group },
                children: vec![],
            };
            *c = DNode::any(vec![choice, DNode::empty(), marker]);
            return true;
        }
        if wrap_first_choice(c, group) {
            return true;
        }
    }
    false
}

/// PushOPT2: `OPT(List(x, y, z))` → `List(OPT(x), OPT(y), OPT(z))`,
/// increasing expressiveness (any subset instead of all-or-nothing).
fn rule_push_opt2(target: &DNode) -> Option<DNode> {
    if !target.is_opt() {
        return None;
    }
    let inner = target.children.iter().find(|c| !c.is_empty_node())?;
    let kind = list_kind(inner)?.clone();
    if inner.children.len() < 2 {
        return None;
    }
    let children = inner
        .children
        .iter()
        .map(|c| DNode::any(vec![c.clone(), DNode::empty()]))
        .collect();
    Some(DNode::syntax(kind, children))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind_query;
    use crate::forest::expresses;
    use pi2_data::{Catalog, Table, Value};
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
        let c = Table::from_rows(
            vec![("avgc", DataType::Float)],
            vec![vec![Value::Float(1.0)]],
        )
        .unwrap();
        catalog.add_table("C", c, vec![]);
        Workload::new(
            sqls.iter().map(|s| parse_query(s).unwrap()).collect(),
            catalog,
        )
    }

    fn act(forest: &Forest, w: &Workload, rule: Rule) -> Option<(Action, Forest)> {
        applicable_actions(forest, w)
            .into_iter()
            .find(|a| a.rule == rule)
            .map(|a| (a, apply_action(forest, w, a).unwrap()))
    }

    /// All applicable actions preserve expressiveness by construction.
    #[test]
    fn all_actions_preserve_expressiveness() {
        let w = workload(&[
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE b = 2 GROUP BY p",
            "SELECT a, count(*) FROM T GROUP BY a",
        ]);
        let f = Forest::from_workload(&w);
        for a in applicable_actions(&f, &w) {
            let next = apply_action(&f, &w, a).unwrap();
            for q in &w.queries {
                assert!(expresses(&next, q), "{} broke expressiveness", a.rule);
            }
        }
    }

    #[test]
    fn merge_combines_two_trees() {
        let w = workload(&[
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE b = 2 GROUP BY p",
        ]);
        let f = Forest::from_workload(&w);
        let (_, next) = act(&f, &w, Rule::Merge).expect("merge applicable");
        assert_eq!(next.trees.len(), 1);
        assert_eq!(next.trees[0].kind, NodeKind::Any);
    }

    #[test]
    fn merge_requires_union_compatibility() {
        // Arity 1 vs arity 2 outputs are not union compatible.
        let w = workload(&["SELECT p FROM T", "SELECT p, a FROM T"]);
        let f = Forest::from_workload(&w);
        assert!(
            !applicable_actions(&f, &w)
                .iter()
                .any(|a| a.rule == Rule::Merge),
            "incompatible schemas must not merge"
        );
    }

    #[test]
    fn split_undoes_merge() {
        let w = workload(&[
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE b = 2 GROUP BY p",
        ]);
        let f = Forest::from_workload(&w);
        let (_, merged) = act(&f, &w, Rule::Merge).unwrap();
        let (_, split) = act(&merged, &w, Rule::Split).expect("split applicable");
        assert_eq!(split.trees.len(), 2);
        assert_eq!(split, f);
    }

    /// Figure 3(a) → 3(b): PushANY pushes the ANY below the shared `=` root.
    #[test]
    fn push_any_on_predicates() {
        let w = workload(&[
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE b = 2 GROUP BY p",
        ]);
        let f = Forest::from_workload(&w);
        let (_, merged) = act(&f, &w, Rule::Merge).unwrap();
        // Merge → ANY(Q1, Q2); PushANY on the root gives a single Query with
        // nested ANYs at the differing positions.
        let (_, pushed) = act(&merged, &w, Rule::PushAny).expect("PushANY applicable");
        assert_eq!(pushed.trees.len(), 1);
        assert!(matches!(
            pushed.trees[0].kind,
            NodeKind::Syntax(SyntaxKind::Query)
        ));
        // Still expresses both queries.
        for q in &w.queries {
            assert!(expresses(&pushed, q));
        }
        // The WHERE now contains one conjunct... for (cmp:a vs cmp:b) the
        // signatures differ, so each predicate became optional.
        let where_ = &pushed.trees[0].children[3];
        assert!(
            where_.children.iter().any(|c| c.is_opt() || c.is_choice()),
            "expected choice structure in WHERE: {}",
            pushed.trees[0].render()
        );
    }

    /// Repeated PushANY on same-column predicates isolates the literal.
    #[test]
    fn push_any_isolates_literals() {
        let w = workload(&[
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
        ]);
        let f = Forest::from_workload(&w);
        let (_, merged) = act(&f, &w, Rule::Merge).unwrap();
        let (_, pushed) = act(&merged, &w, Rule::PushAny).unwrap();
        // Where slot `cmp:a` present in both → single Compare with ANY on
        // the literal side.
        let where_ = &pushed.trees[0].children[3];
        assert_eq!(where_.children.len(), 1);
        let pred = &where_.children[0];
        assert!(matches!(
            pred.kind,
            NodeKind::Syntax(SyntaxKind::Compare(_))
        ));
        let lit_any = &pred.children[1];
        assert_eq!(lit_any.kind, NodeKind::Any);
        assert_eq!(lit_any.children.len(), 2);
    }

    /// Figure 3(b) → 3(c): ANY of numeric literals lifts to VAL.
    #[test]
    fn any_to_val_on_numeric_literals() {
        let w = workload(&[
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
        ]);
        let f = Forest::from_workload(&w);
        let (_, merged) = act(&f, &w, Rule::Merge).unwrap();
        let (_, pushed) = act(&merged, &w, Rule::PushAny).unwrap();
        let (_, valed) = act(&pushed, &w, Rule::AnyToVal).expect("ANY→VAL applicable");
        assert_eq!(valed.choice_count(), 1);
        let val = valed.trees[0].choice_nodes()[0];
        assert_eq!(val.kind, NodeKind::Val);
        // VAL generalises: now expresses literals beyond the inputs.
        assert!(expresses(
            &valed,
            &parse_query("SELECT p, count(*) FROM T WHERE a = 77 GROUP BY p").unwrap()
        ));
    }

    #[test]
    fn noop_removes_single_child_any() {
        let w = workload(&["SELECT p FROM T"]);
        let f = Forest::new(vec![DNode::any(vec![w.gsts[0].clone()])]);
        let (_, simplified) = act(&f, &w, Rule::Noop).expect("noop applicable");
        assert_eq!(
            simplified.trees[0].kind,
            NodeKind::Syntax(SyntaxKind::Query)
        );
    }

    #[test]
    fn merge_any_flattens_cascades() {
        let w = workload(&[
            "SELECT p FROM T WHERE a = 1",
            "SELECT p FROM T WHERE a = 2",
            "SELECT p FROM T WHERE b = 1",
        ]);
        let nested = Forest::new(vec![DNode::any(vec![
            DNode::any(vec![w.gsts[0].clone(), w.gsts[1].clone()]),
            w.gsts[2].clone(),
        ])]);
        let (_, flat) = act(&nested, &w, Rule::MergeAny).expect("MergeANY applicable");
        assert_eq!(flat.trees[0].kind, NodeKind::Any);
        assert_eq!(flat.trees[0].children.len(), 3);
    }

    #[test]
    fn partition_groups_by_result_schema() {
        let w = workload(&[
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
            "SELECT p FROM T",
        ]);
        // Merge q1 and q2 trees first (q3 has incompatible schema), then
        // force a 3-way ANY to exercise Partition.
        let all = Forest::new(vec![DNode::any(w.gsts.clone())]);
        let (_, part) = act(&all, &w, Rule::Partition).expect("partition applicable");
        let root = &part.trees[0];
        assert_eq!(root.kind, NodeKind::Any);
        assert_eq!(root.children.len(), 2, "{}", root.render());
        // One child is the 2-query cluster.
        assert!(root
            .children
            .iter()
            .any(|c| c.kind == NodeKind::Any && c.children.len() == 2));
    }

    /// The per-tree memos belong to their workload: a second workload over
    /// the same catalogue and queries starts with them empty and computes
    /// equal values, while a clone shares the first one's entries.
    #[test]
    fn tree_memos_are_scoped_to_their_workload() {
        let sqls = [
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
            "SELECT p FROM T",
        ];
        let sizes = |w: &Workload| (w.memos.binds.len(), w.memos.types.len(), w.memos.sigs.len());
        let run = |w: &Workload| {
            let all = Forest::new(vec![DNode::any(w.gsts.clone())]);
            let types = infer_types_cached(&all.trees[0], w);
            let bound = all
                .bind_all(w)
                .expect("the merged tree expresses every query");
            let sigs: Vec<_> = w
                .gsts
                .iter()
                .map(|g| query_schema_signature(g, w))
                .collect();
            (all, types, bound, sigs)
        };
        let a = workload(&sqls);
        let (all, types, bound, sigs) = run(&a);
        let filled = sizes(&a);
        assert!(filled.0 > 0 && filled.1 > 0 && filled.2 > 0, "{filled:?}");
        assert!(sigs.iter().all(Option::is_some), "{sigs:?}");

        let b = workload(&sqls);
        assert_eq!(sizes(&b), (0, 0, 0), "a new workload starts cold");
        let (_, b_types, b_bound, b_sigs) = run(&b);
        assert_eq!(*b_types, *types);
        assert_eq!(b_bound, bound);
        assert_eq!(b_sigs, sigs);
        assert_eq!(sizes(&b), filled);
        assert_eq!(sizes(&a), filled, "B's run leaves A's memos alone");

        let c = a.clone();
        assert_eq!(sizes(&c), filled, "a clone sees A's entries");
        assert!(Arc::ptr_eq(&infer_types_cached(&all.trees[0], &c), &types));
        assert!(!Arc::ptr_eq(&b_types, &types));
    }

    #[test]
    fn push_opt2_distributes_over_lists() {
        // In our canonical GST the list-alignment inside PushANY already
        // distributes OPTs over WHERE conjunct slots, so `PushOPT2`'s
        // natural application sites are nested list nodes; exercise the rule
        // mechanics directly: OPT(Or(x, y)) → Or(OPT(x), OPT(y)).
        let w = workload(&["SELECT p FROM T WHERE a = 1 OR b = 2"]);
        let or = w.gsts[0].children[3].children[0].clone();
        assert_eq!(or.kind, NodeKind::Syntax(SyntaxKind::Or));
        let mut opt = DNode::any(vec![or, DNode::empty()]);
        opt.renumber(0);
        let distributed = rule_push_opt2(&opt).expect("PushOPT2 fires on OPT(list)");
        assert_eq!(distributed.kind, NodeKind::Syntax(SyntaxKind::Or));
        assert_eq!(distributed.children.len(), 2);
        assert!(distributed.children.iter().all(|c| c.is_opt()));
        // Non-OPT targets are rejected.
        let plain = DNode::any(vec![w.gsts[0].clone()]);
        assert!(rule_push_opt2(&plain).is_none());
    }

    #[test]
    fn push_any_list_alignment_subsumes_opt_distribution() {
        // The end-to-end behaviour PushOPT2 aims for: predicates become
        // independently optional after Merge + PushANY.
        let w = workload(&["SELECT p FROM T WHERE a = 1 AND b = 2", "SELECT p FROM T"]);
        let f = Forest::from_workload(&w);
        let (_, merged) = act(&f, &w, Rule::Merge).unwrap();
        let (_, pushed) = act(&merged, &w, Rule::PushAny).unwrap();
        assert!(expresses(
            &pushed,
            &parse_query("SELECT p FROM T WHERE a = 1").unwrap()
        ));
        assert!(expresses(
            &pushed,
            &parse_query("SELECT p FROM T WHERE b = 2").unwrap()
        ));
    }

    #[test]
    fn push_opt1_links_co_opt() {
        // OPT over a predicate with an inner ANY: OPT(a = ANY(1, 2)).
        let w = workload(&[
            "SELECT p FROM T WHERE a = 1",
            "SELECT p FROM T WHERE a = 2",
            "SELECT p FROM T",
        ]);
        let mut tree = w.gsts[2].clone();
        let pred_gst = w.gsts[0].children[3].children[0].clone();
        let mut pred = pred_gst;
        let lit1 = pred.children[1].clone();
        let lit2 = w.gsts[1].children[3].children[0].children[1].clone();
        pred.children[1] = DNode::any(vec![lit1, lit2]);
        tree.children[3].children = vec![DNode::any(vec![pred, DNode::empty()])];
        let f = Forest::new(vec![tree]);
        assert!(f.bind_all(&w).is_some());
        let (_, pushed) = act(&f, &w, Rule::PushOpt1).expect("PushOPT1 applicable");
        // The transformed tree still expresses all three queries.
        for q in &w.queries {
            assert!(expresses(&pushed, q));
        }
        // And contains a CO-OPT wrapper.
        let mut nodes = Vec::new();
        pushed.trees[0].walk(&mut nodes);
        assert!(nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::CoOpt { .. }) && !n.children.is_empty()));
    }

    #[test]
    fn any_to_subset_on_conjunct_lists() {
        // Two WHERE lists: [a=1, b=2] and [a=1] — orderable as subsets.
        let w = workload(&[
            "SELECT p FROM T WHERE a = 1 AND b = 2",
            "SELECT p FROM T WHERE a = 1",
        ]);
        let f = Forest::from_workload(&w);
        let where1 = DNode::syntax(SyntaxKind::Where, w.gsts[0].children[3].children.clone());
        let where2 = DNode::syntax(SyntaxKind::Where, w.gsts[1].children[3].children.clone());
        let any = DNode::any(vec![where1, where2]);
        let mut tree = w.gsts[0].clone();
        tree.children[3] = any;
        // Hoisting ANY over the whole Where clause: rebuild as Query whose
        // children[3] is ANY(Where, Where) — our matcher aligns clause
        // wrappers positionally, so this works.
        let f2 = Forest::new(vec![tree]);
        assert!(f2.bind_all(&w).is_some());
        let (_, sub) = act(&f2, &w, Rule::AnyToSubset).expect("ANY→SUBSET applicable");
        // Subset generalises to dropping all predicates.
        assert!(expresses(&sub, &parse_query("SELECT p FROM T").unwrap()));
        assert!(expresses(
            &sub,
            &parse_query("SELECT p FROM T WHERE b = 2").unwrap()
        ));
        let _ = f;
    }

    #[test]
    fn any_to_multi_on_group_by_lists() {
        let w = workload(&[
            "SELECT count(*) FROM T GROUP BY p",
            "SELECT count(*) FROM T GROUP BY a",
        ]);
        let g1 = DNode::syntax(SyntaxKind::GroupBy, w.gsts[0].children[4].children.clone());
        let g2 = DNode::syntax(SyntaxKind::GroupBy, w.gsts[1].children[4].children.clone());
        let mut tree = w.gsts[0].clone();
        tree.children[4] = DNode::any(vec![g1, g2]);
        let f = Forest::new(vec![tree]);
        assert!(f.bind_all(&w).is_some());
        let (_, multi) = act(&f, &w, Rule::AnyToMulti).expect("ANY→MULTI applicable");
        // MULTI generalises to grouping by both columns.
        assert!(expresses(
            &multi,
            &parse_query("SELECT count(*) FROM T GROUP BY p, a").unwrap()
        ));
    }

    #[test]
    fn invalid_actions_rejected() {
        let w = workload(&["SELECT p FROM T"]);
        let f = Forest::from_workload(&w);
        // Out-of-range node id.
        let bogus = Action {
            rule: Rule::Noop,
            tree: 0,
            node: 9999,
            other_tree: 0,
        };
        assert!(apply_action(&f, &w, bogus).is_none());
        // Split on a non-ANY root.
        let bogus = Action {
            rule: Rule::Split,
            tree: 0,
            node: 0,
            other_tree: 0,
        };
        assert!(apply_action(&f, &w, bogus).is_none());
    }

    #[test]
    fn binding_still_possible_after_every_chain() {
        // Chase a short random-ish chain of actions and verify invariants.
        let w = workload(&[
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
            "SELECT a, count(*) FROM T GROUP BY a",
        ]);
        let mut state = Forest::from_workload(&w);
        for _ in 0..6 {
            let actions = applicable_actions(&state, &w);
            let Some(a) = actions.first() else { break };
            state = apply_action(&state, &w, *a).unwrap();
            assert!(state.bind_all(&w).is_some());
        }
    }

    #[test]
    fn gst_binding_sanity_for_merged_any() {
        let w = workload(&["SELECT p FROM T WHERE a = 1", "SELECT p FROM T WHERE a = 2"]);
        let f = Forest::from_workload(&w);
        let (_, merged) = act(&f, &w, Rule::Merge).unwrap();
        let b = bind_query(&merged.trees[0], &w.gsts[1]).unwrap();
        assert!(!b.is_empty());
    }
}

//! The interface structure `I = (V, M, L)` and the mapping context that
//! precomputes everything candidate generation needs for one search state.

use crate::cache::global_eval_cache;
use crate::cost::{CostParams, CostWalk};
use crate::flat::FlatSchema;
use crate::interaction::{
    interaction_is_safe, vis_interaction_candidates, InteractionKind, VisInteractionCandidate,
};
use crate::layout::{vis_size, widget_size, widget_tree_for, LayoutNode, LayoutTree, Orientation};
use crate::vis::VisMapping;
use crate::widget::{bound_value, BoundValue, WidgetCandidate, WidgetDomain, WidgetKind};
use pi2_data::Table;
use pi2_difftree::{Assignment, BindingMap, DNode, Forest, ResultSchema, TypeMap, Workload};
use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One view's share of [`MappingContext::safe_vis_interactions`] under one
/// visualization mapping: its safe unmerged candidates, then its merged
/// brushes.
type ViewCandidates = (Vec<VisInteractionCandidate>, Vec<VisInteractionCandidate>);

/// One tree's projection ids (see [`MappingContext::projection_ids`]), keyed
/// by cover.
type ProjectionMemo = RefCell<BTreeMap<Vec<u32>, Option<Arc<[usize]>>>>;

/// The safe visualization-interaction candidates under one `V`
/// ([`MappingContext::safe_vis_interactions`]), borrowed from the context's
/// memo where the view's mapping is one of its candidates.
pub struct SafeVisCandidates<'c> {
    views: Vec<Cow<'c, ViewCandidates>>,
}

impl SafeVisCandidates<'_> {
    /// Every view's unmerged candidates in view order, then every view's
    /// merged brushes in view order.
    pub fn iter(&self) -> impl Iterator<Item = &VisInteractionCandidate> {
        let unmerged = self.views.iter().flat_map(|v| &v.0);
        let merged = self.views.iter().flat_map(|v| &v.1);
        unmerged.chain(merged)
    }
}

/// One view: a Difftree rendered by a visualization mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    /// The tree.
    pub tree: usize,
    /// The vis.
    pub vis: VisMapping,
}

/// What an interaction instance is: a widget or a visualization
/// interaction.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // inline variant fields are self-describing
pub enum InteractionChoice {
    /// `Widget`.
    Widget {
        kind: WidgetKind,
        domain: WidgetDomain,
        label: String,
    },
    /// `Vis`.
    Vis {
        view: usize,
        kind: InteractionKind,
        event_cols: Vec<usize>,
    },
}

/// One entry of the interaction mapping `M`.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionInstance {
    /// Primary target (widgets have exactly one; cross-filter brushes may
    /// carry more in `extra_targets`).
    pub target_tree: usize,
    /// The target node.
    pub target_node: u32,
    /// Covered choice nodes (Algorithm 1's exact-cover elements), across
    /// all targets.
    pub cover: Vec<u32>,
    /// Additional bound nodes beyond the primary (tree, node, cover).
    pub extra_targets: Vec<crate::interaction::InteractionTarget>,
    /// The choice.
    pub choice: InteractionChoice,
}

impl InteractionInstance {
    /// All (tree, node) targets, primary first.
    pub fn all_targets(&self) -> Vec<(usize, u32)> {
        let mut out = vec![(self.target_tree, self.target_node)];
        out.extend(self.extra_targets.iter().map(|t| (t.tree, t.node)));
        out
    }

    /// Whether this interaction binds nodes in the given tree.
    pub fn targets_tree(&self, tree: usize) -> bool {
        self.target_tree == tree || self.extra_targets.iter().any(|t| t.tree == tree)
    }
}

/// A fully mapped interface.
#[derive(Debug, Clone, PartialEq)]
pub struct Interface {
    /// The views.
    pub views: Vec<View>,
    /// The interactions.
    pub interactions: Vec<InteractionInstance>,
    /// The layout.
    pub layout: LayoutTree,
}

impl Interface {
    /// Number of widgets (non-vis interactions).
    pub fn widget_count(&self) -> usize {
        self.interactions
            .iter()
            .filter(|i| matches!(i.choice, InteractionChoice::Widget { .. }))
            .count()
    }

    /// Number of visualization interactions.
    pub fn vis_interaction_count(&self) -> usize {
        self.interactions.len() - self.widget_count()
    }
}

impl fmt::Display for Interface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.views.iter().enumerate() {
            writeln!(f, "view #{i}: {} (tree {})", v.vis, v.tree)?;
        }
        for (i, m) in self.interactions.iter().enumerate() {
            match &m.choice {
                InteractionChoice::Widget {
                    kind,
                    domain,
                    label,
                } => {
                    writeln!(
                        f,
                        "interaction #{i}: {kind} [{label}] ({} options) → tree {} node {}",
                        domain.size(),
                        m.target_tree,
                        m.target_node
                    )?;
                }
                InteractionChoice::Vis { view, kind, .. } => {
                    writeln!(
                        f,
                        "interaction #{i}: {kind} on view #{view} → tree {} node {}",
                        m.target_tree, m.target_node
                    )?;
                }
            }
        }
        write!(f, "{}", self.layout)
    }
}

/// One entry of a candidate `M` before instantiation.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // inline variant fields are self-describing
pub enum MappingEntry {
    /// `Widget`.
    Widget { tree: usize, cand: WidgetCandidate },
    /// `Vis`.
    Vis(VisInteractionCandidate),
}

impl MappingEntry {
    /// Cover.
    pub fn cover(&self) -> Vec<u32> {
        match self {
            MappingEntry::Widget { cand, .. } => cand.cover.clone(),
            MappingEntry::Vis(v) => v.cover(),
        }
    }

    /// Target.
    pub fn target(&self) -> (usize, u32) {
        match self {
            MappingEntry::Widget { tree, cand } => (*tree, cand.target),
            MappingEntry::Vis(v) => (v.primary().tree, v.primary().node),
        }
    }
}

/// Everything Algorithm 1 needs about one search state.
///
/// Per-tree artifacts are *borrowed* from the process-wide
/// [`crate::EvalCache`] (shared across search states and parallel workers)
/// rather than recomputed and owned per state; only the id-offset views
/// (covers, flats, choice lists in forest-global id space) are
/// materialised per state. Binding maps and type maps stay in tree-local
/// id space — [`MappingContext::bases`] converts between the two.
///
/// Per-tree query data (`per_query_maps`, `results`) holds one entry per
/// *distinct* query ([`Workload::class`]), so per-state work scales with the
/// distinct queries; `assignments` holds one entry per *input* query, so
/// the §5 cost still walks the full query sequence. Bindings are the bind
/// memo's `Arc`s: neither the context nor a duplicate query copies one.
///
/// Three per-context memos fill on first use: each flat's binding tuples,
/// each view's safe candidates (see
/// [`MappingContext::safe_vis_interactions`]), and each (tree, cover)'s
/// projection ids, which Algorithm 1's manipulation counts and the §5 cost
/// walk both read. So the public data fields must not change after
/// [`MappingContext::build`]; only `check_safety` may be set afterwards.
pub struct MappingContext<'a> {
    /// The forest.
    pub forest: &'a Forest,
    /// The workload.
    pub workload: &'a Workload,
    /// Per-query assignments (tree-local binding ids): one entry per input
    /// query, duplicates included.
    pub assignments: Vec<Assignment>,
    /// Per input query, the position of its first occurrence within
    /// `per_query_maps[assignments[qi].tree]`.
    slots: Vec<usize>,
    /// Global id base of each tree: global id = base + local id.
    pub bases: Vec<u32>,
    /// Inferred node types per tree (tree-local ids, cache-shared).
    pub types: Vec<Arc<TypeMap>>,
    /// Result schema per tree (cache-shared).
    pub schemas: Vec<Option<Arc<ResultSchema>>>,
    /// Binding maps of the queries each tree expresses (tree-local ids):
    /// one entry per distinct query, in first-occurrence order.
    pub per_query_maps: Vec<Vec<Arc<BindingMap>>>,
    /// Executed result tables per tree (shared): one entry per distinct
    /// query that executes.
    pub results: Vec<Vec<Arc<Table>>>,
    /// Candidate visualization mappings per tree (V candidates).
    pub vis_cands: Vec<Vec<VisMapping>>,
    /// Candidate widgets per tree (forest-global target/cover ids).
    pub widget_cands: Vec<Vec<WidgetCandidate>>,
    /// Flattenable dynamic nodes per tree (forest-global ids).
    pub flats: Vec<Vec<(u32, FlatSchema)>>,
    /// DFS-ordered choice node ids per tree (Algorithm 1's `clist`),
    /// forest-global.
    pub choice_ids: Vec<Vec<u32>>,
    /// Skip the §4.2.2 safety check (scalability ablation).
    pub check_safety: bool,
    /// Per (tree, index into `flats[tree]`): the flat's binding tuples,
    /// filled on first use by the safety check or the brush merge.
    tuple_memo: Vec<Vec<OnceCell<Vec<Vec<BoundValue>>>>>,
    /// Per (view, index into `vis_cands[view]`, `check_safety`): the view's
    /// candidates under that mapping, filled on first use. The flag is part
    /// of the key because it is a public field set after `build`.
    view_memo: Vec<Vec<[OnceCell<ViewCandidates>; 2]>>,
    /// Per tree, keyed by cover: the cover's projection ids in that tree
    /// (see [`MappingContext::projection_ids`]), filled on first use.
    projection_memo: Vec<ProjectionMemo>,
}

impl<'a> MappingContext<'a> {
    /// Build the context; `None` when the forest cannot express the
    /// workload or some tree has an undefined result schema.
    pub fn build(forest: &'a Forest, workload: &'a Workload) -> Option<Self> {
        let assignments = forest.bind_all(workload)?;
        let n = forest.trees.len();
        let cache = global_eval_cache();

        // Per-tree lists over first occurrences; a duplicate shares the
        // slot of its first occurrence (which sits in the same tree).
        let mut per_query_maps: Vec<Vec<Arc<BindingMap>>> = vec![Vec::new(); n];
        let mut queries_per_tree: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut slots = Vec::with_capacity(assignments.len());
        for (qi, a) in assignments.iter().enumerate() {
            let first = workload.class[qi];
            if first < qi {
                slots.push(slots[first]);
                continue;
            }
            slots.push(per_query_maps[a.tree].len());
            per_query_maps[a.tree].push(Arc::clone(&a.binding));
            queries_per_tree[a.tree].push(qi);
        }

        let mut bases = Vec::with_capacity(n);
        let mut types = Vec::with_capacity(n);
        let mut schemas = Vec::with_capacity(n);
        let mut results = Vec::with_capacity(n);
        let mut vis_cands = Vec::with_capacity(n);
        let mut widget_cands = Vec::with_capacity(n);
        let mut flats: Vec<Vec<(u32, FlatSchema)>> = Vec::with_capacity(n);
        let mut choice_ids = Vec::with_capacity(n);

        let mut base = 0u32;
        for (t, tree) in forest.trees.iter().enumerate() {
            // Every tree must render something: a tree expressing no query
            // or with an undefined schema cannot be mapped.
            if queries_per_tree[t].is_empty() {
                return None;
            }
            let maps: Vec<&BindingMap> = per_query_maps[t].iter().map(|m| &**m).collect();
            let art = cache.tree_artifacts(tree, &queries_per_tree[t], &maps, workload)?;
            bases.push(base);
            types.push(Arc::clone(&art.types));
            schemas.push(Some(Arc::clone(&art.schema)));
            results.push(art.results.clone());
            vis_cands.push(art.vis_cands.clone());
            widget_cands.push(art.widget_cands.iter().map(|c| c.shifted(base)).collect());
            flats.push(
                art.flats
                    .iter()
                    .map(|(id, f)| (id + base, f.shifted(base)))
                    .collect(),
            );
            choice_ids.push(art.choice_ids.iter().map(|id| id + base).collect());
            base += tree.len();
        }
        let tuple_memo = flats
            .iter()
            .map(|f| f.iter().map(|_| OnceCell::new()).collect())
            .collect();
        let view_memo = vis_cands
            .iter()
            .map(|c| c.iter().map(|_| Default::default()).collect())
            .collect();
        Some(MappingContext {
            forest,
            workload,
            assignments,
            slots,
            bases,
            types,
            schemas,
            per_query_maps,
            results,
            vis_cands,
            widget_cands,
            flats,
            choice_ids,
            check_safety: true,
            tuple_memo,
            view_memo,
            projection_memo: (0..n).map(|_| RefCell::default()).collect(),
        })
    }

    /// Total number of choice nodes across trees.
    pub fn total_choices(&self) -> usize {
        self.choice_ids.iter().map(|c| c.len()).sum()
    }

    /// The §3.2.4 binding tuples of a flattened node: one tuple per distinct
    /// input query the tree expresses. Flat element ids are forest-global;
    /// bindings are tree-local.
    ///
    /// Computed afresh on every call and kept public for callers outside
    /// the context (`tests/pipeline.rs` reads it directly); the safety
    /// check and the brush merge read each flat's tuples from a
    /// per-context memo instead.
    pub fn binding_tuples(&self, tree: usize, flat: &FlatSchema) -> Vec<Vec<BoundValue>> {
        self.per_query_maps[tree]
            .iter()
            .map(|map| {
                flat.elems
                    .iter()
                    .map(|e| {
                        self.forest
                            .node_in_tree(tree, e.node_id)
                            .and_then(|n| bound_value(n, map))
                            .unwrap_or(BoundValue::Absent)
                    })
                    .collect()
            })
            .collect()
    }

    /// The binding tuples of `flats[tree][flat]`, computed once per context.
    fn flat_tuples(&self, tree: usize, flat: usize) -> &[Vec<BoundValue>] {
        self.tuple_memo[tree][flat]
            .get_or_init(|| self.binding_tuples(tree, &self.flats[tree][flat].1))
    }

    /// All *safe* visualization-interaction candidates under a chosen `V`
    /// assignment (one `VisMapping` per tree).
    ///
    /// Event schemas depend on the visualization mapping (§4.2.1), but only
    /// on the mapping of the view the event happens on: a view's candidates
    /// come from its own schema and results, and the brush merge only
    /// combines candidates of the same view. So each view's (unmerged,
    /// merged) lists are computed once per (view, mapping, `check_safety`)
    /// and reused by every `V` containing that mapping; a mapping not in
    /// `vis_cands[view]` bypasses the memo. The result is every view's
    /// unmerged candidates in view order, then every view's merged brushes
    /// in view order — the order one candidate pass over all views followed
    /// by one merge pass over its output yields. Memoized lists are
    /// borrowed, not copied.
    ///
    /// Same-view brushes with identical event columns are additionally
    /// offered as one *merged* candidate binding all their targets — this is
    /// how one brush cross-filters several charts (§7.1 Filter).
    pub fn safe_vis_interactions(&self, chosen_v: &[VisMapping]) -> SafeVisCandidates<'_> {
        let views = chosen_v
            .iter()
            .enumerate()
            .map(
                |(view, vis)| match self.vis_cands[view].iter().position(|m| m == vis) {
                    Some(i) => Cow::Borrowed(
                        self.view_memo[view][i][usize::from(self.check_safety)]
                            .get_or_init(|| self.view_candidates(view, vis)),
                    ),
                    None => Cow::Owned(self.view_candidates(view, vis)),
                },
            )
            .collect();
        SafeVisCandidates { views }
    }

    /// The safe candidates on `view` rendered by `vis`, and the merged
    /// brushes built from them.
    fn view_candidates(&self, view: usize, vis: &VisMapping) -> ViewCandidates {
        let Some(schema) = self.schemas[view].as_ref() else {
            return ViewCandidates::default();
        };
        let mut out = Vec::new();
        for (t, tree_flats) in self.flats.iter().enumerate() {
            for (f, (node_id, flat)) in tree_flats.iter().enumerate() {
                let cands = vis_interaction_candidates(view, vis, schema, t, *node_id, flat);
                for cand in cands {
                    if !self.check_safety || self.is_safe(&cand, t, f) {
                        out.push(cand);
                    }
                }
            }
        }
        // Merge same-kind brushes over disjoint covers. One brush event
        // drives every merged target with the same (lo, hi), so targets in
        // the *same* tree are only merged when every input query binds them
        // identically (cross-tree targets are driven by disjoint query sets
        // — the cross-filtering case).
        let mut merged: Vec<VisInteractionCandidate> = Vec::new();
        for i in 0..out.len() {
            let a = &out[i];
            if !matches!(
                a.kind,
                InteractionKind::BrushX | InteractionKind::BrushY | InteractionKind::BrushXY
            ) {
                continue;
            }
            let mut combined = a.clone();
            for b in out.iter().skip(i + 1) {
                if b.kind == a.kind
                    && b.event_cols == a.event_cols
                    && b.targets.iter().all(|bt| {
                        !combined
                            .targets
                            .iter()
                            .any(|ct| ct.cover.iter().any(|id| bt.cover.contains(id)))
                    })
                    && b.targets.iter().all(|bt| {
                        combined
                            .targets
                            .iter()
                            .all(|ct| self.targets_covary(ct, bt))
                    })
                {
                    combined.targets.extend(b.targets.iter().cloned());
                }
            }
            if combined.targets.len() > a.targets.len() {
                merged.push(combined);
            }
        }
        (out, merged)
    }

    /// Whether two interaction targets can share one event stream: targets
    /// in different trees always can (their binding queries are disjoint);
    /// same-tree targets require identical bound values in every input
    /// query the tree expresses (checked over its distinct queries, which
    /// sit at the same positions in both tuple lists).
    fn targets_covary(
        &self,
        a: &crate::interaction::InteractionTarget,
        b: &crate::interaction::InteractionTarget,
    ) -> bool {
        if a.tree != b.tree {
            return true;
        }
        let flat_of = |node: u32| self.flats[a.tree].iter().position(|(id, _)| *id == node);
        let (Some(fa), Some(fb)) = (flat_of(a.node), flat_of(b.node)) else {
            return false;
        };
        self.flat_tuples(a.tree, fa) == self.flat_tuples(a.tree, fb)
    }

    /// The §4.2.2 check of `cand`, whose primary target is
    /// `flats[tree][flat]`.
    fn is_safe(&self, cand: &VisInteractionCandidate, tree: usize, flat: usize) -> bool {
        let view_results: Vec<&Table> =
            self.results[cand.view].iter().map(|t| t.as_ref()).collect();
        interaction_is_safe(
            cand,
            &self.flats[tree][flat].1,
            self.flat_tuples(tree, flat),
            &view_results,
        )
    }

    /// Instantiate an interface from chosen `V` and `M`, building the
    /// default layout (§4.3) and placing bounding boxes.
    pub fn build_interface(
        &self,
        chosen_v: Vec<VisMapping>,
        mut entries: Vec<MappingEntry>,
    ) -> Interface {
        // Interactions in Difftree DFS order (§5: navigation follows the
        // DFS traversal).
        entries.sort_by_key(|e| {
            let (t, n) = e.target();
            (t, n)
        });
        let interactions: Vec<InteractionInstance> = entries
            .into_iter()
            .map(|e| match e {
                MappingEntry::Widget { tree, cand } => InteractionInstance {
                    target_tree: tree,
                    target_node: cand.target,
                    cover: cand.cover,
                    extra_targets: vec![],
                    choice: InteractionChoice::Widget {
                        kind: cand.kind,
                        domain: cand.domain,
                        label: cand.label,
                    },
                },
                MappingEntry::Vis(mut v) => {
                    let cover = v.cover();
                    let extra_targets = v.targets.split_off(1);
                    InteractionInstance {
                        target_tree: v.targets[0].tree,
                        target_node: v.targets[0].node,
                        cover,
                        extra_targets,
                        choice: InteractionChoice::Vis {
                            view: v.view,
                            kind: v.kind,
                            event_cols: v.event_cols,
                        },
                    }
                }
            })
            .collect();

        let views: Vec<View> = chosen_v
            .into_iter()
            .enumerate()
            .map(|(t, vis)| View { tree: t, vis })
            .collect();

        // Layout: per tree, the widget tree + the visualization. Interaction
        // targets are forest-global; the widget layout walks one tree, so
        // offset them back to tree-local ids.
        let mut tree_layouts = Vec::new();
        for (t, tree) in self.forest.trees.iter().enumerate() {
            let base = self.bases[t];
            let widgets: Vec<(u32, usize, (f64, f64))> = interactions
                .iter()
                .enumerate()
                .filter_map(|(ix, inst)| match &inst.choice {
                    InteractionChoice::Widget {
                        kind,
                        domain,
                        label,
                    } if inst.target_tree == t => Some((
                        inst.target_node - base,
                        ix,
                        widget_size(*kind, domain, label),
                    )),
                    _ => None,
                })
                .collect();
            let vis_leaf = LayoutNode::Vis {
                view: t,
                size: vis_size(views[t].vis.kind),
            };
            let node = match widget_tree_for(tree, &widgets) {
                Some(wt) => LayoutNode::Group {
                    orientation: Orientation::Horizontal,
                    children: vec![vis_leaf, wt],
                },
                None => vis_leaf,
            };
            tree_layouts.push(node);
        }
        let root = if tree_layouts.len() == 1 {
            tree_layouts.pop().unwrap()
        } else {
            LayoutNode::Group {
                orientation: Orientation::Vertical,
                children: tree_layouts,
            }
        };
        let layout = LayoutTree::place(root, interactions.len(), views.len());
        Interface {
            views,
            interactions,
            layout,
        }
    }

    /// Projection ids of `tree`'s distinct queries onto the covered nodes
    /// (`cover`, forest-global) that live in `tree`: entry `k` belongs to
    /// `per_query_maps[tree][k]`, and two entries are equal exactly when
    /// the two queries bind every such node alike. Each id is the slot of
    /// the first query with that projection. `None` when no covered node
    /// lies in `tree`.
    ///
    /// Computed once per (tree, cover) and context; walks over the full
    /// query sequence then compare ids, looked up through `slots`.
    fn projection_ids(&self, tree: usize, cover: &[u32]) -> Option<Arc<[usize]>> {
        if let Some(ids) = self.projection_memo[tree].borrow().get(cover) {
            return ids.clone();
        }
        let ids = self.project(tree, cover);
        self.projection_memo[tree]
            .borrow_mut()
            .insert(cover.to_vec(), ids.clone());
        ids
    }

    /// [`MappingContext::projection_ids`] without the memo.
    fn project(&self, tree: usize, cover: &[u32]) -> Option<Arc<[usize]>> {
        let nodes: Vec<&DNode> = cover
            .iter()
            .filter_map(|id| self.forest.node_in_tree(tree, *id))
            .collect();
        if nodes.is_empty() {
            return None;
        }
        let maps = &self.per_query_maps[tree];
        let projections: Vec<Option<BoundValue>> = maps
            .iter()
            .flat_map(|map| nodes.iter().map(move |n| bound_value(n, map)))
            .collect();
        let projection = |k: usize| &projections[k * nodes.len()..(k + 1) * nodes.len()];
        let mut ids: Vec<usize> = Vec::with_capacity(maps.len());
        for k in 0..maps.len() {
            let id = (0..k)
                .find(|&j| ids[j] == j && projection(j) == projection(k))
                .unwrap_or(k);
            ids.push(id);
        }
        Some(ids.into())
    }

    /// Number of manipulations an interaction covering `cover` needs over
    /// the queries `tree` expresses, in sequence order: one per change of
    /// the covered bindings (at least 1).
    pub fn manip_count(&self, tree: usize, cover: &[u32]) -> usize {
        let Some(ids) = self.projection_ids(tree, cover) else {
            return 1;
        };
        let mut last = None;
        let mut count = 0;
        for (a, &slot) in self.assignments.iter().zip(&self.slots) {
            if a.tree == tree && last != Some(ids[slot]) {
                count += 1;
                last = Some(ids[slot]);
            }
        }
        count.max(1)
    }

    /// Cost of a fully built interface for this workload (§5), in one walk
    /// over the input queries: each query visits the view of its tree, then
    /// manipulates the interactions (in DFS order) whose covered bindings
    /// change relative to the interface's previous state.
    pub fn cost(&self, iface: &Interface, params: &CostParams) -> f64 {
        // Per tree, the interactions binding nodes in it (in DFS order), each
        // with its projection ids there and the id it was last set to.
        let mut targeting = vec![Vec::new(); self.forest.trees.len()];
        for (ix, inst) in iface.interactions.iter().enumerate() {
            for (t, list) in targeting.iter_mut().enumerate() {
                if inst.targets_tree(t) {
                    if let Some(ids) = self.projection_ids(t, &inst.cover) {
                        list.push((ix, ids, None));
                    }
                }
            }
        }
        let mut walk = CostWalk::new(iface, params);
        for (a, &slot) in self.assignments.iter().zip(&self.slots) {
            walk.visit_view(a.tree);
            for (ix, ids, last) in &mut targeting[a.tree] {
                if *last != Some(ids[slot]) {
                    *last = Some(ids[slot]);
                    walk.manipulate(*ix);
                }
            }
        }
        walk.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_data::{Catalog, DataType, Value};
    use pi2_difftree::DNode;
    use pi2_sql::parse_query;

    fn workload() -> Workload {
        let mut c = Catalog::new();
        let rows: Vec<Vec<Value>> = (0..12)
            .map(|i| vec![Value::Int(i % 4), Value::Int(10 * i)])
            .collect();
        let t = pi2_data::Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows)
            .unwrap();
        c.add_table("T", t, vec![]);
        Workload::new(
            vec![
                parse_query("SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a").unwrap(),
                parse_query("SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a").unwrap(),
            ],
            c,
        )
    }

    fn val_forest(w: &Workload) -> Forest {
        // Single tree: SELECT a, count(*) FROM T WHERE b = VAL GROUP BY a
        let mut tree = w.gsts[0].clone();
        let pred = &mut tree.children[3].children[0];
        let lit = pred.children[1].clone();
        pred.children[1] = DNode::val(vec![lit]);
        Forest::new(vec![tree])
    }

    #[test]
    fn context_builds_with_candidates() {
        let w = workload();
        let f = val_forest(&w);
        let ctx = MappingContext::build(&f, &w).unwrap();
        assert_eq!(ctx.total_choices(), 1);
        assert_eq!(ctx.per_query_maps[0].len(), 2);
        assert_eq!(ctx.results[0].len(), 2);
        assert!(!ctx.vis_cands[0].is_empty());
        assert!(!ctx.widget_cands[0].is_empty());
        // The VAL node flattens.
        assert!(!ctx.flats[0].is_empty());
    }

    #[test]
    fn unexpressive_forest_fails_to_build() {
        let w = workload();
        let f = Forest::new(vec![w.gsts[0].clone()]);
        assert!(MappingContext::build(&f, &w).is_none());
    }

    #[test]
    fn interface_build_and_cost() {
        let w = workload();
        let f = val_forest(&w);
        let ctx = MappingContext::build(&f, &w).unwrap();
        let vis = ctx.vis_cands[0][0].clone();
        let widget = ctx.widget_cands[0]
            .iter()
            .find(|c| c.kind == WidgetKind::Textbox)
            .unwrap()
            .clone();
        let iface = ctx.build_interface(
            vec![vis],
            vec![MappingEntry::Widget {
                tree: 0,
                cand: widget,
            }],
        );
        assert_eq!(iface.views.len(), 1);
        assert_eq!(iface.interactions.len(), 1);
        assert_eq!(iface.widget_count(), 1);
        let params = CostParams::default();
        let cost = ctx.cost(&iface, &params);
        assert!(cost > 0.0);
        // Both queries change the VAL binding → 2 manipulations on view 0.
        let mut walk = CostWalk::new(&iface, &params);
        for _ in 0..2 {
            walk.visit_view(0);
            walk.manipulate(0);
        }
        assert_eq!(cost.to_bits(), walk.finish().to_bits());
    }

    #[test]
    fn safe_vis_interactions_on_bar_chart() {
        // A second tree whose bar chart click should bind the first tree's
        // VAL (Figure 5 pattern). Here: single tree for simplicity — click
        // binding b values requires a chart rendering b.
        let w = workload();
        let f = val_forest(&w);
        let ctx = MappingContext::build(&f, &w).unwrap();
        // Choose the table vis: click emits full records.
        let table_vis = ctx.vis_cands[0]
            .iter()
            .find(|m| m.kind == crate::vis::VisKind::Table)
            .unwrap()
            .clone();
        let cands = ctx.safe_vis_interactions(&[table_vis]);
        // The chart renders (a, count); the VAL binds b values 10 and 20,
        // which do not appear in any result column → no safe click.
        assert!(cands.iter().all(|c| c.kind != InteractionKind::Click));
    }

    #[test]
    fn display_renders_interface_summary() {
        let w = workload();
        let f = val_forest(&w);
        let ctx = MappingContext::build(&f, &w).unwrap();
        let vis = ctx.vis_cands[0][0].clone();
        let widget = ctx.widget_cands[0][0].clone();
        let iface = ctx.build_interface(
            vec![vis],
            vec![MappingEntry::Widget {
                tree: 0,
                cand: widget,
            }],
        );
        let s = iface.to_string();
        assert!(s.contains("view #0"));
        assert!(s.contains("interaction #0"));
    }

    /// `safe_vis_interactions` without the memo: every view's candidates
    /// in one pass, then one merge pass over all of them, with binding
    /// tuples recomputed per use. The memoized form must return exactly
    /// this, order included.
    fn reference_safe_vis_interactions(
        ctx: &MappingContext<'_>,
        chosen_v: &[VisMapping],
    ) -> Vec<VisInteractionCandidate> {
        let is_safe = |cand: &VisInteractionCandidate, flat: &FlatSchema| {
            let tuples = ctx.binding_tuples(cand.primary().tree, flat);
            let view_results: Vec<&Table> =
                ctx.results[cand.view].iter().map(|t| t.as_ref()).collect();
            interaction_is_safe(cand, flat, &tuples, &view_results)
        };
        let targets_covary =
            |a: &crate::interaction::InteractionTarget,
             b: &crate::interaction::InteractionTarget| {
                if a.tree != b.tree {
                    return true;
                }
                let flat_of = |node: u32| {
                    ctx.flats[a.tree]
                        .iter()
                        .find(|(id, _)| *id == node)
                        .map(|(_, f)| f)
                };
                let (Some(fa), Some(fb)) = (flat_of(a.node), flat_of(b.node)) else {
                    return false;
                };
                ctx.binding_tuples(a.tree, fa) == ctx.binding_tuples(b.tree, fb)
            };
        let mut out = Vec::new();
        for (view, vis) in chosen_v.iter().enumerate() {
            let Some(schema) = ctx.schemas[view].as_ref() else {
                continue;
            };
            for (t, tree_flats) in ctx.flats.iter().enumerate() {
                for (node_id, flat) in tree_flats {
                    let cands = vis_interaction_candidates(view, vis, schema, t, *node_id, flat);
                    for cand in cands {
                        if !ctx.check_safety || is_safe(&cand, flat) {
                            out.push(cand);
                        }
                    }
                }
            }
        }
        let mut merged: Vec<VisInteractionCandidate> = Vec::new();
        for i in 0..out.len() {
            let a = &out[i];
            if !matches!(
                a.kind,
                InteractionKind::BrushX | InteractionKind::BrushY | InteractionKind::BrushXY
            ) {
                continue;
            }
            let mut combined = a.clone();
            for b in out.iter().skip(i + 1) {
                if b.view == a.view
                    && b.kind == a.kind
                    && b.event_cols == a.event_cols
                    && b.targets.iter().all(|bt| {
                        !combined
                            .targets
                            .iter()
                            .any(|ct| ct.cover.iter().any(|id| bt.cover.contains(id)))
                    })
                    && b.targets
                        .iter()
                        .all(|bt| combined.targets.iter().all(|ct| targets_covary(ct, bt)))
                {
                    combined.targets.extend(b.targets.iter().cloned());
                }
            }
            if combined.targets.len() > a.targets.len() {
                merged.push(combined);
            }
        }
        out.extend(merged);
        out
    }

    fn log_workload(queries: &[String]) -> Workload {
        Workload::new(
            queries.iter().map(|q| parse_query(q).unwrap()).collect(),
            pi2_workloads::catalog(),
        )
    }

    /// The seven paper logs and Filter duplicated to 90 queries, each with
    /// its search states. The duplicated log takes Filter's states: its
    /// one-tree-per-query forest cannot be mapped (a duplicate's tree
    /// expresses no query of its own), and every Filter state expresses it.
    fn paper_cases() -> Vec<(String, Workload, Vec<Forest>)> {
        let mut out: Vec<(String, Workload, Vec<Forest>)> = pi2_workloads::all_logs()
            .iter()
            .map(|l| {
                let w = log_workload(&l.queries);
                let states = search_states(&w);
                (l.name.to_string(), w, states)
            })
            .collect();
        let dup = pi2_workloads::logs::duplicated(pi2_workloads::LogKind::Filter, 90);
        let filter = out.iter().find(|(n, ..)| n == "filter").unwrap().2.clone();
        out.push(("filter_x90".to_string(), log_workload(&dup.queries), filter));
        out
    }

    /// Search states of `w`: the initial forest (one tree per query), the
    /// forest its union-compatible trees merge into (first applicable
    /// `Merge` until none applies), the canonical forms of both, and the
    /// states along two seeded walks of applied actions from each
    /// canonical form.
    fn search_states(w: &Workload) -> Vec<Forest> {
        use pi2_difftree::transform::canonicalize;
        use pi2_difftree::{apply_action, candidate_actions, Rule};
        let initial = Forest::from_workload(w);
        let mut merged = initial.clone();
        while let Some(next) = candidate_actions(&merged, w)
            .into_iter()
            .filter(|a| a.rule == Rule::Merge)
            .find_map(|a| apply_action(&merged, w, a))
        {
            merged = next;
        }
        let roots = [canonicalize(&initial, w, 48), canonicalize(&merged, w, 48)];
        let mut states = vec![initial, merged];
        states.extend(roots.iter().cloned());
        for (root, seed) in roots.iter().flat_map(|r| [(r, 11u64), (r, 29)]) {
            let mut rng = seed;
            let mut state = root.clone();
            for _ in 0..3 {
                let actions = candidate_actions(&state, w);
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let start = (rng >> 33) as usize;
                let next = (0..actions.len())
                    .find_map(|k| apply_action(&state, w, actions[(start + k) % actions.len()]));
                let Some(next) = next else {
                    break;
                };
                states.push(next.clone());
                state = next;
            }
        }
        states
    }

    /// The `V` combinations to check: the cartesian product of every
    /// view's candidates, capped at 24 as `greedy_interface` caps its
    /// enumeration, then every (view, mapping) once with the other views
    /// at their first candidate.
    fn v_combos(ctx: &MappingContext<'_>) -> Vec<Vec<VisMapping>> {
        let mut combos: Vec<Vec<VisMapping>> = vec![vec![]];
        for cands in &ctx.vis_cands {
            let mut next = Vec::new();
            'outer: for combo in &combos {
                for c in cands {
                    let mut v = combo.clone();
                    v.push(c.clone());
                    next.push(v);
                    if next.len() >= 24 {
                        break 'outer;
                    }
                }
            }
            combos = next;
        }
        let first: Vec<VisMapping> = ctx.vis_cands.iter().map(|c| c[0].clone()).collect();
        for (view, cands) in ctx.vis_cands.iter().enumerate() {
            for c in cands {
                let mut v = first.clone();
                v[view] = c.clone();
                combos.push(v);
            }
        }
        combos
    }

    /// The filled memo slots of a context: per `check_safety` value, the
    /// filled (view, mapping index) slots with the address of their
    /// unmerged list; and the filled (tree, flat index) tuple slots with
    /// the address of their tuples.
    #[allow(clippy::type_complexity)]
    fn filled_slots(
        ctx: &MappingContext<'_>,
    ) -> ([Vec<(usize, usize, usize)>; 2], Vec<(usize, usize, usize)>) {
        let mut views: [Vec<(usize, usize, usize)>; 2] = Default::default();
        for (v, slots) in ctx.view_memo.iter().enumerate() {
            for (i, by_flag) in slots.iter().enumerate() {
                for (flag, cell) in by_flag.iter().enumerate() {
                    if let Some((unmerged, _)) = cell.get() {
                        views[flag].push((v, i, unmerged.as_ptr() as usize));
                    }
                }
            }
        }
        let mut tuples = Vec::new();
        for (t, slots) in ctx.tuple_memo.iter().enumerate() {
            for (f, cell) in slots.iter().enumerate() {
                if let Some(tu) = cell.get() {
                    tuples.push((t, f, tu.as_ptr() as usize));
                }
            }
        }
        (views, tuples)
    }

    /// The memoized candidates equal the reference for every checked `V`
    /// of every search state, under both `check_safety` values set on the
    /// same context in either order, cold and warm; a mapping outside
    /// `vis_cands` takes the uncached path and agrees too.
    #[test]
    fn memoized_safe_vis_interactions_match_the_reference() {
        let mut max_trees = 0;
        let mut checked = 0;
        for (name, w, states) in paper_cases() {
            for state in states {
                let Some(reference_ctx) = MappingContext::build(&state, &w) else {
                    continue;
                };
                max_trees = max_trees.max(state.trees.len());
                let mut combos = v_combos(&reference_ctx);
                // A view-0 mapping that is not one of its candidates.
                let outside = reference_ctx.vis_cands[0]
                    .iter()
                    .flat_map(|m| {
                        crate::vis::VisKind::ALL.into_iter().map(|kind| VisMapping {
                            kind,
                            assignments: m.assignments.clone(),
                        })
                    })
                    .find(|m| !reference_ctx.vis_cands[0].contains(m))
                    .expect("some kind/assignment pair is not a candidate");
                let mut v = combos[0].clone();
                v[0] = outside;
                combos.push(v);

                let mut expected = Vec::new();
                for flag in [true, false] {
                    let mut ctx = MappingContext::build(&state, &w).unwrap();
                    ctx.check_safety = flag;
                    expected.push(
                        combos
                            .iter()
                            .map(|v| reference_safe_vis_interactions(&ctx, v))
                            .collect::<Vec<_>>(),
                    );
                }
                for order in [[true, false], [false, true]] {
                    let mut ctx = MappingContext::build(&state, &w).unwrap();
                    for _pass in 0..2 {
                        for flag in order {
                            ctx.check_safety = flag;
                            let want = &expected[usize::from(!flag)];
                            for (v, want) in combos.iter().zip(want) {
                                assert_eq!(
                                    &ctx.safe_vis_interactions(v)
                                        .iter()
                                        .cloned()
                                        .collect::<Vec<_>>(),
                                    want,
                                    "{name}, {} trees, check_safety {flag}, V {v:?}",
                                    state.trees.len()
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(max_trees >= 3, "no state with at least 3 trees");
        assert!(checked > 0);
    }

    /// On every multi-tree state with flattenable nodes, evaluating every
    /// `V` fills one slot per (view, mapping) and flag and at most one
    /// tuple slot per flat; a second pass over the same combinations
    /// recomputes nothing.
    #[test]
    fn memo_fills_each_slot_once() {
        let mut max_trees = 0;
        for (name, w, states) in paper_cases() {
            for state in states {
                let Some(mut ctx) = MappingContext::build(&state, &w) else {
                    continue;
                };
                let flats: usize = ctx.flats.iter().map(|f| f.len()).sum();
                if state.trees.len() < 2 || flats == 0 {
                    continue;
                }
                max_trees = max_trees.max(state.trees.len());
                let combos = v_combos(&ctx);
                let slots: usize = ctx.vis_cands.iter().map(|c| c.len()).sum();
                for flag in [true, false] {
                    ctx.check_safety = flag;
                    for v in &combos {
                        ctx.safe_vis_interactions(v);
                    }
                }
                let (views, tuples) = filled_slots(&ctx);
                for filled in &views {
                    assert_eq!(
                        filled.len(),
                        slots,
                        "{name}: every (view, mapping) is in some V"
                    );
                }
                assert!(tuples.len() <= flats, "{name}");
                for flag in [false, true] {
                    ctx.check_safety = flag;
                    for v in &combos {
                        ctx.safe_vis_interactions(v);
                    }
                }
                assert_eq!(filled_slots(&ctx), (views, tuples), "{name}");
            }
        }
        assert!(max_trees >= 3, "no multi-tree state with at least 3 trees");
    }
}

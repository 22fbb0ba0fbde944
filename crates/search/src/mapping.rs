//! Algorithm 1: V, M mapping generation, plus layout optimisation.
//!
//! Given a set of Difftrees, find the top-k `(V, M)` mappings with the
//! lowest manipulation cost `Cm`:
//!
//! 1. enumerate visualization mappings `V` (`searchV`),
//! 2. per `V`, derive the valid+safe visualization interactions and
//!    enumerate compatible (conflict-free, cover-disjoint) subsets
//!    (`searchM` lines 36–41),
//! 3. cover the remaining choice nodes with widgets using the dynamic
//!    programs `F` (top-k exact covers) and `G` (cheapest cover, the
//!    pruning lower bound of line 27),
//! 4. keep a k-element min-heap of complete mappings.
//!
//! Since `Cm` is independent of layout and typically dominant (§6.2.2), the
//! layout (H/V orientations, branch-and-bound) is optimised afterwards for
//! each of the top-k mappings, and the overall best interface is returned.

use pi2_interface::{
    CostParams, Interface, MappingContext, MappingEntry, VisInteractionCandidate, VisMapping,
    WidgetCandidate,
};
use std::collections::HashMap;

/// Cover bitmask over the global choice-node list (u128: the paper's logs
/// stay well below 128 choice nodes; larger states are rejected).
type Mask = u128;

/// Options controlling Algorithm 1.
#[derive(Debug, Clone)]
pub struct MappingOptions {
    /// Heap size (k). The paper finds k = 10 sufficient (§6.2.2).
    pub top_k: usize,
    /// Cap on the number of V combinations enumerated.
    pub max_v_combinations: usize,
    /// Cost model constants.
    pub params: CostParams,
    /// Disable the G-based lower-bound pruning (ablation).
    pub pruning: bool,
    /// Cap on layout orientation assignments explored per mapping.
    pub max_layout_nodes: usize,
}

impl Default for MappingOptions {
    fn default() -> Self {
        MappingOptions {
            top_k: 10,
            max_v_combinations: 512,
            params: CostParams::default(),
            pruning: true,
            max_layout_nodes: 12,
        }
    }
}

/// A complete `(V, M)` candidate with its manipulation cost.
#[derive(Debug, Clone)]
pub struct ScoredMapping {
    /// The visualization mapping per tree.
    pub v: Vec<VisMapping>,
    /// The interaction mapping entries (exact cover of choice nodes).
    pub m: Vec<MappingEntry>,
    /// Manipulation cost `Cm` of this mapping.
    pub cm: f64,
}

/// Per-candidate manipulation cost: unit widget cost × how many input
/// queries require re-manipulating it (binding changes between consecutive
/// queries, §5).
fn widget_cost(
    ctx: &MappingContext<'_>,
    tree: usize,
    cand: &WidgetCandidate,
    _params: &CostParams,
) -> f64 {
    let (a0, a1, a2) = pi2_interface::widget_poly(cand.kind);
    let d = cand.domain.size() as f64;
    let unit = a0 + a1 * d * cand.domain.reading_factor() + a2 * d * d;
    unit * ctx.manip_count(tree, &cand.cover) as f64
}

fn vis_cost(ctx: &MappingContext<'_>, cand: &VisInteractionCandidate, params: &CostParams) -> f64 {
    let count: usize = cand
        .targets
        .iter()
        .map(|t| ctx.manip_count(t.tree, &t.cover))
        .max()
        .unwrap_or(1);
    params.vis_interaction_cost * count as f64
}

/// The layout-independent per-V cost: view-switch attention and table
/// reading over the query sequence (mirrors `interface_cost`'s view-visit
/// logic minus the Fitts term).
fn v_base_cost(ctx: &MappingContext<'_>, v: &[VisMapping], params: &CostParams) -> f64 {
    let mut total = 0.0;
    let mut current: Option<usize> = None;
    let view_factor = 1.0 + 0.15 * (v.len().saturating_sub(1) as f64);
    for a in &ctx.assignments {
        if current != Some(a.tree) {
            if current.is_some() {
                total += params.view_read * view_factor;
            }
            if v.get(a.tree)
                .is_some_and(|m| m.kind == pi2_interface::VisKind::Table)
            {
                total += params.table_read;
            }
            current = Some(a.tree);
        }
    }
    total
}

/// The global choice index: node id → bit (node ids are globally unique
/// across the forest's trees after renumbering).
fn choice_bits(ctx: &MappingContext<'_>) -> Option<HashMap<u32, u32>> {
    let mut map = HashMap::new();
    let mut bit = 0u32;
    for ids in ctx.choice_ids.iter() {
        for id in ids {
            map.insert(*id, bit);
            bit += 1;
            if bit > 127 {
                return None;
            }
        }
    }
    Some(map)
}

fn cover_mask(bits: &HashMap<u32, u32>, cover: &[u32]) -> Option<Mask> {
    let mut m: Mask = 0;
    for id in cover {
        let b = bits.get(id)?;
        m |= 1 << b;
    }
    Some(m)
}

struct Candidate {
    entry: MappingEntry,
    mask: Mask,
    cost: f64,
}

/// Widget-cover dynamic programs `G` (min cost) and `F` (top-k covers),
/// over abstract `(cover mask, cost)` items.
pub struct WidgetDp {
    items: Vec<(Mask, f64)>,
    /// Item indices grouped by their lowest covered bit.
    by_first_bit: Vec<Vec<usize>>,
    g_memo: HashMap<Mask, f64>,
    f_memo: HashMap<Mask, Vec<(f64, Vec<usize>)>>,
    top_k: usize,
}

impl WidgetDp {
    /// Build the DP over `(cover mask, cost)` items for `n_bits` choices.
    pub fn new(items: Vec<(Mask, f64)>, n_bits: u32, top_k: usize) -> Self {
        let mut by_first_bit: Vec<Vec<usize>> = vec![Vec::new(); n_bits as usize];
        for (i, (mask, _)) in items.iter().enumerate() {
            if *mask == 0 {
                continue;
            }
            let first = mask.trailing_zeros() as usize;
            by_first_bit[first].push(i);
        }
        WidgetDp {
            items,
            by_first_bit,
            g_memo: HashMap::new(),
            f_memo: HashMap::new(),
            top_k,
        }
    }

    /// Candidates whose cover starts at `N`'s lowest bit and fits inside
    /// `N`.
    fn fitting(&self, n: Mask) -> Vec<(Mask, f64, usize)> {
        let first = n.trailing_zeros() as usize;
        self.by_first_bit[first]
            .iter()
            .map(|&i| (&self.items[i], i))
            .filter(|((mask, _), _)| mask & !n == 0)
            .map(|((mask, cost), i)| (*mask, *cost, i))
            .collect()
    }

    /// `G(N)`: the lowest widget-cover cost of choice set `N`; infinite when
    /// `N` cannot be covered.
    pub fn g(&mut self, n: Mask) -> f64 {
        if n == 0 {
            return 0.0;
        }
        if let Some(&v) = self.g_memo.get(&n) {
            return v;
        }
        let mut best = f64::INFINITY;
        for (mask, cost, _) in self.fitting(n) {
            let rest = self.g(n & !mask);
            if cost + rest < best {
                best = cost + rest;
            }
        }
        self.g_memo.insert(n, best);
        best
    }

    /// `F(N)`: the top-k exact widget covers of `N` with the lowest costs,
    /// as (cost, candidate indices).
    pub fn f(&mut self, n: Mask) -> Vec<(f64, Vec<usize>)> {
        if n == 0 {
            return vec![(0.0, vec![])];
        }
        if let Some(v) = self.f_memo.get(&n) {
            return v.clone();
        }
        let mut all: Vec<(f64, Vec<usize>)> = Vec::new();
        for (mask, cost, idx) in self.fitting(n) {
            for (sub_cost, sub) in self.f(n & !mask) {
                let mut cover = vec![idx];
                cover.extend(sub);
                all.push((cost + sub_cost, cover));
            }
        }
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        all.truncate(self.top_k);
        self.f_memo.insert(n, all.clone());
        all
    }
}

/// A bounded max-heap of the k best (lowest-`Cm`) mappings.
struct TopK {
    k: usize,
    items: Vec<ScoredMapping>,
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k,
            items: Vec::new(),
        }
    }

    fn worst(&self) -> f64 {
        if self.items.len() < self.k {
            f64::INFINITY
        } else {
            self.items.last().map(|s| s.cm).unwrap_or(f64::INFINITY)
        }
    }

    fn push(&mut self, s: ScoredMapping) {
        self.items.push(s);
        self.items.sort_by(|a, b| a.cm.total_cmp(&b.cm));
        self.items.truncate(self.k);
    }
}

/// Algorithm 1: the top-k `(V, M)` mappings by manipulation cost.
pub fn generate_top_k(ctx: &MappingContext<'_>, opts: &MappingOptions) -> Vec<ScoredMapping> {
    let Some(bits) = choice_bits(ctx) else {
        return Vec::new();
    };
    let n_bits = bits.len() as u32;
    let mut heap = TopK::new(opts.top_k);

    // searchV: enumerate V assignments (cross product over trees).
    let mut v_combos: Vec<Vec<VisMapping>> = vec![vec![]];
    for tree_cands in &ctx.vis_cands {
        let mut next = Vec::new();
        for combo in &v_combos {
            for cand in tree_cands {
                let mut c = combo.clone();
                c.push(cand.clone());
                next.push(c);
                if next.len() >= opts.max_v_combinations {
                    break;
                }
            }
            if next.len() >= opts.max_v_combinations {
                break;
            }
        }
        v_combos = next;
    }

    // Widget candidates (independent of V) with their manipulation costs.
    let mut all_widgets: Vec<Candidate> = Vec::new();
    for (t, cands) in ctx.widget_cands.iter().enumerate() {
        for c in cands {
            let Some(mask) = cover_mask(&bits, &c.cover) else {
                continue;
            };
            all_widgets.push(Candidate {
                entry: MappingEntry::Widget {
                    tree: t,
                    cand: c.clone(),
                },
                mask,
                cost: widget_cost(ctx, t, c, &opts.params),
            });
        }
    }

    for v in v_combos {
        let widgets_local = &all_widgets;
        // Layout-independent view costs (attention switches + table
        // reading) depend only on the assignment sequence and V, so they
        // belong in the Cm ranking.
        let base_cost = v_base_cost(ctx, &v, &opts.params);
        // compute icand for this V (line 22): safe vis interactions.
        let vis_cands: Vec<Candidate> = ctx
            .safe_vis_interactions(&v)
            .iter()
            .filter_map(|cand| {
                let mask = cover_mask(&bits, &cand.cover())?;
                let cost = vis_cost(ctx, cand, &opts.params);
                Some(Candidate {
                    entry: MappingEntry::Vis(cand.clone()),
                    mask,
                    cost,
                })
            })
            .collect();

        let widget_items: Vec<(Mask, f64)> =
            widgets_local.iter().map(|c| (c.mask, c.cost)).collect();
        let mut dp = WidgetDp::new(widget_items, n_bits.max(1), opts.top_k);

        // Group vis-interaction candidates by their lowest covered bit —
        // searchM walks clist (the DFS choice-node order) and either maps
        // the current node to one of these or leaves it for the widget DP.
        let mut vis_by_first_bit: Vec<Vec<usize>> = vec![Vec::new(); n_bits.max(1) as usize];
        for (i, c) in vis_cands.iter().enumerate() {
            if c.mask != 0 {
                vis_by_first_bit[c.mask.trailing_zeros() as usize].push(i);
            }
        }

        let mut chosen: Vec<usize> = Vec::new();
        search_m(
            &SearchMCtx {
                v: &v,
                vis_cands: &vis_cands,
                widgets: widgets_local,
                vis_by_first_bit: &vis_by_first_bit,
                n_bits,
                opts,
            },
            &mut dp,
            0,
            0,
            0,
            base_cost,
            &mut chosen,
            &mut heap,
        );
    }
    heap.items
}

struct SearchMCtx<'a> {
    v: &'a [VisMapping],
    vis_cands: &'a [Candidate],
    widgets: &'a [Candidate],
    vis_by_first_bit: &'a [Vec<usize>],
    n_bits: u32,
    opts: &'a MappingOptions,
}

/// Algorithm 1's searchM: walk the choice nodes in DFS (clist) order. At
/// node `i`, either map it through a compatible visualization interaction
/// whose cover starts here, or reserve it for the widget DP. The pruning
/// bound (line 27) adds `G` over the *reserved* nodes only — nodes not yet
/// reached may still get cheap visualization interactions, so including
/// them would be inadmissible.
#[allow(clippy::too_many_arguments)]
fn search_m(
    ctx: &SearchMCtx<'_>,
    dp: &mut WidgetDp,
    i: u32,
    used: Mask,
    pending: Mask,
    cost_so_far: f64,
    chosen: &mut Vec<usize>,
    heap: &mut TopK,
) {
    if ctx.opts.pruning {
        let bound = cost_so_far + dp.g(pending);
        if bound >= heap.worst() {
            return;
        }
    }
    if i == ctx.n_bits {
        // Complete the cover with the top-k widget assignments (line 30).
        for (wcost, cover) in dp.f(pending) {
            let total = cost_so_far + wcost;
            if total < heap.worst() {
                let mut m: Vec<MappingEntry> = chosen
                    .iter()
                    .map(|&ix| ctx.vis_cands[ix].entry.clone())
                    .collect();
                m.extend(cover.iter().map(|&wi| ctx.widgets[wi].entry.clone()));
                heap.push(ScoredMapping {
                    v: ctx.v.to_vec(),
                    m,
                    cm: total,
                });
            }
        }
        return;
    }
    let bit: Mask = 1 << i;
    if used & bit != 0 {
        // Already covered by an earlier visualization interaction.
        search_m(ctx, dp, i + 1, used, pending, cost_so_far, chosen, heap);
        return;
    }
    // Option A: a visualization interaction whose cover starts at this node
    // (must not overlap anything already mapped or reserved, and must be
    // compatible with the chosen interactions — line 36).
    for &ci in &ctx.vis_by_first_bit[i as usize] {
        let cand = &ctx.vis_cands[ci];
        if cand.mask & (used | pending) != 0 {
            continue;
        }
        let compatible = chosen.iter().all(|&ix| {
            let other = &ctx.vis_cands[ix];
            match (&cand.entry, &other.entry) {
                (MappingEntry::Vis(a), MappingEntry::Vis(b)) => {
                    !(a.view == b.view && a.kind.conflicts_with(b.kind))
                }
                _ => true,
            }
        });
        if !compatible {
            continue;
        }
        chosen.push(ci);
        search_m(
            ctx,
            dp,
            i + 1,
            used | cand.mask,
            pending,
            cost_so_far + cand.cost,
            chosen,
            heap,
        );
        chosen.pop();
    }
    // Option B: leave this node to the widget cover (line 41).
    search_m(
        ctx,
        dp,
        i + 1,
        used,
        pending | bit,
        cost_so_far,
        chosen,
        heap,
    );
}

/// Branch-and-bound layout optimisation (§6.2.2): assign H/V orientations
/// to layout groups minimising the full §5 cost.
pub fn optimise_layout(
    ctx: &MappingContext<'_>,
    mut iface: Interface,
    opts: &MappingOptions,
) -> (Interface, f64) {
    let Some(root) = iface.layout.root.clone() else {
        let c = ctx.cost(&iface, &opts.params);
        return (iface, c);
    };
    let n_groups = root.group_count();
    let n_interactions = iface.interactions.len();
    let n_views = iface.views.len();

    let rebuild = |root: pi2_interface::LayoutNode, iface: &mut Interface| {
        iface.layout = pi2_interface::LayoutTree::place(root, n_interactions, n_views);
    };

    if n_groups == 0 {
        let c = ctx.cost(&iface, &opts.params);
        return (iface, c);
    }

    // Exhaustive orientation search when small; otherwise greedy flips.
    let mut best_root = root.clone();
    rebuild(root.clone(), &mut iface);
    let mut best_cost = ctx.cost(&iface, &opts.params);

    if n_groups <= opts.max_layout_nodes {
        let combos = 1usize << n_groups;
        for combo in 0..combos {
            let mut candidate = root.clone();
            {
                let groups = candidate.groups_mut();
                for (gi, g) in groups.into_iter().enumerate() {
                    if let pi2_interface::LayoutNode::Group { orientation, .. } = g {
                        *orientation = if combo >> gi & 1 == 1 {
                            pi2_interface::Orientation::Horizontal
                        } else {
                            pi2_interface::Orientation::Vertical
                        };
                    }
                }
            }
            rebuild(candidate.clone(), &mut iface);
            let c = ctx.cost(&iface, &opts.params);
            if c < best_cost {
                best_cost = c;
                best_root = candidate;
            }
        }
    } else {
        // Greedy: flip each group once if it helps.
        let mut current = root.clone();
        loop {
            let mut improved = false;
            for gi in 0..n_groups {
                let mut candidate = current.clone();
                {
                    let groups = candidate.groups_mut();
                    if let Some(pi2_interface::LayoutNode::Group { orientation, .. }) =
                        groups.into_iter().nth(gi)
                    {
                        *orientation = orientation.flip();
                    }
                }
                rebuild(candidate.clone(), &mut iface);
                let c = ctx.cost(&iface, &opts.params);
                if c < best_cost {
                    best_cost = c;
                    best_root = candidate.clone();
                    current = candidate;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }
    rebuild(best_root, &mut iface);
    (iface, best_cost)
}

/// Full §6.2.2 final mapping: top-k by `Cm`, then layout-optimise each and
/// return the overall best interface with its full cost.
pub fn best_interface(ctx: &MappingContext<'_>, opts: &MappingOptions) -> Option<(Interface, f64)> {
    let top = generate_top_k(ctx, opts);
    let mut best: Option<(Interface, f64)> = None;
    for scored in top {
        let iface = ctx.build_interface(scored.v.clone(), scored.m.clone());
        let (iface, cost) = optimise_layout(ctx, iface, opts);
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((iface, cost));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_data::{Catalog, DataType, Table, Value};
    use pi2_difftree::{DNode, Forest, Workload};
    use pi2_interface::{InteractionChoice, WidgetKind};
    use pi2_sql::parse_query;

    fn workload() -> Workload {
        let mut c = Catalog::new();
        let rows: Vec<Vec<Value>> = (0..12)
            .map(|i| vec![Value::Int(i % 4), Value::Int(10 * (i % 6))])
            .collect();
        let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap();
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
        let mut tree = w.gsts[0].clone();
        let pred = &mut tree.children[3].children[0];
        let lit = pred.children[1].clone();
        pred.children[1] = DNode::val(vec![lit]);
        Forest::new(vec![tree])
    }

    #[test]
    fn generates_exact_covers() {
        let w = workload();
        let f = val_forest(&w);
        let ctx = MappingContext::build(&f, &w).unwrap();
        let opts = MappingOptions::default();
        let top = generate_top_k(&ctx, &opts);
        assert!(!top.is_empty());
        // Every mapping covers the single choice node exactly once.
        for s in &top {
            let covered: usize = s.m.iter().map(|e| e.cover().len()).sum();
            assert_eq!(covered, 1, "exact cover of 1 choice node");
        }
        // Costs ascend.
        for pair in top.windows(2) {
            assert!(pair[0].cm <= pair[1].cm);
        }
    }

    #[test]
    fn best_interface_prefers_cheap_widgets() {
        let w = workload();
        let f = val_forest(&w);
        let ctx = MappingContext::build(&f, &w).unwrap();
        let opts = MappingOptions::default();
        let (iface, cost) = best_interface(&ctx, &opts).unwrap();
        assert!(cost.is_finite());
        assert_eq!(iface.interactions.len(), 1);
        // The slider (cheap, |d| = 0) should beat radio/dropdown options.
        let InteractionChoice::Widget { kind, .. } = &iface.interactions[0].choice else {
            panic!("expected widget");
        };
        assert!(
            matches!(
                kind,
                WidgetKind::Slider | WidgetKind::Dropdown | WidgetKind::Textbox
            ),
            "got {kind:?}"
        );
    }

    #[test]
    fn pruning_does_not_change_the_result() {
        let w = workload();
        let f = val_forest(&w);
        let ctx = MappingContext::build(&f, &w).unwrap();
        let mut opts = MappingOptions::default();
        let with = generate_top_k(&ctx, &opts);
        opts.pruning = false;
        let without = generate_top_k(&ctx, &opts);
        assert_eq!(with.len(), without.len());
        for (a, b) in with.iter().zip(without.iter()) {
            assert!((a.cm - b.cm).abs() < 1e-9);
        }
    }

    #[test]
    fn layout_optimisation_never_increases_cost() {
        let w = workload();
        let f = val_forest(&w);
        let ctx = MappingContext::build(&f, &w).unwrap();
        let opts = MappingOptions::default();
        let top = generate_top_k(&ctx, &opts);
        let iface = ctx.build_interface(top[0].v.clone(), top[0].m.clone());
        let base_cost = ctx.cost(&iface, &opts.params);
        let (_, optimised) = optimise_layout(&ctx, iface, &opts);
        assert!(optimised <= base_cost + 1e-9);
    }

    /// `MappingContext` is built per evaluated state on a search worker and
    /// must stay movable across threads.
    const _: fn() = || {
        fn send<T: Send>() {}
        send::<MappingContext<'static>>();
    };

    /// One input query's step of the §5 walk: the view that renders it and
    /// the interactions (in DFS order) whose covered bindings change.
    struct QueryPlan {
        view: usize,
        widgets: Vec<usize>,
    }

    /// The per-input-query plans: re-project every query's binding onto
    /// every cover.
    fn manipulations_reference(ctx: &MappingContext<'_>, iface: &Interface) -> Vec<QueryPlan> {
        type Projection = Vec<(u32, Option<pi2_interface::BoundValue>)>;
        let mut last: HashMap<(usize, usize), Projection> = HashMap::new();
        let mut out = Vec::with_capacity(ctx.assignments.len());
        for a in &ctx.assignments {
            let mut manipulated = Vec::new();
            for (ix, inst) in iface.interactions.iter().enumerate() {
                if !inst.targets_tree(a.tree) {
                    continue;
                }
                let proj: Projection = inst
                    .cover
                    .iter()
                    .filter_map(|id| {
                        let n = ctx.forest.node_in_tree(a.tree, *id)?;
                        Some((*id, pi2_interface::bound_value(n, &a.binding)))
                    })
                    .collect();
                if proj.is_empty() {
                    continue;
                }
                if last.get(&(ix, a.tree)) != Some(&proj) {
                    manipulated.push(ix);
                    last.insert((ix, a.tree), proj);
                }
            }
            out.push(QueryPlan {
                view: a.tree,
                widgets: manipulated,
            });
        }
        out
    }

    /// The §5 sum over per-query plans, recomputing each manipulation's
    /// cost and box at every use.
    fn interface_cost_reference(
        iface: &Interface,
        plans: &[QueryPlan],
        params: &CostParams,
    ) -> f64 {
        use pi2_interface::{fitts_time, manipulation_cost, InteractionChoice, Rect};
        let interaction_box = |ix: usize| -> Rect {
            match &iface.interactions[ix].choice {
                InteractionChoice::Widget { .. } => iface.layout.widget_boxes[ix],
                InteractionChoice::Vis { view, .. } => iface
                    .layout
                    .vis_boxes
                    .get(*view)
                    .copied()
                    .unwrap_or_default(),
            }
        };
        let mut total = 0.0;
        let mut position: Option<Rect> = None;
        let mut current_view: Option<usize> = None;
        let view_factor = 1.0 + 0.15 * (iface.views.len().saturating_sub(1) as f64);
        for plan in plans {
            if current_view != Some(plan.view) {
                let target = iface
                    .layout
                    .vis_boxes
                    .get(plan.view)
                    .copied()
                    .unwrap_or_default();
                let table_extra = match iface.views.get(plan.view) {
                    Some(v) if v.vis.kind == pi2_interface::VisKind::Table => params.table_read,
                    _ => 0.0,
                };
                if let Some(prev) = position {
                    total += fitts_time(&prev, &target, params)
                        + params.view_read * view_factor
                        + table_extra;
                } else {
                    total += table_extra;
                }
                position = Some(target);
                current_view = Some(plan.view);
            }
            for &ix in &plan.widgets {
                total += manipulation_cost(iface, ix, params);
                let target = interaction_box(ix);
                if let Some(prev) = position {
                    total += fitts_time(&prev, &target, params);
                }
                position = Some(target);
            }
        }
        if let Some((max_w, max_h)) = params.max_size {
            let (w, h) = iface.layout.size;
            total += params.alpha * ((w - max_w).max(0.0) + (h - max_h).max(0.0));
        }
        total
    }

    /// The per-input-query manipulation count that
    /// `MappingContext::manip_count` replaced.
    fn manip_count_reference(ctx: &MappingContext<'_>, tree: usize, cover: &[u32]) -> usize {
        let mut last: Option<Vec<(u32, Option<pi2_interface::BoundValue>)>> = None;
        let mut count = 0;
        for a in &ctx.assignments {
            if a.tree != tree {
                continue;
            }
            let proj: Vec<(u32, Option<pi2_interface::BoundValue>)> = cover
                .iter()
                .map(|id| {
                    (
                        *id,
                        ctx.forest
                            .node_in_tree(tree, *id)
                            .and_then(|n| pi2_interface::bound_value(n, &a.binding)),
                    )
                })
                .collect();
            if last.as_ref() != Some(&proj) {
                count += 1;
                last = Some(proj);
            }
        }
        count.max(1)
    }

    /// The toy logs' states: the clustered and canonicalized states and
    /// their children.
    fn toy_states(w: &Workload) -> Vec<Forest> {
        use pi2_difftree::{applicable_actions, apply_action, transform::canonicalize};
        let initial = crate::initial_state(w);
        let mut states = vec![canonicalize(&initial, w, 48), initial];
        for parent in states.clone() {
            states.extend(
                applicable_actions(&parent, w)
                    .into_iter()
                    .filter_map(|act| apply_action(&parent, w, act)),
            );
        }
        states
    }

    /// A paper log's states: the clustered state, its canonical form, and
    /// the states along two seeded 3-step walks of applied actions from
    /// each of them.
    fn walked_states(w: &Workload) -> Vec<Forest> {
        use pi2_difftree::{apply_action, candidate_actions, transform::canonicalize};
        let initial = crate::initial_state(w);
        let mut states = vec![canonicalize(&initial, w, 48), initial];
        for start in states.clone() {
            for seed in [11u64, 29] {
                let mut rng = seed;
                let mut state = start.clone();
                for _ in 0..3 {
                    let actions = candidate_actions(&state, w);
                    rng = rng
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let at = (rng >> 33) as usize;
                    let Some(next) = (0..actions.len())
                        .find_map(|k| apply_action(&state, w, actions[(at + k) % actions.len()]))
                    else {
                        break;
                    };
                    states.push(next.clone());
                    state = next;
                }
            }
        }
        states
    }

    /// The memoized projection-id walk (one projection per distinct query
    /// and cover) prices every sampled interface bit-identically to the
    /// per-input-query reference sum, and its manipulation counts equal
    /// the reference: on toy logs with duplicates adjacent, duplicates
    /// cycled and no duplicates, and on the seven paper logs plus Filter
    /// duplicated to 90 queries.
    #[test]
    fn distinct_query_walk_matches_per_query_reference() {
        use rand::SeedableRng;
        let (a, b, c, d) = (
            "SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a",
            "SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a",
            "SELECT a, count(*) FROM T WHERE b = 20 AND a = 1 GROUP BY a",
            "SELECT b, count(*) FROM T WHERE a = 2 GROUP BY b",
        );
        let toy: [&[&str]; 3] = [
            &[a, a, b, b, c, d, d, a],
            &[a, b, c, d, a, b, c, d, a, b],
            &[a, b, c, d],
        ];
        let mut cases: Vec<(String, Workload, bool)> = toy
            .iter()
            .map(|sqls| {
                let queries = sqls.iter().map(|q| parse_query(q).unwrap()).collect();
                let w = Workload::new(queries, workload().catalog);
                (format!("{sqls:?}"), w, false)
            })
            .collect();
        let mut paper: Vec<(String, Vec<String>)> = pi2_workloads::all_logs()
            .into_iter()
            .map(|l| (l.name.to_string(), l.queries))
            .collect();
        let dup = pi2_workloads::logs::duplicated(pi2_workloads::LogKind::Filter, 90);
        paper.push(("filter_x90".to_string(), dup.queries));
        for (name, sqls) in paper {
            let queries = sqls.iter().map(|q| parse_query(q).unwrap()).collect();
            let w = Workload::new(queries, pi2_workloads::catalog());
            cases.push((name, w, true));
        }
        let params = CostParams::default();
        for (name, w, walked) in &cases {
            let states = if *walked {
                walked_states(w)
            } else {
                toy_states(w)
            };
            let mut manipulations = 0;
            let mut priced = 0;
            for state in &states {
                let Some(ctx) = MappingContext::build(state, w) else {
                    continue;
                };
                // Every cover against every tree, its own and the others.
                let check_counts = |cover: &[u32]| {
                    for t in 0..state.trees.len() {
                        assert_eq!(
                            ctx.manip_count(t, cover),
                            manip_count_reference(&ctx, t, cover),
                            "{name}, tree {t}, cover {cover:?}"
                        );
                    }
                };
                for cand in ctx.widget_cands.iter().flatten() {
                    check_counts(&cand.cover);
                }
                let first_v: Vec<VisMapping> = ctx.vis_cands.iter().map(|c| c[0].clone()).collect();
                for cand in ctx.safe_vis_interactions(&first_v).iter() {
                    check_counts(&cand.cover());
                }
                let mut rng = rand::rngs::StdRng::seed_from_u64(state.key().seed());
                let sampled =
                    (0..10).filter_map(|_| crate::random_interface(&ctx, &mut rng, &params));
                for (iface, cost) in crate::greedy_interface(&ctx, &params)
                    .into_iter()
                    .chain(sampled)
                {
                    let plans = manipulations_reference(&ctx, &iface);
                    let want = interface_cost_reference(&iface, &plans, &params);
                    assert_eq!(cost.to_bits(), want.to_bits(), "{name}: {cost} vs {want}");
                    assert_eq!(
                        ctx.cost(&iface, &params).to_bits(),
                        want.to_bits(),
                        "{name}"
                    );
                    manipulations += plans.iter().map(|p| p.widgets.len()).sum::<usize>();
                    priced += 1;
                    for inst in &iface.interactions {
                        check_counts(&inst.cover);
                    }
                }
            }
            assert!(priced > 0, "{name}: no state could be mapped");
            assert!(
                manipulations > 0,
                "{name}: no sampled interface manipulates"
            );
        }
    }

    #[test]
    fn multi_choice_cover_dp() {
        // Two choice nodes (two VALs under a BETWEEN): the DP must find
        // both the range-slider (covers 2) and two-slider covers.
        let mut c = Catalog::new();
        let rows: Vec<Vec<Value>> = (0..20).map(|i| vec![Value::Int(i)]).collect();
        let t = Table::from_rows(vec![("a", DataType::Int)], rows).unwrap();
        c.add_table("T", t, vec![]);
        let w = Workload::new(
            vec![
                parse_query("SELECT a FROM T WHERE a BETWEEN 2 AND 9").unwrap(),
                parse_query("SELECT a FROM T WHERE a BETWEEN 4 AND 12").unwrap(),
            ],
            c,
        );
        let mut tree = w.gsts[0].clone();
        let pred = &mut tree.children[3].children[0];
        for i in [1usize, 2] {
            let lit = pred.children[i].clone();
            pred.children[i] = DNode::val(vec![lit]);
        }
        let f = Forest::new(vec![tree]);
        let ctx = MappingContext::build(&f, &w).unwrap();
        let opts = MappingOptions::default();
        let top = generate_top_k(&ctx, &opts);
        assert!(!top.is_empty());
        // Some mapping uses a single 2-cover widget (range slider).
        let has_range = top.iter().any(|s| {
            s.m.iter().any(|e| {
                matches!(e, MappingEntry::Widget { cand, .. }
                    if cand.kind == WidgetKind::RangeSlider)
            })
        });
        assert!(has_range, "range slider cover expected");
        // And the exact-cover property holds everywhere.
        for s in &top {
            let total: usize = s.m.iter().map(|e| e.cover().len()).sum();
            assert_eq!(total, 2);
        }
    }
}

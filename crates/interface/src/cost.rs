//! The interface cost model (§5): `C(I, Q) = CU(I, Q) + CL(I)` with
//! `CU = Cm + Cnav`.
//!
//! * **Manipulation** `Cm(w) = a0 + a1·|w.d| + a2·|w.d|²` — the SUPPLE
//!   second-order polynomial over the widget's domain size; enumerated
//!   widgets use their option count as `|w.d|`, everything else 0.
//!   Visualization interactions get a low constant "to encourage choosing
//!   them".
//! * **Navigation** `Cnav` — Fitts' law `a + b·log2(2D/W)` between the
//!   bounding boxes of consecutively manipulated interactions, with `a = 1,
//!   b = 25` (the paper's prototype constants), `D` the centroid distance
//!   and `W` the minimum extent of the target box.
//! * **Layout** `CL = α·(max(0, w−W) + max(0, h−H))` when the user supplies
//!   a maximum screen size.

use crate::iface::{InteractionChoice, Interface};
use crate::layout::Rect;
use crate::widget::WidgetKind;

/// Cost model constants, all in estimated **milliseconds** of user time.
///
/// The paper states `fitts_a = 1, fitts_b = 25` (Fitts' law in ms) and fits
/// the widget manipulation polynomials to interaction traces from prior
/// work; we use realistic fixed HCI estimates at the second scale
/// (≈800–2500 ms per widget manipulation, see [`widget_poly`]) so that the
/// two terms combine on one scale (DESIGN.md §2). `view_read` charges the
/// user for switching attention to a different chart — this is what makes
/// redundant static charts costly (the appendix Figure 19 effect) while
/// same-view interactions stay cheap.
#[derive(Debug, Clone)]
pub struct CostParams {
    /// The fitts a.
    pub fitts_a: f64,
    /// The fitts b.
    pub fitts_b: f64,
    /// Low constant cost for visualization interactions (§5 sets these low
    /// "to encourage choosing them").
    pub vis_interaction_cost: f64,
    /// Attention cost of switching to a different view (ms).
    pub view_read: f64,
    /// Extra reading cost for table views (scanning rows is slower than
    /// reading a chart; also breaks vis-selection ties toward charts).
    pub table_read: f64,
    /// Screen-size penalty factor (ms per px beyond the maximum).
    pub alpha: f64,
    /// Optional maximum interface size (width, height) in pixels.
    pub max_size: Option<(f64, f64)>,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            fitts_a: 1.0,
            fitts_b: 25.0,
            vis_interaction_cost: 150.0,
            view_read: 1500.0,
            table_read: 300.0,
            alpha: 2.0,
            max_size: None,
        }
    }
}

/// Manipulation polynomial constants per widget kind: `(a0, a1, a2)` in
/// milliseconds. Enumerating widgets pay per option; free-entry widgets pay
/// a higher constant (typing); toggles are cheapest.
pub fn widget_poly(kind: WidgetKind) -> (f64, f64, f64) {
    match kind {
        WidgetKind::Toggle => (300.0, 0.0, 0.0),
        WidgetKind::Button => (400.0, 80.0, 6.0),
        WidgetKind::Radio => (400.0, 100.0, 8.0),
        WidgetKind::Checkbox => (450.0, 100.0, 8.0),
        WidgetKind::Dropdown => (600.0, 50.0, 4.0),
        WidgetKind::Slider => (500.0, 0.0, 0.0),
        WidgetKind::RangeSlider => (700.0, 0.0, 0.0),
        WidgetKind::Textbox => (1500.0, 0.0, 0.0),
        WidgetKind::Adder => (1800.0, 0.0, 0.0),
    }
}

/// `Cm` for a single manipulation of interaction `ix`.
pub fn manipulation_cost(iface: &Interface, ix: usize, params: &CostParams) -> f64 {
    match &iface.interactions[ix].choice {
        InteractionChoice::Widget { kind, domain, .. } => {
            let (a0, a1, a2) = widget_poly(*kind);
            let d = domain.size() as f64;
            a0 + a1 * d * domain.reading_factor() + a2 * d * d
        }
        InteractionChoice::Vis { .. } => params.vis_interaction_cost,
    }
}

/// Fitts'-law movement time between two boxes (§5, Example 9).
pub fn fitts_time(from: &Rect, to: &Rect, params: &CostParams) -> f64 {
    let (fx, fy) = from.center();
    let (tx, ty) = to.center();
    let d = ((fx - tx).powi(2) + (fy - ty).powi(2)).sqrt();
    if d <= f64::EPSILON {
        return 0.0;
    }
    let w = to.fitts_width();
    params.fitts_a + params.fitts_b * (2.0 * d / w).log2().max(0.0)
}

/// Bounding box of an interaction: widgets have their own boxes;
/// visualization interactions use their chart's box.
fn interaction_box(iface: &Interface, ix: usize) -> Rect {
    match &iface.interactions[ix].choice {
        InteractionChoice::Widget { .. } => iface.layout.widget_boxes[ix],
        InteractionChoice::Vis { view, .. } => iface
            .layout
            .vis_boxes
            .get(*view)
            .copied()
            .unwrap_or_default(),
    }
}

/// The §5 cost of one interface, accumulated over the query sequence in
/// order: the caller reports each query's view ([`CostWalk::visit_view`])
/// and then each interaction it manipulates for that query, in Difftree
/// DFS order ([`CostWalk::manipulate`]).
///
/// Expressing a query costs: a Fitts'-law *view visit* when the view that
/// renders it differs from the previous query's view (this is what makes
/// redundant static charts expensive — cf. the appendix's Figure 19, where
/// one extra static chart lowers interface quality), plus, for every
/// manipulated interaction, navigation to it and its manipulation cost.
/// Each interaction's manipulation cost and box are computed once.
pub struct CostWalk<'a> {
    iface: &'a Interface,
    params: &'a CostParams,
    /// Per interaction: its manipulation cost and bounding box.
    interactions: Vec<(f64, Rect)>,
    /// Visual search scales with the number of charts on screen (a
    /// Hick's-law-style factor): switching attention among eight charts is
    /// costlier than between two. This is what prices out degenerate
    /// one-static-chart-per-query designs.
    view_factor: f64,
    total: f64,
    position: Option<Rect>,
    current_view: Option<usize>,
}

impl<'a> CostWalk<'a> {
    /// A walk over `iface` that has priced no query yet.
    pub fn new(iface: &'a Interface, params: &'a CostParams) -> Self {
        CostWalk {
            iface,
            params,
            interactions: (0..iface.interactions.len())
                .map(|ix| {
                    (
                        manipulation_cost(iface, ix, params),
                        interaction_box(iface, ix),
                    )
                })
                .collect(),
            view_factor: 1.0 + 0.15 * (iface.views.len().saturating_sub(1) as f64),
            total: 0.0,
            position: None,
            current_view: None,
        }
    }

    /// Start the next query, rendered by `view`.
    pub fn visit_view(&mut self, view: usize) {
        if self.current_view == Some(view) {
            return;
        }
        let params = self.params;
        let target = self
            .iface
            .layout
            .vis_boxes
            .get(view)
            .copied()
            .unwrap_or_default();
        let table_extra = match self.iface.views.get(view) {
            Some(v) if v.vis.kind == crate::vis::VisKind::Table => params.table_read,
            _ => 0.0,
        };
        if let Some(prev) = self.position {
            self.total += fitts_time(&prev, &target, params)
                + params.view_read * self.view_factor
                + table_extra;
        } else {
            // The first view visit is free except for table reading.
            self.total += table_extra;
        }
        self.position = Some(target);
        self.current_view = Some(view);
    }

    /// Manipulate interaction `ix` for the current query.
    pub fn manipulate(&mut self, ix: usize) {
        let (cost, target) = self.interactions[ix];
        self.total += cost;
        if let Some(prev) = self.position {
            self.total += fitts_time(&prev, &target, self.params);
        }
        self.position = Some(target);
    }

    /// The total over the queries walked, plus the layout penalty.
    pub fn finish(self) -> f64 {
        let mut total = self.total;
        if let Some((max_w, max_h)) = self.params.max_size {
            let (w, h) = self.iface.layout.size;
            total += self.params.alpha * ((w - max_w).max(0.0) + (h - max_h).max(0.0));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{InteractionChoice, InteractionInstance, Interface, View};
    use crate::layout::{LayoutNode, LayoutTree, Orientation};
    use crate::vis::{VisKind, VisMapping};
    use crate::widget::WidgetDomain;

    fn widget_iface(kinds: &[(WidgetKind, usize)]) -> Interface {
        let interactions: Vec<InteractionInstance> = kinds
            .iter()
            .map(|(k, opts)| InteractionInstance {
                target_tree: 0,
                target_node: 0,
                cover: vec![],
                extra_targets: vec![],
                choice: InteractionChoice::Widget {
                    kind: *k,
                    domain: if *opts > 0 {
                        WidgetDomain::Options((0..*opts).map(|i| format!("o{i}")).collect())
                    } else {
                        WidgetDomain::Free
                    },
                    label: "w".into(),
                },
            })
            .collect();
        let children: Vec<LayoutNode> = (0..kinds.len())
            .map(|i| LayoutNode::Widget {
                interaction: i,
                size: (100.0, 25.0),
            })
            .collect();
        let root = LayoutNode::Group {
            orientation: Orientation::Vertical,
            children,
        };
        let layout = LayoutTree::place(root, kinds.len(), 0);
        Interface {
            views: vec![View {
                tree: 0,
                vis: VisMapping {
                    kind: VisKind::Point,
                    assignments: vec![],
                },
            }],
            interactions,
            layout,
        }
    }

    #[test]
    fn manipulation_cost_grows_with_options() {
        let iface = widget_iface(&[(WidgetKind::Radio, 2), (WidgetKind::Radio, 12)]);
        let p = CostParams::default();
        let small = manipulation_cost(&iface, 0, &p);
        let large = manipulation_cost(&iface, 1, &p);
        assert!(large > small);
    }

    #[test]
    fn vis_interactions_are_cheap() {
        let mut iface = widget_iface(&[(WidgetKind::Radio, 5)]);
        iface.interactions.push(InteractionInstance {
            target_tree: 0,
            target_node: 0,
            cover: vec![],
            extra_targets: vec![],
            choice: InteractionChoice::Vis {
                view: 0,
                kind: crate::interaction::InteractionKind::Pan,
                event_cols: vec![],
            },
        });
        let p = CostParams::default();
        assert!(manipulation_cost(&iface, 1, &p) < manipulation_cost(&iface, 0, &p));
        assert_eq!(manipulation_cost(&iface, 1, &p), p.vis_interaction_cost);
    }

    #[test]
    fn fitts_increases_with_distance_and_small_targets() {
        let p = CostParams::default();
        let a = Rect {
            x: 0.0,
            y: 0.0,
            w: 100.0,
            h: 25.0,
        };
        let near = Rect {
            x: 0.0,
            y: 30.0,
            w: 100.0,
            h: 25.0,
        };
        let far = Rect {
            x: 0.0,
            y: 600.0,
            w: 100.0,
            h: 25.0,
        };
        let tiny_far = Rect {
            x: 0.0,
            y: 600.0,
            w: 10.0,
            h: 10.0,
        };
        assert!(fitts_time(&a, &near, &p) < fitts_time(&a, &far, &p));
        assert!(fitts_time(&a, &far, &p) < fitts_time(&a, &tiny_far, &p));
        assert_eq!(fitts_time(&a, &a, &p), 0.0);
    }

    /// The cost of expressing one query per `(view, manipulated
    /// interactions)` pair, in order.
    fn interface_cost(iface: &Interface, plans: &[(usize, Vec<usize>)], p: &CostParams) -> f64 {
        let mut walk = CostWalk::new(iface, p);
        for (view, manipulated) in plans {
            walk.visit_view(*view);
            for &ix in manipulated {
                walk.manipulate(ix);
            }
        }
        walk.finish()
    }

    #[test]
    fn interface_cost_accumulates_over_queries() {
        let iface = widget_iface(&[(WidgetKind::Radio, 2), (WidgetKind::Slider, 0)]);
        let p = CostParams::default();
        // Example 9's pattern: w1, w2 for Q1, then w1, w2 again for Q2.
        let one = interface_cost(&iface, &[(0, vec![0, 1])], &p);
        let two = interface_cost(&iface, &[(0, vec![0, 1]), (0, vec![0, 1])], &p);
        assert!(two > one * 1.8, "second query pays navigation back");
    }

    #[test]
    fn same_view_static_queries_cost_nothing_extra() {
        let iface = widget_iface(&[(WidgetKind::Radio, 2)]);
        let p = CostParams::default();
        // Re-expressing queries on the same view with no widget changes.
        let c = interface_cost(&iface, &[(0, vec![]), (0, vec![])], &p);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn view_switches_cost_navigation() {
        // Two views stacked vertically; alternating queries pay view
        // visits (the Figure 19 effect: redundant charts are not free).
        let root = LayoutNode::Group {
            orientation: Orientation::Vertical,
            children: vec![
                LayoutNode::Vis {
                    view: 0,
                    size: (320.0, 240.0),
                },
                LayoutNode::Vis {
                    view: 1,
                    size: (320.0, 240.0),
                },
            ],
        };
        let layout = LayoutTree::place(root, 0, 2);
        let iface = Interface {
            views: vec![
                View {
                    tree: 0,
                    vis: VisMapping {
                        kind: VisKind::Point,
                        assignments: vec![],
                    },
                },
                View {
                    tree: 1,
                    vis: VisMapping {
                        kind: VisKind::Point,
                        assignments: vec![],
                    },
                },
            ],
            interactions: vec![],
            layout,
        };
        let p = CostParams::default();
        let single = interface_cost(&iface, &[(0, vec![])], &p);
        assert_eq!(single, 0.0, "first view visit is free");
        let alternating = interface_cost(&iface, &[(0, vec![]), (1, vec![]), (0, vec![])], &p);
        assert!(alternating > 0.0, "view switches pay Fitts navigation");
    }

    #[test]
    fn layout_penalty_applies_beyond_max_size() {
        let iface = widget_iface(&[(WidgetKind::Radio, 2)]);
        let mut p = CostParams {
            max_size: Some((50.0, 10.0)),
            ..CostParams::default()
        };
        let with_penalty = interface_cost(&iface, &[(0, vec![0])], &p);
        p.max_size = None;
        let without = interface_cost(&iface, &[(0, vec![0])], &p);
        assert!(with_penalty > without);
    }

    #[test]
    fn widget_poly_ordering_matches_design() {
        // Toggles cheapest; textboxes/adders most expensive at |d| = 0.
        let at0 = |k: WidgetKind| {
            let (a0, _, _) = widget_poly(k);
            a0
        };
        assert!(at0(WidgetKind::Toggle) < at0(WidgetKind::Radio));
        assert!(at0(WidgetKind::Radio) < at0(WidgetKind::Textbox));
        assert!(at0(WidgetKind::Textbox) < at0(WidgetKind::Adder));
    }
}

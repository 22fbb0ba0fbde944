//! Layout mapping (§4.3).
//!
//! After V and M mapping, widget-mapped Difftree nodes become layout
//! leaves. For each Difftree we build a layout tree from the widgets'
//! least-common-ancestor structure; the Difftree's layout tree is a node
//! whose children are the widget tree and the visualization; the final
//! layout is a root node over all Difftrees' layout trees. Every layout
//! node is oriented horizontally or vertically, and bounding boxes are
//! estimated from widget initialisation parameters (option text lengths
//! etc.) — these feed the Fitts'-law navigation cost and the screen-size
//! penalty.

use crate::widget::{WidgetDomain, WidgetKind};
use pi2_difftree::DNode;
use std::fmt;

/// Orientation of a layout node's children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// `Horizontal`.
    Horizontal,
    /// `Vertical`.
    Vertical,
}

impl Orientation {
    /// The opposite orientation.
    pub fn flip(self) -> Orientation {
        match self {
            Orientation::Horizontal => Orientation::Vertical,
            Orientation::Vertical => Orientation::Horizontal,
        }
    }
}

/// A rectangle in interface coordinates (pixels).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Left edge (px).
    pub x: f64,
    /// Top edge (px).
    pub y: f64,
    /// Width (px).
    pub w: f64,
    /// Height (px).
    pub h: f64,
}

impl Rect {
    /// Centroid of the box.
    pub fn center(&self) -> (f64, f64) {
        (self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Fitts'-law target width: the minimum of the box's extents (§5,
    /// MacKenzie-Buxton).
    pub fn fitts_width(&self) -> f64 {
        self.w.min(self.h).max(1.0)
    }
}

/// A layout tree node.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // inline variant fields are self-describing
pub enum LayoutNode {
    /// A widget leaf: the index into the interface's interaction list.
    Widget {
        interaction: usize,
        size: (f64, f64),
    },
    /// A visualization leaf: the index into the interface's view list.
    Vis { view: usize, size: (f64, f64) },
    /// An internal node laying out its children.
    Group {
        orientation: Orientation,
        children: Vec<LayoutNode>,
    },
}

impl LayoutNode {
    /// Natural (unoriented) size of this subtree under the current
    /// orientations.
    pub fn size(&self) -> (f64, f64) {
        match self {
            LayoutNode::Widget { size, .. } | LayoutNode::Vis { size, .. } => *size,
            LayoutNode::Group {
                orientation,
                children,
            } => {
                let mut w: f64 = 0.0;
                let mut h: f64 = 0.0;
                for c in children {
                    let (cw, ch) = c.size();
                    match orientation {
                        Orientation::Horizontal => {
                            w += cw + GAP;
                            h = h.max(ch);
                        }
                        Orientation::Vertical => {
                            w = w.max(cw);
                            h += ch + GAP;
                        }
                    }
                }
                (w, h)
            }
        }
    }

    /// Iterate over every group node mutably (for orientation assignment).
    pub fn groups_mut(&mut self) -> Vec<&mut LayoutNode> {
        let mut out: Vec<*mut LayoutNode> = Vec::new();
        fn collect(n: &mut LayoutNode, out: &mut Vec<*mut LayoutNode>) {
            if matches!(n, LayoutNode::Group { .. }) {
                out.push(n as *mut LayoutNode);
            }
            if let LayoutNode::Group { children, .. } = n {
                for c in children {
                    collect(c, out);
                }
            }
        }
        collect(self, &mut out);
        // SAFETY: the pointers are distinct nodes of a tree we mutably own.
        out.into_iter().map(|p| unsafe { &mut *p }).collect()
    }

    /// Count group nodes.
    pub fn group_count(&self) -> usize {
        match self {
            LayoutNode::Group { children, .. } => {
                1 + children.iter().map(|c| c.group_count()).sum::<usize>()
            }
            _ => 0,
        }
    }
}

/// Pixel gap between siblings.
const GAP: f64 = 8.0;

/// A fully positioned layout: the tree plus computed bounding boxes for
/// every leaf (indexed by interaction / view).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayoutTree {
    /// The root.
    pub root: Option<LayoutNode>,
    /// Bounding box per interaction index.
    pub widget_boxes: Vec<Rect>,
    /// Bounding box per view index.
    pub vis_boxes: Vec<Rect>,
    /// Total interface size.
    pub size: (f64, f64),
}

impl LayoutTree {
    /// Compute bounding boxes from the tree's current orientations.
    pub fn place(root: LayoutNode, n_interactions: usize, n_views: usize) -> LayoutTree {
        let mut t = LayoutTree {
            widget_boxes: vec![Rect::default(); n_interactions],
            vis_boxes: vec![Rect::default(); n_views],
            size: root.size(),
            root: Some(root),
        };
        if let Some(root) = t.root.clone() {
            t.assign(&root, 0.0, 0.0);
        }
        t
    }

    fn assign(&mut self, node: &LayoutNode, x: f64, y: f64) {
        match node {
            LayoutNode::Widget { interaction, size } => {
                if let Some(b) = self.widget_boxes.get_mut(*interaction) {
                    *b = Rect {
                        x,
                        y,
                        w: size.0,
                        h: size.1,
                    };
                }
            }
            LayoutNode::Vis { view, size } => {
                if let Some(b) = self.vis_boxes.get_mut(*view) {
                    *b = Rect {
                        x,
                        y,
                        w: size.0,
                        h: size.1,
                    };
                }
            }
            LayoutNode::Group {
                orientation,
                children,
            } => {
                let mut cx = x;
                let mut cy = y;
                for c in children {
                    self.assign(c, cx, cy);
                    let (cw, ch) = c.size();
                    match orientation {
                        Orientation::Horizontal => cx += cw + GAP,
                        Orientation::Vertical => cy += ch + GAP,
                    }
                }
            }
        }
    }
}

impl fmt::Display for LayoutTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(n: &LayoutNode, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            let pad = "  ".repeat(depth);
            match n {
                LayoutNode::Widget { interaction, .. } => {
                    writeln!(f, "{pad}widget #{interaction}")
                }
                LayoutNode::Vis { view, .. } => writeln!(f, "{pad}vis #{view}"),
                LayoutNode::Group {
                    orientation,
                    children,
                } => {
                    writeln!(
                        f,
                        "{pad}{}",
                        match orientation {
                            Orientation::Horizontal => "H",
                            Orientation::Vertical => "V",
                        }
                    )?;
                    for c in children {
                        go(c, f, depth + 1)?;
                    }
                    Ok(())
                }
            }
        }
        match &self.root {
            Some(r) => go(r, f, 0),
            None => writeln!(f, "(empty layout)"),
        }
    }
}

/// Estimated pixel size of a widget from its kind and initialisation
/// parameters (§4.3: "we also estimate text and widget sizes based on their
/// initialization parameters").
pub fn widget_size(kind: WidgetKind, domain: &WidgetDomain, label: &str) -> (f64, f64) {
    const CHAR_W: f64 = 7.0;
    let longest_option = match domain {
        WidgetDomain::Options(opts) => opts.iter().map(|o| o.len()).max().unwrap_or(4) as f64,
        _ => 8.0,
    };
    let label_w = label.len() as f64 * CHAR_W;
    match kind {
        WidgetKind::Radio | WidgetKind::Checkbox => {
            let n = domain.size().max(1) as f64;
            (
                (longest_option * CHAR_W + 24.0).max(label_w),
                18.0 * n + 18.0,
            )
        }
        WidgetKind::Button => {
            let n = domain.size().max(1) as f64;
            (n * (longest_option * CHAR_W + 16.0), 26.0)
        }
        WidgetKind::Dropdown => ((longest_option * CHAR_W + 34.0).max(label_w), 26.0),
        WidgetKind::Textbox => (130.0_f64.max(label_w), 26.0),
        WidgetKind::Toggle => (46.0_f64.max(label_w.min(160.0)), 22.0),
        WidgetKind::Slider => (160.0, 30.0),
        WidgetKind::RangeSlider => (160.0, 34.0),
        WidgetKind::Adder => (150.0, 30.0),
    }
}

/// Estimated pixel size of a visualization.
pub fn vis_size(kind: crate::vis::VisKind) -> (f64, f64) {
    match kind {
        crate::vis::VisKind::Table => (380.0, 260.0),
        _ => (320.0, 240.0),
    }
}

/// Build the widget layout tree `WΔ` for one Difftree (§4.3): the tree is
/// the Difftree filtered to widget-mapped nodes, with a group node at
/// every branching ancestor (the LCA of each widget pair).
///
/// `widgets` maps Difftree node id → interaction index.
pub fn widget_tree_for(tree: &DNode, widgets: &[(u32, usize, (f64, f64))]) -> Option<LayoutNode> {
    fn go(node: &DNode, widgets: &[(u32, usize, (f64, f64))], out: &mut Vec<LayoutNode>) {
        // A widget on this node is a leaf; widgets on descendants nest
        // beneath it ("layout widgets" such as toggles with dependent
        // controls).
        let Some(&(_, ix, size)) = widgets.iter().find(|(id, _, _)| *id == node.id) else {
            for c in &node.children {
                go(c, widgets, out);
            }
            return;
        };
        let w = LayoutNode::Widget {
            interaction: ix,
            size,
        };
        let mut below: Vec<LayoutNode> = Vec::new();
        for c in &node.children {
            go(c, widgets, &mut below);
        }
        if below.is_empty() {
            out.push(w);
        } else {
            // The widget heads a sub-interface group.
            let mut children = vec![w];
            children.extend(below);
            out.push(LayoutNode::Group {
                orientation: Orientation::Vertical,
                children,
            });
        }
    }
    if widgets.is_empty() {
        return None;
    }
    let mut nodes = Vec::new();
    go(tree, widgets, &mut nodes);
    match nodes.len() {
        0 => None,
        1 => Some(nodes.pop().unwrap()),
        _ => Some(LayoutNode::Group {
            orientation: Orientation::Vertical,
            children: nodes,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(ix: usize) -> LayoutNode {
        LayoutNode::Widget {
            interaction: ix,
            size: (100.0, 20.0),
        }
    }

    #[test]
    fn horizontal_and_vertical_sizes() {
        let g = LayoutNode::Group {
            orientation: Orientation::Horizontal,
            children: vec![w(0), w(1)],
        };
        let (gw, gh) = g.size();
        assert!(gw > 200.0 && gh == 20.0);
        let g = LayoutNode::Group {
            orientation: Orientation::Vertical,
            children: vec![w(0), w(1)],
        };
        let (gw, gh) = g.size();
        assert!(gw == 100.0 && gh > 40.0);
    }

    #[test]
    fn placement_assigns_boxes() {
        let root = LayoutNode::Group {
            orientation: Orientation::Vertical,
            children: vec![
                LayoutNode::Vis {
                    view: 0,
                    size: (320.0, 240.0),
                },
                LayoutNode::Group {
                    orientation: Orientation::Horizontal,
                    children: vec![w(0), w(1)],
                },
            ],
        };
        let t = LayoutTree::place(root, 2, 1);
        assert_eq!(t.vis_boxes[0].x, 0.0);
        assert!(t.widget_boxes[0].y > 240.0, "widgets below the chart");
        assert!(t.widget_boxes[1].x > t.widget_boxes[0].x);
        assert!(t.size.0 >= 320.0);
    }

    #[test]
    fn fitts_width_is_min_extent() {
        let r = Rect {
            x: 0.0,
            y: 0.0,
            w: 200.0,
            h: 20.0,
        };
        assert_eq!(r.fitts_width(), 20.0);
        assert_eq!(r.center(), (100.0, 10.0));
    }

    #[test]
    fn widget_sizes_scale_with_options() {
        let small = widget_size(
            WidgetKind::Radio,
            &WidgetDomain::Options(vec!["a".into(), "b".into()]),
            "x",
        );
        let large = widget_size(
            WidgetKind::Radio,
            &WidgetDomain::Options((0..10).map(|i| format!("option {i}")).collect()),
            "x",
        );
        assert!(large.1 > small.1, "more options, taller radio list");
        assert!(large.0 > small.0, "longer text, wider radio list");
    }

    #[test]
    fn orientation_flip() {
        assert_eq!(Orientation::Horizontal.flip(), Orientation::Vertical);
        assert_eq!(Orientation::Vertical.flip(), Orientation::Horizontal);
    }

    #[test]
    fn widget_tree_nests_descendant_widgets() {
        use pi2_difftree::{lower_query, DNode};
        use pi2_sql::parse_query;
        // Tree with a choice node at WHERE and one deeper: build the covid
        // toggle+dropdown nesting shape artificially.
        let mut gst = lower_query(&parse_query("SELECT a FROM t WHERE b = 1").unwrap());
        let pred = &mut gst.children[3].children[0];
        let lit = pred.children[1].clone();
        pred.children[1] = DNode::any(vec![lit, DNode::empty()]);
        let inner_pred = gst.children[3].children[0].clone();
        gst.children[3].children[0] = DNode::any(vec![inner_pred, DNode::empty()]);
        gst.renumber(0);
        let outer = gst.children[3].children[0].id;
        let inner = gst.children[3].children[0].children[0].children[1].id;
        let widgets = vec![(outer, 0, (46.0, 22.0)), (inner, 1, (100.0, 26.0))];
        let tree = widget_tree_for(&gst, &widgets).unwrap();
        // The outer toggle heads a group containing the inner dropdown.
        let LayoutNode::Group { children, .. } = &tree else {
            panic!("expected group, got {tree:?}")
        };
        assert!(matches!(
            children[0],
            LayoutNode::Widget { interaction: 0, .. }
        ));
        assert!(matches!(
            children[1],
            LayoutNode::Widget { interaction: 1, .. }
        ));
    }

    #[test]
    fn group_count_and_groups_mut() {
        let mut root = LayoutNode::Group {
            orientation: Orientation::Vertical,
            children: vec![
                w(0),
                LayoutNode::Group {
                    orientation: Orientation::Horizontal,
                    children: vec![w(1)],
                },
            ],
        };
        assert_eq!(root.group_count(), 2);
        for g in root.groups_mut() {
            if let LayoutNode::Group { orientation, .. } = g {
                *orientation = Orientation::Horizontal;
            }
        }
        let LayoutNode::Group { orientation, .. } = &root else {
            panic!()
        };
        assert_eq!(*orientation, Orientation::Horizontal);
    }
}

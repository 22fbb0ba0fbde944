#![warn(missing_docs)]
//! Interface mapping for PI2 (§4): visualizations, widgets, visualization
//! interactions, layout, and the cost model.
//!
//! An interface mapping `I = (V, M, L)` maps each Difftree's result to a
//! visualization (`V`), choice nodes to interactions — widgets or
//! visualization interactions — (`M`), and the tree structure to a
//! hierarchical layout (`L`).
//!
//! * [`vis`] — visualization schemas, FD constraints, and supported
//!   interactions exactly as the paper's Table 1; candidate `V` generation
//!   by schema matching against Difftree result schemas,
//! * [`widget`] — the widget library of Table 2 with schemas, constraints,
//!   and per-node candidate generation,
//! * [`flat`] — flattened dynamic-node schemas used for operational
//!   matching (the paper's nested schemas are in `pi2_difftree::schema`),
//! * [`interaction`] — visualization interactions with their event-stream
//!   schemas (Figure 9) and the §4.2.2 safety check (which executes the
//!   chart's queries through `pi2-engine`),
//! * [`iface`] — the interface structure `I = (V, M, L)`,
//! * [`layout`] — layout trees, widget size estimation, and bounding boxes
//!   (§4.3),
//! * [`cost`] — the §5 cost model `C(I, Q) = Cm + Cnav + CL` (SUPPLE
//!   manipulation polynomial + Fitts'-law navigation + screen-size penalty).

pub mod cache;
pub mod cost;
pub mod flat;
pub mod iface;
pub mod interaction;
pub mod layout;
pub mod vis;
pub mod widget;

pub use cache::{global_eval_cache, CacheStats, EvalCache, LiveStats, TreeArtifacts};
pub use cost::{fitts_time, manipulation_cost, widget_poly, CostParams, CostWalk};
pub use flat::{event_type_compatible, flatten_node, FlatElem, FlatSchema};
pub use iface::{
    InteractionChoice, InteractionInstance, Interface, MappingContext, MappingEntry,
    SafeVisCandidates, View,
};
pub use interaction::{
    col_node_type, interaction_is_safe, vis_interaction_candidates, InteractionKind,
    VisInteractionCandidate,
};
pub use layout::{
    vis_size, widget_size, widget_tree_for, LayoutNode, LayoutTree, Orientation, Rect,
};
pub use vis::{vis_mapping_candidates, VisKind, VisMapping, VisVar, VisVarSpec};
pub use widget::{
    bound_value, literal_to_value, widget_candidates, BoundValue, WidgetCandidate, WidgetDomain,
    WidgetKind,
};

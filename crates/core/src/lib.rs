#![warn(missing_docs)]
//! # PI2: end-to-end interactive visualization interface generation from queries
//!
//! A Rust reproduction of *PI2: End-to-end Interactive Visualization
//! Interface Generation from Queries* (Chen & Wu, SIGMOD 2022). Given a
//! small sequence of example analysis queries, PI2 generates a fully
//! functional multi-view visual analysis interface: visualizations for each
//! query cluster, widgets and in-visualization interactions (pan, zoom,
//! brush, click) that transform the underlying queries, and a layout.
//!
//! ```no_run
//! use pi2::{Event, Pi2Service, GenerationConfig};
//! use pi2_data::Catalog;
//!
//! let catalog = Catalog::new(); // add tables first
//! let service = Pi2Service::new();
//! let generation = service
//!     .register(
//!         "cars",
//!         catalog,
//!         &[
//!             "SELECT hp, mpg, origin FROM Cars WHERE hp BETWEEN 50 AND 60",
//!             "SELECT hp, mpg, origin FROM Cars WHERE hp BETWEEN 60 AND 90",
//!         ],
//!         &GenerationConfig::default(),
//!     )
//!     .unwrap();
//! println!("{}", generation.describe());
//! // Drive the interface programmatically: dispatch returns a delta
//! // patch — only the views whose resolved query changed.
//! let mut session = service.open("cars").unwrap();
//! let _patch = session.dispatch(&Event::Select { interaction: 0, option: 1 });
//! ```
//!
//! The pipeline (paper Figure 6): parse queries into Difftrees
//! (`pi2-difftree`), search the space of Difftree structures with MCTS
//! (`pi2-search`), map the best structure to an interface — visualizations,
//! interactions, layout (`pi2-interface`) — and return the lowest-cost
//! interface under the §5 cost model.
//!
//! ## Serving many analysts: the session service
//!
//! The scalable surface is [`Pi2Service`]: register a workload once
//! (generation + cache pre-warm), then open any number of [`Session`]s
//! over the shared [`Generation`]. `Session::dispatch` returns a delta
//! [`Patch`] — only the views whose resolved query changed — and the
//! versioned JSON wire protocol in [`protocol`]
//! ([`Pi2Service::handle_json`]) lets any HTTP/WebSocket front-end drive
//! the system. (The pre-session `Pi2::generate`/`Runtime` shims are gone;
//! [`Pi2::generate_with`] remains the config-explicit pipeline entry for
//! callers that don't need a service.)
//!
//! The bundled HTTP front-end is [`server`] (the `pi2-server` crate):
//! [`serve`] boots a dependency-free concurrent HTTP/1.1 server — per-
//! session mailboxes keep one session's events ordered while sessions
//! dispatch in parallel, bounded queues answer `429 backpressure`, and an
//! admission gate answers `503 overloaded` — speaking the same protocol,
//! byte for byte, as the in-process entry point.

pub mod error;
pub mod generation;
pub mod json;
pub mod protocol;
pub mod push;
pub mod registry;
pub mod render;
pub mod runtime;
pub mod service;
pub mod serving;

pub use error::Pi2Error;
pub use generation::{Generation, GenerationConfig, Pi2};
pub use json::Json;
pub use protocol::{
    event_from_json, event_to_json, patch_from_json, patch_to_json, request_from_json,
    request_to_json, Request, PROTOCOL_VERSION, PROTOCOL_VERSION_V2,
};
pub use push::{PushHub, PushStats};
pub use registry::SessionRegistry;
pub use runtime::Event;
pub use service::{
    AppendOutcome, Patch, PatchView, Pi2Service, ServiceMetrics, Session, WorkloadMetrics,
};
pub use serving::serve;

/// The HTTP transport layer (the `pi2-server` crate re-exported): the
/// concurrent wire-protocol server, its configuration, and the minimal
/// blocking client used by tests and the load generator. See
/// [`crate::serving`] for the glue that makes [`Pi2Service`] servable.
pub use pi2_server as server;

// Re-export the sub-crates' key types so downstream users need one import.
pub use pi2_data::memo;
pub use pi2_data::{Catalog, ColumnData, DataType, LiveCatalog, ShardedMemo, Table, Value};
pub use pi2_difftree::{Forest, Workload};
pub use pi2_interface::{
    global_eval_cache, CacheStats, InteractionChoice, InteractionKind, Interface, VisKind,
    WidgetKind,
};
pub use pi2_search::{MctsConfig, SearchStats};

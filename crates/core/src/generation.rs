//! The end-to-end generation pipeline (paper Figure 6).

use crate::error::Pi2Error;
use crate::service::Session;
use pi2_data::{Catalog, LiveCatalog};
use pi2_difftree::{Forest, Workload};
use pi2_interface::{InteractionChoice, Interface, MappingContext};
use pi2_search::{best_interface, mcts_search, MappingOptions, MctsConfig, SearchStats};
use pi2_sql::parse_query;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for one generation run: the MCTS parameters (§6.2) and the
/// final mapping options (§6.2.2).
#[derive(Debug, Clone, Default)]
pub struct GenerationConfig {
    /// §6.2 search parameters (workers, budgets, UCT constants).
    pub mcts: MctsConfig,
    /// §6.2.2 final-mapping options (top-k, pruning, layout budget).
    pub mapping: MappingOptions,
}

impl GenerationConfig {
    /// A faster configuration for tests and examples: single worker, small
    /// iteration budget.
    pub fn quick() -> GenerationConfig {
        GenerationConfig {
            mcts: MctsConfig {
                workers: 1,
                max_iterations: 60,
                early_stop: 20,
                ..MctsConfig::default()
            },
            mapping: MappingOptions::default(),
        }
    }

    /// Constrain the interface to a maximum screen size (§5's optional
    /// `CL` penalty): interfaces larger than `width × height` pixels pay
    /// `α · (overflow_w + overflow_h)` in both search and final mapping.
    pub fn with_max_size(mut self, width: f64, height: f64) -> GenerationConfig {
        self.mcts.params.max_size = Some((width, height));
        self.mapping.params.max_size = Some((width, height));
        self
    }
}

/// The PI2 system: a catalogue plus generation entry points.
pub struct Pi2 {
    /// The database catalogue queries are parsed and executed against.
    pub catalog: Catalog,
}

impl Pi2 {
    /// A PI2 instance over one catalogue.
    pub fn new(catalog: Catalog) -> Pi2 {
        Pi2 { catalog }
    }

    /// Generate with explicit configuration.
    pub fn generate_with(
        &self,
        sqls: &[&str],
        config: &GenerationConfig,
    ) -> Result<Generation, Pi2Error> {
        if sqls.is_empty() {
            return Err(Pi2Error::EmptyWorkload);
        }
        let queries = sqls
            .iter()
            .map(|s| parse_query(s).map_err(|e| Pi2Error::Parse(format!("{s}: {e}"))))
            .collect::<Result<Vec<_>, _>>()?;
        let workload = Workload::new(queries, self.catalog.clone());

        // 1. MCTS over Difftree structures.
        let (forest, mcts_stats) = mcts_search(&workload, &config.mcts);

        // 2. Final exhaustive V/M mapping + layout optimisation on the best
        //    state (with a fallback to the initial state if mapping fails).
        let t0 = Instant::now();
        let mapped = map_state(&forest, &workload, config)
            .or_else(|| {
                let initial = Forest::from_workload(&workload);
                map_state(&initial, &workload, config)
            })
            .ok_or(Pi2Error::NoInterface)?;
        let mapping_time = t0.elapsed();
        let (interface, cost) = mapped;

        let live = Arc::new(LiveCatalog::new(workload.catalog.clone()));
        Ok(Generation {
            interface: Arc::new(interface),
            cost,
            forest: Arc::new(forest),
            workload: Arc::new(workload),
            live,
            mcts_stats,
            mapping_time,
        })
    }
}

fn map_state(
    forest: &Forest,
    workload: &Workload,
    config: &GenerationConfig,
) -> Option<(Interface, f64)> {
    let mut ctx = MappingContext::build(forest, workload)?;
    ctx.check_safety = config.mcts.check_safety;
    best_interface(&ctx, &config.mapping)
}

/// The result of a generation run.
///
/// Cheaply shareable: the interface, forest, and workload live behind
/// `Arc`s, so cloning a generation (e.g. to open another [`Session`], or
/// to register it with a [`crate::Pi2Service`]) copies three pointers, not
/// the artifacts. Field access is unchanged — the `Arc`s deref.
#[derive(Debug, Clone)]
pub struct Generation {
    /// The generated interface `I = (V, M, L)` (shared).
    pub interface: Arc<Interface>,
    /// Full §5 cost of the returned interface.
    pub cost: f64,
    /// The Difftree state the interface was mapped from (shared).
    pub forest: Arc<Forest>,
    /// The parsed input queries plus catalogue (shared).
    pub workload: Arc<Workload>,
    /// The live (appendable) catalogue: starts at the workload's base
    /// catalogue and advances one epoch per append. Shared by every
    /// session over this generation — sessions fetch results against
    /// [`LiveCatalog::snapshot`], so an append is visible to all of them.
    pub live: Arc<LiveCatalog>,
    /// Search statistics (iterations, duration, best reward).
    pub mcts_stats: SearchStats,
    /// Wall-clock time of the final §6.2.2 mapping phase.
    pub mapping_time: Duration,
}

impl Generation {
    /// Total wall-clock generation time (search + mapping).
    pub fn total_time(&self) -> Duration {
        self.mcts_stats.duration + self.mapping_time
    }

    /// Open a delta-dispatch session over this (shared) generation.
    pub fn session(&self) -> Result<Session, Pi2Error> {
        Session::open(self)
    }

    /// A human-readable interface summary (views, interactions, layout).
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "interface: {} view(s), {} widget(s), {} visualization interaction(s), cost {:.1}",
            self.interface.views.len(),
            self.interface.widget_count(),
            self.interface.vis_interaction_count(),
            self.cost
        );
        let _ = writeln!(
            out,
            "generated in {:.2?} (search {:.2?} / {} iterations, mapping {:.2?})",
            self.total_time(),
            self.mcts_stats.duration,
            self.mcts_stats.iterations,
            self.mapping_time
        );
        let _ = write!(out, "{}", self.interface);
        out
    }

    /// Whether some interaction is a visualization interaction of the given
    /// kind (used by taxonomy tests).
    pub fn has_vis_interaction(&self, kind: pi2_interface::InteractionKind) -> bool {
        self.interface
            .interactions
            .iter()
            .any(|i| matches!(&i.choice, InteractionChoice::Vis { kind: k, .. } if *k == kind))
    }

    /// Whether a visualization interaction on one view targets a *different*
    /// tree (multi-view linking, Figure 5).
    pub fn has_cross_view_link(&self) -> bool {
        self.interface.interactions.iter().any(|i| match &i.choice {
            InteractionChoice::Vis { view, .. } => {
                self.interface.views[*view].tree != i.target_tree
            }
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_data::{DataType, Table, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let rows: Vec<Vec<Value>> = (0..24)
            .map(|i| vec![Value::Int(i % 4), Value::Int(10 * (i % 6))])
            .collect();
        let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap();
        c.add_table("T", t, vec![]);
        c
    }

    #[test]
    fn end_to_end_generation() {
        let pi2 = Pi2::new(catalog());
        let g = pi2
            .generate_with(
                &[
                    "SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a",
                    "SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a",
                ],
                &GenerationConfig::quick(),
            )
            .unwrap();
        assert!(!g.interface.views.is_empty());
        assert!(g.cost.is_finite());
        // The interface must cover every choice node of the final forest.
        let total: usize = g.interface.interactions.iter().map(|i| i.cover.len()).sum();
        assert_eq!(total, g.forest.choice_count());
        let desc = g.describe();
        assert!(desc.contains("interface:"));
    }

    #[test]
    fn empty_workload_is_an_error() {
        let pi2 = Pi2::new(catalog());
        assert_eq!(
            pi2.generate_with(&[], &GenerationConfig::quick())
                .unwrap_err(),
            Pi2Error::EmptyWorkload
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        let pi2 = Pi2::new(catalog());
        let err = pi2
            .generate_with(&["SELECT FROM"], &GenerationConfig::quick())
            .unwrap_err();
        assert!(matches!(err, Pi2Error::Parse(_)));
    }

    #[test]
    fn max_size_penalty_is_plumbed_through() {
        let pi2 = Pi2::new(catalog());
        let tight = GenerationConfig::quick().with_max_size(200.0, 100.0);
        let g_tight = pi2
            .generate_with(
                &[
                    "SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a",
                    "SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a",
                ],
                &tight,
            )
            .unwrap();
        let g_free = pi2
            .generate_with(
                &[
                    "SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a",
                    "SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a",
                ],
                &GenerationConfig::quick(),
            )
            .unwrap();
        // Any interface overflows a 200×100 screen, so the constrained run
        // must carry a strictly higher cost.
        assert!(g_tight.cost > g_free.cost);
    }

    #[test]
    fn static_single_query_yields_static_chart() {
        let pi2 = Pi2::new(catalog());
        let g = pi2
            .generate_with(
                &["SELECT a, count(*) FROM T GROUP BY a"],
                &GenerationConfig::quick(),
            )
            .unwrap();
        assert_eq!(g.interface.views.len(), 1);
        assert!(g.interface.interactions.is_empty(), "static interface");
    }
}

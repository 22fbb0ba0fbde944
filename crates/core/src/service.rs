//! The session service: registered workloads, shared generations, and
//! delta-dispatch sessions.
//!
//! PR 1/2 made search and execution fast; this layer makes the result
//! *servable*. A [`Pi2Service`] owns any number of registered workloads —
//! registration parses, generates, and pre-warms the process-wide
//! [`pi2_interface::EvalCache`]'s result memo once — and any number of
//! [`Session`]s open concurrently over one shared [`Generation`] (its
//! internals are `Arc`s, so opening a session never copies the forest,
//! workload, or interface).
//!
//! Dispatch is a *delta*: [`Session::dispatch`] stages an event through the
//! pure `EventEngine` (see `crate::runtime`), commits only the trees whose
//! binding actually changed, diffs resolved-SQL fingerprints, and returns a
//! [`Patch`] containing only the views whose query changed — with result
//! tables fetched through the per-(catalogue, resolved-SQL fingerprint)
//! memo, so identical interaction states across sessions (and repeat
//! events within one) share a single execution.
//!
//! The JSON wire protocol over this layer lives in [`crate::protocol`].

use crate::error::Pi2Error;
use crate::generation::{Generation, GenerationConfig, Pi2};
use crate::push::{PushHub, PushStats};
use crate::registry::SessionRegistry;
use crate::runtime::{displayed_options, Event, EventEngine};
use parking_lot::{Mutex, RwLock};
use pi2_data::hash::fnv1a_64;
use pi2_data::{Catalog, Table};
use pi2_difftree::{infer_types_cached, raise_query, resolve, Assignment, BindingMap, TypeMap};
use pi2_engine::{execute, ExecContext};
use pi2_interface::{global_eval_cache, CacheStats, Interface, LiveStats};
use pi2_search::SearchStats;
use pi2_sql::ast::Query;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One view's update inside a [`Patch`]: the view's new resolved SQL and
/// its result table (shared out of the process-wide memo).
#[derive(Debug, Clone)]
pub struct PatchView {
    /// Index into `interface.views`.
    pub view: usize,
    /// The Difftree the view renders.
    pub tree: usize,
    /// The view's new resolved SQL text.
    pub sql: String,
    /// The executed result (memo-shared; cloning is cheap).
    pub table: Arc<Table>,
}

/// The delta a dispatch produces: only the views whose resolved query
/// actually changed. An event that re-binds nodes without changing any
/// resolved query yields an empty patch.
#[derive(Debug, Clone)]
pub struct Patch {
    /// Session-local sequence number (increments per successful dispatch).
    pub seq: u64,
    /// Updated views, in view order.
    pub views: Vec<PatchView>,
}

impl Patch {
    /// Whether the patch carries no view updates.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

fn sql_fingerprint(sql: &str) -> u64 {
    fnv1a_64(sql.as_bytes())
}

/// Per-tree cap on the session's resolved-binding cache: a session cycling
/// through widget states revisits bindings constantly; unbounded growth is
/// only possible with continuous payloads, which snap to finite option
/// sets anyway.
const RESOLVED_CACHE_CAP: usize = 64;

/// One resolved binding of a tree: the raised query, its SQL text, and the
/// text fingerprint (the dirty-diff and memo key).
type ResolvedBinding = (BindingMap, Arc<Query>, Arc<str>, u64);

/// A validated per-tree commit staged by a dispatch.
type StagedCommit = (usize, BindingMap, Arc<Query>, Arc<str>, u64);

/// How a dispatch obtains the result tables of the views it changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fill {
    /// Through the memo, executing on a miss.
    Compute,
    /// From memo hits only; anything else declines the dispatch.
    MemoOnly,
}

/// One analyst's interactive state over a shared [`Generation`].
///
/// Sessions are cheap: per-tree binding maps, resolved queries, and
/// fingerprints. Everything heavy (forest, interface, type maps, executed
/// results) is shared — across sessions, threads, and with the search
/// phase that produced the generation.
#[derive(Debug)]
pub struct Session {
    generation: Generation,
    /// Input-query assignments over the shared forest (computed once at
    /// open; dispatch borrows missing nested bindings from these).
    assignments: Arc<Vec<Assignment>>,
    types: Vec<Arc<TypeMap>>,
    /// Per-interaction: displayed-option index → ANY child index.
    option_maps: Vec<Vec<usize>>,
    /// Per-tree current bindings (the UI state).
    bindings: Vec<BindingMap>,
    /// Per-tree current resolved query, its SQL text, and text fingerprint.
    queries: Vec<Arc<Query>>,
    sqls: Vec<Arc<str>>,
    fps: Vec<u64>,
    /// Per-tree memo of resolved bindings: revisited states (widget
    /// toggles, brush snap-backs) skip resolve/raise entirely.
    resolved: Vec<Vec<ResolvedBinding>>,
    seq: u64,
}

impl Session {
    /// Open a session: every tree starts at the first input query it
    /// expresses (the same initial state for every session, so patch
    /// streams are a pure function of the event sequence).
    pub fn open(generation: &Generation) -> Result<Session, Pi2Error> {
        let generation = generation.clone(); // Arc-backed, cheap
        let forest = &generation.forest;
        let workload = &generation.workload;
        let assignments = forest
            .bind_all(workload)
            .ok_or_else(|| Pi2Error::Runtime("forest no longer expresses workload".into()))?;
        let mut first: Vec<Option<BindingMap>> = vec![None; forest.trees.len()];
        for a in &assignments {
            if first[a.tree].is_none() {
                first[a.tree] = Some(BindingMap::clone(&a.binding));
            }
        }
        let bindings: Vec<BindingMap> = first.into_iter().map(|b| b.unwrap_or_default()).collect();
        let types: Vec<Arc<TypeMap>> = forest
            .trees
            .iter()
            .map(|t| infer_types_cached(t, workload))
            .collect();
        let option_maps: Vec<Vec<usize>> = generation
            .interface
            .interactions
            .iter()
            .map(|inst| {
                forest
                    .node_in_tree(inst.target_tree, inst.target_node)
                    .map(displayed_options)
                    .unwrap_or_default()
            })
            .collect();
        let mut session = Session {
            generation,
            assignments: Arc::new(assignments),
            types,
            option_maps,
            queries: Vec::with_capacity(bindings.len()),
            sqls: Vec::with_capacity(bindings.len()),
            fps: Vec::with_capacity(bindings.len()),
            resolved: vec![Vec::new(); bindings.len()],
            bindings,
            seq: 0,
        };
        for t in 0..session.bindings.len() {
            let map = session.bindings[t].clone();
            let (query, sql, fp) = session
                .resolve_binding(t, &map)
                .map_err(|e| Pi2Error::Runtime(format!("initial state is invalid: {e}")))?;
            session.queries.push(query);
            session.sqls.push(sql);
            session.fps.push(fp);
        }
        Ok(session)
    }

    /// The shared generation this session drives.
    pub fn generation(&self) -> &Generation {
        &self.generation
    }

    /// The interface this session drives.
    pub fn interface(&self) -> &Interface {
        &self.generation.interface
    }

    /// The current resolved query of every tree.
    pub fn queries(&self) -> Vec<Query> {
        self.queries.iter().map(|q| (**q).clone()).collect()
    }

    /// The current resolved query of one tree.
    pub fn query_for_tree(&self, tree: usize) -> Option<&Query> {
        self.queries.get(tree).map(|q| q.as_ref())
    }

    /// The current resolved SQL text of one tree.
    pub fn sql_for_tree(&self, tree: usize) -> Option<&str> {
        self.sqls.get(tree).map(|s| s.as_ref())
    }

    /// The sequence number of the last dispatched event.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Apply one event and return the delta: only views whose resolved
    /// query changed, with results served through the shared memo. Invalid
    /// events leave the state unchanged and report a structured error.
    pub fn dispatch(&mut self, event: &Event) -> Result<Patch, Pi2Error> {
        let patch = self.dispatch_with(event, Fill::Compute)?;
        Ok(patch.expect("a computing dispatch always fills its views"))
    }

    /// [`Session::dispatch`] without executing anything: `Ok(None)` when
    /// some changed view's result is not a memo hit (a cached failure
    /// included — only a re-execution recovers its message). The session
    /// is then left as it was, apart from its resolved-binding memo. Any
    /// other outcome, errors included, is exactly what `dispatch` returns.
    pub(crate) fn dispatch_memo_only(&mut self, event: &Event) -> Result<Option<Patch>, Pi2Error> {
        self.dispatch_with(event, Fill::MemoOnly)
    }

    /// The one dispatch body; `fill` says whether a memo miss may execute.
    fn dispatch_with(&mut self, event: &Event, fill: Fill) -> Result<Option<Patch>, Pi2Error> {
        let staged = EventEngine {
            forest: &self.generation.forest,
            assignments: &self.assignments,
            interface: &self.generation.interface,
            types: &self.types,
            option_maps: &self.option_maps,
            bindings: &self.bindings,
        }
        .apply(event)?;

        // Validate every staged tree (resolved-binding cache hit, or
        // resolve + raise on first visit) before committing anything.
        let mut commits: Vec<StagedCommit> = Vec::new();
        for (tree, map) in staged {
            if self.bindings[tree] == map {
                continue; // event re-bound to the identical state
            }
            let (query, sql, fp) = self.resolve_binding(tree, &map)?;
            commits.push((tree, map, query, sql, fp));
        }

        // Fill the patch for the dirty trees (resolved SQL changed) from
        // the staged state, *before* committing: a failed event — however
        // it fails — leaves the whole session unchanged. Results come from
        // the *live* catalogue snapshot, so appended rows are visible.
        let cache = global_eval_cache();
        let catalog = self.generation.live.snapshot();
        let mut views = Vec::new();
        for (v, view) in self.generation.interface.views.iter().enumerate() {
            let staged_for_view = commits
                .iter()
                .find(|(tree, _, _, _, fp)| *tree == view.tree && *fp != self.fps[*tree]);
            if let Some((tree, _, query, sql, fp)) = staged_for_view {
                let table = match fill {
                    Fill::Compute => cache.resolved_result_fp(&catalog, *fp, query),
                    Fill::MemoOnly => match cache.lookup_result_fp(&catalog, *fp, query) {
                        Some(Some(table)) => Some(table),
                        _ => return Ok(None),
                    },
                };
                let table = table.ok_or_else(|| self.execution_error(*tree, query))?;
                views.push(PatchView {
                    view: v,
                    tree: *tree,
                    sql: sql.to_string(),
                    table,
                });
            }
        }
        if fill == Fill::MemoOnly {
            // Counted only now that every lookup hit, so a declined
            // dispatch leaves the counters to the computing one.
            cache.note_result_hits(views.len() as u64);
        }

        // All fallible work done — commit.
        for (tree, map, query, sql, fp) in commits {
            self.bindings[tree] = map;
            if fp != self.fps[tree] {
                self.fps[tree] = fp;
                self.queries[tree] = query;
                self.sqls[tree] = sql;
            }
        }
        self.seq += 1;
        Ok(Some(Patch {
            seq: self.seq,
            views,
        }))
    }

    /// A full-state patch (every view, current results) — what a front-end
    /// renders on connect. Does not advance the sequence number.
    pub fn refresh(&self) -> Result<Patch, Pi2Error> {
        Ok(Patch {
            seq: self.seq,
            views: self.patch_views(|_| true)?,
        })
    }

    /// The patch a live append produces for this session: every view whose
    /// *current* query references the appended table, freshly fetched
    /// against the live catalogue (the memo's IVM path serves supported
    /// shapes from the delta alone). Views over other tables are omitted
    /// — untouched views produce no patch entry. The sequence number does
    /// not advance: no event was dispatched; the data moved underneath
    /// the same interaction state.
    pub fn data_patch(&self, changed: &str) -> Result<Patch, Pi2Error> {
        let changed = changed.to_lowercase();
        let affected: Vec<bool> = self
            .queries
            .iter()
            .map(|q| pi2_engine::referenced_tables(q).contains(&changed))
            .collect();
        Ok(Patch {
            seq: self.seq,
            views: self.patch_views(|tree| affected[tree])?,
        })
    }

    /// Execute the current query of every tree (one result table per view),
    /// served through the shared result memo — unchanged queries never
    /// re-execute.
    pub fn execute(&self) -> Result<Vec<Table>, Pi2Error> {
        let cache = global_eval_cache();
        let catalog = self.generation.live.snapshot();
        (0..self.queries.len())
            .map(|t| {
                cache
                    .resolved_result_fp(&catalog, self.fps[t], &self.queries[t])
                    .map(|table| (*table).clone())
                    .ok_or_else(|| self.execution_error(t, &self.queries[t]))
            })
            .collect()
    }

    /// Resolve one tree's binding to (query, SQL, fingerprint), through
    /// the session's resolved-binding memo. A miss resolves and raises —
    /// which *is* the validation — and caches the result; a hit skips both
    /// (revisited interaction states are the common case in a session).
    fn resolve_binding(
        &mut self,
        tree: usize,
        map: &BindingMap,
    ) -> Result<(Arc<Query>, Arc<str>, u64), Pi2Error> {
        if let Some((_, query, sql, fp)) = self.resolved[tree].iter().find(|(m, ..)| m == map) {
            return Ok((Arc::clone(query), Arc::clone(sql), *fp));
        }
        let node = resolve(&self.generation.forest.trees[tree], map)
            .map_err(|e| Pi2Error::invalid(format!("event produced invalid state: {e}")))?;
        let query = raise_query(&node)
            .map_err(|e| Pi2Error::invalid(format!("event produced invalid query: {e}")))?;
        let sql: Arc<str> = query.to_string().into();
        let fp = sql_fingerprint(&sql);
        let query = Arc::new(query);
        let cache = &mut self.resolved[tree];
        if cache.len() >= RESOLVED_CACHE_CAP {
            cache.remove(0);
        }
        cache.push((map.clone(), Arc::clone(&query), Arc::clone(&sql), fp));
        Ok((query, sql, fp))
    }

    fn patch_views(
        &self,
        mut include: impl FnMut(usize) -> bool,
    ) -> Result<Vec<PatchView>, Pi2Error> {
        let cache = global_eval_cache();
        let catalog = self.generation.live.snapshot();
        let mut out = Vec::new();
        for (v, view) in self.generation.interface.views.iter().enumerate() {
            if !include(view.tree) {
                continue;
            }
            let table = cache
                .resolved_result_fp(&catalog, self.fps[view.tree], &self.queries[view.tree])
                .ok_or_else(|| self.execution_error(view.tree, &self.queries[view.tree]))?;
            out.push(PatchView {
                view: v,
                tree: view.tree,
                sql: self.sqls[view.tree].to_string(),
                table,
            });
        }
        Ok(out)
    }

    /// The memo caches failures as `None`; re-run uncached to surface the
    /// engine's actual message (rare path).
    fn execution_error(&self, tree: usize, query: &Query) -> Pi2Error {
        let catalog = self.generation.live.snapshot();
        let ctx = ExecContext::new(&catalog);
        match execute(query, &ctx) {
            Err(e) => Pi2Error::Execution(format!("view over tree {tree}: {e}")),
            Ok(_) => Pi2Error::Execution("cached execution failed".into()),
        }
    }
}

/// Per-workload registration record.
struct Registered {
    generation: Generation,
    warmed_queries: usize,
}

/// The session service: catalogs and registered workloads behind a stable
/// serving surface. Registration runs the full generation pipeline once
/// and pre-warms the shared caches; any number of sessions then open over
/// the shared generation, locally or through the JSON wire protocol
/// ([`Pi2Service::handle_json`] in [`crate::protocol`]).
#[derive(Default)]
pub struct Pi2Service {
    workloads: RwLock<HashMap<String, Registered>>,
    /// Wire sessions, sharded (see [`SessionRegistry`]): the id lookup
    /// never crosses a global map lock.
    sessions: SessionRegistry,
    sessions_opened: AtomicU64,
    /// Protocol-v2 shared-session subscriptions (see [`crate::push`]).
    push: PushHub,
}

impl Pi2Service {
    /// An empty service.
    pub fn new() -> Pi2Service {
        Pi2Service::default()
    }

    /// Register a workload: parse the queries, run generation, pre-warm
    /// the shared result memo with the input queries' results, and store
    /// the generation under `name` (replacing any previous registration).
    /// Returns the shared generation.
    pub fn register(
        &self,
        name: &str,
        catalog: Catalog,
        sqls: &[&str],
        config: &GenerationConfig,
    ) -> Result<Generation, Pi2Error> {
        let generation = Pi2::new(catalog).generate_with(sqls, config)?;
        self.register_generation(name, generation)
    }

    /// Register an already-generated interface (e.g. re-serving a stored
    /// generation without re-searching). Pre-warms the shared result memo
    /// with the input queries' results, so first patches are memo-warm.
    pub fn register_generation(
        &self,
        name: &str,
        generation: Generation,
    ) -> Result<Generation, Pi2Error> {
        let cache = global_eval_cache();
        let warmed_queries = cache.warm_workload(&generation.workload);
        self.workloads.write().insert(
            name.to_string(),
            Registered {
                generation: generation.clone(),
                warmed_queries,
            },
        );
        Ok(generation)
    }

    /// The shared generation registered under `name`.
    pub fn generation(&self, name: &str) -> Option<Generation> {
        self.workloads
            .read()
            .get(name)
            .map(|r| r.generation.clone())
    }

    /// Registered workload names, sorted.
    pub fn workload_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.workloads.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Open a session over a registered workload.
    pub fn open(&self, name: &str) -> Result<Session, Pi2Error> {
        let generation = self
            .generation(name)
            .ok_or_else(|| Pi2Error::UnknownWorkload(name.to_string()))?;
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
        Session::open(&generation)
    }

    /// Open a service-held session and return its wire id (the protocol's
    /// `open` request). The session lives until [`Pi2Service::close_wire`].
    /// The session is bound to its workload's push channel, so a later v2
    /// `subscribe` can join it to the shared patch stream.
    pub fn open_wire(&self, name: &str) -> Result<(u64, Arc<Mutex<Session>>), Pi2Error> {
        let session = self.open(name)?;
        let (id, slot) = self.sessions.insert(session);
        self.push.bind(id, name);
        Ok((id, slot))
    }

    /// The service-held session with the given wire id.
    pub fn wire_session(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        self.sessions.get(id)
    }

    /// Close a service-held session; returns whether it existed. Any
    /// subscription the session held is dropped with it.
    pub fn close_wire(&self, id: u64) -> bool {
        self.push.drop_session(id);
        self.sessions.remove(id)
    }

    /// The shared-session subscription registry (protocol v2; see
    /// [`crate::push`]).
    pub fn push_hub(&self) -> &PushHub {
        &self.push
    }

    /// Append rows to a registered workload's live catalogue: advance the
    /// epoch, fold the append into the catalogue fingerprint, record the
    /// live counters, and sweep memo entries keyed to the fingerprint the
    /// append retired (two epochs old — in-flight dispatches and IVM
    /// prev-state reads get one epoch of grace). Open sessions see the
    /// new rows on their next result fetch; pushing data patches to
    /// subscribers is the protocol layer's job
    /// (`handle_request_link` fans out after a wire append succeeds).
    pub fn append(
        &self,
        workload: &str,
        table: &str,
        rows: Table,
    ) -> Result<AppendOutcome, Pi2Error> {
        let generation = self
            .generation(workload)
            .ok_or_else(|| Pi2Error::UnknownWorkload(workload.to_string()))?;
        let receipt = generation
            .live
            .append(table, rows)
            .map_err(|e| Pi2Error::Append(e.to_string()))?;
        let cache = global_eval_cache();
        cache.note_append(receipt.rows);
        if let Some(fp) = receipt.evict_fingerprint {
            cache.evict_catalog(fp);
        }
        let total_rows = receipt
            .catalog
            .table(&receipt.table)
            .map(|m| m.table.num_rows())
            .unwrap_or(0);
        Ok(AppendOutcome {
            table: receipt.table,
            epoch: receipt.epoch,
            rows: receipt.rows,
            total_rows,
        })
    }

    /// Service-wide metrics: per-workload search/cost/warm stats plus the
    /// shared-cache counters session traffic exercises.
    pub fn metrics(&self) -> ServiceMetrics {
        let workloads = {
            let guard = self.workloads.read();
            let mut ws: Vec<WorkloadMetrics> = guard
                .iter()
                .map(|(name, r)| WorkloadMetrics {
                    name: name.clone(),
                    views: r.generation.interface.views.len(),
                    interactions: r.generation.interface.interactions.len(),
                    cost: r.generation.cost,
                    search: r.generation.mcts_stats.clone(),
                    warmed_queries: r.warmed_queries,
                })
                .collect();
            ws.sort_by(|a, b| a.name.cmp(&b.name));
            ws
        };
        ServiceMetrics {
            reward_table_entries: workloads.iter().map(|w| w.search.states_evaluated).sum(),
            action_table_entries: workloads
                .iter()
                .map(|w| w.search.action_sets_validated)
                .sum(),
            workloads,
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            open_wire_sessions: self.sessions.len(),
            result_cache: global_eval_cache().result_stats(),
            push: self.push.stats(),
            live: global_eval_cache().live_stats(),
        }
    }
}

/// What a successful [`Pi2Service::append`] did, echoed in the protocol's
/// `appended` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The table appended to, in its registered case.
    pub table: String,
    /// The catalogue epoch the append produced.
    pub epoch: u64,
    /// Rows appended.
    pub rows: usize,
    /// The table's total row count after the append.
    pub total_rows: usize,
}

/// Snapshot of one registered workload for [`ServiceMetrics`].
#[derive(Debug, Clone)]
pub struct WorkloadMetrics {
    /// Registration name.
    pub name: String,
    /// Number of views in the generated interface.
    pub views: usize,
    /// Number of interactions in the generated interface.
    pub interactions: usize,
    /// Full §5 cost of the served interface.
    pub cost: f64,
    /// Search statistics of the generation run.
    pub search: SearchStats,
    /// Input queries whose results were pre-warmed at registration.
    pub warmed_queries: usize,
}

/// Service-wide metrics snapshot (see [`Pi2Service::metrics`]).
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Per-workload metrics, sorted by name.
    pub workloads: Vec<WorkloadMetrics>,
    /// Sessions opened over the service's lifetime (local + wire).
    pub sessions_opened: u64,
    /// Service-held wire sessions currently open.
    pub open_wire_sessions: usize,
    /// Hit/miss counters of the shared executed-result memo.
    pub result_cache: CacheStats,
    /// MCTS reward-table entries, summed over the registered workloads'
    /// searches (each search owns its table).
    pub reward_table_entries: usize,
    /// Validated-action-table entries, summed the same way.
    pub action_table_entries: usize,
    /// Shared-session subscription counters (protocol v2 push).
    pub push: PushStats,
    /// Live-data counters (appends, epoch bumps, IVM hits/fallbacks,
    /// invalidated views).
    pub live: LiveStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::GenerationConfig;
    use pi2_data::{DataType, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let rows: Vec<Vec<Value>> = (0..24)
            .map(|i| vec![Value::Int(i % 4), Value::Int(10 * (i % 6))])
            .collect();
        let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap();
        c.add_table("T", t, vec![]);
        c
    }

    const SQLS: [&str; 2] = [
        "SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a",
        "SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a",
    ];

    #[test]
    fn register_open_dispatch_delta() {
        let service = Pi2Service::new();
        let g = service
            .register("t", catalog(), &SQLS, &GenerationConfig::quick())
            .unwrap();
        assert_eq!(service.workload_names(), vec!["t".to_string()]);

        let mut session = service.open("t").unwrap();
        let full = session.refresh().unwrap();
        assert_eq!(full.views.len(), g.interface.views.len());
        assert_eq!(full.seq, 0);

        // Find an event that changes some query; its patch must be a
        // non-empty delta, and repeating it must be an empty delta.
        let mut driven = None;
        for ix in 0..g.interface.interactions.len() {
            for event in [
                Event::Select {
                    interaction: ix,
                    option: 1,
                },
                Event::SetValues {
                    interaction: ix,
                    values: vec![Value::Int(30)],
                },
                Event::SetValues {
                    interaction: ix,
                    values: vec![Value::Int(20), Value::Int(40)],
                },
            ] {
                if let Ok(patch) = session.dispatch(&event) {
                    if !patch.is_empty() {
                        driven = Some((event, patch));
                        break;
                    }
                }
            }
            if driven.is_some() {
                break;
            }
        }
        let (event, patch) = driven.expect("some event changes a query");
        assert!(patch.seq > 0);
        // Re-dispatching the identical event changes nothing → empty patch.
        let repeat = session.dispatch(&event).unwrap();
        assert!(
            repeat.is_empty(),
            "repeat of an identical event must be an empty delta"
        );
        assert_eq!(repeat.seq, patch.seq + 1);
    }

    #[test]
    fn unknown_workload_is_structured() {
        let service = Pi2Service::new();
        match service.open("nope") {
            Err(Pi2Error::UnknownWorkload(name)) => assert_eq!(name, "nope"),
            other => panic!("expected UnknownWorkload, got {other:?}"),
        }
    }

    #[test]
    fn sessions_share_memoised_results() {
        let service = Pi2Service::new();
        let g = service
            .register("t", catalog(), &SQLS, &GenerationConfig::quick())
            .unwrap();
        let a = Session::open(&g).unwrap().refresh().unwrap();
        let b = Session::open(&g).unwrap().refresh().unwrap();
        for (va, vb) in a.views.iter().zip(b.views.iter()) {
            assert!(
                Arc::ptr_eq(&va.table, &vb.table),
                "identical states must share one executed table"
            );
        }
    }

    #[test]
    fn metrics_reflect_registrations() {
        let service = Pi2Service::new();
        service
            .register("m", catalog(), &SQLS, &GenerationConfig::quick())
            .unwrap();
        let _ = service.open("m").unwrap();
        let m = service.metrics();
        assert_eq!(m.workloads.len(), 1);
        assert_eq!(m.workloads[0].name, "m");
        assert_eq!(m.workloads[0].warmed_queries, 2);
        assert!(m.sessions_opened >= 1);
        assert!(m.result_cache.hits + m.result_cache.misses > 0);
        let search = &m.workloads[0].search;
        assert!(search.states_evaluated > 0);
        assert_eq!(m.reward_table_entries, search.states_evaluated);
        assert_eq!(m.action_table_entries, search.action_sets_validated);
    }
}

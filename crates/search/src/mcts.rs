//! Single-player Monte Carlo Tree Search over Difftree states (§6.2).
//!
//! Each search-tree node is a set of Difftrees (a [`Forest`]); transitions
//! are the §6.1 transformation rules plus a special `TERMINATE` rule valid
//! in every state. Child selection uses the single-player UCT of Eq. 1 —
//! mean reward + exploration term + variance term. Rewards are estimated by
//! sampling K random interface mappings (§6.2.1 step 4) and negating the
//! minimum cost.
//!
//! Two of the paper's optimisations are implemented:
//! * **max-reward return** (Cadiaplayer): the search returns the best state
//!   *encountered* (during rollouts and reward sampling), not the best mean
//!   child;
//! * **parallel workers** with early stopping after `es` iterations
//!   without local improvement.
//!
//! The paper's synchronisation interval `s` is accepted but has no effect
//! ([`MctsConfig::sync_interval`]): workers share reward estimates and
//! transitions through the tables below, never each other's best state,
//! so each worker publishes its best once, when it finishes. The merge
//! takes a maximum under a total order, so publishing more often could
//! not change the result.
//!
//! # State handling
//!
//! Search states are held as [`Arc<Forest>`] in a per-worker **arena**
//! indexed by [`ForestKey`] (the forest's precomputed structural
//! fingerprint): selection and rollout never clone a forest, reaching the
//! same state through different action sequences reuses one arena node
//! (transposition), and states created by [`apply_action`] share every
//! untouched tree with their parent.
//!
//! Reward estimates live in a **lock-sharded transposition table shared by
//! all `p` workers** of one search, so each state's K-mapping estimate is
//! computed once per search. Transitions are tabled the same way, on the
//! search's [`Transitions`] source:
//! * **candidates**: state → candidate actions (rule preconditions only);
//! * **tree candidates**: tree → its node-local candidates, so a state
//!   recomputes only its cross-tree `Merge`/`Split` candidates;
//! * **successors**: (state, action) → validated successor, or `None`;
//! * **children**: state → the successors of its valid actions, which
//!   expansion interns directly.
//!
//! So every transition is applied and validated once per search, whether
//! expansion, a rollout step, canonicalization or the scripted seed states
//! asks for it, and all workers share the answers. The tables are uncapped
//! and dropped when the search returns: a repeated search starts with
//! empty tables. The estimate's sampling RNG
//! is seeded from `cfg.seed ⊕ ForestKey` — a reward is a pure function of
//! (state, config), so a table hit returns exactly the value the worker
//! would have computed itself. Combined with schedule-independent
//! per-worker stopping (each worker runs to its *own* early stop or the
//! iteration cap), the search is deterministic for a given [`MctsConfig`],
//! worker count included: the same config returns the same forest run over
//! run. Different worker counts explore different trajectories and may
//! return different forests.

use crate::random::estimate_reward;
use parking_lot::Mutex;
use pi2_data::ShardedMemo;
use pi2_difftree::{
    applicable_actions, apply_action, cross_tree_candidates, tree_candidates, Action, Forest,
    ForestKey, Transitions, Workload,
};
use pi2_interface::{CostParams, MappingContext};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// MCTS parameters. The paper's defaults: early stop `es = 30`, `p = 3`
/// workers, synchronisation interval `s = 10` (§7.3; a no-op here).
#[derive(Debug, Clone)]
pub struct MctsConfig {
    /// Exploration constant `c` of Eq. 1 (on normalised rewards).
    pub c: f64,
    /// Variance constant `d` of Eq. 1.
    pub d: f64,
    /// Random mappings per reward estimate (K).
    pub k_mappings: usize,
    /// Early stop after this many iterations without local improvement.
    pub early_stop: usize,
    /// The paper's worker synchronisation interval `s` (iterations). It has
    /// no effect (see the module doc); kept because configurations set it.
    pub sync_interval: usize,
    /// Parallel workers (p).
    pub workers: usize,
    /// Hard iteration cap per worker.
    pub max_iterations: usize,
    /// Maximum random-playout depth.
    pub rollout_depth: usize,
    /// Probability a playout step chooses TERMINATE.
    pub terminate_prob: f64,
    /// Base RNG seed; worker streams and per-state reward streams derive
    /// from it.
    pub seed: u64,
    /// §4.2.2 safety checking (disable for the scalability ablation).
    pub check_safety: bool,
    /// Cost model used during reward estimation.
    pub params: CostParams,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            c: 0.8,
            d: 1.0,
            k_mappings: 5,
            early_stop: 30,
            sync_interval: 10,
            workers: 3,
            max_iterations: 400,
            rollout_depth: 8,
            terminate_prob: 0.15,
            seed: 0x5eed,
            check_safety: true,
            params: CostParams::default(),
        }
    }
}

/// Search outcome statistics.
#[derive(Debug, Clone)]
pub struct SearchStats {
    /// Total iterations across workers.
    pub iterations: usize,
    /// Wall-clock search time.
    pub duration: Duration,
    /// Best (un-normalised) reward = −min estimated cost.
    pub best_reward: f64,
    /// Reward estimates this search computed (its reward-table entries;
    /// workers share each estimate, so a state counts once).
    pub states_evaluated: usize,
    /// Expansion child sets this search validated (its children-table
    /// entries).
    pub action_sets_validated: usize,
    /// (state, action) transitions this search applied and validated (its
    /// successor-table entries; each is computed once per search).
    pub successors_validated: usize,
}

/// Shared state of one parallel search: the best state found so far and
/// the transposition tables. Rewards, candidates and successors are pure
/// functions of (state, workload, config), and one search has one workload
/// and one config, so the tables are keyed by state (or tree) alone. They
/// are shared by the search's workers and dropped when it returns.
struct Shared<'w> {
    workload: &'w Workload,
    best: Mutex<(f64, Option<Arc<Forest>>)>,
    /// Reward transposition table: state → estimated reward.
    rewards: ShardedMemo<ForestKey, f64>,
    /// Expansion children per state: the successors of its valid actions.
    children: ShardedMemo<ForestKey, Arc<Vec<Arc<Forest>>>>,
    /// Candidate actions per state.
    candidates: ShardedMemo<ForestKey, Arc<Vec<Action>>>,
    /// Node-local candidates per tree (fingerprint, size), tree index 0.
    tree_candidates: ShardedMemo<(u64, u32), Arc<Vec<Action>>>,
    /// Validated successor per (state, action); `None` if invalid.
    successors: ShardedMemo<(ForestKey, Action), Option<Arc<Forest>>>,
}

/// Merge a worker's best into the shared best under a *total*,
/// schedule-independent order: higher reward wins, and exact reward ties
/// break on the smaller state key — so the search result cannot depend on
/// which worker reaches the lock first.
fn merge_best(best: &mut (f64, Option<Arc<Forest>>), reward: f64, state: &Arc<Forest>) {
    let wins = reward > best.0
        || (reward == best.0 && best.1.as_ref().is_none_or(|cur| state.key() < cur.key()));
    if wins {
        *best = (reward, Some(Arc::clone(state)));
    }
}

impl<'w> Shared<'w> {
    fn new(workload: &'w Workload) -> Shared<'w> {
        // Uncapped: one search's states bound the tables.
        Shared {
            workload,
            best: Mutex::new((f64::NEG_INFINITY, None)),
            rewards: ShardedMemo::default(),
            children: ShardedMemo::default(),
            candidates: ShardedMemo::default(),
            tree_candidates: ShardedMemo::default(),
            successors: ShardedMemo::default(),
        }
    }

    /// The successors of a state's valid actions, computed once per search.
    fn expansion_children(&self, state: &Forest) -> Arc<Vec<Arc<Forest>>> {
        self.children.get_or_insert_with(&state.key(), || {
            Arc::new(self.applicable(state).into_iter().map(|(_, s)| s).collect())
        })
    }
}

impl Transitions for Shared<'_> {
    fn candidates(&self, forest: &Forest) -> Arc<Vec<Action>> {
        self.candidates.get_or_insert_with(&forest.key(), || {
            let w = self.workload;
            let mut out = cross_tree_candidates(forest, w);
            for (ti, tree) in forest.trees.iter().enumerate() {
                let key = (tree.fingerprint(), tree.len());
                let local = self
                    .tree_candidates
                    .get_or_insert_with(&key, || Arc::new(tree_candidates(tree, w)));
                out.extend(local.iter().map(|&a| Action { tree: ti, ..a }));
            }
            Arc::new(out)
        })
    }

    fn apply(&self, forest: &Forest, action: Action) -> Option<Arc<Forest>> {
        self.successors
            .get_or_insert_with(&(forest.key(), action), || {
                apply_action(forest, self.workload, action).map(Arc::new)
            })
    }
}

/// One arena node: a search state plus its UCT statistics. `state` is
/// shared with every other node/rollout referencing the same forest.
struct Node {
    state: Arc<Forest>,
    children: Vec<usize>,
    visits: u64,
    sum: f64,
    sum_sq: f64,
    expanded: bool,
    terminal: bool,
}

/// The search's initial state (§6.1 / §7.3: "Partition is used to initially
/// cluster the input queries by their result schema"): queries whose result
/// schemas are union compatible (same arity + unionable column types) start
/// in one `ANY`-rooted Difftree; others stay separate. `Split`,
/// `Partition`, and the other rules refine from there.
pub fn initial_state(w: &Workload) -> Forest {
    use pi2_difftree::DNode;
    // Signature: arity + storage types (coarse, merge-friendly).
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for qi in 0..w.queries.len() {
        let sig = w.infos[qi]
            .as_ref()
            .map(|info| {
                let types: Vec<pi2_data::DataType> =
                    info.cols.iter().map(|c| c.ty.dtype()).collect();
                format!("{}:{types:?}", info.cols.len())
            })
            .unwrap_or_else(|| format!("q{qi}"));
        match groups.iter_mut().find(|(s, _)| *s == sig) {
            Some((_, members)) => members.push(qi),
            None => groups.push((sig, vec![qi])),
        }
    }
    let mut trees = Vec::with_capacity(groups.len());
    for (_, members) in groups {
        if members.len() == 1 {
            trees.push(w.gsts[members[0]].clone());
        } else {
            // One alternative per distinct query (the scalability
            // experiment replays the same log many times).
            let mut alts: Vec<DNode> = members
                .into_iter()
                .filter(|&qi| w.class[qi] == qi)
                .map(|qi| w.gsts[qi].clone())
                .collect();
            if alts.len() == 1 {
                trees.push(alts.pop().unwrap());
            } else {
                trees.push(DNode::any(alts));
            }
        }
    }
    let f = Forest::new(trees);
    // The clustered state must still express the workload; fall back to the
    // identity state otherwise.
    if f.bound_trees(w).is_some() {
        f
    } else {
        Forest::from_workload(w)
    }
}

/// The scripted seed states every worker evaluates before searching: the
/// fully-canonicalized merged root and the Partition→Split→canonicalize
/// refinement (see [`Worker::new`]). Pure in (workload, initial state), so
/// it is derived once per search and shared by all workers — only reward
/// evaluation (already deduplicated by the transposition table) remains
/// per worker. Its transitions go through the search's tables, where the
/// workers find them again.
fn seed_states(shared: &Shared<'_>, root: &Arc<Forest>) -> Vec<Arc<Forest>> {
    let canon_root = shared.canonicalize(root, 48);

    // Partition every ANY-rooted tree, split, then canonicalize.
    let mut state = Arc::clone(root);
    loop {
        let actions = shared.candidates(&state);
        let Some(a) = actions
            .iter()
            .find(|a| a.rule == pi2_difftree::Rule::Partition && a.node == 0)
        else {
            break;
        };
        match shared.apply(&state, *a) {
            Some(next) => state = next,
            None => break,
        }
    }
    loop {
        // Split only partition results (every alternative itself an
        // ANY-rooted cluster) — not clusters down to single queries.
        let actions = shared.candidates(&state);
        let Some(a) = actions.iter().find(|a| {
            a.rule == pi2_difftree::Rule::Split
                && state.trees[a.tree]
                    .children
                    .iter()
                    .all(|c| c.kind == pi2_difftree::NodeKind::Any)
        }) else {
            break;
        };
        match shared.apply(&state, *a) {
            Some(next) => state = next,
            None => break,
        }
    }
    let split_canon = shared.canonicalize(&state, 64);
    vec![canon_root, split_canon]
}

struct Worker<'w> {
    cfg: MctsConfig,
    /// Drives search decisions only (expansion picks, rollout steps) —
    /// never reward sampling, which is seeded per state.
    rng: StdRng,
    nodes: Vec<Node>,
    /// Arena index: (state key, terminal?) → node. Reaching a state through
    /// different action sequences shares one node and its statistics.
    index: HashMap<(ForestKey, bool), usize>,
    shared: &'w Shared<'w>,
    /// Normalisation scale: |reward of the initial state|.
    scale: f64,
    best: (f64, Arc<Forest>),
    stale: usize,
}

impl<'w> Worker<'w> {
    fn new(
        cfg: MctsConfig,
        seed: u64,
        shared: &'w Shared<'w>,
        root_state: Arc<Forest>,
        seeds: &[Arc<Forest>],
    ) -> Worker<'w> {
        let root_key = root_state.key();
        let mut w = Worker {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            nodes: vec![Node {
                state: Arc::clone(&root_state),
                children: vec![],
                visits: 0,
                sum: 0.0,
                sum_sq: 0.0,
                expanded: false,
                terminal: false,
            }],
            index: HashMap::from([((root_key, false), 0)]),
            shared,
            scale: 1.0,
            best: (f64::NEG_INFINITY, Arc::clone(&root_state)),
            stale: 0,
        };
        let root_reward = w.evaluate(&root_state);
        w.scale = root_reward.abs().max(1.0);
        w.best = (root_reward, root_state);
        // Evaluate the scripted seed states covering the two macro-designs
        // the paper's search settles on quickly (single merged view;
        // partitioned cross-filtering views). MCTS refines from wherever
        // these land.
        for seed_state in seeds {
            w.evaluate(seed_state);
        }
        w.stale = 0;
        w
    }

    /// Reward of a state: −min cost over K mappings sampled with a
    /// state-seeded RNG; unmappable states get a strongly negative reward.
    /// Estimates are shared across the search's workers through the
    /// transposition table, and every sighting of an improvement updates
    /// this worker's best state (Cadiaplayer max-reward tracking).
    fn evaluate(&mut self, state: &Arc<Forest>) -> f64 {
        let key = state.key();
        let r = self.shared.rewards.get_or_insert_with(&key, || {
            match MappingContext::build(state, self.shared.workload) {
                Some(mut ctx) => {
                    ctx.check_safety = self.cfg.check_safety;
                    let mut reward_rng = StdRng::seed_from_u64(self.cfg.seed ^ key.seed());
                    estimate_reward(&ctx, &mut reward_rng, &self.cfg.params, self.cfg.k_mappings)
                        .unwrap_or(-1e9)
                }
                None => -1e9,
            }
        });
        if r > self.best.0 {
            self.best = (r, Arc::clone(state));
            self.stale = 0;
        }
        r
    }

    /// Eq. 1: mean + exploration + variance, on normalised rewards.
    fn uct(&self, parent_visits: u64, child: &Node) -> f64 {
        if child.visits == 0 {
            return f64::INFINITY;
        }
        let n = child.visits as f64;
        let mean = child.sum / n / self.scale;
        let explore = self.cfg.c * ((parent_visits.max(1) as f64).ln() / n).sqrt();
        let var = ((child.sum_sq / (self.scale * self.scale) - n * mean * mean).max(0.0) / n
            + self.cfg.d)
            .sqrt()
            / n.sqrt();
        mean + explore + var
    }

    /// Intern a state in the arena, reusing the node when the same state
    /// (and terminal flag) was already reached along another path.
    fn intern_node(&mut self, state: Arc<Forest>, terminal: bool) -> usize {
        let key = (state.key(), terminal);
        if let Some(&ix) = self.index.get(&key) {
            return ix;
        }
        self.nodes.push(Node {
            state,
            children: vec![],
            visits: 0,
            sum: 0.0,
            sum_sq: 0.0,
            expanded: false,
            terminal,
        });
        let ix = self.nodes.len() - 1;
        self.index.insert(key, ix);
        ix
    }

    /// One MCTS iteration: select, expand, simulate, backpropagate.
    fn iterate(&mut self) {
        // 1. Selection. The arena is a DAG (transpositions), so the walk is
        // depth-capped to stay finite even if actions form a cycle.
        let mut path = vec![0usize];
        let mut cur = 0usize;
        while self.nodes[cur].expanded && !self.nodes[cur].terminal && path.len() < 128 {
            if self.nodes[cur].children.is_empty() {
                break;
            }
            let parent_visits = self.nodes[cur].visits;
            let next = *self.nodes[cur]
                .children
                .iter()
                .max_by(|&&a, &&b| {
                    self.uct(parent_visits, &self.nodes[a])
                        .total_cmp(&self.uct(parent_visits, &self.nodes[b]))
                })
                .expect("non-empty children");
            path.push(next);
            cur = next;
        }

        // 2. Expansion.
        let start = if !self.nodes[cur].expanded && !self.nodes[cur].terminal {
            let state = Arc::clone(&self.nodes[cur].state);
            let children = self.shared.expansion_children(&state);
            let mut child_indices = Vec::with_capacity(children.len() + 1);
            for next_state in children.iter() {
                let ix = self.intern_node(Arc::clone(next_state), false);
                if !child_indices.contains(&ix) {
                    child_indices.push(ix);
                }
            }
            // The TERMINATE pseudo-rule: a terminal alias of this state.
            let term = self.intern_node(state, true);
            if !child_indices.contains(&term) {
                child_indices.push(term);
            }
            self.nodes[cur].expanded = true;
            self.nodes[cur].children = child_indices.clone();
            let pick = *child_indices.choose(&mut self.rng).expect("children");
            path.push(pick);
            pick
        } else {
            cur
        };

        // 3. Simulation: random playout from the chosen child. Each step
        // samples a rule-weighted random action, canonicalizes (§6.1 rules
        // applied to a fixpoint as a policy), and evaluates the state so the
        // Cadiaplayer max-reward tracking sees every state encountered.
        let mut state = Arc::clone(&self.nodes[start].state);
        let mut reward = self.evaluate(&state);
        if !self.nodes[start].terminal {
            for _ in 0..self.cfg.rollout_depth {
                if self.rng.gen_bool(self.cfg.terminate_prob) {
                    break;
                }
                let mut candidates = Vec::clone(&self.shared.candidates(&state));
                // Rule-weighted shuffle: refactoring and generalisation
                // rules are tried before structural merges/splits.
                candidates.shuffle(&mut self.rng);
                candidates.sort_by_cached_key(|a| match a.rule {
                    pi2_difftree::Rule::PushAny | pi2_difftree::Rule::AnyToVal => 0,
                    pi2_difftree::Rule::Merge
                    | pi2_difftree::Rule::AnyToMulti
                    | pi2_difftree::Rule::AnyToSubset => self.rng.gen_range(0..2),
                    pi2_difftree::Rule::Noop | pi2_difftree::Rule::MergeAny => 1,
                    _ => 2,
                });
                let mut applied = false;
                for a in candidates.into_iter().take(8) {
                    if let Some(next) = self.shared.apply(&state, a) {
                        state = self.shared.canonicalize(&next, 24);
                        applied = true;
                        break;
                    }
                }
                if !applied {
                    break;
                }
                reward = reward.max(self.evaluate(&state));
            }
        }

        // 4. Backpropagation.
        for ix in path {
            let n = &mut self.nodes[ix];
            n.visits += 1;
            n.sum += reward;
            n.sum_sq += reward * reward;
        }
        self.stale += 1;
    }
}

/// Run the MCTS search for a workload; returns the best Difftree state
/// found (by maximum encountered reward, Cadiaplayer-style) and statistics.
pub fn mcts_search(workload: &Workload, cfg: &MctsConfig) -> (Forest, SearchStats) {
    let start = Instant::now();
    let shared = Shared::new(workload);
    let workers = cfg.workers.max(1);
    let total_iterations = AtomicUsize::new(0);
    // The initial and scripted seed states are pure in the workload —
    // derive them once instead of once per worker.
    let root_state = Arc::new(initial_state(workload));
    let seeds = seed_states(&shared, &root_state);

    std::thread::scope(|scope| {
        for wid in 0..workers {
            let shared = &shared;
            let total_iterations = &total_iterations;
            let cfg = cfg.clone();
            let root_state = Arc::clone(&root_state);
            let seeds = &seeds;
            scope.spawn(move || {
                let seed = cfg.seed.wrapping_add(wid as u64 * 0x9e37_79b9);
                let mut worker = Worker::new(cfg.clone(), seed, shared, root_state, seeds);
                let mut iters = 0usize;
                // Each worker runs to its own early stop or the iteration
                // cap — never to a shared flag, so its trajectory (and the
                // search result) is independent of thread scheduling.
                // Reward estimates are shared through the transposition
                // table, so a fast worker's work still reaches stragglers;
                // the best state is merged once, when the worker finishes.
                while iters < cfg.max_iterations && worker.stale < cfg.early_stop {
                    worker.iterate();
                    iters += 1;
                }
                let mut best = shared.best.lock();
                merge_best(&mut best, worker.best.0, &worker.best.1);
                total_iterations.fetch_add(iters, Ordering::SeqCst);
            });
        }
    });

    let (reward, state) = {
        let best = shared.best.lock();
        (best.0, best.1.clone())
    };
    let state = match state {
        Some(s) => (*s).clone(),
        None => Forest::from_workload(workload),
    };
    (
        state,
        SearchStats {
            iterations: total_iterations.load(Ordering::SeqCst),
            duration: start.elapsed(),
            best_reward: reward,
            states_evaluated: shared.rewards.len(),
            action_sets_validated: shared.children.len(),
            successors_validated: shared.successors.len(),
        },
    )
}

/// Convenience: the set of transformation rules reachable from the initial
/// state of a workload (used by tests and diagnostics).
pub fn initial_actions(workload: &Workload) -> Vec<Action> {
    let f = Forest::from_workload(workload);
    applicable_actions(&f, workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_data::{Catalog, DataType, Table, Value};
    use pi2_sql::parse_query;

    fn workload() -> Workload {
        let mut c = Catalog::new();
        let rows: Vec<Vec<Value>> = (0..24)
            .map(|i| vec![Value::Int(i % 4), Value::Int(10 * (i % 6))])
            .collect();
        let t = Table::from_rows(vec![("a", DataType::Int), ("b", DataType::Int)], rows).unwrap();
        c.add_table("T", t, vec![]);
        Workload::new(
            vec![
                parse_query("SELECT a, count(*) FROM T WHERE b = 10 GROUP BY a").unwrap(),
                parse_query("SELECT a, count(*) FROM T WHERE b = 20 GROUP BY a").unwrap(),
                parse_query("SELECT a, count(*) FROM T WHERE b = 30 GROUP BY a").unwrap(),
            ],
            c,
        )
    }

    fn quick_cfg() -> MctsConfig {
        MctsConfig {
            workers: 1,
            max_iterations: 40,
            early_stop: 15,
            ..MctsConfig::default()
        }
    }

    #[test]
    fn search_returns_an_expressive_state() {
        let w = workload();
        let (state, stats) = mcts_search(&w, &quick_cfg());
        assert!(
            state.bind_all(&w).is_some(),
            "result must express all queries"
        );
        assert!(stats.iterations > 0);
        assert!(stats.best_reward.is_finite());
    }

    #[test]
    fn search_improves_over_initial_state() {
        let w = workload();
        // Initial: 3 separate static trees (no widgets, 3 charts). A merged
        // tree with a VAL slider should cost less. Reward is -cost; the
        // found state should be at least as good as the initial.
        let initial = Arc::new(Forest::from_workload(&w));
        let cfg = quick_cfg();
        let shared = Shared::new(&w);
        let root = Arc::new(initial_state(&w));
        let seeds = seed_states(&shared, &root);
        let mut worker = Worker::new(cfg.clone(), 1, &shared, root, &seeds);
        let initial_reward = worker.evaluate(&initial);
        let (state, stats) = mcts_search(&w, &cfg);
        assert!(
            stats.best_reward >= initial_reward - 1e-9,
            "search must not return worse than the start: {} vs {initial_reward}",
            stats.best_reward
        );
        // The found state should have merged the three queries (1 tree) or
        // at least reduced the interface cost; both manifest as fewer trees
        // or nonzero choice nodes.
        assert!(state.trees.len() <= 3);
    }

    #[test]
    fn parallel_search_is_deterministic_per_worker_seed() {
        // With one worker and a fixed seed, two runs agree.
        let w = workload();
        let cfg = quick_cfg();
        let (s1, st1) = mcts_search(&w, &cfg);
        let (s2, st2) = mcts_search(&w, &cfg);
        assert_eq!(s1, s2);
        assert_eq!(st1.best_reward, st2.best_reward);
        // Each search owns its tables, so a repeat evaluates every state
        // and validates every transition again.
        assert_eq!(st1.states_evaluated, st2.states_evaluated);
        assert!(st2.states_evaluated > 0);
        assert_eq!(st1.successors_validated, st2.successors_validated);
        assert!(st2.successors_validated > 0);
    }

    #[test]
    fn multi_worker_search_is_deterministic() {
        // Rewards are pure functions of (state, config) — the search's
        // transposition table cannot leak cross-worker timing into results,
        // so even parallel searches return one deterministic best forest.
        let w = workload();
        for workers in [2, 3] {
            let cfg = MctsConfig {
                workers,
                max_iterations: 30,
                ..quick_cfg()
            };
            let (s1, st1) = mcts_search(&w, &cfg);
            let (s2, st2) = mcts_search(&w, &cfg);
            assert_eq!(s1, s2);
            assert_eq!(st1.best_reward, st2.best_reward);
            // Each search owns its tables, so a repeat evaluates every
            // state and validates every transition again.
            assert_eq!(st1.states_evaluated, st2.states_evaluated);
            assert!(st2.states_evaluated > 0);
            assert_eq!(st1.successors_validated, st2.successors_validated);
            assert!(st2.successors_validated > 0);
        }
    }

    #[test]
    fn multiple_workers_complete() {
        let w = workload();
        let cfg = MctsConfig {
            workers: 3,
            max_iterations: 20,
            ..quick_cfg()
        };
        let (state, stats) = mcts_search(&w, &cfg);
        assert!(state.bind_all(&w).is_some());
        assert!(stats.iterations >= 20, "all workers contribute iterations");
    }

    #[test]
    fn early_stop_bounds_iterations() {
        let w = workload();
        let cfg = MctsConfig {
            workers: 1,
            max_iterations: 10_000,
            early_stop: 5,
            ..MctsConfig::default()
        };
        let (_, stats) = mcts_search(&w, &cfg);
        assert!(
            stats.iterations < 10_000,
            "early stopping must kick in: {} iterations",
            stats.iterations
        );
    }

    #[test]
    fn initial_actions_include_merge() {
        let w = workload();
        let actions = initial_actions(&w);
        assert!(actions.iter().any(|a| a.rule == pi2_difftree::Rule::Merge));
    }

    /// States of `shared`'s workload: the initial state, both seed states,
    /// and the states along two seeded 3-step walks from each of them. The
    /// walks use the direct transitions, so the states do not depend on the
    /// tables under test.
    fn walk_states(shared: &Shared<'_>) -> Vec<Arc<Forest>> {
        let w = shared.workload;
        let root = Arc::new(initial_state(w));
        let mut states = vec![Arc::clone(&root)];
        states.extend(seed_states(shared, &root));
        for start in states.clone() {
            for seed in [11u64, 29] {
                let mut rng = seed;
                let mut state = Arc::clone(&start);
                for _ in 0..3 {
                    let actions = pi2_difftree::candidate_actions(&state, w);
                    rng = rng
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let at = (rng >> 33) as usize;
                    let Some(next) = (0..actions.len())
                        .find_map(|k| apply_action(&state, w, actions[(at + k) % actions.len()]))
                    else {
                        break;
                    };
                    state = Arc::new(next);
                    states.push(Arc::clone(&state));
                }
            }
        }
        states
    }

    /// Entry counts of the transition tables.
    fn table_sizes(shared: &Shared<'_>) -> [usize; 4] {
        [
            shared.candidates.len(),
            shared.tree_candidates.len(),
            shared.successors.len(),
            shared.children.len(),
        ]
    }

    /// The search's tabled transitions equal the direct ones on the states
    /// of the seven paper logs and Filter duplicated to 90 queries, and a
    /// second pass over the same states adds no table entries.
    #[test]
    fn tabled_transitions_match_direct() {
        use pi2_difftree::transform::canonicalize;
        let mut logs: Vec<(String, Vec<String>)> = pi2_workloads::all_logs()
            .into_iter()
            .map(|l| (l.name.to_string(), l.queries))
            .collect();
        let dup = pi2_workloads::logs::duplicated(pi2_workloads::LogKind::Filter, 90);
        logs.push(("filter_x90".to_string(), dup.queries));
        for (name, sqls) in logs {
            let queries = sqls.iter().map(|q| parse_query(q).unwrap()).collect();
            let w = Workload::new(queries, pi2_workloads::catalog());
            let shared = Shared::new(&w);
            let states = walk_states(&shared);
            let check = |state: &Arc<Forest>| {
                let candidates = pi2_difftree::candidate_actions(state, &w);
                assert_eq!(*shared.candidates(state), candidates, "{name}");
                for &a in &candidates {
                    let direct = apply_action(state, &w, a);
                    assert_eq!(shared.apply(state, a).as_deref(), direct.as_ref(), "{name}");
                }
                let children: Vec<Forest> = applicable_actions(state, &w)
                    .into_iter()
                    .map(|a| apply_action(state, &w, a).unwrap())
                    .collect();
                let tabled: Vec<Forest> = shared
                    .expansion_children(state)
                    .iter()
                    .map(|c| Forest::clone(c))
                    .collect();
                assert_eq!(tabled, children, "{name}");
                for steps in [24, 48, 64] {
                    let direct = canonicalize(state, &w, steps);
                    assert_eq!(*shared.canonicalize(state, steps), direct, "{name}");
                }
                // `bound_trees` is the tree column of `bind_all`, and
                // duplicates copy their first occurrence.
                let trees = state
                    .bound_trees(&w)
                    .expect("search states express the log");
                let column: Vec<usize> =
                    state.bind_all(&w).unwrap().iter().map(|a| a.tree).collect();
                assert_eq!(trees, column, "{name}");
                assert!(
                    (0..w.len()).all(|qi| trees[qi] == trees[w.class[qi]]),
                    "{name}"
                );
            };
            states.iter().for_each(check);
            let sizes = table_sizes(&shared);
            assert!(sizes.iter().all(|&n| n > 0), "{name}: {sizes:?}");
            states.iter().for_each(check);
            assert_eq!(
                table_sizes(&shared),
                sizes,
                "{name}: the second pass added entries"
            );
            // A forest holding only the first query's tree cannot express
            // the others.
            let lone = Forest::new(vec![w.gsts[0].clone()]);
            if w.class.iter().any(|&c| c != 0) {
                assert!(lone.bound_trees(&w).is_none(), "{name}");
                assert!(lone.bind_all(&w).is_none(), "{name}");
            }
            if name == "filter_x90" {
                assert!(
                    (0..w.len()).any(|qi| w.class[qi] < qi),
                    "x90 has duplicates"
                );
            }
        }
    }

    /// The trail binder returns what the snapshot binder it replaced
    /// returned, for every (tree, distinct query) of every state
    /// `walk_states` reaches on the seven paper logs and Filter duplicated
    /// to 90 queries, failed binds included.
    #[test]
    fn trail_binder_matches_reference() {
        let mut logs: Vec<(String, Vec<String>)> = pi2_workloads::all_logs()
            .into_iter()
            .map(|l| (l.name.to_string(), l.queries))
            .collect();
        let dup = pi2_workloads::logs::duplicated(pi2_workloads::LogKind::Filter, 90);
        logs.push(("filter_x90".to_string(), dup.queries));
        for (name, sqls) in logs {
            let queries = sqls.iter().map(|q| parse_query(q).unwrap()).collect();
            let w = Workload::new(queries, pi2_workloads::catalog());
            let shared = Shared::new(&w);
            let (mut bound, mut failed) = (0, 0);
            for state in walk_states(&shared) {
                for tree in &state.trees {
                    for (qi, gst) in w.gsts.iter().enumerate() {
                        if w.class[qi] != qi {
                            continue;
                        }
                        let trail = pi2_difftree::bind_query(tree.node(), gst);
                        let reference = crate::bind_reference::bind_query(tree.node(), gst);
                        assert_eq!(trail, reference, "{name}, query {qi}");
                        if trail.is_some() {
                            bound += 1;
                        } else {
                            failed += 1;
                        }
                    }
                }
            }
            assert!(
                bound > 0 && failed > 0,
                "{name}: {bound} bound, {failed} failed"
            );
        }
    }

    #[test]
    fn transpositions_share_arena_nodes() {
        let w = workload();
        let shared = Shared::new(&w);
        let root = Arc::new(initial_state(&w));
        let seeds = seed_states(&shared, &root);
        let mut worker = Worker::new(quick_cfg(), 7, &shared, root, &seeds);
        for _ in 0..25 {
            worker.iterate();
        }
        // Reaching the same state along different paths must reuse nodes:
        // the arena index is injective over (key, terminal).
        assert_eq!(worker.index.len(), worker.nodes.len());
        let mut keys: Vec<(ForestKey, bool)> = worker
            .nodes
            .iter()
            .map(|n| (n.state.key(), n.terminal))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), worker.nodes.len(), "duplicate states in arena");
    }
}

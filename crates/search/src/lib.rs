#![warn(missing_docs)]
//! Search machinery for PI2 (§6): Monte Carlo Tree Search over Difftree
//! states and the V/M mapping generation of Algorithm 1.
//!
//! * [`mapping`] — Algorithm 1: exact-cover search over choice nodes with a
//!   dynamic program (`F`/`G`) for optimal widget covers, vis-interaction
//!   enumeration with conflict constraints, lower-bound pruning, and a
//!   top-k heap; plus the final branch-and-bound layout optimisation
//!   (§6.2.2),
//! * [`random`] — the random interface mappings used by MCTS reward
//!   estimation (K = 5 samples per state),
//! * [`mcts`] — single-player MCTS with the 3-term UCT of Eq. 1, the
//!   `TERMINATE` pseudo-rule, Cadiaplayer-style max-reward return, and
//!   parallel workers with early stopping (§6.2.1).

#[cfg(test)]
mod bind_reference;
pub mod mapping;
pub mod mcts;
pub mod random;

pub use mapping::{
    best_interface, generate_top_k, optimise_layout, MappingOptions, ScoredMapping, WidgetDp,
};
pub use mcts::{initial_state, mcts_search, MctsConfig, SearchStats};
pub use random::{estimate_reward, greedy_interface, random_interface};

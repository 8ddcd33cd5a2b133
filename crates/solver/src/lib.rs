//! # mani-solver
//!
//! Exact solver for the (fairness-constrained) Kemeny consensus ranking problem.
//!
//! The MANI-Rank paper solves Kemeny and Fair-Kemeny as 0/1 integer programs with IBM
//! CPLEX (Algorithm 1, Equations 7–12). CPLEX is proprietary, so this crate provides a
//! from-scratch replacement that solves the *same* optimisation problem exactly:
//!
//! > minimise the total pairwise disagreement with the precedence matrix, over all
//! > permutations, subject to `ARP_pk ≤ Δ` for every constrained protected attribute and
//! > `IRP ≤ Δ` for the (optionally constrained) intersection.
//!
//! The search is a depth-first branch and bound over ranking prefixes:
//!
//! * **Incremental cost** — placing candidate `c` next adds `Σ_{u unplaced} W[c][u]`
//!   disagreements, so the prefix cost is exact at every node.
//! * **Admissible lower bound** — unresolved pairs contribute at least
//!   `Σ min(W[a][b], W[b][a])`; the bound is maintained incrementally.
//! * **Fairness pruning** — for each constrained axis, the final FPR of each group is
//!   bracketed by an interval computed from the prefix; if no assignment of FPR values
//!   within those intervals can satisfy the Δ gap constraint, the subtree is pruned.
//! * **Incumbents** — the search is seeded with a heuristic feasible solution (Borda /
//!   Copeland refined by local search for plain Kemeny; Fair-Borda for Fair-Kemeny),
//!   so pruning is effective immediately.
//! * **Anytime mode** — a node budget caps the search; if it is exhausted the best
//!   feasible ranking found so far is returned with `optimal = false`.
//!
//! See the README's "Substitutions" section for why this preserves the paper's conclusions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod constraints;
pub mod model;
pub mod search;

pub use constraints::AxisConstraint;
pub use model::{KemenyProblem, SolveOutcome, SolverConfig};
pub use search::solve;

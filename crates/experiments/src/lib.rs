//! # mani-experiments
//!
//! Experiment harness regenerating every table and figure of the MANI-Rank paper's
//! evaluation (Section IV and the appendix). Each experiment module exposes a `run`
//! function returning a [`table::TextTable`] with the same rows/series the paper reports;
//! the `src/bin/` binaries print those tables and write CSV copies under
//! `target/experiments/`.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`datasets`] | Table I — the Low/Medium/High-Fair Mallows datasets |
//! | [`fig3`] | Figure 3 — attribute-only vs intersection-only vs MANI-Rank constraints |
//! | [`fig4`] | Figure 4 — 8-method comparison (PD loss, ARP, IRP vs θ) |
//! | [`fig5`] | Figure 5 — Price of Fairness vs θ and vs Δ |
//! | [`fig6`] | Figure 6 — runtime vs number of base rankings |
//! | [`fig7`] | Figure 7 — runtime vs number of candidates |
//! | [`table2`] | Table II — Fair-Borda ranker scalability |
//! | [`table3`] | Table III — Fair-Borda candidate scalability |
//! | [`table4`] | Table IV — student exam case study |
//! | [`table5`] | Table V — CSRankings case study |
//!
//! All experiments accept a [`config::Scale`]: `Scale::smoke()` finishes in seconds and is
//! exercised by tests/benches, `Scale::paper()` uses sizes close to the paper's (minutes;
//! the exact-method sizes are reduced, see the README's "Substitutions" section).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod datasets;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod runner;
pub mod table;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

pub use config::Scale;
pub use table::TextTable;

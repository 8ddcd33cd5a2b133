//! # mani-datagen
//!
//! Workload generation for the MANI-Rank reproduction:
//!
//! * [`population`] — candidate database builders (the paper's 90-candidate Gender×Race
//!   population, the binary populations of the scalability studies, and generic uniform
//!   populations).
//! * [`mallows`] — the Mallows ranking model sampled with the Repeated Insertion Method;
//!   base rankings are drawn around a modal ranking with dispersion θ exactly as in the
//!   paper's Section IV.
//! * [`modal`] — construction of modal rankings with *target* fairness levels (the
//!   Low-/Medium-/High-Fair datasets of Table I): start from the fully segregated ranking
//!   and apply parity-reducing swaps until every axis is at or below its target.
//! * [`exams`] — synthetic stand-in for the student exam-score dataset of the Table IV
//!   case study (200 students, Gender × Race × Lunch, three subject rankings).
//! * [`csrankings`] — synthetic stand-in for the CSRankings dataset of the Table V case
//!   study (65 departments, Location × Type, 21 yearly rankings).
//! * [`seed`] — deterministic RNG derivation so every experiment is reproducible from a
//!   single `u64` seed.
//!
//! The two case-study generators are *substitutions* for data files that are not available
//! offline; see the README's "Substitutions" section for the rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csrankings;
pub mod exams;
pub mod mallows;
pub mod modal;
pub mod population;
pub mod seed;

pub use csrankings::{CsRankingsConfig, CsRankingsDataset};
pub use exams::{ExamConfig, ExamDataset};
pub use mallows::MallowsModel;
pub use modal::{FairnessTarget, ModalRankingBuilder};
pub use population::{
    binary_population, compact_population, gender_race_population, paper_population_90,
    uniform_population, AttributeSpec,
};
pub use seed::rng_from_seed;

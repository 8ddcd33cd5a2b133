//! Experiment scale configuration and output locations.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// Size parameters shared by all experiments.
///
/// `smoke` keeps every experiment in the seconds range (used by tests and criterion
/// benches); `paper` uses sizes close to the paper's published configuration — with the
/// exact-optimisation experiments capped at the sizes our branch-and-bound solver closes
/// reliably (the substitution for CPLEX is documented in the README's "Substitutions" section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Human-readable name of the scale (`"smoke"` or `"paper"`).
    pub name: String,
    /// Number of candidates in the Table I style datasets used by Figures 3–5.
    pub mallows_candidates: usize,
    /// Number of base rankings in the Table I style datasets.
    pub mallows_rankings: usize,
    /// θ sweep used by Figures 3–5.
    pub thetas: Vec<f64>,
    /// Δ sweep used by Figure 5 (right panel).
    pub deltas: Vec<f64>,
    /// Candidate-set size used for experiments involving exact (Fair-)Kemeny.
    pub exact_candidates: usize,
    /// Node budget for the exact solver.
    pub solver_max_nodes: u64,
    /// Ranker counts swept by Figure 6.
    pub fig6_ranker_counts: Vec<usize>,
    /// Candidate count used by Figure 6.
    pub fig6_candidates: usize,
    /// Candidate counts swept by Figure 7.
    pub fig7_candidate_counts: Vec<usize>,
    /// Ranker count used by Figure 7.
    pub fig7_rankings: usize,
    /// Ranker counts swept by Table II (Fair-Borda only).
    pub table2_ranker_counts: Vec<usize>,
    /// Candidate counts swept by Table III (Fair-Borda only).
    pub table3_candidate_counts: Vec<usize>,
    /// Number of students in the Table IV case study.
    pub exam_students: usize,
    /// Number of departments / years in the Table V case study.
    pub csrankings_departments: usize,
    /// Number of yearly rankings in the Table V case study.
    pub csrankings_years: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Fast configuration used by tests and benches (seconds end-to-end).
    pub fn smoke() -> Self {
        Self {
            name: "smoke".into(),
            mallows_candidates: 30,
            mallows_rankings: 20,
            thetas: vec![0.2, 0.6],
            deltas: vec![0.1, 0.3, 0.5],
            exact_candidates: 14,
            solver_max_nodes: 100_000,
            fig6_ranker_counts: vec![10, 50, 100],
            fig6_candidates: 40,
            fig7_candidate_counts: vec![20, 40, 60],
            fig7_rankings: 20,
            table2_ranker_counts: vec![100, 1_000, 10_000],
            table3_candidate_counts: vec![100, 500, 1_000],
            exam_students: 200,
            csrankings_departments: 65,
            csrankings_years: 21,
            seed: 0x5EED,
        }
    }

    /// Configuration close to the paper's published sizes. Exact-method candidate counts
    /// are reduced (see the README's "Substitutions" section); everything else follows the paper.
    pub fn paper() -> Self {
        Self {
            name: "paper".into(),
            mallows_candidates: 90,
            mallows_rankings: 150,
            thetas: vec![0.2, 0.4, 0.6, 0.8],
            deltas: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            exact_candidates: 24,
            solver_max_nodes: 50_000_000,
            fig6_ranker_counts: vec![100, 500, 1_000, 5_000, 10_000, 20_000],
            fig6_candidates: 100,
            fig7_candidate_counts: vec![100, 200, 300, 400, 500],
            fig7_rankings: 100,
            table2_ranker_counts: vec![1_000, 10_000, 100_000, 1_000_000],
            table3_candidate_counts: vec![1_000, 10_000, 20_000, 30_000],
            exam_students: 200,
            csrankings_departments: 65,
            csrankings_years: 21,
            seed: 0x5EED,
        }
    }

    /// Parses a scale name (`"smoke"` / `"paper"`), defaulting to smoke.
    pub fn from_name(name: &str) -> Self {
        match name.to_ascii_lowercase().as_str() {
            "paper" | "full" => Self::paper(),
            _ => Self::smoke(),
        }
    }

    /// Parses the scale from command-line arguments (`--scale paper`), defaulting to smoke.
    pub fn from_args(args: &[String]) -> Self {
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if arg == "--scale" {
                if let Some(value) = iter.next() {
                    return Self::from_name(value);
                }
            }
            if let Some(value) = arg.strip_prefix("--scale=") {
                return Self::from_name(value);
            }
        }
        Self::smoke()
    }

    /// Directory where experiment CSV output is written.
    pub fn output_dir(&self) -> PathBuf {
        PathBuf::from("target").join("experiments").join(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_smaller_than_paper() {
        let smoke = Scale::smoke();
        let paper = Scale::paper();
        assert!(smoke.mallows_candidates < paper.mallows_candidates);
        assert!(smoke.mallows_rankings < paper.mallows_rankings);
        assert!(smoke.fig6_ranker_counts.last() < paper.fig6_ranker_counts.last());
        assert!(smoke.thetas.len() <= paper.thetas.len());
    }

    #[test]
    fn from_name_parses_known_names() {
        assert_eq!(Scale::from_name("paper").name, "paper");
        assert_eq!(Scale::from_name("PAPER").name, "paper");
        assert_eq!(Scale::from_name("smoke").name, "smoke");
        assert_eq!(Scale::from_name("anything-else").name, "smoke");
    }

    #[test]
    fn from_args_parses_both_forms() {
        let args: Vec<String> = vec!["--scale".into(), "paper".into()];
        assert_eq!(Scale::from_args(&args).name, "paper");
        let args: Vec<String> = vec!["--scale=paper".into()];
        assert_eq!(Scale::from_args(&args).name, "paper");
        let args: Vec<String> = vec![];
        assert_eq!(Scale::from_args(&args).name, "smoke");
    }

    #[test]
    fn output_dir_contains_scale_name() {
        let dir = Scale::smoke().output_dir();
        assert!(dir.to_string_lossy().contains("smoke"));
    }
}

//! Figure 6 — scalability in the number of base rankings.
//!
//! The paper's configuration: 100 candidates with binary Gender/Race, a modal ranking with
//! ARP(Race) = 0.15, ARP(Gender) = 0.7, IRP = 0.55, θ = 0.6, Δ = 0.1, and the number of
//! base rankings swept up to 20 000. Every method's wall-clock runtime is reported. The
//! exact optimisation methods (Fair-Kemeny, Kemeny, Kemeny-Weighted) are only run while the
//! candidate count is at or below the scale's exact cutoff — above that our CPLEX
//! substitute would time out; see the README's "Substitutions" section.

use mani_datagen::{binary_population, FairnessTarget, MallowsModel, ModalRankingBuilder};
use mani_fairness::FairnessThresholds;
use mani_ranking::Result;

use crate::config::Scale;
use crate::runner::{methods_for_size, run_methods, OwnedContext};
use crate::table::{fmt3, fmt_secs, TextTable};

/// The Δ used by Figure 6.
pub const FIG6_DELTA: f64 = 0.1;

/// The Figure 6 modal fairness target (binary Gender / binary Race population).
pub fn fig6_target() -> FairnessTarget {
    FairnessTarget {
        attribute_arp: vec![0.7, 0.15],
        irp: 0.55,
    }
}

/// Runs Figure 6 and returns one row per (|R|, method) with the measured runtime.
pub fn run(scale: &Scale) -> Result<TextTable> {
    let mut table = TextTable::new(
        format!(
            "Figure 6 — runtime vs number of base rankings (n = {}, Δ = {FIG6_DELTA})",
            scale.fig6_candidates
        ),
        &[
            "num_rankings",
            "method",
            "runtime_s",
            "pd_loss",
            "satisfies_mani_rank",
        ],
    );
    let db = binary_population(scale.fig6_candidates, 0.5, 0.5, scale.seed);
    let modal = ModalRankingBuilder::new(&db).build(&fig6_target());
    let model = MallowsModel::new(modal, 0.6);
    let kinds = methods_for_size(scale, db.len());

    for &num_rankings in &scale.fig6_ranker_counts {
        let profile = model.sample_profile(num_rankings, scale.seed ^ num_rankings as u64);
        let owned = OwnedContext::new(db.clone(), profile);
        let ctx = owned.context(FairnessThresholds::uniform(FIG6_DELTA));
        for timed in run_methods(&kinds, &ctx, scale)? {
            table.push_row(vec![
                num_rankings.to_string(),
                timed.kind.paper_label().to_string(),
                fmt_secs(timed.runtime),
                fmt3(timed.outcome.pd_loss),
                timed.outcome.criteria.is_satisfied().to_string(),
            ]);
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_rows_cover_all_sweep_points() {
        let mut scale = Scale::smoke();
        scale.fig6_candidates = 24;
        scale.fig6_ranker_counts = vec![5, 20];
        scale.exact_candidates = 12; // exact methods excluded at n = 24
        let table = run(&scale).unwrap();
        // 2 sweep points x 5 polynomial methods
        assert_eq!(table.len(), 10);
        for row in table.rows() {
            let runtime: f64 = row[2].parse().unwrap();
            assert!(runtime >= 0.0);
        }
    }

    #[test]
    fn proposed_methods_meet_delta_at_every_sweep_point() {
        let mut scale = Scale::smoke();
        scale.fig6_candidates = 24;
        scale.fig6_ranker_counts = vec![10];
        scale.exact_candidates = 12;
        let table = run(&scale).unwrap();
        for row in table.rows() {
            if row[1].contains("Fair-") {
                let ok: bool = row[4].parse().unwrap();
                assert!(ok, "{} must satisfy MANI-Rank", row[1]);
            }
        }
    }
}

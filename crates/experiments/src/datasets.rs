//! Table I — the Mallows datasets with Low-/Medium-/High-Fair modal rankings.

use mani_datagen::{
    compact_population, gender_race_population, FairnessTarget, MallowsModel, ModalRankingBuilder,
};
use mani_fairness::ParityScores;
use mani_ranking::{CandidateDb, GroupIndex, Ranking, RankingProfile};

use crate::config::Scale;
use crate::table::{fmt3, TextTable};

/// Fairness level of a Table I dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FairnessLevel {
    /// ARP targets 0.7 / 0.7, IRP 1.0.
    LowFair,
    /// ARP targets 0.5 / 0.5, IRP 0.75.
    MediumFair,
    /// ARP targets 0.3 / 0.3, IRP 0.54.
    HighFair,
}

impl FairnessLevel {
    /// All three levels in the paper's order.
    pub fn all() -> [FairnessLevel; 3] {
        [
            FairnessLevel::LowFair,
            FairnessLevel::MediumFair,
            FairnessLevel::HighFair,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            FairnessLevel::LowFair => "Low-Fair",
            FairnessLevel::MediumFair => "Medium-Fair",
            FairnessLevel::HighFair => "High-Fair",
        }
    }

    /// The fairness target associated with this level (for two protected attributes).
    pub fn target(&self) -> FairnessTarget {
        match self {
            FairnessLevel::LowFair => FairnessTarget::low_fair(2),
            FairnessLevel::MediumFair => FairnessTarget::medium_fair(2),
            FairnessLevel::HighFair => FairnessTarget::high_fair(2),
        }
    }
}

/// One Mallows workload: a population, a modal ranking at a fairness level, and the
/// machinery to sample base-ranking profiles at any θ.
#[derive(Debug, Clone)]
pub struct MallowsDataset {
    /// Candidate database.
    pub db: CandidateDb,
    /// Group index over the database.
    pub groups: GroupIndex,
    /// The modal ranking.
    pub modal: Ranking,
    /// Fairness level of the modal ranking.
    pub level: FairnessLevel,
    /// Number of base rankings to sample per profile.
    pub num_rankings: usize,
    /// Master seed.
    pub seed: u64,
}

impl MallowsDataset {
    /// Builds the dataset for one fairness level at the given scale.
    ///
    /// At `Scale::paper()` this is exactly the paper's population (90 candidates,
    /// Gender × Race with 15 cells of 6); smaller scales shrink the population but keep
    /// the same attribute structure.
    pub fn generate(level: FairnessLevel, scale: &Scale) -> Self {
        let db = population_for(scale);
        let groups = GroupIndex::new(&db);
        let modal = ModalRankingBuilder::new(&db).build(&level.target());
        Self {
            db,
            groups,
            modal,
            level,
            num_rankings: scale.mallows_rankings,
            seed: scale.seed,
        }
    }

    /// Builds a *compact* variant of the dataset sized for the exact (Fair-)Kemeny solver:
    /// a balanced Gender (2) × Race (3) population with at least two candidates per
    /// intersectional cell and roughly `scale.exact_candidates` candidates in total.
    ///
    /// The paper runs these experiments on the full 90-candidate population with CPLEX;
    /// this reduction is the documented substitution for that solver (see the README's "Substitutions" section).
    pub fn generate_exact(level: FairnessLevel, scale: &Scale) -> Self {
        let per_cell = (scale.exact_candidates / 6).max(2);
        let db = compact_population(per_cell);
        let groups = GroupIndex::new(&db);
        let modal = ModalRankingBuilder::new(&db).build(&level.target());
        Self {
            db,
            groups,
            modal,
            level,
            num_rankings: scale.mallows_rankings,
            seed: scale.seed,
        }
    }

    /// Samples a profile of base rankings at dispersion θ.
    pub fn profile(&self, theta: f64) -> RankingProfile {
        MallowsModel::new(self.modal.clone(), theta)
            .sample_profile(self.num_rankings, self.seed ^ (theta * 1e6) as u64)
    }

    /// Parity scores of the modal ranking (the values reported in Table I).
    pub fn modal_parity(&self) -> ParityScores {
        ParityScores::compute(&self.modal, &self.groups)
    }
}

/// The population used by the Table I datasets at the requested scale: the paper's
/// Gender (3) × Race (5) structure with balanced intersectional cells, sized so the total
/// is at least `mallows_candidates` (rounded up to a multiple of 15 as in the paper).
fn population_for(scale: &Scale) -> CandidateDb {
    let per_cell = scale.mallows_candidates.div_ceil(15).max(1);
    gender_race_population(per_cell)
}

/// Regenerates Table I: the modal-ranking parity scores of all three datasets.
pub fn table1(scale: &Scale) -> TextTable {
    let mut table = TextTable::new(
        format!(
            "Table I — Mallows datasets ({} rankings over {} candidates)",
            scale.mallows_rankings, scale.mallows_candidates
        ),
        &["Dataset", "ARP_Gender", "ARP_Race", "IRP"],
    );
    for level in FairnessLevel::all() {
        let dataset = MallowsDataset::generate(level, scale);
        let parity = dataset.modal_parity();
        let gender = dataset.db.schema().attribute_id("Gender").expect("schema");
        let race = dataset.db.schema().attribute_id("Race").expect("schema");
        table.push_row(vec![
            level.name().to_string(),
            fmt3(parity.arp(gender)),
            fmt3(parity.arp(race)),
            fmt3(parity.irp()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_have_expected_ordering() {
        let scale = Scale::smoke();
        let low = MallowsDataset::generate(FairnessLevel::LowFair, &scale);
        let high = MallowsDataset::generate(FairnessLevel::HighFair, &scale);
        assert!(low.modal_parity().max_violation() >= high.modal_parity().max_violation());
    }

    #[test]
    fn profiles_are_reproducible_and_sized() {
        let scale = Scale::smoke();
        let ds = MallowsDataset::generate(FairnessLevel::MediumFair, &scale);
        let a = ds.profile(0.6);
        let b = ds.profile(0.6);
        assert_eq!(a.rankings(), b.rankings());
        assert_eq!(a.len(), scale.mallows_rankings);
        assert_eq!(a.num_candidates(), scale.mallows_candidates);
    }

    #[test]
    fn table1_has_three_rows_with_bounded_scores() {
        let table = table1(&Scale::smoke());
        assert_eq!(table.len(), 3);
        for row in table.rows() {
            for cell in &row[1..] {
                let v: f64 = cell.parse().unwrap();
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn paper_scale_uses_the_90_candidate_population() {
        let ds = MallowsDataset::generate(FairnessLevel::LowFair, &Scale::paper());
        assert_eq!(ds.db.len(), 90);
        assert_eq!(ds.db.schema().intersection_cardinality(), 15);
    }

    #[test]
    fn level_metadata_is_consistent() {
        assert_eq!(FairnessLevel::all().len(), 3);
        assert_eq!(FairnessLevel::LowFair.name(), "Low-Fair");
        assert_eq!(
            FairnessLevel::HighFair.target().attribute_arp,
            vec![0.3, 0.3]
        );
    }
}

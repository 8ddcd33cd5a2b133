//! Make-MR-Fair (Algorithm 2): pairwise bias mitigation for a consensus ranking.
//!
//! Given a consensus ranking that may violate the MANI-Rank criteria, Make-MR-Fair
//! repeatedly:
//!
//! 1. finds the axis (protected attribute or intersection) with the largest parity
//!    violation relative to its threshold,
//! 2. within that axis identifies the group with the highest FPR (`G_highest`) and the
//!    group with the lowest FPR (`G_lowest`),
//! 3. takes the lowest-ranked member of `G_highest` that still has a `G_lowest` member
//!    ranked below it (`x_Gh`), and the highest-ranked such `G_lowest` member (`x_Gl`),
//! 4. swaps the two candidates.
//!
//! Each swap strictly decreases `G_highest`'s FPR and increases `G_lowest`'s, moving the
//! axis towards statistical parity while disturbing as few pairwise preferences as
//! possible. The loop terminates when every constrained axis is at or below its threshold
//! (or, as a safety net, when a greedy pass exhausts its swap budget of
//! `min(ω(X) · (|P| + 1), 32n + 512)`: the paper's worst-case bound, capped at a small
//! multiple of `n` so a stalled pass hands over to the fair-interleave fallback quickly).
//!
//! Every constrained axis keeps an [`AxisFpr`] position-sum accumulator that each swap
//! updates in O(1), so the loop condition, the extreme-group pick, the most violating
//! axis and the cross-axis guard read live scores instead of re-scanning the ranking.

use mani_fairness::{AxisFpr, FairnessThresholds};
use mani_ranking::{total_pairs, CandidateId, GroupIndex, GroupMembership, Ranking};
use serde::Serialize;

/// Result of a Make-MR-Fair correction.
#[derive(Debug, Clone, Serialize)]
pub struct CorrectionReport {
    /// The corrected consensus ranking.
    #[serde(skip)]
    pub ranking: Ranking,
    /// Number of pairwise swaps applied.
    pub swaps: u64,
    /// True when every constrained axis ended at or below its threshold.
    pub satisfied: bool,
}

/// Numerical slack when comparing parity scores against Δ.
const EPS: f64 = 1e-9;

/// Applies Make-MR-Fair to `consensus` and returns the corrected ranking.
///
/// The pairwise-swap loop is the paper's Algorithm 2. When the greedy extreme-pair swaps
/// stall before reaching Δ (which happens when many small intersectional groups have to be
/// balanced simultaneously), the correction falls back to a *fair interleave*: candidates
/// are re-spread so that every group of the finest constrained partition occupies evenly
/// distributed positions while the within-group order of the input consensus is preserved,
/// and the greedy loop then polishes the result. The fallback trades a little extra PD loss
/// for guaranteed convergence; see the README's "Substitutions" section.
pub fn make_mr_fair(
    consensus: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> CorrectionReport {
    let first_pass = greedy_correction(consensus, groups, thresholds);
    if first_pass.satisfied {
        return first_pass;
    }
    // Fallback: evenly interleave the groups of the finest constrained partition, then let
    // the greedy pass polish any residual violation.
    let interleaved = fair_interleave(consensus, groups, thresholds);
    let mut second_pass = greedy_correction(&interleaved, groups, thresholds);
    second_pass.swaps += first_pass.swaps;
    second_pass
}

/// The paper's greedy extreme-pair swap loop (Algorithm 2).
fn greedy_correction(
    consensus: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> CorrectionReport {
    let mut ranking = consensus.clone();
    let n = ranking.len();
    // The paper's worst-case bound is ω(X) swaps per constrained axis, but a convergent run
    // needs far fewer (each early swap moves candidates over long distances). Cap the greedy
    // pass at a small multiple of n so a stalled pass hands over to the interleave fallback
    // quickly instead of burning the quadratic budget.
    let max_swaps =
        (total_pairs(n) * (groups.num_attributes() as u64 + 1)).min(32 * n as u64 + 512);
    let mut axes = constrained_axes(&ranking, groups, thresholds);
    let mut swaps = 0u64;

    let satisfied = 'rounds: loop {
        let Some(correcting) = most_violating_axis(&axes) else {
            break true;
        };
        // Correct the chosen axis all the way down to its threshold before re-examining the
        // others. Correcting one swap at a time and re-picking the most violating axis can
        // oscillate when two axes are correlated (each axis' swap partially undoes the
        // other's); fully correcting an axis per round behaves like coordinate descent and
        // converges on every workload in the evaluation.
        let guard = CrossAxisGuard::new(n, &axes, correcting);
        while axes[correcting].violated() {
            if swaps >= max_swaps {
                break 'rounds false;
            }
            // No parity-reducing swap along this axis: the correction cannot progress.
            let Some((high_pos, low_pos)) = pick_swap(&ranking, &axes[correcting], &guard) else {
                break 'rounds false;
            };
            let down = ranking.candidate_at(high_pos);
            let up = ranking.candidate_at(low_pos);
            ranking.swap_positions(high_pos, low_pos);
            for axis in &mut axes {
                let membership = axis.membership;
                let (down_group, up_group) = (membership.group_of(down), membership.group_of(up));
                axis.fpr.swapped(down_group, up_group, low_pos - high_pos);
            }
            swaps += 1;
        }
    };
    CorrectionReport {
        ranking,
        swaps,
        satisfied,
    }
}

/// Evenly re-spreads the groups of the finest constrained partition across the ranking
/// while preserving the within-group order of `consensus`.
///
/// Each candidate is assigned the quota position `(rank within its group + 0.5) / |group|`
/// and candidates are stably sorted by that quota; every group (and therefore every union
/// of groups, i.e. every protected-attribute group) ends up spread uniformly, which puts
/// all FPR scores near 0.5.
fn fair_interleave(
    consensus: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> Ranking {
    let n = consensus.len();
    let partition = finest_constrained_partition(groups, thresholds);
    // rank of each candidate within its partition cell, in consensus order
    let num_cells = partition.iter().copied().max().map_or(1, |m| m + 1);
    let mut cell_sizes = vec![0usize; num_cells];
    for &cell in &partition {
        cell_sizes[cell] += 1;
    }
    let mut seen = vec![0usize; num_cells];
    let mut keyed: Vec<(f64, usize, u32)> = Vec::with_capacity(n);
    for pos in 0..n {
        let cand = consensus.candidate_at(pos);
        let cell = partition[cand.index()];
        let quota = (seen[cell] as f64 + 0.5) / cell_sizes[cell] as f64;
        seen[cell] += 1;
        keyed.push((quota, pos, cand.0));
    }
    // Stable order: by quota, then by original position (preserves within-group order and
    // breaks cross-group ties deterministically by who was ranked higher).
    keyed.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    Ranking::from_ids(keyed.into_iter().map(|(_, _, id)| id))
        .expect("re-ordering a permutation yields a permutation")
}

/// Membership in the finest partition induced by the constrained axes: the intersection
/// when it is constrained, otherwise the product of the constrained attributes (or the
/// intersection again if nothing narrower is available).
fn finest_constrained_partition(
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> Vec<usize> {
    if thresholds.intersection_delta().is_some() {
        return groups.intersection().membership().to_vec();
    }
    // Product of the constrained attributes' memberships, encoded in mixed radix.
    let n = groups.num_candidates();
    let mut codes = vec![0usize; n];
    let mut any = false;
    for (attr_id, membership) in groups.attributes() {
        if thresholds.attribute_delta(attr_id).is_none() {
            continue;
        }
        any = true;
        let radix = membership.num_groups();
        for (cand, code) in codes.iter_mut().enumerate() {
            *code = *code * radix + membership.membership()[cand];
        }
    }
    if any {
        codes
    } else {
        groups.intersection().membership().to_vec()
    }
}

/// One constrained axis (protected attribute or intersection): its threshold and the live
/// FPR scores of its groups.
struct ConstrainedAxis<'a> {
    membership: &'a GroupMembership,
    delta: f64,
    fpr: AxisFpr,
}

impl ConstrainedAxis<'_> {
    /// The axis' ARP/IRP: the largest FPR gap between two of its groups.
    fn parity(&self) -> f64 {
        self.fpr.scores().max_pairwise_gap()
    }

    fn violated(&self) -> bool {
        self.parity() > self.delta + EPS
    }
}

/// Every constrained axis of `ranking`: the attributes in index order, then the
/// intersection.
fn constrained_axes<'a>(
    ranking: &Ranking,
    groups: &'a GroupIndex,
    thresholds: &FairnessThresholds,
) -> Vec<ConstrainedAxis<'a>> {
    let attributes = groups.attributes().filter_map(|(attr_id, membership)| {
        thresholds
            .attribute_delta(attr_id)
            .map(|delta| (membership, delta))
    });
    let intersection = thresholds
        .intersection_delta()
        .map(|delta| (groups.intersection(), delta));
    attributes
        .chain(intersection)
        .map(|(membership, delta)| ConstrainedAxis {
            membership,
            delta,
            fpr: AxisFpr::new(ranking, membership),
        })
        .collect()
}

/// Index of the axis with the largest ARP/IRP among those exceeding their thresholds (the
/// first on ties), or `None` when the ranking already satisfies MANI-Rank.
fn most_violating_axis(axes: &[ConstrainedAxis<'_>]) -> Option<usize> {
    let mut worst: Option<(usize, f64)> = None;
    for (i, axis) in axes.iter().enumerate() {
        let score = axis.parity();
        if score > axis.delta + EPS && worst.is_none_or(|(_, s)| score > s) {
            worst = Some((i, score));
        }
    }
    worst.map(|(i, _)| i)
}

/// Cross-axis lookahead used to break deterministic swap cycles between correlated axes.
///
/// When correcting one axis, a swap moves one candidate down (`x_Gh`) and one up (`x_Gl`).
/// Another axis is harmed when the candidate moving down belongs to that axis's lowest-FPR
/// group, or the candidate moving up belongs to its highest-FPR group. The guard records,
/// for every *other* constrained axis, those "sensitive" groups (computed once per
/// correction round), so the pair selection can prefer swap partners that do not undo the
/// progress of previously corrected axes. Preference only — if no harmless partner exists,
/// the default Make-MR-Fair pair is used.
struct CrossAxisGuard {
    /// Indexed by candidate: true when the candidate belongs to the lowest-FPR group of
    /// another constrained axis, so demoting it widens that axis' gap.
    avoid_moving_down: Vec<bool>,
    /// Indexed by candidate: true when the candidate belongs to the highest-FPR group of
    /// another constrained axis, so promoting it widens that axis' gap.
    avoid_moving_up: Vec<bool>,
}

impl CrossAxisGuard {
    /// Snapshot of the extreme groups of every axis except `axes[correcting]`.
    fn new(n: usize, axes: &[ConstrainedAxis<'_>], correcting: usize) -> Self {
        let mut avoid_moving_down = vec![false; n];
        let mut avoid_moving_up = vec![false; n];
        for (i, axis) in axes.iter().enumerate() {
            if i == correcting {
                continue;
            }
            let scores = axis.fpr.scores();
            let (Some(high), Some(low)) = (scores.argmax(), scores.argmin()) else {
                continue;
            };
            for (cand, &g) in axis.membership.membership().iter().enumerate() {
                if g == low {
                    avoid_moving_down[cand] = true;
                }
                if g == high {
                    avoid_moving_up[cand] = true;
                }
            }
        }
        Self {
            avoid_moving_down,
            avoid_moving_up,
        }
    }

    fn harmless_down(&self, candidate: CandidateId) -> bool {
        !self.avoid_moving_down[candidate.index()]
    }

    fn harmless_up(&self, candidate: CandidateId) -> bool {
        !self.avoid_moving_up[candidate.index()]
    }
}

/// Positions `(x_Gh, x_Gl)` of one Make-MR-Fair swap along `axis`, or `None` when no valid
/// pair exists.
fn pick_swap(
    ranking: &Ranking,
    axis: &ConstrainedAxis<'_>,
    guard: &CrossAxisGuard,
) -> Option<(usize, usize)> {
    let scores = axis.fpr.scores();
    let (high_group, low_group) = (scores.argmax()?, scores.argmin()?);
    if high_group == low_group {
        return None;
    }
    let group_at = |pos| axis.membership.group_of(ranking.candidate_at(pos));
    // Bottom-most member of the low group; x_Gh must be above it to have a partner.
    let bottom_low = (0..ranking.len())
        .rev()
        .find(|&pos| group_at(pos) == low_group)?;
    // x_Gh: lowest-ranked member of the high group above that position, preferring one whose
    // demotion does not hurt another constrained axis.
    let mut default_high = None;
    let mut preferred_high = None;
    for pos in (0..bottom_low).rev() {
        if group_at(pos) != high_group {
            continue;
        }
        default_high.get_or_insert(pos);
        if guard.harmless_down(ranking.candidate_at(pos)) {
            preferred_high = Some(pos);
            break;
        }
    }
    let high_pos = preferred_high.or(default_high)?;
    // x_Gl: highest-ranked member of the low group below x_Gh, preferring one whose
    // promotion does not hurt another constrained axis.
    let mut default_low = None;
    let mut preferred_low = None;
    for pos in (high_pos + 1)..ranking.len() {
        if group_at(pos) != low_group {
            continue;
        }
        default_low.get_or_insert(pos);
        if guard.harmless_up(ranking.candidate_at(pos)) {
            preferred_low = Some(pos);
            break;
        }
    }
    let low_pos = preferred_low.or(default_low)?;
    Some((high_pos, low_pos))
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use mani_fairness::{ManiRankCriteria, ParityScores};
    use mani_ranking::{kendall_tau, CandidateDb, CandidateDbBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db_two_attrs(n: usize) -> (CandidateDb, GroupIndex) {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("Gender", ["M", "W"]).unwrap();
        let r = b.add_attribute("Race", ["A", "B", "C"]).unwrap();
        for i in 0..n {
            b.add_candidate(format!("c{i}"), [(g, i % 2), (r, i % 3)])
                .unwrap();
        }
        let db = b.build().unwrap();
        let idx = GroupIndex::new(&db);
        (db, idx)
    }

    fn segregated(db: &CandidateDb) -> Ranking {
        let mut ids: Vec<u32> = db.candidate_ids().map(|c| c.0).collect();
        ids.sort_by_key(|&id| {
            let cand = db.candidate(mani_ranking::CandidateId(id)).unwrap();
            (cand.values()[0].index(), cand.values()[1].index(), id)
        });
        Ranking::from_ids(ids).unwrap()
    }

    #[test]
    fn already_fair_ranking_is_untouched() {
        let (_db, idx) = db_two_attrs(12);
        let ranking = Ranking::identity(12);
        let thresholds = FairnessThresholds::uniform(1.0);
        let report = make_mr_fair(&ranking, &idx, &thresholds);
        assert!(report.satisfied);
        assert_eq!(report.swaps, 0);
        assert_eq!(report.ranking, ranking);
    }

    #[test]
    fn segregated_ranking_is_corrected_to_delta() {
        let (db, idx) = db_two_attrs(24);
        let ranking = segregated(&db);
        let thresholds = FairnessThresholds::uniform(0.1);
        // sanity: the input violates the criteria badly
        assert!(!ManiRankCriteria::evaluate(&ranking, &idx, &thresholds).is_satisfied());

        let report = make_mr_fair(&ranking, &idx, &thresholds);
        assert!(report.satisfied, "correction should reach Δ = 0.1");
        assert!(report.swaps > 0);
        let criteria = ManiRankCriteria::evaluate(&report.ranking, &idx, &thresholds);
        assert!(criteria.is_satisfied());
        // the corrected ranking is still a valid permutation
        report.ranking.check_invariants().unwrap();
    }

    #[test]
    fn tighter_delta_requires_more_swaps() {
        let (db, idx) = db_two_attrs(30);
        let ranking = segregated(&db);
        let loose = make_mr_fair(&ranking, &idx, &FairnessThresholds::uniform(0.4));
        let tight = make_mr_fair(&ranking, &idx, &FairnessThresholds::uniform(0.05));
        assert!(loose.satisfied && tight.satisfied);
        assert!(tight.swaps >= loose.swaps);
    }

    #[test]
    fn correction_moves_ranking_as_little_as_needed() {
        // The number of flipped pairs is bounded by the number of swaps times the max span,
        // but more importantly a mild violation should cost far fewer flips than reversal.
        let (db, idx) = db_two_attrs(20);
        let ranking = segregated(&db);
        let report = make_mr_fair(&ranking, &idx, &FairnessThresholds::uniform(0.2));
        assert!(report.satisfied);
        let moved = kendall_tau(&ranking, &report.ranking).unwrap();
        assert!(moved < total_pairs(20) / 2, "moved {moved} pairs");
    }

    #[test]
    fn attributes_only_thresholds_ignore_intersection() {
        let (db, idx) = db_two_attrs(24);
        let ranking = segregated(&db);
        let thresholds = FairnessThresholds::attributes_only(0.1);
        let report = make_mr_fair(&ranking, &idx, &thresholds);
        assert!(report.satisfied);
        let parity = ParityScores::compute(&report.ranking, &idx);
        for &arp in parity.arps() {
            assert!(arp <= 0.1 + 1e-9);
        }
        // The intersection is typically still unfair — that is the point of Figure 3.
        // (We only check it was not explicitly constrained, not a specific value.)
    }

    #[test]
    fn per_attribute_overrides_are_honoured() {
        let (db, idx) = db_two_attrs(24);
        let gender = db.schema().attribute_id("Gender").unwrap();
        let race = db.schema().attribute_id("Race").unwrap();
        let thresholds = FairnessThresholds::uniform(0.3)
            .with_attribute_delta(gender, 0.05)
            .with_intersection_delta(0.5);
        let report = make_mr_fair(&segregated(&db), &idx, &thresholds);
        assert!(report.satisfied);
        let parity = ParityScores::compute(&report.ranking, &idx);
        assert!(parity.arp(gender) <= 0.05 + 1e-9);
        assert!(parity.arp(race) <= 0.3 + 1e-9);
        assert!(parity.irp() <= 0.5 + 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_correction_always_satisfies_reachable_delta(
            n_cells in 2usize..6,
            seed in any::<u64>(),
            delta in 0.15f64..0.6,
        ) {
            // 6 candidates per cell multiple ensures parity is reachable at moderate deltas.
            let (db, idx) = db_two_attrs(6 * n_cells);
            let mut rng = StdRng::seed_from_u64(seed);
            let ranking = Ranking::random(db.len(), &mut rng);
            let thresholds = FairnessThresholds::uniform(delta);
            let report = make_mr_fair(&ranking, &idx, &thresholds);
            prop_assert!(report.ranking.check_invariants().is_ok());
            if report.satisfied {
                let criteria = ManiRankCriteria::evaluate(&report.ranking, &idx, &thresholds);
                prop_assert!(criteria.is_satisfied());
            }
            // Two greedy passes (before and after the interleave fallback), each capped at
            // min(ω(X)·(|P|+1), 32n + 512) swaps with |P| = 2 attributes.
            let n = db.len() as u64;
            prop_assert!(report.swaps <= 2 * (total_pairs(db.len()) * 3).min(32 * n + 512));
        }
    }
}

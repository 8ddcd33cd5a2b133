//! Test-only differential oracle for Make-MR-Fair.
//!
//! [`make_mr_fair`] here is the greedy swap loop that re-scans the whole ranking with
//! [`group_fprs`] on every read (O(n) per swap): the loop condition, the extreme-group
//! pick, the most violating axis and the cross-axis guard each recompute FPR from
//! scratch. The production loop reads [`mani_fairness::AxisFpr`] accumulators instead;
//! the differential test below pins it to this oracle swap for swap.

use mani_fairness::{group_fprs, FairnessThresholds};
use mani_ranking::{total_pairs, CandidateId, GroupIndex, GroupMembership, Ranking};

use super::{fair_interleave, CorrectionReport, EPS};

/// The reference correction, plus whether it took the fair-interleave fallback.
fn make_mr_fair(
    consensus: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> (CorrectionReport, bool) {
    let first_pass = greedy_correction(consensus, groups, thresholds);
    if first_pass.satisfied {
        return (first_pass, false);
    }
    let interleaved = fair_interleave(consensus, groups, thresholds);
    let mut second_pass = greedy_correction(&interleaved, groups, thresholds);
    second_pass.swaps += first_pass.swaps;
    (second_pass, true)
}

fn greedy_correction(
    consensus: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> CorrectionReport {
    let mut ranking = consensus.clone();
    let n = ranking.len();
    let max_swaps =
        (total_pairs(n) * (groups.num_attributes() as u64 + 1)).min(32 * n as u64 + 512);
    let mut swaps = 0u64;
    let report = |ranking, swaps, satisfied| CorrectionReport {
        ranking,
        swaps,
        satisfied,
    };
    loop {
        let Some(axis) = most_violating_axis(&ranking, groups, thresholds) else {
            return report(ranking, swaps, true);
        };
        let membership = axis_membership(groups, axis);
        let delta = axis_delta(groups, thresholds, axis);
        let guard = CrossAxisGuard::new(&ranking, groups, thresholds, axis);
        let mut progressed = false;
        while group_fprs(&ranking, membership).max_pairwise_gap() > delta + EPS {
            if swaps >= max_swaps || !swap_towards_parity(&mut ranking, membership, &guard) {
                return report(ranking, swaps, false);
            }
            swaps += 1;
            progressed = true;
        }
        if !progressed {
            let satisfied = most_violating_axis(&ranking, groups, thresholds).is_none();
            return report(ranking, swaps, satisfied);
        }
    }
}

fn axis_delta(groups: &GroupIndex, thresholds: &FairnessThresholds, axis: AxisRef) -> f64 {
    match axis {
        AxisRef::Attribute(i) => {
            let attr_id = groups.attributes().nth(i).expect("enumerated axis").0;
            thresholds.attribute_delta(attr_id).unwrap_or(1.0)
        }
        AxisRef::Intersection => thresholds.intersection_delta().unwrap_or(1.0),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AxisRef {
    Attribute(usize),
    Intersection,
}

fn axis_membership(groups: &GroupIndex, axis: AxisRef) -> &GroupMembership {
    match axis {
        AxisRef::Attribute(i) => groups.attributes().nth(i).expect("enumerated axis").1,
        AxisRef::Intersection => groups.intersection(),
    }
}

fn most_violating_axis(
    ranking: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> Option<AxisRef> {
    let mut worst: Option<(AxisRef, f64)> = None;
    for (i, (attr_id, membership)) in groups.attributes().enumerate() {
        if let Some(delta) = thresholds.attribute_delta(attr_id) {
            let score = group_fprs(ranking, membership).max_pairwise_gap();
            if score > delta + EPS && worst.as_ref().is_none_or(|(_, s)| score > *s) {
                worst = Some((AxisRef::Attribute(i), score));
            }
        }
    }
    if let Some(delta) = thresholds.intersection_delta() {
        let score = group_fprs(ranking, groups.intersection()).max_pairwise_gap();
        if score > delta + EPS && worst.as_ref().is_none_or(|(_, s)| score > *s) {
            worst = Some((AxisRef::Intersection, score));
        }
    }
    worst.map(|(axis, _)| axis)
}

struct CrossAxisGuard {
    avoid_moving_down: Vec<bool>,
    avoid_moving_up: Vec<bool>,
}

impl CrossAxisGuard {
    fn new(
        ranking: &Ranking,
        groups: &GroupIndex,
        thresholds: &FairnessThresholds,
        correcting: AxisRef,
    ) -> Self {
        let n = ranking.len();
        let mut avoid_moving_down = vec![false; n];
        let mut avoid_moving_up = vec![false; n];
        let mut mark = |membership: &GroupMembership| {
            let fprs = group_fprs(ranking, membership);
            let (Some(high), Some(low)) = (fprs.argmax(), fprs.argmin()) else {
                return;
            };
            for cand in 0..n {
                let g = membership.membership()[cand];
                if g == low {
                    avoid_moving_down[cand] = true;
                }
                if g == high {
                    avoid_moving_up[cand] = true;
                }
            }
        };
        for (i, (attr_id, membership)) in groups.attributes().enumerate() {
            if correcting != AxisRef::Attribute(i) && thresholds.attribute_delta(attr_id).is_some()
            {
                mark(membership);
            }
        }
        if correcting != AxisRef::Intersection && thresholds.intersection_delta().is_some() {
            mark(groups.intersection());
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

fn swap_towards_parity(
    ranking: &mut Ranking,
    membership: &GroupMembership,
    guard: &CrossAxisGuard,
) -> bool {
    let fprs = group_fprs(ranking, membership);
    let (Some(high_group), Some(low_group)) = (fprs.argmax(), fprs.argmin()) else {
        return false;
    };
    if high_group == low_group {
        return false;
    }
    let mut bottom_low = None;
    for pos in (0..ranking.len()).rev() {
        if membership.group_of(ranking.candidate_at(pos)) == low_group {
            bottom_low = Some(pos);
            break;
        }
    }
    let Some(bottom_low) = bottom_low else {
        return false;
    };
    let mut default_high = None;
    let mut preferred_high = None;
    for pos in (0..bottom_low).rev() {
        let cand = ranking.candidate_at(pos);
        if membership.group_of(cand) != high_group {
            continue;
        }
        if default_high.is_none() {
            default_high = Some(pos);
        }
        if guard.harmless_down(cand) {
            preferred_high = Some(pos);
            break;
        }
    }
    let Some(high_pos) = preferred_high.or(default_high) else {
        return false;
    };
    let mut default_low = None;
    let mut preferred_low = None;
    for pos in (high_pos + 1)..ranking.len() {
        let cand = ranking.candidate_at(pos);
        if membership.group_of(cand) != low_group {
            continue;
        }
        if default_low.is_none() {
            default_low = Some(pos);
        }
        if guard.harmless_up(cand) {
            preferred_low = Some(pos);
            break;
        }
    }
    let Some(low_pos) = preferred_low.or(default_low) else {
        return false;
    };
    ranking.swap_positions(high_pos, low_pos);
    true
}

mod differential {
    use super::*;
    use mani_ranking::{AttributeId, CandidateDb, CandidateDbBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Domain size and value weights of each attribute; the weights are skewed, and a
    /// zero weight leaves that value's group (and every intersection cell using it) empty.
    const ATTRIBUTE_SHAPES: [&[usize]; 3] = [&[7, 3], &[6, 3, 1, 0], &[5, 1, 4]];

    /// A database over the first `num_attributes` shapes. Members of the first
    /// attribute's second value never take the second attribute's third value, so that
    /// intersection cell is empty even when both attribute groups are populated.
    fn database(n: usize, num_attributes: usize, rng: &mut StdRng) -> (CandidateDb, GroupIndex) {
        let mut builder = CandidateDbBuilder::new();
        let shapes = &ATTRIBUTE_SHAPES[..num_attributes];
        let attrs: Vec<AttributeId> = shapes
            .iter()
            .enumerate()
            .map(|(a, weights)| {
                let values = (0..weights.len()).map(|v| format!("v{v}"));
                builder.add_attribute(format!("A{a}"), values).unwrap()
            })
            .collect();
        for i in 0..n {
            let mut values: Vec<usize> = shapes
                .iter()
                .map(|weights| {
                    let mut draw = rng.gen_range(0..weights.iter().sum::<usize>());
                    weights
                        .iter()
                        .position(|&w| {
                            let hit = draw < w;
                            draw = draw.saturating_sub(w);
                            hit
                        })
                        .unwrap()
                })
                .collect();
            if num_attributes >= 2 && values[0] == 1 && values[1] == 2 {
                values[1] = 0;
            }
            builder
                .add_candidate(format!("c{i}"), attrs.iter().copied().zip(values))
                .unwrap();
        }
        let db = builder.build().unwrap();
        let groups = GroupIndex::new(&db);
        (db, groups)
    }

    /// Candidates sorted by their attribute values: every group is a contiguous block.
    fn segregated(db: &CandidateDb) -> Ranking {
        let mut ids: Vec<u32> = db.candidate_ids().map(|c| c.0).collect();
        ids.sort_by_key(|&id| {
            let values = db.candidate(CandidateId(id)).unwrap().values();
            (values.iter().map(|v| v.index()).collect::<Vec<_>>(), id)
        });
        Ranking::from_ids(ids).unwrap()
    }

    fn thresholds(kind: usize, delta: f64, groups: &GroupIndex) -> FairnessThresholds {
        let first = groups.attributes().next().unwrap().0;
        match kind {
            0 => FairnessThresholds::uniform(delta),
            1 => FairnessThresholds::attributes_only(delta),
            _ => FairnessThresholds::uniform(delta * 2.0)
                .with_attribute_delta(first, delta)
                .with_intersection_delta((delta * 3.0).min(0.9)),
        }
    }

    #[test]
    fn accumulated_loop_matches_reference_swap_for_swap() {
        // (n, cases): many small instances, a handful at the n = 768 sweep scale.
        const SIZES: [(usize, usize); 9] = [
            (12, 60),
            (17, 50),
            (24, 50),
            (40, 40),
            (64, 40),
            (100, 30),
            (200, 20),
            (400, 8),
            (768, 4),
        ];
        const DELTAS: [f64; 5] = [0.03, 0.05, 0.1, 0.2, 0.35];
        let mut rng = StdRng::seed_from_u64(0x3A4F_2022);
        let (mut cases, mut fallbacks, mut corrected) = (0usize, 0usize, 0usize);
        for (n, count) in SIZES {
            for case in 0..count {
                let num_attributes = 1 + case % 3;
                let (db, groups) = database(n, num_attributes, &mut rng);
                let thresholds = thresholds(case / 3 % 3, DELTAS[case % 5], &groups);
                let input = if case % 2 == 0 {
                    Ranking::random(n, &mut rng)
                } else {
                    segregated(&db)
                };
                let (expected, fell_back) = make_mr_fair(&input, &groups, &thresholds);
                let actual = super::super::make_mr_fair(&input, &groups, &thresholds);
                let label =
                    format!("n={n} case={case} attrs={num_attributes} thresholds={thresholds:?}");
                assert_eq!(actual.ranking, expected.ranking, "{label}");
                assert_eq!(actual.swaps, expected.swaps, "{label}");
                assert_eq!(actual.satisfied, expected.satisfied, "{label}");
                cases += 1;
                fallbacks += usize::from(fell_back);
                corrected += usize::from(expected.swaps > 0);
            }
        }
        assert!(cases >= 300, "only {cases} cases");
        assert!(
            corrected >= cases / 2,
            "only {corrected} cases needed swaps"
        );
        assert!(fallbacks > 0, "no case took the fair-interleave fallback");
    }
}

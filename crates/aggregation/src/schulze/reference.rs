//! Test-only differential oracle for the Schulze strongest-path kernel.
//!
//! [`strongest_paths`] is the textbook Floyd–Warshall on nested `Vec<Vec<u64>>`
//! rows: no tiling, no threads, no `u32` narrowing, no zero-row skips. The
//! production kernel ([`SchulzeAggregator::strongest_paths_matrix`]) is pinned
//! to it cell for cell through [`to_nested`].
//!
//! [`SchulzeAggregator::strongest_paths_matrix`]: super::SchulzeAggregator::strongest_paths_matrix

use mani_ranking::{CandidateId, PrecedenceMatrix};

use super::PathMatrix;

/// Strongest path strengths `p[a][b]` in the nested `u64` layout, with the
/// same "winning votes" edges as the production kernel: `a → b` exists when
/// more rankings prefer `a` to `b` than vice versa.
#[allow(clippy::needless_range_loop)] // Floyd-Warshall style: indices are the clearer idiom
pub(super) fn strongest_paths(matrix: &PrecedenceMatrix) -> Vec<Vec<u64>> {
    let n = matrix.num_candidates();
    let mut p = vec![vec![0u64; n]; n];
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let (ca, cb) = (CandidateId(a as u32), CandidateId(b as u32));
            let support = matrix.support_for(ca, cb) as u64;
            let against = matrix.support_for(cb, ca) as u64;
            if support > against {
                p[a][b] = support;
            }
        }
    }
    for k in 0..n {
        for a in 0..n {
            if a == k {
                continue;
            }
            for b in 0..n {
                if b == a || b == k {
                    continue;
                }
                let through_k = p[a][k].min(p[k][b]);
                if through_k > p[a][b] {
                    p[a][b] = through_k;
                }
            }
        }
    }
    p
}

/// A kernel result widened into the oracle's nested `u64` layout.
pub(super) fn to_nested(paths: &PathMatrix) -> Vec<Vec<u64>> {
    (0..paths.num_candidates())
        .map(|a| paths.row(a).iter().map(|&s| u64::from(s)).collect())
        .collect()
}

//! Schulze method (Schulze 2018): strongest-path consensus ranking.
//!
//! The precedence matrix is treated as a weighted directed graph whose edge `a → b` carries
//! the number of base rankings preferring `a` over `b`. The *strength* of a path is the
//! weight of its weakest edge; `p[a][b]` is the strength of the strongest path from `a` to
//! `b`, computed with a Floyd–Warshall variant in O(n³). Candidates are then ordered by how
//! many opponents they beat in the strongest-path comparison (`p[a][b] > p[b][a]`), which
//! yields a complete, Condorcet-consistent order; ties are broken by candidate id.
//!
//! One kernel implements the strongest-path computation,
//! [`SchulzeAggregator::strongest_paths_matrix`]: cache-blocked (tiled)
//! Floyd–Warshall over a flat row-major [`PathMatrix`] in the standard
//! three-phase blocked order (diagonal tile, then the pivot row/column panels,
//! then the remainder), parallelised by tile-row blocks when the budget
//! allows. A matrix that fits in one tile runs only the first phase, which is
//! the plain untiled Floyd–Warshall loop (row slices, whole relaxation rows
//! skipped when `p[a][k] == 0`).
//!
//! Every tile size and thread count produces bit-identical strengths: the
//! max–min (widest-path) closure is unique, every relaxation uses genuine
//! path strengths (so no schedule can overshoot it), and every schedule is a
//! complete Floyd–Warshall (so none can undershoot it). A test-only
//! nested-`Vec` reference kernel (`schulze/reference.rs`) pins this.
//!
//! Cells are `u32`: path strengths are bounded by the largest pairwise
//! support, and [`PrecedenceMatrix`] construction rejects profiles whose total
//! ranking weight exceeds `u32::MAX`, so the conversion is exact. Halving the
//! cell width halves memory bandwidth and doubles SIMD lanes in the
//! autovectorized inner loops.

use std::sync::{Barrier, Mutex};

use mani_ranking::parallel::{record_fw_blocked_solve, record_pair_shard_tasks};
use mani_ranking::{
    run_parts, shard_ranges, CandidateId, Parallelism, PrecedenceMatrix, Ranking, RankingProfile,
    Result,
};

use crate::borda::ranking_from_points;
use crate::traits::ConsensusMethod;

/// Flat row-major matrix of strongest path strengths.
///
/// Cells are `u32`: strengths are min/max combinations of pairwise supports,
/// which the precedence-matrix build guarantees fit in `u32`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathMatrix {
    n: usize,
    strengths: Vec<u32>,
}

impl PathMatrix {
    /// Number of candidates.
    pub fn num_candidates(&self) -> usize {
        self.n
    }

    /// Strength of the strongest path from `a` to `b`.
    pub fn strength(&self, a: usize, b: usize) -> u32 {
        self.strengths[a * self.n + b]
    }

    /// Row `a`: strengths of the strongest paths from `a` to every candidate.
    pub fn row(&self, a: usize) -> &[u32] {
        &self.strengths[a * self.n..][..self.n]
    }
}

/// The Schulze consensus method.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchulzeAggregator;

impl SchulzeAggregator {
    /// Creates a Schulze aggregator.
    pub fn new() -> Self {
        Self
    }

    /// Computes strongest path strengths into a flat [`PathMatrix`] with the
    /// cache-blocked Floyd–Warshall kernel: tile edge from
    /// [`Parallelism::fw_tile_size`], worker count from
    /// [`Parallelism::kernel_threads`] (workers own blocks of tile rows).
    ///
    /// Only edges with positive support participate (the standard "winning
    /// votes" variant: an edge exists from `a` to `b` when more rankings
    /// prefer `a` to `b` than vice versa).
    ///
    /// Bit-identical for every tile size and thread count: the widest-path
    /// closure is unique, so any complete Floyd–Warshall schedule — one tile
    /// or many, sharded or not — computes the same integers.
    pub fn strongest_paths_matrix(
        &self,
        matrix: &PrecedenceMatrix,
        parallelism: &Parallelism,
    ) -> PathMatrix {
        let n = matrix.num_candidates();
        let mut strengths = direct_edges(matrix);
        let tile = parallelism.fw_tile_size(n);
        floyd_warshall_tiled_parallel(&mut strengths, n, tile, parallelism.kernel_threads(n));
        if tile < n {
            let nb = n.div_ceil(tile);
            record_fw_blocked_solve((nb * nb * nb) as u64);
        }
        zero_diagonal(&mut strengths, n);
        PathMatrix { n, strengths }
    }

    /// Computes the Schulze consensus from a precomputed precedence matrix.
    pub fn consensus_from_matrix(&self, matrix: &PrecedenceMatrix) -> Ranking {
        self.consensus_from_matrix_with(matrix, &Parallelism::serial())
    }

    /// Computes the Schulze consensus from a precedence matrix under an
    /// explicit kernel-parallelism budget. The O(n²) beat-count scoring pass
    /// is sharded over candidate ranges when the budget allows; each
    /// candidate's score is an independent count, so the scores (and the
    /// resulting ranking) are identical for every thread count.
    pub fn consensus_from_matrix_with(
        &self,
        matrix: &PrecedenceMatrix,
        parallelism: &Parallelism,
    ) -> Ranking {
        let n = matrix.num_candidates();
        let p = self.strongest_paths_matrix(matrix, parallelism);
        // Score = number of opponents beaten in the strongest-path relation.
        let threads = parallelism.kernel_threads(n);
        let p = &p;
        // Every shard fills its own disjoint slice of `scores`.
        let mut scores = vec![0u64; n];
        let mut rest = scores.as_mut_slice();
        let parts: Vec<_> = shard_ranges(n, threads)
            .into_iter()
            .map(|range| {
                let (shard, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                move || {
                    for (score, a) in shard.iter_mut().zip(range) {
                        let row_a = p.row(a);
                        for (b, &forward) in row_a.iter().enumerate() {
                            if b != a && forward > p.strength(b, a) {
                                *score += 1;
                            }
                        }
                    }
                }
            })
            .collect();
        if threads > 1 {
            record_pair_shard_tasks(parts.len() as u64);
        }
        run_parts(threads, parts);
        ranking_from_points(&scores)
    }

    /// Computes the Schulze consensus for a profile.
    pub fn consensus(&self, profile: &RankingProfile) -> Ranking {
        self.consensus_from_matrix(&profile.precedence_matrix())
    }
}

/// Initial direct edges: `p[a][b] = support(a, b)` when it beats the opposing
/// support. `support_for(a, b)` is `row(b)[a]` in the precedence layout, so
/// the inner read of `against` walks row `a` sequentially.
fn direct_edges(matrix: &PrecedenceMatrix) -> Vec<u32> {
    let n = matrix.num_candidates();
    let mut strengths = vec![0u32; n * n];
    for a in 0..n {
        let row_a = matrix.row(CandidateId(a as u32));
        let dst = &mut strengths[a * n..][..n];
        for (b, (slot, &against)) in dst.iter_mut().zip(row_a).enumerate() {
            if b == a {
                continue;
            }
            let support = matrix.row(CandidateId(b as u32))[a];
            if support > against {
                *slot = support;
            }
        }
    }
    strengths
}

/// Restores `p[a][a] = 0` after a kernel run.
///
/// The kernels let diagonal cells grow during relaxation (a cycle strength is
/// a genuine path strength, so `min`-ing against it can never corrupt an
/// off-diagonal cell) and pay one cheap pass here instead of branching in the
/// O(n³) hot loop.
fn zero_diagonal(p: &mut [u32], n: usize) {
    for a in 0..n {
        p[a * n + a] = 0;
    }
}

/// One branchless widest-path relaxation of a row (or a row segment) through
/// one pivot: for every column `b`, `row_a[b] = max(row_a[b], min(pak,
/// row_k[b]))`. Equal-length zipped slices with no bounds checks, so the loop
/// autovectorizes (8 `u32` lanes per AVX2 op).
fn relax_full_row(row_a: &mut [u32], row_k: &[u32], pak: u32) {
    for (slot, &pkb) in row_a.iter_mut().zip(row_k) {
        *slot = (*slot).max(pak.min(pkb));
    }
}

/// Phase 1 + 2 (row panel) of a `k`-block: closes the pivot rows `k0..k1` —
/// full width, which covers the diagonal tile and the row panel together —
/// against their own pivots with a mini Floyd–Warshall (`k` ascending,
/// snapshot of the self-dependent pivot row per step). With a single
/// `k`-block (`k0..k1 == 0..n`) this is the whole untiled Floyd–Warshall.
///
/// `block` is a contiguous row block starting at matrix row `row_start` that
/// contains rows `k0..k1`; `row_k` is an `n`-cell scratch buffer.
fn close_pivot_rows(
    block: &mut [u32],
    n: usize,
    row_start: usize,
    k0: usize,
    k1: usize,
    row_k: &mut [u32],
) {
    for k in k0..k1 {
        // Row k is stable during step k (relaxing it through itself is a
        // no-op), so one snapshot lets every other row read it without
        // aliasing `block`.
        row_k.copy_from_slice(&block[(k - row_start) * n..][..n]);
        for a in k0..k1 {
            if a == k {
                continue;
            }
            let row_a = &mut block[(a - row_start) * n..][..n];
            let pak = row_a[k];
            if pak == 0 {
                // min(0, ·) can never improve a non-negative strength: the
                // whole relaxation row is a no-op. On realistic profiles this
                // skips roughly half of all (a, k) pairs.
                continue;
            }
            relax_full_row(row_a, row_k, pak);
        }
    }
}

/// Phase 2 (column panel) for one row: relaxes the pivot-column segment
/// `seg = p[a][k0..k1]` through pivots `k0..k1` in ascending order. The
/// segment is self-dependent — `p[a][k]` for a later pivot may be improved by
/// an earlier one — so `pak` is re-read from the segment each step.
fn relax_pivot_segment(seg: &mut [u32], panel: &[u32], n: usize, k0: usize) {
    for t in 0..seg.len() {
        let pak = seg[t];
        if pak == 0 {
            continue;
        }
        relax_full_row(seg, &panel[t * n + k0..][..seg.len()], pak);
    }
}

/// SIMD-register width (in `u32` lanes) for the phase-3 accumulator: 64 bytes,
/// i.e. two AVX2 or one AVX-512 register's worth per accumulator block.
const PHASE3_LANES: usize = 32;

/// Phase 3 (remainder) for one row and one column tile: relaxes
/// `seg = p[a][j0..j0 + seg.len()]` through the block's pivots. `pa[t]` is the
/// final `p[a][k0 + t]` for this block (the column panel runs first), `panel`
/// the closed pivot rows, so no cell read here is concurrently written.
///
/// Because every `pa[t]` and panel cell is already final, the `t`-loop is a
/// pure `max` reduction — reorderable without changing a single bit. The
/// kernel exploits that by running `j`-outer / `t`-inner with a fixed-width
/// accumulator that the compiler keeps in vector registers: each relaxation
/// costs one panel load instead of the load + load + store of a `t`-outer
/// sweep. This register blocking is what the cache blocking buys — an untiled
/// schedule's global `k` steps are sequentially dependent, so it cannot batch
/// pivots this way.
fn relax_segment(seg: &mut [u32], pa: &[u32], panel: &[u32], n: usize, j0: usize) {
    let mut chunks = seg.chunks_exact_mut(PHASE3_LANES);
    let mut j = j0;
    for chunk in &mut chunks {
        let mut acc = [0u32; PHASE3_LANES];
        acc.copy_from_slice(chunk);
        for (t, &pak) in pa.iter().enumerate() {
            if pak == 0 {
                continue;
            }
            let brow: &[u32; PHASE3_LANES] = panel[t * n + j..][..PHASE3_LANES]
                .try_into()
                .expect("panel tile chunk is PHASE3_LANES wide");
            for (slot, &pkb) in acc.iter_mut().zip(brow) {
                *slot = (*slot).max(pak.min(pkb));
            }
        }
        chunk.copy_from_slice(&acc);
        j += PHASE3_LANES;
    }
    relax_segment_tail(chunks.into_remainder(), pa, panel, n, j);
}

/// Rows relaxed together in phase 3: one panel load is shared by this many
/// row accumulators (GEMM-style register blocking in the row dimension), so
/// the per-relaxation cost drops from one load + one `min` + one `max` to
/// `1/ROW_GROUP` loads + one `min` + one `max`.
const ROW_GROUP: usize = 8;

/// Phase 3 for one column tile of a group of `ROW_GROUP` contiguous rows
/// (`group` is `ROW_GROUP × n`, `pa` is `ROW_GROUP × width` final
/// pivot-column strengths). Each loaded panel chunk feeds all `ROW_GROUP`
/// accumulators; the `pak == 0` skip is dropped here because a zero pivot
/// strength relaxes to `max(slot, 0) = slot` — a bit-exact no-op — and the
/// branchless form keeps the accumulators in vector registers.
fn relax_segment_group(
    group: &mut [u32],
    pa: &[u32],
    panel: &[u32],
    n: usize,
    width: usize,
    j0: usize,
    j1: usize,
) {
    let mut j = j0;
    while j + PHASE3_LANES <= j1 {
        let mut acc = [[0u32; PHASE3_LANES]; ROW_GROUP];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r.copy_from_slice(&group[r * n + j..][..PHASE3_LANES]);
        }
        for t in 0..width {
            let brow: &[u32; PHASE3_LANES] = panel[t * n + j..][..PHASE3_LANES]
                .try_into()
                .expect("panel chunk is PHASE3_LANES wide");
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let pak = pa[r * width + t];
                for (slot, &pkb) in acc_r.iter_mut().zip(brow) {
                    *slot = (*slot).max(pak.min(pkb));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            group[r * n + j..][..PHASE3_LANES].copy_from_slice(acc_r);
        }
        j += PHASE3_LANES;
    }
    if j < j1 {
        for r in 0..ROW_GROUP {
            let seg = &mut group[r * n + j..][..j1 - j];
            relax_segment_tail(seg, &pa[r * width..][..width], panel, n, j);
        }
    }
}

/// Scalar (`t`-outer) phase-3 fallback for a sub-lane-width column tail.
fn relax_segment_tail(seg: &mut [u32], pa: &[u32], panel: &[u32], n: usize, j0: usize) {
    for (t, &pak) in pa.iter().enumerate() {
        if pak == 0 {
            continue;
        }
        relax_full_row(seg, &panel[t * n + j0..][..seg.len()], pak);
    }
}

/// Column panel + remainder phases for a group of `ROW_GROUP` contiguous
/// non-pivot rows. Phase 2 (the self-dependent pivot-column segment) runs per
/// row; phase 3 runs over the whole group per column tile so panel loads are
/// shared.
fn relax_row_group(
    group: &mut [u32],
    panel: &[u32],
    pa: &mut [u32],
    n: usize,
    tile: usize,
    k0: usize,
    k1: usize,
) {
    let width = k1 - k0;
    for r in 0..ROW_GROUP {
        let row = &mut group[r * n..][..n];
        relax_pivot_segment(&mut row[k0..k1], panel, n, k0);
        pa[r * width..][..width].copy_from_slice(&row[k0..k1]);
    }
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + tile).min(n);
        if j0 != k0 {
            relax_segment_group(group, &pa[..ROW_GROUP * width], panel, n, width, j0, j1);
        }
        j0 = j1;
    }
}

/// Relaxes every row of a contiguous region against the closed pivot panel.
/// The region must contain no pivot row (callers split around the pivot
/// block). Full groups of [`ROW_GROUP`] rows take the register-blocked path;
/// the remainder rows fall back to the single-row kernel. `pa` is a
/// `ROW_GROUP × tile` scratch buffer.
fn relax_rows(
    region: &mut [u32],
    panel: &[u32],
    pa: &mut [u32],
    n: usize,
    tile: usize,
    k0: usize,
    k1: usize,
) {
    let width = k1 - k0;
    let mut groups = region.chunks_exact_mut(ROW_GROUP * n);
    for group in &mut groups {
        relax_row_group(group, panel, pa, n, tile, k0, k1);
    }
    for row in groups.into_remainder().chunks_exact_mut(n) {
        relax_row_blocked(row, panel, &mut pa[..width], n, tile, k0, k1);
    }
}

/// Column panel + remainder phases for one non-pivot row of a `k`-block.
fn relax_row_blocked(
    row_a: &mut [u32],
    panel: &[u32],
    pa: &mut [u32],
    n: usize,
    tile: usize,
    k0: usize,
    k1: usize,
) {
    relax_pivot_segment(&mut row_a[k0..k1], panel, n, k0);
    pa.copy_from_slice(&row_a[k0..k1]);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + tile).min(n);
        if j0 != k0 {
            relax_segment(&mut row_a[j0..j1], pa, panel, n, j0);
        }
        j0 = j1;
    }
}

/// Serial cache-blocked Floyd–Warshall with `tile × tile` tiles.
///
/// Per `k`-block (pivots `k0..k1`) the standard three-phase blocked order
/// runs: the diagonal tile and pivot row panel are closed in place
/// ([`close_pivot_rows`]), the closed pivot rows are snapshotted into `panel`
/// (so every other row can read them without aliasing), then each remaining
/// row relaxes its pivot-column segment (phase 2) followed by the other
/// column tiles (phase 3). Working-set per phase-3 step: one `tile`-cell row
/// segment, a `tile`-cell pivot-strength cache, and one `tile × tile` panel
/// tile — sized for L1 at the default tile of 64 (16 KiB per tile).
///
/// With one tile (`tile >= n`) there are no other rows: closing the diagonal
/// tile is the whole solve, and no panel is allocated or copied.
fn floyd_warshall_tiled_serial(p: &mut [u32], n: usize, tile: usize) {
    if tile >= n {
        close_pivot_rows(p, n, 0, 0, n, &mut vec![0u32; n]);
        return;
    }
    let nb = n.div_ceil(tile);
    let mut panel = vec![0u32; tile * n];
    let mut row_k = vec![0u32; n];
    let mut pa = vec![0u32; ROW_GROUP * tile];
    for kb in 0..nb {
        let k0 = kb * tile;
        let k1 = (k0 + tile).min(n);
        let width = k1 - k0;
        close_pivot_rows(p, n, 0, k0, k1, &mut row_k);
        panel[..width * n].copy_from_slice(&p[k0 * n..k1 * n]);
        let (before, rest) = p.split_at_mut(k0 * n);
        let after = &mut rest[width * n..];
        relax_rows(before, &panel, &mut pa, n, tile, k0, k1);
        relax_rows(after, &panel, &mut pa, n, tile, k0, k1);
    }
}

/// Tile-row-parallel cache-blocked Floyd–Warshall.
///
/// Workers own contiguous blocks of *tile rows* (so every `k`-block's pivot
/// rows live inside exactly one worker). Per `k`-block the owner closes the
/// pivot rows (phases 1 + 2-row) and publishes them into a shared panel
/// buffer; after a barrier every worker copies the panel locally and runs the
/// column-panel and remainder phases on its own rows. A second barrier keeps
/// block `kb + 1`'s publish from racing block `kb`'s readers. With one
/// worker or one tile row it runs [`floyd_warshall_tiled_serial`] inline.
fn floyd_warshall_tiled_parallel(p: &mut [u32], n: usize, tile: usize, threads: usize) {
    let nb = n.div_ceil(tile);
    if threads <= 1 || nb <= 1 {
        floyd_warshall_tiled_serial(p, n, tile);
        return;
    }
    let tile_ranges = shard_ranges(nb, threads);
    let barrier = Barrier::new(tile_ranges.len());
    let shared_panel = Mutex::new(vec![0u32; tile * n]);
    // Split the flat buffer into per-worker blocks of whole tile rows.
    let mut blocks: Vec<(usize, &mut [u32])> = Vec::with_capacity(tile_ranges.len());
    let mut rest = p;
    for range in &tile_ranges {
        let row_start = range.start * tile;
        let row_end = (range.end * tile).min(n);
        let (block, tail) = rest.split_at_mut((row_end - row_start) * n);
        blocks.push((row_start, block));
        rest = tail;
    }
    std::thread::scope(|scope| {
        for (row_start, block) in blocks {
            let barrier = &barrier;
            let shared_panel = &shared_panel;
            scope.spawn(move || {
                let rows = block.len() / n;
                let mut panel = vec![0u32; tile * n];
                let mut row_k = vec![0u32; n];
                let mut pa = vec![0u32; ROW_GROUP * tile];
                for kb in 0..nb {
                    let k0 = kb * tile;
                    let k1 = (k0 + tile).min(n);
                    let width = k1 - k0;
                    let owns_pivot = (row_start..row_start + rows).contains(&k0);
                    if owns_pivot {
                        close_pivot_rows(block, n, row_start, k0, k1, &mut row_k);
                        let mut shared = shared_panel.lock().expect("panel lock poisoned");
                        shared[..width * n]
                            .copy_from_slice(&block[(k0 - row_start) * n..(k1 - row_start) * n]);
                    }
                    // All workers see the closed pivot rows before relaxing.
                    barrier.wait();
                    panel[..width * n].copy_from_slice(
                        &shared_panel.lock().expect("panel lock poisoned")[..width * n],
                    );
                    if owns_pivot {
                        let (before, rest) = block.split_at_mut((k0 - row_start) * n);
                        let after = &mut rest[width * n..];
                        relax_rows(before, &panel, &mut pa, n, tile, k0, k1);
                        relax_rows(after, &panel, &mut pa, n, tile, k0, k1);
                    } else {
                        relax_rows(block, &panel, &mut pa, n, tile, k0, k1);
                    }
                    // Nobody may publish block kb + 1 while a worker still
                    // reads the shared panel for block kb.
                    barrier.wait();
                }
            });
        }
    });
}

impl ConsensusMethod for SchulzeAggregator {
    fn name(&self) -> &'static str {
        "Schulze"
    }

    fn aggregate(&self, profile: &RankingProfile) -> Result<Ranking> {
        Ok(self.consensus(profile))
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{strongest_paths, to_nested};
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-tile schedule: the blocked kernel with a single tile, serial.
    fn one_tile(matrix: &PrecedenceMatrix) -> PathMatrix {
        let n = matrix.num_candidates();
        SchulzeAggregator::new()
            .strongest_paths_matrix(matrix, &Parallelism::serial().with_tile_size(n.max(1)))
    }

    #[test]
    fn unanimous_profile_returns_the_common_ranking() {
        let r = Ranking::from_ids([2, 0, 3, 1]).unwrap();
        let profile = RankingProfile::new(vec![r.clone(); 4]).unwrap();
        assert_eq!(SchulzeAggregator::new().consensus(&profile), r);
    }

    #[test]
    fn condorcet_winner_is_ranked_first() {
        let profile = RankingProfile::new(vec![
            Ranking::from_ids([1, 0, 2]).unwrap(),
            Ranking::from_ids([1, 2, 0]).unwrap(),
            Ranking::from_ids([0, 1, 2]).unwrap(),
        ])
        .unwrap();
        let consensus = SchulzeAggregator::new().consensus(&profile);
        assert_eq!(consensus.candidate_at(0), CandidateId(1));
    }

    #[test]
    fn strongest_paths_classic_example() {
        // Wikipedia-style 3-candidate cycle check: A > B (2 of 3), B > C (2 of 3), C > A (2 of 3)
        // forms a majority cycle; strongest paths must still be computed consistently.
        let profile = RankingProfile::new(vec![
            Ranking::from_ids([0, 1, 2]).unwrap(),
            Ranking::from_ids([1, 2, 0]).unwrap(),
            Ranking::from_ids([2, 0, 1]).unwrap(),
        ])
        .unwrap();
        let matrix = profile.precedence_matrix();
        let p = SchulzeAggregator::new().strongest_paths_matrix(&matrix, &Parallelism::serial());
        assert_eq!(to_nested(&p), strongest_paths(&matrix));
        // Every direct majority edge has weight 2, and the cycle gives every pair a path of
        // strength 2 in both directions -> complete tie.
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    assert_eq!(p.strength(a, b), 2, "p[{a}][{b}]");
                }
            }
        }
        // Ties are broken by id, so the consensus is the identity ranking.
        let consensus = SchulzeAggregator::new().consensus_from_matrix(&matrix);
        assert_eq!(consensus, Ranking::identity(3));
    }

    #[test]
    fn strongest_path_at_least_direct_support() {
        let mut rng = StdRng::seed_from_u64(23);
        let rankings: Vec<Ranking> = (0..7).map(|_| Ranking::random(6, &mut rng)).collect();
        let profile = RankingProfile::new(rankings).unwrap();
        let matrix = profile.precedence_matrix();
        let p = SchulzeAggregator::new().strongest_paths_matrix(&matrix, &Parallelism::serial());
        assert_eq!(to_nested(&p), strongest_paths(&matrix));
        for a in 0..6 {
            for b in 0..6 {
                if a == b {
                    continue;
                }
                let (ca, cb) = (CandidateId(a as u32), CandidateId(b as u32));
                let support = matrix.support_for(ca, cb);
                let against = matrix.support_for(cb, ca);
                if support > against {
                    assert!(p.strength(a, b) >= support);
                }
            }
        }
    }

    #[test]
    fn flat_kernel_matches_reference_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [1usize, 2, 3, 7, 12, 25] {
            let rankings: Vec<Ranking> = (0..9).map(|_| Ranking::random(n, &mut rng)).collect();
            let matrix = RankingProfile::new(rankings).unwrap().precedence_matrix();
            let reference = strongest_paths(&matrix);
            assert_eq!(
                to_nested(&one_tile(&matrix)),
                reference,
                "one-tile schedule, n = {n}"
            );
            for threads in [1usize, 2, 3, 8] {
                let par = Parallelism::new(threads).with_min_candidates(0);
                let paths = SchulzeAggregator::new().strongest_paths_matrix(&matrix, &par);
                assert_eq!(paths.num_candidates(), n);
                assert_eq!(to_nested(&paths), reference, "n = {n}, threads = {threads}");
                assert_eq!(
                    SchulzeAggregator::new().consensus_from_matrix_with(&matrix, &par),
                    SchulzeAggregator::new().consensus_from_matrix(&matrix),
                );
            }
        }
    }

    /// Oracle sweep over the tile boundaries: sizes on both sides of one and
    /// two default tiles, tiles from 1 (every pivot its own block) to `n`
    /// (the one-tile schedule), and thread counts that exercise both the
    /// parallel schedule and its serial fallback (one tile row, or fewer tile
    /// rows than workers). Every other size runs a weighted profile.
    #[test]
    fn tiled_kernel_matches_reference_across_tile_sizes_and_threads() {
        let mut rng = StdRng::seed_from_u64(4242);
        let sizes = [1usize, 2, 5, 13, 31, 63, 64, 65, 70, 127, 128, 129, 200];
        for (index, n) in sizes.into_iter().enumerate() {
            let rankings: Vec<Ranking> = (0..9).map(|_| Ranking::random(n, &mut rng)).collect();
            let matrix = if index % 2 == 1 {
                let weights: Vec<u32> = (0..9u32).map(|w| (w % 5) + 1).collect();
                PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap()
            } else {
                PrecedenceMatrix::from_rankings(&rankings).unwrap()
            };
            let reference = strongest_paths(&matrix);
            for tile in [1usize, 3, 8, 32, 64, n] {
                for threads in [1usize, 2, 8] {
                    let par = Parallelism::new(threads)
                        .with_min_candidates(0)
                        .with_tile_size(tile);
                    let tiled = SchulzeAggregator::new().strongest_paths_matrix(&matrix, &par);
                    assert_eq!(
                        to_nested(&tiled),
                        reference,
                        "n = {n}, tile = {tile}, threads = {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_solves_bump_kernel_counters() {
        let mut rng = StdRng::seed_from_u64(9);
        let rankings: Vec<Ranking> = (0..5).map(|_| Ranking::random(20, &mut rng)).collect();
        let matrix = RankingProfile::new(rankings).unwrap().precedence_matrix();
        let before = mani_ranking::kernel_counter_snapshot();
        let par = Parallelism::serial().with_tile_size(8);
        SchulzeAggregator::new().strongest_paths_matrix(&matrix, &par);
        let after = mani_ranking::kernel_counter_snapshot();
        assert!(after.fw_blocked_solves > before.fw_blocked_solves);
        // 20 candidates at tile 8 -> 3 tile rows -> 27 tile relaxations.
        assert!(after.fw_tiles_relaxed >= before.fw_tiles_relaxed + 27);
    }

    proptest! {
        #[test]
        fn prop_flat_kernel_bit_identical_to_reference(
            n in 1usize..14,
            m in 1usize..8,
            threads in 1usize..9,
            seed in any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let matrix = RankingProfile::new(rankings).unwrap().precedence_matrix();
            let par = Parallelism::new(threads).with_min_candidates(0);
            let paths = SchulzeAggregator::new().strongest_paths_matrix(&matrix, &par);
            prop_assert_eq!(to_nested(&paths), strongest_paths(&matrix));
        }

        #[test]
        fn prop_tiled_kernel_bit_identical_to_flat(
            n in 1usize..20,
            m in 1usize..8,
            tile in 1usize..9,
            threads in 1usize..9,
            seed in any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let matrix = RankingProfile::new(rankings).unwrap().precedence_matrix();
            let par = Parallelism::new(threads).with_min_candidates(0).with_tile_size(tile);
            let tiled = SchulzeAggregator::new().strongest_paths_matrix(&matrix, &par);
            let flat = one_tile(&matrix);
            prop_assert_eq!(&tiled, &flat);
            prop_assert_eq!(to_nested(&flat), strongest_paths(&matrix));
        }

        #[test]
        fn prop_schulze_is_valid_permutation(n in 1usize..15, m in 1usize..8, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let profile = RankingProfile::new(rankings).unwrap();
            let consensus = SchulzeAggregator::new().consensus(&profile);
            prop_assert!(consensus.check_invariants().is_ok());
        }

        #[test]
        fn prop_unanimous_profile_is_reproduced(n in 2usize..12, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = Ranking::random(n, &mut rng);
            let profile = RankingProfile::new(vec![base.clone(); 3]).unwrap();
            prop_assert_eq!(SchulzeAggregator::new().consensus(&profile), base);
        }
    }
}

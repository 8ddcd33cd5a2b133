//! Kernel-level parallelism primitives shared by every compute kernel in the
//! workspace.
//!
//! Request-level parallelism (many jobs across a worker pool) lives in
//! `mani-engine`; this module provides the complementary *intra-kernel* layer:
//! splitting one large computation — a precedence-matrix build, a Schulze
//! Floyd–Warshall sweep, a branch-and-bound search — across short-lived scoped
//! threads that may borrow the caller's data. Scoped threads are used instead
//! of a long-lived pool because kernels operate on borrowed, request-local
//! buffers that cannot be sent to `'static` pool jobs without copying.
//!
//! The [`Parallelism`] config carries two decisions every kernel needs:
//! how many threads it may use, and the problem-size threshold below which
//! threading overhead outweighs the win (small inputs stay serial).
//!
//! Every kernel built on these primitives is **bit-identical** to its serial
//! counterpart: work is split so that either the per-shard results are summed
//! with integer arithmetic (order-insensitive) or the partition itself does not
//! change the arithmetic (tile-row-block Floyd–Warshall, index-ordered
//! subtree merges).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Default candidate-count threshold below which kernels stay serial.
///
/// Thread spawn plus join costs a few tens of microseconds; kernels at
/// `n < 48` finish in comparable time, so threading them is pure overhead.
pub const DEFAULT_MIN_CANDIDATES: usize = 48;

/// Default Floyd–Warshall tile edge when [`Parallelism::tile_size`] is auto.
///
/// A 64×64 tile of `u32` cells is 16 KiB; the three tiles a blocked-FW phase
/// touches (C, the A column panel, and the B row panel) fit comfortably in a
/// 64 KiB L1 with room for the pivot-row scratch, and a whole tile-row panel
/// at CSRankings scale (64 × 5000 × 4 B ≈ 1.2 MiB) still fits mid-size L2.
pub const DEFAULT_FW_TILE: usize = 64;

/// Candidate count below which the auto tile policy runs Floyd–Warshall as a
/// single tile (the untiled loop): under this size the whole strength matrix
/// (≤ 512² × 4 B = 1 MiB) sits in L2 anyway and the multi-tile schedule's
/// phase overhead is pure loss — on the benchmark fixture 64-wide tiles run
/// at 0.73–1.0× the one-tile speed for n = 160–511 and pull ahead by
/// n = 1000 (~1.5×).
pub const FW_TILE_MIN_N: usize = 512;

/// Kernel parallelism budget: how many threads one solve may use, the
/// problem-size gate that keeps small solves serial, and the cache-tile edge
/// used by blocked kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Parallelism {
    /// Maximum worker threads a single kernel may occupy (minimum one).
    threads: usize,
    /// Candidate count below which kernels run serially regardless of
    /// `threads`.
    min_candidates: usize,
    /// Floyd–Warshall tile edge; `0` selects the auto policy
    /// (see [`Parallelism::fw_tile_size`]).
    tile_size: usize,
}

// Manual impl rather than derive: wire payloads must not be able to bypass
// the `threads >= 1` invariant every constructor enforces, so the field is
// clamped on the way in exactly like `Parallelism::new` does. `tile_size` is
// optional so payloads serialized before the field existed keep
// deserializing (absent means auto).
impl Deserialize for Parallelism {
    fn deserialize_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::new(format!("Parallelism: missing field `{name}`")))
                .and_then(usize::deserialize_value)
        };
        Ok(Self {
            threads: field("threads")?.max(1),
            min_candidates: field("min_candidates")?,
            tile_size: match value.get("tile_size") {
                Some(raw) => usize::deserialize_value(raw)?,
                None => 0,
            },
        })
    }
}

impl Default for Parallelism {
    /// The default is **serial**: library callers opt in explicitly, and the
    /// engine layer decides how per-request threads compose with its batch
    /// pool.
    fn default() -> Self {
        Self::serial()
    }
}

impl Parallelism {
    /// Strictly serial execution (the default).
    pub fn serial() -> Self {
        Self {
            threads: 1,
            min_candidates: DEFAULT_MIN_CANDIDATES,
            tile_size: 0,
        }
    }

    /// Up to `threads` threads per kernel (clamped to at least one), with the
    /// default size threshold.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            min_candidates: DEFAULT_MIN_CANDIDATES,
            tile_size: 0,
        }
    }

    /// One thread per available core, with the default size threshold.
    pub fn auto() -> Self {
        Self::new(available_threads())
    }

    /// Overrides the candidate-count threshold (`0` forces parallelism for
    /// every input size — useful in tests).
    pub fn with_min_candidates(mut self, min_candidates: usize) -> Self {
        self.min_candidates = min_candidates;
        self
    }

    /// Overrides the Floyd–Warshall tile edge (`0` restores the auto policy).
    /// Blocked kernels are bit-identical for every tile size, so this is a
    /// pure tuning knob.
    pub fn with_tile_size(mut self, tile_size: usize) -> Self {
        self.tile_size = tile_size;
        self
    }

    /// The configured maximum thread count.
    pub fn max_threads(&self) -> usize {
        self.threads
    }

    /// The candidate-count threshold below which kernels stay serial.
    pub fn min_candidates(&self) -> usize {
        self.min_candidates
    }

    /// The configured tile edge (`0` means auto).
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// Resolves the Floyd–Warshall tile edge for a problem of `n` candidates:
    /// the explicit [`Parallelism::with_tile_size`] override when set, else
    /// [`DEFAULT_FW_TILE`] once `n` reaches [`FW_TILE_MIN_N`]. A result `>= n`
    /// means "one tile" (the untiled loop). Never returns zero for `n > 0`.
    pub fn fw_tile_size(&self, n: usize) -> usize {
        let tile = match self.tile_size {
            0 if n < FW_TILE_MIN_N => n,
            0 => DEFAULT_FW_TILE,
            explicit => explicit,
        };
        tile.clamp(1, n.max(1))
    }

    /// True when this config never fans out.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Number of threads a kernel over `n` candidates should use: `1` when the
    /// input is below the threshold, the configured budget otherwise.
    pub fn kernel_threads(&self, n: usize) -> usize {
        if self.threads <= 1 || n < self.min_candidates {
            1
        } else {
            self.threads
        }
    }
}

/// Process-wide kernel activity counters (monotone, relaxed atomics).
///
/// Kernels record how work was partitioned — blocked Floyd–Warshall solves
/// and the tiles they relaxed, candidate-pair (row-range) shard tasks, and
/// ranking shard tasks — so operators can see *which* sharding axis and
/// kernel shape production traffic actually exercises. The counters are
/// process-global (kernels run on borrowed request-local buffers and carry no
/// per-engine handle); `mani-engine` snapshots them into `EngineStats` and
/// `mani-serve` exports them on `/metrics`.
static FW_BLOCKED_SOLVES: AtomicU64 = AtomicU64::new(0);
static FW_TILES_RELAXED: AtomicU64 = AtomicU64::new(0);
static PAIR_SHARD_TASKS: AtomicU64 = AtomicU64::new(0);
static RANKING_SHARD_TASKS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide kernel partitioning counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCounterSnapshot {
    /// Cache-blocked Floyd–Warshall solves completed.
    pub fw_blocked_solves: u64,
    /// Tiles relaxed across all blocked Floyd–Warshall solves.
    pub fw_tiles_relaxed: u64,
    /// Candidate-pair (row-range) shard tasks executed by matrix builds and
    /// O(n²) scoring kernels.
    pub pair_shard_tasks: u64,
    /// Ranking shard tasks executed by matrix builds.
    pub ranking_shard_tasks: u64,
}

/// Reads the process-wide kernel counters.
pub fn kernel_counter_snapshot() -> KernelCounterSnapshot {
    KernelCounterSnapshot {
        fw_blocked_solves: FW_BLOCKED_SOLVES.load(Ordering::Relaxed),
        fw_tiles_relaxed: FW_TILES_RELAXED.load(Ordering::Relaxed),
        pair_shard_tasks: PAIR_SHARD_TASKS.load(Ordering::Relaxed),
        ranking_shard_tasks: RANKING_SHARD_TASKS.load(Ordering::Relaxed),
    }
}

/// Records one blocked Floyd–Warshall solve that relaxed `tiles` tiles
/// (observability hook for kernel implementations).
pub fn record_fw_blocked_solve(tiles: u64) {
    FW_BLOCKED_SOLVES.fetch_add(1, Ordering::Relaxed);
    FW_TILES_RELAXED.fetch_add(tiles, Ordering::Relaxed);
}

/// Records `tasks` candidate-pair (row-range) shard tasks (observability hook
/// for kernel implementations).
pub fn record_pair_shard_tasks(tasks: u64) {
    PAIR_SHARD_TASKS.fetch_add(tasks, Ordering::Relaxed);
}

/// Records `tasks` ranking shard tasks (observability hook for kernel
/// implementations).
pub fn record_ranking_shard_tasks(tasks: u64) {
    RANKING_SHARD_TASKS.fetch_add(tasks, Ordering::Relaxed);
}

/// One worker per available core (minimum one).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `0..len` into at most `parts` contiguous, near-equal, non-empty
/// ranges (fewer when `len < parts`). The generic shard step of every
/// shard/merge kernel: shard boundaries never change results because merges
/// are order-insensitive integer sums.
pub fn shard_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len);
    if parts == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for index in 0..parts {
        let size = base + usize::from(index < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Runs every part and returns the outputs **in part order**, fanning the
/// parts out across up to `threads` scoped threads.
///
/// Unlike a pool, parts may borrow from the caller's stack — this is the
/// primitive kernels use to process shards of borrowed matrices and profiles.
/// With `threads <= 1` (or a single part) everything runs inline on the
/// calling thread, in order, with zero threading overhead.
///
/// # Panics
/// Propagates the first panic of any part after all threads have joined.
pub fn run_parts<T, F>(threads: usize, parts: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let threads = threads.max(1).min(parts.len());
    if threads <= 1 {
        return parts.into_iter().map(|part| part()).collect();
    }
    // Contiguous grouping keeps outputs trivially reorderable: group `g`
    // produces the results for its own slice of part indices.
    let ranges = shard_ranges(parts.len(), threads);
    let mut parts = parts.into_iter();
    let groups: Vec<Vec<F>> = ranges
        .iter()
        .map(|range| parts.by_ref().take(range.len()).collect())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| {
                scope.spawn(move || group.into_iter().map(|part| part()).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("run_parts worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_config_is_default_and_stays_serial() {
        let par = Parallelism::default();
        assert!(par.is_serial());
        assert_eq!(par.kernel_threads(10_000), 1);
        assert_eq!(par.min_candidates(), DEFAULT_MIN_CANDIDATES);
    }

    #[test]
    fn threshold_gates_threading() {
        let par = Parallelism::new(8);
        assert_eq!(par.max_threads(), 8);
        assert_eq!(par.kernel_threads(DEFAULT_MIN_CANDIDATES - 1), 1);
        assert_eq!(par.kernel_threads(DEFAULT_MIN_CANDIDATES), 8);
        let eager = Parallelism::new(4).with_min_candidates(0);
        assert_eq!(eager.kernel_threads(1), 4);
        assert!(!eager.is_serial());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Parallelism::new(0).max_threads(), 1);
        assert!(available_threads() >= 1);
        assert!(Parallelism::auto().max_threads() >= 1);
    }

    #[test]
    fn auto_tile_policy_keeps_small_problems_untiled() {
        let auto = Parallelism::serial();
        assert_eq!(auto.tile_size(), 0);
        // Below the tiling threshold the resolved tile covers the whole
        // matrix (untiled); at and above it the default tile engages.
        assert_eq!(auto.fw_tile_size(FW_TILE_MIN_N - 1), FW_TILE_MIN_N - 1);
        assert_eq!(auto.fw_tile_size(FW_TILE_MIN_N), DEFAULT_FW_TILE);
        assert_eq!(auto.fw_tile_size(5000), DEFAULT_FW_TILE);
        // Degenerate sizes stay sane.
        assert_eq!(auto.fw_tile_size(0), 1);
        assert_eq!(auto.fw_tile_size(1), 1);
    }

    #[test]
    fn explicit_tile_size_wins_and_is_clamped() {
        let par = Parallelism::new(4).with_tile_size(32);
        assert_eq!(par.tile_size(), 32);
        assert_eq!(par.fw_tile_size(5000), 32);
        // An explicit tile forces tiling even below the auto threshold, but
        // never exceeds the matrix itself.
        assert_eq!(par.fw_tile_size(100), 32);
        assert_eq!(par.fw_tile_size(10), 10);
        assert_eq!(
            Parallelism::serial().with_tile_size(0).fw_tile_size(5000),
            DEFAULT_FW_TILE
        );
    }

    #[test]
    fn kernel_counters_are_monotone() {
        let before = kernel_counter_snapshot();
        record_fw_blocked_solve(27);
        record_pair_shard_tasks(4);
        record_ranking_shard_tasks(2);
        let after = kernel_counter_snapshot();
        assert!(after.fw_blocked_solves > before.fw_blocked_solves);
        assert!(after.fw_tiles_relaxed >= before.fw_tiles_relaxed + 27);
        assert!(after.pair_shard_tasks >= before.pair_shard_tasks + 4);
        assert!(after.ranking_shard_tasks >= before.ranking_shard_tasks + 2);
    }

    #[test]
    fn shard_ranges_cover_exactly_without_empties() {
        for len in 0..40usize {
            for parts in 1..10usize {
                let ranges = shard_ranges(len, parts);
                assert!(ranges.len() <= parts);
                let mut expected_start = 0;
                for range in &ranges {
                    assert_eq!(range.start, expected_start);
                    assert!(!range.is_empty(), "len={len} parts={parts}");
                    expected_start = range.end;
                }
                assert_eq!(expected_start, len);
                // Near-equal: sizes differ by at most one.
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert!(first.len() - last.len() <= 1);
                }
            }
        }
    }

    #[test]
    fn run_parts_preserves_order_across_thread_counts() {
        for threads in [1usize, 2, 3, 8] {
            let parts: Vec<_> = (0..17usize).map(|i| move || i * 3).collect();
            let results = run_parts(threads, parts);
            assert_eq!(results, (0..17).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_parts_may_borrow_caller_data() {
        let data: Vec<u64> = (0..100).collect();
        let slices: Vec<&[u64]> = data.chunks(30).collect();
        let parts: Vec<_> = slices
            .iter()
            .map(|chunk| move || chunk.iter().sum::<u64>())
            .collect();
        let sums = run_parts(4, parts);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn run_parts_handles_empty_input() {
        let parts: Vec<fn() -> u32> = Vec::new();
        assert!(run_parts(4, parts).is_empty());
    }
}

//! Cross-crate properties of the parallel consensus kernels: every parallel
//! kernel must be bit-identical to its serial counterpart for every thread
//! and shard count, from the raw kernels up through the engine. (The Schulze
//! kernel's differential oracle is test-only code inside `mani-aggregation`;
//! here every schedule is compared against the serial default.)

use std::sync::Arc;

use mani_aggregation::SchulzeAggregator;
use mani_core::{FairKemeny, MethodKind, MfcrContext, MfcrMethod};
use mani_datagen::{binary_population, FairnessTarget, MallowsModel, ModalRankingBuilder};
use mani_engine::{ConsensusEngine, ConsensusRequest, EngineConfig, EngineDataset};
use mani_fairness::FairnessThresholds;
use mani_ranking::{GroupIndex, Parallelism, PrecedenceMatrix, Ranking, RankingProfile};
use mani_solver::SolverConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn forced(threads: usize) -> Parallelism {
    // min_candidates 1: exercise the parallel code paths even at tiny n.
    Parallelism::new(threads).with_min_candidates(1)
}

fn forced_tiled(threads: usize, tile: usize) -> Parallelism {
    forced(threads).with_tile_size(tile)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_sharded_matrix_equals_sequential(
        n in 2usize..16,
        m in 1usize..24,
        shards in 1usize..9,
        seed in proptest::prelude::any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
        let serial = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        let sharded =
            PrecedenceMatrix::from_rankings_parallel(&rankings, &forced(shards)).unwrap();
        prop_assert_eq!(&serial, &sharded);

        let weights: Vec<u32> = (1..=m as u32).map(|w| (w % 9) + 1).collect();
        let serial_w = PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
        let sharded_w = PrecedenceMatrix::from_weighted_rankings_parallel(
            &rankings,
            &weights,
            &forced(shards),
        )
        .unwrap();
        prop_assert_eq!(&serial_w, &sharded_w);
    }

    #[test]
    fn prop_schulze_bit_identical_across_threads(
        n in 1usize..20,
        m in 1usize..8,
        seed in proptest::prelude::any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
        let matrix = RankingProfile::new(rankings).unwrap().precedence_matrix();
        let aggregator = SchulzeAggregator::new();
        let reference = aggregator.strongest_paths_matrix(&matrix, &Parallelism::serial());
        let serial_consensus = aggregator.consensus_from_matrix(&matrix);
        for threads in THREAD_COUNTS {
            let par = forced(threads);
            prop_assert_eq!(
                aggregator.strongest_paths_matrix(&matrix, &par),
                reference.clone(),
                "strengths diverged at threads = {}", threads
            );
            prop_assert_eq!(
                aggregator.consensus_from_matrix_with(&matrix, &par),
                serial_consensus.clone(),
                "consensus diverged at threads = {}", threads
            );
        }
    }
}

/// The cache-blocked Floyd–Warshall must be cell-for-cell identical to the
/// serial default schedule at every tile size and thread count, on a
/// weighted profile large enough to cover several partial and full tiles.
#[test]
fn tiled_fw_matches_serial_across_tiles_and_threads() {
    let n = 70;
    let mut rng = StdRng::seed_from_u64(0x7117ED);
    let rankings: Vec<Ranking> = (0..9).map(|_| Ranking::random(n, &mut rng)).collect();
    let weights: Vec<u32> = (0..9u32).map(|w| (w % 5) + 1).collect();
    let matrix = PrecedenceMatrix::from_weighted_rankings(&rankings, &weights).unwrap();
    let aggregator = SchulzeAggregator::new();
    let serial = aggregator.strongest_paths_matrix(&matrix, &Parallelism::serial());
    for tile in [8usize, 32, 64, n] {
        for threads in THREAD_COUNTS {
            let tiled = aggregator.strongest_paths_matrix(&matrix, &forced_tiled(threads, tile));
            assert_eq!(
                tiled, serial,
                "tiled kernel diverged at tile = {tile}, threads = {threads}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_tiled_fw_bit_identical(
        n in 1usize..24,
        m in 1usize..8,
        tile in 1usize..12,
        threads in 1usize..9,
        seed in proptest::prelude::any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
        let matrix = RankingProfile::new(rankings).unwrap().precedence_matrix();
        let aggregator = SchulzeAggregator::new();
        let serial = aggregator.strongest_paths_matrix(&matrix, &Parallelism::serial());
        let tiled = aggregator.strongest_paths_matrix(&matrix, &forced_tiled(threads, tile));
        prop_assert_eq!(&tiled, &serial, "tile = {}, threads = {}", tile, threads);
    }

    #[test]
    fn prop_pair_sharded_scoring_matches_serial(
        n in 2usize..16,
        m in 1usize..10,
        shards in 1usize..9,
        seed in proptest::prelude::any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
        let matrix = PrecedenceMatrix::from_rankings(&rankings).unwrap();
        let par = forced(shards);
        prop_assert_eq!(
            mani_aggregation::scoring::copeland_wins_parallel(&matrix, &par),
            mani_aggregation::scoring::copeland_wins(&matrix)
        );
        prop_assert_eq!(
            matrix.pairwise_support_scores_parallel(&par),
            matrix.pairwise_support_scores()
        );
        let consensus = Ranking::random(n, &mut rng);
        prop_assert_eq!(
            matrix.total_disagreements_parallel(&consensus, &par).unwrap(),
            matrix.total_disagreements(&consensus).unwrap()
        );
    }
}

#[test]
fn fair_kemeny_is_bit_identical_across_threads_and_shard_counts() {
    for (n, seed, delta) in [(10usize, 3u64, 0.3), (12, 7, 0.25), (14, 11, 0.4)] {
        let db = binary_population(n, 0.5, 0.5, seed);
        let groups = GroupIndex::new(&db);
        let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
        let profile = MallowsModel::new(modal, 0.7).sample_profile(8, seed ^ 0xD00D);
        let serial_ctx =
            MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(delta));
        let serial = FairKemeny::new().solve(&serial_ctx).unwrap();
        assert!(
            serial.optimal,
            "n = {n} must close within the default budget"
        );
        for threads in THREAD_COUNTS {
            let ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(delta))
                .with_parallelism(forced(threads));
            let parallel = FairKemeny::new().solve(&ctx).unwrap();
            assert!(parallel.optimal);
            assert_eq!(parallel.ranking, serial.ranking, "threads = {threads}");
            assert_eq!(parallel.pd_loss, serial.pd_loss, "threads = {threads}");

            // An explicit solver config with its own parallelism must win too.
            let config = SolverConfig::default().with_parallelism(forced(threads));
            let explicit = FairKemeny::with_config(config).solve(&serial_ctx).unwrap();
            assert_eq!(explicit.ranking, serial.ranking, "threads = {threads}");
        }
    }
}

#[test]
fn engine_results_are_bit_identical_across_kernel_thread_counts() {
    let make_dataset = || {
        let db = binary_population(18, 0.5, 0.5, 77);
        let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
        let profile = MallowsModel::new(modal, 0.8).sample_profile(10, 1234);
        Arc::new(EngineDataset::new("kernels", db, profile).unwrap())
    };
    let methods = [
        MethodKind::FairBorda,
        MethodKind::FairCopeland,
        MethodKind::FairSchulze,
        MethodKind::FairKemeny,
        MethodKind::Kemeny,
    ];
    let run = |kernel_threads: usize| {
        let engine = ConsensusEngine::with_config(EngineConfig {
            threads: 2,
            kernel_threads,
            kernel_min_candidates: 1,
            ..EngineConfig::default()
        });
        engine.submit(ConsensusRequest::new(
            make_dataset(),
            methods,
            FairnessThresholds::uniform(0.2),
        ))
    };
    let baseline = run(1);
    assert!(baseline.is_complete());
    for kernel_threads in [2usize, 8] {
        let response = run(kernel_threads);
        assert!(response.is_complete());
        for (serial, parallel) in baseline.successes().zip(response.successes()) {
            assert_eq!(serial.method, parallel.method);
            assert_eq!(
                serial.outcome.ranking,
                parallel.outcome.ranking,
                "{} diverged at kernel_threads = {kernel_threads}",
                serial.method.name()
            );
        }
    }
}

//! Property tests guarding the sharded data plane: evaluating any metric —
//! or running Full DCA — through the shard-wise parallel engine must be
//! **bit-for-bit** identical to the serial single-`Dataset` path, for every
//! shard size (one row per shard, a small prime, and the production 64k),
//! including cohorts whose final shard is short.
//!
//! The generated values all sit on dyadic grids (scores on 1/64, fairness on
//! 1/256, dyadic bonuses), so every partial-sum combine the engine performs
//! is exact and the bitwise claim is meaningful rather than accidental; see
//! the determinism notes on `fair_core::shard`.

use fair_ranking::core::metrics::sharded as shmetrics;
use fair_ranking::core::ranking::sharded as shranking;
use fair_ranking::prelude::*;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Shard sizes the satellite checklist calls out: degenerate (1), a small
/// prime that rarely divides the cohort (7), and the production default.
const SHARD_SIZES: [usize; 3] = [1, 7, 64 * 1024];

/// One generated row: score numerator, binary group flag, continuous-need
/// numerator, outcome label.
type Row = (u32, bool, u16, bool);

fn dataset_from_rows(rows: &[Row]) -> Dataset {
    let schema = Schema::from_names(&["score"], &["grp", "need"], &[]).unwrap();
    let objects: Vec<DataObject> = rows
        .iter()
        .enumerate()
        .map(|(i, &(score, member, need, label))| {
            DataObject::new_unchecked(
                i as u64,
                vec![f64::from(score) / 64.0],
                vec![f64::from(u8::from(member)), f64::from(need) / 256.0],
                Some(label),
            )
        })
        .collect();
    Dataset::new(schema, objects).unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn row_strategy() -> impl Strategy<Value = Vec<Row>> {
    pvec(
        (0_u32..8192, any::<bool>(), 0_u16..257, any::<bool>()),
        8..160,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every whole-cohort metric evaluated through the sharded engine equals
    /// the serial evaluation bit-for-bit, at every shard size — for a plain
    /// linear ranker (the blocked kernel passes) and a normalized one (the
    /// per-row `base_score` branch).
    #[test]
    fn sharded_metrics_match_serial_bit_for_bit(
        rows in row_strategy(),
        k in 0.02_f64..1.0,
    ) {
        let flat = dataset_from_rows(&rows);
        let linear = WeightedSumRanker::new(vec![1.0]).unwrap();
        let normalized = NormalizedWeightedSum::new(vec![1.0], vec![0.0], vec![96.0]).unwrap();
        let rankers: [&dyn Ranker; 2] = [&linear, &normalized];
        let bonus = [2.5_f64, 0.25];
        for ranker in rankers {
            let ranking = RankedSelection::from_scores(effective_scores(&flat, ranker, &bonus));

            let serial_disp = disparity_at_k(&flat, &ranking, k).unwrap();
            let serial_ndcg = ndcg_at_k(&flat, ranker, &ranking, k).unwrap();
            let log_cfg = LogDiscountConfig { step: 5, max_fraction: 0.5 };
            let serial_log = log_discounted_disparity(&flat, &ranking, &log_cfg).unwrap();
            let serial_fpr = fpr_difference_at_k(&flat, &ranking, k).unwrap();
            let serial_di =
                fair_ranking::core::metrics::scaled_disparate_impact_at_k(&flat, &ranking, k)
                    .unwrap();

            for shard_size in SHARD_SIZES {
                let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
                prop_assert_eq!(data.len(), flat.len());

                let sharded_disp = shmetrics::disparity_at_k(&data, ranker, &bonus, k).unwrap();
                prop_assert_eq!(bits(&serial_disp), bits(&sharded_disp),
                    "disparity, shard size {}, ranker {}", shard_size, ranker.describe());

                let sharded_ndcg = shmetrics::ndcg_at_k(&data, ranker, &bonus, k).unwrap();
                prop_assert_eq!(serial_ndcg.to_bits(), sharded_ndcg.to_bits(),
                    "ndcg, shard size {}, ranker {}", shard_size, ranker.describe());

                let sharded_log =
                    shmetrics::log_discounted_disparity(&data, ranker, &bonus, &log_cfg).unwrap();
                prop_assert_eq!(bits(&serial_log), bits(&sharded_log),
                    "log-discounted, shard size {}, ranker {}", shard_size, ranker.describe());

                let sharded_fpr = shmetrics::fpr_difference_at_k(&data, ranker, &bonus, k).unwrap();
                prop_assert_eq!(bits(&serial_fpr), bits(&sharded_fpr),
                    "fpr, shard size {}, ranker {}", shard_size, ranker.describe());

                let sharded_di =
                    shmetrics::scaled_disparate_impact_at_k(&data, ranker, &bonus, k).unwrap();
                prop_assert_eq!(bits(&serial_di), bits(&sharded_di),
                    "disparate impact, shard size {}, ranker {}", shard_size, ranker.describe());
            }
        }
    }

    /// The sharded selection layer reproduces the serial ranking exactly:
    /// scores, top-m prefixes, and per-row ranks.
    #[test]
    fn sharded_selection_matches_serial(
        rows in row_strategy(),
        k in 0.02_f64..1.0,
    ) {
        let flat = dataset_from_rows(&rows);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let bonus = [1.5_f64, 0.5];
        let serial_scores = effective_scores(&flat, &ranker, &bonus);
        let ranking = RankedSelection::from_scores(serial_scores.clone());
        let m = selection_size(flat.len(), k).unwrap();

        for shard_size in SHARD_SIZES {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            let scores = effective_scores(&data, &ranker, &bonus);
            prop_assert_eq!(bits(&serial_scores), bits(&scores),
                "scores, shard size {}", shard_size);
            prop_assert_eq!(shranking::top_m(&data, &scores, m), ranking.top(m).to_vec(),
                "top-m, shard size {}", shard_size);
            let probe = rows.len() / 2;
            prop_assert_eq!(Some(shranking::rank_of(&data, &scores, probe)),
                ranking.rank_of(probe), "rank, shard size {}", shard_size);
        }
    }

    /// Full DCA through the sharded engine walks the exact serial bonus
    /// trajectory — every step's centroid accumulation, direction, and clamp
    /// reproduce bit for bit at every shard size.
    #[test]
    fn sharded_full_dca_centroids_match_serial_bit_for_bit(
        rows in pvec((0_u32..8192, any::<bool>(), 0_u16..257, any::<bool>()), 30..120),
        k in 0.05_f64..0.6,
    ) {
        let flat = dataset_from_rows(&rows);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(k);
        let config = DcaConfig {
            learning_rates: vec![8.0, 0.5],
            iterations_per_rate: 4,
            refinement_iterations: 0,
            ..DcaConfig::default()
        };
        // Reference: the same descent with every step's direction from the
        // serial metric over a full sort of the flat cohort.
        let serial = fair_ranking::core::dca::run_full_descent(
            2, flat.len(), &config, None, true, &RunControl::new(), |b, out| {
                let ranking = RankedSelection::from_scores(effective_scores(&flat, &ranker, b));
                *out = disparity_at_k(&flat, &ranking, k)?;
                Ok(())
            },
        )
        .unwrap();
        for shard_size in SHARD_SIZES {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            let sharded =
                run_full_dca_sharded(&data, &ranker, &objective, &config, None, true).unwrap();
            prop_assert_eq!(bits(&serial.bonus), bits(&sharded.bonus),
                "final bonus, shard size {}", shard_size);
            prop_assert_eq!(serial.steps, sharded.steps);
            prop_assert_eq!(serial.objects_scored, sharded.objects_scored);
            for (s, t) in serial.trace.iter().zip(&sharded.trace) {
                prop_assert_eq!(bits(&s.bonus), bits(&t.bonus),
                    "trace step {}, shard size {}", s.step, shard_size);
                prop_assert_eq!(s.objective_norm.to_bits(), t.objective_norm.to_bits());
            }
        }
    }
}

/// A fixed non-divisible case (23 rows, shard size 7 → shards 7/7/7/2) so the
/// short-final-shard path is exercised even if a proptest run happens to draw
/// only divisible lengths.
#[test]
fn short_final_shard_is_bitwise_equivalent() {
    let rows: Vec<Row> = (0..23_u32)
        .map(|i| {
            (
                (i * 517) % 8192,
                i % 3 == 0,
                ((i * 97) % 257) as u16,
                i % 2 == 0,
            )
        })
        .collect();
    let flat = dataset_from_rows(&rows);
    let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
    let bonus = [2.5_f64, 0.25];
    let ranking = RankedSelection::from_scores(effective_scores(&flat, &ranker, &bonus));
    let data = ShardedDataset::from_dataset(&flat, 7).unwrap();
    assert_eq!(data.num_shards(), 4);
    assert_eq!(data.shard(3).len(), 2);
    for k in [0.05, 0.3, 1.0] {
        let serial = disparity_at_k(&flat, &ranking, k).unwrap();
        let sharded = shmetrics::disparity_at_k(&data, &ranker, &bonus, k).unwrap();
        assert_eq!(bits(&serial), bits(&sharded), "k {k}");
        let serial_ndcg = ndcg_at_k(&flat, &ranker, &ranking, k).unwrap();
        let sharded_ndcg = shmetrics::ndcg_at_k(&data, &ranker, &bonus, k).unwrap();
        assert_eq!(serial_ndcg.to_bits(), sharded_ndcg.to_bits(), "ndcg k {k}");
    }
}

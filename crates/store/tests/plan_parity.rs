//! Cross-crate property tests: the one-sweep [`MetricPlan`] evaluated over a
//! paged [`ShardStore`] is bit-for-bit identical to the same plan over the
//! in-memory [`ShardedDataset`], to the individual sharded kernels, and to
//! the serial reference — across shard sizes (1, 7, 64k), cache budgets
//! (zero, forced-eviction quarter, unbounded), and readahead depths (off,
//! 1, 2).
//!
//! This is the contract the audit service relies on: a multi-metric request
//! answered by one paged sweep must return exactly the numbers five separate
//! sweeps — or a flat serial evaluation — would have returned.

use fair_core::metrics::sharded::{self as shmetrics, MetricKind, MetricPlan, MetricValue};
use fair_core::metrics::LogDiscountConfig;
use fair_core::prelude::*;
use fair_store::{write_source, ShardStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> SchemaRef {
    Schema::from_names(&["a", "b"], &["g", "h"], &[]).unwrap()
}

/// A fully labelled cohort (the FPR metric requires ground truth on every
/// row) with mixed group membership and score spread. Fairness values are
/// dyadic (multiples of 1/256) so population-centroid sums are exact: the
/// serial reference accumulates rows left to right while the sharded engine
/// combines per-shard partial sums, and only exact addition makes those two
/// association orders bit-identical. Scores stay fully random — they are
/// compared and ranked, never re-associated.
fn cohort(n: usize, seed: u64) -> Vec<DataObject> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|i| {
            let member = rng.gen::<f64>() < 0.4;
            DataObject::new_unchecked(
                i,
                vec![rng.gen::<f64>() * 10.0, rng.gen::<f64>() - 0.5],
                vec![
                    f64::from(u8::from(member)),
                    f64::from(rng.gen::<u8>()) / 256.0,
                ],
                Some(rng.gen::<f64>() < 0.5),
            )
        })
        .collect()
}

fn bits_of(value: &MetricValue) -> Vec<u64> {
    match value {
        MetricValue::Scalar(v) => vec![v.to_bits()],
        MetricValue::Vector(v) => v.iter().map(|x| x.to_bits()).collect(),
    }
}

fn vec_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn temp_store_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fair_store_plan_parity");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}_{}.fss", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn one_sweep_plan_matches_kernels_and_serial_everywhere(
        n in 40_usize..300,
        shard_size_idx in 0_usize..3,
        k in 0.05_f64..0.6,
        seed in 0_u64..1000,
        budget_mode in 0_usize..3,
        prefetch in 0_usize..3,
    ) {
        let shard_size = [1, 7, 64 * 1024][shard_size_idx];
        let objects = cohort(n, seed);
        let flat = Dataset::new(schema(), objects.clone()).unwrap();
        let sharded =
            ShardedDataset::from_objects(schema(), objects, shard_size).unwrap();

        let path = temp_store_path(&format!("parity_{shard_size}_{budget_mode}_{prefetch}"));
        write_source(&sharded, &path).unwrap();
        let total_bytes = n * (8 * (2 + 2) + 8 + 1);
        let budget = match budget_mode {
            0 => 0,                        // evict everything immediately
            1 => (total_bytes / 4).max(1), // forced eviction mid-sweep
            _ => usize::MAX,
        };
        let store = ShardStore::open_with_options(&path, budget, prefetch).unwrap();

        let ranker = WeightedSumRanker::new(vec![1.0, 0.7]).unwrap();
        let bonus = [0.3, 0.1];
        let plan = MetricPlan::new(&MetricKind::ALL, k);

        // One sweep over the paged store vs one sweep over the in-memory
        // sharded cohort: the retention-based and gather-based measurement
        // strategies must agree bit-for-bit.
        let from_store = plan.evaluate(&store, &ranker, &bonus).unwrap();
        let from_memory = plan.evaluate(&sharded, &ranker, &bonus).unwrap();
        for ((sk, sv), (mk, mv)) in
            from_store.values().iter().zip(from_memory.values())
        {
            prop_assert_eq!(sk, mk);
            prop_assert_eq!(bits_of(sv), bits_of(mv), "{:?}", sk);
        }

        // The plan vs the individual sharded kernels (each itself pinned
        // bit-for-bit against the serial metrics in fair-core's tests).
        let disparity =
            shmetrics::disparity_at_k(&sharded, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(
            bits_of(from_store.get(MetricKind::Disparity).unwrap()),
            vec_bits(&disparity)
        );
        let ndcg = shmetrics::ndcg_at_k(&sharded, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(
            bits_of(from_store.get(MetricKind::Ndcg).unwrap()),
            vec![ndcg.to_bits()]
        );
        let log = shmetrics::log_discounted_disparity(
            &sharded,
            &ranker,
            &bonus,
            &LogDiscountConfig::default(),
        )
        .unwrap();
        prop_assert_eq!(
            bits_of(from_store.get(MetricKind::LogDiscounted).unwrap()),
            vec_bits(&log)
        );
        let fpr = shmetrics::fpr_difference_at_k(&sharded, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(
            bits_of(from_store.get(MetricKind::FprDifference).unwrap()),
            vec_bits(&fpr)
        );
        let di =
            shmetrics::scaled_disparate_impact_at_k(&sharded, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(
            bits_of(from_store.get(MetricKind::DisparateImpact).unwrap()),
            vec_bits(&di)
        );

        // And against the flat serial reference for the headline metric.
        let view = flat.full_view();
        let ranking = RankedSelection::from_scores(effective_scores(&view, &ranker, &bonus));
        let serial = fair_core::metrics::disparity_at_k(&view, &ranking, k).unwrap();
        prop_assert_eq!(
            bits_of(from_store.get(MetricKind::Disparity).unwrap()),
            vec_bits(&serial)
        );

        // Single-metric plans answer exactly like the full plan's entries —
        // request order and multiplicity never change the numbers.
        for kind in MetricKind::ALL {
            let single = MetricPlan::new(&[kind, kind], k)
                .evaluate(&store, &ranker, &bonus)
                .unwrap();
            prop_assert_eq!(single.values().len(), 1, "duplicates collapse");
            prop_assert_eq!(
                bits_of(single.get(kind).unwrap()),
                bits_of(from_store.get(kind).unwrap()),
                "{:?}",
                kind
            );
        }

        drop(store);
        std::fs::remove_file(path).ok();
    }
}

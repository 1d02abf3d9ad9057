//! Cross-crate property tests: the one-sweep [`MetricPlan`] evaluated over a
//! paged [`ShardStore`] is bit-for-bit identical to the same plan over the
//! in-memory [`ShardedDataset`] and over a plain [`Dataset`] (one shard), to
//! the individual sharded kernels, and to the serial reference — across
//! shard sizes (1, 7, 64k) and cache budgets (zero, forced-eviction
//! quarter, unbounded).
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
    ) {
        let shard_size = [1, 7, 64 * 1024][shard_size_idx];
        let objects = cohort(n, seed);
        let flat = Dataset::new(schema(), objects.clone()).unwrap();
        let sharded =
            ShardedDataset::from_objects(schema(), objects, shard_size).unwrap();

        let path = temp_store_path(&format!("parity_{shard_size}_{budget_mode}"));
        write_source(&sharded, &path).unwrap();
        let total_bytes = n * (8 * (2 + 2) + 8 + 1);
        let budget = match budget_mode {
            0 => 0,                        // evict everything immediately
            1 => (total_bytes / 4).max(1), // forced eviction mid-sweep
            _ => usize::MAX,
        };
        let store = ShardStore::open_with_budget(&path, budget).unwrap();

        let ranker = WeightedSumRanker::new(vec![1.0, 0.7]).unwrap();
        let bonus = [0.3, 0.1];
        let plan = MetricPlan::new(&MetricKind::ALL, k);

        // One sweep over the paged store vs one sweep over each in-memory
        // source — the sharded cohort and the flat dataset as one shard:
        // views holding the paged blocks' handles and views borrowing
        // resident blocks must measure bit-for-bit alike.
        let from_store = plan.evaluate(&store, &ranker, &bonus).unwrap();
        let from_memory = plan.evaluate(&sharded, &ranker, &bonus).unwrap();
        let from_dataset = plan.evaluate(&flat, &ranker, &bonus).unwrap();
        for from_source in [&from_memory, &from_dataset] {
            prop_assert_eq!(from_store.values().len(), from_source.values().len());
            for ((sk, sv), (mk, mv)) in
                from_store.values().iter().zip(from_source.values())
            {
                prop_assert_eq!(sk, mk);
                prop_assert_eq!(bits_of(sv), bits_of(mv), "{:?}", sk);
            }
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
            let single_plan = MetricPlan::new(&[kind, kind], k);
            let single = single_plan.evaluate(&store, &ranker, &bonus).unwrap();
            prop_assert_eq!(single.values().len(), 1, "duplicates collapse");
            prop_assert_eq!(
                bits_of(single.get(kind).unwrap()),
                bits_of(from_store.get(kind).unwrap()),
                "{:?}",
                kind
            );
            let single_flat = single_plan.evaluate(&flat, &ranker, &bonus).unwrap();
            prop_assert_eq!(
                bits_of(single_flat.get(kind).unwrap()),
                bits_of(single.get(kind).unwrap()),
                "{:?} over the dataset",
                kind
            );
        }

        drop(store);
        std::fs::remove_file(path).ok();
    }
}

/// A store wrapper that forwards only `ShardSource`'s required methods, as
/// one that forgets the store's overrides would.
struct RequiredOnly<'a>(&'a ShardStore);

impl ShardSource for RequiredOnly<'_> {
    fn schema(&self) -> &SchemaRef {
        ShardSource::schema(self.0)
    }

    fn len(&self) -> usize {
        ShardSource::len(self.0)
    }

    fn shard_size(&self) -> usize {
        ShardSource::shard_size(self.0)
    }

    fn num_shards(&self) -> usize {
        ShardSource::num_shards(self.0)
    }

    fn with_shard<'s, T>(&'s self, index: usize, f: impl FnOnce(ShardView<'s>) -> T) -> T {
        self.0.with_shard(index, f)
    }
}

#[test]
fn a_plan_through_a_required_only_wrapper_pages_each_shard_once() {
    let sharded = ShardedDataset::from_objects(schema(), cohort(8 * 64, 11), 64).unwrap();
    let path = temp_store_path("required_only");
    write_source(&sharded, &path).unwrap();
    // A budget-0 cache keeps nothing, so every shard access is a miss.
    let store = ShardStore::open_with_budget(&path, 0).unwrap();
    let ranker = WeightedSumRanker::new(vec![1.0, 0.7]).unwrap();
    let bonus = [0.3, 0.1];
    let plan = MetricPlan::new(&MetricKind::ALL, 0.2);

    let wrapped = plan.evaluate(&RequiredOnly(&store), &ranker, &bonus);
    assert_eq!(store.cache_stats().misses, 8, "one miss per shard");
    assert_eq!(
        wrapped.unwrap(),
        plan.evaluate(&store, &ranker, &bonus).unwrap()
    );
    drop(store);
    std::fs::remove_file(path).ok();
}

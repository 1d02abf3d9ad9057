//! Property tests guarding the data-plane performance work: the columnar
//! (structure-of-arrays) dataset must reproduce the pre-refactor
//! array-of-structs arithmetic bit-for-bit.

use fair_ranking::prelude::*;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The columnar dataset must reproduce the array-of-structs arithmetic
    /// bit-for-bit: centroids, effective scores, and the disparity metric all
    /// accumulate in the same order over the same values, so converting the
    /// storage layout must not move a single ulp.
    #[test]
    fn columnar_dataset_matches_aos_reference_bit_for_bit(
        rows in pvec((0.0_f64..100.0, any::<bool>(), 0.0_f64..1.0), 1..250),
        k in 0.01_f64..1.0,
    ) {
        let schema = Schema::from_names(&["score"], &["grp"], &["need"]).unwrap();
        let objects: Vec<DataObject> = rows
            .iter()
            .enumerate()
            .map(|(i, &(score, member, need))| {
                DataObject::new_unchecked(
                    i as u64,
                    vec![score],
                    vec![f64::from(u8::from(member)), need],
                    None,
                )
            })
            .collect();
        let bonus = [2.5_f64, 7.25];
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();

        // Array-of-structs reference: row-iterated accumulation over the
        // owned objects, in the canonical kernel order the columnar store
        // also uses (see `fair_core::kernel`).
        let mut acc = Vec::new();
        fair_ranking::core::kernel::col_sums_rows_into(
            2,
            objects.iter().map(|o| o.fairness()),
            &mut acc,
        );
        for a in &mut acc {
            *a /= objects.len() as f64;
        }
        let aos_scores: Vec<f64> = objects
            .iter()
            .map(|o| ranker.base_score(o.as_view()) + o.bonus_increment(&bonus))
            .collect();

        // Columnar dataset under test.
        let dataset = Dataset::new(schema, objects).unwrap();
        let centroid = dataset.fairness_centroid().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&centroid), bits(&acc));

        let soa_scores = effective_scores(&dataset, &ranker, &bonus);
        prop_assert_eq!(bits(&soa_scores), bits(&aos_scores));

        // Disparity over the AoS-scored ranking vs the SoA-scored ranking:
        // identical scores and identical centroid accumulation order mean
        // identical disparity bits.
        let aos_ranking = RankedSelection::from_scores(aos_scores);
        let soa_ranking = RankedSelection::from_scores(soa_scores);
        let aos_disp = disparity_at_k(&dataset, &aos_ranking, k).unwrap();
        let soa_disp = disparity_at_k(&dataset, &soa_ranking, k).unwrap();
        prop_assert_eq!(bits(&soa_disp), bits(&aos_disp));
    }

    /// Row views must round-trip through the column store losslessly.
    #[test]
    fn row_views_round_trip_through_columnar_storage(
        rows in pvec((0.0_f64..100.0, any::<bool>(), any::<bool>()), 1..120),
    ) {
        let schema = Schema::from_names(&["a", "b"], &["g"], &[]).unwrap();
        let objects: Vec<DataObject> = rows
            .iter()
            .enumerate()
            .map(|(i, &(x, member, label))| {
                DataObject::new_unchecked(
                    i as u64,
                    vec![x, 100.0 - x],
                    vec![f64::from(u8::from(member))],
                    Some(label),
                )
            })
            .collect();
        let dataset = Dataset::new(schema, objects.clone()).unwrap();
        prop_assert_eq!(dataset.len(), objects.len());
        for (i, original) in objects.iter().enumerate() {
            let row = dataset.row(i);
            prop_assert_eq!(row, original.as_view());
            prop_assert_eq!(&row.to_object(), original);
        }
    }
}

//! Property-based tests (proptest) on the core data structures and
//! invariants: disparity bounds, selection sizes, bonus-vector operations,
//! nDCG bounds, FA*IR mtables, quota feasibility, and the stability of the
//! deferred-acceptance match.

use fair_ranking::prelude::*;
use proptest::prelude::*;

/// Strategy: a small population of (score, group-membership) pairs with at
/// least one member and one non-member.
fn population() -> impl Strategy<Value = Vec<(f64, bool)>> {
    proptest::collection::vec((0.0_f64..100.0, any::<bool>()), 10..120)
        .prop_filter("need both members and non-members", |v| {
            v.iter().any(|(_, m)| *m) && v.iter().any(|(_, m)| !*m)
        })
}

fn build_dataset(pop: &[(f64, bool)]) -> Dataset {
    let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
    let objects = pop
        .iter()
        .enumerate()
        .map(|(i, (score, member))| {
            DataObject::new_unchecked(
                i as u64,
                vec![*score],
                vec![f64::from(u8::from(*member))],
                Some(i % 3 == 0),
            )
        })
        .collect();
    Dataset::new(schema, objects).unwrap()
}

proptest! {
    /// Disparity is always within [-1, 1] per dimension, and zero when the
    /// whole population is selected.
    #[test]
    fn disparity_is_bounded_and_zero_for_full_selection(
        pop in population(),
        k in 0.01_f64..1.0,
        bonus in 0.0_f64..50.0,
    ) {
        let dataset = build_dataset(&pop);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let ranking = RankedSelection::from_scores(effective_scores(&dataset, &ranker, &[bonus]));
        let disparity = disparity_at_k(&dataset, &ranking, k).unwrap();
        prop_assert!(disparity.iter().all(|d| (-1.0..=1.0).contains(d)));
        let full = disparity_at_k(&dataset, &ranking, 1.0).unwrap();
        prop_assert!(full.iter().all(|d| d.abs() < 1e-9));
    }

    /// The selection size is always within [1, n] and monotone in k.
    #[test]
    fn selection_size_is_monotone(n in 1_usize..5_000, k1 in 0.001_f64..1.0, k2 in 0.001_f64..1.0) {
        let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        let s_lo = selection_size(n, lo).unwrap();
        let s_hi = selection_size(n, hi).unwrap();
        prop_assert!(s_lo >= 1 && s_hi <= n);
        prop_assert!(s_lo <= s_hi);
    }

    /// nDCG is in [0, 1] and equals 1 for the unchanged ranking.
    #[test]
    fn ndcg_bounds(pop in population(), k in 0.01_f64..1.0, bonus in 0.0_f64..50.0) {
        let dataset = build_dataset(&pop);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let unchanged = RankedSelection::from_scores(effective_scores(&dataset, &ranker, &[0.0]));
        prop_assert!((ndcg_at_k(&dataset, &ranker, &unchanged, k).unwrap() - 1.0).abs() < 1e-9);
        let adjusted = RankedSelection::from_scores(effective_scores(&dataset, &ranker, &[bonus]));
        let u = ndcg_at_k(&dataset, &ranker, &adjusted, k).unwrap();
        prop_assert!((0.0..=1.0).contains(&u));
    }

    /// Bonus rounding lands on the requested grid and never violates the
    /// polarity; scaling by a proportion is linear in every coordinate.
    #[test]
    fn bonus_vector_operations(
        values in proptest::collection::vec(0.0_f64..30.0, 1..6),
        granularity in 0.1_f64..2.0,
        proportion in 0.0_f64..1.0,
    ) {
        let names: Vec<String> = (0..values.len()).map(|i| format!("a{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let schema = Schema::from_names(&["s"], &name_refs, &[]).unwrap();
        let bonus = BonusVector::new(schema, values.clone(), BonusPolarity::NonNegative).unwrap();
        let rounded = bonus.rounded_to(granularity).unwrap();
        for v in rounded.values() {
            prop_assert!(*v >= 0.0);
            let steps = v / granularity;
            prop_assert!((steps - steps.round()).abs() < 1e-6);
        }
        let scaled = bonus.scaled(proportion).unwrap();
        for (s, v) in scaled.values().iter().zip(&values) {
            prop_assert!((s - v * proportion).abs() < 1e-9);
        }
    }

    /// The FA*IR mtable is monotone non-decreasing in the prefix length and
    /// monotone non-decreasing in the target proportion.
    #[test]
    fn mtable_monotonicity(n in 1_usize..200, p1 in 0.0_f64..1.0, p2 in 0.0_f64..1.0, alpha in 0.01_f64..0.5) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let t_lo = binomial_mtable(n, lo, alpha);
        let t_hi = binomial_mtable(n, hi, alpha);
        prop_assert!(t_lo.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(t_lo.iter().zip(&t_hi).all(|(a, b)| a <= b));
        prop_assert!(t_hi.iter().enumerate().all(|(i, &m)| m <= i + 1));
    }

    /// A quota selection always returns exactly the requested number of seats
    /// and at least as many protected members as the unconstrained selection.
    #[test]
    fn quota_feasibility(pop in population(), k in 0.05_f64..1.0, reserve in 0.0_f64..1.0) {
        let dataset = build_dataset(&pop);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let config = QuotaConfig::new(reserve, vec![0]).unwrap();
        let selected = quota_select(&dataset, &ranker, k, &config).unwrap();
        let expected = selection_size(dataset.len(), k).unwrap();
        prop_assert_eq!(selected.len(), expected);
        // No duplicates.
        let mut sorted = selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), expected);
        // At least as many protected members as the unconstrained top-k.
        let plain = RankedSelection::from_scores(effective_scores(&dataset, &ranker, &[0.0]));
        let count = |positions: &[usize]| positions.iter().filter(|&&p| dataset.row(p).in_group(0)).count();
        prop_assert!(count(&selected) >= count(plain.selected(k).unwrap()));
    }

    /// Deferred acceptance always produces a stable matching that respects
    /// capacities.
    #[test]
    fn deferred_acceptance_is_stable(
        seed in 0_u64..5_000,
        num_students in 2_usize..40,
        num_schools in 1_usize..6,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Random preference lists (possibly partial) and random school rankings.
        let students: Vec<StudentPreferences> = (0..num_students)
            .map(|_| {
                let mut listed: Vec<usize> = (0..num_schools).collect();
                for i in (1..listed.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    listed.swap(i, j);
                }
                let keep = rng.gen_range(0..=num_schools);
                StudentPreferences::new(listed.into_iter().take(keep).collect())
            })
            .collect();
        let schools: Vec<SchoolRanking> = (0..num_schools)
            .map(|_| {
                let scores: Vec<f64> = (0..num_students).map(|_| rng.gen()).collect();
                SchoolRanking::from_scores(&scores, rng.gen_range(0..=3))
            })
            .collect();
        let matching = deferred_acceptance(&students, &schools);
        for (school, roster) in matching.rosters().iter().enumerate() {
            prop_assert!(roster.len() <= schools[school].capacity());
        }
        let blocking = is_stable(&students, &schools, &matching);
        prop_assert!(blocking.is_empty(), "blocking pairs: {:?}", blocking);
    }

    /// The sample centroid is an unbiased estimator: over repeated samples the
    /// mean of the estimates stays close to the population centroid
    /// (Lemma 4.2's property, checked empirically).
    #[test]
    fn sample_centroid_estimates_population_centroid(pop in population(), seed in 0_u64..1_000) {
        use rand::SeedableRng;
        let dataset = build_dataset(&pop);
        let truth = dataset.fairness_centroid().unwrap()[0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let samples = 60;
        let size = (dataset.len() / 2).max(5);
        let mut total = 0.0;
        let mut drawn = rand::seq::index::IndexBuffer::new();
        for _ in 0..samples {
            dataset.draw_indices_into(&mut rng, size, &mut drawn).unwrap();
            let mut sample = Dataset::empty(dataset.schema().clone());
            for &i in drawn.as_slice() {
                sample.push_row(dataset.row(i));
            }
            total += sample.fairness_centroid().unwrap()[0];
        }
        let mean = total / samples as f64;
        prop_assert!((mean - truth).abs() < 0.15, "mean {mean} vs truth {truth}");
    }

    /// CSV serialization round-trips arbitrary (valid) datasets.
    #[test]
    fn csv_round_trip(pop in population()) {
        let dataset = build_dataset(&pop);
        let text = fair_ranking::data::csv::to_csv_string(&dataset);
        let parsed = fair_ranking::data::csv::from_csv_string(&text).unwrap();
        prop_assert_eq!(parsed.len(), dataset.len());
        for (a, b) in parsed.iter().zip(dataset.iter()) {
            prop_assert_eq!(a.id(), b.id());
            prop_assert_eq!(a.fairness(), b.fairness());
            prop_assert_eq!(a.label(), b.label());
            for (x, y) in a.features().iter().zip(b.features()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }
    }
}

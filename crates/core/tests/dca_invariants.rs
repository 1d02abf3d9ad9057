//! Crate-level property tests for DCA and its supporting invariants, run on
//! randomly generated biased populations.

use fair_core::dca::run_full_descent;
use fair_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a population with a configurable member rate and score shift.
fn biased_dataset(n: usize, member_rate: f64, shift: f64, seed: u64) -> Dataset {
    let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let objects = (0..n as u64)
        .map(|i| {
            let member = rng.gen::<f64>() < member_rate;
            let score = rng.gen::<f64>() * 100.0 - if member { shift } else { 0.0 };
            DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
        })
        .collect();
    Dataset::new(schema, objects).unwrap()
}

/// Serial disparity at `k` over a full sort of `view` — an oracle that
/// shares no evaluation code with the `MetricPlan` DCA steps run.
fn serial_disparity(view: &SampleView<'_>, ranker: &dyn Ranker, bonus: &[f64], k: f64) -> Vec<f64> {
    let ranking = RankedSelection::from_scores(effective_scores(view, ranker, bonus));
    disparity_at_k(view, &ranking, k).unwrap()
}

fn quick_config(seed: u64) -> DcaConfig {
    DcaConfig {
        sample_size: 150,
        learning_rates: vec![10.0, 1.0],
        iterations_per_rate: 25,
        refinement_iterations: 25,
        rolling_window: 25,
        seed,
        ..DcaConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DCA never makes things worse and never emits a negative bonus, for a
    /// range of member rates, bias strengths, and selection fractions.
    #[test]
    fn dca_never_hurts_and_respects_polarity(
        member_rate in 0.15_f64..0.6,
        shift in 5.0_f64..40.0,
        k in 0.05_f64..0.4,
        seed in 0_u64..500,
    ) {
        let dataset = biased_dataset(1_500, member_rate, shift, seed);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let result = Dca::new(quick_config(seed))
            .run(&dataset, &ranker, &TopKDisparity::new(k))
            .unwrap();
        let before = result.report.disparity_before.norm();
        let after = result.report.disparity_after.norm();
        // Allow a small tolerance: rounding to 0.5 points can cost a little.
        prop_assert!(after <= before + 0.05, "after {after} vs before {before}");
        prop_assert!(result.bonus.values().iter().all(|b| *b >= 0.0));
    }

    /// With caps configured, no step of Core DCA ever exceeds them.
    #[test]
    fn caps_hold_along_the_whole_trajectory(
        cap in 0.5_f64..5.0,
        shift in 10.0_f64..40.0,
        seed in 0_u64..500,
    ) {
        let dataset = biased_dataset(1_200, 0.3, shift, seed);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let mut config = quick_config(seed);
        config.caps = Some(BonusCaps::uniform(1, cap).unwrap());
        let out = run_core_dca(&dataset, &ranker, &TopKDisparity::new(0.1), &config, None, true)
            .unwrap();
        prop_assert!(out.trace.iter().all(|t| t.bonus[0] <= cap + 1e-9 && t.bonus[0] >= 0.0));
    }

    /// The objective evaluated on samples stays within the [-1, 1] contract
    /// regardless of the bonus applied.
    #[test]
    fn sampled_objective_respects_bounds(
        bonus in 0.0_f64..200.0,
        k in 0.02_f64..0.9,
        seed in 0_u64..500,
    ) {
        let dataset = biased_dataset(800, 0.3, 20.0, seed);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = dataset.sample(&mut rng, 100).unwrap();
        // A DCA step evaluates its objective's plan over the gathered sample,
        // a plain `Dataset` and so one shard.
        let sample = dataset.subset(sample.indices());
        for plan in [
            TopKDisparity::new(k).plan(),
            LogDiscountedObjective::default().plan(),
            ScaledDisparateImpact::new(k).plan(),
        ] {
            let objective_value = plan.evaluate_vector(&sample, &ranker, &[bonus]).unwrap();
            prop_assert!(objective_value.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }

    /// Full DCA is deterministic and at least as good as Core DCA with the
    /// same schedule (it sees the full dataset at every step).
    #[test]
    fn full_dca_matches_or_beats_sampled_core(seed in 0_u64..200, shift in 10.0_f64..40.0) {
        let dataset = biased_dataset(1_000, 0.3, shift, seed);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let config = quick_config(seed);
        let objective = TopKDisparity::new(0.1);
        let view = dataset.full_view();
        // Reference: the Full DCA descent with every direction from the
        // serial metric over the whole dataset.
        let control = RunControl::new();
        let full = run_full_descent(1, dataset.len(), &config, None, false, &control, |b, out| {
            *out = serial_disparity(&view, &ranker, b, 0.1);
            Ok(())
        })
        .unwrap();
        let core = run_core_dca(&dataset, &ranker, &objective, &config, None, false).unwrap();
        let eval = |bonus: &[f64]| norm(&serial_disparity(&view, &ranker, bonus, 0.1));
        prop_assert!(eval(&full.bonus) <= eval(&core.bonus) + 0.08,
            "full {} vs core {}", eval(&full.bonus), eval(&core.bonus));
        // Determinism of the non-sampled variant: the library's Full DCA,
        // over the dataset as one shard, walks the reference trajectory.
        let again =
            run_full_dca_sharded(&dataset, &ranker, &objective, &config, None, false).unwrap();
        prop_assert_eq!(full.bonus, again.bonus);
    }

    /// Calibration results are consistent: the returned proportion reproduces
    /// the returned disparity/utility when re-evaluated.
    #[test]
    fn calibration_is_self_consistent(
        target_utility in 0.9_f64..0.999,
        shift in 10.0_f64..40.0,
        seed in 0_u64..200,
    ) {
        let dataset = biased_dataset(1_500, 0.35, shift, seed);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let bonus = BonusVector::new(dataset.schema().clone(), vec![shift], BonusPolarity::NonNegative)
            .unwrap();
        let result = calibrate_proportion(
            &dataset,
            &ranker,
            &bonus,
            0.1,
            CalibrationTarget::MinUtility(target_utility),
            None,
            14,
        )
        .unwrap();
        if result.target_met {
            prop_assert!(result.ndcg >= target_utility - 1e-9);
        }
        // Re-evaluate the returned bonus: it must reproduce the reported values.
        let view = dataset.full_view();
        let ranking = RankedSelection::from_scores(effective_scores(&view, &ranker, result.bonus.values()));
        let disparity = norm(&disparity_at_k(&view, &ranking, 0.1).unwrap());
        let utility = ndcg_at_k(&view, &ranker, &ranking, 0.1).unwrap();
        prop_assert!((disparity - result.disparity_norm).abs() < 1e-9);
        prop_assert!((utility - result.ndcg).abs() < 1e-9);
    }
}

/// A deterministic regression check of the Theorem 4.1 inequality on a small
/// instance: for any pair (p outside, q inside) whose swap would reduce
/// disparity, the current disparity satisfies `D · (F_p − F_q) < 0`, so the
/// descent direction gives p more bonus than q.
#[test]
fn theorem_4_1_inequality_on_random_instances() {
    for seed in 0..20_u64 {
        let dataset = biased_dataset(200, 0.3, 15.0, seed);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let view = dataset.full_view();
        let k = 0.2;
        let ranking = RankedSelection::from_scores(effective_scores(&view, &ranker, &[0.0]));
        let selected = ranking.selected(k).unwrap();
        let unselected = ranking.unselected(k).unwrap();
        let disparity = disparity_at_k(&view, &ranking, k).unwrap();
        let centroid_all = view.fairness_centroid().unwrap();
        let centroid_sel = view.fairness_centroid_of(selected).unwrap();
        let s = selected.len() as f64;

        for &p in unselected.iter().take(10) {
            for &q in selected.iter().take(10) {
                let fp = view.object(p).fairness()[0];
                let fq = view.object(q).fairness()[0];
                let swapped = centroid_sel[0] + (fp - fq) / s - centroid_all[0];
                let current = centroid_sel[0] - centroid_all[0];
                if swapped.abs() < current.abs() - 1e-12 {
                    let dot = disparity[0] * (fp - fq);
                    assert!(
                        dot <= 1e-9,
                        "seed {seed}: D·(Fp−Fq) = {dot} must be non-positive"
                    );
                }
            }
        }
    }
}

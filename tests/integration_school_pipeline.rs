//! End-to-end integration test of the school-admission pipeline: generator →
//! rubric → DCA → evaluation on a held-out cohort, exercising the same path as
//! Table I of the paper.

use fair_ranking::prelude::*;

fn fast_config() -> DcaConfig {
    DcaConfig {
        sample_size: 300,
        learning_rates: vec![1.0, 0.1],
        iterations_per_rate: 50,
        refinement_iterations: 50,
        rolling_window: 50,
        seed: 99,
        ..DcaConfig::default()
    }
}

#[test]
fn table_one_pipeline_generalizes_to_the_test_year() {
    let (train, test) = SchoolGenerator::new(SchoolConfig::small(6_000, 2016)).train_test_cohorts();
    let rubric = SchoolGenerator::rubric();
    let k = 0.05;

    let result = Dca::new(fast_config())
        .run(train.dataset(), &rubric, &TopKDisparity::new(k))
        .expect("DCA run");

    // Training-year improvement.
    let before = result.report.disparity_before.norm();
    let after = result.report.disparity_after.norm();
    assert!(before > 0.15, "baseline norm {before}");
    assert!(after < before * 0.5, "training norm {after} vs {before}");

    // Test-year improvement with the same published bonus vector.
    let corrected = RankedSelection::from_scores(effective_scores(
        test.dataset(),
        &rubric,
        result.bonus.values(),
    ));
    let uncorrected =
        RankedSelection::from_scores(effective_scores(test.dataset(), &rubric, &[0.0; 4]));
    let test_before = norm(&disparity_at_k(test.dataset(), &uncorrected, k).unwrap());
    let test_after = norm(&disparity_at_k(test.dataset(), &corrected, k).unwrap());
    assert!(
        test_after < test_before * 0.6,
        "test norm {test_after} vs {test_before}"
    );

    // Utility stays high (paper: ≈ 0.957 at 5%).
    let utility = ndcg_at_k(test.dataset(), &rubric, &corrected, k).unwrap();
    assert!(utility > 0.85, "nDCG {utility}");

    // The published vector is explainable: non-negative, 0.5-point grid, and
    // the explanation names every fairness attribute.
    for v in result.bonus.values() {
        assert!(*v >= 0.0);
        assert!(((v / 0.5) - (v / 0.5).round()).abs() < 1e-9);
    }
    let explanation = result.bonus.explain();
    for name in train.dataset().schema().fairness_names() {
        assert!(explanation.contains(name), "explanation missing {name}");
    }
}

#[test]
fn log_discounted_mode_handles_unknown_selection_sizes() {
    let cohort = SchoolGenerator::new(SchoolConfig::small(6_000, 7)).generate();
    let rubric = SchoolGenerator::rubric();
    let result = Dca::new(fast_config())
        .run(
            cohort.dataset(),
            &rubric,
            &LogDiscountedObjective::new(LogDiscountConfig {
                step: 10,
                max_fraction: 0.5,
            }),
        )
        .expect("log-discounted DCA run");

    // One bonus vector must improve the average disparity across many k.
    let ks: Vec<f64> = (1..=10).map(|i| i as f64 * 0.05).collect();
    let avg = |bonus: &[f64]| -> f64 {
        let ranking =
            RankedSelection::from_scores(effective_scores(cohort.dataset(), &rubric, bonus));
        ks.iter()
            .map(|&k| norm(&disparity_at_k(cohort.dataset(), &ranking, k).unwrap()))
            .sum::<f64>()
            / ks.len() as f64
    };
    let before = avg(&[0.0; 4]);
    let after = avg(result.bonus.values());
    assert!(after < before * 0.6, "average norm {after} vs {before}");
}

#[test]
fn scaled_interventions_trade_fairness_for_utility() {
    let cohort = SchoolGenerator::new(SchoolConfig::small(6_000, 11)).generate();
    let rubric = SchoolGenerator::rubric();
    let k = 0.05;
    let result = Dca::new(fast_config())
        .run(cohort.dataset(), &rubric, &TopKDisparity::new(k))
        .expect("DCA run");

    let evaluate = |bonus: &BonusVector| {
        let ranking = RankedSelection::from_scores(effective_scores(
            cohort.dataset(),
            &rubric,
            bonus.values(),
        ));
        let disparity = norm(&disparity_at_k(cohort.dataset(), &ranking, k).unwrap());
        let utility = ndcg_at_k(cohort.dataset(), &rubric, &ranking, k).unwrap();
        (disparity, utility)
    };
    let (full_disparity, full_utility) = evaluate(&result.bonus);
    let half = result.bonus.scaled(0.5).unwrap();
    let (half_disparity, half_utility) = evaluate(&half);

    assert!(
        full_disparity <= half_disparity + 1e-9,
        "more bonus, less disparity"
    );
    assert!(
        full_utility <= half_utility + 1e-9,
        "more bonus, less utility"
    );
}

#[test]
fn csv_round_trip_preserves_a_generated_cohort() {
    let cohort = SchoolGenerator::new(SchoolConfig::small(500, 3)).generate();
    let text = fair_ranking::data::csv::to_csv_string(cohort.dataset());
    let parsed = fair_ranking::data::csv::from_csv_string(&text).expect("parse");
    assert_eq!(parsed.len(), cohort.dataset().len());
    assert_eq!(
        parsed.fairness_centroid().unwrap(),
        cohort.dataset().fairness_centroid().unwrap()
    );
}

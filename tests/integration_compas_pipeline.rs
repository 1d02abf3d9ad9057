//! End-to-end integration test of the COMPAS audit pipeline (Figures 10a/10b):
//! generator → decile ranking → non-positive DCA → disparity and FPR
//! evaluation.

use fair_ranking::prelude::*;

fn compas_config() -> DcaConfig {
    DcaConfig {
        polarity: BonusPolarity::NonPositive,
        sample_size: 400,
        learning_rates: vec![1.0, 0.1],
        iterations_per_rate: 50,
        refinement_iterations: 50,
        rolling_window: 50,
        seed: 5,
        ..DcaConfig::default()
    }
}

#[test]
fn flagged_set_disparity_is_reduced_with_non_positive_bonuses() {
    let dataset = CompasGenerator::new(CompasConfig::small(5_000, 3)).generate();
    let ranker = CompasGenerator::decile_ranker();
    let k = 0.3;

    let result = Dca::new(compas_config())
        .run(&dataset, &ranker, &TopKDisparity::new(k))
        .expect("DCA run");

    let before = result.report.disparity_before;
    let after = result.report.disparity_after;
    // African-American defendants (dim 0) are over-flagged before correction.
    assert!(before.values()[0] > 0.03, "{:?}", before.values());
    assert!(
        after.norm() < before.norm(),
        "{} vs {}",
        after.norm(),
        before.norm()
    );
    // The adjustment only ever subtracts points.
    assert!(result.bonus.values().iter().all(|v| *v <= 0.0));
}

#[test]
fn fpr_objective_narrows_false_positive_gaps() {
    let dataset = CompasGenerator::new(CompasConfig::small(5_000, 7)).generate();
    let ranker = CompasGenerator::decile_ranker();
    let k = 0.3;
    let dims = dataset.schema().num_fairness();

    // Per-group FPR minus the overall FPR; dimension 0 is african_american,
    // the group the original ProPublica analysis found over-flagged.
    let gaps = |bonus: &[f64]| -> Vec<f64> {
        let ranking = RankedSelection::from_scores(effective_scores(&dataset, &ranker, bonus));
        let (per_group, overall) = group_fpr_at_k(&dataset, &ranking, k).unwrap();
        per_group.iter().map(|f| f - overall).collect()
    };

    let before = gaps(&vec![0.0; dims]);
    let result = Dca::new(compas_config())
        .run(&dataset, &ranker, &FprDifferenceObjective::new(k))
        .expect("FPR-driven DCA run");
    let after = gaps(result.bonus.values());
    assert!(
        before[0] > 0.05,
        "the over-flagged group has an FPR excess before correction: {before:?}"
    );
    // The headline gap (over-flagged group vs the population) shrinks; the
    // overall vector norm may wobble because the smallest race groups have
    // only a handful of true negatives at this cohort size.
    assert!(
        after[0].abs() < before[0].abs(),
        "over-flagged group's FPR excess shrinks: {after:?} vs {before:?}"
    );
    assert!(
        norm(&after) < norm(&before) * 1.5,
        "no blow-up of the remaining gaps"
    );
}

#[test]
fn decile_scores_are_coarse_but_log_discounted_mode_still_helps() {
    let dataset = CompasGenerator::new(CompasConfig::small(5_000, 11)).generate();
    let ranker = CompasGenerator::decile_ranker();
    let result = Dca::new(compas_config())
        .run(
            &dataset,
            &ranker,
            &LogDiscountedObjective::new(LogDiscountConfig {
                step: 10,
                max_fraction: 0.5,
            }),
        )
        .expect("log-discounted DCA run");

    let ks: Vec<f64> = (1..=10).map(|i| i as f64 * 0.05).collect();
    let avg = |bonus: &[f64]| -> f64 {
        let ranking = RankedSelection::from_scores(effective_scores(&dataset, &ranker, bonus));
        ks.iter()
            .map(|&k| norm(&disparity_at_k(&dataset, &ranking, k).unwrap()))
            .sum::<f64>()
            / ks.len() as f64
    };
    let dims = dataset.schema().num_fairness();
    let before = avg(&vec![0.0; dims]);
    let after = avg(result.bonus.values());
    assert!(after < before, "{after} vs {before}");
}

//! Cross-crate integration tests pitting DCA against the baseline
//! interventions on a shared synthetic cohort (the Section VI-C comparisons).

use fair_ranking::prelude::*;

fn cohort() -> fair_ranking::core::Dataset {
    SchoolGenerator::new(SchoolConfig::small(6_000, 77))
        .generate()
        .into_dataset()
}

fn dca_config() -> DcaConfig {
    DcaConfig {
        sample_size: 300,
        learning_rates: vec![1.0, 0.1],
        iterations_per_rate: 50,
        refinement_iterations: 50,
        rolling_window: 50,
        seed: 13,
        ..DcaConfig::default()
    }
}

fn selection_disparity(dataset: &Dataset, selected: &[usize]) -> f64 {
    norm(&fair_ranking::core::metrics::disparity_of_selection(dataset, selected).unwrap())
}

#[test]
fn dca_beats_a_single_quota_on_multidimensional_disparity() {
    let dataset = cohort();
    let rubric = SchoolGenerator::rubric();
    let k = 0.1;

    // Quota: 70% of seats reserved for students in any binary protected group.
    let quota = QuotaConfig::new(0.7, vec![0, 1, 2]).unwrap();
    let quota_selected = quota_select(&dataset, &rubric, k, &quota).unwrap();
    let quota_norm = selection_disparity(&dataset, &quota_selected);

    // DCA.
    let dca = Dca::new(dca_config())
        .run(&dataset, &rubric, &TopKDisparity::new(k))
        .unwrap();
    let ranking =
        RankedSelection::from_scores(effective_scores(&dataset, &rubric, dca.bonus.values()));
    let dca_norm = norm(&disparity_at_k(&dataset, &ranking, k).unwrap());

    // Baseline for context.
    let base_ranking = RankedSelection::from_scores(effective_scores(&dataset, &rubric, &[0.0; 4]));
    let base_norm = norm(&disparity_at_k(&dataset, &base_ranking, k).unwrap());

    assert!(
        quota_norm < base_norm,
        "the quota does help: {quota_norm} vs {base_norm}"
    );
    assert!(
        dca_norm < quota_norm,
        "DCA should beat the single quota: {dca_norm} vs {quota_norm}"
    );
}

#[test]
fn delta2_with_dca_derived_constraints_matches_dca_quality() {
    let dataset = cohort();
    let rubric = SchoolGenerator::rubric();
    let k = 0.05;
    let m = selection_size(dataset.len(), k).unwrap();

    let dca = Dca::new(dca_config())
        .run(&dataset, &rubric, &TopKDisparity::new(k))
        .unwrap();
    let ranking =
        RankedSelection::from_scores(effective_scores(&dataset, &rubric, dca.bonus.values()));
    let dca_norm = norm(&disparity_at_k(&dataset, &ranking, k).unwrap());

    let constraints = caps_excluding_group(&dataset, &[0, 1, 2], m, dca_norm).unwrap();
    let selected = celis_rerank(&dataset, &rubric, m, &constraints).unwrap();
    let delta2_norm = selection_disparity(&dataset, &selected);

    let base_ranking = RankedSelection::from_scores(effective_scores(&dataset, &rubric, &[0.0; 4]));
    let base_norm = norm(&disparity_at_k(&dataset, &base_ranking, k).unwrap());
    assert!(dca_norm < base_norm * 0.6);
    assert!(delta2_norm < base_norm, "(Δ+2) improves over the baseline");
    // The two post-hoc methods land in the same quality neighbourhood.
    assert!(
        (delta2_norm - dca_norm).abs() < 0.25,
        "{delta2_norm} vs {dca_norm}"
    );
}

#[test]
fn fastar_respects_its_mtables_on_a_district_sized_population() {
    let dataset = SchoolGenerator::new(SchoolConfig::small(2_500, 5))
        .generate()
        .into_dataset();
    let rubric = SchoolGenerator::rubric();
    let k = 0.1;
    let m = selection_size(dataset.len(), k).unwrap();

    let worst = most_disadvantaged_subgroups(&dataset, &rubric, &[0, 1, 2], k, 3).unwrap();
    let groups: Vec<ProtectedGroup> = worst
        .iter()
        .map(|(g, _)| ProtectedGroup::from_subgroup(&dataset, g))
        .collect();
    let shares: Vec<f64> = groups.iter().map(|g| g.target_proportion).collect();
    let ranker = FaStarRanker::new(FaStarConfig::new(0.1, m).unwrap(), groups).unwrap();
    let order = ranker.rerank(&dataset, &rubric).unwrap();
    assert_eq!(order.len(), m);

    // Verify the ranked-group-fairness condition prefix by prefix with an
    // independently computed mtable (Šidák-corrected significance). Because
    // only one candidate can be inserted per position, requirements of
    // several groups binding at the same prefix can lag by at most
    // |groups| - 1 positions; the condition must hold exactly at the end.
    let alpha_c = 1.0 - (1.0_f64 - 0.1).powf(1.0 / shares.len() as f64);
    let slack = shares.len() - 1;
    for (g, share) in shares.iter().enumerate() {
        let mtable = binomial_mtable(m, *share, alpha_c);
        let mut count = 0usize;
        for (i, &pos) in order.iter().enumerate() {
            if ranker.groups()[g].members[pos] {
                count += 1;
            }
            assert!(
                count + slack >= mtable[i],
                "group {g} prefix {i}: {count} (+{slack} slack) < {}",
                mtable[i]
            );
        }
        let final_count = order
            .iter()
            .filter(|&&pos| ranker.groups()[g].members[pos])
            .count();
        assert!(
            final_count >= mtable[m - 1],
            "group {g} final count {final_count} < {}",
            mtable[m - 1]
        );
    }
}

#[test]
fn exposure_ddp_improves_after_dca() {
    let dataset = cohort();
    let rubric = SchoolGenerator::rubric();
    let dca = Dca::new(dca_config())
        .run(
            &dataset,
            &rubric,
            &LogDiscountedObjective::new(LogDiscountConfig {
                step: 10,
                max_fraction: 0.5,
            }),
        )
        .unwrap();
    let before = RankedSelection::from_scores(effective_scores(&dataset, &rubric, &[0.0; 4]));
    let after =
        RankedSelection::from_scores(effective_scores(&dataset, &rubric, dca.bonus.values()));
    let ddp_before = ddp_for_binary_attributes(&dataset, &before).unwrap();
    let ddp_after = ddp_for_binary_attributes(&dataset, &after).unwrap();
    assert!(ddp_after < ddp_before, "{ddp_after} vs {ddp_before}");
}

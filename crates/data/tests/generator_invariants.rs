//! Crate-level property tests for the synthetic dataset generators: the
//! published marginals must hold across seeds and cohort sizes, the generated
//! data must survive CSV round trips, and the splits must preserve structure.

use fair_core::prelude::*;
use fair_data::{
    holdout_split, stratified_split, CompasConfig, CompasGenerator, DatasetSummary, SchoolConfig,
    SchoolGenerator,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// School cohorts keep the published group frequencies for any seed.
    #[test]
    fn school_marginals_are_seed_invariant(seed in 0_u64..10_000) {
        let cohort = SchoolGenerator::new(SchoolConfig::small(12_000, seed)).generate();
        let d = cohort.dataset();
        prop_assert!((d.group_frequency(0) - 0.70).abs() < 0.04, "low income");
        prop_assert!((d.group_frequency(1) - 0.10).abs() < 0.03, "ell");
        prop_assert!((d.group_frequency(2) - 0.20).abs() < 0.03, "special ed");
        // ENI stays in [0, 1] and has non-trivial spread.
        let summary = DatasetSummary::compute(d).unwrap();
        prop_assert_eq!(summary.count, 12_000);
        prop_assert!(d.iter().all(|o| (0.0..=1.0).contains(&o.fairness()[3])));
    }

    /// The uncorrected 5% selection always under-represents every
    /// disadvantaged dimension, for any seed — the structural bias DCA exists
    /// to repair is not an artifact of one lucky seed.
    #[test]
    fn school_bias_direction_is_stable(seed in 0_u64..10_000) {
        let cohort = SchoolGenerator::new(SchoolConfig::small(12_000, seed)).generate();
        let rubric = SchoolGenerator::rubric();
        let ranking = RankedSelection::from_scores(effective_scores(cohort.dataset(), &rubric, &[0.0; 4]));
        let disparity = disparity_at_k(cohort.dataset(), &ranking, 0.05).unwrap();
        prop_assert!(disparity.iter().all(|v| *v < 0.0), "{disparity:?}");
        prop_assert!(norm(&disparity) > 0.15);
    }

    /// COMPAS cohorts keep the race mix, deciles in 1..=10, labels everywhere,
    /// and the over-flagging of Black defendants for any seed.
    #[test]
    fn compas_structure_is_seed_invariant(seed in 0_u64..10_000) {
        let dataset = CompasGenerator::new(CompasConfig::small(6_000, seed)).generate();
        prop_assert!(dataset.fully_labelled());
        prop_assert!((dataset.group_frequency(0) - 0.512).abs() < 0.03, "african american share");
        prop_assert!((dataset.group_frequency(1) - 0.340).abs() < 0.03, "caucasian share");
        for o in dataset.iter() {
            let decile = o.features()[0];
            prop_assert!((1.0..=10.0).contains(&decile) && decile.fract() == 0.0);
        }
        let ranker = CompasGenerator::decile_ranker();
        let ranking = RankedSelection::from_scores(effective_scores(&dataset, &ranker, &[0.0; 6]));
        let disparity = disparity_at_k(&dataset, &ranking, 0.3).unwrap();
        prop_assert!(disparity[0] > 0.0, "african_american over-flagged: {disparity:?}");
        prop_assert!(disparity[1] < 0.0, "caucasian under-flagged: {disparity:?}");
    }

    /// Holdout and stratified splits partition the cohort and keep group
    /// shares, for any split fraction.
    #[test]
    fn splits_partition_and_preserve_shares(
        seed in 0_u64..1_000,
        test_fraction in 0.1_f64..0.5,
    ) {
        let dataset = SchoolGenerator::new(SchoolConfig::small(4_000, seed)).generate().into_dataset();
        let (train, test) = holdout_split(&dataset, test_fraction, seed).unwrap();
        prop_assert_eq!(train.len() + test.len(), dataset.len());
        let (strain, stest) = stratified_split(&dataset, 1, test_fraction, seed).unwrap();
        prop_assert_eq!(strain.len() + stest.len(), dataset.len());
        // The stratified split keeps the rare ELL share in both parts.
        let overall = dataset.group_frequency(1);
        prop_assert!((strain.group_frequency(1) - overall).abs() < 0.03);
        prop_assert!((stest.group_frequency(1) - overall).abs() < 0.04);
    }

    /// Generated cohorts survive a CSV round trip bit-for-bit on fairness
    /// attributes and labels.
    #[test]
    fn generated_data_round_trips_through_csv(seed in 0_u64..1_000) {
        let dataset = CompasGenerator::new(CompasConfig::small(300, seed)).generate();
        let text = fair_data::csv::to_csv_string(&dataset);
        let parsed = fair_data::csv::from_csv_string(&text).unwrap();
        prop_assert_eq!(parsed.len(), dataset.len());
        for (a, b) in parsed.iter().zip(dataset.iter()) {
            prop_assert_eq!(a.fairness(), b.fairness());
            prop_assert_eq!(a.label(), b.label());
        }
    }
}

/// The sample-size recommendation of Section IV-D reacts to both k and the
/// rarest-group frequency on generated data.
#[test]
fn recommended_sample_size_reflects_the_rarest_group() {
    let cohort = SchoolGenerator::new(SchoolConfig::small(20_000, 3)).generate();
    let d = cohort.dataset();
    let small_k = DcaConfig::recommended_sample_size(d, 0.01).unwrap();
    let large_k = DcaConfig::recommended_sample_size(d, 0.5).unwrap();
    assert!(
        small_k > large_k,
        "smaller selections need bigger samples: {small_k} vs {large_k}"
    );
    // At large k the binding constraint is the ~10% ELL group: 30 / 0.1 ≈ 300.
    assert!(
        (250..=400).contains(&large_k),
        "rarest-group rule gives ≈300, got {large_k}"
    );
}

/// District extraction is a partition of the cohort with poverty gradients.
#[test]
fn district_poverty_gradient_is_monotone_on_average() {
    let cohort = SchoolGenerator::new(SchoolConfig::small(32_000, 9)).generate();
    let mut shares = Vec::new();
    for d in 0..fair_data::SCHOOL_DISTRICTS as u16 {
        shares.push(cohort.district(d).group_frequency(0));
    }
    // Compare the average of the poorest and richest quartiles of districts.
    let q = shares.len() / 4;
    let low: f64 = shares[..q].iter().sum::<f64>() / q as f64;
    let high: f64 = shares[shares.len() - q..].iter().sum::<f64>() / q as f64;
    assert!(
        high > low + 0.15,
        "district poverty gradient: {low:.2} vs {high:.2}"
    );
}

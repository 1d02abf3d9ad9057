//! False-positive-rate (FPR) differences — the equalized-odds style objective
//! of Section VI-C5.
//!
//! "The FPR is defined as the proportion of real negative cases that were
//! misidentified as positive by the algorithm. Disparities in this rate
//! between different groups is one of the original criticisms of the COMPAS
//! algorithm. To minimize this difference we subtract the overall FPR from the
//! per-group FPR."
//!
//! In this crate's conventions, the top-`k` selection is the *positive*
//! prediction (e.g. flagged as high recidivism risk) and the object label is
//! the ground-truth outcome (`true` = the event occurred). A false positive is
//! therefore a selected object whose label is `false`.

use crate::dataset::Dataset;
use crate::error::Result;
use crate::metrics::{tally_selection, GroupTally};
use crate::ranking::topk::RankedSelection;

/// FPR of each fairness group (membership thresholded at 0.5) and the overall
/// FPR, for the top-`k` selection treated as the positive prediction.
///
/// Groups with no true-negative members report an FPR of 0.
///
/// # Errors
/// Returns an error on an empty dataset, invalid `k`, or missing labels.
pub fn group_fpr_at_k(
    data: &Dataset,
    ranking: &RankedSelection,
    k: f64,
) -> Result<(Vec<f64>, f64)> {
    let (population, selected) = tally_selection(data, ranking, k, true)?;
    Ok(fpr_rates(&population, &selected))
}

/// Per-group and overall false-positive rates from the population and
/// selected-set tallies: false positives are the selected true negatives.
fn fpr_rates(population: &GroupTally, selected: &GroupTally) -> (Vec<f64>, f64) {
    let rate = |fp: usize, neg: usize| {
        if neg == 0 {
            0.0
        } else {
            fp as f64 / neg as f64
        }
    };
    let per_group = selected
        .member_negatives
        .iter()
        .zip(&population.member_negatives)
        .map(|(&fp, &neg)| rate(fp, neg))
        .collect();
    (per_group, rate(selected.negatives, population.negatives))
}

/// `FPR_group − FPR_overall` per dimension from the tallies — the one FPR
/// difference the serial metric and the sharded planner compute.
pub(crate) fn fpr_difference(population: &GroupTally, selected: &GroupTally) -> Vec<f64> {
    let (per_group, overall) = fpr_rates(population, selected);
    per_group.into_iter().map(|f| f - overall).collect()
}

/// The DCA-compatible FPR-difference vector: `FPR_group − FPR_overall` per
/// fairness dimension, each value in `[-1, 1]` and 0 when the group's FPR
/// matches the population's.
///
/// A *positive* value means the group is flagged as a false positive more
/// often than average; with a [`crate::bonus::BonusPolarity::NonPositive`]
/// bonus vector, DCA then decreases that group's effective risk score.
///
/// # Errors
/// Returns an error on an empty dataset, invalid `k`, or missing labels.
pub fn fpr_difference_at_k(data: &Dataset, ranking: &RankedSelection, k: f64) -> Result<Vec<f64>> {
    let (population, selected) = tally_selection(data, ranking, k, true)?;
    Ok(fpr_difference(&population, &selected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dataset::Dataset;
    use crate::error::FairError;
    use crate::object::DataObject;
    use crate::ranking::{effective_scores, SingleFeatureRanker};

    /// Two groups (a, b), 4 objects each; "risk" scores arranged so that the
    /// top-50% selection contains all of group a and none of group b. Half of
    /// each group are true negatives (label = false).
    fn dataset() -> Dataset {
        let schema = Schema::from_names(&["risk"], &["a", "b"], &[]).unwrap();
        let mut objects = Vec::new();
        for i in 0..4_u64 {
            // group a: high risk scores
            objects.push(DataObject::new_unchecked(
                i,
                vec![100.0 + i as f64],
                vec![1.0, 0.0],
                Some(i % 2 == 0),
            ));
        }
        for i in 4..8_u64 {
            // group b: low risk scores
            objects.push(DataObject::new_unchecked(
                i,
                vec![i as f64],
                vec![0.0, 1.0],
                Some(i % 2 == 0),
            ));
        }
        Dataset::new(schema, objects).unwrap()
    }

    fn rank(d: &Dataset, bonus: &[f64]) -> RankedSelection {
        let ranker = SingleFeatureRanker::new(0);
        RankedSelection::from_scores(effective_scores(d, &ranker, bonus))
    }

    #[test]
    fn group_fpr_matches_hand_computation() {
        let d = dataset();
        let ranking = rank(&d, &[0.0, 0.0]);
        let (per_group, overall) = group_fpr_at_k(&d, &ranking, 0.5).unwrap();
        // Group a: 2 true negatives, both selected -> FPR 1.0.
        // Group b: 2 true negatives, none selected -> FPR 0.0.
        // Overall: 4 true negatives, 2 selected -> 0.5.
        assert_eq!(per_group, vec![1.0, 0.0]);
        assert!((overall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fpr_difference_signs_reflect_over_and_under_flagging() {
        let d = dataset();
        let ranking = rank(&d, &[0.0, 0.0]);
        let diff = fpr_difference_at_k(&d, &ranking, 0.5).unwrap();
        assert!((diff[0] - 0.5).abs() < 1e-12, "group a over-flagged");
        assert!((diff[1] + 0.5).abs() < 1e-12, "group b under-flagged");
        assert!(diff.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn negative_bonus_on_over_flagged_group_reduces_its_fpr() {
        let d = dataset();
        // A non-positive bonus of -200 on group a pushes it out of the flagged set.
        let ranking = rank(&d, &[-200.0, 0.0]);
        let (per_group, _) = group_fpr_at_k(&d, &ranking, 0.5).unwrap();
        assert_eq!(per_group[0], 0.0);
    }

    #[test]
    fn missing_labels_is_an_error() {
        let schema = Schema::from_names(&["risk"], &["a"], &[]).unwrap();
        let objects = vec![DataObject::new_unchecked(0, vec![1.0], vec![1.0], None)];
        let d = Dataset::new(schema, objects).unwrap();
        let ranking = rank(&d, &[0.0]);
        assert!(matches!(
            fpr_difference_at_k(&d, &ranking, 1.0),
            Err(FairError::MissingLabels)
        ));
    }

    #[test]
    fn group_with_no_true_negatives_reports_zero() {
        let schema = Schema::from_names(&["risk"], &["a", "b"], &[]).unwrap();
        let objects = vec![
            // group a objects all recidivated (label true) -> no true negatives
            DataObject::new_unchecked(0, vec![10.0], vec![1.0, 0.0], Some(true)),
            DataObject::new_unchecked(1, vec![9.0], vec![1.0, 0.0], Some(true)),
            DataObject::new_unchecked(2, vec![1.0], vec![0.0, 1.0], Some(false)),
            DataObject::new_unchecked(3, vec![0.5], vec![0.0, 1.0], Some(false)),
        ];
        let d = Dataset::new(schema, objects).unwrap();
        let ranking = rank(&d, &[0.0, 0.0]);
        let (per_group, _) = group_fpr_at_k(&d, &ranking, 0.5).unwrap();
        assert_eq!(per_group[0], 0.0);
    }

    #[test]
    fn all_positive_labels_give_zero_overall_fpr() {
        let schema = Schema::from_names(&["risk"], &["a"], &[]).unwrap();
        let objects = (0..4_u64)
            .map(|i| DataObject::new_unchecked(i, vec![i as f64], vec![1.0], Some(true)))
            .collect();
        let d = Dataset::new(schema, objects).unwrap();
        let ranking = rank(&d, &[0.0]);
        let (per_group, overall) = group_fpr_at_k(&d, &ranking, 0.5).unwrap();
        assert_eq!(overall, 0.0);
        assert_eq!(per_group, vec![0.0]);
    }

    #[test]
    fn empty_dataset_is_error() {
        let schema = Schema::from_names(&["risk"], &["a"], &[]).unwrap();
        let d = Dataset::empty(schema);
        let ranking = RankedSelection::from_scores(vec![]);
        assert!(group_fpr_at_k(&d, &ranking, 0.5).is_err());
    }
}

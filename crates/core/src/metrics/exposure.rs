//! Exposure and the demographic disparity (DDP) measure of Section VI-C4.
//!
//! Exposure measures how much visibility a group receives over the *whole*
//! ranking rather than in one top-k cut:
//!
//! ```text
//!   Exposure(G | R) = Σ_{i ∈ G} 1 / log2(rank(i) + 1)
//! ```
//!
//! with 1-based ranks (the definition of Gupta et al. used by the paper).
//! The demographic disparity constraint (DDP) is the maximum pairwise
//! difference of *per-capita* exposure between groups; 0 means every group is
//! equally visible per member.

use crate::dataset::Dataset;
use crate::error::{FairError, Result};
use crate::ranking::topk::RankedSelection;

/// Exposure of a group given as a membership mask over ranked positions.
///
/// # Panics
/// Panics if the mask length differs from the ranking length.
#[must_use]
pub fn exposure_of_group(ranking: &RankedSelection, members: &[bool]) -> f64 {
    assert_eq!(
        members.len(),
        ranking.len(),
        "membership mask length mismatch"
    );
    ranking
        .order()
        .iter()
        .enumerate()
        .filter(|(_, &pos)| members[pos])
        // rank is 1-based; log2(1+1) = 1 for the top item.
        .map(|(rank0, _)| 1.0 / ((rank0 as f64) + 2.0).log2())
        .sum()
}

/// Per-capita (average) exposure of a group, or 0 for an empty group.
#[must_use]
pub fn group_average_exposure(ranking: &RankedSelection, members: &[bool]) -> f64 {
    let size = members.iter().filter(|m| **m).count();
    if size == 0 {
        return 0.0;
    }
    exposure_of_group(ranking, members) / size as f64
}

/// DDP over the groups defined by the *binary* fairness attributes of the
/// dataset's schema: each binary attribute's member set forms one group, plus one
/// group for objects belonging to none of them. Continuous attributes are
/// skipped, as in the paper ("DDP does not handle non-binary fairness
/// attributes").
///
/// Returns the maximum pairwise difference of per-capita exposure across all
/// non-empty groups (0 when fewer than two groups are non-empty).
///
/// # Errors
/// Returns an error on an empty dataset.
pub fn ddp_for_binary_attributes(data: &Dataset, ranking: &RankedSelection) -> Result<f64> {
    if data.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    let schema = data.schema();
    let binary_dims: Vec<usize> = schema
        .fairness()
        .iter()
        .enumerate()
        .filter(|(_, a)| a.kind() == crate::attributes::FairnessKind::Binary)
        .map(|(i, _)| i)
        .collect();

    let n = data.len();
    let mut groups: Vec<Vec<bool>> = Vec::with_capacity(binary_dims.len() + 1);
    for &dim in &binary_dims {
        let mask: Vec<bool> = data.iter().map(|o| o.in_group(dim)).collect();
        groups.push(mask);
    }
    // The "unprotected" group: objects in none of the binary groups.
    let mut none_mask = vec![true; n];
    for mask in &groups {
        for (nm, m) in none_mask.iter_mut().zip(mask) {
            if *m {
                *nm = false;
            }
        }
    }
    groups.push(none_mask);

    let averages: Vec<f64> = groups
        .iter()
        .filter(|mask| mask.iter().any(|m| *m))
        .map(|mask| group_average_exposure(ranking, mask))
        .collect();

    let mut max_diff = 0.0_f64;
    for i in 0..averages.len() {
        for j in (i + 1)..averages.len() {
            max_diff = max_diff.max((averages[i] - averages[j]).abs());
        }
    }
    Ok(max_diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dataset::Dataset;
    use crate::object::DataObject;
    use crate::ranking::{effective_scores, WeightedSumRanker};

    fn dataset(scores: Vec<f64>, membership: Vec<f64>) -> Dataset {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = scores
            .into_iter()
            .zip(membership)
            .enumerate()
            .map(|(i, (s, m))| DataObject::new_unchecked(i as u64, vec![s], vec![m], None))
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn rank(d: &Dataset, bonus: f64) -> RankedSelection {
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        RankedSelection::from_scores(effective_scores(d, &ranker, &[bonus]))
    }

    #[test]
    fn exposure_matches_hand_computation() {
        // Ranking order by score: positions 1 (score 9), 0 (score 5), 2 (score 1).
        let d = dataset(vec![5.0, 9.0, 1.0], vec![1.0, 0.0, 1.0]);
        let ranking = rank(&d, 0.0);
        // Members are positions 0 and 2, at ranks 2 and 3.
        let members = vec![true, false, true];
        let expected = 1.0 / 3f64.log2() + 1.0 / 4f64.log2();
        assert!((exposure_of_group(&ranking, &members) - expected).abs() < 1e-12);
    }

    #[test]
    fn top_rank_has_unit_exposure() {
        let d = dataset(vec![1.0, 9.0], vec![0.0, 1.0]);
        let ranking = rank(&d, 0.0);
        let members = vec![false, true];
        assert!((exposure_of_group(&ranking, &members) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn average_exposure_of_empty_group_is_zero() {
        let d = dataset(vec![1.0, 2.0], vec![0.0, 0.0]);
        let ranking = rank(&d, 0.0);
        assert_eq!(group_average_exposure(&ranking, &[false, false]), 0.0);
    }

    #[test]
    fn interleaved_ranking_has_lower_ddp_than_segregated() {
        // Members at ranks 1 and 4 (interleaved) vs members at ranks 3 and 4
        // (segregated at the bottom). The interleaved arrangement must have a
        // strictly smaller exposure gap.
        let interleaved = dataset(vec![8.0, 7.0, 6.0, 5.0], vec![1.0, 0.0, 0.0, 1.0]);
        let segregated = dataset(vec![8.0, 7.0, 6.0, 5.0], vec![0.0, 0.0, 1.0, 1.0]);
        let ri = rank(&interleaved, 0.0);
        let rs = rank(&segregated, 0.0);
        let ddp_i = ddp_for_binary_attributes(&interleaved, &ri).unwrap();
        let ddp_s = ddp_for_binary_attributes(&segregated, &rs).unwrap();
        assert!(ddp_i < ddp_s, "interleaved {ddp_i} vs segregated {ddp_s}");
    }

    #[test]
    fn ddp_decreases_when_bonus_integrates_the_group() {
        // Members at the bottom without bonus.
        let scores = vec![10.0, 9.0, 8.0, 7.0, 1.0, 0.9, 0.8, 0.7];
        let membership = vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let d = dataset(scores, membership);
        let base_ranking = rank(&d, 0.0);
        let ddp_before = ddp_for_binary_attributes(&d, &base_ranking).unwrap();
        let boosted = rank(&d, 8.5);
        let ddp_after = ddp_for_binary_attributes(&d, &boosted).unwrap();
        assert!(
            ddp_after < ddp_before,
            "bonus should reduce exposure disparity: {ddp_after} vs {ddp_before}"
        );
    }

    #[test]
    fn ddp_ignores_continuous_attributes() {
        let schema = Schema::from_names(&["s"], &["g"], &["eni"]).unwrap();
        let objects = vec![
            DataObject::new_unchecked(0, vec![2.0], vec![1.0, 0.9], None),
            DataObject::new_unchecked(1, vec![1.0], vec![0.0, 0.1], None),
        ];
        let d = Dataset::new(schema, objects).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let ranking = RankedSelection::from_scores(effective_scores(&d, &ranker, &[0.0, 0.0]));
        // Only the binary attribute and the "none" group are compared.
        let ddp = ddp_for_binary_attributes(&d, &ranking).unwrap();
        assert!((ddp - (1.0 - 1.0 / 3f64.log2())).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_is_error() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let d = Dataset::empty(schema);
        let ranking = RankedSelection::from_scores(vec![]);
        assert!(ddp_for_binary_attributes(&d, &ranking).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn exposure_rejects_wrong_mask_length() {
        let d = dataset(vec![1.0, 2.0], vec![0.0, 1.0]);
        let ranking = rank(&d, 0.0);
        let _ = exposure_of_group(&ranking, &[true]);
    }
}

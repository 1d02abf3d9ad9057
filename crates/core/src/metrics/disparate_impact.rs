//! Disparate impact (DI), scaled to the `[-1, 1]` contract DCA requires.
//!
//! Section VI-C5 of the paper uses the DI formulation of Zafar et al.: for a
//! fairness dimension `F`,
//!
//! ```text
//!   DI = min( P(selected | F=0) / P(selected | F=1),
//!             P(selected | F=1) / P(selected | F=0) )
//! ```
//!
//! `DI = 1` is perfectly fair, `DI = 0` maximally unfair. To drive DCA the
//! paper rescales DI into `[-1, 1]`; we use the signed unfairness
//! `sign(P(sel|F=1) − P(sel|F=0)) · (1 − DI)`, which is `0` when fair,
//! negative when the protected group is under-selected (so DCA *increases* its
//! bonus) and positive when it is over-selected — the same sign convention as
//! the Disparity metric.

use crate::dataset::Dataset;
use crate::error::Result;
use crate::metrics::{tally_selection, GroupTally};
use crate::ranking::topk::RankedSelection;

/// Raw (unsigned) disparate impact per fairness dimension for the top-`k`
/// selection. Values lie in `[0, 1]`, `1` meaning parity of selection rates.
///
/// Group membership for continuous fairness attributes is thresholded at 0.5.
/// Dimensions whose group (or complement) is empty report `1.0` (no
/// comparison possible, treated as fair).
///
/// # Errors
/// Returns an error on an empty dataset or invalid `k`.
pub fn disparate_impact_at_k(
    data: &Dataset,
    ranking: &RankedSelection,
    k: f64,
) -> Result<Vec<f64>> {
    let (population, selected) = tally_selection(data, ranking, k, false)?;
    Ok(selection_rates(&population, &selected)
        .into_iter()
        .map(|(p1, p0)| disparate_impact(p1, p0))
        .collect())
}

/// Signed, scaled disparate impact per fairness dimension, in `[-1, 1]`
/// (0 = fair; negative = protected group under-selected).
///
/// # Errors
/// Returns an error on an empty dataset or invalid `k`.
pub fn scaled_disparate_impact_at_k(
    data: &Dataset,
    ranking: &RankedSelection,
    k: f64,
) -> Result<Vec<f64>> {
    let (population, selected) = tally_selection(data, ranking, k, false)?;
    Ok(scaled_disparate_impact(&population, &selected))
}

/// Signed scaled disparate impact per dimension from the population and
/// selected-set tallies — the one formula the serial metric and the sharded
/// planner compute.
pub(crate) fn scaled_disparate_impact(population: &GroupTally, selected: &GroupTally) -> Vec<f64> {
    selection_rates(population, selected)
        .into_iter()
        .map(|(p1, p0)| {
            let sign = if p1 >= p0 { 1.0 } else { -1.0 };
            sign * (1.0 - disparate_impact(p1, p0))
        })
        .collect()
}

/// DI of one dimension's selection rates: `min(p1/p0, p0/p1)`, `1` when
/// both rates are zero and `0` when only one is.
fn disparate_impact(p1: f64, p0: f64) -> f64 {
    if p1 <= 0.0 || p0 <= 0.0 {
        if p1 == p0 {
            1.0
        } else {
            0.0
        }
    } else {
        (p1 / p0).min(p0 / p1)
    }
}

/// For every fairness dimension, the pair `(P(selected | member),
/// P(selected | non-member))`. Dimensions with an empty group or complement
/// report equal rates (0, 0) so they read as fair.
fn selection_rates(population: &GroupTally, selected: &GroupTally) -> Vec<(f64, f64)> {
    population
        .members
        .iter()
        .zip(&selected.members)
        .map(|(&members, &chosen)| {
            let others = population.rows - members;
            if members == 0 || others == 0 {
                (0.0, 0.0)
            } else {
                (
                    chosen as f64 / members as f64,
                    (selected.rows - chosen) as f64 / others as f64,
                )
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dataset::Dataset;
    use crate::object::DataObject;
    use crate::ranking::{effective_scores, WeightedSumRanker};

    /// 10 objects, 4 group members (ids 0-3) whose scores put them at the
    /// bottom of the ranking.
    fn dataset() -> Dataset {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..10_u64)
            .map(|i| {
                let member = i < 4;
                let score = if member { i as f64 } else { 100.0 + i as f64 };
                DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn rank(d: &Dataset, bonus: f64) -> RankedSelection {
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        RankedSelection::from_scores(effective_scores(d, &ranker, &[bonus]))
    }

    #[test]
    fn zero_members_selected_gives_di_zero_and_signed_minus_one() {
        let d = dataset();
        let ranking = rank(&d, 0.0);
        // Top 50% = 5 objects, all non-members.
        let di = disparate_impact_at_k(&d, &ranking, 0.5).unwrap();
        assert_eq!(di, vec![0.0]);
        let signed = scaled_disparate_impact_at_k(&d, &ranking, 0.5).unwrap();
        assert_eq!(signed, vec![-1.0]);
    }

    #[test]
    fn parity_of_rates_gives_di_one_and_signed_zero() {
        // 4 members, 4 non-members; select 2 of each by hand-crafted scores.
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = vec![
            DataObject::new_unchecked(0, vec![10.0], vec![1.0], None),
            DataObject::new_unchecked(1, vec![9.0], vec![1.0], None),
            DataObject::new_unchecked(2, vec![1.0], vec![1.0], None),
            DataObject::new_unchecked(3, vec![0.5], vec![1.0], None),
            DataObject::new_unchecked(4, vec![8.0], vec![0.0], None),
            DataObject::new_unchecked(5, vec![7.0], vec![0.0], None),
            DataObject::new_unchecked(6, vec![1.1], vec![0.0], None),
            DataObject::new_unchecked(7, vec![0.2], vec![0.0], None),
        ];
        let d = Dataset::new(schema, objects).unwrap();
        let ranking = rank(&d, 0.0);
        let di = disparate_impact_at_k(&d, &ranking, 0.5).unwrap();
        assert!((di[0] - 1.0).abs() < 1e-12);
        let signed = scaled_disparate_impact_at_k(&d, &ranking, 0.5).unwrap();
        assert!(signed[0].abs() < 1e-12);
    }

    #[test]
    fn signed_di_turns_positive_when_group_dominates() {
        let d = dataset();
        let ranking = rank(&d, 1_000.0);
        // With a huge bonus the 4 members occupy the whole top-40%.
        let signed = scaled_disparate_impact_at_k(&d, &ranking, 0.4).unwrap();
        assert!(signed[0] > 0.9, "got {}", signed[0]);
    }

    #[test]
    fn values_stay_bounded() {
        let d = dataset();
        for bonus in [0.0, 10.0, 200.0, 10_000.0] {
            for k in [0.1, 0.3, 0.5, 1.0] {
                let ranking = rank(&d, bonus);
                let di = disparate_impact_at_k(&d, &ranking, k).unwrap();
                assert!(di.iter().all(|v| (0.0..=1.0).contains(v)));
                let signed = scaled_disparate_impact_at_k(&d, &ranking, k).unwrap();
                assert!(signed.iter().all(|v| (-1.0..=1.0).contains(v)));
            }
        }
    }

    #[test]
    fn empty_group_reads_as_fair() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..5_u64)
            .map(|i| DataObject::new_unchecked(i, vec![i as f64], vec![0.0], None))
            .collect();
        let d = Dataset::new(schema, objects).unwrap();
        let ranking = rank(&d, 0.0);
        assert_eq!(disparate_impact_at_k(&d, &ranking, 0.4).unwrap(), vec![1.0]);
        assert_eq!(
            scaled_disparate_impact_at_k(&d, &ranking, 0.4).unwrap(),
            vec![0.0]
        );
    }

    #[test]
    fn empty_dataset_is_error() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let d = Dataset::empty(schema);
        let ranking = RankedSelection::from_scores(vec![]);
        assert!(disparate_impact_at_k(&d, &ranking, 0.5).is_err());
    }
}

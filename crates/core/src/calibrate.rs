//! Calibration of the intervention strength (Section VI-A2).
//!
//! "DCA can easily be calibrated for different desired fairness thresholds or
//! utility values. Bonus points may be adjusted by a weight multiplicative
//! factor to reduce the importance of the bonus points and increase the
//! utility (as measured by nDCG). The correct proportion of bonus points to
//! apply can be selected through a binary search."
//!
//! [`calibrate_proportion`] implements exactly that binary search over the
//! scaling proportion of a recommended bonus vector, against either a minimum
//! acceptable utility or a maximum acceptable disparity norm. Each candidate
//! proportion is measured by one `[Disparity, Ndcg]`
//! [`MetricPlan`] over the dataset, which selects the top `k` without
//! sorting the cohort.

use crate::bonus::BonusVector;
use crate::dataset::Dataset;
use crate::error::{FairError, Result};
use crate::metrics::norm;
use crate::metrics::sharded::{MetricKind, MetricPlan, MetricValue};
use crate::ranking::Ranker;

/// What the calibration should achieve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CalibrationTarget {
    /// Apply as much of the bonus as possible while keeping nDCG@k at or
    /// above this value (utility floor).
    MinUtility(f64),
    /// Apply as little of the bonus as necessary to bring the disparity norm
    /// at or below this value (fairness ceiling).
    MaxDisparityNorm(f64),
}

/// Result of a calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationResult {
    /// The selected proportion in `[0, 1]`.
    pub proportion: f64,
    /// The scaled (and granularity-rounded) bonus vector at that proportion.
    pub bonus: BonusVector,
    /// Disparity norm achieved at the selected proportion.
    pub disparity_norm: f64,
    /// nDCG@k achieved at the selected proportion.
    pub ndcg: f64,
    /// Whether the target was actually met (false means the closest feasible
    /// endpoint was returned: proportion 1.0 for an unreachable fairness
    /// ceiling, 0.0 for an unreachable utility floor).
    pub target_met: bool,
}

/// Evaluate a candidate proportion: returns `(disparity_norm, ndcg, bonus)`.
fn evaluate<R: Ranker + ?Sized>(
    dataset: &Dataset,
    ranker: &R,
    full_bonus: &BonusVector,
    proportion: f64,
    k: f64,
    granularity: Option<f64>,
) -> Result<(f64, f64, BonusVector)> {
    let scaled = match granularity {
        Some(g) => full_bonus.scaled(proportion)?.rounded_to(g)?,
        None => full_bonus.scaled(proportion)?,
    };
    let report = MetricPlan::new(&[MetricKind::Disparity, MetricKind::Ndcg], k).evaluate(
        dataset,
        ranker,
        scaled.values(),
    )?;
    match report.values() {
        [(_, MetricValue::Vector(disparity)), (_, MetricValue::Scalar(ndcg))] => {
            Ok((norm(disparity), *ndcg, scaled))
        }
        _ => unreachable!("a plan reports its metrics in plan order"),
    }
}

/// Binary-search the proportion of `full_bonus` to apply so that `target` is
/// met at selection fraction `k`.
///
/// `granularity` re-rounds the scaled vector (pass the same granularity DCA
/// used, or `None` for a continuous search). `iterations` bounds the binary
/// search (12 gives a resolution of ~0.0002).
///
/// # Errors
/// Returns an error for invalid `k`, empty datasets, mismatched bonus
/// dimensionality, or nonsensical targets (negative utility floor, negative
/// disparity ceiling).
pub fn calibrate_proportion<R: Ranker + ?Sized>(
    dataset: &Dataset,
    ranker: &R,
    full_bonus: &BonusVector,
    k: f64,
    target: CalibrationTarget,
    granularity: Option<f64>,
    iterations: usize,
) -> Result<CalibrationResult> {
    if dataset.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    if full_bonus.dims() != dataset.schema().num_fairness() {
        return Err(FairError::DimensionMismatch {
            what: "bonus vector",
            expected: dataset.schema().num_fairness(),
            actual: full_bonus.dims(),
        });
    }
    match target {
        CalibrationTarget::MinUtility(u) if !(0.0..=1.0).contains(&u) => {
            return Err(FairError::InvalidConfig {
                reason: format!("utility floor must lie in [0, 1], got {u}"),
            });
        }
        CalibrationTarget::MaxDisparityNorm(d) if d < 0.0 || !d.is_finite() => {
            return Err(FairError::InvalidConfig {
                reason: format!("disparity ceiling must be non-negative, got {d}"),
            });
        }
        _ => {}
    }
    let iterations = iterations.max(1);

    // Feasibility of the two endpoints decides the search direction and
    // whether the target is reachable at all.
    let feasible = |disparity_norm: f64, ndcg: f64| -> bool {
        match target {
            CalibrationTarget::MinUtility(floor) => ndcg >= floor,
            CalibrationTarget::MaxDisparityNorm(ceiling) => disparity_norm <= ceiling,
        }
    };

    let (zero_norm, zero_ndcg, zero_bonus) =
        evaluate(dataset, ranker, full_bonus, 0.0, k, granularity)?;
    let (full_norm, full_ndcg, full_scaled) =
        evaluate(dataset, ranker, full_bonus, 1.0, k, granularity)?;

    match target {
        CalibrationTarget::MinUtility(_) => {
            // Utility is maximal at proportion 0. If even that fails the floor
            // (only possible for floor > 1 - epsilon), report infeasible.
            if !feasible(zero_norm, zero_ndcg) {
                return Ok(CalibrationResult {
                    proportion: 0.0,
                    bonus: zero_bonus,
                    disparity_norm: zero_norm,
                    ndcg: zero_ndcg,
                    target_met: false,
                });
            }
            // If the full intervention already meets the floor, use it.
            if feasible(full_norm, full_ndcg) {
                return Ok(CalibrationResult {
                    proportion: 1.0,
                    bonus: full_scaled,
                    disparity_norm: full_norm,
                    ndcg: full_ndcg,
                    target_met: true,
                });
            }
            // Largest feasible proportion: invariant lo feasible, hi infeasible.
            let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
            for _ in 0..iterations {
                let mid = (lo + hi) / 2.0;
                let (n, u, _) = evaluate(dataset, ranker, full_bonus, mid, k, granularity)?;
                if feasible(n, u) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let (n, u, b) = evaluate(dataset, ranker, full_bonus, lo, k, granularity)?;
            Ok(CalibrationResult {
                proportion: lo,
                bonus: b,
                disparity_norm: n,
                ndcg: u,
                target_met: true,
            })
        }
        CalibrationTarget::MaxDisparityNorm(_) => {
            // Disparity is (weakly) minimal at proportion 1. If even the full
            // intervention misses the ceiling, report the endpoint.
            if !feasible(full_norm, full_ndcg) {
                return Ok(CalibrationResult {
                    proportion: 1.0,
                    bonus: full_scaled,
                    disparity_norm: full_norm,
                    ndcg: full_ndcg,
                    target_met: false,
                });
            }
            if feasible(zero_norm, zero_ndcg) {
                return Ok(CalibrationResult {
                    proportion: 0.0,
                    bonus: zero_bonus,
                    disparity_norm: zero_norm,
                    ndcg: zero_ndcg,
                    target_met: true,
                });
            }
            // Smallest feasible proportion: invariant lo infeasible, hi feasible.
            let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
            for _ in 0..iterations {
                let mid = (lo + hi) / 2.0;
                let (n, u, _) = evaluate(dataset, ranker, full_bonus, mid, k, granularity)?;
                if feasible(n, u) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            let (n, u, b) = evaluate(dataset, ranker, full_bonus, hi, k, granularity)?;
            Ok(CalibrationResult {
                proportion: hi,
                bonus: b,
                disparity_norm: n,
                ndcg: u,
                target_met: true,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::bonus::BonusPolarity;
    use crate::object::DataObject;
    use crate::ranking::WeightedSumRanker;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn biased_dataset(n: u64) -> Dataset {
        let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let objects = (0..n)
            .map(|i| {
                let member = rng.gen::<f64>() < 0.4;
                let score = rng.gen::<f64>() * 100.0 - if member { 20.0 } else { 0.0 };
                DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn full_bonus(dataset: &Dataset) -> BonusVector {
        BonusVector::new(
            dataset.schema().clone(),
            vec![20.0],
            BonusPolarity::NonNegative,
        )
        .unwrap()
    }

    #[test]
    fn utility_floor_yields_the_largest_acceptable_proportion() {
        let dataset = biased_dataset(4_000);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let bonus = full_bonus(&dataset);
        // Pick a floor between the full-bonus utility and 1.0 so the search
        // has to stop somewhere in the middle.
        let (_, full_ndcg, _) = evaluate(&dataset, &ranker, &bonus, 1.0, 0.1, None).unwrap();
        assert!(full_ndcg < 1.0);
        let floor = (full_ndcg + 1.0) / 2.0;
        let result = calibrate_proportion(
            &dataset,
            &ranker,
            &bonus,
            0.1,
            CalibrationTarget::MinUtility(floor),
            None,
            20,
        )
        .unwrap();
        assert!(result.target_met);
        assert!(
            result.ndcg >= floor - 1e-9,
            "{} vs floor {floor}",
            result.ndcg
        );
        assert!(result.proportion > 0.0 && result.proportion < 1.0);
        // Nudging the proportion up should break the floor (within the search
        // resolution) — i.e. we really found the frontier.
        let (_, u_above, _) = evaluate(
            &dataset,
            &ranker,
            &bonus,
            (result.proportion + 0.05).min(1.0),
            0.1,
            None,
        )
        .unwrap();
        assert!(u_above <= result.ndcg + 1e-9);
    }

    #[test]
    fn fairness_ceiling_yields_the_smallest_sufficient_proportion() {
        let dataset = biased_dataset(4_000);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let bonus = full_bonus(&dataset);
        let (zero_norm, _, _) = evaluate(&dataset, &ranker, &bonus, 0.0, 0.1, None).unwrap();
        let (full_norm, _, _) = evaluate(&dataset, &ranker, &bonus, 1.0, 0.1, None).unwrap();
        assert!(full_norm < zero_norm);
        let ceiling = (zero_norm + full_norm) / 2.0;
        let result = calibrate_proportion(
            &dataset,
            &ranker,
            &bonus,
            0.1,
            CalibrationTarget::MaxDisparityNorm(ceiling),
            None,
            20,
        )
        .unwrap();
        assert!(result.target_met);
        assert!(result.disparity_norm <= ceiling + 1e-9);
        assert!(result.proportion > 0.0 && result.proportion < 1.0);
    }

    #[test]
    fn trivially_satisfied_targets_return_endpoints() {
        let dataset = biased_dataset(2_000);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let bonus = full_bonus(&dataset);
        // A utility floor of 0 is met by the full intervention.
        let r = calibrate_proportion(
            &dataset,
            &ranker,
            &bonus,
            0.1,
            CalibrationTarget::MinUtility(0.0),
            None,
            10,
        )
        .unwrap();
        assert_eq!(r.proportion, 1.0);
        assert!(r.target_met);
        // A huge disparity ceiling is met without any intervention.
        let r = calibrate_proportion(
            &dataset,
            &ranker,
            &bonus,
            0.1,
            CalibrationTarget::MaxDisparityNorm(1.0),
            None,
            10,
        )
        .unwrap();
        assert_eq!(r.proportion, 0.0);
        assert!(r.target_met);
    }

    #[test]
    fn unreachable_fairness_ceiling_reports_infeasibility() {
        let dataset = biased_dataset(2_000);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        // A tiny bonus cannot repair the gap.
        let weak = BonusVector::new(
            dataset.schema().clone(),
            vec![0.5],
            BonusPolarity::NonNegative,
        )
        .unwrap();
        let r = calibrate_proportion(
            &dataset,
            &ranker,
            &weak,
            0.1,
            CalibrationTarget::MaxDisparityNorm(0.0001),
            None,
            10,
        )
        .unwrap();
        assert!(!r.target_met);
        assert_eq!(r.proportion, 1.0);
    }

    #[test]
    fn granularity_rounding_is_applied_to_the_result() {
        let dataset = biased_dataset(2_000);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let bonus = full_bonus(&dataset);
        let r = calibrate_proportion(
            &dataset,
            &ranker,
            &bonus,
            0.1,
            CalibrationTarget::MinUtility(0.97),
            Some(0.5),
            15,
        )
        .unwrap();
        for v in r.bonus.values() {
            assert!(((v / 0.5) - (v / 0.5).round()).abs() < 1e-9, "{v}");
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let dataset = biased_dataset(100);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let bonus = full_bonus(&dataset);
        assert!(calibrate_proportion(
            &dataset,
            &ranker,
            &bonus,
            0.1,
            CalibrationTarget::MinUtility(1.5),
            None,
            10
        )
        .is_err());
        assert!(calibrate_proportion(
            &dataset,
            &ranker,
            &bonus,
            0.1,
            CalibrationTarget::MaxDisparityNorm(-0.1),
            None,
            10
        )
        .is_err());
        let other_schema = Schema::from_names(&["s"], &["a", "b"], &[]).unwrap();
        let wrong = BonusVector::zeros(other_schema);
        assert!(calibrate_proportion(
            &dataset,
            &ranker,
            &wrong,
            0.1,
            CalibrationTarget::MinUtility(0.9),
            None,
            10
        )
        .is_err());
        let empty = Dataset::empty(dataset.schema().clone());
        assert!(calibrate_proportion(
            &empty,
            &ranker,
            &bonus,
            0.1,
            CalibrationTarget::MinUtility(0.9),
            None,
            10
        )
        .is_err());
    }
}

//! Concrete score-based ranking functions.
//!
//! * [`WeightedSumRanker`] — the school-admission rubric of Section V-A:
//!   `f = 0.55 * GPA + 0.45 * TestScores` (weights are configurable).
//! * [`NormalizedWeightedSum`] — the same, but rescaling each feature to a
//!   common `[0, 100]` range first, which is how schools publish rubrics.
//! * [`SingleFeatureRanker`] — ranks by a single feature column, optionally
//!   negated; used for the COMPAS decile score, where the ranking used in
//!   practice *is* the (proprietary) score itself.

use crate::error::{FairError, Result};
use crate::object::ObjectView;
use crate::ranking::Ranker;

/// Weighted sum of the ranking features: `f(o) = Σ w_i · a_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedSumRanker {
    weights: Vec<f64>,
}

impl WeightedSumRanker {
    /// Build from per-feature weights (aligned with the schema feature order).
    ///
    /// # Errors
    /// Returns an error if `weights` is empty or contains non-finite values.
    pub fn new(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(FairError::InvalidConfig {
                reason: "weighted-sum ranker requires at least one weight".into(),
            });
        }
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(FairError::InvalidConfig {
                reason: "weights must be finite".into(),
            });
        }
        Ok(Self { weights })
    }

    /// The NYC screened-school rubric used throughout the paper's evaluation:
    /// 55% GPA, 45% state test scores, both already normalized to `[0, 100]`.
    ///
    /// # Errors
    /// Never fails; returns `Result` for constructor uniformity.
    pub fn school_rubric() -> Result<Self> {
        Self::new(vec![0.55, 0.45])
    }

    /// Per-feature weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Ranker for WeightedSumRanker {
    fn base_score(&self, object: ObjectView<'_>) -> f64 {
        debug_assert_eq!(
            object.features().len(),
            self.weights.len(),
            "feature dimensionality mismatch"
        );
        crate::kernel::dot(object.features(), &self.weights)
    }

    fn linear_weights(&self) -> Option<&[f64]> {
        Some(&self.weights)
    }

    fn describe(&self) -> String {
        let terms: Vec<String> = self
            .weights
            .iter()
            .enumerate()
            .map(|(i, w)| format!("{w:.2}*a{i}"))
            .collect();
        format!("weighted sum: {}", terms.join(" + "))
    }
}

/// A weighted sum over features rescaled from their observed `[min, max]`
/// ranges to `[0, 100]`, so that weights express rubric percentages directly.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedWeightedSum {
    weights: Vec<f64>,
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl NormalizedWeightedSum {
    /// Build from weights and per-feature `[min, max]` ranges.
    ///
    /// # Errors
    /// Returns an error if lengths disagree, any range is degenerate
    /// (`max <= min`), or any value is non-finite.
    pub fn new(weights: Vec<f64>, mins: Vec<f64>, maxs: Vec<f64>) -> Result<Self> {
        if weights.is_empty() || weights.len() != mins.len() || weights.len() != maxs.len() {
            return Err(FairError::InvalidConfig {
                reason: "weights, mins and maxs must be equally sized and non-empty".into(),
            });
        }
        for ((w, lo), hi) in weights.iter().zip(&mins).zip(&maxs) {
            if !w.is_finite() || !lo.is_finite() || !hi.is_finite() {
                return Err(FairError::InvalidConfig {
                    reason: "values must be finite".into(),
                });
            }
            if hi <= lo {
                return Err(FairError::InvalidConfig {
                    reason: format!("degenerate feature range [{lo}, {hi}]"),
                });
            }
        }
        Ok(Self {
            weights,
            mins,
            maxs,
        })
    }

    /// Rescale one feature value to `[0, 100]`, clamping out-of-range inputs.
    fn rescale(&self, i: usize, value: f64) -> f64 {
        let (lo, hi) = (self.mins[i], self.maxs[i]);
        100.0 * ((value - lo) / (hi - lo)).clamp(0.0, 1.0)
    }
}

impl Ranker for NormalizedWeightedSum {
    fn base_score(&self, object: ObjectView<'_>) -> f64 {
        debug_assert_eq!(object.features().len(), self.weights.len());
        object
            .features()
            .iter()
            .enumerate()
            .map(|(i, &a)| self.weights[i] * self.rescale(i, a))
            .sum()
    }

    fn describe(&self) -> String {
        format!(
            "normalized weighted sum over {} features (0-100 scale)",
            self.weights.len()
        )
    }
}

/// Ranks by a single feature column, optionally negated.
///
/// For COMPAS, the ranking function "is" the decile score: selecting the top
/// k% highest deciles yields the set flagged as high recidivism risk. No
/// negation is needed there; negation is available for scores where *lower*
/// raw values should rank first while keeping the "selected = top-k%"
/// convention of Definition 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleFeatureRanker {
    feature_index: usize,
    negate: bool,
}

impl SingleFeatureRanker {
    /// Rank by the feature at `feature_index` (higher value ranks first).
    #[must_use]
    pub fn new(feature_index: usize) -> Self {
        Self {
            feature_index,
            negate: false,
        }
    }

    /// Rank by the negated feature (lower raw value ranks first).
    #[must_use]
    pub fn negated(feature_index: usize) -> Self {
        Self {
            feature_index,
            negate: true,
        }
    }

    /// The feature column this ranker reads.
    #[must_use]
    pub fn feature_index(&self) -> usize {
        self.feature_index
    }
}

impl Ranker for SingleFeatureRanker {
    fn base_score(&self, object: ObjectView<'_>) -> f64 {
        let v = object
            .features()
            .get(self.feature_index)
            .copied()
            .unwrap_or(f64::NEG_INFINITY);
        if self.negate {
            -v
        } else {
            v
        }
    }

    fn describe(&self) -> String {
        if self.negate {
            format!(
                "single feature #{} (negated: lower is better)",
                self.feature_index
            )
        } else {
            format!("single feature #{}", self.feature_index)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::DataObject;

    fn obj(features: Vec<f64>) -> DataObject {
        DataObject::new_unchecked(0, features, vec![0.0], None)
    }

    #[test]
    fn weighted_sum_matches_school_rubric() {
        let r = WeightedSumRanker::school_rubric().unwrap();
        // 0.55*90 + 0.45*80 = 49.5 + 36 = 85.5
        let o = obj(vec![90.0, 80.0]);
        assert!((r.base_score(o.as_view()) - 85.5).abs() < 1e-12);
        assert_eq!(r.weights(), &[0.55, 0.45]);
        assert!(r.describe().contains("0.55"));
    }

    #[test]
    fn weighted_sum_rejects_bad_weights() {
        assert!(WeightedSumRanker::new(vec![]).is_err());
        assert!(WeightedSumRanker::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn normalized_weighted_sum_rescales_to_percentages() {
        // GPA in [1, 4], test in [0, 800]; 50/50 rubric.
        let r =
            NormalizedWeightedSum::new(vec![0.5, 0.5], vec![1.0, 0.0], vec![4.0, 800.0]).unwrap();
        // GPA 4.0 -> 100, test 400 -> 50 => 0.5*100 + 0.5*50 = 75
        let o = obj(vec![4.0, 400.0]);
        assert!((r.base_score(o.as_view()) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_weighted_sum_clamps_out_of_range() {
        let r = NormalizedWeightedSum::new(vec![1.0], vec![0.0], vec![10.0]).unwrap();
        assert!((r.base_score(obj(vec![20.0]).as_view()) - 100.0).abs() < 1e-9);
        assert!((r.base_score(obj(vec![-5.0]).as_view()) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_weighted_sum_validation() {
        assert!(NormalizedWeightedSum::new(vec![1.0], vec![0.0], vec![0.0]).is_err());
        assert!(NormalizedWeightedSum::new(vec![1.0, 1.0], vec![0.0], vec![1.0]).is_err());
        assert!(NormalizedWeightedSum::new(vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn single_feature_ranker_reads_and_negates() {
        let o = obj(vec![3.0, 7.0]);
        assert_eq!(SingleFeatureRanker::new(1).base_score(o.as_view()), 7.0);
        assert_eq!(
            SingleFeatureRanker::negated(1).base_score(o.as_view()),
            -7.0
        );
        assert_eq!(SingleFeatureRanker::new(1).feature_index(), 1);
        assert!(SingleFeatureRanker::negated(0)
            .describe()
            .contains("negated"));
    }

    #[test]
    fn single_feature_out_of_range_ranks_last() {
        let o = obj(vec![3.0]);
        assert_eq!(
            SingleFeatureRanker::new(5).base_score(o.as_view()),
            f64::NEG_INFINITY
        );
    }
}

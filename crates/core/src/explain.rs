//! Per-applicant explanations of scores and selection outcomes.
//!
//! Explainability is the central argument of the paper: applicants should be
//! able to see, before applying, exactly how their score is computed, which
//! compensatory adjustments apply to them, and how far they are from the
//! published admission threshold ("predictability … applicants can easily
//! assess their chances and be provided with clarity as to which actions or
//! interventions are required for selection").
//!
//! * [`score_breakdown`] decomposes a weighted-sum rubric score into
//!   per-feature contributions plus per-fairness-attribute bonus
//!   contributions;
//! * [`selection_outcome`] reports an object's rank, the selection threshold
//!   at a given `k`, and the score margin to that threshold, over any
//!   [`crate::ShardSource`] — a `Dataset`, a sharded cohort or a store —
//!   without sorting the cohort.

use crate::bonus::BonusVector;
use crate::error::{FairError, Result};
use crate::object::{ObjectId, ObjectView};
use crate::ranking::score::WeightedSumRanker;
use crate::ranking::sharded::{rank_of, selected_at_k};
use crate::ranking::{effective_scores, Ranker};
use crate::shard::ShardSource;
use std::fmt;

/// A decomposed score: base rubric contributions plus bonus contributions.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreBreakdown {
    /// The object being explained.
    pub object_id: ObjectId,
    /// `(feature name, weight, value, contribution)` per ranking feature.
    pub feature_contributions: Vec<(String, f64, f64, f64)>,
    /// `(fairness attribute, bonus, attribute value, contribution)` per
    /// fairness attribute with a non-zero contribution.
    pub bonus_contributions: Vec<(String, f64, f64, f64)>,
    /// The base rubric score (sum of feature contributions).
    pub base_score: f64,
    /// The total bonus added (sum of bonus contributions).
    pub total_bonus: f64,
    /// The effective score used for ranking (`base_score + total_bonus`).
    pub effective_score: f64,
}

impl fmt::Display for ScoreBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Score breakdown for object {}", self.object_id)?;
        for (name, weight, value, contribution) in &self.feature_contributions {
            writeln!(
                f,
                "  {name:<14} {weight:>6.2} x {value:>7.2} = {contribution:>8.2}"
            )?;
        }
        writeln!(f, "  {:<14} {:>27.2}", "base score", self.base_score)?;
        for (name, bonus, value, contribution) in &self.bonus_contributions {
            writeln!(
                f,
                "  {name:<14} {bonus:>+6.2} x {value:>7.2} = {contribution:>8.2}"
            )?;
        }
        writeln!(f, "  {:<14} {:>27.2}", "total bonus", self.total_bonus)?;
        write!(f, "  {:<14} {:>27.2}", "effective", self.effective_score)
    }
}

/// Decompose the effective score of `object` under a weighted-sum rubric and
/// a bonus vector.
///
/// # Errors
/// Returns an error if the rubric weights or the bonus vector do not match
/// the schema.
pub fn score_breakdown(
    schema: &crate::attributes::SchemaRef,
    rubric: &WeightedSumRanker,
    bonus: &BonusVector,
    object: ObjectView<'_>,
) -> Result<ScoreBreakdown> {
    if rubric.weights().len() != schema.num_features() {
        return Err(FairError::DimensionMismatch {
            what: "rubric weights",
            expected: schema.num_features(),
            actual: rubric.weights().len(),
        });
    }
    if bonus.dims() != schema.num_fairness() {
        return Err(FairError::DimensionMismatch {
            what: "bonus vector",
            expected: schema.num_fairness(),
            actual: bonus.dims(),
        });
    }
    if object.features().len() != schema.num_features()
        || object.fairness().len() != schema.num_fairness()
    {
        return Err(FairError::DimensionMismatch {
            what: "object",
            expected: schema.num_features(),
            actual: object.features().len(),
        });
    }

    let feature_contributions: Vec<(String, f64, f64, f64)> = schema
        .features()
        .iter()
        .zip(rubric.weights())
        .zip(object.features())
        .map(|((name, &w), &v)| (name.clone(), w, v, w * v))
        .collect();
    let base_score: f64 = feature_contributions.iter().map(|(_, _, _, c)| c).sum();

    let bonus_contributions: Vec<(String, f64, f64, f64)> = schema
        .fairness()
        .iter()
        .zip(bonus.values())
        .zip(object.fairness())
        .filter(|((_, &b), &v)| b != 0.0 && v != 0.0)
        .map(|((attr, &b), &v)| (attr.name().to_string(), b, v, b * v))
        .collect();
    let total_bonus: f64 = bonus_contributions.iter().map(|(_, _, _, c)| c).sum();

    Ok(ScoreBreakdown {
        object_id: object.id(),
        feature_contributions,
        bonus_contributions,
        base_score,
        total_bonus,
        effective_score: base_score + total_bonus,
    })
}

/// The outcome of a top-k selection for one object, explained.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeExplanation {
    /// The object being explained.
    pub object_id: ObjectId,
    /// 0-based rank of the object under the bonus-adjusted ranking.
    pub rank: usize,
    /// Number of objects selected at the requested `k`.
    pub selection_count: usize,
    /// Whether the object is selected.
    pub selected: bool,
    /// The object's effective score.
    pub effective_score: f64,
    /// The effective score of the last selected object (the published
    /// threshold).
    pub threshold: f64,
    /// `effective_score − threshold`: positive means safely selected,
    /// negative means how many points short the object is.
    pub margin: f64,
}

impl fmt::Display for OutcomeExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "object {}: rank {} of {} selected ({}), score {:.2} vs threshold {:.2} (margin {:+.2})",
            self.object_id,
            self.rank + 1,
            self.selection_count,
            if self.selected { "selected" } else { "not selected" },
            self.effective_score,
            self.threshold,
            self.margin
        )
    }
}

/// Explain the selection outcome of the row at `position` of `data` under
/// the given ranker, bonus vector and selection fraction.
///
/// Scoring runs per shard, the rank is an exact per-shard count of
/// better-ordered rows, and the threshold comes from the partial top-`k`
/// selection, so every reported number is bit-for-bit what a full sort of
/// the cohort's scores reports, at every shard size.
///
/// # Errors
/// Returns an error on an empty dataset, an invalid `k`, or an out-of-range
/// position.
pub fn selection_outcome<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &BonusVector,
    k: f64,
    position: usize,
) -> Result<OutcomeExplanation> {
    if data.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    if position >= data.len() {
        return Err(FairError::InvalidConfig {
            reason: format!("row {position} out of range ({} objects)", data.len()),
        });
    }
    let scores = effective_scores(data, ranker, bonus.values());
    let selected = selected_at_k(data, &scores, k)?;
    let selection_count = selected.len();
    let rank = rank_of(data, &scores, position);
    let threshold = selected
        .last()
        .map(|&p| scores[p])
        .expect("non-empty selection has a threshold");
    let effective_score = scores[position];
    Ok(OutcomeExplanation {
        object_id: data.with_row(position, |r| r.id()),
        rank,
        selection_count,
        selected: rank < selection_count,
        effective_score,
        threshold,
        margin: effective_score - threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::bonus::BonusPolarity;
    use crate::dataset::Dataset;
    use crate::object::DataObject;
    use crate::ranking::topk::RankedSelection;
    use crate::shard::ShardedDataset;

    fn setup() -> (Dataset, WeightedSumRanker, BonusVector) {
        let schema = Schema::from_names(&["gpa", "test"], &["low_income", "ell"], &[]).unwrap();
        let objects = vec![
            DataObject::new_unchecked(0, vec![90.0, 80.0], vec![0.0, 0.0], None),
            DataObject::new_unchecked(1, vec![70.0, 60.0], vec![1.0, 1.0], None),
            DataObject::new_unchecked(2, vec![85.0, 75.0], vec![1.0, 0.0], None),
            DataObject::new_unchecked(3, vec![50.0, 40.0], vec![0.0, 1.0], None),
        ];
        let dataset = Dataset::new(schema.clone(), objects).unwrap();
        let rubric = WeightedSumRanker::new(vec![0.55, 0.45]).unwrap();
        let bonus = BonusVector::from_named(
            schema,
            &[("low_income", 2.0), ("ell", 20.0)],
            BonusPolarity::NonNegative,
        )
        .unwrap();
        (dataset, rubric, bonus)
    }

    #[test]
    fn breakdown_sums_match_the_effective_score() {
        let (dataset, rubric, bonus) = setup();
        let schema = dataset.schema();
        let object = dataset.row(1);
        let b = score_breakdown(schema, &rubric, &bonus, object).unwrap();
        // 0.55*70 + 0.45*60 = 38.5 + 27 = 65.5; bonus = 2 + 20 = 22.
        assert!((b.base_score - 65.5).abs() < 1e-9);
        assert!((b.total_bonus - 22.0).abs() < 1e-9);
        assert!((b.effective_score - 87.5).abs() < 1e-9);
        assert_eq!(b.feature_contributions.len(), 2);
        assert_eq!(b.bonus_contributions.len(), 2);
        let text = b.to_string();
        assert!(text.contains("gpa") && text.contains("low_income") && text.contains("effective"));
    }

    #[test]
    fn breakdown_omits_zero_contributions() {
        let (dataset, rubric, bonus) = setup();
        let schema = dataset.schema();
        // Object 0 belongs to no protected group.
        let b = score_breakdown(schema, &rubric, &bonus, dataset.row(0)).unwrap();
        assert!(b.bonus_contributions.is_empty());
        assert_eq!(b.total_bonus, 0.0);
    }

    #[test]
    fn outcome_explanations_report_threshold_margins() {
        let (dataset, rubric, bonus) = setup();
        // Select the top half (2 of 4).
        let out0 = selection_outcome(&dataset, &rubric, &bonus, 0.5, 0).unwrap();
        let out1 = selection_outcome(&dataset, &rubric, &bonus, 0.5, 1).unwrap();
        let out3 = selection_outcome(&dataset, &rubric, &bonus, 0.5, 3).unwrap();
        assert!(out0.selected);
        assert!(
            out1.selected,
            "the double bonus lifts object 1 into the top half: {out1}"
        );
        assert!(!out3.selected);
        assert!(out3.margin < 0.0);
        assert!(out0.margin >= 0.0);
        assert_eq!(out0.selection_count, 2);
        assert!(out3.to_string().contains("not selected"));
        // Threshold equals the effective score of the last selected object.
        assert!((out1.threshold - out0.threshold).abs() < 1e-12);
    }

    #[test]
    fn zero_bonus_outcome_matches_the_raw_rubric_order() {
        let (dataset, rubric, _) = setup();
        let zero = BonusVector::zeros(dataset.schema().clone());
        let out2 = selection_outcome(&dataset, &rubric, &zero, 0.5, 2).unwrap();
        assert!(out2.selected, "object 2 has the second-best raw score");
        let out1 = selection_outcome(&dataset, &rubric, &zero, 0.5, 1).unwrap();
        assert!(!out1.selected);
    }

    #[test]
    fn outcome_matches_a_full_sort_bitwise_at_every_shard_size() {
        let (dataset, rubric, bonus) = setup();
        let k = 0.5;
        let sorted =
            RankedSelection::from_scores(effective_scores(&dataset, &rubric, bonus.values()));
        let threshold = sorted.threshold_score(k).unwrap().unwrap();
        let selection_count = sorted.selected(k).unwrap().len();
        for pos in 0..dataset.len() {
            let rank = sorted.rank_of(pos).unwrap();
            let effective_score = sorted.score_of(pos);
            let expected = OutcomeExplanation {
                object_id: dataset.row(pos).id(),
                rank,
                selection_count,
                selected: rank < selection_count,
                effective_score,
                threshold,
                margin: effective_score - threshold,
            };
            let flat = selection_outcome(&dataset, &rubric, &bonus, k, pos).unwrap();
            assert_eq!(flat, expected, "pos {pos}");
            assert_eq!(flat.margin.to_bits(), expected.margin.to_bits());
            for shard_size in [1, 3, 4, 100] {
                let data = ShardedDataset::from_dataset(&dataset, shard_size).unwrap();
                let sharded = selection_outcome(&data, &rubric, &bonus, k, pos).unwrap();
                assert_eq!(sharded, expected, "shard {shard_size} pos {pos}");
                assert_eq!(sharded.margin.to_bits(), expected.margin.to_bits());
            }
        }
    }

    #[test]
    fn sharded_outcome_rejects_bad_inputs() {
        let (dataset, rubric, bonus) = setup();
        let data = ShardedDataset::from_dataset(&dataset, 2).unwrap();
        assert!(selection_outcome(&data, &rubric, &bonus, 0.5, 99).is_err());
        assert!(selection_outcome(&data, &rubric, &bonus, 0.0, 0).is_err());
        let empty = ShardedDataset::with_shard_size(dataset.schema().clone(), 2).unwrap();
        assert!(selection_outcome(&empty, &rubric, &bonus, 0.5, 0).is_err());
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let (dataset, rubric, bonus) = setup();
        let other_schema = Schema::from_names(&["x"], &["g"], &[]).unwrap();
        let wrong_bonus = BonusVector::zeros(other_schema.clone());
        assert!(score_breakdown(dataset.schema(), &rubric, &wrong_bonus, dataset.row(0)).is_err());
        let wrong_rubric = WeightedSumRanker::new(vec![1.0]).unwrap();
        assert!(score_breakdown(dataset.schema(), &wrong_rubric, &bonus, dataset.row(0)).is_err());
        assert!(selection_outcome(&dataset, &rubric, &bonus, 0.5, 99).is_err());
        assert!(selection_outcome(&dataset, &rubric, &bonus, 0.0, 0).is_err());
    }
}

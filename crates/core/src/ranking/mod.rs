//! Score-based ranking functions and top-k% selection (Definition 1).
//!
//! A [`Ranker`] maps an object's *ranking features* to a base score `f(o)`.
//! Bonus points enter only through [`crate::bonus::BonusVector`]: the effective
//! score is `f_b(o) = f(o) + A_f · B` (Definition 2). Scoring has one
//! implementation, the engine's per-shard kernel: [`effective_scores`] and
//! [`base_scores`] run it over any [`ShardSource`], a plain [`Dataset`] being
//! one shard. The [`topk`] module turns scores into ranked orders and top-k%
//! selections, which is what the serial metrics consume; [`sharded`] holds the
//! kernel and the partial selections the engine runs.

pub mod score;
pub mod sharded;
pub mod topk;

pub use score::{NormalizedWeightedSum, SingleFeatureRanker, WeightedSumRanker};
pub use topk::{selection_size, RankedSelection};

use crate::dataset::Dataset;
use crate::object::ObjectView;
use crate::shard::ShardSource;

/// A score-based ranking function `f` over an object's ranking features.
///
/// Higher scores rank first; the "selected" set of a ranking process is the
/// top-k% by effective score. For settings where being selected is the
/// *unfavorable* outcome (e.g. being flagged high-risk by COMPAS), the same
/// machinery applies — only the sign policy of the bonus vector changes (see
/// [`crate::bonus::BonusPolarity`]).
///
/// Rankers consume the zero-copy [`ObjectView`] row type, so scoring a view
/// streams over the dataset's contiguous column store; an owned
/// [`crate::object::DataObject`] is scored via
/// [`crate::object::DataObject::as_view`].
pub trait Ranker: Send + Sync {
    /// Base score `f(o)` of an object, before any bonus points.
    fn base_score(&self, object: ObjectView<'_>) -> f64;

    /// Score an object directly from its ranking-feature row, for ranking
    /// functions that depend on the features alone (every built-in ranker
    /// does). Returning `None` — the default — routes scoring through
    /// [`Ranker::base_score`] with the full object view.
    ///
    /// This is the columnar fast path: when a ranker answers here, the
    /// scoring kernel reads a row's features alone, never its id and label.
    /// Implementations must compute exactly the same value as
    /// [`Ranker::base_score`].
    fn feature_score(&self, features: &[f64]) -> Option<f64> {
        let _ = features;
        None
    }

    /// The weight vector of a *plain linear* ranker — one whose base score
    /// is exactly `dot(features, weights)` with no normalization or other
    /// per-row transform. Returning `Some` — the default is `None` — lets
    /// the scoring paths run the matrix as one blocked
    /// [`crate::kernel::dot_rows_into`] pass instead of a per-row virtual
    /// call. Each row's value is computed by the same [`crate::kernel::dot`]
    /// kernel either way, so the fast path is bit-for-bit the slow one.
    fn linear_weights(&self) -> Option<&[f64]> {
        None
    }

    /// Base score of row `i` of `data`: [`Ranker::feature_score`] on the
    /// feature row when the ranker answers there, [`Ranker::base_score`] on
    /// the full row otherwise — the one per-row fallback every scoring path
    /// (serial, sharded, paged, planner, fleet) takes.
    fn row_score(&self, data: &Dataset, i: usize) -> f64 {
        match self.feature_score(data.feature_row(i)) {
            Some(score) => score,
            None => self.base_score(data.row(i)),
        }
    }

    /// A short human-readable description of the ranking function, used in
    /// explanations shown to stakeholders.
    fn describe(&self) -> String {
        "score-based ranking function".to_string()
    }
}

impl<T: Ranker + ?Sized> Ranker for &T {
    fn base_score(&self, object: ObjectView<'_>) -> f64 {
        (**self).base_score(object)
    }
    fn feature_score(&self, features: &[f64]) -> Option<f64> {
        (**self).feature_score(features)
    }
    fn linear_weights(&self) -> Option<&[f64]> {
        (**self).linear_weights()
    }
    fn describe(&self) -> String {
        (**self).describe()
    }
}

impl<T: Ranker + ?Sized> Ranker for Box<T> {
    fn base_score(&self, object: ObjectView<'_>) -> f64 {
        (**self).base_score(object)
    }
    fn feature_score(&self, features: &[f64]) -> Option<f64> {
        (**self).feature_score(features)
    }
    fn linear_weights(&self) -> Option<&[f64]> {
        (**self).linear_weights()
    }
    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// The effective (bonus-adjusted) score `f_b(o) = f(o) + A_f · B` of every
/// row of `data`, in global row order.
///
/// # Panics
/// Panics if `bonus.len()` differs from the schema's fairness dimensionality.
#[must_use]
pub fn effective_scores<S, R>(data: &S, ranker: &R, bonus: &[f64]) -> Vec<f64>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
{
    let mut out = Vec::new();
    effective_scores_into(data, ranker, bonus, &mut out);
    out
}

/// [`effective_scores`] writing into a caller-provided buffer.
///
/// # Panics
/// Panics if `bonus.len()` differs from the schema's fairness dimensionality.
pub fn effective_scores_into<S, R>(data: &S, ranker: &R, bonus: &[f64], out: &mut Vec<f64>)
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
{
    assert_eq!(
        bonus.len(),
        data.schema().num_fairness(),
        "bonus vector dimensionality mismatch"
    );
    score_rows_into(
        data,
        |shard, scores| sharded::score_shard_into(shard, ranker, bonus, None, scores),
        out,
    );
}

/// The base (unadjusted) score `f(o)` of every row of `data`, in global row
/// order.
#[must_use]
pub fn base_scores<S, R>(data: &S, ranker: &R) -> Vec<f64>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
{
    let mut out = Vec::new();
    base_scores_into(data, ranker, &mut out);
    out
}

/// [`base_scores`] writing into a caller-provided buffer.
pub fn base_scores_into<S, R>(data: &S, ranker: &R, out: &mut Vec<f64>)
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
{
    score_rows_into(
        data,
        |shard, scores| sharded::base_shard_into(shard, ranker, scores),
        out,
    );
}

/// Run a per-shard scoring kernel over every shard of `data` and concatenate
/// its rows in shard order into `out`.
fn score_rows_into<S, K>(data: &S, kernel: K, out: &mut Vec<f64>)
where
    S: ShardSource + ?Sized,
    K: Fn(&Dataset, &mut Vec<f64>) + Sync,
{
    let per_shard = data.map_shards(|shard| {
        let mut scores = Vec::new();
        kernel(shard.data(), &mut scores);
        scores
    });
    out.clear();
    out.reserve(data.len());
    for scores in per_shard {
        out.extend_from_slice(&scores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::object::DataObject;

    fn dataset() -> Dataset {
        let schema = Schema::from_names(&["gpa"], &["li"], &[]).unwrap();
        let objects = vec![
            DataObject::new_unchecked(0, vec![1.0], vec![1.0], None),
            DataObject::new_unchecked(1, vec![2.0], vec![0.0], None),
        ];
        Dataset::new(schema, objects).unwrap()
    }

    #[test]
    fn effective_scores_add_bonus_for_members() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let scores = effective_scores(&d, &ranker, &[5.0]);
        assert_eq!(scores, vec![6.0, 2.0]);
        let base = base_scores(&d, &ranker);
        assert_eq!(base, vec![1.0, 2.0]);
    }

    #[test]
    fn ranker_is_object_safe_and_usable_behind_references() {
        let d = dataset();
        let ranker: Box<dyn Ranker> = Box::new(WeightedSumRanker::new(vec![2.0]).unwrap());
        let scores = effective_scores(&d, &ranker, &[0.0]);
        assert_eq!(scores, vec![2.0, 4.0]);
        assert!(ranker.describe().contains("weighted"));
        let by_ref: &dyn Ranker = &*ranker;
        assert_eq!(by_ref.base_score(d.row(1)), 4.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_bonus_length_panics() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let _ = effective_scores(&d, &ranker, &[1.0, 2.0]);
    }
}

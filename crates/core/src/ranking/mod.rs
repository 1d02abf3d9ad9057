//! Score-based ranking functions and top-k% selection (Definition 1).
//!
//! A [`Ranker`] maps an object's *ranking features* to a base score `f(o)`.
//! Bonus points enter only through [`crate::bonus::BonusVector`]: the effective
//! score is `f_b(o) = f(o) + A_f · B` (Definition 2). The [`topk`] module turns
//! effective scores into ranked orders and top-k% selections, which is what
//! every fairness metric consumes.

pub mod score;
pub mod sharded;
pub mod topk;

pub use score::{NormalizedWeightedSum, SingleFeatureRanker, WeightedSumRanker};
pub use topk::{selection_size, RankedSelection};

use crate::dataset::{Dataset, SampleView};
use crate::object::ObjectView;

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
    /// This is the columnar fast path: when a ranker answers here,
    /// [`effective_scores_into`] scores a view by streaming only the feature
    /// and fairness matrices, skipping the random-access gathers of the id
    /// and label columns that sampled scoring would otherwise pay on large
    /// datasets. Implementations must compute exactly the same value as
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

/// Compute the effective (bonus-adjusted) scores of every object in a view:
/// `f_b(o) = f(o) + A_f · B` for each object, in view order.
///
/// # Panics
/// Panics if `bonus.len()` differs from the view's fairness dimensionality.
#[must_use]
pub fn effective_scores<R: Ranker + ?Sized>(
    view: &SampleView<'_>,
    ranker: &R,
    bonus: &[f64],
) -> Vec<f64> {
    let mut out = Vec::new();
    effective_scores_into(view, ranker, bonus, &mut out);
    out
}

/// [`effective_scores`] writing into a caller-provided buffer — the
/// allocation-free path used by the DCA hot loop.
///
/// # Panics
/// Panics if `bonus.len()` differs from the view's fairness dimensionality.
pub fn effective_scores_into<R: Ranker + ?Sized>(
    view: &SampleView<'_>,
    ranker: &R,
    bonus: &[f64],
    out: &mut Vec<f64>,
) {
    assert_eq!(
        bonus.len(),
        view.schema().num_fairness(),
        "bonus vector dimensionality mismatch"
    );
    let dataset = view.dataset();
    if let Some(weights) = ranker.linear_weights().filter(|w| !w.is_empty()) {
        // Plain linear ranker: one blocked gather over the feature and
        // fairness matrices. Per-row arithmetic is the same kernel::dot
        // pair as the fallback below, so the value is bit-identical.
        crate::kernel::gathered_linear_scores_into(
            dataset.features_matrix(),
            view.schema().num_features(),
            weights,
            dataset.fairness_matrix(),
            bonus.len(),
            bonus,
            view.indices(),
            out,
        );
        return;
    }
    out.clear();
    out.reserve(view.len());
    out.extend(view.indices().iter().map(|&i| {
        // Feature-only rankers skip the id/label gathers entirely; sampled
        // scoring then touches just two cache lines per row.
        let base = ranker.row_score(dataset, i);
        let increment = crate::kernel::dot(dataset.fairness_row(i), bonus);
        base + increment
    }));
}

/// Compute base (unadjusted) scores of every object in a view, in view order.
#[must_use]
pub fn base_scores<R: Ranker + ?Sized>(view: &SampleView<'_>, ranker: &R) -> Vec<f64> {
    let mut out = Vec::new();
    base_scores_into(view, ranker, &mut out);
    out
}

/// [`base_scores`] writing into a caller-provided buffer.
pub fn base_scores_into<R: Ranker + ?Sized>(view: &SampleView<'_>, ranker: &R, out: &mut Vec<f64>) {
    out.clear();
    out.reserve(view.len());
    let dataset = view.dataset();
    out.extend(view.indices().iter().map(|&i| ranker.row_score(dataset, i)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dataset::Dataset;
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
        let view = d.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let scores = effective_scores(&view, &ranker, &[5.0]);
        assert_eq!(scores, vec![6.0, 2.0]);
        let base = base_scores(&view, &ranker);
        assert_eq!(base, vec![1.0, 2.0]);
    }

    #[test]
    fn ranker_is_object_safe_and_usable_behind_references() {
        let d = dataset();
        let view = d.full_view();
        let ranker: Box<dyn Ranker> = Box::new(WeightedSumRanker::new(vec![2.0]).unwrap());
        let scores = effective_scores(&view, &ranker, &[0.0]);
        assert_eq!(scores, vec![2.0, 4.0]);
        assert!(ranker.describe().contains("weighted"));
        let by_ref: &dyn Ranker = &*ranker;
        assert_eq!(by_ref.base_score(view.object(1)), 4.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_bonus_length_panics() {
        let d = dataset();
        let view = d.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let _ = effective_scores(&view, &ranker, &[1.0, 2.0]);
    }
}

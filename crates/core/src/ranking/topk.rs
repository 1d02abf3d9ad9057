//! Ranked orders and top-k% selections.
//!
//! The ranking process `R` of Definition 1 "selects the k% best objects with
//! the highest f(o) values as its answer R_k". [`RankedSelection`] materializes
//! a ranked order once and answers selection queries for any `k`, which is
//! what the log-discounted disparity (Section IV-E), nDCG@k and exposure
//! metrics need. It fully sorts all `s` scores (`O(s log s)`) and is what
//! the serial metrics, the baselines and the test oracles rank with; its
//! positions are the rows of the `Dataset` that was scored. The partial
//! selection of a fixed-`k` prefix (`O(s + m log m)`) lives in
//! [`crate::ranking::sharded::top_m`], which runs over any
//! [`crate::ShardSource`], a plain `Dataset` included, and is what the
//! metric planner, the explainer and calibration select with.
//!
//! Both use the same strict total order (descending [`f64::total_cmp`], ties
//! broken by ascending position), so the selected *set and order* are
//! identical between them — including in the presence of NaN scores, which
//! `total_cmp` orders deterministically instead of silently corrupting the
//! comparator.

use crate::error::{FairError, Result};
use std::cmp::Ordering;

/// Number of objects selected when taking the top `k` *fraction* of `n`
/// objects. At least one object is always selected for valid `k`; the paper's
/// k is a percentage ("selects the k% best objects").
///
/// # Errors
/// Returns [`FairError::InvalidSelectionFraction`] unless `0 < k <= 1`.
pub fn selection_size(n: usize, k: f64) -> Result<usize> {
    if !(k > 0.0 && k <= 1.0 && k.is_finite()) {
        return Err(FairError::InvalidSelectionFraction { k });
    }
    if n == 0 {
        return Ok(0);
    }
    Ok(((n as f64 * k).round() as usize).clamp(1, n))
}

/// The strict total order used for ranking: descending score, ties broken by
/// ascending original position — deterministic and NaN-sound. Shared with the
/// shard-wise selection kernels so that per-shard partial selections merge
/// into exactly the order a full sort would produce.
#[inline]
pub(crate) fn rank_cmp(scores: &[f64], a: usize, b: usize) -> Ordering {
    scores[b].total_cmp(&scores[a]).then_with(|| a.cmp(&b))
}

/// A descending-score ranking of a set of objects, identified by their
/// positions — the rows of the [`crate::Dataset`] the scores came from.
///
/// Ties are broken by the original position so that rankings are deterministic
/// and stable across runs — important both for reproducible experiments and
/// for the explainability goals of the paper. Scores are compared with
/// [`f64::total_cmp`], so NaN scores (which rank above `+inf` in descending
/// order) cannot corrupt the order.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSelection {
    /// Positions, best to worst.
    order: Vec<usize>,
    /// Effective score of each *position* (index = position).
    scores: Vec<f64>,
}

impl RankedSelection {
    /// Rank a score vector (one score per position) in descending order,
    /// fully sorting it.
    #[must_use]
    pub fn from_scores(scores: Vec<f64>) -> Self {
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_unstable_by(|&a, &b| rank_cmp(&scores, a, b));
        Self { order, scores }
    }

    /// Number of ranked objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ranking is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The full ranked order: positions from best to worst.
    #[must_use]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Effective score of a position.
    #[must_use]
    pub fn score_of(&self, position: usize) -> f64 {
        self.scores[position]
    }

    /// The positions of the top-`k`-fraction selection, best first.
    ///
    /// # Errors
    /// Returns an error for `k` outside `(0, 1]`.
    pub fn selected(&self, k: f64) -> Result<&[usize]> {
        let m = selection_size(self.order.len(), k)?;
        Ok(&self.order[..m])
    }

    /// The positions *not* selected at fraction `k`.
    ///
    /// # Errors
    /// Returns an error for `k` outside `(0, 1]`.
    pub fn unselected(&self, k: f64) -> Result<&[usize]> {
        let m = selection_size(self.order.len(), k)?;
        Ok(&self.order[m..])
    }

    /// The top-`count` positions (clamped to the ranking length).
    #[must_use]
    pub fn top(&self, count: usize) -> &[usize] {
        &self.order[..count.min(self.order.len())]
    }

    /// 0-based rank of a position (0 = best), or `None` if the position
    /// does not exist.
    #[must_use]
    pub fn rank_of(&self, position: usize) -> Option<usize> {
        self.order.iter().position(|&p| p == position)
    }

    /// Boolean membership mask over positions for the top-`k` selection.
    ///
    /// # Errors
    /// Returns an error for `k` outside `(0, 1]`.
    pub fn selection_mask(&self, k: f64) -> Result<Vec<bool>> {
        let mut mask = vec![false; self.order.len()];
        for &p in self.selected(k)? {
            mask[p] = true;
        }
        Ok(mask)
    }

    /// The score of the last selected object (the admission threshold that the
    /// paper recommends publishing for predictability), or `None` on an empty
    /// ranking.
    ///
    /// # Errors
    /// Returns an error for `k` outside `(0, 1]`.
    pub fn threshold_score(&self, k: f64) -> Result<Option<f64>> {
        let sel = self.selected(k)?;
        Ok(sel.last().map(|&p| self.scores[p]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_size_rounds_and_clamps() {
        assert_eq!(selection_size(100, 0.05).unwrap(), 5);
        assert_eq!(selection_size(100, 1.0).unwrap(), 100);
        assert_eq!(selection_size(10, 0.001).unwrap(), 1, "at least one object");
        assert_eq!(selection_size(0, 0.5).unwrap(), 0);
        assert_eq!(selection_size(7, 0.5).unwrap(), 4, "3.5 rounds to 4");
    }

    #[test]
    fn selection_size_rejects_bad_fractions() {
        assert!(selection_size(10, 0.0).is_err());
        assert!(selection_size(10, -0.1).is_err());
        assert!(selection_size(10, 1.5).is_err());
        assert!(selection_size(10, f64::NAN).is_err());
    }

    #[test]
    fn ranking_orders_descending() {
        let r = RankedSelection::from_scores(vec![1.0, 5.0, 3.0]);
        assert_eq!(r.order(), &[1, 2, 0]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn ties_break_by_position_for_determinism() {
        let r = RankedSelection::from_scores(vec![2.0, 2.0, 2.0]);
        assert_eq!(r.order(), &[0, 1, 2]);
    }

    #[test]
    fn selected_and_unselected_partition_the_order() {
        let r = RankedSelection::from_scores(vec![10.0, 40.0, 30.0, 20.0]);
        let sel = r.selected(0.5).unwrap();
        let unsel = r.unselected(0.5).unwrap();
        assert_eq!(sel, &[1, 2]);
        assert_eq!(unsel, &[3, 0]);
        assert_eq!(sel.len() + unsel.len(), r.len());
    }

    #[test]
    fn top_clamps_to_length() {
        let r = RankedSelection::from_scores(vec![1.0, 2.0]);
        assert_eq!(r.top(5), &[1, 0]);
        assert_eq!(r.top(1), &[1]);
    }

    #[test]
    fn rank_of_and_scores() {
        let r = RankedSelection::from_scores(vec![1.0, 5.0, 3.0]);
        assert_eq!(r.rank_of(1), Some(0));
        assert_eq!(r.rank_of(0), Some(2));
        assert_eq!(r.rank_of(9), None);
        assert_eq!(r.score_of(2), 3.0);
    }

    #[test]
    fn selection_mask_marks_selected_positions() {
        let r = RankedSelection::from_scores(vec![1.0, 5.0, 3.0, 4.0]);
        let mask = r.selection_mask(0.5).unwrap();
        assert_eq!(mask, vec![false, true, false, true]);
    }

    #[test]
    fn threshold_score_is_last_selected() {
        let r = RankedSelection::from_scores(vec![1.0, 5.0, 3.0, 4.0]);
        assert_eq!(r.threshold_score(0.5).unwrap(), Some(4.0));
        let empty = RankedSelection::from_scores(vec![]);
        assert_eq!(empty.threshold_score(0.5).unwrap(), None);
    }

    #[test]
    fn nan_scores_do_not_panic() {
        let r = RankedSelection::from_scores(vec![f64::NAN, 1.0, 2.0]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn nan_scores_rank_deterministically_and_consistently() {
        // Regression: the old `partial_cmp(..).unwrap_or(Equal)` comparator
        // was not a total order with NaN scores, so the sort could produce an
        // arbitrary, input-order-dependent permutation. With total_cmp, NaN
        // ranks above +inf in descending order, deterministically.
        let scores = vec![1.0, f64::NAN, f64::INFINITY, 3.0, f64::NAN, 2.0];
        let a = RankedSelection::from_scores(scores.clone());
        let b = RankedSelection::from_scores(scores);
        assert_eq!(a.order(), b.order());
        assert_eq!(a.order(), &[1, 4, 2, 3, 5, 0], "NaNs first, then +inf");
    }

    #[test]
    fn invalid_k_propagates_errors() {
        let r = RankedSelection::from_scores(vec![1.0, 2.0]);
        assert!(matches!(
            r.selected(0.0),
            Err(FairError::InvalidSelectionFraction { .. })
        ));
        assert!(r.selection_mask(2.0).is_err());
    }
}

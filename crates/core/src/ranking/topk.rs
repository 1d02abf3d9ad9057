//! Ranked orders and top-k% selections.
//!
//! The ranking process `R` of Definition 1 "selects the k% best objects with
//! the highest f(o) values as its answer R_k". [`RankedSelection`] materializes
//! a ranked order once and answers selection queries for any `k`, which is
//! what the log-discounted disparity (Section IV-E), nDCG@k and exposure
//! metrics need.
//!
//! Two construction modes exist:
//!
//! * [`RankedSelection::from_scores`] fully sorts all `s` scores —
//!   `O(s log s)` — and supports every query;
//! * [`RankedSelection::from_scores_topk`] uses `select_nth_unstable` to
//!   partition the top `m` positions and sorts only those —
//!   `O(s + m log m)` — which is all the fixed-`k` DCA objectives need.
//!   Queries that depend on the order of the *unselected* tail
//!   ([`RankedSelection::order`], [`RankedSelection::unselected`],
//!   [`RankedSelection::rank_of`]) panic on such a partial ranking.
//!
//! Both modes use the same strict total order (descending
//! [`f64::total_cmp`], ties broken by ascending position), so the selected
//! *set and order* are identical between them — including in the presence of
//! NaN scores, which `total_cmp` orders deterministically instead of silently
//! corrupting the comparator.

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

/// A descending-score ranking of a set of objects (identified by their
/// positions in the originating [`crate::dataset::SampleView`]).
///
/// Ties are broken by the original position so that rankings are deterministic
/// and stable across runs — important both for reproducible experiments and
/// for the explainability goals of the paper. Scores are compared with
/// [`f64::total_cmp`], so NaN scores (which rank above `+inf` in descending
/// order) cannot corrupt the order.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSelection {
    /// View positions; the first [`RankedSelection::sorted_prefix`] entries
    /// are ordered best-to-worst, the tail (if any) is an unordered set of
    /// strictly worse positions.
    order: Vec<usize>,
    /// Effective score of each *view position* (index = view position).
    scores: Vec<f64>,
    /// Length of the sorted prefix of `order`; equal to `order.len()` for a
    /// fully sorted ranking.
    sorted_prefix: usize,
}

impl RankedSelection {
    /// Rank a score vector (one score per view position) in descending order,
    /// fully sorting it.
    #[must_use]
    pub fn from_scores(scores: Vec<f64>) -> Self {
        let mut this = Self {
            order: Vec::new(),
            scores,
            sorted_prefix: 0,
        };
        this.rerank(None);
        this
    }

    /// Rank a score vector so that only the top `m` positions are sorted
    /// (`O(s + m log m)` instead of `O(s log s)`).
    ///
    /// The resulting ranking answers every query whose selection boundary is
    /// at most `m` objects; queries needing the full order panic. `m` is
    /// clamped to the number of scores.
    #[must_use]
    pub fn from_scores_topk(scores: Vec<f64>, m: usize) -> Self {
        let mut this = Self {
            order: Vec::new(),
            scores,
            sorted_prefix: 0,
        };
        this.rerank(Some(m));
        this
    }

    /// Re-rank this selection in place from scores written by `fill` into the
    /// reused internal buffer — the allocation-free construction path used by
    /// the DCA hot loop. `topk` of `None` fully sorts; `Some(m)` sorts only
    /// the top `m` positions.
    pub fn refill_with(&mut self, topk: Option<usize>, fill: impl FnOnce(&mut Vec<f64>)) {
        self.scores.clear();
        fill(&mut self.scores);
        self.rerank(topk);
    }

    /// Rebuild `order` from the current `scores`.
    fn rerank(&mut self, topk: Option<usize>) {
        let n = self.scores.len();
        self.order.clear();
        self.order.extend(0..n);
        let scores = &self.scores;
        match topk {
            Some(m) if m < n => {
                // Partition so order[..m] holds the m best positions (the
                // comparator is a strict total order, so the partition is
                // exactly the full sort's prefix set), then sort the prefix.
                self.order
                    .select_nth_unstable_by(m, |&a, &b| rank_cmp(scores, a, b));
                self.order[..m].sort_unstable_by(|&a, &b| rank_cmp(scores, a, b));
                self.sorted_prefix = m;
            }
            _ => {
                self.order.sort_unstable_by(|&a, &b| rank_cmp(scores, a, b));
                self.sorted_prefix = n;
            }
        }
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

    /// Length of the sorted prefix: `len()` for fully sorted rankings, the
    /// `m` of [`RankedSelection::from_scores_topk`] otherwise.
    #[must_use]
    pub fn sorted_prefix(&self) -> usize {
        self.sorted_prefix
    }

    /// Whether the whole order is sorted (constructed via
    /// [`RankedSelection::from_scores`] or with `m >= len`).
    #[must_use]
    pub fn is_fully_sorted(&self) -> bool {
        self.sorted_prefix == self.order.len()
    }

    #[track_caller]
    fn require_full(&self, what: &str) {
        assert!(
            self.is_fully_sorted(),
            "{what} requires a fully sorted ranking, but only the top {} of {} \
             positions are ordered (use RankedSelection::from_scores)",
            self.sorted_prefix,
            self.order.len()
        );
    }

    #[track_caller]
    fn require_prefix(&self, m: usize, what: &str) {
        assert!(
            m <= self.sorted_prefix,
            "{what} needs the top {m} positions but only the top {} of {} are \
             ordered (construct with a larger top-k)",
            self.sorted_prefix,
            self.order.len()
        );
    }

    /// The full ranked order: view positions from best to worst.
    ///
    /// # Panics
    /// Panics on a partially sorted ranking.
    #[must_use]
    pub fn order(&self) -> &[usize] {
        self.require_full("order()");
        &self.order
    }

    /// Effective score of a view position.
    #[must_use]
    pub fn score_of(&self, position: usize) -> f64 {
        self.scores[position]
    }

    /// The view positions of the top-`k`-fraction selection, best first.
    ///
    /// # Errors
    /// Returns an error for `k` outside `(0, 1]`.
    ///
    /// # Panics
    /// Panics if the selection boundary exceeds the sorted prefix of a
    /// partially sorted ranking.
    pub fn selected(&self, k: f64) -> Result<&[usize]> {
        let m = selection_size(self.order.len(), k)?;
        self.require_prefix(m, "selected()");
        Ok(&self.order[..m])
    }

    /// The view positions *not* selected at fraction `k`.
    ///
    /// # Errors
    /// Returns an error for `k` outside `(0, 1]`.
    ///
    /// # Panics
    /// Panics on a partially sorted ranking (the tail order is unspecified
    /// there).
    pub fn unselected(&self, k: f64) -> Result<&[usize]> {
        let m = selection_size(self.order.len(), k)?;
        self.require_full("unselected()");
        Ok(&self.order[m..])
    }

    /// The top-`count` view positions (clamped to the ranking length).
    ///
    /// # Panics
    /// Panics if `count` exceeds the sorted prefix of a partially sorted
    /// ranking.
    #[must_use]
    pub fn top(&self, count: usize) -> &[usize] {
        let count = count.min(self.order.len());
        self.require_prefix(count, "top()");
        &self.order[..count]
    }

    /// 0-based rank of a view position (0 = best), or `None` if the position
    /// does not exist.
    ///
    /// # Panics
    /// Panics on a partially sorted ranking.
    #[must_use]
    pub fn rank_of(&self, position: usize) -> Option<usize> {
        self.require_full("rank_of()");
        self.order.iter().position(|&p| p == position)
    }

    /// Boolean membership mask over view positions for the top-`k` selection.
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
        assert!(r.is_fully_sorted());
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
    fn partial_ranking_matches_full_sort_on_the_prefix() {
        let scores = vec![3.0, 9.0, 9.0, 1.0, 7.0, 2.0, 9.0, 0.5];
        let full = RankedSelection::from_scores(scores.clone());
        for m in 1..=scores.len() {
            let partial = RankedSelection::from_scores_topk(scores.clone(), m);
            assert_eq!(partial.sorted_prefix(), m.min(scores.len()));
            assert_eq!(partial.top(m), full.top(m), "prefix m = {m}");
        }
    }

    #[test]
    fn partial_ranking_answers_selection_queries_at_its_boundary() {
        let scores: Vec<f64> = (0..40).map(|i| f64::from((i * 7) % 13)).collect();
        let k = 0.25;
        let m = selection_size(scores.len(), k).unwrap();
        let full = RankedSelection::from_scores(scores.clone());
        let partial = RankedSelection::from_scores_topk(scores, m);
        assert_eq!(partial.selected(k).unwrap(), full.selected(k).unwrap());
        assert_eq!(
            partial.selection_mask(k).unwrap(),
            full.selection_mask(k).unwrap()
        );
        assert_eq!(
            partial.threshold_score(k).unwrap(),
            full.threshold_score(k).unwrap()
        );
        assert!(!partial.is_fully_sorted());
    }

    #[test]
    #[should_panic(expected = "fully sorted")]
    fn partial_ranking_rejects_full_order_queries() {
        let r = RankedSelection::from_scores_topk(vec![1.0, 2.0, 3.0, 4.0], 1);
        let _ = r.order();
    }

    #[test]
    #[should_panic(expected = "only the top")]
    fn partial_ranking_rejects_oversized_selections() {
        let r = RankedSelection::from_scores_topk(vec![1.0, 2.0, 3.0, 4.0], 1);
        let _ = r.selected(1.0);
    }

    #[test]
    fn refill_with_reuses_buffers_and_reranks() {
        let mut r = RankedSelection::from_scores(vec![1.0, 2.0]);
        r.refill_with(None, |scores| scores.extend([5.0, 1.0, 3.0]));
        assert_eq!(r.order(), &[0, 2, 1]);
        r.refill_with(Some(1), |scores| scores.extend([1.0, 9.0, 3.0]));
        assert_eq!(r.top(1), &[1]);
        assert_eq!(r.sorted_prefix(), 1);
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
        let b = RankedSelection::from_scores(scores.clone());
        assert_eq!(a.order(), b.order());
        assert_eq!(a.order(), &[1, 4, 2, 3, 5, 0], "NaNs first, then +inf");
        // The partial fast path agrees with the full sort even with NaNs.
        for m in 1..=scores.len() {
            let partial = RankedSelection::from_scores_topk(scores.clone(), m);
            assert_eq!(partial.top(m), a.top(m), "m = {m}");
        }
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

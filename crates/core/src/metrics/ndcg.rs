//! Utility measurement via normalized discounted cumulative gain (nDCG).
//!
//! "In fair ranking applications, utility measures how much the disparity
//! compensation approach impacts the original rankings" (Section VI-A2). The
//! relevance weight of an object is its *original* (pre-bonus) score; the
//! ideal DCG is the DCG of the original ranking, so an unchanged ranking
//! scores exactly 1.

use crate::dataset::Dataset;
use crate::error::{FairError, Result};
use crate::ranking::topk::{selection_size, RankedSelection};
use crate::ranking::{base_scores, Ranker};

/// Discounted cumulative gain of a weight sequence: `Σ w_i / log2(i + 1)`
/// with 1-based positions `i`.
#[must_use]
pub fn dcg(weights: &[f64]) -> f64 {
    weights
        .iter()
        .enumerate()
        .map(|(i, w)| w / ((i as f64) + 2.0).log2())
        .sum()
}

/// nDCG@k of a bonus-adjusted ranking relative to the original ranking.
///
/// * `data` — the population being ranked,
/// * `ranker` — the original score-based ranking function (provides the
///   relevance weights),
/// * `adjusted` — the ranking obtained after applying bonus points,
/// * `k` — selection fraction in `(0, 1]`.
///
/// Returns a value in `[0, 1]`; `1.0` means the top-k is unchanged in order.
///
/// # Errors
/// Returns an error on an empty dataset or an invalid `k`.
pub fn ndcg_at_k<R: Ranker + ?Sized>(
    data: &Dataset,
    ranker: &R,
    adjusted: &RankedSelection,
    k: f64,
) -> Result<f64> {
    if data.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    let count = selection_size(data.len(), k)?;
    let base = base_scores(data, ranker);
    let original = RankedSelection::from_scores(base.clone());
    Ok(ndcg_of_orders(
        &base,
        original.top(count),
        adjusted.top(count),
    ))
}

/// nDCG of the `measured` rank order against the `ideal` one, both given as
/// positions into `base` — the original scores, which are the relevance
/// weights. The one computation the serial metric and the sharded planner
/// run.
pub(crate) fn ndcg_of_orders(base: &[f64], ideal: &[usize], measured: &[usize]) -> f64 {
    // Relevance weights must be non-negative for nDCG to be meaningful; the
    // school rubric and decile scores already are. Shift if necessary.
    let min = base.iter().copied().fold(f64::INFINITY, f64::min);
    let shift = if min < 0.0 { -min } else { 0.0 };
    let weights =
        |order: &[usize]| -> Vec<f64> { order.iter().map(|&p| base[p] + shift).collect() };
    let ideal = dcg(&weights(ideal));
    if ideal == 0.0 {
        // All relevance weights are zero: any ordering is as good as any other.
        return 1.0;
    }
    (dcg(&weights(measured)) / ideal).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dataset::Dataset;
    use crate::object::DataObject;
    use crate::ranking::{effective_scores, WeightedSumRanker};

    fn dataset() -> Dataset {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..20_u64)
            .map(|i| {
                DataObject::new_unchecked(
                    i,
                    vec![(20 - i) as f64],
                    vec![if i >= 15 { 1.0 } else { 0.0 }],
                    None,
                )
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    #[test]
    fn dcg_matches_hand_computation() {
        // 3/log2(2) + 2/log2(3) + 1/log2(4) = 3 + 1.2618... + 0.5
        let v = dcg(&[3.0, 2.0, 1.0]);
        let expected = 3.0 + 2.0 / 3f64.log2() + 1.0 / 2.0;
        assert!((v - expected).abs() < 1e-9);
        assert_eq!(dcg(&[]), 0.0);
    }

    #[test]
    fn unchanged_ranking_has_ndcg_one() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let scores = effective_scores(&d, &ranker, &[0.0]);
        let ranking = RankedSelection::from_scores(scores);
        let u = ndcg_at_k(&d, &ranker, &ranking, 0.25).unwrap();
        assert!((u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bonus_adjustment_reduces_but_keeps_high_utility() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        // Moderate bonus pushes a group member into the top-25%.
        let scores = effective_scores(&d, &ranker, &[12.0]);
        let ranking = RankedSelection::from_scores(scores);
        let u = ndcg_at_k(&d, &ranker, &ranking, 0.25).unwrap();
        assert!(u < 1.0, "ranking changed so utility must drop: {u}");
        assert!(u > 0.5, "utility should remain substantial: {u}");
    }

    #[test]
    fn utility_is_monotone_in_bonus_distortion() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let utility = |bonus: f64| {
            let scores = effective_scores(&d, &ranker, &[bonus]);
            let ranking = RankedSelection::from_scores(scores);
            ndcg_at_k(&d, &ranker, &ranking, 0.25).unwrap()
        };
        let small = utility(5.0);
        let large = utility(50.0);
        assert!(
            large <= small,
            "a larger distortion cannot increase nDCG: {large} vs {small}"
        );
    }

    #[test]
    fn ndcg_bounded_in_unit_interval() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        for bonus in [0.0, 1.0, 10.0, 1000.0] {
            for k in [0.05, 0.25, 0.5, 1.0] {
                let scores = effective_scores(&d, &ranker, &[bonus]);
                let ranking = RankedSelection::from_scores(scores);
                let u = ndcg_at_k(&d, &ranker, &ranking, k).unwrap();
                assert!((0.0..=1.0).contains(&u), "bonus {bonus}, k {k}: {u}");
            }
        }
    }

    #[test]
    fn negative_scores_are_shifted_not_rejected() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..4_u64)
            .map(|i| DataObject::new_unchecked(i, vec![-(i as f64)], vec![0.0], None))
            .collect();
        let d = Dataset::new(schema, objects).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let ranking = RankedSelection::from_scores(effective_scores(&d, &ranker, &[0.0]));
        let u = ndcg_at_k(&d, &ranker, &ranking, 0.5).unwrap();
        assert!((u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_is_error() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let d = Dataset::empty(schema);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let ranking = RankedSelection::from_scores(vec![]);
        assert!(ndcg_at_k(&d, &ranker, &ranking, 0.5).is_err());
    }

    #[test]
    fn invalid_k_is_error() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let ranking = RankedSelection::from_scores(effective_scores(&d, &ranker, &[0.0]));
        assert!(ndcg_at_k(&d, &ranker, &ranking, 0.0).is_err());
    }
}

//! Shard-wise scoring and selection: the ranking-layer kernels of the
//! parallel evaluation engine.
//!
//! Every function is generic over [`ShardSource`], so the same kernels drive
//! a plain [`Dataset`] (one shard), the in-memory
//! [`crate::shard::ShardedDataset`] and the out-of-core
//! `fair_store::ShardStore` unchanged. Scoring is one per-shard kernel,
//! `score_shard_into`, behind [`crate::ranking::effective_scores`], the
//! metric planner and the fleet partials. Selection runs a per-shard partial
//! top-`m` (`select_nth_unstable`) and merges the candidate sets
//! under the same strict total order the full sort of
//! [`RankedSelection`](crate::ranking::topk::RankedSelection) uses
//! (descending [`f64::total_cmp`], ties by ascending global position), so the
//! selected positions — set *and* order — are identical to a full sort for
//! every shard size and worker count. The selection kernels ([`top_m`],
//! [`rank_of`]) consume only the score vector and the shard *layout* — no
//! shard data is paged in, which matters for cached out-of-core sources.

use crate::dataset::Dataset;
use crate::parallel::parallel_map;
use crate::ranking::topk::{rank_cmp, selection_size};
use crate::ranking::Ranker;
use crate::shard::ShardSource;

/// The one per-shard scoring kernel: `scores[i] = f(row i) + fairness_row(i)
/// · bonus` over a shard's rows, with the base term `f(row i)` also copied
/// into `base` when asked. The base term is [`base_shard_into`]'s; the bonus
/// increment is one blocked [`crate::kernel::add_dot_rows_into`] pass. Every
/// per-row value is the canonical [`crate::kernel::dot`] arithmetic, so
/// [`crate::ranking::effective_scores`], the metric planner and the fleet
/// partials score a row bit-for-bit alike at every shard size.
pub(crate) fn score_shard_into<R: Ranker + ?Sized>(
    shard: &Dataset,
    ranker: &R,
    bonus: &[f64],
    base: Option<&mut Vec<f64>>,
    scores: &mut Vec<f64>,
) {
    base_shard_into(shard, ranker, scores);
    if let Some(base) = base {
        base.clone_from(scores);
    }
    crate::kernel::add_dot_rows_into(shard.fairness_matrix(), bonus.len(), bonus, scores);
}

/// The base scores `f(row i)` of a shard's rows, written into `out`. Plain
/// linear rankers score the feature matrix as one blocked
/// [`crate::kernel::dot_rows_into`] pass, other rankers row by row through
/// [`Ranker::base_score`].
pub(crate) fn base_shard_into<R: Ranker + ?Sized>(shard: &Dataset, ranker: &R, out: &mut Vec<f64>) {
    let nf = shard.schema().num_features();
    match ranker
        .linear_weights()
        .filter(|w| !w.is_empty() && w.len() == nf)
    {
        Some(w) => crate::kernel::dot_rows_into(shard.features_matrix(), nf, w, out),
        None => {
            out.clear();
            out.extend((0..shard.len()).map(|i| ranker.base_score(shard.row(i))));
        }
    }
}

/// Keep the `m` least keys of `keys` — the `m` best rows under the canonical
/// order when the keys lead with [`descending_key`] — as an unordered
/// partition. The one top-`m` selection step of every prune and merge:
/// [`top_m`]'s, the fleet partials' and their combine's.
pub(crate) fn keep_best<T: Ord>(keys: &mut Vec<T>, m: usize) {
    if m < keys.len() {
        keys.select_nth_unstable(m);
        keys.truncate(m);
    }
}

/// A `u64` whose natural ascending order equals **descending**
/// [`f64::total_cmp`] order of the score. The standard monotone IEEE-754 map
/// (flip all bits of negatives, flip the sign bit of non-negatives) turns
/// `total_cmp` into unsigned integer order; inverting it flips the direction.
/// Pairing the key with the position gives a POD tuple whose derived `Ord`
/// is exactly [`rank_cmp`] — descending score, ties by ascending position —
/// so partitions and sorts run on 16-byte values with branch-friendly
/// integer comparisons instead of chasing `scores[a]`/`scores[b]` gathers.
#[inline]
pub(crate) fn descending_key(score: f64) -> u64 {
    let bits = score.to_bits();
    let ascending = bits ^ ((((bits as i64) >> 63) as u64) | 0x8000_0000_0000_0000);
    !ascending
}

/// The global positions of the `m` best scores, best first — exactly the
/// prefix a full descending sort would produce (same strict total order, same
/// deterministic tie-break).
///
/// When per-shard pruning pays off (`m` well below the shard size), each
/// shard partial-selects its own top `min(m, len)` in parallel and only the
/// merged candidates are partitioned; otherwise a single global partition is
/// used. Both paths produce the canonical top-`m` under the strict total
/// order, so the choice is invisible to callers. Only `scores` and the shard
/// *layout* are consulted — no shard data is paged in.
///
/// `scores` must hold one score per global row; `m` is clamped to the row
/// count.
///
/// # Panics
/// Panics if `scores.len()` differs from `data.len()`.
#[must_use]
pub fn top_m<S>(data: &S, scores: &[f64], m: usize) -> Vec<usize>
where
    S: ShardSource + ?Sized,
{
    assert_eq!(scores.len(), data.len(), "one score per row required");
    let n = data.len();
    let m = m.min(n);
    if m == 0 {
        return Vec::new();
    }
    let keyed = |range: std::ops::Range<usize>| -> Vec<(u64, u64)> {
        range
            .map(|p| (descending_key(scores[p]), p as u64))
            .collect()
    };
    // Per-shard candidate pruning only helps when the surviving candidate set
    // is materially smaller than the cohort.
    let num_shards = data.num_shards();
    let candidate_total: usize = (0..num_shards).map(|i| data.shard_len(i).min(m)).sum();
    let mut candidates: Vec<(u64, u64)> = if candidate_total * 2 <= n {
        let indices: Vec<usize> = (0..num_shards).collect();
        let per_shard = parallel_map(&indices, |&i| {
            let offset = data.shard_offset(i);
            let mut local = keyed(offset..offset + data.shard_len(i));
            keep_best(&mut local, m);
            local
        });
        per_shard.into_iter().flatten().collect()
    } else {
        keyed(0..n)
    };
    keep_best(&mut candidates, m);
    candidates.sort_unstable();
    candidates
        .into_iter()
        .map(|(_, p)| usize::try_from(p).expect("positions fit usize"))
        .collect()
}

/// The global positions of the top-`k`-fraction selection, best first.
///
/// # Errors
/// Returns an error for `k` outside `(0, 1]`.
///
/// # Panics
/// Panics if `scores.len()` differs from `data.len()`.
pub fn selected_at_k<S>(data: &S, scores: &[f64], k: f64) -> crate::error::Result<Vec<usize>>
where
    S: ShardSource + ?Sized,
{
    let m = selection_size(data.len(), k)?;
    Ok(top_m(data, scores, m))
}

/// The 0-based rank a full descending sort would assign to `position`: the
/// number of positions ordered strictly before it — counted shard by shard in
/// parallel (an exact integer reduction over the score vector; no shard data
/// is paged in).
///
/// # Panics
/// Panics if `scores.len()` differs from `data.len()` or `position` is out of
/// bounds.
#[must_use]
pub fn rank_of<S>(data: &S, scores: &[f64], position: usize) -> usize
where
    S: ShardSource + ?Sized,
{
    assert_eq!(scores.len(), data.len(), "one score per row required");
    assert!(position < data.len(), "position out of bounds");
    let indices: Vec<usize> = (0..data.num_shards()).collect();
    parallel_map(&indices, |&i| {
        let offset = data.shard_offset(i);
        (offset..offset + data.shard_len(i))
            .filter(|&p| p != position && rank_cmp(scores, p, position).is_lt())
            .count()
    })
    .into_iter()
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::object::DataObject;
    use crate::ranking::topk::RankedSelection;
    use crate::ranking::{effective_scores, WeightedSumRanker};
    use crate::shard::ShardedDataset;

    fn sharded(n: u64, shard_size: usize) -> ShardedDataset {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..n)
            .map(|i| {
                // Non-monotone scores with ties to exercise the tie-break.
                let score = f64::from(u32::try_from((i * 7) % 13).unwrap());
                DataObject::new_unchecked(
                    i,
                    vec![score],
                    vec![f64::from(u8::from(i % 4 == 0))],
                    None,
                )
            })
            .collect();
        ShardedDataset::from_objects(schema, objects, shard_size).unwrap()
    }

    #[test]
    fn scores_are_per_row_dots_at_every_shard_size() {
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let flat = sharded(53, 7).to_dataset();
        let per_row: Vec<u64> = (0..flat.len())
            .map(|i| {
                let score = ranker.base_score(flat.row(i))
                    + crate::kernel::dot(flat.fairness_row(i), &[2.5]);
                score.to_bits()
            })
            .collect();
        let bits = |scores: Vec<f64>| -> Vec<u64> { scores.iter().map(|s| s.to_bits()).collect() };
        assert_eq!(bits(effective_scores(&flat, &ranker, &[2.5])), per_row);
        for shard_size in [1, 7, 53, 1000] {
            let data = sharded(53, shard_size);
            assert_eq!(
                bits(effective_scores(&data, &ranker, &[2.5])),
                per_row,
                "shard {shard_size}"
            );
        }
    }

    #[test]
    fn top_m_matches_full_sort_for_every_shard_size_and_m() {
        for shard_size in [1, 5, 7, 64, 1000] {
            let data = sharded(53, shard_size);
            let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
            let scores = effective_scores(&data, &ranker, &[0.0]);
            let full = RankedSelection::from_scores(scores.clone());
            for m in [0, 1, 2, 7, 26, 52, 53, 99] {
                let got = top_m(&data, &scores, m);
                assert_eq!(got, full.top(m), "shard {shard_size}, m {m}");
            }
        }
    }

    #[test]
    fn selected_at_k_matches_ranked_selection() {
        let data = sharded(40, 6);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let scores = effective_scores(&data, &ranker, &[1.0]);
        let full = RankedSelection::from_scores(scores.clone());
        for k in [0.05, 0.25, 0.5, 1.0] {
            assert_eq!(
                selected_at_k(&data, &scores, k).unwrap(),
                full.selected(k).unwrap(),
                "k {k}"
            );
        }
        assert!(selected_at_k(&data, &scores, 0.0).is_err());
    }

    #[test]
    fn rank_of_matches_full_sort() {
        let data = sharded(29, 4);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let scores = effective_scores(&data, &ranker, &[0.5]);
        let full = RankedSelection::from_scores(scores.clone());
        for p in 0..29 {
            assert_eq!(Some(rank_of(&data, &scores, p)), full.rank_of(p), "{p}");
        }
    }

    #[test]
    fn descending_key_order_is_exactly_total_cmp_descending() {
        let tricky = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e300,
            -5e300,
        ];
        for &a in &tricky {
            for &b in &tricky {
                assert_eq!(
                    super::descending_key(a).cmp(&super::descending_key(b)),
                    b.total_cmp(&a),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn top_m_handles_nan_and_signed_zero_like_the_full_sort() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let tricky = [f64::NAN, 1.0, -0.0, 0.0, f64::INFINITY, -1.0, f64::NAN];
        let objects = tricky
            .iter()
            .enumerate()
            .map(|(i, &s)| DataObject::new_unchecked(i as u64, vec![s], vec![0.0], None))
            .collect();
        let data = ShardedDataset::from_objects(schema, objects, 2).unwrap();
        let scores: Vec<f64> = tricky.to_vec();
        let full = RankedSelection::from_scores(scores.clone());
        for m in 1..=tricky.len() {
            assert_eq!(top_m(&data, &scores, m), full.top(m), "m {m}");
        }
    }

    #[test]
    #[should_panic(expected = "one score per row")]
    fn mismatched_scores_panic() {
        let data = sharded(10, 3);
        let _ = top_m(&data, &[1.0, 2.0], 1);
    }
}

//! Partial-reduce kernels for **distributed** disparity evaluation — the
//! compute half of a multi-node DCA coordinator.
//!
//! A worker that owns a contiguous shard range computes, per shard, exactly
//! the quantities the one-sweep [`crate::metrics::sharded::MetricPlan`]
//! derives for that shard: the fairness column sums and the shard's
//! top-`count` selection candidates (score, global position, fairness row).
//! Candidates are then pruned **range-wide** to the best `count` — the global
//! top-`count` can contain at most `count` rows from any range, so the pruned
//! set still covers every row that can be selected, while the wire payload
//! stays `O(count)` per worker instead of `O(count × shards)`.
//!
//! A coordinator holding partials for **every** shard combines them in shard
//! order with [`combine_disparity_partials`]: the population centroid folds
//! per-shard sums in ascending shard order, the selection re-partitions the
//! candidate keys under the same strict total order as
//! [`crate::ranking::sharded::top_m`], and the selection centroid accumulates
//! fairness rows in rank order — each step the identical floating-point
//! sequence the local sharded evaluator executes, so the distributed
//! disparity (and therefore the Full-DCA trajectory driven by it through
//! [`crate::dca::full::run_full_descent`]) is **bit-identical** to
//! [`crate::metrics::sharded::disparity_at_k`] on one node.
//!
//! Partials are pure functions of `(cohort, bonus, count, shard range)` —
//! no hidden state, no RNG — which is what makes coordinator retries
//! idempotent: recomputing a range after a timeout cannot change the result,
//! and the combine rejects a shard supplied twice outright.

use crate::error::{FairError, Result};
use crate::metrics::disparity::disparity_of_rows;
use crate::parallel::parallel_map;
use crate::ranking::sharded::{descending_key, keep_best, score_shard_into};
use crate::ranking::Ranker;
use crate::shard::{fold_centroid, shard_fair_sums, ShardSource};
use std::ops::Range;

/// One shard's contribution to a distributed disparity evaluation.
///
/// `scores`/`positions`/`fairness` describe the shard's surviving selection
/// candidates in canonical rank order (descending score, ties by ascending
/// position); `fairness` is row-major, `scores.len() × dims`. `fair_sums` and
/// `rows` always describe the **whole** shard, whatever survived pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct DisparityPartial {
    /// Global shard index.
    pub shard: usize,
    /// Rows in the shard.
    pub rows: usize,
    /// Per-dimension fairness column sums over the whole shard.
    pub fair_sums: Vec<f64>,
    /// Candidate effective scores, best first.
    pub scores: Vec<f64>,
    /// Candidate global row positions, aligned with `scores`.
    pub positions: Vec<usize>,
    /// Candidate fairness rows, row-major, aligned with `scores`.
    pub fairness: Vec<f64>,
}

/// Per-shard sweep output before range-level pruning.
struct ShardPass {
    shard: usize,
    rows: usize,
    fair_sums: Vec<f64>,
    /// `(descending_key(score), global position)` — the canonical sort key.
    keys: Vec<(u64, u64)>,
    scores: Vec<f64>,
    fairness: Vec<f64>,
}

/// Compute the disparity partials for the shards in `shards` under `bonus`,
/// with selection candidates pruned range-wide to the global selection size
/// `count`.
///
/// Scoring, the per-shard sums and the candidate partitions are the metric
/// planner's and [`crate::ranking::sharded::top_m`]'s own kernels — see the
/// module docs for why that makes the combined result bit-identical to local
/// evaluation.
///
/// # Errors
/// Returns [`FairError::EmptyDataset`] on an empty cohort and
/// [`FairError::InvalidConfig`] when the range exceeds the layout or `count`
/// is not in `1..=len`.
///
/// # Panics
/// Panics if `bonus.len()` differs from the schema's fairness dimensionality
/// (the scoring-kernel contract).
pub fn disparity_partials<S, R>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    count: usize,
    shards: Range<usize>,
) -> Result<Vec<DisparityPartial>>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
{
    if data.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    if shards.start > shards.end || shards.end > data.num_shards() {
        return Err(FairError::InvalidConfig {
            reason: format!(
                "shard range {}..{} exceeds the {}-shard layout",
                shards.start,
                shards.end,
                data.num_shards()
            ),
        });
    }
    if count == 0 || count > data.len() {
        return Err(FairError::InvalidConfig {
            reason: format!(
                "selection count {count} must be in 1..={} for this cohort",
                data.len()
            ),
        });
    }
    let dims = data.schema().num_fairness();
    assert_eq!(bonus.len(), dims, "bonus vector dimensionality mismatch");

    let indices: Vec<usize> = shards.collect();
    let mut passes: Vec<ShardPass> = parallel_map(&indices, |&i| {
        data.with_shard(i, |shard| {
            let d = shard.data();
            let offset = shard.offset();
            let mut scores = Vec::new();
            score_shard_into(d, ranker, bonus, None, &mut scores);
            // Per-shard candidates, as `top_m`'s pruning path: the shard's
            // own top min(count, n) under the strict total order.
            let mut keys: Vec<(u64, u64)> = scores
                .iter()
                .enumerate()
                .map(|(i, &s)| (descending_key(s), (offset + i) as u64))
                .collect();
            keep_best(&mut keys, count);
            keys.sort_unstable();
            let mut cand_scores = Vec::with_capacity(keys.len());
            let mut fairness = Vec::with_capacity(keys.len() * dims);
            for &(_, pos) in &keys {
                let local = pos as usize - offset;
                cand_scores.push(scores[local]);
                fairness.extend_from_slice(d.fairness_row(local));
            }
            ShardPass {
                shard: i,
                rows: d.len(),
                fair_sums: shard_fair_sums(d),
                keys,
                scores: cand_scores,
                fairness,
            }
        })
    });

    // Range-wide prune: of all per-shard candidates, only the range's best
    // `count` can appear in the global selection. Same partition as `top_m`'s
    // merge, restricted to this range.
    let total: usize = passes.iter().map(|p| p.keys.len()).sum();
    if count < total {
        let mut all: Vec<((u64, u64), (u32, u32))> = Vec::with_capacity(total);
        for (slot, pass) in passes.iter().enumerate() {
            for (idx, &key) in pass.keys.iter().enumerate() {
                all.push((key, (slot as u32, idx as u32)));
            }
        }
        keep_best(&mut all, count);
        let mut keep: Vec<Vec<u32>> = vec![Vec::new(); passes.len()];
        for &(_, (slot, idx)) in &all {
            keep[slot as usize].push(idx);
        }
        for (pass, mut kept) in passes.iter_mut().zip(keep) {
            // Candidate lists are already in (key, position) order, so
            // keeping ascending indices preserves the canonical order.
            kept.sort_unstable();
            let mut keys = Vec::with_capacity(kept.len());
            let mut scores = Vec::with_capacity(kept.len());
            let mut fairness = Vec::with_capacity(kept.len() * dims);
            for &idx in &kept {
                let idx = idx as usize;
                keys.push(pass.keys[idx]);
                scores.push(pass.scores[idx]);
                fairness.extend_from_slice(&pass.fairness[idx * dims..(idx + 1) * dims]);
            }
            pass.keys = keys;
            pass.scores = scores;
            pass.fairness = fairness;
        }
    }

    Ok(passes
        .into_iter()
        .map(|p| DisparityPartial {
            shard: p.shard,
            rows: p.rows,
            fair_sums: p.fair_sums,
            scores: p.scores,
            positions: p.keys.iter().map(|&(_, pos)| pos as usize).collect(),
            fairness: p.fairness,
        })
        .collect())
}

/// Combine partials covering **every** shard of a `total_rows`-row cohort
/// into the disparity vector at selection size `count`, written into `out` —
/// bit-identical to [`crate::metrics::sharded::disparity_at_k`] at the
/// matching `k` (see the module docs).
///
/// Partials may arrive in any order; they are folded in ascending shard
/// order. A shard that is missing, supplied twice (a double-counted retry),
/// or internally inconsistent is an [`FairError::InvalidConfig`] — the
/// combine refuses to produce a silently wrong vector. So is a candidate
/// row listed twice or outside its shard's rows (each shard's span follows
/// from the cumulative `rows` in shard order).
///
/// # Errors
/// Returns [`FairError::InvalidConfig`] on coverage, shape or candidate
/// placement violations and [`FairError::EmptyDataset`] when `count == 0`.
pub fn combine_disparity_partials(
    total_rows: usize,
    dims: usize,
    count: usize,
    partials: &[DisparityPartial],
    out: &mut Vec<f64>,
) -> Result<()> {
    if count == 0 {
        return Err(FairError::EmptyDataset);
    }
    let invalid = |reason: String| FairError::InvalidConfig { reason };
    let mut order: Vec<&DisparityPartial> = partials.iter().collect();
    order.sort_by_key(|p| p.shard);
    for (expected, p) in order.iter().enumerate() {
        if p.shard < expected {
            return Err(invalid(format!(
                "shard {} supplied twice — a retry double-counted a range",
                p.shard
            )));
        }
        if p.shard > expected {
            return Err(invalid(format!("no partial covers shard {expected}")));
        }
        if p.fair_sums.len() != dims
            || p.positions.len() != p.scores.len()
            || p.fairness.len() != p.scores.len() * dims
        {
            return Err(invalid(format!("malformed partial for shard {}", p.shard)));
        }
    }
    let rows: usize = order.iter().map(|p| p.rows).sum();
    if rows != total_rows {
        return Err(invalid(format!(
            "partials cover {rows} rows, cohort has {total_rows}"
        )));
    }
    if count > total_rows {
        return Err(invalid(format!(
            "selection count {count} exceeds the {total_rows}-row cohort"
        )));
    }

    let pop = fold_centroid(
        dims,
        total_rows,
        order.iter().map(|p| p.fair_sums.as_slice()),
    );

    // Global selection: re-key every candidate (scores crossed the wire
    // bit-exactly, so the keys are the keys the worker computed) and
    // partition + sort under the same strict total order as `top_m`.
    let mut listed = vec![false; total_rows];
    let mut start = 0;
    let mut candidates: Vec<((u64, u64), (u32, u32))> = Vec::new();
    for (slot, p) in order.iter().enumerate() {
        let span = start..start + p.rows;
        for (idx, (&score, &pos)) in p.scores.iter().zip(&p.positions).enumerate() {
            if listed.get(pos) == Some(&true) {
                return Err(invalid(format!("row {pos} is listed twice")));
            }
            if !span.contains(&pos) {
                return Err(invalid(format!(
                    "shard {} lists row {pos}, outside its rows {span:?}",
                    p.shard
                )));
            }
            listed[pos] = true;
            candidates.push((
                (descending_key(score), pos as u64),
                (slot as u32, idx as u32),
            ));
        }
        start = span.end;
    }
    if candidates.len() < count {
        return Err(invalid(format!(
            "{} candidates for a selection of {count} — partials were over-pruned",
            candidates.len()
        )));
    }
    keep_best(&mut candidates, count);
    candidates.sort_unstable();

    // The disparity measurement over the selection's rows in rank order —
    // the planner's, over the same row sequence.
    disparity_of_rows(
        candidates.iter().map(|&(_, (slot, idx))| {
            let p = order[slot as usize];
            let idx = idx as usize;
            &p.fairness[idx * dims..(idx + 1) * dims]
        }),
        &pop,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dca::config::DcaConfig;
    use crate::dca::control::RunControl;
    use crate::dca::full::run_full_descent;
    use crate::dca::objective::TopKDisparity;
    use crate::dca::sharded::run_full_dca_sharded;
    use crate::metrics::sharded as shmetrics;
    use crate::object::DataObject;
    use crate::ranking::{selection_size, NormalizedWeightedSum, WeightedSumRanker};
    use crate::shard::ShardedDataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A biased cohort with *non*-dyadic scores and a two-dimensional
    /// fairness schema: bit-identity must come from identical operation
    /// order, not from exactly-representable values.
    fn cohort(n: u64, seed: u64, shard_size: usize) -> ShardedDataset {
        let schema = Schema::from_names(&["a", "b"], &["g", "h"], &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = (0..n)
            .map(|i| {
                let g = rng.gen::<f64>() < 0.3;
                let h = rng.gen::<f64>() < 0.5;
                let a = rng.gen::<f64>() * 100.0 - if g { 13.7 } else { 0.0 };
                let b = rng.gen::<f64>() * 10.0;
                DataObject::new_unchecked(
                    i,
                    vec![a, b],
                    vec![f64::from(u8::from(g)), f64::from(u8::from(h))],
                    None,
                )
            })
            .collect();
        ShardedDataset::from_objects(schema, objects, shard_size).unwrap()
    }

    fn split_partials(
        data: &ShardedDataset,
        ranker: &dyn Ranker,
        bonus: &[f64],
        count: usize,
        cuts: &[usize],
    ) -> Vec<DisparityPartial> {
        let mut partials = Vec::new();
        let mut start = 0;
        for &cut in cuts.iter().chain(std::iter::once(&data.num_shards())) {
            partials.extend(disparity_partials(data, ranker, bonus, count, start..cut).unwrap());
            start = cut;
        }
        partials
    }

    #[test]
    fn combined_partials_match_local_disparity_bitwise() {
        let data = cohort(500, 7, 48);
        let linear = WeightedSumRanker::new(vec![1.0, 0.25]).unwrap();
        // A non-linear ranker takes the kernel's per-row `base_score` branch.
        let normalized =
            NormalizedWeightedSum::new(vec![1.0, 0.25], vec![-20.0, 0.0], vec![100.0, 10.0])
                .unwrap();
        let rankers: [&dyn Ranker; 2] = [&linear, &normalized];
        for (r, ranker) in rankers.into_iter().enumerate() {
            for k in [0.02, 0.2, 0.9] {
                let count = selection_size(data.len(), k).unwrap();
                for bonus in [vec![0.0, 0.0], vec![3.3, -1.1]] {
                    let local = shmetrics::disparity_at_k(&data, ranker, &bonus, k).unwrap();
                    for cuts in [vec![], vec![4], vec![2, 7], vec![1, 2, 3]] {
                        let partials = split_partials(&data, ranker, &bonus, count, &cuts);
                        let mut combined = Vec::new();
                        combine_disparity_partials(data.len(), 2, count, &partials, &mut combined)
                            .unwrap();
                        let a: Vec<u64> = local.iter().map(|v| v.to_bits()).collect();
                        let b: Vec<u64> = combined.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(a, b, "ranker {r} k={k} bonus={bonus:?} cuts={cuts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn partials_are_order_insensitive_and_pure() {
        let data = cohort(300, 3, 32);
        let ranker = WeightedSumRanker::new(vec![1.0, 1.0]).unwrap();
        let count = selection_size(data.len(), 0.1).unwrap();
        let bonus = [2.0, 0.5];
        let mut partials = split_partials(&data, &ranker, &bonus, count, &[5]);
        let again = split_partials(&data, &ranker, &bonus, count, &[5]);
        assert_eq!(
            partials, again,
            "partials are pure — retries are idempotent"
        );
        let mut ordered = Vec::new();
        combine_disparity_partials(data.len(), 2, count, &partials, &mut ordered).unwrap();
        partials.reverse();
        let mut reversed = Vec::new();
        combine_disparity_partials(data.len(), 2, count, &partials, &mut reversed).unwrap();
        assert_eq!(ordered, reversed, "combine sorts by shard itself");
    }

    #[test]
    fn combine_rejects_double_counted_missing_and_malformed_shards() {
        let data = cohort(200, 1, 32);
        let ranker = WeightedSumRanker::new(vec![1.0, 1.0]).unwrap();
        let count = 20;
        let partials =
            disparity_partials(&data, &ranker, &[0.0; 2], count, 0..data.num_shards()).unwrap();
        let mut out = Vec::new();

        // A retried range slipped in twice: refused, not double-counted.
        let mut doubled = partials.clone();
        doubled.push(partials[2].clone());
        let err = combine_disparity_partials(data.len(), 2, count, &doubled, &mut out).unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");

        // A missing shard is refused.
        let missing: Vec<_> = partials[1..].to_vec();
        let err = combine_disparity_partials(data.len(), 2, count, &missing, &mut out).unwrap_err();
        assert!(err.to_string().contains("shard 0"), "{err}");

        // A row-count mismatch is refused.
        let err = combine_disparity_partials(999, 2, count, &partials, &mut out).unwrap_err();
        assert!(err.to_string().contains("rows"), "{err}");

        // Shape violations are refused.
        let mut torn = partials.clone();
        torn[0].fairness.pop();
        let err = combine_disparity_partials(data.len(), 2, count, &torn, &mut out).unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");

        // Misplaced candidates are refused. Shard 0 alone keeps its own top
        // `count`, so it has candidates to copy and rows it left out.
        let partials = split_partials(&data, &ranker, &[0.0; 2], count, &[1]);
        let append = |partials: &mut Vec<DisparityPartial>, score: f64, pos: usize| {
            partials[1].scores.push(score);
            partials[1].positions.push(pos);
            partials[1]
                .fairness
                .extend_from_slice(data.fairness_row(pos));
        };
        // Shard 0's best candidate repeated under shard 1: a row counted
        // twice would silently push a real row out of the selection.
        let mut repeated = partials.clone();
        append(
            &mut repeated,
            partials[0].scores[0],
            partials[0].positions[0],
        );
        let err =
            combine_disparity_partials(data.len(), 2, count, &repeated, &mut out).unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
        // A shard-0 row no partial lists, claimed by shard 1.
        let unlisted = (0..data.shard_len(0))
            .find(|p| !partials[0].positions.contains(p))
            .unwrap();
        let mut stray = partials.clone();
        append(&mut stray, 0.0, unlisted);
        let err = combine_disparity_partials(data.len(), 2, count, &stray, &mut out).unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
    }

    #[test]
    fn partials_validate_range_count_and_emptiness() {
        let data = cohort(100, 2, 16);
        let ranker = WeightedSumRanker::new(vec![1.0, 1.0]).unwrap();
        assert!(disparity_partials(&data, &ranker, &[0.0; 2], 10, 0..99).is_err());
        assert!(disparity_partials(&data, &ranker, &[0.0; 2], 0, 0..1).is_err());
        assert!(disparity_partials(&data, &ranker, &[0.0; 2], 101, 0..1).is_err());
        let schema = Schema::from_names(&["a", "b"], &["g", "h"], &[]).unwrap();
        let empty = ShardedDataset::with_shard_size(schema, 8).unwrap();
        assert!(matches!(
            disparity_partials(&empty, &ranker, &[0.0; 2], 1, 0..0),
            Err(FairError::EmptyDataset)
        ));
    }

    #[test]
    fn full_descent_over_combined_partials_matches_the_sharded_runner_bitwise() {
        let data = cohort(400, 11, 64);
        let ranker = WeightedSumRanker::new(vec![1.0, 0.5]).unwrap();
        let k = 0.2;
        let config = DcaConfig {
            learning_rates: vec![10.0, 1.0],
            iterations_per_rate: 8,
            refinement_iterations: 0,
            seed: 5,
            ..DcaConfig::default()
        };
        let local =
            run_full_dca_sharded(&data, &ranker, &TopKDisparity::new(k), &config, None, true)
                .unwrap();

        // Simulate a 3-worker coordinator: three disjoint ranges per step,
        // combined in shard order.
        let count = selection_size(data.len(), k).unwrap();
        let dims = 2;
        let distributed = run_full_descent(
            dims,
            data.len(),
            &config,
            None,
            true,
            &RunControl::new(),
            |bonus, out| {
                let partials = split_partials(&data, &ranker, bonus, count, &[3, 5]);
                combine_disparity_partials(data.len(), dims, count, &partials, out)
            },
        )
        .unwrap();
        let a: Vec<u64> = local.bonus.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = distributed.bonus.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "distributed Full DCA is bit-identical");
        assert_eq!(local.steps, distributed.steps);
        for (s, t) in local.trace.iter().zip(&distributed.trace) {
            assert_eq!(s.bonus, t.bonus, "step {}", s.step);
        }
    }
}

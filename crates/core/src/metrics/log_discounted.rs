//! Logarithmically discounted disparity (Section IV-E).
//!
//! When the selection size `k` is not known in advance (e.g. school matching,
//! where "it is not known in advance how far down its list a school will
//! accept students"), DCA minimizes a weighted average of the disparity over
//! many selection sizes, discounting larger selections logarithmically:
//!
//! ```text
//!   (1/Z) * Σ_{i ∈ {step, 2·step, …, max}}  D_i / log2(i + 1)
//! ```
//!
//! where `D_i` is the disparity of the top-`i` objects and `Z` is the maximum
//! possible value (the sum of the weights), so that each dimension of the
//! result stays within `[-1, 1]`.

use crate::dataset::Dataset;
use crate::error::{FairError, Result};
use crate::ranking::topk::RankedSelection;
use crate::shard::ShardSource;

/// Configuration of the log-discounted disparity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDiscountConfig {
    /// Evaluate the disparity every `step` ranked objects (the paper uses
    /// checkpoints at every 10 objects: `i ∈ 10, 20, 30, …`).
    pub step: usize,
    /// Only consider checkpoints covering at most this fraction of the
    /// ranking. The paper's school experiments use `0.5` ("users might only be
    /// interested in the top half of the ranking").
    pub max_fraction: f64,
}

impl Default for LogDiscountConfig {
    fn default() -> Self {
        Self {
            step: 10,
            max_fraction: 0.5,
        }
    }
}

impl LogDiscountConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns an error if `step == 0` or `max_fraction` is outside `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.step == 0 {
            return Err(FairError::InvalidConfig {
                reason: "log-discount step must be positive".into(),
            });
        }
        if !(self.max_fraction > 0.0 && self.max_fraction <= 1.0) {
            return Err(FairError::InvalidSelectionFraction {
                k: self.max_fraction,
            });
        }
        Ok(())
    }

    /// The checkpoint selection sizes for a ranking of `n` objects.
    #[must_use]
    pub fn checkpoints(&self, n: usize) -> Vec<usize> {
        let max = ((n as f64) * self.max_fraction).floor() as usize;
        let mut out = Vec::new();
        let mut i = self.step;
        while i <= max {
            out.push(i);
            i += self.step;
        }
        // Always have at least one checkpoint on tiny rankings so the metric
        // is defined whenever the ranking is non-empty.
        if out.is_empty() && n > 0 {
            out.push(max.max(1).min(n));
        }
        out
    }
}

/// Compute the logarithmically discounted disparity vector of a ranking.
///
/// # Errors
/// Returns an error on an empty dataset or invalid configuration.
pub fn log_discounted_disparity(
    data: &Dataset,
    ranking: &RankedSelection,
    config: &LogDiscountConfig,
) -> Result<Vec<f64>> {
    config.validate()?;
    if data.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    let checkpoints = config.checkpoints(ranking.len());
    let all = data.fairness_centroid()?;
    let last = checkpoints.last().copied().unwrap_or(0);
    let ranked = ranking.top(last).iter().map(|&p| data.fairness_row(p));
    let mut out = Vec::new();
    log_discounted_of_rows(&checkpoints, &all, ranked, &mut out)?;
    Ok(out)
}

/// The log-discounted disparity of a ranking given as its fairness rows in
/// rank order, against the population centroid `pop`, written into `out` —
/// the one accumulation the serial metric and the sharded planner run.
///
/// The checkpoints are strictly increasing prefixes of one ranked order, so
/// the per-checkpoint selection centroids are computed with a single running
/// prefix sum — `O(n · dims)` total instead of the `O(n²/step · dims)` of
/// re-summing every prefix from scratch. The running sum performs the exact
/// same additions in the exact same order as the from-scratch sums, so the
/// result is bit-for-bit identical.
///
/// # Errors
/// Returns [`FairError::EmptyDataset`] on a zero-size checkpoint.
pub(crate) fn log_discounted_of_rows<'a>(
    checkpoints: &[usize],
    pop: &[f64],
    mut ranked: impl Iterator<Item = &'a [f64]>,
    out: &mut Vec<f64>,
) -> Result<()> {
    out.clear();
    out.resize(pop.len(), 0.0);
    let mut running = vec![0.0; pop.len()];
    let mut consumed = 0_usize;
    let mut z = 0.0;
    for &count in checkpoints {
        debug_assert!(count >= consumed, "checkpoints must be increasing");
        let weight = 1.0 / ((count as f64) + 1.0).log2();
        for row in ranked.by_ref().take(count - consumed) {
            crate::kernel::add_row(&mut running, row);
        }
        consumed = count;
        if count == 0 {
            return Err(FairError::EmptyDataset);
        }
        for ((o, r), a) in out.iter_mut().zip(&running).zip(pop) {
            *o += weight * (r / count as f64 - a);
        }
        z += weight;
    }
    if z > 0.0 {
        for a in out.iter_mut() {
            *a /= z;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dataset::Dataset;
    use crate::object::DataObject;
    use crate::ranking::{effective_scores, WeightedSumRanker};

    fn dataset(n: u64, member_every: u64) -> Dataset {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..n)
            .map(|i| {
                let member = i % member_every == 0;
                // Non-members score higher, so members cluster at the bottom.
                let score = if member { i as f64 } else { 1000.0 + i as f64 };
                DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn rank(d: &Dataset, bonus: f64) -> RankedSelection {
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        RankedSelection::from_scores(effective_scores(d, &ranker, &[bonus]))
    }

    #[test]
    fn checkpoints_every_step_up_to_max_fraction() {
        let c = LogDiscountConfig {
            step: 10,
            max_fraction: 0.5,
        };
        assert_eq!(c.checkpoints(100), vec![10, 20, 30, 40, 50]);
        assert_eq!(c.checkpoints(25), vec![10]);
        // Tiny rankings still get one checkpoint.
        assert_eq!(c.checkpoints(5), vec![2]);
        assert_eq!(c.checkpoints(1), vec![1]);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(LogDiscountConfig {
            step: 0,
            max_fraction: 0.5
        }
        .validate()
        .is_err());
        assert!(LogDiscountConfig {
            step: 10,
            max_fraction: 0.0
        }
        .validate()
        .is_err());
        assert!(LogDiscountConfig {
            step: 10,
            max_fraction: 1.5
        }
        .validate()
        .is_err());
        assert!(LogDiscountConfig::default().validate().is_ok());
    }

    #[test]
    fn discounted_disparity_is_negative_when_group_ranks_last() {
        let d = dataset(200, 4); // 25% members, all at the bottom
        let ranking = rank(&d, 0.0);
        let disp = log_discounted_disparity(&d, &ranking, &LogDiscountConfig::default()).unwrap();
        assert!(
            disp[0] < -0.1,
            "members are absent from every prefix: {}",
            disp[0]
        );
        assert!(disp[0] >= -1.0);
    }

    #[test]
    fn discounted_disparity_bounded_in_unit_interval() {
        let d = dataset(200, 4);
        for bonus in [0.0, 500.0, 5000.0] {
            let ranking = rank(&d, bonus);
            let disp =
                log_discounted_disparity(&d, &ranking, &LogDiscountConfig::default()).unwrap();
            assert!(
                disp.iter().all(|v| (-1.0..=1.0).contains(v)),
                "bonus {bonus}: {disp:?}"
            );
        }
    }

    #[test]
    fn large_bonus_flips_the_sign() {
        let d = dataset(200, 4);
        let ranking = rank(&d, 10_000.0);
        let disp = log_discounted_disparity(&d, &ranking, &LogDiscountConfig::default()).unwrap();
        assert!(
            disp[0] > 0.1,
            "members now dominate every prefix: {}",
            disp[0]
        );
    }

    #[test]
    fn early_prefixes_weigh_more_than_late_ones() {
        // Two rankings with identical disparity at the last checkpoint but
        // different disparity at the first checkpoint must differ, and the one
        // that is unfair early must be worse (more negative).
        let d = dataset(40, 2); // 50% members
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        // Ranking A: members at the very end.
        let scores_a = effective_scores(&d, &ranker, &[0.0]);
        let ranking_a = RankedSelection::from_scores(scores_a);
        // Ranking B: members at the very top (huge bonus).
        let scores_b = effective_scores(&d, &ranker, &[100_000.0]);
        let ranking_b = RankedSelection::from_scores(scores_b);
        let cfg = LogDiscountConfig {
            step: 5,
            max_fraction: 1.0,
        };
        let a = log_discounted_disparity(&d, &ranking_a, &cfg).unwrap()[0];
        let b = log_discounted_disparity(&d, &ranking_b, &cfg).unwrap()[0];
        assert!(a < 0.0 && b > 0.0);
        // Both evaluate to 0 at the full-selection checkpoint, so the
        // magnitude comes from the discounted earlier checkpoints.
        assert!(a.abs() > 0.05 && b.abs() > 0.05);
    }

    /// The incremental prefix-sum implementation must agree bit-for-bit with
    /// a from-scratch evaluation of every checkpoint (the pre-optimization
    /// semantics).
    #[test]
    fn incremental_prefix_sums_match_naive_reference_bit_for_bit() {
        use crate::metrics::disparity::disparity_of_selection;
        let d = dataset(317, 3);
        for bonus in [0.0, 42.0, 5_000.0] {
            let ranking = rank(&d, bonus);
            for cfg in [
                LogDiscountConfig::default(),
                LogDiscountConfig {
                    step: 7,
                    max_fraction: 1.0,
                },
                LogDiscountConfig {
                    step: 1,
                    max_fraction: 0.3,
                },
            ] {
                let fast = log_discounted_disparity(&d, &ranking, &cfg).unwrap();
                // Naive reference: re-sum every prefix from scratch.
                let dims = d.schema().num_fairness();
                let mut acc = vec![0.0; dims];
                let mut z = 0.0;
                for count in cfg.checkpoints(ranking.len()) {
                    let weight = 1.0 / ((count as f64) + 1.0).log2();
                    let disp = disparity_of_selection(&d, ranking.top(count)).unwrap();
                    for (a, v) in acc.iter_mut().zip(&disp) {
                        *a += weight * v;
                    }
                    z += weight;
                }
                for a in &mut acc {
                    *a /= z;
                }
                let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
                let naive_bits: Vec<u64> = acc.iter().map(|v| v.to_bits()).collect();
                assert_eq!(fast_bits, naive_bits, "step {} bonus {bonus}", cfg.step);
            }
        }
    }

    #[test]
    fn empty_dataset_is_error() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let d = Dataset::empty(schema);
        let ranking = RankedSelection::from_scores(vec![]);
        assert!(log_discounted_disparity(&d, &ranking, &LogDiscountConfig::default()).is_err());
    }
}

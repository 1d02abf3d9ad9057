//! Whole-cohort metric evaluation on the shard-wise parallel engine.
//!
//! Every metric here is the whole-cohort counterpart of a serial metric in
//! this module's siblings, evaluated by one [`MetricPlan`] on the
//! [`ShardSource`] engine — so the same code path serves a plain
//! [`Dataset`](crate::dataset::Dataset) (one shard), the in-memory
//! [`crate::shard::ShardedDataset`] and the out-of-core
//! `fair_store::ShardStore`:
//!
//! 1. *score* — the per-shard scoring kernel
//!    (`ranking::sharded::score_shard_into`), bit-for-bit the serial scores,
//! 2. *select* — per-shard partial top-`m` merged under the serial strict
//!    total order ([`crate::ranking::sharded::top_m`]), so the selected set
//!    and order are exactly the full sort's,
//! 3. *measure* — the serial metrics' own measurement functions (disparity,
//!    log-discounted accumulation, nDCG, the group tally behind FPR and
//!    disparate impact), fed the rank-ordered fairness rows of the
//!    selection — read in place from the shard views the sweep kept — and
//!    the population centroid folded from per-shard sums in shard order
//!    (bit-for-bit for binary/dyadic fairness values,
//!    reassociation-ulp-deterministic otherwise).
//!    Over an in-memory source the kept views are borrows; a plan over a
//!    paged source holds every swept block until it returns, evicted ones
//!    included, and the [`crate::shard`] docs size that memory.
//!
//! Unlike the serial metrics, which take a pre-built
//! [`RankedSelection`](crate::ranking::RankedSelection), these functions are
//! end-to-end: they take the ranker and bonus vector and perform scoring,
//! selection and measurement through the engine, because on large cohorts the
//! full sort the serial callers pre-pay is precisely the cost being removed.
//!
//! A plan is also the only evaluator of the DCA layer: every runner
//! evaluates its objective's plan ([`crate::dca::Objective::plan`]) once per
//! step — over the whole cohort for Full DCA, and over the step's gathered
//! sample, a plain `Dataset`, for Core DCA and the refinement. A one-shard
//! sweep and its selection run their
//! [`crate::parallel_map`] calls inline on the calling thread, but each call
//! still counts in `fair_parallel_sweeps_total`, so a sampled step adds one
//! or two sweeps to that series.

use crate::error::{FairError, Result};
use crate::metrics::disparate_impact::scaled_disparate_impact;
use crate::metrics::disparity::disparity_of_rows;
use crate::metrics::fpr::fpr_difference;
use crate::metrics::log_discounted::log_discounted_of_rows;
use crate::metrics::ndcg::ndcg_of_orders;
use crate::metrics::{GroupTally, LogDiscountConfig};
use crate::ranking::sharded::{score_shard_into, top_m};
use crate::ranking::topk::selection_size;
use crate::ranking::Ranker;
use crate::shard::{fold_centroid, shard_fair_sums, ShardSource, ShardView};

/// The score vectors of [`MetricPlan`] in global row order, kept across
/// evaluations so repeated evaluation — every DCA runner's steps — reuses
/// their capacity. Each evaluation still allocates the per-shard score
/// vectors its sweep copies in here and its selection's key and rank
/// vectors.
#[derive(Debug, Clone, Default)]
pub struct ShardedEvalScratch {
    /// Effective scores, global row order.
    pub(crate) scores: Vec<f64>,
    /// Base (zero-bonus) scores, global row order — filled only when the
    /// plan includes nDCG.
    pub(crate) base: Vec<f64>,
}

impl ShardedEvalScratch {
    /// Empty scratch; buffers grow on first use and are retained.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

// ---------------------------------------------------------------------
// The audit planner: every requested metric in one paged sweep.
// ---------------------------------------------------------------------

/// The closed set of whole-cohort audit metrics a [`MetricPlan`] can
/// evaluate. Names are the wire names the audit service accepts — a closed
/// static lookup, so no dynamic metric name ever needs to be materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Selection-centroid disparity at `k` ([`disparity_at_k`]).
    Disparity,
    /// nDCG of the adjusted ranking against the original ([`ndcg_at_k`]).
    Ndcg,
    /// Logarithmically discounted disparity ([`log_discounted_disparity`]).
    LogDiscounted,
    /// FPR-difference vector at `k` ([`fpr_difference_at_k`]).
    FprDifference,
    /// Signed scaled disparate impact at `k`
    /// ([`scaled_disparate_impact_at_k`]).
    DisparateImpact,
}

impl MetricKind {
    /// Every metric, in canonical order.
    pub const ALL: [Self; 5] = [
        Self::Disparity,
        Self::Ndcg,
        Self::LogDiscounted,
        Self::FprDifference,
        Self::DisparateImpact,
    ];

    /// The static wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Disparity => "disparity",
            Self::Ndcg => "ndcg",
            Self::LogDiscounted => "log_discounted",
            Self::FprDifference => "fpr_difference",
            Self::DisparateImpact => "disparate_impact",
        }
    }

    /// Parse a wire name; `None` for anything outside the closed set.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// One evaluated metric: per-fairness-dimension vector or scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A single number (nDCG).
    Scalar(f64),
    /// One value per fairness dimension.
    Vector(Vec<f64>),
}

/// The result of one plan evaluation: `(kind, value)` pairs in plan order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricReport {
    values: Vec<(MetricKind, MetricValue)>,
}

impl MetricReport {
    /// The evaluated `(kind, value)` pairs, in plan order.
    #[must_use]
    pub fn values(&self) -> &[(MetricKind, MetricValue)] {
        &self.values
    }

    /// The value for `kind`, if the plan included it.
    #[must_use]
    pub fn get(&self, kind: MetricKind) -> Option<&MetricValue> {
        self.values.iter().find(|(k, _)| *k == kind).map(|(_, v)| v)
    }

    /// Consume the report, yielding the `(kind, value)` pairs in plan order.
    #[must_use]
    pub fn into_values(self) -> Vec<(MetricKind, MetricValue)> {
        self.values
    }
}

/// An audit plan: the set of metrics to evaluate together at one `k`.
///
/// Evaluation runs **one** [`ShardSource::map_shards`] sweep for the whole
/// request: the per-shard kernel computes every column-derived quantity any
/// requested metric needs (base and effective scores, population fairness
/// sums, population group tallies) and, when a metric reads rows, keeps the
/// shard's view, so the storage layer pages each shard exactly once no
/// matter how many metrics are requested.
/// Selection runs on the score vectors alone (pure layout arithmetic,
/// nothing paged), and each metric's measurement reads the ranked rows in
/// place — global row `p` is row `p % shard_size` of kept block
/// `p / shard_size` — the same way for every source.
#[derive(Debug, Clone)]
pub struct MetricPlan {
    kinds: Vec<MetricKind>,
    k: f64,
    log: LogDiscountConfig,
}

/// Per-shard result of the combined scoring sweep.
struct ShardSweep<'s> {
    scores: Vec<f64>,
    base: Vec<f64>,
    fair_sums: Vec<f64>,
    tally: Option<GroupTally>,
    /// The shard's view, kept for measurement when a metric reads rows.
    block: Option<ShardView<'s>>,
}

impl MetricPlan {
    /// Plan the given metrics at selection fraction `k`, deduplicated while
    /// preserving first-occurrence order. The log-discount configuration
    /// defaults to [`LogDiscountConfig::default`]; see
    /// [`Self::with_log_config`].
    #[must_use]
    pub fn new(kinds: &[MetricKind], k: f64) -> Self {
        let mut dedup = Vec::with_capacity(kinds.len().min(MetricKind::ALL.len()));
        for &kind in kinds {
            if !dedup.contains(&kind) {
                dedup.push(kind);
            }
        }
        Self {
            kinds: dedup,
            k,
            log: LogDiscountConfig::default(),
        }
    }

    /// Replace the log-discount configuration used by
    /// [`MetricKind::LogDiscounted`].
    #[must_use]
    pub fn with_log_config(mut self, config: LogDiscountConfig) -> Self {
        self.log = config;
        self
    }

    /// The planned metrics, deduplicated, in first-occurrence order.
    #[must_use]
    pub fn kinds(&self) -> &[MetricKind] {
        &self.kinds
    }

    /// Evaluate the plan with fresh scratch buffers.
    ///
    /// # Errors
    /// Returns an error on an empty dataset, an invalid `k` (only when a
    /// selection metric is planned), an invalid log-discount configuration
    /// (only when the log metric is planned), or missing labels (only when
    /// the FPR metric is planned).
    pub fn evaluate<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
        &self,
        data: &S,
        ranker: &R,
        bonus: &[f64],
    ) -> Result<MetricReport> {
        self.evaluate_with(data, ranker, bonus, &mut ShardedEvalScratch::new())
    }

    /// Evaluate a plan of one vector metric with fresh scratch buffers.
    ///
    /// # Errors
    /// As [`Self::evaluate_vector_into`].
    pub fn evaluate_vector<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
        &self,
        data: &S,
        ranker: &R,
        bonus: &[f64],
    ) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.evaluate_vector_into(
            data,
            ranker,
            bonus,
            &mut ShardedEvalScratch::new(),
            &mut out,
        )?;
        Ok(out)
    }

    /// Evaluate a plan of one vector metric into `out` — the per-step
    /// evaluation of every DCA runner, which plans its objective's metric
    /// with [`crate::dca::Objective::plan`].
    ///
    /// # Errors
    /// As [`Self::evaluate`], plus [`FairError::InvalidConfig`] when the plan
    /// does not hold exactly one vector metric.
    pub fn evaluate_vector_into<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
        &self,
        data: &S,
        ranker: &R,
        bonus: &[f64],
        scratch: &mut ShardedEvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let report = self.evaluate_with(data, ranker, bonus, scratch)?;
        match <[_; 1]>::try_from(report.values) {
            Ok([(_, MetricValue::Vector(v))]) => {
                *out = v;
                Ok(())
            }
            _ => Err(FairError::InvalidConfig {
                reason: "the plan must hold exactly one vector metric".into(),
            }),
        }
    }

    /// [`Self::evaluate`] reusing caller-provided scratch buffers.
    ///
    /// # Errors
    /// As [`Self::evaluate`].
    ///
    /// # Panics
    /// Panics if `bonus.len()` differs from the schema's fairness
    /// dimensionality (the scoring-kernel contract).
    pub fn evaluate_with<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
        &self,
        data: &S,
        ranker: &R,
        bonus: &[f64],
        scratch: &mut ShardedEvalScratch,
    ) -> Result<MetricReport> {
        let has = |kind| self.kinds.contains(&kind);
        let want_ndcg = has(MetricKind::Ndcg);
        let want_log = has(MetricKind::LogDiscounted);
        let want_fpr = has(MetricKind::FprDifference);
        let need_pop = has(MetricKind::Disparity) || want_log;
        let need_counts = want_fpr || has(MetricKind::DisparateImpact);
        // Validation, in the standalone metrics' order: the log config
        // before the empty check, `k` only when a selection metric needs it.
        if want_log {
            self.log.validate()?;
        }
        if self.kinds.is_empty() {
            return Ok(MetricReport { values: Vec::new() });
        }
        if data.is_empty() {
            return Err(FairError::EmptyDataset);
        }
        let count = if has(MetricKind::Disparity) || want_ndcg || need_counts {
            selection_size(data.len(), self.k)?
        } else {
            0
        };
        let checkpoints = if want_log {
            self.log.checkpoints(data.len())
        } else {
            Vec::new()
        };
        let log_last = checkpoints.last().copied().unwrap_or(0);

        let dims = data.schema().num_fairness();
        // Measurement reads the fairness rows (and labels) of the ranked
        // prefix in place, from the blocks the sweep keeps.
        let need_rows = need_pop || need_counts;

        assert_eq!(bonus.len(), dims, "bonus vector dimensionality mismatch");

        // --- Phase 1: the one combined sweep.
        let per_shard = data.map_shards(|shard| -> Result<ShardSweep<'_>> {
            let d = shard.data();
            let mut scores = Vec::new();
            let mut base = Vec::new();
            score_shard_into(
                d,
                ranker,
                bonus,
                want_ndcg.then_some(&mut base),
                &mut scores,
            );
            let fair_sums = if need_pop {
                shard_fair_sums(d)
            } else {
                Vec::new()
            };
            let tally = if need_counts {
                let rows = (0..d.len()).map(|i| (d.fairness_row(i), d.labels()[i]));
                Some(GroupTally::of_rows(dims, rows, want_fpr)?)
            } else {
                None
            };
            Ok(ShardSweep {
                scores,
                base,
                fair_sums,
                tally,
                block: need_rows.then_some(shard),
            })
        });

        // Deterministic in-order combine; the first (lowest-shard) error
        // wins.
        scratch.scores.clear();
        scratch.scores.reserve(data.len());
        scratch.base.clear();
        let mut fair_sums = Vec::with_capacity(data.num_shards());
        let mut blocks = Vec::with_capacity(data.num_shards());
        let mut population: Option<GroupTally> = None;
        for shard in per_shard {
            let shard = shard?;
            scratch.scores.extend_from_slice(&shard.scores);
            scratch.base.extend_from_slice(&shard.base);
            fair_sums.push(shard.fair_sums);
            if let Some(tally) = shard.tally {
                match &mut population {
                    Some(total) => total.merge(&tally),
                    None => population = Some(tally),
                }
            }
            blocks.extend(shard.block);
        }
        let pop = fold_centroid(dims, data.len(), fair_sums.iter().map(Vec::as_slice));

        // --- Phase 2: shared selection — score vectors and shard layout
        // only, nothing paged. The log-discounted prefix and the top-`count`
        // selection are both prefixes of the same canonical ranking (top_m
        // of a larger count starts with top_m of a smaller one, bit for
        // bit), so one partial selection at the larger cutoff serves both.
        let ranked = top_m(data, &scratch.scores, count.max(log_last));
        let selected = &ranked[..count];

        // --- Phase 3: per-metric measurement over the ranked prefix's rows,
        // read in place from the kept blocks.
        let shard_size = data.shard_size();
        let row = |rank: usize| -> &[f64] {
            let p = ranked[rank];
            blocks[p / shard_size].data().fairness_row(p % shard_size)
        };
        let label = |rank: usize| {
            let p = ranked[rank];
            blocks[p / shard_size].data().labels()[p % shard_size]
        };
        let counts = match population {
            Some(population) => {
                let chosen =
                    GroupTally::of_rows(dims, (0..count).map(|r| (row(r), label(r))), false)?;
                Some((population, chosen))
            }
            None => None,
        };

        let mut values = Vec::with_capacity(self.kinds.len());
        for &kind in &self.kinds {
            let value = match kind {
                MetricKind::Disparity => {
                    let mut out = Vec::new();
                    disparity_of_rows((0..count).map(row), &pop, &mut out)?;
                    MetricValue::Vector(out)
                }
                MetricKind::Ndcg => {
                    let original = top_m(data, &scratch.base, count);
                    MetricValue::Scalar(ndcg_of_orders(&scratch.base, &original, selected))
                }
                MetricKind::LogDiscounted => {
                    let mut out = Vec::new();
                    log_discounted_of_rows(&checkpoints, &pop, (0..log_last).map(row), &mut out)?;
                    MetricValue::Vector(out)
                }
                MetricKind::FprDifference => {
                    let (population, chosen) = counts.as_ref().expect("counts tallied");
                    MetricValue::Vector(fpr_difference(population, chosen))
                }
                MetricKind::DisparateImpact => {
                    let (population, chosen) = counts.as_ref().expect("counts tallied");
                    MetricValue::Vector(scaled_disparate_impact(population, chosen))
                }
            };
            values.push((kind, value));
        }
        Ok(MetricReport { values })
    }
}

/// Disparity of the top-`k` selection (Definition 3): selection centroid
/// minus population centroid, the population side reduced shard-wise. A thin
/// single-metric [`MetricPlan`].
///
/// # Errors
/// Returns an error on an empty dataset or invalid `k`.
pub fn disparity_at_k<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    k: f64,
) -> Result<Vec<f64>> {
    MetricPlan::new(&[MetricKind::Disparity], k).evaluate_vector(data, ranker, bonus)
}

/// nDCG@k of the bonus-adjusted ranking against the original (zero-bonus)
/// ranking — the sharded counterpart of [`crate::metrics::ndcg_at_k`], with
/// both top-`k` prefixes found by per-shard partial selection instead of full
/// sorts. A thin single-metric [`MetricPlan`].
///
/// # Errors
/// Returns an error on an empty dataset or invalid `k`.
pub fn ndcg_at_k<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    k: f64,
) -> Result<f64> {
    let report = MetricPlan::new(&[MetricKind::Ndcg], k).evaluate(data, ranker, bonus)?;
    match report.get(MetricKind::Ndcg) {
        Some(MetricValue::Scalar(v)) => Ok(*v),
        _ => unreachable!("planned metric always reported"),
    }
}

/// Logarithmically discounted disparity (Section IV-E) — scoring and
/// checkpoint-prefix selection run shard-wise; the running prefix sums walk
/// the merged ranked prefix in rank order, exactly like the serial metric. A
/// thin single-metric [`MetricPlan`] (the selection fraction is unused).
///
/// # Errors
/// Returns an error on an empty dataset or invalid configuration.
pub fn log_discounted_disparity<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    config: &LogDiscountConfig,
) -> Result<Vec<f64>> {
    MetricPlan::new(&[MetricKind::LogDiscounted], 1.0)
        .with_log_config(*config)
        .evaluate_vector(data, ranker, bonus)
}

/// FPR-difference vector (`FPR_group − FPR_overall`) of the top-`k`
/// selection — the sharded counterpart of
/// [`crate::metrics::fpr_difference_at_k`]. A thin single-metric
/// [`MetricPlan`].
///
/// # Errors
/// Returns an error on empty datasets, invalid `k`, or missing labels.
pub fn fpr_difference_at_k<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    k: f64,
) -> Result<Vec<f64>> {
    MetricPlan::new(&[MetricKind::FprDifference], k).evaluate_vector(data, ranker, bonus)
}

/// Signed, scaled disparate impact of the top-`k` selection — the sharded
/// counterpart of [`crate::metrics::scaled_disparate_impact_at_k`]. A thin
/// single-metric [`MetricPlan`].
///
/// # Errors
/// Returns an error on an empty dataset or invalid `k`.
pub fn scaled_disparate_impact_at_k<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    k: f64,
) -> Result<Vec<f64>> {
    MetricPlan::new(&[MetricKind::DisparateImpact], k).evaluate_vector(data, ranker, bonus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dataset::Dataset;
    use crate::object::DataObject;
    use crate::ranking::topk::RankedSelection;
    use crate::ranking::{SingleFeatureRanker, WeightedSumRanker};
    use crate::shard::ShardedDataset;

    /// A labelled cohort with binary fairness attributes (exact sums) and
    /// tied scores (exercises the deterministic tie-break).
    fn cohort(n: u64) -> Dataset {
        let schema = Schema::from_names(&["s"], &["a", "b"], &[]).unwrap();
        let objects = (0..n)
            .map(|i| {
                let member = i % 3 == 0;
                let other = i % 5 == 0;
                let score = f64::from(u32::try_from((i * 11) % 17).unwrap())
                    - if member { 4.0 } else { 0.0 };
                DataObject::new_unchecked(
                    i,
                    vec![score],
                    vec![f64::from(u8::from(member)), f64::from(u8::from(other))],
                    Some(i % 4 == 0),
                )
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sharded_disparity_matches_serial_bitwise() {
        let flat = cohort(61);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let ranking = RankedSelection::from_scores(crate::ranking::effective_scores(
            &flat,
            &ranker,
            &[2.5, 0.5],
        ));
        for shard_size in [1, 7, 61, 4096] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            for k in [0.05, 0.2, 0.5, 1.0] {
                let serial = crate::metrics::disparity_at_k(&flat, &ranking, k).unwrap();
                let sharded = disparity_at_k(&data, &ranker, &[2.5, 0.5], k).unwrap();
                assert_eq!(bits(&serial), bits(&sharded), "shard {shard_size} k {k}");
            }
        }
    }

    #[test]
    fn sharded_ndcg_matches_serial_bitwise() {
        let flat = cohort(61);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        for shard_size in [1, 7, 61, 4096] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            for bonus in [[0.0, 0.0], [3.0, 1.5]] {
                for k in [0.1, 0.3, 1.0] {
                    let ranking = RankedSelection::from_scores(crate::ranking::effective_scores(
                        &flat, &ranker, &bonus,
                    ));
                    let serial = crate::metrics::ndcg_at_k(&flat, &ranker, &ranking, k).unwrap();
                    let sharded = ndcg_at_k(&data, &ranker, &bonus, k).unwrap();
                    assert_eq!(
                        serial.to_bits(),
                        sharded.to_bits(),
                        "shard {shard_size} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_log_discounted_matches_serial_bitwise() {
        let flat = cohort(83);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let cfg = LogDiscountConfig {
            step: 7,
            max_fraction: 0.6,
        };
        for shard_size in [1, 7, 83, 4096] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            let ranking = RankedSelection::from_scores(crate::ranking::effective_scores(
                &flat,
                &ranker,
                &[1.0, 0.0],
            ));
            let serial = crate::metrics::log_discounted_disparity(&flat, &ranking, &cfg).unwrap();
            let sharded = log_discounted_disparity(&data, &ranker, &[1.0, 0.0], &cfg).unwrap();
            assert_eq!(bits(&serial), bits(&sharded), "shard {shard_size}");
        }
    }

    #[test]
    fn sharded_fpr_and_di_match_serial_bitwise() {
        let flat = cohort(59);
        let ranker = SingleFeatureRanker::new(0);
        for shard_size in [1, 7, 59] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            for k in [0.2, 0.5] {
                let ranking = RankedSelection::from_scores(crate::ranking::effective_scores(
                    &flat,
                    &ranker,
                    &[0.0, -1.0],
                ));
                let serial_fpr = crate::metrics::fpr_difference_at_k(&flat, &ranking, k).unwrap();
                let sharded_fpr = fpr_difference_at_k(&data, &ranker, &[0.0, -1.0], k).unwrap();
                assert_eq!(bits(&serial_fpr), bits(&sharded_fpr), "fpr {shard_size}");
                let serial_di =
                    crate::metrics::scaled_disparate_impact_at_k(&flat, &ranking, k).unwrap();
                let sharded_di =
                    scaled_disparate_impact_at_k(&data, &ranker, &[0.0, -1.0], k).unwrap();
                assert_eq!(bits(&serial_di), bits(&sharded_di), "di {shard_size}");
            }
        }
    }

    #[test]
    fn missing_labels_error_propagates_from_shards() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..10_u64)
            .map(|i| {
                DataObject::new_unchecked(
                    i,
                    vec![i as f64],
                    vec![f64::from(u8::from(i % 2 == 0))],
                    // One unlabelled row in a late shard.
                    if i == 7 { None } else { Some(true) },
                )
            })
            .collect();
        let data = ShardedDataset::from_objects(schema, objects, 3).unwrap();
        let ranker = SingleFeatureRanker::new(0);
        assert!(matches!(
            fpr_difference_at_k(&data, &ranker, &[0.0], 0.5),
            Err(FairError::MissingLabels)
        ));
        // The label-free DI metric still works on the same data.
        assert!(scaled_disparate_impact_at_k(&data, &ranker, &[0.0], 0.5).is_ok());
    }

    #[test]
    fn empty_dataset_errors() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let data = ShardedDataset::with_shard_size(schema, 4).unwrap();
        let ranker = SingleFeatureRanker::new(0);
        assert!(disparity_at_k(&data, &ranker, &[0.0], 0.5).is_err());
        assert!(ndcg_at_k(&data, &ranker, &[0.0], 0.5).is_err());
        assert!(
            log_discounted_disparity(&data, &ranker, &[0.0], &LogDiscountConfig::default())
                .is_err()
        );
        assert!(fpr_difference_at_k(&data, &ranker, &[0.0], 0.5).is_err());
    }
}

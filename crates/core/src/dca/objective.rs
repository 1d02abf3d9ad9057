//! Pluggable optimization objectives for DCA.
//!
//! DCA moves the bonus vector against a vector-valued unfairness measure. The
//! paper's primary objective is the Disparity at a known selection fraction
//! `k` (Definition 3); Section IV-E adds the logarithmically discounted
//! variant for unknown `k`, and Section VI-C5 shows the same algorithm driven
//! by a scaled Disparate Impact or by per-group false-positive-rate
//! differences. Any metric satisfying the contract — one value per fairness
//! attribute, bounded in `[-1, 1]`, 0 meaning fair, sign giving the direction
//! of the imbalance — can drive DCA through the [`Objective`] trait.
//!
//! The hot entry point is [`Objective::evaluate_into`], which reuses the
//! buffers of an [`EvalScratch`] so a DCA step allocates nothing. Objectives
//! whose selection boundary is fixed (`k` known up front) rank their sample
//! through the partial-selection fast path
//! ([`RankedSelection::from_scores_topk`]'s `O(s + m log m)` partition)
//! instead of a full `O(s log s)` sort; the log-discounted objective, which
//! reads many prefixes, keeps the full sort.

use crate::dataset::SampleView;
use crate::dca::scratch::EvalScratch;
use crate::error::Result;
use crate::metrics::sharded::{MetricKind, MetricPlan};
use crate::metrics::{
    disparity_at_k_into, fpr_difference_at_k_into, log_discounted_disparity_into,
    scaled_disparate_impact_at_k_into, LogDiscountConfig,
};
use crate::ranking::topk::{selection_size, RankedSelection};
use crate::ranking::{effective_scores_into, Ranker};

/// A vector-valued unfairness measure that DCA can minimize.
pub trait Objective: Send + Sync {
    /// Evaluate the measure on a (sampled or full) view under the given bonus
    /// values, writing one entry per fairness attribute (each in `[-1, 1]`)
    /// into `out` and reusing the buffers of `scratch` — the allocation-free
    /// path every DCA step takes.
    ///
    /// # Errors
    /// Returns an error on empty views, invalid configurations, or missing
    /// labels (objective-dependent).
    fn evaluate_into<R: Ranker + ?Sized>(
        &self,
        view: &SampleView<'_>,
        ranker: &R,
        bonus: &[f64],
        scratch: &mut EvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<()>;

    /// Convenience wrapper around [`Objective::evaluate_into`] that allocates
    /// fresh buffers and returns the objective vector.
    ///
    /// # Errors
    /// Returns an error on empty views, invalid configurations, or missing
    /// labels (objective-dependent).
    fn evaluate<R: Ranker + ?Sized>(
        &self,
        view: &SampleView<'_>,
        ranker: &R,
        bonus: &[f64],
    ) -> Result<Vec<f64>> {
        let mut scratch = EvalScratch::new();
        let mut out = Vec::new();
        self.evaluate_into(view, ranker, bonus, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// The same measure over a whole cohort, as a single-metric
    /// [`MetricPlan`] — what [`crate::dca::run_full_dca_sharded`] evaluates
    /// at every step, in memory or paged from disk.
    fn plan(&self) -> MetricPlan;

    /// Short name used in reports.
    fn name(&self) -> &'static str;
}

/// Refill the scratch ranking with the view's effective scores. `topk` of
/// `Some(k)` sorts only the top `selection_size(len, k)` positions (the
/// partial-selection fast path for fixed-`k` objectives); `None` fully sorts.
fn rank_view_into<'s, R: Ranker + ?Sized>(
    view: &SampleView<'_>,
    ranker: &R,
    bonus: &[f64],
    topk: Option<f64>,
    scratch: &'s mut EvalScratch,
) -> Result<&'s RankedSelection> {
    let boundary = match topk {
        Some(k) => Some(selection_size(view.len(), k)?),
        None => None,
    };
    scratch.ranking.refill_with(boundary, |scores| {
        effective_scores_into(view, ranker, bonus, scores);
    });
    Ok(&scratch.ranking)
}

/// The paper's primary objective: Disparity of the top-`k` selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKDisparity {
    /// Selection fraction in `(0, 1]`.
    pub k: f64,
}

impl TopKDisparity {
    /// Disparity at selection fraction `k`.
    #[must_use]
    pub fn new(k: f64) -> Self {
        Self { k }
    }
}

impl Objective for TopKDisparity {
    fn evaluate_into<R: Ranker + ?Sized>(
        &self,
        view: &SampleView<'_>,
        ranker: &R,
        bonus: &[f64],
        scratch: &mut EvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        rank_view_into(view, ranker, bonus, Some(self.k), scratch)?;
        disparity_at_k_into(view, &scratch.ranking, self.k, out)
    }

    fn plan(&self) -> MetricPlan {
        MetricPlan::new(&[MetricKind::Disparity], self.k)
    }

    fn name(&self) -> &'static str {
        "disparity@k"
    }
}

/// Logarithmically discounted disparity over many selection sizes
/// (Section IV-E), for use when `k` is unknown at bonus-assignment time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LogDiscountedObjective {
    /// Checkpoint configuration.
    pub config: LogDiscountConfig,
}

impl LogDiscountedObjective {
    /// Log-discounted disparity with the given checkpoint configuration.
    #[must_use]
    pub fn new(config: LogDiscountConfig) -> Self {
        Self { config }
    }
}

impl Objective for LogDiscountedObjective {
    fn evaluate_into<R: Ranker + ?Sized>(
        &self,
        view: &SampleView<'_>,
        ranker: &R,
        bonus: &[f64],
        scratch: &mut EvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        // Reads every checkpoint prefix, so the full sort is required.
        rank_view_into(view, ranker, bonus, None, scratch)?;
        log_discounted_disparity_into(view, &scratch.ranking, &self.config, out)
    }

    fn plan(&self) -> MetricPlan {
        // The selection fraction is unused by the log-discounted metric.
        MetricPlan::new(&[MetricKind::LogDiscounted], 1.0).with_log_config(self.config)
    }

    fn name(&self) -> &'static str {
        "log-discounted disparity"
    }
}

/// Scaled (signed) disparate impact at selection fraction `k`
/// (Section VI-C5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledDisparateImpact {
    /// Selection fraction in `(0, 1]`.
    pub k: f64,
}

impl ScaledDisparateImpact {
    /// Scaled disparate impact at selection fraction `k`.
    #[must_use]
    pub fn new(k: f64) -> Self {
        Self { k }
    }
}

impl Objective for ScaledDisparateImpact {
    fn evaluate_into<R: Ranker + ?Sized>(
        &self,
        view: &SampleView<'_>,
        ranker: &R,
        bonus: &[f64],
        scratch: &mut EvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        rank_view_into(view, ranker, bonus, Some(self.k), scratch)?;
        scaled_disparate_impact_at_k_into(view, &scratch.ranking, self.k, out)
    }

    fn plan(&self) -> MetricPlan {
        MetricPlan::new(&[MetricKind::DisparateImpact], self.k)
    }

    fn name(&self) -> &'static str {
        "scaled disparate impact@k"
    }
}

/// Per-group false-positive-rate difference at selection fraction `k`
/// (Section VI-C5). Requires ground-truth labels on every object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FprDifferenceObjective {
    /// Selection fraction in `(0, 1]` — the flagged (positive-prediction) share.
    pub k: f64,
}

impl FprDifferenceObjective {
    /// FPR-difference objective at selection fraction `k`.
    #[must_use]
    pub fn new(k: f64) -> Self {
        Self { k }
    }
}

impl Objective for FprDifferenceObjective {
    fn evaluate_into<R: Ranker + ?Sized>(
        &self,
        view: &SampleView<'_>,
        ranker: &R,
        bonus: &[f64],
        scratch: &mut EvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        rank_view_into(view, ranker, bonus, Some(self.k), scratch)?;
        fpr_difference_at_k_into(view, &scratch.ranking, self.k, out)
    }

    fn plan(&self) -> MetricPlan {
        MetricPlan::new(&[MetricKind::FprDifference], self.k)
    }

    fn name(&self) -> &'static str {
        "FPR difference@k"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dataset::Dataset;
    use crate::object::DataObject;
    use crate::ranking::WeightedSumRanker;

    fn dataset() -> Dataset {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..20_u64)
            .map(|i| {
                let member = i < 6;
                let score = if member { i as f64 } else { 100.0 + i as f64 };
                DataObject::new_unchecked(
                    i,
                    vec![score],
                    vec![f64::from(u8::from(member))],
                    Some(i % 3 == 0),
                )
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    #[test]
    fn all_objectives_report_negative_direction_for_excluded_group() {
        let d = dataset();
        let view = d.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let b = vec![0.0];

        let disp = TopKDisparity::new(0.25)
            .evaluate(&view, &ranker, &b)
            .unwrap();
        assert!(disp[0] < 0.0);
        let logd = LogDiscountedObjective::default()
            .evaluate(&view, &ranker, &b)
            .unwrap();
        assert!(logd[0] < 0.0);
        let di = ScaledDisparateImpact::new(0.25)
            .evaluate(&view, &ranker, &b)
            .unwrap();
        assert!(di[0] < 0.0);
    }

    #[test]
    fn objectives_report_their_names() {
        assert_eq!(TopKDisparity::new(0.05).name(), "disparity@k");
        assert_eq!(
            LogDiscountedObjective::default().name(),
            "log-discounted disparity"
        );
        assert_eq!(
            ScaledDisparateImpact::new(0.05).name(),
            "scaled disparate impact@k"
        );
        assert_eq!(FprDifferenceObjective::new(0.05).name(), "FPR difference@k");
    }

    #[test]
    fn fpr_objective_requires_labels_and_works_when_present() {
        let d = dataset();
        let view = d.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let fpr = FprDifferenceObjective::new(0.25)
            .evaluate(&view, &ranker, &[0.0])
            .unwrap();
        assert_eq!(fpr.len(), 1);
        assert!(fpr[0].abs() <= 1.0);
    }

    #[test]
    fn bonus_changes_objective_value() {
        let d = dataset();
        let view = d.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let obj = TopKDisparity::new(0.25);
        let before = obj.evaluate(&view, &ranker, &[0.0]).unwrap()[0];
        let after = obj.evaluate(&view, &ranker, &[1_000.0]).unwrap()[0];
        assert!(before < 0.0 && after > 0.0);
    }

    #[test]
    fn evaluate_into_with_reused_scratch_matches_fresh_evaluation() {
        let d = dataset();
        let view = d.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let mut scratch = EvalScratch::new();
        let mut out = Vec::new();
        // Interleave objectives with different ranking modes (partial vs
        // full) through the same scratch to prove refills are clean.
        for bonus in [0.0, 5.0, 50.0, 0.0] {
            for k in [0.1, 0.25, 0.5] {
                let obj = TopKDisparity::new(k);
                obj.evaluate_into(&view, &ranker, &[bonus], &mut scratch, &mut out)
                    .unwrap();
                assert_eq!(out, obj.evaluate(&view, &ranker, &[bonus]).unwrap());
            }
            let logd = LogDiscountedObjective::default();
            logd.evaluate_into(&view, &ranker, &[bonus], &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, logd.evaluate(&view, &ranker, &[bonus]).unwrap());
            let fpr = FprDifferenceObjective::new(0.25);
            fpr.evaluate_into(&view, &ranker, &[bonus], &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, fpr.evaluate(&view, &ranker, &[bonus]).unwrap());
        }
    }
}

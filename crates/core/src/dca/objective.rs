//! The optimization objectives DCA descends against.
//!
//! DCA moves the bonus vector against a vector-valued unfairness measure. The
//! paper's primary objective is the Disparity at a known selection fraction
//! `k` (Definition 3); Section IV-E adds the logarithmically discounted
//! variant for unknown `k`, and Section VI-C5 shows the same algorithm driven
//! by a scaled Disparate Impact or by per-group false-positive-rate
//! differences. Each measure returns one value per fairness attribute,
//! bounded in `[-1, 1]`, 0 meaning fair, the sign giving the direction of the
//! imbalance.
//!
//! An [`Objective`] is a single-metric [`MetricPlan`], and that plan is the
//! only evaluator every DCA runner uses: Core and refinement steps evaluate
//! it over their gathered sample as a one-shard source, Full DCA over the
//! whole cohort, in memory or paged. Fixed-`k` objectives select their top
//! `k·s` rows by partial selection; the log-discounted objective selects the
//! prefix its last checkpoint reads.

use crate::metrics::sharded::{MetricKind, MetricPlan};
use crate::metrics::LogDiscountConfig;

/// A vector-valued unfairness measure that DCA can minimize.
pub trait Objective: Send + Sync {
    /// The measure as a single-metric [`MetricPlan`] — what every DCA runner
    /// evaluates at every step, on a sample or on the whole cohort.
    fn plan(&self) -> MetricPlan;

    /// Short name used in reports.
    fn name(&self) -> &'static str;
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
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let b = vec![0.0];

        let disp = TopKDisparity::new(0.25)
            .plan()
            .evaluate_vector(&d, &ranker, &b)
            .unwrap();
        assert!(disp[0] < 0.0);
        let logd = LogDiscountedObjective::default()
            .plan()
            .evaluate_vector(&d, &ranker, &b)
            .unwrap();
        assert!(logd[0] < 0.0);
        let di = ScaledDisparateImpact::new(0.25)
            .plan()
            .evaluate_vector(&d, &ranker, &b)
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
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let fpr = FprDifferenceObjective::new(0.25)
            .plan()
            .evaluate_vector(&d, &ranker, &[0.0])
            .unwrap();
        assert_eq!(fpr.len(), 1);
        assert!(fpr[0].abs() <= 1.0);
    }

    #[test]
    fn bonus_changes_objective_value() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let plan = TopKDisparity::new(0.25).plan();
        let before = plan.evaluate_vector(&d, &ranker, &[0.0]).unwrap()[0];
        let after = plan.evaluate_vector(&d, &ranker, &[1_000.0]).unwrap()[0];
        assert!(before < 0.0 && after > 0.0);
    }
}

//! The Disparity Compensation Algorithm (DCA) — the paper's primary
//! contribution.
//!
//! * [`run_core_dca`] — Algorithm 1: sampled descent over a decreasing
//!   learning-rate ladder.
//! * [`run_refinement`] — Algorithm 2: Adam-driven refinement, iterate
//!   averaging and granularity rounding.
//! * [`run_full_dca_sharded`] (and its `_controlled` form) — the
//!   non-sampled variant used in the accuracy analysis, over any
//!   [`crate::ShardSource`], a plain `Dataset` (one shard) included.
//! * [`run_core_dca_sharded`] (and its `_controlled` form) — Core DCA with
//!   per-shard sampling, in memory or paged from disk; [`run_full_descent`]
//!   and [`run_core_dca_gathered`] are the hooks a distributed coordinator
//!   drives with its own evaluation or sample gather.
//! * [`Dca`] — the user-facing facade that chains Core DCA and the refinement
//!   step and returns a ready-to-publish [`crate::bonus::BonusVector`] plus a
//!   [`DcaReport`] with evaluation and timing details.
//!
//! Every Core and Full runner executes one private descent loop
//! ([`self::core`]'s driver), every Core runner — serial, sharded, paged and
//! fleet — runs it through [`run_core_dca_gathered`] with its own gather
//! step, and every runner evaluates its objective the same way: the
//! objective is a single-metric
//! [`crate::metrics::sharded::MetricPlan`] ([`Objective::plan`]), built once
//! per run and evaluated at every step — over the step's gathered sample, a
//! reused `Dataset` that is a one-shard source, for Core DCA and the
//! refinement, over the whole cohort for Full DCA. A sampled step's
//! one-shard sweep and selection run their [`crate::parallel_map`] calls
//! inline, and each still counts in `fair_parallel_sweeps_total`. The
//! runners differ only in how a step samples, so in-memory, paged and fleet
//! trajectories agree bit for bit because they run the same code.
//! Algorithm 2's Adam loop stays separate — a different update rule with no
//! learning-rate ladder.
//!
//! ```
//! use fair_core::prelude::*;
//! use rand::{Rng, SeedableRng};
//!
//! // A toy population where group members score 15 points lower on average.
//! let schema = Schema::from_names(&["score"], &["group"], &[]).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let objects: Vec<_> = (0..2000u64)
//!     .map(|i| {
//!         let member = rng.gen::<f64>() < 0.3;
//!         let score = rng.gen::<f64>() * 100.0 - if member { 15.0 } else { 0.0 };
//!         DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
//!     })
//!     .collect();
//! let dataset = Dataset::new(schema, objects).unwrap();
//! let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
//!
//! let config = DcaConfig { sample_size: 200, iterations_per_rate: 30,
//!                          refinement_iterations: 30, rolling_window: 30,
//!                          learning_rates: vec![10.0, 1.0], ..DcaConfig::default() };
//! let result = Dca::new(config).run(&dataset, &ranker, &TopKDisparity::new(0.1)).unwrap();
//! assert!(result.report.disparity_after.norm() < result.report.disparity_before.norm());
//! ```

pub mod config;
pub mod control;
pub mod core;
pub mod full;
pub mod objective;
pub mod partial;
pub mod refine;
pub mod sharded;

pub use self::core::{run_core_dca, CoreDcaOutcome, CoreTraceEntry};
pub use config::{DcaConfig, CLT_MINIMUM};
pub use control::{step_duration_hook, DcaProgress, RunControl};
pub use full::run_full_descent;
pub use objective::{
    FprDifferenceObjective, LogDiscountedObjective, Objective, ScaledDisparateImpact, TopKDisparity,
};
pub use partial::{combine_disparity_partials, disparity_partials, DisparityPartial};
pub use refine::{run_refinement, RefinementOutcome};
pub use sharded::{
    run_core_dca_gathered, run_core_dca_sharded, run_core_dca_sharded_controlled,
    run_full_dca_sharded, run_full_dca_sharded_controlled,
};

use crate::bonus::BonusVector;
use crate::dataset::Dataset;
use crate::error::Result;
use crate::metrics::disparity::DisparityVector;
use crate::ranking::Ranker;
use std::time::{Duration, Instant};

/// Evaluation and timing summary of a DCA run.
#[derive(Debug, Clone, PartialEq)]
pub struct DcaReport {
    /// Objective vector on the full dataset before any bonus points.
    pub disparity_before: DisparityVector,
    /// Objective vector on the full dataset under the Core DCA bonus.
    pub disparity_core: DisparityVector,
    /// Objective vector on the full dataset under the final (refined) bonus.
    pub disparity_after: DisparityVector,
    /// Core DCA bonus values, rounded to the configured granularity for
    /// reporting (the paper's "Core DCA" rows).
    pub core_bonus: Vec<f64>,
    /// Wall-clock time of the Core DCA phase.
    pub core_time: Duration,
    /// Wall-clock time of the refinement phase.
    pub refinement_time: Duration,
    /// Objects scored by Core DCA (work proxy).
    pub core_objects_scored: usize,
    /// Objects scored by the refinement phase.
    pub refinement_objects_scored: usize,
}

/// Result of [`Dca::run`]: the published bonus vector plus the report.
#[derive(Debug, Clone, PartialEq)]
pub struct DcaResult {
    /// The final bonus vector (refined, averaged, rounded, clamped).
    pub bonus: BonusVector,
    /// Evaluation and timing details.
    pub report: DcaReport,
}

/// User-facing facade: Core DCA followed by the refinement step.
#[derive(Debug, Clone)]
pub struct Dca {
    config: DcaConfig,
}

impl Dca {
    /// Create a DCA runner with the given configuration.
    #[must_use]
    pub fn new(config: DcaConfig) -> Self {
        Self { config }
    }

    /// Create a runner with the paper's default configuration.
    #[must_use]
    pub fn with_paper_defaults() -> Self {
        Self::new(DcaConfig::paper_default())
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &DcaConfig {
        &self.config
    }

    /// Run DCA end to end on a dataset: Core DCA, then (unless
    /// `refinement_iterations == 0`) the Adam refinement, then evaluation of
    /// the before/after objective on the full dataset — its plan over
    /// `dataset` in place, a one-shard source.
    ///
    /// # Errors
    /// Returns an error for invalid configurations, empty datasets, or
    /// objective failures.
    pub fn run<R, O>(&self, dataset: &Dataset, ranker: &R, objective: &O) -> Result<DcaResult>
    where
        R: Ranker + ?Sized,
        O: Objective + ?Sized,
    {
        let schema = dataset.schema().clone();
        let names: Vec<String> = schema
            .fairness_names()
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let plan = objective.plan();

        // Baseline objective (no bonus).
        let zero = vec![0.0; schema.num_fairness()];
        let before = plan.evaluate_vector(dataset, ranker, &zero)?;

        // Phase 1: Core DCA.
        let core_start = Instant::now();
        let core = run_core_dca(dataset, ranker, objective, &self.config, None, false)?;
        let core_time = core_start.elapsed();
        let core_eval = plan.evaluate_vector(dataset, ranker, &core.bonus)?;
        let core_bonus_rounded = match self.config.granularity {
            Some(g) => core.bonus.iter().map(|v| (v / g).round() * g).collect(),
            None => core.bonus.clone(),
        };

        // Phase 2: refinement (optional).
        let refine_start = Instant::now();
        let (final_values, refinement_objects) = if self.config.refinement_iterations > 0 {
            let refined = run_refinement(dataset, ranker, objective, &self.config, core.bonus)?;
            (refined.bonus, refined.objects_scored)
        } else {
            (core_bonus_rounded.clone(), 0)
        };
        let refinement_time = refine_start.elapsed();

        let after = plan.evaluate_vector(dataset, ranker, &final_values)?;
        let bonus = BonusVector::new(schema, final_values, self.config.polarity)?;

        Ok(DcaResult {
            bonus,
            report: DcaReport {
                disparity_before: DisparityVector::new(names.clone(), before),
                disparity_core: DisparityVector::new(names.clone(), core_eval),
                disparity_after: DisparityVector::new(names, after),
                core_bonus: core_bonus_rounded,
                core_time,
                refinement_time,
                core_objects_scored: core.objects_scored,
                refinement_objects_scored: refinement_objects,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::object::DataObject;
    use crate::ranking::WeightedSumRanker;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn biased_dataset(n: u64, seed: u64) -> Dataset {
        let schema = Schema::from_names(&["score"], &["low_income", "ell"], &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = (0..n)
            .map(|i| {
                let li = rng.gen::<f64>() < 0.5;
                let ell = rng.gen::<f64>() < 0.15;
                let mut score = rng.gen::<f64>() * 100.0;
                if li {
                    score -= 12.0;
                }
                if ell {
                    score -= 18.0;
                }
                DataObject::new_unchecked(
                    i,
                    vec![score],
                    vec![f64::from(u8::from(li)), f64::from(u8::from(ell))],
                    None,
                )
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn fast_config() -> DcaConfig {
        DcaConfig {
            sample_size: 300,
            learning_rates: vec![10.0, 1.0],
            iterations_per_rate: 40,
            refinement_iterations: 40,
            rolling_window: 40,
            seed: 99,
            ..DcaConfig::default()
        }
    }

    #[test]
    fn end_to_end_reduces_multidimensional_disparity() {
        let dataset = biased_dataset(5000, 42);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let result = Dca::new(fast_config())
            .run(&dataset, &ranker, &TopKDisparity::new(0.1))
            .unwrap();
        let before = result.report.disparity_before.norm();
        let after = result.report.disparity_after.norm();
        assert!(
            before > 0.15,
            "baseline should be clearly disparate: {before}"
        );
        assert!(
            after < before * 0.4,
            "DCA should cut the norm substantially: {after} vs {before}"
        );
        // Both disadvantaged groups should receive non-negative bonuses and at
        // least one should be clearly positive.
        let values = result.bonus.values();
        assert!(values.iter().all(|v| *v >= 0.0));
        assert!(values.iter().any(|v| *v > 0.5));
    }

    #[test]
    fn report_contains_core_and_refined_evaluations_and_timings() {
        let dataset = biased_dataset(3000, 7);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let result = Dca::new(fast_config())
            .run(&dataset, &ranker, &TopKDisparity::new(0.1))
            .unwrap();
        let r = &result.report;
        assert_eq!(r.disparity_before.values().len(), 2);
        assert_eq!(r.core_bonus.len(), 2);
        assert!(r.core_time > Duration::ZERO);
        assert!(r.core_objects_scored > 0);
        assert!(r.refinement_objects_scored > 0);
        // Core-phase result should already improve over the baseline.
        assert!(r.disparity_core.norm() < r.disparity_before.norm());
    }

    #[test]
    fn refinement_can_be_disabled() {
        let dataset = biased_dataset(2000, 7);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let mut config = fast_config();
        config.refinement_iterations = 0;
        let result = Dca::new(config)
            .run(&dataset, &ranker, &TopKDisparity::new(0.1))
            .unwrap();
        assert_eq!(result.report.refinement_objects_scored, 0);
        // Without refinement the published bonus equals the rounded core bonus.
        assert_eq!(result.bonus.values(), result.report.core_bonus.as_slice());
    }

    #[test]
    fn final_bonus_respects_granularity() {
        let dataset = biased_dataset(2000, 11);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let result = Dca::new(fast_config())
            .run(&dataset, &ranker, &TopKDisparity::new(0.1))
            .unwrap();
        for v in result.bonus.values() {
            let scaled = v / 0.5;
            assert!(
                (scaled - scaled.round()).abs() < 1e-9,
                "{v} not on a 0.5 grid"
            );
        }
    }

    #[test]
    fn paper_default_constructor_works() {
        let dca = Dca::with_paper_defaults();
        assert_eq!(dca.config().sample_size, 500);
    }
}

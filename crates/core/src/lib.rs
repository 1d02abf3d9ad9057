//! # fair-core — explainable disparity compensation for score-based rankings
//!
//! This crate implements the data model, fairness metrics and the **Disparity
//! Compensation Algorithm (DCA)** of *Explainable Disparity Compensation for
//! Efficient Fair Ranking* (Gale & Marian, ICDE 2024).
//!
//! The central idea: instead of opaquely re-ranking results or maintaining
//! quota systems, publish **compensatory bonus points** per protected
//! (fairness) attribute. Members of disadvantaged groups have the bonus added
//! to their ranking score; the bonus values themselves are chosen by a
//! sampling-based descent (DCA) so that the **disparity** — the gap between
//! the fairness centroid of the selected top-k% and the fairness centroid of
//! the whole population — is driven to zero.
//!
//! ## Crate layout
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`attributes`] | schemas: ranking features + binary/continuous fairness attributes |
//! | [`object`], [`dataset`] | the ranked objects, datasets, selection centroids, sampling |
//! | [`shard`] | sharded column store + the shard-wise parallel evaluation engine |
//! | [`ranking`] | score-based ranking functions and top-k% selection |
//! | [`bonus`] | bonus vectors: polarity, caps, granularity rounding, scaling |
//! | [`calibrate`] | binary-search calibration of the intervention strength (Fig. 2) |
//! | [`explain`] | per-applicant score breakdowns and threshold-margin explanations |
//! | [`metrics`] | Disparity, log-discounted disparity, disparate impact, FPR difference, exposure/DDP, nDCG |
//! | [`dca`] | Core DCA, the Adam refinement step, Full DCA, and the [`dca::Dca`] facade |
//! | [`fault`] | deterministic fault injection (`FAIR_FAULT`) for robustness testing |
//! | [`kernel`] | chunked f64x4 scoring/centroid kernels in one canonical accumulation order |
//! | [`obs`] | metrics registry (counters/gauges/histograms, Prometheus exposition) + `FAIR_LOG` structured tracing |
//! | [`error`] | [`error::FairError`] and the crate-wide [`error::Result`] alias |
//!
//! ## Quick example
//!
//! ```
//! use fair_core::prelude::*;
//! use rand::{Rng, SeedableRng};
//!
//! // Build a small biased population.
//! let schema = Schema::from_names(&["score"], &["low_income"], &[]).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let objects: Vec<_> = (0..1500u64)
//!     .map(|i| {
//!         let li = rng.gen::<f64>() < 0.4;
//!         let score = rng.gen::<f64>() * 100.0 - if li { 10.0 } else { 0.0 };
//!         DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(li))], None)
//!     })
//!     .collect();
//! let dataset = Dataset::new(schema, objects).unwrap();
//!
//! // Rank by the single score feature and compensate the top-10% selection.
//! let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
//! let config = DcaConfig { sample_size: 150, iterations_per_rate: 25,
//!                          refinement_iterations: 25, rolling_window: 25,
//!                          learning_rates: vec![10.0, 1.0], ..DcaConfig::default() };
//! let result = Dca::new(config).run(&dataset, &ranker, &TopKDisparity::new(0.1)).unwrap();
//!
//! println!("{}", result.bonus.explain());
//! assert!(result.report.disparity_after.norm() <= result.report.disparity_before.norm());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::all)]

pub mod attributes;
pub mod bonus;
pub mod calibrate;
pub mod dataset;
pub mod dca;
pub mod error;
pub mod explain;
pub mod fault;
pub mod kernel;
pub mod metrics;
pub mod object;
pub mod obs;
pub mod parallel;
pub mod ranking;
pub mod shard;

pub use attributes::{FairnessAttribute, FairnessKind, Schema, SchemaRef};
pub use bonus::{BonusCaps, BonusPolarity, BonusVector};
pub use calibrate::{calibrate_proportion, CalibrationResult, CalibrationTarget};
pub use dataset::Dataset;
pub use dca::{Dca, DcaConfig, DcaReport, DcaResult};
pub use error::{FairError, Result};
pub use fault::{FaultMode, FaultPlan};
pub use object::{DataObject, ObjectId, ObjectView};
pub use parallel::{max_workers, parallel_map};
pub use shard::{
    sample_indices_range_into, shard_seed, ShardSource, ShardView, ShardedDataset,
    DEFAULT_SHARD_SIZE,
};

/// Convenient glob import for applications and examples.
pub mod prelude {
    pub use crate::attributes::{FairnessAttribute, FairnessKind, Schema, SchemaRef};
    pub use crate::bonus::{BonusCaps, BonusPolarity, BonusVector};
    pub use crate::calibrate::{calibrate_proportion, CalibrationResult, CalibrationTarget};
    pub use crate::dataset::Dataset;
    pub use crate::dca::{
        run_core_dca, run_core_dca_sharded, run_core_dca_sharded_controlled, run_full_dca_sharded,
        run_full_dca_sharded_controlled, run_refinement, step_duration_hook, Dca, DcaConfig,
        DcaProgress, DcaReport, DcaResult, FprDifferenceObjective, LogDiscountedObjective,
        Objective, RunControl, ScaledDisparateImpact, TopKDisparity,
    };
    pub use crate::error::{FairError, Result};
    pub use crate::explain::{
        score_breakdown, selection_outcome, OutcomeExplanation, ScoreBreakdown,
    };
    pub use crate::metrics::{
        ddp_for_binary_attributes, disparate_impact_at_k, disparity_at_k, exposure_of_group,
        fpr_difference_at_k, group_fpr_at_k, log_discounted_disparity, ndcg_at_k, norm,
        DisparityVector, LogDiscountConfig,
    };
    pub use crate::object::{DataObject, ObjectId, ObjectView};
    pub use crate::parallel::{max_workers, parallel_map};
    pub use crate::ranking::{
        base_scores, base_scores_into, effective_scores, effective_scores_into, selection_size,
        NormalizedWeightedSum, RankedSelection, Ranker, SingleFeatureRanker, WeightedSumRanker,
    };
    pub use crate::shard::{
        shard_seed, ShardSource, ShardView, ShardedDataset, DEFAULT_SHARD_SIZE,
    };
}

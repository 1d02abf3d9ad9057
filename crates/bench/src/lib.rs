//! # fair-bench — experiment harness regenerating every table and figure
//!
//! One module (and one binary) per experiment of the paper's evaluation
//! section. Each experiment function is pure computation over the synthetic
//! datasets of [`fair_data`] and returns a structured result with a
//! plain-text rendering, so the same code backs:
//!
//! * the `cargo run -p fair-bench --release --bin <experiment>` binaries that
//!   print paper-style tables,
//! * the Criterion benchmarks in `benches/`,
//! * the cross-crate integration tests at the workspace root.
//!
//! The experiment scale (cohort sizes, DCA iteration counts) defaults to a
//! laptop-friendly setting and can be raised to the paper's full scale with
//! the `FAIR_BENCH_SCALE=full` environment variable (see [`ExperimentScale`]).

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::all)]

pub mod datasets;
pub mod experiments;
pub mod table;

pub use datasets::{standard_compas, standard_school_pair, ExperimentScale};
pub use table::TextTable;

use fair_core::prelude::*;

/// A per-`k` evaluation point used by most figures: the disparity vector, its
/// norm, and the nDCG utility at that selection fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Selection fraction.
    pub k: f64,
    /// Per-dimension disparity at `k`.
    pub disparity: Vec<f64>,
    /// L2 norm of the disparity.
    pub norm: f64,
    /// nDCG@k of the bonus-adjusted ranking against the original one.
    pub ndcg: f64,
}

/// Evaluate the disparity and utility of a bonus vector over a range of
/// selection fractions — the workhorse behind Figures 1, 4, 8 and 10.
///
/// # Errors
/// Returns an error on empty datasets or invalid fractions.
pub fn disparity_curve<R: Ranker + ?Sized>(
    dataset: &Dataset,
    ranker: &R,
    bonus: &[f64],
    ks: &[f64],
) -> Result<Vec<CurvePoint>> {
    let ranking = RankedSelection::from_scores(effective_scores(dataset, ranker, bonus));
    let mut points = Vec::with_capacity(ks.len());
    for &k in ks {
        let disparity = disparity_at_k(dataset, &ranking, k)?;
        let ndcg = ndcg_at_k(dataset, ranker, &ranking, k)?;
        points.push(CurvePoint {
            k,
            norm: norm(&disparity),
            disparity,
            ndcg,
        });
    }
    Ok(points)
}

/// Disparity vector of a bonus-adjusted top-`k` selection on a full dataset.
///
/// # Errors
/// Returns an error on empty datasets or invalid fractions.
pub fn eval_disparity<R: Ranker + ?Sized>(
    dataset: &Dataset,
    ranker: &R,
    bonus: &[f64],
    k: f64,
) -> Result<Vec<f64>> {
    let ranking = RankedSelection::from_scores(effective_scores(dataset, ranker, bonus));
    disparity_at_k(dataset, &ranking, k)
}

/// nDCG@k of a bonus-adjusted ranking on a full dataset.
///
/// # Errors
/// Returns an error on empty datasets or invalid fractions.
pub fn eval_ndcg<R: Ranker + ?Sized>(
    dataset: &Dataset,
    ranker: &R,
    bonus: &[f64],
    k: f64,
) -> Result<f64> {
    let ranking = RankedSelection::from_scores(effective_scores(dataset, ranker, bonus));
    ndcg_at_k(dataset, ranker, &ranking, k)
}

/// The default selection-fraction grid used by the paper's per-k figures
/// (0.05, 0.10, …, 0.50).
#[must_use]
pub fn k_grid() -> Vec<f64> {
    (1..=10).map(|i| i as f64 * 0.05).collect()
}

/// A DCA configuration scaled for interactive experiments: the paper's
/// structure (two learning rates + Adam refinement + rolling average +
/// 0.5-point rounding) with iteration counts controlled by `scale`.
#[must_use]
pub fn experiment_dca_config(scale: &ExperimentScale, seed: u64) -> DcaConfig {
    DcaConfig {
        sample_size: scale.dca_sample_size,
        learning_rates: vec![1.0, 0.1],
        iterations_per_rate: scale.dca_iterations,
        refinement_iterations: scale.dca_iterations,
        rolling_window: scale.dca_iterations,
        seed,
        ..DcaConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_grid_covers_five_to_fifty_percent() {
        let ks = k_grid();
        assert_eq!(ks.len(), 10);
        assert!((ks[0] - 0.05).abs() < 1e-12);
        assert!((ks[9] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn curve_matches_pointwise_evaluation() {
        let scale = ExperimentScale::tiny();
        let (train, _) = standard_school_pair(&scale);
        let ranker = fair_data::SchoolGenerator::rubric();
        let curve = disparity_curve(train.dataset(), &ranker, &[0.0; 4], &[0.05, 0.2]).unwrap();
        assert_eq!(curve.len(), 2);
        let direct = eval_disparity(train.dataset(), &ranker, &[0.0; 4], 0.05).unwrap();
        assert_eq!(curve[0].disparity, direct);
        assert!(
            (curve[0].ndcg - 1.0).abs() < 1e-12,
            "zero bonus leaves the ranking unchanged"
        );
        assert!(curve[0].norm > 0.0);
    }

    #[test]
    fn experiment_config_respects_scale() {
        let scale = ExperimentScale::tiny();
        let config = experiment_dca_config(&scale, 1);
        assert_eq!(config.sample_size, scale.dca_sample_size);
        assert_eq!(config.iterations_per_rate, scale.dca_iterations);
        assert!(config.validate(4).is_ok());
    }
}

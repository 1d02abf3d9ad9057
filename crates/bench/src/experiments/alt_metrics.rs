//! Figure 9 — DCA driven by Disparity vs by (scaled) Disparate Impact.
//!
//! The same descent is run twice per selection fraction, once against each
//! metric; both the resulting disparity norm and the disparate-impact measure
//! are reported, showing the two objectives behave similarly (Section VI-C5).

use crate::datasets::{standard_school_pair, ExperimentScale};
use crate::experiment_dca_config;
use crate::table::TextTable;
use fair_core::metrics::scaled_disparate_impact_at_k;
use fair_core::prelude::*;
use fair_data::SchoolGenerator;
use std::time::Duration;

/// One per-k row of the Figure 9 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Selection fraction.
    pub k: f64,
    /// Disparity norm when optimizing Disparity.
    pub disparity_norm_with_disparity: f64,
    /// Disparity norm when optimizing Disparate Impact.
    pub disparity_norm_with_di: f64,
    /// Scaled-DI norm when optimizing Disparity.
    pub di_norm_with_disparity: f64,
    /// Scaled-DI norm when optimizing Disparate Impact.
    pub di_norm_with_di: f64,
}

/// Result of the Figure 9 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// Per-k rows.
    pub rows: Vec<Fig9Row>,
    /// Wall-clock time of all Disparity-driven runs.
    pub disparity_time: Duration,
    /// Wall-clock time of all DI-driven runs.
    pub di_time: Duration,
}

impl Fig9Result {
    /// Render the comparison.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            "Figure 9 — DCA optimizing Disparity vs Disparate Impact",
            &[
                "k",
                "Disp norm (Disp obj)",
                "Disp norm (DI obj)",
                "DI norm (Disp obj)",
                "DI norm (DI obj)",
            ],
        );
        for r in &self.rows {
            table.add_row(vec![
                format!("{:.2}", r.k),
                format!("{:.3}", r.disparity_norm_with_disparity),
                format!("{:.3}", r.disparity_norm_with_di),
                format!("{:.3}", r.di_norm_with_disparity),
                format!("{:.3}", r.di_norm_with_di),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "Disparity-driven total time: {} ms, DI-driven total time: {} ms\n",
            self.disparity_time.as_millis(),
            self.di_time.as_millis()
        ));
        out
    }
}

/// Run the Figure 9 comparison over the given selection fractions (defaults
/// to `{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}`).
///
/// # Errors
/// Returns an error if DCA or the evaluation fails.
pub fn run_disparate_impact_comparison(
    scale: &ExperimentScale,
    ks: Option<Vec<f64>>,
) -> Result<Fig9Result> {
    let ks = ks.unwrap_or_else(|| vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5]);
    let (train, test) = standard_school_pair(scale);
    let rubric = SchoolGenerator::rubric();
    let test_data = test.dataset();

    let evaluate = |bonus: &[f64], k: f64| -> Result<(f64, f64)> {
        let ranking = RankedSelection::from_scores(effective_scores(test_data, &rubric, bonus));
        let disp = disparity_at_k(test_data, &ranking, k)?;
        let di = scaled_disparate_impact_at_k(test_data, &ranking, k)?;
        Ok((norm(&disp), norm(&di)))
    };

    let mut rows = Vec::new();
    let mut disparity_time = Duration::ZERO;
    let mut di_time = Duration::ZERO;
    for &k in &ks {
        let config = experiment_dca_config(scale, scale.seed);
        let t = std::time::Instant::now();
        let with_disparity =
            Dca::new(config.clone()).run(train.dataset(), &rubric, &TopKDisparity::new(k))?;
        disparity_time += t.elapsed();
        let t = std::time::Instant::now();
        let with_di =
            Dca::new(config).run(train.dataset(), &rubric, &ScaledDisparateImpact::new(k))?;
        di_time += t.elapsed();

        let (disp_a, di_a) = evaluate(with_disparity.bonus.values(), k)?;
        let (disp_b, di_b) = evaluate(with_di.bonus.values(), k)?;
        rows.push(Fig9Row {
            k,
            disparity_norm_with_disparity: disp_a,
            disparity_norm_with_di: disp_b,
            di_norm_with_disparity: di_a,
            di_norm_with_di: di_b,
        });
    }
    Ok(Fig9Result {
        rows,
        disparity_time,
        di_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::standard_school_pair;
    use crate::eval_disparity;

    #[test]
    fn both_objectives_reduce_disparity_similarly() {
        let scale = ExperimentScale {
            dca_iterations: 30,
            ..ExperimentScale::tiny()
        };
        let result = run_disparate_impact_comparison(&scale, Some(vec![0.05, 0.2])).unwrap();
        assert_eq!(result.rows.len(), 2);
        let (_, test) = standard_school_pair(&scale);
        let rubric = SchoolGenerator::rubric();
        for row in &result.rows {
            let baseline =
                norm(&eval_disparity(test.dataset(), &rubric, &[0.0; 4], row.k).unwrap());
            assert!(row.disparity_norm_with_disparity < baseline);
            assert!(row.disparity_norm_with_di < baseline);
            // The two objectives land in the same neighbourhood.
            assert!(
                (row.disparity_norm_with_disparity - row.disparity_norm_with_di).abs() < 0.2,
                "{row:?}"
            );
        }
        assert!(result.render().contains("Figure 9"));
    }
}

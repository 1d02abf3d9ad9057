//! Figures 10a–10c — DCA on the COMPAS-like recidivism data.
//!
//! Being selected (flagged as high risk by the decile score) is the
//! *unfavorable* outcome, so DCA runs with non-positive bonus points that
//! subtract from the effective decile of over-flagged groups.
//!
//! * **Figure 10a**: per-k disparity of the flagged set by race, before and
//!   after bonus points optimized for each `k`.
//! * **Figure 10b**: per-k false-positive rates by race after FPR-driven DCA.
//! * **Figure 10c**: a single log-discounted DCA run evaluated across `k` —
//!   coarse decile scores make the curve move in steps.

use crate::datasets::{standard_compas, ExperimentScale};
use crate::table::TextTable;
use crate::{eval_disparity, experiment_dca_config, k_grid};
use fair_core::metrics::group_fpr_at_k;
use fair_core::prelude::*;
use fair_data::CompasGenerator;

/// Per-k before/after disparity rows (Figure 10a) or FPR rows (Figure 10b).
#[derive(Debug, Clone, PartialEq)]
pub struct CompasRow {
    /// Selection (flagging) fraction.
    pub k: f64,
    /// Per-group values before the intervention.
    pub before: Vec<f64>,
    /// Per-group values after the intervention.
    pub after: Vec<f64>,
    /// The (non-positive) bonus vector used.
    pub bonus: Vec<f64>,
}

/// Result of a COMPAS per-k experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CompasResult {
    /// Race-group names (fairness dimensions).
    pub names: Vec<String>,
    /// What the values measure ("disparity" or "FPR").
    pub measure: String,
    /// Per-k rows.
    pub rows: Vec<CompasRow>,
}

impl CompasResult {
    /// Render before/after norms per k.
    #[must_use]
    pub fn render(&self, title: &str) -> String {
        let mut header = vec![
            "k".to_string(),
            "Norm before".to_string(),
            "Norm after".to_string(),
        ];
        header.extend(self.names.iter().map(|n| format!("{n} (after)")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = TextTable::new(title, &header_refs);
        for row in &self.rows {
            let mut cells = vec![
                format!("{:.2}", row.k),
                format!("{:.3}", norm(&row.before)),
                format!("{:.3}", norm(&row.after)),
            ];
            cells.extend(row.after.iter().map(|v| format!("{v:+.3}")));
            table.add_row(cells);
        }
        table.render()
    }
}

/// Shared COMPAS DCA configuration: non-positive bonuses, decile-scale steps.
fn compas_config(scale: &ExperimentScale) -> DcaConfig {
    DcaConfig {
        polarity: BonusPolarity::NonPositive,
        // Decile scores span 1..10, so the bonus magnitudes are small; a finer
        // granularity keeps the intervention meaningful.
        granularity: Some(0.5),
        ..experiment_dca_config(scale, scale.seed)
    }
}

/// Run Figure 10a: disparity of the flagged set by race, per k, before and
/// after a per-k optimized (non-positive) bonus.
///
/// # Errors
/// Returns an error if DCA or the evaluation fails.
pub fn run_fig10a(scale: &ExperimentScale) -> Result<CompasResult> {
    let dataset = standard_compas(scale);
    let ranker = CompasGenerator::decile_ranker();
    let names: Vec<String> = dataset
        .schema()
        .fairness_names()
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let dims = names.len();
    let zero = vec![0.0; dims];

    let mut rows = Vec::new();
    for k in k_grid() {
        let dca = Dca::new(compas_config(scale)).run(&dataset, &ranker, &TopKDisparity::new(k))?;
        rows.push(CompasRow {
            k,
            before: eval_disparity(&dataset, &ranker, &zero, k)?,
            after: eval_disparity(&dataset, &ranker, dca.bonus.values(), k)?,
            bonus: dca.bonus.values().to_vec(),
        });
    }
    Ok(CompasResult {
        names,
        measure: "disparity".into(),
        rows,
    })
}

/// Run Figure 10b: per-group false-positive rates, per k, before and after an
/// FPR-difference-driven (non-positive) bonus.
///
/// # Errors
/// Returns an error if DCA or the evaluation fails.
pub fn run_fig10b(scale: &ExperimentScale) -> Result<CompasResult> {
    let dataset = standard_compas(scale);
    let ranker = CompasGenerator::decile_ranker();
    let names: Vec<String> = dataset
        .schema()
        .fairness_names()
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let dims = names.len();
    let zero = vec![0.0; dims];

    let fpr_diff = |bonus: &[f64], k: f64| -> Result<Vec<f64>> {
        let ranking = RankedSelection::from_scores(effective_scores(&dataset, &ranker, bonus));
        let (per_group, overall) = group_fpr_at_k(&dataset, &ranking, k)?;
        Ok(per_group.into_iter().map(|f| f - overall).collect())
    };

    let mut rows = Vec::new();
    for k in k_grid() {
        let dca = Dca::new(compas_config(scale)).run(
            &dataset,
            &ranker,
            &FprDifferenceObjective::new(k),
        )?;
        rows.push(CompasRow {
            k,
            before: fpr_diff(&zero, k)?,
            after: fpr_diff(dca.bonus.values(), k)?,
            bonus: dca.bonus.values().to_vec(),
        });
    }
    Ok(CompasResult {
        names,
        measure: "FPR difference".into(),
        rows,
    })
}

/// Run Figure 10c: one log-discounted DCA run, evaluated across the k grid.
///
/// # Errors
/// Returns an error if DCA or the evaluation fails.
pub fn run_fig10c(scale: &ExperimentScale) -> Result<CompasResult> {
    let dataset = standard_compas(scale);
    let ranker = CompasGenerator::decile_ranker();
    let names: Vec<String> = dataset
        .schema()
        .fairness_names()
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let dims = names.len();
    let zero = vec![0.0; dims];

    let objective = LogDiscountedObjective::new(LogDiscountConfig {
        step: 10,
        max_fraction: 0.5,
    });
    let dca = Dca::new(compas_config(scale)).run(&dataset, &ranker, &objective)?;

    let mut rows = Vec::new();
    for k in k_grid() {
        rows.push(CompasRow {
            k,
            before: eval_disparity(&dataset, &ranker, &zero, k)?,
            after: eval_disparity(&dataset, &ranker, dca.bonus.values(), k)?,
            bonus: dca.bonus.values().to_vec(),
        });
    }
    Ok(CompasResult {
        names,
        measure: "disparity (log-discounted bonus)".into(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> ExperimentScale {
        ExperimentScale {
            dca_iterations: 30,
            compas_size: 4_000,
            ..ExperimentScale::tiny()
        }
    }

    #[test]
    fn fig10a_reduces_racial_disparity_of_the_flagged_set() {
        let result = run_fig10a(&scale()).unwrap();
        assert_eq!(result.rows.len(), 10);
        // Before: African-American (dim 0) over-flagged, Caucasian (dim 1)
        // under-flagged, at moderate k.
        let row = result
            .rows
            .iter()
            .find(|r| (r.k - 0.25).abs() < 1e-9)
            .unwrap();
        assert!(row.before[0] > 0.03, "{:?}", row.before);
        assert!(row.before[1] < -0.03, "{:?}", row.before);
        // After: the norm shrinks and bonuses are non-positive.
        assert!(norm(&row.after) < norm(&row.before), "{:?}", row);
        assert!(row.bonus.iter().all(|b| *b <= 0.0));
        assert!(result.render("Fig 10a").contains("Norm after"));
    }

    #[test]
    fn fig10b_reduces_fpr_gaps() {
        let result = run_fig10b(&scale()).unwrap();
        let row = result
            .rows
            .iter()
            .find(|r| (r.k - 0.3).abs() < 1e-9)
            .unwrap();
        assert!(
            norm(&row.after) <= norm(&row.before) + 1e-9,
            "FPR gaps should not grow: {:?}",
            row
        );
        assert!(
            row.before[0] > 0.0,
            "African-American FPR above average before correction"
        );
    }

    #[test]
    fn fig10c_single_bonus_vector_helps_across_k() {
        let result = run_fig10c(&scale()).unwrap();
        let avg_before: f64 =
            result.rows.iter().map(|r| norm(&r.before)).sum::<f64>() / result.rows.len() as f64;
        let avg_after: f64 =
            result.rows.iter().map(|r| norm(&r.after)).sum::<f64>() / result.rows.len() as f64;
        assert!(avg_after < avg_before, "{avg_after} vs {avg_before}");
        // A single bonus vector is shared by every row.
        let first = &result.rows[0].bonus;
        assert!(result.rows.iter().all(|r| &r.bonus == first));
    }
}

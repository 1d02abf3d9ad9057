//! Figure 5 — maximum bonus limits.
//!
//! DCA is run in log-discounted mode with the bonus magnitude capped at an
//! increasing maximum; the resulting (log-discounted) disparity shrinks as the
//! cap is relaxed and approaches the uncapped optimum.

use crate::datasets::{standard_school_pair, ExperimentScale};
use crate::experiment_dca_config;
use crate::table::TextTable;
use fair_core::prelude::*;
use fair_data::SchoolGenerator;

/// One cap level of the Figure 5 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CapPoint {
    /// Maximum bonus allowed per dimension.
    pub max_bonus: f64,
    /// The capped bonus vector DCA produced.
    pub bonus: Vec<f64>,
    /// Log-discounted disparity (per dimension) on the test cohort.
    pub disparity: Vec<f64>,
    /// Norm of the log-discounted disparity.
    pub norm: f64,
}

/// Result of the Figure 5 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CapsResult {
    /// Fairness-attribute names.
    pub names: Vec<String>,
    /// Sweep points, in increasing cap order.
    pub points: Vec<CapPoint>,
}

impl CapsResult {
    /// Render the cap sweep.
    #[must_use]
    pub fn render(&self) -> String {
        let mut header = vec!["Max bonus"];
        let names: Vec<String> = self.names.clone();
        header.extend(names.iter().map(String::as_str));
        header.push("Norm");
        let mut table = TextTable::new(
            "Figure 5 — log-discounted disparity under maximum bonus limits",
            &header,
        );
        for p in &self.points {
            let mut cells = vec![format!("{:.1}", p.max_bonus)];
            cells.extend(p.disparity.iter().map(|v| format!("{v:+.3}")));
            cells.push(format!("{:.3}", p.norm));
            table.add_row(cells);
        }
        table.render()
    }
}

/// Run the Figure 5 experiment over the given cap levels (the paper sweeps 0
/// to 20 points; pass `None` to use `[0, 2.5, 5, …, 20]`).
///
/// # Errors
/// Returns an error if DCA or the evaluation fails.
pub fn run_caps(scale: &ExperimentScale, cap_levels: Option<Vec<f64>>) -> Result<CapsResult> {
    let caps = cap_levels.unwrap_or_else(|| (0..=8).map(|i| i as f64 * 2.5).collect());
    let (train, test) = standard_school_pair(scale);
    let rubric = SchoolGenerator::rubric();
    let names: Vec<String> = train
        .dataset()
        .schema()
        .fairness_names()
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let dims = names.len();
    // Figure 5 uses the log-discounted disparity restricted to small k.
    let discount = LogDiscountConfig {
        step: 10,
        max_fraction: 0.05,
    };
    let objective = LogDiscountedObjective::new(discount);

    let mut points = Vec::with_capacity(caps.len());
    for &max_bonus in &caps {
        let mut config = experiment_dca_config(scale, scale.seed);
        config.caps = Some(BonusCaps::uniform(dims, max_bonus)?);
        let dca = Dca::new(config).run(train.dataset(), &rubric, &objective)?;
        // Evaluate the log-discounted disparity on the test cohort.
        let ranking = RankedSelection::from_scores(effective_scores(
            test.dataset(),
            &rubric,
            dca.bonus.values(),
        ));
        let disparity = log_discounted_disparity(test.dataset(), &ranking, &discount)?;
        points.push(CapPoint {
            max_bonus,
            bonus: dca.bonus.values().to_vec(),
            norm: norm(&disparity),
            disparity,
        });
    }
    Ok(CapsResult { names, points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxing_the_cap_reduces_disparity() {
        let scale = ExperimentScale {
            dca_iterations: 25,
            ..ExperimentScale::tiny()
        };
        let result = run_caps(&scale, Some(vec![0.0, 5.0, 20.0])).unwrap();
        assert_eq!(result.points.len(), 3);
        let zero_cap = &result.points[0];
        let large_cap = &result.points[2];
        // With a zero cap no bonus can be granted at all.
        assert!(zero_cap.bonus.iter().all(|b| *b == 0.0));
        // A generous cap must do clearly better than no intervention.
        assert!(
            large_cap.norm < zero_cap.norm * 0.8,
            "large-cap norm {} vs zero-cap {}",
            large_cap.norm,
            zero_cap.norm
        );
        // Caps are honoured.
        for p in &result.points {
            assert!(p.bonus.iter().all(|b| *b <= p.max_bonus + 1e-9));
        }
        assert!(result.render().contains("Figure 5"));
    }
}

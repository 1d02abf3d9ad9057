//! Comparisons with the baseline interventions: the single-quota system
//! (Figure 6), the (Δ+2)-approximation (Figure 7), Multinomial FA\*IR
//! (Table II), and the exposure/DDP evaluation of Section VI-C4.

use crate::datasets::{standard_school_pair, ExperimentScale};
use crate::table::TextTable;
use crate::{eval_disparity, eval_ndcg, experiment_dca_config, k_grid};
use fair_baselines::{
    caps_excluding_group, celis_rerank, most_disadvantaged_subgroups, quota_select, FaStarConfig,
    FaStarRanker, ProtectedGroup, QuotaConfig,
};
use fair_core::metrics::disparity_of_selection;
use fair_core::prelude::*;
use fair_data::SchoolGenerator;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Figure 6 — single-quota baseline
// ---------------------------------------------------------------------------

/// Result of the quota baseline across the k grid.
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaResult {
    /// Fairness-attribute names.
    pub names: Vec<String>,
    /// Reserve fraction used.
    pub reserve_fraction: f64,
    /// `(k, disparity, norm)` of the quota selection on the test cohort.
    pub points: Vec<(f64, Vec<f64>, f64)>,
    /// `(k, norm)` of the uncorrected selection, for reference.
    pub baseline_norms: Vec<(f64, f64)>,
}

impl QuotaResult {
    /// Render the per-k series.
    #[must_use]
    pub fn render(&self) -> String {
        let mut header = vec!["k", "Baseline norm", "Quota norm"];
        let names: Vec<String> = self.names.clone();
        header.extend(names.iter().map(String::as_str));
        let mut table = TextTable::new(
            format!(
                "Figure 6 — single quota ({}% of seats reserved for any protected group)",
                (self.reserve_fraction * 100.0).round()
            ),
            &header,
        );
        for ((k, disp, n), (_, base)) in self.points.iter().zip(&self.baseline_norms) {
            let mut cells = vec![format!("{k:.2}"), format!("{base:.3}"), format!("{n:.3}")];
            cells.extend(disp.iter().map(|v| format!("{v:+.3}")));
            table.add_row(cells);
        }
        table.render()
    }
}

/// Run the Figure 6 quota baseline: one soft quota reserving a share of the
/// seats for students belonging to any binary protected group.
///
/// # Errors
/// Returns an error if the selection or evaluation fails.
pub fn run_quota(scale: &ExperimentScale, reserve_fraction: f64) -> Result<QuotaResult> {
    let (_, test) = standard_school_pair(scale);
    let rubric = SchoolGenerator::rubric();
    let dataset = test.dataset();
    let names: Vec<String> = dataset
        .schema()
        .fairness_names()
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let dims = names.len();
    let zero = vec![0.0; dims];
    // Protected = any of the binary dimensions (low-income, ELL, special-ed).
    let binary_dims: Vec<usize> = dataset
        .schema()
        .fairness()
        .iter()
        .enumerate()
        .filter(|(_, a)| a.kind() == FairnessKind::Binary)
        .map(|(i, _)| i)
        .collect();
    let config = QuotaConfig::new(reserve_fraction, binary_dims)?;

    let mut points = Vec::new();
    let mut baseline_norms = Vec::new();
    for k in k_grid() {
        let selected = quota_select(dataset, &rubric, k, &config)?;
        let disparity = disparity_of_selection(dataset, &selected)?;
        points.push((k, disparity.clone(), norm(&disparity)));
        let base = eval_disparity(dataset, &rubric, &zero, k)?;
        baseline_norms.push((k, norm(&base)));
    }
    Ok(QuotaResult {
        names,
        reserve_fraction,
        points,
        baseline_norms,
    })
}

// ---------------------------------------------------------------------------
// Figure 7 — (Δ+2)-approximation vs DCA
// ---------------------------------------------------------------------------

/// One proportion point of the Figure 7 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Point {
    /// Proportion of the recommended DCA bonus applied.
    pub proportion: f64,
    /// DCA disparity norm at k = 5%.
    pub dca_norm: f64,
    /// DCA nDCG at k = 5%.
    pub dca_ndcg: f64,
    /// (Δ+2) disparity norm with constraints derived from the DCA outcome.
    pub delta2_norm: f64,
    /// (Δ+2) nDCG.
    pub delta2_ndcg: f64,
}

/// Result of the Figure 7 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Sweep points.
    pub points: Vec<Fig7Point>,
    /// Wall-clock time spent inside the (Δ+2) re-ranker.
    pub delta2_time: Duration,
    /// Wall-clock time spent computing the DCA bonus (once).
    pub dca_time: Duration,
}

impl Fig7Result {
    /// Render the comparison.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            "Figure 7 — accuracy vs disparity, DCA and the (Δ+2)-approximation (training cohort)",
            &[
                "Proportion",
                "DCA norm",
                "DCA nDCG",
                "(Δ+2) norm",
                "(Δ+2) nDCG",
            ],
        );
        for p in &self.points {
            table.add_row(vec![
                format!("{:.1}", p.proportion),
                format!("{:.3}", p.dca_norm),
                format!("{:.4}", p.dca_ndcg),
                format!("{:.3}", p.delta2_norm),
                format!("{:.4}", p.delta2_ndcg),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "DCA time: {} ms, (Δ+2) total time: {} ms\n",
            self.dca_time.as_millis(),
            self.delta2_time.as_millis()
        ));
        out
    }
}

/// Run the Figure 7 comparison on the training cohort.
///
/// # Errors
/// Returns an error if DCA, the re-ranker, or the evaluation fails.
pub fn run_delta2_comparison(scale: &ExperimentScale) -> Result<Fig7Result> {
    let k = 0.05;
    let (train, _) = standard_school_pair(scale);
    let rubric = SchoolGenerator::rubric();
    let dataset = train.dataset();
    let binary_dims: Vec<usize> = dataset
        .schema()
        .fairness()
        .iter()
        .enumerate()
        .filter(|(_, a)| a.kind() == FairnessKind::Binary)
        .map(|(i, _)| i)
        .collect();
    let selection = selection_size(dataset.len(), k)?;

    let dca_start = Instant::now();
    let config = experiment_dca_config(scale, scale.seed);
    let dca = Dca::new(config).run(dataset, &rubric, &TopKDisparity::new(k))?;
    let dca_time = dca_start.elapsed();
    let full = dca.bonus.clone();

    let mut delta2_time = Duration::ZERO;
    let mut points = Vec::new();
    for step in [2, 4, 6, 8, 10] {
        let proportion = step as f64 / 10.0;
        let scaled = full.scaled(proportion)?.rounded_to(0.5)?;
        let dca_disp = eval_disparity(dataset, &rubric, scaled.values(), k)?;
        let dca_ndcg = eval_ndcg(dataset, &rubric, scaled.values(), k)?;

        // Hand (Δ+2) the disparity DCA achieved as its constraint slack.
        let slack = norm(&dca_disp);
        let constraints = caps_excluding_group(dataset, &binary_dims, selection, slack)?;
        let t = Instant::now();
        let selected = celis_rerank(dataset, &rubric, selection, &constraints)?;
        delta2_time += t.elapsed();
        let delta2_disp = disparity_of_selection(dataset, &selected)?;
        // nDCG of the constrained selection: rebuild a ranking that puts the
        // selected items first, in their greedy order.
        let mut scores = vec![f64::MIN; dataset.len()];
        for (rank, &pos) in selected.iter().enumerate() {
            scores[pos] = (dataset.len() - rank) as f64;
        }
        let constrained = RankedSelection::from_scores(scores);
        let delta2_ndcg = ndcg_at_k(dataset, &rubric, &constrained, k)?;

        points.push(Fig7Point {
            proportion,
            dca_norm: norm(&dca_disp),
            dca_ndcg,
            delta2_norm: norm(&delta2_disp),
            delta2_ndcg,
        });
    }
    Ok(Fig7Result {
        points,
        delta2_time,
        dca_time,
    })
}

// ---------------------------------------------------------------------------
// Table II — Multinomial FA*IR on a single district
// ---------------------------------------------------------------------------

/// One row of the Table II comparison (binary dimensions only, as in the
/// paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Setting label.
    pub setting: String,
    /// Disparity over the binary fairness dimensions.
    pub disparity: Vec<f64>,
    /// Norm over those dimensions.
    pub norm: f64,
}

/// Result of the Table II experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// Names of the binary fairness dimensions compared.
    pub names: Vec<String>,
    /// Districts whose students form the comparison population.
    pub districts: Vec<u16>,
    /// Number of students in that population.
    pub district_size: usize,
    /// Selection fraction used.
    pub k: f64,
    /// DCA bonus points (binary dimensions only shown in the render).
    pub dca_bonus: Vec<f64>,
    /// Labels of the subgroups FA\*IR protected.
    pub fastar_groups: Vec<String>,
    /// Rows: baseline, DCA, Multinomial FA\*IR.
    pub rows: Vec<Table2Row>,
}

impl Table2Result {
    /// Render in the paper's layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut header = vec!["Setting"];
        let names: Vec<String> = self.names.clone();
        header.extend(names.iter().map(String::as_str));
        header.push("Norm");
        let mut table = TextTable::new(
            format!(
                "Table II — DCA vs Multinomial FA*IR on districts {:?} ({} students, k = {:.0}%)",
                self.districts,
                self.district_size,
                self.k * 100.0
            ),
            &header,
        );
        for row in &self.rows {
            let mut cells = vec![row.setting.clone()];
            cells.extend(row.disparity.iter().map(|v| format!("{v:+.3}")));
            cells.push(format!("{:.3}", row.norm));
            table.add_row(cells);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "FA*IR protected subgroups: {}\n",
            self.fastar_groups.join(" | ")
        ));
        out
    }
}

/// Run the Table II comparison on a subset of districts of the training
/// cohort (the paper runs FA\*IR on one ~2,500-student district; pass as many
/// districts as needed to reach a comparable population at the chosen scale).
///
/// # Errors
/// Returns an error if DCA, FA\*IR, or the evaluation fails.
pub fn run_fastar_comparison(
    scale: &ExperimentScale,
    districts: &[u16],
    k: f64,
) -> Result<Table2Result> {
    let (train, _) = standard_school_pair(scale);
    let rubric = SchoolGenerator::rubric();
    let wanted: std::collections::HashSet<u16> = districts.iter().copied().collect();
    let district_of = train.districts().to_vec();
    let mut position = 0;
    let dataset = train.dataset().filter(|_| {
        let keep = wanted.contains(&district_of[position]);
        position += 1;
        keep
    });
    if dataset.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    let schema = dataset.schema().clone();
    let binary_dims: Vec<usize> = schema
        .fairness()
        .iter()
        .enumerate()
        .filter(|(_, a)| a.kind() == FairnessKind::Binary)
        .map(|(i, _)| i)
        .collect();
    let names: Vec<String> = binary_dims
        .iter()
        .map(|&d| schema.fairness()[d].name().to_string())
        .collect();
    let project = |full: &[f64]| -> Vec<f64> { binary_dims.iter().map(|&d| full[d]).collect() };

    let dims = schema.num_fairness();
    let zero = vec![0.0; dims];
    let baseline_full = eval_disparity(&dataset, &rubric, &zero, k)?;
    let baseline = project(&baseline_full);

    // DCA on the district.
    let mut config = experiment_dca_config(scale, scale.seed);
    config.sample_size = config.sample_size.min(dataset.len());
    let dca = Dca::new(config).run(&dataset, &rubric, &TopKDisparity::new(k))?;
    let dca_full = eval_disparity(&dataset, &rubric, dca.bonus.values(), k)?;
    let dca_disp = project(&dca_full);

    // Multinomial FA*IR on the 3 most-disadvantaged Cartesian subgroups.
    let worst = most_disadvantaged_subgroups(&dataset, &rubric, &binary_dims, k, 3)?;
    let groups: Vec<ProtectedGroup> = worst
        .iter()
        .map(|(g, _)| ProtectedGroup::from_subgroup(&dataset, g))
        .collect();
    let group_labels: Vec<String> = worst.iter().map(|(g, _)| g.label(&schema)).collect();
    let selection = selection_size(dataset.len(), k)?;
    let fastar = FaStarRanker::new(FaStarConfig::new(0.1, selection)?, groups)?;
    let order = fastar.rerank(&dataset, &rubric)?;
    let fastar_full = disparity_of_selection(&dataset, &order)?;
    let fastar_disp = project(&fastar_full);

    let rows = vec![
        Table2Row {
            setting: "Baseline".into(),
            norm: norm(&baseline),
            disparity: baseline,
        },
        Table2Row {
            setting: "DCA".into(),
            norm: norm(&dca_disp),
            disparity: dca_disp,
        },
        Table2Row {
            setting: "Mult. FA*IR".into(),
            norm: norm(&fastar_disp),
            disparity: fastar_disp,
        },
    ];
    Ok(Table2Result {
        names,
        districts: districts.to_vec(),
        district_size: dataset.len(),
        k,
        dca_bonus: dca.bonus.values().to_vec(),
        fastar_groups: group_labels,
        rows,
    })
}

// ---------------------------------------------------------------------------
// Section VI-C4 — exposure / DDP
// ---------------------------------------------------------------------------

/// Result of the exposure/DDP evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExposureResult {
    /// DDP of the uncorrected ranking.
    pub ddp_before: f64,
    /// DDP after applying the log-discounted DCA bonus.
    pub ddp_after: f64,
    /// The bonus vector used.
    pub bonus: Vec<f64>,
}

impl ExposureResult {
    /// Render the before/after DDP values.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            "Section VI-C4 — exposure / demographic disparity (DDP)",
            &["Setting", "DDP"],
        );
        table.add_row(vec!["Baseline".into(), format!("{:.5}", self.ddp_before)]);
        table.add_row(vec![
            "DCA (log-discounted)".into(),
            format!("{:.5}", self.ddp_after),
        ]);
        let mut out = table.render();
        out.push_str(&format!(
            "Improvement factor: {:.1}x\n",
            if self.ddp_after > 0.0 {
                self.ddp_before / self.ddp_after
            } else {
                f64::INFINITY
            }
        ));
        out
    }
}

/// Run the exposure/DDP evaluation on the test cohort using a log-discounted
/// DCA bonus learned on the training cohort.
///
/// # Errors
/// Returns an error if DCA or the evaluation fails.
pub fn run_exposure(scale: &ExperimentScale) -> Result<ExposureResult> {
    let (train, test) = standard_school_pair(scale);
    let rubric = SchoolGenerator::rubric();
    let config = experiment_dca_config(scale, scale.seed);
    let objective = LogDiscountedObjective::new(LogDiscountConfig {
        step: 10,
        max_fraction: 0.5,
    });
    let dca = Dca::new(config).run(train.dataset(), &rubric, &objective)?;

    let data = test.dataset();
    let dims = data.schema().num_fairness();
    let before_ranking =
        RankedSelection::from_scores(effective_scores(data, &rubric, &vec![0.0; dims]));
    let after_ranking =
        RankedSelection::from_scores(effective_scores(data, &rubric, dca.bonus.values()));
    Ok(ExposureResult {
        ddp_before: ddp_for_binary_attributes(data, &before_ranking)?,
        ddp_after: ddp_for_binary_attributes(data, &after_ranking)?,
        bonus: dca.bonus.values().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> ExperimentScale {
        ExperimentScale {
            dca_iterations: 30,
            ..ExperimentScale::tiny()
        }
    }

    #[test]
    fn quota_reduces_disparity_but_less_than_perfectly() {
        let result = run_quota(&scale(), 0.7).unwrap();
        assert_eq!(result.points.len(), 10);
        for ((_, _, quota_norm), (_, base_norm)) in result.points.iter().zip(&result.baseline_norms)
        {
            assert!(
                *quota_norm <= base_norm + 1e-9,
                "quota must not worsen disparity"
            );
        }
        // The quota helps at the smallest k, where the baseline is worst.
        assert!(result.points[0].2 < result.baseline_norms[0].1);
        assert!(result.render().contains("Figure 6"));
    }

    #[test]
    fn delta2_matches_dca_quality_at_full_proportion() {
        let result = run_delta2_comparison(&scale()).unwrap();
        assert_eq!(result.points.len(), 5);
        let last = result.points.last().unwrap();
        // Both methods achieve low disparity and high utility at the full
        // intervention level.
        assert!(last.dca_norm < 0.25, "dca norm {}", last.dca_norm);
        assert!(last.delta2_norm < 0.30, "(Δ+2) norm {}", last.delta2_norm);
        assert!(last.dca_ndcg > 0.85 && last.delta2_ndcg > 0.7);
        assert!(result.render().contains("Figure 7"));
    }

    #[test]
    fn fastar_comparison_favours_dca_on_overlapping_groups() {
        // Merge half the districts so the comparison population and selection
        // are large enough for the FA*IR mtables to bind at test scale.
        let districts: Vec<u16> = (0..16).collect();
        let result = run_fastar_comparison(&scale(), &districts, 0.1).unwrap();
        assert_eq!(result.rows.len(), 3);
        let baseline = &result.rows[0];
        let dca = &result.rows[1];
        let fastar = &result.rows[2];
        assert!(baseline.norm > 0.1);
        assert!(dca.norm < baseline.norm, "DCA improves over the baseline");
        assert!(
            fastar.norm <= baseline.norm + 1e-9,
            "FA*IR must not worsen the baseline: {} vs {}",
            fastar.norm,
            baseline.norm
        );
        // The paper finds DCA at least as good as FA*IR thanks to overlap
        // handling; allow a small tolerance for the synthetic cohort.
        assert!(
            dca.norm <= fastar.norm + 0.05,
            "dca {} vs fastar {}",
            dca.norm,
            fastar.norm
        );
        assert_eq!(result.fastar_groups.len(), 3);
        assert!(result.render().contains("Table II"));
    }

    #[test]
    fn ddp_improves_after_log_discounted_dca() {
        let result = run_exposure(&scale()).unwrap();
        assert!(result.ddp_before > 0.0);
        assert!(
            result.ddp_after < result.ddp_before,
            "DDP should improve: {} vs {}",
            result.ddp_after,
            result.ddp_before
        );
        assert!(result.render().contains("DDP"));
    }
}

//! Sharded-engine parity and timing: every whole-cohort metric evaluated
//! through the shard-wise parallel engine against its serial counterpart.
//!
//! The experiment generates the school cohort **directly into shards**
//! (`SchoolGenerator::generate_sharded`), evaluates disparity@k, nDCG@k and
//! the log-discounted disparity both serially (score → full/partial sort →
//! measure on the contiguous dataset) and shard-wise, reports the maximum
//! absolute deviation per metric (exactly 0 for binary attributes; at worst
//! reassociation ulps on the continuous ENI dimension), and times both
//! paths. It also runs Full DCA over the sharded cohort against Full DCA
//! over the flat cohort as one shard, the centroid-accumulation parity
//! check.

use crate::datasets::ExperimentScale;
use crate::disparity_curve;
use crate::table::TextTable;
use fair_core::metrics::sharded as shmetrics;
use fair_core::prelude::*;
use fair_data::{SchoolConfig, SchoolGenerator};
use std::time::Instant;

/// One metric's serial-vs-sharded comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedMetricRow {
    /// Metric name.
    pub metric: String,
    /// Serial end-to-end evaluation time (ms).
    pub serial_ms: f64,
    /// Sharded end-to-end evaluation time (ms).
    pub sharded_ms: f64,
    /// Maximum absolute deviation between the two results.
    pub max_abs_diff: f64,
}

/// Result of the sharded-engine parity experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedParityResult {
    /// Cohort size.
    pub n: usize,
    /// Shard size used.
    pub shard_size: usize,
    /// Number of shards.
    pub num_shards: usize,
    /// Per-metric comparisons.
    pub rows: Vec<ShardedMetricRow>,
    /// Max absolute deviation of the sharded Full-DCA bonus trajectory from
    /// the one-shard one (0 for the binary dimensions; ulps via ENI
    /// otherwise).
    pub full_dca_bonus_diff: f64,
    /// Norm of the disparity left after sharded-sampled Core DCA.
    pub core_sharded_residual: f64,
}

impl ShardedParityResult {
    /// Render the comparison table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            format!(
                "Sharded engine — serial vs shard-wise evaluation (n = {}, {} shards x {})",
                self.n, self.num_shards, self.shard_size
            ),
            &["Metric", "Serial ms", "Sharded ms", "Max |diff|"],
        );
        for row in &self.rows {
            table.add_row(vec![
                row.metric.clone(),
                format!("{:.3}", row.serial_ms),
                format!("{:.3}", row.sharded_ms),
                format!("{:.2e}", row.max_abs_diff),
            ]);
        }
        table.add_row(vec![
            "full-DCA bonus traj.".to_string(),
            String::new(),
            String::new(),
            format!("{:.2e}", self.full_dca_bonus_diff),
        ]);
        table.add_row(vec![
            "core DCA residual".to_string(),
            String::new(),
            String::new(),
            format!("{:.3}", self.core_sharded_residual),
        ]);
        table.render()
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Run the sharded parity experiment.
///
/// # Errors
/// Returns an error if any evaluation fails.
pub fn run_sharded_parity(scale: &ExperimentScale) -> Result<ShardedParityResult> {
    let k = 0.05;
    let shard_size = fair_core::DEFAULT_SHARD_SIZE.min(scale.school_cohort_size.div_ceil(4).max(1));
    let generator = SchoolGenerator::new(SchoolConfig {
        num_students: scale.school_cohort_size,
        seed: scale.seed,
        ..SchoolConfig::default()
    });
    let sharded = generator.generate_sharded(shard_size)?.into_dataset();
    let flat = generator.generate().into_dataset();
    let rubric = SchoolGenerator::rubric();
    let bonus = vec![1.0, 10.0, 12.0, 12.0];

    let mut rows = Vec::new();

    // disparity@k.
    let start = Instant::now();
    let serial_disp = crate::eval_disparity(&flat, &rubric, &bonus, k)?;
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let sharded_disp = shmetrics::disparity_at_k(&sharded, &rubric, &bonus, k)?;
    rows.push(ShardedMetricRow {
        metric: "disparity@k".to_string(),
        serial_ms,
        sharded_ms: start.elapsed().as_secs_f64() * 1e3,
        max_abs_diff: max_abs_diff(&serial_disp, &sharded_disp),
    });

    // nDCG@k.
    let start = Instant::now();
    let serial_ndcg = crate::eval_ndcg(&flat, &rubric, &bonus, k)?;
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let sharded_ndcg = shmetrics::ndcg_at_k(&sharded, &rubric, &bonus, k)?;
    rows.push(ShardedMetricRow {
        metric: "nDCG@k".to_string(),
        serial_ms,
        sharded_ms: start.elapsed().as_secs_f64() * 1e3,
        max_abs_diff: (serial_ndcg - sharded_ndcg).abs(),
    });

    // Log-discounted disparity.
    let log_cfg = LogDiscountConfig::default();
    let start = Instant::now();
    let ranking = RankedSelection::from_scores(effective_scores(&flat, &rubric, &bonus));
    let serial_log = log_discounted_disparity(&flat, &ranking, &log_cfg)?;
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let sharded_log = shmetrics::log_discounted_disparity(&sharded, &rubric, &bonus, &log_cfg)?;
    rows.push(ShardedMetricRow {
        metric: "log-discounted".to_string(),
        serial_ms,
        sharded_ms: start.elapsed().as_secs_f64() * 1e3,
        max_abs_diff: max_abs_diff(&serial_log, &sharded_log),
    });

    // Full DCA: the sharded cohort must walk the one-shard trajectory.
    let dca_config = DcaConfig {
        learning_rates: vec![1.0],
        iterations_per_rate: 3,
        refinement_iterations: 0,
        seed: scale.seed,
        ..DcaConfig::default()
    };
    let objective = TopKDisparity::new(k);
    let serial_full = run_full_dca_sharded(&flat, &rubric, &objective, &dca_config, None, false)?;
    let sharded_full =
        run_full_dca_sharded(&sharded, &rubric, &objective, &dca_config, None, false)?;
    let full_dca_bonus_diff = max_abs_diff(&serial_full.bonus, &sharded_full.bonus);

    // Core DCA with per-shard sampling: must converge like the serial one.
    let core_config = DcaConfig {
        sample_size: scale.dca_sample_size,
        learning_rates: vec![1.0, 0.1],
        iterations_per_rate: scale.dca_iterations,
        refinement_iterations: 0,
        seed: scale.seed,
        ..DcaConfig::default()
    };
    let core = run_core_dca_sharded(&sharded, &rubric, &objective, &core_config, None, false)?;
    let residual = shmetrics::disparity_at_k(&sharded, &rubric, &core.bonus, k)?;
    let core_sharded_residual = norm(&residual);

    // The disparity curve on the flat cohort sanity-checks that the shared
    // datasets agree end to end (same generator stream).
    let point = &disparity_curve(&flat, &rubric, &bonus, &[k])?[0];
    debug_assert!((norm(&point.disparity) - norm(&serial_disp)).abs() < 1e-12);

    Ok(ShardedParityResult {
        n: flat.len(),
        shard_size,
        num_shards: sharded.num_shards(),
        rows,
        full_dca_bonus_diff,
        core_sharded_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_holds_at_tiny_scale() {
        let result = run_sharded_parity(&ExperimentScale::tiny()).unwrap();
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            // Binary dimensions agree exactly; the continuous ENI dimension
            // may differ by reassociation ulps only.
            assert!(
                row.max_abs_diff < 1e-9,
                "{}: diff {}",
                row.metric,
                row.max_abs_diff
            );
        }
        assert!(result.full_dca_bonus_diff < 1e-9);
        assert!(
            result.core_sharded_residual < 0.2,
            "sharded-sampled DCA must converge: {}",
            result.core_sharded_residual
        );
        let text = result.render();
        assert!(text.contains("Sharded engine"));
        assert!(text.contains("nDCG@k"));
    }
}

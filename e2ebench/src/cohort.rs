//! The seeded cohort, the inputs derived from it, and the expected answers
//! the library computes in-process on an in-memory copy.

use crate::stats::{mix, unit};
use fair_core::dca::{run_core_dca_sharded, DcaConfig, TopKDisparity};
use fair_core::metrics::sharded::{MetricKind, MetricPlan, MetricReport, MetricValue};
use fair_core::ranking::WeightedSumRanker;
use fair_core::ShardedDataset;
use fair_data::{CompasConfig, CompasGenerator};
use fair_serve::{JobKind, JobRequest, MetricsRequest, MetricsResult};

/// Selection fraction of every audit and every DCA job.
pub const K: f64 = 0.05;
/// Core DCA sample size.
pub const SAMPLE: usize = 500;
/// Distinct seeded bonus vectors the audits cycle through.
pub const BONUS_POOL: usize = 8;

const COHORT_STREAM: u64 = 1;
const BONUS_STREAM: u64 = 2;
const JOB_STREAM: u64 = 3;
const TRACE_STREAM: u64 = 4;

// Index ranges of the job and trace streams: timed operations count from 0,
// the traced window's from `TRACED_OPS`, the requests probing the live
// servers from `PROBE_OPS`, and each set-up uses `SETUP_OP`.
pub const TRACED_OPS: usize = 1 << 24;
pub const PROBE_OPS: usize = 1 << 28;
pub const SETUP_OP: usize = usize::MAX;

pub struct Cohort {
    pub memory: ShardedDataset,
    pub bonuses: Vec<Vec<f64>>,
}

impl Cohort {
    /// A COMPAS cohort of `rows` defendants (1 feature, 6 group attributes,
    /// fully labelled) cut into `shard_rows`-row shards, plus the audit
    /// bonus pool.
    pub fn generate(seed: u64, rows: usize, shard_rows: usize) -> Result<Self, String> {
        let generator =
            CompasGenerator::new(CompasConfig::small(rows, mix(seed, COHORT_STREAM, 0)));
        let memory = generator
            .generate_sharded(shard_rows)
            .map_err(|e| format!("cohort: {e}"))?;
        let dims = memory.schema().num_fairness();
        let bonuses = (0..BONUS_POOL)
            .map(|j| {
                (0..dims)
                    .map(|d| 2.0 * unit(seed, BONUS_STREAM, (j * dims + d) as u64))
                    .collect()
            })
            .collect();
        Ok(Self { memory, bonuses })
    }

    /// Column bytes per row as the store's cache accounts them: id, label,
    /// and one `f64` per feature and group attribute.
    pub fn row_bytes(&self) -> usize {
        let schema = self.memory.schema();
        8 * (schema.num_features() + schema.num_fairness()) + 9
    }

    pub fn column_bytes(&self) -> usize {
        self.memory.len() * self.row_bytes()
    }

    pub fn shard_bytes(&self) -> usize {
        self.memory.shard_size() * self.row_bytes()
    }

    /// About a quarter of the cohort, and never under three shards so the
    /// pinned working set fits.
    pub fn paged_budget(&self) -> usize {
        (self.column_bytes() / 4).max(3 * self.shard_bytes())
    }

    /// Room for the whole cohort, twice over.
    pub fn resident_budget(&self) -> usize {
        2 * self.column_bytes()
    }

    pub fn ranker(&self) -> WeightedSumRanker {
        WeightedSumRanker::new(vec![1.0; self.memory.schema().num_features()])
            .expect("uniform weights are valid")
    }

    /// The request of audit `j`: all five metrics under bonus `j` of the
    /// pool.
    pub fn audit_request(&self, j: usize) -> MetricsRequest {
        MetricsRequest {
            k: K,
            bonus: Some(self.bonuses[j % BONUS_POOL].clone()),
            weights: None,
            metrics: Some(
                MetricKind::ALL
                    .iter()
                    .map(|m| m.name().to_string())
                    .collect(),
            ),
        }
    }

    /// The library's answer for every bonus of the pool.
    pub fn audit_oracle(&self) -> Result<Vec<MetricReport>, String> {
        let plan = MetricPlan::new(&MetricKind::ALL, K);
        let ranker = self.ranker();
        self.bonuses
            .iter()
            .map(|b| plan.evaluate(&self.memory, &ranker, b))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("audit oracle: {e}"))
    }

    /// Final bonus of the library's Core DCA run for a job.
    pub fn dca_oracle(&self, seed: u64, steps: usize) -> Result<Vec<f64>, String> {
        run_core_dca_sharded(
            &self.memory,
            &self.ranker(),
            &TopKDisparity::new(K),
            &dca_config(seed, steps),
            None,
            false,
        )
        .map(|o| o.bonus)
        .map_err(|e| format!("dca oracle: {e}"))
    }
}

/// Every job's shape: Core DCA, sample 500, one learning rate, `steps`
/// iterations. With one rate, a shorter job's trajectory is a prefix of a
/// longer one's for the same seed.
pub fn dca_config(seed: u64, steps: usize) -> DcaConfig {
    DcaConfig {
        sample_size: SAMPLE,
        learning_rates: vec![1.0],
        iterations_per_rate: steps,
        refinement_iterations: 0,
        seed,
        ..DcaConfig::default()
    }
}

pub fn job_request(seed: u64, steps: usize, workers: Option<Vec<String>>) -> JobRequest {
    let config = dca_config(seed, steps);
    JobRequest {
        store: crate::STORE.to_string(),
        kind: JobKind::Core,
        k: K,
        weights: None,
        seed,
        sample_size: Some(config.sample_size),
        learning_rates: Some(config.learning_rates),
        iterations_per_rate: Some(config.iterations_per_rate),
        workers,
    }
}

/// Descent seed of job `j` (below 2^53, so it travels as a JSON number).
pub fn job_seed(seed: u64, j: usize) -> u64 {
    mix(seed, JOB_STREAM, j as u64) >> 11
}

/// Trace id of client operation `j`.
pub fn trace_id(seed: u64, j: usize) -> String {
    format!("{:016x}", mix(seed, TRACE_STREAM, j as u64))
}

/// Bit-for-bit comparison of a served audit with the library's report.
pub fn check_audit(got: &MetricsResult, want: &MetricReport) -> Result<(), String> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (kind, value) in want.values() {
        let served = match kind {
            MetricKind::Disparity => got.disparity.clone(),
            MetricKind::Ndcg => got.ndcg.map(|v| vec![v]),
            MetricKind::LogDiscounted => got.log_discounted.clone(),
            MetricKind::FprDifference => got.fpr_difference.clone(),
            MetricKind::DisparateImpact => got.disparate_impact.clone(),
        };
        let expected = match value {
            MetricValue::Scalar(v) => vec![*v],
            MetricValue::Vector(v) => v.clone(),
        };
        if served.as_deref().map(bits) != Some(bits(&expected)) {
            return Err(format!("{} differs from the library", kind.name()));
        }
    }
    Ok(())
}

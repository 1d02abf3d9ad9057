//! Out-of-core evaluation: the same whole-cohort metrics and Full DCA run
//! over the on-disk `fair-store` shard file at several cache budgets, against
//! the in-memory sharded engine.
//!
//! The experiment streams the school cohort **directly onto disk**
//! (`fair_data::store::school_to_store` — the cohort is never materialized
//! in RAM on the write side), then opens the store at three cache budgets:
//! everything resident, roughly a quarter of the column bytes, and a
//! two-shard sliver that forces eviction on nearly every access. For each
//! budget it times disparity@k and nDCG@k, records the cache counters
//! (hits/misses/evictions/peak bytes), and checks the paged results and a
//! Full-DCA bonus trajectory **bit-for-bit** against the in-memory
//! `ShardedDataset` engine — the acceptance claim of the storage subsystem.

use crate::datasets::ExperimentScale;
use crate::table::TextTable;
use fair_core::metrics::sharded as shmetrics;
use fair_core::prelude::*;
use fair_data::store::school_to_store;
use fair_data::{SchoolConfig, SchoolGenerator};
use fair_store::{column_bytes, CacheStats, ShardStore};
use std::time::Instant;

/// One cache budget's timings and cache behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// Human-readable budget label.
    pub label: String,
    /// Cache byte budget used.
    pub budget_bytes: usize,
    /// disparity@k end-to-end over the store (ms).
    pub disparity_ms: f64,
    /// nDCG@k end-to-end over the store (ms).
    pub ndcg_ms: f64,
    /// Cache counters after the timed runs.
    pub stats: CacheStats,
    /// Max |paged − in-memory| across both metric vectors (must be exactly
    /// zero: paged shards decode to identical bits).
    pub max_abs_diff: f64,
}

/// Result of the out-of-core experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct OutOfCoreResult {
    /// Cohort size.
    pub n: usize,
    /// Shard size used.
    pub shard_size: usize,
    /// Number of shards.
    pub num_shards: usize,
    /// Store file size in bytes.
    pub file_bytes: u64,
    /// Total column bytes (what the cache budget is measured against).
    pub column_bytes_total: usize,
    /// In-memory sharded timings for the same two metrics (ms).
    pub memory_disparity_ms: f64,
    /// In-memory nDCG timing (ms).
    pub memory_ndcg_ms: f64,
    /// Per-budget rows.
    pub rows: Vec<BudgetRow>,
    /// Max |paged − in-memory| over the Full-DCA bonus trajectory (tightest
    /// budget; must be exactly zero).
    pub full_dca_bonus_diff: f64,
}

impl OutOfCoreResult {
    /// Render the comparison table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            format!(
                "Out-of-core store — paged vs in-memory evaluation (n = {}, {} shards x {}, {} KiB columns)",
                self.n,
                self.num_shards,
                self.shard_size,
                self.column_bytes_total / 1024
            ),
            &[
                "Cache budget",
                "disparity ms",
                "nDCG ms",
                "hit/miss",
                "evict",
                "peak KiB",
                "Max |diff|",
            ],
        );
        table.add_row(vec![
            "in-memory engine".to_string(),
            format!("{:.3}", self.memory_disparity_ms),
            format!("{:.3}", self.memory_ndcg_ms),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.label.clone(),
                format!("{:.3}", row.disparity_ms),
                format!("{:.3}", row.ndcg_ms),
                format!("{}/{}", row.stats.hits, row.stats.misses),
                format!("{}", row.stats.evictions),
                format!("{}", row.stats.peak_bytes / 1024),
                format!("{:.2e}", row.max_abs_diff),
            ]);
        }
        table.add_row(vec![
            "full-DCA bonus traj.".to_string(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            format!("{:.2e}", self.full_dca_bonus_diff),
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

fn time_ms<T>(mut routine: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = routine();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Run the out-of-core experiment.
///
/// # Errors
/// Returns an error if any evaluation fails.
///
/// # Panics
/// Panics if the store file cannot be written to the temp directory.
pub fn run_out_of_core(scale: &ExperimentScale) -> Result<OutOfCoreResult> {
    let k = 0.05;
    // Enough shards that even the widest worker pool's pinned working set
    // (one shard per worker) stays well below the cohort, so the tight
    // budgets genuinely evict.
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let target_shards = (8 * workers).max(16);
    let shard_size =
        fair_core::DEFAULT_SHARD_SIZE.min((scale.school_cohort_size / target_shards).max(1));
    let generator = SchoolGenerator::new(SchoolConfig {
        num_students: scale.school_cohort_size,
        seed: scale.seed,
        ..SchoolConfig::default()
    });
    let path = std::env::temp_dir().join(format!(
        "fair_bench_out_of_core_{}_{}.fss",
        scale.school_cohort_size,
        std::process::id()
    ));
    let summary =
        school_to_store(&generator, shard_size, &path).expect("write the cohort store file");

    let mem = generator.generate_sharded(shard_size)?.into_dataset();
    let rubric = SchoolGenerator::rubric();
    let bonus = vec![1.0, 10.0, 12.0, 12.0];
    let shard_bytes = column_bytes(mem.shard(0).data());
    let column_bytes_total: usize = (0..mem.num_shards())
        .map(|i| column_bytes(mem.shard(i).data()))
        .sum();

    let (mem_disp, memory_disparity_ms) =
        time_ms(|| shmetrics::disparity_at_k(&mem, &rubric, &bonus, k));
    let mem_disp = mem_disp?;
    let (mem_ndcg, memory_ndcg_ms) = time_ms(|| shmetrics::ndcg_at_k(&mem, &rubric, &bonus, k));
    let mem_ndcg = mem_ndcg?;

    let budgets = [
        ("unbounded".to_string(), usize::MAX),
        (
            "quarter cohort".to_string(),
            (column_bytes_total / 4).max((workers + 1) * shard_bytes),
        ),
        ("pinned minimum".to_string(), (workers + 1) * shard_bytes),
    ];

    let mut rows = Vec::new();
    let mut tightest: Option<ShardStore> = None;
    for (label, budget) in budgets {
        let store = ShardStore::open_with_budget(&path, budget)
            .expect("the store file just written must open");
        let (disp, disparity_ms) =
            time_ms(|| shmetrics::disparity_at_k(&store, &rubric, &bonus, k));
        let disp = disp?;
        let (ndcg, ndcg_ms) = time_ms(|| shmetrics::ndcg_at_k(&store, &rubric, &bonus, k));
        let ndcg = ndcg?;
        let stats = store.cache_stats();
        rows.push(BudgetRow {
            label,
            budget_bytes: budget,
            disparity_ms,
            ndcg_ms,
            stats,
            max_abs_diff: max_abs_diff(&disp, &mem_disp).max((ndcg - mem_ndcg).abs()),
        });
        tightest = Some(store);
    }

    // Full DCA through the tightest-budget store: the bonus trajectory must
    // be bit-for-bit the in-memory trajectory.
    let store = tightest.expect("three budgets ran");
    let dca_config = DcaConfig {
        learning_rates: vec![1.0],
        iterations_per_rate: 3,
        refinement_iterations: 0,
        seed: scale.seed,
        ..DcaConfig::default()
    };
    let objective = TopKDisparity::new(k);
    let mem_full = run_full_dca_sharded(&mem, &rubric, &objective, &dca_config, None, false)?;
    let store_full = run_full_dca_sharded(&store, &rubric, &objective, &dca_config, None, false)?;
    let full_dca_bonus_diff = max_abs_diff(&mem_full.bonus, &store_full.bonus);

    std::fs::remove_file(&path).ok();
    Ok(OutOfCoreResult {
        n: mem.len(),
        shard_size,
        num_shards: mem.num_shards(),
        file_bytes: summary.file_bytes,
        column_bytes_total,
        memory_disparity_ms,
        memory_ndcg_ms,
        rows,
        full_dca_bonus_diff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paged_evaluation_is_exact_at_tiny_scale() {
        let result = run_out_of_core(&ExperimentScale::tiny()).unwrap();
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert_eq!(
                row.max_abs_diff, 0.0,
                "{}: paged metrics must match the in-memory engine exactly",
                row.label
            );
        }
        assert_eq!(result.full_dca_bonus_diff, 0.0);
        let tight = result.rows.last().unwrap();
        assert!(
            tight.stats.evictions > 0,
            "the pinned-minimum budget must evict: {:?}",
            tight.stats
        );
        assert!(tight.stats.peak_bytes <= tight.budget_bytes);
        let text = result.render();
        assert!(text.contains("Out-of-core store"));
        assert!(text.contains("pinned minimum"));
    }
}

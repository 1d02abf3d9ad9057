//! Out-of-core data plane end to end: stream a cohort **directly onto
//! disk** (no in-RAM cohort ever exists), then evaluate metrics and run DCA
//! straight off the file through the byte-budgeted shard cache.
//!
//! ```text
//! cargo run --release --example store_to_disk
//! ```

use fair_ranking::core::metrics::sharded as shmetrics;
use fair_ranking::data::store::school_to_store;
use fair_ranking::prelude::*;
use fair_ranking::store::column_bytes;

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a school cohort straight into an FSS1 store file: every
    //    student goes from the RNG to the shard buffer to disk — the cohort
    //    is never materialized in memory.
    let shard_size = 4_096;
    let generator = SchoolGenerator::new(SchoolConfig::small(60_000, 42));
    let path = std::env::temp_dir().join("store_to_disk_example.fss");
    let summary = school_to_store(&generator, shard_size, &path)?;
    println!(
        "Wrote {} students as {} shards ({} KiB) to {}",
        summary.rows,
        summary.shards,
        summary.file_bytes / 1024,
        path.display()
    );

    // 2. Open the store with a cache budget far below the cohort's column
    //    bytes, so evaluation genuinely pages: shards are decoded on demand,
    //    pinned while a kernel reads them, and evicted highest index first
    //    to stay under budget. The budget leaves room for the worker pool's
    //    pinned working set (one shard per parallel worker) plus two shards
    //    that stay resident from one sweep to the next — pinned shards
    //    cannot be evicted, so a budget below that floor would be exceeded
    //    while kernels run.
    let probe = ShardStore::open_with_budget(&path, 0)?;
    let shard0 = probe.read_shard(0)?;
    let one_shard = column_bytes(&shard0);
    drop((probe, shard0));
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let budget = (workers + 2) * one_shard;
    let store = ShardStore::open_with_budget(&path, budget)?;
    println!(
        "Cache budget {} KiB (≈{} of {} shards resident at once)",
        store.cache_budget() / 1024,
        store.cache_budget() / one_shard.max(1),
        summary.shards,
    );

    // 3. Every sharded metric runs unchanged over the store — ShardStore and
    //    the in-memory ShardedDataset implement the same ShardSource trait.
    let rubric = SchoolGenerator::rubric();
    let zero = [0.0; 4];
    let k = 0.05;
    let baseline = shmetrics::disparity_at_k(&store, &rubric, &zero, k)?;
    println!("\nBaseline disparity at k = 5% (evaluated from disk):");
    for (name, value) in store.schema().fairness_names().iter().zip(&baseline) {
        println!("  {name:<12} {value:+.3}");
    }

    // 4. Core DCA with per-shard sampling, driven straight off the file.
    let config = DcaConfig {
        sample_size: 500,
        learning_rates: vec![1.0, 0.1],
        iterations_per_rate: 40,
        refinement_iterations: 0,
        seed: 7,
        ..DcaConfig::default()
    };
    let objective = TopKDisparity::new(k);
    let outcome = run_core_dca_sharded(&store, &rubric, &objective, &config, None, false)?;
    let after = shmetrics::disparity_at_k(&store, &rubric, &outcome.bonus, k)?;
    println!(
        "\nCore DCA over the store: {} steps, {} objects scored",
        outcome.steps, outcome.objects_scored
    );
    println!(
        "Disparity norm {:.3} -> {:.3}; nDCG@5% {:.4}",
        norm(&baseline),
        norm(&after),
        shmetrics::ndcg_at_k(&store, &rubric, &outcome.bonus, k)?
    );

    // 5. The paged evaluation is bit-for-bit the in-memory evaluation: the
    //    same cohort re-generated into RAM shards produces identical bits.
    let mem = generator.generate_sharded(shard_size)?.into_dataset();
    let mem_after = shmetrics::disparity_at_k(&mem, &rubric, &outcome.bonus, k)?;
    assert_eq!(
        after.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        mem_after.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "paged evaluation must match the in-memory engine bit for bit"
    );
    println!("\nIn-memory parity check: bit-for-bit identical.");

    // 6. Cache behaviour: how hard did the budget work?
    let stats = store.cache_stats();
    println!(
        "Cache: {} hits, {} misses, {} evictions; peak {} KiB of {} KiB budget",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.peak_bytes / 1024,
        stats.budget_bytes / 1024,
    );
    assert!(
        stats.peak_bytes <= stats.budget_bytes,
        "peak resident bytes must stay under the budget"
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}

//! Sharded data plane end to end: stream a cohort into fixed-size shards,
//! evaluate every whole-cohort metric through the shard-wise parallel engine,
//! run DCA variants over the shards, and explain one applicant's outcome.
//!
//! ```text
//! cargo run --release --example sharded_cohort
//! ```

use fair_ranking::core::metrics::sharded as shmetrics;
use fair_ranking::data::csv;
use fair_ranking::prelude::*;

fn main() -> Result<()> {
    // 1. Generate a school cohort *shard by shard*: rows go straight into
    //    fixed-size contiguous blocks, so no whole-cohort Vec<DataObject>
    //    ever exists.
    let shard_size = 4_096;
    let cohort =
        SchoolGenerator::new(SchoolConfig::small(30_000, 42)).generate_sharded(shard_size)?;
    let data = cohort.dataset();
    println!(
        "Cohort: {} students in {} shards of up to {} rows",
        data.len(),
        data.num_shards(),
        data.shard_size()
    );

    // 2. Whole-cohort metrics through the shard-wise engine: per-shard
    //    kernels + ordered combine. No full sort of the cohort is ever done.
    let rubric = SchoolGenerator::rubric();
    let zero = [0.0; 4];
    let k = 0.05;
    let baseline = shmetrics::disparity_at_k(data, &rubric, &zero, k)?;
    println!("\nBaseline disparity at k = 5% (shard-wise evaluation):");
    for (name, value) in data.schema().fairness_names().iter().zip(&baseline) {
        println!("  {name:<12} {value:+.3}");
    }
    println!("  norm         {:.3}", norm(&baseline));

    // 3. Core DCA with per-shard sampling: every step draws its sample shard
    //    by shard under a deterministically split seed stream — the building
    //    block for distributed DCA.
    let config = DcaConfig {
        sample_size: 500,
        learning_rates: vec![1.0, 0.1],
        iterations_per_rate: 60,
        refinement_iterations: 0,
        seed: 7,
        ..DcaConfig::default()
    };
    let objective = TopKDisparity::new(k);
    let outcome = run_core_dca_sharded(data, &rubric, &objective, &config, None, false)?;
    let after = shmetrics::disparity_at_k(data, &rubric, &outcome.bonus, k)?;
    println!(
        "\nCore DCA (per-shard sampling): {} steps, {} objects scored",
        outcome.steps, outcome.objects_scored
    );
    println!(
        "Disparity norm {:.3} -> {:.3}; nDCG@5% {:.4}",
        norm(&baseline),
        norm(&after),
        shmetrics::ndcg_at_k(data, &rubric, &outcome.bonus, k)?
    );

    // 4. Explain one applicant's outcome without materializing a global
    //    ranking: the rank is an exact per-shard count.
    let bonus = BonusVector::new(
        data.schema().clone(),
        outcome.bonus.clone(),
        BonusPolarity::NonNegative,
    )?;
    let explanation = selection_outcome(data, &rubric, &bonus, k, data.len() / 2)?;
    println!("\n{explanation}");

    // 5. Round-trip through the streaming CSV path: write the cohort, then
    //    read it back *directly into shards* via a BufReader (peak transient
    //    memory: one line + the shard being filled).
    let path = std::env::temp_dir().join("sharded_cohort_example.csv");
    csv::write_csv(&data.to_dataset(), &path).expect("write CSV");
    let reloaded = csv::read_csv_sharded(&path, shard_size).expect("stream CSV into shards");
    assert_eq!(reloaded.len(), data.len());
    assert_eq!(reloaded.row(17), data.row(17));
    println!(
        "\nStreamed {} rows back through {} ({} shards) — row-for-row identical.",
        reloaded.len(),
        path.display(),
        reloaded.num_shards()
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}

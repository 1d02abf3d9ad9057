//! Quickstart: learn explainable bonus points for a biased selection process.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example builds a small synthetic school cohort, measures the disparity
//! of an uncorrected 5% selection, runs DCA, and prints the bonus-point
//! intervention a school could publish to its applicants.

use fair_ranking::core::ranking::sharded::top_m;
use fair_ranking::prelude::*;
use std::time::Instant;

fn main() -> Result<()> {
    // 1. A synthetic cohort of 10,000 students with the NYC-like bias
    //    structure (low-income / ELL / special-ed / ENI).
    let cohort = SchoolGenerator::new(SchoolConfig::small(10_000, 42)).generate();
    let dataset = cohort.dataset();
    println!("Population summary:\n{}", DatasetSummary::compute(dataset)?);

    // 2. The screened-school rubric: 55% GPA + 45% state test scores.
    let rubric = SchoolGenerator::rubric();

    // 3. How disparate is the uncorrected top-5% selection?
    let view = dataset.full_view();
    let baseline_ranking =
        RankedSelection::from_scores(effective_scores(&view, &rubric, &[0.0; 4]));
    let baseline = disparity_at_k(&view, &baseline_ranking, 0.05)?;
    println!("Baseline disparity at k = 5%:");
    for (name, value) in dataset.schema().fairness_names().iter().zip(&baseline) {
        println!("  {name:<12} {value:+.3}");
    }
    println!("  {:<12} {:.3}\n", "Norm", norm(&baseline));

    // 4. Run DCA (Core DCA + Adam refinement + 0.5-point rounding).
    let config = DcaConfig {
        sample_size: 500,
        iterations_per_rate: 100,
        refinement_iterations: 100,
        rolling_window: 100,
        ..DcaConfig::default()
    };
    let result = Dca::new(config.clone()).run(dataset, &rubric, &TopKDisparity::new(0.05))?;

    // 5. The published, explainable intervention.
    println!("{}\n", result.bonus.explain());
    println!(
        "Disparity after bonus points:\n{}",
        result.report.disparity_after
    );
    println!(
        "\nCore DCA took {:?}, refinement took {:?} ({} + {} objects scored)",
        result.report.core_time,
        result.report.refinement_time,
        result.report.core_objects_scored,
        result.report.refinement_objects_scored
    );

    // 6. The performance story behind the sub-linearity claim: each DCA step
    //    touches only a 500-object sample, so throughput is what matters...
    let objects_scored =
        result.report.core_objects_scored + result.report.refinement_objects_scored;
    let dca_seconds = (result.report.core_time + result.report.refinement_time).as_secs_f64();
    println!(
        "DCA throughput: {:.0} objects scored/sec over {} sampled steps",
        objects_scored as f64 / dca_seconds.max(1e-9),
        config.core_steps() + config.refinement_iterations,
    );

    //    ...and the selection phase itself never needs a full sort for a
    //    fixed k: the partial top-k partition (`top_m`, over the dataset as
    //    one shard) does the same selection in a fraction of the time.
    let scores = effective_scores(&view, &rubric, result.bonus.values());
    let m = selection_size(scores.len(), 0.05)?;
    // Clone outside the timed regions so both paths are charged for ranking
    // only, not for copying the score vector.
    let scores_for_full = scores.clone();
    let t_full = Instant::now();
    let full_sort = RankedSelection::from_scores(scores_for_full);
    let t_full = t_full.elapsed();
    let t_partial = Instant::now();
    let partial = top_m(dataset, &scores, m);
    let t_partial = t_partial.elapsed();
    assert_eq!(full_sort.selected(0.05)?, partial.as_slice());
    println!(
        "Selection phase over {} students: full sort {t_full:?} vs partial top-{m} {t_partial:?} \
         (identical selection)",
        dataset.len(),
    );
    Ok(())
}

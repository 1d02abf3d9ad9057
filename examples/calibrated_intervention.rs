//! Calibrating the intervention strength and explaining individual outcomes.
//!
//! ```text
//! cargo run --release --example calibrated_intervention
//! ```
//!
//! Stakeholders rarely accept the full recommended intervention blindly: a
//! school board may insist on a minimum ranking utility, or a regulator on a
//! maximum residual disparity. This example shows the binary-search
//! calibration of Section VI-A2 against both kinds of targets, then uses the
//! explanation utilities to print exactly what one applicant would see.

use fair_ranking::prelude::*;

fn main() -> Result<()> {
    let k = 0.05;
    let cohort = SchoolGenerator::new(SchoolConfig::small(20_000, 42)).generate();
    let dataset = cohort.dataset();
    let rubric = SchoolGenerator::rubric();

    // 1. Learn the full recommended bonus vector.
    let result = Dca::with_paper_defaults().run(dataset, &rubric, &TopKDisparity::new(k))?;
    println!("Recommended intervention:\n{}\n", result.bonus.explain());
    println!(
        "Full intervention: disparity norm {:.3}, nDCG {:.4}\n",
        result.report.disparity_after.norm(),
        {
            let ranking = RankedSelection::from_scores(effective_scores(
                dataset,
                &rubric,
                result.bonus.values(),
            ));
            ndcg_at_k(dataset, &rubric, &ranking, k)?
        }
    );

    // 2a. The board insists on nDCG >= 0.985: how much of the bonus can we apply?
    let utility_floor = calibrate_proportion(
        dataset,
        &rubric,
        &result.bonus,
        k,
        CalibrationTarget::MinUtility(0.985),
        Some(0.5),
        16,
    )?;
    println!(
        "Utility floor 0.985  -> apply {:.0}% of the bonus: norm {:.3}, nDCG {:.4} (target met: {})",
        utility_floor.proportion * 100.0,
        utility_floor.disparity_norm,
        utility_floor.ndcg,
        utility_floor.target_met
    );

    // 2b. A regulator requires a disparity norm of at most 0.10: what is the
    //     smallest sufficient intervention?
    let fairness_ceiling = calibrate_proportion(
        dataset,
        &rubric,
        &result.bonus,
        k,
        CalibrationTarget::MaxDisparityNorm(0.10),
        Some(0.5),
        16,
    )?;
    println!(
        "Fairness ceiling 0.10 -> apply {:.0}% of the bonus: norm {:.3}, nDCG {:.4} (target met: {})\n",
        fairness_ceiling.proportion * 100.0,
        fairness_ceiling.disparity_norm,
        fairness_ceiling.ndcg,
        fairness_ceiling.target_met
    );

    // 3. What a family sees: the full score breakdown and the distance to the
    //    published threshold, for the first low-income ELL applicant.
    let position = dataset
        .iter()
        .position(|o| o.in_group(0) && o.in_group(1))
        .expect("cohort contains low-income ELL students");
    let breakdown = score_breakdown(
        dataset.schema(),
        &rubric,
        &fairness_ceiling.bonus,
        dataset.row(position),
    )?;
    println!("{breakdown}\n");
    let outcome = selection_outcome(dataset, &rubric, &fairness_ceiling.bonus, k, position)?;
    println!("{outcome}");
    Ok(())
}

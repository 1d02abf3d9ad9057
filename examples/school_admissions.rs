//! School-admissions scenario: train bonus points on one academic year, apply
//! them to the next, and publish the information a family would need.
//!
//! ```text
//! cargo run --release --example school_admissions
//! ```
//!
//! Mirrors the paper's primary evaluation (Section VI-A): a screened school
//! selects 5% of applicants with a 55/45 GPA/test rubric; DCA computes the
//! bonus points that bring the selection to statistical parity, and the
//! example reports utility (nDCG), the admission threshold, and a per-student
//! "what would my score be?" illustration.

use fair_ranking::prelude::*;

fn main() -> Result<()> {
    let k = 0.05;
    // Two academic years: train on the first, evaluate on the second.
    let generator = SchoolGenerator::new(SchoolConfig {
        num_students: 20_000,
        ..SchoolConfig::default()
    });
    let (train, test) = generator.train_test_cohorts();
    let rubric = SchoolGenerator::rubric();

    println!("Training cohort: {} students", train.dataset().len());
    println!("Test cohort:     {} students\n", test.dataset().len());

    // Learn the bonus points on the training year.
    let result =
        Dca::with_paper_defaults().run(train.dataset(), &rubric, &TopKDisparity::new(k))?;
    println!("Published intervention for next year's admissions:");
    println!("{}\n", result.bonus.explain());

    // Evaluate on the following year.
    let before = RankedSelection::from_scores(effective_scores(test.dataset(), &rubric, &[0.0; 4]));
    let after = RankedSelection::from_scores(effective_scores(
        test.dataset(),
        &rubric,
        result.bonus.values(),
    ));
    let disparity_before = disparity_at_k(test.dataset(), &before, k)?;
    let disparity_after = disparity_at_k(test.dataset(), &after, k)?;
    let utility = ndcg_at_k(test.dataset(), &rubric, &after, k)?;
    println!(
        "Test-year disparity norm: {:.3} -> {:.3}",
        norm(&disparity_before),
        norm(&disparity_after)
    );
    println!("Test-year nDCG@5%:        {utility:.3}");

    // Transparency artifacts: the admission threshold and a what-if example.
    if let Some(threshold) = after.threshold_score(k)? {
        println!("Published admission threshold (bonus-adjusted score): {threshold:.1}");
        // Pick one low-income ELL student outside the unadjusted selection and
        // show how the bonus affects their standing.
        if let Some(student) = test
            .dataset()
            .iter()
            .find(|o| o.in_group(0) && o.in_group(1))
        {
            let base = rubric.base_score(student);
            let adjusted = base + student.bonus_increment(result.bonus.values());
            println!(
                "Example applicant {} (low-income, ELL): rubric score {base:.1}, \
                 with bonus {adjusted:.1} -> {}",
                student.id(),
                if adjusted >= threshold {
                    "admitted"
                } else {
                    "not admitted"
                }
            );
        }
    }

    // The school does not know its final k: show the log-discounted variant.
    let log_result = Dca::with_paper_defaults().run(
        train.dataset(),
        &rubric,
        &LogDiscountedObjective::new(LogDiscountConfig {
            step: 10,
            max_fraction: 0.5,
        }),
    )?;
    println!("\nIf the selection size is unknown (matching context), publish instead:");
    println!("{}", log_result.bonus.explain());
    Ok(())
}

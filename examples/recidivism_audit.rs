//! Recidivism-score audit: measure and compensate the disparate impact of a
//! COMPAS-like decile score.
//!
//! ```text
//! cargo run --release --example recidivism_audit
//! ```
//!
//! Being flagged (top deciles) is the *unfavorable* outcome, so the bonus
//! points are non-positive: they subtract from the effective decile of groups
//! the score over-flags. The example audits both the flagged-set disparity
//! (Figure 10a) and the per-group false-positive rates (Figure 10b).

use fair_ranking::prelude::*;

fn main() -> Result<()> {
    let k = 0.3; // fraction of defendants flagged as high risk
    let dataset = CompasGenerator::paper_scale().generate();
    let ranker = CompasGenerator::decile_ranker();
    let names = dataset.schema().fairness_names();
    println!(
        "Defendants: {}, flagged fraction: {:.0}%\n",
        dataset.len(),
        k * 100.0
    );

    let zero = vec![0.0; names.len()];
    let baseline = RankedSelection::from_scores(effective_scores(&dataset, &ranker, &zero));

    println!("Audit of the uncorrected decile score:");
    let disparity = disparity_at_k(&dataset, &baseline, k)?;
    let (fpr, overall_fpr) = group_fpr_at_k(&dataset, &baseline, k)?;
    println!("  {:<18} {:>10} {:>10}", "group", "disparity", "FPR");
    for ((name, d), f) in names.iter().zip(&disparity).zip(&fpr) {
        println!("  {name:<18} {d:>+10.3} {f:>10.3}");
    }
    println!(
        "  {:<18} {:>10.3} {overall_fpr:>10.3}\n",
        "norm / overall",
        norm(&disparity)
    );

    // Compensate the flagged-set disparity with non-positive bonus points.
    let config = DcaConfig {
        polarity: BonusPolarity::NonPositive,
        ..DcaConfig::paper_default()
    };
    let result = Dca::new(config.clone()).run(&dataset, &ranker, &TopKDisparity::new(k))?;
    println!("Disparity-driven adjustment (points subtracted from the decile):");
    println!("{}\n", result.bonus.explain());
    println!(
        "Flagged-set disparity norm: {:.3} -> {:.3}\n",
        result.report.disparity_before.norm(),
        result.report.disparity_after.norm()
    );

    // Alternatively, equalize false-positive rates directly.
    let fpr_result = Dca::new(config).run(&dataset, &ranker, &FprDifferenceObjective::new(k))?;
    let adjusted = RankedSelection::from_scores(effective_scores(
        &dataset,
        &ranker,
        fpr_result.bonus.values(),
    ));
    let (fpr_after, overall_after) = group_fpr_at_k(&dataset, &adjusted, k)?;
    println!("FPR-driven adjustment:");
    println!("  {:<18} {:>10} {:>10}", "group", "FPR before", "FPR after");
    for ((name, before), after) in names.iter().zip(&fpr).zip(&fpr_after) {
        println!("  {name:<18} {before:>10.3} {after:>10.3}");
    }
    println!(
        "  {:<18} {overall_fpr:>10.3} {overall_after:>10.3}",
        "overall"
    );
    Ok(())
}

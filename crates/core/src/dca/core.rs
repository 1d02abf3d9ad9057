//! Core DCA — Algorithm 1 of the paper.
//!
//! ```text
//! B <- 0 (or random)
//! for L in learning_rates (decreasing):
//!     for x in 1..=iterations:
//!         S   <- random sample of `sample_size` objects from O
//!         D_k <- objective evaluated on S under the current bonus B
//!         B   <- B - L * D_k
//!         B   <- clamp(B)              // polarity + optional caps
//! ```
//!
//! The entire dataset is never scanned: every step touches only the sample, so
//! the cost per step is `O(sample_size · log(sample_size))` regardless of
//! dataset size (Section IV-D).
//!
//! This module holds the descent loop every Core and Full runner shares and
//! the serial runner, [`run_core_dca`]: the gathered driver
//! ([`crate::dca::run_core_dca_gathered`]) over a serial draw of the
//! in-memory dataset.

use crate::bonus::{BonusCaps, BonusPolarity};
use crate::dataset::Dataset;
use crate::dca::config::{DcaConfig, CLT_MINIMUM};
use crate::dca::control::RunControl;
use crate::dca::objective::Objective;
use crate::dca::sharded::run_core_dca_gathered;
use crate::error::{FairError, Result};
use crate::ranking::Ranker;
use rand::rngs::StdRng;
use rand::seq::index::IndexBuffer;
use rand::SeedableRng;

/// Per-step trace entry recorded by a DCA run when tracing is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreTraceEntry {
    /// Global step index (across all learning rates).
    pub step: usize,
    /// Learning rate in effect.
    pub learning_rate: f64,
    /// L2 norm of the sampled objective vector.
    pub objective_norm: f64,
    /// Bonus values after the update and clamping.
    pub bonus: Vec<f64>,
}

/// Output of a Core or Full DCA run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreDcaOutcome {
    /// Final (unrounded) bonus values.
    pub bonus: Vec<f64>,
    /// Number of descent steps executed.
    pub steps: usize,
    /// Number of objects scored across all steps (work proxy for the
    /// sub-linearity claim; steps × cohort size for Full DCA).
    pub objects_scored: usize,
    /// Optional per-step trace.
    pub trace: Vec<CoreTraceEntry>,
}

/// Clamp a bonus vector in place according to the polarity and optional caps.
pub(crate) fn clamp_bonus(bonus: &mut [f64], polarity: BonusPolarity, caps: Option<&BonusCaps>) {
    for (i, b) in bonus.iter_mut().enumerate() {
        let mut v = polarity.clamp(*b);
        if let Some(caps) = caps {
            v = caps.clamp(i, v);
            v = polarity.clamp(v);
        }
        *b = v;
    }
}

/// The one descent loop of Algorithm 1, run by every Core and Full DCA
/// runner — serial, sharded, paged and fleet: validation, the initial-bonus
/// clamp, the learning-rate ladder, the `control` checkpoint before and
/// report after each step, the update and clamp, and the
/// step/trace/objects accounting. `step` fills the direction at the current
/// bonus and returns how many objects it scored; it is the only thing the
/// runners vary, so their trajectories can differ only through it.
///
/// `sampled` runs get the configuration's CLT sample-size check; Full DCA
/// ignores the sample size, so it validates a copy with a size that always
/// passes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn descend(
    dims: usize,
    cohort_len: usize,
    sampled: bool,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
    control: &RunControl,
    mut step: impl FnMut(&[f64], &mut Vec<f64>) -> Result<usize>,
) -> Result<CoreDcaOutcome> {
    if sampled {
        config.validate(dims)?;
    } else {
        let mut check = config.clone();
        check.sample_size = check.sample_size.max(CLT_MINIMUM);
        check.validate(dims)?;
    }
    if cohort_len == 0 {
        return Err(FairError::EmptyDataset);
    }

    let mut bonus = initial.unwrap_or_else(|| vec![0.0; dims]);
    assert_eq!(bonus.len(), dims, "initial bonus dimensionality mismatch");
    clamp_bonus(&mut bonus, config.polarity, config.caps.as_ref());

    let mut direction = Vec::new();
    let mut trace_entries = Vec::new();
    let mut steps = 0_usize;
    let mut objects_scored = 0_usize;

    let total_steps = config.core_steps();
    for &lr in &config.learning_rates {
        for _ in 0..config.iterations_per_rate {
            control.checkpoint()?;
            objects_scored += step(&bonus, &mut direction)?;
            debug_assert_eq!(direction.len(), dims);
            for (b, d) in bonus.iter_mut().zip(&direction) {
                *b -= lr * d;
            }
            clamp_bonus(&mut bonus, config.polarity, config.caps.as_ref());
            steps += 1;
            if trace {
                trace_entries.push(CoreTraceEntry {
                    step: steps - 1,
                    learning_rate: lr,
                    objective_norm: crate::metrics::norm(&direction),
                    bonus: bonus.clone(),
                });
            }
            control.report(steps, total_steps);
        }
    }

    Ok(CoreDcaOutcome {
        bonus,
        steps,
        objects_scored,
        trace: trace_entries,
    })
}

/// Run Core DCA (Algorithm 1).
///
/// * `dataset` — the population `O` (or a training cohort drawn from the
///   underlying distribution),
/// * `ranker` — the score-based ranking function,
/// * `objective` — the unfairness measure to minimize,
/// * `config` — sample size, learning-rate ladder, polarity, caps, seed,
/// * `initial` — starting bonus values (`None` starts from zero),
/// * `trace` — record the per-step trajectory.
///
/// The run is the one gathered driver, [`run_core_dca_gathered`], with the
/// serial draw as its gather step: each step draws its sample through
/// [`Dataset::draw_indices_into`] on one RNG seeded with `config.seed` (a
/// stream of its own; the driver's step seeds go unused) and copies the
/// sampled rows in draw order into the driver's reused block, over which
/// the objective's [`Objective::plan`] is evaluated as a one-shard source.
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, or objective
/// failures (e.g. the FPR objective on an unlabelled dataset).
pub fn run_core_dca<R, O>(
    dataset: &Dataset,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
) -> Result<CoreDcaOutcome>
where
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut indices = IndexBuffer::new();
    run_core_dca_gathered(
        dataset.schema(),
        dataset.len(),
        ranker,
        objective,
        config,
        initial,
        trace,
        &RunControl::new(),
        |_step_seed, block| {
            dataset.draw_indices_into(&mut rng, config.sample_size, &mut indices)?;
            gather_sample(dataset, indices.as_slice(), ranker, block);
            Ok(())
        },
    )
}

/// Replace `block`'s rows with the sampled rows of `dataset`, in draw order
/// — the gather of a serial Core DCA or refinement step. A plain linear ranker
/// ([`Ranker::linear_weights`]) scores every row by a dot product of its
/// features and the plan never reads an id, so its steps leave the ids out;
/// any other ranker may read whole rows and gets every id.
pub(crate) fn gather_sample<R: Ranker + ?Sized>(
    dataset: &Dataset,
    indices: &[usize],
    ranker: &R,
    block: &mut Dataset,
) {
    let with_ids = ranker.linear_weights().is_none();
    block.clear();
    block.extend_from_rows(dataset, indices.iter().copied(), with_ids);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dca::objective::TopKDisparity;
    use crate::metrics::{disparity_at_k, norm};
    use crate::object::DataObject;
    use crate::ranking::topk::RankedSelection;
    use crate::ranking::{effective_scores, WeightedSumRanker};
    use rand::Rng;

    /// Synthetic population where group members' scores are shifted down, so
    /// the uncorrected top-k underrepresents them.
    fn biased_dataset(n: u64, member_rate: f64, shift: f64, seed: u64) -> Dataset {
        let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = (0..n)
            .map(|i| {
                let member = rng.gen::<f64>() < member_rate;
                let base: f64 = rng.gen::<f64>() * 100.0;
                let score = if member { base - shift } else { base };
                DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn disparity_with_bonus(dataset: &Dataset, bonus: &[f64], k: f64) -> f64 {
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let ranking = RankedSelection::from_scores(effective_scores(dataset, &ranker, bonus));
        norm(&disparity_at_k(dataset, &ranking, k).unwrap())
    }

    fn quick_config() -> DcaConfig {
        DcaConfig {
            sample_size: 200,
            learning_rates: vec![10.0, 1.0],
            iterations_per_rate: 40,
            refinement_iterations: 0,
            seed: 7,
            ..DcaConfig::default()
        }
    }

    #[test]
    fn core_dca_reduces_disparity_on_biased_population() {
        let dataset = biased_dataset(4000, 0.3, 20.0, 11);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let before = disparity_with_bonus(&dataset, &[0.0], 0.2);
        let out =
            run_core_dca(&dataset, &ranker, &objective, &quick_config(), None, false).unwrap();
        let after = disparity_with_bonus(&dataset, &out.bonus, 0.2);
        assert!(
            before > 0.05,
            "baseline must actually be disparate: {before}"
        );
        assert!(
            after < before * 0.5,
            "DCA must at least halve disparity: {after} vs {before}"
        );
        assert!(
            out.bonus[0] > 0.0,
            "the disadvantaged group must receive a positive bonus"
        );
    }

    #[test]
    fn bonus_stays_non_negative() {
        let dataset = biased_dataset(2000, 0.3, 5.0, 3);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.3);
        let out = run_core_dca(&dataset, &ranker, &objective, &quick_config(), None, true).unwrap();
        assert!(out.bonus.iter().all(|b| *b >= 0.0));
        assert!(out.trace.iter().all(|t| t.bonus.iter().all(|b| *b >= 0.0)));
    }

    #[test]
    fn caps_are_respected_at_every_step() {
        let dataset = biased_dataset(2000, 0.3, 50.0, 5);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut config = quick_config();
        config.caps = Some(BonusCaps::uniform(1, 3.0).unwrap());
        let out = run_core_dca(&dataset, &ranker, &objective, &config, None, true).unwrap();
        assert!(out.trace.iter().all(|t| t.bonus[0] <= 3.0 + 1e-12));
        assert!(out.bonus[0] <= 3.0 + 1e-12);
    }

    #[test]
    fn trace_has_one_entry_per_step_and_work_is_counted() {
        let dataset = biased_dataset(1000, 0.3, 10.0, 9);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let config = quick_config();
        let out = run_core_dca(&dataset, &ranker, &objective, &config, None, true).unwrap();
        assert_eq!(out.steps, config.core_steps());
        assert_eq!(out.trace.len(), config.core_steps());
        assert_eq!(out.objects_scored, config.core_steps() * config.sample_size);
    }

    #[test]
    fn initial_bonus_is_respected_and_clamped() {
        let dataset = biased_dataset(1000, 0.3, 10.0, 13);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut config = quick_config();
        config.learning_rates = vec![0.001];
        config.iterations_per_rate = 1;
        // Negative initial value must be clamped to zero before the first step.
        let out = run_core_dca(
            &dataset,
            &ranker,
            &objective,
            &config,
            Some(vec![-5.0]),
            true,
        )
        .unwrap();
        assert!(out.trace[0].bonus[0] >= 0.0);
    }

    #[test]
    fn runs_are_reproducible_for_a_fixed_seed() {
        let dataset = biased_dataset(1500, 0.25, 15.0, 21);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.1);
        let config = quick_config();
        let a = run_core_dca(&dataset, &ranker, &objective, &config, None, false).unwrap();
        let b = run_core_dca(&dataset, &ranker, &objective, &config, None, false).unwrap();
        assert_eq!(a.bonus, b.bonus);
    }

    #[test]
    fn different_seeds_may_differ_but_both_reduce_disparity() {
        let dataset = biased_dataset(3000, 0.3, 20.0, 17);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let before = disparity_with_bonus(&dataset, &[0.0], 0.2);
        for seed in [1, 2] {
            let mut config = quick_config();
            config.seed = seed;
            let out = run_core_dca(&dataset, &ranker, &objective, &config, None, false).unwrap();
            let after = disparity_with_bonus(&dataset, &out.bonus, 0.2);
            assert!(after < before, "seed {seed}: {after} vs {before}");
        }
    }

    #[test]
    fn empty_dataset_is_error() {
        let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
        let dataset = Dataset::empty(schema);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        assert!(run_core_dca(&dataset, &ranker, &objective, &quick_config(), None, false).is_err());
    }

    /// A ranker that scores whole rows — here by its id, without
    /// `linear_weights` — sees each sampled row's own id: its run walks the
    /// trajectory of a feature ranker over a copy of the ids.
    #[test]
    fn whole_row_rankers_see_the_sampled_rows_ids() {
        struct ById;
        impl Ranker for ById {
            fn base_score(&self, object: crate::object::ObjectView<'_>) -> f64 {
                object.id().0 as f64
            }
        }
        // A cohort whose feature equals the id. Members hold the low ids,
        // so the id ranking is biased.
        let schema = Schema::from_names(&["id"], &["g"], &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let objects = (0..2_000_u64)
            .map(|i| {
                let member = rng.gen::<f64>() < 0.3;
                let id = if member { i / 2 } else { 1_000 + i };
                DataObject::new_unchecked(
                    id,
                    vec![id as f64],
                    vec![f64::from(u8::from(member))],
                    None,
                )
            })
            .collect();
        let dataset = Dataset::new(schema, objects).unwrap();
        let objective = TopKDisparity::new(0.2);
        let by_id = run_core_dca(&dataset, &ById, &objective, &quick_config(), None, true).unwrap();
        let by_feature = WeightedSumRanker::new(vec![1.0]).unwrap();
        let reference = run_core_dca(
            &dataset,
            &by_feature,
            &objective,
            &quick_config(),
            None,
            true,
        )
        .unwrap();
        assert_eq!(by_id.trace, reference.trace);
        assert!(by_id.bonus[0] > 0.0, "the id ranking is biased");
    }

    #[test]
    fn invalid_config_is_rejected_before_running() {
        let dataset = biased_dataset(100, 0.3, 5.0, 1);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut config = quick_config();
        config.sample_size = 5;
        assert!(run_core_dca(&dataset, &ranker, &objective, &config, None, false).is_err());
    }
}

//! DCA over the sharded column store — in memory or paged from disk.
//!
//! * [`run_full_dca_sharded`] — Full DCA: every step evaluates the
//!   objective's [`Objective::plan`] over the whole cohort on the shard-wise
//!   parallel engine. It is the one Full DCA runner; a `Dataset` runs it as
//!   a one-shard cohort. For binary/dyadic fairness values the bonus
//!   trajectory is bit-for-bit the same at every shard size (see the
//!   determinism notes on [`crate::shard`]).
//! * [`run_core_dca_sharded`] — Core DCA (Algorithm 1) drawing each step's
//!   sample **per shard**: quotas are apportioned proportionally and every
//!   shard samples its own rows with an RNG stream split deterministically
//!   off the step seed ([`crate::shard::shard_seed`]), so shards can sample
//!   independently — the building block for distributed DCA, where no node
//!   ever sees another node's rows. The sampled rows are gathered into a
//!   reused block and the objective's plan is evaluated over it as a
//!   one-shard source, exactly as [`crate::dca::run_core_dca`] does.
//!
//! The sampled variant draws a *different* (but equally distributed,
//! seed-deterministic) sample stream than the serial
//! [`crate::dca::run_core_dca`], so their trajectories are not comparable
//! step for step; each is reproducible under its own seed.

use crate::attributes::SchemaRef;
use crate::dataset::Dataset;
use crate::dca::config::DcaConfig;
use crate::dca::control::RunControl;
use crate::dca::core::{descend, CoreDcaOutcome};
use crate::dca::objective::Objective;
use crate::error::Result;
use crate::metrics::sharded::ShardedEvalScratch;
use crate::ranking::Ranker;
use crate::shard::ShardSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run Full DCA with every step's whole-cohort evaluation on the shard-wise
/// engine: the objective's [`Objective::plan`] evaluated over `data`. The
/// descent itself is [`crate::dca::run_full_descent`] — the loop the fleet
/// coordinator also drives — so the two trajectories can only differ
/// through the evaluation.
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, or objective
/// failures.
pub fn run_full_dca_sharded<S, R, O>(
    data: &S,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
) -> Result<CoreDcaOutcome>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    run_full_dca_sharded_controlled(
        data,
        ranker,
        objective,
        config,
        initial,
        trace,
        &RunControl::new(),
    )
}

/// [`run_full_dca_sharded`] under a [`RunControl`]: the identical descent
/// loop, plus a cancellation check at every step boundary and a progress
/// report after every completed step. A run that is never cancelled produces
/// the bit-identical trajectory of the uncontrolled runner — which is what
/// lets a serving layer expose background Full-DCA jobs without forking the
/// algorithm.
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, objective
/// failures, or [`crate::error::FairError::Cancelled`] when `control` is
/// cancelled mid-run.
#[allow(clippy::too_many_arguments)]
pub fn run_full_dca_sharded_controlled<S, R, O>(
    data: &S,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
    control: &RunControl,
) -> Result<CoreDcaOutcome>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    let plan = objective.plan();
    let mut scratch = ShardedEvalScratch::new();
    crate::dca::full::run_full_descent(
        data.schema().num_fairness(),
        data.len(),
        config,
        initial,
        trace,
        control,
        |bonus, out| {
            // Phase attribution wraps the whole shard-sweep evaluation (one
            // scope per step, outside every kernel); inert unless the caller
            // installed a job profile, and the clock never feeds back into
            // the descent, so trajectories stay bit-identical.
            let _score = crate::obs::profile::scope(crate::obs::Phase::Score);
            plan.evaluate_vector_into(data, ranker, bonus, &mut scratch, out)
        },
    )
}

/// Run Core DCA (Algorithm 1) with per-shard sampling: each step draws its
/// sample shard by shard under a deterministically split seed stream, gathers
/// the sampled rows into a reused contiguous block, and evaluates the
/// objective's plan over it.
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, or objective
/// failures.
pub fn run_core_dca_sharded<S, R, O>(
    data: &S,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
) -> Result<CoreDcaOutcome>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    run_core_dca_sharded_controlled(
        data,
        ranker,
        objective,
        config,
        initial,
        trace,
        &RunControl::new(),
    )
}

/// [`run_core_dca_sharded`] under a [`RunControl`]: the identical per-shard
/// sampled descent, plus a cancellation check at every step boundary and a
/// progress report after every completed step. Never-cancelled runs draw the
/// identical seeded sample stream and produce the bit-identical trajectory.
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, objective
/// failures, or [`crate::error::FairError::Cancelled`] when `control` is
/// cancelled mid-run.
#[allow(clippy::too_many_arguments)]
pub fn run_core_dca_sharded_controlled<S, R, O>(
    data: &S,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
    control: &RunControl,
) -> Result<CoreDcaOutcome>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    let mut sample_indices = Vec::new();
    run_core_dca_gathered(
        data.schema(),
        data.len(),
        ranker,
        objective,
        config,
        initial,
        trace,
        control,
        |step_seed, gather| {
            // One sample-phase scope per step covers the draw and the
            // gather; storage reads it triggers open nested scopes that
            // subtract themselves from this one on the same thread.
            let _sample = crate::obs::profile::scope(crate::obs::Phase::Sample);
            data.sample_indices_into(step_seed, config.sample_size, &mut sample_indices)?;
            // The sample comes back grouped by shard; the source fetches
            // each shard's run at once (a borrow for the in-memory source,
            // the rows' checksummed groups for a paged store).
            data.gather_rows(&sample_indices, gather)
        },
    )
}

/// The one Core-DCA descent loop over a caller-supplied **gather step**: the
/// master RNG emits one `step_seed` per step, `gather_step` fills the cleared
/// block with that step's sample rows, and the objective's
/// [`Objective::plan`] is evaluated over the block, a plain `Dataset` and
/// so a one-shard source, with the plan, the block and the plan's scratch
/// built once per run. The serial runner ([`crate::dca::run_core_dca`]), the
/// local sharded runner ([`run_core_dca_sharded`]) and distributed
/// coordinators all execute exactly this driver, differing only in how the
/// gather draws and fetches rows — which is why a coordinator that
/// concatenates each worker's [`crate::shard::sample_indices_range_into`]
/// slice in ascending shard order reproduces the local trajectory bit for
/// bit.
///
/// # Errors
/// Returns an error for invalid configurations, empty cohorts, gather or
/// objective failures, or a cancellation requested through `control`.
#[allow(clippy::too_many_arguments)]
pub fn run_core_dca_gathered<R, O>(
    schema: &SchemaRef,
    cohort_len: usize,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
    control: &RunControl,
    mut gather_step: impl FnMut(u64, &mut Dataset) -> Result<()>,
) -> Result<CoreDcaOutcome>
where
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    // The master stream only emits one step seed per step; every shard's
    // sampling RNG is split off that seed (shard_seed), so the sample a shard
    // draws is independent of how many other shards exist on this node — or
    // of which node holds them.
    let mut master = StdRng::seed_from_u64(config.seed);
    let plan = objective.plan();
    let mut sample = Dataset::empty(schema.clone());
    let mut scratch = ShardedEvalScratch::new();
    descend(
        schema.num_fairness(),
        cohort_len,
        true,
        config,
        initial,
        trace,
        control,
        |bonus, direction| {
            let step_seed: u64 = master.gen();
            sample.clear();
            gather_step(step_seed, &mut sample)?;
            let _score = crate::obs::profile::scope(crate::obs::Phase::Score);
            plan.evaluate_vector_into(&sample, ranker, bonus, &mut scratch, direction)?;
            Ok(sample.len())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dca::full::run_full_descent;
    use crate::dca::objective::TopKDisparity;
    use crate::error::FairError;
    use crate::metrics::{disparity_at_k, norm, sharded};
    use crate::object::DataObject;
    use crate::ranking::topk::RankedSelection;
    use crate::ranking::{effective_scores, WeightedSumRanker};
    use crate::shard::ShardedDataset;

    /// Biased cohort whose scores and fairness values all sit on a dyadic
    /// grid, so every summation order produces identical bits.
    fn dyadic_biased(n: u64, seed: u64) -> Dataset {
        let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = (0..n)
            .map(|i| {
                let member = rng.gen::<f64>() < 0.3;
                // Scores on a 1/64 grid in [0, 128).
                let base = f64::from(rng.gen_range(0_u32..8192)) / 64.0;
                let score = if member { base - 16.0 } else { base };
                DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn config() -> DcaConfig {
        DcaConfig {
            sample_size: 150,
            learning_rates: vec![10.0, 1.0],
            iterations_per_rate: 15,
            refinement_iterations: 0,
            seed: 11,
            ..DcaConfig::default()
        }
    }

    #[test]
    fn sharded_full_dca_matches_serial_bitwise_across_shard_sizes() {
        let flat = dyadic_biased(700, 3);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();
        // Oracle: the same descent with every step's direction from the
        // serial metric over a full sort of the whole cohort.
        let serial = run_full_descent(
            1,
            flat.len(),
            &cfg,
            None,
            true,
            &RunControl::new(),
            |b, out| {
                let ranking = RankedSelection::from_scores(effective_scores(&flat, &ranker, b));
                *out = disparity_at_k(&flat, &ranking, objective.k)?;
                Ok(())
            },
        )
        .unwrap();
        for shard_size in [1, 7, 700, 65_536] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            let sharded =
                run_full_dca_sharded(&data, &ranker, &objective, &cfg, None, true).unwrap();
            let a: Vec<u64> = serial.bonus.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = sharded.bonus.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "shard size {shard_size}");
            assert_eq!(serial.steps, sharded.steps);
            assert_eq!(serial.objects_scored, sharded.objects_scored);
            for (s, t) in serial.trace.iter().zip(&sharded.trace) {
                assert_eq!(s.bonus, t.bonus, "shard size {shard_size} step {}", s.step);
            }
        }
    }

    #[test]
    fn sharded_core_dca_reduces_disparity_and_is_reproducible() {
        let flat = dyadic_biased(3000, 5);
        let data = ShardedDataset::from_dataset(&flat, 256).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut cfg = config();
        cfg.iterations_per_rate = 40;
        let a = run_core_dca_sharded(&data, &ranker, &objective, &cfg, None, false).unwrap();
        let b = run_core_dca_sharded(&data, &ranker, &objective, &cfg, None, false).unwrap();
        assert_eq!(a.bonus, b.bonus, "same seed, same trajectory");
        assert_eq!(a.objects_scored, cfg.core_steps() * cfg.sample_size);

        let before = sharded::disparity_at_k(&data, &ranker, &[0.0], 0.2).unwrap();
        let after = sharded::disparity_at_k(&data, &ranker, &a.bonus, 0.2).unwrap();
        assert!(
            norm(&after) < norm(&before) * 0.5,
            "sharded-sampled DCA must reduce disparity: {} -> {}",
            norm(&before),
            norm(&after)
        );
        assert!(a.bonus[0] > 0.0);
    }

    #[test]
    fn sharded_core_dca_shard_layout_changes_samples_but_not_convergence() {
        let flat = dyadic_biased(2000, 9);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut cfg = config();
        cfg.iterations_per_rate = 40;
        for shard_size in [64, 500] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            let out = run_core_dca_sharded(&data, &ranker, &objective, &cfg, None, false).unwrap();
            let after = sharded::disparity_at_k(&data, &ranker, &out.bonus, 0.2).unwrap();
            assert!(
                norm(&after) < 0.1,
                "shard size {shard_size}: residual {}",
                norm(&after)
            );
        }
    }

    #[test]
    fn controlled_runs_match_uncontrolled_and_report_progress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let flat = dyadic_biased(600, 21);
        let data = ShardedDataset::from_dataset(&flat, 64).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();

        let steps_seen = Arc::new(AtomicUsize::new(0));
        let captured = steps_seen.clone();
        let total = cfg.core_steps();
        let control = RunControl::with_progress(move |p| {
            assert_eq!(p.total_steps, total);
            captured.store(p.step, Ordering::Relaxed);
        });

        let plain = run_full_dca_sharded(&data, &ranker, &objective, &cfg, None, true).unwrap();
        let controlled =
            run_full_dca_sharded_controlled(&data, &ranker, &objective, &cfg, None, true, &control)
                .unwrap();
        assert_eq!(plain.bonus, controlled.bonus, "identical trajectory");
        assert_eq!(plain.trace.len(), controlled.trace.len());
        assert_eq!(steps_seen.load(Ordering::Relaxed), total);
    }

    #[test]
    fn cancellation_stops_both_runners_at_a_step_boundary() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Weak};

        let flat = dyadic_biased(500, 17);
        let data = ShardedDataset::from_dataset(&flat, 64).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();

        // Pre-cancelled: not a single step runs.
        let control = RunControl::new();
        control.cancel();
        assert!(matches!(
            run_full_dca_sharded_controlled(
                &data, &ranker, &objective, &cfg, None, false, &control
            ),
            Err(FairError::Cancelled)
        ));
        assert!(matches!(
            run_core_dca_sharded_controlled(
                &data, &ranker, &objective, &cfg, None, false, &control
            ),
            Err(FairError::Cancelled)
        ));

        // Mid-run: a progress hook that cancels its own control at step 3 —
        // the run must stop at the next step boundary, not run to completion.
        let last_step = Arc::new(AtomicUsize::new(0));
        let seen = last_step.clone();
        let control = Arc::new_cyclic(|weak: &Weak<RunControl>| {
            let weak = weak.clone();
            RunControl::with_progress(move |p| {
                seen.store(p.step, Ordering::Relaxed);
                if p.step == 3 {
                    if let Some(c) = weak.upgrade() {
                        c.cancel();
                    }
                }
            })
        });
        match run_core_dca_sharded_controlled(
            &data, &ranker, &objective, &cfg, None, false, &control,
        ) {
            Err(FairError::Cancelled) => {}
            other => panic!("expected mid-run cancellation, got {other:?}"),
        }
        assert_eq!(
            last_step.load(Ordering::Relaxed),
            3,
            "exactly 3 steps run before the cancellation takes effect"
        );
    }

    /// A coordinator gathering each step's sample from per-range workers
    /// (`sample_indices_range_into`, concatenated in ascending range order)
    /// reproduces the single-node sharded trajectory bit for bit.
    #[test]
    fn gathered_core_dca_over_range_samples_matches_the_sharded_runner_bitwise() {
        let flat = dyadic_biased(900, 13);
        let data = ShardedDataset::from_dataset(&flat, 64).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();
        let local = run_core_dca_sharded(&data, &ranker, &objective, &cfg, None, true).unwrap();

        let cuts = [0, 3, 5, data.num_shards()];
        let mut indices = Vec::new();
        let distributed = run_core_dca_gathered(
            data.schema(),
            data.len(),
            &ranker,
            &objective,
            &cfg,
            None,
            true,
            &RunControl::new(),
            |step_seed, gather| {
                for range in cuts.windows(2) {
                    crate::shard::sample_indices_range_into(
                        &data,
                        step_seed,
                        cfg.sample_size,
                        range[0]..range[1],
                        &mut indices,
                    )?;
                    data.gather_rows(&indices, gather)?;
                }
                Ok(())
            },
        )
        .unwrap();
        let a: Vec<u64> = local.bonus.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = distributed.bonus.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "range-gathered Core DCA is bit-identical");
        for (s, t) in local.trace.iter().zip(&distributed.trace) {
            assert_eq!(s.bonus, t.bonus, "step {}", s.step);
        }
    }

    #[test]
    fn sharded_runs_reject_empty_and_invalid_inputs() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let empty = ShardedDataset::with_shard_size(schema, 8).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        assert!(run_full_dca_sharded(&empty, &ranker, &objective, &config(), None, false).is_err());
        assert!(run_core_dca_sharded(&empty, &ranker, &objective, &config(), None, false).is_err());
        let flat = dyadic_biased(100, 1);
        let data = ShardedDataset::from_dataset(&flat, 16).unwrap();
        let mut bad = config();
        bad.sample_size = 5;
        assert!(run_core_dca_sharded(&data, &ranker, &objective, &bad, None, false).is_err());
    }
}

//! An independent oracle for every DCA runner.
//!
//! Every runner evaluates its objective's `MetricPlan`: over the step's
//! gathered sample, as a one-shard source, for Core DCA and the refinement,
//! and over the cohort for Full DCA. The loops here evaluate each step with
//! the public serial metrics instead — the objective's metric over a full
//! sort (`RankedSelection::from_scores`) of a `SampleView` — on samples drawn
//! through the public samplers from the same seeds. Algorithm 1 and Full DCA
//! reuse the library's descent loop, `run_full_descent`, whose ladder,
//! update and clamp are the same for every runner; Algorithm 2's Adam loop
//! is written out.
//!
//! The cohorts are not dyadic: the school cohort's `eni` attribute is
//! continuous and COMPAS decile scores tie heavily. Each trajectory is
//! pinned bit for bit, for all four objectives and for a plain linear and a
//! normalized (per-row) ranker.

use fair_ranking::core::dca::{run_full_descent, CoreDcaOutcome};
use fair_ranking::core::metrics::scaled_disparate_impact_at_k;
use fair_ranking::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four DCA objectives, by the serial metric that evaluates each.
#[derive(Debug, Clone, Copy)]
enum Metric {
    Disparity,
    LogDiscounted,
    DisparateImpact,
    FprDifference,
}

const K: f64 = 0.1;

impl Metric {
    /// The library objective under test.
    fn objective(self) -> Box<dyn Objective> {
        match self {
            Self::Disparity => Box::new(TopKDisparity::new(K)),
            Self::LogDiscounted => Box::new(LogDiscountedObjective::default()),
            Self::DisparateImpact => Box::new(ScaledDisparateImpact::new(K)),
            Self::FprDifference => Box::new(FprDifferenceObjective::new(K)),
        }
    }

    /// The oracle: the serial metric over a full sort of `view`.
    fn serial(self, view: &SampleView<'_>, ranker: &dyn Ranker, bonus: &[f64]) -> Result<Vec<f64>> {
        let ranking = RankedSelection::from_scores(effective_scores(view, ranker, bonus));
        match self {
            Self::Disparity => disparity_at_k(view, &ranking, K),
            Self::LogDiscounted => {
                log_discounted_disparity(view, &ranking, &LogDiscountConfig::default())
            }
            Self::DisparateImpact => scaled_disparate_impact_at_k(view, &ranking, K),
            Self::FprDifference => fpr_difference_at_k(view, &ranking, K),
        }
    }
}

/// A cohort with its rankers, the metrics it supports and a bonus polarity
/// under which every metric moves the bonus.
struct Case {
    name: &'static str,
    data: Dataset,
    rankers: Vec<Box<dyn Ranker>>,
    metrics: Vec<Metric>,
    polarity: BonusPolarity,
}

fn cases() -> Vec<Case> {
    let school = SchoolGenerator::new(SchoolConfig::small(3_000, 17))
        .generate()
        .into_dataset();
    let compas = CompasGenerator::new(CompasConfig::small(3_000, 23)).generate();
    vec![
        Case {
            name: "school",
            data: school,
            rankers: vec![
                Box::new(SchoolGenerator::rubric()),
                Box::new(
                    NormalizedWeightedSum::new(vec![0.55, 0.45], vec![10.0, 5.0], vec![95.0, 90.0])
                        .unwrap(),
                ),
            ],
            // Unlabelled: the FPR objective is checked to fail instead.
            metrics: vec![
                Metric::Disparity,
                Metric::LogDiscounted,
                Metric::DisparateImpact,
            ],
            polarity: BonusPolarity::NonNegative,
        },
        Case {
            name: "compas",
            data: compas,
            rankers: vec![
                Box::new(WeightedSumRanker::new(vec![1.0]).unwrap()),
                Box::new(NormalizedWeightedSum::new(vec![1.0], vec![1.0], vec![10.0]).unwrap()),
            ],
            metrics: vec![
                Metric::Disparity,
                Metric::LogDiscounted,
                Metric::DisparateImpact,
                Metric::FprDifference,
            ],
            polarity: BonusPolarity::NonPositive,
        },
    ]
}

fn config(polarity: BonusPolarity) -> DcaConfig {
    DcaConfig {
        sample_size: 200,
        learning_rates: vec![8.0, 1.0],
        iterations_per_rate: 8,
        refinement_iterations: 12,
        rolling_window: 6,
        polarity,
        seed: 29,
        ..DcaConfig::default()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The library and oracle trajectories agree step for step, and the descent
/// moved the bonus (a trajectory stuck at zero would pin nothing).
fn assert_same_trajectory(what: &str, lib: &CoreDcaOutcome, oracle: &CoreDcaOutcome) {
    assert_eq!(lib.steps, oracle.steps, "{what}");
    assert_eq!(lib.trace.len(), oracle.trace.len(), "{what}");
    for (a, b) in lib.trace.iter().zip(&oracle.trace) {
        assert_eq!(bits(&a.bonus), bits(&b.bonus), "{what}: step {}", a.step);
        assert_eq!(
            a.objective_norm.to_bits(),
            b.objective_norm.to_bits(),
            "{what}: step {}",
            a.step
        );
    }
    assert_eq!(bits(&lib.bonus), bits(&oracle.bonus), "{what}");
    assert!(
        lib.bonus.iter().any(|b| *b != 0.0),
        "{what}: the bonus never moved"
    );
}

/// Algorithm 1 with every step's direction from `evaluate` at the current
/// bonus.
fn descent(
    data: &Dataset,
    config: &DcaConfig,
    evaluate: impl FnMut(&[f64], &mut Vec<f64>) -> Result<()>,
) -> Result<CoreDcaOutcome> {
    let dims = data.schema().num_fairness();
    run_full_descent(
        dims,
        data.len(),
        config,
        None,
        true,
        &RunControl::new(),
        evaluate,
    )
}

#[test]
fn core_dca_walks_the_serial_oracle_bit_for_bit() {
    for case in cases() {
        let config = config(case.polarity);
        for (r, ranker) in case.rankers.iter().enumerate() {
            for &metric in &case.metrics {
                let what = format!("{} ranker {r} {metric:?}", case.name);
                let objective = metric.objective();
                let lib =
                    run_core_dca(&case.data, ranker, &*objective, &config, None, true).unwrap();
                // `run_core_dca` draws each step's indices from one seeded
                // RNG, as `Dataset::sample` does.
                let mut rng = StdRng::seed_from_u64(config.seed);
                let oracle = descent(&case.data, &config, |bonus, out| {
                    let sample = case.data.sample(&mut rng, config.sample_size)?;
                    *out = metric.serial(&sample, ranker, bonus)?;
                    Ok(())
                })
                .unwrap();
                assert_same_trajectory(&what, &lib, &oracle);
                assert_eq!(lib.objects_scored, lib.steps * config.sample_size);
            }
        }
    }
}

#[test]
fn sharded_core_dca_walks_the_serial_oracle_bit_for_bit() {
    for case in cases() {
        let config = config(case.polarity);
        // 3,000 rows in 7 shards of 448, the last one short.
        let data = ShardedDataset::from_dataset(&case.data, 448).unwrap();
        for (r, ranker) in case.rankers.iter().enumerate() {
            for &metric in &case.metrics {
                let what = format!("{} ranker {r} {metric:?}", case.name);
                let objective = metric.objective();
                let lib =
                    run_core_dca_sharded(&data, ranker, &*objective, &config, None, true).unwrap();
                // One step seed per step; each step's rows are the per-shard
                // sampler's global indices, in its order, into the flat cohort.
                let mut master = StdRng::seed_from_u64(config.seed);
                let mut indices = Vec::new();
                let oracle = descent(&case.data, &config, |bonus, out| {
                    data.sample_indices_into(master.gen(), config.sample_size, &mut indices)?;
                    let sample = SampleView::from_indices(&case.data, indices.clone());
                    *out = metric.serial(&sample, ranker, bonus)?;
                    Ok(())
                })
                .unwrap();
                assert_same_trajectory(&what, &lib, &oracle);
            }
        }
    }
}

#[test]
fn full_dca_walks_the_serial_oracle_bit_for_bit() {
    for case in cases() {
        let mut config = config(case.polarity);
        config.iterations_per_rate = 4;
        // A `Dataset` runs Full DCA in place, as one shard.
        let view = case.data.full_view();
        for (r, ranker) in case.rankers.iter().enumerate() {
            for &metric in &case.metrics {
                let what = format!("{} ranker {r} {metric:?}", case.name);
                let objective = metric.objective();
                let lib =
                    run_full_dca_sharded(&case.data, ranker, &*objective, &config, None, true)
                        .unwrap();
                let oracle = descent(&case.data, &config, |bonus, out| {
                    *out = metric.serial(&view, ranker, bonus)?;
                    Ok(())
                })
                .unwrap();
                assert_same_trajectory(&what, &lib, &oracle);
                assert_eq!(lib.objects_scored, oracle.objects_scored);
            }
        }
    }
}

/// Algorithm 2 written out: Adam steps on sampled directions, the rolling
/// mean of the iterates, rounding to the granularity, and the clamps.
fn refinement_oracle(
    data: &Dataset,
    ranker: &dyn Ranker,
    metric: Metric,
    config: &DcaConfig,
    initial: Vec<f64>,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let dims = data.schema().num_fairness();
    let clamp = |bonus: &mut Vec<f64>| {
        for (i, b) in bonus.iter_mut().enumerate() {
            let mut v = config.polarity.clamp(*b);
            if let Some(caps) = &config.caps {
                v = config.polarity.clamp(caps.clamp(i, v));
            }
            *b = v;
        }
    };
    let mut bonus = initial;
    clamp(&mut bonus);
    // The refinement's stream is offset from the Core DCA seed.
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5EED_0001));
    let mut adam = Adam::new(dims, config.adam);
    let mut window = RollingWindow::new(dims, config.rolling_window);
    for _ in 0..config.refinement_iterations {
        let sample = data.sample(&mut rng, config.sample_size)?;
        let direction = metric.serial(&sample, ranker, &bonus)?;
        adam.step(&mut bonus, &direction);
        clamp(&mut bonus);
        window.push(bonus.clone());
    }
    let unrounded = window.mean().unwrap_or(bonus);
    let mut rounded = match config.granularity {
        Some(g) => unrounded.iter().map(|v| (v / g).round() * g).collect(),
        None => unrounded.clone(),
    };
    clamp(&mut rounded);
    Ok((rounded, unrounded))
}

#[test]
fn refinement_walks_the_serial_oracle_bit_for_bit() {
    for case in cases() {
        let config = config(case.polarity);
        let dims = case.data.schema().num_fairness();
        let sign = if case.polarity == BonusPolarity::NonPositive {
            -1.0
        } else {
            1.0
        };
        let initial: Vec<f64> = (0..dims).map(|d| sign * (1.0 + d as f64 / 3.0)).collect();
        for (r, ranker) in case.rankers.iter().enumerate() {
            for &metric in &case.metrics {
                let what = format!("{} ranker {r} {metric:?}", case.name);
                let objective = metric.objective();
                let lib = run_refinement(&case.data, ranker, &*objective, &config, initial.clone())
                    .unwrap();
                let (bonus, unrounded) =
                    refinement_oracle(&case.data, ranker, metric, &config, initial.clone())
                        .unwrap();
                assert_eq!(bits(&lib.unrounded), bits(&unrounded), "{what}");
                assert_eq!(bits(&lib.bonus), bits(&bonus), "{what}");
                assert_eq!(lib.steps, config.refinement_iterations, "{what}");
            }
        }
    }
}

/// `Dca::run` reports the objective over the whole dataset before, after
/// Core DCA and after the refinement: each equals the serial metric.
#[test]
fn dca_reports_the_serial_metric_of_the_whole_dataset() {
    for case in cases() {
        let config = config(case.polarity);
        let view = case.data.full_view();
        let ranker = &case.rankers[0];
        for &metric in &case.metrics {
            let what = format!("{} {metric:?}", case.name);
            let result = Dca::new(config.clone())
                .run(&case.data, ranker, &*metric.objective())
                .unwrap();
            let report = &result.report;
            let zero = vec![0.0; case.data.schema().num_fairness()];
            let serial = |bonus: &[f64]| bits(&metric.serial(&view, ranker, bonus).unwrap());
            assert_eq!(
                bits(report.disparity_before.values()),
                serial(&zero),
                "{what}"
            );
            let core = run_core_dca(
                &case.data,
                ranker,
                &*metric.objective(),
                &config,
                None,
                false,
            )
            .unwrap();
            assert_eq!(
                bits(report.disparity_core.values()),
                serial(&core.bonus),
                "{what}"
            );
            assert_eq!(
                bits(report.disparity_after.values()),
                serial(result.bonus.values()),
                "{what}"
            );
        }
    }
}

/// The FPR objective needs labels: on the unlabelled school cohort every
/// runner and the oracle fail the same way.
#[test]
fn fpr_on_unlabelled_data_fails_like_the_oracle() {
    let case = cases().swap_remove(0);
    assert!(!case.data.fully_labelled());
    let config = config(case.polarity);
    let ranker = &case.rankers[0];
    let objective = Metric::FprDifference.objective();
    let sample = case
        .data
        .sample(&mut StdRng::seed_from_u64(config.seed), config.sample_size)
        .unwrap();
    assert!(matches!(
        Metric::FprDifference.serial(&sample, ranker, &[0.0; 4]),
        Err(FairError::MissingLabels)
    ));
    assert!(matches!(
        run_core_dca(&case.data, ranker, &*objective, &config, None, false),
        Err(FairError::MissingLabels)
    ));
    assert!(matches!(
        run_refinement(&case.data, ranker, &*objective, &config, vec![0.0; 4]),
        Err(FairError::MissingLabels)
    ));
    assert!(matches!(
        run_full_dca_sharded(&case.data, ranker, &*objective, &config, None, false),
        Err(FairError::MissingLabels)
    ));
}

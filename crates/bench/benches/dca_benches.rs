//! Criterion benchmarks for DCA itself.
//!
//! These back the efficiency claims of Sections IV-D and VI-A5:
//!
//! * Core DCA's per-run cost is governed by the sample size, not the dataset
//!   size (`dca_core/dataset_size/*` should be roughly flat);
//! * the refinement step adds a near-constant extra cost
//!   (`dca_refined` vs `dca_core`);
//! * Full DCA scales linearly with the dataset (`dca_full/*`);
//! * the log-discounted objective costs an extra factor of the sample size
//!   (`objective_eval/*`), every objective evaluated as DCA evaluates it:
//!   its `MetricPlan` over a `Dataset`, a one-shard source.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fair_bench::datasets::ExperimentScale;
use fair_core::metrics::sharded::ShardedEvalScratch;
use fair_core::prelude::*;
use fair_data::{SchoolConfig, SchoolGenerator};
use std::hint::black_box;
use std::time::Duration;

fn school(n: usize, seed: u64) -> Dataset {
    SchoolGenerator::new(SchoolConfig::small(n, seed))
        .generate()
        .into_dataset()
}

fn bench_config(sample_size: usize, iterations: usize, refine: bool) -> DcaConfig {
    DcaConfig {
        sample_size,
        learning_rates: vec![1.0, 0.1],
        iterations_per_rate: iterations,
        refinement_iterations: if refine { iterations } else { 0 },
        rolling_window: iterations.max(1),
        seed: 7,
        ..DcaConfig::default()
    }
}

/// Core DCA cost as the dataset grows (sub-linearity claim).
fn dca_vs_dataset_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("dca_core/dataset_size");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let rubric = SchoolGenerator::rubric();
    for &n in &[5_000usize, 20_000, 40_000] {
        let dataset = school(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &dataset, |b, dataset| {
            b.iter(|| {
                let config = bench_config(500, 30, false);
                let out = run_core_dca(
                    dataset,
                    &rubric,
                    &TopKDisparity::new(0.05),
                    &config,
                    None,
                    false,
                )
                .unwrap();
                black_box(out.bonus)
            });
        });
    }
    group.finish();
}

/// Core DCA vs refined DCA (the Figure 8b ablation).
fn core_vs_refined(c: &mut Criterion) {
    let mut group = c.benchmark_group("dca_refinement");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let dataset = school(20_000, 42);
    let rubric = SchoolGenerator::rubric();
    for (name, refine) in [("core_only", false), ("with_refinement", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let dca = Dca::new(bench_config(500, 30, refine));
                black_box(
                    dca.run(&dataset, &rubric, &TopKDisparity::new(0.05))
                        .unwrap()
                        .bonus,
                )
            });
        });
    }
    group.finish();
}

/// Full DCA scales linearly with the dataset (contrast with Core DCA).
fn full_dca_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dca_full/dataset_size");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let rubric = SchoolGenerator::rubric();
    for &n in &[2_000usize, 8_000] {
        // A `Dataset` runs Full DCA in place, as a one-shard source.
        let cohort = school(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &cohort, |b, cohort| {
            b.iter(|| {
                let config = bench_config(500, 10, false);
                let out = run_full_dca_sharded(
                    cohort,
                    &rubric,
                    &TopKDisparity::new(0.05),
                    &config,
                    None,
                    false,
                )
                .unwrap();
                black_box(out.bonus)
            });
        });
    }
    group.finish();
}

/// Core DCA cost as the selection fraction k shrinks (sample size grows as
/// 1/k per the Section IV-D rule).
fn dca_vs_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("dca_core/selection_fraction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let dataset = school(20_000, 42);
    let rubric = SchoolGenerator::rubric();
    for &k in &[0.05_f64, 0.2, 0.5] {
        let sample = DcaConfig::recommended_sample_size(&dataset, k).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let config = bench_config(sample, 30, false);
                let out = run_core_dca(
                    &dataset,
                    &rubric,
                    &TopKDisparity::new(k),
                    &config,
                    None,
                    false,
                )
                .unwrap();
                black_box(out.bonus)
            });
        });
    }
    group.finish();
}

/// Single objective evaluations: plain top-k disparity vs the log-discounted
/// variant (the extra factor of Section IV-E).
fn objective_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("objective_eval");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    let scale = ExperimentScale::tiny();
    let n = scale.school_cohort_size;
    let cohort = school(n, 42);
    let rubric = SchoolGenerator::rubric();
    let bonus = vec![1.0, 10.0, 12.0, 12.0];
    group.bench_function("topk_disparity", |b| {
        let plan = TopKDisparity::new(0.05).plan();
        b.iter(|| black_box(plan.evaluate_vector(&cohort, &rubric, &bonus).unwrap()));
    });
    group.bench_function("log_discounted", |b| {
        let plan = LogDiscountedObjective::new(LogDiscountConfig::default()).plan();
        b.iter(|| black_box(plan.evaluate_vector(&cohort, &rubric, &bonus).unwrap()));
    });
    group.finish();
}

/// One objective evaluation over a 20k cohort, three ways: the serial
/// metric over a freshly allocated full sort, the objective's plan with
/// fresh buffers, and the plan with reused scratch — the path every DCA
/// step takes, on its sample.
fn objective_eval_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("objective_eval/paths");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(5));
    let dataset = school(20_000, 42);
    let rubric = SchoolGenerator::rubric();
    let bonus = vec![1.0, 10.0, 12.0, 12.0];
    let plan = TopKDisparity::new(0.05).plan();

    group.bench_function("full_sort_alloc", |b| {
        b.iter(|| {
            let ranking = RankedSelection::from_scores(effective_scores(&dataset, &rubric, &bonus));
            black_box(disparity_at_k(&dataset, &ranking, 0.05).unwrap())
        });
    });
    group.bench_function("plan_alloc", |b| {
        b.iter(|| black_box(plan.evaluate_vector(&dataset, &rubric, &bonus).unwrap()));
    });
    group.bench_function("plan_scratch", |b| {
        let mut scratch = ShardedEvalScratch::new();
        let mut out = Vec::new();
        b.iter(|| {
            plan.evaluate_vector_into(&dataset, &rubric, &bonus, &mut scratch, &mut out)
                .unwrap();
            black_box(out.first().copied())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    dca_vs_dataset_size,
    core_vs_refined,
    full_dca_scaling,
    dca_vs_k,
    objective_eval,
    objective_eval_paths
);
criterion_main!(benches);

//! Criterion benchmarks comparing the cost of DCA against the baseline
//! interventions (Section VI-C3's efficiency discussion): the quota selection,
//! Multinomial FA*IR re-ranking, and the (Δ+2)-approximation, at small and
//! large selection fractions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fair_baselines::{
    caps_excluding_group, celis_rerank, most_disadvantaged_subgroups, quota_select, FaStarConfig,
    FaStarRanker, ProtectedGroup, QuotaConfig,
};
use fair_core::prelude::*;
use fair_data::{SchoolConfig, SchoolGenerator};
use std::hint::black_box;
use std::time::Duration;

fn school(n: usize) -> Dataset {
    SchoolGenerator::new(SchoolConfig::small(n, 11))
        .generate()
        .into_dataset()
}

fn quota_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/quota");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    let dataset = school(20_000);
    let rubric = SchoolGenerator::rubric();
    let config = QuotaConfig::new(0.7, vec![0, 1, 2]).unwrap();
    for &k in &[0.05_f64, 0.3] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| black_box(quota_select(&dataset, &rubric, k, &config).unwrap()));
        });
    }
    group.finish();
}

fn fastar_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/fastar");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    // FA*IR is run on a district-sized population, as in the paper.
    let dataset = school(2_500);
    let rubric = SchoolGenerator::rubric();
    let worst = most_disadvantaged_subgroups(&dataset, &rubric, &[0, 1, 2], 0.05, 3).unwrap();
    let groups: Vec<ProtectedGroup> = worst
        .iter()
        .map(|(g, _)| ProtectedGroup::from_subgroup(&dataset, g))
        .collect();
    for &k in &[0.05_f64, 0.3] {
        let output = selection_size(dataset.len(), k).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                let ranker =
                    FaStarRanker::new(FaStarConfig::new(0.1, output).unwrap(), groups.clone())
                        .unwrap();
                black_box(ranker.rerank(&dataset, &rubric).unwrap())
            });
        });
    }
    group.finish();
}

fn celis_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/delta2");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let dataset = school(20_000);
    let rubric = SchoolGenerator::rubric();
    for &k in &[0.05_f64, 0.3] {
        let output = selection_size(dataset.len(), k).unwrap();
        let constraints = caps_excluding_group(&dataset, &[0, 1, 2], output, 0.02).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(celis_rerank(&dataset, &rubric, output, &constraints).unwrap()));
        });
    }
    group.finish();
}

fn dca_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/dca_reference");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let dataset = school(20_000);
    let rubric = SchoolGenerator::rubric();
    for &k in &[0.05_f64, 0.3] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let config = DcaConfig {
                    sample_size: 500,
                    iterations_per_rate: 30,
                    refinement_iterations: 30,
                    rolling_window: 30,
                    seed: 3,
                    ..DcaConfig::default()
                };
                black_box(
                    Dca::new(config)
                        .run(&dataset, &rubric, &TopKDisparity::new(k))
                        .unwrap()
                        .bonus,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    quota_bench,
    fastar_bench,
    celis_bench,
    dca_reference
);
criterion_main!(benches);

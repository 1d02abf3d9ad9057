//! Criterion benchmarks for the dataset substrate: generator throughput,
//! ranking-feature scoring, CSV round trips, and the deferred-acceptance
//! matching substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fair_core::prelude::*;
use fair_data::{CompasConfig, CompasGenerator, SchoolConfig, SchoolGenerator};
use fair_matching::{SchoolChoiceConfig, SchoolChoiceSimulator};
use std::hint::black_box;
use std::time::Duration;

fn generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("data/generate");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for &n in &[10_000usize, 40_000] {
        group.bench_with_input(BenchmarkId::new("school", n), &n, |b, &n| {
            b.iter(|| {
                black_box(
                    SchoolGenerator::new(SchoolConfig::small(n, 1))
                        .generate()
                        .into_dataset(),
                )
            });
        });
    }
    group.bench_function("compas_7214", |b| {
        b.iter(|| black_box(CompasGenerator::new(CompasConfig::default()).generate()));
    });
    group.finish();
}

fn scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("data/score_and_rank");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    let dataset = SchoolGenerator::new(SchoolConfig::small(40_000, 2))
        .generate()
        .into_dataset();
    let rubric = SchoolGenerator::rubric();
    let bonus = vec![1.0, 11.5, 12.0, 12.0];
    group.bench_function("effective_scores_40k", |b| {
        b.iter(|| black_box(effective_scores(&dataset, &rubric, &bonus)));
    });
    group.bench_function("score_and_rank_40k", |b| {
        b.iter(|| {
            let scores = effective_scores(&dataset, &rubric, &bonus);
            black_box(RankedSelection::from_scores(scores))
        });
    });
    group.finish();
}

fn csv_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("data/csv");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let dataset = SchoolGenerator::new(SchoolConfig::small(10_000, 3))
        .generate()
        .into_dataset();
    let text = fair_data::csv::to_csv_string(&dataset);
    group.bench_function("serialize_10k", |b| {
        b.iter(|| black_box(fair_data::csv::to_csv_string(&dataset)));
    });
    group.bench_function("parse_10k", |b| {
        b.iter(|| black_box(fair_data::csv::from_csv_string(&text).unwrap()));
    });
    group.finish();
}

fn matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("data/deferred_acceptance");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let rubric = SchoolGenerator::rubric();
    for &n in &[5_000usize, 20_000] {
        let dataset = SchoolGenerator::new(SchoolConfig::small(n, 4))
            .generate()
            .into_dataset();
        group.bench_with_input(BenchmarkId::from_parameter(n), &dataset, |b, dataset| {
            let sim = SchoolChoiceSimulator::new(SchoolChoiceConfig::default()).unwrap();
            b.iter(|| black_box(sim.run(dataset, &rubric, None).unwrap().overall_norm()));
        });
    }
    group.finish();
}

criterion_group!(benches, generators, scoring, csv_round_trip, matching);
criterion_main!(benches);

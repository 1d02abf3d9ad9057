//! Criterion benchmarks for the fairness and utility metrics: the cost of a
//! single metric evaluation is what every DCA step pays, so these numbers
//! explain the per-step term of the complexity analysis in Section IV-D.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fair_core::metrics::{
    ddp_for_binary_attributes, disparity_at_k, log_discounted_disparity, ndcg_at_k,
    scaled_disparate_impact_at_k, LogDiscountConfig,
};
use fair_core::prelude::*;
use fair_core::ranking::sharded::top_m;
use fair_data::{SchoolConfig, SchoolGenerator};
use std::hint::black_box;
use std::time::Duration;

fn ranked(n: usize) -> (Dataset, Vec<f64>) {
    let dataset = SchoolGenerator::new(SchoolConfig::small(n, 7))
        .generate()
        .into_dataset();
    let rubric = SchoolGenerator::rubric();
    let scores = { effective_scores(&dataset, &rubric, &[0.0; 4]) };
    (dataset, scores)
}

fn ranking_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ranking/sort");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(5));
    for &n in &[1_000usize, 10_000, 50_000] {
        let (_, scores) = ranked(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &scores, |b, scores| {
            b.iter(|| black_box(RankedSelection::from_scores(scores.clone())));
        });
    }
    group.finish();
}

/// The fixed-k fast path: `top_m`'s partition + prefix sort
/// (`O(s + m log m)`) over the `Dataset` as one shard, against the full
/// `O(s log s)` sort, at the paper's k = 5% selection boundary.
fn partial_vs_full_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("ranking/partial_vs_full");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(5));
    for &n in &[1_000usize, 10_000, 50_000] {
        let (dataset, scores) = ranked(n);
        let m = selection_size(n, 0.05).unwrap();
        group.bench_with_input(
            BenchmarkId::new("full_sort", n),
            &scores,
            |b, scores: &Vec<f64>| {
                b.iter(|| black_box(RankedSelection::from_scores(scores.clone())));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("partial_topk", n),
            &scores,
            |b, scores: &Vec<f64>| {
                b.iter(|| black_box(top_m(&dataset, scores, m)));
            },
        );
    }
    group.finish();
}

/// Columnar (structure-of-arrays) streaming vs one-heap-allocation-per-object
/// (array-of-structs) scoring of the same cohort under the same rubric.
fn aos_vs_soa_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("scoring/aos_vs_soa");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(5));
    let (dataset, _) = ranked(50_000);
    let rubric = SchoolGenerator::rubric();
    let bonus = [1.0, 10.0, 12.0, 12.0];
    // Materialize the pre-refactor layout: one owned object (two Vec
    // allocations) per row.
    let objects: Vec<DataObject> = dataset.iter().map(|o| o.to_object()).collect();

    group.bench_function("soa_stream", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            effective_scores_into(&dataset, &rubric, &bonus, &mut out);
            black_box(out.last().copied())
        });
    });
    group.bench_function("aos_pointer_chase", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            out.extend(
                objects
                    .iter()
                    .map(|o| rubric.base_score(o.as_view()) + o.bonus_increment(&bonus)),
            );
            black_box(out.last().copied())
        });
    });
    group.finish();
}

fn disparity_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(5));
    let (dataset, scores) = ranked(20_000);
    let ranking = RankedSelection::from_scores(scores);
    let rubric = SchoolGenerator::rubric();

    group.bench_function("disparity_at_k", |b| {
        b.iter(|| black_box(disparity_at_k(&dataset, &ranking, 0.05).unwrap()));
    });
    group.bench_function("log_discounted_disparity", |b| {
        let cfg = LogDiscountConfig::default();
        b.iter(|| black_box(log_discounted_disparity(&dataset, &ranking, &cfg).unwrap()));
    });
    group.bench_function("scaled_disparate_impact", |b| {
        b.iter(|| black_box(scaled_disparate_impact_at_k(&dataset, &ranking, 0.05).unwrap()));
    });
    group.bench_function("ndcg_at_k", |b| {
        b.iter(|| black_box(ndcg_at_k(&dataset, &rubric, &ranking, 0.05).unwrap()));
    });
    group.bench_function("ddp_exposure", |b| {
        b.iter(|| black_box(ddp_for_binary_attributes(&dataset, &ranking).unwrap()));
    });
    group.finish();
}

fn sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataset/sample");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(5));
    let (dataset, _) = ranked(50_000);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    use rand::SeedableRng;
    let mut drawn = rand::seq::index::IndexBuffer::new();
    for &size in &[500usize, 2_000] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                dataset
                    .draw_indices_into(&mut rng, size, &mut drawn)
                    .unwrap();
                black_box(dataset.fairness_centroid_of(drawn.as_slice()).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ranking_construction,
    partial_vs_full_selection,
    aos_vs_soa_scoring,
    disparity_metrics,
    sampling
);
criterion_main!(benches);

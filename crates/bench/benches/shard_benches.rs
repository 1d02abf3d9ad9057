//! Criterion benchmarks for the sharded data plane: end-to-end whole-cohort
//! metric evaluation through the shard-wise engine against the serial
//! score-sort-measure path, shard-by-shard generation and streaming ingest,
//! and the per-shard stratified sampler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fair_core::metrics::sharded as shmetrics;
use fair_core::metrics::{disparity_at_k, log_discounted_disparity, ndcg_at_k, LogDiscountConfig};
use fair_core::prelude::*;
use fair_data::{SchoolConfig, SchoolGenerator};
use std::hint::black_box;
use std::time::Duration;

const SHARD_SIZE: usize = 8 * 1024;
const BONUS: [f64; 4] = [1.0, 10.0, 12.0, 12.0];

fn cohorts(n: usize) -> (Dataset, ShardedDataset) {
    let generator = SchoolGenerator::new(SchoolConfig::small(n, 7));
    let flat = generator.generate().into_dataset();
    let sharded = ShardedDataset::from_dataset(&flat, SHARD_SIZE).unwrap();
    (flat, sharded)
}

/// Serial end-to-end (score → full sort → measure) vs the shard-wise engine
/// (per-shard kernels → partial selection → ordered combine), for each
/// whole-cohort metric.
fn serial_vs_sharded_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded/metrics_e2e");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    let n = 50_000;
    let (flat, sharded) = cohorts(n);
    let rubric = SchoolGenerator::rubric();
    let log_cfg = LogDiscountConfig::default();

    group.bench_function(BenchmarkId::new("serial", "ndcg_at_k"), |b| {
        b.iter(|| {
            let ranking = RankedSelection::from_scores(effective_scores(&flat, &rubric, &BONUS));
            black_box(ndcg_at_k(&flat, &rubric, &ranking, 0.05).unwrap())
        });
    });
    group.bench_function(BenchmarkId::new("sharded", "ndcg_at_k"), |b| {
        b.iter(|| black_box(shmetrics::ndcg_at_k(&sharded, &rubric, &BONUS, 0.05).unwrap()));
    });
    group.bench_function(BenchmarkId::new("serial", "disparity_at_k"), |b| {
        b.iter(|| {
            let ranking = RankedSelection::from_scores(effective_scores(&flat, &rubric, &BONUS));
            black_box(disparity_at_k(&flat, &ranking, 0.05).unwrap())
        });
    });
    group.bench_function(BenchmarkId::new("sharded", "disparity_at_k"), |b| {
        b.iter(|| black_box(shmetrics::disparity_at_k(&sharded, &rubric, &BONUS, 0.05).unwrap()));
    });
    group.bench_function(BenchmarkId::new("serial", "log_discounted"), |b| {
        b.iter(|| {
            let ranking = RankedSelection::from_scores(effective_scores(&flat, &rubric, &BONUS));
            black_box(log_discounted_disparity(&flat, &ranking, &log_cfg).unwrap())
        });
    });
    group.bench_function(BenchmarkId::new("sharded", "log_discounted"), |b| {
        b.iter(|| {
            black_box(
                shmetrics::log_discounted_disparity(&sharded, &rubric, &BONUS, &log_cfg).unwrap(),
            )
        });
    });
    group.finish();
}

/// Shard-by-shard generation (no whole-cohort `Vec<DataObject>`) vs the
/// contiguous builder.
fn generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded/generate");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let generator = SchoolGenerator::new(SchoolConfig::small(20_000, 7));
    group.bench_function("contiguous", |b| {
        b.iter(|| black_box(generator.generate().into_dataset().len()));
    });
    group.bench_function("shard_by_shard", |b| {
        b.iter(|| {
            black_box(
                generator
                    .generate_sharded(SHARD_SIZE)
                    .unwrap()
                    .into_dataset()
                    .len(),
            )
        });
    });
    group.finish();
}

/// Per-shard stratified sampling (seed-split streams) vs the serial
/// whole-cohort sampler, at the DCA sample size.
fn shard_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded/sample");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(5));
    let (flat, sharded) = cohorts(50_000);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    group.bench_function("serial_floyd", |b| {
        let mut buf = rand::seq::index::IndexBuffer::new();
        b.iter(|| {
            flat.draw_indices_into(&mut rng, 500, &mut buf).unwrap();
            black_box(buf.len())
        });
    });
    group.bench_function("per_shard_split_seed", |b| {
        let mut out = Vec::new();
        let mut seed = 0_u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            sharded.sample_indices_into(seed, 500, &mut out).unwrap();
            black_box(out.len())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    serial_vs_sharded_metrics,
    generation,
    shard_sampling
);
criterion_main!(benches);

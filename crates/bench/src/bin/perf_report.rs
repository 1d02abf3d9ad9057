//! Performance report for the DCA data plane — seeds and extends the
//! `BENCH_DCA.json` perf trajectory at the repository root.
//!
//! ```text
//! cargo run --release -p fair-bench --bin perf_report              # 10k/100k/1M
//! cargo run --release -p fair-bench --bin perf_report -- --quick   # 10k only (CI)
//! cargo run --release -p fair-bench --bin perf_report -- --out p.json
//! cargo run --release -p fair-bench --bin perf_report -- --repeats 5
//! ```
//!
//! For each synthetic school cohort the report times:
//!
//! * **Core DCA** (Algorithm 1, sampled; the paper's sub-linearity claim is
//!   that its per-step cost does not grow with the cohort),
//! * **Full DCA** (non-sampled; linear per step, for contrast),
//! * the **metric evaluations** a single step pays (disparity@k,
//!   log-discounted disparity, nDCG@k) on the full cohort,
//! * the same whole-cohort metrics **end to end** (score → rank → measure)
//!   through the serial path and through the shard-wise parallel engine
//!   (`metrics_serial_e2e_ms` / `metrics_sharded_ms` /
//!   `metrics_sharded_speedup`, plus the shard layout and worker count),
//! * the **out-of-core path**: the cohort written to an on-disk `fair-store`
//!   file and the same metrics evaluated through the paged shard cache at a
//!   quarter-cohort budget, with the cache hit/miss/eviction/peak counters
//!   recorded alongside (`out_of_core` in the JSON).
//!
//! Every timing is the **median of `--repeats` runs** (default 3; recorded
//! in the JSON as `repeats`), preceded by one untimed warm-up pass — the 1M
//! Core-DCA timing is bimodal ±30% run-to-run on some boxes, and a median
//! absorbs that where a single run or a best-of can land on either mode,
//! while the warm-up keeps one-off allocation/page-fault costs out of every
//! sample.
//!
//! Schema v4 adds a **serving-layer measurement**: a `fair-serve` instance
//! on an ephemeral port answering the synchronous metrics endpoint
//! (disparity@k over a 10k in-memory cohort) at three client concurrency
//! levels, reported as requests/sec (`serve` in the JSON).
//!
//! Schema v5 reworks the out-of-core section around the one-sweep audit
//! planner and shard readahead: the paged disparity is timed with the
//! readahead thread on *and* off, the cache counters now include
//! prefetch hits/wasted, small cohorts page through deliberately small
//! shards so even `--quick` exercises eviction, and a `multi_metric`
//! sub-section times one five-metric `MetricPlan` sweep against five
//! sequential per-metric paged sweeps on a fully labelled COMPAS store.
//!
//! Schema v6 adds a **fleet measurement** (`fleet` in the JSON): the same
//! cohort served by one vs three `fair-serve` workers behind a
//! `FleetCoordinator`, timing the distributed Full-DCA per-step cost against
//! the local sharded runner (the coordinator + wire overhead), the 3-worker
//! vs 1-worker speedup, and distributed disparity sweeps/sec — with a
//! one-off bit-identity check against the local trajectory.
//!
//! Schema v8 adds an **observability measurement** (`obs` in the JSON): the
//! same sharded Core DCA descent driven through `RunControl` with no
//! progress hook vs with the per-step duration histogram hook the job
//! manager installs (`fair_core::dca::step_duration_hook`), reported as
//! per-step cost each plus the instrumented/plain ratio — the acceptance
//! budget is < 5% overhead — together with a one-off bit-identity check of
//! the two trajectories and the latency and size of one `GET /metrics`
//! scrape against a live server.
//!
//! Schema v9 adds a **profile measurement** (`profile` in the JSON): the
//! same paged Core DCA descent run plain vs with a `JobProfile` installed
//! (the per-job phase profiler the job manager wires up), reported as
//! per-step cost each, the profiled/plain ratio (budget ≤ 1.05x, enforced
//! as a non-zero exit in full mode together with the v8 hook overhead), and
//! the per-phase breakdown of one profiled run — where the descent's time
//! actually went (`page_in`/`decode`/`score`/`sample`/`combine`/`wire`).
//!
//! Schema v10 drops two measurements whose subjects no longer exist: the v7
//! `kernel` section (Core DCA under the scalar reference loops vs the
//! chunked f64x4 kernels; the kernels now have one implementation) and the
//! v9 cached `/metrics` scrape timing (`metrics_scrape_cached_ms`).
//!
//! Schema v11 adds **paged scaling** (`paged_core` in the JSON, full mode
//! only): the paged Core DCA descent of the `profile` measurement run again
//! on a 100k cohort cut into the same 16 shards under a quarter-cohort
//! budget. It reports both per-step costs and their 1M/100k ratio, and the
//! 1M paged/memory per-step ratio (against the in-memory `core_dca` of the
//! 1M cohort; reported, not gated — a paged step reads and verifies a few
//! hundred row groups, which costs milliseconds against tens of µs).
//!
//! Schema v12 drops what measured the shard readahead thread, which the
//! store no longer has: `out_of_core.prefetch`, the readahead-off contrast
//! `disparity_at_k_no_prefetch_ms`, and `prefetch_hits`/`prefetch_wasted`
//! in both `cache` objects. The obs and profiler overhead gates now time
//! their two arms alternately, switching which arm goes first on every
//! repetition, and gate the ratio of the two medians at the same 1.05x;
//! timing all of one arm and then all of the other let drift in the host's
//! speed decide the gate.
//!
//! Schema v13 adds the **store layer** (`store` in the JSON), measured on
//! the `profile` measurement's store (1M rows in full mode): file bytes per
//! row; `read_shard_mb_s`, the column bytes per µs of a cold
//! `ShardStore::read_shard`, median over the shards, each read through a
//! freshly opened store; `crc32_mb_s`, the block checksum over 64 MiB; and
//! per step of the profiled paged run, the row groups its gathers read
//! (`CacheStats::sparse_groups`) with its `page_in` and `decode` phase
//! totals per group. It records `nproc` (the machine's parallelism) next to
//! `threads` (the engine's worker count, which `FAIR_THREADS` can cap), and
//! `--quick` now runs `paged_core` too, at 10k against 1k rows in the quick
//! profile's shard count, reported but not gated.
//!
//! Schema v14 times a **fleet Core DCA step** (`fleet.local_core_step_us`
//! and `fleet.three_worker_core_step_us`): the 3-worker fleet's
//! `run_core_dca_controlled`, the runner a fleet job drives, against
//! `run_core_dca_sharded` on the same cohort and shard layout, as
//! interleaved arms, after a one-off check that their bonuses are
//! bit-identical. Both are reported, not gated: a fleet step fans one
//! `core_sample` request out per worker's range, so it costs the wire, not
//! the sample.
//!
//! Schema v15 adds `store.group_rows`, the row-group size recorded in the
//! header of the store the paged sections wrote, and runs the paged
//! sections (`profile` at both cohort sizes, `store` and `crc32_mb_s`) in a
//! fresh perf_report process that the report starts itself and reads their
//! numbers back from, so what the in-memory sections allocated and freed
//! before them can no longer move them. The in-memory sections keep their
//! order and run in the first process.
//!
//! Since the DCA layer evaluates every objective through its `MetricPlan`
//! (schema unchanged), `core_dca` times `run_core_dca`, the gathered Core
//! driver (`run_core_dca_gathered`) over a serial draw, whose steps copy
//! their sample into the driver's reused block and evaluate the plan over it
//! as one shard, and `full_dca` times `run_full_dca_sharded` over the
//! cohort's `Dataset`, itself a one-shard source, with no copy. The cache
//! counters of the paged sections (`CacheStats`) and the request counts of
//! the fleet section (`FleetReport`) are each store's and coordinator's own
//! children of the `fair_store_*` and `fair_fleet_*` registry series.
//!
//! The summary lines check the headline claim directly: Core DCA's per-step
//! time at the largest cohort must stay within 2x of the 10k per-step time
//! in memory, and (in full mode) the paged per-step time at 1M within 2x of
//! the 100k one.

use fair_bench::datasets::ExperimentScale;
use fair_core::metrics::sharded::{self as shmetrics, MetricKind, MetricPlan};
use fair_core::metrics::{disparity_at_k, log_discounted_disparity, ndcg_at_k, LogDiscountConfig};
use fair_core::prelude::*;
use fair_data::store::{compas_to_store, school_to_store};
use fair_data::{CompasConfig, CompasGenerator, SchoolConfig, SchoolGenerator};
use fair_serve::{
    serve, AuditService, Client, FleetConfig, FleetCoordinator, MetricsRequest, ServerHandle,
};
use fair_store::{column_bytes, format, CacheStats, ShardStore};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

/// Timed numbers for one cohort size.
struct CohortReport {
    n: usize,
    sample_size: usize,
    generate_ms: f64,
    core_total_ms: f64,
    core_steps: usize,
    core_per_step_us: f64,
    core_objects_scored: usize,
    core_objects_per_sec: f64,
    full_total_ms: f64,
    full_steps: usize,
    full_per_step_ms: f64,
    disparity_ms: f64,
    log_discounted_ms: f64,
    ndcg_ms: f64,
    /// Shard layout used by the shard-wise engine timings.
    shard_size: usize,
    num_shards: usize,
    /// Serial end-to-end (score → sort → measure) per metric, ms.
    serial_e2e: MetricTriple,
    /// Shard-wise end-to-end per metric, ms.
    sharded_e2e: MetricTriple,
    /// Out-of-core numbers: the cohort evaluated from its on-disk store.
    out_of_core: OutOfCoreReport,
}

/// Timings and cache behaviour of the paged (on-disk) evaluation.
struct OutOfCoreReport {
    /// One-off cost of streaming the cohort onto disk.
    store_write_ms: f64,
    /// Cache byte budget the paged evaluation ran under.
    budget_bytes: usize,
    /// Shard size of the on-disk layout (small cohorts deliberately page
    /// through small shards so even `--quick` exercises eviction).
    shard_size: usize,
    /// disparity@k end-to-end over the store, ms (median).
    disparity_ms: f64,
    /// nDCG@k end-to-end over the store, ms (median).
    ndcg_ms: f64,
    /// Cumulative cache counters after the timed runs.
    cache: CacheStats,
    /// One-sweep multi-metric plan vs sequential per-metric paged sweeps.
    multi_metric: MultiMetricReport,
}

/// One five-metric `MetricPlan` sweep vs five sequential per-metric paged
/// sweeps, on a fully labelled COMPAS store (the school cohort leaves rows
/// unlabelled, which the FPR metric rejects).
struct MultiMetricReport {
    rows: usize,
    one_sweep_ms: f64,
    sequential_ms: f64,
    speedup: f64,
    cache: CacheStats,
}

/// `(disparity@k, log-discounted, nDCG@k)` timings in milliseconds.
#[derive(Clone, Copy)]
struct MetricTriple {
    disparity_ms: f64,
    log_discounted_ms: f64,
    ndcg_ms: f64,
}

fn core_config(sample_size: usize) -> DcaConfig {
    DcaConfig {
        sample_size,
        learning_rates: vec![1.0, 0.1],
        // 500 steps per timed run: long enough that per-step timings are not
        // dominated by timer granularity and scheduler jitter.
        iterations_per_rate: 250,
        refinement_iterations: 0,
        seed: 7,
        ..DcaConfig::default()
    }
}

fn full_config() -> DcaConfig {
    DcaConfig {
        learning_rates: vec![1.0],
        iterations_per_rate: 3,
        refinement_iterations: 0,
        seed: 7,
        ..DcaConfig::default()
    }
}

/// Median-of-`reps` wall-clock time of `routine`, in milliseconds. A median
/// (unlike a best-of) is stable when a timing is bimodal — the 1M Core-DCA
/// run flips between two modes ±30% apart on some boxes — while still
/// shrugging off one-off scheduler stalls.
fn time_median<T>(reps: usize, mut routine: impl FnMut() -> T) -> f64 {
    assert!(reps > 0, "at least one repetition required");
    // One untimed warm-up pass before the timed repetitions: the first
    // execution pays one-off costs (cold instruction/data caches, lazy
    // allocations, page faults on freshly mapped buffers) that the
    // steady-state median should not include.
    std::hint::black_box(routine());
    median((0..reps).map(|_| time_ms(&mut routine)).collect())
}

/// Medians of `reps` timings of each of two arms, in milliseconds, after
/// one untimed warm-up pass of each. The arms alternate and swap which goes
/// first on every repetition, so drift in the host's speed during the
/// measurement falls on both arms alike.
fn time_interleaved<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (f64, f64) {
    assert!(reps > 0, "at least one repetition required");
    std::hint::black_box(a());
    std::hint::black_box(b());
    let (mut a_ms, mut b_ms) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for rep in 0..reps {
        if rep % 2 == 0 {
            a_ms.push(time_ms(&mut a));
            b_ms.push(time_ms(&mut b));
        } else {
            b_ms.push(time_ms(&mut b));
            a_ms.push(time_ms(&mut a));
        }
    }
    (median(a_ms), median(b_ms))
}

/// Wall-clock time of one call of `routine`, in milliseconds.
fn time_ms<T>(routine: &mut impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(routine());
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of `times` (the upper one for an even count).
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn measure_cohort(n: usize, reps: usize) -> CohortReport {
    let rubric = SchoolGenerator::rubric();
    let objective = TopKDisparity::new(0.05);
    let sample_size = ExperimentScale::default_scale().dca_sample_size;

    let gen_start = Instant::now();
    let dataset = SchoolGenerator::new(SchoolConfig::small(n, 42))
        .generate()
        .into_dataset();
    let generate_ms = gen_start.elapsed().as_secs_f64() * 1e3;

    // Core DCA: one untimed warm-up run primes the scratch buffers and
    // caches, then median-of-`reps` timed runs (each a complete 500-step
    // descent) — the median filters scheduler noise and bimodal flips, which
    // otherwise dominate a few-ms measurement.
    let config = core_config(sample_size);
    let mut run_core =
        || run_core_dca(&dataset, &rubric, &objective, &config, None, false).expect("core DCA run");
    let outcome = run_core();
    let core_total_ms = time_median(reps, &mut run_core);
    let core_steps = outcome.steps;
    let core_objects_scored = outcome.objects_scored;

    // Full DCA: 3 steps over the whole cohort (linear per step — kept short
    // so the 1M cohort stays affordable), over the `Dataset` in place as
    // one shard.
    let fcfg = full_config();
    let mut run_full = || {
        run_full_dca_sharded(&dataset, &rubric, &objective, &fcfg, None, false)
            .expect("full DCA run")
    };
    let full_outcome = run_full();
    let full_total_ms = time_median(reps, &mut run_full);
    let full_steps = full_outcome.steps;

    // Single-metric evaluations on the full cohort.
    let bonus = vec![1.0, 10.0, 12.0, 12.0];
    let scores = effective_scores(&dataset, &rubric, &bonus);
    let ranking = RankedSelection::from_scores(scores);
    let disparity_ms = time_median(reps, || disparity_at_k(&dataset, &ranking, 0.05).unwrap());
    let log_cfg = LogDiscountConfig::default();
    let log_discounted_ms = time_median(reps, || {
        log_discounted_disparity(&dataset, &ranking, &log_cfg).unwrap()
    });
    let ndcg_ms = time_median(reps, || {
        ndcg_at_k(&dataset, &rubric, &ranking, 0.05).unwrap()
    });

    // Serial vs shard-wise end-to-end metric evaluation (score → rank →
    // measure). The serial side is the pre-refactor whole-cohort path: a
    // full sort of the effective scores feeding each metric. The sharded
    // side is the shard-wise engine (per-shard scoring kernels + partial
    // selection + ordered combine).
    let serial_e2e = MetricTriple {
        disparity_ms: time_median(reps, || {
            let ranking = RankedSelection::from_scores(effective_scores(&dataset, &rubric, &bonus));
            disparity_at_k(&dataset, &ranking, 0.05).unwrap()
        }),
        log_discounted_ms: time_median(reps, || {
            let ranking = RankedSelection::from_scores(effective_scores(&dataset, &rubric, &bonus));
            log_discounted_disparity(&dataset, &ranking, &log_cfg).unwrap()
        }),
        ndcg_ms: time_median(reps, || {
            let ranking = RankedSelection::from_scores(effective_scores(&dataset, &rubric, &bonus));
            ndcg_at_k(&dataset, &rubric, &ranking, 0.05).unwrap()
        }),
    };
    let shard_size = fair_core::DEFAULT_SHARD_SIZE;
    let sharded = ShardedDataset::from_dataset(&dataset, shard_size).expect("positive shard size");
    let sharded_e2e = MetricTriple {
        disparity_ms: time_median(reps, || {
            shmetrics::disparity_at_k(&sharded, &rubric, &bonus, 0.05).unwrap()
        }),
        log_discounted_ms: time_median(reps, || {
            shmetrics::log_discounted_disparity(&sharded, &rubric, &bonus, &log_cfg).unwrap()
        }),
        ndcg_ms: time_median(reps, || {
            shmetrics::ndcg_at_k(&sharded, &rubric, &bonus, 0.05).unwrap()
        }),
    };

    // Out-of-core: stream the same cohort onto disk, then evaluate through
    // the paged shard cache at a quarter-cohort budget (clamped so the
    // worker pool's pinned working set always fits). Small cohorts get a
    // small shard layout so paging and eviction genuinely happen even in
    // `--quick` mode, where one 64k shard would swallow the whole cohort.
    let generator = SchoolGenerator::new(SchoolConfig::small(n, 42));
    let store_path =
        std::env::temp_dir().join(format!("fair_perf_report_{n}_{}.fss", std::process::id()));
    let oo_shard_size = if n <= 16 * 1024 { 1024 } else { shard_size };
    let write_start = Instant::now();
    school_to_store(&generator, oo_shard_size, &store_path).expect("write cohort store");
    let store_write_ms = write_start.elapsed().as_secs_f64() * 1e3;
    let per_row = 8 * (dataset.schema().num_features() + dataset.schema().num_fairness()) + 8 + 1;
    let shard_bytes = oo_shard_size.min(n) * per_row;
    let total_column_bytes = n * per_row;
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let budget_bytes = (total_column_bytes / 4).max((workers + 1) * shard_bytes);
    let store = ShardStore::open_with_budget(&store_path, budget_bytes).expect("open cohort store");
    let oo_disparity_ms = time_median(reps, || {
        shmetrics::disparity_at_k(&store, &rubric, &bonus, 0.05).unwrap()
    });
    let oo_ndcg_ms = time_median(reps, || {
        shmetrics::ndcg_at_k(&store, &rubric, &bonus, 0.05).unwrap()
    });
    let cache = store.cache_stats();
    drop(store);
    std::fs::remove_file(&store_path).ok();
    let multi_metric = measure_multi_metric(n, oo_shard_size, budget_bytes, reps);
    let out_of_core = OutOfCoreReport {
        store_write_ms,
        budget_bytes,
        shard_size: oo_shard_size,
        disparity_ms: oo_disparity_ms,
        ndcg_ms: oo_ndcg_ms,
        cache,
        multi_metric,
    };

    CohortReport {
        n,
        sample_size,
        generate_ms,
        core_total_ms,
        core_steps,
        core_per_step_us: core_total_ms * 1e3 / core_steps as f64,
        core_objects_scored,
        core_objects_per_sec: core_objects_scored as f64 / (core_total_ms / 1e3),
        full_total_ms,
        full_steps,
        full_per_step_ms: full_total_ms / full_steps as f64,
        disparity_ms,
        log_discounted_ms,
        ndcg_ms,
        shard_size,
        num_shards: sharded.num_shards(),
        serial_e2e,
        sharded_e2e,
        out_of_core,
    }
}

/// Time one five-metric `MetricPlan` sweep against five sequential
/// per-metric paged sweeps — the before/after of the `POST /stores/{name}/
/// metrics` rewiring. Runs on a COMPAS store (every row labelled, so the
/// FPR metric is measurable) of the same size, same shard layout, same
/// quarter-cohort budget.
fn measure_multi_metric(
    n: usize,
    shard_size: usize,
    budget_bytes: usize,
    reps: usize,
) -> MultiMetricReport {
    let generator = CompasGenerator::new(CompasConfig::small(n, 42));
    let store_path = std::env::temp_dir().join(format!(
        "fair_perf_report_compas_{n}_{}.fss",
        std::process::id()
    ));
    compas_to_store(&generator, shard_size, &store_path).expect("write compas store");
    let dims = CompasGenerator::schema().num_fairness();
    let ranker = WeightedSumRanker::new(vec![1.0]).expect("one weight");
    let bonus = vec![0.0; dims];
    let k = 0.05;
    let log_cfg = LogDiscountConfig::default();

    let store = ShardStore::open_with_budget(&store_path, budget_bytes).expect("open compas store");
    let plan = MetricPlan::new(&MetricKind::ALL, k);
    let one_sweep_ms = time_median(reps, || plan.evaluate(&store, &ranker, &bonus).unwrap());
    // The pre-planner serving path: one full paged sweep per metric.
    let sequential_ms = time_median(reps, || {
        shmetrics::disparity_at_k(&store, &ranker, &bonus, k).unwrap();
        shmetrics::ndcg_at_k(&store, &ranker, &bonus, k).unwrap();
        shmetrics::log_discounted_disparity(&store, &ranker, &bonus, &log_cfg).unwrap();
        shmetrics::fpr_difference_at_k(&store, &ranker, &bonus, k).unwrap();
        shmetrics::scaled_disparate_impact_at_k(&store, &ranker, &bonus, k).unwrap();
    });
    let cache = store.cache_stats();
    drop(store);
    std::fs::remove_file(&store_path).ok();
    MultiMetricReport {
        rows: n,
        one_sweep_ms,
        sequential_ms,
        speedup: sequential_ms / one_sweep_ms,
        cache,
    }
}

/// Throughput of the synchronous metrics endpoint at one client concurrency
/// level.
struct ServeLevel {
    concurrency: usize,
    requests: usize,
    requests_per_sec: f64,
}

/// The serving-layer measurement: requests/sec on `POST
/// /stores/{name}/metrics` (disparity@k) at three concurrency levels.
struct ServeReport {
    store_rows: usize,
    workers: usize,
    levels: Vec<ServeLevel>,
}

/// Stand up a `fair-serve` instance on an ephemeral port with an in-memory
/// 10k school cohort and hammer the metrics endpoint from `concurrency`
/// client threads (each request a fresh connection, exactly as the wire
/// protocol prescribes). Median-of-`reps` wall clock per burst.
fn measure_serve(reps: usize) -> ServeReport {
    let store_rows = 10_000;
    let data = SchoolGenerator::new(SchoolConfig::small(store_rows, 42))
        .generate_sharded(fair_core::DEFAULT_SHARD_SIZE)
        .expect("positive shard size")
        .into_dataset();
    let service = AuditService::new();
    service
        .catalog
        .register_memory("bench", data)
        .expect("register bench cohort");
    let workers = fair_core::max_workers().clamp(2, 8);
    let server = serve(service, "127.0.0.1:0", workers).expect("bind bench server");
    let addr = server.addr();
    let request = MetricsRequest {
        k: 0.05,
        bonus: None,
        weights: None,
        metrics: Some(vec!["disparity".to_string()]),
    };

    // Warm the connection path and the metric scratch buffers.
    let warm = Client::new(addr);
    for _ in 0..4 {
        warm.metrics("bench", &request).expect("warm-up request");
    }

    let mut levels = Vec::new();
    for &concurrency in &[1_usize, 4, 8] {
        let total_requests = 96; // divisible by every level
        let per_client = total_requests / concurrency;
        let burst_ms = time_median(reps, || {
            std::thread::scope(|scope| {
                for _ in 0..concurrency {
                    let client = Client::new(addr);
                    let request = &request;
                    scope.spawn(move || {
                        for _ in 0..per_client {
                            let result = client.metrics("bench", request).expect("metrics request");
                            assert!(result.disparity.is_some());
                        }
                    });
                }
            });
        });
        levels.push(ServeLevel {
            concurrency,
            requests: total_requests,
            requests_per_sec: total_requests as f64 / (burst_ms / 1e3),
        });
    }
    server.shutdown();
    ServeReport {
        store_rows,
        workers,
        levels,
    }
}

/// The fleet measurement: one cohort, one vs three workers behind a
/// `FleetCoordinator`, against the local sharded runner as the baseline.
struct FleetBench {
    rows: usize,
    shard_size: usize,
    num_shards: usize,
    k: f64,
    /// Local `run_full_dca_sharded` per-step time, ms (the no-wire baseline).
    local_full_step_ms: f64,
    /// Distributed per-step time with a single worker, ms.
    single_full_step_ms: f64,
    /// Distributed per-step time with three workers, ms.
    fleet3_full_step_ms: f64,
    /// Local `run_core_dca_sharded` per-step time, µs.
    local_core_step_us: f64,
    /// The 3-worker fleet's `run_core_dca_controlled` per-step time, µs.
    fleet3_core_step_us: f64,
    /// `single / local`: what the coordinator + wire round trip costs.
    coordinator_overhead: f64,
    /// `single / fleet3`: what two extra workers buy.
    speedup_3_vs_1: f64,
    /// Distributed disparity@k sweeps per second on the 3-worker fleet.
    disparity_sweeps_per_sec: f64,
    /// Partial-reduce requests the coordinator issued across the timed runs.
    requests: u64,
}

/// Time the fleet layer on a `rows`-row school cohort: local sharded runner
/// vs 1-worker fleet vs 3-worker fleet, plus distributed disparity sweeps
/// and the 3-worker Core DCA step against the local sharded one.
/// The shard layout is explicit (`rows / 16`-row shards) so the placement
/// genuinely spreads work across three workers regardless of cohort size,
/// and the reference runner shards identically.
fn measure_fleet(rows: usize, reps: usize) -> FleetBench {
    use fair_core::dca::RunControl;
    let k = 0.01; // small k keeps per-range partial responses compact
    let shard_size = (rows / 16).max(1024);
    let data = SchoolGenerator::new(SchoolConfig::small(rows, 42))
        .generate_sharded(shard_size)
        .expect("positive shard size")
        .into_dataset();
    let weights = [0.55, 0.45];
    let ranker = WeightedSumRanker::new(weights.to_vec()).expect("rubric weights");
    let objective = TopKDisparity::new(k);
    let config = DcaConfig {
        learning_rates: vec![1.0],
        iterations_per_rate: 5,
        refinement_iterations: 0,
        seed: 7,
        ..DcaConfig::default()
    };

    let local_outcome =
        run_full_dca_sharded(&data, &ranker, &objective, &config, None, false).expect("local DCA");
    let steps = local_outcome.steps as f64;
    let local_full_ms = time_median(reps, || {
        run_full_dca_sharded(&data, &ranker, &objective, &config, None, false).expect("local DCA")
    });

    let spawn = |n: usize| -> (Vec<ServerHandle>, Vec<SocketAddr>) {
        (0..n)
            .map(|_| {
                let service = AuditService::new();
                service
                    .catalog
                    .register_memory("bench", data.clone())
                    .expect("register bench cohort");
                let server = serve(service, "127.0.0.1:0", 4).expect("bind fleet worker");
                let addr = server.addr();
                (server, addr)
            })
            .unzip()
    };

    let (handles1, addrs1) = spawn(1);
    let fleet1 =
        FleetCoordinator::connect("bench", &addrs1, FleetConfig::default()).expect("connect 1w");
    let single_outcome = fleet1
        .run_full_dca(k, Some(&weights), &config, None, false)
        .expect("1-worker DCA");
    assert_eq!(
        single_outcome
            .bonus
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        local_outcome
            .bonus
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "the fleet trajectory must match the local runner bit for bit"
    );
    let single_full_ms = time_median(reps, || {
        fleet1
            .run_full_dca(k, Some(&weights), &config, None, false)
            .expect("1-worker DCA")
    });
    let mut requests = fleet1.report().requests;
    for h in handles1 {
        h.shutdown();
    }

    let (handles3, addrs3) = spawn(3);
    let fleet3 =
        FleetCoordinator::connect("bench", &addrs3, FleetConfig::default()).expect("connect 3w");
    let fleet3_full_ms = time_median(reps, || {
        fleet3
            .run_full_dca(k, Some(&weights), &config, None, false)
            .expect("3-worker DCA")
    });
    let bonus = vec![1.0, 10.0, 12.0, 12.0];
    let sweeps = 20;
    let sweep_burst_ms = time_median(reps, || {
        for _ in 0..sweeps {
            fleet3
                .disparity(k, &bonus, Some(&weights))
                .expect("fleet disparity");
        }
    });

    let core = core_config(ExperimentScale::default_scale().dca_sample_size);
    let local_core = || {
        run_core_dca_sharded(&data, &ranker, &objective, &core, None, false)
            .expect("local Core DCA")
    };
    let fleet3_core = || {
        fleet3
            .run_core_dca_controlled(k, Some(&weights), &core, None, false, &RunControl::new())
            .expect("3-worker Core DCA")
    };
    let (local_core_outcome, fleet3_core_outcome) = (local_core(), fleet3_core());
    assert_eq!(
        fleet3_core_outcome
            .bonus
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        local_core_outcome
            .bonus
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "the fleet Core trajectory must match the local runner bit for bit"
    );
    let core_steps = local_core_outcome.steps as f64;
    let (local_core_ms, fleet3_core_ms) = time_interleaved(reps, local_core, fleet3_core);
    requests += fleet3.report().requests;
    let num_shards = fleet3.placement().num_shards();
    for h in handles3 {
        h.shutdown();
    }

    FleetBench {
        rows,
        shard_size,
        num_shards,
        k,
        local_full_step_ms: local_full_ms / steps,
        single_full_step_ms: single_full_ms / steps,
        fleet3_full_step_ms: fleet3_full_ms / steps,
        local_core_step_us: local_core_ms * 1e3 / core_steps,
        fleet3_core_step_us: fleet3_core_ms * 1e3 / core_steps,
        coordinator_overhead: single_full_ms / local_full_ms,
        speedup_3_vs_1: single_full_ms / fleet3_full_ms,
        disparity_sweeps_per_sec: sweeps as f64 / (sweep_burst_ms / 1e3),
        requests,
    }
}

/// The observability tax: instrumented vs plain Core DCA, plus one
/// `/metrics` scrape.
struct ObsBench {
    rows: usize,
    /// Per-step cost through `RunControl` with no progress hook, µs.
    plain_per_step_us: f64,
    /// Per-step cost with the job manager's step-duration histogram hook, µs.
    instrumented_per_step_us: f64,
    /// `instrumented / plain` — the acceptance budget is < 1.05.
    per_step_overhead: f64,
    /// Median latency of one `GET /metrics` scrape, ms.
    scrape_ms: f64,
    /// Size of the rendered exposition at scrape time, bytes.
    scrape_bytes: usize,
}

/// Time the same sharded Core DCA descent with and without the per-step
/// observability hook, verify the trajectories are bit-identical, and time
/// a `/metrics` scrape against a live server that has seen traffic.
fn measure_obs(rows: usize, reps: usize) -> ObsBench {
    use fair_core::dca::{run_core_dca_sharded_controlled, step_duration_hook, RunControl};
    use fair_core::obs;

    let rubric = SchoolGenerator::rubric();
    let objective = TopKDisparity::new(0.05);
    let sample_size = ExperimentScale::default_scale().dca_sample_size;
    let data = SchoolGenerator::new(SchoolConfig::small(rows, 42))
        .generate_sharded(fair_core::DEFAULT_SHARD_SIZE)
        .expect("positive shard size")
        .into_dataset();
    let config = core_config(sample_size);

    let plain_control = RunControl::new();
    let run_plain = || {
        run_core_dca_sharded_controlled(
            &data,
            &rubric,
            &objective,
            &config,
            None,
            false,
            &plain_control,
        )
        .expect("plain core DCA run")
    };
    let hook = step_duration_hook(obs::histogram("fair_bench_obs_step_duration_us", &[]));
    let hooked_control = RunControl::with_progress(move |p| {
        std::hint::black_box(&p);
        hook(p);
    });
    let run_hooked = || {
        run_core_dca_sharded_controlled(
            &data,
            &rubric,
            &objective,
            &config,
            None,
            false,
            &hooked_control,
        )
        .expect("instrumented core DCA run")
    };

    let plain = run_plain();
    let hooked = run_hooked();
    assert_eq!(
        plain.bonus.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        hooked.bonus.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "the instrumented descent must stay bit-identical"
    );
    let steps = plain.steps as f64;
    let (plain_ms, instrumented_ms) = time_interleaved(reps, run_plain, run_hooked);

    // A live server that has seen traffic, so the scrape renders a populated
    // registry (route series, job counters, store counters from this very
    // process), not an empty page.
    let service = AuditService::new();
    let small = SchoolGenerator::new(SchoolConfig::small(2_000, 42))
        .generate_sharded(fair_core::DEFAULT_SHARD_SIZE)
        .expect("positive shard size")
        .into_dataset();
    service
        .catalog
        .register_memory("obs-bench", small)
        .expect("register obs cohort");
    let server = serve(service, "127.0.0.1:0", 2).expect("bind obs server");
    let client = Client::new(server.addr());
    let request = MetricsRequest {
        k: 0.05,
        bonus: None,
        weights: None,
        metrics: Some(vec!["disparity".to_string()]),
    };
    for _ in 0..8 {
        client.metrics("obs-bench", &request).expect("obs traffic");
    }
    let scrape_bytes = client.metrics_text().expect("scrape").len();
    let scrape_ms = time_median(reps, || client.metrics_text().expect("scrape"));
    server.shutdown();

    ObsBench {
        rows,
        plain_per_step_us: plain_ms * 1e3 / steps,
        instrumented_per_step_us: instrumented_ms * 1e3 / steps,
        per_step_overhead: instrumented_ms / plain_ms,
        scrape_ms,
        scrape_bytes,
    }
}

/// Where a paged Core DCA descent's time goes, and what asking costs: the
/// same run plain vs with a [`fair_core::obs::JobProfile`] installed.
struct ProfileBench {
    rows: usize,
    steps: usize,
    plain_per_step_us: f64,
    profiled_per_step_us: f64,
    /// `profiled / plain` — same ≤ 1.05x budget as the v8 hook overhead.
    overhead: f64,
    /// Per-phase `(name, total_us, count, max_us)` of one profiled run.
    phases: Vec<(&'static str, u64, u64, u64)>,
    /// The store layer under the descent.
    store: StoreBench,
}

/// The store layer of a paged descent's store.
struct StoreBench {
    /// Rows per checksummed group, from the store file's header.
    group_rows: u64,
    /// File bytes ÷ rows.
    bytes_per_row: f64,
    /// Column bytes per µs of one cold `read_shard` (a freshly opened store
    /// per shard), median over the shards.
    read_shard_mb_s: f64,
    /// Row groups the profiled run's gathers read, per step.
    groups_per_step: f64,
    /// The profiled run's `page_in` total per group read.
    page_in_us_per_group: f64,
    /// The profiled run's `decode` total (checksums and decode) per group
    /// read.
    decode_us_per_group: f64,
}

/// Run the paged Core DCA descent (on-disk store of `shard_size`-row shards,
/// quarter-cohort cache budget) once with a profile installed for the phase
/// breakdown, then time plain vs profiled, asserting the trajectories stay
/// bit-identical.
fn measure_profile(rows: usize, shard_size: usize, reps: usize) -> ProfileBench {
    use fair_core::dca::{run_core_dca_sharded_controlled, RunControl};
    use fair_core::obs::{profile, JobProfile, Phase};

    let rubric = SchoolGenerator::rubric();
    let objective = TopKDisparity::new(0.05);
    let config = core_config(ExperimentScale::default_scale().dca_sample_size);
    let generator = SchoolGenerator::new(SchoolConfig::small(rows, 42));
    let store_path = std::env::temp_dir().join(format!(
        "fair_perf_profile_{rows}_{}.fss",
        std::process::id()
    ));
    school_to_store(&generator, shard_size, &store_path).expect("write profile store");
    let file_bytes = std::fs::metadata(&store_path)
        .expect("store metadata")
        .len() as usize;
    let group_rows = {
        use std::io::Read as _;
        let mut header = [0; format::HEADER_LEN];
        std::fs::File::open(&store_path)
            .and_then(|mut f| f.read_exact(&mut header))
            .expect("read store header");
        format::Header::decode(&header)
            .expect("store header")
            .group_rows
    };
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let budget_bytes =
        (file_bytes / 4).max((workers + 1) * (file_bytes / rows.div_ceil(shard_size)));
    let store =
        ShardStore::open_with_budget(&store_path, budget_bytes).expect("open profile store");

    let control = RunControl::new();
    let run = || {
        run_core_dca_sharded_controlled(&store, &rubric, &objective, &config, None, false, &control)
            .expect("profiled core DCA run")
    };

    // One profiled run for the breakdown (and as the bit-identity witness).
    let breakdown = JobProfile::new();
    let profiled_outcome = {
        let _guard = profile::install(breakdown.clone());
        run()
    };
    // The store was fresh, so every group the run read is its own.
    let groups = store.cache_stats().sparse_groups as f64;
    let plain_outcome = run();
    assert_eq!(
        plain_outcome
            .bonus
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        profiled_outcome
            .bonus
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "the profiled descent must stay bit-identical"
    );

    let steps = plain_outcome.steps;
    let timing_profile = JobProfile::new();
    let (plain_ms, profiled_ms) = time_interleaved(reps, run, || {
        let _guard = profile::install(timing_profile.clone());
        run()
    });
    let shards = store.num_shards();
    drop(store);
    let read_shard_mb_s = median(
        (0..shards)
            .map(|i| {
                let cold = ShardStore::open_with_budget(&store_path, usize::MAX)
                    .expect("open profile store");
                let start = Instant::now();
                let shard = cold.read_shard(i).expect("read shard");
                column_bytes(&shard) as f64 / (start.elapsed().as_secs_f64() * 1e6)
            })
            .collect(),
    );
    std::fs::remove_file(&store_path).ok();

    let phase_us = |phase: Phase| breakdown.stats()[phase as usize].total_us as f64;
    ProfileBench {
        rows,
        steps,
        plain_per_step_us: plain_ms * 1e3 / steps as f64,
        profiled_per_step_us: profiled_ms * 1e3 / steps as f64,
        overhead: profiled_ms / plain_ms,
        phases: Phase::ALL
            .iter()
            .zip(breakdown.stats())
            .map(|(p, s)| (p.name(), s.total_us, s.count, s.max_us))
            .collect(),
        store: StoreBench {
            group_rows,
            bytes_per_row: file_bytes as f64 / rows as f64,
            read_shard_mb_s,
            groups_per_step: groups / steps as f64,
            page_in_us_per_group: phase_us(Phase::PageIn) / groups,
            decode_us_per_group: phase_us(Phase::Decode) / groups,
        },
    }
}

/// Throughput of the store's block checksum, `format::crc32`, over 64 MiB
/// (median of `reps`), in MB/s.
fn measure_crc32(reps: usize) -> f64 {
    let bytes: Vec<u8> = (0..64_u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    bytes.len() as f64 / (time_median(reps, || format::crc32(&bytes)) * 1e3)
}

/// The cohort rows and shard size of the large paged descent: 1M rows in
/// 64k-row shards, or 10k in 1k-row shards in `--quick` mode. The small
/// descent runs a tenth of the rows in as many shards.
fn paged_layout(quick: bool) -> (usize, usize) {
    if quick {
        (10_000, 1024)
    } else {
        (1_000_000, fair_core::DEFAULT_SHARD_SIZE)
    }
}

/// The argument on which perf_report runs only its paged sections and
/// prints their [`PagedSections::words`]: the report starts itself with it
/// to run them in a fresh process, not a mode for users.
const PAGED_SECTIONS_ARG: &str = "--paged-sections-process";

/// What the paged sections measure, in the order they run.
struct PagedSections {
    large: ProfileBench,
    crc32_mb_s: f64,
    small: ProfileBench,
}

impl PagedSections {
    fn measure(quick: bool, reps: usize) -> Self {
        let (rows, shard_size) = paged_layout(quick);
        let large = measure_profile(rows, shard_size, reps);
        let crc32_mb_s = measure_crc32(reps);
        // The same paged descent on a tenth of the cohort, cut into the same
        // number of shards, under the same quarter-cohort budget.
        let small_rows = rows / 10;
        let small = measure_profile(
            small_rows,
            small_rows.div_ceil(rows.div_ceil(shard_size)),
            reps,
        );
        Self {
            large,
            crc32_mb_s,
            small,
        }
    }

    /// Every number as whitespace-separated text: `f64`'s `Display`
    /// round-trips its bits, so the parent process reads back exactly what
    /// the child measured.
    fn words(&self) -> String {
        let mut s = String::new();
        for p in [&self.large, &self.small] {
            let st = &p.store;
            let _ = write!(
                s,
                "{} {} {} {} {} {} {} {} {} {} {} ",
                p.rows,
                p.steps,
                p.plain_per_step_us,
                p.profiled_per_step_us,
                p.overhead,
                st.group_rows,
                st.bytes_per_row,
                st.read_shard_mb_s,
                st.groups_per_step,
                st.page_in_us_per_group,
                st.decode_us_per_group,
            );
            for (_, total_us, count, max_us) in &p.phases {
                let _ = write!(s, "{total_us} {count} {max_us} ");
            }
        }
        let _ = write!(s, "{}", self.crc32_mb_s);
        s
    }

    /// The inverse of [`PagedSections::words`].
    fn parse(words: &str) -> Self {
        let mut words = words.split_whitespace();
        let mut next = || words.next().expect("paged sections: too few numbers");
        let mut profile = || {
            let (rows, steps) = (num(next()), num(next()));
            let (plain_per_step_us, profiled_per_step_us, overhead) =
                (num(next()), num(next()), num(next()));
            let store = StoreBench {
                group_rows: num(next()),
                bytes_per_row: num(next()),
                read_shard_mb_s: num(next()),
                groups_per_step: num(next()),
                page_in_us_per_group: num(next()),
                decode_us_per_group: num(next()),
            };
            let phases = fair_core::obs::Phase::ALL
                .iter()
                .map(|p| (p.name(), num(next()), num(next()), num(next())))
                .collect();
            ProfileBench {
                rows,
                steps,
                plain_per_step_us,
                profiled_per_step_us,
                overhead,
                phases,
                store,
            }
        };
        let (large, small) = (profile(), profile());
        Self {
            large,
            small,
            crc32_mb_s: num(next()),
        }
    }

    /// Run the paged sections in a fresh perf_report process and read its
    /// numbers back.
    fn measure_in_child(quick: bool, reps: usize) -> Self {
        let exe = std::env::current_exe().expect("perf_report's own path");
        let mut child = std::process::Command::new(exe);
        child.args([PAGED_SECTIONS_ARG, "--repeats", &reps.to_string()]);
        if quick {
            child.arg("--quick");
        }
        let output = child
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("start the paged sections' process");
        assert!(
            output.status.success(),
            "the paged sections' process failed: {}",
            output.status
        );
        Self::parse(std::str::from_utf8(&output.stdout).expect("UTF-8 numbers"))
    }
}

/// One number the paged sections' process printed.
fn num<T: std::str::FromStr>(word: &str) -> T {
    word.parse()
        .unwrap_or_else(|_| panic!("paged sections: {word:?} is not a number"))
}

/// The §IV-D claim in paged mode: per-step cost of the paged descent at two
/// cohort sizes with the same shard count, and against memory.
struct PagedScaling {
    shards: usize,
    small_rows: usize,
    small_per_step_us: f64,
    large_rows: usize,
    large_per_step_us: f64,
    /// `large / small` — gated ≤ 2x in full mode, reported in `--quick`.
    ratio: f64,
    /// The in-memory Core DCA per-step cost of the large cohort.
    memory_per_step_us: f64,
    /// `large / memory` — reported only.
    paged_vs_memory: f64,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    mode: &str,
    reps: usize,
    reports: &[CohortReport],
    serve_report: &ServeReport,
    fleet: &FleetBench,
    obs: &ObsBench,
    profile: &ProfileBench,
    crc32_mb_s: f64,
    paged: &PagedScaling,
    ratio: Option<f64>,
) -> String {
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema_version\": 15,");
    let _ = writeln!(s, "  \"generated_by\": \"perf_report\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"repeats\": {reps},");
    let _ = writeln!(s, "  \"threads\": {},", fair_core::max_workers());
    let _ = writeln!(s, "  \"nproc\": {nproc},");
    let sample_size = reports.first().map_or(0, |r| r.sample_size);
    let _ = writeln!(s, "  \"core_sample_size\": {sample_size},");
    s.push_str("  \"cohorts\": [\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"n\": {},", r.n);
        let _ = writeln!(s, "      \"generate_ms\": {},", json_number(r.generate_ms));
        let _ = writeln!(
            s,
            "      \"core_dca\": {{ \"steps\": {}, \"total_ms\": {}, \"per_step_us\": {}, \"objects_scored\": {}, \"objects_per_sec\": {} }},",
            r.core_steps,
            json_number(r.core_total_ms),
            json_number(r.core_per_step_us),
            r.core_objects_scored,
            json_number(r.core_objects_per_sec),
        );
        let _ = writeln!(
            s,
            "      \"full_dca\": {{ \"steps\": {}, \"total_ms\": {}, \"per_step_ms\": {} }},",
            r.full_steps,
            json_number(r.full_total_ms),
            json_number(r.full_per_step_ms),
        );
        let _ = writeln!(
            s,
            "      \"metrics_ms\": {{ \"disparity_at_k\": {}, \"log_discounted\": {}, \"ndcg_at_k\": {} }},",
            json_number(r.disparity_ms),
            json_number(r.log_discounted_ms),
            json_number(r.ndcg_ms),
        );
        let _ = writeln!(
            s,
            "      \"shard_size\": {}, \"num_shards\": {},",
            r.shard_size, r.num_shards
        );
        let _ = writeln!(
            s,
            "      \"metrics_serial_e2e_ms\": {{ \"disparity_at_k\": {}, \"log_discounted\": {}, \"ndcg_at_k\": {} }},",
            json_number(r.serial_e2e.disparity_ms),
            json_number(r.serial_e2e.log_discounted_ms),
            json_number(r.serial_e2e.ndcg_ms),
        );
        let _ = writeln!(
            s,
            "      \"metrics_sharded_ms\": {{ \"disparity_at_k\": {}, \"log_discounted\": {}, \"ndcg_at_k\": {} }},",
            json_number(r.sharded_e2e.disparity_ms),
            json_number(r.sharded_e2e.log_discounted_ms),
            json_number(r.sharded_e2e.ndcg_ms),
        );
        let _ = writeln!(
            s,
            "      \"metrics_sharded_speedup\": {{ \"disparity_at_k\": {}, \"log_discounted\": {}, \"ndcg_at_k\": {} }},",
            json_number(r.serial_e2e.disparity_ms / r.sharded_e2e.disparity_ms),
            json_number(r.serial_e2e.log_discounted_ms / r.sharded_e2e.log_discounted_ms),
            json_number(r.serial_e2e.ndcg_ms / r.sharded_e2e.ndcg_ms),
        );
        let o = &r.out_of_core;
        let _ = writeln!(
            s,
            "      \"out_of_core\": {{ \"store_write_ms\": {}, \"budget_bytes\": {}, \"shard_size\": {}, \"disparity_at_k_ms\": {}, \"ndcg_at_k_ms\": {},",
            json_number(o.store_write_ms),
            o.budget_bytes,
            o.shard_size,
            json_number(o.disparity_ms),
            json_number(o.ndcg_ms),
        );
        let _ = writeln!(
            s,
            "        \"cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"peak_bytes\": {} }},",
            o.cache.hits,
            o.cache.misses,
            o.cache.evictions,
            o.cache.peak_bytes,
        );
        let m = &o.multi_metric;
        let _ = writeln!(
            s,
            "        \"multi_metric\": {{ \"store\": \"compas\", \"rows\": {}, \"metrics\": 5, \"one_sweep_ms\": {}, \"sequential_ms\": {}, \"speedup\": {}, \"cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"peak_bytes\": {} }} }} }}",
            m.rows,
            json_number(m.one_sweep_ms),
            json_number(m.sequential_ms),
            json_number(m.speedup),
            m.cache.hits,
            m.cache.misses,
            m.cache.evictions,
            m.cache.peak_bytes,
        );
        s.push_str(if i + 1 == reports.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"serve\": {{ \"store_rows\": {}, \"workers\": {}, \"endpoint\": \"POST /stores/{{name}}/metrics (disparity_at_k)\", \"levels\": [",
        serve_report.store_rows, serve_report.workers
    );
    for (i, level) in serve_report.levels.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{ \"concurrency\": {}, \"requests\": {}, \"requests_per_sec\": {} }}{}",
            level.concurrency,
            level.requests,
            json_number(level.requests_per_sec),
            if i + 1 == serve_report.levels.len() {
                ""
            } else {
                ","
            }
        );
    }
    s.push_str("  ] },\n");
    let _ = writeln!(
        s,
        "  \"fleet\": {{ \"rows\": {}, \"shard_size\": {}, \"num_shards\": {}, \"k\": {}, \"local_full_step_ms\": {}, \"single_worker_full_step_ms\": {}, \"three_worker_full_step_ms\": {}, \"coordinator_overhead\": {}, \"speedup_3_vs_1\": {}, \"disparity_sweeps_per_sec\": {}, \"local_core_step_us\": {}, \"three_worker_core_step_us\": {}, \"requests\": {} }},",
        fleet.rows,
        fleet.shard_size,
        fleet.num_shards,
        fleet.k,
        json_number(fleet.local_full_step_ms),
        json_number(fleet.single_full_step_ms),
        json_number(fleet.fleet3_full_step_ms),
        json_number(fleet.coordinator_overhead),
        json_number(fleet.speedup_3_vs_1),
        json_number(fleet.disparity_sweeps_per_sec),
        json_number(fleet.local_core_step_us),
        json_number(fleet.fleet3_core_step_us),
        fleet.requests,
    );
    let _ = writeln!(
        s,
        "  \"obs\": {{ \"rows\": {}, \"core_plain_per_step_us\": {}, \"core_instrumented_per_step_us\": {}, \"per_step_overhead\": {}, \"metrics_scrape_ms\": {}, \"metrics_scrape_bytes\": {} }},",
        obs.rows,
        json_number(obs.plain_per_step_us),
        json_number(obs.instrumented_per_step_us),
        json_number(obs.per_step_overhead),
        json_number(obs.scrape_ms),
        obs.scrape_bytes,
    );
    let _ = writeln!(
        s,
        "  \"profile\": {{ \"rows\": {}, \"steps\": {}, \"plain_per_step_us\": {}, \"profiled_per_step_us\": {}, \"overhead\": {}, \"phases\": {{",
        profile.rows,
        profile.steps,
        json_number(profile.plain_per_step_us),
        json_number(profile.profiled_per_step_us),
        json_number(profile.overhead),
    );
    for (i, (name, total_us, count, max_us)) in profile.phases.iter().enumerate() {
        let _ = writeln!(
            s,
            "    \"{name}\": {{ \"total_us\": {total_us}, \"count\": {count}, \"max_us\": {max_us} }}{}",
            if i + 1 == profile.phases.len() { "" } else { "," }
        );
    }
    s.push_str("  } },\n");
    let st = &profile.store;
    let _ = writeln!(
        s,
        "  \"store\": {{ \"rows\": {}, \"group_rows\": {}, \"bytes_per_row\": {}, \"read_shard_mb_s\": {}, \"crc32_mb_s\": {}, \"groups_per_step\": {}, \"page_in_us_per_group\": {}, \"decode_us_per_group\": {} }},",
        profile.rows,
        st.group_rows,
        json_number(st.bytes_per_row),
        json_number(st.read_shard_mb_s),
        json_number(crc32_mb_s),
        json_number(st.groups_per_step),
        json_number(st.page_in_us_per_group),
        json_number(st.decode_us_per_group),
    );
    let _ = writeln!(
        s,
        "  \"paged_core\": {{ \"shards\": {}, \"small_rows\": {}, \"small_per_step_us\": {}, \"large_rows\": {}, \"large_per_step_us\": {}, \"ratio_large_vs_small\": {}, \"memory_per_step_us\": {}, \"paged_vs_memory\": {} }},",
        paged.shards,
        paged.small_rows,
        json_number(paged.small_per_step_us),
        paged.large_rows,
        json_number(paged.large_per_step_us),
        json_number(paged.ratio),
        json_number(paged.memory_per_step_us),
        json_number(paged.paged_vs_memory),
    );
    match ratio {
        Some(v) => {
            let _ = writeln!(
                s,
                "  \"core_per_step_ratio_largest_vs_smallest\": {}",
                json_number(v)
            );
        }
        None => {
            s.push_str("  \"core_per_step_ratio_largest_vs_smallest\": null\n");
        }
    }
    s.push_str("}\n");
    s
}

fn default_output_path() -> std::path::PathBuf {
    // crates/bench -> repository root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_DCA.json")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = args
        .iter()
        .position(|a| a == "--repeats")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(3);
    if args.iter().any(|a| a == PAGED_SECTIONS_ARG) {
        println!("{}", PagedSections::measure(quick, reps).words());
        return;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_output_path);

    let sizes: &[usize] = if quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mode = if quick { "quick" } else { "full" };

    println!(
        "perf_report — Core DCA / Full DCA / metric timings ({mode} mode, median of {reps})\n"
    );
    println!(
        "{:>9}  {:>12} {:>14} {:>16}  {:>14}  {:>12} {:>14} {:>10}",
        "cohort",
        "core total",
        "core per-step",
        "objects/sec",
        "full per-step",
        "disparity@k",
        "log-discounted",
        "nDCG@k"
    );

    let mut reports = Vec::new();
    for &n in sizes {
        let r = measure_cohort(n, reps);
        println!(
            "{:>9}  {:>10.2}ms {:>12.2}us {:>14.0}/s  {:>12.2}ms  {:>10.3}ms {:>12.3}ms {:>8.3}ms",
            r.n,
            r.core_total_ms,
            r.core_per_step_us,
            r.core_objects_per_sec,
            r.full_per_step_ms,
            r.disparity_ms,
            r.log_discounted_ms,
            r.ndcg_ms
        );
        println!(
            "{:>9}  sharded engine ({} x {}): disparity {:.3}ms ({:.2}x), log-disc {:.3}ms ({:.2}x), nDCG {:.3}ms ({:.2}x) vs serial end-to-end",
            "",
            r.num_shards,
            r.shard_size,
            r.sharded_e2e.disparity_ms,
            r.serial_e2e.disparity_ms / r.sharded_e2e.disparity_ms,
            r.sharded_e2e.log_discounted_ms,
            r.serial_e2e.log_discounted_ms / r.sharded_e2e.log_discounted_ms,
            r.sharded_e2e.ndcg_ms,
            r.serial_e2e.ndcg_ms / r.sharded_e2e.ndcg_ms,
        );
        println!(
            "{:>9}  out-of-core (budget {} KiB, {} x {} shards): write {:.1}ms, disparity {:.3}ms, nDCG {:.3}ms; cache {}h/{}m/{}e, peak {} KiB",
            "",
            r.out_of_core.budget_bytes / 1024,
            r.n.div_ceil(r.out_of_core.shard_size),
            r.out_of_core.shard_size,
            r.out_of_core.store_write_ms,
            r.out_of_core.disparity_ms,
            r.out_of_core.ndcg_ms,
            r.out_of_core.cache.hits,
            r.out_of_core.cache.misses,
            r.out_of_core.cache.evictions,
            r.out_of_core.cache.peak_bytes / 1024,
        );
        let m = &r.out_of_core.multi_metric;
        println!(
            "{:>9}  one-sweep audit plan (compas, 5 metrics): {:.3}ms vs {:.3}ms sequential ({:.2}x)",
            "", m.one_sweep_ms, m.sequential_ms, m.speedup,
        );
        reports.push(r);
    }

    let serve_report = measure_serve(reps);
    println!(
        "\naudit service ({} workers, {}-row store, one connection per request):",
        serve_report.workers, serve_report.store_rows
    );
    for level in &serve_report.levels {
        println!(
            "  {:>2} concurrent clients: {:>8.0} requests/sec ({} requests)",
            level.concurrency, level.requests_per_sec, level.requests
        );
    }

    let fleet_rows = if quick { 10_000 } else { 1_000_000 };
    let fleet = measure_fleet(fleet_rows, reps);
    println!(
        "\nfleet coordinator ({} rows, {} x {} shards, k={}):",
        fleet.rows, fleet.num_shards, fleet.shard_size, fleet.k
    );
    println!(
        "  full-DCA per step: local {:.3}ms, 1 worker {:.3}ms ({:.2}x overhead), 3 workers {:.3}ms ({:.2}x vs 1)",
        fleet.local_full_step_ms,
        fleet.single_full_step_ms,
        fleet.coordinator_overhead,
        fleet.fleet3_full_step_ms,
        fleet.speedup_3_vs_1,
    );
    println!(
        "  core-DCA per step: local {:.2}us, 3 workers {:.2}us (reported, not gated)",
        fleet.local_core_step_us, fleet.fleet3_core_step_us,
    );
    println!(
        "  distributed disparity sweeps: {:.0}/sec on 3 workers ({} partial-reduce requests total)",
        fleet.disparity_sweeps_per_sec, fleet.requests,
    );

    let obs_rows = if quick { 10_000 } else { 100_000 };
    let obs = measure_obs(obs_rows, reps);
    println!(
        "\nobservability ({} rows): Core DCA per step {:.2}us plain vs {:.2}us instrumented \
         ({:.3}x, budget 1.05x); /metrics scrape {:.3}ms ({} bytes)",
        obs.rows,
        obs.plain_per_step_us,
        obs.instrumented_per_step_us,
        obs.per_step_overhead,
        obs.scrape_ms,
        obs.scrape_bytes,
    );

    // The paged sections run in a fresh process: in this one, what the
    // sections above allocated and freed would move their timings.
    let PagedSections {
        large: profile,
        crc32_mb_s,
        small,
    } = PagedSections::measure_in_child(quick, reps);
    println!(
        "\nphase profiler ({} rows, paged Core DCA, {} steps): {:.2}us/step plain vs {:.2}us \
         profiled ({:.3}x, budget 1.05x); where the profiled run's time went:",
        profile.rows,
        profile.steps,
        profile.plain_per_step_us,
        profile.profiled_per_step_us,
        profile.overhead,
    );
    for (name, total_us, count, max_us) in &profile.phases {
        if *count > 0 {
            println!(
                "  {name:>8}: {:>10.1}ms over {count} scopes (max {:.2}ms)",
                *total_us as f64 / 1e3,
                *max_us as f64 / 1e3,
            );
        }
    }

    let st = &profile.store;
    println!(
        "\nstore layer ({} rows, {}-row groups): {:.2} bytes/row; cold read_shard {:.0} MB/s; \
         crc32 {:.0} MB/s; {:.1} groups/step at {:.2}us page_in + {:.2}us decode per group",
        profile.rows,
        st.group_rows,
        st.bytes_per_row,
        st.read_shard_mb_s,
        crc32_mb_s,
        st.groups_per_step,
        st.page_in_us_per_group,
        st.decode_us_per_group,
    );

    let paged = {
        let (profile_rows, profile_shard_size) = paged_layout(quick);
        let memory_per_step_us = reports
            .iter()
            .find(|r| r.n == profile_rows)
            .map_or(f64::NAN, |r| r.core_per_step_us);
        PagedScaling {
            shards: profile_rows.div_ceil(profile_shard_size),
            small_rows: small.rows,
            small_per_step_us: small.plain_per_step_us,
            large_rows: profile_rows,
            large_per_step_us: profile.plain_per_step_us,
            ratio: profile.plain_per_step_us / small.plain_per_step_us,
            memory_per_step_us,
            paged_vs_memory: profile.plain_per_step_us / memory_per_step_us,
        }
    };
    println!(
        "\npaged Core DCA ({} shards, quarter-cohort budget): {:.2}us/step at {} rows vs \
         {:.2}us at {} ({:.2}x, budget 2x{}); {:.1}x the in-memory step at {}",
        paged.shards,
        paged.large_per_step_us,
        paged.large_rows,
        paged.small_per_step_us,
        paged.small_rows,
        paged.ratio,
        if quick { ", not gated in --quick" } else { "" },
        paged.paged_vs_memory,
        paged.large_rows,
    );

    let ratio = (reports.len() > 1).then(|| {
        reports.last().unwrap().core_per_step_us / reports.first().unwrap().core_per_step_us
    });
    if let Some(v) = ratio {
        let largest = reports.last().unwrap().n;
        let smallest = reports.first().unwrap().n;
        println!(
            "\nCore DCA per-step time at {largest} is {v:.2}x the {smallest} per-step time \
             (sample-bounded cost claim: must stay within 2x)."
        );
    }

    let json = render_json(
        mode,
        reps,
        &reports,
        &serve_report,
        &fleet,
        &obs,
        &profile,
        crc32_mb_s,
        &paged,
        ratio,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_DCA.json");
    println!("\nWrote {}", out_path.display());

    // The budgets are gates, not suggestions: fail the process so a
    // regressing change cannot sail through a full perf run. (Quick mode
    // skips the timing-ratio gates — CI boxes are too noisy for them.)
    if let Some(v) = ratio {
        if v > 2.0 {
            eprintln!("ERROR: per-step ratio {v:.2} exceeds the 2x sub-linearity budget");
            std::process::exit(1);
        }
    }
    if !quick {
        if obs.per_step_overhead > 1.05 {
            eprintln!(
                "ERROR: instrumented per-step overhead {:.3}x exceeds the 1.05x budget",
                obs.per_step_overhead
            );
            std::process::exit(1);
        }
        if profile.overhead > 1.05 {
            eprintln!(
                "ERROR: profiler per-step overhead {:.3}x exceeds the 1.05x budget",
                profile.overhead
            );
            std::process::exit(1);
        }
        if paged.ratio > 2.0 {
            eprintln!(
                "ERROR: paged per-step ratio {:.2} ({} vs {} rows) exceeds the 2x \
                 sub-linearity budget",
                paged.ratio, paged.large_rows, paged.small_rows
            );
            std::process::exit(1);
        }
    }
}

//! End-to-end acceptance tests for the `fair-serve` audit service: a real
//! server on an ephemeral port, a registered on-disk store, concurrent
//! clients, background DCA jobs with progress + cancellation, and a clean
//! shutdown.
//!
//! The central claims under test:
//!
//! 1. metric results fetched through the wire are **bit-identical** to the
//!    library path (`fair_core::metrics::sharded` over the same store), for
//!    every concurrent client;
//! 2. a completed Full-DCA job reproduces the **exact seeded trajectory** of
//!    `run_full_dca_sharded` with the same configuration;
//! 3. a long job is cancellable mid-run and reports the partial progress it
//!    made;
//! 4. shutdown drains every worker and job thread, after which the port no
//!    longer answers.

use fair_ranking::core::metrics::sharded as shmetrics;
use fair_ranking::core::obs;
use fair_ranking::prelude::*;
use fair_ranking::serve::{
    serve, AuditService, Client, JobKind, JobRequest, Json, MetricsRequest, ServeError,
};
use fair_ranking::store::DEFAULT_CACHE_BYTES;
use std::time::Duration;

const ROWS: usize = 3_000;
const RUBRIC_WEIGHTS: [f64; 2] = [0.55, 0.45];

fn temp_store(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fair_serve_integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.fss", std::process::id()))
}

/// Stream a school cohort onto disk in `shard_size`-row shards.
fn school_store(name: &str, shard_size: usize) -> std::path::PathBuf {
    let path = temp_store(name);
    let generator = SchoolGenerator::new(SchoolConfig::small(ROWS, 4242));
    fair_ranking::data::store::school_to_store(&generator, shard_size, &path).unwrap();
    path
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn service_end_to_end_concurrent_audits_jobs_and_shutdown() {
    end_to_end(DEFAULT_SHARD_SIZE, DEFAULT_CACHE_BYTES);
}

/// The same flow on 7-row shards (a short final shard) behind a cache that
/// retains nothing, so every shard access re-pages.
#[test]
fn service_end_to_end_on_tiny_shards_and_a_starved_cache() {
    end_to_end(7, 0);
}

fn end_to_end(shard_size: usize, cache_bytes: usize) {
    let path = school_store(&format!("e2e_{shard_size}"), shard_size);
    let service = AuditService::with_cache_bytes(cache_bytes);
    let server = serve(service, "127.0.0.1:0", 4).unwrap();
    let addr = server.addr();
    let client = Client::new(addr);

    // --- Registration + catalog surface -------------------------------
    client.health().unwrap();
    let info = client
        .register_disk_store("school", path.to_str().unwrap())
        .unwrap();
    assert_eq!(info.rows, ROWS);
    assert_eq!(info.kind, "disk");
    let listed = client.stores().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].name, "school");
    let (features, fairness) = client.schema("school").unwrap();
    assert_eq!(features.len(), RUBRIC_WEIGHTS.len());
    assert_eq!(fairness.len(), 4, "school schema has 4 fairness attributes");
    let stats = client.stats("school").unwrap();
    assert_eq!(stats.get("rows").unwrap().as_usize(), Some(ROWS));
    let budget = stats.get("cache").and_then(|c| c.get("budget_bytes"));
    assert_eq!(budget.unwrap().as_usize(), Some(cache_bytes));

    // --- Library reference values -------------------------------------
    let reference_store = ShardStore::open_with_budget(&path, cache_bytes).unwrap();
    let ranker = WeightedSumRanker::new(RUBRIC_WEIGHTS.to_vec()).unwrap();
    let k = 0.1;
    let bonus = vec![1.5, 0.0, 4.0, 0.25];
    let lib_disparity = shmetrics::disparity_at_k(&reference_store, &ranker, &bonus, k).unwrap();
    let lib_ndcg = shmetrics::ndcg_at_k(&reference_store, &ranker, &bonus, k).unwrap();

    // --- Concurrent clients, bit-identical results ---------------------
    let request = MetricsRequest {
        k,
        bonus: Some(bonus.clone()),
        weights: Some(RUBRIC_WEIGHTS.to_vec()),
        metrics: Some(vec!["disparity".into(), "ndcg".into()]),
    };
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let client = Client::new(addr);
            let request = request.clone();
            let lib_disparity = &lib_disparity;
            scope.spawn(move || {
                for _ in 0..3 {
                    let result = client.metrics("school", &request).unwrap();
                    assert_eq!(result.rows, ROWS);
                    assert_eq!(
                        bits(&result.disparity.clone().unwrap()),
                        bits(lib_disparity),
                        "wire disparity == library bits"
                    );
                    assert_eq!(result.ndcg.unwrap().to_bits(), lib_ndcg.to_bits());
                }
            });
        }
    });

    // --- A Full-DCA job reproduces the library trajectory --------------
    let job_req = JobRequest {
        store: "school".into(),
        kind: JobKind::Full,
        k,
        weights: Some(RUBRIC_WEIGHTS.to_vec()),
        seed: 77,
        sample_size: None,
        learning_rates: Some(vec![8.0, 1.0]),
        iterations_per_rate: Some(10),
        workers: None,
    };
    let submitted = client.submit_job(&job_req).unwrap();
    assert_eq!(submitted.total_steps, 20);
    let done = client
        .wait_for_job(&submitted.id, Duration::from_secs(120))
        .unwrap();
    assert_eq!(done.state, "completed", "error: {:?}", done.error);
    assert_eq!(done.step, 20, "progress counter reaches the total");
    let job_result = done.result.unwrap();

    let lib_config = DcaConfig {
        learning_rates: vec![8.0, 1.0],
        iterations_per_rate: 10,
        refinement_iterations: 0,
        seed: 77,
        ..DcaConfig::default()
    };
    let lib_dca = run_full_dca_sharded(
        &reference_store,
        &ranker,
        &TopKDisparity::new(k),
        &lib_config,
        None,
        false,
    )
    .unwrap();
    assert_eq!(
        bits(&job_result.bonus),
        bits(&lib_dca.bonus),
        "job trajectory == run_full_dca_sharded, bit for bit"
    );
    assert_eq!(job_result.steps, lib_dca.steps);
    assert_eq!(job_result.objects_scored, lib_dca.objects_scored);

    // --- A second, long job is cancellable mid-run ----------------------
    let long_req = JobRequest {
        store: "school".into(),
        kind: JobKind::Full,
        k,
        weights: Some(RUBRIC_WEIGHTS.to_vec()),
        seed: 78,
        sample_size: None,
        learning_rates: Some(vec![4.0, 2.0, 1.0, 0.5]),
        iterations_per_rate: Some(5_000),
        workers: None,
    };
    let long_job = client.submit_job(&long_req).unwrap();
    assert_eq!(long_job.total_steps, 20_000);
    // Wait for real progress so the cancellation demonstrably lands mid-run.
    let mut observed_step = 0;
    for _ in 0..3_000 {
        let view = client.job(&long_job.id).unwrap();
        observed_step = view.step;
        if observed_step >= 3 || view.is_terminal() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(observed_step >= 3, "the long job never reported progress");
    client.cancel_job(&long_job.id).unwrap();
    let cancelled = client
        .wait_for_job(&long_job.id, Duration::from_secs(60))
        .unwrap();
    assert_eq!(cancelled.state, "cancelled");
    assert!(
        cancelled.step < cancelled.total_steps,
        "cancelled well before the 20k steps ({} run)",
        cancelled.step
    );
    assert!(cancelled.result.is_none());

    // --- Clean shutdown -------------------------------------------------
    let jobs_before_shutdown = server.service().jobs.len();
    assert_eq!(jobs_before_shutdown, 2);
    server.shutdown();
    match Client::new(addr)
        .with_timeout(Duration::from_millis(500))
        .health()
    {
        Err(ServeError::Io(_) | ServeError::Protocol(_)) => {}
        other => panic!("the port must stop answering after shutdown, got {other:?}"),
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn wire_errors_surface_as_structured_api_failures() {
    let server = serve(AuditService::new(), "127.0.0.1:0", 2).unwrap();
    let client = Client::new(server.addr());

    match client.metrics("ghost", &MetricsRequest::baseline(0.1)) {
        Err(ServeError::Api {
            status: 404,
            message,
        }) => {
            assert!(message.contains("ghost"), "{message}");
        }
        other => panic!("expected 404, got {other:?}"),
    }
    match client.register_disk_store("bad", "/nonexistent/path.fss") {
        Err(ServeError::Api { status: 422, .. }) => {}
        other => panic!("expected 422, got {other:?}"),
    }
    // Registering a synthetic cohort over the wire and auditing it.
    let info = client
        .register_synthetic("syn", "compas", 500, 9, DEFAULT_SHARD_SIZE)
        .unwrap();
    assert_eq!(info.kind, "memory");
    assert_eq!(info.rows, 500);
    let result = client
        .metrics(
            "syn",
            &MetricsRequest {
                k: 0.2,
                bonus: None,
                weights: None,
                metrics: Some(vec!["disparity".into(), "fpr_difference".into()]),
            },
        )
        .unwrap();
    assert!(result.disparity.is_some());
    assert!(result.fpr_difference.is_some(), "COMPAS rows are labelled");
    // Duplicate registration conflicts.
    match client.register_synthetic("syn", "compas", 10, 9, DEFAULT_SHARD_SIZE) {
        Err(ServeError::Api { status: 409, .. }) => {}
        other => panic!("expected 409, got {other:?}"),
    }

    // A seed above 2^53 must round-trip the wire exactly (JSON numbers are
    // f64; the client switches to a string encoding): the job's trajectory
    // is the library trajectory for that very seed, not a rounded one.
    let big_seed = u64::MAX - 1; // not representable as f64
    let job = client
        .submit_job(&JobRequest {
            store: "syn".into(),
            kind: JobKind::Core,
            k: 0.2,
            weights: None,
            seed: big_seed,
            sample_size: Some(60),
            learning_rates: Some(vec![4.0, 1.0]),
            iterations_per_rate: Some(5),
            workers: None,
        })
        .unwrap();
    let done = client
        .wait_for_job(&job.id, Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.state, "completed", "error: {:?}", done.error);
    let local = CompasGenerator::new(CompasConfig::small(500, 9))
        .generate_sharded(DEFAULT_SHARD_SIZE)
        .unwrap();
    let num_features = local.schema().num_features();
    let uniform = WeightedSumRanker::new(vec![1.0; num_features]).unwrap();
    let lib = run_core_dca_sharded(
        &local,
        &uniform,
        &TopKDisparity::new(0.2),
        &DcaConfig {
            sample_size: 60,
            learning_rates: vec![4.0, 1.0],
            iterations_per_rate: 5,
            refinement_iterations: 0,
            seed: big_seed,
            ..DcaConfig::default()
        },
        None,
        false,
    )
    .unwrap();
    assert_eq!(
        bits(&done.result.unwrap().bonus),
        bits(&lib.bonus),
        "a >2^53 seed reaches the engine unrounded"
    );

    client.remove_store("syn").unwrap();
    assert!(client.stores().unwrap().is_empty());

    // A disk store whose backing file goes bad *after* registration: the
    // page-in panic must surface as a 500 on that request without killing
    // the worker — the pool keeps serving afterwards.
    let doomed = school_store("doomed", DEFAULT_SHARD_SIZE);
    client
        .register_disk_store("doomed", doomed.to_str().unwrap())
        .unwrap();
    std::fs::write(&doomed, b"not a store anymore").unwrap();
    for _ in 0..4 {
        // More failing requests than workers: a killed worker would hang
        // the later ones instead of answering.
        match client.metrics("doomed", &MetricsRequest::baseline(0.1)) {
            Err(ServeError::Api {
                status: 500,
                message,
            }) => {
                assert!(message.contains("internal error"), "{message}");
            }
            other => panic!("expected 500 from the broken store, got {other:?}"),
        }
    }
    client.health().unwrap();
    std::fs::remove_file(doomed).ok();
    server.shutdown();
}

/// Check one Prometheus text-format line: a comment or `name{labels} value`.
///
/// The registry is process-global, so this test asserts shape and presence,
/// never exact counts — sibling tests in this binary record concurrently.
fn assert_prometheus_line(line: &str) {
    if let Some(rest) = line.strip_prefix("# TYPE ") {
        let mut parts = rest.split(' ');
        let name = parts.next().unwrap_or("");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        assert!(
            matches!(parts.next(), Some("counter" | "gauge" | "histogram")),
            "bad TYPE kind in {line:?}"
        );
        assert_eq!(parts.next(), None, "trailing tokens in {line:?}");
        return;
    }
    let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
        panic!("sample line without a value: {line:?}");
    });
    assert!(
        value.parse::<f64>().is_ok(),
        "unparseable sample value in {line:?}"
    );
    let name = series.split('{').next().unwrap();
    assert!(
        name.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_'),
        "bad series name in {line:?}"
    );
    if let Some(labels) = series
        .strip_prefix(name)
        .and_then(|s| s.strip_prefix('{'))
        .and_then(|s| s.strip_suffix('}'))
    {
        for pair in labels.split("\",") {
            let (k, v) = pair
                .split_once("=\"")
                .unwrap_or_else(|| panic!("bad label pair {pair:?} in {line:?}"));
            let v = v.strip_suffix('"').unwrap_or(v);
            assert!(!k.is_empty() && !v.contains('"'), "bad label in {line:?}");
        }
    }
}

#[test]
fn metrics_endpoint_exposes_every_layer_as_valid_prometheus_text() {
    let path = school_store("prom", DEFAULT_SHARD_SIZE);
    let server = serve(AuditService::new(), "127.0.0.1:0", 2).unwrap();
    let client = Client::new(server.addr());

    // Traffic through every layer: routes, a disk store, a finished job.
    client.health().unwrap();
    client
        .register_disk_store("prom", path.to_str().unwrap())
        .unwrap();
    client
        .metrics("prom", &MetricsRequest::baseline(0.1))
        .unwrap();
    let job = client
        .submit_job(&JobRequest {
            store: "prom".into(),
            kind: JobKind::Core,
            k: 0.1,
            weights: Some(RUBRIC_WEIGHTS.to_vec()),
            seed: 5,
            sample_size: Some(100),
            learning_rates: Some(vec![4.0]),
            iterations_per_rate: Some(3),
            workers: None,
        })
        .unwrap();
    let done = client
        .wait_for_job(&job.id, Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.state, "completed", "error: {:?}", done.error);
    // Wall-clock timings freeze at the terminal transition: two fetches of
    // a finished job agree exactly.
    std::thread::sleep(Duration::from_millis(15));
    let refetched = client.job(&job.id).unwrap();
    assert_eq!(refetched.queued_ms, done.queued_ms);
    assert_eq!(refetched.running_ms, done.running_ms);

    // A scrape reports previous scrapes, not itself: warm the route series
    // up with one throwaway scrape before asserting on the exposition.
    client.metrics_text().unwrap();
    let text = client.metrics_text().unwrap();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        assert_prometheus_line(line);
    }
    for needle in [
        "# TYPE fair_serve_requests_total counter",
        "# TYPE fair_serve_request_duration_us histogram",
        "fair_serve_route_requests_total{class=\"2xx\",route=\"GET /health\"}",
        "fair_serve_route_requests_total{class=\"2xx\",route=\"GET /metrics\"}",
        "fair_serve_request_duration_us_bucket{route=\"POST /stores/{name}/metrics\",le=\"+Inf\"}",
        "fair_serve_jobs_submitted_total{kind=\"core\"}",
        "fair_serve_jobs_finished_total{state=\"completed\"}",
        "fair_serve_job_step_duration_us_count{kind=\"core\"}",
        "fair_serve_stores_registered_total{kind=\"disk\"}",
        "fair_store_cache_misses_total",
        "fair_store_resident_bytes",
        "fair_serve_in_flight",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // The unlabeled total is monotone across scrapes, and /health mirrors it.
    let count = |t: &str| -> u64 {
        t.lines()
            .find(|l| l.starts_with("fair_serve_requests_total "))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .map_or(0, |v| v as u64)
    };
    let first = count(&text);
    assert!(first > 0);
    let health = client.health_info().unwrap();
    assert!(health.get("uptime_ms").is_some(), "{health:?}");
    let reported = health
        .get("requests_total")
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(reported >= first, "health echoes the request counter");
    assert!(count(&client.metrics_text().unwrap()) > first);

    server.shutdown();
    std::fs::remove_file(path).ok();
}

#[test]
fn job_profile_accounts_for_the_running_time_and_carries_the_trace() {
    // A memory store keeps every phase on the job thread's scope tree (no
    // background page-ins), so the attributed phase total must match the
    // serve layer's wall clock: within 5% of `running_ms`, plus a small
    // absolute floor for millisecond rounding on either side.
    let server = serve(AuditService::new(), "127.0.0.1:0", 2).unwrap();
    let trace = obs::next_trace_id();
    let client = Client::new(server.addr()).with_trace(&trace);
    client
        .register_synthetic("profiled", "school", 400_000, 11, DEFAULT_SHARD_SIZE)
        .unwrap();
    let job = client
        .submit_job(&JobRequest {
            store: "profiled".into(),
            kind: JobKind::Full,
            k: 0.1,
            weights: Some(RUBRIC_WEIGHTS.to_vec()),
            seed: 3,
            sample_size: None,
            learning_rates: Some(vec![8.0, 1.0]),
            iterations_per_rate: Some(10),
            workers: None,
        })
        .unwrap();
    assert_eq!(
        job.trace, trace,
        "the job adopts the submitting request's trace id"
    );
    let done = client
        .wait_for_job(&job.id, Duration::from_secs(120))
        .unwrap();
    assert_eq!(done.state, "completed", "error: {:?}", done.error);
    assert_eq!(done.trace, trace, "status responses keep reporting it");

    let profile = client.job_profile(&job.id).unwrap();
    assert_eq!(profile.get("id").unwrap().as_str(), Some(job.id.as_str()));
    assert_eq!(profile.get("trace").unwrap().as_str(), Some(trace.as_str()));
    assert_eq!(profile.get("state").unwrap().as_str(), Some("completed"));
    let phases = profile.get("phases").unwrap();
    let mut total_us = 0.0;
    for name in ["page_in", "decode", "score", "sample", "combine", "wire"] {
        let entry = phases
            .get(name)
            .unwrap_or_else(|| panic!("phase `{name}` missing: {}", profile.render()));
        for field in ["total_us", "count", "max_us"] {
            assert!(entry.get(field).unwrap().as_f64().is_some());
        }
        total_us += entry.get("total_us").unwrap().as_f64().unwrap();
    }
    let score = phases.get("score").unwrap();
    assert_eq!(
        score.get("count").unwrap().as_u64(),
        Some(20),
        "a full descent opens one score scope per step"
    );
    let running_ms = profile.get("running_ms").unwrap().as_f64().unwrap();
    let total_ms = total_us / 1_000.0;
    assert!(
        (total_ms - running_ms).abs() <= 0.05 * running_ms + 4.0,
        "attributed {total_ms:.1} ms vs wall-clock {running_ms:.1} ms"
    );
    let steps = profile.get("steps").unwrap().as_arr().unwrap();
    assert!(!steps.is_empty() && steps.len() <= 32, "breakdown ring");
    for step in steps {
        assert!(step.get("step").unwrap().as_usize().is_some());
        assert!(step.get("phase_us").is_some());
    }

    // The per-job flush landed in the registry's profile histogram family.
    let text = client.metrics_text().unwrap();
    assert!(
        text.contains("fair_profile_phase_ms_count{phase=\"score\"}"),
        "terminal jobs flush phase totals into fair_profile_phase_ms:\n{text}"
    );
    server.shutdown();
}

/// The same attribution for a Core DCA job paging from disk through a cache
/// smaller than the file: each step's row gather reads its checksummed row
/// groups on the job thread, as `page_in` (the reads) nested in `decode`
/// (checksums and decoding) nested in `sample`, so the phases still add up
/// to the running time.
#[test]
fn paged_core_job_profile_accounts_for_the_running_time() {
    let path = temp_store("paged_profile");
    let generator = SchoolGenerator::new(SchoolConfig::small(60_000, 17));
    let summary = fair_ranking::data::store::school_to_store(&generator, 4096, &path).unwrap();
    let budget = usize::try_from(summary.file_bytes / 4).unwrap();
    let server = serve(AuditService::with_cache_bytes(budget), "127.0.0.1:0", 2).unwrap();
    let client = Client::new(server.addr());
    client
        .register_disk_store("paged", path.to_str().unwrap())
        .unwrap();
    let job = client
        .submit_job(&JobRequest {
            store: "paged".into(),
            kind: JobKind::Core,
            k: 0.05,
            weights: Some(RUBRIC_WEIGHTS.to_vec()),
            seed: 5,
            sample_size: Some(500),
            learning_rates: Some(vec![8.0, 1.0]),
            iterations_per_rate: Some(20),
            workers: None,
        })
        .unwrap();
    let done = client
        .wait_for_job(&job.id, Duration::from_secs(120))
        .unwrap();
    assert_eq!(done.state, "completed", "error: {:?}", done.error);

    let profile = client.job_profile(&job.id).unwrap();
    let phases = profile.get("phases").unwrap();
    let field = |name: &str, field: &str| {
        phases
            .get(name)
            .and_then(|p| p.get(field))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("phase `{name}` lacks `{field}`: {}", profile.render()))
    };
    for name in ["page_in", "decode"] {
        assert!(
            field(name, "count") > 0.0,
            "a paged gather reads and decodes: {}",
            profile.render()
        );
    }
    let total_ms = ["page_in", "decode", "score", "sample", "combine", "wire"]
        .iter()
        .map(|name| field(name, "total_us"))
        .sum::<f64>()
        / 1_000.0;
    let running_ms = profile.get("running_ms").unwrap().as_f64().unwrap();
    assert!(
        (total_ms - running_ms).abs() <= 0.05 * running_ms + 4.0,
        "attributed {total_ms:.1} ms vs wall-clock {running_ms:.1} ms"
    );
    // The store's stats report the row groups the job's gathers read.
    let cache = client.stats("paged").unwrap();
    let cache = cache.get("cache").unwrap();
    assert!(cache.get("sparse_groups").unwrap().as_f64().unwrap() > 0.0);
    server.shutdown();
    std::fs::remove_file(path).ok();
}

/// A Full DCA job paging from disk through a cache smaller than the file:
/// each step's sweep pages shards in on pool workers, under the job thread's
/// `score` scope, and the workers' `page_in` and `decode` split the sweep's
/// wall time with `score` instead of adding to it.
#[test]
fn paged_full_job_profile_accounts_for_the_running_time() {
    let path = temp_store("paged_full_profile");
    let generator = SchoolGenerator::new(SchoolConfig::small(60_000, 17));
    let summary = fair_ranking::data::store::school_to_store(&generator, 4096, &path).unwrap();
    let budget = usize::try_from(summary.file_bytes / 4).unwrap();
    let server = serve(AuditService::with_cache_bytes(budget), "127.0.0.1:0", 2).unwrap();
    let client = Client::new(server.addr());
    client
        .register_disk_store("paged", path.to_str().unwrap())
        .unwrap();
    let job = client
        .submit_job(&JobRequest {
            store: "paged".into(),
            kind: JobKind::Full,
            k: 0.05,
            weights: Some(RUBRIC_WEIGHTS.to_vec()),
            seed: 5,
            sample_size: None,
            learning_rates: Some(vec![8.0, 1.0]),
            iterations_per_rate: Some(4),
            workers: None,
        })
        .unwrap();
    let done = client
        .wait_for_job(&job.id, Duration::from_secs(120))
        .unwrap();
    assert_eq!(done.state, "completed", "error: {:?}", done.error);

    let profile = client.job_profile(&job.id).unwrap();
    let phases = profile.get("phases").unwrap();
    let phase = |name: &str, field: &str| phases.get(name).unwrap().get(field).unwrap().as_f64();
    let (page_ins, decodes) = (phase("page_in", "count"), phase("decode", "count"));
    assert!(
        page_ins > Some(0.0) && decodes > Some(0.0),
        "a paged sweep reads and decodes"
    );
    let total_ms = ["page_in", "decode", "score", "sample", "combine", "wire"]
        .iter()
        .map(|name| phase(name, "total_us").unwrap())
        .sum::<f64>()
        / 1_000.0;
    let running_ms = profile.get("running_ms").unwrap().as_f64().unwrap();
    assert!(
        (total_ms - running_ms).abs() <= 0.05 * running_ms + 4.0,
        "attributed {total_ms:.1} ms vs wall-clock {running_ms:.1} ms: {}",
        profile.render()
    );
    server.shutdown();
    std::fs::remove_file(path).ok();
}

#[test]
fn request_spans_carry_the_caller_supplied_trace_id() {
    let _guard = obs::capture();
    let server = serve(AuditService::new(), "127.0.0.1:0", 2).unwrap();
    let trace = obs::next_trace_id();
    Client::new(server.addr())
        .with_trace(&trace)
        .health()
        .unwrap();
    server.shutdown();

    let spans: Vec<_> = obs::captured()
        .into_iter()
        .filter(|r| r.target == "serve.request" && r.field("trace") == Some(trace.as_str()))
        .collect();
    assert_eq!(spans.len(), 1, "exactly one handler span carries the id");
    assert_eq!(spans[0].kind, "span");
    assert_eq!(spans[0].field("path"), Some("/health"));
    assert_eq!(spans[0].field("status"), Some("200"));
    assert!(spans[0].duration_us.is_some());
}

//! End-to-end tests for the fleet coordinator: real audit servers on
//! ephemeral ports acting as one DCA engine.
//!
//! The central claims under test:
//!
//! 1. a 3-worker fleet's Full- and Core-DCA trajectories and disparity
//!    sweeps are **bit-identical** to the local sharded runners;
//! 2. under every `FAIR_FAULT` failure mode on the partial-reduce path, a
//!    run that the coordinator reports as successful is still bit-identical
//!    — retries never double-count a shard range;
//! 3. a worker killed mid-descent has its range re-dispatched to the
//!    survivors and the descent still completes bit-identically;
//! 4. a 500-burst ejects a worker, and health probes re-admit it once the
//!    burst passes;
//! 5. a fleet job's phase profile counts each fan-out round's wire time
//!    once, however many ranges run in it;
//! 6. a fleet job stops at a step boundary when cancelled, and a fleet job
//!    whose every worker fails reports the wire error once, as the engine
//!    error its descent returned;
//! 7. workers that list the store in different shapes are refused at
//!    connect.

use fair_ranking::core::metrics::sharded as shmetrics;
use fair_ranking::core::obs;
use fair_ranking::prelude::*;
use fair_ranking::serve::{
    serve, AuditService, Client, FleetConfig, FleetCoordinator, JobKind, JobRequest, Json,
    ServerHandle,
};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const ROWS: usize = 2_000;
const SEED: u64 = 4242;
const RUBRIC_WEIGHTS: [f64; 2] = [0.55, 0.45];

/// The fault plan is process-global; tests that rely on it (or on its
/// absence) must not interleave.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The default 64Ki shard size would put the whole 2,000-row cohort in one
/// shard and leave every worker but the first with an empty range; this
/// layout makes the placement genuinely spread work across the fleet.
const SHARD_SIZE: usize = 256;

/// Spawn `n` audit servers, each holding the same deterministic school
/// cohort in `shard_size`-row shards under the name `cohort`.
fn spawn_fleet(n: usize, shard_size: usize) -> (Vec<ServerHandle>, Vec<SocketAddr>) {
    let mut handles = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let server = serve(AuditService::new(), "127.0.0.1:0", 2).unwrap();
        Client::new(server.addr())
            .register_synthetic("cohort", "school", ROWS, SEED, shard_size)
            .unwrap();
        addrs.push(server.addr());
        handles.push(server);
    }
    (handles, addrs)
}

/// The same cohort the workers hold, built locally for reference runs.
fn local_cohort(shard_size: usize) -> ShardedDataset {
    SchoolGenerator::new(SchoolConfig::small(ROWS, SEED))
        .generate_sharded(shard_size)
        .unwrap()
        .into_dataset()
}

fn quick_config(seed: u64) -> DcaConfig {
    DcaConfig {
        sample_size: 200,
        learning_rates: vec![8.0, 1.0],
        iterations_per_rate: 6,
        refinement_iterations: 0,
        seed,
        ..DcaConfig::default()
    }
}

/// A Core DCA job under `config` whose descent fans out to `workers`.
fn fleet_core_job(workers: &[SocketAddr], config: &DcaConfig) -> JobRequest {
    JobRequest {
        store: "cohort".into(),
        kind: JobKind::Core,
        k: 0.1,
        weights: Some(RUBRIC_WEIGHTS.to_vec()),
        seed: config.seed,
        sample_size: Some(config.sample_size),
        learning_rates: Some(config.learning_rates.clone()),
        iterations_per_rate: Some(config.iterations_per_rate),
        workers: Some(workers.iter().map(SocketAddr::to_string).collect()),
    }
}

/// A node fronting the fleet: it holds the same cohort, so it accepts jobs
/// on `cohort` and runs their descents on the workers.
fn spawn_front() -> (ServerHandle, Client) {
    let front = serve(AuditService::new(), "127.0.0.1:0", 2).unwrap();
    let client = Client::new(front.addr());
    client
        .register_synthetic("cohort", "school", ROWS, SEED, SHARD_SIZE)
        .unwrap();
    (front, client)
}

#[test]
fn three_worker_fleet_matches_the_local_sharded_runners_bitwise() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // 7-row shards leave a short final shard (2,000 = 285 * 7 + 5).
    for shard_size in [SHARD_SIZE, 7] {
        let (handles, addrs) = spawn_fleet(3, shard_size);
        let fleet = FleetCoordinator::connect("cohort", &addrs, FleetConfig::default()).unwrap();
        assert_eq!(fleet.rows(), ROWS);
        assert_eq!(fleet.placement().num_workers(), 3);
        assert_eq!(
            fleet.placement().num_shards(),
            ROWS.div_ceil(shard_size),
            "every worker owns a non-empty range"
        );

        let local = local_cohort(shard_size);
        let ranker = WeightedSumRanker::new(RUBRIC_WEIGHTS.to_vec()).unwrap();
        let k = 0.1;
        let config = quick_config(41);

        // Disparity sweep.
        let bonus = vec![1.5, 0.0, 4.0, 0.25];
        let wire = fleet.disparity(k, &bonus, Some(&RUBRIC_WEIGHTS)).unwrap();
        let lib = shmetrics::disparity_at_k(&local, &ranker, &bonus, k).unwrap();
        assert_eq!(bits(&wire), bits(&lib), "fleet disparity == library bits");

        // Full DCA.
        let fleet_full = fleet
            .run_full_dca(k, Some(&RUBRIC_WEIGHTS), &config, None, true)
            .unwrap();
        let lib_full =
            run_full_dca_sharded(&local, &ranker, &TopKDisparity::new(k), &config, None, true)
                .unwrap();
        assert_eq!(bits(&fleet_full.bonus), bits(&lib_full.bonus));
        assert_eq!(fleet_full.steps, lib_full.steps);
        for (a, b) in fleet_full.trace.iter().zip(&lib_full.trace) {
            assert_eq!(a.bonus, b.bonus, "full trace step {}", a.step);
        }

        // Core DCA.
        let fleet_core = fleet
            .run_core_dca(k, Some(&RUBRIC_WEIGHTS), &config, None, true)
            .unwrap();
        let lib_core =
            run_core_dca_sharded(&local, &ranker, &TopKDisparity::new(k), &config, None, true)
                .unwrap();
        assert_eq!(bits(&fleet_core.bonus), bits(&lib_core.bonus));
        assert_eq!(fleet_core.objects_scored, lib_core.objects_scored);
        for (a, b) in fleet_core.trace.iter().zip(&lib_core.trace) {
            assert_eq!(a.bonus, b.bonus, "core trace step {}", a.step);
        }

        let report = fleet.report();
        assert!(report.requests > 0);
        assert_eq!(
            report.re_dispatches, 0,
            "a healthy fleet never fails over: {report:?}"
        );

        // A re-run of the same descent replays identical `(seed, step)` sample
        // requests, and the trajectory is unchanged.
        let rerun = fleet
            .run_core_dca(k, Some(&RUBRIC_WEIGHTS), &config, None, false)
            .unwrap();
        assert_eq!(bits(&rerun.bonus), bits(&lib_core.bonus));
        for h in handles {
            h.shutdown();
        }
    }
}

#[test]
fn fault_matrix_runs_stay_bit_identical_whenever_the_coordinator_succeeds() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (handles, addrs) = spawn_fleet(3, SHARD_SIZE);
    let fleet = FleetCoordinator::connect(
        "cohort",
        &addrs,
        FleetConfig {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            ..FleetConfig::default()
        },
    )
    .unwrap();

    let local = local_cohort(SHARD_SIZE);
    let ranker = WeightedSumRanker::new(RUBRIC_WEIGHTS.to_vec()).unwrap();
    let k = 0.1;
    let config = quick_config(97);
    let reference = run_core_dca_sharded(
        &local,
        &ranker,
        &TopKDisparity::new(k),
        &config,
        None,
        false,
    )
    .unwrap();

    // Every fault mode on the partial-reduce path, two injections each.
    // Each run must either fail loudly or produce the exact local result.
    for spec in [
        "serve@partials:delay:40:2",
        "serve@partials:drop:2",
        "serve@partials:corrupt:2",
        "serve@partials:500:2",
        "serve@partials:close-mid-body:2",
    ] {
        fair_ranking::core::fault::install(
            fair_ranking::core::fault::FaultPlan::parse(spec).unwrap(),
        );
        let outcome = fleet
            .run_core_dca(k, Some(&RUBRIC_WEIGHTS), &config, None, false)
            .unwrap_or_else(|e| panic!("{spec}: coordinator gave up: {e}"));
        fair_ranking::core::fault::install(fair_ranking::core::fault::FaultPlan::none());
        assert_eq!(
            bits(&outcome.bonus),
            bits(&reference.bonus),
            "{spec}: a run the coordinator reports as success must be exact"
        );
    }
    let report = fleet.report();
    assert!(
        report.retries >= 4,
        "drop/corrupt/500/close-mid-body must each force retries: {report:?}"
    );
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn killing_a_worker_mid_descent_re_dispatches_its_range() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut handles, addrs) = spawn_fleet(3, SHARD_SIZE);
    let fleet = FleetCoordinator::connect(
        "cohort",
        &addrs,
        FleetConfig {
            request_timeout: Duration::from_secs(5),
            max_attempts: 2,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            eject_after: 2,
            probe_every: 1_000, // don't waste rounds probing the corpse
            connect_retries: 0,
        },
    )
    .unwrap();

    let config = quick_config(53);
    let k = 0.1;

    // The middle worker serves real traffic first, then dies: every later
    // round must fail over its range to a survivor.
    let bonus = vec![0.5, 0.0, 1.0, 0.0];
    fleet.disparity(k, &bonus, Some(&RUBRIC_WEIGHTS)).unwrap();
    assert_eq!(fleet.report().re_dispatches, 0, "all three alive so far");
    handles.remove(1).shutdown();

    let fleet_full = fleet
        .run_full_dca(k, Some(&RUBRIC_WEIGHTS), &config, None, false)
        .unwrap();

    let local = local_cohort(SHARD_SIZE);
    let ranker = WeightedSumRanker::new(RUBRIC_WEIGHTS.to_vec()).unwrap();
    let lib_full = run_full_dca_sharded(
        &local,
        &ranker,
        &TopKDisparity::new(k),
        &config,
        None,
        false,
    )
    .unwrap();
    assert_eq!(
        bits(&fleet_full.bonus),
        bits(&lib_full.bonus),
        "losing a worker mid-run must not change the trajectory"
    );
    let report = fleet.report();
    assert!(
        report.re_dispatches > 0,
        "the dead worker's range must move to a survivor: {report:?}"
    );
    assert!(
        fleet.workers().iter().any(|w| !w.healthy),
        "the dead worker must be ejected: {:?}",
        fleet.workers()
    );
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn one_trace_id_spans_coordinator_retries_and_worker_handlers() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _capture = obs::capture();
    // The capture buffer is shared and append-only; other tests in this
    // binary (serialized by FAULT_LOCK) leave their own fleet traffic in
    // it, so only look at records emitted from here on.
    let base = obs::captured().len();
    let (handles, addrs) = spawn_fleet(2, SHARD_SIZE);
    let fleet = FleetCoordinator::connect(
        "cohort",
        &addrs,
        FleetConfig {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(10),
            ..FleetConfig::default()
        },
    )
    .unwrap();

    // A 500 burst on the partial-reduce path forces coordinator retries;
    // the workers are in-process, so their handler spans land in the same
    // capture buffer as the coordinator's events.
    fair_ranking::core::fault::install(
        fair_ranking::core::fault::FaultPlan::parse("serve@partials:500:2").unwrap(),
    );
    let bonus = vec![0.5, 0.0, 1.0, 0.0];
    fleet.disparity(0.1, &bonus, Some(&RUBRIC_WEIGHTS)).unwrap();
    fair_ranking::core::fault::install(fair_ranking::core::fault::FaultPlan::none());
    assert!(fleet.report().retries >= 1, "{:?}", fleet.report());

    let records = obs::captured().split_off(base);
    // Anchor on this coordinator's retry events and follow their trace id
    // down to the worker spans.
    let retry = records
        .iter()
        .find(|r| r.target == "fleet.retry")
        .expect("the 500 burst must emit a retry event");
    let trace = retry.field("trace").expect("retries carry the trace id");
    let fan_out = records
        .iter()
        .find(|r| r.target == "fleet.fan_out" && r.field("trace") == Some(trace))
        .expect("the retry's trace id names a fan-out round");
    assert_eq!(fan_out.kind, "span");
    assert_eq!(fan_out.field("store"), Some("cohort"));
    let worker_spans: Vec<_> = records
        .iter()
        .filter(|r| r.target == "serve.request" && r.field("trace") == Some(trace))
        .collect();
    assert!(
        worker_spans.len() >= 2,
        "the retried range reaches a worker handler at least twice under \
         the same trace id, got {}",
        worker_spans.len()
    );
    assert!(
        worker_spans
            .iter()
            .all(|r| r.field("path").is_some_and(|p| p.ends_with("/partials"))),
        "{worker_spans:?}"
    );

    for h in handles {
        h.shutdown();
    }
}

#[test]
fn a_traced_job_pins_one_id_from_submit_to_worker_spans_under_faults() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _capture = obs::capture();
    let (handles, addrs) = spawn_fleet(3, SHARD_SIZE);

    // A fourth node fronts the fleet: a job submitted to it with `workers`
    // fans its descent out to the three workers, and everything the job
    // touches — accept, queue, every step, every fan-out round, every retry,
    // every worker handler — must carry the *submitting request's* trace id.
    let front = serve(AuditService::new(), "127.0.0.1:0", 2).unwrap();
    let trace = obs::next_trace_id();
    let client = Client::new(front.addr()).with_trace(&trace);
    client
        .register_synthetic("cohort", "school", ROWS, SEED, SHARD_SIZE)
        .unwrap();

    // A 500 burst on the partial-reduce path forces coordinator retries
    // mid-job; retried dispatches must not mint fresh ids.
    fair_ranking::core::fault::install(
        fair_ranking::core::fault::FaultPlan::parse("serve@partials:500:2").unwrap(),
    );
    let config = quick_config(97);
    let job = client.submit_job(&fleet_core_job(&addrs, &config)).unwrap();
    assert_eq!(job.trace, trace, "the job adopts the submitter's trace id");
    let done = client
        .wait_for_job(&job.id, Duration::from_secs(60))
        .unwrap();
    fair_ranking::core::fault::install(fair_ranking::core::fault::FaultPlan::none());
    assert_eq!(done.state, "completed", "error: {:?}", done.error);

    // The faulted fleet run still lands on the exact local trajectory.
    let local = local_cohort(SHARD_SIZE);
    let ranker = WeightedSumRanker::new(RUBRIC_WEIGHTS.to_vec()).unwrap();
    let reference = run_core_dca_sharded(
        &local,
        &ranker,
        &TopKDisparity::new(0.1),
        &config,
        None,
        false,
    )
    .unwrap();
    assert_eq!(
        bits(&done.result.as_ref().unwrap().bonus),
        bits(&reference.bonus),
        "a traced fleet job under faults is still bit-identical"
    );

    let records = obs::captured();
    let with_trace = |target: &str| {
        records
            .iter()
            .filter(|r| r.target == target && r.field("trace") == Some(&trace))
            .count()
    };
    assert!(with_trace("job.submit") >= 1, "accept event traced");
    assert!(
        with_trace("job.step") >= config.learning_rates.len() * config.iterations_per_rate,
        "every descent step event traced"
    );
    assert!(
        with_trace("job.state") >= 2,
        "queued/running/terminal traced"
    );
    assert!(
        with_trace("fleet.fan_out") >= 1,
        "fan-out rounds reuse the job's id instead of minting per round"
    );
    assert!(with_trace("fleet.retry") >= 1, "retries stay correlated");
    let worker_partials = records
        .iter()
        .filter(|r| {
            r.target == "serve.request"
                && r.field("trace") == Some(&trace)
                && r.field("path").is_some_and(|p| p.ends_with("/partials"))
        })
        .count();
    assert!(
        worker_partials >= 2,
        "worker handler spans (incl. the retried range) carry the job's id, \
         got {worker_partials}"
    );
    assert!(
        with_trace("serve.request") > worker_partials,
        "the front node's own request spans (submit, polls) share the id too"
    );

    front.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// The ranges of a fan-out round run concurrently, so the job records the
/// round's wire time once: its phases add up to no more than its running
/// time, within the bound `integration_serve` pins for local jobs.
#[test]
fn a_fleet_job_profile_counts_each_round_once() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (handles, addrs) = spawn_fleet(3, SHARD_SIZE);
    let (front, client) = spawn_front();
    let config = quick_config(31);
    let job = client.submit_job(&fleet_core_job(&addrs, &config)).unwrap();
    let done = client
        .wait_for_job(&job.id, Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.state, "completed", "error: {:?}", done.error);

    let profile = client.job_profile(&job.id).unwrap();
    let phases = profile.get("phases").unwrap();
    let total_ms = ["page_in", "decode", "score", "sample", "combine", "wire"]
        .iter()
        .map(|name| {
            phases
                .get(name)
                .and_then(|p| p.get("total_us"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("phase `{name}` missing: {}", profile.render()))
        })
        .sum::<f64>()
        / 1_000.0;
    let running_ms = profile.get("running_ms").unwrap().as_f64().unwrap();
    assert!(
        total_ms <= running_ms * 1.05 + 4.0,
        "attributed {total_ms:.1} ms vs wall-clock {running_ms:.1} ms"
    );
    println!(
        "fleet Core job: {total_ms:.1} of {running_ms:.1} ms attributed ({:.1}%)",
        100.0 * total_ms / running_ms
    );
    front.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn a_500_burst_ejects_then_probes_readmit_the_worker() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (handles, addrs) = spawn_fleet(3, SHARD_SIZE);
    let timed: Vec<_> = addrs
        .iter()
        .map(|addr| {
            obs::histogram(
                "fair_fleet_request_duration_us",
                &[("worker", &addr.to_string())],
            )
        })
        .collect();
    let timed_before: Vec<u64> = timed.iter().map(|h| h.count()).collect();
    let fleet = FleetCoordinator::connect(
        "cohort",
        &addrs,
        FleetConfig {
            max_attempts: 1, // any failure fails over immediately
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(10),
            eject_after: 1,
            probe_every: 1, // probe ejected workers every round
            ..FleetConfig::default()
        },
    )
    .unwrap();

    // Two injections: with `max_attempts: 1` each 500 fails a range over to
    // the next candidate, but no single range can exhaust all three workers.
    fair_ranking::core::fault::install(
        fair_ranking::core::fault::FaultPlan::parse("serve@partials:500:2").unwrap(),
    );
    let k = 0.1;
    let config = quick_config(7);
    let outcome = fleet
        .run_core_dca(k, Some(&RUBRIC_WEIGHTS), &config, None, false)
        .unwrap();
    fair_ranking::core::fault::install(fair_ranking::core::fault::FaultPlan::none());

    let local = local_cohort(SHARD_SIZE);
    let ranker = WeightedSumRanker::new(RUBRIC_WEIGHTS.to_vec()).unwrap();
    let reference = run_core_dca_sharded(
        &local,
        &ranker,
        &TopKDisparity::new(k),
        &config,
        None,
        false,
    )
    .unwrap();
    assert_eq!(bits(&outcome.bonus), bits(&reference.bonus));

    let report = fleet.report();
    assert!(report.ejections >= 1, "a 500 burst must eject: {report:?}");
    assert!(
        report.re_dispatches >= 1,
        "ejected ranges must fail over: {report:?}"
    );
    assert!(
        fleet.workers().iter().all(|w| w.healthy),
        "probes must re-admit once the burst passes: {:?}",
        fleet.workers()
    );
    // Every request the coordinator counted — connect lookups, fan-out
    // attempts and the health probes that re-admitted the worker — is timed
    // into its worker's latency histogram.
    let timed_requests: u64 = timed
        .iter()
        .zip(&timed_before)
        .map(|(h, before)| h.count() - before)
        .sum();
    assert_eq!(timed_requests, report.requests, "{report:?}");
    for h in handles {
        h.shutdown();
    }
}

/// The `stores` and `schema` lookups a coordinator makes while connecting
/// are requests like any fan-out attempt: counted in `FleetReport::requests`
/// and `fair_fleet_requests_total`, timed into the worker's
/// `fair_fleet_request_duration_us{worker}`, and sent under one trace id —
/// a fleet job's own, so its descent is traced from the connect on.
#[test]
fn connect_lookups_are_traced_timed_and_counted() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _capture = obs::capture();
    let base = obs::captured().len();
    let (handles, addrs) = spawn_fleet(2, SHARD_SIZE);
    let total = obs::counter("fair_fleet_requests_total", &[]);
    let timed = |w: usize| {
        obs::histogram(
            "fair_fleet_request_duration_us",
            &[("worker", &addrs[w].to_string())],
        )
    };
    let (total_before, timed_before) = (total.get(), [timed(0).count(), timed(1).count()]);

    // The first worker answers both lookups; the second is asked for its
    // stores, to check that it lists the cohort in the same shape.
    let fleet = FleetCoordinator::connect("cohort", &addrs, FleetConfig::default()).unwrap();
    assert_eq!(fleet.report().requests, 3, "{:?}", fleet.report());
    assert_eq!(total.get() - total_before, 3, "registry series");
    assert_eq!(
        timed(0).count() - timed_before[0],
        2,
        "worker latency histogram"
    );
    assert_eq!(timed(1).count() - timed_before[1], 1, "the second worker's");
    let records = obs::captured().split_off(base);
    let lookup_trace = |path: &str| {
        records
            .iter()
            .find(|r| {
                r.target == "serve.request"
                    && r.field("method") == Some("GET")
                    && r.field("path") == Some(path)
            })
            .and_then(|r| r.field("trace"))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no worker span for GET {path}"))
    };
    assert_eq!(
        lookup_trace("/stores"),
        lookup_trace("/stores/cohort/schema"),
        "an untraced connect sends both lookups under one minted id"
    );

    // A fleet job connects under the submitting request's trace id.
    let front = serve(AuditService::new(), "127.0.0.1:0", 2).unwrap();
    let trace = obs::next_trace_id();
    let client = Client::new(front.addr()).with_trace(&trace);
    client
        .register_synthetic("cohort", "school", ROWS, SEED, SHARD_SIZE)
        .unwrap();
    let config = quick_config(5);
    let job = client.submit_job(&fleet_core_job(&addrs, &config)).unwrap();
    let done = client
        .wait_for_job(&job.id, Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.state, "completed", "error: {:?}", done.error);
    let traced: Vec<String> = obs::captured()
        .into_iter()
        .filter(|r| {
            r.target == "serve.request"
                && r.field("method") == Some("GET")
                && r.field("trace") == Some(&trace)
        })
        .filter_map(|r| r.field("path").map(str::to_string))
        .collect();
    for path in ["/stores", "/stores/cohort/schema"] {
        assert!(
            traced.iter().any(|p| p == path),
            "the job's connect sends GET {path} under its trace id: {traced:?}"
        );
    }

    front.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// Workers that list the store under the same name in different shapes
/// are refused at connect: sampling a range on the second would draw other
/// rows than the placement assumes.
#[test]
fn workers_serving_differently_shaped_stores_are_refused() {
    let workers: Vec<ServerHandle> = [ROWS, ROWS / 2]
        .into_iter()
        .map(|rows| {
            let server = serve(AuditService::new(), "127.0.0.1:0", 2).unwrap();
            Client::new(server.addr())
                .register_synthetic("cohort", "school", rows, SEED, SHARD_SIZE)
                .unwrap();
            server
        })
        .collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(ServerHandle::addr).collect();
    let err = FleetCoordinator::connect("cohort", &addrs, FleetConfig::default()).unwrap_err();
    let message = err.to_string();
    let shape = |rows: usize| {
        let shards = rows.div_ceil(SHARD_SIZE);
        format!("{rows} rows in {shards} shards of {SHARD_SIZE}")
    };
    for expected in [
        addrs[0].to_string(),
        addrs[1].to_string(),
        shape(ROWS),
        shape(ROWS / 2),
    ] {
        assert!(message.contains(&expected), "{expected:?} in {message}");
    }
    assert!(matches!(err, fair_ranking::serve::ServeError::Protocol(_)));
    for w in workers {
        w.shutdown();
    }
}

/// Cancelling a fleet job stops its descent at the next step boundary, as
/// for a local job: it ends `cancelled`, with no result, short of its last
/// step.
#[test]
fn a_cancelled_fleet_core_job_stops_mid_descent() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (handles, addrs) = spawn_fleet(3, SHARD_SIZE);
    let (front, client) = spawn_front();
    // 10,000 steps: enough that the cancellation lands mid-descent.
    let config = DcaConfig {
        iterations_per_rate: 5_000,
        ..quick_config(13)
    };
    let job = client.submit_job(&fleet_core_job(&addrs, &config)).unwrap();
    let start = Instant::now();
    loop {
        let view = client.job(&job.id).unwrap();
        assert!(!view.is_terminal(), "ended before the cancel: {view:?}");
        if view.step > 2 {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "the job never started stepping"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    client.cancel_job(&job.id).unwrap();
    let done = client
        .wait_for_job(&job.id, Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.state, "cancelled", "error: {:?}", done.error);
    assert!(done.result.is_none(), "{done:?}");
    assert!(
        done.step < done.total_steps,
        "stopped at step {} of {}",
        done.step,
        done.total_steps
    );
    front.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// When every worker fails a range, the job reports the wire error once:
/// the descent returns the engine error that wraps it, and no status that no
/// server answered appears in the message.
#[test]
fn a_fleet_job_whose_every_worker_fails_reports_the_wire_error() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (handles, addrs) = spawn_fleet(3, SHARD_SIZE);
    let (front, client) = spawn_front();
    // Every partial-reduce request answers 500, so the first step's ranges
    // exhaust every worker.
    fair_ranking::core::fault::install(
        fair_ranking::core::fault::FaultPlan::parse("serve@partials:500:1000").unwrap(),
    );
    let done = client
        .submit_job(&fleet_core_job(&addrs, &quick_config(17)))
        .and_then(|job| client.wait_for_job(&job.id, Duration::from_secs(60)));
    fair_ranking::core::fault::install(fair_ranking::core::fault::FaultPlan::none());
    let done = done.unwrap();
    assert_eq!(done.state, "failed", "{done:?}");
    assert!(done.result.is_none(), "{done:?}");
    let error = done.error.unwrap();
    assert!(error.contains("every worker failed"), "{error}");
    assert!(!error.contains("returned 422"), "{error}");
    front.shutdown();
    for h in handles {
        h.shutdown();
    }
}

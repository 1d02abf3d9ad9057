//! `e2ebench`: the repository's end-to-end benchmark.
//!
//! ```text
//! bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds a seeded COMPAS cohort (1M rows, 16 shards of 65,536 rows), writes
//! it as an FSS1 file, starts real `fair-serve` processes on ephemeral ports
//! and drives one workload over TCP from this process, with at most two
//! client threads. Every answer is compared bit for bit with the library run
//! in-process on an in-memory copy of the same cohort.
//!
//! Workloads (all closed loop):
//!
//! * `audit-paged`: two clients send five-metric audits, each under its own
//!   seeded bonus, to a server whose store cache holds a quarter of the
//!   cohort;
//! * `dca-paged`: one client runs Core DCA jobs one at a time (submit, then
//!   poll at a fixed interval) against the same paged store;
//! * `dca-resident`: the same jobs with the whole cohort in the cache (the
//!   control for store changes; runnable, but not among the workloads
//!   `BENCHMARK.json` gates, since on a 2-core VM its run-to-run spread is
//!   the widest of the four);
//! * `fleet-core`: the same jobs submitted to a coordinator that gathers
//!   each step's sample from two worker processes.
//!
//! With `--trace 0` one timed window runs after three set-ups, and the last
//! stdout line carries the end-to-end metrics. With `--trace 1` an untraced
//! window runs first, then a traced one (servers under `FAIR_LOG=json`, one
//! trace id per client operation), and the last line carries the per-layer
//! metrics. The spans go to `<out>/<workload>-seed<n>/spans.jsonl`.

mod cohort;
mod drive;
mod probes;
mod procs;
mod spans;
mod stats;

use cohort::{trace_id, Cohort, BONUS_POOL, K, PROBE_OPS, SAMPLE, TRACED_OPS};
use drive::{client_for, deploy, drive, verify_jobs, Ctx, Deployment, Window, Workload};
use fair_core::obs::Phase;
use fair_serve::Json;
use probes::{probe_layers, probe_serve, Probes, ServeProbe};
use spans::Tracer;
use stats::{mean, median, quantile, ratio, Prom};
use std::path::PathBuf;
use std::time::Instant;

/// Catalog name of the cohort on every server.
pub const STORE: &str = "cohort";
/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: usize,
    shard_rows: usize,
    steps: Option<usize>,
    out: PathBuf,
}

const USAGE: &str = "usage: e2ebench --workload <audit-paged|dca-paged|dca-resident|fleet-core> \
    [--seed N] [--seconds S] [--trace 0|1] [--rows N] [--shard-rows N] [--steps N] [--out DIR]";

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Self {
            workload: Workload::AuditPaged,
            seed: 1,
            seconds: 10.0,
            trace: false,
            rows: 1 << 20,
            shard_rows: 1 << 16,
            steps: None,
            out: PathBuf::from(".bench_out"),
        };
        let mut workload = None;
        let argv: Vec<String> = std::env::args().skip(1).collect();
        for pair in argv.chunks(2) {
            let [flag, value] = pair else {
                return Err(format!("`{}` needs a value", pair[0]));
            };
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                "--rows" => args.rows = value.parse().map_err(|_| bad())?,
                "--shard-rows" => args.shard_rows = value.parse().map_err(|_| bad())?,
                "--steps" => args.steps = Some(value.parse().map_err(|_| bad())?),
                "--out" => args.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        let seconds_ok = args.seconds.is_finite() && args.seconds > 0.0;
        if !seconds_ok || args.rows == 0 || args.shard_rows == 0 || args.steps == Some(0) {
            return Err("--seconds, --rows, --shard-rows and --steps must be positive".into());
        }
        Ok(args)
    }
}

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let server_bin = std::env::current_exe()
        .map_err(|e| format!("locating the binary: {e}"))?
        .with_file_name("fair-serve");
    if !server_bin.is_file() {
        return Err(format!("no server binary at {}", server_bin.display()));
    }
    let out_dir = args
        .out
        .join(format!("{}-seed{}", args.workload.name(), args.seed));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let out_dir = out_dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let cohort = Cohort::generate(args.seed, args.rows, args.shard_rows)?;
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        steps: args.steps.unwrap_or(args.workload.default_steps()),
        audit_oracle: if args.workload.is_dca() {
            Vec::new()
        } else {
            cohort.audit_oracle()?
        },
        cohort: &cohort,
        fss: out_dir.join("cohort.fss"),
        out_dir: out_dir.clone(),
        server_bin,
    };
    let result = if args.trace {
        traced_run(&ctx)
    } else {
        timed_run(&ctx)
    };
    let _ = std::fs::remove_file(&ctx.fss);
    result
}

/// The end-to-end figures of one window.
struct EndToEnd {
    setup_s: f64,
    op_p50_us: f64,
    op_p90_us: f64,
    ops_per_s: f64,
    cpu_us_per_op: f64,
    rss_mb: f64,
    samples: usize,
}

impl EndToEnd {
    fn of(window: &Window, setup_s: f64, rss_mb: f64) -> Self {
        Self {
            setup_s,
            op_p50_us: median(&window.op_us),
            op_p90_us: quantile(&window.op_us, 0.9),
            ops_per_s: window.ops as f64 / window.elapsed_s,
            cpu_us_per_op: ratio(window.cpu_us, window.ops as f64),
            rss_mb,
            samples: window.op_us.len(),
        }
    }

    fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            ("setup_s", "s", self.setup_s),
            ("op_p50_us", "us", self.op_p50_us),
            ("ops_per_s", "1/s", self.ops_per_s),
            ("server_cpu_us_per_op", "us", self.cpu_us_per_op),
            ("server_rss_mb", "MB", self.rss_mb),
        ]
    }
}

/// Three set-ups (each stopping the last), one untraced window.
fn timed_run(ctx: &Ctx) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let mut dep: Option<Deployment> = None;
    for _ in 0..SETUPS {
        drop(dep.take());
        let t = Instant::now();
        dep = Some(deploy(ctx, &Tracer::new(false), "setup")?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let dep = dep.expect("at least one set-up");
    let mut window = drive(ctx, &dep, &Tracer::new(false), 0)?;
    let rss_mb = dep.peak_rss_mb()?;
    let file_bytes = dep.file_bytes;
    drop(dep);
    verify_jobs(ctx, &mut window)?;

    let e2e = EndToEnd::of(&window, median(&setup_s), rss_mb);
    let mut record = environment(ctx, file_bytes, false);
    record.push(("setup_s_each", Json::num_arr(&setup_s)));
    record.extend(window_record(ctx, &window, &e2e));
    report(ctx, &record, &[&window])?;
    Ok(result_line(&[&window], &e2e.metrics()))
}

/// An untraced window, then a traced one with the per-layer probes.
fn traced_run(ctx: &Ctx) -> Result<String, String> {
    let dep = deploy(ctx, &Tracer::new(false), "plain")?;
    let mut plain = drive(ctx, &dep, &Tracer::new(false), 0)?;
    let plain_e2e = EndToEnd::of(&plain, 0.0, dep.peak_rss_mb()?);
    drop(dep);

    let tracer = Tracer::new(true);
    let dep = deploy(ctx, &tracer, "traced")?;
    let before = scrape(ctx, &dep, &tracer, PROBE_OPS)?;
    let mut traced = drive(ctx, &dep, &tracer, TRACED_OPS)?;
    let after = scrape(ctx, &dep, &tracer, PROBE_OPS + 1)?;
    let trace = trace_id(ctx.seed, PROBE_OPS + 2);
    let stats = tracer
        .scoped("probe.stats", &trace, None, |_| {
            dep.store_servers()
                .iter()
                .map(|s| client_for(s.addr, &tracer, &trace).stats(STORE))
                .collect::<Result<Vec<Json>, _>>()
        })
        .map_err(|e| format!("stats: {e}"))?;
    let serve = probe_serve(ctx, &dep, &traced, &tracer)?;
    let traced_e2e = EndToEnd::of(&traced, 0.0, dep.peak_rss_mb()?);
    let logs: Vec<(String, PathBuf)> = dep
        .servers
        .iter()
        .map(|s| (s.role.clone(), s.log.clone()))
        .collect();
    let file_bytes = dep.file_bytes;
    drop(dep);

    verify_jobs(ctx, &mut plain)?;
    verify_jobs(ctx, &mut traced)?;
    let spans = tracer.finish(&logs, &ctx.out_dir.join("spans.jsonl"))?;
    for (_, path) in &logs {
        let _ = std::fs::remove_file(path);
    }
    let inproc = probe_layers(ctx)?;

    let layers = layer_metrics(
        ctx,
        &ProbeResults {
            traced: &traced,
            before: &before,
            after: &after,
            stats: &stats,
            serve: &serve,
            inproc: &inproc,
            file_bytes,
        },
    );
    let mut metrics: Vec<(&'static str, &'static str, f64)> = layers;
    metrics.push(("bench.untraced.op_p50_us", "us", plain_e2e.op_p50_us));
    metrics.push(("bench.traced.op_p50_us", "us", traced_e2e.op_p50_us));
    metrics.push(("bench.traced.ops_per_s", "1/s", traced_e2e.ops_per_s));
    metrics.push((
        "bench.trace_overhead",
        "ratio",
        ratio(traced_e2e.op_p50_us, plain_e2e.op_p50_us),
    ));
    metrics.push((
        "bench.spans.joined_share",
        "ratio",
        ratio(spans.joined as f64, spans.server_records as f64),
    ));

    let mut record = environment(ctx, file_bytes, true);
    record.push((
        "untraced",
        Json::Obj(owned(window_record(ctx, &plain, &plain_e2e))),
    ));
    record.push((
        "traced",
        Json::Obj(owned(window_record(ctx, &traced, &traced_e2e))),
    ));
    record.push((
        "spans",
        Json::obj(vec![
            ("client", Json::num(spans.client_spans as f64)),
            ("server", Json::num(spans.server_records as f64)),
            ("joined", Json::num(spans.joined as f64)),
            (
                "self_us",
                Json::Obj(
                    spans
                        .self_time
                        .iter()
                        .map(|(name, n, us)| {
                            (
                                name.clone(),
                                Json::obj(vec![
                                    ("count", Json::num(*n as f64)),
                                    ("self_us", Json::u64(*us)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]),
    ));
    report(ctx, &record, &[&plain, &traced])?;
    Ok(result_line(&[&plain, &traced], &metrics))
}

/// `/metrics` of every server, in deployment order.
struct Scrape(Vec<Prom>);

/// What the traced window and the probes after it measured.
struct ProbeResults<'a> {
    traced: &'a Window,
    before: &'a Scrape,
    after: &'a Scrape,
    stats: &'a [Json],
    serve: &'a ServeProbe,
    inproc: &'a Probes,
    file_bytes: u64,
}

/// Scrape every server's `/metrics` as client operation `op`.
fn scrape(ctx: &Ctx, dep: &Deployment, tracer: &Tracer, op: usize) -> Result<Scrape, String> {
    let trace = trace_id(ctx.seed, op);
    tracer.scoped("probe.scrape", &trace, None, |_| {
        dep.servers
            .iter()
            .map(|s| {
                client_for(s.addr, tracer, &trace)
                    .metrics_text()
                    .map(|t| Prom::parse(&t))
                    .map_err(|e| format!("{}: /metrics: {e}", s.role))
            })
            .collect::<Result<_, _>>()
            .map(Scrape)
    })
}

/// The server-side route the workload's clients mostly wait on, and the
/// index of the server that serves it.
fn main_route(workload: Workload) -> (&'static str, usize) {
    match workload {
        Workload::AuditPaged => ("POST /stores/{name}/metrics", 0),
        Workload::DcaPaged | Workload::DcaResident => ("GET /jobs/{id}", 0),
        Workload::FleetCore => ("POST /stores/{name}/partials", 1),
    }
}

fn layer_metrics(ctx: &Ctx, r: &ProbeResults) -> Vec<(&'static str, &'static str, f64)> {
    let w = r.traced;
    let ops = w.ops as f64;
    let steps: f64 = if ctx.workload.is_dca() { ops } else { 0.0 };
    let servers = r.after.0.len();
    let delta = |server: usize, key: &str| r.after.0[server].get(key) - r.before.0[server].get(key);
    // The store servers: the workers of a fleet, else the one server.
    let stores = if servers > 1 { 1..servers } else { 0..1 };
    let store_delta = |key: &str| stores.clone().map(|s| delta(s, key)).sum::<f64>();
    // Every request is one connection; each server's count includes the
    // `/metrics` scrape that opened the window.
    let connections: f64 = (0..servers)
        .map(|s| delta(s, "fair_serve_requests_total") - 1.0)
        .sum();

    let (route, route_server) = main_route(ctx.workload);
    let route_us = r.after.0[route_server].get(&format!(
        "fair_serve_request_duration_us_p50{{route=\"{route}\"}}"
    ));
    let polls: Vec<f64> = w
        .jobs
        .iter()
        .flat_map(|j| j.poll_us.iter().copied())
        .collect();
    let client_us = match ctx.workload {
        Workload::AuditPaged => median(&w.op_us),
        Workload::DcaPaged | Workload::DcaResident => median(&polls),
        Workload::FleetCore => r.serve.round_us,
    };
    let op_us = median(&w.op_us);

    let done: Vec<&drive::JobRun> = w.jobs.iter().filter(|j| j.bonus.is_some()).collect();
    let profiled: Vec<(&drive::JobRun, &Json)> = done
        .iter()
        .filter_map(|j| Some((*j, j.profile.as_ref()?)))
        .collect();
    let phase = |name: &str| -> f64 {
        profiled
            .iter()
            .filter_map(|(_, p)| p.get("phases")?.get(name)?.get("total_us")?.as_f64())
            .sum()
    };
    let profiled_steps: f64 = profiled.iter().map(|(j, _)| j.steps as f64).sum();
    let running_us: f64 = profiled.iter().map(|(j, _)| j.running_ms * 1e3).sum();
    let attributed: f64 = Phase::ALL.iter().map(|p| phase(p.name())).sum();
    let fleet_requests = delta(0, "fair_fleet_requests_total");
    let peak_over_budget = r
        .stats
        .iter()
        .filter_map(|s| {
            let cache = s.get("cache")?;
            Some(cache.get("peak_bytes")?.as_f64()? / cache.get("budget_bytes")?.as_f64()?)
        })
        .fold(0.0, f64::max);
    let p = r.inproc;

    vec![
        ("serve.http.connect_us", "us", r.serve.connect_us),
        ("serve.http.route_us", "us", route_us),
        ("serve.http.overhead_us", "us", client_us - route_us),
        (
            "serve.http.connect_share",
            "ratio",
            ratio(r.serve.connect_us * ratio(connections, ops), op_us),
        ),
        ("serve.json.render_us", "us", r.serve.json_render_us),
        ("serve.json.parse_us", "us", r.serve.json_parse_us),
        ("serve.json.bytes", "bytes", r.serve.json_bytes),
        (
            "serve.jobs.queued_ms",
            "ms",
            mean(&done.iter().map(|j| j.queued_ms).collect::<Vec<_>>()),
        ),
        (
            "serve.jobs.overhead_ms",
            "ms",
            median(
                &done
                    .iter()
                    .map(|j| j.client_us / 1e3 - j.running_ms)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "serve.jobs.polls",
            "count",
            mean(
                &done
                    .iter()
                    .map(|j| j.poll_us.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "serve.jobs.step_us",
            "us",
            r.after.0[0].get("fair_serve_job_step_duration_us_p50{kind=\"core\"}"),
        ),
        ("serve.fleet.round_us", "us", r.serve.round_us),
        (
            "serve.fleet.requests_per_step",
            "count",
            ratio(fleet_requests, steps),
        ),
        (
            "serve.fleet.retries",
            "count",
            delta(0, "fair_fleet_retries_total"),
        ),
        (
            "serve.fleet.sample_cache_hit_ratio",
            "ratio",
            ratio(
                delta(0, "fair_fleet_partials_cache_hits_total"),
                fleet_requests,
            ),
        ),
        (
            "serve.fleet.wire_share",
            "ratio",
            ratio(phase("wire"), running_us),
        ),
        ("store.read_shard_us", "us", p.read_shard_us),
        ("store.read_shard_mb_s", "MB/s", p.read_shard_mb_s),
        (
            "store.misses_per_op",
            "count",
            ratio(store_delta("fair_store_cache_misses_total"), ops),
        ),
        (
            "store.hit_ratio",
            "ratio",
            ratio(
                store_delta("fair_store_cache_hits_total"),
                store_delta("fair_store_cache_hits_total")
                    + store_delta("fair_store_cache_misses_total"),
            ),
        ),
        (
            "store.evictions_per_op",
            "count",
            ratio(store_delta("fair_store_cache_evictions_total"), ops),
        ),
        (
            "store.prefetch_hits_per_op",
            "count",
            ratio(store_delta("fair_store_prefetch_hits_total"), ops),
        ),
        (
            "store.prefetch_wasted_per_op",
            "count",
            ratio(store_delta("fair_store_prefetch_wasted_total"), ops),
        ),
        (
            "store.page_in_ms_per_step",
            "ms",
            ratio(phase("page_in") / 1e3, profiled_steps),
        ),
        (
            "store.decode_ms_per_step",
            "ms",
            ratio(phase("decode") / 1e3, profiled_steps),
        ),
        ("store.peak_over_budget", "ratio", peak_over_budget),
        (
            "store.bytes_per_row",
            "bytes",
            r.file_bytes as f64 / ctx.cohort.memory.len() as f64,
        ),
        ("core.metrics.plan_ms", "ms", p.plan_ms),
        ("core.dca.step_us.paged", "us", p.dca_step_us_paged),
        ("core.dca.step_us.resident", "us", p.dca_step_us_resident),
        (
            "core.dca.score_us_per_step",
            "us",
            ratio(phase("score"), profiled_steps),
        ),
        (
            "core.dca.sample_us_per_step",
            "us",
            ratio(phase("sample"), profiled_steps),
        ),
        (
            "core.dca.unattributed_share",
            "ratio",
            ratio(running_us - attributed, running_us),
        ),
        ("core.shard.draw_us", "us", p.draw_us),
        ("core.shard.shards_per_step", "count", p.shards_per_step),
        ("core.kernel.objects_per_s", "1/s", p.kernel_objects_per_s),
    ]
}

/// The settings every result is recorded with.
fn environment(ctx: &Ctx, file_bytes: u64, trace: bool) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("workload", Json::str(ctx.workload.name())),
        ("seed", Json::u64(ctx.seed)),
        ("seconds", Json::num(ctx.seconds)),
        ("trace", Json::Bool(trace)),
        ("git_commit", Json::str(git_commit())),
        ("nproc", Json::num(nproc as f64)),
        ("fair_threads", Json::num(drive::SERVER_THREADS as f64)),
        ("server_workers", Json::num(drive::SERVER_THREADS as f64)),
        (
            "client_threads",
            Json::num(if ctx.workload.is_dca() {
                1.0
            } else {
                drive::AUDIT_CLIENTS as f64
            }),
        ),
        ("cache_budget_bytes", Json::num(ctx.budget() as f64)),
        ("rows", Json::num(ctx.cohort.memory.len() as f64)),
        ("shards", Json::num(ctx.cohort.memory.num_shards() as f64)),
        (
            "shard_rows",
            Json::num(ctx.cohort.memory.shard_size() as f64),
        ),
        ("column_bytes", Json::num(ctx.cohort.column_bytes() as f64)),
        ("file_bytes", Json::u64(file_bytes)),
        ("k", Json::num(K)),
        ("bonus_pool", Json::num(BONUS_POOL as f64)),
        ("dca_sample", Json::num(SAMPLE as f64)),
        ("dca_steps_per_job", Json::num(ctx.steps as f64)),
        ("poll_ms", Json::num(drive::POLL.as_secs_f64() * 1e3)),
    ]
}

/// One window's figures, under the names a reader of the paper looks for.
fn window_record(ctx: &Ctx, w: &Window, e2e: &EndToEnd) -> Vec<(&'static str, Json)> {
    let mut out = vec![
        ("attempted", Json::num(w.attempted as f64)),
        ("failed", Json::num(w.failures.len() as f64)),
        (
            "error_rate",
            Json::num(ratio(w.failures.len() as f64, w.attempted as f64)),
        ),
        ("ops", Json::num(w.ops as f64)),
        ("elapsed_s", Json::num(w.elapsed_s)),
        ("percentile_samples", Json::num(e2e.samples as f64)),
        // Reported, not gated: the DCA windows hold far fewer than the 100
        // samples a 90th percentile needs.
        ("op_p90_us", Json::num(e2e.op_p90_us)),
        ("op_us", Json::num_arr(&w.op_us)),
        (
            "end_to_end",
            Json::Obj(
                e2e.metrics()
                    .into_iter()
                    .map(|(n, _, v)| (n.to_string(), Json::num(v)))
                    .collect(),
            ),
        ),
    ];
    if ctx.workload.is_dca() {
        out.push(("jobs", Json::num(w.jobs.len() as f64)));
        out.push(("dca_step_us", Json::num(e2e.op_p50_us)));
        out.push((
            "first_jobs",
            Json::Arr(
                w.jobs
                    .iter()
                    .take(2)
                    .map(|j| {
                        let bits: Vec<String> = j
                            .bonus
                            .iter()
                            .flatten()
                            .map(|b| format!("{:016x}", b.to_bits()))
                            .collect();
                        Json::obj(vec![
                            ("seed", Json::u64(j.seed)),
                            ("bonus_bits", Json::str_arr(&bits)),
                        ])
                    })
                    .collect(),
            ),
        ));
    } else {
        out.push(("audit_rps", Json::num(e2e.ops_per_s)));
        out.push(("audit_p50_ms", Json::num(e2e.op_p50_us / 1e3)));
        out.push(("audit_p90_ms", Json::num(e2e.op_p90_us / 1e3)));
    }
    out
}

fn owned(pairs: Vec<(&'static str, Json)>) -> Vec<(String, Json)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Print the record (and the first failures) ahead of the result line, and
/// keep a copy beside the spans.
fn report(ctx: &Ctx, record: &[(&'static str, Json)], windows: &[&Window]) -> Result<(), String> {
    for failure in windows.iter().flat_map(|w| &w.failures).take(10) {
        eprintln!("e2ebench: failure: {failure}");
    }
    let text = Json::Obj(owned(record.to_vec())).render();
    println!("record {text}");
    let path = ctx.out_dir.join("record.json");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The contract's last line.
fn result_line(windows: &[&Window], metrics: &[(&'static str, &'static str, f64)]) -> String {
    let attempted: usize = windows.iter().map(|w| w.attempted).sum();
    let failed: usize = windows.iter().map(|w| w.failures.len()).sum();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::num(attempted as f64)),
        ("failed".into(), Json::num(failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, unit, value)| {
                        (
                            name.to_string(),
                            Json::obj(vec![
                                (
                                    "value",
                                    Json::num(if value.is_finite() { *value } else { 0.0 }),
                                ),
                                ("unit", Json::str(*unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// The checked-out commit, read from `.git` when the run starts inside a
/// clone.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

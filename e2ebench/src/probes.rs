//! Per-layer probes: on the live servers after the traced window, and
//! in-process after the servers have stopped, so they do not compete for
//! the cores.

use crate::cohort::{dca_config, trace_id, K, PROBE_OPS, SAMPLE};
use crate::drive::{client_for, Ctx, Deployment, Window, Workload};
use crate::spans::Tracer;
use crate::stats::{median, mix};
use crate::STORE;
use fair_core::dca::{run_core_dca_sharded_controlled, RunControl, TopKDisparity};
use fair_core::kernel::gathered_linear_scores_into;
use fair_core::metrics::sharded::{MetricKind, MetricPlan};
use fair_core::ShardSource;
use fair_serve::Json;
use fair_store::{column_bytes, ShardStore, DEFAULT_PREFETCH};
use std::hint::black_box;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const PROBE_STREAM: u64 = 5;
const HEALTH_ROUNDS: usize = 50;
const SAMPLE_ROUNDS: usize = 20;
const JSON_REPS: usize = 200;
const BATCHES: usize = 5;
const READ_SHARDS: usize = 8;
const PLAN_ROUNDS: usize = 3;
const PAGED_PROBE_STEPS: usize = 8;
const RESIDENT_PROBE_STEPS: usize = 500;
const DRAWS: usize = 200;
const KERNEL_REPS: usize = 2000;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Median per-call µs of `f` over [`BATCHES`] batches of `reps` calls.
fn per_call_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            us_since(t) / reps as f64
        })
        .collect();
    median(&batches)
}

/// What the live servers show after the traced window.
#[derive(Debug, Default)]
pub struct ServeProbe {
    pub connect_us: f64,
    pub round_us: f64,
    pub json_render_us: f64,
    pub json_parse_us: f64,
    pub json_bytes: f64,
}

/// Probe the live servers; each request is a traced client operation of
/// its own.
pub fn probe_serve(
    ctx: &Ctx,
    dep: &Deployment,
    traced: &Window,
    tracer: &Tracer,
) -> Result<ServeProbe, String> {
    // The scrapes and the stats request before these take the first ops.
    let mut op = PROBE_OPS + 2;
    let mut next_trace = || {
        op += 1;
        trace_id(ctx.seed, op)
    };
    let connect = (0..HEALTH_ROUNDS)
        .map(|_| {
            let trace = next_trace();
            let client = client_for(dep.main(), tracer, &trace);
            let t = Instant::now();
            tracer
                .scoped("probe.health", &trace, None, |_| client.health())
                .map_err(|e| format!("health: {e}"))?;
            Ok(us_since(t))
        })
        .collect::<Result<Vec<f64>, String>>()?;

    // One worker's share of a fleet step: the sample rows of half the
    // shards, under fresh seeds so no cache answers.
    let worker = dep.store_servers()[0].addr;
    let shards = ctx.cohort.memory.num_shards();
    let range = 0..shards.div_ceil(2);
    let rounds = (0..SAMPLE_ROUNDS)
        .map(|i| {
            let seed = mix(ctx.seed, PROBE_STREAM, i as u64) >> 11;
            let trace = next_trace();
            let client = client_for(worker, tracer, &trace);
            let t = Instant::now();
            tracer
                .scoped("probe.core_sample", &trace, None, |_| {
                    client.core_sample(STORE, seed, SAMPLE, range.clone())
                })
                .map_err(|e| format!("core_sample: {e}"))?;
            Ok(us_since(t))
        })
        .collect::<Result<Vec<f64>, String>>()?;

    // A body of the workload's main route, captured off the wire.
    let trace = next_trace();
    let capture = tracer.open("probe.capture", &trace, None);
    let body = match ctx.workload {
        Workload::AuditPaged => {
            let names: Vec<&str> = MetricKind::ALL.iter().map(|m| m.name()).collect();
            let body = Json::obj(vec![
                ("k", Json::num(K)),
                ("bonus", Json::num_arr(&ctx.cohort.bonuses[0])),
                ("metrics", Json::str_arr(&names)),
            ]);
            exchange(
                dep.main(),
                &trace,
                "POST",
                &format!("/stores/{STORE}/metrics"),
                &body.render(),
            )
        }
        Workload::DcaPaged | Workload::DcaResident => {
            let id = traced.jobs.last().map_or("job-1", |j| j.id.as_str());
            exchange(dep.main(), &trace, "GET", &format!("/jobs/{id}"), "")
        }
        Workload::FleetCore => {
            let body = Json::obj(vec![
                ("kind", Json::str("core_sample")),
                (
                    "seed",
                    Json::num((mix(ctx.seed, PROBE_STREAM, u64::MAX) >> 11) as f64),
                ),
                ("sample_size", Json::num(SAMPLE as f64)),
                (
                    "shards",
                    Json::Arr(vec![Json::num(0.0), Json::num(range.end as f64)]),
                ),
            ]);
            exchange(
                worker,
                &trace,
                "POST",
                &format!("/stores/{STORE}/partials"),
                &body.render(),
            )
        }
    };
    tracer.close(capture);
    let body = body?;
    let parsed = Json::parse(&body).map_err(|e| format!("captured body: {e}"))?;
    Ok(ServeProbe {
        connect_us: median(&connect),
        round_us: median(&rounds),
        json_parse_us: per_call_us(JSON_REPS, || {
            black_box(Json::parse(black_box(&body)).ok());
        }),
        json_render_us: per_call_us(JSON_REPS, || {
            black_box(black_box(&parsed).render());
        }),
        json_bytes: body.len() as f64,
    })
}

/// One raw HTTP exchange, returning the response body as sent.
fn exchange(
    addr: SocketAddr,
    trace: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<String, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("{path}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nx-fair-trace: {trace}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    (&conn)
        .write_all(format!("{head}{body}").as_bytes())
        .map_err(|e| format!("{path}: {e}"))?;
    let (status, raw) =
        fair_serve::http::read_response(&conn).map_err(|e| format!("{path}: {e}"))?;
    if status >= 400 {
        return Err(format!("{method} {path} answered {status}"));
    }
    String::from_utf8(raw).map_err(|_| format!("{path}: non-UTF-8 body"))
}

/// The in-process layer probes.
#[derive(Debug, Default)]
pub struct Probes {
    pub read_shard_us: f64,
    pub read_shard_mb_s: f64,
    pub plan_ms: f64,
    pub dca_step_us_paged: f64,
    pub dca_step_us_resident: f64,
    pub draw_us: f64,
    pub shards_per_step: f64,
    pub kernel_objects_per_s: f64,
}

pub fn probe_layers(ctx: &Ctx) -> Result<Probes, String> {
    let cohort = ctx.cohort;
    let open = |budget: usize, prefetch: usize| {
        ShardStore::open_with_options(&ctx.fss, budget, prefetch)
            .map_err(|e| format!("open {}: {e}", ctx.fss.display()))
    };
    let mut p = Probes::default();

    // Store: page-in, CRC and decode of one shard from a cold store.
    let mut read_us = Vec::new();
    let mut read_rate = Vec::new();
    for i in 0..cohort.memory.num_shards().min(READ_SHARDS) {
        let store = open(cohort.resident_budget(), 0)?;
        let t = Instant::now();
        let shard = store
            .read_shard(i)
            .map_err(|e| format!("read_shard: {e}"))?;
        let us = us_since(t);
        read_us.push(us);
        read_rate.push(column_bytes(&shard) as f64 / us);
    }
    p.read_shard_us = median(&read_us);
    p.read_shard_mb_s = median(&read_rate);

    // Metrics: the five-metric plan over the workload's file and budget.
    let store = open(ctx.budget(), DEFAULT_PREFETCH)?;
    let plan = MetricPlan::new(&MetricKind::ALL, K);
    let ranker = cohort.ranker();
    let mut plan_ms = Vec::new();
    for round in 0..=PLAN_ROUNDS {
        let t = Instant::now();
        plan.evaluate(&store, &ranker, &cohort.bonuses[round])
            .map_err(|e| format!("plan: {e}"))?;
        if round > 0 {
            plan_ms.push(us_since(t) / 1e3);
        }
    }
    p.plan_ms = median(&plan_ms);
    drop(store);

    // Descent steps, paged and with the cohort resident.
    let seed = mix(ctx.seed, PROBE_STREAM, 1) >> 11;
    p.dca_step_us_paged = median(&step_us(
        &open(cohort.paged_budget(), DEFAULT_PREFETCH)?,
        ctx,
        seed,
        PAGED_PROBE_STEPS,
    )?);
    let resident = open(cohort.resident_budget(), DEFAULT_PREFETCH)?;
    for i in 0..resident.num_shards() {
        resident
            .read_shard(i)
            .map_err(|e| format!("read_shard: {e}"))?;
    }
    p.dca_step_us_resident = median(&step_us(&resident, ctx, seed, RESIDENT_PROBE_STEPS)?);
    drop(resident);

    // Shard sampler: one step's draw, and how many shards it touches.
    let mut indices = Vec::new();
    let mut draw_us = Vec::new();
    let mut shards_touched = Vec::new();
    for i in 0..DRAWS {
        let t = Instant::now();
        cohort
            .memory
            .sample_indices_into(
                mix(ctx.seed, PROBE_STREAM, 100 + i as u64),
                SAMPLE,
                &mut indices,
            )
            .map_err(|e| format!("sample: {e}"))?;
        draw_us.push(us_since(t));
        let mut shards: Vec<usize> = indices
            .iter()
            .map(|&g| g / cohort.memory.shard_size())
            .collect();
        shards.dedup();
        shards_touched.push(shards.len() as f64);
    }
    p.draw_us = median(&draw_us);
    p.shards_per_step = median(&shards_touched);

    // Kernel: scoring a gathered 500-row block, as a descent step does.
    let nf = cohort.memory.schema().num_features();
    let na = cohort.memory.schema().num_fairness();
    let features: Vec<f64> = indices
        .iter()
        .flat_map(|&g| cohort.memory.feature_row(g).iter().copied())
        .collect();
    let fairness: Vec<f64> = indices
        .iter()
        .flat_map(|&g| cohort.memory.fairness_row(g).iter().copied())
        .collect();
    let rows: Vec<usize> = (0..indices.len()).collect();
    let weights = vec![1.0; nf];
    let mut out = Vec::with_capacity(rows.len());
    let us = per_call_us(KERNEL_REPS, || {
        gathered_linear_scores_into(
            black_box(&features),
            nf,
            &weights,
            black_box(&fairness),
            na,
            &cohort.bonuses[0],
            &rows,
            &mut out,
        );
        black_box(&out);
    });
    p.kernel_objects_per_s = rows.len() as f64 / us * 1e6;
    Ok(p)
}

/// Per-step µs of an in-process Core DCA run, timed by the progress hook.
fn step_us<S: ShardSource>(
    store: &S,
    ctx: &Ctx,
    seed: u64,
    steps: usize,
) -> Result<Vec<f64>, String> {
    let marks = Arc::new(Mutex::new(Vec::with_capacity(steps)));
    let hook_marks = marks.clone();
    let control = RunControl::with_progress(move |_| {
        hook_marks
            .lock()
            .expect("step marks poisoned")
            .push(Instant::now());
    });
    let start = Instant::now();
    run_core_dca_sharded_controlled(
        store,
        &ctx.cohort.ranker(),
        &TopKDisparity::new(K),
        &dca_config(seed, steps),
        None,
        false,
        &control,
    )
    .map_err(|e| format!("in-process descent: {e}"))?;
    let marks = marks.lock().expect("step marks poisoned");
    Ok(std::iter::once(start)
        .chain(marks.iter().copied())
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
        .collect())
}

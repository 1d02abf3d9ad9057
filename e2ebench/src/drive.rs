//! Deployments of real `fair-serve` processes and the timed client loops
//! that drive them.

use crate::cohort::{check_audit, job_request, job_seed, trace_id, Cohort, BONUS_POOL, SETUP_OP};
use crate::procs::Server;
use crate::spans::{Tracer, COORDINATOR};
use crate::STORE;
use fair_core::metrics::sharded::MetricReport;
use fair_serve::{Client, JobRequest, Json};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// `FAIR_THREADS` and `--workers` of every server process.
pub const SERVER_THREADS: usize = 2;
/// Closed-loop audit clients (one connection each).
pub const AUDIT_CLIENTS: usize = 2;
/// Fixed job polling interval: short next to the shortest jobs (about
/// 200 ms), so the wait it adds is about 1% of a job.
pub const POLL: Duration = Duration::from_millis(5);
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// Steps of the job each DCA deployment runs while warming up.
const WARM_STEPS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AuditPaged,
    DcaPaged,
    DcaResident,
    FleetCore,
}

impl Workload {
    pub const ALL: [Self; 4] = [
        Self::AuditPaged,
        Self::DcaPaged,
        Self::DcaResident,
        Self::FleetCore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::AuditPaged => "audit-paged",
            Self::DcaPaged => "dca-paged",
            Self::DcaResident => "dca-resident",
            Self::FleetCore => "fleet-core",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Steps per job, set so a job lasts about a second paged and a few
    /// hundred milliseconds otherwise: long enough that submit and polling
    /// stay a small share of it, short enough for many jobs per run.
    pub fn default_steps(self) -> usize {
        match self {
            Self::AuditPaged => 0,
            Self::DcaPaged => 16,
            Self::DcaResident => 2000,
            Self::FleetCore => 200,
        }
    }

    /// Whether the store's cache holds a quarter of the cohort (otherwise
    /// all of it).
    pub fn paged(self) -> bool {
        matches!(self, Self::AuditPaged | Self::DcaPaged)
    }

    pub fn is_dca(self) -> bool {
        self != Self::AuditPaged
    }
}

/// Everything a run needs that does not change between its windows.
pub struct Ctx<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub steps: usize,
    pub cohort: &'a Cohort,
    pub audit_oracle: Vec<MetricReport>,
    pub fss: PathBuf,
    pub out_dir: PathBuf,
    pub server_bin: PathBuf,
}

impl Ctx<'_> {
    pub fn budget(&self) -> usize {
        if self.workload.paged() {
            self.cohort.paged_budget()
        } else {
            self.cohort.resident_budget()
        }
    }
}

/// The server processes of one deployment. `servers[0]` is the one the
/// client talks to; in the fleet it coordinates `servers[1..]`.
pub struct Deployment {
    pub servers: Vec<Server>,
    pub file_bytes: u64,
}

impl Deployment {
    pub fn main(&self) -> SocketAddr {
        self.servers[0].addr
    }

    /// The servers whose store caches do the work.
    pub fn store_servers(&self) -> &[Server] {
        if self.servers.len() > 1 {
            &self.servers[1..]
        } else {
            &self.servers
        }
    }

    pub fn workers(&self) -> Option<Vec<String>> {
        (self.servers.len() > 1).then(|| {
            self.servers[1..]
                .iter()
                .map(|s| s.addr.to_string())
                .collect()
        })
    }

    pub fn cpu_us(&self) -> Result<f64, String> {
        self.servers.iter().map(Server::cpu_us).sum()
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.servers.iter().map(Server::peak_rss_mb).sum()
    }
}

/// Set-up: write the FSS file, start the server process(es), register the
/// store on each and warm up. Servers log spans when `tracer` is on; `tag`
/// names their log files.
pub fn deploy(ctx: &Ctx, tracer: &Tracer, tag: &str) -> Result<Deployment, String> {
    // Synced, so no writeback of the file competes with the timed window.
    let summary = fair_store::write_source(&ctx.cohort.memory, &ctx.fss)
        .map_err(|e| e.to_string())
        .and_then(|s| {
            std::fs::File::open(&ctx.fss)
                .and_then(|f| f.sync_all())
                .map(|()| s)
                .map_err(|e| e.to_string())
        })
        .map_err(|e| format!("writing {}: {e}", ctx.fss.display()))?;
    let mut env = vec![
        ("FAIR_THREADS", SERVER_THREADS.to_string()),
        ("FAIR_CACHE_BYTES", ctx.budget().to_string()),
    ];
    if tracer.on() {
        env.push(("FAIR_LOG", "json".to_string()));
    }
    let roles: &[&str] = if ctx.workload == Workload::FleetCore {
        &[COORDINATOR, "worker1", "worker2"]
    } else {
        &["server"]
    };
    let servers = roles
        .iter()
        .map(|role| {
            let log = ctx.out_dir.join(format!("{tag}-{role}.log"));
            Server::start(&ctx.server_bin, role, SERVER_THREADS, &env, &log)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let dep = Deployment {
        servers,
        file_bytes: summary.file_bytes,
    };
    let trace = trace_id(ctx.seed, SETUP_OP);
    tracer.scoped("client.setup", &trace, None, |span| {
        let path = ctx.fss.to_str().ok_or("cohort path is not UTF-8")?;
        for server in &dep.servers {
            client_for(server.addr, tracer, &trace)
                .register_disk_store(STORE, path)
                .map_err(|e| format!("{}: register: {e}", server.role))?;
        }
        if !ctx.workload.paged() {
            // A stats request sweeps every shard into the cache.
            for server in dep.store_servers() {
                client_for(server.addr, tracer, &trace)
                    .stats(STORE)
                    .map_err(|e| format!("{}: warm-up: {e}", server.role))?;
            }
        }
        let client = client_for(dep.main(), tracer, &trace);
        if ctx.workload.is_dca() {
            let req = job_request(job_seed(ctx.seed, SETUP_OP), WARM_STEPS, dep.workers());
            let run = run_job(&client, &req, tracer, &trace, span);
            if let Some(e) = run.error {
                return Err(format!("warm-up job: {e}"));
            }
        } else {
            client
                .metrics(STORE, &ctx.cohort.audit_request(0))
                .map_err(|e| format!("warm-up audit: {e}"))?;
        }
        Ok(())
    })?;
    Ok(dep)
}

/// One DCA job as the client saw it.
#[derive(Debug, Default)]
pub struct JobRun {
    pub id: String,
    pub seed: u64,
    pub steps: usize,
    /// Submit to observed terminal state.
    pub client_us: f64,
    /// Round-trip µs of each status poll.
    pub poll_us: Vec<f64>,
    pub queued_ms: f64,
    pub running_ms: f64,
    pub bonus: Option<Vec<f64>>,
    pub error: Option<String>,
    /// `GET /jobs/{id}/profile`, fetched after the job when tracing.
    pub profile: Option<Json>,
}

/// Submit `req`, then poll at the fixed interval until the job is terminal.
fn run_job(
    client: &Client,
    req: &JobRequest,
    tracer: &Tracer,
    trace: &str,
    parent: Option<usize>,
) -> JobRun {
    let mut run = JobRun {
        seed: req.seed,
        ..JobRun::default()
    };
    let op = tracer.open("client.job", trace, parent);
    let start = Instant::now();
    let mut view = match tracer.scoped("client.submit", trace, op, |_| client.submit_job(req)) {
        Ok(view) => view,
        Err(e) => {
            tracer.close(op);
            run.error = Some(format!("submit: {e}"));
            return run;
        }
    };
    run.id = view.id.clone();
    while !view.is_terminal() {
        if start.elapsed() > JOB_TIMEOUT {
            let _ = client.cancel_job(&view.id);
            run.error = Some(format!("job {} timed out", view.id));
            break;
        }
        std::thread::sleep(POLL);
        let poll = Instant::now();
        match tracer.scoped("client.poll", trace, op, |_| client.job(&view.id)) {
            Ok(v) => view = v,
            Err(e) => {
                run.error = Some(format!("poll: {e}"));
                break;
            }
        }
        run.poll_us.push(poll.elapsed().as_secs_f64() * 1e6);
    }
    run.client_us = start.elapsed().as_secs_f64() * 1e6;
    tracer.close(op);
    run.queued_ms = view.queued_ms as f64;
    run.running_ms = view.running_ms as f64;
    match view.result {
        Some(result) if view.state == "completed" => {
            run.steps = result.steps;
            run.bonus = Some(result.bonus);
        }
        _ if run.error.is_none() => {
            run.error = Some(format!(
                "job {} ended {}: {}",
                view.id,
                view.state,
                view.error.unwrap_or_default()
            ));
        }
        _ => {}
    }
    if tracer.on() {
        run.profile = tracer
            .scoped("client.profile", trace, parent, |_| {
                client.job_profile(&view.id)
            })
            .ok();
    }
    run
}

/// One timed window of a workload.
#[derive(Debug, Default)]
pub struct Window {
    pub elapsed_s: f64,
    /// Completed operations: audits, or descent steps of completed jobs.
    pub ops: usize,
    /// Per-operation client time: audit latency, or job time ÷ steps.
    pub op_us: Vec<f64>,
    /// Audits or jobs attempted.
    pub attempted: usize,
    pub failures: Vec<String>,
    /// Server CPU over the window, summed over processes.
    pub cpu_us: f64,
    pub jobs: Vec<JobRun>,
}

/// Drive the workload closed-loop for `ctx.seconds`. Operation `j` of the
/// window uses inputs `base + j` of the seeded streams.
pub fn drive(ctx: &Ctx, dep: &Deployment, tracer: &Tracer, base: usize) -> Result<Window, String> {
    let cpu_before = dep.cpu_us()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut window = if ctx.workload.is_dca() {
        drive_jobs(ctx, dep, tracer, base, deadline)
    } else {
        drive_audits(ctx, dep, tracer, base, deadline)
    };
    window.elapsed_s = start.elapsed().as_secs_f64();
    window.cpu_us = dep.cpu_us()? - cpu_before;
    Ok(window)
}

/// A client that carries `trace` when tracing is on.
pub fn client_for(addr: SocketAddr, tracer: &Tracer, trace: &str) -> Client {
    let client = Client::new(addr).with_timeout(REQUEST_TIMEOUT);
    if tracer.on() {
        client.with_trace(trace)
    } else {
        client
    }
}

fn drive_audits(
    ctx: &Ctx,
    dep: &Deployment,
    tracer: &Tracer,
    base: usize,
    deadline: Instant,
) -> Window {
    let next = AtomicUsize::new(0);
    let results: Vec<(f64, Result<(), String>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..AUDIT_CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let trace = trace_id(ctx.seed, base + j);
                        let client = client_for(dep.main(), tracer, &trace);
                        let req = ctx.cohort.audit_request(base + j);
                        let t = Instant::now();
                        let got = tracer.scoped("client.audit", &trace, None, |_| {
                            client.metrics(STORE, &req)
                        });
                        let us = t.elapsed().as_secs_f64() * 1e6;
                        let verdict = got.map_err(|e| e.to_string()).and_then(|r| {
                            check_audit(&r, &ctx.audit_oracle[(base + j) % BONUS_POOL])
                        });
                        out.push((us, verdict));
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("audit client panicked"))
            .collect()
    });
    let mut window = Window {
        attempted: results.len(),
        ..Window::default()
    };
    for (us, verdict) in results {
        match verdict {
            Ok(()) => {
                window.ops += 1;
                window.op_us.push(us);
            }
            Err(e) => window.failures.push(format!("audit: {e}")),
        }
    }
    window
}

fn drive_jobs(
    ctx: &Ctx,
    dep: &Deployment,
    tracer: &Tracer,
    base: usize,
    deadline: Instant,
) -> Window {
    let workers = dep.workers();
    let mut window = Window::default();
    let mut j = base;
    while Instant::now() < deadline {
        let trace = trace_id(ctx.seed, j);
        let client = client_for(dep.main(), tracer, &trace);
        let req = job_request(job_seed(ctx.seed, j), ctx.steps, workers.clone());
        let run = run_job(&client, &req, tracer, &trace, None);
        window.attempted += 1;
        match &run.error {
            None if run.steps == ctx.steps => {
                window.ops += run.steps;
                window.op_us.push(run.client_us / run.steps as f64);
            }
            None => window
                .failures
                .push(format!("job ran {} of {} steps", run.steps, ctx.steps)),
            Some(e) => window.failures.push(e.clone()),
        }
        window.jobs.push(run);
        j += 1;
    }
    window
}

/// Check every completed job's bonus against the library's trajectory for
/// its seed, bit for bit, on two threads. Mismatches become failures.
pub fn verify_jobs(ctx: &Ctx, window: &mut Window) -> Result<(), String> {
    let done: Vec<&JobRun> = window.jobs.iter().filter(|r| r.bonus.is_some()).collect();
    let half = done.len().div_ceil(2).max(1);
    // Each oracle thread samples inline instead of spawning a worker pool
    // per step; the trajectory does not depend on the pool size. No other
    // thread of this process is running while the variable changes.
    let threads = std::env::var_os("FAIR_THREADS");
    std::env::set_var("FAIR_THREADS", "1");
    let verdicts: Vec<Result<Option<String>, String>> = std::thread::scope(|s| {
        let checkers: Vec<_> = done
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|run| {
                            let want = ctx.cohort.dca_oracle(run.seed, run.steps)?;
                            let bits =
                                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            let got = run.bonus.as_deref().unwrap_or_default();
                            Ok((bits(got) != bits(&want)).then(|| {
                                format!("job seed {} differs from the library trajectory", run.seed)
                            }))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        checkers
            .into_iter()
            .flat_map(|c| c.join().expect("oracle thread panicked"))
            .collect()
    });
    match threads {
        Some(v) => std::env::set_var("FAIR_THREADS", v),
        None => std::env::remove_var("FAIR_THREADS"),
    }
    for verdict in verdicts {
        window.failures.extend(verdict?);
    }
    Ok(())
}

//! Background DCA jobs: launch, observe, cancel.
//!
//! A metrics request costs milliseconds and is served synchronously; a DCA
//! descent over a large cohort costs seconds to minutes and must not occupy
//! a request worker. The [`JobManager`] runs each accepted job on its own
//! thread, wired to the engine through
//! [`fair_core::dca::RunControl`]: the progress hook streams step counts
//! into lock-free counters the status endpoint reads, and the cancellation
//! flag lets `DELETE /jobs/{id}` stop a descent at the next step boundary.
//!
//! A job pins its [`StoreEntry`] via `Arc`, so deregistering a store while a
//! job runs is safe — the cohort lives until the job releases it. An
//! uncancelled job produces the bit-identical trajectory of the
//! corresponding library call ([`fair_core::dca::run_full_dca_sharded`] /
//! [`fair_core::dca::run_core_dca_sharded`] with the same seed and config),
//! because the controlled runners execute the same loop.

use crate::catalog::StoreEntry;
use crate::error::ApiError;
use crate::fleet::{FleetConfig, FleetCoordinator};
use fair_core::dca::{
    run_core_dca_sharded_controlled, run_full_dca_sharded_controlled, step_duration_hook,
    CoreDcaOutcome, RunControl, TopKDisparity,
};
use fair_core::obs;
use fair_core::obs::{JobProfile, Phase};
use fair_core::ranking::WeightedSumRanker;
use fair_core::{DcaConfig, FairError, ShardSource};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Which DCA variant a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Full DCA: every step evaluates the whole cohort (sharded engine).
    Full,
    /// Core DCA: every step evaluates a per-shard stratified sample.
    Core,
}

impl JobKind {
    /// The wire-format string (`"full"` / `"core"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::Core => "core",
        }
    }

    /// Parse the wire-format string.
    ///
    /// # Errors
    /// `400` for anything but `"full"` or `"core"`.
    pub fn parse(s: &str) -> Result<Self, ApiError> {
        match s {
            "full" => Ok(Self::Full),
            "core" => Ok(Self::Core),
            other => Err(ApiError::bad_request(format!(
                "job kind must be `full` or `core`, got `{other}`"
            ))),
        }
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted, thread not yet past its prologue.
    Queued,
    /// Descent in progress.
    Running,
    /// Finished successfully; the result is available.
    Completed,
    /// The engine returned an error (or the job thread panicked).
    Failed,
    /// Stopped through [`JobManager::cancel`] before completing.
    Cancelled,
}

impl JobPhase {
    /// The wire-format string.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Completed => "completed",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
        }
    }

    /// Whether the job can no longer change state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Completed | Self::Failed | Self::Cancelled)
    }
}

/// A validated job submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Which DCA variant to run.
    pub kind: JobKind,
    /// Selection fraction of the disparity objective.
    pub k: f64,
    /// Ranker feature weights (`None` = uniform `1.0` per feature).
    pub weights: Option<Vec<f64>>,
    /// The descent configuration (seed, sample size, ladder, iterations).
    pub config: DcaConfig,
    /// Fleet worker addresses. `None` runs the descent locally against the
    /// registered store; `Some` drives it through a [`FleetCoordinator`]
    /// over these workers (each must serve the store under the same name),
    /// carrying the job's trace id into every fan-out round.
    pub workers: Option<Vec<SocketAddr>>,
}

/// The successful outcome of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Final (unrounded) bonus values.
    pub bonus: Vec<f64>,
    /// Descent steps executed.
    pub steps: usize,
    /// Objects scored across all steps.
    pub objects_scored: usize,
}

impl From<CoreDcaOutcome> for JobOutcome {
    fn from(o: CoreDcaOutcome) -> Self {
        Self {
            bonus: o.bonus,
            steps: o.steps,
            objects_scored: o.objects_scored,
        }
    }
}

#[derive(Debug)]
struct JobState {
    phase: JobPhase,
    result: Option<JobOutcome>,
    error: Option<String>,
    /// When the submission was accepted.
    submitted: Instant,
    /// When the job thread began the descent (`Running`).
    started: Option<Instant>,
    /// When the job reached a terminal phase.
    finished: Option<Instant>,
}

/// One background DCA run. All accessors take `&self`; the struct is shared
/// via `Arc` between the executing thread, the status endpoint, and the
/// cancellation endpoint.
pub struct Job {
    /// The job id (`job-1`, `job-2`, …).
    pub id: String,
    /// The catalog name of the audited store.
    pub store: String,
    /// The trace id every event and span of this job carries — the
    /// submitting request's `x-fair-trace` value (or a fresh mint), so the
    /// submit request, each descent step, fleet fan-out rounds, and
    /// worker-side handler spans all correlate under one id.
    pub trace: String,
    /// The submitted spec.
    pub spec: JobSpec,
    control: Arc<RunControl>,
    step: Arc<AtomicUsize>,
    total_steps: usize,
    profile: Arc<JobProfile>,
    state: Mutex<JobState>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("store", &self.store)
            .field("phase", &self.phase())
            .field("step", &self.step())
            .finish()
    }
}

impl Job {
    /// Current lifecycle phase.
    ///
    /// # Panics
    /// Panics if the state lock is poisoned.
    #[must_use]
    pub fn phase(&self) -> JobPhase {
        self.state.lock().expect("job state poisoned").phase
    }

    /// Steps completed so far (updated lock-free by the progress hook).
    #[must_use]
    pub fn step(&self) -> usize {
        self.step.load(Ordering::Relaxed)
    }

    /// Total steps the descent will execute.
    #[must_use]
    pub fn total_steps(&self) -> usize {
        self.total_steps
    }

    /// The job's phase profile: where this job's time went, accumulated by
    /// the [`PhaseScope`](fair_core::obs::PhaseScope) guards at the layer
    /// boundaries while the descent runs (installed on the job thread and
    /// carried into engine pool workers and fleet dispatch threads).
    #[must_use]
    pub fn profile(&self) -> &Arc<JobProfile> {
        &self.profile
    }

    /// The outcome, once [`JobPhase::Completed`].
    ///
    /// # Panics
    /// Panics if the state lock is poisoned.
    #[must_use]
    pub fn result(&self) -> Option<JobOutcome> {
        self.state
            .lock()
            .expect("job state poisoned")
            .result
            .clone()
    }

    /// The failure message, once [`JobPhase::Failed`].
    ///
    /// # Panics
    /// Panics if the state lock is poisoned.
    #[must_use]
    pub fn error(&self) -> Option<String> {
        self.state.lock().expect("job state poisoned").error.clone()
    }

    /// Phase, result, and error read under **one** lock acquisition — the
    /// consistent view the status endpoint renders. Reading them through
    /// the individual accessors can interleave with the job finishing and
    /// report `completed` with a `null` result.
    ///
    /// # Panics
    /// Panics if the state lock is poisoned.
    #[must_use]
    pub fn snapshot(&self) -> (JobPhase, Option<JobOutcome>, Option<String>) {
        let st = self.state.lock().expect("job state poisoned");
        (st.phase, st.result.clone(), st.error.clone())
    }

    /// `(queued_ms, running_ms)`: wall-clock milliseconds the job spent
    /// waiting for its thread's prologue and descending, both still ticking
    /// while the respective phase is current. Wall-clock lives here at the
    /// serve layer only — the descent itself never reads a clock.
    ///
    /// # Panics
    /// Panics if the state lock is poisoned.
    #[must_use]
    pub fn timings(&self) -> (u64, u64) {
        let st = self.state.lock().expect("job state poisoned");
        let now = Instant::now();
        let ms = |d: std::time::Duration| u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
        let queued_until = st.started.or(st.finished).unwrap_or(now);
        let queued = ms(queued_until.duration_since(st.submitted));
        let running = st
            .started
            .map_or(0, |s| ms(st.finished.unwrap_or(now).duration_since(s)));
        (queued, running)
    }
}

/// How many *terminal* job records the manager retains by default before
/// evicting the oldest — bounds the memory of a long-lived service that
/// serves jobs indefinitely. Running/queued jobs are never evicted.
pub const DEFAULT_JOB_HISTORY: usize = 512;

/// How many jobs may run *concurrently* by default. Every running job owns
/// an OS thread driving a descent that itself fans out onto the engine's
/// worker pool; without a ceiling a submission loop could pile up unbounded
/// descents until the box starves. Submissions beyond the cap get a `429`.
pub const DEFAULT_MAX_RUNNING_JOBS: usize = 16;

/// Best-effort text of a caught panic payload (shared by the job executor
/// and the request workers).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("panicked")
}

/// Launches, tracks, and reaps background jobs. Every submission first
/// joins the threads of already-finished jobs and evicts the oldest
/// terminal records beyond the history limit, so neither thread handles nor
/// job records grow without bound in a run-forever deployment.
pub struct JobManager {
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
    draining: AtomicBool,
    history_limit: usize,
    running_limit: usize,
}

impl Default for JobManager {
    fn default() -> Self {
        Self::with_limits(DEFAULT_JOB_HISTORY, DEFAULT_MAX_RUNNING_JOBS)
    }
}

impl std::fmt::Debug for JobManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobManager")
            .field("jobs", &self.len())
            .finish()
    }
}

impl JobManager {
    /// An empty manager with the default limits ([`DEFAULT_JOB_HISTORY`]
    /// retained terminal records, [`DEFAULT_MAX_RUNNING_JOBS`] concurrent
    /// runs).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty manager retaining up to `history_limit` terminal job
    /// records and admitting at most `running_limit` concurrently running
    /// jobs (running jobs are never evicted; `running_limit` is clamped to
    /// at least 1).
    #[must_use]
    pub fn with_limits(history_limit: usize, running_limit: usize) -> Self {
        Self {
            jobs: Mutex::new(BTreeMap::new()),
            handles: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            history_limit,
            running_limit: running_limit.max(1),
        }
    }

    /// Join the threads of finished jobs and evict the oldest terminal job
    /// records beyond the history limit. Called on every submission; cheap
    /// when there is nothing to reap.
    fn reap(&self) {
        let finished: Vec<JoinHandle<()>> = {
            let mut handles = self.handles.lock().expect("handle list poisoned");
            let mut keep = Vec::with_capacity(handles.len());
            let mut done = Vec::new();
            for handle in handles.drain(..) {
                if handle.is_finished() {
                    done.push(handle);
                } else {
                    keep.push(handle);
                }
            }
            *handles = keep;
            done
        };
        for handle in finished {
            let _ = handle.join();
        }

        let mut jobs = self.jobs.lock().expect("job map poisoned");
        if jobs.len() > self.history_limit {
            // Oldest first: ids are `job-N`, so order by the numeric suffix
            // (the map's string order would put `job-10` before `job-2`).
            let mut terminal: Vec<(u64, String)> = jobs
                .iter()
                .filter(|(_, job)| job.phase().is_terminal())
                .map(|(id, _)| {
                    let n = id
                        .strip_prefix("job-")
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or(u64::MAX);
                    (n, id.clone())
                })
                .collect();
            terminal.sort();
            let excess = jobs.len() - self.history_limit;
            for (_, id) in terminal.into_iter().take(excess) {
                jobs.remove(&id);
            }
        }
    }

    /// Number of jobs ever submitted (terminal ones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.lock().expect("job map poisoned").len()
    }

    /// Whether no job has been submitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validate `spec` against the store and launch the descent on its own
    /// thread. Returns the job immediately (phase `Queued` until the thread
    /// starts running). `trace` is the submitting request's trace id;
    /// `None` mints a fresh one — either way every event the job emits
    /// carries it.
    ///
    /// # Errors
    /// `400` for invalid selection fractions, weight dimensionality, or DCA
    /// configuration; `409` while the manager is shutting down.
    pub fn submit(
        &self,
        entry: Arc<StoreEntry>,
        spec: JobSpec,
        trace: Option<String>,
    ) -> Result<Arc<Job>, ApiError> {
        if self.draining.load(Ordering::Relaxed) {
            return Err(ApiError::conflict("the service is shutting down"));
        }
        self.reap();
        if !(spec.k > 0.0 && spec.k <= 1.0) {
            return Err(ApiError::bad_request(format!(
                "selection fraction k={} must lie in (0, 1]",
                spec.k
            )));
        }
        let num_features = entry.store.schema().num_features();
        if let Some(w) = &spec.weights {
            if w.len() != num_features {
                return Err(ApiError::bad_request(format!(
                    "{} ranker weights for a {}-feature schema",
                    w.len(),
                    num_features
                )));
            }
        }
        let dims = entry.store.schema().num_fairness();
        spec.config
            .validate(dims)
            .map_err(|e| ApiError::bad_request(format!("invalid DCA config: {e}")))?;
        if entry.store.is_empty() {
            return Err(ApiError::unprocessable(format!(
                "store `{}` is empty",
                entry.name
            )));
        }

        let id = format!("job-{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let trace = trace.unwrap_or_else(obs::next_trace_id);
        let profile = JobProfile::new();
        let step = Arc::new(AtomicUsize::new(0));
        let hook_step = step.clone();
        // One progress hook feeds every consumer: the lock-free step counter
        // the status endpoint reads, the per-step duration histogram, the
        // profile's step-boundary snapshot, and the per-step trace event
        // (timing lives in the hook, so the descent loop — and therefore the
        // trajectory — is identical to the uninstrumented library call).
        let step_timer = step_duration_hook(obs::histogram(
            "fair_serve_job_step_duration_us",
            &[("kind", spec.kind.as_str())],
        ));
        let hook_profile = profile.clone();
        let hook_trace = trace.clone();
        let hook_id = id.clone();
        let control = Arc::new(RunControl::with_progress(move |p| {
            hook_step.store(p.step, Ordering::Relaxed);
            step_timer(p);
            hook_profile.end_step(p.step);
            obs::Event::new("job.step")
                .trace(&hook_trace)
                .field("id", &hook_id)
                .field("step", p.step)
                .emit();
        }));
        let job = Arc::new(Job {
            id: id.clone(),
            store: entry.name.clone(),
            trace,
            total_steps: spec.config.core_steps(),
            spec,
            control,
            step,
            profile,
            state: Mutex::new(JobState {
                phase: JobPhase::Queued,
                result: None,
                error: None,
                submitted: Instant::now(),
                started: None,
                finished: None,
            }),
        });
        obs::counter(
            "fair_serve_jobs_submitted_total",
            &[("kind", job.spec.kind.as_str())],
        )
        .inc();
        obs::Event::new("job.submit")
            .trace(&job.trace)
            .field("id", &job.id)
            .field("store", &job.store)
            .field("kind", job.spec.kind.as_str())
            .field("total_steps", job.total_steps)
            .emit();

        // Registration + spawn + handle tracking happen under the handle
        // lock, with the draining flag re-checked inside it: `shutdown` sets
        // the flag *before* taking this lock, so a submission either lands
        // entirely before the shutdown's take (its thread is then cancelled
        // and joined like any other) or observes the flag and is rejected —
        // a job thread can never outlive `shutdown`.
        let mut handles = self.handles.lock().expect("handle list poisoned");
        if self.draining.load(Ordering::Relaxed) {
            return Err(ApiError::conflict("the service is shutting down"));
        }
        {
            let mut jobs = self.jobs.lock().expect("job map poisoned");
            let running = jobs.values().filter(|j| !j.phase().is_terminal()).count();
            if running >= self.running_limit {
                return Err(ApiError::too_many_jobs(format!(
                    "{running} jobs already running (limit {}); retry after one finishes \
                     or cancel one",
                    self.running_limit
                )));
            }
            jobs.insert(id, job.clone());
        }

        let worker_job = job.clone();
        let handle = match std::thread::Builder::new()
            .name(format!("fair-serve-{}", job.id))
            .spawn(move || execute(&worker_job, &entry))
        {
            Ok(handle) => handle,
            Err(e) => {
                // Deregister: an unspawned job would otherwise sit in the
                // map as `Queued` forever.
                self.jobs.lock().expect("job map poisoned").remove(&job.id);
                return Err(ApiError {
                    status: 500,
                    message: format!("cannot spawn job thread: {e}"),
                });
            }
        };
        handles.push(handle);
        Ok(job)
    }

    /// Look a job up by id.
    ///
    /// # Errors
    /// `404` for unknown ids.
    pub fn get(&self, id: &str) -> Result<Arc<Job>, ApiError> {
        self.jobs
            .lock()
            .expect("job map poisoned")
            .get(id)
            .cloned()
            .ok_or_else(|| ApiError::not_found(format!("no job `{id}`")))
    }

    /// All jobs, id-ordered.
    #[must_use]
    pub fn list(&self) -> Vec<Arc<Job>> {
        self.jobs
            .lock()
            .expect("job map poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Request cooperative cancellation: the descent stops at its next step
    /// boundary. Idempotent; cancelling a terminal job is a no-op.
    ///
    /// # Errors
    /// `404` for unknown ids.
    pub fn cancel(&self, id: &str) -> Result<Arc<Job>, ApiError> {
        let job = self.get(id)?;
        job.control.cancel();
        // Tagged with the *job's* trace id so the cancellation correlates
        // with the descent it stops, whichever connection requested it.
        obs::Event::new("job.cancel")
            .trace(&job.trace)
            .field("id", &job.id)
            .field("step", job.step())
            .emit();
        Ok(job)
    }

    /// Cancel every job and join every job thread. After this returns no job
    /// thread is alive; further submissions are rejected with `409`.
    pub fn shutdown(&self) {
        // Flag first, take the handle list second: a racing `submit` either
        // finished its critical section before our take (its handle is in
        // the list, its job in the map — cancelled and joined below) or
        // re-checks the flag under the lock and bails with 409.
        self.draining.store(true, Ordering::Relaxed);
        let handles = std::mem::take(&mut *self.handles.lock().expect("handle list poisoned"));
        for job in self.list() {
            job.control.cancel();
        }
        for handle in handles {
            // A job thread that panicked already recorded Failed via the
            // catch_unwind in `execute`; a join error here is unreachable,
            // but don't let shutdown panic regardless.
            let _ = handle.join();
        }
    }
}

/// The job thread body: run the configured descent under the job's control,
/// then record the terminal state. Panics inside the engine (e.g. an
/// infallible page-in hitting at-rest corruption) are caught and surfaced as
/// `Failed`.
fn execute(job: &Arc<Job>, entry: &Arc<StoreEntry>) {
    {
        let mut st = job.state.lock().expect("job state poisoned");
        if job.control.is_cancelled() {
            st.phase = JobPhase::Cancelled;
            st.finished = Some(Instant::now());
            record_terminal(job, JobPhase::Cancelled, None);
            return;
        }
        st.phase = JobPhase::Running;
        st.started = Some(Instant::now());
    }
    obs::Event::new("job.state")
        .trace(&job.trace)
        .field("id", &job.id)
        .field("state", JobPhase::Running.as_str())
        .emit();
    // Every PhaseScope the descent opens — on this thread, in engine pool
    // workers, in fleet dispatch threads — lands in this job's profile.
    // Installing a profile changes attribution only, never the trajectory.
    let _profile_guard = fair_core::obs::profile::install(job.profile.clone());
    let weights = job
        .spec
        .weights
        .clone()
        .unwrap_or_else(|| vec![1.0; entry.store.schema().num_features()]);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(addrs) = &job.spec.workers {
            return execute_fleet(job, addrs);
        }
        let ranker = WeightedSumRanker::new(weights)?;
        let objective = TopKDisparity::new(job.spec.k);
        let run = match job.spec.kind {
            JobKind::Full => run_full_dca_sharded_controlled,
            JobKind::Core => run_core_dca_sharded_controlled,
        };
        run(
            &entry.store,
            &ranker,
            &objective,
            &job.spec.config,
            None,
            false,
            &job.control,
        )
    }))
    .map(|run| run.map(JobOutcome::from));

    let phase = {
        let mut st = job.state.lock().expect("job state poisoned");
        match outcome {
            Ok(Ok(result)) => {
                st.phase = JobPhase::Completed;
                st.result = Some(result);
            }
            Ok(Err(FairError::Cancelled)) => {
                st.phase = JobPhase::Cancelled;
            }
            Ok(Err(e)) => {
                st.phase = JobPhase::Failed;
                st.error = Some(e.to_string());
            }
            Err(panic) => {
                st.phase = JobPhase::Failed;
                st.error = Some(panic_message(&*panic).to_string());
            }
        }
        st.finished = Some(Instant::now());
        st.phase
    };
    record_terminal(job, phase, job.error().as_deref());
}

/// Run the job's descent through a [`FleetCoordinator`] over `addrs`,
/// stamped with the job's trace id from the connect on — so the connect
/// lookups, every fan-out round and every worker-side handler span of the
/// whole descent correlate with the submitting request. Wire failures surface as engine errors; a descent the control
/// flag stopped stays a cancellation rather than a failure.
fn execute_fleet(job: &Arc<Job>, addrs: &[SocketAddr]) -> Result<CoreDcaOutcome, FairError> {
    let wire = |e: crate::error::ServeError| {
        if job.control.is_cancelled() {
            FairError::Cancelled
        } else {
            FairError::InvalidConfig {
                reason: format!("fleet descent failed: {e}"),
            }
        }
    };
    let fleet = FleetCoordinator::connect_traced(
        &job.store,
        addrs,
        FleetConfig::default(),
        Some(&job.trace),
    )
    .map_err(wire)?;
    let run = match job.spec.kind {
        JobKind::Full => FleetCoordinator::run_full_dca_controlled,
        JobKind::Core => FleetCoordinator::run_core_dca_controlled,
    };
    run(
        &fleet,
        job.spec.k,
        job.spec.weights.as_deref(),
        &job.spec.config,
        None,
        false,
        &job.control,
    )
    .map_err(wire)
}

/// Bump the terminal-state counter, flush the job's phase totals into the
/// `fair_profile_phase_ms` histogram family, and emit the lifecycle event
/// for a job reaching `phase`.
fn record_terminal(job: &Arc<Job>, phase: JobPhase, error: Option<&str>) {
    obs::counter(
        "fair_serve_jobs_finished_total",
        &[("state", phase.as_str())],
    )
    .inc();
    // One observation per phase per job: "how many ms did jobs spend in
    // phase X" as a fleet-wide distribution, complementing the per-job
    // exact breakdown at `GET /jobs/{id}/profile`.
    for (phase, stats) in Phase::ALL.iter().zip(job.profile.stats()) {
        if stats.count > 0 {
            obs::histogram("fair_profile_phase_ms", &[("phase", phase.name())])
                .record(stats.total_us / 1_000);
        }
    }
    let mut event = obs::Event::new("job.state")
        .trace(&job.trace)
        .field("id", &job.id)
        .field("state", phase.as_str())
        .field("steps", job.step());
    if let Some(error) = error {
        event = event.field("error", error);
    }
    event.emit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use fair_core::dca::run_full_dca_sharded;
    use fair_core::{DataObject, Schema, ShardedDataset};

    fn biased_cohort(n: u64) -> ShardedDataset {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..n)
            .map(|i| {
                let member = i % 3 == 0;
                let score = f64::from(u32::try_from((i * 37) % 512).unwrap()) / 4.0
                    - if member { 20.0 } else { 0.0 };
                DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
            })
            .collect();
        ShardedDataset::from_objects(schema, objects, 64).unwrap()
    }

    fn quick_config() -> DcaConfig {
        DcaConfig {
            sample_size: 60,
            learning_rates: vec![8.0, 1.0],
            iterations_per_rate: 10,
            refinement_iterations: 0,
            seed: 5,
            ..DcaConfig::default()
        }
    }

    fn wait_terminal(job: &Arc<Job>) -> JobPhase {
        for _ in 0..2000 {
            let phase = job.phase();
            if phase.is_terminal() {
                return phase;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("job {} never reached a terminal state", job.id);
    }

    #[test]
    fn full_job_completes_with_the_library_trajectory() {
        let catalog = Catalog::new(fair_store::DEFAULT_CACHE_BYTES);
        let entry = catalog
            .register_memory("cohort", biased_cohort(600))
            .unwrap();
        let manager = JobManager::new();
        let spec = JobSpec {
            kind: JobKind::Full,
            k: 0.2,
            weights: None,
            config: quick_config(),
            workers: None,
        };
        let job = manager.submit(entry.clone(), spec, None).unwrap();
        assert_eq!(job.id, "job-1");
        assert_eq!(wait_terminal(&job), JobPhase::Completed);
        assert_eq!(job.step(), job.total_steps());
        let result = job.result().unwrap();

        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let reference = run_full_dca_sharded(
            &entry.store,
            &ranker,
            &TopKDisparity::new(0.2),
            &quick_config(),
            None,
            false,
        )
        .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&result.bonus),
            bits(&reference.bonus),
            "job == library, bit for bit"
        );
        assert_eq!(result.steps, reference.steps);
        assert_eq!(result.objects_scored, reference.objects_scored);
        manager.shutdown();
    }

    #[test]
    fn core_job_is_seed_reproducible() {
        let catalog = Catalog::new(fair_store::DEFAULT_CACHE_BYTES);
        let entry = catalog
            .register_memory("cohort", biased_cohort(900))
            .unwrap();
        let manager = JobManager::new();
        let spec = JobSpec {
            kind: JobKind::Core,
            k: 0.2,
            weights: Some(vec![1.0]),
            config: quick_config(),
            workers: None,
        };
        let a = manager.submit(entry.clone(), spec.clone(), None).unwrap();
        let b = manager.submit(entry, spec, None).unwrap();
        assert_eq!(wait_terminal(&a), JobPhase::Completed);
        assert_eq!(wait_terminal(&b), JobPhase::Completed);
        assert_eq!(a.result().unwrap().bonus, b.result().unwrap().bonus);
        manager.shutdown();
    }

    #[test]
    fn timings_freeze_once_terminal() {
        let catalog = Catalog::new(fair_store::DEFAULT_CACHE_BYTES);
        let entry = catalog
            .register_memory("cohort", biased_cohort(300))
            .unwrap();
        let manager = JobManager::new();
        let job = manager
            .submit(
                entry,
                JobSpec {
                    kind: JobKind::Core,
                    k: 0.2,
                    weights: None,
                    config: quick_config(),
                    workers: None,
                },
                None,
            )
            .unwrap();
        assert_eq!(wait_terminal(&job), JobPhase::Completed);
        let first = job.timings();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            job.timings(),
            first,
            "terminal jobs stop accumulating wall-clock"
        );
        manager.shutdown();
    }

    #[test]
    fn submissions_are_validated() {
        let catalog = Catalog::new(fair_store::DEFAULT_CACHE_BYTES);
        let entry = catalog
            .register_memory("cohort", biased_cohort(100))
            .unwrap();
        let manager = JobManager::new();
        let base = JobSpec {
            kind: JobKind::Full,
            k: 0.2,
            weights: None,
            config: quick_config(),
            workers: None,
        };
        let mut bad_k = base.clone();
        bad_k.k = 1.5;
        assert_eq!(
            manager
                .submit(entry.clone(), bad_k, None)
                .unwrap_err()
                .status,
            400
        );
        let mut bad_w = base.clone();
        bad_w.weights = Some(vec![1.0, 2.0]);
        assert_eq!(
            manager
                .submit(entry.clone(), bad_w, None)
                .unwrap_err()
                .status,
            400
        );
        let mut bad_cfg = base.clone();
        bad_cfg.config.learning_rates = vec![];
        assert_eq!(
            manager
                .submit(entry.clone(), bad_cfg, None)
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(manager.get("job-99").unwrap_err().status, 404);
        assert_eq!(manager.cancel("job-99").unwrap_err().status, 404);
        assert!(manager.is_empty());
        manager.shutdown();
        assert_eq!(manager.submit(entry, base, None).unwrap_err().status, 409);
    }

    #[test]
    fn terminal_jobs_are_reaped_beyond_the_history_limit() {
        let catalog = Catalog::new(fair_store::DEFAULT_CACHE_BYTES);
        let entry = catalog
            .register_memory("cohort", biased_cohort(200))
            .unwrap();
        let manager = JobManager::with_limits(2, DEFAULT_MAX_RUNNING_JOBS);
        let quick = JobSpec {
            kind: JobKind::Core,
            k: 0.2,
            weights: None,
            config: DcaConfig {
                sample_size: 30,
                learning_rates: vec![1.0],
                iterations_per_rate: 1,
                refinement_iterations: 0,
                seed: 1,
                ..DcaConfig::default()
            },
            workers: None,
        };
        for _ in 0..4 {
            let job = manager.submit(entry.clone(), quick.clone(), None).unwrap();
            assert_eq!(wait_terminal(&job), JobPhase::Completed);
        }
        // The next submission reaps: at most 2 retained terminal records
        // plus the new job survive. The newest records win.
        let job5 = manager.submit(entry, quick, None).unwrap();
        let ids: Vec<String> = manager.list().iter().map(|j| j.id.clone()).collect();
        assert!(ids.len() <= 3, "{ids:?}");
        assert!(ids.contains(&job5.id));
        assert!(
            !ids.contains(&"job-1".to_string()),
            "oldest evicted: {ids:?}"
        );
        // Evicted ids are gone from lookup too.
        assert_eq!(manager.get("job-1").unwrap_err().status, 404);
        manager.shutdown();
    }

    #[test]
    fn running_job_ceiling_returns_429_until_a_slot_frees() {
        let catalog = Catalog::new(fair_store::DEFAULT_CACHE_BYTES);
        let entry = catalog
            .register_memory("cohort", biased_cohort(2000))
            .unwrap();
        let manager = JobManager::with_limits(DEFAULT_JOB_HISTORY, 1);
        let long = JobSpec {
            kind: JobKind::Full,
            k: 0.2,
            weights: None,
            config: DcaConfig {
                sample_size: 60,
                learning_rates: vec![4.0, 1.0],
                iterations_per_rate: 5_000,
                refinement_iterations: 0,
                seed: 5,
                ..DcaConfig::default()
            },
            workers: None,
        };
        let first = manager.submit(entry.clone(), long.clone(), None).unwrap();
        let rejected = manager
            .submit(entry.clone(), long.clone(), None)
            .unwrap_err();
        assert_eq!(rejected.status, 429, "{}", rejected.message);
        manager.cancel(&first.id).unwrap();
        assert!(wait_terminal(&first).is_terminal());
        // The slot is free again.
        let second = manager.submit(entry, long, None).unwrap();
        manager.cancel(&second.id).unwrap();
        assert!(wait_terminal(&second).is_terminal());
        manager.shutdown();
    }

    #[test]
    fn jobs_are_cancellable_mid_run_and_shutdown_reaps_everything() {
        let catalog = Catalog::new(fair_store::DEFAULT_CACHE_BYTES);
        let entry = catalog
            .register_memory("cohort", biased_cohort(2000))
            .unwrap();
        let manager = JobManager::new();
        // A long job: enough steps that cancellation lands mid-run.
        let spec = JobSpec {
            kind: JobKind::Full,
            k: 0.2,
            weights: None,
            config: DcaConfig {
                sample_size: 60,
                learning_rates: vec![4.0, 2.0, 1.0, 0.5],
                iterations_per_rate: 500,
                refinement_iterations: 0,
                seed: 5,
                ..DcaConfig::default()
            },
            workers: None,
        };
        let job = manager.submit(entry, spec, None).unwrap();
        // Let it make some progress, then cancel.
        for _ in 0..2000 {
            if job.step() > 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(job.step() > 2, "job never started stepping");
        manager.cancel(&job.id).unwrap();
        let phase = wait_terminal(&job);
        assert_eq!(phase, JobPhase::Cancelled);
        assert!(
            job.step() < job.total_steps(),
            "cancelled well before the end"
        );
        assert!(job.result().is_none());
        manager.shutdown();
        assert_eq!(manager.list().len(), 1);
    }
}

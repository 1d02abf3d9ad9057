//! The fleet coordinator: several audit servers acting as one DCA engine.
//!
//! A [`FleetCoordinator`] owns a [`PlacementMap`] assigning each worker a
//! contiguous shard range of one cohort, fans partial-reduce requests
//! (`POST /stores/{name}/partials`) out to the fleet, and combines the
//! per-shard partials in ascending shard order through
//! [`fair_core::dca::partial::combine_disparity_partials`] — so a fleet
//! descent is **bit-identical** to the local
//! [`run_full_dca_sharded`](fair_core::dca::run_full_dca_sharded) /
//! [`run_core_dca_sharded`](fair_core::dca::run_core_dca_sharded)
//! trajectory for the same seed, worker count and failures included.
//! A Core step gathers only the feature and fairness columns of its sample
//! (its linear ranker and disparity plan read no id and no label), and
//! every sweep and descent returns the engine's own [`fair_core::Result`]:
//! a range that exhausts the ladder below is one engine error that carries
//! the wire error.
//!
//! Robustness model, in order of escalation:
//!
//! 1. **Retry with jittered exponential backoff** ([`crate::backoff`]) up to
//!    [`FleetConfig::max_attempts`] per worker. Retrying is safe because
//!    both partial kinds are pure functions of the request — a duplicate
//!    execution returns byte-identical data, and the combiner rejects a
//!    shard supplied twice, so a retry can never double-count a range.
//! 2. **Ejection** after [`FleetConfig::eject_after`] consecutive failures:
//!    the worker drops out of the preferred-candidate rotation.
//! 3. **Re-dispatch**: a failed range is offered to the surviving workers
//!    (every worker holds the full store; the placement only splits work),
//!    degrading to a single-node fleet rather than failing the descent.
//! 4. **Re-admission**: ejected workers are health-probed every
//!    [`FleetConfig::probe_every`] fan-out rounds and rejoin on success.
//!
//! Deterministic 4xx rejections are *not* retried or re-dispatched — a
//! request every healthy node rejects is the caller's bug, not a fault. Nor
//! is a fleet whose workers list the store in different shapes (rows,
//! shards, shard size): connecting refuses it, since a range sampled on
//! such a worker would draw other rows.
//!
//! Every escalation is observable: the coordinator carries one trace id —
//! the caller's, via [`FleetCoordinator::connect_traced`], or one minted per
//! fan-out round when unset — and sends it to every worker via
//! `x-fair-trace` (so a retried range's server-side spans correlate with
//! the submitting request), counts each [`FleetReport`] counter once, as
//! its own child of a process-wide `fair_fleet_*` registry series (the
//! report reads the coordinator's counts, `/metrics` their sum over every
//! coordinator), times each worker's requests — the connect-time `stores`
//! and `schema` lookups included — into
//! `fair_fleet_request_duration_us{worker}`, and emits `fleet.retry` /
//! `fleet.redispatch` / `fleet.eject` / `fleet.readmit` events. When a
//! per-job profile is installed on the dispatching thread, every fan-out
//! round (its concurrent worker round trips and retry backoff) is
//! attributed to the [`Wire`](obs::Phase::Wire) phase and partial combining
//! to [`Combine`](obs::Phase::Combine).

use crate::backoff::Backoff;
use crate::catalog::PlacementMap;
use crate::client::{Client, StoreInfo};
use crate::error::{Result, ServeError};
use fair_core::dca::partial::{combine_disparity_partials, DisparityPartial};
use fair_core::dca::{
    run_core_dca_gathered, run_full_descent, CoreDcaOutcome, RunControl, TopKDisparity,
};
use fair_core::obs;
use fair_core::ranking::{selection_size, WeightedSumRanker};
use fair_core::{DcaConfig, FairError, ObjectId, ObjectView, Schema, SchemaRef};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Retry, timeout, and health-probing knobs for a [`FleetCoordinator`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-request socket deadline (connect, read, and write).
    pub request_timeout: Duration,
    /// Attempts per worker before a range moves to the next candidate.
    pub max_attempts: usize,
    /// First retry delay; doubles per failure (with equal jitter).
    pub backoff_base: Duration,
    /// Retry-delay ceiling.
    pub backoff_cap: Duration,
    /// Consecutive failures after which a worker is ejected.
    pub eject_after: u32,
    /// Fan-out rounds between health probes of an ejected worker.
    pub probe_every: usize,
    /// Extra TCP connect attempts inside each request (see
    /// [`Client::with_connect_retries`]).
    pub connect_retries: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            request_timeout: Duration::from_secs(10),
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            eject_after: 3,
            probe_every: 4,
            connect_retries: 1,
        }
    }
}

/// One worker as the coordinator tracks it.
#[derive(Debug)]
struct WorkerState {
    addr: SocketAddr,
    client: Client,
    healthy: bool,
    consecutive_failures: u32,
    rounds_since_eject: usize,
    /// Registry histogram of this worker's request latencies
    /// (`fair_fleet_request_duration_us{worker=addr}`), resolved at connect.
    duration: Arc<obs::Histogram>,
}

/// A public snapshot of one worker's health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatus {
    /// The worker's address.
    pub addr: SocketAddr,
    /// Whether the worker is in the dispatch rotation.
    pub healthy: bool,
    /// Consecutive failures since its last success.
    pub consecutive_failures: u32,
}

/// Cumulative coordinator counters (monotone since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetReport {
    /// Requests issued: connect lookups, partial-reduce requests and probes.
    pub requests: u64,
    /// Same-worker retries after a transient failure.
    pub retries: u64,
    /// Ranges served by a worker other than their placement owner.
    pub re_dispatches: u64,
    /// Workers ejected after consecutive failures.
    pub ejections: u64,
    /// Ejected workers re-admitted by a health probe.
    pub readmissions: u64,
}

/// A coordinator for one cohort served by a fleet of audit servers.
#[derive(Debug)]
pub struct FleetCoordinator {
    store: String,
    schema: SchemaRef,
    rows: usize,
    placement: PlacementMap,
    workers: Mutex<Vec<WorkerState>>,
    config: FleetConfig,
    /// The [`FleetReport`] counters: this coordinator's children of the
    /// `fair_fleet_*` series.
    requests: obs::Counter,
    retries: obs::Counter,
    re_dispatches: obs::Counter,
    ejections: obs::Counter,
    readmissions: obs::Counter,
    /// Trace id stamped on every fan-out round and worker request. `None`
    /// mints a fresh id per round; a coordinator driving a traced job holds
    /// the job's id here so one id spans the whole descent.
    trace: Option<String>,
}

/// Issue one request to a worker: counted in [`FleetReport::requests`] and
/// so in `fair_fleet_requests_total`, and timed into the worker's
/// `fair_fleet_request_duration_us{worker}` — the path every connect lookup,
/// health probe and fan-out attempt takes.
fn counted<T>(
    requests: &obs::Counter,
    duration: &obs::Histogram,
    op: impl FnOnce() -> Result<T>,
) -> Result<T> {
    requests.inc();
    let start = Instant::now();
    let outcome = op();
    duration.record(
        u64::try_from(start.elapsed().as_micros().min(u128::from(u64::MAX))).unwrap_or(u64::MAX),
    );
    outcome
}

impl FleetCoordinator {
    /// Connect to `addrs`, resolve `store`'s shape and schema from the first
    /// reachable worker, and split its shards evenly across the fleet.
    ///
    /// Every worker must serve the full store under the same name; the
    /// placement splits *work*, not data, which is what makes re-dispatch
    /// after a worker death possible. Every worker is asked for its stores
    /// (`GET /stores`), and one that lists `store` with other rows, shards
    /// or shard size is refused; a worker that does not answer is left to
    /// the fan-out's retries, as before.
    ///
    /// # Errors
    /// [`ServeError::Protocol`] when `addrs` is empty, no worker answers
    /// for `store`, or two workers list `store` in different shapes;
    /// schema/shape errors from the wire.
    pub fn connect(store: &str, addrs: &[SocketAddr], config: FleetConfig) -> Result<Self> {
        Self::connect_traced(store, addrs, config, None)
    }

    /// [`connect`](Self::connect) under `trace`: the `stores` and `schema`
    /// lookups carry it, and so do every later fan-out round and worker
    /// request, so a traced job's submit request, its descent steps and
    /// every worker-side handler span (retries and re-dispatches included)
    /// correlate under one id. `None` mints one id for the lookups and a
    /// fresh one per fan-out round.
    ///
    /// # Errors
    /// As [`connect`](Self::connect).
    pub fn connect_traced(
        store: &str,
        addrs: &[SocketAddr],
        config: FleetConfig,
        trace: Option<&str>,
    ) -> Result<Self> {
        if addrs.is_empty() {
            return Err(ServeError::Protocol(
                "a fleet needs at least one worker address".into(),
            ));
        }
        let workers: Vec<WorkerState> = addrs
            .iter()
            .map(|&addr| WorkerState {
                client: Client::new(addr)
                    .with_timeout(config.request_timeout)
                    .with_connect_retries(config.connect_retries),
                duration: obs::histogram(
                    "fair_fleet_request_duration_us",
                    &[("worker", &addr.to_string())],
                ),
                addr,
                healthy: true,
                consecutive_failures: 0,
                rounds_since_eject: 0,
            })
            .collect();
        let counter = |name| obs::Counter::child(obs::counter(name, &[]));
        let requests = counter("fair_fleet_requests_total");
        let lookup_trace = trace.map_or_else(obs::next_trace_id, str::to_string);
        // Every worker is asked for its stores; the first that lists `store`
        // and answers for its schema sets the shape.
        let mut listed = Vec::with_capacity(workers.len());
        let mut resolved = None;
        for w in &workers {
            let client = w.client.clone().with_trace(&lookup_trace);
            let info = counted(&requests, &w.duration, || client.stores())
                .ok()
                .and_then(|list| list.into_iter().find(|s| s.name == store));
            let Some(info) = info else { continue };
            if resolved.is_none() {
                let schema = counted(&requests, &w.duration, || client.schema(store));
                if let Ok((features, fairness)) = schema {
                    resolved = Some((w.addr, info.clone(), features, fairness));
                }
            }
            listed.push((w.addr, info));
        }
        let Some((first, info, features, fairness)) = resolved else {
            return Err(ServeError::Protocol(format!(
                "no reachable worker serves a store named `{store}`"
            )));
        };
        // A worker sampling a differently shaped cohort would answer for the
        // wrong rows, silently.
        let shape =
            |s: &StoreInfo| format!("{} rows in {} shards of {}", s.rows, s.shards, s.shard_size);
        if let Some((addr, other)) = listed.iter().find(|(_, s)| shape(s) != shape(&info)) {
            return Err(ServeError::Protocol(format!(
                "workers disagree on the shape of `{store}`: {first} serves {}, {addr} serves {}",
                shape(&info),
                shape(other)
            )));
        }
        let features: Vec<&str> = features.iter().map(String::as_str).collect();
        let fairness: Vec<&str> = fairness.iter().map(String::as_str).collect();
        let schema = Schema::from_names(&features, &fairness, &[])
            .map_err(|e| ServeError::Protocol(format!("worker reported invalid schema: {e}")))?;
        let placement = PlacementMap::even(info.shards, workers.len());
        Ok(Self {
            store: store.to_string(),
            schema,
            rows: info.rows,
            placement,
            workers: Mutex::new(workers),
            config,
            requests,
            retries: counter("fair_fleet_retries_total"),
            re_dispatches: counter("fair_fleet_re_dispatches_total"),
            ejections: counter("fair_fleet_ejections_total"),
            readmissions: counter("fair_fleet_readmissions_total"),
            trace: trace.map(str::to_string),
        })
    }

    /// The cohort name the fleet evaluates.
    #[must_use]
    pub fn store(&self) -> &str {
        &self.store
    }

    /// Total cohort rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The shard-range placement map.
    #[must_use]
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// A health snapshot of every worker.
    #[must_use]
    pub fn workers(&self) -> Vec<WorkerStatus> {
        self.workers
            .lock()
            .expect("fleet worker table poisoned")
            .iter()
            .map(|w| WorkerStatus {
                addr: w.addr,
                healthy: w.healthy,
                consecutive_failures: w.consecutive_failures,
            })
            .collect()
    }

    /// Cumulative request/retry/failover counters.
    #[must_use]
    pub fn report(&self) -> FleetReport {
        FleetReport {
            requests: self.requests.get(),
            retries: self.retries.get(),
            re_dispatches: self.re_dispatches.get(),
            ejections: self.ejections.get(),
            readmissions: self.readmissions.get(),
        }
    }

    /// The disparity vector at selection fraction `k` under `bonus`,
    /// computed by distributed partial-reduce — bit-identical to the local
    /// one-sweep evaluation.
    ///
    /// # Errors
    /// As [`run_full_dca`](Self::run_full_dca).
    pub fn disparity(
        &self,
        k: f64,
        bonus: &[f64],
        weights: Option<&[f64]>,
    ) -> fair_core::Result<Vec<f64>> {
        let count = selection_size(self.rows, k)?;
        let partials = self
            .collect_partials(bonus, weights, count)
            .map_err(wire_to_engine)?;
        let mut out = Vec::new();
        let _combine = fair_core::obs::profile::scope(obs::Phase::Combine);
        combine_disparity_partials(
            self.rows,
            self.schema.num_fairness(),
            count,
            &partials,
            &mut out,
        )?;
        Ok(out)
    }

    /// Run Full DCA across the fleet: every descent step fans one
    /// partial-reduce round out to the workers and combines the shards in
    /// order. Bit-identical to `run_full_dca_sharded` with the same
    /// arguments.
    ///
    /// # Errors
    /// The engine's errors, as the local runner returns them; a range that
    /// every worker failed is one [`FairError::InvalidConfig`] that carries
    /// the wire error.
    pub fn run_full_dca(
        &self,
        k: f64,
        weights: Option<&[f64]>,
        config: &DcaConfig,
        initial: Option<Vec<f64>>,
        trace: bool,
    ) -> fair_core::Result<CoreDcaOutcome> {
        self.run_full_dca_controlled(k, weights, config, initial, trace, &RunControl::new())
    }

    /// [`run_full_dca`](Self::run_full_dca) with caller-supplied
    /// cancellation and progress reporting — the variant the job manager
    /// drives, so a fleet-backed job is cancellable and step-profiled like
    /// a local one.
    ///
    /// # Errors
    /// As [`run_full_dca`](Self::run_full_dca).
    pub fn run_full_dca_controlled(
        &self,
        k: f64,
        weights: Option<&[f64]>,
        config: &DcaConfig,
        initial: Option<Vec<f64>>,
        trace: bool,
        control: &RunControl,
    ) -> fair_core::Result<CoreDcaOutcome> {
        let dims = self.schema.num_fairness();
        let count = selection_size(self.rows, k)?;
        run_full_descent(
            dims,
            self.rows,
            config,
            initial,
            trace,
            control,
            |bonus, out| {
                let partials = self
                    .collect_partials(bonus, weights, count)
                    .map_err(wire_to_engine)?;
                // Combining is the coordinator's own CPU slice of a fleet
                // step; the round trips themselves accrue as Wire inside
                // `fan_out`.
                let _combine = fair_core::obs::profile::scope(obs::Phase::Combine);
                combine_disparity_partials(self.rows, dims, count, &partials, out)
            },
        )
    }

    /// Run Core DCA across the fleet: every step's deterministic Bernoulli
    /// sample is gathered range-by-range from the workers and evaluated
    /// locally. Bit-identical to `run_core_dca_sharded` with the same
    /// arguments.
    ///
    /// # Errors
    /// As [`run_full_dca`](Self::run_full_dca).
    pub fn run_core_dca(
        &self,
        k: f64,
        weights: Option<&[f64]>,
        config: &DcaConfig,
        initial: Option<Vec<f64>>,
        trace: bool,
    ) -> fair_core::Result<CoreDcaOutcome> {
        self.run_core_dca_controlled(k, weights, config, initial, trace, &RunControl::new())
    }

    /// [`run_core_dca`](Self::run_core_dca) with caller-supplied
    /// cancellation and progress reporting.
    ///
    /// # Errors
    /// As [`run_full_dca`](Self::run_full_dca).
    pub fn run_core_dca_controlled(
        &self,
        k: f64,
        weights: Option<&[f64]>,
        config: &DcaConfig,
        initial: Option<Vec<f64>>,
        trace: bool,
        control: &RunControl,
    ) -> fair_core::Result<CoreDcaOutcome> {
        let nf = self.schema.num_features();
        let na = self.schema.num_fairness();
        let ranker =
            WeightedSumRanker::new(weights.map_or_else(|| vec![1.0; nf], <[f64]>::to_vec))?;
        let objective = TopKDisparity::new(k);
        run_core_dca_gathered(
            &self.schema,
            self.rows,
            &ranker,
            &objective,
            config,
            initial,
            trace,
            control,
            |step_seed, gather| {
                let samples = self
                    .fan_out(|client, range| {
                        client.core_sample(&self.store, step_seed, config.sample_size, range)
                    })
                    .map_err(wire_to_engine)?;
                // Ranges arrive in ascending order, so appending them in
                // sequence reproduces the local gather exactly. No step
                // reads an id or a label (see `SampleRows`).
                for sample in &samples {
                    if sample.rows.checked_mul(nf) != Some(sample.features.len())
                        || sample.rows.checked_mul(na) != Some(sample.fairness.len())
                    {
                        return Err(FairError::InvalidConfig {
                            reason: "fleet: worker returned malformed sample columns".into(),
                        });
                    }
                    for i in 0..sample.rows {
                        gather.push_row(ObjectView::new(
                            ObjectId(0),
                            &sample.features[i * nf..(i + 1) * nf],
                            &sample.fairness[i * na..(i + 1) * na],
                            None,
                        ));
                    }
                }
                Ok(())
            },
        )
    }

    /// One fan-out round of disparity partials, flattened in ascending
    /// shard order.
    fn collect_partials(
        &self,
        bonus: &[f64],
        weights: Option<&[f64]>,
        count: usize,
    ) -> Result<Vec<DisparityPartial>> {
        let per_range = self.fan_out(|client, range| {
            client.disparity_partials(&self.store, bonus, weights, count, range)
        })?;
        Ok(per_range.into_iter().flatten().collect())
    }

    /// Dispatch `op` for every placement range concurrently, with
    /// retry/failover per range, returning results in ascending range
    /// order. The whole round shares one trace id — the coordinator's own
    /// ([`connect_traced`](Self::connect_traced)) or a fresh mint — carried to
    /// every worker in the `x-fair-trace` header, so a retried range's
    /// handler spans line up with this round's `fleet.fan_out` span under
    /// one id. The dispatching thread's job profile (if any) records the
    /// round as one Wire interval — the ranges run concurrently, so timing
    /// each of them would count the same wall time once per range.
    fn fan_out<T: Send>(
        &self,
        op: impl Fn(&Client, Range<usize>) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let trace = self.trace.clone().unwrap_or_else(obs::next_trace_id);
        self.probe_ejected(&trace);
        let assignments = self.placement.assignments();
        let span = obs::Span::new("fleet.fan_out")
            .trace(&trace)
            .field("store", &self.store)
            .field("ranges", assignments.len());
        // The whole round, retry backoff included, is what the job waits on.
        let wire = fair_core::obs::profile::scope(obs::Phase::Wire);
        let results: Vec<Result<T>> = std::thread::scope(|scope| {
            let op = &op;
            let trace = &trace;
            let handles: Vec<_> = assignments
                .iter()
                .map(|(owner, range)| {
                    let owner = *owner;
                    let range = range.clone();
                    scope.spawn(move || {
                        self.run_range(owner, range.clone(), trace, |client| {
                            op(client, range.clone())
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(ServeError::Protocol(
                            "fleet dispatch thread panicked".into(),
                        ))
                    })
                })
                .collect()
        });
        drop(wire);
        span.close();
        results.into_iter().collect()
    }

    /// Execute one range's request against its owner, then — after
    /// `max_attempts` backed-off tries — against every other worker,
    /// healthy candidates first.
    fn run_range<T>(
        &self,
        owner: usize,
        range: Range<usize>,
        trace: &str,
        op: impl Fn(&Client) -> Result<T>,
    ) -> Result<T> {
        let mut last_error: Option<ServeError> = None;
        for (slot, w) in self.candidate_order(owner).into_iter().enumerate() {
            let (client, addr, duration) = {
                let workers = self.workers.lock().expect("fleet worker table poisoned");
                (
                    workers[w].client.clone().with_trace(trace),
                    workers[w].addr,
                    workers[w].duration.clone(),
                )
            };
            let mut backoff = Backoff::new(self.config.backoff_base, self.config.backoff_cap);
            for attempt in 0..self.config.max_attempts.max(1) {
                match counted(&self.requests, &duration, || op(&client)) {
                    Ok(value) => {
                        self.record_success(w);
                        if slot > 0 {
                            self.re_dispatches.inc();
                            obs::Event::new("fleet.redispatch")
                                .trace(trace)
                                .field("worker", addr)
                                .field("shards", format!("{range:?}"))
                                .emit();
                        }
                        return Ok(value);
                    }
                    // A deterministic rejection: every worker would answer
                    // the same, so retrying or re-dispatching cannot help.
                    Err(ServeError::Api { status, message }) if status < 500 => {
                        return Err(ServeError::Api { status, message });
                    }
                    Err(e) => {
                        self.record_failure(w);
                        last_error = Some(e);
                        if attempt + 1 < self.config.max_attempts.max(1) {
                            self.retries.inc();
                            obs::Event::new("fleet.retry")
                                .trace(trace)
                                .field("worker", addr)
                                .field("attempt", attempt + 1)
                                .emit();
                            backoff.sleep();
                        }
                    }
                }
            }
        }
        Err(ServeError::Protocol(format!(
            "shards {range:?}: every worker failed (last error: {})",
            last_error.map_or_else(|| "none recorded".into(), |e| e.to_string())
        )))
    }

    /// Worker indices to try for a range owned by `owner`: healthy workers
    /// rotated to start at the owner, then ejected workers as a last
    /// resort.
    fn candidate_order(&self, owner: usize) -> Vec<usize> {
        let workers = self.workers.lock().expect("fleet worker table poisoned");
        let n = workers.len();
        let rotated = (0..n).map(|i| (owner + i) % n);
        let mut order: Vec<usize> = rotated.clone().filter(|&w| workers[w].healthy).collect();
        order.extend(rotated.filter(|&w| !workers[w].healthy));
        order
    }

    fn record_success(&self, w: usize) {
        let mut workers = self.workers.lock().expect("fleet worker table poisoned");
        let state = &mut workers[w];
        state.consecutive_failures = 0;
        if !state.healthy {
            state.healthy = true;
            self.readmissions.inc();
            obs::Event::new("fleet.readmit")
                .field("worker", state.addr)
                .emit();
        }
    }

    fn record_failure(&self, w: usize) {
        let mut workers = self.workers.lock().expect("fleet worker table poisoned");
        let state = &mut workers[w];
        state.consecutive_failures += 1;
        if state.healthy && state.consecutive_failures >= self.config.eject_after {
            state.healthy = false;
            state.rounds_since_eject = 0;
            self.ejections.inc();
            obs::Event::new("fleet.eject")
                .field("worker", state.addr)
                .field("consecutive_failures", state.consecutive_failures)
                .emit();
        }
    }

    /// Health-probe ejected workers that are due, re-admitting responders.
    /// Each probe is a request of the fan-out round `trace` names.
    fn probe_ejected(&self, trace: &str) {
        let due: Vec<(usize, Client, Arc<obs::Histogram>)> = {
            let mut workers = self.workers.lock().expect("fleet worker table poisoned");
            workers
                .iter_mut()
                .enumerate()
                .filter(|(_, state)| !state.healthy)
                .filter_map(|(w, state)| {
                    state.rounds_since_eject += 1;
                    (state.rounds_since_eject >= self.config.probe_every).then(|| {
                        (
                            w,
                            state.client.clone().with_trace(trace),
                            state.duration.clone(),
                        )
                    })
                })
                .collect()
        };
        for (w, client, duration) in due {
            if counted(&self.requests, &duration, || client.health()).is_ok() {
                self.record_success(w);
            } else {
                self.workers.lock().expect("fleet worker table poisoned")[w].rounds_since_eject = 0;
            }
        }
    }
}

/// A wire failure as the engine reports it, the wire story kept in its
/// reason.
pub(crate) fn wire_to_engine(e: ServeError) -> FairError {
    FairError::InvalidConfig {
        reason: format!("fleet request failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = FleetConfig::default();
        assert!(c.max_attempts >= 1);
        assert!(c.eject_after >= 1);
        assert!(c.backoff_cap >= c.backoff_base);
    }

    #[test]
    fn connect_rejects_an_empty_fleet() {
        let err = FleetCoordinator::connect("cohort", &[], FleetConfig::default()).unwrap_err();
        assert!(err.to_string().contains("at least one worker"));
    }
}

//! # fair-serve — the concurrent fairness-audit service
//!
//! The serving layer of the reproduction: a long-lived process that owns a
//! **catalog** of cohort stores (on-disk `fair-store` files and in-memory
//! synthetic cohorts) and answers concurrent audit traffic over a small
//! HTTP/1.1 + JSON wire protocol — all std-only, hand-rolled on
//! [`std::net::TcpListener`] and a worker thread pool sized by
//! [`fair_core::max_workers`] (the `FAIR_THREADS` knob).
//!
//! Two classes of work, split the way production analytics engines split
//! them:
//!
//! * **synchronous endpoints** for cheap queries — catalog listing, schema,
//!   whole-cohort stats, and the sharded fairness metrics
//!   (disparity / nDCG / log-discounted / FPR / disparate impact at `k`),
//!   each a few milliseconds through [`fair_core::metrics::sharded`];
//! * **background jobs** for expensive work — Full/Core DCA descents run by
//!   the [`jobs::JobManager`] on their own threads, wired to the engine
//!   through [`fair_core::dca::RunControl`] for live progress reporting and
//!   cooperative cancellation (`DELETE /jobs/{id}`).
//!
//! A third layer, [`fleet`], turns several of these servers into one logical
//! engine: a [`FleetCoordinator`] owns a shard-range [`PlacementMap`], fans
//! partial-reduce requests (`POST /stores/{name}/partials`) out to its
//! workers, and combines the per-shard partials in shard order — with
//! deadlines, jittered-backoff retries, consecutive-failure ejection, and
//! re-dispatch of a dead worker's range to a survivor. The whole failure
//! envelope is testable on one machine through the `FAIR_FAULT` injection
//! harness ([`fair_core::fault`]).
//!
//! The whole stack is observable through [`fair_core::obs`]: every layer
//! records into the process-wide metrics registry (per-route counters and
//! latency histograms, job lifecycle and per-step durations, shard-cache
//! hit rates, fleet retries/ejections), exposed as Prometheus text at
//! `GET /metrics`; `FAIR_LOG=text|json` turns on span/event logging with
//! per-request trace ids that propagate coordinator→worker via the
//! `x-fair-trace` header.
//!
//! Everything the server computes is **bit-identical to the library path**:
//! the sharded kernels are the same code, and the wire format round-trips
//! `f64` bits exactly ([`json`]). An uncancelled job with seed `s` produces
//! precisely the `run_full_dca_sharded` / `run_core_dca_sharded` trajectory
//! for seed `s`.
//!
//! ```no_run
//! use fair_serve::{serve, AuditService, Client, MetricsRequest};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = AuditService::new();
//! let server = serve(service, "127.0.0.1:0", 4)?; // ephemeral port
//! let client = Client::new(server.addr());
//! client.register_disk_store("cohort", "cohort.fss")?;
//! let audit = client.metrics("cohort", &MetricsRequest::baseline(0.05))?;
//! println!("disparity@5% = {:?}", audit.disparity);
//! server.shutdown(); // drains workers, cancels + joins jobs
//! # Ok(()) }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::all)]

pub mod backoff;
pub mod catalog;
pub mod client;
pub mod error;
pub(crate) mod fault;
pub mod fleet;
pub mod http;
pub mod jobs;
pub mod json;
pub mod server;

pub use backoff::Backoff;
pub use catalog::{Catalog, CohortStore, PlacementMap, StoreEntry};
pub use client::{
    Client, JobRequest, JobResult, JobView, MetricsRequest, MetricsResult, SampleRows, StoreInfo,
};
pub use error::{ApiError, Result, ServeError};
pub use fleet::{FleetConfig, FleetCoordinator, FleetReport, WorkerStatus};
pub use jobs::{Job, JobKind, JobManager, JobOutcome, JobPhase, JobSpec};
pub use json::{Json, JsonError};
pub use server::{serve, AuditService, ServerHandle, DRAIN_DEADLINE};

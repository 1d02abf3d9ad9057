//! `fair-obs`: the unified observability layer — a process-wide metrics
//! registry with Prometheus text exposition, and span-based structured
//! logging with cross-process trace correlation.
//!
//! Everything here is std-only and falls out of two primitives:
//!
//! * **Metrics** ([`registry`]): atomic [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed [`Histogram`]s with exact sum/count and p50/p90/p99
//!   extraction, addressed by `(name, labels)` in one [`global`] registry
//!   that the serve layer renders at `GET /metrics`. Handles are resolved
//!   once and updated lock-free, so instrumentation costs one relaxed
//!   atomic op per event — cheap enough to leave on everywhere (the bench
//!   suite tracks the Core-DCA per-step overhead; it must stay under 5%).
//!   An instance with numbers of its own (a shard store, a fleet
//!   coordinator, a request in flight) holds per-instance children of its
//!   series ([`Counter::child`], [`Gauge::child`]): each signal is stored
//!   once, read exactly per instance and summed per process in the series.
//! * **Logs** ([`log`]): [`Span`]s (one stderr line per close with target,
//!   `duration_us`, fields) and point [`Event`]s, formatted per
//!   `FAIR_LOG=off|text|json`. Trace ids minted by [`next_trace_id`] ride
//!   the `x-fair-trace` header so fleet coordinator retries correlate with
//!   worker-side handler spans.
//! * **Profiles** ([`profile`]): per-job phase attribution — a
//!   [`JobProfile`] of pre-sized atomics carried by a thread-local handle,
//!   with [`PhaseScope`] guards wrapping kernel invocations at the layer
//!   boundaries (paging, decode, score sweeps, sample gathers, partial
//!   combines, worker round trips). Inert unless a profile is installed.
//!
//! Instrumentation never alters computation: kernels stay wall-clock-free
//! and every DCA/metric output is bit-identical with observability on or
//! off. Timing happens at layer boundaries (request dispatch, job step
//! callbacks, cache admits) only.
//!
//! The convenience functions below ([`counter`], [`gauge`], [`histogram`],
//! [`render_prometheus`]) bind to the [`global`] registry, which is what
//! production code should use; private [`Registry`] instances exist for
//! tests.

pub mod log;
pub mod profile;
pub mod registry;

pub use log::{
    capture, captured, log_enabled, log_mode, next_trace_id, set_log_mode, warn, CaptureGuard,
    Event, LogMode, Record, Span,
};
pub use profile::{JobProfile, Phase, PhaseScope, PhaseStats, StepBreakdown, PROFILE_RING};
pub use registry::{
    bucket_index, bucket_upper_bound, global, Counter, Gauge, Histogram, Registry,
    HISTOGRAM_BUCKETS, RESERVOIR_SLOTS,
};

use std::sync::Arc;

/// Get or create a counter in the [`global`] registry.
#[must_use]
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    global().counter(name, labels)
}

/// Get or create a gauge in the [`global`] registry.
#[must_use]
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
    global().gauge(name, labels)
}

/// Get or create a histogram in the [`global`] registry.
#[must_use]
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    global().histogram(name, labels)
}

/// Render the [`global`] registry in Prometheus text exposition format.
#[must_use]
pub fn render_prometheus() -> String {
    global().render_prometheus()
}

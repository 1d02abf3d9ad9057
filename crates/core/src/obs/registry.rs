//! The process-wide metrics registry: atomic counters, gauges, and
//! log-bucketed latency histograms, rendered in Prometheus text exposition
//! format.
//!
//! Every series is addressed by `(metric name, label pairs)`. Handles are
//! `Arc`-shared and lock-free on the hot path: registration takes the
//! registry mutex once, after which `inc`/`set`/`record` are single relaxed
//! atomic operations. Instrumented code resolves its handles up front (at
//! store open, coordinator construction, route dispatch) and never touches
//! the registry lock per event.
//!
//! An instance that reports its own exact numbers (a shard store's cache
//! counters, a fleet coordinator's request counts) holds per-instance
//! children of its series ([`Counter::child`], [`Gauge::child`]) as their
//! only storage: a child reads back its own events and passes each one on
//! to the series, and a dropped gauge child takes its value back out. A
//! child is not registered, so the rendered text shows the series alone,
//! the sum over every instance.
//!
//! Histograms bucket by powers of two (`le ∈ {1, 2, 4, …, 2^30, +Inf}`,
//! conventionally microseconds) and keep an exact `sum` and `count`
//! alongside the buckets, so averages are exact. Quantiles come from a
//! fixed [`RESERVOIR_SLOTS`]-slot exact-value reservoir maintained next to
//! the buckets (Algorithm R with a splitmix64 hash of the observation index
//! as the replacement coin — deterministic and wall-clock-free):
//! [`Histogram::quantile`] returns an actually observed value, exact while
//! `count ≤ 512` and a uniform-sample estimate above, instead of a bucket
//! ceiling. `_sum`/`_count`/`_bucket` stay exact regardless.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: `le = 2^0 … 2^30`, then `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Slots in the exact-value quantile reservoir each histogram carries.
pub const RESERVOIR_SLOTS: usize = 512;

/// One splitmix64 finalizer step — the replacement coin for the reservoir.
/// A hash of the observation index (not a clock, not a shared RNG) keeps
/// recording wall-clock-free and deterministic for a given arrival order.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A monotone event counter: a registry series, or one instance's
/// [`Counter::child`] of a series.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
    parent: Option<Arc<Counter>>,
}

impl Counter {
    /// A per-instance counter whose every event also counts in `parent`.
    #[must_use]
    pub fn child(parent: Arc<Counter>) -> Self {
        Self {
            value: AtomicU64::new(0),
            parent: Some(parent),
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if let Some(parent) = &self.parent {
            parent.add(n);
        }
    }

    /// Current value: this counter's own events.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (in-flight requests, resident bytes, …): a
/// registry series, or one instance's [`Gauge::child`] share of a series.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    parent: Option<Arc<Gauge>>,
}

impl Gauge {
    /// A per-instance gauge whose every change also moves `parent`, and
    /// whose value leaves `parent` when it is dropped.
    #[must_use]
    pub fn child(parent: Arc<Gauge>) -> Self {
        Self {
            value: AtomicI64::new(0),
            parent: Some(parent),
        }
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        let old = self.value.swap(v, Ordering::Relaxed);
        if let Some(parent) = &self.parent {
            parent.add(v.wrapping_sub(old));
        }
    }

    /// Add `d` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
        if let Some(parent) = &self.parent {
            parent.add(d);
        }
    }

    /// Subtract `d`.
    pub fn sub(&self, d: i64) {
        self.add(d.wrapping_neg());
    }

    /// Current value: this gauge's own share.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        if let Some(parent) = &self.parent {
            parent.sub(*self.value.get_mut());
        }
    }
}

/// A log-bucketed distribution with an exact sum and count, plus a
/// fixed-size exact-value reservoir for quantiles.
///
/// Values are `u64` (the convention throughout the workspace is
/// microseconds). Bucket `i < 31` holds values `v ≤ 2^i`; bucket 31 is
/// `+Inf`. `record` is three relaxed atomic adds plus at most one relaxed
/// store into the reservoir — safe for concurrent recording from any number
/// of threads with no lost updates in `sum`/`count`/buckets, which the unit
/// tests pin via sum/count invariants. (A racing reservoir replacement may
/// drop one of two simultaneous candidates for the same slot; the reservoir
/// is a sample by construction, so that only perturbs the sample.)
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    reservoir: [AtomicU64; RESERVOIR_SLOTS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            reservoir: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The `le` upper bound of bucket `i`, or `None` for the `+Inf` bucket.
#[must_use]
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    (i + 1 < HISTOGRAM_BUCKETS).then(|| 1u64 << i)
}

/// The bucket index for a recorded value: the smallest `i` with `v ≤ 2^i`.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    let i = (u64::BITS - (v - 1).leading_zeros()) as usize;
    i.min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // `n` is this observation's 0-based index in arrival order. The
        // first RESERVOIR_SLOTS observations fill the reservoir verbatim;
        // afterwards observation n replaces a uniformly hashed slot with
        // probability RESERVOIR_SLOTS/(n+1) — Algorithm R, with splitmix64(n)
        // standing in for the random coin so recording stays clock-free.
        let n = self.count.fetch_add(1, Ordering::Relaxed);
        if (n as usize) < RESERVOIR_SLOTS {
            self.reservoir[n as usize].store(value, Ordering::Relaxed);
        } else {
            let j = splitmix64(n) % (n + 1);
            if (j as usize) < RESERVOIR_SLOTS {
                self.reservoir[j as usize].store(value, Ordering::Relaxed);
            }
        }
    }

    /// Exact number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative), a consistent-enough snapshot for
    /// exposition.
    #[must_use]
    pub fn snapshot(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as an actually recorded value: rank
    /// `⌈q·len⌉` of the sorted reservoir sample. Exact while
    /// `count ≤ RESERVOIR_SLOTS`; above that, a uniform-sample estimate
    /// whose error shrinks with the reservoir size (the value returned is
    /// still always one that was genuinely observed, never a bucket
    /// ceiling). `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let filled = usize::try_from(total)
            .unwrap_or(usize::MAX)
            .min(RESERVOIR_SLOTS);
        let mut sample: Vec<u64> = self.reservoir[..filled]
            .iter()
            .map(|v| v.load(Ordering::Relaxed))
            .collect();
        sample.sort_unstable();
        let rank = ((q * filled as f64).ceil() as usize).clamp(1, filled);
        Some(sample[rank - 1])
    }
}

/// Label pairs, sorted by key for a canonical series identity.
type Labels = Vec<(String, String)>;

fn canonical_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect();
    out.sort();
    out
}

#[derive(Debug)]
enum Metric {
    Counter(BTreeMap<Labels, Arc<Counter>>),
    Gauge(BTreeMap<Labels, Arc<Gauge>>),
    Histogram(BTreeMap<Labels, Arc<Histogram>>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Self::Counter(_) => "counter",
            Self::Gauge(_) => "gauge",
            Self::Histogram(_) => "histogram",
        }
    }
}

/// The metric store: series keyed by name then sorted label pairs.
///
/// One process-wide instance lives behind [`global`]; constructing private
/// registries is possible for tests but production code should share the
/// global one so `/metrics` sees every layer.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name{labels}`.
    ///
    /// # Panics
    /// When `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(BTreeMap::new()));
        match metric {
            Metric::Counter(series) => series.entry(canonical_labels(labels)).or_default().clone(),
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the gauge `name{labels}`.
    ///
    /// # Panics
    /// When `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(BTreeMap::new()));
        match metric {
            Metric::Gauge(series) => series.entry(canonical_labels(labels)).or_default().clone(),
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or create the histogram `name{labels}`.
    ///
    /// # Panics
    /// When `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(BTreeMap::new()));
        match metric {
            Metric::Histogram(series) => {
                series.entry(canonical_labels(labels)).or_default().clone()
            }
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Render every series in Prometheus text exposition format (one
    /// `# TYPE` comment per metric, then one `name{labels} value` line per
    /// series; histograms expand to cumulative `_bucket` series plus exact
    /// `_sum`/`_count`, and derived `_p50`/`_p90`/`_p99` gauges).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().expect("registry lock poisoned");
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(series) => {
                    out.push_str(&format!("# TYPE {name} counter\n"));
                    for (labels, c) in series {
                        render_line(&mut out, name, labels, None, &c.get().to_string());
                    }
                }
                Metric::Gauge(series) => {
                    out.push_str(&format!("# TYPE {name} gauge\n"));
                    for (labels, g) in series {
                        render_line(&mut out, name, labels, None, &g.get().to_string());
                    }
                }
                Metric::Histogram(series) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    for (labels, h) in series {
                        let snap = h.snapshot();
                        let mut cum = 0u64;
                        for (i, c) in snap.iter().enumerate() {
                            cum += c;
                            let le = bucket_upper_bound(i)
                                .map_or_else(|| "+Inf".to_string(), |b| b.to_string());
                            render_line(
                                &mut out,
                                &format!("{name}_bucket"),
                                labels,
                                Some(("le", &le)),
                                &cum.to_string(),
                            );
                        }
                        render_line(
                            &mut out,
                            &format!("{name}_sum"),
                            labels,
                            None,
                            &h.sum().to_string(),
                        );
                        render_line(
                            &mut out,
                            &format!("{name}_count"),
                            labels,
                            None,
                            &h.count().to_string(),
                        );
                    }
                    for (suffix, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                        out.push_str(&format!("# TYPE {name}_{suffix} gauge\n"));
                        for (labels, h) in series {
                            let v = h
                                .quantile(q)
                                .map_or_else(|| "0".to_string(), |b| b.to_string());
                            render_line(&mut out, &format!("{name}_{suffix}"), labels, None, &v);
                        }
                    }
                }
            }
        }
        out
    }
}

/// Escape a label value per the exposition format: backslash, double quote,
/// and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn render_line(
    out: &mut String,
    name: &str,
    labels: &Labels,
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    let has_labels = !labels.is_empty() || extra.is_some();
    if has_labels {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// The process-wide registry every layer (server, store, fleet, jobs,
/// faults) reports into and `GET /metrics` renders from.
#[must_use]
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("hits_total", &[("route", "/health")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) resolves to the same series.
        assert_eq!(reg.counter("hits_total", &[("route", "/health")]).get(), 5);
        // Label order does not matter.
        let a = reg.counter("multi", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("multi", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);

        let g = reg.gauge("inflight", &[]);
        g.add(3);
        g.sub(1);
        assert_eq!(g.get(), 2);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn a_child_counter_counts_its_own_events_into_its_parent() {
        let reg = Registry::new();
        let parent = reg.counter("events_total", &[]);
        parent.add(10);
        let child = Counter::child(Arc::clone(&parent));
        child.inc();
        child.add(4);
        assert_eq!(child.get(), 5, "the child reads its own events only");
        assert_eq!(parent.get(), 15, "the parent grows by the same amount");
    }

    #[test]
    fn two_children_of_one_parent_add_up_in_the_parent() {
        let reg = Registry::new();
        let parent = reg.counter("events_total", &[]);
        let a = Counter::child(Arc::clone(&parent));
        let b = Counter::child(Arc::clone(&parent));
        a.add(3);
        b.add(7);
        a.inc();
        assert_eq!((a.get(), b.get()), (4, 7));
        assert_eq!(parent.get(), 11);
        // A counter child's events stay counted after it is dropped.
        drop(a);
        assert_eq!(parent.get(), 11);
    }

    #[test]
    fn a_child_gauge_moves_its_parent_and_leaves_it_when_dropped() {
        let reg = Registry::new();
        let parent = reg.gauge("resident", &[]);
        parent.set(100);
        let child = Gauge::child(Arc::clone(&parent));
        child.add(30);
        child.sub(5);
        assert_eq!((child.get(), parent.get()), (25, 125));
        child.set(40);
        assert_eq!((child.get(), parent.get()), (40, 140));
        let other = Gauge::child(Arc::clone(&parent));
        other.add(2);
        assert_eq!(parent.get(), 142);
        drop(child);
        assert_eq!(parent.get(), 102, "the dropped child's value leaves");
        drop(other);
        assert_eq!(parent.get(), 100, "the parent's own value is restored");
    }

    #[test]
    fn children_leave_the_rendered_text_unchanged() {
        let direct = Registry::new();
        direct
            .counter("req_total", &[("route", "GET /health")])
            .add(3);
        direct.gauge("inflight", &[]).add(2);
        let reg = Registry::new();
        let c = Counter::child(reg.counter("req_total", &[("route", "GET /health")]));
        let g = Gauge::child(reg.gauge("inflight", &[]));
        c.add(3);
        g.add(2);
        assert_eq!(
            reg.render_prometheus(),
            direct.render_prometheus(),
            "children render as their series alone"
        );
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_collision_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x_total", &[]);
        let _ = reg.gauge("x_total", &[]);
    }

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        // The smallest i with v <= 2^i, exactly at and around boundaries.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(1 << 30), 30);
        assert_eq!(bucket_index((1 << 30) + 1), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), Some(1));
        assert_eq!(bucket_upper_bound(30), Some(1 << 30));
        assert_eq!(bucket_upper_bound(31), None);
    }

    #[test]
    fn histogram_quantiles_are_exact_recorded_values_below_reservoir_capacity() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // 100 values of 1: every quantile is exactly 1.
        for _ in 0..100 {
            h.record(1);
        }
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.99), Some(1));
        // Add 100 values of 1000: p50 stays at the first mass; p90/p99 are
        // the exact value 1000, not its 1024 bucket ceiling.
        for _ in 0..100 {
            h.record(1000);
        }
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.9), Some(1000));
        assert_eq!(h.quantile(0.99), Some(1000));
        assert_eq!(h.sum(), 100 + 100 * 1000);
        assert_eq!(h.count(), 200);
    }

    #[test]
    fn reservoir_replacement_keeps_quantiles_observed_and_sum_exact() {
        // Far past the reservoir capacity: quantiles must still be values
        // that were genuinely recorded (here: the single recorded magnitude
        // per tercile), monotone in q, and `_sum`/`_count` stay exact.
        let h = Histogram::default();
        let n: u64 = 30_000;
        for i in 0..n {
            h.record(match i % 3 {
                0 => 10,
                1 => 100,
                _ => 1000,
            });
        }
        assert_eq!(h.count(), n);
        assert_eq!(h.sum(), (n / 3) * (10 + 100 + 1000));
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(matches!(p50, 10 | 100 | 1000), "observed value, got {p50}");
        assert_eq!(p99, 1000, "top percentile of a third-heavy tail");
        assert!(p50 <= p99, "quantiles are monotone");
        // With 10k observations per magnitude, a 512-slot uniform sample
        // putting the median anywhere but the middle magnitude would be a
        // gross sampling failure.
        assert_eq!(p50, 100);
    }

    #[test]
    fn concurrent_recording_is_exact() {
        // sum/count invariants survive concurrent recording: no lost
        // updates anywhere in the bucket array or the exact accumulators.
        let h = Arc::new(Histogram::default());
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        thread::scope(|s| {
            for t in 0..THREADS {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record((t * PER_THREAD + i) % 1000);
                    }
                });
            }
        });
        assert_eq!(h.count(), THREADS * PER_THREAD);
        let expected_sum: u64 = (0..THREADS * PER_THREAD).map(|v| v % 1000).sum();
        assert_eq!(h.sum(), expected_sum);
        let bucket_total: u64 = h.snapshot().iter().sum();
        assert_eq!(bucket_total, THREADS * PER_THREAD);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let reg = Registry::new();
        reg.counter("req_total", &[("route", "GET /health")]).add(3);
        reg.gauge("inflight", &[]).set(2);
        let h = reg.histogram("latency_us", &[("route", "GET /health")]);
        h.record(3);
        h.record(900);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE req_total counter\n"));
        assert!(text.contains("req_total{route=\"GET /health\"} 3\n"));
        assert!(text.contains("inflight 2\n"));
        assert!(text.contains("# TYPE latency_us histogram\n"));
        assert!(text.contains("latency_us_bucket{route=\"GET /health\",le=\"4\"} 1\n"));
        assert!(text.contains("latency_us_bucket{route=\"GET /health\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("latency_us_sum{route=\"GET /health\"} 903\n"));
        assert!(text.contains("latency_us_count{route=\"GET /health\"} 2\n"));
        // Quantile gauges carry exact reservoir values, not bucket ceilings.
        assert!(text.contains("latency_us_p50{route=\"GET /health\"} 3\n"));
        assert!(text.contains("latency_us_p99{route=\"GET /health\"} 900\n"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("value separator");
            assert!(!series.is_empty());
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter("odd_total", &[("path", "a\"b\\c\nd")]).inc();
        let text = reg.render_prometheus();
        assert!(text.contains("odd_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }
}

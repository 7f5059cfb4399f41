//! Runtime metrics for the unroll-and-jam pipeline: sharded counters,
//! gauges, and log-scale latency histograms with versioned JSON
//! snapshots.
//!
//! The crate is organised around three types:
//!
//! * [`MetricsRegistry`] — a named collection of [`Counter`]s,
//!   [`Gauge`]s, and [`Histogram`]s.  Metrics are created on first use
//!   and live for the registry's lifetime; lookups take a read lock,
//!   updates touch only atomics.
//! * [`MetricsHandle`] — a cheap clonable handle threaded through the
//!   optimizer next to the `TraceSink`.  A disabled handle makes every
//!   operation a no-op, so un-instrumented runs pay only a branch.
//! * [`MetricsSnapshot`] — a point-in-time copy of everything the
//!   registry holds, rendered as versioned JSON (the `ujam stats`
//!   wire format; the CLI renders that for humans).
//!
//! Everything here is in-tree and `std`-only; recording never blocks
//! behind another recorder (shards + relaxed atomics), and snapshots
//! are deterministic: the same multiset of observations always yields
//! the same rendered bytes (see `DESIGN.md` §11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod series;
mod snapshot;

pub use histogram::{
    bucket_bounds, bucket_index, Exemplar, Histogram, HistogramSnapshot, BUCKET_COUNT,
};
pub use series::{SeriesCollector, SeriesWindow, SERIES_VERSION};
pub use snapshot::{MetricsSnapshot, SNAPSHOT_VERSION};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonic counter (requests served, cache hits, …).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (in-flight requests, cache bytes, …) that can
/// move both ways.
///
/// High-water marks written through [`Gauge::set_max`] are tracked
/// twice: the lifetime peak (what [`Gauge::get`] and snapshots report)
/// and a *window* peak that a periodic collector can read-and-reset
/// with [`Gauge::swap_reset`] without disturbing the lifetime value —
/// that is what lets the series layer report per-window queue-depth
/// high water while `serve.queue_depth.peak` keeps its
/// since-startup meaning.
#[derive(Debug, Default)]
pub struct Gauge {
    level: AtomicI64,
    window: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge {
            level: AtomicI64::new(0),
            window: AtomicI64::new(0),
        }
    }

    /// Sets the level outright.
    pub fn set(&self, v: i64) {
        self.level.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.level.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the level to `v` if `v` is higher, leaving it alone
    /// otherwise — a lock-free high-water mark (peak queue depth,
    /// peak open connections).  Both the lifetime peak and the current
    /// window's peak advance.
    pub fn set_max(&self, v: i64) {
        self.level.fetch_max(v, Ordering::Relaxed);
        self.window.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.level.load(Ordering::Relaxed)
    }

    /// Returns the window peak accumulated since the previous call and
    /// starts a fresh window.  The lifetime value is untouched, so
    /// snapshots still report the since-startup peak.
    pub fn swap_reset(&self) -> i64 {
        self.window.swap(0, Ordering::Relaxed)
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// Metrics are created lazily by [`MetricsRegistry::counter`] /
/// [`gauge`](MetricsRegistry::gauge) /
/// [`histogram`](MetricsRegistry::histogram) and never removed, so a
/// hot path can resolve its `Arc` once at startup and update it without
/// ever touching the registry lock again.
///
/// # Example
///
/// ```
/// use ujam_metrics::MetricsRegistry;
/// let reg = MetricsRegistry::new();
/// reg.counter("serve.requests").inc();
/// reg.histogram("serve.request_ns").observe(1_234);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("serve.requests"), 1);
/// assert_eq!(snap.histogram("serve.request_ns").unwrap().count, 1);
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn get_or_create<T>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str, make: fn() -> T) -> Arc<T> {
    if let Some(found) = map.read().expect("metrics lock poisoned").get(name) {
        return Arc::clone(found);
    }
    let mut writable = map.write().expect("metrics lock poisoned");
    Arc::clone(
        writable
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(make())),
    )
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter called `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name, Counter::new)
    }

    /// The gauge called `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name, Gauge::new)
    }

    /// The histogram called `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name, Histogram::new)
    }

    /// A point-in-time copy of every metric, suitable for rendering.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            version: SNAPSHOT_VERSION,
            counters,
            gauges,
            histograms,
        }
    }
}

/// A clonable, possibly-disabled reference to a [`MetricsRegistry`],
/// threaded through the optimizer alongside the trace sink.
///
/// With [`MetricsHandle::disabled`] every method is a no-op and
/// [`enabled`](MetricsHandle::enabled) is `false`, so instrumented code
/// can guard any per-observation work (clock reads, name formatting)
/// behind one branch.
#[derive(Clone, Default)]
pub struct MetricsHandle(Option<Arc<MetricsRegistry>>);

impl MetricsHandle {
    /// A handle that records nothing.
    pub fn disabled() -> MetricsHandle {
        MetricsHandle(None)
    }

    /// A handle recording into `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> MetricsHandle {
        MetricsHandle(Some(registry))
    }

    /// Whether observations are being recorded.  Check this before
    /// doing per-observation work (e.g. reading the clock).
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The underlying registry, if enabled.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.0.as_ref()
    }

    /// Adds `n` to the counter called `name`.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(reg) = &self.0 {
            reg.counter(name).add(n);
        }
    }

    /// Records one observation in the histogram called `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(reg) = &self.0 {
            reg.histogram(name).observe(value);
        }
    }

    /// A snapshot of the registry, or an empty snapshot when disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.0 {
            Some(reg) => reg.snapshot(),
            None => MetricsSnapshot {
                version: SNAPSHOT_VERSION,
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_the_same_metric_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.snapshot().counter("x"), 3);
    }

    #[test]
    fn gauges_move_both_ways() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("inflight");
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(0);
        assert_eq!(reg.snapshot().gauge("inflight"), 0);
    }

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let g = Gauge::new();
        g.set_max(4);
        g.set_max(2);
        assert_eq!(g.get(), 4, "lower values never move the mark");
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn swap_reset_yields_window_peaks_and_keeps_the_lifetime_peak() {
        let g = Gauge::new();
        g.set_max(7);
        g.set_max(3);
        assert_eq!(g.swap_reset(), 7, "first window peaked at 7");
        assert_eq!(g.get(), 7, "lifetime peak survives the window read");
        g.set_max(5);
        assert_eq!(g.swap_reset(), 5, "second window peaked lower");
        assert_eq!(g.get(), 7, "lifetime peak still the since-startup max");
        assert_eq!(g.swap_reset(), 0, "an idle window reports zero");
    }

    #[test]
    fn disabled_handle_is_a_total_no_op() {
        let h = MetricsHandle::disabled();
        assert!(!h.enabled());
        h.count("c", 1);
        h.observe("h", 42);
        let snap = h.snapshot();
        assert_eq!(snap.counter("c"), 0);
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn enabled_handle_records_into_its_registry() {
        let reg = Arc::new(MetricsRegistry::new());
        let h = MetricsHandle::new(Arc::clone(&reg));
        assert!(h.enabled());
        h.count("serve.requests", 2);
        h.observe("serve.request_ns", 100);
        h.observe("serve.request_ns", 200);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.requests"), 2);
        assert_eq!(snap.histogram("serve.request_ns").unwrap().count, 2);
        assert_eq!(snap.histogram("serve.request_ns").unwrap().sum, 300);
    }

    // -- satellite: histogram edge cases ---------------------------------

    #[test]
    fn zero_observations_snapshot_is_all_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        assert!(s.nonzero_buckets().is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p90(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_bucket_distribution_reports_that_bucket_everywhere() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.observe(100); // bucket [64, 127]
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 100_000);
        assert_eq!(s.nonzero_buckets(), vec![(64, 127, 1000)]);
        assert_eq!(s.p50(), 127);
        assert_eq!(s.p90(), 127);
        assert_eq!(s.p99(), 127);
        assert_eq!(s.quantile(0.0), 127);
        assert_eq!(s.quantile(1.0), 127);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::with_shards(1);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        h.observe(1);
        let s = h.snapshot();
        assert_eq!(s.count, 3, "counts stay exact under sum saturation");
        assert_eq!(s.sum, u64::MAX, "sum pins at u64::MAX");
        // Merging saturated snapshots also saturates rather than wraps.
        let mut merged = s.clone();
        merged.merge(&s);
        assert_eq!(merged.count, 6);
        assert_eq!(merged.sum, u64::MAX);
    }

    #[test]
    fn shard_merge_equals_single_shard_totals() {
        let sharded = Histogram::with_shards(4);
        let flat = Histogram::with_shards(1);
        for v in 0..200u64 {
            sharded.observe_in_shard(v as usize, v * 7);
            flat.observe_in_shard(0, v * 7);
        }
        // Hand-merging the per-shard snapshots...
        let mut merged = HistogramSnapshot::empty();
        for s in sharded.shard_snapshots() {
            merged.merge(&s);
        }
        // ...equals the built-in merged snapshot, equals one big shard.
        assert_eq!(merged, sharded.snapshot());
        assert_eq!(merged, flat.snapshot());
    }

    #[test]
    fn quantiles_on_degenerate_distributions() {
        // All zeros: every quantile is the zero bucket's upper bound.
        let zeros = Histogram::new();
        for _ in 0..10 {
            zeros.observe(0);
        }
        let s = zeros.snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);

        // One observation: every quantile is its bucket's upper bound.
        let one = Histogram::new();
        one.observe(5000); // bucket [4096, 8191]
        let s = one.snapshot();
        assert_eq!(s.p50(), 8191);
        assert_eq!(s.p90(), 8191);
        assert_eq!(s.p99(), 8191);

        // Out-of-range q clamps rather than panics.
        assert_eq!(s.quantile(-1.0), 8191);
        assert_eq!(s.quantile(2.0), 8191);
    }
}

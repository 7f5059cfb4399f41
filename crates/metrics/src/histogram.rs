//! Fixed-bucket log-scale histograms with exact counts and sums.
//!
//! A [`Histogram`] is a set of power-of-two buckets over `u64` values:
//! bucket 0 holds only zero, bucket `i` (1 ≤ i ≤ 64) holds
//! `[2^(i-1), 2^i)`.  The bucket layout is *fixed*, so two histograms —
//! or two shards of one histogram — can always be merged by adding
//! bucket counts, and a snapshot taken on one machine compares exactly
//! against one taken on another.
//!
//! Recording is lock-free: each shard is a block of relaxed atomics, and
//! a thread picks its shard once (round-robin at first use) so
//! concurrent writers rarely contend on the same cache lines.  `count`
//! and bucket totals are exact; `sum` saturates at `u64::MAX` instead of
//! wrapping, so a snapshot can never under-report total time.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of buckets: one for zero plus one per power of two up to
/// `2^63..=u64::MAX`.
pub const BUCKET_COUNT: usize = 65;

/// Default shard count for histograms created by
/// [`Histogram::new`] — enough to keep an 8–16 worker pool from
/// serialising on one atomic, small enough that snapshots stay cheap.
pub const DEFAULT_SHARDS: usize = 8;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread claims a shard slot once, round-robin; all its
    /// observations land there.
    static SHARD_SLOT: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
}

/// The bucket a value falls into: 0 for zero, else `64 - leading_zeros`
/// (so bucket `i` covers `[2^(i-1), 2^i)`).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive `[lo, hi]` range of values a bucket holds.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

fn saturating_fetch_add(cell: &AtomicU64, v: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(v);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// One shard's worth of bucket counters.
struct Shard {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.sum, value);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// The tagged maximum observation of the current collection window —
/// the *exemplar* that links an aggregate latency histogram back to the
/// concrete request (by trace id) that produced its worst value.
///
/// Offers are filtered by a relaxed atomic high-water mark, so the
/// mutex below is only ever contended when an observation actually
/// beats the running window maximum — O(1) and lock-free on the hot
/// path for everything else.  Ties keep the first-seen observation, so
/// a fixed multiset of (value, tag) offers always yields the same
/// exemplar.
#[derive(Debug, Default)]
pub struct Exemplar {
    /// Fast-path filter: the window's running maximum value.
    max: AtomicU64,
    /// The `(value, tag)` of the current window maximum.
    slot: Mutex<Option<(u64, u64)>>,
}

impl Exemplar {
    /// An empty exemplar.
    pub fn new() -> Exemplar {
        Exemplar::default()
    }

    /// Offers one tagged observation; it is kept only if it beats the
    /// window's running maximum (ties lose to the incumbent).
    pub fn offer(&self, value: u64, tag: u64) {
        if value < self.max.load(Ordering::Relaxed) {
            return;
        }
        let mut slot = self.slot.lock().expect("exemplar lock");
        match *slot {
            Some((incumbent, _)) if value <= incumbent => {}
            _ => {
                *slot = Some((value, tag));
                self.max.store(value, Ordering::Relaxed);
            }
        }
    }

    /// Returns the window's `(value, tag)` maximum and starts a fresh
    /// window (`None` when nothing was offered since the last take).
    pub fn take(&self) -> Option<(u64, u64)> {
        let mut slot = self.slot.lock().expect("exemplar lock");
        self.max.store(0, Ordering::Relaxed);
        slot.take()
    }
}

/// A sharded, lock-free, fixed-bucket log-scale histogram.
///
/// # Example
///
/// ```
/// use ujam_metrics::Histogram;
/// let h = Histogram::new();
/// for v in [3_u64, 900, 900, 1_000_000] {
///     h.observe(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.sum, 1_001_803);
/// assert_eq!(snap.p50(), snap.quantile(0.5));
/// ```
pub struct Histogram {
    shards: Vec<Shard>,
    exemplar: Exemplar,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A histogram with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Histogram {
        Histogram::with_shards(DEFAULT_SHARDS)
    }

    /// A histogram with an explicit shard count (clamped to ≥ 1).
    pub fn with_shards(shards: usize) -> Histogram {
        Histogram {
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
            exemplar: Exemplar::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Records one observation in the calling thread's shard.
    pub fn observe(&self, value: u64) {
        let slot = SHARD_SLOT.with(|s| *s);
        self.shards[slot % self.shards.len()].record(value);
    }

    /// Records one observation in an explicit shard — for tests and
    /// merge-equivalence checks that need a known distribution of
    /// observations across shards.
    pub fn observe_in_shard(&self, shard: usize, value: u64) {
        self.shards[shard % self.shards.len()].record(value);
    }

    /// [`Histogram::observe`] plus an exemplar offer: when `value`
    /// beats the window maximum, `tag` (a request trace id) becomes the
    /// window's exemplar — retrievable with
    /// [`Histogram::take_exemplar`].
    pub fn observe_tagged(&self, value: u64, tag: u64) {
        self.observe(value);
        self.exemplar.offer(value, tag);
    }

    /// Ends the exemplar window: the `(value, tag)` of the maximum
    /// tagged observation since the previous take, or `None` when no
    /// tagged observation arrived.  Bucket counts and sums are
    /// untouched — only the exemplar window resets.
    pub fn take_exemplar(&self) -> Option<(u64, u64)> {
        self.exemplar.take()
    }

    /// A merged snapshot over every shard.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for shard in &self.shards {
            merged.merge(&shard.snapshot());
        }
        merged
    }

    /// One snapshot per shard, unmerged — [`HistogramSnapshot::merge`]
    /// over these must equal [`Histogram::snapshot`].
    pub fn shard_snapshots(&self) -> Vec<HistogramSnapshot> {
        self.shards.iter().map(Shard::snapshot).collect()
    }
}

/// An immutable point-in-time copy of a histogram: exact count, exact
/// (saturating) sum, and every bucket total.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, saturating at `u64::MAX`.
    pub sum: u64,
    /// Per-bucket observation counts ([`BUCKET_COUNT`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; BUCKET_COUNT],
        }
    }

    /// Adds another snapshot into this one: counts and buckets add
    /// exactly, sums saturate.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// The quantile `q` (in `[0, 1]`), reported as the upper bound of
    /// the bucket holding the rank-`⌈q·count⌉` observation.  Returns 0
    /// for an empty snapshot.  Because buckets are fixed, the answer is
    /// deterministic for a given multiset of observations.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(BUCKET_COUNT - 1).1
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(lo, hi, count)` triples, in value
    /// order — the compact wire form of the distribution.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_whole_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKET_COUNT {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn observations_land_in_their_buckets_with_exact_count_and_sum() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1024, 1500] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 2530);
        assert_eq!(s.buckets[bucket_index(0)], 1);
        assert_eq!(s.buckets[bucket_index(1)], 1);
        assert_eq!(s.buckets[bucket_index(2)], 2); // 2 and 3
        assert_eq!(s.buckets[bucket_index(1024)], 2); // 1024 and 1500
        assert_eq!(s.nonzero_buckets().len(), 4);
    }

    #[test]
    fn concurrent_observers_lose_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for v in 0..1000u64 {
                        h.observe(v);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.sum, 8 * (999 * 1000 / 2));
    }

    #[test]
    fn exemplar_keeps_the_max_latency_tag_per_window() {
        let h = Histogram::new();
        h.observe_tagged(100, 1);
        h.observe_tagged(900, 2);
        h.observe_tagged(400, 3);
        assert_eq!(h.take_exemplar(), Some((900, 2)));
        // The window resets; observations are untouched.
        assert_eq!(h.take_exemplar(), None);
        assert_eq!(h.snapshot().count, 3);
        // A fresh window tracks its own maximum, even a smaller one.
        h.observe_tagged(50, 4);
        assert_eq!(h.take_exemplar(), Some((50, 4)));
    }

    #[test]
    fn exemplar_ties_keep_the_first_seen_tag() {
        let e = Exemplar::new();
        e.offer(700, 10);
        e.offer(700, 11);
        assert_eq!(e.take(), Some((700, 10)));
        // Zero-valued observations still register in an empty window.
        e.offer(0, 12);
        assert_eq!(e.take(), Some((0, 12)));
        assert_eq!(e.take(), None);
    }

    #[test]
    fn concurrent_exemplar_offers_keep_the_true_maximum() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = &h;
                scope.spawn(move || {
                    for v in 0..1000u64 {
                        h.observe_tagged(v, t * 10_000 + v);
                    }
                });
            }
        });
        let (value, tag) = h.take_exemplar().expect("offers arrived");
        assert_eq!(value, 999);
        assert_eq!(tag % 10_000, 999, "tag belongs to a max observation");
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut s = HistogramSnapshot::empty();
        // 90 observations of 100 (bucket [64,127]), 10 of 10_000
        // (bucket [8192,16383]).
        s.count = 100;
        s.buckets[bucket_index(100)] = 90;
        s.buckets[bucket_index(10_000)] = 10;
        assert_eq!(s.p50(), 127);
        assert_eq!(s.p90(), 127);
        assert_eq!(s.p99(), 16383);
        assert_eq!(s.quantile(1.0), 16383);
    }
}

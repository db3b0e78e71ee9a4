//! Monotonic counters and log-linear histograms behind a cheap
//! name-keyed registry.
//!
//! Handles ([`Counter`], [`Histogram`]) are `Arc`-backed and can be
//! cloned into worker threads; updates are single relaxed atomic
//! operations, so instrumenting a hot loop costs nanoseconds. A handle
//! obtained from a *disabled* telemetry carries no cell at all — its
//! update methods are a branch on `None` and compile down to nothing
//! observable, which is what keeps the disabled path negligible.
//!
//! ## Bucket layout
//!
//! Histograms are **log-linear**: each power of two is subdivided into
//! [`SUBBUCKETS`] = 16 linear sub-buckets, so a recorded value lands in
//! a bucket whose width is at most 1/16 of its lower bound. That bounds
//! the relative error of [`Histogram::quantile`] by one sub-bucket
//! (≤ 1/16; ≤ 1/32 for the midpoint representative actually returned),
//! where the earlier log₂-only layout could only bracket a p99 within
//! 2×. Values below 16 get exact unit-width buckets.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A handle that ignores every update (the disabled-telemetry path).
    pub fn disabled() -> Counter {
        Counter::default()
    }

    pub(crate) fn live(cell: Arc<AtomicU64>) -> Counter {
        Counter { cell: Some(cell) }
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            // Counters are pure tallies: no other memory is published
            // through them.
            // ORDER: Relaxed — independent tally.
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        // ORDER: Relaxed — an advisory read of a tally; staleness is fine.
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Linear sub-buckets per power of two. 16 sub-buckets bound the
/// relative quantile error at 1/16.
pub const SUBBUCKETS: usize = 16;

/// Total log-linear buckets: 16 exact unit buckets for values `< 16`,
/// then 16 sub-buckets for each power of two from `2^4` through `2^63`.
const NUM_BUCKETS: usize = SUBBUCKETS + 60 * SUBBUCKETS;

/// The log-linear bucket index for `value`.
fn bucket_index(value: u64) -> usize {
    if value < SUBBUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize; // value ∈ [2^msb, 2^(msb+1))
    let sub = ((value >> (msb - 4)) & 0xF) as usize;
    (msb - 3) * SUBBUCKETS + sub
}

/// The `[lo, hi)` value range of bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUBBUCKETS {
        return (index as u64, index as u64 + 1);
    }
    let msb = index / SUBBUCKETS + 3;
    let sub = (index % SUBBUCKETS) as u64;
    let width = 1u64 << (msb - 4);
    let lo = (1u64 << msb) + sub * width;
    (lo, lo.saturating_add(width))
}

/// The representative value reported for bucket `index`: the exact value
/// for unit-width buckets, the bucket midpoint otherwise (relative error
/// to any member ≤ 1/32).
fn bucket_representative(index: usize) -> u64 {
    let (lo, hi) = bucket_bounds(index);
    if hi - lo <= 1 {
        lo
    } else {
        lo + (hi - lo) / 2
    }
}

/// Shared histogram storage: log-linear buckets over `u64` values plus
/// count/sum/min/max.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64, // stores value + 1 so 0 can mean "empty"
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A histogram handle recording `u64` observations (typically
/// nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

/// A point-in-time histogram summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramStats {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramStats {
    /// Mean of the recorded values (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count as f64
    }
}

/// One non-empty log-linear bucket in a [`Histogram::nonzero_buckets`]
/// snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Smallest value the bucket covers (inclusive).
    pub lo: u64,
    /// Smallest value above the bucket (exclusive upper bound).
    pub hi: u64,
    /// Observations recorded into the bucket.
    pub count: u64,
}

impl Histogram {
    /// A handle that ignores every update (the disabled-telemetry path).
    pub fn disabled() -> Histogram {
        Histogram::default()
    }

    pub(crate) fn live(cell: Arc<HistogramCell>) -> Histogram {
        Histogram { cell: Some(cell) }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(cell) = &self.cell {
            // Histogram cells are independent tallies: snapshots tolerate
            // torn reads across fields (count may run ahead of buckets),
            // so no update needs to publish or observe other memory.
            cell.count.fetch_add(1, Ordering::Relaxed); // ORDER: Relaxed — independent tally
            cell.sum.fetch_add(value, Ordering::Relaxed); // ORDER: Relaxed — independent tally
            cell.max.fetch_max(value, Ordering::Relaxed); // ORDER: Relaxed — independent tally
            let shifted = value.saturating_add(1);
            // min stores value+1; 0 means "no observation yet"
            cell.min // ORDER: Relaxed (success & failure) — single-cell CAS, no cross-cell ordering
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                    if cur == 0 || shifted < cur {
                        Some(shifted)
                    } else {
                        None
                    }
                })
                .ok();
            if let Some(bucket) = cell.buckets.get(bucket_index(value)) {
                // ORDER: Relaxed — independent tally (see above).
                bucket.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The current summary (all zeros for a disabled or empty handle).
    pub fn snapshot(&self) -> HistogramStats {
        match &self.cell {
            None => HistogramStats {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
            },
            // A snapshot is advisory: the four reads need no mutual
            // consistency, only per-read atomicity.
            Some(cell) => HistogramStats {
                count: cell.count.load(Ordering::Relaxed), // ORDER: Relaxed — advisory read
                sum: cell.sum.load(Ordering::Relaxed),     // ORDER: Relaxed — advisory read
                min: cell.min.load(Ordering::Relaxed).saturating_sub(1), // ORDER: Relaxed — advisory read
                max: cell.max.load(Ordering::Relaxed), // ORDER: Relaxed — advisory read
            },
        }
    }

    /// The non-empty log-linear buckets, in ascending value order.
    pub fn nonzero_buckets(&self) -> Vec<BucketCount> {
        let Some(cell) = self.cell.as_ref() else {
            return Vec::new();
        };
        cell.buckets
            .iter()
            .enumerate()
            .filter_map(|(index, bucket)| {
                // ORDER: Relaxed — advisory read of independent tallies.
                let count = bucket.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let (lo, hi) = bucket_bounds(index);
                Some(BucketCount { lo, hi, count })
            })
            .collect()
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) of the recorded values, with
    /// relative error bounded by one sub-bucket (≤ 1/16; the returned
    /// midpoint is within 1/32 of any value in the bucket). Uses the
    /// same nearest-rank convention as sorting the samples and taking
    /// index `round(q · (n−1))`, so it can be compared directly against
    /// exact sample quantiles. Returns 0 when empty or disabled.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(cell) = self.cell.as_ref() else {
            return 0;
        };
        // Quantiles over a live histogram are approximate by design;
        // see the count-vs-buckets fallback below.
        // ORDER: Relaxed — advisory read.
        let n = cell.count.load(Ordering::Relaxed);
        if n == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (n - 1) as f64).round() as u64;
        let mut cumulative = 0u64;
        for (index, bucket) in cell.buckets.iter().enumerate() {
            // ORDER: Relaxed — advisory read of independent tallies.
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative > rank {
                return bucket_representative(index);
            }
        }
        // Concurrent recording can leave count ahead of the bucket sums;
        // the largest observed value is the honest fallback.
        // ORDER: Relaxed — advisory read.
        cell.max.load(Ordering::Relaxed)
    }
}

/// Name-keyed storage behind a `Telemetry`.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
}

impl Registry {
    pub(crate) fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let cell = map
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter::live(Arc::clone(cell))
    }

    pub(crate) fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        let cell = map
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(HistogramCell::default()));
        Histogram::live(Arc::clone(cell))
    }

    pub(crate) fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            // ORDER: Relaxed — advisory read for reporting.
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect()
    }

    pub(crate) fn histogram_values(&self) -> Vec<(String, HistogramStats)> {
        self.histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, cell)| (name.clone(), Histogram::live(Arc::clone(cell)).snapshot()))
            .collect()
    }

    pub(crate) fn histogram_handles(&self) -> Vec<(String, Histogram)> {
        self.histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, cell)| (name.clone(), Histogram::live(Arc::clone(cell))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_atomic_under_scoped_contention() {
        let registry = Registry::default();
        let counter = registry.counter("contended");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let handle = counter.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        handle.incr();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 80_000);
        assert_eq!(
            registry.counter_values(),
            vec![("contended".into(), 80_000)]
        );
    }

    #[test]
    fn same_name_shares_the_cell() {
        let registry = Registry::default();
        registry.counter("x").add(3);
        registry.counter("x").add(4);
        assert_eq!(registry.counter("x").get(), 7);
    }

    #[test]
    fn disabled_handles_ignore_updates() {
        let c = Counter::disabled();
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = Histogram::disabled();
        h.record(10);
        assert_eq!(h.snapshot().count, 0);
        assert!(h.nonzero_buckets().is_empty());
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn histogram_tracks_summary_and_buckets() {
        let registry = Registry::default();
        let h = registry.histogram("ns");
        for v in [0u64, 1, 2, 3, 900] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 906);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 900);
        assert!((snap.mean() - 181.2).abs() < 1e-9);
        let buckets: Vec<(u64, u64, u64)> = h
            .nonzero_buckets()
            .iter()
            .map(|b| (b.lo, b.hi, b.count))
            .collect();
        // Unit-width cells below 16; 900 lands in the 32-wide [896, 928).
        assert_eq!(
            buckets,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (896, 928, 1)]
        );
    }

    #[test]
    fn histogram_is_atomic_under_scoped_contention() {
        let registry = Registry::default();
        let h = registry.histogram("contended");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let handle = h.clone();
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        handle.record(t * 5_000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 20_000);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 19_999);
        assert_eq!(snap.sum, (0..20_000u64).sum::<u64>());
    }

    #[test]
    fn bucket_index_and_bounds_are_inverse() {
        // Every bucket's bounds contain exactly the values that map back
        // to its index.
        for index in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(index);
            assert_eq!(bucket_index(lo), index, "lo of bucket {index}");
            if hi > lo + 1 && hi != u64::MAX {
                assert_eq!(bucket_index(hi - 1), index, "hi-1 of bucket {index}");
            }
            let rep = bucket_representative(index);
            assert!(rep >= lo && rep < hi.max(lo + 1), "rep of bucket {index}");
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn sub_bucket_width_bounds_relative_error() {
        for index in SUBBUCKETS..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(index);
            let width = hi - lo;
            assert!(
                width * SUBBUCKETS as u64 <= lo,
                "bucket {index}: width {width} > lo/{SUBBUCKETS} ({lo})"
            );
        }
    }

    #[test]
    fn nonzero_buckets_partition_the_count() {
        let registry = Registry::default();
        let h = registry.histogram("ns");
        for v in [0u64, 5, 17, 17, 1_000, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), 7);
        assert!(buckets.windows(2).all(|w| match w {
            [a, b] => a.hi <= b.lo,
            _ => true,
        }));
        for b in &buckets {
            assert!(b.count > 0 && b.lo < b.hi);
        }
    }

    #[test]
    fn quantile_on_a_known_distribution() {
        let registry = Registry::default();
        let h = registry.histogram("ns");
        for v in 1..=1_000u64 {
            h.record(v);
        }
        for (q, exact) in [
            (0.0, 1u64),
            (0.5, 500),
            (0.9, 900),
            (0.99, 990),
            (1.0, 1000),
        ] {
            let got = h.quantile(q);
            let err = got.abs_diff(exact) as f64 / exact as f64;
            assert!(
                err <= 1.0 / SUBBUCKETS as f64,
                "q={q}: got {got}, exact {exact}, rel err {err}"
            );
        }
    }
}

//! The partition cache.
//!
//! Sharded execution resolves each row's group in O(1) through
//! [`GroupIndex::group_of`], and [`PartitionCache`] memoizes the
//! [`GroupIndex`] so repeated audits of the same dataset skip its build.
//! An entry is identified by its content: a hit is served only when the
//! protected names and columns (levels and codes) equal the ones the
//! index was built from, so no other dataset can ever receive it
//! (or, in the daemon, another tenant's level names).
//!
//! The cache is **bounded**: at most `capacity` partitions are retained,
//! with least-recently-used eviction, and every hit/miss/insert/eviction
//! is counted — [`PartitionCache::stats`] exposes the [`CacheStats`]
//! snapshot the telemetry layer relies on.

use crate::error::EngineError;
use fairbridge_tabular::{Column, Dataset, GroupIndex};
use std::sync::{Arc, Mutex, MutexGuard};

/// The outcome of one cache lookup, as the telemetry layer records it.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLookup {
    /// The partition (served or freshly built).
    pub partition: Arc<GroupIndex>,
    /// Whether the cache already held it.
    pub hit: bool,
    /// Insert sequence number (1-based) of the entry that served the
    /// lookup, or of the entry built on the miss — ties a hit to the
    /// build that produced it.
    pub entry: u64,
}

/// A point-in-time summary of the cache's effectiveness and occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a partition.
    pub misses: u64,
    /// Partitions inserted (== misses, kept separate for clarity).
    pub inserts: u64,
    /// Partitions evicted to respect the capacity bound.
    pub evictions: u64,
    /// Partitions currently retained.
    pub len: usize,
    /// The configured retention bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (NaN when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}

/// Default retention bound: generous for realistic audit fleets, small
/// enough that a pathological caller cannot hold every dataset alive.
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

struct CacheEntry {
    /// The protected-attribute names, in request order.
    protected: Vec<String>,
    /// The protected columns the partition was built from, in
    /// `protected` order.
    columns: Vec<Column>,
    partition: Arc<GroupIndex>,
    /// Insert sequence number, reported as [`CacheLookup::entry`].
    seq: u64,
    last_used: u64,
}

impl CacheEntry {
    /// Whether this entry was built from exactly `columns` under the
    /// names `protected`. Only categorical and boolean columns reach the
    /// cache (`GroupIndex::build` rejects numeric ones), so derived
    /// equality is exact, and a mismatch stops at the first differing
    /// element.
    fn built_from(&self, protected: &[&str], columns: &[&Column]) -> bool {
        self.protected
            .iter()
            .map(String::as_str)
            .eq(protected.iter().copied())
            && self.columns.iter().eq(columns.iter().copied())
    }

    fn lookup(&self, hit: bool) -> CacheLookup {
        CacheLookup {
            partition: Arc::clone(&self.partition),
            hit,
            entry: self.seq,
        }
    }
}

impl std::fmt::Debug for CacheEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheEntry")
            .field("protected", &self.protected)
            .field("seq", &self.seq)
            .field("last_used", &self.last_used)
            .finish()
    }
}

/// Everything behind the cache's one mutex: the entries, in insertion
/// order, and the counters every lookup updates while holding it.
#[derive(Debug, Default)]
struct CacheState {
    entries: Vec<CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
}

impl CacheState {
    fn find(&mut self, protected: &[&str], columns: &[&Column]) -> Option<&mut CacheEntry> {
        self.entries
            .iter_mut()
            .find(|e| e.built_from(protected, columns))
    }
}

/// A thread-safe, bounded, LRU-evicting memo of [`GroupIndex`]es,
/// identified by the protected-attribute names and columns they were
/// built from.
///
/// A lookup scans the at most `capacity` entries and serves one whose
/// names and columns equal the request's. The entries live in a `Vec`
/// in insertion order, so every scan — lookup and LRU eviction — visits
/// them in the same order on every run: there is no hash-seed
/// randomness anywhere in the audit path (fb-lint rule D1).
#[derive(Debug)]
pub struct PartitionCache {
    capacity: usize,
    state: Mutex<CacheState>,
}

impl Default for PartitionCache {
    fn default() -> Self {
        PartitionCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl PartitionCache {
    /// Creates an empty cache with the default capacity
    /// ([`DEFAULT_CACHE_CAPACITY`]).
    pub fn new() -> PartitionCache {
        PartitionCache::default()
    }

    /// Creates an empty cache retaining at most `capacity` partitions
    /// (minimum 1). The eviction tests' seam; every engine uses
    /// [`DEFAULT_CACHE_CAPACITY`].
    fn with_capacity(capacity: usize) -> PartitionCache {
        PartitionCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState::default()),
        }
    }

    /// Locks the cache state, absorbing poisoning: it holds only
    /// memoized partitions and counters, so a panic in another thread
    /// cannot leave it logically inconsistent — serving from it stays
    /// sound.
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up (building on miss) the partition for `(ds, protected)`
    /// and reports whether it was a hit — the traced entry point.
    pub fn fetch(&self, ds: &Dataset, protected: &[&str]) -> Result<CacheLookup, EngineError> {
        let columns = protected
            .iter()
            .map(|name| ds.column(name))
            .collect::<Result<Vec<_>, _>>()?;
        let stamp = {
            let mut state = self.state();
            state.tick += 1;
            let stamp = state.tick;
            if let Some(entry) = state.find(protected, &columns) {
                entry.last_used = stamp;
                let lookup = entry.lookup(true);
                state.hits += 1;
                return Ok(lookup);
            }
            stamp
        };
        // Build outside the lock: partition construction is the
        // expensive part and must not serialize other lookups.
        let built = Arc::new(GroupIndex::build(ds, protected)?);
        let mut state = self.state();
        state.misses += 1;
        // A racing builder may have inserted meanwhile; keep the first.
        if let Some(entry) = state.find(protected, &columns) {
            entry.last_used = stamp;
            return Ok(entry.lookup(false));
        }
        if state.entries.len() >= self.capacity {
            // Stamps are unique, so the LRU minimum is unique too.
            let oldest = state
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            if let Some(i) = oldest {
                state.entries.remove(i);
                state.evictions += 1;
            }
        }
        state.inserts += 1;
        let entry = CacheEntry {
            protected: protected.iter().map(|s| (*s).to_owned()).collect(),
            columns: columns.into_iter().cloned().collect(),
            partition: built,
            seq: state.inserts,
            last_used: stamp,
        };
        let lookup = entry.lookup(false);
        state.entries.push(entry);
        Ok(lookup)
    }

    /// Returns the cached partition for `(ds, protected)`, building and
    /// inserting it on first use.
    pub fn get_or_build(
        &self,
        ds: &Dataset,
        protected: &[&str],
    ) -> Result<Arc<GroupIndex>, EngineError> {
        self.fetch(ds, protected).map(|lookup| lookup.partition)
    }

    /// A point-in-time stats snapshot, read under the cache's lock.
    pub fn stats(&self) -> CacheStats {
        let state = self.state();
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            inserts: state.inserts,
            evictions: state.evictions,
            len: state.entries.len(),
            capacity: self.capacity,
        }
    }

    /// Number of cached partitions.
    pub fn len(&self) -> usize {
        self.state().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_tabular::{GroupKey, Role};

    fn sample() -> Dataset {
        Dataset::builder()
            .categorical_with_role(
                "sex",
                vec!["male", "female"],
                vec![0, 1, 0, 1, 1, 0],
                Role::Protected,
            )
            .boolean_with_role(
                "hired",
                vec![true, false, true, false, true, false],
                Role::Label,
            )
            .build()
            .unwrap()
    }

    /// A four-row dataset whose last protected code varies with
    /// `variant`, so each of the first three variants is distinct.
    fn variant(variant: u32) -> Dataset {
        Dataset::builder()
            .categorical_with_role(
                "g",
                vec!["a", "b", "c"],
                vec![0, 1, 2, variant % 3],
                Role::Protected,
            )
            .boolean_with_role("y", vec![true, false, true, false], Role::Label)
            .build()
            .unwrap()
    }

    #[test]
    fn partition_inverts_the_group_index() {
        let ds = sample();
        let p = PartitionCache::new().get_or_build(&ds, &["sex"]).unwrap();
        assert_eq!(p.n_groups(), 2);
        assert_eq!(p.n_rows(), 6);
        // keys are sorted: "female" < "male"
        assert_eq!(p.keys()[0], GroupKey(vec!["female".into()]));
        for (row, expected) in [(0, 1), (1, 0), (2, 1), (3, 0), (4, 0), (5, 1)] {
            assert_eq!(p.group_of(row), expected, "row {row}");
        }
        for (g, (_, rows)) in p.iter().enumerate() {
            assert!(rows.iter().all(|&r| p.group_of(r) == g));
        }
    }

    #[test]
    fn unknown_column_is_a_typed_dataset_error() {
        let cache = PartitionCache::new();
        let err = cache.fetch(&sample(), &["nope"]).unwrap_err();
        assert!(matches!(err, EngineError::Dataset(_)), "{err:?}");
        assert_eq!(
            cache.stats(),
            CacheStats {
                capacity: DEFAULT_CACHE_CAPACITY,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn cache_hits_return_the_same_partition_and_count() {
        let ds = sample();
        let cache = PartitionCache::new();
        assert!(cache.is_empty());
        let first = cache.fetch(&ds, &["sex"]).unwrap();
        assert!(!first.hit);
        let second = cache.fetch(&ds, &["sex"]).unwrap();
        assert!(second.hit);
        assert_eq!((first.entry, second.entry), (1, 1));
        assert!(Arc::ptr_eq(&first.partition, &second.partition));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.fetch(&ds, &["hired"]).unwrap().entry, 2);
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 2, 2));
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.capacity, DEFAULT_CACHE_CAPACITY);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn datasets_alike_in_names_and_rows_build_their_own_partitions() {
        let cache = PartitionCache::new();
        let first = sample();
        let protected = |levels: Vec<&str>, codes: Vec<u32>| {
            Dataset::builder()
                .categorical_with_role("sex", levels, codes, Role::Protected)
                .build()
                .unwrap()
        };
        // Same protected name and row count, other levels and codes.
        let other = protected(vec!["tenant-b-x", "tenant-b-y"], vec![1, 1, 0, 1, 0, 0]);
        // Differs from `first` only in its last protected code.
        let last_code = protected(vec!["male", "female"], vec![0, 1, 0, 1, 1, 1]);
        let own = |ds: &Dataset| GroupIndex::build(ds, &["sex"]).unwrap();
        let a = cache.fetch(&first, &["sex"]).unwrap();
        for (ds, entry) in [(&other, 2), (&last_code, 3)] {
            let b = cache.fetch(ds, &["sex"]).unwrap();
            assert!(!b.hit, "different content is a miss");
            assert_eq!(b.entry, entry);
            assert_eq!(*b.partition, own(ds));
            assert_ne!(*b.partition, *a.partition);
        }
        // Each dataset is then served the entry built from it.
        for (ds, entry) in [(&first, 1), (&other, 2), (&last_code, 3)] {
            let again = cache.fetch(ds, &["sex"]).unwrap();
            assert!(again.hit);
            assert_eq!(again.entry, entry);
            assert_eq!(*again.partition, own(ds));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (3, 3, 3));
    }

    #[test]
    fn capacity_bound_evicts_the_least_recently_used() {
        let cache = PartitionCache::with_capacity(2);
        let (a, b, c) = (variant(0), variant(1), variant(2));
        cache.get_or_build(&a, &["g"]).unwrap();
        cache.get_or_build(&b, &["g"]).unwrap();
        // touch `a` so `b` becomes the LRU entry
        assert!(cache.fetch(&a, &["g"]).unwrap().hit);
        cache.get_or_build(&c, &["g"]).unwrap(); // evicts `b`
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.fetch(&a, &["g"]).unwrap().hit, "a survived");
        assert!(cache.fetch(&c, &["g"]).unwrap().hit, "c survived");
        assert!(!cache.fetch(&b, &["g"]).unwrap().hit, "b was evicted");
    }

    /// A dataset that is distinct per `v` (row count differs).
    fn sized(v: usize) -> Dataset {
        let n = 4 + v;
        Dataset::builder()
            .categorical_with_role(
                "g",
                vec!["a", "b"],
                (0..n).map(|i| (i % 2) as u32).collect(),
                Role::Protected,
            )
            .boolean_with_role("y", (0..n).map(|i| i % 2 == 0).collect(), Role::Label)
            .build()
            .unwrap()
    }

    /// Regression for the D1 determinism hazard this module used to
    /// carry: the entries are kept in insertion order, so every observable
    /// of an identical workload — hit pattern, survivors, stats — is
    /// identical run to run, with no hash-seed state to diverge.
    #[test]
    fn cache_observables_are_iteration_order_independent() {
        let workload = [0usize, 1, 2, 0, 1, 3, 0, 4, 1];
        let run = || {
            let cache = PartitionCache::with_capacity(3);
            let hits: Vec<bool> = workload
                .iter()
                .map(|&v| cache.fetch(&sized(v), &["g"]).unwrap().hit)
                .collect();
            let evictions = cache.stats().evictions;
            let probes: Vec<bool> = (0..5)
                .map(|v| cache.fetch(&sized(v), &["g"]).unwrap().hit)
                .collect();
            (hits, probes, evictions)
        };
        let (hits, probes, evictions) = run();
        // Pinned by hand from the LRU semantics: after the workload the
        // cache holds {0, 1, 4}. The probe pass is itself a workload —
        // probe misses insert and evict — so probe 2 evicts the LRU
        // entry and by probe 4 that key is gone again. All of that is
        // part of the pinned, order-independent behaviour.
        assert_eq!(
            hits,
            [false, false, false, true, true, false, true, false, false]
        );
        assert_eq!(probes, [true, true, false, false, false]);
        assert_eq!(evictions, 3);
        // And the whole thing replays bitwise.
        assert_eq!(run(), (hits, probes, evictions));
    }

    #[test]
    fn capacity_is_at_least_one() {
        let cache = PartitionCache::with_capacity(0);
        assert_eq!(cache.stats().capacity, 1);
        cache.get_or_build(&variant(0), &["g"]).unwrap();
        cache.get_or_build(&variant(1), &["g"]).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }
}

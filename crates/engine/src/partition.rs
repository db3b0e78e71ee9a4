//! Group partitions and the partition cache.
//!
//! Sharded execution needs a *row → group* map rather than the
//! *group → rows* map that [`GroupIndex`] materializes: a shard walks a
//! contiguous row range and must resolve each row's group in O(1).
//! [`Partition`] inverts the index once (preserving the sorted key order
//! every metric iterates in), and [`PartitionCache`] memoizes partitions
//! keyed by a dataset fingerprint plus the protected-attribute set, so
//! repeated audits of the same dataset skip the `GroupIndex` build. The
//! fingerprint only finds the candidate entry: a hit is served after the
//! protected columns compare equal to the ones the partition was built
//! from, so a colliding dataset can never receive another dataset's
//! partition (or, in the daemon, another tenant's level names).
//!
//! The cache is **bounded**: at most `capacity` partitions are retained,
//! with least-recently-used eviction, and every hit/miss/insert/eviction
//! is counted — [`PartitionCache::stats`] exposes the [`CacheStats`]
//! snapshot the telemetry layer relies on.

use crate::error::EngineError;
use fairbridge_metrics::GroupAccumulator;
use fairbridge_tabular::{Column, Dataset, GroupIndex, GroupKey, GroupSpec};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A row-addressable group partition: sorted keys plus a dense
/// `row → group-id` map (ids index into [`Partition::keys`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    keys: Vec<GroupKey>,
    row_groups: Vec<u32>,
}

impl Partition {
    /// Builds the partition for the intersection of `protected` columns.
    pub fn build(ds: &Dataset, protected: &[&str]) -> Result<Partition, EngineError> {
        let spec = GroupSpec::intersection(protected.to_vec());
        let index = GroupIndex::build(ds, &spec)?;
        let keys: Vec<GroupKey> = index.iter().map(|(k, _)| k.clone()).collect();
        let mut row_groups = vec![0u32; index.n_rows()];
        for (gid, (_, rows)) in index.iter().enumerate() {
            for &r in rows {
                row_groups[r] = gid as u32;
            }
        }
        Ok(Partition { keys, row_groups })
    }

    /// The group keys, sorted (the order metrics iterate in).
    pub fn keys(&self) -> &[GroupKey] {
        &self.keys
    }

    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.keys.len()
    }

    /// Number of rows in the partitioned dataset.
    pub fn n_rows(&self) -> usize {
        self.row_groups.len()
    }

    /// The group id of a row (index into [`Partition::keys`]).
    pub fn group_of(&self, row: usize) -> usize {
        self.row_groups[row] as usize
    }

    /// An empty accumulator structurally compatible with this partition.
    pub fn empty_accumulator(&self, has_labels: bool) -> GroupAccumulator {
        GroupAccumulator::with_keys(self.keys.clone(), has_labels)
            // fb-lint: allow(P1): keys come from GroupIndex — sorted and unique by construction
            .expect("partition keys are sorted and unique")
    }
}

/// 64-bit FNV-1a fingerprint of the columns that determine a partition:
/// row count plus each protected column's name, kind and codes. Two
/// datasets with identical protected columns collide on purpose — they
/// induce the same partition.
pub fn dataset_fingerprint(ds: &Dataset, protected: &[&str]) -> Result<u64, EngineError> {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(ds.n_rows() as u64).to_le_bytes());
    for name in protected {
        eat(name.as_bytes());
        eat(&[0xff]);
        let col = ds.column(name)?;
        match col {
            Column::Categorical { levels, codes } => {
                eat(&[1]);
                for l in levels {
                    eat(l.as_bytes());
                    eat(&[0xff]);
                }
                for &c in codes {
                    eat(&c.to_le_bytes());
                }
            }
            Column::Boolean(v) => {
                eat(&[2]);
                for &b in v {
                    eat(&[u8::from(b)]);
                }
            }
            Column::Numeric(v) => {
                eat(&[3]);
                for &x in v {
                    eat(&x.to_bits().to_le_bytes());
                }
            }
        }
    }
    Ok(h)
}

/// Cache key: `(dataset fingerprint, protected-attribute set)`.
type CacheKey = (u64, Vec<String>);

/// The outcome of one cache lookup, as the telemetry layer records it.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLookup {
    /// The partition (served or freshly built).
    pub partition: Arc<Partition>,
    /// Whether the cache already held it.
    pub hit: bool,
    /// The dataset fingerprint that keyed the lookup.
    pub fingerprint: u64,
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
    partition: Arc<Partition>,
    /// The protected columns the partition was built from, in
    /// `protected` order.
    columns: Vec<Column>,
    last_used: u64,
}

impl CacheEntry {
    /// Whether this entry was built from exactly `columns`. Only
    /// categorical and boolean columns reach the cache (`Partition::build`
    /// rejects numeric ones), so derived equality is exact.
    fn built_from(&self, columns: &[&Column]) -> bool {
        self.columns.iter().eq(columns.iter().copied())
    }
}

/// A thread-safe, bounded, LRU-evicting memo of [`Partition`]s keyed by
/// `(dataset fingerprint, protected-attribute set)`.
///
/// The entry map is a `BTreeMap`, not a `HashMap`: the cache sits inside
/// the deterministic audit engine, and an ordered map guarantees that any
/// iteration over it (today: the LRU eviction scan) visits entries in key
/// order on every run — there is no hash-seed randomness anywhere in the
/// audit path (fb-lint rule D1).
#[derive(Debug)]
pub struct PartitionCache {
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    entries: Mutex<BTreeMap<CacheKey, CacheEntry>>,
}

impl std::fmt::Debug for CacheEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheEntry")
            .field("last_used", &self.last_used)
            .finish()
    }
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
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// Locks the entry map, absorbing poisoning: the map holds only
    /// memoized partitions, so a panic in another thread cannot leave it
    /// logically inconsistent — serving from it stays sound.
    fn entries(&self) -> MutexGuard<'_, BTreeMap<CacheKey, CacheEntry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up (building on miss) the partition for `(ds, protected)`
    /// and reports whether it was a hit — the traced entry point.
    pub fn fetch(&self, ds: &Dataset, protected: &[&str]) -> Result<CacheLookup, EngineError> {
        self.fetch_keyed(dataset_fingerprint(ds, protected)?, ds, protected)
    }

    /// [`PartitionCache::fetch`] under a given fingerprint — the seam
    /// that lets tests force two datasets onto one fingerprint.
    fn fetch_keyed(
        &self,
        fingerprint: u64,
        ds: &Dataset,
        protected: &[&str],
    ) -> Result<CacheLookup, EngineError> {
        let columns = protected
            .iter()
            .map(|name| ds.column(name))
            .collect::<Result<Vec<_>, _>>()?;
        let key = (
            fingerprint,
            protected
                .iter()
                .map(|s| (*s).to_owned())
                .collect::<Vec<_>>(),
        );
        // Stamps only need to be unique and monotone per-counter;
        // cross-thread LRU ordering is settled under the entries mutex,
        // never by the atomic itself.
        // ORDER: Relaxed — uniqueness only, no memory is published.
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(entry) = self
            .entries()
            .get_mut(&key)
            .filter(|e| e.built_from(&columns))
        {
            entry.last_used = stamp;
            // Readers only ever see this via a point-in-time snapshot.
            // ORDER: Relaxed — monotonic stat counter.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(CacheLookup {
                partition: Arc::clone(&entry.partition),
                hit: true,
                fingerprint,
            });
        }
        // Build outside the lock: partition construction is the
        // expensive part and must not serialize other lookups.
        let built = Arc::new(Partition::build(ds, protected)?);
        // ORDER: Relaxed — stat counter, no data is published through it.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries();
        // A racing builder may have inserted meanwhile; keep the first.
        if let Some(entry) = entries.get_mut(&key).filter(|e| e.built_from(&columns)) {
            entry.last_used = stamp;
            return Ok(CacheLookup {
                partition: Arc::clone(&entry.partition),
                hit: false,
                fingerprint,
            });
        }
        // An entry under this key built from other columns is a
        // fingerprint collision: the new partition replaces it.
        entries.remove(&key);
        while entries.len() >= self.capacity {
            // Stamps are unique (fetch_add), so the LRU minimum is unique
            // too; iterating the BTreeMap visits keys in sorted order, so
            // even a hypothetical tie would break deterministically.
            let oldest = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    entries.remove(&k);
                    // The entries mutex already orders the eviction.
                    // ORDER: Relaxed — stat counter.
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        entries.insert(
            key,
            CacheEntry {
                partition: Arc::clone(&built),
                columns: columns.into_iter().cloned().collect(),
                last_used: stamp,
            },
        );
        // The insert itself was ordered by the entries mutex above.
        // ORDER: Relaxed — stat counter.
        self.inserts.fetch_add(1, Ordering::Relaxed);
        Ok(CacheLookup {
            partition: built,
            hit: false,
            fingerprint,
        })
    }

    /// Returns the cached partition for `(ds, protected)`, building and
    /// inserting it on first use.
    pub fn get_or_build(
        &self,
        ds: &Dataset,
        protected: &[&str],
    ) -> Result<Arc<Partition>, EngineError> {
        self.fetch(ds, protected).map(|lookup| lookup.partition)
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> CacheStats {
        // A stats snapshot is advisory; the four counters need no
        // mutual consistency, only per-read atomicity.
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed), // ORDER: Relaxed — advisory stat
            misses: self.misses.load(Ordering::Relaxed), // ORDER: Relaxed — advisory stat
            inserts: self.inserts.load(Ordering::Relaxed), // ORDER: Relaxed — advisory stat
            evictions: self.evictions.load(Ordering::Relaxed), // ORDER: Relaxed — advisory stat
            len: self.len(),
            capacity: self.capacity,
        }
    }

    /// Number of cached partitions.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_tabular::Role;

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

    /// A dataset with `n` rows whose protected column content varies
    /// with `variant`, so each variant fingerprints differently.
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
        let p = Partition::build(&ds, &["sex"]).unwrap();
        assert_eq!(p.n_groups(), 2);
        assert_eq!(p.n_rows(), 6);
        // keys are sorted: "female" < "male"
        assert_eq!(p.keys()[0], GroupKey(vec!["female".into()]));
        for (row, expected) in [(0, 1), (1, 0), (2, 1), (3, 0), (4, 0), (5, 1)] {
            assert_eq!(p.group_of(row), expected, "row {row}");
        }
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let ds = sample();
        let a = dataset_fingerprint(&ds, &["sex"]).unwrap();
        let b = dataset_fingerprint(&ds, &["sex"]).unwrap();
        assert_eq!(a, b);
        let other = Dataset::builder()
            .categorical_with_role(
                "sex",
                vec!["male", "female"],
                vec![0, 1, 0, 1, 1, 1], // one code differs
                Role::Protected,
            )
            .boolean_with_role(
                "hired",
                vec![true, false, true, false, true, false],
                Role::Label,
            )
            .build()
            .unwrap();
        assert_ne!(a, dataset_fingerprint(&other, &["sex"]).unwrap());
        assert_ne!(
            dataset_fingerprint(&ds, &["sex"]).unwrap(),
            dataset_fingerprint(&ds, &["hired"]).unwrap()
        );
    }

    #[test]
    fn unknown_column_is_a_typed_dataset_error() {
        let err = dataset_fingerprint(&sample(), &["nope"]).unwrap_err();
        assert!(matches!(err, EngineError::Dataset(_)), "{err:?}");
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
        assert_eq!(first.fingerprint, second.fingerprint);
        assert!(Arc::ptr_eq(&first.partition, &second.partition));
        assert_eq!(cache.len(), 1);
        let _ = cache.get_or_build(&ds, &["hired"]).unwrap();
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 2, 2));
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.capacity, DEFAULT_CACHE_CAPACITY);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn colliding_fingerprint_builds_its_own_partition() {
        let cache = PartitionCache::new();
        let first = sample();
        let second = Dataset::builder()
            .categorical_with_role(
                "sex",
                vec!["tenant-b-x", "tenant-b-y"],
                vec![1, 1, 0, 1, 0, 0],
                Role::Protected,
            )
            .build()
            .unwrap();
        let own = |ds: &Dataset| Partition::build(ds, &["sex"]).unwrap();
        // Both datasets forced onto one fingerprint.
        let a = cache.fetch_keyed(7, &first, &["sex"]).unwrap();
        let b = cache.fetch_keyed(7, &second, &["sex"]).unwrap();
        assert!(!b.hit, "a colliding dataset is a miss");
        assert_eq!(*b.partition, own(&second));
        assert_ne!(b.partition.keys(), a.partition.keys());
        // The displaced dataset rebuilds its own; a true repeat hits.
        let again = cache.fetch_keyed(7, &first, &["sex"]).unwrap();
        assert!(!again.hit);
        assert_eq!(*again.partition, own(&first));
        assert!(cache.fetch_keyed(7, &first, &["sex"]).unwrap().hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 3, 1));
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

    /// A dataset whose fingerprint is unique per `v` (row count differs).
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
    /// carry: the entry map is ordered (`BTreeMap`), so every observable
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

//! The sharded parallel audit executor.
//!
//! [`Engine::audit`] produces the same [`AuditReport`] as
//! [`AuditPipeline::run`], but computes the Section III group metrics by
//! fanning contiguous row shards out over scoped threads. Each shard
//! fills its own [`GroupAccumulator`] through
//! [`GroupAccumulator::observe_rows`] over the cached [`GroupIndex`] —
//! the same counting loop the sequential reference
//! ([`GroupAccumulator::from_outcomes`]) runs over every row at once.
//! The shards are merged **in shard index order**, so the merged counts —
//! and therefore every metric — are identical for any thread count (the
//! counts are integers, and the finalize divides once per group in sorted
//! key order, exactly like the sequential path).
//!
//! Shard boundaries depend only on the row count and the configured
//! shard size, never on the number of workers: determinism is structural,
//! not scheduled.
//!
//! The executor is **instrumented**: attach a
//! [`Telemetry`] via [`Engine::with_telemetry`]
//! and every audit leaves an evidential trail — an `audit_started` event,
//! `engine.partition` / `engine.scan` / `engine.merge` /
//! `engine.finalize` / `engine.support_stages` spans, a
//! `shard_scanned` event per shard (with per-shard wall time, emitted
//! from the worker that scanned it), and cache hit/miss events naming
//! the cache entry that served or was built. With the default disabled
//! telemetry the instrumentation costs one branch per record point.

use crate::error::EngineError;
use crate::partition::{CacheStats, PartitionCache};
use fairbridge_audit::{AuditConfig, AuditPipeline, AuditReport};
use fairbridge_metrics::{from_accumulator, GroupAccumulator};
use fairbridge_obs::{FairnessEvent, Telemetry};
use fairbridge_tabular::par::{ordered_parallel_map, size_aware_workers};
use fairbridge_tabular::{Dataset, GroupIndex};
use std::sync::Arc;

/// Execution parameters of the [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` means `std::thread::available_parallelism()`.
    pub num_threads: usize,
    /// Rows per shard. Boundaries depend only on this and the row count,
    /// so results are identical across thread counts.
    pub shard_size: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_threads: 0,
            shard_size: 8192,
        }
    }
}

impl EngineConfig {
    /// A config pinned to `n` worker threads.
    pub fn with_threads(n: usize) -> EngineConfig {
        EngineConfig {
            num_threads: n,
            ..EngineConfig::default()
        }
    }
}

/// What to audit: the pipeline configuration plus the outcome binding.
#[derive(Debug, Clone)]
pub struct AuditSpec {
    /// Stage configuration (tolerance, subgroup depth, proxy threshold…).
    pub config: AuditConfig,
    /// Protected columns whose intersection defines the groups.
    pub protected: Vec<String>,
    /// Audit the historical labels (`true`) or the prediction column.
    pub use_labels: bool,
}

impl AuditSpec {
    /// A spec with the default [`AuditConfig`].
    pub fn new(protected: &[&str], use_labels: bool) -> AuditSpec {
        AuditSpec {
            config: AuditConfig::default(),
            protected: protected.iter().map(|s| (*s).to_owned()).collect(),
            use_labels,
        }
    }
}

/// The sharded audit executor with a partition cache.
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
    cache: PartitionCache,
    telemetry: Telemetry,
}

impl Engine {
    /// Creates an engine with the given execution config and telemetry
    /// disabled.
    pub fn new(config: EngineConfig) -> Engine {
        Engine::with_telemetry(config, Telemetry::off())
    }

    /// Creates an engine whose audits record spans, counters and
    /// fairness events through `telemetry`.
    pub fn with_telemetry(config: EngineConfig, telemetry: Telemetry) -> Engine {
        Engine {
            config,
            cache: PartitionCache::new(),
            telemetry,
        }
    }

    /// The telemetry handle this engine records through.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The resolved worker-thread count.
    pub fn threads(&self) -> usize {
        if self.config.num_threads > 0 {
            self.config.num_threads
        } else {
            fairbridge_tabular::par::available_workers()
        }
    }

    /// Cached partitions accumulated so far.
    pub fn cached_partitions(&self) -> usize {
        self.cache.len()
    }

    /// Hit/miss/insert/eviction statistics of the partition cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The partition for `(ds, protected)` — cached, building on first
    /// use, with hit/miss telemetry. Exposed so callers can drive
    /// [`Engine::accumulate`] directly (e.g. to time the scan without the
    /// non-metric pipeline stages).
    pub fn partition(
        &self,
        ds: &Dataset,
        protected: &[&str],
    ) -> Result<Arc<GroupIndex>, EngineError> {
        let _span = self.telemetry.span("engine.partition");
        let lookup = self.cache.fetch(ds, protected)?;
        if self.telemetry.is_enabled() {
            let event = if lookup.hit {
                self.telemetry.counter("engine.partition_cache.hits").incr();
                FairnessEvent::PartitionCacheHit {
                    entry: lookup.entry,
                }
            } else {
                self.telemetry
                    .counter("engine.partition_cache.misses")
                    .incr();
                FairnessEvent::PartitionCacheMiss {
                    entry: lookup.entry,
                }
            };
            self.telemetry.emit(event);
        }
        Ok(lookup.partition)
    }

    /// Runs the full audit, sharding the metric scan across workers.
    ///
    /// The result matches [`AuditPipeline::run`] with the same
    /// [`AuditConfig`] exactly — including bitwise-identical metric gaps —
    /// for every thread count.
    pub fn audit(&self, ds: &Dataset, spec: &AuditSpec) -> Result<AuditReport, EngineError> {
        let _audit_span = self.telemetry.span("engine.audit");
        if self.telemetry.is_enabled() {
            self.telemetry.emit(FairnessEvent::AuditStarted {
                rows: ds.n_rows(),
                protected: spec.protected.clone(),
                use_labels: spec.use_labels,
            });
            self.telemetry.counter("engine.audits").incr();
        }
        let protected: Vec<&str> = spec.protected.iter().map(String::as_str).collect();
        let partition = self.partition(ds, &protected)?;

        // Bind outcomes the way the sequential pipeline does: auditing
        // historical labels treats them as the decisions (and leaves no
        // ground truth), auditing predictions attaches labels if present.
        let (decisions, labels) = if spec.use_labels {
            (ds.labels()?, None)
        } else {
            (ds.predictions()?, ds.labels().ok())
        };

        let t_scan = self.telemetry.now_ns();
        let acc = self.accumulate(&partition, decisions, labels)?;
        if self.telemetry.is_enabled() {
            // The scan-phase duration as a histogram, not just spans:
            // the serving layer's latency decomposition reads this back
            // out of `/metrics` without parsing the event stream.
            self.telemetry
                .histogram("engine.scan_ns")
                .record(self.telemetry.now_ns().saturating_sub(t_scan));
        }
        let metrics = {
            let _span = self.telemetry.span("engine.finalize");
            from_accumulator(&acc, spec.config.tolerance, spec.config.min_group_size)
        };

        // The non-metric stages (proxy ranking, subgroup search,
        // representation audit) run sequentially through the exact
        // pipeline code path — traced under their own span so the trail
        // shows where audit time actually goes.
        let stages = {
            let _span = self.telemetry.span("engine.support_stages");
            AuditPipeline::new(spec.config.clone())
                .with_telemetry(self.telemetry.clone())
                .support_stages(ds, &protected, decisions)?
        };
        Ok(stages.into_report(metrics))
    }

    /// Scans `decisions` (and optional `labels`) into one merged
    /// accumulator over `partition`'s groups by fanning shards out over
    /// scoped worker threads. A partition with no rows has no groups, and
    /// the result is then an accumulator with no groups.
    pub fn accumulate(
        &self,
        partition: &GroupIndex,
        decisions: &[bool],
        labels: Option<&[bool]>,
    ) -> Result<GroupAccumulator, EngineError> {
        let n = decisions.len();
        if n != partition.n_rows() {
            return Err(EngineError::LengthMismatch {
                what: "decisions",
                expected: partition.n_rows(),
                got: n,
            });
        }
        if let Some(l) = labels {
            if l.len() != n {
                return Err(EngineError::LengthMismatch {
                    what: "labels",
                    expected: n,
                    got: l.len(),
                });
            }
        }
        let shard_size = self.config.shard_size.max(1);
        let n_shards = n.div_ceil(shard_size).max(1);
        // Size-aware dispatch: one unit ≈ one row observed. Small
        // datasets (daemon-sized audit requests included) scan inline;
        // accumulator shapes and merge order are shard-derived either
        // way, so the result is identical for any worker count.
        let workers = size_aware_workers(
            self.threads(),
            n_shards,
            n,
            fairbridge_tabular::par::MIN_UNITS_PER_WORKER,
        );
        let recording = self.telemetry.is_enabled();

        let scan_span = self.telemetry.span("engine.scan");
        let scan_span_id = scan_span.id();
        if recording {
            self.telemetry.counter("engine.rows_scanned").add(n as u64);
            self.telemetry
                .counter("engine.shards_scanned")
                .add(n_shards as u64);
        }

        let empty = || GroupAccumulator::for_groups(partition, labels.is_some());
        // Worker-side per-shard scan with the optional `shard_scanned`
        // record; the event is attributed to the coordinator's scan span.
        let scan_shard = |s: usize, acc: &mut GroupAccumulator| {
            let start = s * shard_size;
            let end = (start + shard_size).min(n);
            if recording {
                // Timing goes through the telemetry clock, never a raw
                // `Instant::now()`: audit code stays free of wall-clock
                // reads (fb-lint rule D3) and pays nothing when disabled.
                let t0 = self.telemetry.now_ns();
                acc.observe_rows(partition, start..end, decisions, labels);
                self.telemetry.emit_in_span(
                    scan_span_id,
                    FairnessEvent::ShardScanned {
                        shard: s,
                        rows: end - start,
                        elapsed_ns: self.telemetry.now_ns().saturating_sub(t0),
                    },
                );
            } else {
                acc.observe_rows(partition, start..end, decisions, labels);
            }
        };

        if workers <= 1 {
            let mut acc = empty();
            for s in 0..n_shards {
                scan_shard(s, &mut acc);
            }
            drop(scan_span);
            // Serial dispatch accumulates into one partial, so the merge
            // is trivially done — the span still opens so the evidential
            // trail keeps the same phase structure at every size.
            let _merge_span = self.telemetry.span("engine.merge");
            return Ok(acc);
        }

        // Workers pull shard indices from a shared counter and the merge
        // happens on this thread in ascending shard order — the shared
        // deterministic fan-out, same as the subgroup lattice.
        let shard_accs = ordered_parallel_map(n_shards, workers, |s| {
            let mut acc = empty();
            scan_shard(s, &mut acc);
            acc
        });
        drop(scan_span);

        let _merge_span = self.telemetry.span("engine.merge");
        let mut merged = empty();
        for acc in &shard_accs {
            merged.merge(acc)?;
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_metrics::outcome::Outcomes;
    use fairbridge_obs::{EventKind, RingSink};
    use fairbridge_tabular::Role;

    fn dataset(n: usize) -> Dataset {
        let codes: Vec<u32> = (0..n).map(|i| (i % 3 == 0) as u32).collect();
        let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let preds: Vec<bool> = (0..n).map(|i| (i * 7 + 3) % 5 < 2).collect();
        Dataset::builder()
            .categorical_with_role("g", vec!["a", "b"], codes, Role::Protected)
            .boolean_with_role("y", labels, Role::Label)
            .boolean_with_role("r", preds, Role::Prediction)
            .build()
            .unwrap()
    }

    #[test]
    fn sharded_accumulation_matches_sequential_for_any_thread_count() {
        let ds = dataset(1003); // not a multiple of the shard size
        let outcomes = Outcomes::from_dataset(&ds, &["g"]).unwrap();
        let reference = GroupAccumulator::from_outcomes(&outcomes);
        for threads in [1, 2, 3, 8] {
            let engine = Engine::new(EngineConfig {
                num_threads: threads,
                shard_size: 64,
            });
            let partition = engine.cache.get_or_build(&ds, &["g"]).unwrap();
            let labels = ds.labels().unwrap().to_vec();
            let acc = engine
                .accumulate(&partition, ds.predictions().unwrap(), Some(&labels))
                .unwrap();
            assert_eq!(acc, reference, "{threads} threads");
        }
    }

    #[test]
    fn audit_reuses_the_partition_cache() {
        let ds = dataset(200);
        let engine = Engine::new(EngineConfig::with_threads(2));
        let spec = AuditSpec::new(&["g"], false);
        engine.audit(&ds, &spec).unwrap();
        assert_eq!(engine.cached_partitions(), 1);
        engine.audit(&ds, &spec).unwrap();
        assert_eq!(engine.cached_partitions(), 1);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn accumulate_validates_lengths_with_typed_errors() {
        let ds = dataset(50);
        let engine = Engine::new(EngineConfig::default());
        let partition = engine.cache.get_or_build(&ds, &["g"]).unwrap();
        let err = engine.accumulate(&partition, &[true; 3], None).unwrap_err();
        assert_eq!(
            err,
            EngineError::LengthMismatch {
                what: "decisions",
                expected: 50,
                got: 3
            }
        );
        let err = engine
            .accumulate(&partition, &[true; 50], Some(&[false; 3]))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::LengthMismatch {
                what: "labels",
                expected: 50,
                got: 3
            }
        );
    }

    #[test]
    fn traced_audit_emits_the_shard_trail_and_matches_untraced() {
        let ds = dataset(1000);
        let spec = AuditSpec::new(&["g"], false);
        let untraced = Engine::new(EngineConfig {
            num_threads: 2,
            shard_size: 128,
        })
        .audit(&ds, &spec)
        .unwrap();

        let ring = Arc::new(RingSink::with_capacity(4096));
        let telemetry = Telemetry::new(ring.clone());
        let engine = Engine::with_telemetry(
            EngineConfig {
                num_threads: 2,
                shard_size: 128,
            },
            telemetry,
        );
        let traced = engine.audit(&ds, &spec).unwrap();
        assert_eq!(
            traced.to_string(),
            untraced.to_string(),
            "telemetry must not perturb the audit"
        );

        let events = ring.events();
        let shard_events = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Fairness(FairnessEvent::ShardScanned { .. })
                )
            })
            .count();
        assert_eq!(shard_events, 1000usize.div_ceil(128), "one event per shard");
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::Fairness(FairnessEvent::AuditStarted { rows: 1000, .. })
        )));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::Fairness(FairnessEvent::PartitionCacheMiss { .. })
        )));
    }

    #[test]
    fn disabled_telemetry_emits_nothing_during_audit() {
        let ds = dataset(300);
        let engine = Engine::new(EngineConfig::with_threads(2));
        engine.audit(&ds, &AuditSpec::new(&["g"], false)).unwrap();
        assert_eq!(engine.telemetry().events_emitted(), 0);
    }
}

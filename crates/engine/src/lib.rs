//! # fairbridge-engine
//!
//! The execution engine: how fairness audits *run* at scale, and how they
//! keep running after deployment.
//!
//! The Section III definitions are all ratios of per-group integer counts,
//! so an audit decomposes into an embarrassingly parallel scan plus a tiny
//! finalize. This crate exploits that structure twice:
//!
//! * [`executor`] — [`Engine::audit`] shards the row scan over scoped
//!   worker threads (`std::thread` only, no external runtime), merges the
//!   per-shard [`GroupAccumulator`]s in deterministic shard order and
//!   finalizes the exact same `AuditReport` the sequential
//!   `fairbridge-audit` pipeline produces — bitwise-identical metric gaps
//!   for any thread count. A [`PartitionCache`] memoizes the protected
//!   columns' `GroupIndex` per protected set and protected columns,
//!   compared exactly;
//! * [`monitor`] — [`StreamingMonitor`] ingests live decision events into
//!   tumbling windowed accumulators and flags drift when windowed
//!   disparity stays across a threshold in consecutive windows — the
//!   runtime counterpart to the paper's Section IV.D feedback-loop
//!   warning;
//! * [`partition`] — a bounded, LRU-evicting, statistics-counting
//!   [`PartitionCache`] of row-addressable `GroupIndex`es;
//! * [`error`] — the typed [`EngineError`] every fallible engine entry
//!   point returns.
//!
//! The engine is fully instrumented through `fairbridge-obs`: construct
//! with [`Engine::with_telemetry`] (or
//! [`StreamingMonitor::with_telemetry`]) and audits emit spans for each
//! phase, per-shard scan events, partition-cache hit/miss events and
//! windowed drift alarms — an evidential trail a compliance review can
//! replay. The default telemetry is disabled and costs one branch per
//! record point.
//!
//! The mergeable accumulator itself lives in `fairbridge-metrics`
//! ([`GroupAccumulator`]), next to the definitions it summarizes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod executor;
pub mod monitor;
pub mod partition;

pub use error::EngineError;
pub use executor::{AuditSpec, Engine, EngineConfig};
pub use fairbridge_metrics::{from_accumulator, GroupAccumulator, GroupCounts};
pub use monitor::{MonitorConfig, MonitorSnapshot, StreamingMonitor, WindowSummary};
pub use partition::{CacheLookup, CacheStats, PartitionCache, DEFAULT_CACHE_CAPACITY};

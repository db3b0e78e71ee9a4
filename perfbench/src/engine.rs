//! The in-process workloads: one caller thread running
//! `fairbridge_engine::Engine::audit` back to back on 100k-row datasets,
//! alternating over 2 of them.
//!
//! * `engine_cold` — every call goes to a freshly built engine, so every
//!   call misses the partition cache: it fingerprints, builds a
//!   partition, scans and runs the support stages. The datasets stay
//!   warm in the CPU caches, as a dataset just parsed off the wire is.
//!   (Cycling 40 datasets through one engine, past its 32-entry cache,
//!   misses too, but streams 100 MiB from memory per cycle; its p90 then
//!   spread 31% over ten runs on a shared 2-core host.)
//! * `engine_warm` — one engine serves every call, so every call after
//!   set-up is a partition-cache hit.

use crate::data::{dataset_seed, Columns, PROTECTED};
use crate::layers::{self, Layers};
use crate::stats::{ratio, rss_mb};
use crate::Run;
use fairbridge_engine::{AuditSpec, Engine, EngineConfig};
use fairbridge_obs::{RingSink, Telemetry};
use fairbridge_tabular::Dataset;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 100_000;
const DATASETS: usize = 2;
/// Engine constructions timed per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Audits each set-up runs before the engine counts as ready: one per
/// dataset.
const WARMUP_CALLS: usize = DATASETS;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    Cold,
    Warm,
}

/// Builds an engine and runs the warm-up audits: the engine's set-up.
fn set_up(
    telemetry: Telemetry,
    spec: &AuditSpec,
    datasets: &[Dataset],
    expected: &[String],
) -> Result<(Engine, f64), String> {
    let t0 = Instant::now();
    let engine = Engine::with_telemetry(EngineConfig::default(), telemetry);
    for i in 0..WARMUP_CALLS {
        let report = engine
            .audit(&datasets[i], spec)
            .map_err(|e| e.to_string())?;
        if format!("{report:?}") != expected[i] {
            return Err(format!(
                "warm-up audit of dataset {i} differs from its reference"
            ));
        }
    }
    Ok((engine, t0.elapsed().as_secs_f64()))
}

pub fn run(cache: Cache, seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let columns: Vec<Columns> = (0..DATASETS)
        .map(|i| Columns::generate(ROWS, dataset_seed(seed, i)))
        .collect();
    let datasets: Vec<Dataset> = columns.iter().map(Columns::dataset).collect();
    let spec = AuditSpec::new(&PROTECTED, false);
    // References come from a one-thread engine that has never seen the
    // dataset, so every measured report is checked against the uncached,
    // unsharded path.
    let expected = datasets
        .iter()
        .map(|d| {
            Engine::new(EngineConfig::with_threads(1))
                .audit(d, &spec)
                .map(|r| format!("{r:?}"))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;

    let ring = Arc::new(RingSink::with_capacity(1 << 16));
    let (bench_tel, engine_tel) = if trace {
        (
            Telemetry::new(ring.clone()),
            Telemetry::new(Arc::new(RingSink::with_capacity(4096))),
        )
    } else {
        (Telemetry::off(), Telemetry::off())
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        setup_s.push(set_up(engine_tel.clone(), &spec, &datasets, &expected)?.1);
    }
    let (mut engine, elapsed) = set_up(engine_tel.clone(), &spec, &datasets, &expected)?;
    setup_s.push(elapsed);

    let baseline_rss_mb = rss_mb().unwrap_or(0.0);
    let (mut hits, mut lookups) = (0, 0);
    let mut latencies_ms = Vec::new();
    let mut failed = 0;
    let mut peak_rss_mb = 0f64;
    let t_start = Instant::now();
    let deadline = t_start + Duration::from_secs(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        if cache == Cache::Cold {
            engine = Engine::with_telemetry(EngineConfig::default(), engine_tel.clone());
        }
        let before = engine.cache_stats();
        let t0 = Instant::now();
        let report = {
            let _span = bench_tel.span("client.audit");
            engine.audit(&datasets[i], &spec)
        };
        let elapsed = t0.elapsed();
        let after = engine.cache_stats();
        hits += after.hits - before.hits;
        lookups += after.hits + after.misses - before.hits - before.misses;
        match report {
            Ok(r) => {
                latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                if format!("{r:?}") != expected[i] {
                    failed += 1;
                }
            }
            Err(_) => failed += 1,
        }
        // Between calls, so the read never overlaps the audit it follows.
        peak_rss_mb = peak_rss_mb.max(rss_mb().unwrap_or(0.0));
        i = (i + 1) % DATASETS;
    }
    let wall_s = t_start.elapsed().as_secs_f64();

    let mut run = Run {
        attempted: latencies_ms.len() as u64 + failed,
        latencies_ms,
        failed,
        wall_s,
        setup_s,
        peak_rss_mb,
        baseline_rss_mb,
        layers: None,
        trail: Vec::new(),
    };
    if trace {
        let mut l = Layers::new();
        // No daemon is on this path: nothing waits in its queue, crosses
        // its coalescer or the network.
        for name in [
            "serve.request_ms",
            "serve.queue_wait_ms",
            "serve.execute_ms",
            "serve.serialize_ms",
            "serve.coalesce_wait_ms",
            "net.unaccounted_ms",
            "serve.coalesce_hit_ratio",
        ] {
            l.set(name, 0.0);
        }
        l.set("engine.cache_hit_ratio", ratio(hits as f64, lookups as f64));
        let bodies: Vec<String> = columns.iter().map(Columns::body).collect();
        let bodies: Vec<&str> = bodies.iter().map(String::as_str).collect();
        run.failed += layers::probe(
            &bench_tel,
            &ring,
            &bodies,
            &datasets,
            Some(&expected),
            &mut l,
        )?;
        run.layers = Some(l);
        run.trail = ring.events();
    }
    Ok(run)
}

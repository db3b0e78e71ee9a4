//! E19: the execution engine — sharded-scan equivalence and throughput.
//!
//! The Section III definitions are ratios of per-group integer counts, so
//! the metric scan decomposes into shard-local accumulators merged in
//! shard order. E19 verifies the two properties the engine promises:
//! the merged result is *bitwise-identical* to the sequential evaluation
//! for every thread count, and on large inputs the multi-shard scan is
//! faster than the single-threaded one.
//!
//! When run with an enabled telemetry (`fb-experiments --telemetry`),
//! E19 additionally replays a fully traced audit (per-shard scan events,
//! cache hit/miss, pipeline stage spans) and a drifting decision stream
//! whose sustained disparity raises the monitor's `drift_flagged` event —
//! and verifies that tracing does not perturb the audit result.

use super::{Check, ExperimentResult};
use fairbridge::engine::{AuditSpec, Engine, EngineConfig, MonitorConfig, StreamingMonitor};
use fairbridge::metrics::{from_accumulator, FairnessReport, Outcomes};
use fairbridge::synth::hiring::{generate, HiringConfig};
use fairbridge_obs::Telemetry;
use fairbridge_stats::rng::StdRng;
use std::fmt::Write as _;
use std::time::Instant;

const ROWS: usize = 500_000;
const REPS: usize = 3;

/// Best-of-`REPS` wall time in milliseconds.
fn best_ms<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Rows for the traced full-audit replay: small enough that the
/// sequential support stages (subgroup search) stay fast.
const TRACED_ROWS: usize = 50_000;

pub(crate) fn e19_execution_engine(seed: u64, telemetry: &Telemetry) -> ExperimentResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = generate(
        &HiringConfig {
            n: ROWS,
            ..HiringConfig::biased()
        },
        &mut rng,
    )
    .dataset;
    // Attach predictions so all seven sufficient statistics are scanned.
    let decisions: Vec<bool> = (0..ROWS).map(|i| (i * 13 + 5) % 7 < 3).collect();
    let ds = ds
        .with_predictions("decision", decisions)
        .expect("columns fit");

    let outcomes = Outcomes::from_dataset(&ds, &["sex"]).expect("outcome view");
    let reference = FairnessReport::evaluate(&outcomes, 0.05, 20);
    let seq_ms = best_ms(|| {
        std::hint::black_box(FairnessReport::evaluate(&outcomes, 0.05, 20));
    });

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut table = format!("rows {ROWS}, host cores {cores}\n");
    let _ = writeln!(
        table,
        "{:<28} {:>12} {:>9}",
        "metric path", "time/run", "speedup"
    );
    let _ = writeln!(
        table,
        "{:<28} {:>10.2}ms {:>8.2}x",
        "sequential evaluate", seq_ms, 1.0
    );

    let decisions = ds.predictions().expect("predictions").to_vec();
    let labels = ds.labels().expect("labels").to_vec();
    let mut identical = true;
    let mut scan_ms: Vec<(usize, f64)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let engine = Engine::new(EngineConfig {
            num_threads: threads,
            shard_size: 16_384,
        });
        let partition = engine.partition(&ds, &["sex"]).expect("partition");
        let report = {
            let acc = engine
                .accumulate(&partition, &decisions, Some(&labels))
                .expect("scan");
            from_accumulator(&acc, 0.05, 20)
        };
        identical &= report == reference
            && report
                .lines
                .iter()
                .zip(&reference.lines)
                .all(|(a, b)| a.gap.to_bits() == b.gap.to_bits());
        let ms = best_ms(|| {
            let acc = engine
                .accumulate(&partition, &decisions, Some(&labels))
                .expect("scan");
            std::hint::black_box(from_accumulator(&acc, 0.05, 20));
        });
        scan_ms.push((threads, ms));
        let _ = writeln!(
            table,
            "{:<28} {:>10.2}ms {:>8.2}x",
            format!("engine scan, {threads} thread(s)"),
            ms,
            seq_ms / ms
        );
    }

    // Streaming-monitor ingest throughput over the same decision stream.
    let codes: Vec<u32> = {
        let (_, c) = ds.categorical("sex").expect("sex column");
        c.to_vec()
    };
    let monitor_ms = best_ms(|| {
        let mut monitor = StreamingMonitor::over_levels(
            &["male", "female"],
            false,
            MonitorConfig {
                window_size: 10_000,
                retained_windows: 8,
                ..MonitorConfig::default()
            },
        )
        .expect("monitor");
        monitor
            .ingest_batch(&codes, &decisions, None)
            .expect("ingest");
        std::hint::black_box(monitor.snapshot());
    });
    let _ = writeln!(
        table,
        "{:<28} {:>10.2}ms {:>7.1}M ev/s",
        "streaming ingest (w=10k)",
        monitor_ms,
        ROWS as f64 / monitor_ms / 1e3
    );

    // Traced replay: a full audit (pipeline stages included) on a
    // smaller sample, run twice so the second pass exercises the
    // partition-cache hit path, plus a decision stream whose disparity
    // widens until the monitor's drift alarm fires. With `--telemetry`
    // every one of these steps lands in the JSONL trail; without it the
    // same code runs against the disabled handle, asserting the
    // instrumentation itself is inert.
    let mut traced_rng = StdRng::seed_from_u64(seed ^ 0x0b5);
    let traced_ds = generate(
        &HiringConfig {
            n: TRACED_ROWS,
            ..HiringConfig::biased()
        },
        &mut traced_rng,
    )
    .dataset;
    let spec = AuditSpec::new(&["sex"], true);
    let untraced_report = Engine::new(EngineConfig::default())
        .audit(&traced_ds, &spec)
        .expect("untraced audit")
        .to_string();
    let traced_engine = Engine::with_telemetry(
        EngineConfig {
            shard_size: 4096,
            ..EngineConfig::default()
        },
        telemetry.clone(),
    );
    let traced_report = traced_engine
        .audit(&traced_ds, &spec)
        .expect("traced audit")
        .to_string();
    traced_engine
        .audit(&traced_ds, &spec)
        .expect("cached audit");
    let cache = traced_engine.cache_stats();
    let trace_ok = traced_report == untraced_report && cache.hits == 1 && cache.misses == 1;

    // Drift stream: parity for 3 windows, then sustained 0.3 → 0.6 gap.
    let mut drift_monitor = StreamingMonitor::over_levels(
        &["male", "female"],
        false,
        MonitorConfig {
            window_size: 1_000,
            retained_windows: 8,
            min_group_size: 10,
            ..MonitorConfig::default()
        },
    )
    .expect("drift monitor")
    .with_telemetry(telemetry.clone());
    for window in 0..8usize {
        let gap = 0.1 * (window.saturating_sub(2)) as f64;
        for i in 0..500usize {
            let t = i as f64 / 500.0;
            drift_monitor.ingest_indexed(0, t < 0.5 + gap / 2.0, None);
            drift_monitor.ingest_indexed(1, t < 0.5 - gap / 2.0, None);
        }
    }
    let drift_snap = drift_monitor.snapshot();
    let _ = writeln!(
        table,
        "{:<28} windows {}, final gap {:.2}, drift {}",
        "traced drift stream",
        drift_monitor.windows_sealed(),
        drift_snap.latest_gap(),
        drift_snap.drift
    );

    let single = scan_ms[0].1;
    let best_multi =
        scan_ms[1..].iter().cloned().fold(
            (0usize, f64::INFINITY),
            |a, b| if b.1 < a.1 { b } else { a },
        );
    // On a single-core host there is nothing to win; the determinism
    // check above is the substantive claim there.
    let speedup_ok = cores < 2 || best_multi.1 < single;

    ExperimentResult {
        id: "E19",
        title: "execution engine: sharded scan equivalence and throughput",
        paper_claim: "group-fairness audits decompose into mergeable per-group counts, so \
                      parallel and streaming execution change cost, not results",
        table,
        checks: vec![
            Check::new(
                "sharded reports are bitwise-identical to the sequential evaluation (1/2/4/8 threads)",
                identical,
                format!("reference DP gap {:.6}", reference.lines[0].gap),
            ),
            Check::new(
                "the multi-shard scan beats the single-threaded scan on 500k rows",
                speedup_ok,
                format!(
                    "1 thread {:.2}ms, best multi {:.2}ms ({} threads, host cores {})",
                    single, best_multi.1, best_multi.0, cores
                ),
            ),
            Check::new(
                "the traced audit matches the untraced audit and reuses the partition cache",
                trace_ok,
                format!(
                    "telemetry {}, cache hits {}, misses {}",
                    if telemetry.is_enabled() { "on" } else { "off" },
                    cache.hits,
                    cache.misses
                ),
            ),
            Check::new(
                "sustained disparity in the decision stream raises the drift flag",
                drift_snap.drift,
                format!(
                    "{} windows sealed, final gap {:.2}",
                    drift_monitor.windows_sealed(),
                    drift_snap.latest_gap()
                ),
            ),
        ],
    }
}

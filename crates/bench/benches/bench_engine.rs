//! Bench for experiment E19: the sharded execution engine —
//! sequential metric evaluation vs the 1/2/4/8-shard parallel scan, plus
//! streaming-monitor ingest throughput.

use fairbridge::engine::{Engine, EngineConfig, MonitorConfig, StreamingMonitor};
use fairbridge::metrics::{from_accumulator, FairnessReport, Outcomes};
use fairbridge::prelude::*;
use fairbridge_bench::harness::{BenchmarkId, Criterion};
use fairbridge_bench::{criterion_group, criterion_main};
use fairbridge_stats::rng::StdRng;
use std::hint::black_box;

fn setup(n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(19);
    let ds = fairbridge::synth::hiring::generate(
        &HiringConfig {
            n,
            ..HiringConfig::biased()
        },
        &mut rng,
    )
    .dataset;
    // Attach a prediction column so the full six-definition metric path
    // (confusion counts included) is what gets scanned.
    let decisions: Vec<bool> = (0..n).map(|i| (i * 13 + 5) % 7 < 3).collect();
    ds.with_predictions("decision", decisions).unwrap()
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_e19");
    group.sample_size(10);
    for n in [100_000usize, 400_000] {
        let ds = setup(n);
        let outcomes = Outcomes::from_dataset(&ds, &["sex"]).unwrap();
        group.bench_with_input(BenchmarkId::new("sequential_evaluate", n), &n, |b, _| {
            b.iter(|| black_box(FairnessReport::evaluate(&outcomes, 0.05, 20)))
        });
        for threads in [1usize, 2, 4, 8] {
            let engine = Engine::new(EngineConfig {
                num_threads: threads,
                shard_size: 16_384,
            });
            let partition = engine.partition(&ds, &["sex"]).unwrap();
            let decisions = ds.predictions().unwrap().to_vec();
            let labels = ds.labels().unwrap().to_vec();
            group.bench_with_input(
                BenchmarkId::new(format!("engine_scan_{threads}t"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let acc = engine
                            .accumulate(&partition, &decisions, Some(&labels))
                            .unwrap();
                        black_box(from_accumulator(&acc, 0.05, 20))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_monitor(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_e19");
    let n = 100_000usize;
    let codes: Vec<u32> = (0..n).map(|i| (i % 3 == 0) as u32).collect();
    let decisions: Vec<bool> = (0..n).map(|i| (i * 13 + 5) % 7 < 3).collect();
    group.bench_with_input(BenchmarkId::new("ingest_stream", n), &n, |b, _| {
        b.iter(|| {
            let mut monitor = StreamingMonitor::over_levels(
                &["male", "female"],
                false,
                MonitorConfig {
                    window_size: 10_000,
                    retained_windows: 8,
                    ..MonitorConfig::default()
                },
            )
            .unwrap();
            monitor.ingest_batch(&codes, &decisions, None).unwrap();
            black_box(monitor.snapshot())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine, bench_monitor);
criterion_main!(benches);

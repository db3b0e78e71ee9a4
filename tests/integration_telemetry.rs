//! Integration: the telemetry subsystem wired through the whole stack —
//! span nesting across engine and pipeline, the per-shard event trail,
//! cache hit/miss records, drift alarms, counter atomicity under real
//! threads, the JSONL round trip, and the disabled-path guarantee.

use fairbridge::engine::{AuditSpec, Engine, EngineConfig, MonitorConfig, StreamingMonitor};
use fairbridge::obs::{json, Event, EventKind, FairnessEvent, JsonlSink, RingSink, Telemetry};
use fairbridge::prelude::*;
use fairbridge::stats::rng::StdRng;
use fairbridge::synth::hiring::{self, HiringConfig};
use std::sync::Arc;

fn hiring_ds(n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(0x7E1E);
    hiring::generate(
        &HiringConfig {
            n,
            ..HiringConfig::biased()
        },
        &mut rng,
    )
    .dataset
}

/// Records two audits of the same dataset and returns the event trail.
fn traced_audits(n: usize, shard_size: usize, threads: usize) -> Vec<Event> {
    let ring = Arc::new(RingSink::with_capacity(8192));
    let engine = Engine::with_telemetry(
        EngineConfig {
            num_threads: threads,
            shard_size,
        },
        Telemetry::new(ring.clone()),
    );
    let ds = hiring_ds(n);
    let spec = AuditSpec::new(&["sex"], true);
    engine.audit(&ds, &spec).expect("first audit");
    engine.audit(&ds, &spec).expect("second audit");
    ring.events()
}

fn span_names(events: &[Event]) -> Vec<&str> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SpanStart { name } => Some(name.as_str()),
            _ => None,
        })
        .collect()
}

#[test]
fn audit_emits_the_expected_event_sequence() {
    let n = 4000;
    let shard_size = 512;
    let events = traced_audits(n, shard_size, 2);

    // The first fairness event of the trail is the audit announcement.
    let first_fairness = events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Fairness(f) => Some(f),
            _ => None,
        })
        .expect("fairness events present");
    assert!(
        matches!(first_fairness, FairnessEvent::AuditStarted { rows, .. } if *rows == n),
        "{first_fairness:?}"
    );

    // One shard_scanned per shard, per audit; the per-shard rows sum to n.
    let shards_per_audit = n.div_ceil(shard_size);
    let scanned: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Fairness(FairnessEvent::ShardScanned { shard, rows, .. }) => {
                Some((*shard, *rows))
            }
            _ => None,
        })
        .collect();
    assert_eq!(scanned.len(), 2 * shards_per_audit);
    let total_rows: usize = scanned[..shards_per_audit].iter().map(|(_, r)| r).sum();
    assert_eq!(total_rows, n);

    // The first audit misses the partition cache, the second hits it —
    // served by the entry the miss built.
    let cache: Vec<(&str, u64)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Fairness(FairnessEvent::PartitionCacheMiss { entry }) => {
                Some(("miss", *entry))
            }
            EventKind::Fairness(FairnessEvent::PartitionCacheHit { entry }) => {
                Some(("hit", *entry))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        cache,
        [("miss", 1), ("hit", 1)],
        "the hit names the entry the miss built"
    );
}

#[test]
fn audit_spans_are_balanced_nested_and_cover_the_pipeline_stages() {
    let events = traced_audits(2000, 512, 2);
    let names = span_names(&events);

    // Engine phases and sequential pipeline stages all appear.
    for expected in [
        "engine.audit",
        "engine.partition",
        "engine.scan",
        "engine.merge",
        "engine.finalize",
        "engine.support_stages",
        "pipeline.proxy",
        "pipeline.subgroup",
        "pipeline.representation",
    ] {
        assert!(names.contains(&expected), "missing span {expected}");
    }

    // Every span_start has exactly one span_end with the same id.
    let mut starts = 0usize;
    for e in &events {
        if let EventKind::SpanStart { name } = &e.kind {
            starts += 1;
            let id = e.span.expect("span_start carries its id");
            let ends: Vec<&Event> = events
                .iter()
                .filter(|o| o.span == Some(id) && matches!(o.kind, EventKind::SpanEnd { .. }))
                .collect();
            assert_eq!(ends.len(), 1, "span {name} ({id}) must close once");
        }
    }
    assert!(starts >= 9, "at least one start per expected span");

    // Phase spans are children of their audit's engine.audit root.
    let roots: Vec<u64> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SpanStart { name } if name == "engine.audit" => e.span,
            _ => None,
        })
        .collect();
    assert_eq!(roots.len(), 2, "two audits, two roots");
    for e in &events {
        if let EventKind::SpanStart { name } = &e.kind {
            if name.starts_with("engine.") && name != "engine.audit" {
                let parent = e.parent.expect("phase spans have parents");
                assert!(roots.contains(&parent), "{name} parented to an audit root");
            }
        }
    }
}

#[test]
fn counters_are_exact_under_concurrent_increments() {
    let telemetry = Telemetry::new(Arc::new(RingSink::with_capacity(8)));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let t = telemetry.clone();
            scope.spawn(move || {
                let c = t.counter("contended");
                for _ in 0..10_000 {
                    c.incr();
                }
            });
        }
    });
    assert_eq!(
        telemetry.counter_values(),
        vec![("contended".to_owned(), 80_000)]
    );
}

#[test]
fn the_jsonl_trail_round_trips_through_the_parser() {
    let path = std::env::temp_dir().join(format!(
        "fairbridge_integration_trail_{}.jsonl",
        std::process::id()
    ));
    let telemetry = Telemetry::new(Arc::new(JsonlSink::create(&path).unwrap()));
    let engine = Engine::with_telemetry(
        EngineConfig {
            num_threads: 2,
            shard_size: 256,
        },
        telemetry.clone(),
    );
    let ds = hiring_ds(1500);
    engine
        .audit(&ds, &AuditSpec::new(&["sex"], true))
        .expect("audit");
    telemetry.flush();

    let raw = std::fs::read_to_string(&path).unwrap();
    let values = json::parse_lines(&raw).expect("every line parses");
    assert_eq!(values.len() as u64, telemetry.events_emitted());
    // Envelope fields are present and typed on every event.
    for v in &values {
        assert!(v.get("t_ns").and_then(json::Value::as_u64).is_some());
        assert!(v.get("thread").and_then(json::Value::as_u64).is_some());
        assert!(v.get("kind").and_then(json::Value::as_str).is_some());
    }
    // The audit announcement survives the round trip with its payload.
    let started = values
        .iter()
        .find(|v| v.get("kind").and_then(json::Value::as_str) == Some("audit_started"))
        .expect("audit_started in trail");
    assert_eq!(
        started.get("rows").and_then(json::Value::as_u64),
        Some(1500)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn disabled_telemetry_emits_nothing_through_the_whole_stack() {
    let engine = Engine::new(EngineConfig {
        num_threads: 2,
        shard_size: 256,
    });
    let ds = hiring_ds(1500);
    engine
        .audit(&ds, &AuditSpec::new(&["sex"], true))
        .expect("audit");

    let mut monitor = StreamingMonitor::over_levels(
        &["male", "female"],
        false,
        MonitorConfig {
            window_size: 100,
            ..MonitorConfig::default()
        },
    )
    .unwrap();
    for i in 0..500u32 {
        monitor.ingest_indexed((i % 2) as usize, i % 3 == 0, None);
    }

    assert_eq!(engine.telemetry().events_emitted(), 0);
    assert!(engine.telemetry().counter_values().is_empty());
    assert!(!engine.telemetry().is_enabled());
}

#[test]
fn monitor_trail_records_window_closes_and_a_single_drift_alarm() {
    let ring = Arc::new(RingSink::with_capacity(512));
    let mut monitor = StreamingMonitor::over_levels(
        &["a", "b"],
        false,
        MonitorConfig {
            window_size: 200,
            retained_windows: 8,
            drift_threshold: 0.10,
            ..MonitorConfig::default()
        },
    )
    .unwrap()
    .with_telemetry(Telemetry::new(ring.clone()));

    // fair, fair, breach, breach, breach — the alarm fires once, at the
    // second consecutive breach.
    for gap in [0.0f64, 0.0, 0.3, 0.3, 0.3] {
        for i in 0..100usize {
            let t = i as f64 / 100.0;
            monitor.ingest_indexed(0, t < 0.5 + gap / 2.0, None);
            monitor.ingest_indexed(1, t < 0.5 - gap / 2.0, None);
        }
    }

    let events = ring.events();
    let closed = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Fairness(FairnessEvent::WindowClosed { .. })
            )
        })
        .count();
    assert_eq!(closed, 5, "one window_closed per sealed window");
    let alarms: Vec<usize> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Fairness(FairnessEvent::DriftFlagged { window, .. }) => Some(*window),
            _ => None,
        })
        .collect();
    assert_eq!(alarms, vec![3], "single alarm at the second breach");
    assert!(monitor.snapshot().drift, "snapshot agrees with the trail");
}

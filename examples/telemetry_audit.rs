//! The evidential trail: one audited deployment, recorded end-to-end as
//! telemetry.
//!
//! Legal review of an automated decision system needs more than a final
//! disparity figure — it needs a replayable record of *how* the audit
//! ran: what data was scanned, whether cached artifacts were reused,
//! when each monitoring window closed, when the drift alarm fired, and
//! which mitigation was applied in response. This example produces that
//! record: a sharded engine audit, a drifting decision stream, and a
//! reweighing intervention, all captured as JSON lines in
//! `target/telemetry_audit.jsonl` and re-parsed at the end to prove the
//! trail is machine-readable.
//!
//! Run with: `cargo run --example telemetry_audit`

use fairbridge::engine::{AuditSpec, Engine, EngineConfig, MonitorConfig, StreamingMonitor};
use fairbridge::obs::{json, FairnessEvent, JsonlSink, Telemetry};
use fairbridge::prelude::*;
use fairbridge_stats::rng::StdRng;
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::path::Path::new("target").join("telemetry_audit.jsonl");
    std::fs::create_dir_all("target")?;
    let telemetry = Telemetry::new(Arc::new(JsonlSink::create(&path)?));

    // A biased hiring cohort, as in the paper's running example.
    let mut rng = StdRng::seed_from_u64(7);
    let ds = fairbridge::synth::hiring::generate(
        &HiringConfig {
            n: 20_000,
            ..HiringConfig::biased()
        },
        &mut rng,
    )
    .dataset;

    // 1. A traced sharded audit — run twice so the trail also shows the
    //    partition cache serving the second pass.
    let engine = Engine::with_telemetry(
        EngineConfig {
            num_threads: 4,
            shard_size: 4096,
        },
        telemetry.clone(),
    );
    let spec = AuditSpec::new(&["sex"], true);
    let report = engine.audit(&ds, &spec)?;
    engine.audit(&ds, &spec)?;
    let cache = engine.cache_stats();
    println!(
        "audit concerns: {}; partition cache hits/misses: {}/{}",
        report.has_concerns(),
        cache.hits,
        cache.misses
    );

    // 2. A monitored decision stream whose disparity widens until the
    //    two-consecutive-window drift alarm fires.
    let mut monitor = StreamingMonitor::over_levels(
        &["male", "female"],
        false,
        MonitorConfig {
            window_size: 500,
            retained_windows: 16,
            drift_threshold: 0.10,
            ..MonitorConfig::default()
        },
    )?
    .with_telemetry(telemetry.clone());
    for window in 0..6usize {
        let gap = 0.12 * window as f64;
        for i in 0..250usize {
            let t = i as f64 / 250.0;
            monitor.ingest_indexed(0, t < 0.5 + gap / 2.0, None);
            monitor.ingest_indexed(1, t < 0.5 - gap / 2.0, None);
        }
    }
    let snap = monitor.snapshot();
    println!(
        "monitored {} window(s); latest gap {:.2}; drift flag: {}",
        monitor.windows_sealed(),
        snap.latest_gap(),
        snap.drift
    );

    // 3. The intervention, recorded as a fairness event: reweigh the
    //    training data so retraining counters the drift.
    let reweighed = fairbridge::mitigate::reweigh(&ds, &["sex"])?;
    telemetry.emit(FairnessEvent::MitigationApplied {
        technique: "reweigh".to_owned(),
        detail: format!(
            "{} (group, label) weights over protected {{sex}}",
            reweighed.cell_weights.len()
        ),
    });

    // Close the trail (counter/histogram summaries + sink flush) and
    // prove it replays: every line must parse, and the drift alarm must
    // be on record.
    telemetry.flush();
    let raw = std::fs::read_to_string(&path)?;
    let events = json::parse_lines(&raw)?;
    if events.is_empty() {
        return Err("telemetry trail is empty".into());
    }
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for event in &events {
        let kind = event
            .get("kind")
            .and_then(json::Value::as_str)
            .ok_or("event without kind")?;
        *kinds.entry(kind).or_default() += 1;
    }
    if !kinds.contains_key("drift_flagged") {
        return Err("expected a drift_flagged event in the trail".into());
    }
    if !kinds.contains_key("mitigation_applied") {
        return Err("expected a mitigation_applied event in the trail".into());
    }
    println!(
        "\nevidential trail: {} events in {} ({} emitted)",
        events.len(),
        path.display(),
        telemetry.events_emitted()
    );
    for (kind, n) in &kinds {
        println!("  {kind:<24} {n}");
    }
    println!(
        "\nEvery step of this audit — scan, cache, window, alarm, \
         mitigation — is now a replayable record, not a claim."
    );
    Ok(())
}

//! The traced run's per-layer metrics.
//!
//! [`probe`] calls each layer's public entry point on the workload's own
//! inputs, one layer at a time, with a span from the benchmark's
//! telemetry around each call; the spans stay in a [`RingSink`] and each
//! layer's figure is the median of its span durations. Spans inside the
//! program are not used, so the figures mean the same thing whatever the
//! program itself records.

use fairbridge_audit::proxy::association_ranking;
use fairbridge_audit::{AuditConfig, AuditPipeline, SubgroupAuditor};
use fairbridge_engine::{from_accumulator, AuditSpec, Engine, EngineConfig};
use fairbridge_obs::json::parse;
use fairbridge_obs::{EventKind, NoopSink, RingSink, Telemetry};
use fairbridge_serve::wire;
use fairbridge_tabular::Dataset;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::data::PROTECTED;
use crate::stats::median;

/// Every per-layer metric with its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("json.parse_ms", "ms"),
    ("wire.dataset_build_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.coalesce_wait_ms", "ms"),
    ("net.unaccounted_ms", "ms"),
    ("serve.coalesce_hit_ratio", "ratio"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.partition_cold_ms", "ms"),
    ("engine.partition_warm_ms", "ms"),
    ("engine.accumulate_ms", "ms"),
    ("metrics.finalize_ms", "ms"),
    ("audit.proxy_ms", "ms"),
    ("audit.subgroup_ms", "ms"),
    ("subgroup.nodes_visited", "count"),
    ("mitigate.reweigh_ms", "ms"),
    ("audit.pipeline_run_ms", "ms"),
];

/// The per-layer figures of one traced run.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(BTreeMap::new())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// `(name, value, unit)` for every metric of [`PER_LAYER`]; an unset
    /// metric is a bug in the benchmark.
    pub fn entries(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| match self.0.get(name) {
                Some(&v) => Ok((name, v, unit)),
                None => Err(format!("per-layer metric {name} was not measured")),
            })
            .collect()
    }
}

/// Each layer runs at least this many calls, and keeps going until it
/// has run for [`BUDGET`] or reached [`MAX_CALLS`].
const MIN_CALLS: usize = 5;
const MAX_CALLS: usize = 200;
const BUDGET: Duration = Duration::from_millis(300);

/// Calls `f(i)` for `i = 0, 1, ...` under the probe budget.
fn repeat(mut f: impl FnMut(usize) -> Result<(), String>) -> Result<(), String> {
    let t0 = Instant::now();
    let mut i = 0;
    while i < MAX_CALLS && (i < MIN_CALLS || t0.elapsed() < BUDGET) {
        f(i)?;
        i += 1;
    }
    Ok(())
}

/// Times every layer on `bodies` (wire encodings) and `datasets`, and
/// records the medians in `out`. When `expected` holds the reference
/// reports of `datasets` (their `Debug` renderings), each
/// `AuditPipeline::run` result is checked against them; the return
/// value is the number of mismatches.
pub fn probe(
    tel: &Telemetry,
    ring: &RingSink,
    bodies: &[&str],
    datasets: &[Dataset],
    expected: Option<&[String]>,
    out: &mut Layers,
) -> Result<u64, String> {
    let spec = AuditSpec::new(&PROTECTED, false);
    let config = &spec.config;
    let ds = |i: usize| &datasets[i % datasets.len()];

    repeat(|i| {
        let text = bodies[i % bodies.len()];
        let value = {
            let _s = tel.span("json.parse");
            parse(text)?
        };
        let column_data = value.get("dataset").ok_or("body has no dataset")?;
        let _s = tel.span("wire.dataset_build");
        black_box(wire::parse_dataset(column_data)?);
        Ok(())
    })?;

    repeat(|i| {
        // A fresh engine has never seen the dataset: the first lookup
        // builds, the second hits.
        let engine = Engine::new(EngineConfig::default());
        {
            let _s = tel.span("engine.partition_cold");
            black_box(
                engine
                    .partition(ds(i), &PROTECTED)
                    .map_err(|e| e.to_string())?,
            );
        }
        let partition = {
            let _s = tel.span("engine.partition_warm");
            engine
                .partition(ds(i), &PROTECTED)
                .map_err(|e| e.to_string())?
        };
        let predictions = ds(i).predictions().map_err(|e| e.to_string())?;
        let labels = ds(i).labels().map_err(|e| e.to_string())?;
        let acc = {
            let _s = tel.span("engine.accumulate");
            engine
                .accumulate(&partition, predictions, Some(labels))
                .map_err(|e| e.to_string())?
        };
        let _s = tel.span("metrics.finalize");
        black_box(from_accumulator(
            &acc,
            config.tolerance,
            config.min_group_size,
        ));
        Ok(())
    })?;

    repeat(|i| {
        let _s = tel.span("audit.proxy");
        black_box(association_ranking(ds(i), PROTECTED[0])?);
        Ok(())
    })?;

    let auditor = SubgroupAuditor {
        max_depth: config.subgroup_depth,
        min_support: config.min_group_size,
        alpha: config.alpha,
    };
    repeat(|i| {
        let decisions = ds(i).predictions().map_err(|e| e.to_string())?;
        let _s = tel.span("audit.subgroup");
        black_box(auditor.audit(ds(i), &PROTECTED, decisions)?);
        Ok(())
    })?;
    // The lattice size is a property of the data, not of timing: count
    // it once per dataset through the auditor's own counter.
    let mut visited = 0;
    for d in datasets {
        let counter = Telemetry::new(Arc::new(NoopSink));
        let decisions = d.predictions().map_err(|e| e.to_string())?;
        auditor.audit_observed(d, &PROTECTED, decisions, 0, &counter)?;
        visited += counter.counter("subgroup.nodes_visited").get();
    }
    out.set(
        "subgroup.nodes_visited",
        visited as f64 / datasets.len() as f64,
    );

    repeat(|i| {
        let _s = tel.span("mitigate.reweigh");
        black_box(fairbridge_mitigate::reweigh(ds(i), &PROTECTED)?);
        Ok(())
    })?;

    let pipeline = AuditPipeline::new(AuditConfig::default());
    let mut mismatches = 0;
    repeat(|i| {
        let report = {
            let _s = tel.span("audit.pipeline_run");
            pipeline.run(ds(i), &PROTECTED, false)?
        };
        if let Some(expected) = expected {
            if format!("{report:?}") != expected[i % datasets.len()] {
                mismatches += 1;
            }
        }
        Ok(())
    })?;

    let mut spans: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for event in ring.events() {
        if let EventKind::SpanEnd { name, elapsed_ns } = event.kind {
            spans.entry(name).or_default().push(elapsed_ns as f64 / 1e6);
        }
    }
    for (span, metric) in [
        ("json.parse", "json.parse_ms"),
        ("wire.dataset_build", "wire.dataset_build_ms"),
        ("engine.partition_cold", "engine.partition_cold_ms"),
        ("engine.partition_warm", "engine.partition_warm_ms"),
        ("engine.accumulate", "engine.accumulate_ms"),
        ("metrics.finalize", "metrics.finalize_ms"),
        ("audit.proxy", "audit.proxy_ms"),
        ("audit.subgroup", "audit.subgroup_ms"),
        ("mitigate.reweigh", "mitigate.reweigh_ms"),
        ("audit.pipeline_run", "audit.pipeline_run_ms"),
    ] {
        let values = spans
            .get(span)
            .ok_or_else(|| format!("no {span} spans in the ring"))?;
        out.set(metric, median(values));
    }
    Ok(mismatches)
}

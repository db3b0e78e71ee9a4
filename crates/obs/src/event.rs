//! The telemetry event model and its JSON-lines rendering.
//!
//! Every record a [`Sink`](crate::sink::Sink) receives is an [`Event`]: a
//! small envelope (monotonic timestamp, thread, span context) around an
//! [`EventKind`]. The kinds split into the *mechanical* vocabulary every
//! tracing layer has (span start/end, counter and histogram summaries)
//! and the *fairness* vocabulary ([`FairnessEvent`]) that makes an audit
//! trail legally legible: a drift alarm is a structured, replayable
//! record with the window index, the measured gap and the threshold it
//! breached — not a boolean that evaporates once printed.
//!
//! Serialization is hand-rolled JSON (one object per line, stable
//! `"kind"` discriminator) so the crate stays dependency-free; the
//! matching parser lives in [`crate::json`].

use crate::json::{push_f64, push_str_lit};
use std::fmt::Write as _;

/// The envelope around one telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the owning `Telemetry` was created (monotonic).
    pub t_ns: u64,
    /// Telemetry-assigned id of the emitting thread (dense, stable within
    /// a process — not the OS thread id).
    pub thread: u64,
    /// The span this record belongs to, when one was open.
    pub span: Option<u64>,
    /// The parent of that span, when it had one.
    pub parent: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

/// The record payload: mechanical tracing kinds plus the typed fairness
/// vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened.
    SpanStart {
        /// Span name (e.g. `engine.audit`).
        name: String,
    },
    /// A span closed.
    SpanEnd {
        /// Span name, repeated so a single line is self-describing.
        name: String,
        /// Wall-clock nanoseconds the span stayed open.
        elapsed_ns: u64,
    },
    /// A counter's value at flush time.
    Counter {
        /// Counter name.
        name: String,
        /// Accumulated value.
        value: u64,
    },
    /// A histogram's summary at flush time.
    Histogram {
        /// Histogram name.
        name: String,
        /// Number of recorded values.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// Smallest recorded value (0 when empty).
        min: u64,
        /// Largest recorded value (0 when empty).
        max: u64,
    },
    /// A typed fairness event.
    Fairness(FairnessEvent),
}

/// The structured fairness vocabulary: each variant is one step of the
/// evidential trail a legal review of an audit needs.
#[derive(Debug, Clone, PartialEq)]
pub enum FairnessEvent {
    /// An audit began.
    AuditStarted {
        /// Rows in the audited dataset.
        rows: usize,
        /// Protected columns whose intersection defines the groups.
        protected: Vec<String>,
        /// Whether historical labels (rather than predictions) are audited.
        use_labels: bool,
    },
    /// An exhaustive subgroup (conjunction-lattice) audit began.
    SubgroupAuditStarted {
        /// Rows in the audited dataset.
        rows: usize,
        /// Columns whose level conjunctions define the lattice.
        columns: Vec<String>,
        /// Maximum conjuncts per subgroup.
        max_depth: usize,
        /// Minimum subgroup size enumerated (the anti-monotone pruning
        /// bound).
        min_support: usize,
    },
    /// One shard of the parallel metric scan completed.
    ShardScanned {
        /// Shard index (ascending, merge order).
        shard: usize,
        /// Rows the shard covered.
        rows: usize,
        /// Wall-clock nanoseconds the scan of this shard took.
        elapsed_ns: u64,
    },
    /// The partition cache served a memoized row→group partition.
    PartitionCacheHit {
        /// Insert sequence number of the cache entry that served the hit
        /// — the `entry` of the miss that built it.
        entry: u64,
    },
    /// The partition cache had to build (and insert) a partition.
    PartitionCacheMiss {
        /// Insert sequence number of the cache entry built on the miss.
        entry: u64,
    },
    /// A streaming-monitor tumbling window sealed.
    WindowClosed {
        /// Window index (0 = first window ever sealed).
        window: usize,
        /// Events the window accumulated.
        n: u64,
        /// Demographic-parity gap of the sealed window.
        parity_gap: f64,
    },
    /// Sustained drift: the parity gap breached the threshold in
    /// consecutive sealed windows.
    DriftFlagged {
        /// Index of the window that completed the sustained breach.
        window: usize,
        /// The gap measured in that window.
        parity_gap: f64,
        /// The configured breach threshold.
        threshold: f64,
    },
    /// A mitigation technique was applied to the decision process.
    MitigationApplied {
        /// Technique name (e.g. `reweighing`).
        technique: String,
        /// Free-form description of scope and parameters.
        detail: String,
    },
    /// A static-analysis pass (`fb-lint`) finished scanning the tree.
    LintCompleted {
        /// Source files scanned.
        files_scanned: usize,
        /// Standing rule violations found.
        violations: usize,
        /// Violations suppressed by documented allow-markers.
        suppressed: usize,
    },
    /// The audit daemon admitted a request.
    RequestReceived {
        /// Tenant id from the `X-FB-Tenant` header (or `anonymous`).
        tenant: String,
        /// Request path (e.g. `/audit`).
        endpoint: String,
    },
    /// A request finished and its response bytes were handed back.
    RequestCompleted {
        /// Tenant id the request was attributed to.
        tenant: String,
        /// Request path.
        endpoint: String,
        /// HTTP status of the response.
        status: u16,
        /// Whether this request rode an in-flight identical computation
        /// instead of scheduling its own.
        coalesced: bool,
        /// Nanoseconds from admission to response publication.
        elapsed_ns: u64,
    },
    /// A request was refused at admission (queue full or draining).
    RequestRejected {
        /// Tenant id the rejection was attributed to.
        tenant: String,
        /// Request path.
        endpoint: String,
        /// HTTP status returned (429 when full, 503 when draining).
        status: u16,
    },
    /// A request attached to an identical in-flight computation.
    RequestCoalesced {
        /// Tenant id of the attaching (follower) request.
        tenant: String,
    },
    /// The daemon drained: every admitted request completed before exit.
    ServerDrained {
        /// Requests completed over the daemon's lifetime.
        completed: u64,
        /// Requests refused at admission over the daemon's lifetime.
        rejected: u64,
    },
    /// A tenant's rolling error-budget burn rate crossed 1.0: the tenant
    /// is consuming budget faster than the SLO allows. Emitted once per
    /// transition into breach, not per bad request.
    SloBreached {
        /// Tenant bucket the breach is attributed to.
        tenant: String,
        /// The configured latency objective in milliseconds.
        objective_ms: f64,
        /// The burn rate at the moment of breach (≥ 1.0).
        burn_rate: f64,
        /// Good requests in the rolling window at breach time.
        good: u64,
        /// Bad requests (over-objective or rejected) in the window.
        bad: u64,
    },
    /// A benchmark's measured median drifted past the tolerance band of
    /// its committed baseline (`fb-bench --check`). The evidential
    /// trail thereby records *performance* regressions the same way it
    /// records fairness drift — continuous auditability is a latency
    /// property as much as a correctness one.
    BenchRegressed {
        /// The benchmark label (e.g. `kernels/gemv_simd/1000000`).
        label: String,
        /// Committed baseline median, nanoseconds per iteration.
        baseline_ns: f64,
        /// Measured median, nanoseconds per iteration.
        current_ns: f64,
        /// `current_ns / baseline_ns` (> 1 means slower).
        ratio: f64,
        /// The tolerance band the ratio exceeded (fractional, e.g.
        /// 0.25 for ±25%).
        tolerance: f64,
    },
}

impl EventKind {
    /// The stable `"kind"` discriminator used in the JSON rendering.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SpanStart { .. } => "span_start",
            EventKind::SpanEnd { .. } => "span_end",
            EventKind::Counter { .. } => "counter",
            EventKind::Histogram { .. } => "histogram",
            EventKind::Fairness(f) => f.name(),
        }
    }
}

impl FairnessEvent {
    /// The stable `"kind"` discriminator used in the JSON rendering.
    pub fn name(&self) -> &'static str {
        match self {
            FairnessEvent::AuditStarted { .. } => "audit_started",
            FairnessEvent::SubgroupAuditStarted { .. } => "subgroup_audit_started",
            FairnessEvent::ShardScanned { .. } => "shard_scanned",
            FairnessEvent::PartitionCacheHit { .. } => "partition_cache_hit",
            FairnessEvent::PartitionCacheMiss { .. } => "partition_cache_miss",
            FairnessEvent::WindowClosed { .. } => "window_closed",
            FairnessEvent::DriftFlagged { .. } => "drift_flagged",
            FairnessEvent::MitigationApplied { .. } => "mitigation_applied",
            FairnessEvent::LintCompleted { .. } => "lint_completed",
            FairnessEvent::RequestReceived { .. } => "request_received",
            FairnessEvent::RequestCompleted { .. } => "request_completed",
            FairnessEvent::RequestRejected { .. } => "request_rejected",
            FairnessEvent::RequestCoalesced { .. } => "request_coalesced",
            FairnessEvent::ServerDrained { .. } => "server_drained",
            FairnessEvent::SloBreached { .. } => "slo_breached",
            FairnessEvent::BenchRegressed { .. } => "bench_regressed",
        }
    }
}

/// Appends an `f64` as a JSON number, or `null` when not finite (JSON has
/// no NaN/Infinity).
fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

impl Event {
    /// Renders the event as one self-contained JSON object (no trailing
    /// newline). Field order is stable.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(s, "{{\"t_ns\":{},\"thread\":{},", self.t_ns, self.thread);
        s.push_str("\"span\":");
        push_opt_u64(&mut s, self.span);
        s.push_str(",\"parent\":");
        push_opt_u64(&mut s, self.parent);
        s.push_str(",\"kind\":\"");
        s.push_str(self.kind.name());
        s.push('"');
        match &self.kind {
            EventKind::SpanStart { name } => {
                s.push_str(",\"name\":");
                push_str_lit(&mut s, name);
            }
            EventKind::SpanEnd { name, elapsed_ns } => {
                s.push_str(",\"name\":");
                push_str_lit(&mut s, name);
                let _ = write!(s, ",\"elapsed_ns\":{elapsed_ns}");
            }
            EventKind::Counter { name, value } => {
                s.push_str(",\"name\":");
                push_str_lit(&mut s, name);
                let _ = write!(s, ",\"value\":{value}");
            }
            EventKind::Histogram {
                name,
                count,
                sum,
                min,
                max,
            } => {
                s.push_str(",\"name\":");
                push_str_lit(&mut s, name);
                let _ = write!(
                    s,
                    ",\"count\":{count},\"sum\":{sum},\"min\":{min},\"max\":{max}"
                );
            }
            EventKind::Fairness(f) => match f {
                FairnessEvent::AuditStarted {
                    rows,
                    protected,
                    use_labels,
                } => {
                    let _ = write!(s, ",\"rows\":{rows},\"protected\":[");
                    for (i, p) in protected.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        push_str_lit(&mut s, p);
                    }
                    let _ = write!(s, "],\"use_labels\":{use_labels}");
                }
                FairnessEvent::SubgroupAuditStarted {
                    rows,
                    columns,
                    max_depth,
                    min_support,
                } => {
                    let _ = write!(s, ",\"rows\":{rows},\"columns\":[");
                    for (i, c) in columns.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        push_str_lit(&mut s, c);
                    }
                    let _ = write!(
                        s,
                        "],\"max_depth\":{max_depth},\"min_support\":{min_support}"
                    );
                }
                FairnessEvent::ShardScanned {
                    shard,
                    rows,
                    elapsed_ns,
                } => {
                    let _ = write!(
                        s,
                        ",\"shard\":{shard},\"rows\":{rows},\"elapsed_ns\":{elapsed_ns}"
                    );
                }
                FairnessEvent::PartitionCacheHit { entry }
                | FairnessEvent::PartitionCacheMiss { entry } => {
                    let _ = write!(s, ",\"entry\":{entry}");
                }
                FairnessEvent::WindowClosed {
                    window,
                    n,
                    parity_gap,
                } => {
                    let _ = write!(s, ",\"window\":{window},\"n\":{n},\"parity_gap\":");
                    push_f64(&mut s, *parity_gap);
                }
                FairnessEvent::DriftFlagged {
                    window,
                    parity_gap,
                    threshold,
                } => {
                    let _ = write!(s, ",\"window\":{window},\"parity_gap\":");
                    push_f64(&mut s, *parity_gap);
                    s.push_str(",\"threshold\":");
                    push_f64(&mut s, *threshold);
                }
                FairnessEvent::MitigationApplied { technique, detail } => {
                    s.push_str(",\"technique\":");
                    push_str_lit(&mut s, technique);
                    s.push_str(",\"detail\":");
                    push_str_lit(&mut s, detail);
                }
                FairnessEvent::LintCompleted {
                    files_scanned,
                    violations,
                    suppressed,
                } => {
                    let _ = write!(
                        s,
                        ",\"files_scanned\":{files_scanned},\"violations\":{violations},\"suppressed\":{suppressed}"
                    );
                }
                FairnessEvent::RequestReceived { tenant, endpoint } => {
                    s.push_str(",\"tenant\":");
                    push_str_lit(&mut s, tenant);
                    s.push_str(",\"endpoint\":");
                    push_str_lit(&mut s, endpoint);
                }
                FairnessEvent::RequestCompleted {
                    tenant,
                    endpoint,
                    status,
                    coalesced,
                    elapsed_ns,
                } => {
                    s.push_str(",\"tenant\":");
                    push_str_lit(&mut s, tenant);
                    s.push_str(",\"endpoint\":");
                    push_str_lit(&mut s, endpoint);
                    let _ = write!(
                        s,
                        ",\"status\":{status},\"coalesced\":{coalesced},\"elapsed_ns\":{elapsed_ns}"
                    );
                }
                FairnessEvent::RequestRejected {
                    tenant,
                    endpoint,
                    status,
                } => {
                    s.push_str(",\"tenant\":");
                    push_str_lit(&mut s, tenant);
                    s.push_str(",\"endpoint\":");
                    push_str_lit(&mut s, endpoint);
                    let _ = write!(s, ",\"status\":{status}");
                }
                FairnessEvent::RequestCoalesced { tenant } => {
                    s.push_str(",\"tenant\":");
                    push_str_lit(&mut s, tenant);
                }
                FairnessEvent::ServerDrained {
                    completed,
                    rejected,
                } => {
                    let _ = write!(s, ",\"completed\":{completed},\"rejected\":{rejected}");
                }
                FairnessEvent::SloBreached {
                    tenant,
                    objective_ms,
                    burn_rate,
                    good,
                    bad,
                } => {
                    s.push_str(",\"tenant\":");
                    push_str_lit(&mut s, tenant);
                    s.push_str(",\"objective_ms\":");
                    push_f64(&mut s, *objective_ms);
                    s.push_str(",\"burn_rate\":");
                    push_f64(&mut s, *burn_rate);
                    let _ = write!(s, ",\"good\":{good},\"bad\":{bad}");
                }
                FairnessEvent::BenchRegressed {
                    label,
                    baseline_ns,
                    current_ns,
                    ratio,
                    tolerance,
                } => {
                    s.push_str(",\"label\":");
                    push_str_lit(&mut s, label);
                    s.push_str(",\"baseline_ns\":");
                    push_f64(&mut s, *baseline_ns);
                    s.push_str(",\"current_ns\":");
                    push_f64(&mut s, *current_ns);
                    s.push_str(",\"ratio\":");
                    push_f64(&mut s, *ratio);
                    s.push_str(",\"tolerance\":");
                    push_f64(&mut s, *tolerance);
                }
            },
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(kind: EventKind) -> Event {
        Event {
            t_ns: 42,
            thread: 1,
            span: Some(3),
            parent: None,
            kind,
        }
    }

    #[test]
    fn json_envelope_and_discriminator() {
        let e = envelope(EventKind::SpanStart {
            name: "engine.audit".into(),
        });
        assert_eq!(
            e.to_json(),
            "{\"t_ns\":42,\"thread\":1,\"span\":3,\"parent\":null,\
             \"kind\":\"span_start\",\"name\":\"engine.audit\"}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = envelope(EventKind::Fairness(FairnessEvent::MitigationApplied {
            technique: "quote\"back\\slash".into(),
            detail: "line\nbreak\ttab\u{1}ctl".into(),
        }));
        let json = e.to_json();
        assert!(json.contains("quote\\\"back\\\\slash"));
        assert!(json.contains("line\\nbreak\\ttab\\u0001ctl"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = envelope(EventKind::Fairness(FairnessEvent::WindowClosed {
            window: 0,
            n: 10,
            parity_gap: f64::NAN,
        }));
        assert!(e.to_json().contains("\"parity_gap\":null"));
    }

    #[test]
    fn subgroup_audit_started_renders_payload() {
        let e = envelope(EventKind::Fairness(FairnessEvent::SubgroupAuditStarted {
            rows: 8000,
            columns: vec!["gender".into(), "race".into()],
            max_depth: 3,
            min_support: 20,
        }));
        let json = e.to_json();
        assert!(json.contains("\"kind\":\"subgroup_audit_started\""));
        assert!(json.contains("\"rows\":8000"));
        assert!(json.contains("\"columns\":[\"gender\",\"race\"]"));
        assert!(json.contains("\"max_depth\":3,\"min_support\":20"));
    }

    #[test]
    fn serve_events_render_payloads() {
        let e = envelope(EventKind::Fairness(FairnessEvent::RequestCompleted {
            tenant: "bank-a".into(),
            endpoint: "/audit".into(),
            status: 200,
            coalesced: true,
            elapsed_ns: 1234,
        }));
        let json = e.to_json();
        assert!(json.contains("\"kind\":\"request_completed\""));
        assert!(json.contains("\"tenant\":\"bank-a\",\"endpoint\":\"/audit\""));
        assert!(json.contains("\"status\":200,\"coalesced\":true,\"elapsed_ns\":1234"));

        let e = envelope(EventKind::Fairness(FairnessEvent::RequestCoalesced {
            tenant: "bank-b".into(),
        }));
        assert!(e
            .to_json()
            .ends_with("\"kind\":\"request_coalesced\",\"tenant\":\"bank-b\"}"));

        let e = envelope(EventKind::Fairness(FairnessEvent::RequestRejected {
            tenant: "anonymous".into(),
            endpoint: "/mitigate".into(),
            status: 429,
        }));
        assert!(e.to_json().contains("\"status\":429"));

        let e = envelope(EventKind::Fairness(FairnessEvent::ServerDrained {
            completed: 7,
            rejected: 2,
        }));
        assert!(e.to_json().contains("\"completed\":7,\"rejected\":2"));

        let e = envelope(EventKind::Fairness(FairnessEvent::RequestReceived {
            tenant: "bank-a".into(),
            endpoint: "/audit".into(),
        }));
        assert!(e.to_json().contains("\"kind\":\"request_received\""));

        let e = envelope(EventKind::Fairness(FairnessEvent::SloBreached {
            tenant: "bank-a".into(),
            objective_ms: 250.0,
            burn_rate: 2.5,
            good: 90,
            bad: 10,
        }));
        let json = e.to_json();
        assert!(json.contains("\"kind\":\"slo_breached\""));
        assert!(json.contains("\"tenant\":\"bank-a\""));
        assert!(json.contains("\"objective_ms\":250"));
        assert!(json.contains("\"burn_rate\":2.5"));
        assert!(json.contains("\"good\":90,\"bad\":10"));

        let e = envelope(EventKind::Fairness(FairnessEvent::BenchRegressed {
            label: "kernels/gemv_simd/1000000".into(),
            baseline_ns: 1000.0,
            current_ns: 1500.0,
            ratio: 1.5,
            tolerance: 0.25,
        }));
        let json = e.to_json();
        assert!(json.contains("\"kind\":\"bench_regressed\""));
        assert!(json.contains("\"label\":\"kernels/gemv_simd/1000000\""));
        assert!(json.contains("\"baseline_ns\":1000"));
        assert!(json.contains("\"current_ns\":1500"));
        assert!(json.contains("\"ratio\":1.5"));
        assert!(json.contains("\"tolerance\":0.25"));
    }

    #[test]
    fn every_kind_has_a_stable_name() {
        let kinds = [
            EventKind::SpanStart { name: "s".into() }.name(),
            EventKind::SpanEnd {
                name: "s".into(),
                elapsed_ns: 1,
            }
            .name(),
            EventKind::Counter {
                name: "c".into(),
                value: 1,
            }
            .name(),
            EventKind::Fairness(FairnessEvent::DriftFlagged {
                window: 1,
                parity_gap: 0.2,
                threshold: 0.1,
            })
            .name(),
        ];
        assert_eq!(
            kinds,
            ["span_start", "span_end", "counter", "drift_flagged"]
        );
    }
}

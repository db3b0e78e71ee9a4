//! The soak-test load client: N concurrent keep-alive connections
//! hammering the daemon with a small pool of deterministic audit
//! bodies, reporting latency percentiles, throughput and the coalescing
//! hit rate.
//!
//! The body pool is deliberately smaller than the connection count so
//! that concurrent identical requests exist by construction — that is
//! what exercises the coalescer. Bodies are a pure function of their
//! variant index, so a given `(connections, requests, distinct)` run
//! always sends the same byte streams. Connection fan-out rides
//! [`ordered_parallel_map`] — the workspace's one sanctioned thread
//! spawn point — with one worker per connection, and all timing goes
//! through [`Telemetry::now_ns`] (the sanctioned clock).

use crate::http::{read_response, Response};
use fairbridge_obs::json::{parse, Value};
use fairbridge_obs::Telemetry;
use fairbridge_tabular::par::ordered_parallel_map;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::time::Duration;

/// Load-run shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address, e.g. `127.0.0.1:7979`.
    pub addr: String,
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Requests sent per connection.
    pub requests_per_conn: usize,
    /// Size of the deterministic body pool; smaller than `connections`
    /// forces coalescing.
    pub distinct_bodies: usize,
    /// Number of synthetic tenants cycled through `X-FB-Tenant`.
    pub tenants: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7979".to_owned(),
            connections: 32,
            requests_per_conn: 8,
            distinct_bodies: 4,
            tenants: 3,
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Requests answered 200.
    pub ok: u64,
    /// Responses by status code.
    pub statuses: BTreeMap<u16, u64>,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Aggregate throughput over the whole run.
    pub req_per_s: f64,
    /// Fraction of sent requests the daemon served by attaching to an
    /// in-flight identical computation (from the `/metrics` delta).
    pub coalesce_hit_rate: f64,
    /// Wall-clock duration of the request phase, milliseconds.
    pub wall_ms: f64,
    /// The daemon's own latency decomposition, scraped from `/metrics`
    /// after the soak — `None` when the daemon ran without telemetry.
    pub server: Option<ServerBreakdown>,
}

/// Server-side latency quantiles (milliseconds), read from the daemon's
/// `/metrics` histograms after a soak. Putting these next to the
/// client-side percentiles makes client/server disagreement — network
/// stalls, connection queuing, slow readers — visible in one report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerBreakdown {
    /// `serve.request_ns` p50: admission to response, daemon-side.
    pub request_p50_ms: f64,
    /// `serve.request_ns` p99.
    pub request_p99_ms: f64,
    /// `serve.queue_wait_ns` p50: time jobs sat in the bounded queue.
    pub queue_wait_p50_ms: f64,
    /// `serve.queue_wait_ns` p99.
    pub queue_wait_p99_ms: f64,
    /// `engine.scan_ns` p50: the engine's partition-and-scan phase.
    pub scan_p50_ms: f64,
    /// `engine.scan_ns` p99.
    pub scan_p99_ms: f64,
}

impl ServerBreakdown {
    fn to_json(&self) -> String {
        let mut s = String::with_capacity(192);
        let _ = write!(
            s,
            "{{\"request_p50_ms\":{:.3},\"request_p99_ms\":{:.3},\
             \"queue_wait_p50_ms\":{:.3},\"queue_wait_p99_ms\":{:.3},\
             \"scan_p50_ms\":{:.3},\"scan_p99_ms\":{:.3}}}",
            self.request_p50_ms,
            self.request_p99_ms,
            self.queue_wait_p50_ms,
            self.queue_wait_p99_ms,
            self.scan_p50_ms,
            self.scan_p99_ms,
        );
        s
    }
}

impl LoadReport {
    /// Renders the report as one JSON object (fixed field order).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"sent\":{},\"ok\":{},\"statuses\":{{",
            self.sent, self.ok
        );
        for (i, (status, count)) in self.statuses.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{status}\":{count}");
        }
        let _ = write!(
            s,
            "}},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"req_per_s\":{:.1},\
             \"coalesce_hit_rate\":{:.4},\"wall_ms\":{:.1},\"server\":",
            self.p50_ms, self.p99_ms, self.req_per_s, self.coalesce_hit_rate, self.wall_ms
        );
        match &self.server {
            Some(server) => s.push_str(&server.to_json()),
            None => s.push_str("null"),
        }
        s.push('}');
        s
    }
}

/// A deterministic synthetic audit body for `variant`. Same variant,
/// same bytes — the property coalescing and byte-identity checks rest
/// on.
pub fn synthetic_audit_body(variant: usize) -> String {
    let rows = 96;
    let mut codes = String::with_capacity(rows * 2);
    let mut labels = String::with_capacity(rows * 6);
    let mut preds = String::with_capacity(rows * 6);
    for row in 0..rows {
        if row > 0 {
            codes.push(',');
            labels.push(',');
            preds.push(',');
        }
        // An LCG keyed by (variant, row): deterministic, variant-distinct.
        let x = (row as u64)
            .wrapping_add(variant as u64 + 1)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let _ = write!(codes, "{}", (x >> 33) & 1);
        labels.push_str(if (x >> 34) & 3 != 0 { "true" } else { "false" });
        preds.push_str(if (x >> 36) & 3 != 0 { "true" } else { "false" });
    }
    format!(
        concat!(
            "{{\"dataset\":{{\"columns\":[",
            "{{\"name\":\"group\",\"type\":\"categorical\",\"role\":\"protected\",",
            "\"levels\":[\"a\",\"b\"],\"codes\":[{codes}]}},",
            "{{\"name\":\"outcome\",\"type\":\"boolean\",\"role\":\"label\",\"values\":[{labels}]}},",
            "{{\"name\":\"pred\",\"type\":\"boolean\",\"role\":\"prediction\",\"values\":[{preds}]}}",
            "]}},\"protected\":[\"group\"],\"use_labels\":true}}"
        ),
        codes = codes,
        labels = labels,
        preds = preds,
    )
}

/// One request over an existing connection; returns the parsed
/// response.
pub fn request_on(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    tenant: &str,
    body: &[u8],
) -> Result<Response, String> {
    // Head and body go out in one write: split writes let Nagle's
    // algorithm hold the body until the server's delayed ACK.
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: fairbridge\r\nX-FB-Tenant: {tenant}\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream
        .write_all(&request)
        .map_err(|e| format!("write request: {e}"))?;
    read_response(reader)
}

/// Opens a connection to `addr` with `TCP_NODELAY` and a generous read
/// timeout, returning the write half and a buffered read half.
pub fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    Ok((stream, reader))
}

/// Fetches and parses `GET /metrics`.
pub fn fetch_metrics(addr: &str) -> Result<Value, String> {
    let (mut stream, mut reader) = connect(addr)?;
    let resp = request_on(&mut stream, &mut reader, "GET", "/metrics", "loadgen", b"")?;
    if resp.status != 200 {
        return Err(format!("/metrics returned {}", resp.status));
    }
    let text = std::str::from_utf8(&resp.body).map_err(|_| "/metrics body not UTF-8".to_owned())?;
    parse(text)
}

struct ConnOutcome {
    sent: u64,
    ok: u64,
    statuses: BTreeMap<u16, u64>,
    latencies_ns: Vec<u64>,
}

fn run_connection(cfg: &LoadConfig, conn: usize, clock: &Telemetry) -> Result<ConnOutcome, String> {
    let (mut stream, mut reader) = connect(&cfg.addr)?;
    let tenant = format!("tenant-{}", conn % cfg.tenants.max(1));
    let mut out = ConnOutcome {
        sent: 0,
        ok: 0,
        statuses: BTreeMap::new(),
        latencies_ns: Vec::with_capacity(cfg.requests_per_conn),
    };
    for r in 0..cfg.requests_per_conn {
        // Connections at the same round share a body — concurrent
        // identical requests by construction.
        let body = synthetic_audit_body(r % cfg.distinct_bodies.max(1));
        let t0 = clock.now_ns();
        let resp = request_on(
            &mut stream,
            &mut reader,
            "POST",
            "/audit",
            &tenant,
            body.as_bytes(),
        )?;
        out.latencies_ns.push(clock.now_ns().saturating_sub(t0));
        out.sent += 1;
        if resp.status == 200 {
            out.ok += 1;
        }
        *out.statuses.entry(resp.status).or_insert(0) += 1;
    }
    Ok(out)
}

fn percentile_ms(sorted_ns: &[u64], pct: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() as f64 - 1.0) * pct / 100.0).round() as usize;
    let idx = rank.min(sorted_ns.len() - 1);
    sorted_ns.get(idx).copied().unwrap_or(0) as f64 / 1e6
}

fn counter(metrics: &Value, key: &str) -> u64 {
    metrics.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// A histogram quantile from the `/metrics` `histograms` section, in
/// milliseconds (0.0 when the series is absent).
fn histogram_quantile_ms(metrics: &Value, name: &str, quantile_key: &str) -> f64 {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(quantile_key))
        .and_then(Value::as_f64)
        .map_or(0.0, |ns| ns / 1e6)
}

/// Extracts the server-side breakdown from a post-soak `/metrics`
/// snapshot; `None` when the daemon exposed no request histogram (i.e.
/// it ran without telemetry).
fn server_breakdown(metrics: &Value) -> Option<ServerBreakdown> {
    let count = metrics
        .get("histograms")
        .and_then(|h| h.get("serve.request_ns"))
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if count == 0 {
        return None;
    }
    Some(ServerBreakdown {
        request_p50_ms: histogram_quantile_ms(metrics, "serve.request_ns", "p50"),
        request_p99_ms: histogram_quantile_ms(metrics, "serve.request_ns", "p99"),
        queue_wait_p50_ms: histogram_quantile_ms(metrics, "serve.queue_wait_ns", "p50"),
        queue_wait_p99_ms: histogram_quantile_ms(metrics, "serve.queue_wait_ns", "p99"),
        scan_p50_ms: histogram_quantile_ms(metrics, "engine.scan_ns", "p50"),
        scan_p99_ms: histogram_quantile_ms(metrics, "engine.scan_ns", "p99"),
    })
}

/// Runs the load: fans out `connections` concurrent keep-alive clients,
/// aggregates latencies and statuses, and derives the coalescing hit
/// rate from the daemon's `/metrics` counters.
pub fn run(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let clock = Telemetry::off();
    let before = fetch_metrics(&cfg.addr)?;
    let connections = cfg.connections.max(1);

    let t0 = clock.now_ns();
    let outcomes =
        ordered_parallel_map(connections, connections, |i| run_connection(cfg, i, &clock));
    let wall_ns = clock.now_ns().saturating_sub(t0);

    let after = fetch_metrics(&cfg.addr)?;

    let mut sent = 0u64;
    let mut ok = 0u64;
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    for outcome in outcomes {
        let outcome = outcome?;
        sent += outcome.sent;
        ok += outcome.ok;
        for (status, count) in outcome.statuses {
            *statuses.entry(status).or_insert(0) += count;
        }
        latencies.extend(outcome.latencies_ns);
    }
    latencies.sort_unstable();

    let hits_delta =
        counter(&after, "coalesced_hits").saturating_sub(counter(&before, "coalesced_hits"));
    let wall_s = (wall_ns as f64 / 1e9).max(1e-9);
    Ok(LoadReport {
        sent,
        ok,
        statuses,
        p50_ms: percentile_ms(&latencies, 50.0),
        p99_ms: percentile_ms(&latencies, 99.0),
        req_per_s: sent as f64 / wall_s,
        coalesce_hit_rate: if sent == 0 {
            0.0
        } else {
            hits_delta as f64 / sent as f64
        },
        wall_ms: wall_ns as f64 / 1e6,
        server: server_breakdown(&after),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_bodies_are_deterministic_and_variant_distinct() {
        assert_eq!(synthetic_audit_body(0), synthetic_audit_body(0));
        assert_ne!(synthetic_audit_body(0), synthetic_audit_body(1));
        assert!(synthetic_audit_body(0).contains("\"protected\":[\"group\"]"));
    }

    #[test]
    fn synthetic_bodies_parse_as_audit_requests() {
        for variant in 0..4 {
            let body = synthetic_audit_body(variant);
            let req = crate::wire::parse_audit_request(body.as_bytes())
                .unwrap_or_else(|e| panic!("variant {variant}: {e}"));
            assert_eq!(req.dataset.n_rows(), 96);
        }
    }

    #[test]
    fn percentiles_pick_from_sorted_tail() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert!((percentile_ms(&ns, 50.0) - 50.0).abs() < 2.0);
        assert!((percentile_ms(&ns, 99.0) - 99.0).abs() < 2.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }

    #[test]
    fn report_renders_fixed_field_order() {
        let report = LoadReport {
            sent: 10,
            ok: 9,
            statuses: BTreeMap::from([(200, 9), (429, 1)]),
            p50_ms: 1.25,
            p99_ms: 9.5,
            req_per_s: 100.0,
            coalesce_hit_rate: 0.5,
            wall_ms: 100.0,
            server: None,
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"sent\":10,\"ok\":9,\"statuses\":{\"200\":9,\"429\":1}"));
        assert!(json.contains("\"coalesce_hit_rate\":0.5000"));
        assert!(json.ends_with("\"server\":null}"));
    }

    #[test]
    fn server_breakdown_reads_metrics_histograms() {
        let metrics = parse(concat!(
            "{\"histograms\":{",
            "\"engine.scan_ns\":{\"count\":5,\"sum\":10,\"p50\":2000000,\"p99\":4000000,\"max\":9},",
            "\"serve.queue_wait_ns\":{\"count\":5,\"sum\":10,\"p50\":500000,\"p99\":1500000,\"max\":9},",
            "\"serve.request_ns\":{\"count\":5,\"sum\":10,\"p50\":3000000,\"p99\":8000000,\"max\":9}",
            "}}"
        ))
        .unwrap();
        let b = server_breakdown(&metrics).unwrap();
        assert!((b.request_p50_ms - 3.0).abs() < 1e-9);
        assert!((b.request_p99_ms - 8.0).abs() < 1e-9);
        assert!((b.queue_wait_p99_ms - 1.5).abs() < 1e-9);
        assert!((b.scan_p50_ms - 2.0).abs() < 1e-9);

        // No request histogram (telemetry off) → no server section.
        let empty = parse("{\"histograms\":{}}").unwrap();
        assert_eq!(server_breakdown(&empty), None);
    }
}

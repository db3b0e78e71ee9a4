//! End-to-end tests for the audit daemon: coalescing, backpressure,
//! graceful drain, byte-identity across worker counts, cross-request
//! caching, and a soak run with the load client.

use fairbridge_engine::EngineConfig;
use fairbridge_obs::{RingSink, Telemetry};
use fairbridge_serve::load::{self, synthetic_audit_body, LoadConfig};
use fairbridge_serve::server::{self, ServerConfig, ServerHandle};
use std::fmt::Write as _;
use std::io::{BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn start_server(workers: usize, queue_capacity: usize) -> (ServerHandle, Telemetry) {
    let telemetry = Telemetry::new(Arc::new(RingSink::with_capacity(4096)));
    let config = ServerConfig {
        workers,
        queue_capacity,
        engine: EngineConfig::default(),
        ..ServerConfig::default()
    };
    let handle = server::start(config, telemetry.clone()).expect("server starts");
    (handle, telemetry)
}

/// A deliberately expensive audit body: enough protected columns, rows
/// and subgroup depth that the single worker stays busy for on the
/// order of a second while the test lines up concurrent requests behind
/// it. Release builds chew through audits ~20x faster than debug
/// builds, so the column count scales with the profile to keep the
/// occupancy window comparable.
fn blocker_body() -> String {
    #[cfg(debug_assertions)]
    const COLS: usize = 3;
    #[cfg(not(debug_assertions))]
    const COLS: usize = 6;
    const LEVELS: usize = 8;
    let rows = 600_000;
    let mut body = String::from("{\"dataset\":{\"columns\":[");
    for c in 0..COLS {
        if c > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"name\":\"c{c}\",\"type\":\"categorical\",\"role\":\"protected\",\"levels\":["
        );
        for l in 0..LEVELS {
            if l > 0 {
                body.push(',');
            }
            let _ = write!(body, "\"l{l}\"");
        }
        body.push_str("],\"codes\":[");
        for row in 0..rows {
            if row > 0 {
                body.push(',');
            }
            let x = (row as u64)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(c as u64);
            let _ = write!(body, "{}", (x >> 33) % LEVELS as u64);
        }
        body.push_str("]}");
    }
    body.push_str(",{\"name\":\"outcome\",\"type\":\"boolean\",\"role\":\"label\",\"values\":[");
    for row in 0..rows {
        if row > 0 {
            body.push(',');
        }
        body.push_str(if (row * 7) % 3 != 0 { "true" } else { "false" });
    }
    body.push_str("]}]},\"protected\":[");
    for c in 0..COLS {
        if c > 0 {
            body.push(',');
        }
        let _ = write!(body, "\"c{c}\"");
    }
    body.push_str("],\"use_labels\":true,\"subgroup_depth\":3}");
    body
}

fn post_audit(addr: &str, tenant: &str, body: &str) -> fairbridge_serve::Response {
    let (mut stream, mut reader) = load::connect(addr).expect("connect");
    load::request_on(
        &mut stream,
        &mut reader,
        "POST",
        "/audit",
        tenant,
        body.as_bytes(),
    )
    .expect("request")
}

/// Sends one request with `Connection: close` and returns the raw
/// response bytes off the wire.
fn post_audit_raw(addr: &str, body: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let head = format!(
        "POST /audit HTTP/1.1\r\nHost: fairbridge\r\nConnection: close\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = Vec::new();
    BufReader::new(stream).read_to_end(&mut raw).expect("read");
    raw
}

fn counter(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry
        .counter_values()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

/// Polls `cond` (10 ms period) until it holds, panicking after 5 s.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..500 {
        if cond() {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// Waits until `n` requests were admitted, plus a beat for the last
/// admission to reach the queue (push follows the admission counter by
/// microseconds in the same function).
fn wait_for_received(handle: &ServerHandle, n: u64) {
    wait_until(&format!("{n} requests admitted"), || {
        handle
            .stats()
            .received
            .load(std::sync::atomic::Ordering::Relaxed)
            >= n
    });
    thread::sleep(Duration::from_millis(50));
}

/// Waits until the worker has carried the blocker into the engine —
/// `engine.audits` increments on entry, so from here until that audit
/// finishes the (single) worker is provably busy.
fn wait_for_engine_entry(telemetry: &Telemetry, n: u64) {
    wait_until(&format!("{n} engine audits started"), || {
        counter(telemetry, "engine.audits") >= n
    });
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_computation() {
    let (handle, telemetry) = start_server(1, 16);
    let addr = handle.addr().to_string();

    // Occupy the single worker with an expensive audit. The body is
    // prebuilt so the spawn-to-admission latency is just a socket write.
    let heavy = blocker_body();
    let blocker_addr = addr.clone();
    let blocker = thread::spawn(move || post_audit(&blocker_addr, "heavy", &heavy));
    wait_for_received(&handle, 1);
    wait_for_engine_entry(&telemetry, 1);

    // Two identical requests while the worker is busy: the first leads
    // and queues one job, the second attaches to it.
    let body = synthetic_audit_body(1);
    let mut riders = Vec::new();
    for i in 0..2 {
        let rider_addr = addr.clone();
        let rider_body = body.clone();
        let tenant = format!("rider-{i}");
        riders.push(thread::spawn(move || {
            post_audit(&rider_addr, &tenant, &rider_body)
        }));
        wait_for_received(&handle, 2 + i);
    }
    let responses: Vec<_> = riders.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(blocker.join().unwrap().status, 200);

    assert_eq!(responses[0].status, 200);
    assert_eq!(responses[1].status, 200);
    assert_eq!(
        responses[0].body, responses[1].body,
        "coalesced responses must be byte-identical"
    );

    assert_eq!(counter(&telemetry, "serve.requests"), 3);
    assert_eq!(
        counter(&telemetry, "serve.coalesced"),
        1,
        "exactly one rider attached to the in-flight computation"
    );
    // Per-tenant attribution: every tenant shows up in the counters.
    for tenant in ["heavy", "rider-0", "rider-1"] {
        assert_eq!(
            counter(&telemetry, &format!("serve.tenant.{tenant}.requests")),
            1
        );
    }
    // 3 requests arrived, but only 2 engine audits ran.
    assert_eq!(counter(&telemetry, "engine.audits"), 2);

    let summary = handle.drain();
    assert_eq!(summary.received, 3);
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.rejected, 0);
    assert_eq!(summary.coalesced_hits, 1);
}

#[test]
fn full_queue_rejects_with_429_and_retry_after() {
    let (handle, telemetry) = start_server(1, 1);
    let addr = handle.addr().to_string();

    // Worker busy with the blocker, queue holding one more distinct job.
    let heavy = blocker_body();
    let blocker_addr = addr.clone();
    let blocker = thread::spawn(move || post_audit(&blocker_addr, "t0", &heavy));
    wait_for_received(&handle, 1);
    wait_for_engine_entry(&telemetry, 1);
    let queued_addr = addr.clone();
    let queued_body = synthetic_audit_body(10);
    let queued = thread::spawn(move || post_audit(&queued_addr, "t1", &queued_body));
    wait_for_received(&handle, 2);

    // A third distinct request finds the queue full: 429 + Retry-After.
    let rejected = post_audit(&addr, "t2", &synthetic_audit_body(11));
    assert_eq!(rejected.status, 429);
    assert_eq!(
        rejected.headers.get("retry-after").map(String::as_str),
        Some("1")
    );
    assert!(String::from_utf8_lossy(&rejected.body).contains("queue full"));

    assert_eq!(blocker.join().unwrap().status, 200);
    assert_eq!(queued.join().unwrap().status, 200);

    let summary = handle.drain();
    assert_eq!(summary.received, 3);
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.rejected, 1);
}

#[test]
fn graceful_drain_completes_every_admitted_request() {
    let (handle, telemetry) = start_server(1, 16);
    let addr = handle.addr().to_string();

    // Four distinct in-flight requests; the first is expensive, so the
    // rest are still queued when the drain starts.
    let mut clients = Vec::new();
    for i in 0..4u64 {
        let client_addr = addr.clone();
        let body = if i == 0 {
            blocker_body()
        } else {
            synthetic_audit_body(20 + i as usize)
        };
        clients.push(thread::spawn(move || {
            post_audit(&client_addr, &format!("t{i}"), &body)
        }));
        wait_for_received(&handle, i + 1);
        if i == 0 {
            wait_for_engine_entry(&telemetry, 1);
        }
    }

    let summary = handle.drain();

    for client in clients {
        assert_eq!(
            client.join().unwrap().status,
            200,
            "admitted requests must complete through the drain"
        );
    }
    assert_eq!(summary.received, 4);
    assert_eq!(summary.completed, 4);
    assert_eq!(summary.rejected, 0, "nothing admitted was dropped");
}

#[test]
fn responses_are_byte_identical_across_worker_counts() {
    let body = synthetic_audit_body(2);
    let mut renditions = Vec::new();
    for workers in [1usize, 2, 8] {
        let (handle, _telemetry) = start_server(workers, 16);
        let raw = post_audit_raw(&handle.addr().to_string(), &body);
        handle.drain();
        renditions.push((workers, raw));
    }
    let (_, base) = &renditions[0];
    for (workers, raw) in &renditions[1..] {
        assert_eq!(
            raw, base,
            "{workers} workers produced different wire bytes than 1 worker"
        );
    }
}

#[test]
fn partition_cache_serves_repeat_requests_across_connections() {
    let (handle, _telemetry) = start_server(2, 16);
    let addr = handle.addr().to_string();
    let body = synthetic_audit_body(3);

    // Sequential → no coalescing; the second request exercises the
    // cross-request partition cache instead.
    let first = post_audit(&addr, "alpha", &body);
    let second = post_audit(&addr, "beta", &body);
    assert_eq!(first.status, 200);
    assert_eq!(first.body, second.body);

    let metrics = load::fetch_metrics(&addr).expect("metrics");
    let hits = metrics
        .get("partition_cache")
        .and_then(|c| c.get("hits"))
        .and_then(fairbridge_obs::json::Value::as_u64)
        .unwrap_or(0);
    assert!(
        hits >= 1,
        "second identical request must hit the partition cache"
    );

    let summary = handle.drain();
    assert_eq!(
        summary.coalesced_hits, 0,
        "sequential requests never coalesce"
    );
}

#[test]
fn soak_32_connections_with_coalescing_and_clean_drain() {
    let (handle, _telemetry) = start_server(2, 64);
    let addr = handle.addr().to_string();

    let report = load::run(&LoadConfig {
        addr,
        connections: 32,
        requests_per_conn: 4,
        distinct_bodies: 4,
        tenants: 3,
    })
    .expect("load run");

    assert_eq!(report.sent, 128);
    assert_eq!(report.ok, report.sent, "no request may fail under the soak");
    assert!(
        report.coalesce_hit_rate > 0.0,
        "identical concurrent requests must coalesce (rate {})",
        report.coalesce_hit_rate
    );
    assert!(report.p50_ms > 0.0 && report.p99_ms >= report.p50_ms);
    assert!(report.req_per_s > 0.0);

    let tenants = handle.stats().tenant_counts();
    let tenant_names: Vec<&str> = tenants.iter().map(|(n, _)| n.as_str()).collect();
    for expected in ["tenant-0", "tenant-1", "tenant-2"] {
        assert!(
            tenant_names.contains(&expected),
            "missing {expected} in {tenant_names:?}"
        );
    }

    let summary = handle.drain();
    assert_eq!(
        summary.received,
        summary.completed + summary.rejected,
        "zero dropped in-flight requests on drain"
    );
    assert_eq!(summary.completed, 128);
    assert!(summary.coalesced_hits > 0);
}

#[test]
fn slow_sender_pausing_mid_request_is_not_misparsed() {
    let (handle, _telemetry) = start_server(1, 4);
    let addr = handle.addr().to_string();

    // Pause longer than the daemon's 100 ms socket read timeout at the
    // nastiest spots: mid-request-line, mid-headers, and mid-body. The
    // daemon must resume each read where it left off — a 200 proves the
    // request was reassembled intact; discarding partial bytes would
    // misparse the tail as a garbage request line (400) or hang.
    let body = synthetic_audit_body(0);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let pause = Duration::from_millis(250);
    stream.write_all(b"POST /au").expect("write");
    thread::sleep(pause);
    stream
        .write_all(b"dit HTTP/1.1\r\nHost: fair")
        .expect("write");
    thread::sleep(pause);
    let rest = format!(
        "bridge\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(rest.as_bytes()).expect("write");
    thread::sleep(pause);
    stream.write_all(&body.as_bytes()[..40]).expect("write");
    thread::sleep(pause);
    stream.write_all(&body.as_bytes()[40..]).expect("write");

    let mut reader = BufReader::new(stream);
    let resp = fairbridge_serve::http::read_response(&mut reader).expect("response");
    assert_eq!(
        resp.status,
        200,
        "a slow-but-live sender must be served, got {}: {}",
        resp.status,
        String::from_utf8_lossy(&resp.body)
    );

    handle.drain();
}

#[test]
fn hostile_tenant_ids_are_sanitized_and_bounded() {
    let (handle, telemetry) = start_server(2, 16);
    let addr = handle.addr().to_string();
    let body = synthetic_audit_body(0);

    // An out-of-charset tenant id still gets served, but is attributed
    // to "invalid" rather than becoming a counter name verbatim.
    let resp = post_audit(&addr, "../etc/passwd", &body);
    assert_eq!(resp.status, 200);
    assert_eq!(
        counter(&telemetry, "serve.tenant.invalid.requests"),
        1,
        "malformed tenant ids must collapse into the invalid bucket"
    );

    // A client cycling unique tenant ids must not grow the stats map or
    // the counter registry without bound: past the tracking cap, extras
    // land in "other".
    for i in 0..70 {
        let resp = post_audit(&addr, &format!("flood-{i}"), &body);
        assert_eq!(resp.status, 200);
    }
    let tenants = handle.stats().tenant_counts();
    assert!(
        tenants.len() <= 65,
        "tenant stats must be capped, got {} entries",
        tenants.len()
    );
    assert!(
        tenants.iter().any(|(name, _)| name == "other"),
        "overflow tenants must be charged to the other bucket"
    );
    let total: u64 = tenants.iter().map(|(_, count)| count).sum();
    assert_eq!(total, 71, "every request is charged to exactly one bucket");
    // Each tracked bucket owns a handful of series (requests, SLO
    // good/bad, latency histogram) — the boundedness invariant is on
    // distinct *buckets*, not raw series names.
    let tenant_buckets: std::collections::BTreeSet<String> = telemetry
        .counter_values()
        .into_iter()
        .filter_map(|(name, _)| {
            name.strip_prefix("serve.tenant.")
                .and_then(|rest| rest.rsplit_once('.'))
                .map(|(bucket, _)| bucket.to_owned())
        })
        .collect();
    assert!(
        tenant_buckets.len() <= 65,
        "per-tenant counter registry must be capped, got {} buckets",
        tenant_buckets.len()
    );

    handle.drain();
}

#[test]
fn connections_beyond_the_cap_are_refused_with_503() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 4,
        max_connections: 2,
        ..ServerConfig::default()
    };
    let handle = server::start(config, fairbridge_obs::Telemetry::off()).expect("server starts");
    let addr = handle.addr().to_string();

    // Two live keep-alive connections occupy the cap.
    let (mut s1, mut r1) = load::connect(&addr).expect("conn 1");
    let first = load::request_on(&mut s1, &mut r1, "GET", "/healthz", "ops", b"").expect("healthz");
    assert_eq!(first.status, 200);
    let (mut s2, mut r2) = load::connect(&addr).expect("conn 2");
    let second =
        load::request_on(&mut s2, &mut r2, "GET", "/healthz", "ops", b"").expect("healthz");
    assert_eq!(second.status, 200);

    // The third is refused at accept time, before any request is sent.
    let (_s3, mut r3) = load::connect(&addr).expect("conn 3");
    let refused = fairbridge_serve::http::read_response(&mut r3).expect("refusal");
    assert_eq!(refused.status, 503);

    // Closing a connection frees capacity once its thread is reaped.
    drop(s1);
    drop(r1);
    wait_until("capacity freed after close", || {
        let Ok((mut s, mut r)) = load::connect(&addr) else {
            return false;
        };
        matches!(
            load::request_on(&mut s, &mut r, "GET", "/healthz", "ops", b""),
            Ok(resp) if resp.status == 200
        )
    });

    handle.drain();
}

#[test]
fn nesting_bomb_is_a_400_and_the_daemon_stays_up() {
    let (handle, _telemetry) = start_server(1, 4);
    let addr = handle.addr().to_string();

    let bomb = format!("{{\"dataset\":{}", "[".repeat(1_000_000));
    let resp = post_audit(&addr, "bomber", &bomb);
    assert_eq!(resp.status, 400);
    let body = String::from_utf8_lossy(&resp.body);
    assert!(body.contains("nesting deeper than"), "{body}");

    let (mut stream, mut reader) = load::connect(&addr).expect("connect");
    let health =
        load::request_on(&mut stream, &mut reader, "GET", "/healthz", "ops", b"").expect("healthz");
    assert_eq!(health.status, 200);

    handle.drain();
}

#[test]
fn zero_row_audit_is_answered_and_the_daemon_stays_up() {
    let (handle, _telemetry) = start_server(1, 4);
    let addr = handle.addr().to_string();

    let body = concat!(
        "{\"dataset\":{\"columns\":[",
        "{\"name\":\"group\",\"type\":\"categorical\",\"role\":\"protected\",",
        "\"levels\":[\"a\",\"b\"],\"codes\":[]},",
        "{\"name\":\"outcome\",\"type\":\"boolean\",\"role\":\"label\",\"values\":[]},",
        "{\"name\":\"pred\",\"type\":\"boolean\",\"role\":\"prediction\",\"values\":[]},",
        "{\"name\":\"score\",\"type\":\"numeric\",\"role\":\"feature\",\"values\":[]}",
        "]},\"protected\":[\"group\"],\"use_labels\":true}"
    );
    let resp = post_audit(&addr, "empty", body);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

    let (mut stream, mut reader) = load::connect(&addr).expect("connect");
    let health =
        load::request_on(&mut stream, &mut reader, "GET", "/healthz", "ops", b"").expect("healthz");
    assert_eq!(health.status, 200);

    handle.drain();
}

/// Sends `GET /healthz` with `lines` header lines on a fresh
/// connection and returns the response.
fn healthz_with_header_lines(addr: &str, lines: usize) -> fairbridge_serve::Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut head = String::from("GET /healthz HTTP/1.1\r\nConnection: close\r\n");
    for i in 1..lines {
        let _ = write!(head, "X-Pad-{i}: {i}\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).expect("write head");
    fairbridge_serve::http::read_response(&mut BufReader::new(stream)).expect("response")
}

#[test]
fn header_lines_past_the_cap_are_a_400_and_the_daemon_stays_up() {
    let (handle, _telemetry) = start_server(1, 4);
    let addr = handle.addr().to_string();

    assert_eq!(healthz_with_header_lines(&addr, 64).status, 200);
    let resp = healthz_with_header_lines(&addr, 65);
    assert_eq!(resp.status, 400);
    let body = String::from_utf8_lossy(&resp.body);
    assert!(body.contains("more than 64 header lines"), "{body}");

    let (mut stream, mut reader) = load::connect(&addr).expect("connect");
    let health =
        load::request_on(&mut stream, &mut reader, "GET", "/healthz", "ops", b"").expect("healthz");
    assert_eq!(health.status, 200);

    handle.drain();
}

#[test]
fn healthz_and_unknown_routes() {
    let (handle, _telemetry) = start_server(1, 4);
    let addr = handle.addr().to_string();

    let (mut stream, mut reader) = load::connect(&addr).expect("connect");
    let health =
        load::request_on(&mut stream, &mut reader, "GET", "/healthz", "ops", b"").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"{\"status\":\"ok\",\"draining\":false}");

    // Keep-alive: same connection serves the next request.
    let missing =
        load::request_on(&mut stream, &mut reader, "GET", "/nope", "ops", b"").expect("404");
    assert_eq!(missing.status, 404);

    let bad_method =
        load::request_on(&mut stream, &mut reader, "PUT", "/audit", "ops", b"").expect("405");
    assert_eq!(bad_method.status, 405);

    handle.drain();
}

#[test]
fn metrics_json_exposes_histogram_quantiles_and_slo() {
    let (handle, _telemetry) = start_server(2, 16);
    let addr = handle.addr().to_string();
    let body = synthetic_audit_body(0);
    for _ in 0..4 {
        assert_eq!(post_audit(&addr, "bank-a", &body).status, 200);
    }

    let metrics = load::fetch_metrics(&addr).expect("metrics");
    let request_hist = metrics
        .get("histograms")
        .and_then(|h| h.get("serve.request_ns"))
        .expect("serve.request_ns histogram");
    let count = request_hist
        .get("count")
        .and_then(fairbridge_obs::json::Value::as_u64)
        .expect("count");
    assert_eq!(count, 4, "every request lands in the latency histogram");
    let p99 = request_hist
        .get("p99")
        .and_then(fairbridge_obs::json::Value::as_f64)
        .expect("p99");
    assert!(p99 > 0.0, "quantiles are populated");

    let slo = metrics.get("slo").expect("slo section");
    assert!(slo.get("objective_ms").is_some());
    let bank = slo
        .get("tenants")
        .and_then(|t| t.get("bank-a"))
        .expect("bank-a slo entry");
    let good = bank
        .get("good")
        .and_then(fairbridge_obs::json::Value::as_u64)
        .expect("good");
    let bad = bank
        .get("bad")
        .and_then(fairbridge_obs::json::Value::as_u64)
        .expect("bad");
    assert_eq!(good + bad, 4, "every request is classified");

    handle.drain();
}

#[test]
fn metrics_text_renders_prometheus_exposition() {
    let (handle, _telemetry) = start_server(2, 16);
    let addr = handle.addr().to_string();
    let body = synthetic_audit_body(0);
    for _ in 0..3 {
        assert_eq!(post_audit(&addr, "bank-b", &body).status, 200);
    }

    let (mut stream, mut reader) = load::connect(&addr).expect("connect");
    let resp = load::request_on(
        &mut stream,
        &mut reader,
        "GET",
        "/metrics?format=text",
        "ops",
        b"",
    )
    .expect("metrics text");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.headers.get("content-type").map(String::as_str),
        Some("text/plain; version=0.0.4")
    );
    let text = String::from_utf8(resp.body).expect("utf8");
    assert!(text.contains("# TYPE fairbridge_serve_received_total counter"));
    assert!(text.contains("fairbridge_serve_received_total 3"));
    // Per-tenant series carry a tenant label instead of a per-tenant
    // metric name.
    assert!(
        text.contains("fairbridge_serve_requests{tenant=\"bank-b\"} 3"),
        "tenant series missing:\n{text}"
    );
    // Histograms render cumulative buckets ending in +Inf, plus sum and
    // count.
    assert!(text.contains("fairbridge_serve_request_ns_bucket{le=\""));
    assert!(text.contains("fairbridge_serve_request_ns_bucket{le=\"+Inf\"} 3"));
    assert!(text.contains("fairbridge_serve_request_ns_count 3"));
    assert!(text.contains("fairbridge_serve_slo_burn_rate{tenant=\"bank-b\"}"));
    // The JSON exposition still answers on the bare path.
    let json = load::request_on(&mut stream, &mut reader, "GET", "/metrics", "ops", b"")
        .expect("metrics json");
    assert_eq!(
        json.headers.get("content-type").map(String::as_str),
        Some("application/json")
    );

    handle.drain();
}

#[test]
fn impossible_slo_breaches_once_and_emits_the_event() {
    use fairbridge_obs::{EventKind, FairnessEvent};
    let ring = Arc::new(RingSink::with_capacity(4096));
    let telemetry = Telemetry::new(ring.clone());
    let ring_telemetry = telemetry.clone();
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 16,
        engine: EngineConfig::default(),
        slo: fairbridge_serve::SloConfig {
            objective_ms: 0.0, // nothing can meet a zero objective
            error_budget: 0.05,
            window: 64,
        },
        ..ServerConfig::default()
    };
    let handle = server::start(config, telemetry).expect("server starts");
    let addr = handle.addr().to_string();
    let body = synthetic_audit_body(0);
    for _ in 0..20 {
        assert_eq!(post_audit(&addr, "slow-tenant", &body).status, 200);
    }

    let metrics = load::fetch_metrics(&addr).expect("metrics");
    let entry = metrics
        .get("slo")
        .and_then(|s| s.get("tenants"))
        .and_then(|t| t.get("slow-tenant"))
        .expect("slow-tenant slo entry");
    assert_eq!(
        entry
            .get("in_breach")
            .and_then(fairbridge_obs::json::Value::as_bool),
        Some(true)
    );
    let burn = entry
        .get("burn_rate")
        .and_then(fairbridge_obs::json::Value::as_f64)
        .expect("burn_rate");
    assert!(burn >= 1.0, "burn rate {burn} must exceed 1.0 in breach");

    handle.drain();

    let bad = counter(&ring_telemetry, "serve.tenant.slow-tenant.slo_bad");
    assert_eq!(bad, 20, "every request was classified bad");

    // Exactly one slo_breached event: the transition, not one per bad
    // request.
    let breaches: Vec<_> = ring
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Fairness(FairnessEvent::SloBreached {
                tenant, burn_rate, ..
            }) => Some((tenant, burn_rate)),
            _ => None,
        })
        .collect();
    assert_eq!(
        breaches.len(),
        1,
        "breach event fires on the transition only"
    );
    assert_eq!(breaches[0].0, "slow-tenant");
    assert!(breaches[0].1 >= 1.0);
}

//! The audit daemon: accept loop, bounded compute workers, coalescing,
//! admission control and graceful drain.
//!
//! ## Architecture
//!
//! ```text
//! client ──► conn thread (fb-conn-N) ──► coalescer.claim(endpoint, body)
//!                 │ leader                      │ follower
//!                 ▼                             ▼
//!          BoundedQueue.try_push          slot.wait() ◄─┐
//!            │ Ok          │ Full/Closed                │
//!            ▼             ▼                            │
//!      fb-worker pool   publish 429/503 ────────────────┤
//!            │ engine.audit / reweigh                   │
//!            └── coalescer.publish(slot, payload) ──────┘
//! ```
//!
//! I/O threads (one per connection) never compute; compute workers (a
//! fixed [`WorkerPool`]) never block on sockets. Between them sits the
//! [`BoundedQueue`]: when it is full the leader publishes the
//! backpressure payload (`429` + `Retry-After`) to the very slot its
//! followers are parked on, so every rider of a rejected computation
//! sees the same answer. All threads come from `tabular::par` — the one
//! sanctioned spawn point in the workspace.
//!
//! Every request is attributed to a tenant (`X-FB-Tenant` header): the
//! evidential trail records `request_received` / `request_completed` /
//! `request_rejected` / `request_coalesced` events carrying the tenant
//! id, and per-tenant request counters, so one client's audit history
//! can be produced without leaking another's. Tenant ids are
//! client-supplied, so they are validated (length + charset → `invalid`
//! otherwise) and only `MAX_TRACKED_TENANTS` distinct ids get their
//! own stats/counter entries — the rest share the `other` bucket,
//! keeping daemon memory independent of client behavior. Connections
//! are likewise capped ([`ServerConfig::max_connections`], `503` past
//! the limit) and finished connection threads are reaped on accept.
//!
//! ## Shutdown
//!
//! [`ServerHandle::drain`] (or `POST /shutdown`) closes the queue —
//! refusing new work with `503` — then lets the workers finish every
//! admitted job, joins them, and joins the connection threads (their
//! reads time out and observe the drain flag). Nothing admitted is ever
//! dropped: `received == completed + rejected` holds at drain time.

use crate::coalesce::{Claim, Coalescer, Slot};
use crate::http::{read_request, Payload, ReadOutcome, Request};
use crate::queue::{BoundedQueue, PushError};
use crate::slo::{SloConfig, SloTracker};
use crate::wire;
use fairbridge_engine::{Engine, EngineConfig};
use fairbridge_obs::json::{push_f64, push_str_lit};
use fairbridge_obs::{FairnessEvent, Telemetry};
use fairbridge_tabular::par::{spawn_named, WorkerPool};
use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Compute workers executing audits/mitigations.
    pub workers: usize,
    /// Bounded queue capacity — the admission-control depth.
    pub queue_capacity: usize,
    /// Engine execution parameters (shared across all requests, so its
    /// partition cache is a cross-request layer).
    pub engine: EngineConfig,
    /// Socket read timeout; bounds how fast connection threads observe
    /// the drain flag.
    pub read_timeout_ms: u64,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Most concurrently open connections; extras are refused with an
    /// immediate `503` so one thread per socket stays bounded.
    pub max_connections: usize,
    /// Per-tenant SLO parameters (latency objective, error budget,
    /// rolling window).
    pub slo: SloConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 64,
            engine: EngineConfig::default(),
            read_timeout_ms: 100,
            max_body_bytes: 16 * 1024 * 1024,
            max_connections: 256,
            slo: SloConfig::default(),
        }
    }
}

/// Most distinct tenant ids tracked individually in stats and counters;
/// later arrivals are charged to the `other` bucket so a client cycling
/// unique `X-FB-Tenant` values cannot grow the maps without bound.
const MAX_TRACKED_TENANTS: usize = 64;

/// Longest accepted tenant id, in bytes.
const MAX_TENANT_LEN: usize = 64;

/// Validates the client-supplied tenant id: bounded length, ASCII
/// `[A-Za-z0-9._-]` only. Anything else is attributed to `invalid` —
/// tenancy is attribution, and arbitrary header bytes must not become
/// counter names or unbounded map keys.
fn sanitize_tenant(raw: &str) -> &str {
    let valid = raw.len() <= MAX_TENANT_LEN
        && raw
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if valid {
        raw
    } else {
        "invalid"
    }
}

/// Liveness counters, all monotone.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// `POST /audit|/mitigate` requests admitted for routing.
    pub received: AtomicU64,
    /// Requests answered with a non-backpressure status.
    pub completed: AtomicU64,
    /// Requests answered 429 (queue full) or 503 (draining).
    pub rejected: AtomicU64,
    /// Requests that attached to an in-flight identical computation.
    pub coalesced_hits: AtomicU64,
    tenants: Mutex<BTreeMap<String, u64>>,
}

impl ServeStats {
    /// Records the request against `tenant`, folding tenants beyond the
    /// [`MAX_TRACKED_TENANTS`] cap into the `other` bucket. Returns the
    /// bucket actually charged — also the per-tenant counter key.
    fn note_tenant<'a>(&self, tenant: &'a str) -> &'a str {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(count) = tenants.get_mut(tenant) {
            *count += 1;
            return tenant;
        }
        if tenants.len() < MAX_TRACKED_TENANTS {
            tenants.insert(tenant.to_owned(), 1);
            return tenant;
        }
        *tenants.entry("other".to_owned()).or_insert(0) += 1;
        "other"
    }

    /// Per-tenant request counts, sorted by tenant id.
    pub fn tenant_counts(&self) -> Vec<(String, u64)> {
        self.tenants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

/// One queued computation. The request bytes live in the slot, which
/// the worker executes against and publishes to.
/// `parent_span` carries the leader connection's `serve.request` span id
/// across the queue so the worker's execution spans attach to the
/// request that scheduled them; `enqueued_ns` is the push timestamp the
/// worker turns into a retroactive `serve.queue_wait` span.
struct Job {
    slot: Arc<Slot>,
    parent_span: Option<u64>,
    enqueued_ns: u64,
}

struct Shared {
    config: ServerConfig,
    engine: Engine,
    telemetry: Telemetry,
    queue: BoundedQueue<Job>,
    coalescer: Coalescer,
    stats: ServeStats,
    slo: SloTracker,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    conn_seq: AtomicU64,
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// What the daemon did with its life, reported at drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Requests admitted for routing.
    pub received: u64,
    /// Requests answered successfully (any non-backpressure status).
    pub completed: u64,
    /// Requests refused with 429/503.
    pub rejected: u64,
    /// Requests served by an in-flight identical computation.
    pub coalesced_hits: u64,
}

/// A running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Option<WorkerPool>,
}

/// Starts the daemon: binds, spawns the worker pool and the accept
/// loop, and returns immediately.
pub fn start(config: ServerConfig, telemetry: Telemetry) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let engine = Engine::with_telemetry(config.engine.clone(), telemetry.clone());
    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(config.queue_capacity),
        coalescer: Coalescer::new(),
        stats: ServeStats::default(),
        slo: SloTracker::new(config.slo),
        draining: AtomicBool::new(false),
        shutdown_requested: AtomicBool::new(false),
        conn_seq: AtomicU64::new(0),
        conns: Mutex::new(Vec::new()),
        engine,
        telemetry,
        config,
    });

    let pool_shared = Arc::clone(&shared);
    let workers = WorkerPool::spawn("fb-worker", shared.config.workers.max(1), move |_| {
        worker_loop(&pool_shared)
    })?;

    let accept_shared = Arc::clone(&shared);
    let accept = spawn_named("fb-accept", move || accept_loop(&listener, &accept_shared))?;

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers: Some(workers),
    })
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client asked the daemon to shut down
    /// (`POST /shutdown`). The owner should then call
    /// [`ServerHandle::drain`].
    pub fn shutdown_requested(&self) -> bool {
        // Pairs with the Release store in the /shutdown route, so an
        // owner that sees the flag also sees the queue already closed.
        // ORDER: Acquire — see above.
        self.shared.shutdown_requested.load(Ordering::Acquire)
    }

    /// Liveness counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Graceful drain: refuse new work, finish everything admitted,
    /// join every thread, emit `server_drained`, and flush telemetry.
    pub fn drain(mut self) -> DrainSummary {
        // Pairs with the Acquire loads in the accept, conn and worker
        // loops: a thread that observes `draining` also observes
        // everything the drain initiator wrote before it.
        // ORDER: Release — publishes all pre-drain writes.
        self.shared.draining.store(true, Ordering::Release);
        self.shared.queue.close();
        // Unblock the accept loop with one throwaway connection.
        drop(TcpStream::connect(self.addr));
        if let Some(accept) = self.accept.take() {
            drop(accept.join());
        }
        if let Some(workers) = self.workers.take() {
            let _ = workers.join();
        }
        let conns = {
            let mut conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *conns)
        };
        for conn in conns {
            drop(conn.join());
        }
        // Every thread has been joined above, so these reads are quiescent;
        // Relaxed is enough because the joins already order the memory.
        let summary = DrainSummary {
            received: self.shared.stats.received.load(Ordering::Relaxed), // ORDER: Relaxed — post-join read
            completed: self.shared.stats.completed.load(Ordering::Relaxed), // ORDER: Relaxed — post-join read
            rejected: self.shared.stats.rejected.load(Ordering::Relaxed), // ORDER: Relaxed — post-join read
            coalesced_hits: self.shared.stats.coalesced_hits.load(Ordering::Relaxed), // ORDER: Relaxed — post-join read
        };
        if self.shared.telemetry.is_enabled() {
            self.shared.telemetry.emit(FairnessEvent::ServerDrained {
                completed: summary.completed,
                rejected: summary.rejected,
            });
        }
        self.shared.telemetry.flush();
        summary
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        // Pairs with the Release store in drain()/the /shutdown route;
        // seeing the flag implies the queue is closed.
        // ORDER: Acquire — see above.
        if shared.draining.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Reap finished connection threads so a long-lived daemon's
        // handle list tracks live connections, not history, and decide
        // whether this connection exceeds the concurrency cap — each
        // one costs a thread.
        let over_capacity = {
            let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            conns.retain(|h| !h.is_finished());
            conns.len() >= shared.config.max_connections.max(1)
        };
        if over_capacity {
            // The 503 goes out only after the guard is released: a slow
            // client must not stall admission of everyone else (C2).
            let payload = wire::error_payload(503, "connection limit reached, retry later");
            drop(stream.write_all(&payload.render(false)));
            continue;
        }
        // ORDER: Relaxed — connection ids only need to be unique.
        let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(shared);
        let spawned = spawn_named(&format!("fb-conn-{id}"), move || {
            conn_loop(stream, &conn_shared);
        });
        if let Ok(handle) = spawned {
            shared
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle);
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let telemetry = &shared.telemetry;
        // Queue residency is only known once the job is popped, so the
        // wait becomes a retroactive span under the request that pushed
        // it — honest timestamps, reconstructed after the fact.
        let t_popped = telemetry.now_ns();
        telemetry.record_span(
            "serve.queue_wait",
            job.parent_span,
            job.enqueued_ns,
            t_popped,
        );
        telemetry
            .histogram("serve.queue_wait_ns")
            .record(t_popped.saturating_sub(job.enqueued_ns));
        // The unwind guard is load-bearing: the leader connection and
        // every coalesced follower are parked on this job's slot with
        // no timeout, and the repo still tracks grandfathered panic
        // sites. If execution panics, publication must still happen —
        // otherwise those connections hang forever, the worker dies,
        // and drain deadlocks joining them.
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = telemetry.span_in("serve.execute", job.parent_span);
            match job.slot.endpoint() {
                "/audit" => wire::handle_audit(&shared.engine, job.slot.body(), telemetry),
                "/mitigate" => wire::handle_mitigate(job.slot.body(), telemetry),
                other => wire::error_payload(404, &format!("no executor for {other}")),
            }
        }));
        telemetry
            .histogram("serve.execute_ns")
            .record(telemetry.now_ns().saturating_sub(t_popped));
        let payload = executed.unwrap_or_else(|_| {
            wire::error_payload(500, "internal error: request execution panicked")
        });
        shared.coalescer.publish(&job.slot, payload);
    }
}

fn conn_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let timeout = Duration::from_millis(shared.config.read_timeout_ms.max(1));
    if stream.set_read_timeout(Some(timeout)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    // Holds a partially received request line across read timeouts so a
    // slow sender is resumed mid-line instead of misparsed.
    let mut pending = String::new();
    loop {
        let request = match read_request(&mut reader, &mut pending, shared.config.max_body_bytes) {
            Ok(ReadOutcome::Request(r)) => r,
            Ok(ReadOutcome::TimedOut) => {
                // ORDER: Acquire — pairs with the drain Release store.
                if shared.draining.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            Ok(ReadOutcome::Closed) => break,
            Err(e) => {
                let payload = wire::error_payload(400, &e);
                drop(write_half.write_all(&payload.render(false)));
                break;
            }
        };
        let wants_close = request.wants_close();
        let payload = route(&request, shared);
        // ORDER: Acquire — pairs with the drain Release store.
        let draining = shared.draining.load(Ordering::Acquire);
        let keep_alive = !wants_close && !draining;
        if write_half.write_all(&payload.render(keep_alive)).is_err() {
            break;
        }
        if !keep_alive {
            break;
        }
    }
}

fn route(request: &Request, shared: &Arc<Shared>) -> Arc<Payload> {
    // The daemon's only query parameter is /metrics?format=...; split it
    // off so routing stays a match on the bare path.
    let (path, query) = match request.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (request.path.as_str(), ""),
    };
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Arc::new(healthz(shared)),
        ("GET", "/metrics") => {
            if query.split('&').any(|kv| kv == "format=text") {
                Arc::new(metrics_text(shared))
            } else {
                Arc::new(metrics(shared))
            }
        }
        ("POST", "/shutdown") => {
            // Both stores pair with the Acquire loads in the
            // accept/conn/worker loops and ServerHandle: whoever sees a
            // flag also sees the queue closed between the stores.
            // ORDER: Release — publishes the drain decision.
            shared.draining.store(true, Ordering::Release);
            shared.queue.close();
            // Stored after the queue closes so the owner polling
            // shutdown_requested always drains a closed queue.
            // ORDER: Release — see above.
            shared.shutdown_requested.store(true, Ordering::Release);
            Arc::new(Payload::json(200, "{\"status\":\"draining\"}".to_owned()))
        }
        ("POST", "/audit") => handle_post(request, "/audit", shared),
        ("POST", "/mitigate") => handle_post(request, "/mitigate", shared),
        ("GET", _) | ("POST", _) => Arc::new(wire::error_payload(404, &format!("no route {path}"))),
        (method, _) => Arc::new(wire::error_payload(405, &format!("method {method}"))),
    }
}

/// Admission, coalescing and response delivery for the compute routes.
/// The whole exchange lives under one `serve.request` root span; the
/// worker's execution and queue-wait spans attach to it via the job's
/// `parent_span`, so a trace reader can reassemble the request even
/// though three threads touched it.
fn handle_post(request: &Request, endpoint: &'static str, shared: &Arc<Shared>) -> Arc<Payload> {
    let telemetry = &shared.telemetry;
    let request_span = telemetry.span("serve.request");
    let request_span_id = request_span.id();
    let t_admit = telemetry.now_ns();
    let tenant = sanitize_tenant(request.tenant());
    // ORDER: Relaxed — liveness tally; nothing is published through it.
    shared.stats.received.fetch_add(1, Ordering::Relaxed);
    let bucket = shared.stats.note_tenant(tenant);
    if telemetry.is_enabled() {
        telemetry.counter("serve.requests").incr();
        telemetry
            .counter(&format!("serve.tenant.{bucket}.requests"))
            .incr();
        telemetry.emit(FairnessEvent::RequestReceived {
            tenant: tenant.to_owned(),
            endpoint: endpoint.to_owned(),
        });
    }

    let (payload, coalesced) = match shared.coalescer.claim(endpoint, &request.body) {
        Claim::Follower(slot) => {
            // ORDER: Relaxed — liveness tally.
            shared.stats.coalesced_hits.fetch_add(1, Ordering::Relaxed);
            if telemetry.is_enabled() {
                telemetry.counter("serve.coalesced").incr();
                telemetry.emit(FairnessEvent::RequestCoalesced {
                    tenant: tenant.to_owned(),
                });
            }
            let t_wait = telemetry.now_ns();
            let payload = {
                // On the conn thread, under serve.request via the stack.
                let _wait = telemetry.span("serve.coalesce_wait");
                slot.wait()
            };
            telemetry
                .histogram("serve.coalesce_wait_ns")
                .record(telemetry.now_ns().saturating_sub(t_wait));
            (payload, true)
        }
        Claim::Leader(slot) => {
            let push = shared.queue.try_push(Job {
                slot: Arc::clone(&slot),
                parent_span: request_span_id,
                enqueued_ns: telemetry.now_ns(),
            });
            let payload = match push {
                Ok(_) => slot.wait(),
                Err(PushError::Full) => shared.coalescer.publish(
                    &slot,
                    Payload {
                        status: 429,
                        retry_after: Some(1),
                        content_type: "application/json",
                        body: b"{\"error\":\"queue full, retry later\"}".to_vec(),
                    },
                ),
                Err(PushError::Closed) => shared.coalescer.publish(
                    &slot,
                    Payload {
                        status: 503,
                        retry_after: Some(1),
                        content_type: "application/json",
                        body: b"{\"error\":\"draining, not accepting work\"}".to_vec(),
                    },
                ),
            };
            (payload, false)
        }
    };

    let backpressured = payload.status == 429 || payload.status == 503;
    if backpressured {
        // ORDER: Relaxed — liveness tally.
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
    } else {
        // ORDER: Relaxed — liveness tally.
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
    }
    let elapsed_ns = telemetry.now_ns().saturating_sub(t_admit);
    if telemetry.is_enabled() {
        if backpressured {
            telemetry.counter("serve.rejected").incr();
            telemetry.emit(FairnessEvent::RequestRejected {
                tenant: tenant.to_owned(),
                endpoint: endpoint.to_owned(),
                status: payload.status,
            });
        } else {
            telemetry.counter("serve.completed").incr();
        }
        telemetry.histogram("serve.request_ns").record(elapsed_ns);
        telemetry
            .histogram(&format!("serve.tenant.{bucket}.request_ns"))
            .record(elapsed_ns);
        telemetry.emit(FairnessEvent::RequestCompleted {
            tenant: tenant.to_owned(),
            endpoint: endpoint.to_owned(),
            status: payload.status,
            coalesced,
            elapsed_ns,
        });
    }

    // SLO classification: bad = over-objective or backpressured. This
    // runs even with telemetry off — the SLO ledger is daemon state, not
    // trace output — but the breach event and counters need the sink.
    let good = !backpressured && elapsed_ns <= shared.slo.config().objective_ns();
    let breach = shared.slo.observe(bucket, good);
    if telemetry.is_enabled() {
        let verdict = if good { "slo_good" } else { "slo_bad" };
        telemetry
            .counter(&format!("serve.tenant.{bucket}.{verdict}"))
            .incr();
        if let Some(b) = breach {
            telemetry.emit(FairnessEvent::SloBreached {
                tenant: b.tenant,
                objective_ms: shared.slo.config().objective_ms,
                burn_rate: b.burn_rate,
                good: b.window_good,
                bad: b.window_bad,
            });
        }
    }
    payload
}

fn healthz(shared: &Arc<Shared>) -> Payload {
    // ORDER: Acquire — pairs with the drain Release store.
    let draining = shared.draining.load(Ordering::Acquire);
    let status = if draining { "draining" } else { "ok" };
    Payload::json(
        200,
        format!("{{\"status\":\"{status}\",\"draining\":{draining}}}"),
    )
}

fn metrics(shared: &Arc<Shared>) -> Payload {
    use std::fmt::Write as _;
    let stats = &shared.stats;
    let cache = shared.engine.cache_stats();
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"received\":{},\"completed\":{},\"rejected\":{},\"coalesced_hits\":{}",
        stats.received.load(Ordering::Relaxed), // ORDER: Relaxed — advisory metric read
        stats.completed.load(Ordering::Relaxed), // ORDER: Relaxed — advisory metric read
        stats.rejected.load(Ordering::Relaxed), // ORDER: Relaxed — advisory metric read
        stats.coalesced_hits.load(Ordering::Relaxed), // ORDER: Relaxed — advisory metric read
    );
    let _ = write!(
        s,
        ",\"queue_depth\":{},\"queue_capacity\":{},\"workers\":{},\"in_flight\":{},\"draining\":{}",
        shared.queue.len(),
        shared.queue.capacity(),
        shared.config.workers.max(1),
        shared.coalescer.in_flight(),
        shared.draining.load(Ordering::Acquire), // ORDER: Acquire — pairs with the drain Release store
    );
    let _ = write!(
        s,
        ",\"partition_cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{},\"len\":{}}}",
        cache.hits, cache.misses, cache.inserts, cache.evictions, cache.len,
    );
    s.push_str(",\"tenants\":{");
    for (i, (tenant, count)) in stats.tenant_counts().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_lit(&mut s, tenant);
        let _ = write!(s, ":{count}");
    }
    s.push('}');
    // Histogram quantiles: the server-side latency decomposition fb-load
    // prints next to its client-side percentiles.
    s.push_str(",\"histograms\":{");
    for (i, (name, h)) in shared.telemetry.histogram_handles().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let snap = h.snapshot();
        push_str_lit(&mut s, name);
        let _ = write!(
            s,
            ":{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
            snap.count,
            snap.sum,
            h.quantile(0.5),
            h.quantile(0.99),
            snap.max,
        );
    }
    s.push('}');
    s.push_str(",\"slo\":{\"objective_ms\":");
    push_f64(&mut s, shared.slo.config().objective_ms);
    s.push_str(",\"error_budget\":");
    push_f64(&mut s, shared.slo.config().error_budget);
    s.push_str(",\"tenants\":{");
    for (i, t) in shared.slo.snapshot().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_lit(&mut s, &t.tenant);
        let _ = write!(s, ":{{\"good\":{},\"bad\":{},\"burn_rate\":", t.good, t.bad);
        push_f64(&mut s, t.burn_rate);
        let _ = write!(s, ",\"in_breach\":{}}}", t.in_breach);
    }
    s.push_str("}}}");
    Payload::json(200, s)
}

/// Splits `serve.tenant.<tenant>.<suffix>` into its tenant label and the
/// remaining metric name; everything else passes through unlabeled.
fn split_tenant_series(name: &str) -> (String, Option<String>) {
    if let Some(rest) = name.strip_prefix("serve.tenant.") {
        if let Some((tenant, suffix)) = rest.rsplit_once('.') {
            return (format!("serve.{suffix}"), Some(tenant.to_owned()));
        }
    }
    (name.to_owned(), None)
}

/// `fairbridge_` + the metric name with separators flattened to
/// underscores — the Prometheus naming convention.
fn prometheus_name(name: &str) -> String {
    let flat: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("fairbridge_{flat}")
}

fn push_prometheus_series(out: &mut String, name: &str, tenant: Option<&str>, value: &str) {
    out.push_str(name);
    if let Some(t) = tenant {
        out.push_str("{tenant=\"");
        for c in t.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c => out.push(c),
            }
        }
        out.push_str("\"}");
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// The Prometheus text exposition (`GET /metrics?format=text`):
/// counters and gauges as untyped samples, histograms as cumulative
/// `_bucket{le=...}` series over the non-empty log-linear buckets, and
/// per-tenant series with a `tenant` label. Output order is
/// deterministic (BTreeMap-ordered registries, fixed section order).
fn metrics_text(shared: &Arc<Shared>) -> Payload {
    use std::fmt::Write as _;
    let stats = &shared.stats;
    let mut s = String::with_capacity(2048);
    for (name, value, help) in [
        (
            "fairbridge_serve_received_total",
            stats.received.load(Ordering::Relaxed), // ORDER: Relaxed — advisory metric read
            "Requests admitted for routing.",
        ),
        (
            "fairbridge_serve_completed_total",
            stats.completed.load(Ordering::Relaxed), // ORDER: Relaxed — advisory metric read
            "Requests answered with a non-backpressure status.",
        ),
        (
            "fairbridge_serve_rejected_total",
            stats.rejected.load(Ordering::Relaxed), // ORDER: Relaxed — advisory metric read
            "Requests refused with 429/503.",
        ),
        (
            "fairbridge_serve_coalesced_total",
            stats.coalesced_hits.load(Ordering::Relaxed), // ORDER: Relaxed — advisory metric read
            "Requests served by an in-flight identical computation.",
        ),
        (
            "fairbridge_serve_queue_depth",
            shared.queue.len() as u64,
            "Jobs waiting in the bounded queue.",
        ),
        (
            "fairbridge_serve_in_flight",
            shared.coalescer.in_flight() as u64,
            "Coalescing keys currently in flight.",
        ),
    ] {
        let _ = writeln!(s, "# HELP {name} {help}");
        let kind = if name.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        let _ = writeln!(s, "# TYPE {name} {kind}");
        let _ = writeln!(s, "{name} {value}");
    }
    // Registry counters (tenant series get a label; the untyped global
    // ones double some of the fixed series above under their raw names,
    // which keeps the exposition a faithful dump of the registry).
    for (name, value) in shared.telemetry.counter_values() {
        let (base, tenant) = split_tenant_series(&name);
        push_prometheus_series(
            &mut s,
            &prometheus_name(&base),
            tenant.as_deref(),
            &value.to_string(),
        );
    }
    // Histograms: cumulative buckets over the non-empty log-linear
    // cells. `le` is the inclusive upper bound of each bucket (hi - 1
    // for integer-valued observations), then +Inf, _sum, _count.
    for (name, h) in shared.telemetry.histogram_handles() {
        let (base, tenant) = split_tenant_series(&name);
        let prom = prometheus_name(&base);
        let mut cumulative = 0u64;
        for bucket in h.nonzero_buckets() {
            cumulative += bucket.count;
            let le = bucket.hi - 1;
            let series = match &tenant {
                Some(t) => format!("{prom}_bucket{{tenant=\"{t}\",le=\"{le}\"}}"),
                None => format!("{prom}_bucket{{le=\"{le}\"}}"),
            };
            let _ = writeln!(s, "{series} {cumulative}");
        }
        let snap = h.snapshot();
        let inf = match &tenant {
            Some(t) => format!("{prom}_bucket{{tenant=\"{t}\",le=\"+Inf\"}}"),
            None => format!("{prom}_bucket{{le=\"+Inf\"}}"),
        };
        let _ = writeln!(s, "{inf} {}", snap.count);
        push_prometheus_series(
            &mut s,
            &format!("{prom}_sum"),
            tenant.as_deref(),
            &snap.sum.to_string(),
        );
        push_prometheus_series(
            &mut s,
            &format!("{prom}_count"),
            tenant.as_deref(),
            &snap.count.to_string(),
        );
    }
    // SLO standing per tenant.
    for t in shared.slo.snapshot() {
        push_prometheus_series(
            &mut s,
            "fairbridge_serve_slo_burn_rate",
            Some(&t.tenant),
            &format!("{}", t.burn_rate),
        );
        push_prometheus_series(
            &mut s,
            "fairbridge_serve_slo_in_breach",
            Some(&t.tenant),
            if t.in_breach { "1" } else { "0" },
        );
    }
    Payload::prometheus(200, s)
}

//! The daemon workloads: closed-loop `POST` traffic from two client
//! threads on two keep-alive connections against
//! `fairbridge_serve::server::start` on an ephemeral port.
//!
//! Both workloads send in lock-step rounds: a barrier starts each round
//! and both connections send at once. With free-running clients the
//! latency histogram had two modes (about 1.4 and 2.2 ms on a 2-core
//! host) and the median jumped between them from run to run; in
//! lock-step it has one.
//!
//! * `serve_distinct` — every request carries a different dataset, so
//!   neither the coalescer nor the partition cache can hit: each
//!   connection cycles through its own 48 bodies, more than the cache's
//!   32 entries, so LRU always evicts a body before it comes back.
//! * `serve_repeat` — both connections send the same body from a pool of
//!   2, and every 4th round goes to `/mitigate` instead of `/audit`.
//!   Concurrent identical requests coalesce, and every audit after the
//!   first two hits the partition cache.

use crate::client::{render, Conn};
use crate::data::{dataset_seed, Columns};
use crate::layers::{self, Layers};
use crate::stats::{median, ratio, rss_mb, RSS_PERIOD};
use crate::Run;
use fairbridge_engine::{Engine, EngineConfig};
use fairbridge_obs::json::{parse, Value};
use fairbridge_obs::{RingSink, Telemetry};
use fairbridge_serve::server::{start, ServerConfig, ServerHandle};
use fairbridge_serve::wire;
use fairbridge_tabular::Dataset;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const ROWS: usize = 2_000;
const DISTINCT_BODIES: usize = 96;
const REPEAT_BODIES: usize = 2;
const CLIENTS: usize = 2;
/// Daemon start-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Dataset index of the set-up probe body, outside every traffic pool.
const PROBE_INDEX: usize = 1_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Distinct,
    Repeat,
}

/// One request with the response body the daemon must send back.
struct Exchange {
    request: Vec<u8>,
    expected: Vec<u8>,
}

impl Exchange {
    /// The expected body is what the wire handler produces for these
    /// bytes on a fresh engine — the reference every response must match
    /// byte for byte.
    fn new(path: &str, body: &str) -> Result<Exchange, String> {
        let payload = match path {
            "/audit" => wire::handle_audit(
                &Engine::new(EngineConfig::default()),
                body.as_bytes(),
                &Telemetry::off(),
            ),
            _ => wire::handle_mitigate(body.as_bytes(), &Telemetry::off()),
        };
        if payload.status != 200 {
            return Err(format!(
                "reference {path} failed with {}: {}",
                payload.status,
                String::from_utf8_lossy(&payload.body)
            ));
        }
        Ok(Exchange {
            request: render("POST", path, body.as_bytes()),
            expected: payload.body,
        })
    }

    fn check(&self, status: u16, body: &[u8]) -> bool {
        status == 200 && body == self.expected.as_slice()
    }
}

struct Inputs {
    probe: Exchange,
    /// `serve_distinct`: one audit per body. `serve_repeat`: the audits
    /// of the two bodies, then their mitigations.
    exchanges: Vec<Exchange>,
    bodies: Vec<String>,
    datasets: Vec<Dataset>,
}

fn generate(traffic: Traffic, seed: u64) -> Result<Inputs, String> {
    let n = match traffic {
        Traffic::Distinct => DISTINCT_BODIES,
        Traffic::Repeat => REPEAT_BODIES,
    };
    let columns: Vec<Columns> = (0..n)
        .map(|i| Columns::generate(ROWS, dataset_seed(seed, i)))
        .collect();
    let bodies: Vec<String> = columns.iter().map(Columns::body).collect();
    let mut exchanges = bodies
        .iter()
        .map(|b| Exchange::new("/audit", b))
        .collect::<Result<Vec<_>, _>>()?;
    if traffic == Traffic::Repeat {
        for b in &bodies {
            exchanges.push(Exchange::new("/mitigate", b)?);
        }
    }
    let probe_body = Columns::generate(ROWS, dataset_seed(seed, PROBE_INDEX)).body();
    Ok(Inputs {
        probe: Exchange::new("/audit", &probe_body)?,
        exchanges,
        datasets: columns.iter().map(Columns::dataset).collect(),
        bodies,
    })
}

/// Starts a daemon and waits for its first `200`: the daemon's set-up
/// time as a client sees it.
fn start_daemon(telemetry: Telemetry, probe: &Exchange) -> Result<(ServerHandle, f64), String> {
    let t0 = Instant::now();
    let daemon = start(ServerConfig::default(), telemetry).map_err(|e| format!("start: {e}"))?;
    let mut conn = Conn::open(daemon.addr())?;
    let response = conn.send(&probe.request)?;
    let elapsed = t0.elapsed().as_secs_f64();
    if !probe.check(response.status, &response.body) {
        return Err(format!("set-up probe answered {}", response.status));
    }
    Ok((daemon, elapsed))
}

struct ClientTally {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// When the client's last round ended.
    finished: Instant,
}

impl ClientTally {
    /// Sends `ex` on `conn`, timing it and checking the response. A
    /// broken connection is replaced; `false` means it could not be.
    fn exchange(&mut self, conn: &mut Conn, ex: &Exchange, rounds: &Rounds) -> bool {
        self.attempted += 1;
        let t0 = Instant::now();
        let result = {
            let _span = rounds.tel.span("client.request");
            conn.send(&ex.request)
        };
        let elapsed = t0.elapsed();
        match result {
            Ok(r) => {
                self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                if !ex.check(r.status, &r.body) {
                    self.failed += 1;
                }
                true
            }
            Err(_) => {
                self.failed += 1;
                match Conn::open(rounds.addr) {
                    Ok(fresh) => {
                        *conn = fresh;
                        true
                    }
                    Err(_) => false,
                }
            }
        }
    }
}

/// The exchange client `c` sends in `round`. `serve_distinct`: client
/// `c` cycles through exchanges `c, c+2, ...`. `serve_repeat`: both send
/// body `(round / 4) % 2`, to `/mitigate` when `round % 4 == 3`.
fn pick(traffic: Traffic, c: usize, round: usize, pool: usize) -> usize {
    match traffic {
        Traffic::Distinct => (round * CLIENTS + c) % pool,
        Traffic::Repeat if round % 4 == 3 => REPEAT_BODIES + (round / 4) % REPEAT_BODIES,
        Traffic::Repeat => (round / 4) % REPEAT_BODIES,
    }
}

/// The lock-step traffic both client threads share: a barrier starts
/// each round, and one thread per round decides whether to stop, so both
/// always run the same rounds.
struct Rounds<'a> {
    traffic: Traffic,
    addr: SocketAddr,
    exchanges: &'a [Exchange],
    deadline: Instant,
    barrier: Barrier,
    stop: AtomicBool,
    tel: &'a Telemetry,
}

impl Rounds<'_> {
    /// Client `c`'s thread, on its own connection.
    fn client(&self, c: usize, mut conn: Conn) -> ClientTally {
        let mut tally = ClientTally {
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            finished: Instant::now(),
        };
        let mut alive = true;
        for round in 0.. {
            if self.barrier.wait().is_leader() {
                self.stop
                    .store(Instant::now() >= self.deadline, Ordering::SeqCst);
            }
            self.barrier.wait();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let ex = &self.exchanges[pick(self.traffic, c, round, self.exchanges.len())];
            if alive {
                alive = tally.exchange(&mut conn, ex, self);
            } else {
                tally.attempted += 1;
                tally.failed += 1;
            }
        }
        tally.finished = Instant::now();
        tally
    }
}

/// The daemon's `/metrics` JSON.
fn scrape(addr: SocketAddr) -> Result<Value, String> {
    let mut conn = Conn::open(addr)?;
    let r = conn.send(b"GET /metrics HTTP/1.1\r\nHost: fairbridge\r\n\r\n")?;
    if r.status != 200 {
        return Err(format!("/metrics answered {}", r.status));
    }
    parse(std::str::from_utf8(&r.body).map_err(|_| "/metrics is not UTF-8".to_owned())?)
}

fn count(v: &Value, path: &[&str]) -> f64 {
    let mut cur = Some(v);
    for key in path {
        cur = cur.and_then(|c| c.get(key));
    }
    cur.and_then(Value::as_f64).unwrap_or(0.0)
}

pub fn run(traffic: Traffic, seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let inputs = generate(traffic, seed)?;
    let ring = Arc::new(RingSink::with_capacity(1 << 16));
    let bench_tel = if trace {
        Telemetry::new(ring.clone())
    } else {
        Telemetry::off()
    };
    let daemon_tel = || {
        if trace {
            Telemetry::new(Arc::new(RingSink::with_capacity(4096)))
        } else {
            Telemetry::off()
        }
    };

    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let (daemon, elapsed) = start_daemon(daemon_tel(), &inputs.probe)?;
        setup_s.push(elapsed);
        daemon.drain();
    }
    let (daemon, elapsed) = start_daemon(daemon_tel(), &inputs.probe)?;
    setup_s.push(elapsed);
    let addr = daemon.addr();
    let before = if trace { Some(scrape(addr)?) } else { None };

    let baseline_rss_mb = rss_mb().unwrap_or(0.0);
    let conns = (0..CLIENTS)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut peak_rss_mb = 0f64;
    let t_start = Instant::now();
    let rounds = Rounds {
        traffic,
        addr,
        exchanges: &inputs.exchanges,
        deadline: t_start + Duration::from_secs(seconds),
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
        tel: &bench_tel,
    };
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let rounds = &rounds;
                s.spawn(move || rounds.client(c, conn))
            })
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            peak_rss_mb = peak_rss_mb.max(rss_mb().unwrap_or(0.0));
            std::thread::sleep(RSS_PERIOD);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    // The clients' own end, not the sampler's next wake-up.
    let wall_s = tallies
        .iter()
        .map(|t| t.finished.duration_since(t_start).as_secs_f64())
        .fold(0.0, f64::max);

    let mut run = Run {
        attempted: tallies.iter().map(|t| t.attempted).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
        latencies_ms: tallies.into_iter().flat_map(|t| t.latencies_ms).collect(),
        wall_s,
        setup_s,
        peak_rss_mb,
        baseline_rss_mb,
        layers: None,
        trail: Vec::new(),
    };

    if let Some(before) = before {
        let after = scrape(addr)?;
        let delta = |path: &[&str]| count(&after, path) - count(&before, path);
        let hist_ms = |name: &str| count(&after, &["histograms", name, "p50"]) / 1e6;
        let mut l = Layers::new();
        l.set("serve.request_ms", hist_ms("serve.request_ns"));
        l.set("serve.queue_wait_ms", hist_ms("serve.queue_wait_ns"));
        l.set("serve.execute_ms", hist_ms("serve.execute_ns"));
        l.set("serve.serialize_ms", hist_ms("serve.serialize_ns"));
        l.set("serve.coalesce_wait_ms", hist_ms("serve.coalesce_wait_ns"));
        l.set(
            "net.unaccounted_ms",
            median(&run.latencies_ms) - hist_ms("serve.request_ns"),
        );
        l.set(
            "serve.coalesce_hit_ratio",
            ratio(delta(&["coalesced_hits"]), delta(&["received"])),
        );
        let hits = delta(&["partition_cache", "hits"]);
        l.set(
            "engine.cache_hit_ratio",
            ratio(hits, hits + delta(&["partition_cache", "misses"])),
        );
        let bodies: Vec<&str> = inputs.bodies.iter().map(String::as_str).collect();
        run.failed += layers::probe(&bench_tel, &ring, &bodies, &inputs.datasets, None, &mut l)?;
        run.layers = Some(l);
        run.trail = ring.events();
    }
    daemon.drain();
    Ok(run)
}

//! fairbridge's end-to-end benchmark.
//!
//! ```text
//! fb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! Runs one workload for `--seconds` on inputs generated from `--seed`,
//! checks every output against a reference computed in set-up, and
//! prints one JSON object as the last line of stdout. With `--trace 0`
//! it holds the end-to-end metrics; with `--trace 1` the same workload
//! runs with telemetry on, then each layer is timed on the workload's
//! inputs, and it holds the per-layer metrics (the end-to-end figures
//! of the traced run go to stderr, so the two runs give the tracing
//! overhead). Diagnostics go to stderr. Any failed or mismatched
//! request makes the exit code 1.

mod client;
mod data;
mod engine;
mod layers;
mod serve;
mod stats;

use fairbridge_obs::Event;
use layers::Layers;
use stats::{median, quantile};
use std::fmt::Write as _;
use std::io::Write as _;

const WORKLOADS: &[&str] = &[
    "serve_distinct",
    "serve_repeat",
    "engine_cold",
    "engine_warm",
];

/// What one run measured.
pub struct Run {
    /// Client-observed latency of every completed request.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Requests that failed, answered non-200, or answered wrongly.
    pub failed: u64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// One sample per set-up.
    pub setup_s: Vec<f64>,
    /// Highest resident size sampled during the measured phase.
    pub peak_rss_mb: f64,
    /// Resident size when the measured phase began, after the inputs
    /// were generated and the program set up.
    pub baseline_rss_mb: f64,
    /// Per-layer figures, on a traced run.
    pub layers: Option<Layers>,
    /// The benchmark's spans, on a traced run.
    pub trail: Vec<Event>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_file) =
        (None, None, None, false, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            "--trace-file" => trace_file = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_file,
    })
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    // A run with no completed request has no percentiles; it is already
    // marked incorrect, and `null` keeps the line valid JSON.
    let value = if value.is_finite() {
        value.to_string()
    } else {
        "null".to_owned()
    };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fb-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve_distinct" => serve::run(
            serve::Traffic::Distinct,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve_repeat" => serve::run(serve::Traffic::Repeat, args.seed, args.seconds, args.trace),
        "engine_cold" => engine::run(engine::Cache::Cold, args.seed, args.seconds, args.trace),
        _ => engine::run(engine::Cache::Warm, args.seed, args.seconds, args.trace),
    };
    let run = match result {
        Ok(r) if r.attempted > 0 => r,
        Ok(_) => {
            eprintln!("fb-perfbench: no request was attempted");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("fb-perfbench: {e}");
            std::process::exit(1);
        }
    };

    let lat = &run.latencies_ms;
    let e2e = [
        ("latency_p50_ms", quantile(lat, 0.5), "ms"),
        ("latency_p90_ms", quantile(lat, 0.9), "ms"),
        (
            "throughput_rps",
            (run.attempted - run.failed) as f64 / run.wall_s,
            "1/s",
        ),
        ("setup_s", median(&run.setup_s), "s"),
        ("peak_rss_mb", run.peak_rss_mb, "MiB"),
    ];
    let mut diag = format!(
        "{} seed={} trace={} samples={} p99_ms={} error_rate={} rss_growth_mb={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        lat.len(),
        quantile(lat, 0.99),
        run.failed as f64 / run.attempted as f64,
        run.peak_rss_mb - run.baseline_rss_mb,
    );
    for (name, value, _) in e2e {
        let _ = write!(diag, " {name}={value}");
    }
    eprintln!("{diag}");

    let mut metrics = String::from("{");
    match &run.layers {
        None => {
            for (name, value, unit) in e2e {
                metric(&mut metrics, name, value, unit);
            }
        }
        Some(layers) => match layers.entries() {
            Ok(entries) => {
                for (name, value, unit) in entries {
                    metric(&mut metrics, name, value, unit);
                }
            }
            Err(e) => {
                eprintln!("fb-perfbench: {e}");
                std::process::exit(1);
            }
        },
    }
    metrics.push('}');

    if let Some(path) = &args.trace_file {
        if !run.trail.is_empty() {
            let mut text = String::new();
            for event in &run.trail {
                text.push_str(&event.to_json());
                text.push('\n');
            }
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("fb-perfbench: write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    let correct = run.failed == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.attempted, run.failed
    );
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{line}");
    let _ = stdout.flush();
    if !correct {
        std::process::exit(1);
    }
}

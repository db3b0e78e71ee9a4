//! Minimal micro-benchmark harness plus the perf ratchet.
//!
//! The workspace builds fully offline, so the `benches/` binaries run on
//! this hand-rolled harness instead of an external framework. It exposes
//! the small API slice the bench files use — [`Criterion`],
//! [`BenchmarkId`], benchmark groups, `b.iter(..)` and the
//! `criterion_group!`/`criterion_main!` macros — so a bench file
//! reads the same whether it targets this harness or the upstream crate.
//!
//! Measurement model: each benchmark is calibrated (how many calls reach
//! the sample target duration), warmed up with discarded samples, then
//! timed over `sample_size` samples. A sample runs the closure enough
//! times for the wall-clock to be meaningfully above timer resolution
//! and records the mean nanoseconds per iteration. Reporting is
//! outlier-trimmed: the top and bottom 10% of samples are dropped and
//! the harness reports min (untrimmed), median and mean over the
//! trimmed set — the median is what the perf ratchet compares, being
//! the statistic least moved by CI-neighbour noise. Passing `--test`
//! (as `cargo bench -- --test` does) switches to a smoke-test mode that
//! executes every body exactly once.
//!
//! Setting `FB_BENCH_JSON=<path>` additionally appends one JSON line per
//! benchmark (`label`, `mode`, `samples`, `warmup`, `min_ns`,
//! `median_ns`, `mean_ns`, `threads`, `cpu`) to that file, so CI can
//! diff timings across runs without scraping the human-readable table.
//! `threads`/`cpu` record the machine the numbers came from, so a
//! baseline measured on one box is never silently judged against
//! another without the metadata to explain a shift. Relative paths —
//! the sidecar and `--check` baselines alike — are resolved upward
//! from the bench binary's cwd (the *package* directory under
//! `cargo bench`), so `target/bench.jsonl` and the committed
//! workspace-root `BENCH_*.json` are found from any invocation point.
//!
//! ## The perf ratchet (`--check`)
//!
//! `BENCH_*.json` files committed at the repo root are *baselines*: the
//! last accepted timing per benchmark label. Running a bench binary
//! with `-- --check <baseline.json>` re-runs its groups and then
//! compares each measured median against the baseline median with a
//! tolerance band (default ±25%, per-label overrides via
//! `--tolerance-for label=frac`). A median beyond the band is a
//! **regression**: the run exits non-zero, prints the offending rows,
//! and emits a `bench.check` span plus one typed `bench_regressed`
//! fairness event per row to the `FB_BENCH_TELEMETRY` JSONL trail — the
//! evidential trail records perf drift exactly like it records
//! fairness drift. `-- --check <baseline> --update-baseline` rewrites
//! the baseline from the current run, but refuses to *loosen* it (any
//! label slower than the old baseline's band) unless
//! `--allow-regression` is passed — the same ratchet-only contract as
//! `fb-lint`'s `lint_baseline.json`. The standalone `fb-bench` binary
//! applies the same comparison to pre-recorded `FB_BENCH_JSON` files
//! without re-running anything.

use std::fmt::Display;
use std::fs::OpenOptions;
use std::hint::black_box;
use std::io::Write;
use std::process::ExitCode;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Target wall-clock time per measurement sample.
const SAMPLE_TARGET_NANOS: u128 = 2_000_000; // 2 ms
/// Default number of samples per benchmark.
const DEFAULT_SAMPLE_SIZE: usize = 20;
/// Discarded warm-up samples run after calibration, before measurement.
const WARMUP_SAMPLES: usize = 2;
/// Fraction of samples trimmed from *each* end before median/mean.
const TRIM_FRACTION: f64 = 0.10;
/// Default fractional tolerance band for `--check` (±25%).
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Identifier for one benchmark: a function name plus an optional
/// parameter rendered into the printed label.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Build an id like `"demographic_parity_e1/100000"`.
    pub fn new<N: Display, P: Display>(name: N, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }
}

impl<S: Into<String>> From<S> for BenchmarkId {
    fn from(s: S) -> Self {
        BenchmarkId { label: s.into() }
    }
}

/// Per-iteration timer handed to benchmark closures.
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    /// iterations per warm-up + measurement sample (set by calibration)
    iters_per_sample: u64,
    /// mean nanoseconds per iteration, one entry per sample
    samples: Vec<f64>,
}

impl Bencher {
    /// Measure `f`, calling it repeatedly and recording nanoseconds per
    /// call. In `--test` mode the closure runs exactly once, untimed.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            return;
        }
        // Calibrate: how many calls does one sample need to reach the
        // target duration?
        let mut iters_per_sample: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos();
            if elapsed >= SAMPLE_TARGET_NANOS || iters_per_sample >= 1 << 20 {
                break;
            }
            // grow geometrically toward the target
            iters_per_sample = if elapsed == 0 {
                iters_per_sample * 8
            } else {
                let scale = SAMPLE_TARGET_NANOS.div_ceil(elapsed) as u64;
                (iters_per_sample * scale.clamp(2, 8)).max(iters_per_sample + 1)
            };
        }
        self.iters_per_sample = iters_per_sample;
        // Warm up: discarded samples so the measured ones see hot
        // caches, trained branch predictors and a settled frequency
        // governor rather than the calibration ramp.
        for _ in 0..WARMUP_SAMPLES {
            for _ in 0..iters_per_sample {
                black_box(f());
            }
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            self.samples.push(elapsed / iters_per_sample as f64);
        }
    }
}

/// Logical CPUs visible to this process.
fn thread_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A short CPU model description (`/proc/cpuinfo` on Linux, the target
/// arch elsewhere), recorded in each JSON record so baselines carry the
/// machine they were measured on.
fn cpu_model() -> &'static str {
    static CPU: OnceLock<String> = OnceLock::new();
    CPU.get_or_init(|| {
        if let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") {
            for line in text.lines() {
                if let Some(rest) = line.strip_prefix("model name") {
                    if let Some((_, model)) = rest.split_once(':') {
                        return model.trim().to_owned();
                    }
                }
            }
        }
        std::env::consts::ARCH.to_owned()
    })
}

/// One measured (or smoke-tested) benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Full label, `group/function[/param]`.
    pub label: String,
    /// `"measure"` or `"test"`.
    pub mode: String,
    /// Measurement samples kept after trimming (0 in test mode).
    pub samples: usize,
    /// Warm-up iterations executed before measurement.
    pub warmup: u64,
    /// Fastest untrimmed sample, ns/iteration.
    pub min_ns: Option<f64>,
    /// Median of the trimmed samples, ns/iteration — the statistic the
    /// perf ratchet compares.
    pub median_ns: Option<f64>,
    /// Mean of the trimmed samples, ns/iteration.
    pub mean_ns: Option<f64>,
    /// Logical CPUs on the measuring machine.
    pub threads: usize,
    /// CPU model string of the measuring machine.
    pub cpu: String,
}

impl BenchRecord {
    /// Renders the record as one `FB_BENCH_JSON` line (no newline).
    pub fn to_json(&self) -> String {
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.1}"),
            None => "null".to_owned(),
        };
        format!(
            "{{\"label\":\"{}\",\"mode\":\"{}\",\"samples\":{},\"warmup\":{},\
             \"min_ns\":{},\"median_ns\":{},\"mean_ns\":{},\"threads\":{},\"cpu\":\"{}\"}}",
            json_escape(&self.label),
            json_escape(&self.mode),
            self.samples,
            self.warmup,
            fmt_opt(self.min_ns),
            fmt_opt(self.median_ns),
            fmt_opt(self.mean_ns),
            self.threads,
            json_escape(&self.cpu),
        )
    }
}

/// Resolves a relative sidecar *output* path against `start` or the
/// nearest ancestor directory that can already hold it (the file
/// itself, or its parent directory, exists there). `cargo bench` runs
/// bench binaries with the *package* directory as cwd, but
/// `FB_BENCH_JSON=target/bench.jsonl` means the workspace-root
/// `target/`, which only exists at the root.
fn resolve_output_from(start: &std::path::Path, path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        return p.to_path_buf();
    }
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let candidate = d.join(p);
        if candidate.exists() || candidate.parent().is_some_and(std::path::Path::exists) {
            return candidate;
        }
        dir = d.parent().map(std::path::Path::to_path_buf);
    }
    p.to_path_buf()
}

/// The `FB_BENCH_JSON` sidecar, opened (append mode) on first use.
fn json_out() -> Option<&'static Mutex<std::fs::File>> {
    static OUT: OnceLock<Option<Mutex<std::fs::File>>> = OnceLock::new();
    OUT.get_or_init(|| {
        let path = std::env::var("FB_BENCH_JSON").ok()?;
        let path = std::env::current_dir().map_or_else(
            |_| std::path::PathBuf::from(&path),
            |cwd| resolve_output_from(&cwd, &path),
        );
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| eprintln!("FB_BENCH_JSON: cannot open {}: {e}", path.display()))
            .ok()?;
        Some(Mutex::new(file))
    })
    .as_ref()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Appends one benchmark record to the `FB_BENCH_JSON` sidecar, if
/// configured.
fn write_json_record(record: &BenchRecord) {
    let Some(out) = json_out() else {
        return;
    };
    let line = format!("{}\n", record.to_json());
    // Telemetry must never fail the benchmark: IO errors are dropped.
    let _ = out
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .write_all(line.as_bytes());
}

/// Renders a nanosecond figure with a human-scale unit (ns/µs/ms/s),
/// width-stable for table alignment. Shared with `fb-bench --diff`.
pub fn format_nanos(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:9.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:9.3} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:9.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:9.3} s ", ns / 1_000_000_000.0)
    }
}

/// Top-level harness state: owns the output, the `--test` flag and the
/// perf-ratchet configuration parsed from the bench arguments.
pub struct Criterion {
    test_mode: bool,
    check: Option<CheckConfig>,
    records: Vec<BenchRecord>,
}

/// Perf-ratchet settings parsed from bench args (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckConfig {
    /// Baseline file the run is compared against / rewritten to.
    pub baseline_path: String,
    /// Default fractional tolerance band (0.25 = ±25%).
    pub tolerance: f64,
    /// Per-label band overrides, tried before `tolerance`.
    pub overrides: Vec<(String, f64)>,
    /// Rewrite the baseline from this run instead of failing on drift.
    pub update_baseline: bool,
    /// Allow `--update-baseline` to record a slower baseline.
    pub allow_regression: bool,
}

impl CheckConfig {
    /// A config with defaults for the given baseline path.
    pub fn new<S: Into<String>>(baseline_path: S) -> CheckConfig {
        CheckConfig {
            baseline_path: baseline_path.into(),
            tolerance: DEFAULT_TOLERANCE,
            overrides: Vec::new(),
            update_baseline: false,
            allow_regression: false,
        }
    }

    /// The tolerance band for `label` (override or default).
    pub fn tolerance_for(&self, label: &str) -> f64 {
        self.overrides
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, t)| *t)
            .unwrap_or(self.tolerance)
    }
}

impl Criterion {
    /// Construct from the process arguments. Recognises `--test`
    /// (smoke-test mode) and the perf-ratchet flags (`--check FILE`,
    /// `--tolerance F`, `--tolerance-for LABEL=F`, `--update-baseline`,
    /// `--allow-regression`); every other flag cargo forwards is
    /// ignored.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let test_mode = args.iter().any(|a| a == "--test");
        let mut check = None;
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--check" {
                if let Some(path) = args.get(i + 1) {
                    check = Some(CheckConfig::new(path.clone()));
                    i += 1;
                } else {
                    eprintln!("bench: --check needs a baseline path; ignoring");
                }
            }
            i += 1;
        }
        if let Some(cfg) = &mut check {
            let mut i = 0;
            while i < args.len() {
                match args[i].as_str() {
                    "--tolerance" => {
                        if let Some(t) = args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) {
                            cfg.tolerance = t;
                            i += 1;
                        } else {
                            eprintln!("bench: --tolerance needs a fraction; ignoring");
                        }
                    }
                    "--tolerance-for" => {
                        match args.get(i + 1).and_then(|v| {
                            let (label, t) = v.split_once('=')?;
                            Some((label.to_owned(), t.parse::<f64>().ok()?))
                        }) {
                            Some(pair) => {
                                cfg.overrides.push(pair);
                                i += 1;
                            }
                            None => {
                                eprintln!("bench: --tolerance-for needs LABEL=FRACTION; ignoring")
                            }
                        }
                    }
                    "--update-baseline" => cfg.update_baseline = true,
                    "--allow-regression" => cfg.allow_regression = true,
                    _ => {}
                }
                i += 1;
            }
        }
        Criterion {
            test_mode,
            check,
            records: Vec::new(),
        }
    }

    /// A harness with no arguments parsed (for tests).
    pub fn for_tests(test_mode: bool) -> Self {
        Criterion {
            test_mode,
            check: None,
            records: Vec::new(),
        }
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }

    /// Run a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) {
        if let Some(record) = run_one(self.test_mode, DEFAULT_SAMPLE_SIZE, name, f) {
            self.records.push(record);
        }
    }

    /// The records measured so far (one per completed benchmark).
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Finalize the run: when `--check` was requested, compare this
    /// run's records against the baseline (or rewrite it under
    /// `--update-baseline`) and return the process exit code.
    /// Invoked by `criterion_main!`.
    pub fn finish(self) -> ExitCode {
        let Some(cfg) = self.check else {
            return ExitCode::SUCCESS;
        };
        match run_check(&cfg, &self.records) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("bench --check: error: {e}");
                ExitCode::from(2)
            }
        }
    }
}

/// A named group of benchmarks sharing a sample-size setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Override the number of measurement samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmark a closure that receives a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.label);
        let record = run_one(self.criterion.test_mode, self.sample_size, &label, |b| {
            f(b, input)
        });
        if let Some(record) = record {
            self.criterion.records.push(record);
        }
        self
    }

    /// Benchmark a plain closure under this group's name.
    pub fn bench_function<B: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: B,
        f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into().label);
        let record = run_one(self.criterion.test_mode, self.sample_size, &label, f);
        if let Some(record) = record {
            self.criterion.records.push(record);
        }
        self
    }

    /// Close the group (kept for API parity; output is already flushed).
    pub fn finish(self) {}
}

/// How many samples to drop from each end of the sorted sample vector.
fn trim_count(n: usize) -> usize {
    ((n as f64) * TRIM_FRACTION).floor() as usize
}

fn run_one<F: FnMut(&mut Bencher)>(
    test_mode: bool,
    sample_size: usize,
    label: &str,
    mut f: F,
) -> Option<BenchRecord> {
    let mut bencher = Bencher {
        test_mode,
        sample_size,
        iters_per_sample: 0,
        samples: Vec::new(),
    };
    f(&mut bencher);
    if test_mode {
        println!("{label}: ok (test mode)");
        let record = BenchRecord {
            label: label.to_owned(),
            mode: "test".to_owned(),
            samples: 0,
            warmup: 0,
            min_ns: None,
            median_ns: None,
            mean_ns: None,
            threads: thread_count(),
            cpu: cpu_model().to_owned(),
        };
        write_json_record(&record);
        return Some(record);
    }
    let mut sorted = bencher.samples.clone();
    if sorted.is_empty() {
        // the closure never called b.iter — nothing to report
        println!("{label}: no measurement");
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let min = sorted[0];
    let trim = trim_count(sorted.len());
    let trimmed = &sorted[trim..sorted.len() - trim];
    let median = trimmed[trimmed.len() / 2];
    let mean = trimmed.iter().sum::<f64>() / trimmed.len() as f64;
    println!(
        "{label:<60} min {} | median {} | mean {}",
        format_nanos(min),
        format_nanos(median),
        format_nanos(mean)
    );
    let record = BenchRecord {
        label: label.to_owned(),
        mode: "measure".to_owned(),
        samples: trimmed.len(),
        warmup: WARMUP_SAMPLES as u64 * bencher.iters_per_sample,
        min_ns: Some(min),
        median_ns: Some(median),
        mean_ns: Some(mean),
        threads: thread_count(),
        cpu: cpu_model().to_owned(),
    };
    write_json_record(&record);
    Some(record)
}

// ---------------------------------------------------------------------
// Perf ratchet: baseline parsing, comparison, update, reporting.
// ---------------------------------------------------------------------

/// One benchmark whose median left its baseline tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Benchmark label.
    pub label: String,
    /// Baseline median, ns/iteration.
    pub baseline_ns: f64,
    /// Current median, ns/iteration.
    pub current_ns: f64,
    /// `current_ns / baseline_ns`.
    pub ratio: f64,
    /// The band that was exceeded.
    pub tolerance: f64,
}

/// Outcome of comparing a current record set against a baseline.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Labels with both medians present that stayed inside the band.
    pub within: usize,
    /// Labels slower than `baseline · (1 + tolerance)`.
    pub regressions: Vec<Drift>,
    /// Labels faster than `baseline · (1 − tolerance)` — not a
    /// failure, but a hint that the baseline is stale-slow and could
    /// ratchet down.
    pub improvements: Vec<Drift>,
    /// Baseline labels with no current measurement: the baseline is
    /// stale (a bench was renamed or removed). A failure.
    pub missing: Vec<String>,
    /// Current labels in baseline-covered groups (`group/…` prefixes
    /// present in the baseline) that the baseline lacks: a new bench
    /// row needs `--update-baseline`. A failure.
    pub unbaselined: Vec<String>,
}

impl CheckOutcome {
    /// Whether the check passed (no regressions, no label drift).
    pub fn clean(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty() && self.unbaselined.is_empty()
    }
}

/// Parses an `FB_BENCH_JSON`/baseline file: one JSON object per line,
/// blank lines skipped. Returns label → median (None while in `--test`
/// mode or for non-timing records such as fb-lint's sidecar rows,
/// which are ignored). Unparseable lines are an error — baselines are
/// committed artifacts, not best-effort logs.
pub fn parse_bench_lines(text: &str) -> Result<Vec<(String, Option<f64>)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            fairbridge_obs::json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let Some(label) = value.get("label").and_then(|v| v.as_str()) else {
            return Err(format!("line {}: record without a label", lineno + 1));
        };
        // Non-benchmark sidecar rows (e.g. fb-lint debt records) have
        // no mode:"measure"/"test" discriminator — skip them.
        match value.get("mode").and_then(|v| v.as_str()) {
            Some("measure") | Some("test") => {}
            _ => continue,
        }
        let median = value.get("median_ns").and_then(|v| v.as_f64());
        out.push((label.to_owned(), median));
    }
    Ok(out)
}

/// The `group/` prefix of a label (everything before the first `/`).
fn group_of(label: &str) -> &str {
    label.split('/').next().unwrap_or(label)
}

/// Compares current records against baseline records, median vs median
/// with the configured tolerance band. Pure — all I/O stays in
/// [`run_check`] / `fb-bench`.
pub fn compare_records(
    baseline: &[(String, Option<f64>)],
    current: &[(String, Option<f64>)],
    cfg: &CheckConfig,
) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    let baseline_groups: std::collections::BTreeSet<&str> =
        baseline.iter().map(|(l, _)| group_of(l)).collect();
    let current_labels: std::collections::BTreeSet<&str> =
        current.iter().map(|(l, _)| l.as_str()).collect();
    let baseline_labels: std::collections::BTreeSet<&str> =
        baseline.iter().map(|(l, _)| l.as_str()).collect();

    for (label, _) in baseline {
        if !current_labels.contains(label.as_str()) {
            outcome.missing.push(label.clone());
        }
    }
    for (label, _) in current {
        if baseline_groups.contains(group_of(label)) && !baseline_labels.contains(label.as_str()) {
            outcome.unbaselined.push(label.clone());
        }
    }

    for (label, current_median) in current {
        let Some((_, baseline_median)) = baseline.iter().find(|(l, _)| l == label) else {
            continue;
        };
        let (Some(base), Some(cur)) = (baseline_median, current_median) else {
            // `--test` smoke rows carry no timings: label presence was
            // already checked above, which is all a smoke run asserts.
            continue;
        };
        let tolerance = cfg.tolerance_for(label);
        let ratio = cur / base;
        let drift = Drift {
            label: label.clone(),
            baseline_ns: *base,
            current_ns: *cur,
            ratio,
            tolerance,
        };
        if ratio > 1.0 + tolerance {
            outcome.regressions.push(drift);
        } else if ratio < 1.0 - tolerance {
            outcome.improvements.push(drift);
        } else {
            outcome.within += 1;
        }
    }
    outcome
}

/// Telemetry sink for the check itself: `FB_BENCH_TELEMETRY=<path>`
/// writes the `bench.check` span and `bench_regressed` events as JSONL.
fn check_telemetry() -> fairbridge_obs::Telemetry {
    match std::env::var("FB_BENCH_TELEMETRY") {
        Ok(path) if !path.is_empty() => match fairbridge_obs::JsonlSink::create(&path) {
            Ok(sink) => fairbridge_obs::Telemetry::new(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!("bench --check: FB_BENCH_TELEMETRY: cannot open {path}: {e}");
                fairbridge_obs::Telemetry::off()
            }
        },
        _ => fairbridge_obs::Telemetry::off(),
    }
}

/// Emits the `bench.check` span, per-regression `bench_regressed`
/// events and summary counters for an outcome.
pub fn emit_check_telemetry(telemetry: &fairbridge_obs::Telemetry, outcome: &CheckOutcome) {
    let span = telemetry.span("bench.check");
    let _ = &span;
    telemetry
        .counter("bench.check.compared")
        .add((outcome.within + outcome.regressions.len() + outcome.improvements.len()) as u64);
    telemetry
        .counter("bench.check.regressed")
        .add(outcome.regressions.len() as u64);
    telemetry
        .counter("bench.check.improved")
        .add(outcome.improvements.len() as u64);
    for r in &outcome.regressions {
        telemetry.emit(fairbridge_obs::FairnessEvent::BenchRegressed {
            label: r.label.clone(),
            baseline_ns: r.baseline_ns,
            current_ns: r.current_ns,
            ratio: r.ratio,
            tolerance: r.tolerance,
        });
    }
    drop(span);
    telemetry.flush();
}

/// Prints a human-readable check report to stdout.
pub fn print_outcome(outcome: &CheckOutcome, cfg: &CheckConfig) {
    println!(
        "bench --check vs {}: {} within band, {} regressed, {} improved, {} missing, {} unbaselined",
        cfg.baseline_path,
        outcome.within,
        outcome.regressions.len(),
        outcome.improvements.len(),
        outcome.missing.len(),
        outcome.unbaselined.len(),
    );
    for r in &outcome.regressions {
        println!(
            "  REGRESSED {}: {} -> {} ({:.2}x, band ±{:.0}%)",
            r.label,
            format_nanos(r.baseline_ns).trim(),
            format_nanos(r.current_ns).trim(),
            r.ratio,
            r.tolerance * 100.0
        );
    }
    for r in &outcome.improvements {
        println!(
            "  improved  {}: {} -> {} ({:.2}x) — consider --update-baseline",
            r.label,
            format_nanos(r.baseline_ns).trim(),
            format_nanos(r.current_ns).trim(),
            r.ratio
        );
    }
    for label in &outcome.missing {
        println!("  MISSING   {label}: in baseline but not measured (stale baseline?)");
    }
    for label in &outcome.unbaselined {
        println!("  NEW       {label}: measured but not in baseline — run --update-baseline");
    }
    if !outcome.clean() {
        println!(
            "bench --check failed: unexplained perf drift. If deliberate, re-record with \
             `-- --check {} --update-baseline{}`.",
            cfg.baseline_path,
            if outcome.regressions.is_empty() {
                ""
            } else {
                " --allow-regression"
            }
        );
    }
}

/// Searches `start` and its ancestors for `path`; first hit wins.
fn resolve_from(start: &std::path::Path, path: &str) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let candidate = d.join(path);
        if candidate.exists() {
            return Some(candidate);
        }
        dir = d.parent().map(std::path::Path::to_path_buf);
    }
    None
}

/// Resolves a `--check` baseline path the same way from any invocation
/// point: absolute paths and paths that exist relative to the current
/// directory are used as-is; otherwise ancestor directories are
/// searched upward. `cargo bench` runs bench binaries with the
/// *package* directory as cwd while the committed baselines live at
/// the workspace root, so `--check BENCH_x.json` must find the root
/// copy rather than silently creating a second one in `crates/bench`.
/// If the file exists nowhere, the path is returned as given (update
/// mode then creates it in the current directory).
pub fn resolve_baseline_path(path: &str) -> String {
    if std::path::Path::new(path).is_absolute() {
        return path.to_owned();
    }
    std::env::current_dir()
        .ok()
        .and_then(|cwd| resolve_from(&cwd, path))
        .map_or_else(|| path.to_owned(), |p| p.to_string_lossy().into_owned())
}

/// The in-process `--check` / `--update-baseline` flow used by
/// `criterion_main!`: compares (or rewrites) `cfg.baseline_path` from
/// `records`. Returns `Ok(true)` when the run should exit 0.
pub fn run_check(cfg: &CheckConfig, records: &[BenchRecord]) -> Result<bool, String> {
    let cfg = &CheckConfig {
        baseline_path: resolve_baseline_path(&cfg.baseline_path),
        ..cfg.clone()
    };
    let current: Vec<(String, Option<f64>)> = records
        .iter()
        .map(|r| (r.label.clone(), r.median_ns))
        .collect();

    if cfg.update_baseline {
        // Ratchet contract: refuse to loosen an existing baseline
        // unless the regression is explicitly acknowledged.
        if let Ok(text) = std::fs::read_to_string(&cfg.baseline_path) {
            let baseline = parse_bench_lines(&text)?;
            let outcome = compare_records(&baseline, &current, cfg);
            if !outcome.regressions.is_empty() && !cfg.allow_regression {
                print_outcome(&outcome, cfg);
                return Err(format!(
                    "ratchet: refusing to loosen {} ({} labels regressed beyond ±{:.0}%); \
                     pass --allow-regression to record the slowdown deliberately",
                    cfg.baseline_path,
                    outcome.regressions.len(),
                    cfg.tolerance * 100.0
                ));
            }
        }
        let mut text = String::new();
        for r in records {
            text.push_str(&r.to_json());
            text.push('\n');
        }
        std::fs::write(&cfg.baseline_path, text)
            .map_err(|e| format!("write {}: {e}", cfg.baseline_path))?;
        println!(
            "bench --check: baseline {} rewritten with {} records",
            cfg.baseline_path,
            records.len()
        );
        return Ok(true);
    }

    let text = std::fs::read_to_string(&cfg.baseline_path)
        .map_err(|e| format!("read {}: {e}", cfg.baseline_path))?;
    let baseline = parse_bench_lines(&text)?;
    let outcome = compare_records(&baseline, &current, cfg);
    print_outcome(&outcome, cfg);
    emit_check_telemetry(&check_telemetry(), &outcome);
    Ok(outcome.clean())
}

/// Bundle benchmark functions into a group runner, mirroring the
/// upstream `criterion_group!` macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::harness::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Emit `fn main` running every listed group, mirroring the upstream
/// `criterion_main!` macro. The exit code reflects the perf-ratchet
/// verdict when `--check` is passed (always success otherwise).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() -> ::std::process::ExitCode {
            let mut c = $crate::harness::Criterion::from_args();
            $( $group(&mut c); )+
            c.finish()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_path_resolves_upward_from_nested_dirs() {
        let root = std::env::temp_dir().join("fb_bench_resolve_test");
        let nested = root.join("crates").join("bench");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(root.join("BENCH_x.json"), "").unwrap();
        // Found two levels up from the nested start dir.
        let hit = resolve_from(&nested, "BENCH_x.json").unwrap();
        assert_eq!(hit, root.join("BENCH_x.json"));
        // Nowhere on the ancestor chain -> None.
        assert!(resolve_from(&nested, "BENCH_missing_xyz.json").is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn output_path_resolves_to_nearest_existing_parent() {
        let root = std::env::temp_dir().join("fb_bench_outresolve_test");
        let nested = root.join("crates").join("bench");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::create_dir_all(root.join("target")).unwrap();
        assert_eq!(
            resolve_output_from(&nested, "target/bench.jsonl"),
            root.join("target").join("bench.jsonl")
        );
        // A bare filename lands in the start dir itself.
        assert_eq!(
            resolve_output_from(&nested, "bench.jsonl"),
            nested.join("bench.jsonl")
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("plain/label"), "plain/label");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn benchmark_id_formats_label() {
        let id = BenchmarkId::new("metric", 1000);
        assert_eq!(id.label, "metric/1000");
    }

    #[test]
    fn bencher_collects_samples() {
        let mut b = Bencher {
            test_mode: false,
            sample_size: 3,
            iters_per_sample: 0,
            samples: Vec::new(),
        };
        b.iter(|| std::hint::black_box(1 + 1));
        assert_eq!(b.samples.len(), 3);
        assert!(b.samples.iter().all(|&s| s >= 0.0));
        assert!(b.iters_per_sample > 0, "calibration recorded");
    }

    #[test]
    fn test_mode_runs_once() {
        let mut calls = 0;
        let mut b = Bencher {
            test_mode: true,
            sample_size: 50,
            iters_per_sample: 0,
            samples: Vec::new(),
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
        assert!(b.samples.is_empty());
    }

    #[test]
    fn records_carry_machine_metadata() {
        let record =
            run_one(true, 5, "meta/probe", |b| b.iter(|| black_box(1))).expect("test-mode record");
        assert_eq!(record.mode, "test");
        assert!(record.threads >= 1);
        assert!(!record.cpu.is_empty());
        let json = record.to_json();
        assert!(json.contains("\"threads\":"), "{json}");
        assert!(json.contains("\"cpu\":\""), "{json}");
    }

    #[test]
    fn trimming_drops_ten_percent_each_side() {
        assert_eq!(trim_count(20), 2);
        assert_eq!(trim_count(10), 1);
        assert_eq!(trim_count(5), 0);
        assert_eq!(trim_count(2), 0);
    }

    fn rec(label: &str, median: f64) -> (String, Option<f64>) {
        (label.to_owned(), Some(median))
    }

    #[test]
    fn check_passes_within_tolerance_band() {
        let baseline = vec![rec("g/a", 100.0), rec("g/b", 1000.0)];
        // +20% and −20%: inside the default ±25% band.
        let current = vec![rec("g/a", 120.0), rec("g/b", 800.0)];
        let outcome = compare_records(&baseline, &current, &CheckConfig::new("B"));
        assert!(outcome.clean(), "{outcome:?}");
        assert_eq!(outcome.within, 2);
        assert!(outcome.regressions.is_empty());
    }

    #[test]
    fn check_flags_synthetically_slowed_run() {
        let baseline = vec![rec("g/a", 100.0), rec("g/b", 1000.0)];
        // g/a slowed 2x: far beyond ±25%.
        let current = vec![rec("g/a", 200.0), rec("g/b", 1000.0)];
        let outcome = compare_records(&baseline, &current, &CheckConfig::new("B"));
        assert!(!outcome.clean());
        assert_eq!(outcome.regressions.len(), 1);
        let r = &outcome.regressions[0];
        assert_eq!(r.label, "g/a");
        assert!((r.ratio - 2.0).abs() < 1e-12);
        assert!((r.tolerance - DEFAULT_TOLERANCE).abs() < 1e-12);
    }

    #[test]
    fn check_reports_improvements_without_failing() {
        let baseline = vec![rec("g/a", 1000.0)];
        let current = vec![rec("g/a", 500.0)];
        let outcome = compare_records(&baseline, &current, &CheckConfig::new("B"));
        assert!(outcome.clean(), "an improvement is not a failure");
        assert_eq!(outcome.improvements.len(), 1);
    }

    #[test]
    fn per_label_override_widens_or_narrows_the_band() {
        let baseline = vec![rec("g/noisy", 100.0), rec("g/tight", 100.0)];
        let current = vec![rec("g/noisy", 170.0), rec("g/tight", 110.0)];
        let mut cfg = CheckConfig::new("B");
        cfg.overrides.push(("g/noisy".to_owned(), 0.80));
        cfg.overrides.push(("g/tight".to_owned(), 0.05));
        let outcome = compare_records(&baseline, &current, &cfg);
        // noisy: 1.7x but band ±80% → fine; tight: 1.1x vs ±5% → fails.
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].label, "g/tight");
    }

    #[test]
    fn label_drift_is_detected_both_ways() {
        let baseline = vec![rec("g/kept", 10.0), rec("g/removed", 10.0)];
        let current = vec![
            rec("g/kept", 10.0),
            rec("g/added", 10.0),
            rec("other/x", 5.0),
        ];
        let outcome = compare_records(&baseline, &current, &CheckConfig::new("B"));
        assert_eq!(outcome.missing, vec!["g/removed".to_owned()]);
        // `other/x` belongs to a group the baseline doesn't cover — not
        // flagged; `g/added` is in a covered group — flagged.
        assert_eq!(outcome.unbaselined, vec!["g/added".to_owned()]);
        assert!(!outcome.clean());
    }

    #[test]
    fn test_mode_nulls_compare_labels_only() {
        let baseline = vec![rec("g/a", 100.0)];
        let current = vec![("g/a".to_owned(), None)];
        let outcome = compare_records(&baseline, &current, &CheckConfig::new("B"));
        assert!(outcome.clean());
        assert_eq!(outcome.within, 0, "no timing comparison happened");
    }

    #[test]
    fn parse_bench_lines_reads_old_and_new_schema_and_skips_lint_rows() {
        let text = concat!(
            // v1 schema (no warmup/threads/cpu) must still parse.
            "{\"label\":\"kernels/gemv_fused\",\"mode\":\"measure\",\"samples\":20,",
            "\"min_ns\":9048.8,\"median_ns\":9381.7,\"mean_ns\":9505.4}\n",
            "\n",
            // v2 schema.
            "{\"label\":\"kernels/gemv_simd\",\"mode\":\"measure\",\"samples\":16,",
            "\"warmup\":424,\"min_ns\":4000.0,\"median_ns\":4100.0,\"mean_ns\":4200.0,",
            "\"threads\":1,\"cpu\":\"test\"}\n",
            // fb-lint sidecar rows share FB_BENCH_JSON but are not benchmarks.
            "{\"label\":\"fb-lint\",\"mode\":\"lint\",\"files_scanned\":1,",
            "\"violations\":{\"P1\":0},\"total\":0}\n",
            // test-mode row: label with null timing.
            "{\"label\":\"kernels/smoke\",\"mode\":\"test\",\"samples\":0,",
            "\"min_ns\":null,\"median_ns\":null,\"mean_ns\":null}\n",
        );
        let rows = parse_bench_lines(text).expect("parse");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, "kernels/gemv_fused");
        assert_eq!(rows[0].1, Some(9381.7));
        assert_eq!(rows[1].1, Some(4100.0));
        assert_eq!(rows[2], ("kernels/smoke".to_owned(), None));
        assert!(parse_bench_lines("not json\n").is_err());
    }

    #[test]
    fn update_baseline_refuses_to_loosen_without_allow_regression() {
        let dir = std::env::temp_dir().join(format!("fb_bench_ratchet_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("BENCH_fixture.json");
        let path_str = path.to_string_lossy().to_string();

        let record = |median: f64| BenchRecord {
            label: "g/a".to_owned(),
            mode: "measure".to_owned(),
            samples: 16,
            warmup: 10,
            min_ns: Some(median * 0.9),
            median_ns: Some(median),
            mean_ns: Some(median),
            threads: 1,
            cpu: "fixture".to_owned(),
        };

        // Seed the baseline at 100ns.
        let mut cfg = CheckConfig::new(path_str.clone());
        cfg.update_baseline = true;
        run_check(&cfg, &[record(100.0)]).expect("seed baseline");

        // A within-band re-record is accepted.
        assert!(run_check(&cfg, &[record(110.0)]).expect("within band"));

        // A 2x slower re-record is refused...
        let err = run_check(&cfg, &[record(220.0)]).expect_err("ratchet must refuse");
        assert!(err.contains("refusing to loosen"), "{err}");

        // ...unless the regression is explicitly acknowledged.
        cfg.allow_regression = true;
        assert!(run_check(&cfg, &[record(220.0)]).expect("explicit loosen"));

        // And plain --check against the loosened baseline passes again.
        cfg.update_baseline = false;
        cfg.allow_regression = false;
        assert!(run_check(&cfg, &[record(220.0)]).expect("recheck"));
        // A fresh regression against it is flagged (exit-false path).
        assert!(!run_check(&cfg, &[record(500.0)]).expect("regression detected"));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

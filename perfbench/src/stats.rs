//! Order statistics and resident-memory sampling.

use std::time::Duration;

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the `statistics.quantiles(..., method="inclusive")` rule);
/// `values` need not be sorted. NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// How often the daemon workloads sample [`rss_mb`] from a thread of
/// their own; `peak_rss_mb` is the highest sample. At 100 Hz the
/// sampler's wake-ups slowed the daemon under test: `serve_repeat` p50
/// was lower at 5 Hz in 4 of 5 paired runs.
pub const RSS_PERIOD: Duration = Duration::from_millis(200);

/// This process's resident set size in MiB (`VmRSS`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

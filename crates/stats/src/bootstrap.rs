//! Percentile bootstrap confidence intervals.
//!
//! Fairness gaps measured on finite audit samples are point estimates;
//! Section IV.C/IV.F call for quantified uncertainty. The percentile
//! bootstrap is the distribution-free workhorse used here.
//!
//! Two execution regimes share the same estimator:
//!
//! * the serial entry points ([`bootstrap_ci`],
//!   [`bootstrap_ci_two_sample`]) draw from a caller-provided [`Rng`]
//!   and reuse one resample buffer across replicates — their stream
//!   consumption is frozen (audit reports cite these intervals);
//! * the parallel entry points ([`par_bootstrap_ci`],
//!   [`par_bootstrap_ci_two_sample`]) split the replicates into
//!   fixed-shape chunks of [`RESAMPLE_CHUNK`], derive one SplitMix64
//!   substream seed per chunk from the caller's seed, and reduce chunk
//!   results in chunk order — so the interval is **bitwise-identical
//!   for any worker count**, including the inline `workers <= 1` path.

use crate::rng::{Rng, SplitMix64, StdRng};
use fairbridge_obs::Telemetry;
use fairbridge_tabular::par::{ordered_parallel_map, size_aware_workers};

/// Replicates per parallel bootstrap chunk. Fixed — never derived from
/// the worker count — so the replicate stream (and the resulting CI) is
/// a function of the seed alone.
pub const RESAMPLE_CHUNK: usize = 64;

/// Work-unit floor per bootstrap worker, where one unit is one
/// resampled element (`n_resamples × sample_len` total):
/// `bootstrap_par8` (400 × 1500 = 600k units) lost to the fused serial
/// path — resampling is RNG/memory bound, so a unit is cheaper to
/// compute inline than to ship to another core until well past the
/// benchmark size. Since
/// [`ordered_parallel_map`] is bitwise-identical for any worker count,
/// the clamp is scheduling only.
pub const BOOTSTRAP_MIN_UNITS_PER_WORKER: usize = 1 << 19;

/// A bootstrap estimate with its confidence interval.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapEstimate {
    /// The statistic on the original sample.
    pub point: f64,
    /// Lower confidence bound.
    pub lower: f64,
    /// Upper confidence bound.
    pub upper: f64,
    /// Number of resamples drawn.
    pub n_resamples: usize,
}

impl BootstrapEstimate {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Whether the interval excludes `value` (e.g. 0 for "no gap").
    pub fn excludes(&self, value: f64) -> bool {
        value < self.lower || value > self.upper
    }
}

/// Percentile bootstrap CI for `statistic` over one sample.
pub fn bootstrap_ci<R, F>(
    data: &[f64],
    statistic: F,
    n_resamples: usize,
    confidence: f64,
    rng: &mut R,
) -> BootstrapEstimate
where
    R: Rng,
    F: Fn(&[f64]) -> f64,
{
    assert!(!data.is_empty(), "bootstrap_ci: empty data");
    assert!(n_resamples > 1, "bootstrap_ci requires n_resamples > 1");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1)"
    );
    let point = statistic(data);
    let mut stats = Vec::with_capacity(n_resamples);
    let mut buf = vec![0.0; data.len()];
    for _ in 0..n_resamples {
        for slot in buf.iter_mut() {
            *slot = data[rng.gen_range(0..data.len())];
        }
        stats.push(statistic(&buf));
    }
    stats.sort_by(f64::total_cmp);
    let alpha = 1.0 - confidence;
    let lower = crate::descriptive::quantile_sorted(&stats, alpha / 2.0);
    let upper = crate::descriptive::quantile_sorted(&stats, 1.0 - alpha / 2.0);
    BootstrapEstimate {
        point,
        lower,
        upper,
        n_resamples,
    }
}

/// Percentile bootstrap CI for a two-sample statistic (resampling each
/// sample independently), e.g. a rate difference between groups.
pub fn bootstrap_ci_two_sample<R, F>(
    a: &[f64],
    b: &[f64],
    statistic: F,
    n_resamples: usize,
    confidence: f64,
    rng: &mut R,
) -> BootstrapEstimate
where
    R: Rng,
    F: Fn(&[f64], &[f64]) -> f64,
{
    assert!(!a.is_empty() && !b.is_empty(), "bootstrap: empty sample");
    assert!(n_resamples > 1, "bootstrap requires n_resamples > 1");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1)"
    );
    let point = statistic(a, b);
    let mut stats = Vec::with_capacity(n_resamples);
    let mut ba = vec![0.0; a.len()];
    let mut bb = vec![0.0; b.len()];
    for _ in 0..n_resamples {
        for slot in ba.iter_mut() {
            *slot = a[rng.gen_range(0..a.len())];
        }
        for slot in bb.iter_mut() {
            *slot = b[rng.gen_range(0..b.len())];
        }
        stats.push(statistic(&ba, &bb));
    }
    stats.sort_by(f64::total_cmp);
    let alpha = 1.0 - confidence;
    BootstrapEstimate {
        point,
        lower: crate::descriptive::quantile_sorted(&stats, alpha / 2.0),
        upper: crate::descriptive::quantile_sorted(&stats, 1.0 - alpha / 2.0),
        n_resamples,
    }
}

/// Sorts replicate statistics and reads off the percentile interval.
fn percentile_interval(
    point: f64,
    mut stats: Vec<f64>,
    confidence: f64,
    n_resamples: usize,
) -> BootstrapEstimate {
    stats.sort_by(f64::total_cmp);
    let alpha = 1.0 - confidence;
    BootstrapEstimate {
        point,
        lower: crate::descriptive::quantile_sorted(&stats, alpha / 2.0),
        upper: crate::descriptive::quantile_sorted(&stats, 1.0 - alpha / 2.0),
        n_resamples,
    }
}

/// One SplitMix64-derived substream seed per fixed-size chunk: the
/// replicate stream depends only on `seed` and the chunk index, never on
/// which worker runs the chunk.
fn chunk_seeds(seed: u64, n_chunks: usize) -> Vec<u64> {
    let mut sm = SplitMix64::new(seed);
    (0..n_chunks).map(|_| sm.next_u64()).collect()
}

/// Deterministically parallel percentile bootstrap CI.
///
/// Unlike [`bootstrap_ci`] this takes a `seed` rather than an [`Rng`]:
/// each [`RESAMPLE_CHUNK`]-replicate chunk runs on its own substream, so
/// the interval is bitwise-identical for every `workers` value
/// (`<= 1` runs inline with zero thread spawns).
pub fn par_bootstrap_ci<F>(
    data: &[f64],
    statistic: F,
    n_resamples: usize,
    confidence: f64,
    seed: u64,
    workers: usize,
) -> BootstrapEstimate
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    par_bootstrap_ci_observed(
        data,
        statistic,
        n_resamples,
        confidence,
        seed,
        workers,
        &Telemetry::off(),
    )
}

/// [`par_bootstrap_ci`] recording a `bootstrap.ci` span and the
/// `bootstrap.resamples` counter.
#[allow(clippy::too_many_arguments)]
pub fn par_bootstrap_ci_observed<F>(
    data: &[f64],
    statistic: F,
    n_resamples: usize,
    confidence: f64,
    seed: u64,
    workers: usize,
    telemetry: &Telemetry,
) -> BootstrapEstimate
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    assert!(!data.is_empty(), "bootstrap_ci: empty data");
    assert!(n_resamples > 1, "bootstrap_ci requires n_resamples > 1");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1)"
    );
    let _span = telemetry.span("bootstrap.ci");
    telemetry
        .counter("bootstrap.resamples")
        .add(n_resamples as u64);
    let point = statistic(data);
    let n_chunks = n_resamples.div_ceil(RESAMPLE_CHUNK);
    let seeds = chunk_seeds(seed, n_chunks);
    let workers = size_aware_workers(
        workers,
        n_chunks,
        n_resamples.saturating_mul(data.len()),
        BOOTSTRAP_MIN_UNITS_PER_WORKER,
    );
    let chunks = ordered_parallel_map(n_chunks, workers, |c| {
        let mut rng = StdRng::seed_from_u64(seeds[c]);
        let start = c * RESAMPLE_CHUNK;
        let len = RESAMPLE_CHUNK.min(n_resamples - start);
        let mut buf = vec![0.0; data.len()];
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            for slot in buf.iter_mut() {
                *slot = data[rng.gen_range(0..data.len())];
            }
            out.push(statistic(&buf));
        }
        out
    });
    percentile_interval(point, chunks.concat(), confidence, n_resamples)
}

/// Deterministically parallel two-sample percentile bootstrap CI; see
/// [`par_bootstrap_ci`] for the chunking/substream contract.
#[allow(clippy::too_many_arguments)]
pub fn par_bootstrap_ci_two_sample<F>(
    a: &[f64],
    b: &[f64],
    statistic: F,
    n_resamples: usize,
    confidence: f64,
    seed: u64,
    workers: usize,
) -> BootstrapEstimate
where
    F: Fn(&[f64], &[f64]) -> f64 + Sync,
{
    par_bootstrap_ci_two_sample_observed(
        a,
        b,
        statistic,
        n_resamples,
        confidence,
        seed,
        workers,
        &Telemetry::off(),
    )
}

/// [`par_bootstrap_ci_two_sample`] recording a `bootstrap.ci` span and
/// the `bootstrap.resamples` counter.
#[allow(clippy::too_many_arguments)]
pub fn par_bootstrap_ci_two_sample_observed<F>(
    a: &[f64],
    b: &[f64],
    statistic: F,
    n_resamples: usize,
    confidence: f64,
    seed: u64,
    workers: usize,
    telemetry: &Telemetry,
) -> BootstrapEstimate
where
    F: Fn(&[f64], &[f64]) -> f64 + Sync,
{
    assert!(!a.is_empty() && !b.is_empty(), "bootstrap: empty sample");
    assert!(n_resamples > 1, "bootstrap requires n_resamples > 1");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1)"
    );
    let _span = telemetry.span("bootstrap.ci");
    telemetry
        .counter("bootstrap.resamples")
        .add(n_resamples as u64);
    let point = statistic(a, b);
    let n_chunks = n_resamples.div_ceil(RESAMPLE_CHUNK);
    let seeds = chunk_seeds(seed, n_chunks);
    let workers = size_aware_workers(
        workers,
        n_chunks,
        n_resamples.saturating_mul(a.len() + b.len()),
        BOOTSTRAP_MIN_UNITS_PER_WORKER,
    );
    let chunks = ordered_parallel_map(n_chunks, workers, |c| {
        let mut rng = StdRng::seed_from_u64(seeds[c]);
        let start = c * RESAMPLE_CHUNK;
        let len = RESAMPLE_CHUNK.min(n_resamples - start);
        let mut ba = vec![0.0; a.len()];
        let mut bb = vec![0.0; b.len()];
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            for slot in ba.iter_mut() {
                *slot = a[rng.gen_range(0..a.len())];
            }
            for slot in bb.iter_mut() {
                *slot = b[rng.gen_range(0..b.len())];
            }
            out.push(statistic(&ba, &bb));
        }
        out
    });
    percentile_interval(point, chunks.concat(), confidence, n_resamples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::mean;
    use crate::rng::StdRng;

    #[test]
    fn ci_contains_true_mean_for_well_behaved_data() {
        let mut rng = StdRng::seed_from_u64(42);
        let data: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect(); // mean 4.5
        let est = bootstrap_ci(&data, mean, 500, 0.95, &mut rng);
        assert!((est.point - 4.5).abs() < 1e-12);
        assert!(est.lower < 4.5 && 4.5 < est.upper);
        assert!(est.width() < 1.0);
        assert_eq!(est.n_resamples, 500);
    }

    #[test]
    fn two_sample_gap_detected() {
        let mut rng = StdRng::seed_from_u64(7);
        // 30% vs 60% positive rates as 0/1 data
        let a: Vec<f64> = (0..100)
            .map(|i| if i % 10 < 3 { 1.0 } else { 0.0 })
            .collect();
        let b: Vec<f64> = (0..100)
            .map(|i| if i % 10 < 6 { 1.0 } else { 0.0 })
            .collect();
        let est = bootstrap_ci_two_sample(&a, &b, |x, y| mean(y) - mean(x), 500, 0.95, &mut rng);
        assert!((est.point - 0.3).abs() < 1e-12);
        assert!(est.excludes(0.0), "CI {:?} should exclude 0", est);
    }

    #[test]
    fn identical_samples_interval_covers_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let a: Vec<f64> = (0..80).map(|i| (i % 2) as f64).collect();
        let est = bootstrap_ci_two_sample(
            &a,
            &a.clone(),
            |x, y| mean(y) - mean(x),
            400,
            0.95,
            &mut rng,
        );
        assert!(!est.excludes(0.0));
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn empty_data_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        bootstrap_ci(&[], mean, 10, 0.9, &mut rng);
    }

    #[test]
    fn par_bootstrap_is_bitwise_identical_across_worker_counts() {
        let data: Vec<f64> = (0..300).map(|i| ((i * 17) % 23) as f64).collect();
        let serial = par_bootstrap_ci(&data, mean, 500, 0.95, 0xB007, 1);
        for workers in [2, 8] {
            let par = par_bootstrap_ci(&data, mean, 500, 0.95, 0xB007, workers);
            assert_eq!(
                serial.lower.to_bits(),
                par.lower.to_bits(),
                "{workers} workers"
            );
            assert_eq!(
                serial.upper.to_bits(),
                par.upper.to_bits(),
                "{workers} workers"
            );
            assert_eq!(serial.point.to_bits(), par.point.to_bits());
        }
    }

    #[test]
    fn par_bootstrap_ci_brackets_the_mean() {
        let data: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect(); // mean 4.5
        let est = par_bootstrap_ci(&data, mean, 400, 0.95, 9, 4);
        assert!((est.point - 4.5).abs() < 1e-12);
        assert!(est.lower < 4.5 && 4.5 < est.upper);
        assert!(est.width() < 1.0);
    }

    #[test]
    fn par_two_sample_matches_serial_semantics() {
        let a: Vec<f64> = (0..100)
            .map(|i| if i % 10 < 3 { 1.0 } else { 0.0 })
            .collect();
        let b: Vec<f64> = (0..100)
            .map(|i| if i % 10 < 6 { 1.0 } else { 0.0 })
            .collect();
        let stat = |x: &[f64], y: &[f64]| mean(y) - mean(x);
        let one = par_bootstrap_ci_two_sample(&a, &b, stat, 500, 0.95, 3, 1);
        let eight = par_bootstrap_ci_two_sample(&a, &b, stat, 500, 0.95, 3, 8);
        assert_eq!(one, eight);
        assert!((one.point - 0.3).abs() < 1e-12);
        assert!(one.excludes(0.0), "CI {one:?} should exclude 0");
    }

    #[test]
    fn par_bootstrap_counts_resamples() {
        let telemetry = Telemetry::new(std::sync::Arc::new(
            fairbridge_obs::RingSink::with_capacity(16),
        ));
        let data = vec![1.0, 2.0, 3.0, 4.0];
        par_bootstrap_ci_observed(&data, mean, 100, 0.9, 1, 2, &telemetry);
        assert_eq!(telemetry.counter("bootstrap.resamples").get(), 100);
    }
}

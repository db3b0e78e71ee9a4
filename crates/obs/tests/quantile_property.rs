//! Property tests for the log-linear histogram's quantile accuracy.
//!
//! The claim DESIGN §13 makes — `Histogram::quantile(q)` is within one
//! sub-bucket (relative error ≤ 1/16) of the exact sample quantile — is
//! checked here against seeded pseudo-random data drawn from several
//! shapes (uniform, heavy-tailed, bimodal).

use fairbridge_obs::{NoopSink, Telemetry, SUBBUCKETS};
use std::sync::Arc;

/// SplitMix64: a tiny, seedable PRNG so the test is deterministic.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The exact sample quantile under the same nearest-rank convention
/// `Histogram::quantile` documents: index `round(q · (n−1))` of the
/// sorted samples.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn check_distribution(name: &str, samples: Vec<u64>) {
    let telemetry = Telemetry::new(Arc::new(NoopSink));
    let h = telemetry.histogram(name);
    for &v in &samples {
        h.record(v);
    }
    let mut sorted = samples;
    sorted.sort_unstable();
    for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
        let exact = exact_quantile(&sorted, q);
        let got = h.quantile(q);
        if exact == 0 {
            assert_eq!(got, 0, "{name} q={q}: exact 0 must report 0");
            continue;
        }
        let rel = got.abs_diff(exact) as f64 / exact as f64;
        assert!(
            rel <= 1.0 / SUBBUCKETS as f64,
            "{name} q={q}: histogram {got} vs exact {exact}, rel err {rel:.4} > 1/{SUBBUCKETS}"
        );
    }
}

#[test]
fn uniform_samples_stay_within_one_sub_bucket() {
    let mut rng = SplitMix64(0xFB01);
    let samples: Vec<u64> = (0..20_000).map(|_| rng.next() % 1_000_000).collect();
    check_distribution("uniform", samples);
}

#[test]
fn heavy_tailed_samples_stay_within_one_sub_bucket() {
    // Exponent-skewed: most values small, a long tail into the billions
    // — the shape service latencies actually have.
    let mut rng = SplitMix64(0xFB02);
    let samples: Vec<u64> = (0..20_000)
        .map(|_| {
            let magnitude = rng.next() % 30; // up to 2^30
            (rng.next() % 1024) << (magnitude / 3)
        })
        .collect();
    check_distribution("heavy_tailed", samples);
}

#[test]
fn bimodal_samples_stay_within_one_sub_bucket() {
    // Fast path around 10µs, slow path around 5ms — the coalesced vs
    // computed split a serving histogram sees.
    let mut rng = SplitMix64(0xFB03);
    let samples: Vec<u64> = (0..20_000)
        .map(|_| {
            if rng.next() % 4 == 0 {
                5_000_000 + rng.next() % 1_000_000
            } else {
                10_000 + rng.next() % 2_000
            }
        })
        .collect();
    check_distribution("bimodal", samples);
}

#[test]
fn small_exact_values_are_reported_exactly() {
    let telemetry = Telemetry::new(Arc::new(NoopSink));
    let h = telemetry.histogram("small");
    for v in 0..16u64 {
        h.record(v);
    }
    // Values below SUBBUCKETS occupy exact unit buckets, so quantiles
    // of small-valued data have zero error.
    assert_eq!(h.quantile(0.0), 0);
    assert_eq!(h.quantile(0.5), 8);
    assert_eq!(h.quantile(1.0), 15);
}

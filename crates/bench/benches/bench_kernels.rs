//! Bench for the deterministic numeric kernel layer (DESIGN.md §7):
//! each fused / buffer-reusing kernel is measured against an inline
//! reimplementation of the scalar idiom it replaced, so the
//! `FB_BENCH_JSON` sidecar records the speedup directly.
//!
//! Rows:
//! - `gemv_scalar` vs `gemv_fused` — allocating per-row scalar dot vs
//!   the unrolled fused dot writing into a reused buffer.
//! - `logistic_epoch_scalar` vs `logistic_epoch_fused` vs
//!   `logistic_epoch_simd` — the pre-refactor per-element gradient loop
//!   with per-epoch allocations, the kernel-table trainer pinned to the
//!   fused-scalar references, and the same trainer under runtime
//!   dispatch (AVX2 in a `--features simd` build) — the last two are
//!   bitwise-identical, so their delta is pure instruction width.
//! - `bootstrap_scalar_alloc` vs `bootstrap_fused` — allocate-a-resample
//!   -per-replicate vs the chunked buffer-reusing bootstrap.
//! - `sinkhorn_scalar_strided` vs `sinkhorn_fused` vs `sinkhorn_simd` —
//!   column sums strided down the Gibbs kernel; the cached packed
//!   transpose + kernel-table solver pinned fused; and the same solver
//!   under runtime dispatch (again bitwise-identical to the fused arm).
//!
//! The `*_par8` rows run the same kernels at 8 workers; on a single-core
//! container they mainly document fan-out overhead (the determinism
//! suite, not this bench, is what guarantees thread-count invariance).
//!
//! The `kernels_simd` group is the SIMD widening sweep: `dot` and `gemv`
//! at 10⁴ / 10⁵ / 10⁶ elements, three rows per size — `*_scalar`
//! (single-accumulator reference), `*_fused` (8-lane scalar fusion) and
//! `*_simd` (the runtime-dispatched kernel: AVX2 when the binary is
//! built with `--features simd` on a machine that has it, otherwise the
//! identical-bits fused fallback). The labels are feature-independent so
//! the stale-baseline guard can compare label sets from any build; the
//! timings in `BENCH_kernels.json` are recorded with the feature on.

use fairbridge::learn::logistic::LogisticTrainer;
use fairbridge::learn::matrix::Matrix;
use fairbridge_bench::harness::{BenchmarkId, Criterion};
use fairbridge_bench::{criterion_group, criterion_main};
use fairbridge_stats::bootstrap::par_bootstrap_ci;
use fairbridge_stats::descriptive::mean;
use fairbridge_stats::kernel;
use fairbridge_stats::rng::{Rng, StdRng};
use fairbridge_stats::sinkhorn::{par_sinkhorn, par_sinkhorn_pinned_fused, CONVERGENCE_TOL};
use fairbridge_stats::Discrete;
use std::hint::black_box;

fn random_matrix(seed: u64, n: usize, d: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-2.0..2.0)).collect();
    Matrix::new(data, n, d)
}

/// Scalar reference matrix–vector product: an allocating
/// single-accumulator dot per row, the baseline the fused gemv rows are
/// measured against.
fn matvec_scalar(x: &Matrix, w: &[f64]) -> Vec<f64> {
    (0..x.n_rows())
        .map(|i| kernel::dot_scalar(x.row(i), w))
        .collect()
}

fn random_discrete(seed: u64, k: usize) -> Discrete {
    let mut rng = StdRng::seed_from_u64(seed);
    let raw: Vec<f64> = (0..k).map(|_| rng.gen_range(0.05..1.0)).collect();
    let total: f64 = raw.iter().sum();
    Discrete::new(raw.iter().map(|x| x / total).collect()).unwrap()
}

/// Pre-refactor logistic loop: per-row scalar dot, per-element gradient
/// accumulation, and fresh score/gradient vectors every epoch.
fn logistic_fit_scalar(
    x: &Matrix,
    y: &[bool],
    sw: &[f64],
    learning_rate: f64,
    l2: f64,
    epochs: usize,
) -> (Vec<f64>, f64) {
    let (n, d) = (x.n_rows(), x.n_cols());
    let mut w = vec![0.0; d];
    let mut bias = 0.0;
    for _ in 0..epochs {
        let mut grad = vec![0.0; d];
        let mut grad_bias = 0.0;
        for i in 0..n {
            let row = x.row(i);
            let mut score = 0.0;
            for j in 0..d {
                score += row[j] * w[j];
            }
            let p = 1.0 / (1.0 + (-(score + bias)).exp());
            let err = (p - f64::from(u8::from(y[i]))) * sw[i];
            for j in 0..d {
                grad[j] += err * row[j];
            }
            grad_bias += err;
        }
        let scale = learning_rate / n as f64;
        for j in 0..d {
            w[j] -= scale * grad[j] + learning_rate * l2 * w[j];
        }
        bias -= scale * grad_bias;
    }
    (w, bias)
}

/// Pre-refactor bootstrap idiom: a freshly allocated resample vector per
/// replicate, then sort + percentile.
fn bootstrap_scalar_alloc(
    data: &[f64],
    n_resamples: usize,
    confidence: f64,
    seed: u64,
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = data.len();
    let mut stats = Vec::with_capacity(n_resamples);
    for _ in 0..n_resamples {
        let resample: Vec<f64> = (0..n).map(|_| data[rng.gen_range(0..n)]).collect();
        stats.push(mean(&resample));
    }
    stats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let alpha = 1.0 - confidence;
    let lo = ((alpha / 2.0) * n_resamples as f64) as usize;
    let hi = (((1.0 - alpha / 2.0) * n_resamples as f64) as usize).min(n_resamples - 1);
    (stats[lo], stats[hi])
}

/// Pre-refactor Sinkhorn solver, verbatim idiom: no cached transpose —
/// the `Kᵀu` half-pass walks each column with stride `m`, single
/// accumulator — then plan, cost and marginal error are materialized
/// exactly as the seed implementation did.
fn sinkhorn_scalar_strided(
    p: &Discrete,
    q: &Discrete,
    cost: &[f64],
    epsilon: f64,
    max_iters: usize,
) -> f64 {
    let (n, m) = (p.k(), q.k());
    let kernel: Vec<f64> = cost.iter().map(|&c| (-c / epsilon).exp()).collect();
    let mut u = vec![1.0; n];
    let mut v = vec![1.0; m];
    for _ in 0..max_iters {
        let mut max_delta = 0.0f64;
        for i in 0..n {
            let kv: f64 = (0..m).map(|j| kernel[i * m + j] * v[j]).sum();
            let new = if kv > 0.0 { p.p(i) / kv } else { 0.0 };
            max_delta = max_delta.max((new - u[i]).abs());
            u[i] = new;
        }
        for j in 0..m {
            let ku: f64 = (0..n).map(|i| kernel[i * m + j] * u[i]).sum();
            let new = if ku > 0.0 { q.p(j) / ku } else { 0.0 };
            max_delta = max_delta.max((new - v[j]).abs());
            v[j] = new;
        }
        if max_delta < CONVERGENCE_TOL {
            break;
        }
    }
    let mut plan = vec![0.0; n * m];
    let mut total = 0.0;
    for i in 0..n {
        for j in 0..m {
            let pij = u[i] * kernel[i * m + j] * v[j];
            plan[i * m + j] = pij;
            total += pij * cost[i * m + j];
        }
    }
    let mut err = 0.0;
    for i in 0..n {
        let row: f64 = (0..m).map(|j| plan[i * m + j]).sum();
        err += (row - p.p(i)).abs();
    }
    for j in 0..m {
        let col: f64 = (0..n).map(|i| plan[i * m + j]).sum();
        err += (col - q.p(j)).abs();
    }
    total + err
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);

    // gemv: 512x128 — cache-resident, the shape class the trainers hit
    // every epoch (streaming-from-DRAM shapes are bandwidth-bound and
    // would measure the memory bus, not the kernel).
    let x = random_matrix(0xB1, 512, 128);
    let w: Vec<f64> = (0..128).map(|j| (j as f64 * 0.37).sin()).collect();
    group.bench_function("gemv_scalar", |b| {
        b.iter(|| black_box(matvec_scalar(&x, &w)))
    });
    group.bench_function("gemv_fused", |b| {
        let mut out = vec![0.0; x.n_rows()];
        b.iter(|| {
            x.gemv_into(&w, &mut out);
            black_box(out[0])
        })
    });

    // Logistic epochs: fixed 25 epochs (tolerance 0 disables early exit)
    // so both sides do identical epoch counts.
    let xl = random_matrix(0xB2, 512, 256);
    let mut rng = StdRng::seed_from_u64(0xB3);
    let y: Vec<bool> = (0..512).map(|_| rng.gen_bool(0.4)).collect();
    let sw = vec![1.0; 512];
    let trainer = LogisticTrainer {
        epochs: 25,
        tolerance: 0.0,
        ..LogisticTrainer::default()
    };
    group.bench_function("logistic_epoch_scalar", |b| {
        b.iter(|| {
            black_box(logistic_fit_scalar(
                &xl,
                &y,
                &sw,
                trainer.learning_rate,
                trainer.l2,
                trainer.epochs,
            ))
        })
    });
    group.bench_function("logistic_epoch_fused", |b| {
        b.iter(|| black_box(trainer.fit_weighted_pinned_fused(&xl, &y, &sw)))
    });
    group.bench_function("logistic_epoch_simd", |b| {
        b.iter(|| black_box(trainer.fit_weighted(&xl, &y, &sw)))
    });

    // Bootstrap: 400 replicates over 1500 points, mean statistic.
    let mut rng = StdRng::seed_from_u64(0xB4);
    let data: Vec<f64> = (0..1500).map(|_| rng.gen_range(-5.0..5.0)).collect();
    group.bench_function("bootstrap_scalar_alloc", |b| {
        b.iter(|| black_box(bootstrap_scalar_alloc(&data, 400, 0.95, 7)))
    });
    group.bench_function("bootstrap_fused", |b| {
        b.iter(|| black_box(par_bootstrap_ci(&data, mean, 400, 0.95, 7, 1)))
    });
    group.bench_function("bootstrap_par8", |b| {
        b.iter(|| black_box(par_bootstrap_ci(&data, mean, 400, 0.95, 7, 8)))
    });

    // Sinkhorn: 512-point support (a fine score histogram), 150 scaling
    // iterations (CONVERGENCE_TOL is far below what 150 iterations
    // reach, so every arm runs all 150). At this size the 2 MB Gibbs
    // kernel stays cache-resident, so the gemv half-passes are
    // compute-bound and the AVX2 arm's advantage is visible; at 1024
    // points the 8 MB kernel is DRAM-bound and every arm converges on
    // memory bandwidth. 150 iterations (not the previous 20) keep the
    // scaling loop -- the path this PR widened -- dominant over the
    // one-time scalar exp kernel build, pinned scalar by design. The
    // strided `Kᵀu` row still touches a fresh cache line per element;
    // the cached packed transpose streams sequentially.
    group.sample_size(10);
    const SUPPORT: usize = 512;
    let p = random_discrete(0xB5, SUPPORT);
    let q = random_discrete(0xB6, SUPPORT);
    let cost: Vec<f64> = (0..SUPPORT * SUPPORT)
        .map(|ij| {
            let (i, j) = (ij / SUPPORT, ij % SUPPORT);
            ((i as f64 - j as f64) / SUPPORT as f64).abs()
        })
        .collect();
    group.bench_function("sinkhorn_scalar_strided", |b| {
        b.iter(|| black_box(sinkhorn_scalar_strided(&p, &q, &cost, 0.05, 150)))
    });
    group.bench_function("sinkhorn_fused", |b| {
        b.iter(|| {
            black_box(
                par_sinkhorn_pinned_fused(&p, &q, &cost, 0.05, 150, 1)
                    .unwrap()
                    .cost,
            )
        })
    });
    group.bench_function("sinkhorn_simd", |b| {
        b.iter(|| black_box(par_sinkhorn(&p, &q, &cost, 0.05, 150, 1).unwrap().cost))
    });
    group.bench_function("sinkhorn_par8", |b| {
        b.iter(|| black_box(par_sinkhorn(&p, &q, &cost, 0.05, 150, 8).unwrap().cost))
    });

    group.finish();
}

/// The SIMD widening sweep: scalar vs fused vs runtime-dispatched SIMD
/// for `dot` (vector length 10⁴/10⁵/10⁶) and `gemv` (square matrices
/// with that many elements: 100², 316², 1000²). The `_simd` rows call
/// the public dispatchers, so they measure whatever path production
/// code actually takes in this build.
fn bench_simd_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_simd");
    group.sample_size(10);
    println!(
        "kernels_simd: simd dispatch active = {}",
        kernel::simd_active()
    );

    for n in [10_000usize, 100_000, 1_000_000] {
        let mut rng = StdRng::seed_from_u64(0xD0 + n as u64);
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b_vec: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        group.bench_with_input(BenchmarkId::new("dot_scalar", n), &n, |b, _| {
            b.iter(|| black_box(kernel::dot_scalar(&a, &b_vec)))
        });
        group.bench_with_input(BenchmarkId::new("dot_fused", n), &n, |b, _| {
            b.iter(|| black_box(kernel::dot_fused(&a, &b_vec)))
        });
        group.bench_with_input(BenchmarkId::new("dot_simd", n), &n, |b, _| {
            b.iter(|| black_box(kernel::dot(&a, &b_vec)))
        });
    }

    // Square gemv shapes with 10⁴/10⁵/10⁶ matrix elements. 1000×1000 is
    // 8 MB — past L2 on the reference box but L3-resident, so the sweep
    // measures compute width, not DRAM bandwidth.
    for side in [100usize, 316, 1000] {
        let x = random_matrix(0xC0 + side as u64, side, side);
        let w: Vec<f64> = (0..side).map(|j| (j as f64 * 0.37).sin()).collect();
        let elements = side * side;
        group.bench_with_input(BenchmarkId::new("gemv_scalar", elements), &side, |b, _| {
            b.iter(|| black_box(matvec_scalar(&x, &w)))
        });
        group.bench_with_input(BenchmarkId::new("gemv_fused", elements), &side, |b, _| {
            let mut out = vec![0.0; x.n_rows()];
            b.iter(|| {
                x.gemv_into_fused(&w, &mut out);
                black_box(out[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("gemv_simd", elements), &side, |b, _| {
            let mut out = vec![0.0; x.n_rows()];
            b.iter(|| {
                x.gemv_into(&w, &mut out);
                black_box(out[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_simd_sweep);
criterion_main!(benches);

//! The workspace's numeric kernels: fused, unroll-friendly inner loops
//! shared by the matrix layer in `fairbridge-learn` (which re-exports
//! them) and the resampling/OT solvers in this crate, plus the explicit
//! AVX2 widening of those loops in `simd`.
//!
//! Each fused kernel keeps eight independent accumulator lanes over the
//! aligned body of the slice so the compiler can break the one-add-per-
//! FPU-latency dependency chain of a naive left-to-right sum (and pack
//! the lanes into vector ops), then combines the lanes pairwise and
//! adds the scalar tail. That combination order is **fixed**: the same
//! slices always produce the same bits, which is the foundation of the
//! bitwise determinism contract the parallel bootstrap, Sinkhorn and
//! trainer paths promise. The parallel callers therefore always hand
//! *whole* logical units (matrix rows, kernel rows) to these functions
//! and never split one unit across workers.
//!
//! The reductions above are joined by three *elementwise* kernels —
//! [`mul_into`], [`div_into`], [`scale_into`] — pure IEEE mul/div with
//! one independent output per slot, so for them lane order is the only
//! contract and bitwise equality across paths is structural. They are
//! the building blocks of the Sinkhorn scaling updates and plan
//! materialization and the trainer's residual weighting. The
//! [`KernelSet`] table packages all seven entry points so those
//! algorithms can run either dispatched ([`DISPATCH_KERNELS`]) or
//! pinned to the references ([`FUSED_KERNELS`]).
//!
//! The public [`dot`]/[`sum`]/[`axpy`] entry points are *dispatchers*:
//! when the `simd` cargo feature is enabled on x86_64 and the CPU
//! reports AVX2, they route to `simd`, whose two 4×f64 registers hold
//! the same eight logical lanes and perform the identical
//! mul-then-add per lane and the identical lane-combine order — so the
//! result bits never depend on which path ran (asserted by the
//! `prop_simd` suite, including NaN/∞/subnormal inputs). On every other
//! build or machine the fused scalar path below is the universal
//! fallback. The `*_fused` functions stay public as the reference the
//! equivalence suites and `bench_kernels` pin the SIMD path against.
//!
//! The single-accumulator reference implementations ([`dot_scalar`])
//! stay in-tree as the baseline `bench_kernels` measures against.

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub mod simd;

/// Whether kernel calls in this process are running on the explicit
/// AVX2 path (the `simd` feature is compiled in *and* the CPU reports
/// AVX2). Purely informational: results are bitwise-identical either
/// way. Benchmarks record it so a baseline says which path it measured.
#[inline]
pub fn simd_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        simd::avx2_available()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Dot product: eight logical accumulator lanes, lanes combined
/// pairwise in the fixed order
/// `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) + tail`. Dispatches to the
/// AVX2 kernel when available (bitwise-identical), else runs
/// [`dot_fused`]. Every NaN result is the quiet NaN
/// `0x7ff8000000000000`.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx2_available() {
        return canonical_nan(simd::dot_avx2(a, b));
    }
    canonical_nan(dot_fused(a, b))
}

/// Sum reduction with the same fixed eight-lane combine order as
/// [`dot`]. This is the sanctioned reduction primitive the D4 lint
/// points at: new cross-path float reductions should call `kernel::sum`
/// rather than `.sum::<f64>()`, so the combination order — and
/// therefore the result bits — is pinned by one function instead of
/// re-derived at every call site. Dispatches to AVX2 when available.
/// Every NaN result is the quiet NaN `0x7ff8000000000000`.
#[inline]
pub fn sum(a: &[f64]) -> f64 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx2_available() {
        return canonical_nan(simd::sum_avx2(a));
    }
    canonical_nan(sum_fused(a))
}

/// `x`, or the positive quiet NaN `0x7ff8000000000000` if `x` is any
/// NaN. Which NaN an IEEE add returns from two NaN operands depends on
/// their order, which the optimizer may choose differently at each
/// inlined call site; mapping every NaN to one keeps the scalar
/// reductions' bits the same on every call. Selected as an integer so
/// the compiler cannot treat the two NaNs as interchangeable.
#[inline]
fn canonical_nan(x: f64) -> f64 {
    const QUIET_NAN: u64 = 0x7ff8_0000_0000_0000;
    f64::from_bits(if x.is_nan() { QUIET_NAN } else { x.to_bits() })
}

/// `y += alpha · x`, eight-wide. Each output slot is an independent
/// accumulator, so the result is bitwise-identical to the naive
/// per-element loop on every path. Dispatches to AVX2 when available.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx2_available() {
        simd::axpy_avx2(alpha, x, y);
        return;
    }
    axpy_fused(alpha, x, y);
}

/// Matrix–vector product over row-major `data` (`out.len()` rows of
/// `n_cols` elements each): `out[i] = row_i · w`. Dispatches to the
/// row-blocked AVX2 kernel when available — four rows advance in
/// lockstep, which quadruples the independent accumulator chains
/// without touching any single row's arithmetic — else runs
/// [`gemv_fused`]. Bitwise-identical either way.
#[inline]
pub fn gemv(data: &[f64], n_cols: usize, w: &[f64], out: &mut [f64]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx2_available() {
        simd::gemv_avx2(data, n_cols, w, out);
        return;
    }
    gemv_fused(data, n_cols, w, out);
}

/// Elementwise product `out[i] = a[i] · b[i]`. Pure IEEE multiplies —
/// every output slot is independent, so lane order is the *only*
/// contract and any vectorization is trivially bitwise-identical to
/// the scalar loop. Dispatches to AVX2 when available.
#[inline]
pub fn mul_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx2_available() {
        simd::mul_into_avx2(a, b, out);
        return;
    }
    mul_into_fused(a, b, out);
}

/// Elementwise quotient `out[i] = num[i] / den[i]`. Pure IEEE divides
/// (slot-independent, same contract as [`mul_into`]); callers that need
/// a zero-divisor guard apply it to the *output* afterwards so the
/// kernel itself stays branch-free. Dispatches to AVX2 when available.
#[inline]
pub fn div_into(num: &[f64], den: &[f64], out: &mut [f64]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx2_available() {
        simd::div_into_avx2(num, den, out);
        return;
    }
    div_into_fused(num, den, out);
}

/// In-place scaling `out[i] *= alpha`. Pure IEEE multiplies,
/// slot-independent. Dispatches to AVX2 when available.
#[inline]
pub fn scale_into(alpha: f64, out: &mut [f64]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx2_available() {
        simd::scale_into_avx2(alpha, out);
        return;
    }
    scale_into_fused(alpha, out);
}

/// [`mul_into`] pinned to the scalar loop. The universal fallback and
/// the bitwise reference for `simd::mul_into_avx2`.
#[inline]
pub fn mul_into_fused(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = x * y;
    }
}

/// [`div_into`] pinned to the scalar loop. The universal fallback and
/// the bitwise reference for `simd::div_into_avx2`.
#[inline]
pub fn div_into_fused(num: &[f64], den: &[f64], out: &mut [f64]) {
    debug_assert_eq!(num.len(), den.len());
    debug_assert_eq!(num.len(), out.len());
    for (o, (x, y)) in out.iter_mut().zip(num.iter().zip(den)) {
        *o = x / y;
    }
}

/// [`scale_into`] pinned to the scalar loop. The universal fallback and
/// the bitwise reference for `simd::scale_into_avx2`.
#[inline]
pub fn scale_into_fused(alpha: f64, out: &mut [f64]) {
    for o in out.iter_mut() {
        *o *= alpha;
    }
}

/// A table of the seven kernel entry points, so a multi-kernel
/// algorithm (Sinkhorn, the logistic trainer) can be written once and
/// run either on the runtime dispatchers ([`DISPATCH_KERNELS`]) or
/// pinned to the fused-scalar references ([`FUSED_KERNELS`]). The two
/// tables are bitwise-interchangeable by the kernel contract; the
/// pinned table exists so benches can measure the gap and the
/// equivalence suites can assert it is exactly zero bits.
#[derive(Clone, Copy, Debug)]
pub struct KernelSet {
    /// Dot product (eight-lane fixed combine order).
    pub dot: fn(&[f64], &[f64]) -> f64,
    /// Sum reduction (same combine order as `dot`).
    pub sum: fn(&[f64]) -> f64,
    /// `y += alpha · x` (slot-independent).
    pub axpy: fn(f64, &[f64], &mut [f64]),
    /// Row-major matrix–vector product (one `dot` per row).
    pub gemv: fn(&[f64], usize, &[f64], &mut [f64]),
    /// Elementwise product (slot-independent).
    pub mul_into: fn(&[f64], &[f64], &mut [f64]),
    /// Elementwise quotient (slot-independent).
    pub div_into: fn(&[f64], &[f64], &mut [f64]),
    /// In-place scalar multiply (slot-independent).
    pub scale_into: fn(f64, &mut [f64]),
}

/// The runtime-dispatching kernel table: AVX2 when the `simd` feature
/// is compiled in and the CPU reports it, fused-scalar otherwise.
pub const DISPATCH_KERNELS: KernelSet = KernelSet {
    dot,
    sum,
    axpy,
    gemv,
    mul_into,
    div_into,
    scale_into,
};

/// The kernel table pinned to the fused-scalar references — the
/// bitwise baseline arm for `bench_kernels` and the simd equivalence
/// suites.
pub const FUSED_KERNELS: KernelSet = KernelSet {
    dot: dot_fused,
    sum: sum_fused,
    axpy: axpy_fused,
    gemv: gemv_fused,
    mul_into: mul_into_fused,
    div_into: div_into_fused,
    scale_into: scale_into_fused,
};

/// [`gemv`] pinned to the fused-scalar kernel: one [`dot_fused`] per
/// row. The universal fallback and the bitwise reference for
/// `simd::gemv_avx2`.
#[inline]
pub fn gemv_fused(data: &[f64], n_cols: usize, w: &[f64], out: &mut [f64]) {
    debug_assert_eq!(data.len(), n_cols * out.len());
    debug_assert_eq!(w.len(), n_cols);
    if n_cols == 0 {
        out.fill(0.0);
        return;
    }
    for (o, row) in out.iter_mut().zip(data.chunks_exact(n_cols)) {
        *o = dot_fused(row, w);
    }
}

/// Fused dot product: eight independent accumulator lanes over the
/// aligned body, a scalar pass over the tail, lanes combined pairwise
/// in the fixed order `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) + tail`.
/// The universal fallback and the bitwise reference for
/// `simd::dot_avx2`.
#[inline]
pub fn dot_fused(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % 8;
    let mut s = [0.0f64; 8];
    for (ca, cb) in a[..split].chunks_exact(8).zip(b[..split].chunks_exact(8)) {
        // Fixed-size views let the backend pack the eight independent
        // lanes into vector ops; per-lane arithmetic (and therefore the
        // result bits) is unchanged.
        // fb-lint: allow(P1): chunks_exact(8) yields exactly 8-element slices
        let ca: &[f64; 8] = ca.try_into().expect("chunks_exact(8)");
        // fb-lint: allow(P1): chunks_exact(8) yields exactly 8-element slices
        let cb: &[f64; 8] = cb.try_into().expect("chunks_exact(8)");
        for k in 0..8 {
            s[k] += ca[k] * cb[k];
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        tail += x * y;
    }
    let [s0, s1, s2, s3, s4, s5, s6, s7] = s;
    (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + tail
}

/// Fused sum: eight independent accumulator lanes over the aligned
/// body, a scalar pass over the tail, lanes combined pairwise in the
/// fixed order `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) + tail`. The
/// universal fallback and the bitwise reference for `simd::sum_avx2`.
#[inline]
pub fn sum_fused(a: &[f64]) -> f64 {
    let split = a.len() - a.len() % 8;
    let mut s = [0.0f64; 8];
    for chunk in a[..split].chunks_exact(8) {
        // fb-lint: allow(P1): chunks_exact(8) yields exactly 8-element slices
        let chunk: &[f64; 8] = chunk.try_into().expect("chunks_exact(8)");
        for k in 0..8 {
            s[k] += chunk[k];
        }
    }
    let mut tail = 0.0;
    for x in &a[split..] {
        tail += x;
    }
    let [s0, s1, s2, s3, s4, s5, s6, s7] = s;
    (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + tail
}

/// Scalar reference dot product (one accumulator, strict left-to-right
/// summation). The baseline for `bench_kernels` and tolerance
/// cross-checks; hot paths use the dispatching [`dot`].
#[inline]
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Fused `y += alpha · x`, unrolled eight-wide. Each output slot is an
/// independent accumulator, so the result is bitwise-identical to the
/// naive per-element loop. The universal fallback and the bitwise
/// reference for `simd::axpy_avx2`.
#[inline]
pub fn axpy_fused(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let split = x.len() - x.len() % 8;
    for (cx, cy) in x[..split]
        .chunks_exact(8)
        .zip(y[..split].chunks_exact_mut(8))
    {
        // fb-lint: allow(P1): chunks_exact(8) yields exactly 8-element slices
        let cx: &[f64; 8] = cx.try_into().expect("chunks_exact(8)");
        // fb-lint: allow(P1): chunks_exact(8) yields exactly 8-element slices
        let cy: &mut [f64; 8] = cy.try_into().expect("chunks_exact(8)");
        for k in 0..8 {
            cy[k] += alpha * cx[k];
        }
    }
    for (vx, vy) in x[split..].iter().zip(&mut y[split..]) {
        *vy += alpha * vx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference sum (one accumulator, strict left-to-right). The
    /// baseline [`sum`] is tolerance-checked against.
    fn sum_scalar(a: &[f64]) -> f64 {
        let mut acc = 0.0;
        for x in a {
            acc += x;
        }
        acc
    }

    #[test]
    fn fused_dot_matches_scalar_within_rounding() {
        for len in [0, 1, 3, 4, 7, 8, 11, 64, 129] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 1.3).cos()).collect();
            let f = dot(&a, &b);
            let s = dot_scalar(&a, &b);
            assert!(
                (f - s).abs() < 1e-12 * (1.0 + s.abs()),
                "len {len}: {f} vs {s}"
            );
        }
    }

    #[test]
    fn fused_sum_matches_scalar_within_rounding_and_is_deterministic() {
        for len in [0, 1, 3, 7, 8, 9, 16, 64, 129] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
            let f = sum(&a);
            let s = sum_scalar(&a);
            assert!(
                (f - s).abs() < 1e-9 * (1.0 + s.abs()),
                "len {len}: {f} vs {s}"
            );
            assert_eq!(sum(&a).to_bits(), f.to_bits(), "len {len} replays bitwise");
        }
    }

    #[test]
    fn dispatch_matches_fused_bitwise() {
        // Whatever path `dot`/`sum`/`axpy` dispatch to must be
        // bit-identical to the fused reference (the deeper property
        // suite with NaN/∞/subnormal inputs lives in tests/prop_simd.rs).
        for len in [0, 1, 7, 8, 9, 31, 32, 100, 257] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.61).sin() * 3.0).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 0.23).cos() * 2.0).collect();
            assert_eq!(dot(&a, &b).to_bits(), dot_fused(&a, &b).to_bits());
            assert_eq!(sum(&a).to_bits(), sum_fused(&a).to_bits());
            let mut y1 = b.clone();
            let mut y2 = b.clone();
            axpy(1.3, &a, &mut y1);
            axpy_fused(1.3, &a, &mut y2);
            for (p, q) in y1.iter().zip(&y2) {
                assert_eq!(p.to_bits(), q.to_bits(), "axpy len {len}");
            }
        }
    }

    #[test]
    fn elementwise_dispatch_matches_fused_bitwise() {
        // The elementwise kernels are slot-independent pure IEEE ops;
        // dispatch must agree with the pinned references bit for bit on
        // every length class (the adversarial-input suite lives in
        // tests/prop_simd.rs).
        for len in [0usize, 1, 3, 4, 7, 8, 9, 31, 32, 100, 257] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.61).sin() * 3.0).collect();
            let b: Vec<f64> = (0..len)
                .map(|i| (i as f64 * 0.23).cos() * 2.0 + 0.5)
                .collect();
            let mut o1 = vec![0.0; len];
            let mut o2 = vec![0.0; len];
            mul_into(&a, &b, &mut o1);
            mul_into_fused(&a, &b, &mut o2);
            for (p, q) in o1.iter().zip(&o2) {
                assert_eq!(p.to_bits(), q.to_bits(), "mul len {len}");
            }
            div_into(&a, &b, &mut o1);
            div_into_fused(&a, &b, &mut o2);
            for (p, q) in o1.iter().zip(&o2) {
                assert_eq!(p.to_bits(), q.to_bits(), "div len {len}");
            }
            let mut s1 = a.clone();
            let mut s2 = a.clone();
            scale_into(1.37, &mut s1);
            scale_into_fused(1.37, &mut s2);
            for (p, q) in s1.iter().zip(&s2) {
                assert_eq!(p.to_bits(), q.to_bits(), "scale len {len}");
            }
        }
    }

    #[test]
    fn kernel_sets_agree_bitwise() {
        // The two tables must be interchangeable: same bits from every
        // entry point on the same input.
        let a: Vec<f64> = (0..97).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
        let b: Vec<f64> = (0..97).map(|i| (i as f64 * 1.1).cos() + 2.0).collect();
        assert_eq!(
            (DISPATCH_KERNELS.dot)(&a, &b).to_bits(),
            (FUSED_KERNELS.dot)(&a, &b).to_bits()
        );
        assert_eq!(
            (DISPATCH_KERNELS.sum)(&a).to_bits(),
            (FUSED_KERNELS.sum)(&a).to_bits()
        );
        let mut o1 = vec![0.0; 97];
        let mut o2 = vec![0.0; 97];
        (DISPATCH_KERNELS.div_into)(&a, &b, &mut o1);
        (FUSED_KERNELS.div_into)(&a, &b, &mut o2);
        for (p, q) in o1.iter().zip(&o2) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn dot_is_deterministic_per_call_shape() {
        let a: Vec<f64> = (0..101).map(|i| (i as f64).sqrt()).collect();
        let b: Vec<f64> = (0..101).map(|i| 1.0 / (1.0 + i as f64)).collect();
        assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn axpy_is_bitwise_equal_to_naive_loop() {
        let x: Vec<f64> = (0..37).map(|i| (i as f64 * 0.11).tan()).collect();
        let mut fused = vec![0.25; 37];
        let mut naive = fused.clone();
        axpy(1.75, &x, &mut fused);
        for (n, v) in naive.iter_mut().zip(&x) {
            *n += 1.75 * v;
        }
        for (a, b) in fused.iter().zip(&naive) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

//! Entropic optimal transport (Sinkhorn iterations) for discrete
//! distributions with an explicit cost matrix.
//!
//! Section IV.F's Wasserstein machinery beyond one dimension: when the
//! support is categorical (or multi-dimensional), the exact OT problem is
//! a linear program; the entropically regularized version is solved by
//! Sinkhorn matrix scaling, converging to the true cost as ε → 0. Also
//! provides the exact 1-D-cost special case for cross-checking.
//!
//! The solver runs on the numeric kernel layer: each scaling half-pass
//! is one [`KernelSet::gemv`] over a block of rows of the Gibbs kernel —
//! the `Kᵀu` pass reads a cached packed transpose built once per solve,
//! so it streams sequentially instead of striding down columns, and
//! under the `simd` feature the gemv advances four rows in lockstep.
//! The scaling division runs through the elementwise [`KernelSet::
//! div_into`] kernel (pure IEEE divides; the [`KV_EPSILON_FLOOR`] guard
//! is applied to the output afterwards), and plan materialization runs
//! on `mul_into`/`scale_into`/`dot`/`sum`/`axpy`. The scalar
//! transcendental — the `exp` building the Gibbs kernel — stays scalar,
//! untouched by dispatch. Row updates within a half-pass are
//! independent and every float op goes through the bitwise-pinned
//! kernel table, which makes the parallel path ([`par_sinkhorn`])
//! trivially bitwise-identical to the serial one *and* the dispatched
//! solve bitwise-identical to [`par_sinkhorn_pinned_fused`]: the same
//! kernel over the same row produces the same bits no matter which
//! worker — or instruction set — computes it, and `max_delta` is an
//! order-insensitive max.

use crate::distribution::Discrete;
use crate::kernel::{KernelSet, DISPATCH_KERNELS, FUSED_KERNELS};
use fairbridge_obs::Telemetry;
use fairbridge_tabular::par::{ordered_parallel_map, size_aware_workers};

/// Convergence tolerance on the scaling-vector max-delta: once an
/// iteration moves no coordinate of `u` or `v` by more than this, the
/// solve exits before any further (useless) half-passes and before plan
/// materialization.
pub const CONVERGENCE_TOL: f64 = 1e-12;

/// Floor below which a row/column mass `(Kv)ᵢ` or `(Kᵀu)ⱼ` is treated as
/// an **unreachable support point** rather than divided by. The Gibbs
/// kernel `exp(-c/ε)` underflows to subnormals (and then to zero) for
/// costs beyond ~`708·ε`; dividing by such a value would manufacture
/// `inf`/`NaN` scalings out of pure rounding noise. Points whose mass
/// falls below the floor get a zero scaling — their unmet marginal shows
/// up honestly in `marginal_error` instead of poisoning the plan.
pub const KV_EPSILON_FLOOR: f64 = 1e-300;

/// Rows per parallel half-pass chunk. Fixed (independent of the worker
/// count); since each row update is already independent, the chunk size
/// only balances fan-out overhead, never results.
const ROW_CHUNK: usize = 64;

/// Work-unit floor per half-pass worker, where one unit is one kernel
/// cell (`n × row_len` fused-dot elements per half-pass):
/// `sinkhorn_par8` (1024 × 1024 ≈ 1M units per half-pass) lost ~8% to
/// the fused serial solve because each half-pass re-spawns the pool, so
/// the fan-out must amortize a spawn per iteration, not per solve. 2M
/// units/worker keeps the benchmark size inline while a 4096-point
/// support (16M units) still fans out.
pub const HALF_PASS_MIN_UNITS_PER_WORKER: usize = 1 << 21;

/// The result of a Sinkhorn solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkhornResult {
    /// The transport cost ⟨P, C⟩ of the returned plan.
    pub cost: f64,
    /// The transport plan, row-major `p.k() × q.k()`.
    pub plan: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Final marginal violation (L1 of row/col sums vs targets).
    pub marginal_error: f64,
    /// Whether the scaling iteration reached [`CONVERGENCE_TOL`] before
    /// exhausting `max_iters`.
    pub converged: bool,
}

/// Solves entropic OT between discrete distributions `p` (rows) and `q`
/// (columns) under `cost[i*q.k()+j]`, with regularization `epsilon`.
/// Serial convenience wrapper over [`par_sinkhorn`] with one worker.
pub fn sinkhorn(
    p: &Discrete,
    q: &Discrete,
    cost: &[f64],
    epsilon: f64,
    max_iters: usize,
) -> Result<SinkhornResult, String> {
    par_sinkhorn(p, q, cost, epsilon, max_iters, 1)
}

/// [`sinkhorn`] with the scaling half-passes fanned out across up to
/// `workers` threads. Bitwise-identical to the serial solve for any
/// worker count: each row's update is an independent fused dot over the
/// same kernel row.
pub fn par_sinkhorn(
    p: &Discrete,
    q: &Discrete,
    cost: &[f64],
    epsilon: f64,
    max_iters: usize,
    workers: usize,
) -> Result<SinkhornResult, String> {
    par_sinkhorn_observed(p, q, cost, epsilon, max_iters, workers, &Telemetry::off())
}

/// [`par_sinkhorn`] recording a `sinkhorn.solve` span and the
/// `sinkhorn.iterations` counter.
pub fn par_sinkhorn_observed(
    p: &Discrete,
    q: &Discrete,
    cost: &[f64],
    epsilon: f64,
    max_iters: usize,
    workers: usize,
    telemetry: &Telemetry,
) -> Result<SinkhornResult, String> {
    solve(
        p,
        q,
        cost,
        epsilon,
        max_iters,
        workers,
        telemetry,
        DISPATCH_KERNELS,
    )
}

/// [`par_sinkhorn`] pinned to the fused-scalar kernel references,
/// bypassing SIMD dispatch entirely. The bitwise reference arm: the
/// dispatched solve must reproduce this result bit for bit (asserted by
/// `tests/prop_simd.rs` at 1/2/8 workers) and `bench_kernels` measures
/// the dispatched solve against it as `sinkhorn_simd` vs
/// `sinkhorn_fused`.
pub fn par_sinkhorn_pinned_fused(
    p: &Discrete,
    q: &Discrete,
    cost: &[f64],
    epsilon: f64,
    max_iters: usize,
    workers: usize,
) -> Result<SinkhornResult, String> {
    solve(
        p,
        q,
        cost,
        epsilon,
        max_iters,
        workers,
        &Telemetry::off(),
        FUSED_KERNELS,
    )
}

#[allow(clippy::too_many_arguments)]
fn solve(
    p: &Discrete,
    q: &Discrete,
    cost: &[f64],
    epsilon: f64,
    max_iters: usize,
    workers: usize,
    telemetry: &Telemetry,
    ops: KernelSet,
) -> Result<SinkhornResult, String> {
    let (n, m) = (p.k(), q.k());
    if cost.len() != n * m {
        return Err(format!("cost matrix must be {n}x{m}"));
    }
    if epsilon <= 0.0 {
        return Err("epsilon must be positive".to_owned());
    }
    if max_iters == 0 {
        return Err("max_iters must be positive".to_owned());
    }
    let _span = telemetry.span("sinkhorn.solve");

    // Gibbs kernel K = exp(-C/eps) — the one transcendental, kept
    // scalar on every path — plus its packed transpose so the `Kᵀu`
    // half-pass streams rows sequentially instead of striding down
    // columns of `kernel` with stride `m`.
    let kernel: Vec<f64> = cost.iter().map(|&c| (-c / epsilon).exp()).collect();
    // Tiled transpose: TILE×TILE blocks keep both the source rows and
    // the destination rows cache-resident while a block is in flight,
    // instead of paying one cold line per element on the strided side.
    // Pure data movement — bit-for-bit the same packed transpose.
    const TILE: usize = 32;
    let mut kernel_t = vec![0.0; n * m];
    for i0 in (0..n).step_by(TILE) {
        for j0 in (0..m).step_by(TILE) {
            for i in i0..(i0 + TILE).min(n) {
                for j in j0..(j0 + TILE).min(m) {
                    kernel_t[j * n + i] = kernel[i * m + j];
                }
            }
        }
    }

    let mut u = vec![1.0; n];
    let mut v = vec![1.0; m];
    // Hoisted half-pass scratch: row masses (K·other) and the raw
    // elementwise quotients, sized for the larger side.
    let mut mass = vec![0.0; n.max(m)];
    let mut quot = vec![0.0; n.max(m)];
    let mut iterations = 0;
    let mut converged = false;
    for it in 0..max_iters {
        iterations = it + 1;
        // u = p ./ (K v)
        let du = half_pass(
            &kernel,
            m,
            &v,
            p.probs(),
            &mut u,
            &mut mass,
            &mut quot,
            workers,
            HALF_PASS_MIN_UNITS_PER_WORKER,
            ops,
        );
        // v = q ./ (Kᵀ u)
        let dv = half_pass(
            &kernel_t,
            n,
            &u,
            q.probs(),
            &mut v,
            &mut mass,
            &mut quot,
            workers,
            HALF_PASS_MIN_UNITS_PER_WORKER,
            ops,
        );
        if du.max(dv) < CONVERGENCE_TOL {
            converged = true;
            break;
        }
    }
    telemetry
        .counter("sinkhorn.iterations")
        .add(iterations as u64);

    // Plan, cost and marginals — materialized once, after the early
    // exit, one row at a time on the elementwise kernels: the plan row
    // is (K row ⊙ v) · uᵢ, its transport cost one dot against the cost
    // row, its row marginal one sum, and the column marginals
    // accumulate via axpy — per-slot left-to-right in row order, the
    // same addition order as a scalar column walk.
    let mut plan = vec![0.0; n * m];
    let mut total_cost = 0.0;
    let mut col_sums = vec![0.0; m];
    let mut err = 0.0;
    for i in 0..n {
        let plan_row = &mut plan[i * m..(i + 1) * m];
        (ops.mul_into)(&kernel[i * m..(i + 1) * m], &v, plan_row);
        (ops.scale_into)(u[i], plan_row);
        total_cost += (ops.dot)(plan_row, &cost[i * m..(i + 1) * m]);
        err += ((ops.sum)(plan_row) - p.p(i)).abs();
        (ops.axpy)(1.0, plan_row, &mut col_sums);
    }
    for (j, &col) in col_sums.iter().enumerate() {
        err += (col - q.p(j)).abs();
    }
    Ok(SinkhornResult {
        cost: total_cost,
        plan,
        iterations,
        marginal_error: err,
        converged,
    })
}

/// One scaling half-pass: `scale[i] = target[i] / (kernel.row(i) ·
/// other)` for every row, returning the max coordinate delta. Rows
/// whose mass falls below [`KV_EPSILON_FLOOR`] are unreachable and
/// scale to zero.
///
/// The row masses for a block of rows are one `gemv` over that block
/// (under AVX2 dispatch, four rows advance in lockstep — each row's own
/// arithmetic and bits unchanged), and the scaling division is one
/// elementwise `div_into` whose output is then floored; the quotient
/// computed for a floored row is discarded unobserved, so the guard
/// costs no bitwise difference against a branch-per-row scalar loop.
/// Any partition of rows across workers produces identical bits;
/// `workers <= 1` runs on the caller's hoisted scratch with no
/// allocation.
#[allow(clippy::too_many_arguments)]
fn half_pass(
    kernel: &[f64],
    row_len: usize,
    other: &[f64],
    target: &[f64],
    scale: &mut [f64],
    mass: &mut [f64],
    quot: &mut [f64],
    workers: usize,
    min_units: usize,
    ops: KernelSet,
) -> f64 {
    let n = scale.len();
    let workers = size_aware_workers(
        workers,
        n.div_ceil(ROW_CHUNK),
        n.saturating_mul(row_len),
        min_units,
    );
    if workers <= 1 || n <= ROW_CHUNK {
        let mass = &mut mass[..n];
        let quot = &mut quot[..n];
        (ops.gemv)(kernel, row_len, other, mass);
        (ops.div_into)(target, mass, quot);
        let mut max_delta = 0.0f64;
        for ((s, &m), &q) in scale.iter_mut().zip(mass.iter()).zip(quot.iter()) {
            let new = if m > KV_EPSILON_FLOOR { q } else { 0.0 };
            max_delta = max_delta.max((new - *s).abs());
            *s = new;
        }
        return max_delta;
    }
    let n_chunks = n.div_ceil(ROW_CHUNK);
    let scale_ref: &[f64] = scale;
    let chunks = ordered_parallel_map(n_chunks, workers, |c| {
        let start = c * ROW_CHUNK;
        let end = (start + ROW_CHUNK).min(n);
        let len = end - start;
        let mut mass_c = vec![0.0; len];
        let mut out = vec![0.0; len];
        (ops.gemv)(
            &kernel[start * row_len..end * row_len],
            row_len,
            other,
            &mut mass_c,
        );
        (ops.div_into)(&target[start..end], &mass_c, &mut out);
        let mut max_delta = 0.0f64;
        for (k, o) in out.iter_mut().enumerate() {
            let new = if mass_c[k] > KV_EPSILON_FLOOR {
                *o
            } else {
                0.0
            };
            max_delta = max_delta.max((new - scale_ref[start + k]).abs());
            *o = new;
        }
        (out, max_delta)
    });
    let mut max_delta = 0.0f64;
    let mut i = 0;
    for (vals, delta) in chunks {
        max_delta = max_delta.max(delta);
        scale[i..i + vals.len()].copy_from_slice(&vals);
        i += vals.len();
    }
    max_delta
}

/// The |i − j| cost matrix on ordered categorical support — Sinkhorn with
/// this cost approximates [`crate::distance::wasserstein_discrete`].
pub fn ordinal_cost(n: usize, m: usize) -> Vec<f64> {
    let mut c = Vec::with_capacity(n * m);
    for i in 0..n {
        for j in 0..m {
            c.push((i as f64 - j as f64).abs());
        }
    }
    c
}

/// Exact discrete OT cost under the ordinal |i−j| cost via the CDF
/// formula (valid because the cost is a metric induced by 1-D order).
pub fn exact_ordinal_ot(p: &Discrete, q: &Discrete) -> f64 {
    crate::distance::wasserstein_discrete(p, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(probs: &[f64]) -> Discrete {
        Discrete::new(probs.to_vec()).unwrap()
    }

    #[test]
    fn sinkhorn_approaches_exact_ot_as_epsilon_shrinks() {
        let p = d(&[0.7, 0.2, 0.1]);
        let q = d(&[0.1, 0.3, 0.6]);
        let cost = ordinal_cost(3, 3);
        let exact = exact_ordinal_ot(&p, &q);
        let loose = sinkhorn(&p, &q, &cost, 1.0, 2000).unwrap();
        let tight = sinkhorn(&p, &q, &cost, 0.01, 5000).unwrap();
        assert!(
            (tight.cost - exact).abs() < (loose.cost - exact).abs() + 1e-12,
            "tight {} loose {} exact {exact}",
            tight.cost,
            loose.cost
        );
        assert!(
            (tight.cost - exact).abs() < 0.02,
            "tight {} vs exact {exact}",
            tight.cost
        );
    }

    #[test]
    fn plan_respects_marginals() {
        let p = d(&[0.5, 0.5]);
        let q = d(&[0.25, 0.75]);
        let result = sinkhorn(&p, &q, &ordinal_cost(2, 2), 0.05, 5000).unwrap();
        assert!(
            result.marginal_error < 1e-6,
            "err {}",
            result.marginal_error
        );
        // plan entries non-negative, sum to 1
        let total: f64 = result.plan.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(result.plan.iter().all(|&x| x >= 0.0));
        assert!(result.converged);
        assert!(result.iterations < 5000);
    }

    #[test]
    fn identical_distributions_zero_cost() {
        let p = d(&[0.3, 0.4, 0.3]);
        let result = sinkhorn(&p, &p, &ordinal_cost(3, 3), 0.01, 5000).unwrap();
        assert!(result.cost < 0.02, "cost {}", result.cost);
    }

    #[test]
    fn rectangular_supports_work() {
        let p = d(&[0.5, 0.5]);
        let q = d(&[0.2, 0.3, 0.5]);
        let result = sinkhorn(&p, &q, &ordinal_cost(2, 3), 0.05, 5000).unwrap();
        assert!(result.marginal_error < 1e-6);
        assert!(result.cost > 0.0);
    }

    #[test]
    fn entropic_cost_decreases_with_epsilon() {
        // Smaller eps → plan closer to the optimal (cheaper) one.
        let p = d(&[0.9, 0.1]);
        let q = d(&[0.1, 0.9]);
        let cost = ordinal_cost(2, 2);
        let c_big = sinkhorn(&p, &q, &cost, 2.0, 3000).unwrap().cost;
        let c_small = sinkhorn(&p, &q, &cost, 0.05, 3000).unwrap().cost;
        assert!(c_small <= c_big + 1e-9, "{c_small} vs {c_big}");
    }

    #[test]
    fn validates_inputs() {
        let p = d(&[0.5, 0.5]);
        assert!(sinkhorn(&p, &p, &[0.0; 3], 0.1, 100).is_err());
        assert!(sinkhorn(&p, &p, &ordinal_cost(2, 2), 0.0, 100).is_err());
        assert!(sinkhorn(&p, &p, &ordinal_cost(2, 2), 0.1, 0).is_err());
    }

    #[test]
    fn unreachable_support_point_stays_finite() {
        // Row 0's costs are so large that exp(-c/eps) underflows to 0:
        // support point 0 of p cannot reach any point of q. The epsilon
        // floor must keep every output finite and report the unmet mass
        // through marginal_error instead of emitting NaN/inf.
        let p = d(&[0.4, 0.6]);
        let q = d(&[0.5, 0.5]);
        let cost = vec![1e6, 1e6, 0.0, 1.0];
        let result = sinkhorn(&p, &q, &cost, 0.1, 500).unwrap();
        assert!(result.cost.is_finite());
        assert!(result.plan.iter().all(|x| x.is_finite()));
        // Row 0 of the plan is empty: its mass (0.4) is unmet on the row
        // side and missing on the column side, so the L1 error sees it
        // at least once.
        let row0: f64 = result.plan[..2].iter().sum();
        assert_eq!(row0, 0.0);
        assert!(result.marginal_error >= 0.4);
    }

    #[test]
    fn par_sinkhorn_is_bitwise_identical_across_worker_counts() {
        // 130 support points → three ROW_CHUNK chunks in the fan-out.
        let pk = 130;
        let raw: Vec<f64> = (0..pk).map(|i| 1.0 + ((i * 7) % 13) as f64).collect();
        let total: f64 = raw.iter().sum();
        let p = d(&raw.iter().map(|x| x / total).collect::<Vec<_>>());
        let qraw: Vec<f64> = (0..pk).map(|i| 1.0 + ((i * 11) % 17) as f64).collect();
        let qtotal: f64 = qraw.iter().sum();
        let q = d(&qraw.iter().map(|x| x / qtotal).collect::<Vec<_>>());
        let cost = ordinal_cost(pk, pk);
        let serial = par_sinkhorn(&p, &q, &cost, 0.5, 200, 1).unwrap();
        for workers in [2, 8] {
            let par = par_sinkhorn(&p, &q, &cost, 0.5, 200, workers).unwrap();
            assert_eq!(serial.iterations, par.iterations, "{workers} workers");
            assert_eq!(
                serial.cost.to_bits(),
                par.cost.to_bits(),
                "{workers} workers"
            );
            for (a, b) in serial.plan.iter().zip(&par.plan) {
                assert_eq!(a.to_bits(), b.to_bits(), "{workers} workers");
            }
        }
    }

    #[test]
    fn half_pass_fanout_is_bitwise_identical_to_serial() {
        // Forces the parallel chunked path (work-unit floor of 1, so
        // size_aware_workers cannot clamp it away) and pins it bitwise
        // against the serial hoisted-scratch path, for both kernel
        // tables. 150 rows → three ROW_CHUNK chunks, ragged tail.
        let (n, m) = (150, 37);
        let kernel: Vec<f64> = (0..n * m)
            .map(|i| (-(((i * 13) % 101) as f64) * 0.07).exp())
            .collect();
        let other: Vec<f64> = (0..m).map(|j| 0.2 + ((j * 7) % 11) as f64 * 0.1).collect();
        let target: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        for ops in [DISPATCH_KERNELS, FUSED_KERNELS] {
            let mut mass = vec![0.0; n];
            let mut quot = vec![0.0; n];
            let mut serial = vec![1.0; n];
            let d1 = half_pass(
                &kernel,
                m,
                &other,
                &target,
                &mut serial,
                &mut mass,
                &mut quot,
                1,
                1,
                ops,
            );
            for workers in [2, 8] {
                let mut par = vec![1.0; n];
                let dw = half_pass(
                    &kernel, m, &other, &target, &mut par, &mut mass, &mut quot, workers, 1, ops,
                );
                assert_eq!(d1.to_bits(), dw.to_bits(), "{workers} workers delta");
                for (a, b) in serial.iter().zip(&par) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{workers} workers");
                }
            }
        }
    }

    #[test]
    fn observed_solve_counts_iterations() {
        let telemetry = Telemetry::new(std::sync::Arc::new(
            fairbridge_obs::RingSink::with_capacity(16),
        ));
        let p = d(&[0.5, 0.5]);
        let q = d(&[0.25, 0.75]);
        let result =
            par_sinkhorn_observed(&p, &q, &ordinal_cost(2, 2), 0.05, 5000, 1, &telemetry).unwrap();
        assert_eq!(
            telemetry.counter("sinkhorn.iterations").get(),
            result.iterations as u64
        );
    }
}

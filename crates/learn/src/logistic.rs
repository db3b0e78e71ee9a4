//! L2-regularized logistic regression trained by full-batch gradient
//! descent with per-sample weights.
//!
//! Sample weights make this the natural companion of reweighing
//! mitigation (Kamiran & Calders, cited as \[8\] in the paper), and the
//! exposed coefficient vector is what the manipulation experiments of
//! Section IV.E perturb.
//!
//! Each epoch runs entirely on the numeric kernel layer through a
//! [`KernelSet`] table: one gemv produces the linear scores, the
//! sigmoid stays scalar per element, the residual is weighted by one
//! elementwise `mul_into`, and the gradient is accumulated with the
//! table's `axpy` over fixed-shape row chunks of [`GRAD_CHUNK`] rows
//! (a gemv over a packed transpose was tried and measured *slower* at
//! trainer shapes: the per-fit transpose costs more than the gradient
//! itself on 10⁵-element matrices, and row-axpy has no reduction
//! dependency chain to hide). Chunk partials are reduced **in chunk
//! order** and the chunk shape never depends on the worker count, so a
//! fit with `workers: 8` is bitwise-identical to a serial fit, and a
//! dispatched (SIMD) fit is bitwise-identical to
//! [`LogisticTrainer::fit_weighted_pinned_fused`]. The serial/parallel
//! decision uses [`GRAD_MIN_UNITS_PER_WORKER`].

use crate::matrix::{dot, sum, KernelSet, Matrix, DISPATCH_KERNELS, FUSED_KERNELS};
use crate::model::Scorer;
use fairbridge_obs::Telemetry;
use fairbridge_tabular::par::{ordered_parallel_map, size_aware_workers};

/// Rows per gradient chunk. Fixed (never derived from the worker count)
/// so the chunk reduction — and therefore the fitted model — is
/// identical for any parallelism degree.
pub const GRAD_CHUNK: usize = 1024;

/// Work-unit floor per gradient worker, where one unit is one
/// multiply-add in the chunked gradient (`n × (d + 1)` per epoch): the
/// fan-out re-spawns every epoch, so a spawn must be amortized per
/// iteration; below the floor the epoch runs on the recycled serial
/// partial buffer. Bitwise-identical either way.
pub const GRAD_MIN_UNITS_PER_WORKER: usize = 1 << 21;

/// Numerically stable logistic sigmoid.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// A fitted logistic regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    /// Feature coefficients.
    pub weights: Vec<f64>,
    /// Intercept.
    pub bias: f64,
}

impl LogisticModel {
    /// Linear score w·x + b.
    pub fn linear(&self, features: &[f64]) -> f64 {
        dot(&self.weights, features) + self.bias
    }
}

impl Scorer for LogisticModel {
    fn score(&self, features: &[f64]) -> f64 {
        sigmoid(self.linear(features))
    }
}

/// Gradient-descent trainer configuration.
#[derive(Debug, Clone)]
pub struct LogisticTrainer {
    /// Learning rate.
    pub learning_rate: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// L2 regularization strength (applied to weights, not bias).
    pub l2: f64,
    /// Stop early when the gradient max-norm falls below this.
    pub tolerance: f64,
    /// Worker threads for the chunked gradient gemv; `<= 1` runs
    /// inline. Any value produces bitwise-identical models.
    pub workers: usize,
}

impl Default for LogisticTrainer {
    fn default() -> Self {
        LogisticTrainer {
            learning_rate: 0.5,
            epochs: 500,
            l2: 1e-4,
            tolerance: 1e-7,
            workers: 1,
        }
    }
}

/// Accumulates the weighted gradient of one row chunk into `partial`
/// (`d` weight slots plus the bias slot at index `d`) through the
/// kernel table's `axpy`. `partial` must arrive zeroed; per-coordinate
/// accumulation keeps each slot an independent left-to-right sum, so
/// the result depends only on the chunk bounds, not on who computes it.
fn chunk_gradient(
    x: &Matrix,
    err: &[f64],
    start: usize,
    end: usize,
    partial: &mut [f64],
    ops: KernelSet,
) {
    let d = x.n_cols();
    for (i, &e) in err.iter().enumerate().take(end).skip(start) {
        (ops.axpy)(e, x.row(i), &mut partial[..d]);
        partial[d] += e;
    }
}

impl LogisticTrainer {
    /// Fits on a design matrix with uniform sample weights.
    pub fn fit(&self, x: &Matrix, y: &[bool]) -> LogisticModel {
        self.fit_weighted(x, y, &vec![1.0; y.len()])
    }

    /// Fits with per-sample weights (all weights must be ≥ 0).
    ///
    /// Minimizes the weighted mean log-loss plus (λ/2)·‖w‖²:
    /// L = (Σᵢ wᵢ ℓ(yᵢ, σ(w·xᵢ+b))) / Σᵢ wᵢ + (λ/2)‖w‖².
    pub fn fit_weighted(&self, x: &Matrix, y: &[bool], sample_weights: &[f64]) -> LogisticModel {
        self.fit_weighted_observed(x, y, sample_weights, &Telemetry::off())
    }

    /// [`LogisticTrainer::fit_weighted`] recording kernel telemetry: a
    /// `logistic.fit` span plus the `kernel.gemv_calls` counter (one
    /// gemv — the scores pass — per epoch actually run).
    pub fn fit_weighted_observed(
        &self,
        x: &Matrix,
        y: &[bool],
        sample_weights: &[f64],
        telemetry: &Telemetry,
    ) -> LogisticModel {
        self.fit_core(
            x,
            y,
            sample_weights,
            telemetry,
            DISPATCH_KERNELS,
            GRAD_MIN_UNITS_PER_WORKER,
        )
    }

    /// [`LogisticTrainer::fit_weighted`] pinned to the fused-scalar
    /// kernel references, bypassing SIMD dispatch entirely. The bitwise
    /// reference arm: a dispatched fit must reproduce this model bit
    /// for bit (the `bench_kernels` group measures the dispatched epoch
    /// against it as `logistic_epoch_simd` vs `logistic_epoch_fused`).
    pub fn fit_weighted_pinned_fused(
        &self,
        x: &Matrix,
        y: &[bool],
        sample_weights: &[f64],
    ) -> LogisticModel {
        self.fit_core(
            x,
            y,
            sample_weights,
            &Telemetry::off(),
            FUSED_KERNELS,
            GRAD_MIN_UNITS_PER_WORKER,
        )
    }

    /// The one fit loop, parameterized over the kernel table and the
    /// dispatch floor (threaded explicitly so tests can force the fan-out
    /// path).
    fn fit_core(
        &self,
        x: &Matrix,
        y: &[bool],
        sample_weights: &[f64],
        telemetry: &Telemetry,
        ops: KernelSet,
        min_units: usize,
    ) -> LogisticModel {
        assert_eq!(x.n_rows(), y.len(), "fit: row/label count mismatch");
        assert_eq!(y.len(), sample_weights.len(), "fit: weight count mismatch");
        assert!(x.n_rows() > 0, "fit: empty training set");
        assert!(
            sample_weights.iter().all(|&w| w >= 0.0),
            "sample weights must be non-negative"
        );
        let wsum = (ops.sum)(sample_weights);
        assert!(wsum > 0.0, "sample weights must not all be zero");

        let _span = telemetry.span("logistic.fit");
        let gemv_calls = telemetry.counter("kernel.gemv_calls");

        let (n, d) = (x.n_rows(), x.n_cols());
        let n_chunks = n.div_ceil(GRAD_CHUNK);
        let grad_workers =
            size_aware_workers(self.workers, n_chunks, n.saturating_mul(d + 1), min_units);
        let mut weights = vec![0.0; d];
        let mut bias = 0.0;
        // Every per-epoch buffer is hoisted here: linear scores, raw
        // residuals, weighted residuals, the reduced gradient, and
        // (serially) one chunk partial recycled across chunks.
        let mut scores = vec![0.0; n];
        let mut resid = vec![0.0; n];
        let mut err = vec![0.0; n];
        let mut grad = vec![0.0; d + 1];
        let mut serial_partial = vec![0.0; d + 1];

        for _ in 0..self.epochs {
            (ops.gemv)(x.as_slice(), d, &weights, &mut scores);
            gemv_calls.incr();
            for i in 0..n {
                let p = sigmoid(scores[i] + bias);
                resid[i] = p - if y[i] { 1.0 } else { 0.0 };
            }
            (ops.mul_into)(&resid, sample_weights, &mut err);

            // Gradient: ∇w = Xᵀ·err accumulated row by row with the
            // table's axpy over fixed GRAD_CHUNK-row chunks; partials
            // reduce in chunk order, so the fan-out reproduces the
            // inline accumulation bit for bit.
            grad.iter_mut().for_each(|g| *g = 0.0);
            if grad_workers <= 1 || n_chunks <= 1 {
                for c in 0..n_chunks {
                    serial_partial.iter_mut().for_each(|g| *g = 0.0);
                    let start = c * GRAD_CHUNK;
                    chunk_gradient(
                        x,
                        &err,
                        start,
                        (start + GRAD_CHUNK).min(n),
                        &mut serial_partial,
                        ops,
                    );
                    for (g, p) in grad.iter_mut().zip(&serial_partial) {
                        *g += p;
                    }
                }
            } else {
                let err_ref: &[f64] = &err;
                let partials = ordered_parallel_map(n_chunks, grad_workers, |c| {
                    let mut partial = vec![0.0; d + 1];
                    let start = c * GRAD_CHUNK;
                    chunk_gradient(
                        x,
                        err_ref,
                        start,
                        (start + GRAD_CHUNK).min(n),
                        &mut partial,
                        ops,
                    );
                    partial
                });
                for partial in &partials {
                    for (g, p) in grad.iter_mut().zip(partial) {
                        *g += p;
                    }
                }
            }

            let mut max_grad = 0.0f64;
            for (w, g) in weights.iter_mut().zip(grad.iter()) {
                let g = g / wsum + self.l2 * *w;
                *w -= self.learning_rate * g;
                max_grad = max_grad.max(g.abs());
            }
            let gb = grad[d] / wsum;
            bias -= self.learning_rate * gb;
            max_grad = max_grad.max(gb.abs());
            if max_grad < self.tolerance {
                break;
            }
        }
        LogisticModel { weights, bias }
    }

    /// Weighted mean log-loss plus the L2 penalty, for diagnostics and
    /// gradient checking.
    pub fn loss(&self, model: &LogisticModel, x: &Matrix, y: &[bool], sw: &[f64]) -> f64 {
        let wsum = sum(sw);
        let mut loss = 0.0;
        for (i, row) in x.rows().enumerate() {
            let p = sigmoid(model.linear(row)).clamp(1e-12, 1.0 - 1e-12);
            let l = if y[i] { -p.ln() } else { -(1.0 - p).ln() };
            loss += sw[i] * l;
        }
        loss / wsum + 0.5 * self.l2 * dot(&model.weights, &model.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> (Matrix, Vec<bool>) {
        // y = x0 > 1.0, clearly separable
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 * 0.05, ((i * 7) % 11) as f64 * 0.01])
            .collect();
        let y: Vec<bool> = rows.iter().map(|r| r[0] > 1.0).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
        // no NaN at extremes
        assert!(sigmoid(-800.0).is_finite());
        assert!(sigmoid(800.0).is_finite());
    }

    #[test]
    fn fits_separable_data() {
        let (x, y) = separable();
        let model = LogisticTrainer::default().fit(&x, &y);
        let preds: Vec<bool> = x.rows().map(|r| model.score(r) >= 0.5).collect();
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc >= 0.95, "accuracy {acc}");
        assert!(model.weights[0] > 0.5, "x0 should dominate: {:?}", model);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // Analytic gradient at a fixed point vs central differences.
        let (x, y) = separable();
        let sw = vec![1.0; y.len()];
        let trainer = LogisticTrainer {
            l2: 0.01,
            ..LogisticTrainer::default()
        };
        let point = LogisticModel {
            weights: vec![0.3, -0.2],
            bias: 0.1,
        };
        // analytic gradient
        let wsum: f64 = sw.iter().sum();
        let mut grad = [0.0; 2];
        let mut grad_b = 0.0;
        for (i, row) in x.rows().enumerate() {
            let p = sigmoid(point.linear(row));
            let err = p - if y[i] { 1.0 } else { 0.0 };
            for (g, &xij) in grad.iter_mut().zip(row) {
                *g += err * xij;
            }
            grad_b += err;
        }
        for (g, w) in grad.iter_mut().zip(&point.weights) {
            *g = *g / wsum + trainer.l2 * w;
        }
        grad_b /= wsum;

        let eps = 1e-6;
        for (j, &gj) in grad.iter().enumerate() {
            let mut plus = point.clone();
            plus.weights[j] += eps;
            let mut minus = point.clone();
            minus.weights[j] -= eps;
            let fd = (trainer.loss(&plus, &x, &y, &sw) - trainer.loss(&minus, &x, &y, &sw))
                / (2.0 * eps);
            assert!((fd - gj).abs() < 1e-6, "grad[{j}]: fd={fd} analytic={gj}");
        }
        let mut plus = point.clone();
        plus.bias += eps;
        let mut minus = point.clone();
        minus.bias -= eps;
        let fd =
            (trainer.loss(&plus, &x, &y, &sw) - trainer.loss(&minus, &x, &y, &sw)) / (2.0 * eps);
        assert!((fd - grad_b).abs() < 1e-6);
    }

    #[test]
    fn sample_weights_shift_decision() {
        // Two conflicting points at the same x; weighting decides the label.
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0]]);
        let y = vec![true, false];
        let trainer = LogisticTrainer {
            epochs: 2000,
            ..LogisticTrainer::default()
        };
        let favor_pos = trainer.fit_weighted(&x, &y, &[10.0, 1.0]);
        assert!(favor_pos.score(&[1.0]) > 0.5);
        let favor_neg = trainer.fit_weighted(&x, &y, &[1.0, 10.0]);
        assert!(favor_neg.score(&[1.0]) < 0.5);
    }

    #[test]
    fn l2_shrinks_weights() {
        let (x, y) = separable();
        let loose = LogisticTrainer {
            l2: 1e-6,
            ..LogisticTrainer::default()
        }
        .fit(&x, &y);
        let tight = LogisticTrainer {
            l2: 1.0,
            ..LogisticTrainer::default()
        }
        .fit(&x, &y);
        assert!(tight.weights[0].abs() < loose.weights[0].abs());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_panic() {
        let x = Matrix::from_rows(&[vec![1.0]]);
        LogisticTrainer::default().fit_weighted(&x, &[true], &[-1.0]);
    }

    fn wide_problem(n: usize, d: usize) -> (Matrix, Vec<bool>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| ((i * 13 + j * 29) % 97) as f64 * 0.02 - 1.0)
                    .collect()
            })
            .collect();
        let y: Vec<bool> = rows.iter().map(|r| r[0] + 0.5 * r[1] > 0.1).collect();
        let sw: Vec<f64> = (0..n).map(|i| 0.5 + ((i * 7) % 10) as f64 * 0.1).collect();
        (Matrix::from_rows(&rows), y, sw)
    }

    #[test]
    fn parallel_fit_is_bitwise_identical() {
        // Enough rows for several GRAD_CHUNK chunks; the dispatch
        // floor is forced to 1 so the fan-out genuinely runs.
        let (x, y, sw) = wide_problem(2500, 16);
        let trainer = LogisticTrainer {
            epochs: 40,
            ..LogisticTrainer::default()
        };
        for ops in [DISPATCH_KERNELS, FUSED_KERNELS] {
            let serial = trainer.fit_core(&x, &y, &sw, &Telemetry::off(), ops, 1);
            for workers in [2, 8] {
                let par = LogisticTrainer {
                    workers,
                    ..trainer.clone()
                }
                .fit_core(&x, &y, &sw, &Telemetry::off(), ops, 1);
                assert_eq!(serial, par, "{workers} workers drifted");
                for (a, b) in serial.weights.iter().zip(&par.weights) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                assert_eq!(serial.bias.to_bits(), par.bias.to_bits());
            }
        }
    }

    #[test]
    fn dispatched_fit_matches_pinned_fused_bitwise() {
        // The cross-kernel-table contract: under the simd feature the
        // dispatched fit runs AVX2 bodies, and must still reproduce the
        // pinned fused-scalar model bit for bit.
        let (x, y, sw) = wide_problem(300, 23);
        let trainer = LogisticTrainer {
            epochs: 25,
            ..LogisticTrainer::default()
        };
        let dispatched = trainer.fit_weighted(&x, &y, &sw);
        let pinned = trainer.fit_weighted_pinned_fused(&x, &y, &sw);
        assert_eq!(dispatched, pinned);
        for (a, b) in dispatched.weights.iter().zip(&pinned.weights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(dispatched.bias.to_bits(), pinned.bias.to_bits());
    }

    #[test]
    fn observed_fit_counts_gemv_calls() {
        let (x, y) = separable();
        let telemetry = Telemetry::new(std::sync::Arc::new(
            fairbridge_obs::RingSink::with_capacity(64),
        ));
        let trainer = LogisticTrainer {
            epochs: 7,
            tolerance: 0.0,
            ..LogisticTrainer::default()
        };
        let sw = vec![1.0; y.len()];
        let observed = trainer.fit_weighted_observed(&x, &y, &sw, &telemetry);
        assert_eq!(observed, trainer.fit(&x, &y));
        // One gemv per epoch: the linear-scores pass.
        assert_eq!(telemetry.counter("kernel.gemv_calls").get(), 7);
    }
}

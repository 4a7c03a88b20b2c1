//! Expert feed-forward networks and their gradients.

use flux_tensor::{init, ops, simd, Matrix, SeededRng};

/// One expert: a two-layer feed-forward network with GELU activation.
///
/// `y = GELU(x·W1 + b1)·W2 + b2`, with `W1: (d_model, d_ff)` and
/// `W2: (d_ff, d_model)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Expert {
    /// Input projection.
    pub w1: Matrix,
    /// Input projection bias.
    pub b1: Vec<f32>,
    /// Output projection.
    pub w2: Matrix,
    /// Output projection bias.
    pub b2: Vec<f32>,
}

#[cfg(test)]
thread_local! {
    /// Parameter-gradient computations on this thread, so layer tests can
    /// count the work a backward pass did instead of timing it.
    pub(crate) static PARAM_GRAD_CALLS: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// Cache of intermediate activations needed for the expert backward pass.
#[derive(Debug, Clone)]
pub struct ExpertCache {
    /// Input rows the expert processed (one per routed token).
    pub input: Matrix,
    /// Pre-activation of the first projection.
    pub pre_activation: Matrix,
    /// Post-GELU hidden activations.
    pub hidden: Matrix,
}

/// Gradient of an expert's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertGrad {
    /// Gradient of [`Expert::w1`].
    pub w1: Matrix,
    /// Gradient of [`Expert::b1`].
    pub b1: Vec<f32>,
    /// Gradient of [`Expert::w2`].
    pub w2: Matrix,
    /// Gradient of [`Expert::b2`].
    pub b2: Vec<f32>,
    /// Number of token rows that contributed to this gradient.
    pub token_count: usize,
}

impl Expert {
    /// Creates a randomly initialized expert.
    pub fn new(d_model: usize, d_ff: usize, rng: &mut SeededRng) -> Self {
        Self {
            w1: init::kaiming_normal(d_model, d_ff, rng),
            b1: init::zeros_bias(d_ff),
            w2: init::kaiming_normal(d_ff, d_model, rng),
            b2: init::zeros_bias(d_model),
        }
    }

    /// Input dimension (`d_model`).
    pub fn d_model(&self) -> usize {
        self.w1.rows()
    }

    /// Hidden dimension (`d_ff`).
    pub fn d_ff(&self) -> usize {
        self.w1.cols()
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.w1.len() + self.b1.len() + self.w2.len() + self.b2.len()
    }

    /// Forward pass over a batch of routed token rows `(n, d_model)`.
    ///
    /// Returns the expert output `(n, d_model)` and a cache for backward.
    pub fn forward(&self, input: &Matrix) -> (Matrix, ExpertCache) {
        self.forward_owned(input.clone())
    }

    /// Forward pass that takes ownership of the input rows, storing them in
    /// the cache without the defensive copy [`Expert::forward`] pays.
    pub fn forward_owned(&self, input: Matrix) -> (Matrix, ExpertCache) {
        debug_assert_eq!(input.cols(), self.d_model());
        let pre = input
            .try_matmul_bias(&self.w1, &self.b1)
            .expect("bias length matches d_ff");
        let hidden = ops::gelu(&pre);
        let output = hidden
            .try_matmul_bias(&self.w2, &self.b2)
            .expect("bias length matches d_model");
        (
            output,
            ExpertCache {
                input,
                pre_activation: pre,
                hidden,
            },
        )
    }

    /// Forward pass without building a cache (inference / profiling path).
    pub fn forward_no_cache(&self, input: &Matrix) -> Matrix {
        let hidden =
            ops::matmul_bias_gelu(input, &self.w1, &self.b1).expect("bias length matches d_ff");
        hidden
            .try_matmul_bias(&self.w2, &self.b2)
            .expect("bias length matches d_model")
    }

    /// Backward pass.
    ///
    /// Given the upstream gradient `grad_output` (same shape as the forward
    /// output), returns the parameter gradient and the gradient with respect
    /// to the expert input.
    pub fn backward(&self, cache: &ExpertCache, grad_output: &Matrix) -> (ExpertGrad, Matrix) {
        let (grad, grad_input) = self.backward_parts(cache, grad_output, true, true);
        (
            grad.expect("parameter gradient asked for"),
            grad_input.expect("input gradient asked for"),
        )
    }

    /// [`Expert::backward`], computing only the halves somebody reads: the
    /// parameter gradient (two GEMMs and two bias sums) when `want_params`,
    /// the input gradient (one GEMM) when `want_input`. A frozen expert owes
    /// the layers below it the input gradient alone; an expert of the
    /// lowest tuned layer, below which nothing is trainable, the parameter
    /// gradient alone. Each half is bit-identical to the full backward's.
    pub fn backward_parts(
        &self,
        cache: &ExpertCache,
        grad_output: &Matrix,
        want_params: bool,
        want_input: bool,
    ) -> (Option<ExpertGrad>, Option<Matrix>) {
        debug_assert_eq!(grad_output.shape(), (cache.input.rows(), self.d_model()));
        // Back through `y = hidden·W2 + b2` and the GELU. The
        // fused-transpose kernels avoid materializing any transposed weight
        // or activation matrix, and the cached hidden activations carry
        // tanh(u) implicitly, sparing its recomputation (see
        // `ops::gelu_backward_cached`).
        let grad_hidden = grad_output.matmul_transb(&self.w2).expect("col counts");
        let grad_pre =
            ops::gelu_backward_cached(&cache.pre_activation, &cache.hidden, &grad_hidden);
        let grad = want_params.then(|| {
            #[cfg(test)]
            PARAM_GRAD_CALLS.with(|c| c.set(c.get() + 1));
            // pre = x·W1 + b1, y = hidden·W2 + b2.
            ExpertGrad {
                w1: cache.input.matmul_transa(&grad_pre).expect("row counts"),
                b1: grad_pre.sum_rows(),
                w2: cache.hidden.matmul_transa(grad_output).expect("row counts"),
                b2: grad_output.sum_rows(),
                token_count: cache.input.rows(),
            }
        });
        let grad_input = want_input.then(|| grad_pre.matmul_transb(&self.w1).expect("col counts"));
        (grad, grad_input)
    }

    /// Applies a gradient with plain SGD (used by tests and the baselines;
    /// the federated driver uses the optimizers in `flux-tensor`).
    pub fn apply_sgd(&mut self, grad: &ExpertGrad, learning_rate: f32) {
        self.w1
            .add_scaled(&grad.w1, -learning_rate)
            .expect("w1 gradient shape");
        self.w2
            .add_scaled(&grad.w2, -learning_rate)
            .expect("w2 gradient shape");
        let axpy = simd::active().axpy;
        axpy(&mut self.b1, &grad.b1, -learning_rate);
        axpy(&mut self.b2, &grad.b2, -learning_rate);
    }

    /// Overwrites this expert's parameters with `base`'s (no allocation;
    /// dimensions must match).
    pub fn copy_from(&mut self, base: &Expert) {
        debug_assert_eq!(self.w1.shape(), base.w1.shape());
        debug_assert_eq!(self.w2.shape(), base.w2.shape());
        self.w1.as_mut_slice().copy_from_slice(base.w1.as_slice());
        self.b1.copy_from_slice(&base.b1);
        self.w2.as_mut_slice().copy_from_slice(base.w2.as_slice());
        self.b2.copy_from_slice(&base.b2);
    }

    /// Overwrites this expert's parameters with `base + scale · direction`,
    /// where `direction` is laid out like [`Expert::flatten_params`]
    /// (`w1`, `b1`, `w2`, `b2`).
    ///
    /// This is the allocation-free primitive behind SPSA / forward-only
    /// gradient estimation: the plus/minus perturbed experts are written
    /// into one reusable work expert instead of being cloned per
    /// perturbation, and restoring is a [`Expert::copy_from`] of the base.
    pub fn assign_perturbed(&mut self, base: &Expert, direction: &[f32], scale: f32) {
        debug_assert_eq!(direction.len(), base.num_params());
        let perturb = simd::active().perturb;
        let mut cursor = 0;
        let mut segment = |len: usize| {
            let s = &direction[cursor..cursor + len];
            cursor += len;
            s
        };
        perturb(
            self.w1.as_mut_slice(),
            base.w1.as_slice(),
            segment(base.w1.len()),
            scale,
        );
        perturb(&mut self.b1, &base.b1, segment(base.b1.len()), scale);
        perturb(
            self.w2.as_mut_slice(),
            base.w2.as_slice(),
            segment(base.w2.len()),
            scale,
        );
        perturb(&mut self.b2, &base.b2, segment(base.b2.len()), scale);
    }

    /// Flattens all parameters into a single feature vector (used by the
    /// similarity-based clustering of the merging module).
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out =
            Vec::with_capacity(self.w1.len() + self.b1.len() + self.w2.len() + self.b2.len());
        out.extend_from_slice(self.w1.as_slice());
        out.extend_from_slice(&self.b1);
        out.extend_from_slice(self.w2.as_slice());
        out.extend_from_slice(&self.b2);
        out
    }

    /// Builds an expert as the weighted average of several experts.
    ///
    /// Weights are normalized internally; experts must share dimensions.
    /// This is the primitive behind the paper's Eq. (2).
    ///
    /// # Panics
    ///
    /// Panics when `experts` is empty, lengths differ, or all weights are
    /// non-positive.
    pub fn weighted_merge(experts: &[&Expert], weights: &[f32]) -> Expert {
        assert!(!experts.is_empty(), "cannot merge zero experts");
        assert_eq!(experts.len(), weights.len(), "one weight per expert");
        let total: f32 = weights.iter().map(|w| w.max(0.0)).sum();
        assert!(total > 0.0, "merge weights must have positive mass");
        let (d_model, d_ff) = (experts[0].d_model(), experts[0].d_ff());
        let mut merged = Expert {
            w1: Matrix::zeros(d_model, d_ff),
            b1: vec![0.0; d_ff],
            w2: Matrix::zeros(d_ff, d_model),
            b2: vec![0.0; d_model],
        };
        for (expert, &w) in experts.iter().zip(weights.iter()) {
            assert_eq!(expert.d_model(), d_model, "expert dims must match");
            assert_eq!(expert.d_ff(), d_ff, "expert dims must match");
            let alpha = w.max(0.0) / total;
            merged.w1.add_scaled(&expert.w1, alpha).expect("same shape");
            merged.w2.add_scaled(&expert.w2, alpha).expect("same shape");
            let axpy = simd::active().axpy;
            axpy(&mut merged.b1, &expert.b1, alpha);
            axpy(&mut merged.b2, &expert.b2, alpha);
        }
        merged
    }
}

impl ExpertGrad {
    /// A zero gradient with the given dimensions.
    pub fn zeros(d_model: usize, d_ff: usize) -> Self {
        Self {
            w1: Matrix::zeros(d_model, d_ff),
            b1: vec![0.0; d_ff],
            w2: Matrix::zeros(d_ff, d_model),
            b2: vec![0.0; d_model],
            token_count: 0,
        }
    }

    /// Accumulates another gradient into this one.
    pub fn accumulate(&mut self, other: &ExpertGrad) {
        self.w1.add_scaled(&other.w1, 1.0).expect("same shape");
        self.w2.add_scaled(&other.w2, 1.0).expect("same shape");
        let axpy = simd::active().axpy;
        axpy(&mut self.b1, &other.b1, 1.0);
        axpy(&mut self.b2, &other.b2, 1.0);
        self.token_count += other.token_count;
    }

    /// Scales the gradient in place.
    pub fn scale(&mut self, factor: f32) {
        self.w1.scale_in_place(factor);
        self.w2.scale_in_place(factor);
        for b in &mut self.b1 {
            *b *= factor;
        }
        for b in &mut self.b2 {
            *b *= factor;
        }
    }

    /// L2 norm over all gradient entries. This is the signal the Flux
    /// expert-utility definition (Eq. 3) is built on.
    pub fn norm(&self) -> f32 {
        let mut sum = 0.0f32;
        sum += self.w1.as_slice().iter().map(|x| x * x).sum::<f32>();
        sum += self.w2.as_slice().iter().map(|x| x * x).sum::<f32>();
        sum += self.b1.iter().map(|x| x * x).sum::<f32>();
        sum += self.b2.iter().map(|x| x * x).sum::<f32>();
        sum.sqrt()
    }

    /// Flattens the gradient into one vector (used by gradient-estimation
    /// accuracy measurements, Fig. 18).
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::new();
        out.extend_from_slice(self.w1.as_slice());
        out.extend_from_slice(&self.b1);
        out.extend_from_slice(self.w2.as_slice());
        out.extend_from_slice(&self.b2);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expert(seed: u64) -> Expert {
        let mut rng = SeededRng::new(seed);
        Expert::new(8, 16, &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let e = expert(1);
        let mut rng = SeededRng::new(2);
        let x = Matrix::random_normal(5, 8, 1.0, &mut rng);
        let (y, cache) = e.forward(&x);
        assert_eq!(y.shape(), (5, 8));
        assert_eq!(cache.hidden.shape(), (5, 16));
        let y2 = e.forward_no_cache(&x);
        assert_eq!(y, y2);
    }

    #[test]
    fn num_params_matches_config_formula() {
        let e = expert(3);
        assert_eq!(e.num_params(), 8 * 16 + 16 + 16 * 8 + 8);
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        let e = expert(4);
        let mut rng = SeededRng::new(5);
        let x = Matrix::random_normal(3, 8, 1.0, &mut rng);
        // Scalar loss = sum of outputs; upstream gradient is all ones.
        let (_, cache) = e.forward(&x);
        let ones = Matrix::filled(3, 8, 1.0);
        let (grad, grad_input) = e.backward(&cache, &ones);

        let loss = |e: &Expert, x: &Matrix| -> f32 { e.forward_no_cache(x).sum() };
        let eps = 1e-2;

        // Check a few W1 entries.
        for &(r, c) in &[(0usize, 0usize), (3, 7), (7, 15)] {
            let mut plus = e.clone();
            plus.w1.set(r, c, plus.w1.get(r, c) + eps);
            let mut minus = e.clone();
            minus.w1.set(r, c, minus.w1.get(r, c) - eps);
            let numeric = (loss(&plus, &x) - loss(&minus, &x)) / (2.0 * eps);
            let analytic = grad.w1.get(r, c);
            assert!(
                (numeric - analytic).abs() < 0.05 * numeric.abs().max(1.0),
                "w1[{r},{c}] numeric {numeric} analytic {analytic}"
            );
        }
        // Check an input gradient entry.
        let mut x_plus = x.clone();
        x_plus.set(1, 3, x_plus.get(1, 3) + eps);
        let mut x_minus = x.clone();
        x_minus.set(1, 3, x_minus.get(1, 3) - eps);
        let numeric = (loss(&e, &x_plus) - loss(&e, &x_minus)) / (2.0 * eps);
        let analytic = grad_input.get(1, 3);
        assert!(
            (numeric - analytic).abs() < 0.05 * numeric.abs().max(1.0),
            "input grad numeric {numeric} analytic {analytic}"
        );
    }

    #[test]
    fn backward_halves_equal_the_full_backward() {
        let e = expert(17);
        let mut rng = SeededRng::new(18);
        let x = Matrix::random_normal(7, 8, 1.0, &mut rng);
        let grad_out = Matrix::random_normal(7, 8, 1.0, &mut rng);
        let (_, cache) = e.forward(&x);
        let (grad, grad_input) = e.backward(&cache, &grad_out);
        assert_eq!(
            e.backward_parts(&cache, &grad_out, false, true),
            (None, Some(grad_input))
        );
        assert_eq!(
            e.backward_parts(&cache, &grad_out, true, false),
            (Some(grad), None)
        );
    }

    #[test]
    fn sgd_step_reduces_loss() {
        let mut e = expert(6);
        let mut rng = SeededRng::new(7);
        let x = Matrix::random_normal(4, 8, 1.0, &mut rng);
        let target = Matrix::random_normal(4, 8, 1.0, &mut rng);
        let loss_of = |e: &Expert| -> f32 {
            let y = e.forward_no_cache(&x);
            y.sub(&target).unwrap().frobenius_norm()
        };
        let before = loss_of(&e);
        for _ in 0..50 {
            let (y, cache) = e.forward(&x);
            let grad_out = y.sub(&target).unwrap().scale(2.0);
            let (grad, _) = e.backward(&cache, &grad_out);
            e.apply_sgd(&grad, 0.01);
        }
        assert!(loss_of(&e) < before * 0.5, "loss should halve");
    }

    #[test]
    fn weighted_merge_of_identical_experts_is_identity() {
        let e = expert(8);
        let merged = Expert::weighted_merge(&[&e, &e, &e], &[1.0, 2.0, 3.0]);
        for (a, b) in merged.w1.as_slice().iter().zip(e.w1.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn weighted_merge_respects_weights() {
        let a = expert(9);
        let b = expert(10);
        // All weight on `a` must reproduce `a`.
        let merged = Expert::weighted_merge(&[&a, &b], &[1.0, 0.0]);
        for (x, y) in merged.w2.as_slice().iter().zip(a.w2.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
        // Equal weights give the midpoint.
        let mid = Expert::weighted_merge(&[&a, &b], &[1.0, 1.0]);
        for ((m, x), y) in mid
            .w1
            .as_slice()
            .iter()
            .zip(a.w1.as_slice())
            .zip(b.w1.as_slice())
        {
            assert!((m - 0.5 * (x + y)).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn weighted_merge_zero_weights_panics() {
        let a = expert(11);
        Expert::weighted_merge(&[&a], &[0.0]);
    }

    #[test]
    fn grad_accumulate_and_norm() {
        let e = expert(12);
        let mut rng = SeededRng::new(13);
        let x = Matrix::random_normal(2, 8, 1.0, &mut rng);
        let (_, cache) = e.forward(&x);
        let (g, _) = e.backward(&cache, &Matrix::filled(2, 8, 1.0));
        let mut acc = ExpertGrad::zeros(8, 16);
        assert_eq!(acc.norm(), 0.0);
        acc.accumulate(&g);
        acc.accumulate(&g);
        assert_eq!(acc.token_count, 4);
        // Accumulating the same gradient twice doubles the norm.
        assert!((acc.norm() - 2.0 * g.norm()).abs() < 1e-3);
        acc.scale(0.5);
        assert!((acc.norm() - g.norm()).abs() < 1e-3);
    }

    #[test]
    fn assign_perturbed_matches_flatten_layout_and_restores() {
        let base = expert(15);
        let mut work = base.clone();
        let mut rng = SeededRng::new(16);
        let direction: Vec<f32> = (0..base.num_params()).map(|_| rng.normal()).collect();
        work.assign_perturbed(&base, &direction, 0.25);
        // Perturbation follows the flatten_params layout exactly.
        let flat_base = base.flatten_params();
        let flat_work = work.flatten_params();
        for ((w, b), d) in flat_work.iter().zip(&flat_base).zip(&direction) {
            assert!((w - (b + 0.25 * d)).abs() < 1e-6);
        }
        // copy_from restores the base bit-for-bit.
        work.copy_from(&base);
        assert_eq!(work, base);
    }

    #[test]
    fn flatten_params_length() {
        let e = expert(14);
        assert_eq!(e.flatten_params().len(), e.num_params());
        let g = ExpertGrad::zeros(8, 16);
        assert_eq!(g.flatten().len(), e.num_params());
    }
}

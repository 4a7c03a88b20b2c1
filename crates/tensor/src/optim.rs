//! First-order optimizers.
//!
//! Local fine-tuning in the reproduction uses plain SGD (matching the
//! paper's single local iteration per round with a small learning rate) or
//! Adam for the faster-converging unit-test scenarios. Optimizer state is
//! keyed per-parameter so experts can be added and removed between rounds,
//! which happens constantly as expert roles change.

use std::collections::HashMap;

use crate::matrix::Matrix;

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate applied to every step.
    pub learning_rate: f32,
    /// Momentum coefficient; 0 disables momentum.
    pub momentum: f32,
    velocity: HashMap<String, Matrix>,
}

impl Sgd {
    /// Creates an SGD optimizer without momentum.
    pub fn new(learning_rate: f32) -> Self {
        Self::with_momentum(learning_rate, 0.0)
    }

    /// Creates an SGD optimizer with momentum.
    pub fn with_momentum(learning_rate: f32, momentum: f32) -> Self {
        Self {
            learning_rate,
            momentum,
            velocity: HashMap::new(),
        }
    }

    /// Applies one update step to `param` given `grad`.
    ///
    /// `key` identifies the parameter so momentum state survives across
    /// steps; passing a stable key per tensor is the caller's contract.
    pub fn step(&mut self, key: &str, param: &mut Matrix, grad: &Matrix) {
        debug_assert_eq!(param.shape(), grad.shape());
        if self.momentum > 0.0 {
            let v = self
                .velocity
                .entry(key.to_string())
                .or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
            // v = momentum * v + grad; param -= lr * v.
            let mut new_v = v.scale(self.momentum);
            new_v
                .add_scaled(grad, 1.0)
                .expect("gradient shape changed between steps");
            param
                .add_scaled(&new_v, -self.learning_rate)
                .expect("parameter/gradient shape mismatch");
            *v = new_v;
        } else {
            param
                .add_scaled(grad, -self.learning_rate)
                .expect("parameter/gradient shape mismatch");
        }
    }

    /// Drops momentum state for parameters whose key is not retained.
    ///
    /// Called when expert roles change and some experts leave the tuning set.
    pub fn retain_keys(&mut self, keep: impl Fn(&str) -> bool) {
        self.velocity.retain(|k, _| keep(k));
    }

    /// Number of parameters with live momentum state.
    pub fn tracked_params(&self) -> usize {
        self.velocity.len()
    }
}

/// Adam optimizer (Kingma & Ba).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stability constant.
    pub eps: f32,
    state: HashMap<String, AdamState>,
}

#[derive(Debug, Clone)]
struct AdamState {
    m: Matrix,
    v: Matrix,
    t: u32,
}

impl Adam {
    /// Creates an Adam optimizer with the standard β parameters.
    pub fn new(learning_rate: f32) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            state: HashMap::new(),
        }
    }

    /// Applies one Adam update step to `param` given `grad`.
    pub fn step(&mut self, key: &str, param: &mut Matrix, grad: &Matrix) {
        debug_assert_eq!(param.shape(), grad.shape());
        let state = self
            .state
            .entry(key.to_string())
            .or_insert_with(|| AdamState {
                m: Matrix::zeros(grad.rows(), grad.cols()),
                v: Matrix::zeros(grad.rows(), grad.cols()),
                t: 0,
            });
        state.t += 1;
        let t = state.t as f32;
        let (b1, b2) = (self.beta1, self.beta2);
        for i in 0..grad.len() {
            let g = grad.as_slice()[i];
            let m = &mut state.m.as_mut_slice()[i];
            *m = b1 * *m + (1.0 - b1) * g;
            let v = &mut state.v.as_mut_slice()[i];
            *v = b2 * *v + (1.0 - b2) * g * g;
            let m_hat = *m / (1.0 - b1.powf(t));
            let v_hat = *v / (1.0 - b2.powf(t));
            param.as_mut_slice()[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Drops state for parameters whose key is not retained.
    pub fn retain_keys(&mut self, keep: impl Fn(&str) -> bool) {
        self.state.retain(|k, _| keep(k));
    }

    /// Number of parameters with live optimizer state.
    pub fn tracked_params(&self) -> usize {
        self.state.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    /// Quadratic bowl f(x) = ||x - target||²/2 whose gradient is (x - target).
    fn quadratic_grad(x: &Matrix, target: &Matrix) -> Matrix {
        x.sub(target).unwrap()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut rng = SeededRng::new(1);
        let target = Matrix::random_normal(4, 4, 1.0, &mut rng);
        let mut x = Matrix::zeros(4, 4);
        let mut opt = Sgd::new(0.2);
        for _ in 0..200 {
            let g = quadratic_grad(&x, &target);
            opt.step("x", &mut x, &g);
        }
        assert!(x.sub(&target).unwrap().frobenius_norm() < 1e-3);
    }

    #[test]
    fn sgd_with_momentum_converges_faster_than_without() {
        let target = Matrix::filled(8, 8, 1.0);
        let run = |momentum: f32| {
            let mut x = Matrix::zeros(8, 8);
            let mut opt = Sgd::with_momentum(0.05, momentum);
            for _ in 0..50 {
                let g = quadratic_grad(&x, &target);
                opt.step("x", &mut x, &g);
            }
            x.sub(&target).unwrap().frobenius_norm()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut rng = SeededRng::new(2);
        let target = Matrix::random_normal(3, 3, 2.0, &mut rng);
        let mut x = Matrix::zeros(3, 3);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let g = quadratic_grad(&x, &target);
            opt.step("x", &mut x, &g);
        }
        assert!(x.sub(&target).unwrap().frobenius_norm() < 1e-2);
    }

    #[test]
    fn optimizer_state_is_per_key() {
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        let mut a = Matrix::zeros(1, 1);
        let mut b = Matrix::zeros(2, 2);
        opt.step("a", &mut a, &Matrix::filled(1, 1, 1.0));
        opt.step("b", &mut b, &Matrix::filled(2, 2, 1.0));
        assert_eq!(opt.tracked_params(), 2);
        opt.retain_keys(|k| k == "a");
        assert_eq!(opt.tracked_params(), 1);
    }

    #[test]
    fn adam_retain_keys() {
        let mut opt = Adam::new(0.01);
        let mut a = Matrix::zeros(1, 2);
        opt.step("expert.0", &mut a, &Matrix::filled(1, 2, 0.5));
        opt.step("expert.1", &mut a, &Matrix::filled(1, 2, 0.5));
        assert_eq!(opt.tracked_params(), 2);
        opt.retain_keys(|k| k.ends_with(".1"));
        assert_eq!(opt.tracked_params(), 1);
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut x = Matrix::filled(1, 1, 1.0);
        let g = Matrix::filled(1, 1, 2.0);
        let mut opt = Sgd::new(0.5);
        opt.step("x", &mut x, &g);
        assert_eq!(x.get(0, 0), 0.0);
    }
}

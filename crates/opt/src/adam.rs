//! Adam (adaptive moment estimation) optimizer.
//!
//! The DCA refinement step (Algorithm 2 of the paper) replaces the fixed
//! learning-rate ladder of Core DCA with Adam: "Instead of using a fixed
//! learning rate for all the parameters, the Adam method uses an individual
//! learning rate for each parameter which is individually optimized based on
//! the change in the gradient, or in our case the disparity."
//!
//! The implementation follows Kingma & Ba, *Adam: A Method for Stochastic
//! Optimization* (2017 revision), including bias correction of the first and
//! second moment estimates.

/// Hyper-parameters for [`Adam`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Base step size `alpha`. The paper's refinement step uses Adam's
    /// conventional defaults with a moderate step size; `0.1` works well for
    /// bonus points expressed on a 0–100 score scale.
    pub learning_rate: f64,
    /// Exponential decay rate for the first-moment estimate (`beta_1`).
    pub beta1: f64,
    /// Exponential decay rate for the second-moment estimate (`beta_2`).
    pub beta2: f64,
    /// Numerical-stability constant added to the denominator.
    pub epsilon: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        }
    }
}

/// The Adam optimizer state: first/second moment estimates and step counter.
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    /// First-moment (mean) estimate per parameter.
    m: Vec<f64>,
    /// Second-moment (uncentered variance) estimate per parameter.
    v: Vec<f64>,
    /// Number of steps taken so far.
    t: u64,
}

impl Adam {
    /// Create an Adam optimizer for `dims` parameters.
    ///
    /// # Panics
    /// Panics if `dims == 0`, if any of the betas lie outside `[0, 1)`, or if
    /// the learning rate is not finite and positive.
    #[must_use]
    pub fn new(dims: usize, config: AdamConfig) -> Self {
        assert!(dims > 0, "Adam requires at least one parameter");
        assert!(
            config.learning_rate.is_finite() && config.learning_rate > 0.0,
            "learning rate must be positive and finite"
        );
        assert!(
            (0.0..1.0).contains(&config.beta1) && (0.0..1.0).contains(&config.beta2),
            "beta parameters must lie in [0, 1)"
        );
        Self {
            config,
            m: vec![0.0; dims],
            v: vec![0.0; dims],
            t: 0,
        }
    }

    /// Create an Adam optimizer with the default configuration.
    #[must_use]
    pub fn with_defaults(dims: usize) -> Self {
        Self::new(dims, AdamConfig::default())
    }

    /// Apply one update of `params` against `direction`.
    ///
    /// In classic optimization the direction is the gradient; in DCA it is
    /// the (sampled) disparity vector, which is not a gradient but plays the
    /// same role: parameters are moved *against* it.
    ///
    /// # Panics
    /// Panics if `params` or `direction` differ in length from the
    /// dimensionality this optimizer was constructed with.
    pub fn step(&mut self, params: &mut [f64], direction: &[f64]) {
        assert_eq!(
            params.len(),
            self.m.len(),
            "parameter dimensionality mismatch"
        );
        assert_eq!(
            direction.len(),
            self.m.len(),
            "direction dimensionality mismatch"
        );

        self.t += 1;
        let AdamConfig {
            learning_rate,
            beta1,
            beta2,
            epsilon,
        } = self.config;
        // Bias-corrected decay factors for this step.
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);

        for i in 0..params.len() {
            let g = direction[i];
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= learning_rate * m_hat / (v_hat.sqrt() + epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gradient of the convex quadratic f(x) = sum (x_i - target_i)^2.
    fn quad_grad(x: &[f64], target: &[f64]) -> Vec<f64> {
        x.iter().zip(target).map(|(a, b)| 2.0 * (a - b)).collect()
    }

    #[test]
    fn converges_on_quadratic() {
        let target = vec![3.0, -1.0, 0.5];
        let mut adam = Adam::with_defaults(3);
        let mut x = vec![0.0; 3];
        for _ in 0..5000 {
            let g = quad_grad(&x, &target);
            adam.step(&mut x, &g);
        }
        for (a, b) in x.iter().zip(&target) {
            assert!((a - b).abs() < 1e-3, "expected {b}, got {a}");
        }
    }

    #[test]
    fn first_step_moves_against_direction_by_learning_rate() {
        // With bias correction, the very first Adam step has magnitude close
        // to the learning rate regardless of the gradient scale.
        let mut adam = Adam::new(
            1,
            AdamConfig {
                learning_rate: 0.5,
                ..Default::default()
            },
        );
        let mut x = vec![0.0];
        adam.step(&mut x, &[1000.0]);
        assert!(x[0] < 0.0, "must move against a positive direction");
        assert!(
            (x[0].abs() - 0.5).abs() < 1e-6,
            "step magnitude ≈ lr, got {}",
            x[0]
        );
    }

    #[test]
    fn adapts_per_parameter() {
        // One coordinate gets a large, noisy direction; the other a small
        // consistent one. Adam should still make progress on both.
        let mut adam = Adam::with_defaults(2);
        let mut x = vec![0.0, 0.0];
        for i in 0..4000 {
            let noise = if i % 2 == 0 { 50.0 } else { -49.0 };
            let g = vec![2.0 * (x[0] - 1.0) + noise, 0.01 * (x[1] - 1.0)];
            adam.step(&mut x, &g);
        }
        assert!(
            (x[1] - 1.0).abs() < 0.2,
            "small-gradient coordinate converged: {}",
            x[1]
        );
    }

    #[test]
    #[should_panic(expected = "at least one parameter")]
    fn zero_dims_rejected() {
        let _ = Adam::with_defaults(0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mismatched_direction_rejected() {
        let mut adam = Adam::with_defaults(2);
        let mut x = vec![0.0, 0.0];
        adam.step(&mut x, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn non_positive_learning_rate_rejected() {
        let _ = Adam::new(
            1,
            AdamConfig {
                learning_rate: 0.0,
                ..Default::default()
            },
        );
    }
}

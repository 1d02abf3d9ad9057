//! # fair-opt — optimization substrate for the DCA fair-ranking library
//!
//! This crate contains the two numerical building blocks that the refinement
//! step of the Disparity Compensation Algorithm (DCA) of *Explainable
//! Disparity Compensation for Efficient Fair Ranking* (ICDE 2024) relies on
//! (Algorithm 2 in the paper):
//!
//! * [`Adam`] — the adaptive moment estimation optimizer (Kingma & Ba),
//! * [`RollingWindow`] — the rolling average of the last *n* bonus-vector
//!   guesses that the paper takes "to increase stability and avoid too many
//!   random effects of unusual samples near the end".
//!
//! The crate is deliberately dependency-free.
//!
//! ## Example
//!
//! ```
//! use fair_opt::{Adam, AdamConfig};
//!
//! // Minimize f(x) = (x0 - 3)^2 + (x1 + 1)^2 using its gradient as the
//! // direction oracle.
//! let mut adam = Adam::new(2, AdamConfig { learning_rate: 0.1, ..Default::default() });
//! let mut x = vec![0.0, 0.0];
//! for _ in 0..2000 {
//!     let grad = vec![2.0 * (x[0] - 3.0), 2.0 * (x[1] + 1.0)];
//!     adam.step(&mut x, &grad);
//! }
//! assert!((x[0] - 3.0).abs() < 1e-3);
//! assert!((x[1] + 1.0).abs() < 1e-3);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod adam;
pub mod rolling;

pub use adam::{Adam, AdamConfig};
pub use rolling::RollingWindow;

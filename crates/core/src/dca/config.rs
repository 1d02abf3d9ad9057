//! Configuration of the Disparity Compensation Algorithm.

use crate::bonus::{BonusCaps, BonusPolarity};
use crate::dataset::Dataset;
use crate::error::{FairError, Result};
use crate::shard::ShardSource;
use fair_opt::AdamConfig;

/// Minimum sample size for the Central Limit Theorem to apply — the paper uses
/// the conventional value of 30 ("this is generally recognized to be around
/// 30").
pub const CLT_MINIMUM: usize = 30;

/// Full configuration of a DCA run (Core DCA plus the refinement step).
#[derive(Debug, Clone, PartialEq)]
pub struct DcaConfig {
    /// Number of objects drawn per step (the paper uses 500 for the school
    /// dataset so the rarest 10% group still contributes ~50 objects).
    pub sample_size: usize,
    /// Decreasing learning-rate ladder for Core DCA (paper: `[1.0, 0.1]`).
    pub learning_rates: Vec<f64>,
    /// Iterations per learning rate in Core DCA (paper: 100).
    pub iterations_per_rate: usize,
    /// Iterations of the Adam-driven refinement step (paper: 100; set to 0 to
    /// run Core DCA only).
    pub refinement_iterations: usize,
    /// Adam hyper-parameters for the refinement step.
    pub adam: AdamConfig,
    /// Number of final iterates averaged by the refinement step ("the rolling
    /// average of the last 100 points").
    pub rolling_window: usize,
    /// Bonus-point granularity for the final rounding (paper: 0.5). `None`
    /// disables rounding.
    pub granularity: Option<f64>,
    /// Sign policy for the bonus points.
    pub polarity: BonusPolarity,
    /// Optional per-dimension magnitude caps, applied at every step
    /// (Section VI-A4).
    pub caps: Option<BonusCaps>,
    /// Seed for the sampling RNG, for reproducible runs.
    pub seed: u64,
}

impl Default for DcaConfig {
    fn default() -> Self {
        Self {
            sample_size: 500,
            learning_rates: vec![1.0, 0.1],
            iterations_per_rate: 100,
            refinement_iterations: 100,
            adam: AdamConfig::default(),
            rolling_window: 100,
            granularity: Some(0.5),
            polarity: BonusPolarity::NonNegative,
            caps: None,
            seed: 0xDCA,
        }
    }
}

impl DcaConfig {
    /// The exact experimental setting of Section V-B: sample size 500,
    /// learning rates 1.0 then 0.1 for 100 rounds each, 100 Adam refinement
    /// rounds, rolling average of the last 100 iterates, 0.5-point rounding.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Validate the configuration against a dataset (dimension-independent
    /// checks plus the CLT sample-size requirement).
    ///
    /// # Errors
    /// Returns [`FairError::InvalidConfig`] for empty ladders, zero iteration
    /// counts, non-positive rates, too-small samples, or bad granularity.
    pub fn validate(&self, dims: usize) -> Result<()> {
        if self.sample_size < CLT_MINIMUM {
            return Err(FairError::InvalidConfig {
                reason: format!(
                    "sample size {} is below the CLT minimum of {CLT_MINIMUM}",
                    self.sample_size
                ),
            });
        }
        if self.learning_rates.is_empty() {
            return Err(FairError::InvalidConfig {
                reason: "learning-rate ladder cannot be empty".into(),
            });
        }
        if self
            .learning_rates
            .iter()
            .any(|r| !r.is_finite() || *r <= 0.0)
        {
            return Err(FairError::InvalidConfig {
                reason: "learning rates must be positive and finite".into(),
            });
        }
        if self.iterations_per_rate == 0 {
            return Err(FairError::InvalidConfig {
                reason: "iterations per learning rate must be positive".into(),
            });
        }
        if self
            .learning_rates
            .len()
            .checked_mul(self.iterations_per_rate)
            .is_none()
        {
            return Err(FairError::InvalidConfig {
                reason: format!(
                    "{} learning rates x {} iterations overflow the step count",
                    self.learning_rates.len(),
                    self.iterations_per_rate
                ),
            });
        }
        if self.rolling_window == 0 {
            return Err(FairError::InvalidConfig {
                reason: "rolling window must be positive".into(),
            });
        }
        if let Some(g) = self.granularity {
            if !(g.is_finite() && g > 0.0) {
                return Err(FairError::InvalidConfig {
                    reason: format!("granularity must be positive and finite, got {g}"),
                });
            }
        }
        if let Some(caps) = &self.caps {
            if caps.dims() != dims {
                return Err(FairError::DimensionMismatch {
                    what: "bonus caps",
                    expected: dims,
                    actual: caps.dims(),
                });
            }
        }
        Ok(())
    }

    /// The paper's sample-size rule (Section IV-D): large enough that both the
    /// selected set and the rarest fairness group are expected to contribute
    /// at least [`CLT_MINIMUM`] objects, i.e. `CLT_MINIMUM * max(1/k, 1/r)`.
    ///
    /// # Errors
    /// Returns an error for `k` outside `(0, 1]` or an empty dataset.
    pub fn recommended_sample_size(dataset: &Dataset, k: f64) -> Result<usize> {
        if !(k > 0.0 && k <= 1.0) {
            return Err(FairError::InvalidSelectionFraction { k });
        }
        if dataset.is_empty() {
            return Err(FairError::EmptyDataset);
        }
        let r = dataset
            .rarest_group_frequency()
            .max(1.0 / dataset.len() as f64);
        let needed = (CLT_MINIMUM as f64 * (1.0 / k).max(1.0 / r)).ceil() as usize;
        Ok(needed.min(dataset.len()).max(CLT_MINIMUM))
    }

    /// Total number of Core DCA steps implied by this configuration
    /// ([`Self::validate`] rejects a ladder whose count overflows).
    #[must_use]
    pub fn core_steps(&self) -> usize {
        self.learning_rates.len() * self.iterations_per_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::object::DataObject;

    #[test]
    fn default_matches_paper_settings() {
        let c = DcaConfig::paper_default();
        assert_eq!(c.sample_size, 500);
        assert_eq!(c.learning_rates, vec![1.0, 0.1]);
        assert_eq!(c.iterations_per_rate, 100);
        assert_eq!(c.refinement_iterations, 100);
        assert_eq!(c.granularity, Some(0.5));
        assert_eq!(c.core_steps(), 200);
        assert!(c.validate(4).is_ok());
    }

    #[test]
    fn validation_catches_bad_settings() {
        let c = DcaConfig {
            sample_size: 10,
            ..DcaConfig::default()
        };
        assert!(c.validate(2).is_err());
        let c = DcaConfig {
            learning_rates: vec![],
            ..DcaConfig::default()
        };
        assert!(c.validate(2).is_err());
        let c = DcaConfig {
            learning_rates: vec![-1.0],
            ..DcaConfig::default()
        };
        assert!(c.validate(2).is_err());
        let c = DcaConfig {
            iterations_per_rate: 0,
            ..DcaConfig::default()
        };
        assert!(c.validate(2).is_err());
        let c = DcaConfig {
            granularity: Some(0.0),
            ..DcaConfig::default()
        };
        assert!(c.validate(2).is_err());
        let c = DcaConfig {
            rolling_window: 0,
            ..DcaConfig::default()
        };
        assert!(c.validate(2).is_err());
        let c = DcaConfig {
            caps: Some(BonusCaps::uniform(3, 10.0).unwrap()),
            ..DcaConfig::default()
        };
        assert!(c.validate(2).is_err(), "cap dimensionality must match");
        assert!(c.validate(3).is_ok());
    }

    #[test]
    fn a_step_count_that_overflows_is_rejected() {
        // On a 64-bit target this is 2,048 rates x 2^53 iterations: 2^64
        // steps, one past usize::MAX.
        let iterations = usize::MAX / 2_048 + 1;
        let c = DcaConfig {
            learning_rates: vec![1.0; 2_048],
            iterations_per_rate: iterations,
            ..DcaConfig::default()
        };
        match c.validate(2) {
            Err(FairError::InvalidConfig { reason }) => {
                assert!(reason.contains("overflow"), "{reason}");
            }
            other => panic!("expected an overflow rejection, got {other:?}"),
        }
        let c = DcaConfig {
            learning_rates: vec![1.0; 2_047],
            iterations_per_rate: iterations,
            ..DcaConfig::default()
        };
        assert!(c.validate(2).is_ok(), "one rate fewer still fits");
    }

    #[test]
    fn recommended_sample_size_follows_max_rule() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        // 1000 objects, 10% group members.
        let objects = (0..1000_u64)
            .map(|i| {
                DataObject::new_unchecked(
                    i,
                    vec![i as f64],
                    vec![if i % 10 == 0 { 1.0 } else { 0.0 }],
                    None,
                )
            })
            .collect();
        let d = Dataset::new(schema, objects).unwrap();
        // k = 0.05 -> 1/k = 20 > 1/r = 10 -> 30 * 20 = 600.
        assert_eq!(DcaConfig::recommended_sample_size(&d, 0.05).unwrap(), 600);
        // k = 0.5 -> 1/k = 2 < 1/r = 10 -> 30 * 10 = 300.
        assert_eq!(DcaConfig::recommended_sample_size(&d, 0.5).unwrap(), 300);
        assert!(DcaConfig::recommended_sample_size(&d, 0.0).is_err());
    }

    #[test]
    fn recommended_sample_size_clamps_to_dataset() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..50_u64)
            .map(|i| DataObject::new_unchecked(i, vec![i as f64], vec![1.0], None))
            .collect();
        let d = Dataset::new(schema, objects).unwrap();
        assert_eq!(DcaConfig::recommended_sample_size(&d, 0.01).unwrap(), 50);
    }
}

//! Compensatory bonus points (Definition 2).
//!
//! A [`BonusVector`] holds one bonus value per fairness attribute. The
//! effective score of an object is `f_b(o) = f(o) + A_f · B`: for binary
//! attributes the bonus is added to members' scores, for continuous attributes
//! it is multiplied by the attribute value first.
//!
//! The module also implements the operational knobs the paper evaluates:
//!
//! * **granularity rounding** — "we round to the desired bonus point
//!   granularity, as decided by stakeholders … a granularity of 0.5 points"
//!   ([`BonusVector::rounded_to`]),
//! * **maximum bonus limits** — Figure 5 ([`BonusCaps`]),
//! * **proportional scaling** — Figures 2 and 3 apply "a reducing weight to
//!   bonus points" ([`BonusVector::scaled`]),
//! * **polarity** — bonuses are non-negative when selection is the favorable
//!   outcome, non-positive when it is unfavorable (COMPAS flagging), per the
//!   paper's note that negative points read as penalties
//!   ([`BonusPolarity`]).

use crate::attributes::SchemaRef;
use crate::error::{FairError, Result};
use std::fmt;

/// Sign policy for bonus points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BonusPolarity {
    /// Being selected is desirable (school admission): bonuses must be `>= 0`.
    #[default]
    NonNegative,
    /// Being selected is undesirable (being flagged high-risk): bonuses must
    /// be `<= 0` so they *reduce* the effective score of protected groups.
    NonPositive,
}

impl BonusPolarity {
    /// Clamp a single value to this polarity: the value itself, either zero
    /// included, unless it lies on the wrong side of zero or is NaN, which
    /// both give `0.0`. (`f64::max` and `f64::min` leave the sign of a zero
    /// result unspecified, and optimized builds pick another one.)
    #[must_use]
    pub fn clamp(self, value: f64) -> f64 {
        let allowed = match self {
            Self::NonNegative => value >= 0.0,
            Self::NonPositive => value <= 0.0,
        };
        if allowed {
            value
        } else {
            0.0
        }
    }
}

/// Optional per-dimension magnitude caps on bonus points (Section VI-A4).
#[derive(Debug, Clone, PartialEq)]
pub struct BonusCaps {
    /// Maximum absolute bonus per fairness dimension.
    max_abs: Vec<f64>,
}

impl BonusCaps {
    /// A uniform cap of `max_abs` points across `dims` dimensions.
    ///
    /// # Errors
    /// Returns an error if `max_abs` is negative or non-finite.
    pub fn uniform(dims: usize, max_abs: f64) -> Result<Self> {
        if !(max_abs.is_finite() && max_abs >= 0.0) {
            return Err(FairError::InvalidConfig {
                reason: format!("bonus cap must be a non-negative finite number, got {max_abs}"),
            });
        }
        Ok(Self {
            max_abs: vec![max_abs; dims],
        })
    }

    /// Per-dimension caps.
    ///
    /// # Errors
    /// Returns an error if any cap is negative or non-finite, or the list is
    /// empty.
    pub fn per_dimension(max_abs: Vec<f64>) -> Result<Self> {
        if max_abs.is_empty() {
            return Err(FairError::InvalidConfig {
                reason: "caps cannot be empty".into(),
            });
        }
        if max_abs.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return Err(FairError::InvalidConfig {
                reason: "every cap must be a non-negative finite number".into(),
            });
        }
        Ok(Self { max_abs })
    }

    /// Cap values per dimension.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.max_abs
    }

    /// Number of dimensions covered.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.max_abs.len()
    }

    /// Clamp `value` for dimension `dim` to `[-cap, +cap]`.
    #[must_use]
    pub fn clamp(&self, dim: usize, value: f64) -> f64 {
        let cap = self.max_abs[dim];
        value.clamp(-cap, cap)
    }
}

/// A vector of compensatory bonus points, one entry per fairness attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct BonusVector {
    schema: SchemaRef,
    values: Vec<f64>,
    polarity: BonusPolarity,
}

impl BonusVector {
    /// All-zero bonus vector (the uncorrected baseline).
    #[must_use]
    pub fn zeros(schema: SchemaRef) -> Self {
        let dims = schema.num_fairness();
        Self {
            schema,
            values: vec![0.0; dims],
            polarity: BonusPolarity::NonNegative,
        }
    }

    /// Build from explicit values.
    ///
    /// # Errors
    /// Returns an error on dimensionality mismatch, non-finite values, or
    /// values violating the polarity.
    pub fn new(schema: SchemaRef, values: Vec<f64>, polarity: BonusPolarity) -> Result<Self> {
        if values.len() != schema.num_fairness() {
            return Err(FairError::DimensionMismatch {
                what: "bonus vector",
                expected: schema.num_fairness(),
                actual: values.len(),
            });
        }
        for (attr, &v) in schema.fairness().iter().zip(&values) {
            if !v.is_finite() {
                return Err(FairError::InvalidValue {
                    attribute: attr.name().to_string(),
                    value: v,
                    reason: "bonus values must be finite",
                });
            }
            if polarity.clamp(v) != v {
                return Err(FairError::InvalidValue {
                    attribute: attr.name().to_string(),
                    value: v,
                    reason: "bonus value violates the configured polarity",
                });
            }
        }
        Ok(Self {
            schema,
            values,
            polarity,
        })
    }

    /// Build from `(name, value)` pairs; unspecified attributes get 0.
    ///
    /// # Errors
    /// Returns an error for unknown names or invalid values.
    pub fn from_named(
        schema: SchemaRef,
        named: &[(&str, f64)],
        polarity: BonusPolarity,
    ) -> Result<Self> {
        let mut values = vec![0.0; schema.num_fairness()];
        for (name, v) in named {
            let idx = schema.fairness_index(name)?;
            values[idx] = *v;
        }
        Self::new(schema, values, polarity)
    }

    /// The schema this bonus vector is aligned with.
    #[must_use]
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Bonus values, ordered per the schema's fairness attributes.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The polarity policy.
    #[must_use]
    pub fn polarity(&self) -> BonusPolarity {
        self.polarity
    }

    /// Bonus for the named fairness attribute.
    ///
    /// # Errors
    /// Returns an error for unknown names.
    pub fn get(&self, name: &str) -> Result<f64> {
        Ok(self.values[self.schema.fairness_index(name)?])
    }

    /// Number of dimensions.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// L2 norm of the bonus vector (total intervention magnitude).
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// A copy rounded to the given granularity (e.g. 0.5 points). Values are
    /// rounded to the nearest multiple of `granularity`.
    ///
    /// # Errors
    /// Returns an error if `granularity` is not positive and finite.
    pub fn rounded_to(&self, granularity: f64) -> Result<Self> {
        if !(granularity.is_finite() && granularity > 0.0) {
            return Err(FairError::InvalidConfig {
                reason: format!("granularity must be positive and finite, got {granularity}"),
            });
        }
        let values = self
            .values
            .iter()
            .map(|v| (v / granularity).round() * granularity)
            .map(|v| self.polarity.clamp(v))
            .collect();
        Ok(Self {
            schema: self.schema.clone(),
            values,
            polarity: self.polarity,
        })
    }

    /// A copy scaled by `proportion` (Figures 2–3: "applying a reducing weight
    /// to bonus points"). `proportion` of 1.0 returns an identical vector,
    /// 0.0 removes the intervention entirely.
    ///
    /// # Errors
    /// Returns an error if `proportion` is negative or non-finite.
    pub fn scaled(&self, proportion: f64) -> Result<Self> {
        if !(proportion.is_finite() && proportion >= 0.0) {
            return Err(FairError::InvalidConfig {
                reason: format!(
                    "scaling proportion must be non-negative and finite, got {proportion}"
                ),
            });
        }
        let values = self.values.iter().map(|v| v * proportion).collect();
        Ok(Self {
            schema: self.schema.clone(),
            values,
            polarity: self.polarity,
        })
    }

    /// A copy with every dimension clamped to the given caps.
    ///
    /// # Errors
    /// Returns an error if the caps' dimensionality differs.
    pub fn capped(&self, caps: &BonusCaps) -> Result<Self> {
        if caps.dims() != self.values.len() {
            return Err(FairError::DimensionMismatch {
                what: "bonus caps",
                expected: self.values.len(),
                actual: caps.dims(),
            });
        }
        let values = self
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| self.polarity.clamp(caps.clamp(i, v)))
            .collect();
        Ok(Self {
            schema: self.schema.clone(),
            values,
            polarity: self.polarity,
        })
    }

    /// Human-readable explanation of the intervention — the transparency
    /// artifact the paper argues should be published to stakeholders before
    /// applications are due.
    #[must_use]
    pub fn explain(&self) -> String {
        let mut lines = Vec::with_capacity(self.values.len() + 1);
        lines.push("Compensatory bonus points:".to_string());
        for (attr, &v) in self.schema.fairness().iter().zip(&self.values) {
            if v == 0.0 {
                lines.push(format!("  {:<12} no adjustment", attr.name()));
            } else {
                match attr.kind() {
                    crate::attributes::FairnessKind::Binary => lines.push(format!(
                        "  {:<12} {v:+.2} points added to every member's score",
                        attr.name()
                    )),
                    crate::attributes::FairnessKind::Continuous => lines.push(format!(
                        "  {:<12} {v:+.2} points multiplied by the attribute value (0-1)",
                        attr.name()
                    )),
                }
            }
        }
        lines.join("\n")
    }
}

impl fmt::Display for BonusVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .schema
            .fairness()
            .iter()
            .zip(&self.values)
            .map(|(a, v)| format!("{}: {v:.2}", a.name()))
            .collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;

    fn schema() -> SchemaRef {
        Schema::from_names(&["gpa"], &["low_income", "ell", "special_ed"], &["eni"]).unwrap()
    }

    #[test]
    fn zeros_has_schema_dimensionality() {
        let b = BonusVector::zeros(schema());
        assert_eq!(b.dims(), 4);
        assert_eq!(b.values(), &[0.0; 4]);
        assert_eq!(b.norm(), 0.0);
    }

    #[test]
    fn from_named_fills_missing_with_zero() {
        let b = BonusVector::from_named(
            schema(),
            &[("ell", 11.5), ("eni", 12.0)],
            BonusPolarity::NonNegative,
        )
        .unwrap();
        assert_eq!(b.values(), &[0.0, 11.5, 0.0, 12.0]);
        assert_eq!(b.get("ell").unwrap(), 11.5);
        assert!(b.get("unknown").is_err());
    }

    #[test]
    fn polarity_is_enforced_at_construction() {
        let bad = BonusVector::new(
            schema(),
            vec![-1.0, 0.0, 0.0, 0.0],
            BonusPolarity::NonNegative,
        );
        assert!(bad.is_err());
        let ok = BonusVector::new(
            schema(),
            vec![-1.0, 0.0, 0.0, 0.0],
            BonusPolarity::NonPositive,
        );
        assert!(ok.is_ok());
        let bad2 = BonusVector::new(
            schema(),
            vec![1.0, 0.0, 0.0, 0.0],
            BonusPolarity::NonPositive,
        );
        assert!(bad2.is_err());
    }

    #[test]
    fn polarity_clamp_helper() {
        assert_eq!(BonusPolarity::NonNegative.clamp(-2.0), 0.0);
        assert_eq!(BonusPolarity::NonNegative.clamp(2.0), 2.0);
        assert_eq!(BonusPolarity::NonPositive.clamp(2.0), 0.0);
        assert_eq!(BonusPolarity::NonPositive.clamp(-2.0), -2.0);
    }

    #[test]
    fn polarity_clamp_keeps_either_zero_in_every_build_profile() {
        for polarity in [BonusPolarity::NonNegative, BonusPolarity::NonPositive] {
            for zero in [0.0_f64, -0.0] {
                assert_eq!(
                    polarity.clamp(zero).to_bits(),
                    zero.to_bits(),
                    "{polarity:?} of {zero:?}"
                );
            }
            assert_eq!(polarity.clamp(f64::NAN).to_bits(), 0.0_f64.to_bits());
        }
        assert_eq!(BonusPolarity::NonNegative.clamp(-2.0).to_bits(), 0);
        assert_eq!(BonusPolarity::NonPositive.clamp(2.0).to_bits(), 0);
    }

    #[test]
    fn rounding_to_half_point_granularity() {
        let b = BonusVector::new(
            schema(),
            vec![1.24, 11.51, 13.76, 0.1],
            BonusPolarity::NonNegative,
        )
        .unwrap();
        let r = b.rounded_to(0.5).unwrap();
        assert_eq!(r.values(), &[1.0, 11.5, 14.0, 0.0]);
    }

    #[test]
    fn rounding_rejects_bad_granularity() {
        let b = BonusVector::zeros(schema());
        assert!(b.rounded_to(0.0).is_err());
        assert!(b.rounded_to(f64::NAN).is_err());
    }

    #[test]
    fn scaling_is_linear_and_validated() {
        let b = BonusVector::new(
            schema(),
            vec![2.0, 10.0, 14.0, 12.0],
            BonusPolarity::NonNegative,
        )
        .unwrap();
        let half = b.scaled(0.5).unwrap();
        assert_eq!(half.values(), &[1.0, 5.0, 7.0, 6.0]);
        let zero = b.scaled(0.0).unwrap();
        assert_eq!(zero.norm(), 0.0);
        assert!(b.scaled(-1.0).is_err());
    }

    #[test]
    fn caps_clamp_magnitudes() {
        let b = BonusVector::new(
            schema(),
            vec![2.0, 25.0, 14.0, 12.0],
            BonusPolarity::NonNegative,
        )
        .unwrap();
        let caps = BonusCaps::uniform(4, 15.0).unwrap();
        let capped = b.capped(&caps).unwrap();
        assert_eq!(capped.values(), &[2.0, 15.0, 14.0, 12.0]);
        // Mismatched caps rejected.
        let caps2 = BonusCaps::uniform(2, 15.0).unwrap();
        assert!(b.capped(&caps2).is_err());
    }

    #[test]
    fn caps_work_for_negative_polarity() {
        let b = BonusVector::new(
            schema(),
            vec![-2.0, -25.0, 0.0, 0.0],
            BonusPolarity::NonPositive,
        )
        .unwrap();
        let caps = BonusCaps::uniform(4, 10.0).unwrap();
        let capped = b.capped(&caps).unwrap();
        assert_eq!(capped.values(), &[-2.0, -10.0, 0.0, 0.0]);
    }

    #[test]
    fn caps_validation() {
        assert!(BonusCaps::uniform(3, -1.0).is_err());
        assert!(BonusCaps::per_dimension(vec![]).is_err());
        assert!(BonusCaps::per_dimension(vec![1.0, f64::NAN]).is_err());
        let caps = BonusCaps::per_dimension(vec![1.0, 2.0]).unwrap();
        assert_eq!(caps.values(), &[1.0, 2.0]);
        assert_eq!(caps.clamp(1, 5.0), 2.0);
        assert_eq!(caps.clamp(1, -5.0), -2.0);
    }

    #[test]
    fn norm_matches_euclidean_norm() {
        let b = BonusVector::new(
            schema(),
            vec![3.0, 4.0, 0.0, 0.0],
            BonusPolarity::NonNegative,
        )
        .unwrap();
        assert!((b.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn explain_mentions_every_nonzero_attribute() {
        let b = BonusVector::from_named(
            schema(),
            &[("ell", 11.5), ("eni", 12.0)],
            BonusPolarity::NonNegative,
        )
        .unwrap();
        let text = b.explain();
        assert!(text.contains("ell"));
        assert!(text.contains("+11.50"));
        assert!(
            text.contains("multiplied"),
            "continuous attributes explain the multiplication"
        );
        assert!(text.contains("no adjustment"));
    }

    #[test]
    fn display_is_compact() {
        let b =
            BonusVector::from_named(schema(), &[("ell", 1.0)], BonusPolarity::NonNegative).unwrap();
        let s = b.to_string();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("ell: 1.00"));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let r = BonusVector::new(schema(), vec![1.0, 2.0], BonusPolarity::NonNegative);
        assert!(matches!(r, Err(FairError::DimensionMismatch { .. })));
    }
}

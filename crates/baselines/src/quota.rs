//! Quota (set-aside) selection — the real-world baseline of Figure 6.
//!
//! "Many real-world settings, such as the NYC school system, use one single
//! quota for all the different fairness dimensions": a fraction of the seats
//! is reserved for applicants exhibiting *any* of the protected
//! characteristics; reserved seats are filled by the best-ranked protected
//! applicants, the remaining seats by the best-ranked applicants overall. If
//! there are not enough protected applicants the unused reserved seats return
//! to the general pool (a *soft* quota, which is how NYC set-asides work).

use fair_core::prelude::*;

/// Configuration of a single-quota set-aside.
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaConfig {
    /// Fraction of the selection reserved for protected applicants, in `[0, 1]`.
    pub reserve_fraction: f64,
    /// Fairness dimensions whose members count as protected (an applicant is
    /// protected if it belongs to *any* of these groups, membership
    /// thresholded at 0.5 for continuous attributes).
    pub protected_dims: Vec<usize>,
}

impl QuotaConfig {
    /// A quota reserving `reserve_fraction` of the seats for members of any of
    /// the given fairness dimensions.
    ///
    /// # Errors
    /// Returns an error if the fraction is outside `[0, 1]` or no dimensions
    /// are given.
    pub fn new(reserve_fraction: f64, protected_dims: Vec<usize>) -> Result<Self> {
        if !(0.0..=1.0).contains(&reserve_fraction) || !reserve_fraction.is_finite() {
            return Err(FairError::InvalidConfig {
                reason: format!("reserve fraction must lie in [0, 1], got {reserve_fraction}"),
            });
        }
        if protected_dims.is_empty() {
            return Err(FairError::InvalidConfig {
                reason: "quota requires at least one protected dimension".into(),
            });
        }
        Ok(Self {
            reserve_fraction,
            protected_dims,
        })
    }
}

/// Select the top-`k` fraction of a dataset under a set-aside quota.
///
/// Returns the selected rows (reserved seats first, then general
/// seats, each in score order).
///
/// # Errors
/// Returns an error on an empty dataset, an invalid `k`, or out-of-range
/// protected dimensions.
pub fn quota_select<R: Ranker + ?Sized>(
    data: &Dataset,
    ranker: &R,
    k: f64,
    config: &QuotaConfig,
) -> Result<Vec<usize>> {
    if data.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    let dims = data.schema().num_fairness();
    if let Some(&bad) = config.protected_dims.iter().find(|d| **d >= dims) {
        return Err(FairError::InvalidConfig {
            reason: format!("protected dimension {bad} out of range (schema has {dims})"),
        });
    }
    let total_seats = selection_size(data.len(), k)?;
    let reserved_seats = ((total_seats as f64) * config.reserve_fraction).round() as usize;

    let scores = base_scores(data, ranker);
    let ranking = RankedSelection::from_scores(scores);

    let is_protected = |pos: usize| {
        config
            .protected_dims
            .iter()
            .any(|&d| data.row(pos).in_group(d))
    };

    // Fill the reserved seats with the best-ranked protected applicants.
    let mut selected = Vec::with_capacity(total_seats);
    let mut taken = vec![false; data.len()];
    let mut filled_reserved = 0_usize;
    for &pos in ranking.order() {
        if filled_reserved >= reserved_seats {
            break;
        }
        if is_protected(pos) {
            selected.push(pos);
            taken[pos] = true;
            filled_reserved += 1;
        }
    }
    // Fill the remaining seats (including any unused reserved seats) with the
    // best-ranked applicants overall.
    for &pos in ranking.order() {
        if selected.len() >= total_seats {
            break;
        }
        if !taken[pos] {
            selected.push(pos);
            taken[pos] = true;
        }
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_core::metrics::{disparity_of_selection, norm};

    /// 20 objects, 30% protected, protected scores pushed to the bottom.
    fn dataset() -> Dataset {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..20_u64)
            .map(|i| {
                let member = i < 6;
                let score = if member { i as f64 } else { 100.0 + i as f64 };
                DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    #[test]
    fn quota_reserves_the_requested_share() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let config = QuotaConfig::new(0.5, vec![0]).unwrap();
        // Top 40% = 8 seats; 4 reserved for protected applicants.
        let selected = quota_select(&d, &ranker, 0.4, &config).unwrap();
        assert_eq!(selected.len(), 8);
        let protected = selected.iter().filter(|&&p| d.row(p).in_group(0)).count();
        assert_eq!(protected, 4);
    }

    #[test]
    fn quota_reduces_disparity_relative_to_no_intervention() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let plain = RankedSelection::from_scores(base_scores(&d, &ranker));
        let before = norm(&disparity_of_selection(&d, plain.selected(0.4).unwrap()).unwrap());
        let config = QuotaConfig::new(0.3, vec![0]).unwrap();
        let selected = quota_select(&d, &ranker, 0.4, &config).unwrap();
        let after = norm(&disparity_of_selection(&d, &selected).unwrap());
        assert!(
            after < before,
            "quota should reduce disparity: {after} vs {before}"
        );
    }

    #[test]
    fn zero_reserve_reproduces_the_unconstrained_selection() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let config = QuotaConfig::new(0.0, vec![0]).unwrap();
        let selected = quota_select(&d, &ranker, 0.25, &config).unwrap();
        let plain = RankedSelection::from_scores(base_scores(&d, &ranker));
        let mut expected = plain.selected(0.25).unwrap().to_vec();
        let mut got = selected.clone();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn soft_quota_returns_unused_seats_to_the_general_pool() {
        // Only one protected object but half the seats reserved.
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..10_u64)
            .map(|i| {
                DataObject::new_unchecked(
                    i,
                    vec![i as f64],
                    vec![if i == 0 { 1.0 } else { 0.0 }],
                    None,
                )
            })
            .collect();
        let d = Dataset::new(schema, objects).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let config = QuotaConfig::new(0.5, vec![0]).unwrap();
        let selected = quota_select(&d, &ranker, 0.6, &config).unwrap();
        assert_eq!(
            selected.len(),
            6,
            "all seats are filled even without enough protected applicants"
        );
    }

    #[test]
    fn reserved_seats_go_to_the_best_protected_applicants() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let config = QuotaConfig::new(1.0, vec![0]).unwrap();
        let selected = quota_select(&d, &ranker, 0.2, &config).unwrap();
        // 4 seats, all reserved: the four best-scoring protected objects are 5,4,3,2.
        let ids: Vec<u64> = selected.iter().map(|&p| d.row(p).id().0).collect();
        assert_eq!(ids, vec![5, 4, 3, 2]);
    }

    #[test]
    fn protected_membership_is_any_of_the_listed_dimensions() {
        let schema = Schema::from_names(&["s"], &["a", "b"], &[]).unwrap();
        let objects = vec![
            DataObject::new_unchecked(0, vec![5.0], vec![0.0, 0.0], None),
            DataObject::new_unchecked(1, vec![4.0], vec![1.0, 0.0], None),
            DataObject::new_unchecked(2, vec![3.0], vec![0.0, 1.0], None),
            DataObject::new_unchecked(3, vec![2.0], vec![0.0, 0.0], None),
        ];
        let d = Dataset::new(schema, objects).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let config = QuotaConfig::new(1.0, vec![0, 1]).unwrap();
        let selected = quota_select(&d, &ranker, 0.5, &config).unwrap();
        let ids: Vec<u64> = selected.iter().map(|&p| d.row(p).id().0).collect();
        assert_eq!(ids, vec![1, 2], "both protected dimensions are honoured");
    }

    #[test]
    fn validation_errors() {
        assert!(QuotaConfig::new(1.5, vec![0]).is_err());
        assert!(QuotaConfig::new(-0.1, vec![0]).is_err());
        assert!(QuotaConfig::new(0.5, vec![]).is_err());
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let config = QuotaConfig::new(0.5, vec![9]).unwrap();
        assert!(quota_select(&d, &ranker, 0.5, &config).is_err());
        let config = QuotaConfig::new(0.5, vec![0]).unwrap();
        assert!(quota_select(&d, &ranker, 0.0, &config).is_err());
    }
}

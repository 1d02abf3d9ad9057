//! The (Δ+2)-approximation greedy constrained re-ranker of Celis, Straszak &
//! Vishnoi ("Ranking with fairness constraints"), used by the paper as a
//! faster post-processing comparison (Figure 7).
//!
//! "This algorithm works by looking at all (position, item) pairs and greedily
//! selecting the one that most improves the utility … without violating a
//! preset (input) fairness constraint on the maximum number of items of each
//! type." Because position discounts are monotone, the greedy reduces to
//! walking the output positions in order and placing the highest-scored
//! remaining item whose *type counts* stay within the caps. Items may carry
//! several properties (overlapping groups); Δ is the maximum number of
//! properties per item, hence the approximation name.

use fair_core::prelude::*;

/// One maximum-count constraint: at most `max_count` of the items matching
/// `mask` may appear in the produced selection.
#[derive(Debug, Clone, PartialEq)]
pub struct CelisConstraint {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Membership mask over the dataset's rows.
    pub mask: Vec<bool>,
    /// Maximum number of matching items allowed in the output.
    pub max_count: usize,
}

impl CelisConstraint {
    /// Cap the members of the (binary) fairness dimension `dim` at
    /// `max_count` items.
    #[must_use]
    pub fn for_group(data: &Dataset, dim: usize, max_count: usize) -> Self {
        Self {
            name: data
                .schema()
                .fairness()
                .get(dim)
                .map_or_else(|| format!("dim{dim}"), |a| a.name().to_string()),
            mask: data.iter().map(|o| o.in_group(dim)).collect(),
            max_count,
        }
    }

    /// Cap the *non-members* of the fairness dimension `dim` at `max_count`
    /// items — the usual way to force an under-represented group into the
    /// selection.
    #[must_use]
    pub fn for_complement(data: &Dataset, dim: usize, max_count: usize) -> Self {
        Self {
            name: data
                .schema()
                .fairness()
                .get(dim)
                .map_or_else(|| format!("not-dim{dim}"), |a| format!("not-{}", a.name())),
            mask: data.iter().map(|o| !o.in_group(dim)).collect(),
            max_count,
        }
    }
}

/// Derive maximum-count caps that allow each listed group's *complement* to
/// take at most its proportional share of an `selection_size`-item selection,
/// relaxed by `slack` (a disparity-style tolerance in `[-1, 1]`, e.g. the
/// residual disparity DCA achieved). This is how Figure 7 hands DCA's result
/// to (Δ+2) as its input constraint.
///
/// # Errors
/// Returns an error on an empty dataset or out-of-range dimensions.
pub fn caps_excluding_group(
    data: &Dataset,
    dims: &[usize],
    selection_size: usize,
    slack: f64,
) -> Result<Vec<CelisConstraint>> {
    if data.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    let num_fairness = data.schema().num_fairness();
    let mut constraints = Vec::with_capacity(dims.len());
    for &dim in dims {
        if dim >= num_fairness {
            return Err(FairError::InvalidConfig {
                reason: format!("fairness dimension {dim} out of range"),
            });
        }
        let member_share =
            data.iter().filter(|o| o.in_group(dim)).count() as f64 / data.len() as f64;
        let complement_share = 1.0 - member_share;
        let cap = ((complement_share + slack) * selection_size as f64)
            .round()
            .max(0.0) as usize;
        constraints.push(CelisConstraint::for_complement(
            data,
            dim,
            cap.min(selection_size),
        ));
    }
    Ok(constraints)
}

/// Run the greedy (Δ+2)-style constrained selection: fill `selection_size`
/// positions in order, each time taking the highest-base-score remaining item
/// that does not push any constraint past its cap. If every remaining item is
/// blocked (the caps are infeasible for a full selection), the highest-scored
/// blocked items fill the remaining seats so the output always has
/// `selection_size` entries.
///
/// Returns the selected rows in output order.
///
/// # Errors
/// Returns an error on an empty dataset, a zero selection size, or masks
/// whose length does not match the dataset.
pub fn celis_rerank<R: Ranker + ?Sized>(
    data: &Dataset,
    ranker: &R,
    selection_size: usize,
    constraints: &[CelisConstraint],
) -> Result<Vec<usize>> {
    if data.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    if selection_size == 0 {
        return Err(FairError::InvalidConfig {
            reason: "selection size must be positive".into(),
        });
    }
    for c in constraints {
        if c.mask.len() != data.len() {
            return Err(FairError::DimensionMismatch {
                what: "constraint mask",
                expected: data.len(),
                actual: c.mask.len(),
            });
        }
    }
    let selection_size = selection_size.min(data.len());

    let ranking = RankedSelection::from_scores(base_scores(data, ranker));
    let mut counts = vec![0_usize; constraints.len()];
    let mut taken = vec![false; data.len()];
    let mut output = Vec::with_capacity(selection_size);

    // Greedy pass respecting the caps.
    for &pos in ranking.order() {
        if output.len() >= selection_size {
            break;
        }
        let violates = constraints
            .iter()
            .enumerate()
            .any(|(ci, c)| c.mask[pos] && counts[ci] + 1 > c.max_count);
        if violates {
            continue;
        }
        for (ci, c) in constraints.iter().enumerate() {
            if c.mask[pos] {
                counts[ci] += 1;
            }
        }
        taken[pos] = true;
        output.push(pos);
    }
    // Infeasible caps: fill the remaining seats with the best blocked items.
    if output.len() < selection_size {
        for &pos in ranking.order() {
            if output.len() >= selection_size {
                break;
            }
            if !taken[pos] {
                taken[pos] = true;
                output.push(pos);
            }
        }
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_core::metrics::{disparity_of_selection, ndcg_at_k, norm};

    /// 20 objects, 30% group members with depressed scores.
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
    fn caps_are_respected() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        // At most 4 non-members in an 8-item selection.
        let constraints = vec![CelisConstraint::for_complement(&d, 0, 4)];
        let selected = celis_rerank(&d, &ranker, 8, &constraints).unwrap();
        assert_eq!(selected.len(), 8);
        let non_members = selected.iter().filter(|&&p| !d.row(p).in_group(0)).count();
        assert_eq!(non_members, 4);
        let members = selected.iter().filter(|&&p| d.row(p).in_group(0)).count();
        assert_eq!(members, 4);
    }

    #[test]
    fn constrained_selection_reduces_disparity_with_modest_utility_loss() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let plain = RankedSelection::from_scores(base_scores(&d, &ranker));
        let before = norm(&disparity_of_selection(&d, plain.selected(0.4).unwrap()).unwrap());
        let constraints = caps_excluding_group(&d, &[0], 8, 0.0).unwrap();
        let selected = celis_rerank(&d, &ranker, 8, &constraints).unwrap();
        let after = norm(&disparity_of_selection(&d, &selected).unwrap());
        assert!(
            after < before,
            "(Δ+2) should reduce disparity: {after} vs {before}"
        );
        // Utility of the constrained selection stays reasonable.
        let mut fake_ranking_scores = vec![f64::MIN; d.len()];
        for (rank, &pos) in selected.iter().enumerate() {
            fake_ranking_scores[pos] = (d.len() - rank) as f64;
        }
        let constrained = RankedSelection::from_scores(fake_ranking_scores);
        let u = ndcg_at_k(&d, &ranker, &constrained, 0.4).unwrap();
        assert!(u > 0.3, "utility {u}");
    }

    #[test]
    fn without_constraints_the_selection_is_score_order() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let selected = celis_rerank(&d, &ranker, 5, &[]).unwrap();
        let plain = RankedSelection::from_scores(base_scores(&d, &ranker));
        assert_eq!(selected.as_slice(), plain.top(5));
    }

    #[test]
    fn infeasible_caps_still_fill_every_seat() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        // Nobody allowed: cap of zero on both the group and its complement.
        let constraints = vec![
            CelisConstraint::for_group(&d, 0, 0),
            CelisConstraint::for_complement(&d, 0, 0),
        ];
        let selected = celis_rerank(&d, &ranker, 6, &constraints).unwrap();
        assert_eq!(selected.len(), 6);
    }

    #[test]
    fn caps_from_slack_scale_with_the_target() {
        let d = dataset();
        let tight = caps_excluding_group(&d, &[0], 10, 0.0).unwrap();
        let loose = caps_excluding_group(&d, &[0], 10, 0.2).unwrap();
        assert_eq!(tight.len(), 1);
        assert!(tight[0].max_count <= loose[0].max_count);
        // Population is 70% non-members -> proportional cap of 7 in 10 seats.
        assert_eq!(tight[0].max_count, 7);
    }

    #[test]
    fn constraint_helpers_use_attribute_names() {
        let d = dataset();
        assert_eq!(CelisConstraint::for_group(&d, 0, 3).name, "g");
        assert_eq!(CelisConstraint::for_complement(&d, 0, 3).name, "not-g");
    }

    #[test]
    fn validation_errors() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        assert!(celis_rerank(&d, &ranker, 0, &[]).is_err());
        let bad_mask = CelisConstraint {
            name: "bad".into(),
            mask: vec![true],
            max_count: 1,
        };
        assert!(celis_rerank(&d, &ranker, 5, &[bad_mask]).is_err());
        assert!(caps_excluding_group(&d, &[9], 5, 0.0).is_err());
        let empty = Dataset::empty(Schema::from_names(&["s"], &["g"], &[]).unwrap());
        assert!(celis_rerank(&empty, &ranker, 5, &[]).is_err());
        assert!(caps_excluding_group(&empty, &[0], 5, 0.0).is_err());
    }

    #[test]
    fn selection_size_is_clamped_to_the_dataset_size() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let selected = celis_rerank(&d, &ranker, 100, &[]).unwrap();
        assert_eq!(selected.len(), d.len());
    }
}

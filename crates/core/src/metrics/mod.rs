//! Fairness and utility metrics.
//!
//! Every fairness metric in this module is *vector-valued*: one entry per
//! fairness attribute, each bounded in `[-1, 1]`, with `0` meaning fair, a
//! negative value meaning the group is under-represented among the selected
//! objects and a positive value meaning it is over-represented. This is the
//! contract DCA requires of any metric it optimizes (Section VI-C5: "the
//! minimization metric must be represented as the norm of a vector, and it
//! must provide bounds between -1, 1").
//!
//! | Module | Paper reference |
//! |--------|-----------------|
//! | [`disparity`] | Definition 3, the primary metric |
//! | [`log_discounted`] | Section IV-E, unknown selection sizes |
//! | [`disparate_impact`] | Section VI-C5, scaled DI variant |
//! | [`fpr`] | Section VI-C5, equalized-odds / false-positive-rate difference |
//! | [`exposure`] | Section VI-C4, exposure and the DDP constraint |
//! | [`ndcg`] | Section VI-A2, utility of the corrected ranking |

pub mod disparate_impact;
pub mod disparity;
pub mod exposure;
pub mod fpr;
pub mod log_discounted;
pub mod ndcg;
pub mod sharded;

pub use disparate_impact::{disparate_impact_at_k, scaled_disparate_impact_at_k};
pub use disparity::{disparity_at_k, disparity_of_selection, DisparityVector};
pub use exposure::{ddp_for_binary_attributes, exposure_of_group, group_average_exposure};
pub use fpr::{fpr_difference_at_k, group_fpr_at_k};
pub use log_discounted::{log_discounted_disparity, LogDiscountConfig};
pub use ndcg::{dcg, ndcg_at_k};

use crate::dataset::SampleView;
use crate::error::{FairError, Result};
use crate::ranking::topk::RankedSelection;

/// L2 norm of a metric vector — the scalar the paper reports as "Norm".
#[must_use]
pub fn norm(values: &[f64]) -> f64 {
    values.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Group counts over a set of rows — the one tally behind the rate metrics
/// (FPR difference, disparate impact). Over every row it gives the
/// population counts, over the selected rows the selected counts; the
/// serial metrics and the sharded planner's sweep both count here.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupTally {
    /// Rows tallied.
    rows: usize,
    /// Per dimension, rows in the group (value `>= 0.5`).
    members: Vec<usize>,
    /// Rows labelled `false` (true negatives).
    negatives: usize,
    /// Per dimension, true negatives in the group.
    member_negatives: Vec<usize>,
}

impl GroupTally {
    /// Tally `(fairness row, label)` pairs of a `dims`-dimensional schema.
    ///
    /// # Errors
    /// Returns [`FairError::MissingLabels`] on an unlabelled row when
    /// `need_labels` (the FPR metrics).
    pub(crate) fn of_rows<'a>(
        dims: usize,
        rows: impl Iterator<Item = (&'a [f64], Option<bool>)>,
        need_labels: bool,
    ) -> Result<Self> {
        let mut tally = Self {
            members: vec![0; dims],
            member_negatives: vec![0; dims],
            ..Self::default()
        };
        for (fairness, label) in rows {
            let negative = match label {
                Some(label) => !label,
                None if need_labels => return Err(FairError::MissingLabels),
                None => false,
            };
            tally.rows += 1;
            tally.negatives += usize::from(negative);
            for (dim, value) in fairness.iter().enumerate() {
                if *value >= 0.5 {
                    tally.members[dim] += 1;
                    tally.member_negatives[dim] += usize::from(negative);
                }
            }
        }
        Ok(tally)
    }

    /// Add `other`'s counts — an exact integer merge, so shard tallies
    /// combine to the whole-cohort tally in any order.
    pub(crate) fn merge(&mut self, other: &Self) {
        self.rows += other.rows;
        self.negatives += other.negatives;
        for (a, b) in self.members.iter_mut().zip(&other.members) {
            *a += b;
        }
        for (a, b) in self
            .member_negatives
            .iter_mut()
            .zip(&other.member_negatives)
        {
            *a += b;
        }
    }
}

/// Population and selected-set tallies of a view's top-`k` selection.
///
/// # Errors
/// Returns an error on empty views, invalid `k`, or (with `need_labels`)
/// missing labels.
pub(crate) fn tally_selection(
    view: &SampleView<'_>,
    ranking: &RankedSelection,
    k: f64,
    need_labels: bool,
) -> Result<(GroupTally, GroupTally)> {
    if view.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    let selected = ranking.selected(k)?;
    let dims = view.schema().num_fairness();
    let population = GroupTally::of_rows(
        dims,
        view.iter().map(|o| (o.fairness(), o.label())),
        need_labels,
    )?;
    let chosen = GroupTally::of_rows(
        dims,
        selected.iter().map(|&p| {
            let o = view.object(p);
            (o.fairness(), o.label())
        }),
        false,
    )?;
    Ok((population, chosen))
}

#[cfg(test)]
mod tests {
    #[test]
    fn norm_is_euclidean() {
        assert!((super::norm(&[0.3, 0.4]) - 0.5).abs() < 1e-12);
        assert_eq!(super::norm(&[]), 0.0);
    }
}

//! The Disparity metric (Definition 3).
//!
//! Disparity is "the vector difference between the average selected object and
//! the average unselected object", computed over the fairness attributes:
//! `D = D_k − D_O`, where `D_k` is the fairness centroid of the selected
//! top-k% and `D_O` the fairness centroid of the whole population. Each
//! dimension lies in `[-1, 1]`; `0` is statistical parity.

use crate::dataset::SampleView;
use crate::error::Result;
use crate::ranking::topk::RankedSelection;
use std::fmt;

/// A disparity vector together with the fairness-attribute names it refers to.
///
/// This is the user-facing result type: it prints the per-dimension values and
/// the overall norm exactly as the paper's Table I does.
#[derive(Debug, Clone, PartialEq)]
pub struct DisparityVector {
    names: Vec<String>,
    values: Vec<f64>,
}

impl DisparityVector {
    /// Pair attribute names with disparity values.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn new(names: Vec<String>, values: Vec<f64>) -> Self {
        assert_eq!(names.len(), values.len(), "names/values length mismatch");
        Self { names, values }
    }

    /// Per-dimension disparity values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Fairness-attribute names.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Disparity of a named dimension.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.values[i])
    }

    /// L2 norm — the "Norm" column of the paper's tables.
    #[must_use]
    pub fn norm(&self) -> f64 {
        super::norm(&self.values)
    }
}

impl fmt::Display for DisparityVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, v) in self.names.iter().zip(&self.values) {
            writeln!(f, "{n:<14} {v:+.3}")?;
        }
        write!(f, "{:<14} {:.3}", "Norm", self.norm())
    }
}

/// Disparity of an explicit selection (given as view positions):
/// `centroid(selected) − centroid(view)`.
///
/// # Errors
/// Returns an error if the view or the selection is empty.
pub fn disparity_of_selection(view: &SampleView<'_>, selected: &[usize]) -> Result<Vec<f64>> {
    let all = view.fairness_centroid()?;
    let (data, indices) = (view.dataset(), view.indices());
    let mut out = Vec::new();
    disparity_of_rows(
        selected.iter().map(|&p| data.fairness_row(indices[p])),
        &all,
        &mut out,
    )?;
    Ok(out)
}

/// Disparity of a selection given as its fairness rows in rank order: their
/// centroid minus the population centroid `pop`, written into `out` — the
/// one measurement the serial metric, the sharded planner and the fleet
/// combine run.
///
/// # Errors
/// Returns [`crate::error::FairError::EmptyDataset`] when `selected` yields
/// no row.
pub(crate) fn disparity_of_rows<'a>(
    selected: impl Iterator<Item = &'a [f64]>,
    pop: &[f64],
    out: &mut Vec<f64>,
) -> Result<()> {
    crate::dataset::centroid_rows_into(pop.len(), selected, out)?;
    for (s, a) in out.iter_mut().zip(pop) {
        *s -= a;
    }
    Ok(())
}

/// Disparity of the top-`k` fraction of a ranking over a view.
///
/// # Errors
/// Returns an error for invalid `k` or empty views.
pub fn disparity_at_k(
    view: &SampleView<'_>,
    ranking: &RankedSelection,
    k: f64,
) -> Result<Vec<f64>> {
    let selected = ranking.selected(k)?;
    disparity_of_selection(view, selected)
}

/// Convenience: compute a named [`DisparityVector`] for the top-`k` selection.
///
/// # Errors
/// Returns an error for invalid `k` or empty views.
pub fn named_disparity_at_k(
    view: &SampleView<'_>,
    ranking: &RankedSelection,
    k: f64,
) -> Result<DisparityVector> {
    let values = disparity_at_k(view, ranking, k)?;
    let names = view
        .schema()
        .fairness_names()
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    Ok(DisparityVector::new(names, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dataset::Dataset;
    use crate::object::DataObject;
    use crate::ranking::{effective_scores, WeightedSumRanker};

    /// 10 objects; 30% are members of group "g". Scores are arranged so the
    /// uncorrected top-2 selection contains no group members.
    fn dataset() -> Dataset {
        let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
        let mut objects = Vec::new();
        for i in 0..10_u64 {
            let member = i < 3; // objects 0,1,2 are members
            let score = if member {
                10.0 + i as f64
            } else {
                50.0 + i as f64
            };
            objects.push(DataObject::new_unchecked(
                i,
                vec![score],
                vec![if member { 1.0 } else { 0.0 }],
                None,
            ));
        }
        Dataset::new(schema, objects).unwrap()
    }

    #[test]
    fn paper_example_thirty_vs_twenty_percent() {
        // Population 30% low-income, selection 20% low-income => disparity -0.1.
        let schema = Schema::from_names(&["s"], &["low_income"], &[]).unwrap();
        let mut objects = Vec::new();
        for i in 0..10_u64 {
            objects.push(DataObject::new_unchecked(
                i,
                vec![0.0],
                vec![if i < 3 { 1.0 } else { 0.0 }],
                None,
            ));
        }
        let d = Dataset::new(schema, objects).unwrap();
        let view = d.full_view();
        // Select 5 objects, exactly 1 of them low-income => 20% selected share.
        let selected = vec![0, 3, 4, 5, 6];
        let disp = disparity_of_selection(&view, &selected).unwrap();
        assert!((disp[0] - (0.2 - 0.3)).abs() < 1e-12);
    }

    #[test]
    fn uncorrected_selection_underrepresents_the_group() {
        let d = dataset();
        let view = d.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let scores = effective_scores(&view, &ranker, &[0.0]);
        let ranking = RankedSelection::from_scores(scores);
        let disp = disparity_at_k(&view, &ranking, 0.2).unwrap();
        // Selection has 0% members vs 30% in the population.
        assert!(
            (disp[0] + 0.3).abs() < 1e-12,
            "expected -0.3, got {}",
            disp[0]
        );
    }

    #[test]
    fn bonus_points_move_disparity_toward_zero() {
        let d = dataset();
        let view = d.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        // A 100-point bonus puts members on top.
        let scores = effective_scores(&view, &ranker, &[100.0]);
        let ranking = RankedSelection::from_scores(scores);
        let disp = disparity_at_k(&view, &ranking, 0.2).unwrap();
        // Now the selection is 100% members vs 30% population: +0.7.
        assert!((disp[0] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn full_selection_has_zero_disparity() {
        let d = dataset();
        let view = d.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let scores = effective_scores(&view, &ranker, &[0.0]);
        let ranking = RankedSelection::from_scores(scores);
        let disp = disparity_at_k(&view, &ranking, 1.0).unwrap();
        assert!(disp.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn disparity_values_bounded_in_unit_interval() {
        let d = dataset();
        let view = d.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        for k in [0.1, 0.3, 0.5, 0.9] {
            let scores = effective_scores(&view, &ranker, &[0.0]);
            let ranking = RankedSelection::from_scores(scores);
            let disp = disparity_at_k(&view, &ranking, k).unwrap();
            assert!(disp.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn named_vector_reports_norm_and_lookup() {
        let d = dataset();
        let view = d.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let scores = effective_scores(&view, &ranker, &[0.0]);
        let ranking = RankedSelection::from_scores(scores);
        let dv = named_disparity_at_k(&view, &ranking, 0.2).unwrap();
        assert_eq!(dv.names(), &["g".to_string()]);
        assert!((dv.get("g").unwrap() + 0.3).abs() < 1e-12);
        assert!(dv.get("missing").is_none());
        assert!((dv.norm() - 0.3).abs() < 1e-12);
        let text = dv.to_string();
        assert!(text.contains("Norm"));
        assert!(text.contains("g"));
    }

    #[test]
    fn empty_selection_is_error() {
        let d = dataset();
        let view = d.full_view();
        assert!(disparity_of_selection(&view, &[]).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn named_vector_rejects_mismatch() {
        let _ = DisparityVector::new(vec!["a".into()], vec![0.1, 0.2]);
    }
}

//! Multinomial FA\*IR — the post-processing fair top-k re-ranker of Zehlike
//! et al. ("Fair top-k ranking with multiple protected groups"), which the
//! paper uses as its main state-of-the-art comparison (Table II).
//!
//! FA\*IR guarantees *ranked group fairness*: at every prefix of the ranking,
//! each protected group must appear at least as often as the `α`-quantile of a
//! binomial draw with the group's target proportion. The per-prefix minimum
//! counts form the group's **mtable**; the re-ranker walks the positions in
//! order, inserting the best remaining candidate of a group whose mtable
//! constraint would otherwise be violated, and the best remaining candidate
//! overall when no constraint binds.
//!
//! The multinomial generalization requires non-overlapping groups; the paper
//! feeds it the Cartesian-product subgroups built by
//! [`crate::subgroups`]. For the multiple-groups significance adjustment we
//! use the Šidák correction `α_c = 1 − (1 − α)^(1/|G|)`, a standard
//! multiple-testing correction that keeps the family-wise significance at
//! `α` (the reference implementation performs a model-specific binary-search
//! adjustment; the resulting mtables differ by at most a position or two,
//! which does not change the comparison's conclusions).
//!
//! One consequence of per-group mtables: when two or more groups' requirements
//! increase at the *same* prefix only one of them can be served at that
//! position, so a requirement may be met up to `|G| − 1` positions late; the
//! requirements always hold at the end of the produced ranking.

use crate::subgroups::Subgroup;
use fair_core::prelude::*;

/// The minimum number of protected candidates required at every prefix
/// `1..=n`: `mtable[i-1]` is the minimum count within the top-`i`.
///
/// `mtable[i-1]` is the largest integer `m` such that
/// `P(Binomial(i, p) < m) <= alpha` — i.e. having fewer than `m` protected
/// candidates in a fair (proportion-`p`) ranking of length `i` would be a
/// statistically significant shortfall at level `alpha`.
///
/// # Panics
/// Panics if `p` is outside `[0, 1]` or `alpha` outside `(0, 1)`.
#[must_use]
pub fn binomial_mtable(n: usize, p: f64, alpha: f64) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&p), "proportion must lie in [0, 1]");
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "significance must lie in (0, 1)"
    );
    let mut table = Vec::with_capacity(n);
    for i in 1..=n {
        // Walk the binomial CDF of Binomial(i, p) until it exceeds alpha.
        // The required minimum is the number of terms whose cumulative
        // probability stays <= alpha.
        let mut cdf = 0.0_f64;
        let mut pmf = (1.0 - p).powi(i as i32); // P(X = 0)
        let mut m = 0_usize;
        loop {
            cdf += pmf;
            if cdf > alpha || m >= i {
                break;
            }
            // Advance P(X = m) -> P(X = m + 1).
            pmf *= (i - m) as f64 / (m + 1) as f64 * (p / (1.0 - p));
            m += 1;
        }
        table.push(m);
    }
    table
}

/// One protected group handed to FA\*IR: a membership mask over dataset
/// rows and a target (minimum) proportion.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectedGroup {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Membership mask over the dataset's rows.
    pub members: Vec<bool>,
    /// Target minimum proportion of the group at every prefix (usually its
    /// population share).
    pub target_proportion: f64,
}

impl ProtectedGroup {
    /// Build a protected group from a Cartesian-product [`Subgroup`], using
    /// the subgroup's population share as the target proportion.
    #[must_use]
    pub fn from_subgroup(data: &Dataset, subgroup: &Subgroup) -> Self {
        let members: Vec<bool> = data.iter().map(|o| subgroup.contains(o)).collect();
        Self {
            name: subgroup.label(data.schema()),
            members,
            target_proportion: subgroup.population_share,
        }
    }
}

/// Configuration of the FA\*IR re-ranker.
#[derive(Debug, Clone, PartialEq)]
pub struct FaStarConfig {
    /// Family-wise significance level (the reference implementation's default
    /// is 0.1).
    pub alpha: f64,
    /// Length of the re-ranked output (usually the selection size).
    pub output_size: usize,
}

impl FaStarConfig {
    /// Build a configuration.
    ///
    /// # Errors
    /// Returns an error for `alpha` outside `(0, 1)` or a zero output size.
    pub fn new(alpha: f64, output_size: usize) -> Result<Self> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(FairError::InvalidConfig {
                reason: format!("alpha must lie in (0, 1), got {alpha}"),
            });
        }
        if output_size == 0 {
            return Err(FairError::InvalidConfig {
                reason: "output size must be positive".into(),
            });
        }
        Ok(Self { alpha, output_size })
    }
}

/// The Multinomial FA\*IR re-ranker.
#[derive(Debug, Clone)]
pub struct FaStarRanker {
    config: FaStarConfig,
    groups: Vec<ProtectedGroup>,
}

impl FaStarRanker {
    /// Create a re-ranker for the given (non-overlapping) protected groups.
    ///
    /// # Errors
    /// Returns an error if no groups are given, if any two groups overlap, or
    /// if a target proportion is outside `[0, 1]`.
    pub fn new(config: FaStarConfig, groups: Vec<ProtectedGroup>) -> Result<Self> {
        if groups.is_empty() {
            return Err(FairError::InvalidConfig {
                reason: "FA*IR requires at least one protected group".into(),
            });
        }
        let len = groups[0].members.len();
        for g in &groups {
            if g.members.len() != len {
                return Err(FairError::InvalidConfig {
                    reason: "all group masks must cover the same objects".into(),
                });
            }
            if !(0.0..=1.0).contains(&g.target_proportion) {
                return Err(FairError::InvalidConfig {
                    reason: format!(
                        "target proportion {} for group `{}` must lie in [0, 1]",
                        g.target_proportion, g.name
                    ),
                });
            }
        }
        for pos in 0..len {
            let memberships = groups.iter().filter(|g| g.members[pos]).count();
            if memberships > 1 {
                return Err(FairError::InvalidConfig {
                    reason: format!(
                        "object at position {pos} belongs to {memberships} groups; FA*IR requires non-overlapping groups"
                    ),
                });
            }
        }
        Ok(Self { config, groups })
    }

    /// The protected groups.
    #[must_use]
    pub fn groups(&self) -> &[ProtectedGroup] {
        &self.groups
    }

    /// Re-rank a dataset: returns the top `output_size` rows in the
    /// fair order.
    ///
    /// # Errors
    /// Returns an error if the dataset size does not match the group masks or
    /// the requested output exceeds the dataset size.
    pub fn rerank<R: Ranker + ?Sized>(&self, data: &Dataset, ranker: &R) -> Result<Vec<usize>> {
        let n = data.len();
        if n == 0 {
            return Err(FairError::EmptyDataset);
        }
        if self.groups[0].members.len() != n {
            return Err(FairError::DimensionMismatch {
                what: "group membership mask",
                expected: n,
                actual: self.groups[0].members.len(),
            });
        }
        let output_size = self.config.output_size.min(n);

        // Šidák-corrected per-group significance.
        let alpha_c = 1.0 - (1.0 - self.config.alpha).powf(1.0 / self.groups.len() as f64);
        let mtables: Vec<Vec<usize>> = self
            .groups
            .iter()
            .map(|g| binomial_mtable(output_size, g.target_proportion, alpha_c))
            .collect();

        // Per-group candidate queues ordered by score (best first), plus the
        // global queue.
        let scores = base_scores(data, ranker);
        let global = RankedSelection::from_scores(scores);
        let group_of = |pos: usize| self.groups.iter().position(|g| g.members[pos]);

        let mut taken = vec![false; n];
        let mut counts = vec![0_usize; self.groups.len()];
        let mut group_cursors = vec![0_usize; self.groups.len()];
        let mut global_cursor = 0_usize;
        // Pre-split the global order into per-group orders for O(1) "best
        // remaining member of group g" queries.
        let mut group_orders: Vec<Vec<usize>> = vec![Vec::new(); self.groups.len()];
        for &pos in global.order() {
            if let Some(g) = group_of(pos) {
                group_orders[g].push(pos);
            }
        }

        let mut output = Vec::with_capacity(output_size);
        while output.len() < output_size {
            // A group's constraint binds when its current count is below the
            // mtable requirement for the prefix ending at the current rank
            // (which is exactly the number of items already emitted).
            let rank = output.len();
            let binding: Vec<usize> = (0..self.groups.len())
                .filter(|&g| {
                    counts[g] < mtables[g][rank] && group_cursors[g] < group_orders[g].len()
                })
                .collect();

            let chosen = if binding.is_empty() {
                // Best remaining candidate overall.
                loop {
                    let pos = global.order()[global_cursor];
                    global_cursor += 1;
                    if !taken[pos] {
                        break pos;
                    }
                }
            } else {
                // Among the binding groups, take the one whose best remaining
                // candidate scores highest (ties broken by group order).
                let mut best: Option<(usize, usize)> = None; // (group, pos)
                for &g in &binding {
                    // Advance past already-taken members.
                    while group_cursors[g] < group_orders[g].len()
                        && taken[group_orders[g][group_cursors[g]]]
                    {
                        group_cursors[g] += 1;
                    }
                    if group_cursors[g] >= group_orders[g].len() {
                        continue;
                    }
                    let pos = group_orders[g][group_cursors[g]];
                    let better = match best {
                        None => true,
                        Some((_, best_pos)) => {
                            global.rank_of(pos).unwrap_or(usize::MAX)
                                < global.rank_of(best_pos).unwrap_or(usize::MAX)
                        }
                    };
                    if better {
                        best = Some((g, pos));
                    }
                }
                match best {
                    Some((g, pos)) => {
                        group_cursors[g] += 1;
                        pos
                    }
                    // Every binding group is exhausted: fall back to the
                    // global queue (the constraint can no longer be met).
                    None => loop {
                        let pos = global.order()[global_cursor];
                        global_cursor += 1;
                        if !taken[pos] {
                            break pos;
                        }
                    },
                }
            };

            taken[chosen] = true;
            if let Some(g) = group_of(chosen) {
                counts[g] += 1;
            }
            output.push(chosen);
        }
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_core::metrics::{disparity_of_selection, norm};

    #[test]
    fn mtable_is_monotone_and_tracks_the_proportion() {
        let t = binomial_mtable(100, 0.3, 0.1);
        assert_eq!(t.len(), 100);
        // Monotone non-decreasing.
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        // Never demands more than the expected count, and approaches it for
        // long prefixes.
        for (i, &m) in t.iter().enumerate() {
            assert!(m as f64 <= 0.3 * (i + 1) as f64 + 1.0);
        }
        assert!(
            t[99] >= 20,
            "at n=100, p=0.3, alpha=0.1 the requirement is near 24: {}",
            t[99]
        );
    }

    #[test]
    fn mtable_zero_proportion_requires_nothing() {
        let t = binomial_mtable(50, 0.0, 0.1);
        assert!(t.iter().all(|&m| m == 0));
    }

    #[test]
    fn mtable_small_alpha_requires_less() {
        let strict = binomial_mtable(60, 0.4, 0.2);
        let lenient = binomial_mtable(60, 0.4, 0.01);
        assert!(strict.iter().zip(&lenient).all(|(s, l)| l <= s));
    }

    /// 40 objects: 10 members of group A (bottom scores), 30 others.
    fn dataset() -> Dataset {
        let schema = Schema::from_names(&["s"], &["a"], &[]).unwrap();
        let objects = (0..40_u64)
            .map(|i| {
                let member = i < 10;
                let score = if member { i as f64 } else { 100.0 + i as f64 };
                DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn group_a(data: &Dataset) -> ProtectedGroup {
        ProtectedGroup {
            name: "a".into(),
            members: data.iter().map(|o| o.in_group(0)).collect(),
            target_proportion: 0.25,
        }
    }

    #[test]
    fn rerank_meets_the_mtable_at_every_prefix() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let config = FaStarConfig::new(0.1, 20).unwrap();
        let fastar = FaStarRanker::new(config, vec![group_a(&d)]).unwrap();
        let order = fastar.rerank(&d, &ranker).unwrap();
        assert_eq!(order.len(), 20);
        let mtable = binomial_mtable(20, 0.25, 0.1);
        let mut count = 0;
        for (i, &pos) in order.iter().enumerate() {
            if d.row(pos).in_group(0) {
                count += 1;
            }
            assert!(
                count >= mtable[i],
                "prefix {i}: {count} < required {}",
                mtable[i]
            );
        }
    }

    #[test]
    fn rerank_reduces_disparity_of_the_selection() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let plain = RankedSelection::from_scores(base_scores(&d, &ranker));
        let before = norm(&disparity_of_selection(&d, plain.selected(0.5).unwrap()).unwrap());
        let config = FaStarConfig::new(0.1, 20).unwrap();
        let fastar = FaStarRanker::new(config, vec![group_a(&d)]).unwrap();
        let order = fastar.rerank(&d, &ranker).unwrap();
        let after = norm(&disparity_of_selection(&d, &order).unwrap());
        assert!(
            after < before,
            "FA*IR should reduce disparity: {after} vs {before}"
        );
    }

    #[test]
    fn without_binding_constraints_the_order_is_score_order() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        // Zero target proportion -> no constraint ever binds.
        let group = ProtectedGroup {
            target_proportion: 0.0,
            ..group_a(&d)
        };
        let config = FaStarConfig::new(0.1, 10).unwrap();
        let fastar = FaStarRanker::new(config, vec![group]).unwrap();
        let order = fastar.rerank(&d, &ranker).unwrap();
        let plain = RankedSelection::from_scores(base_scores(&d, &ranker));
        assert_eq!(order.as_slice(), plain.top(10));
    }

    #[test]
    fn multinomial_case_handles_three_groups() {
        // Three disjoint groups with distinct score bands.
        let schema = Schema::from_names(&["s"], &["a", "b", "c"], &[]).unwrap();
        let mut objects = Vec::new();
        let mut id = 0_u64;
        for (dim, base) in [(0_usize, 0.0), (1, 30.0), (2, 60.0)] {
            for _ in 0..10 {
                let mut fairness = vec![0.0; 3];
                fairness[dim] = 1.0;
                objects.push(DataObject::new_unchecked(
                    id,
                    vec![base + id as f64],
                    fairness,
                    None,
                ));
                id += 1;
            }
        }
        // 30 unprotected objects with the highest scores.
        for _ in 0..30 {
            objects.push(DataObject::new_unchecked(
                id,
                vec![200.0 + id as f64],
                vec![0.0; 3],
                None,
            ));
            id += 1;
        }
        let d = Dataset::new(schema, objects).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let groups: Vec<ProtectedGroup> = (0..3)
            .map(|dim| ProtectedGroup {
                name: format!("g{dim}"),
                members: d.iter().map(|o| o.in_group(dim)).collect(),
                target_proportion: 1.0 / 6.0,
            })
            .collect();
        let config = FaStarConfig::new(0.1, 30).unwrap();
        let fastar = FaStarRanker::new(config, groups).unwrap();
        let order = fastar.rerank(&d, &ranker).unwrap();
        // Every protected group must appear in the output.
        for dim in 0..3 {
            assert!(
                order.iter().any(|&p| d.row(p).in_group(dim)),
                "group {dim} missing from the fair output"
            );
        }
    }

    #[test]
    fn overlapping_groups_are_rejected() {
        let d = dataset();
        let a = group_a(&d);
        let overlapping = ProtectedGroup {
            name: "copy".into(),
            ..a.clone()
        };
        let config = FaStarConfig::new(0.1, 10).unwrap();
        assert!(FaStarRanker::new(config, vec![a, overlapping]).is_err());
    }

    #[test]
    fn configuration_validation() {
        assert!(FaStarConfig::new(0.0, 10).is_err());
        assert!(FaStarConfig::new(1.0, 10).is_err());
        assert!(FaStarConfig::new(0.1, 0).is_err());
        let d = dataset();
        let config = FaStarConfig::new(0.1, 10).unwrap();
        assert!(FaStarRanker::new(config.clone(), vec![]).is_err());
        let bad_prop = ProtectedGroup {
            target_proportion: 1.5,
            ..group_a(&d)
        };
        assert!(FaStarRanker::new(config, vec![bad_prop]).is_err());
    }

    #[test]
    #[should_panic(expected = "significance")]
    fn mtable_rejects_bad_alpha() {
        let _ = binomial_mtable(10, 0.5, 1.5);
    }
}

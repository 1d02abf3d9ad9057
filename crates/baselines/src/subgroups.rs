//! Cartesian-product subgroups for methods that require non-overlapping
//! protected groups.
//!
//! Multinomial FA\*IR "only works on non-overlapping fairness parameters, so
//! we looked at the Cartesian product of all our parameters and picked the 3
//! most-discriminated against subgroups as our barometers of fairness"
//! (Section VI-C2). This module builds those subgroups from a dataset's binary
//! fairness attributes and ranks them by how under-represented they are in the
//! uncorrected selection.

use fair_core::prelude::*;

/// One Cartesian-product subgroup: a specific combination of binary fairness
/// attribute values.
#[derive(Debug, Clone, PartialEq)]
pub struct Subgroup {
    /// The binary fairness dimensions this subgroup is defined over.
    pub dims: Vec<usize>,
    /// The membership pattern: `pattern[i]` is the required value of
    /// `dims[i]` (true = member).
    pub pattern: Vec<bool>,
    /// Number of objects matching the pattern.
    pub size: usize,
    /// Share of the population matching the pattern.
    pub population_share: f64,
}

impl Subgroup {
    /// Whether an object belongs to this subgroup.
    #[must_use]
    pub fn contains(&self, object: ObjectView<'_>) -> bool {
        self.dims
            .iter()
            .zip(&self.pattern)
            .all(|(&d, &want)| object.in_group(d) == want)
    }

    /// Human-readable label such as `low_income=1,ell=0,special_ed=1`.
    #[must_use]
    pub fn label(&self, schema: &SchemaRef) -> String {
        self.dims
            .iter()
            .zip(&self.pattern)
            .map(|(&d, &v)| format!("{}={}", schema.fairness()[d].name(), u8::from(v)))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Enumerate every Cartesian-product subgroup over the given binary fairness
/// dimensions (2^|dims| patterns), with sizes measured on `data`. Subgroups
/// with no members are omitted.
///
/// # Errors
/// Returns an error if `dims` is empty, contains duplicates, is out of range,
/// or if the dataset is empty.
pub fn cartesian_subgroups(data: &Dataset, dims: &[usize]) -> Result<Vec<Subgroup>> {
    if dims.is_empty() {
        return Err(FairError::InvalidConfig {
            reason: "subgroup construction requires at least one dimension".into(),
        });
    }
    if data.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    let max_dim = data.schema().num_fairness();
    let mut seen = std::collections::HashSet::new();
    for &d in dims {
        if d >= max_dim {
            return Err(FairError::InvalidConfig {
                reason: format!("fairness dimension {d} out of range (schema has {max_dim})"),
            });
        }
        if !seen.insert(d) {
            return Err(FairError::InvalidConfig {
                reason: format!("duplicate fairness dimension {d}"),
            });
        }
    }

    let n_patterns = 1_usize << dims.len();
    let mut counts = vec![0_usize; n_patterns];
    for object in data.iter() {
        let mut code = 0_usize;
        for (bit, &d) in dims.iter().enumerate() {
            if object.in_group(d) {
                code |= 1 << bit;
            }
        }
        counts[code] += 1;
    }

    let total = data.len() as f64;
    let mut out = Vec::new();
    for (code, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let pattern: Vec<bool> = (0..dims.len()).map(|bit| code & (1 << bit) != 0).collect();
        out.push(Subgroup {
            dims: dims.to_vec(),
            pattern,
            size: count,
            population_share: count as f64 / total,
        });
    }
    Ok(out)
}

/// The `count` subgroups most under-represented in the top-`k` selection of
/// the *uncorrected* ranking, sorted from most to least disadvantaged.
///
/// "Disadvantage" is measured as `selected_share − population_share` (the
/// subgroup's own disparity term); the most negative values come first.
/// Subgroups that contain every object of the dataset are skipped.
///
/// # Errors
/// Returns an error for invalid dimensions, an empty dataset, or an invalid `k`.
pub fn most_disadvantaged_subgroups<R: Ranker + ?Sized>(
    data: &Dataset,
    ranker: &R,
    dims: &[usize],
    k: f64,
    count: usize,
) -> Result<Vec<(Subgroup, f64)>> {
    let subgroups = cartesian_subgroups(data, dims)?;
    let ranking = RankedSelection::from_scores(base_scores(data, ranker));
    let selected = ranking.selected(k)?;
    let selected_count = selected.len() as f64;

    let mut scored: Vec<(Subgroup, f64)> = subgroups
        .into_iter()
        .filter(|g| g.size < data.len())
        .map(|g| {
            let in_selection = selected
                .iter()
                .filter(|&&pos| g.contains(data.row(pos)))
                .count() as f64;
            let disparity = in_selection / selected_count - g.population_share;
            (g, disparity)
        })
        .collect();
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(count);
    Ok(scored)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Objects with two binary attributes; the (1,1) intersection scores lowest.
    fn dataset() -> Dataset {
        let schema = Schema::from_names(&["s"], &["a", "b"], &[]).unwrap();
        let mut objects = Vec::new();
        let mut id = 0_u64;
        // 8 with neither attribute (highest scores), 3 with a only, 3 with b
        // only, 6 with both (lowest scores) — the intersection is both the
        // largest protected subgroup and the most excluded one.
        for _ in 0..8 {
            objects.push(DataObject::new_unchecked(
                id,
                vec![100.0 + id as f64],
                vec![0.0, 0.0],
                None,
            ));
            id += 1;
        }
        for _ in 0..3 {
            objects.push(DataObject::new_unchecked(
                id,
                vec![50.0 + id as f64],
                vec![1.0, 0.0],
                None,
            ));
            id += 1;
        }
        for _ in 0..3 {
            objects.push(DataObject::new_unchecked(
                id,
                vec![40.0 + id as f64],
                vec![0.0, 1.0],
                None,
            ));
            id += 1;
        }
        for _ in 0..6 {
            objects.push(DataObject::new_unchecked(
                id,
                vec![10.0 + id as f64],
                vec![1.0, 1.0],
                None,
            ));
            id += 1;
        }
        Dataset::new(schema, objects).unwrap()
    }

    #[test]
    fn cartesian_enumeration_counts_every_pattern() {
        let d = dataset();
        let groups = cartesian_subgroups(&d, &[0, 1]).unwrap();
        assert_eq!(groups.len(), 4);
        let total: usize = groups.iter().map(|g| g.size).sum();
        assert_eq!(total, d.len());
        let both = groups
            .iter()
            .find(|g| g.pattern == vec![true, true])
            .unwrap();
        assert_eq!(both.size, 6);
        assert!((both.population_share - 0.3).abs() < 1e-12);
    }

    #[test]
    fn subgroup_membership_and_labels() {
        let d = dataset();
        let groups = cartesian_subgroups(&d, &[0, 1]).unwrap();
        let both = groups
            .iter()
            .find(|g| g.pattern == vec![true, true])
            .unwrap();
        assert!(both.contains(d.row(d.len() - 1)));
        assert!(!both.contains(d.row(0)));
        assert_eq!(both.label(d.schema()), "a=1,b=1");
    }

    #[test]
    fn intersectional_subgroup_is_the_most_disadvantaged() {
        let d = dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let worst = most_disadvantaged_subgroups(&d, &ranker, &[0, 1], 0.4, 3).unwrap();
        assert_eq!(worst.len(), 3);
        // The (a=1, b=1) intersection never appears in the top 40%.
        assert_eq!(worst[0].0.pattern, vec![true, true]);
        assert!(worst[0].1 < 0.0);
        // Ordered from most to least disadvantaged.
        assert!(worst[0].1 <= worst[1].1 && worst[1].1 <= worst[2].1);
    }

    #[test]
    fn empty_patterns_are_omitted() {
        let schema = Schema::from_names(&["s"], &["a", "b"], &[]).unwrap();
        // No object has b=1, so patterns with b=1 are absent.
        let objects = (0..6_u64)
            .map(|i| {
                DataObject::new_unchecked(
                    i,
                    vec![i as f64],
                    vec![f64::from(u8::from(i % 2 == 0)), 0.0],
                    None,
                )
            })
            .collect();
        let d = Dataset::new(schema, objects).unwrap();
        let groups = cartesian_subgroups(&d, &[0, 1]).unwrap();
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| !g.pattern[1]));
    }

    #[test]
    fn validation_errors() {
        let d = dataset();
        assert!(cartesian_subgroups(&d, &[]).is_err());
        assert!(cartesian_subgroups(&d, &[0, 0]).is_err());
        assert!(cartesian_subgroups(&d, &[7]).is_err());
        let empty = Dataset::empty(Schema::from_names(&["s"], &["a"], &[]).unwrap());
        assert!(cartesian_subgroups(&empty, &[0]).is_err());
    }
}

//! Full DCA — the non-sampled variant used in the accuracy analysis
//! (Theorem 4.1).
//!
//! Full DCA runs the same descent as Core DCA but evaluates the objective on
//! the *entire* dataset at every step. It is linear in the dataset size per
//! step and therefore much slower on large populations, but it removes all
//! sampling noise; the paper uses it to prove that every step allocates more
//! additional bonus points to an object whose inclusion would reduce
//! disparity than to the object it would displace.
//!
//! [`run_full_descent`] is the loop; [`crate::dca::run_full_dca_sharded`]
//! drives it with the objective's plan over any [`crate::ShardSource`], and
//! the fleet coordinator with its distributed partials. A `Dataset` is
//! itself a one-shard source, so it runs Full DCA in place.

use crate::dca::config::DcaConfig;
use crate::dca::control::RunControl;
use crate::dca::core::{descend, CoreDcaOutcome};
use crate::error::Result;

/// Full DCA over a caller-supplied whole-cohort evaluation: the shared
/// descent loop of [`crate::dca::core`] with every step scoring all
/// `cohort_len` objects. [`crate::dca::run_full_dca_sharded`] and
/// distributed coordinators (via [`crate::dca::partial`]) both run it, so
/// their bonus trajectories can only differ through the `evaluate` callback
/// itself — which is what the local==distributed bit-for-bit guarantee
/// rests on. `control` is consulted at every step boundary (cancellation)
/// and notified after every completed step (progress); the default control
/// adds one relaxed atomic load per step and nothing else.
///
/// # Errors
/// Returns an error for invalid configurations, empty cohorts, evaluation
/// failures, or a cancellation requested through `control`.
pub fn run_full_descent(
    dims: usize,
    cohort_len: usize,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
    control: &RunControl,
    mut evaluate: impl FnMut(&[f64], &mut Vec<f64>) -> Result<()>,
) -> Result<CoreDcaOutcome> {
    descend(
        dims,
        cohort_len,
        false,
        config,
        initial,
        trace,
        control,
        |bonus, direction| {
            evaluate(bonus, direction)?;
            Ok(cohort_len)
        },
    )
}

#[cfg(test)]
mod tests {
    use crate::attributes::Schema;
    use crate::dataset::Dataset;
    use crate::dca::config::DcaConfig;
    use crate::dca::core::CoreDcaOutcome;
    use crate::dca::objective::{Objective, TopKDisparity};
    use crate::dca::run_full_dca_sharded;
    use crate::error::Result;
    use crate::metrics::{disparity_at_k, norm};
    use crate::object::DataObject;
    use crate::ranking::topk::RankedSelection;
    use crate::ranking::{effective_scores, WeightedSumRanker};
    use crate::shard::ShardSource;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn biased_dataset(n: u64, member_rate: f64, shift: f64, seed: u64) -> Dataset {
        let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = (0..n)
            .map(|i| {
                let member = rng.gen::<f64>() < member_rate;
                let base: f64 = rng.gen::<f64>() * 100.0;
                let score = if member { base - shift } else { base };
                DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    /// Full DCA over `dataset` as one shard — how a `Dataset` runs it.
    fn full_dca(
        dataset: &Dataset,
        ranker: &WeightedSumRanker,
        objective: &TopKDisparity,
        config: &DcaConfig,
        trace: bool,
    ) -> Result<CoreDcaOutcome> {
        run_full_dca_sharded(dataset, ranker, objective, config, None, trace)
    }

    fn config() -> DcaConfig {
        DcaConfig {
            learning_rates: vec![10.0, 1.0],
            iterations_per_rate: 30,
            refinement_iterations: 0,
            ..DcaConfig::default()
        }
    }

    #[test]
    fn full_dca_eliminates_disparity_without_sampling_noise() {
        let dataset = biased_dataset(2000, 0.3, 20.0, 11);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let out = full_dca(&dataset, &ranker, &objective, &config(), false).unwrap();
        let ranking = RankedSelection::from_scores(effective_scores(&dataset, &ranker, &out.bonus));
        let after = norm(&disparity_at_k(&dataset, &ranking, 0.2).unwrap());
        assert!(
            after < 0.05,
            "Full DCA should essentially eliminate disparity: {after}"
        );
    }

    #[test]
    fn full_dca_is_deterministic() {
        let dataset = biased_dataset(1000, 0.3, 10.0, 5);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let a = full_dca(&dataset, &ranker, &objective, &config(), false).unwrap();
        let b = full_dca(&dataset, &ranker, &objective, &config(), false).unwrap();
        assert_eq!(a.bonus, b.bonus);
    }

    #[test]
    fn work_scales_with_dataset_size() {
        let small = biased_dataset(500, 0.3, 10.0, 5);
        let large = biased_dataset(2000, 0.3, 10.0, 5);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();
        let a = full_dca(&small, &ranker, &objective, &cfg, false).unwrap();
        let b = full_dca(&large, &ranker, &objective, &cfg, false).unwrap();
        assert_eq!(a.objects_scored, cfg.core_steps() * 500);
        assert_eq!(b.objects_scored, cfg.core_steps() * 2000);
    }

    /// The property behind Theorem 4.1: at every Full DCA step, if swapping an
    /// unselected object p with a selected object q would reduce disparity,
    /// then p receives at least as much additional bonus as q.
    #[test]
    fn theorem_4_1_swap_property_holds_along_the_trajectory() {
        let dataset = biased_dataset(300, 0.3, 15.0, 23);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut cfg = config();
        cfg.iterations_per_rate = 10;
        let out = full_dca(&dataset, &ranker, &objective, &cfg, true).unwrap();
        let k = 0.2;

        let mut previous = vec![0.0; 1];
        for entry in &out.trace {
            // The direction used at this step was evaluated at `previous`.
            let direction = objective
                .plan()
                .evaluate_vector(&dataset, &ranker, &previous)
                .unwrap();
            let ranking =
                RankedSelection::from_scores(effective_scores(&dataset, &ranker, &previous));
            let selected = ranking.selected(k).unwrap().to_vec();
            let unselected = ranking.unselected(k).unwrap().to_vec();
            let centroid_all = dataset.fairness_centroid().unwrap();
            let centroid_sel = dataset.fairness_centroid_of(&selected).unwrap();
            let s = selected.len() as f64;

            // Check a handful of (p outside, q inside) pairs.
            for &p in unselected.iter().take(5) {
                for &q in selected.iter().take(5) {
                    let fp = dataset.row(p).fairness();
                    let fq = dataset.row(q).fairness();
                    // Disparity after swapping p in and q out.
                    let swapped: Vec<f64> = centroid_sel
                        .iter()
                        .zip(fp.iter().zip(fq))
                        .zip(&centroid_all)
                        .map(|((c, (vp, vq)), a)| c + (vp - vq) / s - a)
                        .collect();
                    let current: Vec<f64> = centroid_sel
                        .iter()
                        .zip(&centroid_all)
                        .map(|(c, a)| c - a)
                        .collect();
                    if norm(&swapped) < norm(&current) - 1e-12 {
                        // The additional bonus granted this step is
                        // L * (-direction) · F, so p must gain at least as much
                        // as q: -L*dir·Fp >= -L*dir·Fq  <=>  dir·(Fp - Fq) <= 0.
                        let dot: f64 = direction
                            .iter()
                            .zip(fp.iter().zip(fq))
                            .map(|(d, (vp, vq))| d * (vp - vq))
                            .sum();
                        assert!(
                            dot <= 1e-9,
                            "swap-improving pair must satisfy D·(Fp-Fq) <= 0, got {dot}"
                        );
                    }
                }
            }
            previous = entry.bonus.clone();
        }
    }

    #[test]
    fn empty_dataset_is_error() {
        let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
        let dataset = Dataset::empty(schema);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        assert!(full_dca(&dataset, &ranker, &objective, &config(), false).is_err());
    }
}

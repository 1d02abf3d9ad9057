//! Synthetic COMPAS-like recidivism data (Section V-A of the paper).
//!
//! The real data is the ProPublica extract of Broward County, FL records:
//! 7,214 defendants with a proprietary COMPAS decile score (1–10), race, and a
//! two-year recidivism outcome. This generator reproduces the structure DCA
//! interacts with:
//!
//! * the published race mix of the two-year-recidivism cohort,
//! * decile scores derived from an underlying risk estimate that is *shifted
//!   upward* for Black and Native American defendants and downward for white
//!   and Asian defendants — the disparate scoring behaviour ProPublica
//!   documented — then discretized into population deciles,
//! * a two-year recidivism label drawn from the *unshifted* risk, so that the
//!   false-positive rate of a top-k% flagging rule automatically differs
//!   across groups (the basis of Figure 10b).
//!
//! Being *selected* (flagged as high risk) is the unfavorable outcome here, so
//! DCA is run with [`fair_core::BonusPolarity::NonPositive`] bonuses that
//! subtract from the effective decile of over-flagged groups.

use crate::distributions::{bernoulli, categorical, clamped_normal, normal};
use fair_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The race groups used as fairness attributes (one-hot encoded), with their
/// approximate share of the ProPublica two-year cohort and the decile shift
/// applied by the synthetic scorer.
pub const RACE_GROUPS: [(&str, f64, f64); 6] = [
    ("african_american", 0.512, 0.13),
    ("caucasian", 0.340, -0.08),
    ("hispanic", 0.088, -0.02),
    ("other", 0.052, -0.03),
    ("asian", 0.005, -0.10),
    ("native_american", 0.003, 0.10),
];

/// Configuration of the COMPAS-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CompasConfig {
    /// Number of defendants (paper/ProPublica: 7,214).
    pub num_defendants: usize,
    /// RNG seed.
    pub seed: u64,
    /// Mean of the underlying (true) recidivism risk.
    pub base_risk_mean: f64,
    /// Standard deviation of the underlying risk.
    pub base_risk_std: f64,
    /// Observation noise added to the risk before decile assignment.
    pub score_noise: f64,
}

impl Default for CompasConfig {
    fn default() -> Self {
        Self {
            num_defendants: 7_214,
            seed: 2016,
            base_risk_mean: 0.45,
            base_risk_std: 0.22,
            score_noise: 0.10,
        }
    }
}

impl CompasConfig {
    /// A smaller cohort for tests and quick experiments.
    #[must_use]
    pub fn small(num_defendants: usize, seed: u64) -> Self {
        Self {
            num_defendants,
            seed,
            ..Self::default()
        }
    }
}

/// The COMPAS-like dataset generator.
#[derive(Debug, Clone)]
pub struct CompasGenerator {
    config: CompasConfig,
}

impl CompasGenerator {
    /// Create a generator.
    #[must_use]
    pub fn new(config: CompasConfig) -> Self {
        Self { config }
    }

    /// Generator with the paper-scale defaults (7,214 defendants).
    #[must_use]
    pub fn paper_scale() -> Self {
        Self::new(CompasConfig::default())
    }

    /// The schema: one ranking feature `decile_score` and six one-hot binary
    /// race attributes.
    ///
    /// # Panics
    /// Never panics; the schema is statically valid.
    #[must_use]
    pub fn schema() -> SchemaRef {
        let race_names: Vec<&str> = RACE_GROUPS.iter().map(|(n, _, _)| *n).collect();
        Schema::from_names(&["decile_score"], &race_names, &[]).expect("static schema is valid")
    }

    /// The ranking function used in practice: the decile score itself (higher
    /// decile = flagged as higher risk).
    #[must_use]
    pub fn decile_ranker() -> SingleFeatureRanker {
        SingleFeatureRanker::new(0)
    }

    /// The generator configuration.
    #[must_use]
    pub fn config(&self) -> &CompasConfig {
        &self.config
    }

    /// Drive the generator and hand each finished defendant row to `emit` —
    /// the shared code path behind the contiguous and shard-by-shard
    /// builders. Decile assignment needs the population rank of every
    /// observed score, so the primitive per-defendant draws (race, risk,
    /// observed score, outcome) are buffered as flat arrays; only the final
    /// emission pass materializes objects, one at a time.
    fn generate_rows(&self, mut emit: impl FnMut(DataObject)) {
        assert!(
            self.config.num_defendants > 0,
            "cohort must contain at least one defendant"
        );
        let c = &self.config;
        let mut rng = StdRng::seed_from_u64(c.seed);
        let weights: Vec<f64> = RACE_GROUPS.iter().map(|(_, share, _)| *share).collect();

        // First pass: latent risk, race, observed (biased) score, outcome.
        let n = c.num_defendants;
        let mut races = Vec::with_capacity(n);
        let mut biased_scores = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let race = categorical(&mut rng, &weights);
            let risk = clamped_normal(&mut rng, c.base_risk_mean, c.base_risk_std, 0.01, 0.99);
            let bias = RACE_GROUPS[race].2;
            let observed = normal(&mut rng, risk + bias, c.score_noise);
            let recid = bernoulli(&mut rng, risk);
            races.push(race);
            biased_scores.push(observed);
            labels.push(recid);
        }

        // Second pass: convert observed scores into population deciles (1-10).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| {
            biased_scores[a]
                .partial_cmp(&biased_scores[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut deciles = vec![0.0_f64; n];
        for (rank, &idx) in order.iter().enumerate() {
            let decile = ((rank * 10) / n) + 1;
            deciles[idx] = decile as f64;
        }

        // Emission pass: one object at a time, in id order.
        for i in 0..n {
            let mut fairness = vec![0.0; RACE_GROUPS.len()];
            fairness[races[i]] = 1.0;
            emit(DataObject::new_unchecked(
                i as u64,
                vec![deciles[i]],
                fairness,
                Some(labels[i]),
            ));
        }
    }

    /// Generate the defendant dataset.
    ///
    /// # Panics
    /// Panics if `num_defendants == 0`.
    #[must_use]
    pub fn generate(&self) -> Dataset {
        let mut dataset = Dataset::with_capacity(Self::schema(), self.config.num_defendants);
        self.generate_rows(|object| {
            dataset
                .push(object)
                .expect("generated objects match the schema");
        });
        dataset
    }

    /// Generate the defendant dataset **shard by shard**: rows append to a
    /// [`ShardedDataset`] as they are emitted, bit-for-bit identical to
    /// [`CompasGenerator::generate`] for the same seed. (The decile pass
    /// still buffers the flat per-defendant score arrays — deciles are
    /// population ranks — but no whole-cohort `Vec<DataObject>` is built.)
    ///
    /// # Errors
    /// Returns [`FairError::InvalidConfig`] if `shard_size == 0`.
    ///
    /// # Panics
    /// Panics if `num_defendants == 0`.
    pub fn generate_sharded(&self, shard_size: usize) -> Result<ShardedDataset> {
        let mut data = ShardedDataset::with_shard_size(Self::schema(), shard_size)?;
        self.generate_rows(|object| {
            data.push(object)
                .expect("generated objects match the schema");
        });
        Ok(data)
    }

    /// Stream the defendants to `emit` the moment each is assembled — the
    /// zero-materialization hook behind the on-disk store converters.
    /// Row-for-row (bit-for-bit) identical to [`CompasGenerator::generate`]
    /// for the same seed.
    ///
    /// # Panics
    /// Panics if `num_defendants == 0`.
    pub fn for_each_defendant(&self, emit: impl FnMut(DataObject)) {
        self.generate_rows(emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_core::metrics::{disparity_at_k, group_fpr_at_k};
    use fair_core::ranking::effective_scores;

    fn generate(n: usize, seed: u64) -> Dataset {
        CompasGenerator::new(CompasConfig::small(n, seed)).generate()
    }

    #[test]
    fn race_mix_matches_the_published_shares() {
        let d = generate(20_000, 1);
        for (dim, (name, share, _)) in RACE_GROUPS.iter().enumerate() {
            let freq = d.group_frequency(dim);
            assert!(
                (freq - share).abs() < 0.02,
                "{name}: generated {freq} vs published {share}"
            );
        }
    }

    #[test]
    fn deciles_cover_one_to_ten_roughly_uniformly() {
        let d = generate(10_000, 2);
        let mut counts = [0_usize; 11];
        for o in d.iter() {
            let dec = o.features()[0] as usize;
            assert!((1..=10).contains(&dec), "decile {dec}");
            counts[dec] += 1;
        }
        for (dec, &count) in counts.iter().enumerate().skip(1) {
            let share = count as f64 / d.len() as f64;
            assert!((share - 0.1).abs() < 0.02, "decile {dec} share {share}");
        }
    }

    #[test]
    fn every_defendant_is_labelled_and_one_hot_encoded() {
        let d = generate(5_000, 3);
        assert!(d.fully_labelled());
        for o in d.iter() {
            let ones = o.fairness().iter().filter(|v| **v == 1.0).count();
            let zeros = o.fairness().iter().filter(|v| **v == 0.0).count();
            assert_eq!(ones, 1);
            assert_eq!(zeros, RACE_GROUPS.len() - 1);
        }
    }

    #[test]
    fn flagged_set_overrepresents_black_defendants() {
        let d = generate(20_000, 4);
        let ranker = CompasGenerator::decile_ranker();
        let ranking =
            RankedSelection::from_scores(effective_scores(&d, &ranker, &[0.0; RACE_GROUPS.len()]));
        let disp = disparity_at_k(&d, &ranking, 0.2).unwrap();
        // Dimension 0 = african_american (over-flagged, positive disparity);
        // dimension 1 = caucasian (under-flagged, negative disparity).
        assert!(disp[0] > 0.05, "african_american disparity {:?}", disp);
        assert!(disp[1] < -0.05, "caucasian disparity {:?}", disp);
    }

    #[test]
    fn false_positive_rate_is_higher_for_black_defendants() {
        let d = generate(20_000, 5);
        let ranker = CompasGenerator::decile_ranker();
        let ranking =
            RankedSelection::from_scores(effective_scores(&d, &ranker, &[0.0; RACE_GROUPS.len()]));
        let (per_group, overall) = group_fpr_at_k(&d, &ranking, 0.3).unwrap();
        assert!(
            per_group[0] > overall,
            "AA FPR {} vs overall {overall}",
            per_group[0]
        );
        assert!(
            per_group[1] < overall,
            "Caucasian FPR {} vs overall {overall}",
            per_group[1]
        );
    }

    #[test]
    fn recidivism_rate_is_plausible() {
        let d = generate(20_000, 6);
        let recid = d.iter().filter(|o| o.label() == Some(true)).count() as f64 / d.len() as f64;
        assert!(
            (0.3..0.6).contains(&recid),
            "two-year recidivism rate {recid}"
        );
    }

    #[test]
    fn generation_is_reproducible() {
        let a = generate(1_000, 7);
        let b = generate(1_000, 7);
        assert_eq!(a.row(10), b.row(10));
    }

    #[test]
    fn sharded_generation_matches_contiguous_bit_for_bit() {
        let generator = CompasGenerator::new(CompasConfig::small(1_001, 13));
        let flat = generator.generate();
        let sharded = generator.generate_sharded(100).unwrap();
        assert_eq!(sharded.len(), flat.len());
        assert_eq!(sharded.num_shards(), 11);
        assert_eq!(sharded.shard(10).len(), 1, "non-divisible final shard");
        for i in 0..flat.len() {
            assert_eq!(sharded.row(i), flat.row(i), "row {i}");
        }
        assert!(sharded.fully_labelled());
    }

    #[test]
    fn paper_scale_has_7214_defendants() {
        let d = CompasGenerator::paper_scale().generate();
        assert_eq!(d.len(), 7_214);
    }

    #[test]
    #[should_panic(expected = "at least one defendant")]
    fn empty_cohort_panics() {
        let _ = CompasGenerator::new(CompasConfig::small(0, 1)).generate();
    }
}

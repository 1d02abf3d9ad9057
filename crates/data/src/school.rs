//! Synthetic NYC-school-like admission cohorts (Section V-A of the paper).
//!
//! The real dataset — grades, test scores, absences and demographics of about
//! 80,000 NYC 7th graders per academic year — is restricted (NYC DOE data
//! request + IRB). This generator reproduces the population structure the
//! paper reports so that every school experiment can be regenerated:
//!
//! * **Low-income**: ~70% of students,
//! * **ELL** (English language learners): ~10% — the rarest group, which is
//!   what drives the paper's sample-size choice of 500,
//! * **Special education**: ~20%,
//! * **ENI** (Economic Need Index of the student's school): continuous in
//!   `[0, 1]`, correlated with the district's poverty level,
//! * ranking features `gpa` and `test_scores` on a 0–100 scale, generated from
//!   a shared latent ability that is *shifted down* for disadvantaged groups —
//!   this is the bias that produces the baseline disparity row of Table I
//!   (≈ −0.25 low-income, −0.11 ELL, −0.18 ENI, −0.19 special-ed, norm ≈ 0.37
//!   at a 5% selection).
//!
//! Students are also assigned to one of [`SCHOOL_DISTRICTS`] districts with a
//! district-specific poverty level; [`SchoolCohort::district`] extracts a
//! single district (~2,500 students at the default size), which is how the
//! paper runs its Multinomial FA\*IR comparison (Table II).

use crate::distributions::{bernoulli, clamped_normal, normal};
use fair_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of school districts students are spread across (NYC has 32
/// community school districts).
pub const SCHOOL_DISTRICTS: usize = 32;

/// Configuration of the school-cohort generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SchoolConfig {
    /// Number of students per cohort (the paper's cohorts are ~80,000; the
    /// default is 80,000, experiments may use fewer for speed).
    pub num_students: usize,
    /// RNG seed; two cohorts with different seeds model two academic years.
    pub seed: u64,
    /// Fraction of low-income students (paper: 70%).
    pub low_income_rate: f64,
    /// Fraction of English language learners (paper: the rarest group, ~10%).
    pub ell_rate: f64,
    /// Fraction of students receiving special-education services (~20%).
    pub special_ed_rate: f64,
    /// Mean of the latent ability distribution (0–100 scale).
    pub ability_mean: f64,
    /// Standard deviation of the latent ability distribution.
    pub ability_std: f64,
    /// Ability penalty applied to low-income students.
    pub low_income_shift: f64,
    /// Additional test-score penalty applied to ELL students (ELA-heavy
    /// rubrics disadvantage English learners).
    pub ell_shift: f64,
    /// Ability penalty applied to special-education students.
    pub special_ed_shift: f64,
    /// Ability penalty per unit of ENI above the city-wide average.
    pub eni_shift: f64,
}

impl Default for SchoolConfig {
    fn default() -> Self {
        Self {
            num_students: 80_000,
            seed: 2016,
            low_income_rate: 0.70,
            ell_rate: 0.10,
            special_ed_rate: 0.20,
            ability_mean: 68.0,
            ability_std: 14.0,
            low_income_shift: 5.0,
            ell_shift: 24.0,
            special_ed_shift: 14.0,
            eni_shift: 28.0,
        }
    }
}

impl SchoolConfig {
    /// A smaller cohort (useful for tests and quick experiments) with the same
    /// bias structure.
    #[must_use]
    pub fn small(num_students: usize, seed: u64) -> Self {
        Self {
            num_students,
            seed,
            ..Self::default()
        }
    }
}

/// A generated cohort: the dataset plus each student's district assignment.
#[derive(Debug, Clone)]
pub struct SchoolCohort {
    dataset: Dataset,
    districts: Vec<u16>,
}

impl SchoolCohort {
    /// The full cohort dataset.
    #[must_use]
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Consume the cohort and return the dataset.
    #[must_use]
    pub fn into_dataset(self) -> Dataset {
        self.dataset
    }

    /// District assignment of each student (parallel to the dataset's object
    /// order), in `0..SCHOOL_DISTRICTS`.
    #[must_use]
    pub fn districts(&self) -> &[u16] {
        &self.districts
    }

    /// The sub-dataset of one district (used for the Table II comparison on a
    /// single district of ~2,500 students).
    ///
    /// # Panics
    /// Panics if `district >= SCHOOL_DISTRICTS`.
    #[must_use]
    pub fn district(&self, district: u16) -> Dataset {
        assert!(
            (district as usize) < SCHOOL_DISTRICTS,
            "district out of range"
        );
        let member: Vec<bool> = self.districts.iter().map(|d| *d == district).collect();
        let mut idx = 0;
        self.dataset.filter(|_| {
            let keep = member[idx];
            idx += 1;
            keep
        })
    }
}

/// A cohort generated straight into the sharded column store: the sharded
/// dataset plus each student's district assignment (parallel to global row
/// order).
#[derive(Debug, Clone)]
pub struct ShardedSchoolCohort {
    data: ShardedDataset,
    districts: Vec<u16>,
}

impl ShardedSchoolCohort {
    /// The sharded cohort.
    #[must_use]
    pub fn dataset(&self) -> &ShardedDataset {
        &self.data
    }

    /// Consume the cohort and return the sharded dataset.
    #[must_use]
    pub fn into_dataset(self) -> ShardedDataset {
        self.data
    }

    /// District assignment of each student, in global row order.
    #[must_use]
    pub fn districts(&self) -> &[u16] {
        &self.districts
    }
}

/// The generator itself. Construct with a [`SchoolConfig`], then call
/// [`SchoolGenerator::generate`] (one cohort),
/// [`SchoolGenerator::generate_sharded`] (the same cohort emitted
/// shard-by-shard), or [`SchoolGenerator::train_test_cohorts`] (two cohorts
/// with different seeds, modelling consecutive academic years as in the
/// paper).
#[derive(Debug, Clone)]
pub struct SchoolGenerator {
    config: SchoolConfig,
}

impl SchoolGenerator {
    /// Create a generator.
    #[must_use]
    pub fn new(config: SchoolConfig) -> Self {
        Self { config }
    }

    /// Generator with the paper-scale defaults (80,000 students).
    #[must_use]
    pub fn paper_scale() -> Self {
        Self::new(SchoolConfig::default())
    }

    /// The schema shared by every school cohort:
    /// features `gpa`, `test_scores`; fairness `low_income`, `ell`,
    /// `special_ed` (binary) and `eni` (continuous).
    ///
    /// # Panics
    /// Never panics; the schema is statically valid.
    #[must_use]
    pub fn schema() -> SchemaRef {
        Schema::from_names(
            &["gpa", "test_scores"],
            &["low_income", "ell", "special_ed"],
            &["eni"],
        )
        .expect("static schema is valid")
    }

    /// The school admission rubric of the paper:
    /// `f = 0.55 * GPA + 0.45 * TestScores`.
    ///
    /// # Panics
    /// Never panics; the weights are statically valid.
    #[must_use]
    pub fn rubric() -> WeightedSumRanker {
        WeightedSumRanker::new(vec![0.55, 0.45]).expect("static weights are valid")
    }

    /// The generator configuration.
    #[must_use]
    pub fn config(&self) -> &SchoolConfig {
        &self.config
    }

    /// Poverty level of a district: districts are spread over `[0.5, 0.9]`
    /// so the city-wide low-income average lands near the configured rate.
    fn district_poverty(&self, district: u16) -> f64 {
        let span = SCHOOL_DISTRICTS as f64 - 1.0;
        let position = f64::from(district) / span;
        // Center the poverty range on the configured low-income rate.
        let center = self.config.low_income_rate;
        (center - 0.2 + 0.4 * position).clamp(0.05, 0.95)
    }

    /// Drive the row generator, handing each student (and their district) to
    /// `emit` as soon as it is drawn — the single code path behind both the
    /// contiguous and the shard-by-shard cohort builders, so they are
    /// row-for-row (bit-for-bit) identical for the same seed.
    fn generate_rows(&self, mut emit: impl FnMut(DataObject, u16)) {
        assert!(
            self.config.num_students > 0,
            "cohort must contain at least one student"
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let c = &self.config;

        for id in 0..c.num_students as u64 {
            let district = rng.gen_range(0..SCHOOL_DISTRICTS as u16);
            let poverty = self.district_poverty(district);

            let low_income = bernoulli(&mut rng, poverty);
            // ELL students concentrate in higher-poverty districts.
            let ell_p = c.ell_rate * poverty / c.low_income_rate.max(1e-9);
            let ell = bernoulli(&mut rng, ell_p);
            let special_ed = bernoulli(&mut rng, c.special_ed_rate);
            // School-level ENI tracks the district poverty with some spread;
            // low-income students attend slightly higher-ENI schools.
            let eni = clamped_normal(
                &mut rng,
                poverty + if low_income { 0.05 } else { -0.05 },
                0.08,
                0.0,
                1.0,
            );

            let mut ability = normal(&mut rng, c.ability_mean, c.ability_std);
            if low_income {
                ability -= c.low_income_shift;
            }
            if special_ed {
                ability -= c.special_ed_shift;
            }
            ability -= c.eni_shift * (eni - 0.5);

            let gpa = clamped_normal(&mut rng, ability, 6.0, 0.0, 100.0);
            let mut test = normal(&mut rng, ability, 9.0);
            if ell {
                test -= c.ell_shift;
            }
            let test = test.clamp(0.0, 100.0);

            let fairness = vec![
                f64::from(u8::from(low_income)),
                f64::from(u8::from(ell)),
                f64::from(u8::from(special_ed)),
                eni,
            ];
            emit(
                DataObject::new_unchecked(id, vec![gpa, test], fairness, None),
                district,
            );
        }
    }

    /// Generate one cohort.
    ///
    /// # Panics
    /// Panics if `num_students == 0`.
    #[must_use]
    pub fn generate(&self) -> SchoolCohort {
        let c = &self.config;
        let mut dataset = Dataset::with_capacity(Self::schema(), c.num_students);
        let mut districts = Vec::with_capacity(c.num_students);
        self.generate_rows(|object, district| {
            dataset
                .push(object)
                .expect("generated objects match the schema");
            districts.push(district);
        });
        SchoolCohort { dataset, districts }
    }

    /// Generate one cohort **shard by shard**: each student is appended to a
    /// [`ShardedDataset`] the moment it is drawn, so no whole-cohort
    /// `Vec<DataObject>` ever exists and the peak transient memory is one
    /// shard. Rows are bit-for-bit identical to [`SchoolGenerator::generate`]
    /// for the same seed.
    ///
    /// # Errors
    /// Returns [`FairError::InvalidConfig`] if `shard_size == 0`.
    ///
    /// # Panics
    /// Panics if `num_students == 0`.
    pub fn generate_sharded(&self, shard_size: usize) -> Result<ShardedSchoolCohort> {
        let mut data = ShardedDataset::with_shard_size(Self::schema(), shard_size)?;
        let mut districts = Vec::with_capacity(self.config.num_students);
        self.generate_rows(|object, district| {
            data.push(object)
                .expect("generated objects match the schema");
            districts.push(district);
        });
        Ok(ShardedSchoolCohort { data, districts })
    }

    /// Stream the cohort's students to `emit` (with their district
    /// assignment) the moment each is drawn — the zero-materialization hook
    /// behind the on-disk store converters. Row-for-row (bit-for-bit)
    /// identical to [`SchoolGenerator::generate`] for the same seed.
    ///
    /// # Panics
    /// Panics if `num_students == 0`.
    pub fn for_each_student(&self, emit: impl FnMut(DataObject, u16)) {
        self.generate_rows(emit);
    }

    /// Generate a training cohort and a test cohort from consecutive seeds —
    /// the paper's 2016-17 (training) and 2017-18 (test) academic years.
    #[must_use]
    pub fn train_test_cohorts(&self) -> (SchoolCohort, SchoolCohort) {
        let train = self.generate();
        let mut test_config = self.config.clone();
        test_config.seed = self.config.seed.wrapping_add(1);
        let test = SchoolGenerator::new(test_config).generate();
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_core::metrics::{disparity_at_k, norm};
    use fair_core::ranking::effective_scores;

    fn small_cohort(n: usize, seed: u64) -> SchoolCohort {
        SchoolGenerator::new(SchoolConfig::small(n, seed)).generate()
    }

    #[test]
    fn group_frequencies_match_the_published_marginals() {
        let cohort = small_cohort(40_000, 1);
        let d = cohort.dataset();
        let li = d.group_frequency(0);
        let ell = d.group_frequency(1);
        let sped = d.group_frequency(2);
        assert!((li - 0.70).abs() < 0.03, "low-income {li}");
        assert!((ell - 0.10).abs() < 0.02, "ell {ell}");
        assert!((sped - 0.20).abs() < 0.02, "special-ed {sped}");
    }

    #[test]
    fn eni_is_continuous_and_correlated_with_low_income() {
        let cohort = small_cohort(20_000, 2);
        let d = cohort.dataset();
        let mut li_eni = (0.0, 0_usize);
        let mut other_eni = (0.0, 0_usize);
        for o in d.iter() {
            let eni = o.fairness()[3];
            assert!((0.0..=1.0).contains(&eni));
            if o.in_group(0) {
                li_eni.0 += eni;
                li_eni.1 += 1;
            } else {
                other_eni.0 += eni;
                other_eni.1 += 1;
            }
        }
        let li_mean = li_eni.0 / li_eni.1 as f64;
        let other_mean = other_eni.0 / other_eni.1 as f64;
        assert!(
            li_mean > other_mean + 0.03,
            "ENI must correlate with low income: {li_mean} vs {other_mean}"
        );
    }

    #[test]
    fn baseline_disparity_shape_matches_table_one() {
        let cohort = small_cohort(40_000, 3);
        let d = cohort.dataset();
        let rubric = SchoolGenerator::rubric();
        let ranking = RankedSelection::from_scores(effective_scores(d, &rubric, &[0.0; 4]));
        let disp = disparity_at_k(d, &ranking, 0.05).unwrap();
        // Every disadvantaged dimension must be clearly under-represented.
        assert!(disp.iter().all(|v| *v < -0.03), "{disp:?}");
        // The overall norm should be in the vicinity of the paper's 0.37.
        let n = norm(&disp);
        assert!((0.2..=0.55).contains(&n), "norm {n}");
        // Low-income should be the largest single gap, as in Table I.
        assert!(disp[0] <= disp[1] && disp[0] <= disp[2], "{disp:?}");
    }

    #[test]
    fn cohorts_are_reproducible_and_seed_sensitive() {
        let a = small_cohort(2_000, 5);
        let b = small_cohort(2_000, 5);
        let c = small_cohort(2_000, 6);
        assert_eq!(a.dataset().row(0), b.dataset().row(0));
        assert_ne!(a.dataset().row(0), c.dataset().row(0));
    }

    #[test]
    fn train_and_test_cohorts_share_structure_but_not_samples() {
        let (train, test) =
            SchoolGenerator::new(SchoolConfig::small(10_000, 7)).train_test_cohorts();
        assert_eq!(train.dataset().len(), test.dataset().len());
        assert_ne!(train.dataset().row(0), test.dataset().row(0));
        // Marginals stay comparable between years.
        let li_train = train.dataset().group_frequency(0);
        let li_test = test.dataset().group_frequency(0);
        assert!((li_train - li_test).abs() < 0.03);
    }

    #[test]
    fn districts_partition_the_cohort() {
        let cohort = small_cohort(20_000, 9);
        let total: usize = (0..SCHOOL_DISTRICTS as u16)
            .map(|d| cohort.district(d).len())
            .sum();
        assert_eq!(total, cohort.dataset().len());
        // District sizes are roughly balanced (20k / 32 ≈ 625).
        let d0 = cohort.district(0).len();
        assert!((300..=1000).contains(&d0), "district size {d0}");
        assert_eq!(cohort.districts().len(), cohort.dataset().len());
    }

    #[test]
    fn high_poverty_districts_have_more_low_income_students() {
        let cohort = small_cohort(30_000, 11);
        let poor = cohort.district(31);
        let rich = cohort.district(0);
        assert!(poor.group_frequency(0) > rich.group_frequency(0) + 0.1);
    }

    #[test]
    fn features_are_on_the_percentage_scale() {
        let cohort = small_cohort(5_000, 13);
        for o in cohort.dataset().iter() {
            for f in o.features() {
                assert!((0.0..=100.0).contains(f));
            }
        }
    }

    #[test]
    fn sharded_generation_matches_contiguous_bit_for_bit() {
        let generator = SchoolGenerator::new(SchoolConfig::small(1_000, 17));
        let flat = generator.generate();
        let sharded = generator.generate_sharded(64).unwrap();
        assert_eq!(sharded.dataset().len(), flat.dataset().len());
        assert_eq!(sharded.dataset().num_shards(), 16, "1000 rows / 64");
        assert_eq!(sharded.districts(), flat.districts());
        for i in 0..flat.dataset().len() {
            assert_eq!(sharded.dataset().row(i), flat.dataset().row(i), "row {i}");
        }
        let back = sharded.into_dataset().to_dataset();
        assert_eq!(back.len(), 1_000);
    }

    #[test]
    #[should_panic(expected = "district out of range")]
    fn out_of_range_district_panics() {
        let cohort = small_cohort(100, 1);
        let _ = cohort.district(99);
    }

    #[test]
    #[should_panic(expected = "at least one student")]
    fn empty_cohort_panics() {
        let _ = SchoolGenerator::new(SchoolConfig::small(0, 1)).generate();
    }
}

//! # fair-ranking — explainable disparity compensation for efficient fair ranking
//!
//! Umbrella crate for the Rust reproduction of *Explainable Disparity
//! Compensation for Efficient Fair Ranking* (Gale & Marian, ICDE 2024). It
//! re-exports the member crates so applications can depend on a single crate:
//!
//! * [`core`] ([`fair_core`]) — data model, fairness metrics, and the
//!   Disparity Compensation Algorithm (DCA),
//! * [`opt`] ([`fair_opt`]) — the Adam optimizer and the rolling-window average,
//! * [`data`] ([`fair_data`]) — synthetic NYC-school and COMPAS-like dataset
//!   generators, CSV I/O, splits,
//! * [`baselines`] ([`fair_baselines`]) — quota set-asides, Multinomial
//!   FA\*IR, and the (Δ+2)-approximation re-ranker,
//! * [`matching`] ([`fair_matching`]) — deferred-acceptance school choice,
//! * [`store`] ([`fair_store`]) — the persistent on-disk columnar shard store
//!   with a byte-budgeted shard cache for out-of-core evaluation,
//! * [`serve`] ([`fair_serve`]) — the concurrent audit service: store
//!   catalog, synchronous metric endpoints, background DCA jobs, and the
//!   wire protocol + typed client.
//!
//! ## Quickstart
//!
//! ```
//! use fair_ranking::prelude::*;
//!
//! // Generate a small school-like cohort and learn bonus points for a 5%
//! // selection.
//! let cohort = SchoolGenerator::new(SchoolConfig::small(4_000, 1)).generate();
//! let rubric = SchoolGenerator::rubric();
//! let config = DcaConfig {
//!     sample_size: 400,
//!     iterations_per_rate: 30,
//!     refinement_iterations: 30,
//!     rolling_window: 30,
//!     ..DcaConfig::default()
//! };
//! let result = Dca::new(config)
//!     .run(cohort.dataset(), &rubric, &TopKDisparity::new(0.05))
//!     .unwrap();
//! println!("{}", result.bonus.explain());
//! assert!(result.report.disparity_after.norm() < result.report.disparity_before.norm());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use fair_baselines as baselines;
pub use fair_core as core;
pub use fair_data as data;
pub use fair_matching as matching;
pub use fair_opt as opt;
pub use fair_serve as serve;
pub use fair_store as store;

/// One-stop import for applications: everything from the core prelude plus
/// the dataset generators, baselines, and the matching simulator.
pub mod prelude {
    pub use fair_baselines::{
        binomial_mtable, caps_excluding_group, cartesian_subgroups, celis_rerank,
        most_disadvantaged_subgroups, quota_select, CelisConstraint, FaStarConfig, FaStarRanker,
        ProtectedGroup, QuotaConfig, Subgroup,
    };
    pub use fair_core::prelude::*;
    pub use fair_data::{
        holdout_split, stratified_split, CompasConfig, CompasGenerator, DatasetSummary,
        SchoolConfig, SchoolGenerator, RACE_GROUPS, SCHOOL_DISTRICTS,
    };
    pub use fair_matching::{
        deferred_acceptance, is_stable, AdmissionsOutcome, Matching, SchoolChoiceConfig,
        SchoolChoiceSimulator, SchoolRanking, StudentPreferences,
    };
    pub use fair_opt::{Adam, AdamConfig, RollingWindow};
    pub use fair_store::{write_source, CacheStats, ShardStore, StoreError, StoreWriter};
}

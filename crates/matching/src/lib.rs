//! # fair-matching — deferred-acceptance school-choice substrate
//!
//! NYC high-school admissions (the paper's motivating application, Section
//! III-A) run a student-proposing deferred-acceptance match: students submit
//! preference lists, schools rank applicants with their own rubrics, and the
//! Gale–Shapley algorithm produces a stable assignment. Because the match
//! decides "how far down its list a school will accept students", the
//! effective selection fraction `k` of each school is unknown in advance —
//! which is exactly why the paper introduces the logarithmically discounted
//! variant of DCA.
//!
//! This crate implements the substrate so the library can demonstrate DCA
//! inside a full admissions pipeline:
//!
//! * [`preferences`] — student preference lists and school ranking lists,
//! * [`deferred_acceptance`](mod@deferred_acceptance) — the student-proposing Gale–Shapley algorithm
//!   with a stability checker,
//! * [`school_choice`] — glue that builds school rankings from
//!   [`fair_core`] rubrics (optionally with per-school bonus vectors),
//!   simulates student preferences, runs the match, and reports per-school
//!   disparity.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::all)]

pub mod deferred_acceptance;
pub mod preferences;
pub mod school_choice;

pub use deferred_acceptance::{deferred_acceptance, is_stable, Matching};
pub use preferences::{SchoolRanking, StudentPreferences};
pub use school_choice::{AdmissionsOutcome, SchoolChoiceConfig, SchoolChoiceSimulator};

//! # fair-store — persistent on-disk columnar shard store
//!
//! This crate lets a cohort live on disk and still be evaluated by every
//! sharded metric, ranking kernel, and DCA driver in `fair-core`, with
//! memory bounded by a cache budget — the out-of-core storage subsystem of
//! the reproduction.
//!
//! * **FSS1 format** ([`format`](mod@format)): a binary columnar layout — file header
//!   with a schema hash and a shard directory, then per-shard blocks cut
//!   into [`format::GROUP_ROWS`]-row groups, each group's column slices
//!   (ids, features, fairness, labels) stored together, each slice with
//!   its own CRC32 (version 3, group-major). A sampled row costs reading
//!   and verifying its 8-row group, about half a kilobyte of a COMPAS or
//!   school store, for two CRC bytes per row. Every file records its own
//!   group size, so files written with 32-row groups, version-2 files (the
//!   same slices column-major) and version-1 files (one CRC per column
//!   block) stay readable. Std-only; no compression, no external
//!   dependencies.
//! * **[`StoreWriter`]** ([`writer`]): streaming writes — shards are encoded
//!   and appended as they are built ([`StoreWriter::push`] buffers single
//!   rows, [`StoreWriter::append_shard`] takes whole blocks), and
//!   [`StoreWriter::finalize`] writes the directory; the cohort is never
//!   materialized.
//! * **[`ShardStore`]** ([`reader`]): the paging reader. It validates the
//!   whole layout at open, then decodes shards on demand, on the asking
//!   thread, through a byte-budgeted cache (the budget is an argument of
//!   [`ShardStore::open_with_budget`], [`DEFAULT_CACHE_BYTES`] for
//!   [`ShardStore::open`]) that evicts the highest-index unpinned shard
//!   first, so ascending sweeps keep the lowest shards resident from one
//!   sweep to the next. It pins shards while they are borrowed and counts
//!   hits, misses, evictions and peak bytes. Row gathers
//!   ([`ShardStore::read_rows`]) copy from resident shards and otherwise
//!   read, verify and decode only the row groups they need — one
//!   positional read per run of adjacent groups — leaving the cache
//!   untouched.
//!
//! `ShardStore` implements [`fair_core::ShardSource`], so evaluation code is
//! storage-agnostic:
//!
//! ```no_run
//! use fair_core::metrics::sharded as shmetrics;
//! use fair_core::prelude::*;
//! use fair_store::{write_source, ShardStore};
//!
//! # fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
//! # let cohort: ShardedDataset = unimplemented!();
//! // Persist an in-memory cohort, then evaluate it straight off the disk.
//! write_source(&cohort, "cohort.fss")?;
//! let store = ShardStore::open("cohort.fss")?; // DEFAULT_CACHE_BYTES budget
//! let ranker = WeightedSumRanker::new(vec![1.0])?;
//! let disparity = shmetrics::disparity_at_k(&store, &ranker, &[0.0], 0.05)?;
//! println!("{disparity:?}  (cache: {:?})", store.cache_stats());
//! # Ok(()) }
//! ```
//!
//! Results are **bit-for-bit identical** to evaluating the in-memory
//! [`fair_core::ShardedDataset`] at the same shard size: a decoded shard is
//! exactly the bytes that were written (f64 bit patterns round-trip through
//! the file), and the engine's ordered combine is storage-independent.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::all)]

pub mod error;
pub mod format;
pub mod reader;
pub mod writer;

pub use error::{Result, StoreError};
#[allow(deprecated)]
pub use reader::DEFAULT_PREFETCH;
pub use reader::{column_bytes, CacheStats, ShardStore, DEFAULT_CACHE_BYTES};
pub use writer::{write_source, StoreSummary, StoreWriter};

//! # fair-store — persistent on-disk columnar shard store
//!
//! This crate lets a cohort live on disk and still be evaluated by every
//! sharded metric, ranking kernel, and DCA driver in `fair-core`, with
//! memory bounded by a cache budget — the out-of-core storage subsystem of
//! the reproduction.
//!
//! * **FSS1 format** ([`format`](mod@format)): a binary columnar layout — file header
//!   with a schema hash and a shard directory, then per-shard contiguous
//!   column blocks (ids, features, fairness, labels), each CRC32-checksummed.
//!   Std-only; no compression, no external dependencies.
//! * **[`StoreWriter`]** ([`writer`]): streaming writes — shards are encoded
//!   and appended as they are built ([`StoreWriter::push`] buffers single
//!   rows, [`StoreWriter::append_shard`] takes whole blocks), and
//!   [`StoreWriter::finalize`] writes the directory; the cohort is never
//!   materialized.
//! * **[`ShardStore`]** ([`reader`]): the paging reader. It validates the
//!   whole layout at open, then decodes shards on demand through a
//!   byte-budgeted LRU cache (`FAIR_CACHE_BYTES`, default 256 MiB) with
//!   pin-while-borrowed semantics and hit/miss/eviction/peak-bytes counters.
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
//! let store = ShardStore::open("cohort.fss")?; // FAIR_CACHE_BYTES budget
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
pub use reader::{
    column_bytes, default_cache_bytes, default_prefetch, CacheStats, ShardStore,
    DEFAULT_CACHE_BYTES, DEFAULT_PREFETCH,
};
pub use writer::{write_source, StoreSummary, StoreWriter};

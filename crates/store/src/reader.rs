//! [`ShardStore`]: the paging reader over an FSS1 file, with a byte-budgeted
//! LRU shard cache.
//!
//! Opening a store validates the header, the embedded schema (checksum *and*
//! schema hash), and the shard directory (checksum, offsets, block bounds,
//! row counts) — so after a successful open, the only way a page-in can fail
//! is genuine data corruption, which the per-block CRCs catch before any byte
//! is interpreted. Shards decode on demand through the cache:
//!
//! * **byte budget** — `FAIR_CACHE_BYTES` (default 256 MiB) bounds the
//!   resident column bytes; the least-recently-used unpinned shard is evicted
//!   *before* a new one is admitted, so the resident set never outgrows the
//!   budget beyond the currently pinned working set;
//! * **pin while borrowed** — [`fair_core::ShardSource::with_shard`] pins the
//!   shard for the duration of the kernel closure; a pinned shard is never
//!   evicted, so a parallel worker can never have its block freed mid-kernel;
//! * **readahead** — the metric sweeps walk shards in ascending order, so a
//!   background decode thread ([`default_prefetch`], `FAIR_PREFETCH`)
//!   prefetches the next shards' column blocks while kernels consume the
//!   current one. Prefetched shards are admitted unpinned and strictly
//!   within the budget (a prefetch never displaces the pinned working set or
//!   overflows the budget), an on-demand access waits for an in-flight
//!   prefetch decode instead of decoding the block a second time, and the
//!   `prefetch_hits` / `prefetch_wasted` counters make the readahead's value
//!   observable;
//! * **one sweep at a time** — whole-store sweeps
//!   ([`fair_core::ShardSource::map_shards`]) queue on a per-store lock
//!   instead of interleaving, so a sweep decodes the same shards whatever
//!   the timing of concurrent callers;
//! * **observability** — hit/miss/eviction counters and a peak-resident-bytes
//!   high-water mark ([`ShardStore::cache_stats`]) make the out-of-core
//!   claim testable: evaluating a cohort larger than the budget must leave
//!   `peak_bytes <= budget`. The counters are homed in the process-wide
//!   [`fair_core::obs`] registry (`fair_store_*` series, summed across every
//!   open store, scraped at `GET /metrics`); [`CacheStats`] stays as the
//!   exact per-store view.

use crate::error::{Result, StoreError};
use crate::format::{
    crc32, decode_directory, decode_schema, fnv1a64, shard_block_len, Header, ShardEntry,
    DIR_ENTRY_LEN, HEADER_LEN,
};
use fair_core::{obs, Dataset, ObjectId, SchemaRef, ShardSource, ShardView};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

/// Default cache budget (bytes) when `FAIR_CACHE_BYTES` is not set.
pub const DEFAULT_CACHE_BYTES: usize = 256 * 1024 * 1024;

/// Default readahead depth (shards) when `FAIR_PREFETCH` is not set: one
/// shard of pipeline headroom beyond the one being decoded.
pub const DEFAULT_PREFETCH: usize = 2;

/// The readahead depth: the `FAIR_PREFETCH` environment variable when set to
/// an unsigned integer (`0` disables the background decode thread entirely),
/// [`DEFAULT_PREFETCH`] otherwise.
#[must_use]
pub fn default_prefetch() -> usize {
    std::env::var("FAIR_PREFETCH")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_PREFETCH)
}

/// The shard-cache byte budget: the `FAIR_CACHE_BYTES` environment variable
/// when set to an unsigned integer (`0` disables retention entirely — every
/// unpinned shard is evicted immediately, forcing a re-page on each access,
/// which CI uses to hammer the eviction path), [`DEFAULT_CACHE_BYTES`]
/// otherwise.
#[must_use]
pub fn default_cache_bytes() -> usize {
    std::env::var("FAIR_CACHE_BYTES")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_CACHE_BYTES)
}

/// Column bytes of a decoded shard: the ids, feature, fairness, and label
/// columns (the payload the cache budget accounts; `Vec` headers and the
/// `Arc` are excluded).
#[must_use]
pub fn column_bytes(data: &Dataset) -> usize {
    let per_row = 8 * (data.schema().num_features() + data.schema().num_fairness()) + 8 + 1;
    data.len() * per_row
}

/// A point-in-time snapshot of the shard cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses served from the cache.
    pub hits: u64,
    /// Accesses that had to page the shard in from disk.
    pub misses: u64,
    /// Shards evicted to stay within the byte budget.
    pub evictions: u64,
    /// Column bytes currently resident.
    pub resident_bytes: usize,
    /// High-water mark of [`CacheStats::resident_bytes`] over the store's
    /// lifetime — the number the out-of-core acceptance test pins under the
    /// budget.
    pub peak_bytes: usize,
    /// Shards currently pinned by in-flight kernels.
    pub pinned_shards: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
    /// Cache hits that were served from a shard the readahead thread decoded
    /// before any kernel asked for it.
    pub prefetch_hits: u64,
    /// Prefetched shards that were decoded but never used: either evicted
    /// untouched, or dropped at admission because the budget was consumed by
    /// the pinned working set.
    pub prefetch_wasted: u64,
    /// Background decodes that panicked. The panic is contained in the
    /// readahead thread and surfaced to the next reader of that shard as a
    /// structured error instead of a hang.
    pub decode_poisoned: u64,
}

struct CacheEntry {
    data: Arc<Dataset>,
    bytes: usize,
    pins: usize,
    last_used: u64,
    /// Admitted by the readahead thread and not yet touched by a kernel.
    prefetched: bool,
}

/// Handles into the process-wide [`fair_core::obs`] registry, resolved once
/// per store open. Every open store shares the same `fair_store_*` series
/// (the registry deduplicates by name), so `/metrics` reports process totals
/// while [`CacheStats`] keeps the exact per-store view.
struct CacheObs {
    hits: Arc<obs::Counter>,
    misses: Arc<obs::Counter>,
    evictions: Arc<obs::Counter>,
    prefetch_hits: Arc<obs::Counter>,
    prefetch_wasted: Arc<obs::Counter>,
    decode_poisoned: Arc<obs::Counter>,
    resident_bytes: Arc<obs::Gauge>,
}

impl Default for CacheObs {
    fn default() -> Self {
        Self {
            hits: obs::counter("fair_store_cache_hits_total", &[]),
            misses: obs::counter("fair_store_cache_misses_total", &[]),
            evictions: obs::counter("fair_store_cache_evictions_total", &[]),
            prefetch_hits: obs::counter("fair_store_prefetch_hits_total", &[]),
            prefetch_wasted: obs::counter("fair_store_prefetch_wasted_total", &[]),
            decode_poisoned: obs::counter("fair_store_decode_poisoned_total", &[]),
            resident_bytes: obs::gauge("fair_store_resident_bytes", &[]),
        }
    }
}

#[derive(Default)]
struct CacheState {
    obs: CacheObs,
    entries: HashMap<usize, CacheEntry>,
    tick: u64,
    resident: usize,
    peak: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    prefetch_hits: u64,
    prefetch_wasted: u64,
    /// Shard indices queued for the readahead thread, in request order.
    queue: VecDeque<usize>,
    /// Shards currently being decoded (by the readahead thread or an
    /// on-demand pin). An access to an in-flight shard waits on the condvar
    /// instead of decoding the same block a second time.
    inflight: HashSet<usize>,
    /// Panic messages of background decodes that blew up, keyed by shard.
    /// The next reader of the shard consumes the entry as a structured
    /// error; a retry after that decodes on demand as usual.
    poisoned: HashMap<usize, String>,
    /// Running count of contained background-decode panics.
    decode_poisoned: u64,
    /// Set on drop to shut the readahead thread down.
    stop: bool,
    /// The most recently pinned shard index. The readahead thread drops
    /// queued work that is no longer within the prefetch window of this
    /// position — decoding a shard the sweep has already passed (or that a
    /// restarted sweep left behind) would only evict useful residents.
    last_access: usize,
}

/// Positional reads shared by concurrent page-ins.
struct StoreFile {
    file: File,
    #[cfg(not(unix))]
    lock: Mutex<()>,
}

impl StoreFile {
    fn new(file: File) -> Self {
        Self {
            file,
            #[cfg(not(unix))]
            lock: Mutex::new(()),
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let _guard = self.lock.lock().expect("file lock poisoned");
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)
        }
    }
}

/// Everything the paging and readahead machinery needs, shared between the
/// store handle and the background prefetch thread.
struct StoreInner {
    file: StoreFile,
    /// The opened path, used as the fault-injection context so a `FAIR_FAULT`
    /// spec can target one store (and one shard, via `#shardN`) by substring.
    path: String,
    schema: SchemaRef,
    shard_size: usize,
    total_rows: usize,
    directory: Vec<ShardEntry>,
    budget: usize,
    /// Readahead depth in shards; `0` means no background thread exists.
    prefetch: usize,
    cache: Mutex<CacheState>,
    /// Wakes pins waiting for an in-flight decode of the shard they need.
    cond: Condvar,
    /// Wakes the readahead thread when new work lands on the queue. A
    /// separate condvar keeps on-demand misses from waking the (usually
    /// idle) prefetcher — a pointless context switch per page-in otherwise.
    work: Condvar,
}

/// An open FSS1 shard file: validated layout, on-demand shard paging, the
/// LRU cache, and optional background readahead. Implements [`ShardSource`],
/// so every sharded metric, ranking kernel, and DCA driver evaluates
/// straight off the disk file with memory bounded by the cache budget.
pub struct ShardStore {
    inner: Arc<StoreInner>,
    prefetcher: Option<std::thread::JoinHandle<()>>,
    /// Held for the length of a whole-store sweep
    /// ([`ShardSource::map_shards`]), so sweeps run one at a time.
    sweep: Mutex<()>,
}

impl std::fmt::Debug for ShardStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardStore")
            .field("rows", &self.inner.total_rows)
            .field("shards", &self.inner.directory.len())
            .field("shard_size", &self.inner.shard_size)
            .field("budget_bytes", &self.inner.budget)
            .field("prefetch", &self.inner.prefetch)
            .finish()
    }
}

impl Drop for ShardStore {
    fn drop(&mut self) {
        if let Some(handle) = self.prefetcher.take() {
            {
                let mut st = match self.inner.cache.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                st.stop = true;
            }
            self.inner.cond.notify_all();
            self.inner.work.notify_all();
            let _ = handle.join();
        }
        // The registry outlives the store: return this store's resident
        // bytes so the process-wide gauge keeps summing only open stores.
        let st = match self.inner.cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        st.obs
            .resident_bytes
            .sub(i64::try_from(st.resident).unwrap_or(i64::MAX));
    }
}

impl ShardStore {
    /// Open a store with the environment-resolved cache budget
    /// ([`default_cache_bytes`]) and readahead depth ([`default_prefetch`]).
    ///
    /// # Errors
    /// Returns a structured error for any I/O failure or any header, schema,
    /// or directory corruption — truncated files included. Never panics.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_options(path, default_cache_bytes(), default_prefetch())
    }

    /// Open a store with an explicit cache byte budget and the
    /// environment-resolved readahead depth ([`default_prefetch`]).
    ///
    /// # Errors
    /// Returns a structured error for any I/O failure or any header, schema,
    /// or directory corruption — truncated files included. Never panics.
    pub fn open_with_budget(path: impl AsRef<Path>, budget: usize) -> Result<Self> {
        Self::open_with_options(path, budget, default_prefetch())
    }

    /// Open a store with an explicit cache byte budget and readahead depth
    /// (`prefetch` shards decoded ahead of each access; `0` disables the
    /// background thread).
    ///
    /// # Errors
    /// Returns a structured error for any I/O failure or any header, schema,
    /// or directory corruption — truncated files included. Never panics.
    pub fn open_with_options(
        path: impl AsRef<Path>,
        budget: usize,
        prefetch: usize,
    ) -> Result<Self> {
        let path = path.as_ref();
        // Pre-screen the two classic mis-uses *before* any header read, so
        // they surface as clear structured errors instead of an
        // `IsADirectory` I/O error or a baffling "truncated header"
        // corruption report.
        let meta = std::fs::metadata(path)?;
        if meta.is_dir() {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "`{}` is a directory, not an FSS1 shard file",
                    path.display()
                ),
            });
        }
        if meta.len() == 0 {
            return Err(StoreError::Corrupt {
                offset: 0,
                what: "file header".into(),
                reason: format!(
                    "`{}` is empty (0 bytes): not an FSS1 shard file",
                    path.display()
                ),
            });
        }
        let file = StoreFile::new(File::open(path)?);
        let file_len = file.file.metadata()?.len();

        let header_bytes = read_block(&file, 0, HEADER_LEN, "file header")?;
        let header = Header::decode(&header_bytes)?;
        if header.directory_offset == 0 {
            return Err(StoreError::Corrupt {
                offset: 40,
                what: "file header".into(),
                reason: "zero directory offset: the writer never finalized this file".into(),
            });
        }
        if header.shard_size == 0 {
            return Err(StoreError::Corrupt {
                offset: 16,
                what: "file header".into(),
                reason: "zero shard size".into(),
            });
        }
        let shard_size = usize::try_from(header.shard_size).map_err(|_| StoreError::Corrupt {
            offset: 16,
            what: "file header".into(),
            reason: "shard size exceeds the address space".into(),
        })?;
        let total_rows = usize::try_from(header.total_rows).map_err(|_| StoreError::Corrupt {
            offset: 24,
            what: "file header".into(),
            reason: "row count exceeds the address space".into(),
        })?;
        // Every stored row occupies at least 9 bytes (id + label) in its
        // block, so a row count beyond the file length is a crafted or
        // corrupt header — reject it before any size arithmetic.
        if header.total_rows > file_len {
            return Err(StoreError::Corrupt {
                offset: 24,
                what: "file header".into(),
                reason: format!(
                    "{} rows cannot fit a {}-byte file",
                    header.total_rows, file_len
                ),
            });
        }
        let expected_shards = total_rows.div_ceil(shard_size);
        if header.num_shards != expected_shards as u64 {
            return Err(StoreError::Corrupt {
                offset: 32,
                what: "file header".into(),
                reason: format!(
                    "{} shards recorded, but {} rows at shard size {} need {}",
                    header.num_shards, total_rows, shard_size, expected_shards
                ),
            });
        }
        if header.directory_offset > file_len {
            return Err(StoreError::Corrupt {
                offset: 40,
                what: "file header".into(),
                reason: format!(
                    "directory offset {} beyond the file end {}",
                    header.directory_offset, file_len
                ),
            });
        }

        // Schema block.
        let len_bytes = read_block(&file, HEADER_LEN as u64, 4, "schema block")?;
        let schema_len = u32::from_le_bytes(len_bytes[..4].try_into().expect("4")) as usize;
        if (HEADER_LEN + 8 + schema_len) as u64 > file_len {
            return Err(StoreError::Corrupt {
                offset: HEADER_LEN as u64,
                what: "schema block".into(),
                reason: format!("length {schema_len} runs past the file end"),
            });
        }
        let schema_bytes = read_block(&file, (HEADER_LEN + 4) as u64, schema_len, "schema block")?;
        let crc_bytes = read_block(
            &file,
            (HEADER_LEN + 4 + schema_len) as u64,
            4,
            "schema block",
        )?;
        let stored_crc = u32::from_le_bytes(crc_bytes[..4].try_into().expect("4"));
        if stored_crc != crc32(&schema_bytes) {
            return Err(StoreError::Corrupt {
                offset: (HEADER_LEN + 4 + schema_len) as u64,
                what: "schema block".into(),
                reason: "checksum mismatch".into(),
            });
        }
        if fnv1a64(&schema_bytes) != header.schema_hash {
            return Err(StoreError::Corrupt {
                offset: 8,
                what: "file header".into(),
                reason: "schema hash does not match the schema block".into(),
            });
        }
        let schema = decode_schema(&schema_bytes, (HEADER_LEN + 4) as u64)?;

        // Shard directory. All arithmetic is checked and bounded by the file
        // length *before* any allocation, so a crafted header with a huge
        // row count is a structured error, not an overflow or OOM panic.
        let num_shards = expected_shards;
        let dir_len = num_shards
            .checked_mul(DIR_ENTRY_LEN)
            .and_then(|v| v.checked_add(4))
            .ok_or_else(|| StoreError::Corrupt {
                offset: 32,
                what: "file header".into(),
                reason: format!("{num_shards} shards overflow the directory size"),
            })?;
        let dir_end = (dir_len as u64).checked_add(header.directory_offset);
        if dir_end.is_none() || dir_end.expect("checked") > file_len {
            return Err(StoreError::Corrupt {
                offset: header.directory_offset,
                what: "shard directory".into(),
                reason: format!(
                    "truncated: needs {} bytes, file ends {} bytes in",
                    dir_len,
                    file_len - header.directory_offset
                ),
            });
        }
        let dir_bytes = read_block(&file, header.directory_offset, dir_len, "shard directory")?;
        let directory = decode_directory(&dir_bytes, num_shards, header.directory_offset)?;

        // Entry-by-entry layout validation: offsets in range, blocks inside
        // the data region, row counts matching the fixed-size layout.
        let data_start = (HEADER_LEN + 8 + schema_len) as u64;
        for (i, entry) in directory.iter().enumerate() {
            let expected_rows = if i + 1 == num_shards {
                (total_rows - i * shard_size) as u64
            } else {
                shard_size as u64
            };
            if entry.rows != expected_rows {
                return Err(StoreError::Corrupt {
                    offset: header.directory_offset + (i * DIR_ENTRY_LEN) as u64,
                    what: format!("shard {i} directory entry"),
                    reason: format!(
                        "{} rows recorded, layout requires {expected_rows}",
                        entry.rows
                    ),
                });
            }
            let block_len =
                shard_block_len(entry.rows, schema.num_features(), schema.num_fairness());
            if entry.offset < data_start || entry.offset + block_len > header.directory_offset {
                return Err(StoreError::Corrupt {
                    offset: header.directory_offset + (i * DIR_ENTRY_LEN) as u64,
                    what: format!("shard {i} directory entry"),
                    reason: format!(
                        "block [{}, {}) outside the data region [{}, {})",
                        entry.offset,
                        entry.offset + block_len,
                        data_start,
                        header.directory_offset
                    ),
                });
            }
        }

        let inner = Arc::new(StoreInner {
            file,
            path: path.display().to_string(),
            schema,
            shard_size,
            total_rows,
            directory,
            budget,
            prefetch,
            cache: Mutex::new(CacheState::default()),
            cond: Condvar::new(),
            work: Condvar::new(),
        });
        // A single-shard (or empty) store has nothing to read ahead of.
        let prefetcher = if prefetch > 0 && inner.directory.len() > 1 {
            let worker = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("fair-store-prefetch".into())
                    .spawn(move || worker.prefetch_loop())?,
            )
        } else {
            None
        };
        Ok(Self {
            inner,
            prefetcher,
            sweep: Mutex::new(()),
        })
    }

    /// The configured cache byte budget.
    #[must_use]
    pub fn cache_budget(&self) -> usize {
        self.inner.budget
    }

    /// The configured readahead depth in shards (`0` = disabled).
    #[must_use]
    pub fn prefetch_depth(&self) -> usize {
        self.inner.prefetch
    }

    /// Snapshot of the cache counters.
    ///
    /// # Panics
    /// Panics if the cache lock is poisoned (a kernel panicked mid-access).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let st = self.inner.cache.lock().expect("shard cache poisoned");
        CacheStats {
            hits: st.hits,
            misses: st.misses,
            evictions: st.evictions,
            resident_bytes: st.resident,
            peak_bytes: st.peak,
            pinned_shards: st.entries.values().filter(|e| e.pins > 0).count(),
            budget_bytes: self.inner.budget,
            prefetch_hits: st.prefetch_hits,
            prefetch_wasted: st.prefetch_wasted,
            decode_poisoned: st.decode_poisoned,
        }
    }

    /// Read shard `index` through the cache, returning an owning handle.
    /// The cache itself may drop its reference afterwards (the handle keeps
    /// the block alive regardless).
    ///
    /// # Errors
    /// Returns [`StoreError::InvalidConfig`] for an out-of-range index, and a
    /// structured corruption or I/O error when the block fails its checksums.
    pub fn read_shard(&self, index: usize) -> Result<Arc<Dataset>> {
        if index >= self.inner.directory.len() {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "shard {index} out of range ({} shards)",
                    self.inner.directory.len()
                ),
            });
        }
        let data = self.inner.pin(index)?;
        self.inner.unpin(index);
        Ok(data)
    }

    /// Decode every shard front to back, verifying all checksums, without
    /// retaining anything in the cache — a full-file integrity scan.
    ///
    /// # Errors
    /// Returns the first corruption or I/O error encountered.
    pub fn verify(&self) -> Result<()> {
        for i in 0..self.inner.directory.len() {
            self.inner.load_shard(i)?;
        }
        Ok(())
    }
}

impl StoreInner {
    /// Decode shard `index` straight from disk (no cache interaction).
    fn load_shard(&self, index: usize) -> Result<Dataset> {
        // Attribute this page-in to the requesting job, when one is profiled
        // on this thread (the job thread inline, or a pool worker that
        // `parallel_map` re-installed the handle on): the whole load is
        // `decode` self-time, with the raw disk read carved out below as a
        // nested `page_in` scope. The readahead thread carries no profile,
        // so background decodes attribute to nobody — only time a job
        // genuinely waited for is charged to it.
        let _decode = fair_core::obs::profile::scope(fair_core::obs::Phase::Decode);
        // Fault point "decode", context "<path>#shardN": `panic` aborts the
        // decode mid-flight (exercising the containment below), `delay`
        // stalls it; the connection-shaped modes have no meaning here and are
        // ignored.
        match fair_core::fault::check("decode", &format!("{}#shard{}", self.path, index)) {
            Some(fair_core::FaultMode::Panic) => {
                panic!("injected decode fault: shard {index} of {}", self.path)
            }
            Some(fair_core::FaultMode::Delay(d)) => std::thread::sleep(d),
            _ => {}
        }
        let entry = self.directory[index];
        let rows = usize::try_from(entry.rows).expect("rows fit usize (validated at open)");
        let nf = self.schema.num_features();
        let na = self.schema.num_fairness();
        let block_len = shard_block_len(entry.rows, nf, na);
        let bytes = {
            let _io = fair_core::obs::profile::scope(fair_core::obs::Phase::PageIn);
            read_block(
                &self.file,
                entry.offset,
                usize::try_from(block_len).expect("block fits usize"),
                "shard block",
            )
            .map_err(|e| relabel(e, &format!("shard {index} block")))?
        };

        let mut pos = 0_usize;
        let take = |pos: &mut usize, n: usize| -> &[u8] {
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            s
        };
        let stored_rows = u64::from_le_bytes(take(&mut pos, 8).try_into().expect("8"));
        if stored_rows != entry.rows {
            return Err(StoreError::Corrupt {
                offset: entry.offset,
                what: format!("shard {index} block"),
                reason: format!(
                    "{} rows in the block header, directory records {}",
                    stored_rows, entry.rows
                ),
            });
        }

        let checked = |pos: &mut usize, n: usize, what: &str| -> Result<&[u8]> {
            let start = entry.offset + *pos as u64;
            let body = take(pos, n);
            let stored = u32::from_le_bytes(take(pos, 4).try_into().expect("4"));
            let actual = crc32(body);
            if stored != actual {
                return Err(StoreError::Corrupt {
                    offset: start,
                    what: format!("shard {index} {what}"),
                    reason: format!(
                        "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
                    ),
                });
            }
            Ok(body)
        };

        let ids: Vec<ObjectId> = checked(&mut pos, rows * 8, "ids block")?
            .chunks_exact(8)
            .map(|c| ObjectId(u64::from_le_bytes(c.try_into().expect("8"))))
            .collect();
        let features: Vec<f64> = checked(&mut pos, rows * 8 * nf, "features block")?
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8"))))
            .collect();
        let fairness: Vec<f64> = checked(&mut pos, rows * 8 * na, "fairness block")?
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8"))))
            .collect();
        let label_bytes = checked(&mut pos, rows, "labels block")?;
        let mut labels = Vec::with_capacity(rows);
        for (row, &b) in label_bytes.iter().enumerate() {
            labels.push(match b {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                other => {
                    return Err(StoreError::Corrupt {
                        offset: entry.offset,
                        what: format!("shard {index} labels block"),
                        reason: format!("invalid label byte {other} at row {row}"),
                    })
                }
            });
        }
        Ok(Dataset::from_columns(
            self.schema.clone(),
            ids,
            features,
            fairness,
            labels,
        )?)
    }

    /// Look the shard up in the cache (pinning it) or page it in on a miss,
    /// scheduling readahead of the following shards either way.
    fn pin(&self, index: usize) -> Result<Arc<Dataset>> {
        {
            let mut st = self.cache.lock().expect("shard cache poisoned");
            st.last_access = index;
            loop {
                st.tick += 1;
                let tick = st.tick;
                if let Some(e) = st.entries.get_mut(&index) {
                    e.pins += 1;
                    e.last_used = tick;
                    let was_prefetched = std::mem::take(&mut e.prefetched);
                    let data = e.data.clone();
                    if was_prefetched {
                        st.prefetch_hits += 1;
                        st.obs.prefetch_hits.inc();
                    }
                    st.hits += 1;
                    st.obs.hits.inc();
                    self.schedule_readahead(&mut st, index);
                    return Ok(data);
                }
                if let Some(msg) = st.poisoned.remove(&index) {
                    // A background decode of this shard panicked. Surface it
                    // once as a structured error; the entry is consumed, so a
                    // retry decodes on demand as usual.
                    return Err(StoreError::Corrupt {
                        offset: self.directory[index].offset,
                        what: format!("shard {index} block"),
                        reason: format!("background decode panicked: {msg}"),
                    });
                }
                if st.inflight.contains(&index) {
                    // Someone (usually the readahead thread) is decoding this
                    // very shard: wait for it instead of decoding the block a
                    // second time. The wait is page-in time from the
                    // requesting job's point of view.
                    let _wait = fair_core::obs::profile::scope(fair_core::obs::Phase::PageIn);
                    st = self.cond.wait(st).expect("shard cache poisoned");
                    continue;
                }
                break;
            }
            st.misses += 1;
            st.obs.misses.inc();
            st.inflight.insert(index);
            self.schedule_readahead(&mut st, index);
        }
        // Decode outside the lock so concurrent workers page different
        // shards in parallel; `inflight` makes racers on the *same* shard
        // wait above instead of decoding the block twice. A panicking decode
        // must still clear its in-flight claim — otherwise every waiter above
        // sleeps forever — so the panic is caught, the claim released, and
        // the panic resumed on this (the caller's) thread.
        let decoded =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.load_shard(index)));
        let mut st = self.cache.lock().expect("shard cache poisoned");
        st.inflight.remove(&index);
        self.cond.notify_all();
        let data = match decoded {
            Ok(Ok(d)) => Arc::new(d),
            Ok(Err(e)) => return Err(e),
            Err(panic) => {
                drop(st);
                std::panic::resume_unwind(panic);
            }
        };
        let bytes = column_bytes(&data);
        st.tick += 1;
        let tick = st.tick;
        if let Some(e) = st.entries.get_mut(&index) {
            // The readahead thread admitted the shard while we were
            // decoding; adopt its copy.
            e.pins += 1;
            e.last_used = tick;
            let was_prefetched = std::mem::take(&mut e.prefetched);
            let data = e.data.clone();
            if was_prefetched {
                st.prefetch_hits += 1;
                st.obs.prefetch_hits.inc();
            }
            return Ok(data);
        }
        // Make room *before* admitting, so the resident set only ever
        // exceeds the budget by what is genuinely pinned.
        evict_until(&mut st, self.budget.saturating_sub(bytes));
        st.resident += bytes;
        st.peak = st.peak.max(st.resident);
        st.obs
            .resident_bytes
            .add(i64::try_from(bytes).unwrap_or(i64::MAX));
        st.entries.insert(
            index,
            CacheEntry {
                data: data.clone(),
                bytes,
                pins: 1,
                last_used: tick,
                prefetched: false,
            },
        );
        Ok(data)
    }

    /// Release one pin; shed any over-budget residue that eviction had to
    /// tolerate while the shard was pinned.
    fn unpin(&self, index: usize) {
        let mut st = self.cache.lock().expect("shard cache poisoned");
        if let Some(e) = st.entries.get_mut(&index) {
            debug_assert!(e.pins > 0, "unbalanced unpin");
            e.pins = e.pins.saturating_sub(1);
        }
        evict_until(&mut st, self.budget);
    }

    /// Estimated column bytes of shard `index` from its directory entry —
    /// exact for this fixed-width layout, no decode needed.
    fn shard_bytes(&self, index: usize) -> usize {
        let per_row = 8 * (self.schema.num_features() + self.schema.num_fairness()) + 8 + 1;
        usize::try_from(self.directory[index].rows)
            .unwrap_or(usize::MAX)
            .saturating_mul(per_row)
    }

    /// Queue the shards following `index` for the readahead thread. Skips
    /// shards that are already resident, being decoded, queued, or too big
    /// to ever be admitted under the budget.
    ///
    /// The effective depth is capped by the budget headroom: one slot stays
    /// reserved for the pinned shard and one for the next on-demand page-in,
    /// and only what fits beyond that is read ahead. With no headroom the
    /// readahead stands down entirely — prefetching into a cache that must
    /// evict the prefetched shard before it is used only burns decode time.
    fn schedule_readahead(&self, st: &mut CacheState, index: usize) {
        if self.prefetch == 0 {
            return;
        }
        let Some(last) = self.directory.len().checked_sub(1) else {
            return;
        };
        let slots = (self.budget / self.shard_bytes(index).max(1)).saturating_sub(2);
        let depth = self.prefetch.min(slots);
        if depth == 0 {
            return;
        }
        let mut scheduled = false;
        for next in index + 1..=(index + depth).min(last) {
            if st.entries.contains_key(&next)
                || st.inflight.contains(&next)
                || st.queue.contains(&next)
            {
                continue;
            }
            if self.shard_bytes(next) > self.budget {
                continue;
            }
            // Bound the queue so a scattered access pattern cannot pile up
            // stale work faster than the thread drains it.
            if st.queue.len() >= self.prefetch * 4 {
                break;
            }
            st.queue.push_back(next);
            scheduled = true;
        }
        if scheduled {
            self.work.notify_all();
        }
    }

    /// The readahead thread: pop a queued shard, decode it outside the lock,
    /// and admit it unpinned — strictly within the budget. Decode errors are
    /// deliberately swallowed: the on-demand path decodes the same block and
    /// surfaces the error where the caller can see it. Decode *panics* are
    /// contained: the shard is marked poisoned (the next reader gets a
    /// structured error instead of hanging on the in-flight condvar) and the
    /// thread keeps serving the rest of the queue.
    fn prefetch_loop(&self) {
        let mut st = self.cache.lock().expect("shard cache poisoned");
        loop {
            if st.stop {
                return;
            }
            let Some(index) = st.queue.pop_front() else {
                st = self.work.wait(st).expect("shard cache poisoned");
                continue;
            };
            if st.entries.contains_key(&index) || st.inflight.contains(&index) {
                continue;
            }
            // Drop stale work: if the reader has moved on (or a new sweep
            // restarted behind us), decoding this shard would evict shards
            // that are still useful just to admit one that is not.
            if index <= st.last_access || index > st.last_access + self.prefetch {
                continue;
            }
            st.inflight.insert(index);
            drop(st);
            let decoded =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.load_shard(index)));
            st = self.cache.lock().expect("shard cache poisoned");
            st.inflight.remove(&index);
            match decoded {
                Ok(Ok(data)) => admit_prefetched(&mut st, self.budget, index, Arc::new(data)),
                // Decode errors fall through to the on-demand path, which
                // surfaces them where the caller can see them.
                Ok(Err(_)) => {}
                Err(panic) => {
                    st.decode_poisoned += 1;
                    st.obs.decode_poisoned.inc();
                    obs::Event::new("store.decode_poisoned")
                        .field("path", &self.path)
                        .field("shard", index)
                        .field("panic", panic_text(&*panic))
                        .emit();
                    st.poisoned.insert(index, panic_text(&*panic));
                }
            }
            self.cond.notify_all();
        }
    }
}

/// Best-effort text of a caught panic payload.
fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Admit a prefetched shard unpinned, evicting LRU unpinned shards to make
/// room first. If the budget is consumed by the pinned working set the
/// decode is dropped (counted as wasted) rather than overflowing the budget.
fn admit_prefetched(st: &mut CacheState, budget: usize, index: usize, data: Arc<Dataset>) {
    let bytes = column_bytes(&data);
    evict_until(st, budget.saturating_sub(bytes));
    if st.resident.saturating_add(bytes) > budget {
        st.prefetch_wasted += 1;
        st.obs.prefetch_wasted.inc();
        return;
    }
    st.tick += 1;
    let tick = st.tick;
    st.resident += bytes;
    st.peak = st.peak.max(st.resident);
    st.obs
        .resident_bytes
        .add(i64::try_from(bytes).unwrap_or(i64::MAX));
    st.entries.insert(
        index,
        CacheEntry {
            data,
            bytes,
            pins: 0,
            last_used: tick,
            prefetched: true,
        },
    );
}

/// Evict least-recently-used unpinned shards until at most `target` column
/// bytes stay resident (or nothing evictable remains).
fn evict_until(st: &mut CacheState, target: usize) {
    while st.resident > target {
        let victim = st
            .entries
            .iter()
            .filter(|(_, e)| e.pins == 0)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(&k, _)| k);
        match victim {
            Some(k) => {
                let e = st.entries.remove(&k).expect("victim exists");
                st.resident -= e.bytes;
                st.obs
                    .resident_bytes
                    .sub(i64::try_from(e.bytes).unwrap_or(i64::MAX));
                st.evictions += 1;
                st.obs.evictions.inc();
                if e.prefetched {
                    st.prefetch_wasted += 1;
                    st.obs.prefetch_wasted.inc();
                }
            }
            None => break,
        }
    }
}

/// Read `len` bytes at `offset`, mapping short reads to structured
/// truncation errors.
fn read_block(file: &StoreFile, offset: u64, len: usize, what: &str) -> Result<Vec<u8>> {
    let mut buf = vec![0_u8; len];
    file.read_exact_at(&mut buf, offset).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Corrupt {
                offset,
                what: what.to_string(),
                reason: format!("truncated: {len} bytes expected"),
            }
        } else {
            StoreError::Io(e)
        }
    })?;
    Ok(buf)
}

/// Re-label a corruption error with a more specific structure name.
fn relabel(e: StoreError, what: &str) -> StoreError {
    match e {
        StoreError::Corrupt { offset, reason, .. } => StoreError::Corrupt {
            offset,
            what: what.to_string(),
            reason,
        },
        other => other,
    }
}

struct PinGuard<'a> {
    store: &'a StoreInner,
    index: usize,
    data: Arc<Dataset>,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.store.unpin(self.index);
    }
}

impl ShardSource for ShardStore {
    fn schema(&self) -> &SchemaRef {
        &self.inner.schema
    }

    fn len(&self) -> usize {
        self.inner.total_rows
    }

    fn shard_size(&self) -> usize {
        self.inner.shard_size
    }

    fn num_shards(&self) -> usize {
        self.inner.directory.len()
    }

    /// Shards live on disk behind the cache: metric plans retain their
    /// measurement columns during the scoring sweep instead of re-paging.
    fn paged(&self) -> bool {
        true
    }

    /// Page the shard in (cache hit or disk read), pin it for the duration
    /// of `f`, and unpin on return — eviction can then reclaim it.
    ///
    /// # Panics
    /// Panics on an out-of-range index, and on I/O failure or block
    /// corruption at page-in time. [`ShardStore::open`] validates the
    /// header, schema, and directory but — deliberately, to keep opening a
    /// beyond-RAM file cheap — does **not** read the shard payloads, so
    /// at-rest corruption inside a column block surfaces here, where the
    /// infallible engine API leaves no error channel. Run
    /// [`ShardStore::verify`] first when the file is untrusted, or use
    /// [`ShardStore::read_shard`] for fallible access.
    fn with_shard<T>(&self, index: usize, f: impl FnOnce(ShardView<'_>) -> T) -> T {
        assert!(
            index < self.inner.directory.len(),
            "shard {index} out of bounds ({})",
            self.inner.directory.len()
        );
        let guard = PinGuard {
            store: &self.inner,
            index,
            data: match self.inner.pin(index) {
                Ok(data) => data,
                Err(e) => panic!("fair-store: cannot page in shard {index}: {e}"),
            },
        };
        f(ShardView::new(
            index,
            index * self.inner.shard_size,
            &guard.data,
        ))
    }

    /// The engine's sweep, one at a time per store. A sweep already runs on
    /// every pool worker, so a second concurrent one only oversubscribes the
    /// cores; and with a cache smaller than the file, two interleaved sweeps
    /// evict each other's shards, so how many shards each one pages in would
    /// hinge on when the other started. Queued sweeps page in the same
    /// shards whatever the timing of their callers.
    ///
    /// `f` must not start another sweep of this store: the inner sweep
    /// would wait for the outer one forever.
    fn map_shards<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ShardView<'_>) -> T + Sync,
    {
        // The lock guards no data, so a sweep that panicked leaves nothing
        // to repair.
        let _sweep = self
            .sweep
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let indices: Vec<usize> = (0..self.num_shards()).collect();
        fair_core::parallel_map(&indices, |&i| self.with_shard(i, &f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_source, StoreWriter};
    use fair_core::{DataObject, Schema, ShardedDataset};

    fn schema() -> SchemaRef {
        Schema::from_names(&["score"], &["g"], &["need"]).unwrap()
    }

    fn objects(n: u64) -> Vec<DataObject> {
        (0..n)
            .map(|i| {
                DataObject::new_unchecked(
                    i,
                    vec![i as f64 / 2.0],
                    vec![f64::from(u8::from(i % 3 == 0)), (i % 7) as f64 / 8.0],
                    match i % 3 {
                        0 => None,
                        1 => Some(false),
                        _ => Some(true),
                    },
                )
            })
            .collect()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fair_store_reader_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.fss", std::process::id()))
    }

    fn sample_store(name: &str, n: u64, shard_size: usize) -> std::path::PathBuf {
        let data = ShardedDataset::from_objects(schema(), objects(n), shard_size).unwrap();
        let path = temp_path(name);
        write_source(&data, &path).unwrap();
        path
    }

    /// A panic inside the background decode thread must not hang readers
    /// waiting on the in-flight condvar: the shard is poisoned, the next
    /// reader gets a structured error once, a retry recovers, and the
    /// readahead thread keeps serving the rest of the queue.
    #[test]
    fn prefetch_decode_panic_is_contained_and_surfaced() {
        let path = sample_store("poisonfault", 48, 8); // 6 shards
        let ctx = format!("{}#shard1", path.display());
        fair_core::fault::install(
            fair_core::FaultPlan::parse(&format!("decode@{ctx}:panic:1")).unwrap(),
        );
        let store = ShardStore::open_with_options(&path, usize::MAX, 2).unwrap();
        store.read_shard(0).unwrap(); // queues readahead of shards 1 and 2
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while store.cache_stats().decode_poisoned == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "background decode panic never surfaced"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let err = store.read_shard(1).unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        // The poison is consumed: a retry decodes on demand and succeeds
        // (the fault's burst budget of one activation is spent).
        assert_eq!(store.read_shard(1).unwrap().len(), 8);
        // The readahead thread survived the panic and still serves shards.
        assert_eq!(store.read_shard(2).unwrap().len(), 8);
        assert_eq!(store.cache_stats().decode_poisoned, 1);
        fair_core::fault::install(fair_core::FaultPlan::none());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn round_trips_every_shard_bit_for_bit() {
        let data = ShardedDataset::from_objects(schema(), objects(23), 7).unwrap();
        let path = temp_path("round_trip");
        let summary = write_source(&data, &path).unwrap();
        assert_eq!(summary.rows, 23);
        assert_eq!(summary.shards, 4);

        let store = ShardStore::open_with_budget(&path, usize::MAX).unwrap();
        assert_eq!(store.len(), 23);
        assert_eq!(store.num_shards(), 4);
        assert_eq!(store.shard_size(), 7);
        assert_eq!(**store.schema(), *schema());
        for i in 0..4 {
            let disk = store.read_shard(i).unwrap();
            let mem = data.shard(i);
            assert_eq!(disk.len(), mem.len(), "shard {i}");
            assert_eq!(disk.ids(), mem.data().ids());
            assert_eq!(disk.labels(), mem.data().labels());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(disk.features_matrix()),
                bits(mem.data().features_matrix())
            );
            assert_eq!(
                bits(disk.fairness_matrix()),
                bits(mem.data().fairness_matrix())
            );
        }
        store.verify().unwrap();
        std::fs::remove_file(path).ok();
    }

    /// Sweeps started together from two threads never interleave: no kernel
    /// call of one runs while a kernel call of the other does.
    #[test]
    fn concurrent_sweeps_run_one_at_a_time() {
        let path = sample_store("sweeps", 64, 8); // 8 shards
        let store = ShardStore::open_with_options(&path, 0, 0).unwrap();
        // Kernel calls running now, per sweep.
        let running = Mutex::new([0_usize; 2]);
        let changed = Condvar::new();
        let mut overlapped = [false; 2];
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (sweep, overlapped) in overlapped.iter_mut().enumerate() {
                let (store, running, changed, start) = (&store, &running, &changed, &start);
                scope.spawn(move || {
                    start.wait();
                    let seen = store.map_shards(|view| {
                        let mut r = running.lock().unwrap();
                        r[sweep] += 1;
                        changed.notify_all();
                        // Hold the kernel open until the other sweep's kernel
                        // starts too: at once if the sweeps interleave, never
                        // (so until the timeout) if they queue.
                        let (mut r, _) = changed
                            .wait_timeout_while(r, std::time::Duration::from_millis(50), |r| {
                                r[1 - sweep] == 0
                            })
                            .unwrap();
                        let other = r[1 - sweep];
                        r[sweep] -= 1;
                        changed.notify_all();
                        (view.len(), other)
                    });
                    assert!(seen.iter().all(|&(len, _)| len == 8));
                    *overlapped = seen.iter().any(|&(_, other)| other > 0);
                });
            }
        });
        assert_eq!(overlapped, [false; 2], "two sweeps interleaved");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn with_shard_pins_and_counts() {
        let path = sample_store("pins", 40, 8);
        // Budget 0: nothing survives unpinned.
        let store = ShardStore::open_with_budget(&path, 0).unwrap();
        store.with_shard(2, |view| {
            assert_eq!(view.index(), 2);
            assert_eq!(view.offset(), 16);
            assert_eq!(view.len(), 8);
            let stats = store.cache_stats();
            assert_eq!(stats.pinned_shards, 1, "borrowed shard is pinned");
            assert!(stats.resident_bytes > 0, "pinned shard is resident");
            // Re-entrant access to the same shard is a cache hit even while
            // the budget is zero — the pin protects it.
            store.with_shard(2, |inner| assert_eq!(inner.len(), 8));
            assert_eq!(store.cache_stats().hits, 1);
        });
        let stats = store.cache_stats();
        assert_eq!(stats.pinned_shards, 0);
        assert_eq!(stats.resident_bytes, 0, "budget 0 retains nothing");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 1);
        assert!(stats.peak_bytes > 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn eviction_respects_the_byte_budget_and_lru_order() {
        let path = sample_store("lru", 40, 8); // 5 shards of 8 rows
        let store = ShardStore::open_with_budget(&path, usize::MAX).unwrap();
        let shard_bytes = column_bytes(&store.read_shard(0).unwrap());
        drop(store);

        // Room for exactly two shards. Readahead off: this test asserts
        // exact counter values, which a background decode would perturb.
        let store = ShardStore::open_with_options(&path, 2 * shard_bytes, 0).unwrap();
        store.with_shard(0, |_| ());
        store.with_shard(1, |_| ());
        assert_eq!(store.cache_stats().resident_bytes, 2 * shard_bytes);
        store.with_shard(0, |_| ()); // refresh 0 → 1 becomes the LRU victim
        store.with_shard(2, |_| ());
        let stats = store.cache_stats();
        assert_eq!(stats.resident_bytes, 2 * shard_bytes);
        assert_eq!(stats.evictions, 1);
        assert!(stats.peak_bytes <= 2 * shard_bytes, "make-room-then-admit");
        // 0 must still be cached (hit), 1 must have been evicted (miss).
        let before = store.cache_stats().hits;
        store.with_shard(0, |_| ());
        assert_eq!(store.cache_stats().hits, before + 1);
        let misses = store.cache_stats().misses;
        store.with_shard(1, |_| ());
        assert_eq!(store.cache_stats().misses, misses + 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn readahead_decodes_the_next_shards_before_they_are_asked_for() {
        let path = sample_store("prefetch_hits", 40, 8); // 5 shards
        let store = ShardStore::open_with_options(&path, usize::MAX, 2).unwrap();
        let shard_bytes = column_bytes(&store.read_shard(0).unwrap());
        // That first access was a miss and queued shards 1 and 2; wait for
        // the background thread to admit both.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while store.cache_stats().resident_bytes < 3 * shard_bytes
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        assert_eq!(
            store.cache_stats().resident_bytes,
            3 * shard_bytes,
            "readahead admits shards 1 and 2 behind the access to shard 0"
        );
        store.read_shard(1).unwrap();
        store.read_shard(2).unwrap();
        let stats = store.cache_stats();
        assert_eq!(stats.misses, 1, "only shard 0 ever touched the disk path");
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.prefetch_hits, 2);
        assert_eq!(stats.prefetch_wasted, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn readahead_never_overflows_the_byte_budget() {
        let path = sample_store("prefetch_budget", 40, 8); // 5 shards
        let probe = ShardStore::open_with_options(&path, usize::MAX, 0).unwrap();
        let shard_bytes = column_bytes(&probe.read_shard(0).unwrap());
        drop(probe);

        // Room for three shards (pinned + next + one readahead slot), depth
        // 2 requested: sweep the whole store several times. Whatever the
        // background thread manages to slip in, the peak must stay within
        // the budget and every access must resolve.
        let store = ShardStore::open_with_options(&path, 3 * shard_bytes, 2).unwrap();
        for _ in 0..3 {
            for i in 0..store.num_shards() {
                store.with_shard(i, |view| assert_eq!(view.len(), 8));
            }
        }
        let stats = store.cache_stats();
        assert_eq!(stats.hits + stats.misses, 15, "every access is counted");
        assert!(
            stats.peak_bytes <= 3 * shard_bytes,
            "peak {} exceeds budget {}",
            stats.peak_bytes,
            3 * shard_bytes
        );
        assert!(stats.prefetch_hits <= stats.hits);

        // A budget with no readahead headroom (two shards) stands the
        // prefetcher down instead of thrashing: no wasted decodes at all.
        drop(store);
        let tight = ShardStore::open_with_options(&path, 2 * shard_bytes, 2).unwrap();
        for i in 0..tight.num_shards() {
            tight.with_shard(i, |view| assert_eq!(view.len(), 8));
        }
        let stats = tight.cache_stats();
        assert_eq!(stats.misses, 5, "no headroom means no readahead at all");
        assert_eq!(stats.prefetch_hits, 0);
        assert_eq!(stats.prefetch_wasted, 0);
        assert!(stats.peak_bytes <= 2 * shard_bytes);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn prefetch_env_parsing() {
        // default_prefetch reads the environment; with the variable unset it
        // must fall back to the default. (CI sets FAIR_PREFETCH=0 for the
        // no-readahead thrash pass.)
        match std::env::var("FAIR_PREFETCH") {
            Err(_) => assert_eq!(default_prefetch(), DEFAULT_PREFETCH),
            Ok(v) => {
                let parsed: usize = v.trim().parse().unwrap();
                assert_eq!(default_prefetch(), parsed);
            }
        }
    }

    #[test]
    fn open_rejects_corruption_with_structured_errors() {
        let path = sample_store("corrupt", 23, 7);
        let original = std::fs::read(&path).unwrap();

        // Wrong magic.
        let mut bad = original.clone();
        bad[0] = b'Z';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            ShardStore::open_with_budget(&path, 0),
            Err(StoreError::Corrupt { .. })
        ));

        // Truncated directory: cut the file mid-directory.
        std::fs::write(&path, &original[..original.len() - 10]).unwrap();
        match ShardStore::open_with_budget(&path, 0) {
            Err(StoreError::Corrupt { what, .. }) => assert!(what.contains("directory"), "{what}"),
            other => panic!("expected a directory corruption error, got {other:?}"),
        }

        // Empty file.
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            ShardStore::open_with_budget(&path, 0),
            Err(StoreError::Corrupt { .. })
        ));

        std::fs::write(&path, &original).unwrap();
        ShardStore::open_with_budget(&path, 0).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_on_a_directory_is_a_structured_error() {
        // Regression: opening a directory used to fall through to the first
        // positional read and surface as a raw `IsADirectory` I/O error.
        let dir = std::env::temp_dir().join(format!("fair_store_dir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        match ShardStore::open_with_budget(&dir, 0) {
            Err(StoreError::InvalidConfig { reason }) => {
                assert!(reason.contains("directory"), "{reason}");
            }
            other => panic!("expected a structured directory error, got {other:?}"),
        }
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn open_on_a_zero_length_file_is_a_structured_error() {
        // Regression: a zero-length file used to report a confusing
        // "truncated: 52 bytes expected" header corruption; it now says the
        // file is empty outright.
        let path = temp_path("zero_len");
        std::fs::write(&path, b"").unwrap();
        match ShardStore::open_with_budget(&path, 0) {
            Err(StoreError::Corrupt { reason, offset, .. }) => {
                assert_eq!(offset, 0);
                assert!(reason.contains("empty"), "{reason}");
            }
            other => panic!("expected a structured empty-file error, got {other:?}"),
        }
        // A missing file is still a plain I/O error (NotFound).
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            ShardStore::open_with_budget(&path, 0),
            Err(StoreError::Io(_))
        ));
    }

    #[test]
    fn flipped_data_byte_is_caught_by_the_block_checksum() {
        let path = sample_store("flip", 23, 7);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the first shard's feature area (the header +
        // schema occupy the prefix; shard 0 starts right after).
        let store = ShardStore::open_with_budget(&path, 0).unwrap();
        drop(store);
        let flip_at = bytes.len() / 2;
        bytes[flip_at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let store = ShardStore::open_with_budget(&path, 0).unwrap();
        let mut failures = 0;
        for i in 0..store.num_shards() {
            if let Err(e) = store.read_shard(i) {
                assert!(matches!(e, StoreError::Corrupt { .. }), "{e}");
                failures += 1;
            }
        }
        assert!(failures > 0, "a flipped byte must fail at least one shard");
        assert!(store.verify().is_err());
        // With readahead on, the corruption error must still surface on the
        // on-demand path even though the background thread swallows its own
        // decode failure for the same shard.
        let store = ShardStore::open_with_options(&path, usize::MAX, 2).unwrap();
        let mut failures = 0;
        for i in 0..store.num_shards() {
            if let Err(e) = store.read_shard(i) {
                assert!(matches!(e, StoreError::Corrupt { .. }), "{e}");
                failures += 1;
            }
        }
        assert!(failures > 0, "corruption must surface with readahead on");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn writer_usage_errors_are_structured() {
        let path = temp_path("writer_errors");
        assert!(matches!(
            StoreWriter::create(&path, schema(), 0),
            Err(StoreError::InvalidConfig { .. })
        ));
        let mut w = StoreWriter::create(&path, schema(), 4).unwrap();
        // Oversized shard.
        let big = ShardedDataset::from_objects(schema(), objects(6), 6).unwrap();
        assert!(w.append_shard(big.shard(0).data()).is_err());
        // Short shard seals the writer.
        let short = ShardedDataset::from_objects(schema(), objects(3), 4).unwrap();
        w.append_shard(short.shard(0).data()).unwrap();
        let again = ShardedDataset::from_objects(schema(), objects(4), 4).unwrap();
        assert!(matches!(
            w.append_shard(again.shard(0).data()),
            Err(StoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            w.push(objects(1).pop().unwrap()),
            Err(StoreError::InvalidConfig { .. })
        ));
        // Schema mismatch.
        let other_schema = Schema::from_names(&["x"], &["g2"], &[]).unwrap();
        let mut w2 =
            StoreWriter::create(temp_path("writer_errors2"), other_schema.clone(), 4).unwrap();
        assert!(matches!(
            w2.append_shard(short.shard(0).data()),
            Err(StoreError::InvalidConfig { .. })
        ));
        // Dimension-mismatched push is a schema error.
        assert!(w2
            .push(DataObject::new_unchecked(
                0,
                vec![1.0, 2.0],
                vec![0.0],
                None
            ))
            .is_err());
        std::fs::remove_file(temp_path("writer_errors")).ok();
        std::fs::remove_file(temp_path("writer_errors2")).ok();
    }

    #[test]
    fn push_path_matches_append_path() {
        let objs = objects(23);
        let sharded = ShardedDataset::from_objects(schema(), objs.clone(), 7).unwrap();
        let appended = temp_path("append");
        write_source(&sharded, &appended).unwrap();
        let pushed = temp_path("pushed");
        let mut w = StoreWriter::create(&pushed, schema(), 7).unwrap();
        for o in objs {
            w.push(o).unwrap();
        }
        assert_eq!(w.rows(), 23);
        let summary = w.finalize().unwrap();
        assert_eq!(summary.rows, 23);
        assert_eq!(
            std::fs::read(&appended).unwrap(),
            std::fs::read(&pushed).unwrap(),
            "push and append produce identical files"
        );
        std::fs::remove_file(appended).ok();
        std::fs::remove_file(pushed).ok();
    }

    #[test]
    fn empty_store_round_trips() {
        let path = temp_path("empty");
        let w = StoreWriter::create(&path, schema(), 4).unwrap();
        let summary = w.finalize().unwrap();
        assert_eq!(summary.rows, 0);
        assert_eq!(summary.shards, 0);
        let store = ShardStore::open_with_budget(&path, 0).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.num_shards(), 0);
        assert!(store.fairness_centroid().is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unfinalized_file_is_rejected() {
        let path = temp_path("unfinalized");
        {
            let mut w = StoreWriter::create(&path, schema(), 4).unwrap();
            for o in objects(4) {
                w.push(o).unwrap();
            }
            // Dropped without finalize: header still carries offset 0.
        }
        match ShardStore::open_with_budget(&path, 0) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("finalize"), "{reason}")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn huge_row_count_header_is_a_structured_error_not_an_overflow() {
        use crate::format::{Header, HEADER_LEN};
        let path = sample_store("huge_header", 8, 4);
        let mut bytes = std::fs::read(&path).unwrap();
        // Craft a header claiming 2^61 rows at shard size 1 (so the
        // directory size computation would overflow), with a valid CRC so it
        // passes Header::decode.
        let original = Header::decode(&bytes[..HEADER_LEN]).unwrap();
        let crafted = Header {
            shard_size: 1,
            total_rows: 1 << 61,
            num_shards: 1 << 61,
            ..original
        };
        bytes[..HEADER_LEN].copy_from_slice(&crafted.encode());
        std::fs::write(&path, &bytes).unwrap();
        match ShardStore::open_with_budget(&path, 0) {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("crafted huge header must be structured, got {other:?}"),
        }
        // A count that does not overflow the multiply but exceeds the file
        // must also be structured (truncated directory).
        let crafted = Header {
            shard_size: 1,
            total_rows: 1 << 40,
            num_shards: 1 << 40,
            ..original
        };
        bytes[..HEADER_LEN].copy_from_slice(&crafted.encode());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardStore::open_with_budget(&path, 0),
            Err(StoreError::Corrupt { .. })
        ));
        // A huge *shard size* (one giant claimed shard) must not overflow
        // the per-shard block arithmetic either.
        let crafted = Header {
            shard_size: 1 << 61,
            total_rows: 1 << 61,
            num_shards: 1,
            ..original
        };
        bytes[..HEADER_LEN].copy_from_slice(&crafted.encode());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardStore::open_with_budget(&path, 0),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_shard_out_of_range_is_invalid_config() {
        let path = sample_store("range", 8, 4);
        let store = ShardStore::open_with_budget(&path, 0).unwrap();
        assert!(matches!(
            store.read_shard(9),
            Err(StoreError::InvalidConfig { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cache_budget_env_parsing() {
        // default_cache_bytes reads the environment; with the variable unset
        // it must fall back to the default. (CI sets it for the thrash pass.)
        match std::env::var("FAIR_CACHE_BYTES") {
            Err(_) => assert_eq!(default_cache_bytes(), DEFAULT_CACHE_BYTES),
            Ok(v) => {
                let parsed: usize = v.trim().parse().unwrap();
                assert_eq!(default_cache_bytes(), parsed);
            }
        }
    }
}

//! [`ShardStore`]: the paging reader over an FSS1 file, with a byte-budgeted
//! shard cache.
//!
//! Opening a store validates the header, the embedded schema (checksum *and*
//! schema hash), and the shard directory (checksum, offsets, block bounds
//! with checked arithmetic, row counts) — so after a successful open, the
//! only way a page-in can fail is genuine data corruption, which the
//! per-slice CRCs catch before any byte of the slice is interpreted. Every
//! format version reads through the same decoder, which takes each slice's
//! offset from [`BlockLayout`]: a version-3 block is stored group-major, a
//! version-2 block column-major, and a version-1 block is one row group.
//! Shards decode on demand, on the thread that asks for them, through the
//! cache:
//!
//! * **byte budget** — fixed at open ([`DEFAULT_CACHE_BYTES`] unless the
//!   caller passes one; `0` retains nothing), it bounds the resident column
//!   bytes. A miss first evicts, then reserves the shard's bytes, then
//!   decodes outside the lock, so a victim's buffers are freed before the
//!   new shard's are allocated, and the resident set (shards being decoded
//!   included) outgrows the budget only by the pinned and in-flight working
//!   set. Blocks a caller keeps past `with_shard` are outside it: a metric
//!   plan holds every swept shard's block, evicted or not, until it returns;
//! * **evict by shard index** — the victim is the highest-index unpinned
//!   shard. Every whole-store sweep visits shards in ascending order, a
//!   cyclic scan under which LRU never hits once the file outgrows the
//!   cache; evicting from the top instead keeps the lowest-index shards that
//!   fit beside the in-flight working set resident from one sweep to the
//!   next;
//! * **pin while borrowed** — [`fair_core::ShardSource::with_shard`] pins the
//!   shard for the duration of the kernel closure; a pinned shard is never
//!   evicted, so a parallel worker can never have its block freed mid-kernel;
//! * **one decode per shard** — racing pins of the same shard wait for the
//!   one decode in flight. A decode that fails or panics returns its
//!   reservation and wakes its waiters, which then decode it themselves;
//! * **one sweep at a time** — whole-store sweeps
//!   ([`fair_core::ShardSource::map_shards`]) queue on a per-store lock
//!   instead of interleaving, so a sweep decodes the same shards whatever
//!   the timing of concurrent callers;
//! * **observability** — hit/miss/eviction counters and a peak-resident-bytes
//!   high-water mark ([`ShardStore::cache_stats`]) make the out-of-core
//!   claim testable: evaluating a cohort larger than the budget must leave
//!   `peak_bytes <= budget`. Each counter, and the resident bytes, is
//!   stored once, as this store's child of a process-wide `fair_store_*`
//!   series in the [`fair_core::obs`] registry: [`CacheStats`] reads the
//!   store's own counts, and `GET /metrics` scrapes their sum over every
//!   store the process has opened (the resident bytes over the open ones).
//!
//! Row gathers ([`ShardStore::read_rows`], behind
//! [`fair_core::ShardSource::gather_rows`]) take a second route. Per shard
//! run, a **resident** shard is pinned and its rows copied (a cache hit);
//! a shard that is **not resident** is never paged in: only the row groups
//! holding the requested rows are read — one positional read per run of
//! adjacent groups in a group-major file — verified and decoded, and
//! nothing is admitted. A Core DCA step thus costs its sample, not its
//! shards. This assumes the file's pages sit in the OS page cache — from a
//! cold disk each group is a random read — and it means a Core DCA job on
//! a cold store does not warm the shard cache (audits, stats and Full DCA
//! sweeps do).

use crate::error::{Result, StoreError};
use crate::format::{
    crc32, decode_directory, decode_schema, fnv1a64, BlockLayout, Header, ShardEntry, COLUMNS,
    DIR_ENTRY_LEN, HEADER_LEN,
};
use fair_core::{
    obs, Dataset, FairError, ObjectId, ObjectView, Schema, SchemaRef, ShardSource, ShardView,
};
use std::collections::{BTreeMap, HashSet};
use std::fs::File;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

/// The cache budget (bytes) [`ShardStore::open`] uses.
pub const DEFAULT_CACHE_BYTES: usize = 256 * 1024 * 1024;

/// The readahead depth the store once took. The store no longer reads
/// ahead, so the value is `0`, and [`ShardStore::open_with_options`]
/// ignores it.
#[deprecated(note = "the store no longer reads ahead; use `ShardStore::open_with_budget`")]
pub const DEFAULT_PREFETCH: usize = 0;

/// Column bytes per row under `schema`: the id, feature, fairness and label
/// columns, all fixed-width.
fn row_bytes(schema: &Schema) -> usize {
    8 * (schema.num_features() + schema.num_fairness()) + 8 + 1
}

/// Column bytes of a decoded shard: the ids, feature, fairness, and label
/// columns (the payload the cache budget accounts; `Vec` headers and the
/// `Arc` are excluded).
#[must_use]
pub fn column_bytes(data: &Dataset) -> usize {
    data.len() * row_bytes(data.schema())
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
    /// Column bytes currently resident, shards being decoded included.
    pub resident_bytes: usize,
    /// High-water mark of [`CacheStats::resident_bytes`] over the store's
    /// lifetime — the number the out-of-core acceptance test pins under the
    /// budget.
    pub peak_bytes: usize,
    /// Shards currently pinned by in-flight kernels.
    pub pinned_shards: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
    /// Row groups read, verified and decoded by row gathers
    /// ([`ShardStore::read_rows`]) from shards that were not resident.
    pub sparse_groups: u64,
}

struct CacheEntry {
    data: Arc<Dataset>,
    bytes: usize,
    pins: usize,
}

/// The cache and its counters. The counters and the resident bytes are this
/// store's children of the `fair_store_*` series, their only storage.
struct CacheState {
    /// Resident shards by index; eviction takes the highest unpinned one.
    entries: BTreeMap<usize, CacheEntry>,
    /// Column bytes of the resident shards plus the reservations of the
    /// shards being decoded. Dropping the store takes them out of the series.
    resident: obs::Gauge,
    peak: usize,
    hits: obs::Counter,
    misses: obs::Counter,
    evictions: obs::Counter,
    /// Shards currently being decoded. An access to an in-flight shard
    /// waits on the condvar instead of decoding the same block a second
    /// time.
    inflight: HashSet<usize>,
    /// Row groups the sparse gather path has read.
    sparse_groups: obs::Counter,
}

impl CacheState {
    fn new() -> Self {
        let counter = |name| obs::Counter::child(obs::counter(name, &[]));
        Self {
            entries: BTreeMap::new(),
            resident: obs::Gauge::child(obs::gauge("fair_store_resident_bytes", &[])),
            peak: 0,
            hits: counter("fair_store_cache_hits_total"),
            misses: counter("fair_store_cache_misses_total"),
            evictions: counter("fair_store_cache_evictions_total"),
            inflight: HashSet::new(),
            sparse_groups: counter("fair_store_sparse_groups_total"),
        }
    }

    /// Column bytes resident, shards being decoded included.
    fn resident(&self) -> usize {
        usize::try_from(self.resident.get()).unwrap_or(0)
    }

    /// Count `bytes` more column bytes resident.
    fn reserve(&mut self, bytes: usize) {
        self.resident.add(i64::try_from(bytes).unwrap_or(i64::MAX));
        self.peak = self.peak.max(self.resident());
    }

    /// Count `bytes` fewer column bytes resident.
    fn release(&mut self, bytes: usize) {
        self.resident.sub(i64::try_from(bytes).unwrap_or(i64::MAX));
    }
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

/// An open FSS1 shard file: validated layout, on-demand shard paging and the
/// shard cache. Implements [`ShardSource`], so every sharded metric, ranking
/// kernel, and DCA driver evaluates straight off the disk file with memory
/// bounded by the cache budget.
pub struct ShardStore {
    file: StoreFile,
    /// The opened path, used as the fault-injection context so a `FAIR_FAULT`
    /// spec can target one store (and one shard, via `#shardN`) by substring.
    path: String,
    schema: SchemaRef,
    shard_size: usize,
    total_rows: usize,
    /// The file's format version, which fixes its block layout.
    version: u16,
    /// Rows per checksummed group (the shard size for version-1 files).
    group_rows: u64,
    directory: Vec<ShardEntry>,
    budget: usize,
    cache: Mutex<CacheState>,
    /// Wakes pins waiting for an in-flight decode of the shard they need.
    cond: Condvar,
    /// Held for the length of a whole-store sweep
    /// ([`ShardSource::map_shards`]), so sweeps run one at a time.
    sweep: Mutex<()>,
}

impl std::fmt::Debug for ShardStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardStore")
            .field("rows", &self.total_rows)
            .field("shards", &self.directory.len())
            .field("shard_size", &self.shard_size)
            .field("budget_bytes", &self.budget)
            .finish()
    }
}

impl ShardStore {
    /// Open a store with the default cache budget ([`DEFAULT_CACHE_BYTES`]).
    ///
    /// # Errors
    /// Returns a structured error for any I/O failure or any header, schema,
    /// or directory corruption — truncated files included. Never panics.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_budget(path, DEFAULT_CACHE_BYTES)
    }

    /// Open a store with an explicit cache budget and ignore `prefetch`,
    /// the readahead depth the store once took.
    ///
    /// # Errors
    /// As [`ShardStore::open_with_budget`].
    #[deprecated(note = "the store no longer reads ahead; use `ShardStore::open_with_budget`")]
    pub fn open_with_options(
        path: impl AsRef<Path>,
        budget: usize,
        _prefetch: usize,
    ) -> Result<Self> {
        Self::open_with_budget(path, budget)
    }

    /// Open a store with an explicit cache byte budget (`0` retains nothing:
    /// every access re-pages).
    ///
    /// # Errors
    /// Returns a structured error for any I/O failure or any header, schema,
    /// or directory corruption — truncated files included. Never panics.
    pub fn open_with_budget(path: impl AsRef<Path>, budget: usize) -> Result<Self> {
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

        let header_bytes = read_block(
            &file,
            0,
            usize::try_from(file_len).map_or(HEADER_LEN, |len| len.min(HEADER_LEN)),
            "file header",
        )?;
        let header = Header::decode(&header_bytes)?;
        let header_len = header.encoded_len();
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
        if header.group_rows == 0 {
            return Err(StoreError::Corrupt {
                offset: 48,
                what: "file header".into(),
                reason: "zero rows per checksummed group".into(),
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
        let len_bytes = read_block(&file, header_len as u64, 4, "schema block")?;
        let schema_len = u32::from_le_bytes(len_bytes[..4].try_into().expect("4")) as usize;
        if (header_len + 8 + schema_len) as u64 > file_len {
            return Err(StoreError::Corrupt {
                offset: header_len as u64,
                what: "schema block".into(),
                reason: format!("length {schema_len} runs past the file end"),
            });
        }
        let schema_bytes = read_block(&file, (header_len + 4) as u64, schema_len, "schema block")?;
        let crc_bytes = read_block(
            &file,
            (header_len + 4 + schema_len) as u64,
            4,
            "schema block",
        )?;
        let stored_crc = u32::from_le_bytes(crc_bytes[..4].try_into().expect("4"));
        if stored_crc != crc32(&schema_bytes) {
            return Err(StoreError::Corrupt {
                offset: (header_len + 4 + schema_len) as u64,
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
        let schema = decode_schema(&schema_bytes, (header_len + 4) as u64)?;

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
        let data_start = (header_len + 8 + schema_len) as u64;
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
            // Checked: a crafted header can make the block length (or the
            // block's end) overflow, which must be a structured error.
            let block_end = BlockLayout::new(
                header.version,
                entry.rows,
                header.group_rows,
                schema.num_features(),
                schema.num_fairness(),
            )
            .and_then(|layout| entry.offset.checked_add(layout.block_len()));
            if entry.offset < data_start
                || block_end.is_none_or(|end| end > header.directory_offset)
            {
                return Err(StoreError::Corrupt {
                    offset: header.directory_offset + (i * DIR_ENTRY_LEN) as u64,
                    what: format!("shard {i} directory entry"),
                    reason: format!(
                        "block at {} ending at {} outside the data region [{}, {})",
                        entry.offset,
                        block_end.map_or_else(|| "an overflowing offset".into(), |e| e.to_string()),
                        data_start,
                        header.directory_offset
                    ),
                });
            }
        }

        Ok(Self {
            file,
            path: path.display().to_string(),
            schema,
            shard_size,
            total_rows,
            version: header.version,
            group_rows: header.group_rows,
            directory,
            budget,
            cache: Mutex::new(CacheState::new()),
            cond: Condvar::new(),
            sweep: Mutex::new(()),
        })
    }

    /// The configured cache byte budget.
    #[must_use]
    pub fn cache_budget(&self) -> usize {
        self.budget
    }

    /// Snapshot of the cache counters.
    ///
    /// # Panics
    /// Panics if the cache lock is poisoned (a kernel panicked mid-access).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let st = self.cache.lock().expect("shard cache poisoned");
        CacheStats {
            hits: st.hits.get(),
            misses: st.misses.get(),
            evictions: st.evictions.get(),
            resident_bytes: st.resident(),
            peak_bytes: st.peak,
            pinned_shards: st.entries.values().filter(|e| e.pins > 0).count(),
            budget_bytes: self.budget,
            sparse_groups: st.sparse_groups.get(),
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
        if index >= self.directory.len() {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "shard {index} out of range ({} shards)",
                    self.directory.len()
                ),
            });
        }
        let data = self.pin(index)?;
        self.unpin(index);
        Ok(data)
    }

    /// Decode every shard front to back, verifying all checksums, without
    /// retaining anything in the cache — a full-file integrity scan.
    ///
    /// # Errors
    /// Returns the first corruption or I/O error encountered.
    pub fn verify(&self) -> Result<()> {
        for i in 0..self.directory.len() {
            self.load_shard(i)?;
        }
        Ok(())
    }

    /// Append the rows at the global indices `rows` to `out`, in the order
    /// given — the fallible form of [`ShardSource::gather_rows`]. Each run
    /// of indices that falls in one shard (the sampler emits them grouped
    /// by shard) is served on its own:
    ///
    /// * a **resident** shard is pinned and the rows are copied out of the
    ///   cached block, counting a cache hit;
    /// * a shard that is **not resident** is not paged in. Only the row
    ///   groups holding the requested rows are read (one positional read per
    ///   run of adjacent groups), verified and decoded;
    ///   nothing is admitted to the cache, so a gather never evicts a
    ///   sweep's shards and `peak_bytes <= budget` holds untouched.
    ///   [`CacheStats::sparse_groups`] counts the groups.
    ///
    /// 500 rows spread over sixteen 64k-row shards thus read about 500
    /// groups of [`crate::format::GROUP_ROWS`] rows instead of decoding
    /// sixteen shards (see the module docs for the page-cache assumption).
    ///
    /// # Errors
    /// [`StoreError::InvalidConfig`] for an index past the end, and a
    /// structured corruption or I/O error when a group fails its checksum or
    /// cannot be read. Rows gathered before the failure stay in `out`.
    pub fn read_rows(&self, rows: &[usize], out: &mut Dataset) -> Result<()> {
        if let Some(bad) = rows.iter().find(|&&g| g >= self.total_rows) {
            return Err(StoreError::InvalidConfig {
                reason: format!("row {bad} out of range ({} rows)", self.total_rows),
            });
        }
        let shard_size = self.shard_size;
        for run in rows.chunk_by(|a, b| a / shard_size == b / shard_size) {
            let index = run[0] / shard_size;
            if let Some(data) = self.pin_resident(index) {
                let _pin = PinGuard { store: self, index };
                let offset = index * shard_size;
                out.extend_from_rows(&data, run.iter().map(|&g| g - offset), true);
            } else {
                let groups = self.read_groups(index, run, out)?;
                let st = self.cache.lock().expect("shard cache poisoned");
                st.sparse_groups.add(groups);
            }
        }
        Ok(())
    }
}

impl ShardStore {
    /// The byte layout of shard `index`'s block (validated at open).
    fn layout(&self, index: usize) -> BlockLayout {
        BlockLayout::new(
            self.version,
            self.directory[index].rows,
            self.group_rows,
            self.schema.num_features(),
            self.schema.num_fairness(),
        )
        .expect("layout validated at open")
    }

    /// Fault point "decode", context "<path>#shardN": `panic` aborts the
    /// decode mid-flight, `delay` stalls it; the connection-shaped modes have
    /// no meaning here and are ignored.
    fn decode_fault(&self, index: usize) {
        match fair_core::fault::check("decode", &format!("{}#shard{}", self.path, index)) {
            Some(fair_core::FaultMode::Panic) => {
                panic!("injected decode fault: shard {index} of {}", self.path)
            }
            Some(fair_core::FaultMode::Delay(d)) => std::thread::sleep(d),
            _ => {}
        }
    }

    /// Decode shard `index` straight from disk (no cache interaction).
    fn load_shard(&self, index: usize) -> Result<Dataset> {
        // Attribute this page-in to the requesting job, when one is profiled
        // on this thread (the job thread inline, or a pool worker that
        // `parallel_map` re-installed the handle on): the whole load is
        // `decode` self-time, with the raw disk read carved out below as a
        // nested `page_in` scope.
        let _decode = fair_core::obs::profile::scope(fair_core::obs::Phase::Decode);
        self.decode_fault(index);
        let entry = self.directory[index];
        let layout = self.layout(index);
        let bytes = {
            let _io = fair_core::obs::profile::scope(fair_core::obs::Phase::PageIn);
            read_block(
                &self.file,
                entry.offset,
                usize::try_from(layout.block_len()).expect("block fits usize"),
                "shard block",
            )
            .map_err(|e| relabel(e, &format!("shard {index} block")))?
        };
        let stored_rows = u64::from_le_bytes(bytes[..8].try_into().expect("8"));
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

        let rows = usize::try_from(entry.rows).expect("rows fit usize (validated at open)");
        let nf = self.schema.num_features();
        let na = self.schema.num_fairness();
        let mut ids = Vec::with_capacity(rows);
        let mut features = Vec::with_capacity(rows * nf);
        let mut fairness = Vec::with_capacity(rows * na);
        let mut labels = Vec::with_capacity(rows);
        // Group by group, each slice verified before its values are decoded:
        // a group-major block decodes front to back.
        let slice = |c: usize, g: u64| {
            let (at, len) = layout.group_span(c, g);
            checked_group(
                &bytes,
                at as usize,
                len as usize,
                entry.offset + at,
                index,
                c,
                g,
            )
        };
        for g in 0..layout.groups() {
            ids.extend(slice(0, g)?.chunks_exact(8).map(|b| ObjectId(le_u64(b))));
            features.extend(slice(1, g)?.chunks_exact(8).map(le_f64));
            fairness.extend(slice(2, g)?.chunks_exact(8).map(le_f64));
            for &b in slice(3, g)? {
                labels.push(decode_label(b).ok_or_else(|| StoreError::Corrupt {
                    offset: entry.offset + layout.group_span(3, g).0,
                    what: format!("shard {index} labels group {g}"),
                    reason: format!("invalid label byte {b}"),
                })?);
            }
        }
        Ok(Dataset::from_columns(
            self.schema.clone(),
            ids,
            features,
            fairness,
            labels,
        )?)
    }

    /// Append the rows `run` (global indices, all in shard `index`) to
    /// `out` in order, reading only the row groups that hold them. The
    /// groups' slices are read in file order, one positional read for each
    /// stretch of slices that touch: one per run of adjacent groups in a
    /// group-major block, one per column of such a run in a column-major
    /// one. Every slice's CRC is verified before any of its values is
    /// decoded, and only the requested rows are decoded. Nothing is admitted
    /// to the cache. Returns the number of groups read.
    fn read_groups(&self, index: usize, run: &[usize], out: &mut Dataset) -> Result<u64> {
        // The reads are `page_in`; the checksums and the decode `decode`.
        let _decode = fair_core::obs::profile::scope(fair_core::obs::Phase::Decode);
        self.decode_fault(index);
        let entry = self.directory[index];
        let layout = self.layout(index);
        let first_row = index * self.shard_size;
        let group_rows = layout.group_rows();
        let mut groups: Vec<u64> = run
            .iter()
            .map(|&g| (g - first_row) as u64 / group_rows)
            .collect();
        groups.sort_unstable();
        groups.dedup();
        let slices = slices(&layout, &groups);
        // The bytes read, and where each slice (by `k * 4 + c`) starts in
        // them. The reads cover exactly the slices and their CRCs.
        let mut bytes = Vec::with_capacity(slices.iter().map(|s| s.len as usize + 4).sum());
        let mut starts = vec![0; slices.len()];
        {
            let _io = fair_core::obs::profile::scope(fair_core::obs::Phase::PageIn);
            for span in slices.chunk_by(Slice::touches) {
                let first = span[0].offset;
                let last = span[span.len() - 1];
                let at = bytes.len();
                bytes.resize(at + (last.offset + last.len + 4 - first) as usize, 0);
                read_at(&self.file, &mut bytes[at..], entry.offset + first, || {
                    format!("shard {index} row groups")
                })?;
                for s in span {
                    starts[s.k * COLUMNS.len() + s.c] = at + (s.offset - first) as usize;
                }
            }
        }
        for s in &slices {
            let at = starts[s.k * COLUMNS.len() + s.c];
            let (len, g) = (s.len as usize, groups[s.k]);
            checked_group(&bytes, at, len, entry.offset + s.offset, index, s.c, g)?;
        }
        let nf = self.schema.num_features();
        let na = self.schema.num_fairness();
        let (mut features, mut fairness) = (Vec::with_capacity(nf), Vec::with_capacity(na));
        for &global in run {
            let local = (global - first_row) as u64;
            let k = groups
                .binary_search(&(local / group_rows))
                .expect("the row's group was read");
            let row = (local % group_rows) as usize;
            let value = |c: usize, width: usize| {
                let at = starts[k * COLUMNS.len() + c] + row * width;
                &bytes[at..at + width]
            };
            let id = ObjectId(le_u64(value(0, 8)));
            features.clear();
            features.extend(value(1, 8 * nf).chunks_exact(8).map(le_f64));
            fairness.clear();
            fairness.extend(value(2, 8 * na).chunks_exact(8).map(le_f64));
            let byte = value(3, 1)[0];
            let label = decode_label(byte).ok_or_else(|| StoreError::Corrupt {
                offset: entry.offset + layout.group_span(3, local / group_rows).0,
                what: format!("shard {index} labels group {}", local / group_rows),
                reason: format!("invalid label byte {byte}"),
            })?;
            out.push_row(ObjectView::new(id, &features, &fairness, label));
        }
        Ok(groups.len() as u64)
    }

    /// Pin shard `index` if it is resident and count a hit; `None` when it
    /// is not. Never pages in.
    fn pin_resident(&self, index: usize) -> Option<Arc<Dataset>> {
        pin_hit(&mut self.cache.lock().expect("shard cache poisoned"), index)
    }

    /// Look the shard up in the cache (pinning it) or page it in on a miss.
    fn pin(&self, index: usize) -> Result<Arc<Dataset>> {
        let bytes = self.shard_bytes(index);
        {
            let mut st = self.cache.lock().expect("shard cache poisoned");
            loop {
                if let Some(data) = pin_hit(&mut st, index) {
                    return Ok(data);
                }
                if !st.inflight.contains(&index) {
                    break;
                }
                // Another worker is decoding this very shard: wait for it
                // instead of decoding the block a second time. The wait is
                // page-in time from the requesting job's point of view.
                let _wait = fair_core::obs::profile::scope(fair_core::obs::Phase::PageIn);
                st = self.cond.wait(st).expect("shard cache poisoned");
            }
            st.misses.inc();
            st.inflight.insert(index);
            // Make room and reserve the shard's bytes *before* decoding, so
            // the victims' buffers are freed before the new ones are
            // allocated and the resident set only ever exceeds the budget
            // by what is pinned or being decoded.
            evict_until(&mut st, self.budget.saturating_sub(bytes));
            st.reserve(bytes);
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
        match decoded {
            Ok(Ok(data)) => {
                debug_assert_eq!(column_bytes(&data), bytes, "shard_bytes is exact");
                let data = Arc::new(data);
                st.entries.insert(
                    index,
                    CacheEntry {
                        data: Arc::clone(&data),
                        bytes,
                        pins: 1,
                    },
                );
                Ok(data)
            }
            Ok(Err(e)) => {
                st.release(bytes);
                Err(e)
            }
            Err(panic) => {
                st.release(bytes);
                drop(st);
                std::panic::resume_unwind(panic);
            }
        }
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

    /// Column bytes of shard `index` from its directory entry — exact for
    /// this fixed-width layout, so a miss can reserve them before decoding.
    fn shard_bytes(&self, index: usize) -> usize {
        usize::try_from(self.directory[index].rows)
            .unwrap_or(usize::MAX)
            .saturating_mul(row_bytes(&self.schema))
    }
}

/// Pin the resident entry for `index`, if any, and count a cache hit.
fn pin_hit(st: &mut CacheState, index: usize) -> Option<Arc<Dataset>> {
    let e = st.entries.get_mut(&index)?;
    e.pins += 1;
    let data = Arc::clone(&e.data);
    st.hits.inc();
    Some(data)
}

/// Evict unpinned shards, highest index first, until at most `target`
/// column bytes stay resident (or nothing evictable remains). Sweeps visit
/// shards in ascending order, so the low shards this spares are the next
/// sweep's first hits, where LRU would evict each shard before its next use.
fn evict_until(st: &mut CacheState, target: usize) {
    while st.resident() > target {
        let Some(victim) = st
            .entries
            .iter()
            .rev()
            .find(|(_, e)| e.pins == 0)
            .map(|(&k, _)| k)
        else {
            break;
        };
        let e = st.entries.remove(&victim).expect("victim exists");
        st.release(e.bytes);
        st.evictions.inc();
    }
}

/// Column `c`'s slice of `groups[k]` in a gather: `len` value bytes at
/// `offset` from the start of the shard block, then its CRC32.
#[derive(Clone, Copy)]
struct Slice {
    offset: u64,
    len: u64,
    k: usize,
    c: usize,
}

impl Slice {
    /// Whether `next` starts where this slice's CRC ends, so one positional
    /// read fetches both.
    fn touches(&self, next: &Self) -> bool {
        self.offset + self.len + 4 == next.offset
    }
}

/// Every column slice of `groups` (ascending) in file order, as `layout`
/// places them.
fn slices(layout: &BlockLayout, groups: &[u64]) -> Vec<Slice> {
    let mut slices: Vec<Slice> = groups
        .iter()
        .enumerate()
        .flat_map(|(k, &g)| {
            (0..COLUMNS.len()).map(move |c| {
                let (offset, len) = layout.group_span(c, g);
                Slice { offset, len, k, c }
            })
        })
        .collect();
    slices.sort_unstable_by_key(|s| s.offset);
    slices
}

/// Fill `buf` from `offset`, mapping short reads to structured truncation
/// errors about `what` (named only on failure).
fn read_at(
    file: &StoreFile,
    buf: &mut [u8],
    offset: u64,
    what: impl FnOnce() -> String,
) -> Result<()> {
    file.read_exact_at(buf, offset).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Corrupt {
                offset,
                what: what(),
                reason: format!("truncated: {} bytes expected", buf.len()),
            }
        } else {
            StoreError::Io(e)
        }
    })
}

/// Read `len` bytes at `offset`, mapping short reads to structured
/// truncation errors.
fn read_block(file: &StoreFile, offset: u64, len: usize, what: &str) -> Result<Vec<u8>> {
    let mut buf = vec![0_u8; len];
    read_at(file, &mut buf, offset, || what.to_string())?;
    Ok(buf)
}

/// Column `c`'s slice of group `g` of shard `index`: its `len` value bytes
/// at `at` in `bytes`, verified against the CRC32 that follows them. Errors
/// name the column, the group and the slice's file offset `offset`.
fn checked_group(
    bytes: &[u8],
    at: usize,
    len: usize,
    offset: u64,
    index: usize,
    c: usize,
    g: u64,
) -> Result<&[u8]> {
    let body = &bytes[at..at + len];
    let stored = u32::from_le_bytes(bytes[at + len..at + len + 4].try_into().expect("4"));
    let actual = crc32(body);
    if stored != actual {
        return Err(StoreError::Corrupt {
            offset,
            what: format!("shard {index} {} group {g}", COLUMNS[c]),
            reason: format!("checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"),
        });
    }
    Ok(body)
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8"))
}

fn le_f64(b: &[u8]) -> f64 {
    f64::from_bits(le_u64(b))
}

/// A label byte: 0 = unlabelled, 1 = false, 2 = true; `None` otherwise.
fn decode_label(b: u8) -> Option<Option<bool>> {
    match b {
        0 => Some(None),
        1 => Some(Some(false)),
        2 => Some(Some(true)),
        _ => None,
    }
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
    store: &'a ShardStore,
    index: usize,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.store.unpin(self.index);
    }
}

impl ShardSource for ShardStore {
    fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    fn len(&self) -> usize {
        self.total_rows
    }

    fn shard_size(&self) -> usize {
        self.shard_size
    }

    fn num_shards(&self) -> usize {
        self.directory.len()
    }

    /// Page the shard in (cache hit or disk read), pin it for the duration
    /// of `f`, and unpin on return — eviction can then reclaim it. The view
    /// holds the shard's `Arc`, so a kernel that keeps it keeps the block
    /// alive, unpinned, until it drops the view.
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
    fn with_shard<'s, T>(&'s self, index: usize, f: impl FnOnce(ShardView<'s>) -> T) -> T {
        assert!(
            index < self.directory.len(),
            "shard {index} out of bounds ({})",
            self.directory.len()
        );
        let data = match self.pin(index) {
            Ok(data) => data,
            Err(e) => panic!("fair-store: cannot page in shard {index}: {e}"),
        };
        let _pin = PinGuard { store: self, index };
        f(ShardView::from_arc(index, index * self.shard_size, data))
    }

    /// [`ShardStore::read_rows`]: resident shards are copied from the cache,
    /// the others read only the row groups that hold the rows. Its errors
    /// come back as [`FairError::Storage`], whose message keeps the shard,
    /// column, group and file offset.
    fn gather_rows(&self, rows: &[usize], out: &mut Dataset) -> fair_core::Result<()> {
        self.read_rows(rows, out).map_err(|e| FairError::Storage {
            reason: e.to_string(),
        })
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
    fn map_shards<'s, T, F>(&'s self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ShardView<'s>) -> T + Sync,
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

    /// Fault plans are process-wide: tests that install one take turns.
    static FAULTS: Mutex<()> = Mutex::new(());

    fn assert_same_rows(actual: &Dataset, expected: &Dataset) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(actual.ids(), expected.ids());
        assert_eq!(actual.labels(), expected.labels());
        assert_eq!(
            bits(actual.features_matrix()),
            bits(expected.features_matrix())
        );
        assert_eq!(
            bits(actual.fairness_matrix()),
            bits(expected.fairness_matrix())
        );
    }

    /// The in-memory gather of `rows`: the reference every store gather must
    /// reproduce bit for bit.
    fn memory_rows(data: &ShardedDataset, rows: &[usize]) -> Dataset {
        let mut out = Dataset::empty(schema());
        data.gather_rows(rows, &mut out).unwrap();
        out
    }

    #[test]
    fn gathers_copy_resident_shards_and_read_only_the_groups_of_the_rest() {
        // Two 100-row shards: groups of 32, 32, 32 and a short one of 4.
        let data = ShardedDataset::from_objects(schema(), objects(200), 100).unwrap();
        let path = temp_path("gather_groups");
        write_source(&data, &path).unwrap();
        let store = ShardStore::open_with_budget(&path, usize::MAX).unwrap();
        // Shard 0 needs groups 0, 2 and 3; shard 1 groups 1 and 0.
        let rows = [5, 70, 99, 3, 150, 131, 101];
        let mut out = Dataset::empty(schema());
        store.read_rows(&rows, &mut out).unwrap();
        assert_same_rows(&out, &memory_rows(&data, &rows));
        let stats = store.cache_stats();
        assert_eq!(stats.sparse_groups, 5);
        assert_eq!((stats.hits, stats.misses), (0, 0), "no shard paged in");
        assert_eq!(stats.peak_bytes, 0, "nothing admitted");

        // Once shard 1 is resident its run is a cache hit and reads nothing.
        store.read_shard(1).unwrap();
        out.clear();
        store.read_rows(&rows, &mut out).unwrap();
        assert_same_rows(&out, &memory_rows(&data, &rows));
        let stats = store.cache_stats();
        assert_eq!(stats.sparse_groups, 8);
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.pinned_shards, 0);

        assert!(matches!(
            store.read_rows(&[200], &mut out),
            Err(StoreError::InvalidConfig { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    /// A gather reads each stretch of touching slices at once: one read per
    /// run of adjacent groups of a group-major block, one per column of
    /// such a run of a column-major block (plus the merges where a column's
    /// last group touches the next column's first), and one of a version-1
    /// block.
    #[test]
    fn a_gather_reads_one_span_per_run_of_adjacent_groups() {
        use crate::format::{VERSION, VERSION_1, VERSION_2};
        // 100 rows in groups of 32, 32, 32 and 4.
        let reads = |version, groups: &[u64]| {
            let layout = BlockLayout::new(version, 100, 32, 1, 2).unwrap();
            slices(&layout, groups).chunk_by(Slice::touches).count()
        };
        assert_eq!(reads(VERSION, &[0, 1, 3]), 2);
        assert_eq!(reads(VERSION, &[0, 1, 2, 3]), 1);
        assert_eq!(reads(VERSION_2, &[1, 2]), 4);
        // ids 0-1 · ids 3 + features 0-1 · features 3 + fairness 0-1 ·
        // fairness 3 + labels 0-1 · labels 3.
        assert_eq!(reads(VERSION_2, &[0, 1, 3]), 5);
        let v1 = BlockLayout::new(VERSION_1, 8, 8, 1, 2).unwrap();
        assert_eq!(slices(&v1, &[0]).chunk_by(Slice::touches).count(), 1);
    }

    /// Gathers that run while sweeps page shards in and out return the
    /// in-memory rows bit for bit, whether the cache or the file serves a
    /// shard, and leave the budget intact.
    #[test]
    fn gathers_during_sweeps_return_the_in_memory_rows() {
        let data = ShardedDataset::from_objects(schema(), objects(640), 40).unwrap(); // 16 shards
        let path = temp_path("gather_sweeps");
        write_source(&data, &path).unwrap();
        let budget = 3 * column_bytes(data.shard(0).data());
        let store = ShardStore::open_with_budget(&path, budget).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..20 {
                    assert_eq!(store.map_shards(|view| view.len()), vec![40; 16]);
                }
            });
            for thread in 0..2_u64 {
                let (store, data) = (&store, &data);
                scope.spawn(move || {
                    let mut rows = Vec::new();
                    let mut out = Dataset::empty(schema());
                    for seed in 0..40 {
                        data.sample_indices_into(thread * 1000 + seed, 60, &mut rows)
                            .unwrap();
                        out.clear();
                        store.gather_rows(&rows, &mut out).unwrap();
                        assert_same_rows(&out, &memory_rows(data, &rows));
                    }
                });
            }
        });
        let stats = store.cache_stats();
        assert!(stats.sparse_groups > 0);
        assert!(stats.peak_bytes <= budget, "{stats:?}");
        assert_eq!(stats.pinned_shards, 0);
        std::fs::remove_file(path).ok();
    }

    /// The sparse read checks the `decode` fault point: an injected panic
    /// unwinds in the caller (holding no lock and no in-flight claim), and
    /// the next gather reads the same rows.
    #[test]
    fn a_decode_fault_in_a_gather_panics_in_the_caller_and_the_next_gather_succeeds() {
        let _faults = FAULTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let data = ShardedDataset::from_objects(schema(), objects(48), 8).unwrap();
        let path = temp_path("gatherfault");
        write_source(&data, &path).unwrap();
        let ctx = format!("{}#shard1", path.display());
        fair_core::fault::install(
            fair_core::FaultPlan::parse(&format!("decode@{ctx}:panic:1")).unwrap(),
        );
        let store = ShardStore::open_with_budget(&path, 0).unwrap();
        let rows = [2, 9, 12, 30];
        let mut out = Dataset::empty(schema());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.read_rows(&rows, &mut out)
        }));
        assert!(caught.is_err(), "the injected fault panics in the caller");
        out.clear();
        store.read_rows(&rows, &mut out).unwrap();
        assert_same_rows(&out, &memory_rows(&data, &rows));
        assert_eq!(store.cache_stats().pinned_shards, 0);
        fair_core::fault::install(fair_core::FaultPlan::none());
        std::fs::remove_file(path).ok();
    }

    /// Racing reads of one shard decode it once: the second waits for the
    /// first's decode and shares its block.
    #[test]
    fn racing_reads_of_one_shard_share_one_decode() {
        let _faults = FAULTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let path = sample_store("coalesce", 48, 8); // 6 shards
        let ctx = format!("{}#shard1", path.display());
        fair_core::fault::install(
            fair_core::FaultPlan::parse(&format!("decode@{ctx}:delay:50:1")).unwrap(),
        );
        let store = ShardStore::open_with_budget(&path, usize::MAX).unwrap();
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(|| store.read_shard(1).unwrap());
            // The miss is counted under the lock that claims the decode, so
            // from here on the second read finds the claim (or the shard).
            while store.cache_stats().misses == 0 {
                std::thread::yield_now();
            }
            let second = scope.spawn(|| store.read_shard(1).unwrap());
            (first.join().unwrap(), second.join().unwrap())
        });
        fair_core::fault::install(fair_core::FaultPlan::none());
        let stats = store.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "{stats:?}");
        assert!(Arc::ptr_eq(&first, &second), "both reads share one block");
        std::fs::remove_file(path).ok();
    }

    /// A decode that panics unwinds in the caller, returns its byte
    /// reservation and its in-flight claim, and the next read decodes the
    /// shard.
    #[test]
    fn a_panicking_decode_returns_its_reservation_and_the_next_read_succeeds() {
        let _faults = FAULTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let path = sample_store("decodepanic", 48, 8); // 6 shards
        let ctx = format!("{}#shard1", path.display());
        fair_core::fault::install(
            fair_core::FaultPlan::parse(&format!("decode@{ctx}:panic:1")).unwrap(),
        );
        let store = Arc::new(ShardStore::open_with_budget(&path, usize::MAX).unwrap());
        store.read_shard(0).unwrap();
        let before = store.cache_stats().resident_bytes;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.read_shard(1)));
        assert!(caught.is_err(), "the injected fault panics in the caller");
        let stats = store.cache_stats();
        assert_eq!(stats.pinned_shards, 0);
        assert_eq!(stats.resident_bytes, before, "the reservation is returned");
        // A leaked in-flight claim would make the retry wait forever, so it
        // runs on a helper thread and the test waits with a deadline.
        let (tx, rx) = std::sync::mpsc::channel();
        let retry = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || tx.send(store.read_shard(1).map(|d| d.len())))
        };
        let len = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the retry hangs on a leaked in-flight claim");
        retry.join().unwrap().unwrap();
        assert_eq!(len.unwrap(), 8);
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
        let store = ShardStore::open_with_budget(&path, 0).unwrap();
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
    fn eviction_respects_the_byte_budget_and_index_order() {
        let path = sample_store("evict_order", 40, 8); // 5 shards of 8 rows
        let store = ShardStore::open_with_budget(&path, usize::MAX).unwrap();
        let shard_bytes = column_bytes(&store.read_shard(0).unwrap());
        drop(store);

        // Room for exactly two shards.
        let store = ShardStore::open_with_budget(&path, 2 * shard_bytes).unwrap();
        store.with_shard(1, |_| ());
        store.with_shard(0, |_| ());
        store.with_shard(1, |_| ()); // 0 is now the least recently used
        assert_eq!(store.cache_stats().resident_bytes, 2 * shard_bytes);
        store.with_shard(2, |_| ());
        let stats = store.cache_stats();
        assert_eq!(stats.resident_bytes, 2 * shard_bytes);
        assert_eq!(stats.evictions, 1);
        assert!(stats.peak_bytes <= 2 * shard_bytes, "make-room-then-admit");
        // The highest index went, not the least recently used: 0 must still
        // be cached (hit), 1 must have been evicted (miss).
        let before = store.cache_stats().hits;
        store.with_shard(0, |_| ());
        assert_eq!(store.cache_stats().hits, before + 1);
        let misses = store.cache_stats().misses;
        store.with_shard(1, |_| ());
        assert_eq!(store.cache_stats().misses, misses + 1);
        std::fs::remove_file(path).ok();
    }

    /// Sweeps in ascending order over a store larger than the cache keep
    /// the lowest shards that fit: every sweep after the first hits on
    /// shards 0 and 1, where LRU would evict each shard before its next use.
    #[test]
    fn repeated_sweeps_keep_the_lowest_shards_resident() {
        let path = sample_store("resident_set", 64, 8); // 8 shards
        let probe = ShardStore::open_with_budget(&path, 0).unwrap();
        let budget = 3 * column_bytes(&probe.read_shard(0).unwrap());
        drop(probe);

        let store = ShardStore::open_with_budget(&path, budget).unwrap();
        for sweep in 0..4 {
            let mut hit = Vec::new();
            let before = store.cache_stats();
            for i in 0..8 {
                let hits = store.cache_stats().hits;
                store.with_shard(i, |view| assert_eq!(view.len(), 8));
                if store.cache_stats().hits > hits {
                    hit.push(i);
                }
            }
            let expected: &[usize] = if sweep == 0 { &[] } else { &[0, 1] };
            assert_eq!(hit, expected, "hits of sweep {sweep}");
            let misses = store.cache_stats().misses - before.misses;
            assert_eq!(misses, 8 - expected.len() as u64, "sweep {sweep}");
        }
        let stats = store.cache_stats();
        assert!(stats.peak_bytes <= budget, "{stats:?}");
        std::fs::remove_file(path).ok();
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
        assert_eq!(
            store.cache_stats().resident_bytes,
            0,
            "a failed decode returns its reservation"
        );
        assert!(store.verify().is_err());
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
        // A zero group size would divide by zero in the block layout.
        let crafted = Header {
            group_rows: 0,
            ..original
        };
        bytes[..HEADER_LEN].copy_from_slice(&crafted.encode());
        std::fs::write(&path, &bytes).unwrap();
        match ShardStore::open_with_budget(&path, 0) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("group"), "{reason}")
            }
            other => panic!("a zero group size must be structured, got {other:?}"),
        }
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
}

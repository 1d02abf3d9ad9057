//! Streaming FSS1 writer: shards are appended to disk as they are built, so
//! the cohort is never materialized — peak memory is one shard. It writes
//! the current format version: [`GROUP_ROWS`]-row groups, stored
//! group-major, with a CRC32 after every column slice. Small groups keep a
//! sampled read small (a Core DCA gather reads and verifies each sampled
//! row's whole group) for two CRC bytes per row on disk.

use crate::error::{Result, StoreError};
use crate::format::{
    crc32, encode_directory, encode_schema, fnv1a64, put_u32, put_u64, Header, ShardEntry,
    GROUP_ROWS, VERSION,
};
use fair_core::{DataObject, Dataset, SchemaRef};
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Summary of a finished store file, returned by [`StoreWriter::finalize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    /// Total rows written.
    pub rows: u64,
    /// Number of shards written.
    pub shards: u64,
    /// Final file length in bytes.
    pub file_bytes: u64,
}

/// Streaming writer for an FSS1 shard file.
///
/// Rows arrive either one at a time ([`StoreWriter::push`] buffers them into
/// shard-sized blocks) or as whole shards ([`StoreWriter::append_shard`]);
/// each full shard is encoded, checksummed, and written immediately.
/// [`StoreWriter::finalize`] flushes a trailing short shard, writes the shard
/// directory, and patches the header — until then the file is deliberately
/// unreadable (the header carries a zero directory offset), so a crashed
/// writer can never masquerade as a valid store.
pub struct StoreWriter {
    file: BufWriter<File>,
    /// The directory holding the file, synced at finalize so the file's
    /// entry survives a crash.
    #[cfg_attr(not(unix), allow(dead_code))]
    dir: PathBuf,
    schema: SchemaRef,
    shard_size: usize,
    /// Directory entries of the shards written so far.
    entries: Vec<ShardEntry>,
    /// Current write offset (bytes written since the start of the file).
    offset: u64,
    /// Row buffer for the push path; always holds `< shard_size` rows after
    /// a push returns.
    buffer: Dataset,
    /// Set once a short (non-full) shard has been appended: the file layout
    /// allows only the *final* shard to be short, so the writer seals.
    sealed: bool,
    /// Reusable block-encoding scratch.
    scratch: Vec<u8>,
}

impl std::fmt::Debug for StoreWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreWriter")
            .field("shard_size", &self.shard_size)
            .field("shards_written", &self.entries.len())
            .field("offset", &self.offset)
            .finish()
    }
}

impl StoreWriter {
    /// Create (truncate) the file at `path` and write the provisional header
    /// plus the schema block.
    ///
    /// # Errors
    /// Returns an error on a zero `shard_size` or on I/O failure.
    pub fn create(path: impl AsRef<Path>, schema: SchemaRef, shard_size: usize) -> Result<Self> {
        if shard_size == 0 {
            return Err(StoreError::InvalidConfig {
                reason: "shard size must be positive".into(),
            });
        }
        let path = path.as_ref();
        let mut file = BufWriter::new(File::create(path)?);
        let schema_bytes = encode_schema(&schema);
        // Provisional header: directory offset 0 marks the file unfinalized.
        let header = Header {
            version: VERSION,
            schema_hash: fnv1a64(&schema_bytes),
            shard_size: shard_size as u64,
            total_rows: 0,
            num_shards: 0,
            directory_offset: 0,
            group_rows: GROUP_ROWS,
        };
        let header = header.encode();
        file.write_all(&header)?;
        let mut block = Vec::with_capacity(schema_bytes.len() + 8);
        put_u32(
            &mut block,
            u32::try_from(schema_bytes.len()).expect("small schema"),
        );
        block.extend_from_slice(&schema_bytes);
        put_u32(&mut block, crc32(&schema_bytes));
        file.write_all(&block)?;
        let offset = (header.len() + block.len()) as u64;
        let buffer = Dataset::with_capacity(schema.clone(), shard_size.min(1 << 20));
        Ok(Self {
            file,
            dir: parent_dir(path).to_path_buf(),
            schema,
            shard_size,
            entries: Vec::new(),
            offset,
            buffer,
            sealed: false,
            scratch: Vec::new(),
        })
    }

    /// The schema every appended row/shard must match.
    #[must_use]
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Rows accepted so far (written shards plus the open buffer).
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.entries.iter().map(|e| e.rows).sum::<u64>() + self.buffer.len() as u64
    }

    /// Append one row; a full buffer is flushed to disk as a shard.
    ///
    /// # Errors
    /// Returns an error if the object does not match the schema, if the file
    /// is sealed by an earlier short shard, or on I/O failure.
    pub fn push(&mut self, object: DataObject) -> Result<()> {
        if self.sealed {
            return Err(StoreError::InvalidConfig {
                reason: "store already holds a short final shard; no rows may follow".into(),
            });
        }
        self.buffer.push(object)?;
        if self.buffer.len() == self.shard_size {
            let shard = std::mem::replace(
                &mut self.buffer,
                Dataset::with_capacity(self.schema.clone(), self.shard_size.min(1 << 20)),
            );
            self.write_block(&shard)?;
        }
        Ok(())
    }

    /// Append a pre-built shard. Every shard but the last must hold exactly
    /// `shard_size` rows; appending a short shard seals the file.
    ///
    /// # Errors
    /// Returns an error on schema mismatch, an empty or oversized shard, an
    /// append after sealing, interleaving with buffered [`StoreWriter::push`]
    /// rows, or I/O failure.
    pub fn append_shard(&mut self, shard: &Dataset) -> Result<()> {
        if self.sealed {
            return Err(StoreError::InvalidConfig {
                reason: "store already holds a short final shard; no shards may follow".into(),
            });
        }
        if !self.buffer.is_empty() {
            return Err(StoreError::InvalidConfig {
                reason: "cannot append whole shards while pushed rows are buffered".into(),
            });
        }
        if **shard.schema() != *self.schema {
            return Err(StoreError::InvalidConfig {
                reason: "shard schema differs from the store schema".into(),
            });
        }
        if shard.is_empty() {
            return Err(StoreError::InvalidConfig {
                reason: "cannot append an empty shard".into(),
            });
        }
        if shard.len() > self.shard_size {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "shard holds {} rows, more than the shard size {}",
                    shard.len(),
                    self.shard_size
                ),
            });
        }
        if shard.len() < self.shard_size {
            self.sealed = true;
        }
        self.write_block(shard)
    }

    /// Encode `shard` into the scratch buffer and write it at the current
    /// offset, recording the directory entry: the row count, then each
    /// [`GROUP_ROWS`]-row group's four column slices, each checksummed.
    fn write_block(&mut self, shard: &Dataset) -> Result<()> {
        let rows = shard.len();
        let nf = self.schema.num_features();
        let na = self.schema.num_fairness();
        let out = &mut self.scratch;
        out.clear();
        put_u64(out, rows as u64);
        let group = GROUP_ROWS as usize;
        for lo in (0..rows).step_by(group) {
            let r = lo..(lo + group).min(rows);
            put_slice(out, |out| {
                for id in &shard.ids()[r.clone()] {
                    put_u64(out, id.0);
                }
            });
            put_slice(out, |out| {
                for v in &shard.features_matrix()[r.start * nf..r.end * nf] {
                    put_u64(out, v.to_bits());
                }
            });
            put_slice(out, |out| {
                for v in &shard.fairness_matrix()[r.start * na..r.end * na] {
                    put_u64(out, v.to_bits());
                }
            });
            put_slice(out, |out| {
                out.extend(shard.labels()[r.clone()].iter().map(|label| match label {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                }));
            });
        }

        self.file.write_all(out)?;
        self.entries.push(ShardEntry {
            offset: self.offset,
            rows: rows as u64,
        });
        self.offset += out.len() as u64;
        Ok(())
    }

    /// Flush any buffered rows as a (possibly short) final shard, write the
    /// shard directory, patch the header with the final counts and the
    /// directory offset, and sync the file and then its directory, so a
    /// file whose `finalize` returned keeps its name after a crash.
    ///
    /// # Errors
    /// Returns an error on I/O failure.
    pub fn finalize(mut self) -> Result<StoreSummary> {
        if !self.buffer.is_empty() {
            let shard = std::mem::replace(&mut self.buffer, Dataset::empty(self.schema.clone()));
            self.write_block(&shard)?;
        }
        let directory_offset = self.offset;
        let directory = encode_directory(&self.entries);
        self.file.write_all(&directory)?;
        let file_bytes = directory_offset + directory.len() as u64;

        let total_rows: u64 = self.entries.iter().map(|e| e.rows).sum();
        let header = Header {
            version: VERSION,
            schema_hash: fnv1a64(&encode_schema(&self.schema)),
            shard_size: self.shard_size as u64,
            total_rows,
            num_shards: self.entries.len() as u64,
            directory_offset,
            group_rows: GROUP_ROWS,
        };
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header.encode())?;
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        // Only Unix opens a directory as a file, to sync it.
        #[cfg(unix)]
        File::open(&self.dir)?.sync_all()?;
        Ok(StoreSummary {
            rows: total_rows,
            shards: self.entries.len() as u64,
            file_bytes,
        })
    }
}

/// Append one column slice of a group to `out`, followed by its CRC32;
/// `put` encodes the slice's values.
fn put_slice(out: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    put(out);
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

/// The directory whose entry for the file at `path` `finalize` syncs. A
/// bare file name's parent is `""`, the current directory.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Write any [`fair_core::ShardSource`] to a store file shard by shard — the
/// converter behind `ShardedDataset → disk` (and store-to-store copies).
/// Peak memory is one shard.
///
/// # Errors
/// Returns an error on I/O failure or an empty source shard.
pub fn write_source<S>(source: &S, path: impl AsRef<Path>) -> Result<StoreSummary>
where
    S: fair_core::ShardSource + ?Sized,
{
    let mut writer = StoreWriter::create(path, source.schema().clone(), source.shard_size())?;
    for i in 0..source.num_shards() {
        source.with_shard(i, |shard| writer.append_shard(shard.data()))?;
    }
    writer.finalize()
}

#[cfg(test)]
mod tests {
    use super::parent_dir;
    use std::path::Path;

    #[test]
    fn a_bare_file_name_syncs_the_current_directory() {
        assert_eq!(parent_dir(Path::new("cohort.fss")), Path::new("."));
        assert_eq!(parent_dir(Path::new("./cohort.fss")), Path::new("."));
        assert_eq!(parent_dir(Path::new("data/cohort.fss")), Path::new("data"));
        assert_eq!(parent_dir(Path::new("/cohort.fss")), Path::new("/"));
    }
}

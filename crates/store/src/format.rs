//! The FSS1 on-disk layout: header, embedded schema, shard blocks, and the
//! trailing shard directory — plus the std-only CRC32/FNV primitives that
//! checksum them.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ header (60 B): magic "FSS1" · version · schema hash · shard size │
//! │         total rows · shard count · directory offset · G · CRC    │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ schema block: length-prefixed serialization + CRC                │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ shard 0: rows ┆ g0: ids+CRC features+CRC fairness+CRC labels+CRC │
//! │               ┆ g1: ids+CRC features+CRC fairness+CRC labels+CRC │
//! │               ┆ …   (G rows a group; the last may be short)      │
//! │ shard 1: …                                                       │
//! │ ⋮   (appended as they are built — streaming writes)              │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ directory: per shard (offset, rows) + CRC   (written at finalize)│
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every multi-byte integer is little-endian. Each shard block is cut into
//! row groups of `G` rows ([`GROUP_ROWS`] in the files the writer produces),
//! stored **group-major** (format version 3, the PAX layout): a group holds
//! its ids, features, fairness and labels slices back to back, and every
//! slice carries its own CRC32. A flipped byte anywhere is caught before any
//! value of its slice is interpreted, and a reader that wants a few rows
//! reads one contiguous span per group holding them. Columns are
//! fixed-width, so every slice's position is arithmetic on the directory
//! entry ([`BlockLayout`]). The header additionally pins the schema by an
//! FNV-1a hash so a file can never be decoded under the wrong column
//! layout.
//!
//! Two older layouts stay readable through the same decoder:
//!
//! * version 2 stores the same slices **column-major** — each column's
//!   groups back to back, then the next column's;
//! * version 1 (52-byte header, no `G`) checksums each column block whole.
//!   That is the case `G` = shard size: one group per block, whose layout
//!   is the same in either order.
//!
//! Only [`BlockLayout`] knows the order: it is a second span formula, not a
//! second decoder.

use crate::error::{Result, StoreError};
use fair_core::{FairnessAttribute, FairnessKind, Schema, SchemaRef};

/// The four magic bytes opening every shard file.
pub const MAGIC: [u8; 4] = *b"FSS1";
/// Current format revision: checksummed row groups, stored group-major.
pub const VERSION: u16 = 3;
/// The second revision: checksummed row groups, stored column-major.
pub const VERSION_2: u16 = 2;
/// The first revision: one checksum per column block.
pub const VERSION_1: u16 = 1;
/// Byte length of the current file header.
pub const HEADER_LEN: usize = 60;
/// Byte length of a version-1 file header, which has no group size.
pub const HEADER_LEN_V1: usize = 52;
/// Rows per checksummed group in the files [`crate::StoreWriter`] writes.
/// At the benchmark's 65 bytes per row a group's four CRCs add half a byte
/// per row, and a sampled row costs reading about 2 KB.
pub const GROUP_ROWS: u64 = 32;
/// Byte length of one shard-directory entry (`offset u64`, `rows u64`).
pub const DIR_ENTRY_LEN: usize = 16;

// ---------------------------------------------------------------------
// Checksums.
// ---------------------------------------------------------------------

/// Slice-by-16 CRC32 (IEEE 802.3, reflected) lookup tables, built once.
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[t][b]` advances
/// byte `b` through `t` additional zero bytes, which lets the hot loop fold
/// 16 input bytes per iteration instead of one.
fn crc_tables() -> &'static [[u32; 256]; 16] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 16]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0_u32; 256]; 16];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for t in 1..16 {
            for i in 0..256 {
                let prev = tables[t - 1][i];
                tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        tables
    })
}

/// CRC32 (IEEE) of `bytes` — the per-slice integrity check. Processes 16
/// bytes per iteration (slice-by-16): a sweep checksums every byte of a
/// shard, and the byte-at-a-time loop was the dominant cost of paging a
/// shard in.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut crc = 0xFFFF_FFFF_u32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("4")) ^ crc;
        let b = |i: usize| chunk[i] as usize;
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b(4)]
            ^ t[10][b(5)]
            ^ t[9][b(6)]
            ^ t[8][b(7)]
            ^ t[7][b(8)]
            ^ t[6][b(9)]
            ^ t[5][b(10)]
            ^ t[4][b(11)]
            ^ t[3][b(12)]
            ^ t[2][b(13)]
            ^ t[1][b(14)]
            ^ t[0][b(15)];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a 64-bit hash — pins the schema serialization in the header.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

// ---------------------------------------------------------------------
// Little-endian cursor helpers.
// ---------------------------------------------------------------------

/// A bounds-checked little-endian reader over a byte slice; every overrun is
/// a structured corruption error, never a panic.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// File offset of `bytes[0]`, for error reporting.
    base: u64,
    /// What is being decoded, for error reporting.
    what: &'a str,
}

impl<'a> Cursor<'a> {
    /// Wrap `bytes` (starting at file offset `base`) for decoding `what`.
    #[must_use]
    pub fn new(bytes: &'a [u8], base: u64, what: &'a str) -> Self {
        Self {
            bytes,
            pos: 0,
            base,
            what,
        }
    }

    fn corrupt(&self, reason: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            offset: self.base + self.pos as u64,
            what: self.what.to_string(),
            reason: reason.into(),
        }
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.corrupt(format!("truncated: {n} more bytes expected")))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("invalid UTF-8 in name"))
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Append a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------
// Header.
// ---------------------------------------------------------------------

/// The decoded fixed-size file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Format revision ([`VERSION`], [`VERSION_2`] or [`VERSION_1`]).
    pub version: u16,
    /// FNV-1a hash of the schema block's serialization.
    pub schema_hash: u64,
    /// Rows per shard (every shard but the last).
    pub shard_size: u64,
    /// Total rows across all shards.
    pub total_rows: u64,
    /// Number of shards.
    pub num_shards: u64,
    /// File offset of the shard directory.
    pub directory_offset: u64,
    /// Rows per checksummed group of every shard block. Version 1 files
    /// decode with `group_rows = shard_size`: one group per block.
    pub group_rows: u64,
}

impl Header {
    /// Byte length of this header on disk ([`HEADER_LEN`], or
    /// [`HEADER_LEN_V1`] for a version-1 header).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        if self.version == VERSION_1 {
            HEADER_LEN_V1
        } else {
            HEADER_LEN
        }
    }

    /// Serialize to [`Header::encoded_len`] bytes (including the CRC).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&0_u16.to_le_bytes()); // reserved flags
        put_u64(&mut out, self.schema_hash);
        put_u64(&mut out, self.shard_size);
        put_u64(&mut out, self.total_rows);
        put_u64(&mut out, self.num_shards);
        put_u64(&mut out, self.directory_offset);
        if self.version != VERSION_1 {
            put_u64(&mut out, self.group_rows);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Decode and validate a header from the first bytes of a file (at
    /// least [`Header::encoded_len`] of them; any bytes beyond are ignored).
    ///
    /// # Errors
    /// Returns a structured error on bad magic, an unsupported version, or a
    /// failed header checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut c = Cursor::new(bytes, 0, "file header");
        let magic = c.take(4)?;
        if magic != MAGIC {
            return Err(StoreError::Corrupt {
                offset: 0,
                what: "file header".into(),
                reason: format!("bad magic {magic:02x?}, expected \"FSS1\""),
            });
        }
        let version = c.u16()?;
        if ![VERSION, VERSION_2, VERSION_1].contains(&version) {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let _flags = c.u16()?;
        let schema_hash = c.u64()?;
        let shard_size = c.u64()?;
        let header = Self {
            version,
            schema_hash,
            shard_size,
            total_rows: c.u64()?,
            num_shards: c.u64()?,
            directory_offset: c.u64()?,
            group_rows: if version == VERSION_1 {
                shard_size
            } else {
                c.u64()?
            },
        };
        let stored_crc = c.u32()?;
        let body_len = header.encoded_len() - 4;
        let actual = crc32(&bytes[..body_len]);
        if stored_crc != actual {
            return Err(StoreError::Corrupt {
                offset: body_len as u64,
                what: "file header".into(),
                reason: format!(
                    "checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
                ),
            });
        }
        Ok(header)
    }
}

// ---------------------------------------------------------------------
// Schema block.
// ---------------------------------------------------------------------

/// Serialize a schema: feature names, then fairness attributes with their
/// kinds. This byte sequence is what [`fnv1a64`] pins in the header.
#[must_use]
pub fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(
        &mut out,
        u32::try_from(schema.num_features()).expect("few features"),
    );
    for name in schema.features() {
        put_u32(&mut out, u32::try_from(name.len()).expect("short name"));
        out.extend_from_slice(name.as_bytes());
    }
    put_u32(
        &mut out,
        u32::try_from(schema.num_fairness()).expect("few attributes"),
    );
    for attr in schema.fairness() {
        out.push(match attr.kind() {
            FairnessKind::Binary => 0,
            FairnessKind::Continuous => 1,
        });
        put_u32(
            &mut out,
            u32::try_from(attr.name().len()).expect("short name"),
        );
        out.extend_from_slice(attr.name().as_bytes());
    }
    out
}

/// Reconstruct the schema from its serialization (at file offset `base`).
///
/// # Errors
/// Returns a structured error on truncation, unknown attribute kinds, or a
/// serialization that violates schema invariants.
pub fn decode_schema(bytes: &[u8], base: u64) -> Result<SchemaRef> {
    let mut c = Cursor::new(bytes, base, "schema block");
    let num_features = c.u32()? as usize;
    if num_features > bytes.len() {
        return Err(StoreError::Corrupt {
            offset: base,
            what: "schema block".into(),
            reason: format!("implausible feature count {num_features}"),
        });
    }
    let mut features = Vec::with_capacity(num_features);
    for _ in 0..num_features {
        features.push(c.string()?);
    }
    let num_fairness = c.u32()? as usize;
    if num_fairness > bytes.len() {
        return Err(StoreError::Corrupt {
            offset: base,
            what: "schema block".into(),
            reason: format!("implausible fairness count {num_fairness}"),
        });
    }
    let mut fairness = Vec::with_capacity(num_fairness);
    for _ in 0..num_fairness {
        let kind = c.take(1)?[0];
        let name = c.string()?;
        fairness.push(match kind {
            0 => FairnessAttribute::binary(name),
            1 => FairnessAttribute::continuous(name),
            other => {
                return Err(StoreError::Corrupt {
                    offset: base,
                    what: "schema block".into(),
                    reason: format!("unknown fairness kind {other}"),
                })
            }
        });
    }
    if !c.exhausted() {
        return Err(StoreError::Corrupt {
            offset: base,
            what: "schema block".into(),
            reason: "trailing bytes after schema".into(),
        });
    }
    Ok(Schema::new(features, fairness)?)
}

// ---------------------------------------------------------------------
// Shard directory.
// ---------------------------------------------------------------------

/// One directory entry: where a shard block starts and how many rows it
/// holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEntry {
    /// File offset of the shard block.
    pub offset: u64,
    /// Rows in the shard.
    pub rows: u64,
}

/// Serialize the directory (entries + trailing CRC).
#[must_use]
pub fn encode_directory(entries: &[ShardEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * DIR_ENTRY_LEN + 4);
    for e in entries {
        put_u64(&mut out, e.offset);
        put_u64(&mut out, e.rows);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Decode and checksum-validate a directory of `num_shards` entries read
/// from file offset `base`.
///
/// # Errors
/// Returns a structured error on truncation or a failed checksum.
pub fn decode_directory(bytes: &[u8], num_shards: usize, base: u64) -> Result<Vec<ShardEntry>> {
    let body_len = num_shards * DIR_ENTRY_LEN;
    if bytes.len() < body_len + 4 {
        return Err(StoreError::Corrupt {
            offset: base,
            what: "shard directory".into(),
            reason: format!(
                "truncated: {} bytes present, {} expected",
                bytes.len(),
                body_len + 4
            ),
        });
    }
    let stored_crc = u32::from_le_bytes(bytes[body_len..body_len + 4].try_into().expect("4"));
    let actual = crc32(&bytes[..body_len]);
    if stored_crc != actual {
        return Err(StoreError::Corrupt {
            offset: base + body_len as u64,
            what: "shard directory".into(),
            reason: format!(
                "checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
            ),
        });
    }
    let mut c = Cursor::new(&bytes[..body_len], base, "shard directory");
    let mut entries = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        entries.push(ShardEntry {
            offset: c.u64()?,
            rows: c.u64()?,
        });
    }
    Ok(entries)
}

/// The four columns of a shard block, in the order of a group's slices.
pub const COLUMNS: [&str; 4] = ["ids", "features", "fairness", "labels"];

/// Where everything sits inside one shard block: the row count (`u64`),
/// then `group_rows`-row groups (every group but the last holds
/// `group_rows` rows), each group a slice of each of the four columns
/// (ids, features, fairness, labels) followed by its CRC32. The file
/// version fixes the order of the slices: group-major (version 3: group
/// `g`'s four slices back to back) or column-major (version 2: column `c`'s
/// slices back to back). A version-1 block is one group, the same bytes in
/// either order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLayout {
    rows: u64,
    group_rows: u64,
    /// Bytes per row of each column, in [`COLUMNS`] order.
    widths: [u64; 4],
    /// Offset of each column block from the start of the shard block, then
    /// the length of the whole shard block, under column-major order. Only
    /// the last entry is used under group-major order.
    offsets: [u64; 5],
    /// Group `g`'s four slices back to back (versions 1 and 3), rather than
    /// column `c`'s groups (version 2).
    group_major: bool,
}

impl BlockLayout {
    /// The layout of a block of `rows` rows of a version-`version` file
    /// under a schema with `num_features`/`num_fairness` columns. Checked
    /// arithmetic: `None` on a zero group size or when any offset overflows
    /// (a crafted header), so every offset of a layout that exists fits a
    /// `u64`.
    #[must_use]
    pub fn new(
        version: u16,
        rows: u64,
        group_rows: u64,
        num_features: usize,
        num_fairness: usize,
    ) -> Option<Self> {
        if group_rows == 0 {
            return None;
        }
        let f64s = |n: usize| (n as u64).checked_mul(8);
        let widths = [8, f64s(num_features)?, f64s(num_fairness)?, 1];
        let crcs = rows.div_ceil(group_rows).checked_mul(4)?;
        let mut offsets = [8_u64; 5];
        for c in 0..COLUMNS.len() {
            offsets[c + 1] = offsets[c]
                .checked_add(rows.checked_mul(widths[c])?)?
                .checked_add(crcs)?;
        }
        Some(Self {
            rows,
            group_rows,
            widths,
            offsets,
            group_major: version != VERSION_2,
        })
    }

    /// Rows per group (every group but the last).
    #[must_use]
    pub fn group_rows(&self) -> u64 {
        self.group_rows
    }

    /// Groups in the block.
    #[must_use]
    pub fn groups(&self) -> u64 {
        self.rows.div_ceil(self.group_rows)
    }

    /// Byte length of the whole shard block (the same in either order).
    #[must_use]
    pub fn block_len(&self) -> u64 {
        self.offsets[COLUMNS.len()]
    }

    /// Column `c`'s slice of group `g` (`< groups()`): its offset from the
    /// start of the shard block and the byte length of its values. Its CRC32
    /// follows the values.
    ///
    /// No sum here overflows: the slice ends inside the block, whose length
    /// [`BlockLayout::new`] computed with checked arithmetic. Group-major,
    /// `g` full groups precede group `g`, and their `first_row` rows and
    /// `4·g` CRCs per column are counted as such rather than as
    /// `g · (group_rows · row bytes + 16)`, whose factor a version-1 file's
    /// huge group size could overflow.
    #[must_use]
    pub fn group_span(&self, c: usize, g: u64) -> (u64, u64) {
        let first_row = g * self.group_rows;
        let rows = self.group_rows.min(self.rows - first_row);
        let start = if self.group_major {
            let row_bytes: u64 = self.widths.iter().sum();
            let before: u64 = self.widths[..c].iter().map(|w| rows * w + 4).sum();
            8 + first_row * row_bytes + g * 4 * COLUMNS.len() as u64 + before
        } else {
            self.offsets[c] + first_row * self.widths[c] + g * 4
        };
        (start, rows * self.widths[c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn crc32_slice_by_16_matches_byte_at_a_time() {
        fn reference(bytes: &[u8]) -> u32 {
            let table = &crc_tables()[0];
            let mut crc = 0xFFFF_FFFF_u32;
            for &b in bytes {
                crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
            }
            !crc
        }
        // Every alignment of the 16-byte main loop plus its remainder tail.
        let data: Vec<u8> = (0..1024_u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [0, 1, 7, 15, 16, 17, 31, 32, 33, 100, 255, 1000, 1024] {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_ne!(fnv1a64(b"schema-a"), fnv1a64(b"schema-b"));
    }

    #[test]
    fn header_round_trips() {
        // Versions 2 and 3 share the 60-byte header.
        for version in [VERSION, VERSION_2] {
            let h = Header {
                version,
                schema_hash: 0xDEAD_BEEF_CAFE_F00D,
                shard_size: 64 * 1024,
                total_rows: 1_000_003,
                num_shards: 16,
                directory_offset: 123_456_789,
                group_rows: GROUP_ROWS,
            };
            let bytes = h.encode();
            assert_eq!(bytes.len(), HEADER_LEN);
            assert_eq!(Header::decode(&bytes).unwrap(), h);
        }
    }

    #[test]
    fn version_1_headers_decode_with_one_group_per_shard() {
        let v1 = Header {
            version: VERSION_1,
            schema_hash: 7,
            shard_size: 8,
            total_rows: 40,
            num_shards: 5,
            directory_offset: 1_000,
            group_rows: 8,
        };
        let mut bytes = v1.encode();
        assert_eq!(bytes.len(), HEADER_LEN_V1);
        // The bytes that follow a version-1 header belong to the schema
        // block; they must not be read as a group size.
        bytes.extend_from_slice(&[0xAB; 8]);
        assert_eq!(Header::decode(&bytes).unwrap(), v1);
    }

    #[test]
    fn header_rejects_bad_magic_version_and_crc() {
        let h = Header {
            version: VERSION,
            schema_hash: 1,
            shard_size: 2,
            total_rows: 3,
            num_shards: 2,
            directory_offset: 99,
            group_rows: 1,
        };
        let mut bytes = h.encode();
        bytes[0] = b'X';
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
        let mut bytes = h.encode();
        bytes[4] = 9;
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::UnsupportedVersion { found: 9 })
        ));
        let mut bytes = h.encode();
        bytes[20] ^= 0x01; // flip a payload byte: CRC must catch it
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn schema_round_trips_with_stable_hash() {
        let schema =
            Schema::from_names(&["gpa", "test"], &["low_income", "ell"], &["eni"]).unwrap();
        let bytes = encode_schema(&schema);
        let back = decode_schema(&bytes, 52).unwrap();
        assert_eq!(*back, *schema);
        assert_eq!(fnv1a64(&bytes), fnv1a64(&encode_schema(&back)));
        // Kinds survive.
        assert_eq!(back.fairness()[2].kind(), FairnessKind::Continuous);
    }

    #[test]
    fn schema_decode_rejects_corruption() {
        let schema = Schema::from_names(&["x"], &["g"], &[]).unwrap();
        let bytes = encode_schema(&schema);
        // Truncated.
        assert!(decode_schema(&bytes[..bytes.len() - 2], 0).is_err());
        // Unknown kind byte.
        let mut bad = bytes.clone();
        let kind_pos = bad.len() - (4 + 1 + 1); // kind byte precedes the name
        bad[kind_pos] = 7;
        assert!(decode_schema(&bad, 0).is_err());
        // Trailing garbage.
        let mut long = bytes;
        long.push(0);
        assert!(decode_schema(&long, 0).is_err());
    }

    #[test]
    fn directory_round_trips_and_detects_flips() {
        let entries = vec![
            ShardEntry {
                offset: 100,
                rows: 7,
            },
            ShardEntry {
                offset: 400,
                rows: 3,
            },
        ];
        let bytes = encode_directory(&entries);
        assert_eq!(decode_directory(&bytes, 2, 500).unwrap(), entries);
        let mut bad = bytes.clone();
        bad[3] ^= 0x10;
        assert!(matches!(
            decode_directory(&bad, 2, 500),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            decode_directory(&bytes[..10], 2, 500),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn block_layout_counts_every_group_and_checksum() {
        // 5 rows in groups of 2 (2 + 2 + 1): three CRCs per column. Bytes
        // per row: id 8 + feature 8 + fairness 16 + label 1 = 33.
        // 8 (rows) + ids (5*8+12) + features (5*8*1+12) + fairness
        // (5*8*2+12) + labels (5+12), in either order.
        let layout = BlockLayout::new(VERSION, 5, 2, 1, 2).unwrap();
        assert_eq!(layout.groups(), 3);
        assert_eq!(layout.block_len(), 8 + 52 + 52 + 92 + 17);
        // Group-major: a full group is 2*33 values + 4 CRCs = 82 bytes, its
        // slices ids 16+4, features 16+4, fairness 32+4, labels 2+4.
        assert_eq!(layout.group_span(0, 0), (8, 16));
        assert_eq!(layout.group_span(1, 0), (8 + 20, 16));
        assert_eq!(layout.group_span(2, 0), (8 + 40, 32));
        assert_eq!(layout.group_span(3, 0), (8 + 76, 2));
        assert_eq!(layout.group_span(0, 1), (8 + 82, 16));
        assert_eq!(layout.group_span(2, 1), (8 + 82 + 40, 32));
        // The short last group: ids 8+4, features 8+4, fairness 16+4, then
        // its one label byte and CRC end the block.
        assert_eq!(layout.group_span(0, 2), (8 + 164, 8));
        assert_eq!(layout.group_span(3, 2), (8 + 164 + 44, 1));
        assert_eq!(8 + 164 + 44 + 1 + 4, layout.block_len());

        // Version 2, column-major: each column's groups sit back to back,
        // each followed by its CRC.
        let v2 = BlockLayout::new(VERSION_2, 5, 2, 1, 2).unwrap();
        assert_eq!(v2.block_len(), layout.block_len());
        assert_eq!(v2.group_span(0, 0), (8, 16));
        assert_eq!(v2.group_span(0, 1), (8 + 20, 16));
        assert_eq!(v2.group_span(0, 2), (8 + 40, 8));
        assert_eq!(v2.group_span(2, 1), (8 + 52 + 52 + 36, 32));
        assert_eq!(v2.group_span(3, 2), (8 + 52 + 52 + 92 + 12, 1));

        // One group per block is the version-1 layout: a single CRC per
        // column, and the same spans in either order.
        let one = BlockLayout::new(VERSION_1, 2, 2, 1, 2).unwrap();
        assert_eq!(one.block_len(), 8 + 20 + 20 + 36 + 6);
        for version in [VERSION, VERSION_2] {
            let other = BlockLayout::new(version, 2, 2, 1, 2).unwrap();
            for c in 0..COLUMNS.len() {
                assert_eq!(other.group_span(c, 0), one.group_span(c, 0), "column {c}");
            }
        }
        assert_eq!(one.group_span(3, 0), (8 + 20 + 20 + 36, 2));

        // Crafted-header scale and a zero group size are rejected instead
        // of overflowing or dividing by zero.
        assert_eq!(
            BlockLayout::new(VERSION, u64::MAX / 2, 32, 1 << 30, 1 << 30),
            None
        );
        assert_eq!(BlockLayout::new(VERSION, u64::MAX / 8, 1, 1, 1), None);
        assert_eq!(BlockLayout::new(VERSION, 4, 0, 1, 1), None);
        // A version-1 group as large as a crafted shard size: the spans of
        // its one group do not multiply the group size out.
        let huge = BlockLayout::new(VERSION_1, 3, 1 << 62, 1, 2).unwrap();
        assert_eq!(huge.group_span(3, 0), (8 + 3 * 32 + 12, 3));
    }
}

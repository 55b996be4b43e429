//! The segment codec: the on-disk form of one segment of a
//! [`SegmentedStore`](crate::segstore::SegmentedStore).
//!
//! A segment file is a length-prefixed frame sequence: a fixed 20-byte
//! header, the sealed chunk frames back to back, and a footer holding
//! the chunk directory (offset, length, row count, CRC-32C, and the
//! per-chunk pruning metadata — min/max time plus the device bitmap),
//! the intern tables, the revocation flows, and the dataset tails.
//! Everything is little-endian with **no padding bytes**, so every
//! byte of the file is covered by either the per-frame CRC-32C or the
//! footer CRC-32C (the header is covered by its own field checks).
//!
//! ```text
//! header   magic "IOTLSCS1" ·· version u32 ·· footer_off u64
//! frames   chunk 0 payload | chunk 1 payload | …
//!          (payload = columns in schema order: time, the five u32
//!          symbol columns, the three u16 columns, flags, count, the
//!          four span columns as offsets-then-lengths, then the two
//!          length-prefixed dedup pools)
//! footer   chunk_count u64
//!          per chunk: offset u64 · len u64 · rows u32 · crc u32
//!                     · min_time i64 · max_time i64
//!                     · words u32 · device_bits words×u64
//!          strings:   count u32 · per string (len u32 · bytes)
//!          digests:   count u32 · 16 bytes each
//!          flows:     count u32 · per flow (time i64 · device u32
//!                     · kind u8 · url u32 · count u64)
//!          truncated u64 · total_rows u64 · total_connections u64
//!          footer crc32 u32
//! ```
//!
//! The crate-private `StoreWriter` streams chunks into one segment
//! file as they seal, and `ColumnarStore` reads one back: the
//! directory and tables eagerly, chunk frames lazily, one positioned
//! read (`pread`) per column straight into a caller's reusable
//! [`ObsChunk`], so a pruned time/device slice never touches the
//! skipped frames at all. The public surface is the segmented store
//! built on them, the typed [`StoreError`], and the [`crc32`] kernel.
//!
//! Corruption never panics: truncations, bit flips, and structurally
//! impossible values all surface as typed [`StoreError`]s. Read
//! chunks are validated — span columns must land inside their pools
//! and symbol columns inside the intern tables — so even a
//! CRC-correct but hostile file cannot push an out-of-bounds index
//! into the row accessors.

use crate::columnar::ObsChunk;
use crate::dataset::RevocationKind;
use crate::intern::{DigestInterner, Interner, Symbol};
use crate::RevRow;
use iotls_tls::fingerprint::FingerprintId;
use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic: "IOTLS" + "CS" (columnar store) + format generation.
const MAGIC: [u8; 8] = *b"IOTLSCS1";

/// Current format version.
const VERSION: u32 = 1;

/// Header bytes: magic + version + footer offset.
const HEADER_LEN: u64 = 8 + 4 + 8;

/// Fixed bytes per row in a chunk frame (the non-pool columns).
const ROW_BYTES: u64 = 8 + 4 * 5 + 2 * 3 + 1 + 8 + (4 + 2) * 4;

/// Sentinel for "absent" in optional symbol columns (mirrors
/// `columnar::NO_SYM`, which is crate-private by design).
pub(crate) const NO_SYM: u32 = u32::MAX;

// ── CRC-32C ─────────────────────────────────────────────────────────

/// The Castagnoli polynomial, bit-reflected.
const CRC_POLY: u32 = 0x82F6_3B78;

/// CRC-32C lookup tables (Castagnoli polynomial `0x82F6_3B78`), built
/// at compile time. Eight tables for the slicing-by-8 software
/// kernel: every frame of the paper-scale store (~1 GB) is
/// checksummed on open, so the classic byte-at-a-time loop would
/// dominate the reload path. Castagnoli (not IEEE) because x86_64
/// ships a dedicated `crc32` instruction for exactly this polynomial.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// Bytes per chain in the three-chain hardware kernel: each block of
/// `3 * CRC_STRIDE` bytes runs as three independent `crc32q` chains,
/// one per consecutive third.
const CRC_STRIDE: usize = 4096;

/// Applies `CRC_STRIDE` zero bytes to a raw CRC state, one table per
/// state byte (built at compile time, like [`CRC_TABLES`]).
static CRC_SHIFT: [[u32; 256]; 4] = crc_shift_tables(CRC_STRIDE);

/// A GF(2) 32×32 matrix (column `i` is the image of bit `i`) times a
/// vector.
const fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// Tables applying `bytes` zero bytes (a power of two) to a raw state,
/// as zlib's `crc32_combine` derives them: start from the operator for
/// one zero bit and square it until it covers `8 * bytes` bits.
const fn crc_shift_tables(bytes: usize) -> [[u32; 256]; 4] {
    assert!(bytes.is_power_of_two());
    let mut op = [0u32; 32];
    op[0] = CRC_POLY;
    let mut n = 1;
    while n < 32 {
        op[n] = 1 << (n - 1);
        n += 1;
    }
    let mut bits = 8 * bytes;
    while bits > 1 {
        let mut sq = [0u32; 32];
        let mut n = 0;
        while n < 32 {
            sq[n] = gf2_times(&op, op[n]);
            n += 1;
        }
        op = sq;
        bits >>= 1;
    }
    let mut t = [[0u32; 256]; 4];
    let mut v = 0;
    while v < 256 {
        let mut k = 0;
        while k < 4 {
            t[k][v] = gf2_times(&op, (v as u32) << (8 * k));
            k += 1;
        }
        v += 1;
    }
    t
}

/// The raw state after `CRC_STRIDE` zero bytes.
fn crc_shift(state: u32) -> u32 {
    CRC_SHIFT[0][(state & 0xFF) as usize]
        ^ CRC_SHIFT[1][((state >> 8) & 0xFF) as usize]
        ^ CRC_SHIFT[2][((state >> 16) & 0xFF) as usize]
        ^ CRC_SHIFT[3][(state >> 24) as usize]
}

/// CRC-32C of `bytes`. Three-chain hardware `crc32q` on x86_64 with
/// SSE4.2, software slicing-by-8 everywhere else.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_raw(!0, bytes)
}

/// Streaming kernel over the pre/post-inverted state, so a frame can
/// be checksummed block-by-block while each block is still cache-hot
/// from the `pread` that fetched it.
fn crc32_raw(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: guarded by the runtime SSE4.2 detection above.
        return unsafe { crc32_hw3(state, bytes) };
    }
    crc32_sw(state, bytes)
}

/// One `crc32q` has a latency of three cycles but a throughput of one
/// per cycle, so a single chain leaves two thirds of the unit idle.
/// Each `3 * CRC_STRIDE` block runs three independent chains over its
/// thirds — the first continuing `state`, the others from zero — and
/// recombines them by linearity: shifting a state through
/// `CRC_STRIDE` zero bytes and XORing in the next third's chain is
/// the state after both thirds. The one-chain kernel takes the tail.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32_hw3(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::_mm_crc32_u64;
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
    let mut blocks = bytes.chunks_exact(3 * CRC_STRIDE);
    let mut c = state;
    for block in &mut blocks {
        let (a, rest) = block.split_at(CRC_STRIDE);
        let (b, d) = rest.split_at(CRC_STRIDE);
        let (mut c0, mut c1, mut c2) = (c as u64, 0u64, 0u64);
        for ((x, y), z) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(d.chunks_exact(8)) {
            c0 = _mm_crc32_u64(c0, word(x));
            c1 = _mm_crc32_u64(c1, word(y));
            c2 = _mm_crc32_u64(c2, word(z));
        }
        c = crc_shift(crc_shift(c0 as u32) ^ c1 as u32) ^ c2 as u32;
    }
    crc32_hw(c, blocks.remainder())
}

/// One `crc32q` chain over `bytes`.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32_hw(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut c = state as u64;
    for w in &mut words {
        c = _mm_crc32_u64(c, u64::from_le_bytes(w.try_into().unwrap()));
    }
    let mut c = c as u32;
    for &b in words.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    c
}

fn crc32_sw(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes(w[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(w[4..8].try_into().unwrap());
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// ── Errors ──────────────────────────────────────────────────────────

/// Everything that can go wrong reading a store — its manifest or
/// one of its segment files. Corrupt input is an error value, never a
/// panic.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the store magic.
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// The file ends (or a length field points) before the named
    /// structure is complete.
    Truncated {
        /// Which structure was being read.
        context: &'static str,
        /// Absolute byte offset (within `path`) at which the data
        /// gave out.
        offset: u64,
        /// The file the offset refers to. Empty until the opener
        /// attributes it — the segmented store fills it, so
        /// multi-file corruption names the exact segment or the
        /// manifest.
        path: String,
    },
    /// A CRC-32C check failed: `chunk` names the frame, `None` means
    /// the footer.
    ChecksumMismatch {
        /// Frame index, or `None` for the footer.
        chunk: Option<u32>,
        /// The file whose checksum failed (empty until attributed,
        /// as for [`Truncated`](Self::Truncated)).
        path: String,
    },
    /// A structurally impossible value (out-of-range symbol, span
    /// outside its pool, invalid enum byte, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a columnar store file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported store version {v} (reader supports {VERSION})")
            }
            StoreError::Truncated { context, offset, path } => {
                write!(f, "store truncated reading {context} at byte {offset}")?;
                if !path.is_empty() {
                    write!(f, " of {path}")?;
                }
                Ok(())
            }
            StoreError::ChecksumMismatch { chunk: Some(i), path } => {
                write!(f, "checksum mismatch in chunk frame {i}")?;
                if !path.is_empty() {
                    write!(f, " of {path}")?;
                }
                Ok(())
            }
            StoreError::ChecksumMismatch { chunk: None, path } => {
                write!(f, "checksum mismatch in store footer")?;
                if !path.is_empty() {
                    write!(f, " of {path}")?;
                }
                Ok(())
            }
            StoreError::Corrupt(what) => write!(f, "corrupt store: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl StoreError {
    /// Fills the file attribution into error variants that carry one
    /// (and don't have it yet), so a failure inside a multi-file
    /// segmented store names the exact segment. Errors that already
    /// name a file keep it — the innermost attribution wins.
    pub fn with_path(mut self, p: &Path) -> StoreError {
        match &mut self {
            StoreError::Truncated { path, .. } | StoreError::ChecksumMismatch { path, .. }
                if path.is_empty() =>
            {
                *path = p.display().to_string();
            }
            _ => {}
        }
        self
    }
}

/// Shorthand for an unattributed truncation error.
pub(crate) fn trunc(context: &'static str, offset: u64) -> StoreError {
    StoreError::Truncated { context, offset, path: String::new() }
}

/// Maps a positioned read that ran off the end of the file to a typed
/// truncation at the read's offset; other I/O failures pass through.
fn read_at_or_trunc(
    file: &File,
    buf: &mut [u8],
    off: u64,
    context: &'static str,
) -> Result<(), StoreError> {
    read_exact_at(file, buf, off).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            trunc(context, off)
        } else {
            StoreError::Io(e)
        }
    })
}

// ── Little-endian encode helpers ────────────────────────────────────

/// Fixed-width integers the codec lays down little-endian: the
/// element types of every fixed-width column.
///
/// # Safety
///
/// Implementors are primitive integers: no padding bytes, and every
/// bit pattern is a valid value, so the frame reader may fill a
/// column's memory straight from file bytes ([`column_bytes`]).
pub(crate) unsafe trait LeWord: Copy + Default {
    /// The value's little-endian bytes (`to_le_bytes`).
    type Bytes: IntoIterator<Item = u8>;
    fn le_bytes(self) -> Self::Bytes;
    /// The value whose memory holds little-endian bytes (`from_le`;
    /// the identity on little-endian targets).
    fn from_le(v: Self) -> Self;
}

macro_rules! le_word {
    ($($t:ty),*) => {$(
        // SAFETY: a primitive integer type.
        unsafe impl LeWord for $t {
            type Bytes = [u8; std::mem::size_of::<$t>()];
            fn le_bytes(self) -> Self::Bytes {
                self.to_le_bytes()
            }
            fn from_le(v: Self) -> Self {
                <$t>::from_le(v)
            }
        }
    )*};
}
le_word!(u8, u16, u32, u64, i64);

/// A column's memory as bytes, for a positioned read to fill in place.
fn column_bytes<T: LeWord>(col: &mut [T]) -> &mut [u8] {
    // SAFETY: `LeWord` types are primitive integers (its safety
    // contract): the byte slice covers exactly the column's
    // initialized memory, `u8` needs no alignment, and whatever bytes
    // are written through it leave valid values behind. The mutable
    // borrow of `col` lasts as long as the returned slice.
    unsafe {
        std::slice::from_raw_parts_mut(col.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(col))
    }
}

/// Appends a column little-endian in one bulk pass — the write-side
/// mirror of the frame reader's one `pread` per column. Flattening
/// fixed-size arrays keeps the iterator's exact length, so `extend`
/// reserves once and writes without a capacity check per element (a
/// per-element `extend_from_slice` cannot vectorize).
pub(crate) fn put_le<T: LeWord>(buf: &mut Vec<u8>, vals: &[T]) {
    buf.extend(vals.iter().flat_map(|v| v.le_bytes()));
}

/// Span columns serialize as all offsets then all lengths: one bulk
/// pass each.
fn put_spans(buf: &mut Vec<u8>, spans: &[(u32, u16)]) {
    buf.extend(spans.iter().flat_map(|&(off, _)| off.to_le_bytes()));
    buf.extend(spans.iter().flat_map(|&(_, len)| len.to_le_bytes()));
}

/// Serializes one chunk's payload (everything the frame carries; the
/// pruning metadata lives in the directory instead).
fn encode_chunk(c: &ObsChunk, buf: &mut Vec<u8>) {
    buf.clear();
    put_le(buf, &c.time);
    put_le(buf, &c.device);
    put_le(buf, &c.destination);
    put_le(buf, &c.sni);
    put_le(buf, &c.fingerprint);
    put_le(buf, &c.leaf_issuer);
    put_le(buf, &c.max_adv);
    put_le(buf, &c.neg_version);
    put_le(buf, &c.neg_suite);
    buf.extend_from_slice(&c.flags);
    put_le(buf, &c.count);
    put_spans(buf, &c.adv_versions);
    put_spans(buf, &c.suites);
    put_spans(buf, &c.alerts_c2s);
    put_spans(buf, &c.alerts_s2c);
    buf.extend_from_slice(&(c.pool_u16.len() as u32).to_le_bytes());
    put_le(buf, &c.pool_u16);
    buf.extend_from_slice(&(c.pool_u8.len() as u32).to_le_bytes());
    buf.extend_from_slice(&c.pool_u8);
}

// ── Bounded little-endian reader ────────────────────────────────────

/// Cursor over a borrowed byte buffer; every read is bounds-checked
/// and failure carries the structure being read plus the absolute
/// file offset (`base` + cursor) where the data gave out.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    pub(crate) context: &'static str,
    base: u64,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], context: &'static str) -> Self {
        Reader { buf, pos: 0, context, base: 0 }
    }

    /// A reader whose buffer starts at absolute file offset `base`,
    /// so truncation errors report file positions, not buffer ones.
    pub(crate) fn at(buf: &'a [u8], context: &'static str, base: u64) -> Self {
        Reader { buf, pos: 0, context, base }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(StoreError::Truncated {
                context: self.context,
                offset: self.base + self.pos as u64,
                path: String::new(),
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `n` little-endian words (the device bitmaps of the footer
    /// directory and the manifest).
    pub(crate) fn u64s(&mut self, n: usize) -> Result<Vec<u64>, StoreError> {
        let raw = self.take(n.saturating_mul(8))?;
        Ok(raw
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect())
    }

    pub(crate) fn done(&self) -> Result<(), StoreError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(StoreError::Corrupt("trailing bytes after structure"))
        }
    }
}

// ── Writer ──────────────────────────────────────────────────────────

/// One chunk's directory entry: where its frame lives, its CRC, and
/// the pruning metadata preserved outside the frame so
/// `ColumnarStore::select_chunks` never has to decode it.
#[derive(Debug, Clone)]
struct DirEntry {
    offset: u64,
    len: u64,
    rows: u32,
    crc: u32,
    min_time: i64,
    max_time: i64,
    device_bits: Vec<u64>,
}

/// What [`StoreWriter::finish`] reports about the sealed segment: its
/// total length and its footer CRC-32C. Because every frame CRC is
/// recorded inside the footer, the footer CRC is a cheap fingerprint
/// of the file's entire content — the segmented store manifest
/// records both to bind itself to each immutable segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StoreSummary {
    /// Final file length in bytes.
    pub(crate) file_len: u64,
    /// CRC-32C of the footer body, as written to disk.
    pub(crate) footer_crc: u32,
}

/// Streams sealed chunks into one segment file; the footer (directory,
/// intern tables and tails) is written by [`finish`](Self::finish).
#[derive(Debug)]
pub(crate) struct StoreWriter {
    out: BufWriter<File>,
    offset: u64,
    dir: Vec<DirEntry>,
    buf: Vec<u8>,
    total_rows: u64,
    total_connections: u64,
}

impl StoreWriter {
    /// Creates (truncating) `path` and writes a placeholder header;
    /// the footer offset is patched in by [`finish`](Self::finish).
    pub(crate) fn create(path: &Path) -> io::Result<StoreWriter> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&0u64.to_le_bytes())?; // footer_off, patched later
        Ok(StoreWriter {
            out,
            offset: HEADER_LEN,
            dir: Vec::new(),
            buf: Vec::new(),
            total_rows: 0,
            total_connections: 0,
        })
    }

    /// Appends one sealed chunk as a frame.
    pub(crate) fn add_chunk(&mut self, chunk: &ObsChunk) -> io::Result<()> {
        encode_chunk(chunk, &mut self.buf);
        let crc = crc32(&self.buf);
        self.out.write_all(&self.buf)?;
        self.dir.push(DirEntry {
            offset: self.offset,
            len: self.buf.len() as u64,
            rows: chunk.len() as u32,
            crc,
            min_time: chunk.min_time,
            max_time: chunk.max_time,
            device_bits: chunk.device_bits.clone(),
        });
        self.offset += self.buf.len() as u64;
        self.total_rows += chunk.len() as u64;
        self.total_connections += chunk.count.iter().sum::<u64>();
        Ok(())
    }

    /// Writes the footer (directory, intern tables, flows, tails,
    /// CRC), patches the header's footer offset, and syncs lengths.
    /// Returns the sealed file's [`StoreSummary`].
    pub(crate) fn finish(
        mut self,
        strings: &Interner,
        fps: &DigestInterner,
        flows: &[RevRow],
        truncated: u64,
    ) -> io::Result<StoreSummary> {
        let mut f = Vec::new();
        f.extend_from_slice(&(self.dir.len() as u64).to_le_bytes());
        for e in &self.dir {
            f.extend_from_slice(&e.offset.to_le_bytes());
            f.extend_from_slice(&e.len.to_le_bytes());
            f.extend_from_slice(&e.rows.to_le_bytes());
            f.extend_from_slice(&e.crc.to_le_bytes());
            f.extend_from_slice(&e.min_time.to_le_bytes());
            f.extend_from_slice(&e.max_time.to_le_bytes());
            f.extend_from_slice(&(e.device_bits.len() as u32).to_le_bytes());
            put_le(&mut f, &e.device_bits);
        }
        f.extend_from_slice(&(strings.len() as u32).to_le_bytes());
        for s in strings.iter() {
            f.extend_from_slice(&(s.len() as u32).to_le_bytes());
            f.extend_from_slice(s.as_bytes());
        }
        f.extend_from_slice(&(fps.len() as u32).to_le_bytes());
        for fp in fps.iter() {
            f.extend_from_slice(&fp.0);
        }
        f.extend_from_slice(&(flows.len() as u32).to_le_bytes());
        for flow in flows {
            f.extend_from_slice(&flow.time.to_le_bytes());
            f.extend_from_slice(&flow.device.0.to_le_bytes());
            f.push(match flow.kind {
                RevocationKind::CrlFetch => 0,
                RevocationKind::OcspQuery => 1,
            });
            f.extend_from_slice(&flow.url.0.to_le_bytes());
            f.extend_from_slice(&flow.count.to_le_bytes());
        }
        f.extend_from_slice(&truncated.to_le_bytes());
        f.extend_from_slice(&self.total_rows.to_le_bytes());
        f.extend_from_slice(&self.total_connections.to_le_bytes());
        let crc = crc32(&f);
        f.extend_from_slice(&crc.to_le_bytes());

        let file_len = self.offset + f.len() as u64;
        self.out.write_all(&f)?;
        // Patch the header's footer offset now that it is known.
        self.out.seek(SeekFrom::Start((MAGIC.len() + 4) as u64))?;
        self.out.write_all(&self.offset.to_le_bytes())?;
        self.out.flush()?;
        Ok(StoreSummary { file_len, footer_crc: crc })
    }
}

// ── Positioned reads ────────────────────────────────────────────────

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], off: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, off)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], off: u64) -> io::Result<()> {
    // No pread outside unix: fall back to seek + read on a clone of
    // the handle so `&File` callers still work.
    use std::io::Read;
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(off))?;
    f.read_exact(buf)
}

// ── Segment reader ──────────────────────────────────────────────────

/// An opened segment file: directory, intern tables, flows, and tails
/// resident; chunk frames `pread` column by column, checksummed, and
/// validated on demand by [`read_into`](Self::read_into).
#[derive(Debug)]
pub(crate) struct ColumnarStore {
    file: File,
    path: std::path::PathBuf,
    dir: Vec<DirEntry>,
    footer_crc: u32,
    /// Frame payload bytes fetched from disk so far — the
    /// read-counting witness that pruned chunks (and, through the
    /// segmented store, whole skipped segments) are never touched.
    frame_bytes: std::sync::atomic::AtomicU64,
    strings: Interner,
    fps: DigestInterner,
    flows: Vec<RevRow>,
    truncated: u64,
    total_rows: u64,
    total_connections: u64,
}

impl ColumnarStore {
    /// Opens `path` with lazy positioned reads: only the footer
    /// becomes resident, and [`read_into`](Self::read_into) `pread`s
    /// one frame at a time into the caller's buffers — memory stays
    /// at the buffers the callers hold, regardless of file size.
    pub(crate) fn open(path: &Path) -> Result<ColumnarStore, StoreError> {
        Self::open_inner(path).map_err(|e| e.with_path(path))
    }

    fn open_inner(path: &Path) -> Result<ColumnarStore, StoreError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        if file_len < HEADER_LEN {
            return Err(trunc("header", file_len));
        }
        read_at_or_trunc(&file, &mut header, 0, "header")?;
        let footer_off = check_header(&header)?;
        if footer_off < HEADER_LEN || footer_off > file_len {
            return Err(trunc("footer offset", footer_off));
        }
        let footer_len = usize::try_from(file_len - footer_off)
            .map_err(|_| trunc("footer", footer_off))?;
        let mut footer = vec![0u8; footer_len];
        read_at_or_trunc(&file, &mut footer, footer_off, "footer")?;
        Self::from_parts(file, footer_off, &footer, path)
    }

    /// Parses and validates the footer, producing the opened segment.
    fn from_parts(
        file: File,
        footer_off: u64,
        footer: &[u8],
        path: &Path,
    ) -> Result<ColumnarStore, StoreError> {
        if footer.len() < 4 {
            return Err(trunc("footer", footer_off + footer.len() as u64));
        }
        let (body, crc_bytes) = footer.split_at(footer.len() - 4);
        let want = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != want {
            return Err(StoreError::ChecksumMismatch { chunk: None, path: String::new() });
        }

        let mut r = Reader::at(body, "footer directory", footer_off);
        let chunk_count = r.u64()?;
        let mut dir = Vec::new();
        for _ in 0..chunk_count {
            let offset = r.u64()?;
            let len = r.u64()?;
            let rows = r.u32()?;
            let crc = r.u32()?;
            let min_time = r.i64()?;
            let max_time = r.i64()?;
            let words = r.u32()? as usize;
            let device_bits = r.u64s(words)?;
            // Frames must live strictly between the header and the
            // footer, and claim a length consistent with their row
            // count — this bounds every later allocation by the real
            // file size.
            if offset < HEADER_LEN || len > footer_off || offset > footer_off - len {
                return Err(StoreError::Corrupt("chunk frame outside frame region"));
            }
            if ROW_BYTES * rows as u64 + 8 > len {
                return Err(StoreError::Corrupt(SHORT_FRAME));
            }
            dir.push(DirEntry {
                offset,
                len,
                rows,
                crc,
                min_time,
                max_time,
                device_bits,
            });
        }

        r.context = "footer string table";
        let mut strings = Interner::new();
        let string_count = r.u32()?;
        for _ in 0..string_count {
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| StoreError::Corrupt("string table is not UTF-8"))?;
            strings.intern(s);
        }

        r.context = "footer digest table";
        let mut fps = DigestInterner::new();
        let fp_count = r.u32()?;
        for _ in 0..fp_count {
            let bytes: [u8; 16] = r.take(16)?.try_into().unwrap();
            fps.intern(FingerprintId(bytes));
        }

        r.context = "footer flow table";
        let mut flows = Vec::new();
        let flow_count = r.u32()?;
        for _ in 0..flow_count {
            let time = r.i64()?;
            let device = r.u32()?;
            let kind = match r.u8()? {
                0 => RevocationKind::CrlFetch,
                1 => RevocationKind::OcspQuery,
                _ => return Err(StoreError::Corrupt("unknown revocation kind")),
            };
            let url = r.u32()?;
            let count = r.u64()?;
            if device as usize >= strings.len() || url as usize >= strings.len() {
                return Err(StoreError::Corrupt("flow symbol outside string table"));
            }
            flows.push(RevRow {
                time,
                device: Symbol(device),
                kind,
                url: Symbol(url),
                count,
            });
        }

        r.context = "footer tails";
        let truncated = r.u64()?;
        let total_rows = r.u64()?;
        let total_connections = r.u64()?;
        r.done()?;

        Ok(ColumnarStore {
            file,
            path: path.to_path_buf(),
            dir,
            footer_crc: want,
            frame_bytes: std::sync::atomic::AtomicU64::new(0),
            strings,
            fps,
            flows,
            truncated,
            total_rows,
            total_connections,
        })
    }

    /// Number of chunk frames.
    pub(crate) fn chunk_count(&self) -> usize {
        self.dir.len()
    }

    /// Rows in frame `i` (directory metadata; no frame read).
    pub(crate) fn chunk_rows(&self, i: usize) -> usize {
        self.dir[i].rows as usize
    }

    /// The string table as of the batch that sealed this segment.
    pub(crate) fn strings(&self) -> &Interner {
        &self.strings
    }

    /// The fingerprint table as of the batch that sealed this segment.
    pub(crate) fn fps(&self) -> &DigestInterner {
        &self.fps
    }

    /// Revocation endpoint flows this segment carries.
    pub(crate) fn revocation_flows(&self) -> &[RevRow] {
        &self.flows
    }

    /// Truncated-capture tally this segment carries.
    pub(crate) fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Total rows across all frames (footer tail; no frame reads).
    pub(crate) fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Total weighted connections (footer tail; no frame reads).
    pub(crate) fn total_connections(&self) -> u64 {
        self.total_connections
    }

    /// CRC-32C of the footer body as stored on disk. Every frame CRC
    /// lives inside the footer, so this one word fingerprints the
    /// file's entire content — the segmented store manifest records
    /// it to bind directory entries to their immutable segments.
    pub(crate) fn footer_crc(&self) -> u32 {
        self.footer_crc
    }

    /// Frame payload bytes fetched from disk since open — the
    /// read-counting proof that pruned chunks are never touched.
    pub(crate) fn frame_bytes_read(&self) -> u64 {
        self.frame_bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Frame payload bytes the whole file holds (directory sum; no
    /// frame reads).
    pub(crate) fn frame_bytes_total(&self) -> u64 {
        self.dir.iter().map(|e| e.len).sum()
    }

    /// Chunk indices whose directory entry passes [`may_hold`].
    /// Pruning works entirely off the directory: skipped chunks are
    /// never read from disk, let alone decoded.
    pub(crate) fn select_chunks(&self, from: i64, to: i64, device: Option<Symbol>) -> Vec<usize> {
        self.dir
            .iter()
            .enumerate()
            .filter(|(_, e)| may_hold(e.min_time, e.max_time, &e.device_bits, from, to, device))
            .map(|(i, _)| i)
            .collect()
    }

    /// Reads frame `i` into `chunk`: each fixed-width column is
    /// `pread` straight into its buffer, the span columns and the pool
    /// tail through the caller's byte `scratch` (see [`FrameReader`]).
    /// Every buffer is grow-only and overwritten in place, so a reused
    /// `chunk` and `scratch` cost no allocation and no fill for a
    /// frame no larger than the last.
    ///
    /// The checks run while each column is still in cache, but the
    /// verdicts keep one order: the frame CRC, then the tail's
    /// structure, then the symbol and span ranges, so every corrupt
    /// frame yields one `StoreError` however it is read. On error,
    /// `chunk` holds no meaningful rows.
    pub(crate) fn read_into(
        &self,
        i: usize,
        chunk: &mut ObsChunk,
        scratch: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.read_columns(i, chunk, scratch)
            .map_err(|e| e.with_path(&self.path))
    }

    fn read_columns(
        &self,
        i: usize,
        chunk: &mut ObsChunk,
        scratch: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        let entry = self
            .dir
            .get(i)
            .ok_or(StoreError::Corrupt("chunk index out of range"))?;
        let len = usize::try_from(entry.len).map_err(|_| trunc("frame", entry.offset))?;
        // `open` holds every directory entry to this bound; restated so
        // no entry can make a column run past its frame.
        let fixed = ROW_BYTES * entry.rows as u64;
        if fixed + 8 > entry.len {
            return Err(StoreError::Corrupt(SHORT_FRAME));
        }
        let n = entry.rows as usize;
        let mut f = FrameReader { file: &self.file, off: entry.offset, crc: !0 };
        f.column(&mut chunk.time, n)?;
        let device = symbols_needed(f.column(&mut chunk.device, n)?);
        let destination = symbols_needed(f.column(&mut chunk.destination, n)?);
        let sni = optional_symbols_needed(f.column(&mut chunk.sni, n)?);
        let fingerprint = symbols_needed(f.column(&mut chunk.fingerprint, n)?);
        let leaf_issuer = optional_symbols_needed(f.column(&mut chunk.leaf_issuer, n)?);
        let max_adv = version_spread(f.column(&mut chunk.max_adv, n)?, false);
        let neg_version = version_spread(f.column(&mut chunk.neg_version, n)?, true);
        f.column(&mut chunk.neg_suite, n)?;
        f.column(&mut chunk.flags, n)?;
        f.column(&mut chunk.count, n)?;
        let adv_versions = f.spans(&mut chunk.adv_versions, n, scratch)?;
        let suites = f.spans(&mut chunk.suites, n, scratch)?;
        let alerts_c2s = f.spans(&mut chunk.alerts_c2s, n, scratch)?;
        let alerts_s2c = f.spans(&mut chunk.alerts_s2c, n, scratch)?;
        let tail = grow(scratch, len - fixed as usize);
        f.read(tail)?;
        self.frame_bytes
            .fetch_add(entry.len, std::sync::atomic::Ordering::Relaxed);
        if !f.crc != entry.crc {
            return Err(StoreError::ChecksumMismatch { chunk: Some(i as u32), path: String::new() });
        }

        // Structure: two length-prefixed pools fill the tail exactly.
        let mut r = Reader::at(tail, "chunk frame", entry.offset + fixed);
        let u16s = r.u32()? as usize;
        let pool_u16 = r.take(u16s.saturating_mul(2))?;
        let u8s = r.u32()? as usize;
        let pool_u8 = r.take(u8s)?;
        r.done()?;
        chunk.pool_u16.clear();
        chunk.pool_u16.extend(
            pool_u16
                .chunks_exact(2)
                .map(|b| u16::from_le_bytes(b.try_into().unwrap())),
        );
        chunk.pool_u8.clear();
        chunk.pool_u8.extend_from_slice(pool_u8);
        chunk.min_time = entry.min_time;
        chunk.max_time = entry.max_time;
        chunk.device_bits.clear();
        chunk.device_bits.extend_from_slice(&entry.device_bits);

        // Ranges: symbols inside the intern tables (`NO_SYM` allowed
        // where the schema is optional), spans inside their pools.
        let (strings, fps) = (self.strings.len() as u64, self.fps.len() as u64);
        if device > strings || destination > strings {
            return Err(StoreError::Corrupt("row symbol outside string table"));
        }
        if sni > strings || leaf_issuer > strings {
            return Err(StoreError::Corrupt("optional symbol outside string table"));
        }
        if fingerprint > fps {
            return Err(StoreError::Corrupt("fingerprint outside digest table"));
        }
        let (u16s, u8s) = (u16s as u64, u8s as u64);
        if adv_versions > u16s || suites > u16s {
            return Err(StoreError::Corrupt("u16 span outside pool"));
        }
        if alerts_c2s > u8s || alerts_s2c > u8s {
            return Err(StoreError::Corrupt("u8 span outside pool"));
        }
        // Versions: known wires only, where `neg_version` may be 0
        // (none negotiated); the advertised ones sit in the u16 pool.
        // The writer interns each list once per chunk, so rows often
        // repeat the span before them: checked once, it is skipped.
        let pool = &chunk.pool_u16;
        let mut advertised = 0;
        let mut last = None;
        for &span in &chunk.adv_versions {
            if last == Some(span) {
                continue;
            }
            last = Some(span);
            let (off, len) = span;
            for &w in &pool[off as usize..][..len as usize] {
                advertised = advertised.max(w.wrapping_sub(SSL30));
            }
        }
        if max_adv.max(neg_version).max(advertised) > TLS13 - SSL30 {
            return Err(StoreError::Corrupt(UNKNOWN_VERSION));
        }
        Ok(())
    }
}

/// What the frame reader reports for a version column or advertised
/// version outside SSL 3.0 to TLS 1.3.
const UNKNOWN_VERSION: &str = "version wire outside SSL 3.0 to TLS 1.3";

/// The wires of SSL 3.0 and TLS 1.3, the oldest and newest versions a
/// row can hold.
const SSL30: u16 = 0x0300;
const TLS13: u16 = 0x0304;

/// What `open` and the frame reader report for a directory entry too
/// short for the fixed-width columns its row count implies.
const SHORT_FRAME: &str = "chunk frame shorter than its row count";

/// One frame read front to back with one `pread` per column: each
/// read lands in its destination buffer, and the CRC-32C folds over
/// it while it is still in cache.
struct FrameReader<'a> {
    file: &'a File,
    /// Absolute file offset of the next read.
    off: u64,
    /// Raw (pre-inverted) CRC-32C state over the bytes read so far.
    crc: u32,
}

impl FrameReader<'_> {
    /// Fills `buf` from the frame's next bytes and folds them into
    /// the CRC.
    fn read(&mut self, buf: &mut [u8]) -> Result<(), StoreError> {
        read_at_or_trunc(self.file, buf, self.off, "frame")?;
        self.crc = crc32_raw(self.crc, buf);
        self.off += buf.len() as u64;
        Ok(())
    }

    /// Reads an `n`-entry fixed-width column straight into `col`:
    /// resized to `n` (a reused buffer of that length is neither
    /// reallocated nor filled), checksummed, and byte-swapped in
    /// place on big-endian targets.
    fn column<'c, T: LeWord>(
        &mut self,
        col: &'c mut Vec<T>,
        n: usize,
    ) -> Result<&'c [T], StoreError> {
        col.resize(n, T::default());
        self.read(column_bytes(col))?;
        if cfg!(target_endian = "big") {
            for v in col.iter_mut() {
                *v = T::from_le(*v);
            }
        }
        Ok(col)
    }

    /// Reads one span column (all `n` offsets, then all `n` lengths)
    /// through `scratch` and zips it into `spans` ([`zip_spans`]).
    fn spans(
        &mut self,
        spans: &mut Vec<(u32, u16)>,
        n: usize,
        scratch: &mut Vec<u8>,
    ) -> Result<u64, StoreError> {
        let raw = grow(scratch, 6 * n);
        self.read(raw)?;
        let (offs, lens) = raw.split_at(4 * n);
        Ok(wide(|| zip_spans(offs, lens, spans)))
    }
}

// The span zip stores each `(offset, len)` pair as two `u32` words:
// the offset, then the length's native bytes over two zero padding
// bytes. Whole-word stores vectorize where a store per tuple field
// does not. The tuple layout this relies on is pinned here: offset at
// bytes 0..4, length at 4..6, eight bytes in all, aligned to 4.
const _: () = assert!(
    std::mem::size_of::<(u32, u16)>() == 8
        && std::mem::align_of::<(u32, u16)>() == 4
        && std::mem::offset_of!((u32, u16), 0) == 0
        && std::mem::offset_of!((u32, u16), 1) == 4
);

/// Zips span offsets and lengths (two little-endian runs, as on the
/// wire) into `(offset, len)` pairs in `spans`. Returns the largest
/// `offset + len`, 0 for an empty column: a pool holds every span iff
/// it is at least that long.
fn zip_spans(offs: &[u8], lens: &[u8], spans: &mut Vec<(u32, u16)>) -> u64 {
    let pairs = offs.chunks_exact(4).zip(lens.chunks_exact(2));
    let n = pairs.len();
    spans.clear();
    spans.reserve(n);
    let out = spans.spare_capacity_mut().as_mut_ptr().cast::<[u32; 2]>();
    let mut end = 0u64;
    for (i, (o, l)) in pairs.enumerate() {
        let off = u32::from_le_bytes(o.try_into().unwrap());
        let len = u16::from_le_bytes(l.try_into().unwrap());
        let [lo, hi] = len.to_ne_bytes();
        // SAFETY: `i < n` and `n` slots are reserved; `[u32; 2]` has
        // the pair's size and alignment, and its words land on the
        // pair's offset and length bytes (the layout asserted above).
        unsafe { out.add(i).write([off, u32::from_ne_bytes([lo, hi, 0, 0])]) };
        end = end.max(off as u64 + len as u64);
    }
    // SAFETY: the loop initialized all `n` pairs.
    unsafe { spans.set_len(n) };
    end
}

/// Runs `f` compiled for AVX2 when the CPU has it, as compiled for the
/// target otherwise. The frame reader's max reductions and span zip
/// run through it: baseline x86_64 (SSE2) has no 32- or 64-bit vector
/// max, and there a symbol reduction took 0.26–0.34 ns per entry and
/// a span zip 1.0–1.5 ns, against 0.07 and 0.55 with AVX2.
#[inline(always)]
fn wide<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        /// # Safety
        ///
        /// The CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn avx2<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        // SAFETY: guarded by the runtime AVX2 detection above.
        return unsafe { avx2(f) };
    }
    f()
}

/// The first `len` bytes of a grow-only scratch buffer.
fn grow(scratch: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if scratch.len() < len {
        scratch.resize(len, 0);
    }
    &mut scratch[..len]
}

/// Entries a table needs so that every symbol of a required column
/// indexes it: the largest symbol plus one, 0 for an empty column. A
/// branch-free max reduction, so it vectorizes.
fn symbols_needed(col: &[u32]) -> u64 {
    let top = wide(|| col.iter().fold(0, |m, &s| m.max(s)));
    if col.is_empty() {
        0
    } else {
        top as u64 + 1
    }
}

/// [`symbols_needed`] for an optional column, whose `NO_SYM` needs no
/// entry: shifted up by one, the sentinel wraps to 0.
fn optional_symbols_needed(col: &[u32]) -> u64 {
    wide(|| col.iter().fold(0, |m, &s| m.max(s.wrapping_add(1)))) as u64
}

/// How far a version column's wires reach above SSL 3.0, as wrapping
/// `u16` differences (0 for an empty column): every wire is a known
/// version iff it is at most `TLS13 - SSL30`. With `none_ok`, a 0 entry
/// (no version) counts as SSL 3.0. A branch-free max reduction, so it
/// vectorizes.
fn version_spread(col: &[u16], none_ok: bool) -> u16 {
    let none = if none_ok { SSL30 } else { 0 };
    wide(|| {
        col.iter().fold(0, |m, &w| {
            m.max((w + u16::from(w == 0) * none).wrapping_sub(SSL30))
        })
    })
}

/// The pruning test a chunk's directory entry and a segment's
/// manifest entry share: `[min_time, max_time]` overlaps `[from, to]`
/// and, when `device` is given, its bit is set in `device_bits`.
pub(crate) fn may_hold(
    min_time: i64,
    max_time: i64,
    device_bits: &[u64],
    from: i64,
    to: i64,
    device: Option<Symbol>,
) -> bool {
    let device_ok = device.is_none_or(|d| {
        let (word, bit) = (d.index() / 64, d.index() % 64);
        device_bits.get(word).is_some_and(|&w| (w >> bit) & 1 == 1)
    });
    min_time <= to && max_time >= from && device_ok
}

/// Validates the fixed header, returning the footer offset.
fn check_header(header: &[u8]) -> Result<u64, StoreError> {
    if header[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    Ok(u64::from_le_bytes(header[12..20].try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{ChunkWriter, RowView, CHUNK_ROWS};
    use crate::generate::CaptureCtx;
    use iotls_devices::Testbed;
    use iotls_tls::ProtocolVersion;
    use std::path::PathBuf;

    #[test]
    fn crc32_matches_the_crc32c_check_value() {
        // The standard CRC-32C (Castagnoli) check vector.
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
    }

    /// The definitional byte-at-a-time loop over a raw state: the
    /// oracle every kernel is held to.
    fn bytewise_raw(state: u32, bytes: &[u8]) -> u32 {
        let mut c = state;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect()
    }

    #[test]
    fn crc_kernels_agree_with_bytewise_at_every_alignment() {
        let block = 3 * CRC_STRIDE;
        let mut lens = vec![0, 1, 7, 8, 9, 63, 64, 65, 1000, 1024, 256 << 10, 1 << 20];
        for k in 1..=3 {
            lens.extend([k * block - 1, k * block, k * block + 1, k * block + 7]);
        }
        let data = pattern((1 << 20) + 8);
        for len in lens {
            for start in 0..8 {
                let bytes = &data[start..start + len];
                let want = bytewise_raw(!0, bytes);
                // crc32() dispatches to the three-chain hardware kernel
                // when available and the software slicing-by-8 kernel
                // otherwise; every kernel must match the definitional
                // byte-at-a-time loop.
                assert_eq!(!crc32(bytes), want, "len {len} start {start}");
                assert_eq!(crc32_sw(!0, bytes), want, "sw len {len} start {start}");
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("sse4.2") {
                    // SAFETY: guarded by the runtime detection.
                    let (one, three) = unsafe { (crc32_hw(!0, bytes), crc32_hw3(!0, bytes)) };
                    assert_eq!(one, want, "one-chain len {len} start {start}");
                    assert_eq!(three, want, "three-chain len {len} start {start}");
                }
            }
        }
    }

    #[test]
    fn shift_tables_match_shifting_through_zero_bytes() {
        // crc_shift is linear and reads each state byte through its own
        // table, so the states `v << 8k` reach every entry of every
        // table exactly once.
        let zeros = vec![0u8; CRC_STRIDE];
        for k in 0..4 {
            for v in 0..256u32 {
                let state = v << (8 * k);
                assert_eq!(crc_shift(state), bytewise_raw(state, &zeros), "table {k} entry {v}");
            }
        }
        assert_eq!(crc_shift(!0), bytewise_raw(!0, &zeros));
    }

    #[test]
    fn streaming_crc_update_matches_one_shot() {
        let block = 3 * CRC_STRIDE;
        let data = pattern(3 * block + 4097);
        let splits = [
            0,
            1,
            9,
            100,
            4095,
            4096,
            CRC_STRIDE + 5,
            2 * CRC_STRIDE - 3,
            block - 1,
            block,
            block + 1,
            block + CRC_STRIDE + 7,
            2 * block + 2 * CRC_STRIDE + 1,
            data.len() - 1,
            data.len(),
        ];
        for split in splits {
            let mut state = !0u32;
            state = crc32_raw(state, &data[..split]);
            state = crc32_raw(state, &data[split..]);
            assert_eq!(!state, crc32(&data), "split {split}");
        }
        // Three pieces, both cuts inside three-chain blocks.
        let (a, b) = (CRC_STRIDE / 2 + 3, block + 2 * CRC_STRIDE + 11);
        let state = crc32_raw(crc32_raw(crc32_raw(!0, &data[..a]), &data[a..b]), &data[b..]);
        assert_eq!(!state, crc32(&data));
    }

    // ── The column reader against the full-frame oracle ──────────

    /// The retired read path, kept as the oracle the column reader is
    /// held to: the directory bound `open` applies, the whole frame in
    /// one read, its CRC, then a decode that copies every column out of
    /// the frame and validates the copies.
    fn oracle_read(store: &ColumnarStore, i: usize) -> Result<ObsChunk, StoreError> {
        let entry = &store.dir[i];
        let read = || {
            if ROW_BYTES * entry.rows as u64 + 8 > entry.len {
                return Err(StoreError::Corrupt(SHORT_FRAME));
            }
            let mut payload = vec![0; entry.len as usize];
            read_at_or_trunc(&store.file, &mut payload, entry.offset, "frame")?;
            if crc32(&payload) != entry.crc {
                let chunk = Some(i as u32);
                return Err(StoreError::ChecksumMismatch { chunk, path: String::new() });
            }
            let (strings, fps) = (store.strings.len() as u32, store.fps.len() as u32);
            decode_frame_oracle(&payload, entry, strings, fps)
        };
        read().map_err(|e| e.with_path(&store.path))
    }

    /// `n` little-endian values `width` bytes wide, one at a time.
    fn oracle_column<T>(
        r: &mut Reader<'_>,
        n: usize,
        width: usize,
        from: impl Fn(&[u8]) -> T,
    ) -> Result<Vec<T>, StoreError> {
        Ok(r.take(n * width)?.chunks_exact(width).map(from).collect())
    }

    fn oracle_spans(r: &mut Reader<'_>, n: usize) -> Result<Vec<(u32, u16)>, StoreError> {
        let offs = r.take(n * 4)?;
        let lens = r.take(n * 2)?;
        Ok(offs
            .chunks_exact(4)
            .zip(lens.chunks_exact(2))
            .map(|(o, l)| {
                let off = u32::from_le_bytes(o.try_into().unwrap());
                (off, u16::from_le_bytes(l.try_into().unwrap()))
            })
            .collect())
    }

    /// Decodes one CRC-verified frame payload, validating every index
    /// after the whole frame is decoded.
    fn decode_frame_oracle(
        payload: &[u8],
        entry: &DirEntry,
        string_count: u32,
        fp_count: u32,
    ) -> Result<ObsChunk, StoreError> {
        let n = entry.rows as usize;
        let mut r = Reader::at(payload, "chunk frame", entry.offset);
        let u16s = |b: &[u8]| u16::from_le_bytes(b.try_into().unwrap());
        let u32s = |b: &[u8]| u32::from_le_bytes(b.try_into().unwrap());
        let time = oracle_column(&mut r, n, 8, |b| i64::from_le_bytes(b.try_into().unwrap()))?;
        let device = oracle_column(&mut r, n, 4, u32s)?;
        let destination = oracle_column(&mut r, n, 4, u32s)?;
        let sni = oracle_column(&mut r, n, 4, u32s)?;
        let fingerprint = oracle_column(&mut r, n, 4, u32s)?;
        let leaf_issuer = oracle_column(&mut r, n, 4, u32s)?;
        let max_adv = oracle_column(&mut r, n, 2, u16s)?;
        let neg_version = oracle_column(&mut r, n, 2, u16s)?;
        let neg_suite = oracle_column(&mut r, n, 2, u16s)?;
        let flags = r.take(n)?.to_vec();
        let count = oracle_column(&mut r, n, 8, |b| u64::from_le_bytes(b.try_into().unwrap()))?;
        let adv_versions = oracle_spans(&mut r, n)?;
        let suites = oracle_spans(&mut r, n)?;
        let alerts_c2s = oracle_spans(&mut r, n)?;
        let alerts_s2c = oracle_spans(&mut r, n)?;
        let pool_u16_len = r.u32()? as usize;
        let pool_u16 = oracle_column(&mut r, pool_u16_len, 2, u16s)?;
        let pool_u8_len = r.u32()? as usize;
        let pool_u8 = r.take(pool_u8_len)?.to_vec();
        r.done()?;

        let sym_ok = |col: &[u32]| col.iter().all(|&s| s < string_count);
        let opt_sym_ok = |col: &[u32]| col.iter().all(|&s| s == NO_SYM || s < string_count);
        if !sym_ok(&device) || !sym_ok(&destination) {
            return Err(StoreError::Corrupt("row symbol outside string table"));
        }
        if !opt_sym_ok(&sni) || !opt_sym_ok(&leaf_issuer) {
            return Err(StoreError::Corrupt("optional symbol outside string table"));
        }
        if !fingerprint.iter().all(|&f| f < fp_count) {
            return Err(StoreError::Corrupt("fingerprint outside digest table"));
        }
        let span_ok = |spans: &[(u32, u16)], pool_len: usize| {
            spans.iter().all(|&(off, len)| {
                (off as usize).checked_add(len as usize).is_some_and(|e| e <= pool_len)
            })
        };
        if !span_ok(&adv_versions, pool_u16.len()) || !span_ok(&suites, pool_u16.len()) {
            return Err(StoreError::Corrupt("u16 span outside pool"));
        }
        if !span_ok(&alerts_c2s, pool_u8.len()) || !span_ok(&alerts_s2c, pool_u8.len()) {
            return Err(StoreError::Corrupt("u8 span outside pool"));
        }
        let known = |w: &u16| ProtocolVersion::from_wire(*w).is_some();
        let advertised_known = adv_versions.iter().all(|&(off, len)| {
            pool_u16[off as usize..off as usize + len as usize]
                .iter()
                .all(known)
        });
        if !max_adv.iter().all(known)
            || !neg_version.iter().all(|w| *w == 0 || known(w))
            || !advertised_known
        {
            return Err(StoreError::Corrupt(UNKNOWN_VERSION));
        }

        Ok(ObsChunk {
            time,
            device,
            destination,
            sni,
            fingerprint,
            adv_versions,
            max_adv,
            suites,
            neg_version,
            neg_suite,
            leaf_issuer,
            alerts_c2s,
            alerts_s2c,
            flags,
            count,
            pool_u16,
            pool_u8,
            min_time: entry.min_time,
            max_time: entry.max_time,
            device_bits: entry.device_bits.clone(),
        })
    }

    /// Asserts that two chunks hold the same columns, pools and
    /// pruning metadata.
    fn assert_same_chunk(got: &ObsChunk, want: &ObsChunk, what: &str) {
        macro_rules! same {
            ($($field:ident),*) => {$(
                assert!(got.$field == want.$field, "{what}: {} differs", stringify!($field));
            )*};
        }
        same!(time, device, destination, sni, fingerprint, adv_versions, max_adv, suites);
        same!(neg_version, neg_suite, leaf_issuer, alerts_c2s, alerts_s2c, flags, count);
        same!(pool_u16, pool_u8, min_time, max_time, device_bits);
    }

    /// A per-process scratch path for one test's segment file.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("iotls-store-{}-{name}", std::process::id()))
    }

    /// One segment of the generated capture at `per_row` connections
    /// per row, written chunk by chunk as the generator seals them.
    fn generated_segment(path: &Path, per_row: u64) -> ColumnarStore {
        let mut w = StoreWriter::create(path).expect("create segment");
        let ctx = CaptureCtx::new(crate::DEFAULT_SEED).with_threads(1);
        let tail = ctx.generate_streamed(Testbed::global(), per_row, &mut |c| {
            w.add_chunk(&c).expect("write chunk")
        });
        w.finish(&tail.strings, &tail.fps, &tail.revocation_flows, tail.truncated)
            .expect("finish segment");
        ColumnarStore::open(path).expect("open segment")
    }

    #[test]
    fn column_reader_matches_the_full_frame_oracle_on_every_chunk() {
        let path = scratch("generated.seg");
        let store = generated_segment(&path, 64);
        let n = store.chunk_count();
        assert!(n >= 3, "{n} chunks");
        assert!((0..n - 1).all(|i| store.chunk_rows(i) == CHUNK_ROWS));
        assert!(store.chunk_rows(n - 1) < CHUNK_ROWS, "the last chunk is short");

        // One reused buffer walked forward (full chunks, then the short
        // last one) and back (the short one, then full ones): a pooled
        // buffer both shrinks and grows between frames.
        let (mut chunk, mut scratch) = (ObsChunk::default(), Vec::new());
        for i in (0..n).chain((0..n).rev()) {
            store.read_into(i, &mut chunk, &mut scratch).expect("column read");
            let want = oracle_read(&store, i).expect("oracle read");
            assert_same_chunk(&chunk, &want, &format!("chunk {i}"));
        }
        // A fresh zeroed buffer per frame, as `read_chunk_with` reads.
        for i in [0, n - 1] {
            let mut fresh = ObsChunk::zeroed(store.chunk_rows(i));
            store.read_into(i, &mut fresh, &mut Vec::new()).expect("fresh read");
            assert_same_chunk(&fresh, &oracle_read(&store, i).unwrap(), &format!("fresh {i}"));
        }
        // Each chunk fetches its frame once, whatever buffers it lands in.
        let fresh = store.dir[0].len + store.dir[n - 1].len;
        assert_eq!(store.frame_bytes_read(), 2 * store.frame_bytes_total() + fresh);
        std::fs::remove_file(&path).ok();
    }

    /// The bytes of a one-chunk segment of three hand-built rows over
    /// a three-string, two-digest table. Row 0 has no SNI and no
    /// alerts; rows 1 and 2 carry alert spans.
    fn tiny_segment(path: &Path) -> Vec<u8> {
        let mut strings = Interner::new();
        let cam = strings.intern("Cam A");
        let cloud = strings.intern("cloud.example");
        let root = strings.intern("SimTrust Root");
        let mut fps = DigestInterner::new();
        fps.intern(FingerprintId([1; 16]));
        fps.intern(FingerprintId([2; 16]));
        let base = RowView {
            time: 1_514_764_800,
            device: cam,
            destination: cloud,
            sni: None,
            fingerprint: 0,
            advertised_wire: &[0x0302, 0x0303],
            max_advertised_wire: 0x0303,
            suites: &[0xc02f, 0x0005],
            negotiated_version_wire: Some(0x0303),
            negotiated_suite: Some(0xc02f),
            leaf_issuer: Some(root),
            alerts_c2s: &[],
            alerts_s2c: &[],
            requested_ocsp: true,
            ocsp_stapled: false,
            established: true,
            count: 5,
        };
        let mut cw = ChunkWriter::new();
        cw.push(&base);
        cw.push(&RowView {
            time: base.time + 10,
            sni: Some(cloud),
            fingerprint: 1,
            advertised_wire: &[0x0303],
            suites: &[0x002f],
            negotiated_version_wire: None,
            negotiated_suite: None,
            leaf_issuer: None,
            alerts_c2s: &[42],
            alerts_s2c: &[0],
            established: false,
            count: 1,
            ..base
        });
        cw.push(&RowView { time: base.time + 20, alerts_c2s: &[42], alerts_s2c: &[40, 0], ..base });
        let mut w = StoreWriter::create(path).expect("create segment");
        w.add_chunk(&cw.take()).expect("write chunk");
        w.finish(&strings, &fps, &[], 0).expect("finish segment");
        std::fs::read(path).expect("read segment back")
    }

    /// `seg` (a one-chunk segment) rebuilt around `frame` with
    /// directory CRC `crc`: the header's footer offset, the directory
    /// entry's length and the footer CRC follow, so only the frame and
    /// its CRC are hostile.
    fn with_frame(seg: &[u8], frame: &[u8], crc: u32) -> Vec<u8> {
        let footer_off = u64::from_le_bytes(seg[12..20].try_into().unwrap()) as usize;
        // chunk_count u64, then chunk 0: offset u64 · len u64 · rows u32 · crc u32 · …
        let mut footer = seg[footer_off..seg.len() - 4].to_vec();
        footer[16..24].copy_from_slice(&(frame.len() as u64).to_le_bytes());
        footer[28..32].copy_from_slice(&crc.to_le_bytes());
        let mut out = seg[..HEADER_LEN as usize].to_vec();
        out[12..20].copy_from_slice(&(HEADER_LEN + frame.len() as u64).to_le_bytes());
        out.extend_from_slice(frame);
        out.extend_from_slice(&footer);
        out.extend_from_slice(&crc32(&footer).to_le_bytes());
        out
    }

    /// What reading chunk 0 of segment `bytes` gives the column
    /// reader and the oracle: the chunk, or the error's full `Debug`
    /// form (variant, context, offset and file). Both see an `open`
    /// failure alike.
    fn read_both(path: &Path, bytes: &[u8]) -> [Result<ObsChunk, String>; 2] {
        std::fs::write(path, bytes).expect("write segment");
        let store = match ColumnarStore::open(path) {
            Ok(store) => store,
            Err(e) => return [Err(format!("{e:?}")), Err(format!("{e:?}"))],
        };
        let mut chunk = ObsChunk::default();
        let column = store.read_into(0, &mut chunk, &mut Vec::new()).map(|()| chunk);
        [column, oracle_read(&store, 0)].map(|r| r.map_err(|e| format!("{e:?}")))
    }

    fn assert_agree(path: &Path, bytes: &[u8], what: &str) -> Result<ObsChunk, String> {
        let [column, oracle] = read_both(path, bytes);
        match (&column, &oracle) {
            (Ok(got), Ok(want)) => assert_same_chunk(got, want, what),
            _ => assert_eq!(column.as_ref().err(), oracle.as_ref().err(), "{what}"),
        }
        column
    }

    #[test]
    fn hostile_frames_fail_alike_in_both_readers() {
        let path = scratch("hostile.seg");
        let seg = tiny_segment(&path);
        let footer_off = u64::from_le_bytes(seg[12..20].try_into().unwrap()) as usize;
        let frame = seg[HEADER_LEN as usize..footer_off].to_vec();
        let n = 3;
        let fixed = ROW_BYTES as usize * n;
        let word = |f: &[u8], at: usize| u32::from_le_bytes(f[at..at + 4].try_into().unwrap());
        let pool_u16 = word(&frame, fixed);
        let pool_u8 = word(&frame, fixed + 4 + 2 * pool_u16 as usize);
        assert_eq!(frame.len(), fixed + 8 + 2 * pool_u16 as usize + pool_u8 as usize);
        assert!(pool_u16 > 0 && pool_u8 > 0);

        // Untouched, both readers return the same chunk.
        let good = assert_agree(&path, &with_frame(&seg, &frame, crc32(&frame)), "untouched");
        let good = good.expect("the untouched frame reads");
        assert_eq!(good.sni[0], NO_SYM, "an absent SNI is in range");

        // Column starts within the frame (rows are `n` wide).
        let (device, destination, sni) = (8 * n, 12 * n, 16 * n);
        let (fingerprint, leaf_issuer) = (20 * n, 24 * n);
        let (adv_off, suites_off, c2s_off) = (43 * n, 49 * n, 55 * n);
        let u8_word = fixed + 4 + 2 * pool_u16 as usize;
        let set = |at: usize, v: u32| {
            let mut f = frame.clone();
            f[at..at + 4].copy_from_slice(&v.to_le_bytes());
            f
        };
        let set16 = |at: usize, v: u16| {
            let mut f = frame.clone();
            f[at..at + 2].copy_from_slice(&v.to_le_bytes());
            f
        };
        // Row 0 advertises [0x0302, 0x0303] from this u16 pool offset.
        let adv_pool = fixed + 4 + 2 * word(&frame, adv_off) as usize;
        assert_eq!(frame[adv_pool..adv_pool + 4], [0x02, 0x03, 0x03, 0x03]);
        let mut trailing = frame.clone();
        trailing.extend_from_slice(&[0, 0]);
        let row_symbol = "Corrupt(\"row symbol outside string table\")";
        let optional = "Corrupt(\"optional symbol outside string table\")";
        let digest = "Corrupt(\"fingerprint outside digest table\")";
        let u16_span = "Corrupt(\"u16 span outside pool\")";
        let u8_span = "Corrupt(\"u8 span outside pool\")";
        let short = "Corrupt(\"chunk frame shorter than its row count\")";
        let version = "Corrupt(\"version wire outside SSL 3.0 to TLS 1.3\")";
        let (max_adv, neg_version) = (28 * n, 30 * n);
        // Offsets count from the start of the segment file: its 20-byte
        // header, the 201 bytes of fixed columns, the pool's length.
        assert_eq!((HEADER_LEN as usize, fixed), (20, 201));
        let pool_overrun = "Truncated { context: \"chunk frame\", offset: 225,";
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            ("device past the string table", set(device + 4, 3), row_symbol),
            ("destination past the string table", set(destination + 8, 3), row_symbol),
            ("NO_SYM device", set(device, NO_SYM), row_symbol),
            ("NO_SYM destination", set(destination + 4, NO_SYM), row_symbol),
            ("SNI past the string table", set(sni, 3), optional),
            ("leaf issuer past the string table", set(leaf_issuer + 8, 3), optional),
            ("fingerprint past the digest table", set(fingerprint + 4, 2), digest),
            ("version span past its pool", set(adv_off, pool_u16), u16_span),
            ("suite span offset at u32::MAX", set(suites_off + 8, u32::MAX), u16_span),
            ("alert span past its pool", set(c2s_off + 4, pool_u8), u8_span),
            (
                "max advertised version 0x9999",
                set16(max_adv + 2, 0x9999),
                version,
            ),
            (
                "negotiated version 0x9999",
                set16(neg_version, 0x9999),
                version,
            ),
            (
                "advertised version 0x9999",
                set16(adv_pool + 2, 0x9999),
                version,
            ),
            ("u16 pool length overruns the frame", set(fixed, u32::MAX), pool_overrun),
            ("u8 pool length overruns the frame", set(u8_word, pool_u8 + 1), "Truncated"),
            ("frame cut inside its u8 pool", frame[..frame.len() - 1].to_vec(), "Truncated"),
            ("trailing bytes", trailing, "Corrupt(\"trailing bytes after structure\")"),
            ("directory len short of the fixed columns", frame[..fixed + 7].to_vec(), short),
        ];
        for (what, hostile, want) in cases {
            let got = assert_agree(&path, &with_frame(&seg, &hostile, crc32(&hostile)), what);
            let err = got.expect_err(what);
            assert!(err.starts_with(want), "{what}: {err}");
        }
        // A byte changed under the old CRC is a checksum mismatch in
        // both, also when the change is hostile: the CRC's verdict
        // comes first.
        let stale = [("stale CRC", set(device, 1)), ("stale CRC, hostile", set(device, 3))];
        for (what, hostile) in stale {
            let err = assert_agree(&path, &with_frame(&seg, &hostile, crc32(&frame)), what);
            assert!(err.expect_err(what).starts_with("ChecksumMismatch"), "{what}");
        }

        // A directory entry that `open` would have refused, handed to
        // both readers directly: the same error, not a panic.
        std::fs::write(&path, with_frame(&seg, &frame, crc32(&frame))).unwrap();
        let mut store = ColumnarStore::open(&path).expect("open");
        store.dir[0].len = (fixed + 7) as u64;
        store.dir[0].crc = crc32(&frame[..fixed + 7]);
        let column = store.read_into(0, &mut ObsChunk::default(), &mut Vec::new());
        let oracle = oracle_read(&store, 0);
        assert_eq!(format!("{:?}", column.unwrap_err()), format!("{:?}", oracle.unwrap_err()));

        // Every byte of the frame flipped under a recomputed CRC (a
        // CRC-valid frame, hostile or not): both readers agree.
        for i in 0..frame.len() {
            let mut f = frame.clone();
            f[i] ^= 1 << (i % 8);
            let what = format!("flip at byte {i}");
            let _ = assert_agree(&path, &with_frame(&seg, &f, crc32(&f)), &what);
        }
        std::fs::remove_file(&path).ok();
    }
}

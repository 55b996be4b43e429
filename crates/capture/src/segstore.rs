//! The persistent store: a directory of immutable segment files plus
//! a small merged manifest. It is the one on-disk layout of the
//! columnar dataset.
//!
//! The "2 years of pcap at the gateway" workload is ingested across
//! many capture days and re-analyzed in slices; the segmented layout
//! scales both axes. A one-shot capture is simply a store of one
//! batch (one segment when the writer's chunk limit is raised with
//! [`SegmentedWriter::with_chunk_limit`]).
//!
//! ```text
//! store-dir/
//!   MANIFEST          merged directory (atomic rename publish)
//!   seg-000000.seg    one segment (header · frames · footer,
//!   seg-000001.seg    in the codec of crate::store)
//!   …
//! ```
//!
//! Every segment is a complete v1 segment file of the
//! [`crate::store`] codec whose footer carries the global symbol
//! tables **as of the batch that sealed it**. Symbol tables
//! only ever grow by appending (interning is insertion-ordered), so
//! each earlier segment's tables are a prefix of every later one and
//! the last segment's tables are authoritative for the whole store;
//! [`SegmentedStore::open`] verifies the prefix property. Revocation
//! flows are stored as per-batch deltas (on the batch's last
//! segment) and concatenate in segment order; the truncated tally is
//! a per-batch delta that sums.
//!
//! ```text
//! MANIFEST  magic "IOTLSSM1" · version u32 · segment_count u32
//!           per segment: name (len u16 · bytes)
//!                        · chunks u64 · rows u64 · connections u64
//!                        · min_time i64 · max_time i64
//!                        · words u32 · device_bits words×u64
//!                        · footer_crc u32 · file_len u64
//!           strings_len u32 · fps_len u32
//!           crc32c u32 (over everything above)
//! ```
//!
//! **Append protocol.** [`SegmentedWriter::append`] reopens the
//! store, seeds the global tables and next segment index, and writes
//! the batch's new segment files completely (footers included)
//! before publishing a new `MANIFEST` via write-to-temp +
//! `rename(2)`. Segments are immutable once named by a manifest;
//! append never rewrites one.
//!
//! **Recovery rules.** A crash before the rename leaves the old
//! manifest intact: the half-written segment files exist on disk but
//! are not named by any manifest, so the store reopens cleanly at
//! its last sealed state and the strays are merely counted
//! ([`SegmentedStore::orphan_segments`]). A torn manifest, or a
//! manifest-listed segment that is shorter than its recorded length,
//! is real corruption and surfaces as a typed [`StoreError`] naming
//! the exact file and byte offset — never a panic, never silent data
//! loss. The manifest's `footer_crc` binds each directory entry to
//! its segment's full content (every frame CRC lives inside the
//! footer the CRC covers), so a swapped or rewritten segment is
//! detected without reading its frames.

use crate::columnar::{ColumnarDataset, ObsChunk};
use crate::intern::{DigestInterner, Interner, Symbol};
use crate::store::{
    crc32, may_hold, put_le, trunc, ColumnarStore, Reader, StoreError, StoreWriter, NO_SYM,
};
use crate::RevRow;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Manifest magic: "IOTLS" + "SM" (segmented manifest) + generation.
const SEG_MAGIC: [u8; 8] = *b"IOTLSSM1";

/// Current manifest format version.
const SEG_VERSION: u32 = 1;

/// File name of the merged directory inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Default chunk frames per segment before the writer rolls to a new
/// file (~4.3M rows at the sealed chunk size — big enough that the
/// per-segment footer overhead vanishes, small enough that a
/// one-month slice of a multi-year corpus skips most files).
pub const DEFAULT_SEGMENT_CHUNKS: usize = 64;

/// One manifest entry: a segment file plus the directory metadata
/// that lets `select_chunks` prune it without opening a frame.
#[derive(Debug, Clone)]
struct SegmentMeta {
    name: String,
    chunks: u64,
    rows: u64,
    connections: u64,
    min_time: i64,
    max_time: i64,
    device_bits: Vec<u64>,
    footer_crc: u32,
    file_len: u64,
}

/// Segment names are generated (`seg-NNNNNN.seg`) but validated on
/// read so a hostile manifest cannot path-escape the store directory.
fn name_is_safe(name: &str) -> bool {
    !name.is_empty()
        && name != "."
        && name != ".."
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'.' || b == b'_')
}

/// The canonical file name of segment `index`.
fn segment_name(index: u64) -> String {
    format!("seg-{index:06}.seg")
}

/// Parses a canonical segment name back to its index (`None` for
/// foreign files).
fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

fn encode_manifest(entries: &[SegmentMeta], strings_len: u32, fps_len: u32) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&SEG_MAGIC);
    b.extend_from_slice(&SEG_VERSION.to_le_bytes());
    b.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        b.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
        b.extend_from_slice(e.name.as_bytes());
        b.extend_from_slice(&e.chunks.to_le_bytes());
        b.extend_from_slice(&e.rows.to_le_bytes());
        b.extend_from_slice(&e.connections.to_le_bytes());
        b.extend_from_slice(&e.min_time.to_le_bytes());
        b.extend_from_slice(&e.max_time.to_le_bytes());
        b.extend_from_slice(&(e.device_bits.len() as u32).to_le_bytes());
        put_le(&mut b, &e.device_bits);
        b.extend_from_slice(&e.footer_crc.to_le_bytes());
        b.extend_from_slice(&e.file_len.to_le_bytes());
    }
    b.extend_from_slice(&strings_len.to_le_bytes());
    b.extend_from_slice(&fps_len.to_le_bytes());
    let crc = crc32(&b);
    b.extend_from_slice(&crc.to_le_bytes());
    b
}

fn parse_manifest(bytes: &[u8]) -> Result<(Vec<SegmentMeta>, u32, u32), StoreError> {
    if bytes.len() < 4 {
        return Err(trunc("manifest", bytes.len() as u64));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let want = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != want {
        return Err(StoreError::ChecksumMismatch { chunk: None, path: String::new() });
    }
    let mut r = Reader::new(body, "manifest");
    if r.take(8)? != SEG_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u32()?;
    if version != SEG_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let count = r.u32()?;
    let mut entries = Vec::new();
    for _ in 0..count {
        let name_len = u16::from_le_bytes(r.take(2)?.try_into().unwrap()) as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| StoreError::Corrupt("manifest segment name is not UTF-8"))?
            .to_string();
        if !name_is_safe(&name) {
            return Err(StoreError::Corrupt("manifest segment name is not a safe file name"));
        }
        let chunks = r.u64()?;
        let rows = r.u64()?;
        let connections = r.u64()?;
        let min_time = r.i64()?;
        let max_time = r.i64()?;
        let words = r.u32()? as usize;
        let device_bits = r.u64s(words)?;
        let footer_crc = r.u32()?;
        let file_len = r.u64()?;
        entries.push(SegmentMeta {
            name,
            chunks,
            rows,
            connections,
            min_time,
            max_time,
            device_bits,
            footer_crc,
            file_len,
        });
    }
    let strings_len = r.u32()?;
    let fps_len = r.u32()?;
    r.done()?;
    Ok((entries, strings_len, fps_len))
}

/// True when `small`'s entries are exactly the first entries of
/// `big` — the invariant append-only interning maintains between an
/// earlier segment's tables and a later one's.
fn strings_are_prefix(small: &Interner, big: &Interner) -> bool {
    small.len() <= big.len() && small.iter().zip(big.iter()).all(|(a, b)| a == b)
}

fn fps_are_prefix(small: &DigestInterner, big: &DigestInterner) -> bool {
    small.len() <= big.len() && small.iter().zip(big.iter()).all(|(a, b)| a == b)
}

fn union_bits(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(from) {
        *a |= *b;
    }
}

// ── Reader ──────────────────────────────────────────────────────────

struct Segment {
    meta: SegmentMeta,
    store: ColumnarStore,
}

/// The buffers one [`SegmentedStore::scan`] reads frames into: a
/// chunk's columns, and the byte scratch its span columns and pool
/// tail pass through.
#[derive(Default)]
struct ScanBuf {
    chunk: ObsChunk,
    bytes: Vec<u8>,
}

/// A scan buffer checked out of a store's pool, put back when dropped
/// (whether the scan finished, failed, or unwound).
struct Lease<'a> {
    pool: &'a Mutex<Vec<ScanBuf>>,
    buf: ScanBuf,
}

// The pool's lock is held only for one `pop` or `push`, which leave the
// list whole at every step, so a poisoned lock still guards a usable
// pool and is recovered with `into_inner`.
impl<'a> Lease<'a> {
    fn new(pool: &'a Mutex<Vec<ScanBuf>>) -> Lease<'a> {
        let buf = pool.lock().unwrap_or_else(PoisonError::into_inner).pop();
        Lease { pool, buf: buf.unwrap_or_default() }
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        self.pool.lock().unwrap_or_else(PoisonError::into_inner).push(buf);
    }
}

/// An opened segmented store: the manifest and every listed segment's
/// footer resident, chunk frames read on demand. Chunks are numbered
/// globally in segment order, so analysis code shards over one flat
/// index space whatever the segment layout. `Sync`: readers share one
/// store across scoped worker threads, and [`scan`](Self::scan) lends
/// each of them read buffers from a pool the store keeps.
pub struct SegmentedStore {
    dir: PathBuf,
    segments: Vec<Segment>,
    /// Global chunk index at which each segment starts (cumulative).
    offsets: Vec<usize>,
    strings: Interner,
    fps: DigestInterner,
    flows: Vec<RevRow>,
    truncated: u64,
    total_rows: u64,
    total_connections: u64,
    orphans: usize,
    /// Scan buffers not lent out: as many as scans ever ran at once,
    /// dropped with the store.
    pool: Mutex<Vec<ScanBuf>>,
}

impl std::fmt::Debug for SegmentedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedStore")
            .field("dir", &self.dir)
            .field("segments", &self.segments.len())
            .field("chunks", &self.chunk_count())
            .field("total_rows", &self.total_rows)
            .field("orphans", &self.orphans)
            .finish()
    }
}

impl SegmentedStore {
    /// Opens the store directory at `dir`: reads and verifies the
    /// manifest, opens every listed segment (footer only; frames stay
    /// on disk), checks each segment against its manifest entry
    /// (length, footer CRC, chunk/row/connection counts), and checks
    /// the symbol-table prefix invariant. A manifest that names one
    /// segment twice is corrupt. Segment files on disk that no
    /// manifest entry names — the residue of a torn append — are
    /// ignored and counted in [`orphan_segments`](Self::orphan_segments).
    pub fn open(dir: &Path) -> Result<SegmentedStore, StoreError> {
        let manifest_path = dir.join(MANIFEST_NAME);
        let bytes = fs::read(&manifest_path)?;
        let (metas, strings_len, fps_len) =
            parse_manifest(&bytes).map_err(|e| e.with_path(&manifest_path))?;

        let mut segments = Vec::with_capacity(metas.len());
        let mut offsets = Vec::with_capacity(metas.len());
        let mut flows = Vec::new();
        let mut truncated = 0u64;
        let mut total_rows = 0u64;
        let mut total_connections = 0u64;
        let mut chunks = 0usize;
        for meta in metas {
            let path = dir.join(&meta.name);
            let actual_len = fs::metadata(&path).map(|m| m.len()).map_err(StoreError::Io)?;
            if actual_len < meta.file_len {
                return Err(trunc("segment file", actual_len).with_path(&path));
            }
            let store = ColumnarStore::open(&path)?;
            if store.footer_crc() != meta.footer_crc {
                return Err(StoreError::Corrupt("segment content does not match its manifest entry"));
            }
            if store.chunk_count() as u64 != meta.chunks
                || store.total_rows() != meta.rows
                || store.total_connections() != meta.connections
            {
                return Err(StoreError::Corrupt("segment tails do not match its manifest entry"));
            }
            offsets.push(chunks);
            chunks += store.chunk_count();
            total_rows += store.total_rows();
            total_connections += store.total_connections();
            truncated += store.truncated();
            flows.extend_from_slice(store.revocation_flows());
            segments.push(Segment { meta, store });
        }

        // The last batch's tables are authoritative; every earlier
        // segment's tables must be a prefix of them.
        let (strings, fps) = match segments.last() {
            Some(last) => (last.store.strings().clone(), last.store.fps().clone()),
            None => (Interner::new(), DigestInterner::new()),
        };
        if strings.len() != strings_len as usize || fps.len() != fps_len as usize {
            return Err(StoreError::Corrupt("manifest table sizes do not match the last segment"));
        }
        for seg in &segments {
            if !strings_are_prefix(seg.store.strings(), &strings)
                || !fps_are_prefix(seg.store.fps(), &fps)
            {
                return Err(StoreError::Corrupt(
                    "segment symbol tables are not a prefix of the store's",
                ));
            }
        }

        // Count (but otherwise ignore) segment-shaped files no
        // manifest entry names: clean recovery from a torn append.
        let named: std::collections::HashSet<&str> =
            segments.iter().map(|s| s.meta.name.as_str()).collect();
        if named.len() != segments.len() {
            return Err(StoreError::Corrupt("manifest names a segment twice"));
        }
        let mut orphans = 0usize;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if segment_index(name).is_some() && !named.contains(name) {
                    orphans += 1;
                }
            }
        }

        Ok(SegmentedStore {
            dir: dir.to_path_buf(),
            segments,
            offsets,
            strings,
            fps,
            flows,
            truncated,
            total_rows,
            total_connections,
            orphans,
            pool: Mutex::new(Vec::new()),
        })
    }

    /// The directory this store was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of segment files the manifest names.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Segment-shaped files on disk that the manifest does not name
    /// (residue of an interrupted append; harmless).
    pub fn orphan_segments(&self) -> usize {
        self.orphans
    }

    /// Total chunk frames across all segments.
    pub fn chunk_count(&self) -> usize {
        self.offsets.last().map_or(0, |&o| {
            o + self.segments.last().map_or(0, |s| s.store.chunk_count())
        })
    }

    /// Which segment global chunk `i` lives in: the last segment
    /// starting at or before `i`. Empty segments (a chunkless first
    /// batch, a flows-only batch) repeat their successor's offset, so
    /// "last" is what skips them.
    pub fn segment_of(&self, i: usize) -> usize {
        debug_assert!(i < self.chunk_count());
        self.offsets.partition_point(|&o| o <= i) - 1
    }

    /// Rows in global chunk `i` (directory metadata; no frame read).
    pub fn chunk_rows(&self, i: usize) -> usize {
        let seg = self.segment_of(i);
        self.segments[seg].store.chunk_rows(i - self.offsets[seg])
    }

    /// The store-wide (authoritative, last-batch) string table.
    pub fn strings(&self) -> &Interner {
        &self.strings
    }

    /// The store-wide fingerprint table.
    pub fn fps(&self) -> &DigestInterner {
        &self.fps
    }

    /// Revocation flows, concatenated in segment (= ingestion) order.
    pub fn revocation_flows(&self) -> &[RevRow] {
        &self.flows
    }

    /// Truncated-capture tally summed over all batches.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Total rows across the store (manifest tails; no frame reads).
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Total weighted connections across the store.
    pub fn total_connections(&self) -> u64 {
        self.total_connections
    }

    /// Global chunk indices overlapping `[from, to]` (and containing
    /// `device`, when given). Pruning is two-level: a segment whose
    /// manifest time range or device-bitmap union misses the
    /// predicate is skipped without consulting its directory, then
    /// surviving segments prune chunk-by-chunk off their footers.
    pub fn select_chunks(&self, from: i64, to: i64, device: Option<Symbol>) -> Vec<usize> {
        let mut out = Vec::new();
        for (idx, seg) in self.segments.iter().enumerate() {
            let m = &seg.meta;
            if !may_hold(m.min_time, m.max_time, &m.device_bits, from, to, device) {
                continue;
            }
            let base = self.offsets[idx];
            out.extend(
                seg.store
                    .select_chunks(from, to, device)
                    .into_iter()
                    .map(|i| base + i),
            );
        }
        out
    }

    /// Reads, CRC-checks, and validates global chunk `i` into a chunk
    /// of its own.
    pub fn read_chunk(&self, i: usize) -> Result<ObsChunk, StoreError> {
        self.read_chunk_with(i, &mut Vec::new())
    }

    /// [`read_chunk`](Self::read_chunk) with a caller-owned byte
    /// scratch for the span columns and the pool tail (grow-only,
    /// overwritten in place). The chunk's columns are allocated zeroed
    /// for each call, so no fill pass runs, but each call still pays
    /// the allocation; [`scan`](Self::scan) reuses them.
    pub fn read_chunk_with(&self, i: usize, scratch: &mut Vec<u8>) -> Result<ObsChunk, StoreError> {
        if i >= self.chunk_count() {
            return Err(StoreError::Corrupt("chunk index out of range"));
        }
        let mut chunk = ObsChunk::zeroed(self.chunk_rows(i));
        self.read_into(i, &mut chunk, scratch)?;
        Ok(chunk)
    }

    /// Reads each of `chunks` (global indices, in the order given)
    /// into one buffer and calls `f` with it, stopping at the first
    /// frame that fails to read. The buffer comes from a pool the
    /// store keeps and goes back to it when the scan ends, however it
    /// ends: scans that follow one another reuse the same column
    /// buffers, so once they have grown to the largest frame a frame
    /// read allocates nothing. Scans running at the same time each get
    /// a buffer of their own, so the pool holds at most one per
    /// concurrent scan.
    pub fn scan(
        &self,
        chunks: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(&ObsChunk),
    ) -> Result<(), StoreError> {
        let mut lease = Lease::new(&self.pool);
        let ScanBuf { chunk, bytes } = &mut lease.buf;
        for i in chunks {
            self.read_into(i, chunk, bytes)?;
            f(chunk);
        }
        Ok(())
    }

    /// Reads global chunk `i` into `chunk` through `scratch`.
    fn read_into(
        &self,
        i: usize,
        chunk: &mut ObsChunk,
        scratch: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        if i >= self.chunk_count() {
            return Err(StoreError::Corrupt("chunk index out of range"));
        }
        let seg = self.segment_of(i);
        self.segments[seg].store.read_into(i - self.offsets[seg], chunk, scratch)
    }

    /// Frame payload bytes fetched from segment `i` since open — the
    /// per-segment read-counting witness that a pruned slice never
    /// touches skipped segments.
    pub fn segment_bytes_read(&self, i: usize) -> u64 {
        self.segments[i].store.frame_bytes_read()
    }

    /// Frame payload bytes fetched across all segments since open.
    pub fn frame_bytes_read(&self) -> u64 {
        self.segments.iter().map(|s| s.store.frame_bytes_read()).sum()
    }

    /// Frame payload bytes the whole store holds.
    pub fn frame_bytes_total(&self) -> u64 {
        self.segments.iter().map(|s| s.store.frame_bytes_total()).sum()
    }

    /// Materializes the whole store as one in-memory dataset.
    pub fn to_dataset(&self) -> Result<ColumnarDataset, StoreError> {
        let mut scratch = Vec::new();
        let chunks = (0..self.chunk_count())
            .map(|i| self.read_chunk_with(i, &mut scratch))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ColumnarDataset {
            strings: self.strings.clone(),
            fps: self.fps.clone(),
            chunks,
            revocation_flows: self.flows.clone(),
            truncated: self.truncated,
        })
    }
}

// ── Writer ──────────────────────────────────────────────────────────

/// A segment file being filled: its [`StoreWriter`] stays open until
/// the batch finishes (footers carry the batch's final tables, which
/// are only known then), while the directory metadata accumulates.
struct PendingSegment {
    name: String,
    writer: StoreWriter,
    chunks: u64,
    rows: u64,
    connections: u64,
    min_time: i64,
    max_time: i64,
    device_bits: Vec<u64>,
}

/// Builds or extends a segmented store. One writer = one **batch**
/// (a capture day, an epoch, …): chunks stream in via
/// [`add_chunk`](Self::add_chunk) (or whole datasets via
/// [`append_columnar`](Self::append_columnar)), roll into new segment
/// files every [`DEFAULT_SEGMENT_CHUNKS`] chunks, and the batch is
/// published atomically by [`finish`](Self::finish) /
/// [`finish_batch`](Self::finish_batch). Nothing the batch wrote is
/// visible to readers until the manifest rename; a crash before it
/// leaves only ignorable orphan files.
pub struct SegmentedWriter {
    dir: PathBuf,
    sealed: Vec<SegmentMeta>,
    strings: Interner,
    fps: DigestInterner,
    published_strings: usize,
    published_fps: usize,
    open: Option<PendingSegment>,
    done: Vec<PendingSegment>,
    chunk_limit: usize,
    next_index: u64,
    pending_flows: Vec<RevRow>,
    pending_truncated: u64,
}

impl std::fmt::Debug for SegmentedWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedWriter")
            .field("dir", &self.dir)
            .field("sealed", &self.sealed.len())
            .field("pending", &(self.done.len() + usize::from(self.open.is_some())))
            .finish()
    }
}

impl SegmentedWriter {
    /// Starts a fresh store at `dir` (creating the directory). Any
    /// existing manifest is removed first, so a crash mid-build
    /// leaves an unreadable store rather than a stale one.
    pub fn create(dir: &Path) -> io::Result<SegmentedWriter> {
        fs::create_dir_all(dir)?;
        let manifest = dir.join(MANIFEST_NAME);
        if manifest.exists() {
            fs::remove_file(&manifest)?;
        }
        Ok(SegmentedWriter {
            dir: dir.to_path_buf(),
            sealed: Vec::new(),
            strings: Interner::new(),
            fps: DigestInterner::new(),
            published_strings: 0,
            published_fps: 0,
            open: None,
            done: Vec::new(),
            chunk_limit: DEFAULT_SEGMENT_CHUNKS,
            next_index: 0,
            pending_flows: Vec::new(),
            pending_truncated: 0,
        })
    }

    /// Reopens the store at `dir` to extend it with a new batch:
    /// the existing manifest is read (and fully verified, as in
    /// [`SegmentedStore::open`]), the global symbol tables are
    /// seeded from it so new chunks intern against the existing
    /// symbols, and new segments number past every file already on
    /// disk (orphans included — they are never overwritten).
    pub fn append(dir: &Path) -> Result<SegmentedWriter, StoreError> {
        let store = SegmentedStore::open(dir)?;
        let mut next_index = 0u64;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(idx) = entry.file_name().to_str().and_then(segment_index) {
                next_index = next_index.max(idx + 1);
            }
        }
        Ok(SegmentedWriter {
            dir: dir.to_path_buf(),
            sealed: store.segments.iter().map(|s| s.meta.clone()).collect(),
            published_strings: store.strings.len(),
            published_fps: store.fps.len(),
            strings: store.strings,
            fps: store.fps,
            open: None,
            done: Vec::new(),
            chunk_limit: DEFAULT_SEGMENT_CHUNKS,
            next_index,
            pending_flows: Vec::new(),
            pending_truncated: 0,
        })
    }

    /// Overrides the segment roll size (chunks per segment file).
    pub fn with_chunk_limit(mut self, chunks: usize) -> SegmentedWriter {
        self.chunk_limit = chunks.max(1);
        self
    }

    /// The global string table as grown so far (seeded from the
    /// store on [`append`](Self::append), extended by
    /// [`append_columnar`](Self::append_columnar)).
    pub fn strings(&self) -> &Interner {
        &self.strings
    }

    /// The global fingerprint table as grown so far.
    pub fn fps(&self) -> &DigestInterner {
        &self.fps
    }

    fn open_segment(&mut self) -> io::Result<&mut PendingSegment> {
        if self.open.is_none() {
            let name = segment_name(self.next_index);
            self.next_index += 1;
            let writer = StoreWriter::create(&self.dir.join(&name))?;
            self.open = Some(PendingSegment {
                name,
                writer,
                chunks: 0,
                rows: 0,
                connections: 0,
                min_time: i64::MAX,
                max_time: i64::MIN,
                device_bits: Vec::new(),
            });
        }
        Ok(self.open.as_mut().expect("segment just opened"))
    }

    /// Appends one sealed chunk (already symbolized against the
    /// global tables — the streaming-generator path). Empty chunks
    /// are skipped. Rolls to a new segment file at the chunk limit.
    pub fn add_chunk(&mut self, chunk: &ObsChunk) -> io::Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let limit = self.chunk_limit as u64;
        let seg = self.open_segment()?;
        seg.writer.add_chunk(chunk)?;
        seg.chunks += 1;
        seg.rows += chunk.len() as u64;
        seg.connections += chunk.connections();
        seg.min_time = seg.min_time.min(chunk.min_time());
        seg.max_time = seg.max_time.max(chunk.max_time());
        union_bits(&mut seg.device_bits, &chunk.device_bits);
        if seg.chunks >= limit {
            self.seal_segment();
        }
        Ok(())
    }

    /// Forces the currently filling segment to roll, so the next
    /// chunk starts a new file — callers use it to align segment
    /// boundaries with ingestion epochs.
    pub fn seal_segment(&mut self) {
        if let Some(seg) = self.open.take() {
            self.done.push(seg);
        }
    }

    /// Appends a whole in-memory dataset, **remapping** its symbols
    /// into the store's global tables (so datasets built with
    /// independent interners — different capture days, different
    /// tools — merge losslessly) and shifting every observation and
    /// flow time by `time_offset` seconds. The dataset's flows and
    /// truncated tally ride along as this batch's deltas.
    pub fn append_columnar(&mut self, ds: &ColumnarDataset, time_offset: i64) -> io::Result<()> {
        let smap: Vec<u32> = ds.strings.iter().map(|s| self.strings.intern(s).0).collect();
        let fmap: Vec<u32> = ds.fps.iter().map(|fp| self.fps.intern(fp)).collect();
        for chunk in &ds.chunks {
            if chunk.is_empty() {
                continue;
            }
            let mut c = chunk.shifted(time_offset);
            for v in &mut c.device {
                *v = smap[*v as usize];
            }
            for v in &mut c.destination {
                *v = smap[*v as usize];
            }
            for v in &mut c.sni {
                if *v != NO_SYM {
                    *v = smap[*v as usize];
                }
            }
            for v in &mut c.leaf_issuer {
                if *v != NO_SYM {
                    *v = smap[*v as usize];
                }
            }
            for v in &mut c.fingerprint {
                *v = fmap[*v as usize];
            }
            // Rebuild the pruning bitmap under the new numbering.
            c.device_bits.clear();
            for &d in &c.device {
                let (word, bit) = (d as usize / 64, d as usize % 64);
                if c.device_bits.len() <= word {
                    c.device_bits.resize(word + 1, 0);
                }
                c.device_bits[word] |= 1u64 << bit;
            }
            self.add_chunk(&c)?;
        }
        for f in &ds.revocation_flows {
            self.pending_flows.push(RevRow {
                time: f.time + time_offset,
                device: Symbol(smap[f.device.index()]),
                kind: f.kind,
                url: Symbol(smap[f.url.index()]),
                count: f.count,
            });
        }
        self.pending_truncated += ds.truncated;
        Ok(())
    }

    /// Publishes the batch with explicitly supplied final tables and
    /// tail deltas (the streaming-generator path): `strings`/`fps`
    /// must extend the tables the writer was seeded with,
    /// `flows`/`truncated` are this batch's additions. Atomic: the new
    /// manifest is written to a temporary file and renamed over the
    /// old one.
    pub fn finish(
        self,
        strings: &Interner,
        fps: &DigestInterner,
        flows: &[RevRow],
        truncated: u64,
    ) -> Result<(), StoreError> {
        self.finish_impl(strings, fps, flows, truncated)
    }

    /// Publishes the batch using the tables the writer grew
    /// internally (the [`append_columnar`](Self::append_columnar)
    /// path, where remapping already interned every symbol).
    pub fn finish_batch(self) -> Result<(), StoreError> {
        let strings = self.strings.clone();
        let fps = self.fps.clone();
        self.finish_impl(&strings, &fps, &[], 0)
    }

    fn finish_impl(
        mut self,
        strings: &Interner,
        fps: &DigestInterner,
        extra_flows: &[RevRow],
        extra_truncated: u64,
    ) -> Result<(), StoreError> {
        if !strings_are_prefix(&self.strings, strings) || !fps_are_prefix(&self.fps, fps) {
            return Err(StoreError::Corrupt("finish tables must extend the store's symbol tables"));
        }
        let mut flows = std::mem::take(&mut self.pending_flows);
        flows.extend_from_slice(extra_flows);
        for f in &flows {
            if f.device.index() >= strings.len() || f.url.index() >= strings.len() {
                return Err(StoreError::Corrupt("flow symbol outside string table"));
            }
        }
        let truncated = self.pending_truncated + extra_truncated;

        self.seal_segment();
        // A batch with no chunks still needs one (empty) segment when
        // it must record tails or table growth — or when the store
        // would otherwise have no segment to carry its tables at all.
        if self.done.is_empty()
            && (self.sealed.is_empty()
                || !flows.is_empty()
                || truncated > 0
                || strings.len() != self.published_strings
                || fps.len() != self.published_fps)
        {
            self.open_segment()?;
            self.seal_segment();
        }

        // Seal every batch segment: full final tables in each footer,
        // the batch's flow/truncated deltas on the last one.
        let done = std::mem::take(&mut self.done);
        let n = done.len();
        for (i, seg) in done.into_iter().enumerate() {
            let last = i + 1 == n;
            let (seg_flows, seg_trunc): (&[RevRow], u64) =
                if last { (&flows, truncated) } else { (&[], 0) };
            let summary = seg.writer.finish(strings, fps, seg_flows, seg_trunc)?;
            self.sealed.push(SegmentMeta {
                name: seg.name,
                chunks: seg.chunks,
                rows: seg.rows,
                connections: seg.connections,
                min_time: seg.min_time,
                max_time: seg.max_time,
                device_bits: seg.device_bits,
                footer_crc: summary.footer_crc,
                file_len: summary.file_len,
            });
        }

        // Atomic publish: readers see the old manifest until the
        // rename, and the rename is all-or-nothing.
        let body = encode_manifest(&self.sealed, strings.len() as u32, fps.len() as u32);
        let tmp = self.dir.join("MANIFEST.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&body)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(MANIFEST_NAME))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{ChunkWriter, RowView};
    use iotls_tls::fingerprint::FingerprintId;
    use std::sync::Barrier;

    /// A one-segment store of `sizes.len()` chunks of `sizes[i]` rows
    /// each, in a per-process scratch directory.
    fn pool_store(name: &str, sizes: &[usize]) -> SegmentedStore {
        let dir = std::env::temp_dir()
            .join(format!("iotls-segstore-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut strings = Interner::new();
        let device = strings.intern("Cam A");
        let destination = strings.intern("cloud.example");
        let mut fps = DigestInterner::new();
        fps.intern(FingerprintId([1; 16]));
        let mut w = SegmentedWriter::create(&dir).expect("create store");
        for (c, &rows) in sizes.iter().enumerate() {
            let mut cw = ChunkWriter::new();
            for r in 0..rows {
                cw.push(&RowView {
                    time: (c * 1000 + r) as i64,
                    device,
                    destination,
                    sni: None,
                    fingerprint: 0,
                    advertised_wire: &[0x0303],
                    max_advertised_wire: 0x0303,
                    suites: &[0xc02f, 0x002f][..1 + r % 2],
                    negotiated_version_wire: Some(0x0303),
                    negotiated_suite: Some(0xc02f),
                    leaf_issuer: None,
                    alerts_c2s: &[42][..r % 2],
                    alerts_s2c: &[],
                    requested_ocsp: false,
                    ocsp_stapled: false,
                    established: true,
                    count: 1,
                });
            }
            w.add_chunk(&cw.take()).expect("write chunk");
        }
        w.finish(&strings, &fps, &[], 0).expect("publish store");
        SegmentedStore::open(&dir).expect("open store")
    }

    /// Where the column buffers of `c` live, and how much each holds.
    fn buffers(c: &ObsChunk) -> [(usize, usize); 5] {
        [
            (c.time.as_ptr() as usize, c.time.capacity()),
            (c.device.as_ptr() as usize, c.device.capacity()),
            (c.count.as_ptr() as usize, c.count.capacity()),
            (c.suites.as_ptr() as usize, c.suites.capacity()),
            (c.alerts_c2s.as_ptr() as usize, c.alerts_c2s.capacity()),
        ]
    }

    #[test]
    fn scans_in_a_row_reuse_one_buffer() {
        let store = pool_store("reuse", &[40, 64, 7]);
        let mut first = Vec::new();
        store.scan(0..3, |c| first.push(buffers(c))).expect("first scan");
        let grown = *first.last().unwrap();
        let mut second = Vec::new();
        store.scan(0..3, |c| second.push(buffers(c))).expect("second scan");
        // Once grown to the largest frame, the buffers neither move nor
        // grow again, whatever order the frames come in.
        store.scan([1, 2, 0, 1], |c| second.push(buffers(c))).expect("third scan");
        assert!(second.iter().all(|b| *b == grown), "{first:?} then {second:?}");
        assert_eq!(store.pool.lock().unwrap().len(), 1);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn concurrent_scans_get_their_own_buffers() {
        let store = pool_store("concurrent", &[16, 16]);
        let both_out = Barrier::new(2);
        let [a, b] = std::thread::scope(|s| {
            let scan = |i: usize| {
                let (store, both_out) = (&store, &both_out);
                s.spawn(move || {
                    let mut seen = None;
                    store
                        .scan([i], |c| {
                            // Both scans hold their buffer here at once.
                            both_out.wait();
                            seen = Some(buffers(c)[0]);
                        })
                        .expect("scan");
                    seen.expect("one chunk scanned")
                })
            };
            [scan(0), scan(1)].map(|h| h.join().expect("scan thread"))
        });
        assert_ne!(a.0, b.0, "two concurrent scans shared a buffer");
        assert_eq!(store.pool.lock().unwrap().len(), 2);
        // A later scan takes one of the two back out.
        let mut seen = Vec::new();
        store.scan([0], |c| seen.push(buffers(c)[0])).expect("scan");
        assert!(seen[0] == a || seen[0] == b);
        assert_eq!(store.pool.lock().unwrap().len(), 2);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn a_failed_scan_leaves_the_pool_usable() {
        let store = pool_store("failed", &[32, 32]);
        let mut before = Vec::new();
        store.scan(0..2, |c| before.push(buffers(c))).expect("clean scan");

        // Flip a byte inside chunk 1's frame under the open store.
        let seg = store.dir().join(segment_name(0));
        let clean = fs::read(&seg).expect("read segment");
        let mut bad = clean.clone();
        let frame1 = 20 + usize::try_from(store.segments[0].store.frame_bytes_total()).unwrap() / 2;
        bad[frame1 + 5] ^= 0x40;
        fs::write(&seg, &bad).expect("corrupt segment");
        let mut rows = 0;
        let err = store.scan(0..2, |c| rows += c.len()).expect_err("chunk 1 is corrupt");
        assert!(matches!(err, StoreError::ChecksumMismatch { chunk: Some(1), .. }), "{err}");
        assert_eq!(rows, 32, "chunk 0 was handed over before chunk 1 failed");
        assert_eq!(store.pool.lock().unwrap().len(), 1, "the failed scan returned its buffer");

        // The pool still lends the same buffer, and it reads clean data.
        fs::write(&seg, &clean).expect("restore segment");
        let mut after = Vec::new();
        store.scan(0..2, |c| after.push(buffers(c))).expect("scan after the failure");
        assert_eq!(after, before);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn manifest_roundtrips() {
        let entries = vec![SegmentMeta {
            name: segment_name(0),
            chunks: 3,
            rows: 1000,
            connections: 2000,
            min_time: 100,
            max_time: 200,
            device_bits: vec![0b1011],
            footer_crc: 0xDEAD_BEEF,
            file_len: 4096,
        }];
        let bytes = encode_manifest(&entries, 7, 2);
        let (back, strings_len, fps_len) = parse_manifest(&bytes).expect("parse");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].name, "seg-000000.seg");
        assert_eq!(back[0].rows, 1000);
        assert_eq!(back[0].device_bits, vec![0b1011]);
        assert_eq!(back[0].footer_crc, 0xDEAD_BEEF);
        assert_eq!((strings_len, fps_len), (7, 2));
    }

    #[test]
    fn hostile_segment_names_are_rejected() {
        assert!(name_is_safe("seg-000001.seg"));
        assert!(!name_is_safe(""));
        assert!(!name_is_safe(".."));
        assert!(!name_is_safe("../../etc/passwd"));
        assert!(!name_is_safe("a/b"));
        assert!(!name_is_safe("a\\b"));
    }

    #[test]
    fn segment_names_roundtrip_through_their_index() {
        for idx in [0u64, 1, 42, 999_999, 1_000_000] {
            assert_eq!(segment_index(&segment_name(idx)), Some(idx));
        }
        assert_eq!(segment_index("MANIFEST"), None);
        assert_eq!(segment_index("seg-.seg"), None);
        assert_eq!(segment_index("seg-12"), None);
    }
}

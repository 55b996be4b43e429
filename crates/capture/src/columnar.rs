//! Chunked struct-of-arrays storage for the passive dataset, its only
//! in-memory form.
//!
//! A row of owned `String`s per observation would cost gigabytes of
//! duplicated hostnames at the paper's ≥10M-connection scale. This
//! module stores the capture as ~64k-row columnar chunks over shared
//! intern tables:
//!
//! * fixed-width columns (times, symbols, wire code points, flags,
//!   counts) — one `Vec` per field, ~65 bytes per row;
//! * variable-length fields (offered suites, advertised versions,
//!   alert lists) live in per-chunk pools, deduplicated so the
//!   handful of distinct ClientHello shapes is stored once per chunk;
//! * per-chunk pruning metadata: min/max observation time and a
//!   device bitmap, letting per-device or per-window scans skip
//!   whole chunks without touching a row.
//!
//! Rows go in through [`DatasetBuilder::push_obs`] and come back out,
//! losslessly, through [`ObsRef::observation`]; the JSON export
//! ([`crate::serialize`]) reads the columns directly.

use crate::dataset::{RevocationFlow, RevocationKind};
use crate::intern::{DigestInterner, Interner, Symbol};
use iotls_simnet::TlsObservation;
use iotls_tls::alert::AlertDescription;
use iotls_tls::version::ProtocolVersion;
use iotls_x509::Timestamp;
use std::collections::HashMap;

/// Target rows per sealed chunk.
pub const CHUNK_ROWS: usize = 65_536;

/// Sentinel for "absent" in optional symbol columns.
const NO_SYM: u32 = u32::MAX;

/// Counters for the columnar pipeline: rows written, chunks sealed,
/// and pool-dedup effectiveness. Plain data so per-lane partials merge
/// in roster order;
/// [`export`](Self::export) folds them into a metrics registry under
/// `capture.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnarStats {
    /// Rows appended across all chunks.
    pub rows_written: u64,
    /// Chunks sealed (taken out of the writer).
    pub chunks_sealed: u64,
    /// Variable-length u16 spans served from the dedup pool.
    pub pool_u16_hits: u64,
    /// Variable-length u16 spans newly appended to the pool.
    pub pool_u16_appends: u64,
    /// Variable-length u8 spans served from the dedup pool.
    pub pool_u8_hits: u64,
    /// Variable-length u8 spans newly appended to the pool.
    pub pool_u8_appends: u64,
}

impl ColumnarStats {
    /// Field-wise accumulation (for aggregating across lanes).
    pub fn merge(&mut self, other: &ColumnarStats) {
        self.rows_written += other.rows_written;
        self.chunks_sealed += other.chunks_sealed;
        self.pool_u16_hits += other.pool_u16_hits;
        self.pool_u16_appends += other.pool_u16_appends;
        self.pool_u8_hits += other.pool_u8_hits;
        self.pool_u8_appends += other.pool_u8_appends;
    }

    /// Folds the counters into a metrics registry under `<prefix>.*`
    /// (e.g. `capture.lane` for per-lane builders, `capture.merge`
    /// for the sequential merge builder). Zero counters are omitted.
    pub fn export(&self, reg: &mut iotls_obs::Registry, prefix: &str) {
        reg.add(&format!("{prefix}.rows.written"), self.rows_written);
        reg.add(&format!("{prefix}.chunks.sealed"), self.chunks_sealed);
        reg.add(&format!("{prefix}.pool.u16.dedup_hits"), self.pool_u16_hits);
        reg.add(&format!("{prefix}.pool.u16.appends"), self.pool_u16_appends);
        reg.add(&format!("{prefix}.pool.u8.dedup_hits"), self.pool_u8_hits);
        reg.add(&format!("{prefix}.pool.u8.appends"), self.pool_u8_appends);
    }
}

/// Bits of the `flags` column (see [`Columns`]).
pub mod flag {
    /// The ClientHello requested an OCSP staple.
    pub const REQUESTED_OCSP: u8 = 1;
    /// The server stapled an OCSP response.
    pub const OCSP_STAPLED: u8 = 2;
    /// The connection reached application data.
    pub const ESTABLISHED: u8 = 4;
    /// The `neg_suite` column holds a negotiated suite (without this
    /// bit its value means nothing).
    pub const HAS_NEG_SUITE: u8 = 8;
}

/// Read-only column slices of one chunk, for scans that work a column
/// at a time instead of a row at a time. All of them, so which columns
/// a scan reads stays the scanning code's decision. Every column holds
/// one entry per row. Optional symbol columns (`sni`, `leaf_issuer`)
/// hold `u32::MAX` for "absent", `neg_version` holds 0 for "no
/// ServerHello", and the span columns are `(offset, len)` into
/// `pool_u16` (versions, suites) or `pool_u8` (alerts).
#[derive(Debug, Clone, Copy)]
pub struct Columns<'a> {
    /// Observation times (unix seconds).
    pub time: &'a [i64],
    /// Device name symbols.
    pub device: &'a [u32],
    /// Destination hostname symbols.
    pub destination: &'a [u32],
    /// SNI hostname symbols.
    pub sni: &'a [u32],
    /// Fingerprint digest indices.
    pub fingerprint: &'a [u32],
    /// Advertised-version spans into `pool_u16`.
    pub adv_versions: &'a [(u32, u16)],
    /// Maximum advertised version wire values.
    pub max_adv: &'a [u16],
    /// Offered-suite spans into `pool_u16`.
    pub suites: &'a [(u32, u16)],
    /// Negotiated version wire values.
    pub neg_version: &'a [u16],
    /// Negotiated suites (meaningful under [`flag::HAS_NEG_SUITE`]).
    pub neg_suite: &'a [u16],
    /// Leaf issuer CN symbols.
    pub leaf_issuer: &'a [u32],
    /// Client→server alert spans into `pool_u8`.
    pub alerts_c2s: &'a [(u32, u16)],
    /// Server→client alert spans into `pool_u8`.
    pub alerts_s2c: &'a [(u32, u16)],
    /// [`flag`] bits.
    pub flags: &'a [u8],
    /// Connections per row.
    pub count: &'a [u64],
    /// The chunk's u16 pool.
    pub pool_u16: &'a [u16],
    /// The chunk's u8 pool.
    pub pool_u8: &'a [u8],
}

/// One columnar chunk of observations. Symbol columns index the
/// owning dataset's intern tables; variable-length columns are
/// `(offset, len)` spans into the chunk's local pools.
///
/// Fields are `pub(crate)` so [`crate::store`] can serialize the
/// columns verbatim; outside the crate only the row/metadata API is
/// visible.
#[derive(Debug, Clone)]
pub struct ObsChunk {
    pub(crate) time: Vec<i64>,
    pub(crate) device: Vec<u32>,
    pub(crate) destination: Vec<u32>,
    pub(crate) sni: Vec<u32>,
    pub(crate) fingerprint: Vec<u32>,
    pub(crate) adv_versions: Vec<(u32, u16)>,
    pub(crate) max_adv: Vec<u16>,
    pub(crate) suites: Vec<(u32, u16)>,
    pub(crate) neg_version: Vec<u16>,
    pub(crate) neg_suite: Vec<u16>,
    pub(crate) leaf_issuer: Vec<u32>,
    pub(crate) alerts_c2s: Vec<(u32, u16)>,
    pub(crate) alerts_s2c: Vec<(u32, u16)>,
    pub(crate) flags: Vec<u8>,
    pub(crate) count: Vec<u64>,
    pub(crate) pool_u16: Vec<u16>,
    pub(crate) pool_u8: Vec<u8>,
    pub(crate) min_time: i64,
    pub(crate) max_time: i64,
    pub(crate) device_bits: Vec<u64>,
}

impl Default for ObsChunk {
    fn default() -> Self {
        ObsChunk {
            time: Vec::new(),
            device: Vec::new(),
            destination: Vec::new(),
            sni: Vec::new(),
            fingerprint: Vec::new(),
            adv_versions: Vec::new(),
            max_adv: Vec::new(),
            suites: Vec::new(),
            neg_version: Vec::new(),
            neg_suite: Vec::new(),
            leaf_issuer: Vec::new(),
            alerts_c2s: Vec::new(),
            alerts_s2c: Vec::new(),
            flags: Vec::new(),
            count: Vec::new(),
            pool_u16: Vec::new(),
            pool_u8: Vec::new(),
            min_time: i64::MAX,
            max_time: i64::MIN,
            device_bits: Vec::new(),
        }
    }
}

impl ObsChunk {
    /// A chunk whose fixed-width columns hold `rows` zeroes, allocated
    /// zeroed (so no fill pass runs), with room for `rows` spans and
    /// empty pools: a fresh buffer for one frame read to fill in place.
    pub(crate) fn zeroed(rows: usize) -> ObsChunk {
        ObsChunk {
            time: vec![0; rows],
            device: vec![0; rows],
            destination: vec![0; rows],
            sni: vec![0; rows],
            fingerprint: vec![0; rows],
            adv_versions: Vec::with_capacity(rows),
            max_adv: vec![0; rows],
            suites: Vec::with_capacity(rows),
            neg_version: vec![0; rows],
            neg_suite: vec![0; rows],
            leaf_issuer: vec![0; rows],
            alerts_c2s: Vec::with_capacity(rows),
            alerts_s2c: Vec::with_capacity(rows),
            flags: vec![0; rows],
            count: vec![0; rows],
            ..ObsChunk::default()
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Earliest observation time (pruning metadata).
    pub fn min_time(&self) -> i64 {
        self.min_time
    }

    /// Latest observation time (pruning metadata).
    pub fn max_time(&self) -> i64 {
        self.max_time
    }

    /// True when the chunk holds at least one row for `device`
    /// (bitmap test; no row is touched).
    pub fn has_device(&self, device: Symbol) -> bool {
        let (word, bit) = (device.index() / 64, device.index() % 64);
        self.device_bits
            .get(word)
            .is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// True when [min, max] observation time intersects `[from, to]`.
    pub fn overlaps(&self, from: i64, to: i64) -> bool {
        !self.is_empty() && self.min_time <= to && self.max_time >= from
    }

    /// Total connections this chunk's rows represent.
    pub fn connections(&self) -> u64 {
        self.count.iter().sum()
    }

    /// A copy of this chunk with every observation time shifted by
    /// `dt` seconds (pruning metadata included). This is how a
    /// replayed capture epoch is laid down as a later acquisition
    /// period when building a multi-year segmented corpus.
    pub fn shifted(&self, dt: i64) -> ObsChunk {
        let mut c = self.clone();
        for t in &mut c.time {
            *t += dt;
        }
        if !c.is_empty() {
            c.min_time += dt;
            c.max_time += dt;
        }
        c
    }

    /// Every column as a read-only slice.
    pub fn columns(&self) -> Columns<'_> {
        Columns {
            time: &self.time,
            device: &self.device,
            destination: &self.destination,
            sni: &self.sni,
            fingerprint: &self.fingerprint,
            adv_versions: &self.adv_versions,
            max_adv: &self.max_adv,
            suites: &self.suites,
            neg_version: &self.neg_version,
            neg_suite: &self.neg_suite,
            leaf_issuer: &self.leaf_issuer,
            alerts_c2s: &self.alerts_c2s,
            alerts_s2c: &self.alerts_s2c,
            flags: &self.flags,
            count: &self.count,
            pool_u16: &self.pool_u16,
            pool_u8: &self.pool_u8,
        }
    }

    /// Symbol-level view of row `i`.
    pub fn row(&self, i: usize) -> RawRow<'_> {
        debug_assert!(i < self.len());
        RawRow { chunk: self, i }
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = RawRow<'_>> {
        (0..self.len()).map(move |i| self.row(i))
    }

    fn span_u16(&self, (off, len): (u32, u16)) -> &[u16] {
        &self.pool_u16[off as usize..off as usize + len as usize]
    }

    fn span_u8(&self, (off, len): (u32, u16)) -> &[u8] {
        &self.pool_u8[off as usize..off as usize + len as usize]
    }
}

/// A borrowed, symbol-level view of one chunk row.
#[derive(Clone, Copy)]
pub struct RawRow<'a> {
    chunk: &'a ObsChunk,
    i: usize,
}

impl<'a> RawRow<'a> {
    /// Observation time (unix seconds).
    pub fn time(self) -> i64 {
        self.chunk.time[self.i]
    }

    /// Device name symbol.
    pub fn device(self) -> Symbol {
        Symbol(self.chunk.device[self.i])
    }

    /// Destination hostname symbol.
    pub fn destination(self) -> Symbol {
        Symbol(self.chunk.destination[self.i])
    }

    /// SNI hostname symbol, when one was sent.
    pub fn sni(self) -> Option<Symbol> {
        match self.chunk.sni[self.i] {
            NO_SYM => None,
            s => Some(Symbol(s)),
        }
    }

    /// Fingerprint digest index (into the dataset's digest table).
    pub fn fingerprint_id(self) -> u32 {
        self.chunk.fingerprint[self.i]
    }

    /// Advertised protocol versions (wire values, in order).
    pub fn advertised_wire(self) -> &'a [u16] {
        self.chunk.span_u16(self.chunk.adv_versions[self.i])
    }

    /// Maximum advertised version (wire value).
    pub fn max_advertised_wire(self) -> u16 {
        self.chunk.max_adv[self.i]
    }

    /// Offered ciphersuites, in order.
    pub fn suites(self) -> &'a [u16] {
        self.chunk.span_u16(self.chunk.suites[self.i])
    }

    /// Negotiated version wire value, when a ServerHello arrived.
    pub fn negotiated_version_wire(self) -> Option<u16> {
        match self.chunk.neg_version[self.i] {
            0 => None,
            v => Some(v),
        }
    }

    /// Negotiated suite, when a ServerHello arrived.
    pub fn negotiated_suite(self) -> Option<u16> {
        if self.chunk.flags[self.i] & flag::HAS_NEG_SUITE != 0 {
            Some(self.chunk.neg_suite[self.i])
        } else {
            None
        }
    }

    /// Leaf issuer CN symbol, when a certificate crossed the wire.
    pub fn leaf_issuer(self) -> Option<Symbol> {
        match self.chunk.leaf_issuer[self.i] {
            NO_SYM => None,
            s => Some(Symbol(s)),
        }
    }

    /// Alert codes seen client→server.
    pub fn alerts_c2s(self) -> &'a [u8] {
        self.chunk.span_u8(self.chunk.alerts_c2s[self.i])
    }

    /// Alert codes seen server→client.
    pub fn alerts_s2c(self) -> &'a [u8] {
        self.chunk.span_u8(self.chunk.alerts_s2c[self.i])
    }

    /// Whether the ClientHello requested an OCSP staple.
    pub fn requested_ocsp(self) -> bool {
        self.chunk.flags[self.i] & flag::REQUESTED_OCSP != 0
    }

    /// Whether the server stapled an OCSP response.
    pub fn ocsp_stapled(self) -> bool {
        self.chunk.flags[self.i] & flag::OCSP_STAPLED != 0
    }

    /// Whether the connection reached application data.
    pub fn established(self) -> bool {
        self.chunk.flags[self.i] & flag::ESTABLISHED != 0
    }

    /// Connections this row represents.
    pub fn count(self) -> u64 {
        self.chunk.count[self.i]
    }
}

/// Borrowed input for one row push. Symbols must come from the
/// destination dataset's intern tables.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    /// Observation time (unix seconds).
    pub time: i64,
    /// Device name symbol.
    pub device: Symbol,
    /// Destination hostname symbol.
    pub destination: Symbol,
    /// SNI symbol, when sent.
    pub sni: Option<Symbol>,
    /// Fingerprint digest index.
    pub fingerprint: u32,
    /// Advertised versions (wire values).
    pub advertised_wire: &'a [u16],
    /// Maximum advertised version (wire value).
    pub max_advertised_wire: u16,
    /// Offered ciphersuites.
    pub suites: &'a [u16],
    /// Negotiated version wire value.
    pub negotiated_version_wire: Option<u16>,
    /// Negotiated suite.
    pub negotiated_suite: Option<u16>,
    /// Leaf issuer CN symbol.
    pub leaf_issuer: Option<Symbol>,
    /// Alert codes client→server.
    pub alerts_c2s: &'a [u8],
    /// Alert codes server→client.
    pub alerts_s2c: &'a [u8],
    /// OCSP staple requested.
    pub requested_ocsp: bool,
    /// OCSP staple served.
    pub ocsp_stapled: bool,
    /// Reached application data.
    pub established: bool,
    /// Connections represented.
    pub count: u64,
}

/// Builds chunks row by row, deduplicating variable-length spans
/// against the chunk's pools.
#[derive(Debug, Default)]
pub struct ChunkWriter {
    chunk: ObsChunk,
    dedupe_u16: HashMap<Box<[u16]>, (u32, u16)>,
    dedupe_u8: HashMap<Box<[u8]>, (u32, u16)>,
    stats: ColumnarStats,
}

impl ChunkWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows in the open chunk.
    pub fn len(&self) -> usize {
        self.chunk.len()
    }

    /// True when the open chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.chunk.is_empty()
    }

    /// True when the open chunk reached [`CHUNK_ROWS`].
    pub fn is_full(&self) -> bool {
        self.chunk.len() >= CHUNK_ROWS
    }

    /// Interns `items` on behalf of `n` identical rows: the span
    /// lookup happens once, while the dedup counters advance exactly
    /// as if the rows had been pushed one at a time.
    fn intern_u16_n(&mut self, items: &[u16], n: u64) -> (u32, u16) {
        if items.is_empty() {
            return (0, 0);
        }
        if let Some(&span) = self.dedupe_u16.get(items) {
            self.stats.pool_u16_hits += n;
            return span;
        }
        self.stats.pool_u16_appends += 1;
        self.stats.pool_u16_hits += n - 1;
        let span = (self.chunk.pool_u16.len() as u32, items.len() as u16);
        self.chunk.pool_u16.extend_from_slice(items);
        self.dedupe_u16.insert(items.into(), span);
        span
    }

    /// [`intern_u16_n`](Self::intern_u16_n) for the u8 pool.
    fn intern_u8_n(&mut self, items: &[u8], n: u64) -> (u32, u16) {
        if items.is_empty() {
            return (0, 0);
        }
        if let Some(&span) = self.dedupe_u8.get(items) {
            self.stats.pool_u8_hits += n;
            return span;
        }
        self.stats.pool_u8_appends += 1;
        self.stats.pool_u8_hits += n - 1;
        let span = (self.chunk.pool_u8.len() as u32, items.len() as u16);
        self.chunk.pool_u8.extend_from_slice(items);
        self.dedupe_u8.insert(items.into(), span);
        span
    }

    /// Appends one row.
    pub fn push(&mut self, row: &RowView<'_>) {
        self.push_repeated(row, 1);
    }

    /// Appends `n` copies of one row — columns, pools, dedup
    /// counters, and pruning metadata all byte-identical to calling
    /// [`push`](Self::push) `n` times, but the span lookups happen
    /// once and the fixed-width columns are bulk-filled. The caller
    /// handles chunk capacity (the writer never seals on its own), so
    /// `n` should not push the open chunk past [`CHUNK_ROWS`] unless
    /// an oversized chunk is intended.
    pub fn push_repeated(&mut self, row: &RowView<'_>, n: usize) {
        if n == 0 {
            return;
        }
        let reps = n as u64;
        let adv = self.intern_u16_n(row.advertised_wire, reps);
        let suites = self.intern_u16_n(row.suites, reps);
        let a_c2s = self.intern_u8_n(row.alerts_c2s, reps);
        let a_s2c = self.intern_u8_n(row.alerts_s2c, reps);
        let c = &mut self.chunk;
        let len = c.time.len() + n;
        c.time.resize(len, row.time);
        c.device.resize(len, row.device.0);
        c.destination.resize(len, row.destination.0);
        c.sni.resize(len, row.sni.map_or(NO_SYM, |s| s.0));
        c.fingerprint.resize(len, row.fingerprint);
        c.adv_versions.resize(len, adv);
        c.max_adv.resize(len, row.max_advertised_wire);
        c.suites.resize(len, suites);
        c.neg_version
            .resize(len, row.negotiated_version_wire.unwrap_or(0));
        c.neg_suite.resize(len, row.negotiated_suite.unwrap_or(0));
        c.leaf_issuer
            .resize(len, row.leaf_issuer.map_or(NO_SYM, |s| s.0));
        c.alerts_c2s.resize(len, a_c2s);
        c.alerts_s2c.resize(len, a_s2c);
        let mut flags = 0u8;
        if row.requested_ocsp {
            flags |= flag::REQUESTED_OCSP;
        }
        if row.ocsp_stapled {
            flags |= flag::OCSP_STAPLED;
        }
        if row.established {
            flags |= flag::ESTABLISHED;
        }
        if row.negotiated_suite.is_some() {
            flags |= flag::HAS_NEG_SUITE;
        }
        c.flags.resize(len, flags);
        c.count.resize(len, row.count);
        c.min_time = c.min_time.min(row.time);
        c.max_time = c.max_time.max(row.time);
        let (word, bit) = (row.device.index() / 64, row.device.index() % 64);
        if c.device_bits.len() <= word {
            c.device_bits.resize(word + 1, 0);
        }
        c.device_bits[word] |= 1u64 << bit;
        self.stats.rows_written += reps;
    }

    /// Seals and returns the open chunk, leaving the writer empty.
    pub fn take(&mut self) -> ObsChunk {
        self.stats.chunks_sealed += 1;
        self.dedupe_u16.clear();
        self.dedupe_u8.clear();
        std::mem::take(&mut self.chunk)
    }

    /// Pipeline counters accumulated across this writer's lifetime
    /// (rows, seals, pool-dedup effectiveness).
    pub fn stats(&self) -> ColumnarStats {
        self.stats
    }
}

/// One revocation-endpoint flow, symbol-interned.
#[derive(Debug, Clone, Copy)]
pub struct RevRow {
    /// When (unix seconds).
    pub time: i64,
    /// Device name symbol.
    pub device: Symbol,
    /// CRL or OCSP.
    pub kind: RevocationKind,
    /// Endpoint URL symbol.
    pub url: Symbol,
    /// Connections that month.
    pub count: u64,
}

/// The passive dataset in columnar form: intern tables plus sealed
/// chunks.
#[derive(Debug, Default)]
pub struct ColumnarDataset {
    /// Shared string table (devices, hostnames, URLs, issuer CNs).
    pub strings: Interner,
    /// Shared fingerprint digest table.
    pub fps: DigestInterner,
    /// Sealed observation chunks, in generation order.
    pub chunks: Vec<ObsChunk>,
    /// Revocation endpoint flows.
    pub revocation_flows: Vec<RevRow>,
    /// Sessions whose capture was truncated before a parseable
    /// ClientHello (e.g. cut by an injected fault). Real gateway
    /// captures contain these too; they are counted rather than
    /// silently dropped so generation-side loss is visible.
    pub truncated: u64,
}

/// A chunk row together with the dataset's intern tables: everything
/// needed to resolve it to strings at the edge.
#[derive(Clone, Copy)]
pub struct ObsRef<'a> {
    /// The symbol-level row.
    pub raw: RawRow<'a>,
    strings: &'a Interner,
    fps: &'a DigestInterner,
}

impl<'a> ObsRef<'a> {
    /// Device name.
    pub fn device_name(&self) -> &'a str {
        self.strings.resolve(self.raw.device())
    }

    /// Destination hostname.
    pub fn destination(&self) -> &'a str {
        self.strings.resolve(self.raw.destination())
    }

    /// SNI hostname, when sent.
    pub fn sni(&self) -> Option<&'a str> {
        self.raw.sni().map(|s| self.strings.resolve(s))
    }

    /// Leaf issuer CN, when seen.
    pub fn leaf_issuer(&self) -> Option<&'a str> {
        self.raw.leaf_issuer().map(|s| self.strings.resolve(s))
    }

    /// Fingerprint digest.
    pub fn fingerprint(&self) -> iotls_tls::fingerprint::FingerprintId {
        self.fps.resolve(self.raw.fingerprint_id())
    }

    /// Decodes the row into an owned observation, the exact inverse of
    /// [`DatasetBuilder::push_obs`] (the row's connection count is
    /// `self.raw.count()`).
    pub fn observation(&self) -> TlsObservation {
        let raw = self.raw;
        let version =
            |w: u16| ProtocolVersion::from_wire(w).expect("columns hold only valid version wires");
        TlsObservation {
            time: Timestamp(raw.time()),
            device: self.device_name().to_string(),
            destination: self.destination().to_string(),
            sni: self.sni().map(str::to_string),
            advertised_versions: raw.advertised_wire().iter().map(|w| version(*w)).collect(),
            max_advertised: version(raw.max_advertised_wire()),
            offered_suites: raw.suites().to_vec(),
            requested_ocsp: raw.requested_ocsp(),
            fingerprint: self.fingerprint(),
            negotiated_version: raw.negotiated_version_wire().map(version),
            negotiated_suite: raw.negotiated_suite(),
            ocsp_stapled: raw.ocsp_stapled(),
            leaf_issuer: self.leaf_issuer().map(str::to_string),
            established: raw.established(),
            alerts_from_client: raw
                .alerts_c2s()
                .iter()
                .map(|a| AlertDescription::from_wire(*a))
                .collect(),
            alerts_from_server: raw
                .alerts_s2c()
                .iter()
                .map(|a| AlertDescription::from_wire(*a))
                .collect(),
        }
    }
}

impl ColumnarDataset {
    /// Total physical rows across all chunks.
    pub fn total_rows(&self) -> usize {
        self.chunks.iter().map(ObsChunk::len).sum()
    }

    /// Total connections represented.
    pub fn total_connections(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| c.count.iter().sum::<u64>())
            .sum()
    }

    /// All rows in order, with intern tables attached.
    pub fn rows(&self) -> impl Iterator<Item = ObsRef<'_>> {
        self.chunks.iter().flat_map(move |c| {
            c.rows().map(move |raw| ObsRef {
                raw,
                strings: &self.strings,
                fps: &self.fps,
            })
        })
    }

    /// Rows for one device, skipping chunks whose device bitmap
    /// excludes it. Unknown device names yield nothing.
    pub fn device_rows<'a>(&'a self, device: &str) -> impl Iterator<Item = ObsRef<'a>> {
        let sym = self.strings.lookup(device);
        self.chunks
            .iter()
            .filter(move |c| sym.is_some_and(|s| c.has_device(s)))
            .flat_map(move |c| {
                c.rows().filter_map(move |raw| {
                    (Some(raw.device()) == sym).then_some(ObsRef {
                        raw,
                        strings: &self.strings,
                        fps: &self.fps,
                    })
                })
            })
    }
}

/// Accumulates rows into sealed chunks plus the shared intern tables
/// and flow/truncation tails. Full chunks are handed to the caller's
/// sink as they seal, so a streaming consumer never holds more than
/// one open chunk in memory.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    /// String intern table under construction.
    pub strings: Interner,
    /// Digest intern table under construction.
    pub fps: DigestInterner,
    /// Revocation flows gathered so far.
    pub revocation_flows: Vec<RevRow>,
    /// Truncated-capture count.
    pub truncated: u64,
    writer: ChunkWriter,
    scratch_u16: Vec<u16>,
    scratch_c2s: Vec<u8>,
    scratch_s2c: Vec<u8>,
}

impl DatasetBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an owned observation's strings and appends it.
    pub fn push_obs(
        &mut self,
        obs: &TlsObservation,
        count: u64,
        sink: &mut dyn FnMut(ObsChunk),
    ) {
        self.scratch_u16.clear();
        self.scratch_u16
            .extend(obs.advertised_versions.iter().map(|v| v.wire()));
        self.scratch_c2s.clear();
        self.scratch_c2s
            .extend(obs.alerts_from_client.iter().map(|a| a.wire()));
        self.scratch_s2c.clear();
        self.scratch_s2c
            .extend(obs.alerts_from_server.iter().map(|a| a.wire()));
        let row = RowView {
            time: obs.time.0,
            device: self.strings.intern(&obs.device),
            destination: self.strings.intern(&obs.destination),
            sni: obs.sni.as_deref().map(|s| self.strings.intern(s)),
            fingerprint: self.fps.intern(obs.fingerprint),
            advertised_wire: &self.scratch_u16,
            max_advertised_wire: obs.max_advertised.wire(),
            suites: &obs.offered_suites,
            negotiated_version_wire: obs.negotiated_version.map(|v| v.wire()),
            negotiated_suite: obs.negotiated_suite,
            leaf_issuer: obs.leaf_issuer.as_deref().map(|s| self.strings.intern(s)),
            alerts_c2s: &self.scratch_c2s,
            alerts_s2c: &self.scratch_s2c,
            requested_ocsp: obs.requested_ocsp,
            ocsp_stapled: obs.ocsp_stapled,
            established: obs.established,
            count,
        };
        self.writer.push(&row);
        if self.writer.is_full() {
            sink(self.writer.take());
        }
    }

    /// Interns and appends one revocation flow.
    pub fn push_flow(&mut self, f: &RevocationFlow) {
        let row = RevRow {
            time: f.time.0,
            device: self.strings.intern(&f.device),
            kind: f.kind,
            url: self.strings.intern(&f.url),
            count: f.count,
        };
        self.revocation_flows.push(row);
    }

    /// Seals any partial chunk through `sink`.
    pub fn flush(&mut self, sink: &mut dyn FnMut(ObsChunk)) {
        if !self.writer.is_empty() {
            sink(self.writer.take());
        }
    }

    /// Pipeline counters accumulated by this builder's chunk writer.
    pub fn stats(&self) -> ColumnarStats {
        self.writer.stats()
    }

    /// Finishes into a dataset holding `chunks` (typically everything
    /// the sink collected) plus the builder's tables and tails. Any
    /// still-open rows must be [`DatasetBuilder::flush`]ed first.
    pub fn into_dataset(self, chunks: Vec<ObsChunk>) -> ColumnarDataset {
        debug_assert!(self.writer.is_empty(), "unflushed rows");
        ColumnarDataset {
            strings: self.strings,
            fps: self.fps,
            chunks,
            revocation_flows: self.revocation_flows,
            truncated: self.truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotls_tls::fingerprint::FingerprintId;
    use iotls_x509::Month;

    fn obs(device: &str, month: Month, suites: &[u16]) -> TlsObservation {
        TlsObservation {
            time: month.start().plus_days(14),
            device: device.into(),
            destination: "cloud.example".into(),
            sni: Some("cloud.example".into()),
            advertised_versions: vec![ProtocolVersion::Tls11, ProtocolVersion::Tls12],
            max_advertised: ProtocolVersion::Tls12,
            offered_suites: suites.to_vec(),
            requested_ocsp: true,
            fingerprint: FingerprintId([7; 16]),
            negotiated_version: Some(ProtocolVersion::Tls12),
            negotiated_suite: Some(0xc02f),
            ocsp_stapled: false,
            leaf_issuer: Some("SimTrust Root".into()),
            established: true,
            alerts_from_client: vec![AlertDescription::CloseNotify],
            alerts_from_server: vec![],
        }
    }

    /// The sample's rows and flows, as pushed.
    fn sample_rows() -> (Vec<(TlsObservation, u64)>, Vec<RevocationFlow>) {
        let observations = vec![
            (obs("Cam A", Month::new(2018, 1), &[0xc02f, 0x0005]), 120),
            (obs("Cam A", Month::new(2018, 2), &[0xc02f, 0x0005]), 80),
            (obs("Hub B", Month::new(2018, 1), &[0x002f]), 33),
        ];
        let flows = vec![RevocationFlow {
            time: Month::new(2018, 1).start().plus_days(3),
            device: "Hub B".into(),
            kind: RevocationKind::CrlFetch,
            url: "http://crl.example/x.crl".into(),
            count: 4,
        }];
        (observations, flows)
    }

    fn build(observations: &[(TlsObservation, u64)], flows: &[RevocationFlow]) -> ColumnarDataset {
        let mut b = DatasetBuilder::new();
        let mut chunks = Vec::new();
        for (o, count) in observations {
            b.push_obs(o, *count, &mut |c| chunks.push(c));
        }
        for f in flows {
            b.push_flow(f);
        }
        b.truncated = 2;
        b.flush(&mut |c| chunks.push(c));
        b.into_dataset(chunks)
    }

    fn sample() -> ColumnarDataset {
        let (observations, flows) = sample_rows();
        build(&observations, &flows)
    }

    #[test]
    fn row_roundtrip_is_json_identical() {
        let (observations, flows) = sample_rows();
        let col = build(&observations, &flows);
        assert_eq!(col.total_rows(), 3);
        assert_eq!(col.total_connections(), 233);
        // `observation` decodes exactly what `push_obs` took in.
        let decoded: Vec<(TlsObservation, u64)> = col
            .rows()
            .map(|r| (r.observation(), r.raw.count()))
            .collect();
        assert_eq!(format!("{decoded:?}"), format!("{observations:?}"));
        // Pushed again, the decoded rows export the same bytes.
        let json = crate::serialize::to_json_columnar(&col);
        assert_eq!(
            crate::serialize::to_json_columnar(&build(&decoded, &flows)),
            json
        );
    }

    #[test]
    fn pools_dedupe_repeated_shapes() {
        let col = sample();
        let chunk = &col.chunks[0];
        // Two "Cam A" rows share advertised + suite spans.
        assert_eq!(chunk.suites[0], chunk.suites[1]);
        assert_eq!(chunk.adv_versions[0], chunk.adv_versions[1]);
        assert_ne!(chunk.suites[0], chunk.suites[2]);
    }

    #[test]
    fn pruning_metadata_matches_contents() {
        let col = sample();
        let chunk = &col.chunks[0];
        let cam = col.strings.lookup("Cam A").unwrap();
        let hub = col.strings.lookup("Hub B").unwrap();
        assert!(chunk.has_device(cam));
        assert!(chunk.has_device(hub));
        assert!(!chunk.has_device(Symbol(500)));
        assert_eq!(chunk.min_time(), Month::new(2018, 1).start().plus_days(14).0);
        assert_eq!(chunk.max_time(), Month::new(2018, 2).start().plus_days(14).0);
        assert!(chunk.overlaps(chunk.min_time(), chunk.min_time()));
        assert!(!chunk.overlaps(0, chunk.min_time() - 1));
    }

    #[test]
    fn device_rows_filters_and_prunes() {
        let col = sample();
        let cam: Vec<u64> = col.device_rows("Cam A").map(|r| r.raw.count()).collect();
        assert_eq!(cam, vec![120, 80]);
        assert_eq!(col.device_rows("Nope").count(), 0);
    }

    #[test]
    fn chunks_seal_at_capacity() {
        let mut b = DatasetBuilder::new();
        let mut chunks = Vec::new();
        let o = obs("Cam A", Month::new(2018, 1), &[0xc02f]);
        for _ in 0..CHUNK_ROWS + 10 {
            b.push_obs(&o, 1, &mut |c| chunks.push(c));
        }
        b.flush(&mut |c| chunks.push(c));
        let ds = b.into_dataset(chunks);
        assert_eq!(ds.chunks.len(), 2);
        assert_eq!(ds.chunks[0].len(), CHUNK_ROWS);
        assert_eq!(ds.chunks[1].len(), 10);
        assert_eq!(ds.total_rows(), CHUNK_ROWS + 10);
        // Interning collapses the repeated strings to one entry each.
        assert_eq!(ds.strings.len(), 3);
        assert_eq!(ds.fps.len(), 1);
    }
}

//! Passive longitudinal analysis (§5.1, Figures 1–3, Table 8, and
//! the prior-work comparison).
//!
//! Every passive artifact comes from one fold: [`PassiveAccumulator`]
//! folds columnar observation chunks — in memory
//! ([`analyze_columnar`]), streamed off the generator
//! ([`analyze_streamed`]), or read back from a segmented store
//! ([`analyze_store`], [`analyze_store_slice`]) — into per-device
//! monthly series plus the summary statistics quoted in the text. The
//! per-row scans over a materialized row vector that the fold
//! replaced survive only as this module's test oracle, over rows the
//! tests decode from the columnar capture.

use crate::experiment::ExperimentCtx;
use iotls_capture::{
    flag, ColumnarDataset, Columns, Interner, ObsChunk, RevRow, RevocationKind, SegmentedStore,
    StoreError, Symbol,
};
use iotls_devices::Testbed;
use iotls_obs::Registry;
use iotls_tls::version::ProtocolVersion;
use iotls_x509::{Month, Timestamp};
use std::collections::{BTreeMap, BTreeSet};

/// Fractions of connections per version class in one month — one cell
/// column of Figure 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VersionMix {
    /// Advertised max = TLS 1.3.
    pub adv_tls13: f64,
    /// Advertised max = TLS 1.2.
    pub adv_tls12: f64,
    /// Advertised max < TLS 1.2.
    pub adv_older: f64,
    /// Established TLS 1.3.
    pub est_tls13: f64,
    /// Established TLS 1.2.
    pub est_tls12: f64,
    /// Established < TLS 1.2.
    pub est_older: f64,
}

/// Fractions for Figures 2 and 3 in one month.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CipherMix {
    /// Connections advertising at least one insecure suite.
    pub adv_insecure: f64,
    /// Connections that established an insecure suite.
    pub est_insecure: f64,
    /// Connections advertising forward secrecy.
    pub adv_strong: f64,
    /// Connections that established forward secrecy.
    pub est_strong: f64,
}

/// Per-device, per-month series.
pub type Series<T> = BTreeMap<String, BTreeMap<Month, T>>;

/// A detected permanent change in a device's advertised maximum
/// version (the Fig. 1 upgrade annotations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionTransition {
    /// Device name.
    pub device: String,
    /// First month of the new behavior.
    pub month: Month,
    /// Dominant max version before.
    pub from: ProtocolVersion,
    /// Dominant max version after (used exclusively afterwards).
    pub to: ProtocolVersion,
}

/// The §5.1 headline statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PassiveSummary {
    /// Devices whose every connection advertised and established
    /// exactly TLS 1.2.
    pub tls12_exclusive_devices: Vec<String>,
    /// Devices that ever advertised or established a non-1.2 version
    /// (the Fig. 1 rows).
    pub fig1_devices: Vec<String>,
    /// NULL/ANON suites ever seen (must be false).
    pub null_anon_seen: bool,
    /// Devices that ever advertised an insecure suite.
    pub devices_advertising_insecure: Vec<String>,
    /// Devices that ever *established* an insecure suite.
    pub devices_establishing_insecure: Vec<String>,
    /// Devices advertising forward secrecy.
    pub devices_advertising_fs: Vec<String>,
    /// Devices establishing most connections *without* forward
    /// secrecy despite the servers' choices.
    pub devices_mostly_without_fs: Vec<String>,
    /// Fraction of all connections advertising TLS 1.3 (prior-work
    /// comparison: ≈17% here vs ≈60% on the web).
    pub pct_connections_tls13: f64,
    /// Fraction of all connections advertising RC4 (≈60% here vs
    /// ≈10% in Kotzias et al.).
    pub pct_connections_rc4: f64,
}

/// Table 8: revocation-method support by device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationSummary {
    /// Devices fetching CRLs.
    pub crl: Vec<String>,
    /// Devices querying OCSP responders.
    pub ocsp: Vec<String>,
    /// Devices requesting OCSP staples in ClientHellos.
    pub ocsp_stapling: Vec<String>,
}

impl RevocationSummary {
    /// Devices exercising no revocation machinery at all.
    pub fn devices_without_any(&self, all_devices: &[String]) -> Vec<String> {
        let covered: BTreeSet<&String> = self
            .crl
            .iter()
            .chain(&self.ocsp)
            .chain(&self.ocsp_stapling)
            .collect();
        all_devices
            .iter()
            .filter(|d| !covered.contains(d))
            .cloned()
            .collect()
    }
}

// ── Single-pass streaming accumulator ───────────────────────────────
//
// The accumulator folds every table and figure input out of the
// columnar chunk stream in ONE pass, using integer cells keyed by
// interned symbols — at paper scale (~17M rows) the five per-row
// scans it replaced meant five full passes over gigabytes of
// `String`-laden observations. Partials merge associatively (chunk
// order does not matter), and `finish` resolves symbols to names
// once. The tests hold the result bit for bit to those scans: all
// per-cell totals are integers below 2^53, so summing in `u64` and
// converting at the end yields exactly the same `f64`s as per-row
// `f64` accumulation.

/// One (device, month) cell of integer counters — the union of the
/// Figure 1 and Figures 2–3 cell inputs plus the dominant-version
/// histogram feeding the transition detector.
#[derive(Debug, Clone, Default, PartialEq)]
struct Cell {
    total: u64,
    adv_tls13: u64,
    adv_tls12: u64,
    adv_older: u64,
    est_tls13: u64,
    est_tls12: u64,
    est_older: u64,
    adv_insecure: u64,
    est_insecure: u64,
    adv_strong: u64,
    est_strong: u64,
    /// Connections per advertised-max wire version (for dominance).
    adv_max: BTreeMap<u16, u64>,
}

impl Cell {
    fn merge(&mut self, other: &Cell) {
        self.total += other.total;
        self.adv_tls13 += other.adv_tls13;
        self.adv_tls12 += other.adv_tls12;
        self.adv_older += other.adv_older;
        self.est_tls13 += other.est_tls13;
        self.est_tls12 += other.est_tls12;
        self.est_older += other.est_older;
        self.adv_insecure += other.adv_insecure;
        self.est_insecure += other.est_insecure;
        self.adv_strong += other.adv_strong;
        self.est_strong += other.est_strong;
        for (wire, n) in &other.adv_max {
            *self.adv_max.entry(*wire).or_insert(0) += n;
        }
    }
}

/// Whole-study per-device aggregates (the §5.1 summary inputs).
#[derive(Debug, Clone, PartialEq)]
struct DeviceAgg {
    only_tls12: bool,
    adv_insecure: bool,
    est_insecure: bool,
    adv_fs: bool,
    est_conns: u64,
    fs_conns: u64,
    stapling: bool,
}

impl Default for DeviceAgg {
    fn default() -> Self {
        DeviceAgg {
            only_tls12: true,
            adv_insecure: false,
            est_insecure: false,
            adv_fs: false,
            est_conns: 0,
            fs_conns: 0,
            stapling: false,
        }
    }
}

impl DeviceAgg {
    fn merge(&mut self, other: &DeviceAgg) {
        self.only_tls12 &= other.only_tls12;
        self.adv_insecure |= other.adv_insecure;
        self.est_insecure |= other.est_insecure;
        self.adv_fs |= other.adv_fs;
        self.est_conns += other.est_conns;
        self.fs_conns += other.fs_conns;
        self.stapling |= other.stapling;
    }
}

/// Everything the passive section of the paper needs, computed in one
/// pass: Figures 1–3 series, the version-transition annotations, the
/// §5.1 summary, Table 8, and the axis/roster metadata the renderers
/// take as parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PassiveAnalysis {
    /// Figure 1 series: per device and month, the share of
    /// connections in each advertised and established version class.
    pub version_series: Series<VersionMix>,
    /// Figures 2–3 series: per device and month, the share of
    /// connections advertising or establishing insecure and
    /// forward-secret suites.
    pub cipher_series: Series<CipherMix>,
    /// Permanent upgrades of the dominant advertised version (the
    /// Figure 1 annotations).
    pub transitions: Vec<VersionTransition>,
    /// §5.1 summary.
    pub summary: PassiveSummary,
    /// Table 8: CRL and OCSP from revocation flows, stapling from
    /// `status_request` in ClientHellos.
    pub revocation: RevocationSummary,
    /// Sorted distinct months with traffic (the heatmap x-axis).
    pub month_axis: Vec<Month>,
    /// Sorted device names observed.
    pub device_names: Vec<String>,
    /// Total weighted connections folded.
    pub total_connections: u64,
}

/// Rows per scan block: one bit each of a `u64` mask.
const BLOCK: usize = 64;

/// The flag bits [`PassiveAccumulator::fold_run`] reads.
const FOLD_FLAGS: u8 = flag::REQUESTED_OCSP | flag::HAS_NEG_SUITE;

/// A mask with the low `rows` bits set (`1 <= rows <= 64`).
fn all_rows(rows: usize) -> u64 {
    u64::MAX >> (BLOCK - rows)
}

/// Bit `k` set when row `lo + k` differs from row `lo + k - 1` under
/// `key` (`1 <= lo`, `hi - lo <= 64`). Runs average thousands of rows,
/// so most blocks repeat the row before them: one branch-free
/// reduction, which vectorizes, settles those before any per-row mask
/// bit is built.
fn changes<T: Copy, K: PartialEq>(col: &[T], lo: usize, hi: usize, key: impl Fn(T) -> K) -> u64 {
    let prev = key(col[lo - 1]);
    if col[lo..hi].iter().fold(true, |same, &v| same & (key(v) == prev)) {
        return 0;
    }
    col[lo - 1..hi - 1]
        .iter()
        .zip(&col[lo..hi])
        .enumerate()
        .fold(0, |m, (k, (&a, &b))| m | (u64::from(key(a) != key(b)) << k))
}

/// Marks in bit `k` each row `lo + k` of the block `[lo, hi)` that
/// starts a fold run: row 0, or a row that differs from the row before
/// it in a column [`PassiveAccumulator::fold_run`] reads — time,
/// device, `max_adv`, `neg_version`, the raw `neg_suite`, the OCSP and
/// has-suite flag bits, and the suite and advertised-version spans as
/// (offset, len). Raw suites and span offsets are at worst finer than
/// what the fold reads (a suite under an unset has-suite flag, equal
/// spans at different pool offsets), and a finer split only adds fold
/// calls, never changes a sum.
fn run_starts(c: &Columns<'_>, lo: usize, hi: usize) -> u64 {
    if lo == 0 {
        return if hi > 1 { 1 | run_starts(c, 1, hi) << 1 } else { 1 };
    }
    changes(c.time, lo, hi, |v| v)
        | changes(c.device, lo, hi, |v| v)
        | changes(c.max_adv, lo, hi, |v| v)
        | changes(c.neg_version, lo, hi, |v| v)
        | changes(c.neg_suite, lo, hi, |v| v)
        | changes(c.flags, lo, hi, |f| f & FOLD_FLAGS)
        | changes(c.suites, lo, hi, |v| v)
        | changes(c.adv_versions, lo, hi, |v| v)
}

/// Bit `k` set when row `lo + k` lies inside `[from, to]` and, when
/// `device` is given, belongs to it.
fn window_rows(
    c: &Columns<'_>,
    lo: usize,
    hi: usize,
    from: i64,
    to: i64,
    device: Option<Symbol>,
) -> u64 {
    let (any_device, dev) = (device.is_none(), device.map_or(0, |d| d.0));
    c.time[lo..hi]
        .iter()
        .zip(&c.device[lo..hi])
        .enumerate()
        .fold(0, |m, (k, (&t, &d))| {
            let inside = (t >= from) & (t <= to) & (any_device | (d == dev));
            m | (u64::from(inside) << k)
        })
}

/// Single-pass, merge-able accumulator over columnar observation
/// chunks. Feed chunks with [`add_chunk`](Self::add_chunk) (any
/// order), flows with [`add_flows`](Self::add_flows), combine
/// partials with [`merge`](Self::merge), then resolve with
/// [`finish`](Self::finish).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassiveAccumulator {
    cells: BTreeMap<(Symbol, Month), Cell>,
    devices: BTreeMap<Symbol, DeviceAgg>,
    total: u64,
    tls13: u64,
    rc4: u64,
    null_anon: bool,
    crl: BTreeSet<Symbol>,
    ocsp: BTreeSet<Symbol>,
}

impl PassiveAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds every row of one chunk.
    ///
    /// Expanded paper-scale chunks are long runs of rows identical in
    /// everything the fold reads (the row splitter only varies
    /// `count` between `base` and `base + 1`), so the scan finds run
    /// boundaries a 64-row block at a time and folds each run **once**
    /// with the summed count. Every per-run quantity the fold adds is
    /// `count`-linear in `u64` (and the booleans are idempotent ORs),
    /// so the result is bit-identical to folding row by row.
    pub fn add_chunk(&mut self, chunk: &ObsChunk) {
        self.fold_runs(&chunk.columns(), |lo, hi| all_rows(hi - lo));
    }

    /// Folds only the rows of one chunk inside `[from, to]` (and
    /// belonging to `device`, when given), returning how many rows
    /// were folded. Rows outside the predicate are dropped a block at a
    /// time before any run detection. Exact: time and device are part
    /// of the run shape, so the predicate is constant across a run and
    /// accepts or rejects it whole — the result is bit-identical to
    /// filtering row by row.
    pub fn add_chunk_window(
        &mut self,
        chunk: &ObsChunk,
        from: i64,
        to: i64,
        device: Option<Symbol>,
    ) -> u64 {
        let c = chunk.columns();
        self.fold_runs(&c, |lo, hi| window_rows(&c, lo, hi, from, to, device))
    }

    /// The one run scan behind [`add_chunk`](Self::add_chunk) and
    /// [`add_chunk_window`](Self::add_chunk_window): walks 64-row
    /// blocks, asks `keep` which rows of the block the caller wants
    /// (a mask that is constant across every run), and folds each kept
    /// run once. Returns the rows folded. Allocates nothing.
    fn fold_runs(&mut self, c: &Columns<'_>, keep: impl Fn(usize, usize) -> u64) -> u64 {
        let n = c.time.len();
        let mut folded = 0;
        // Start of the kept run in progress, if any.
        let mut open = None;
        let mut lo = 0;
        while lo < n {
            let hi = n.min(lo + BLOCK);
            let kept = keep(lo, hi);
            // A block without a kept row ends the run in progress at
            // its first row and opens none.
            let mut starts = if kept == 0 { 1 } else { run_starts(c, lo, hi) };
            while starts != 0 {
                let k = starts.trailing_zeros() as usize;
                if let Some(s) = open.take() {
                    folded += self.fold_rows(c, s, lo + k);
                }
                if kept >> k & 1 == 1 {
                    open = Some(lo + k);
                }
                starts &= starts - 1;
            }
            lo = hi;
        }
        if let Some(s) = open {
            folded += self.fold_rows(c, s, n);
        }
        folded
    }

    /// Folds the run `[s, e)` once, carrying its summed count; returns
    /// its row count.
    fn fold_rows(&mut self, c: &Columns<'_>, s: usize, e: usize) -> u64 {
        self.fold_run(c, s, c.count[s..e].iter().sum());
        (e - s) as u64
    }

    /// Folds the shape of row `i` carrying `count` connections (the sum
    /// over a run of identical rows).
    fn fold_run(&mut self, c: &Columns<'_>, i: usize, count: u64) {
        let tls12 = ProtocolVersion::Tls12.wire();
        let tls13 = ProtocolVersion::Tls13.wire();
        let span = |(off, len): (u32, u16)| &c.pool_u16[off as usize..][..len as usize];
        let device = Symbol(c.device[i]);
        let max = c.max_adv[i];
        let neg = Some(c.neg_version[i]).filter(|&v| v != 0);
        let neg_suite = (c.flags[i] & flag::HAS_NEG_SUITE != 0).then_some(c.neg_suite[i]);
        let suites = span(c.suites[i]);

        let month = Timestamp(c.time[i]).month();
        let cell = self.cells.entry((device, month)).or_default();
        cell.total += count;
        if max == tls13 {
            cell.adv_tls13 += count;
        } else if max == tls12 {
            cell.adv_tls12 += count;
        } else {
            cell.adv_older += count;
        }
        *cell.adv_max.entry(max).or_insert(0) += count;
        match neg {
            Some(v) if v == tls13 => cell.est_tls13 += count,
            Some(v) if v == tls12 => cell.est_tls12 += count,
            Some(_) => cell.est_older += count,
            None => {}
        }
        let adv_insecure = suites
            .iter()
            .any(|s| iotls_tls::ciphersuite::id_is_insecure(*s));
        let adv_fs = suites
            .iter()
            .any(|s| iotls_tls::ciphersuite::id_is_forward_secret(*s));
        let est_insecure = neg_suite.is_some_and(iotls_tls::ciphersuite::id_is_insecure);
        let est_fs = neg_suite.is_some_and(iotls_tls::ciphersuite::id_is_forward_secret);
        if adv_insecure {
            cell.adv_insecure += count;
        }
        if est_insecure {
            cell.est_insecure += count;
        }
        if adv_fs {
            cell.adv_strong += count;
        }
        if est_fs {
            cell.est_strong += count;
        }

        self.total += count;
        if span(c.adv_versions[i]).contains(&tls13) {
            self.tls13 += count;
        }
        if suites.iter().any(|s| {
            iotls_tls::ciphersuite::by_id(*s).is_some_and(|i| {
                matches!(
                    i.cipher,
                    iotls_tls::BulkCipher::Rc4_40 | iotls_tls::BulkCipher::Rc4_128
                )
            })
        }) {
            self.rc4 += count;
        }
        if suites
            .iter()
            .any(|s| iotls_tls::ciphersuite::id_is_null_or_anon(*s))
        {
            self.null_anon = true;
        }

        let dev = self.devices.entry(device).or_default();
        if max != tls12 || neg.is_some_and(|v| v != tls12) {
            dev.only_tls12 = false;
        }
        dev.adv_insecure |= adv_insecure;
        dev.est_insecure |= est_insecure;
        dev.adv_fs |= adv_fs;
        if neg_suite.is_some() {
            dev.est_conns += count;
            if est_fs {
                dev.fs_conns += count;
            }
        }
        dev.stapling |= c.flags[i] & flag::REQUESTED_OCSP != 0;
    }

    /// Folds revocation endpoint flows (Table 8 CRL/OCSP columns).
    pub fn add_flows(&mut self, flows: &[RevRow]) {
        for f in flows {
            match f.kind {
                RevocationKind::CrlFetch => self.crl.insert(f.device),
                RevocationKind::OcspQuery => self.ocsp.insert(f.device),
            };
        }
    }

    /// Merges another partial into `self`. Associative and
    /// commutative, so chunk partitioning does not affect the result;
    /// both partials must share the intern table that numbered their
    /// symbols.
    pub fn merge(&mut self, other: &PassiveAccumulator) {
        for (key, cell) in &other.cells {
            self.cells.entry(*key).or_default().merge(cell);
        }
        for (sym, agg) in &other.devices {
            self.devices.entry(*sym).or_default().merge(agg);
        }
        self.total += other.total;
        self.tls13 += other.tls13;
        self.rc4 += other.rc4;
        self.null_anon |= other.null_anon;
        self.crl.extend(&other.crl);
        self.ocsp.extend(&other.ocsp);
    }

    /// Resolves symbols against `strings` and produces every passive
    /// output, byte-identical to the row-scan oracle in this module's
    /// tests.
    pub fn finish(&self, strings: &Interner) -> PassiveAnalysis {
        let name = |sym: Symbol| strings.resolve(sym).to_string();

        // Sorted roster, the order the row scans visited devices in.
        let mut device_names: Vec<String> =
            self.devices.keys().map(|s| name(*s)).collect();
        device_names.sort();
        let mut by_name: Vec<(String, Symbol)> = self
            .devices
            .keys()
            .map(|s| (name(*s), *s))
            .collect();
        by_name.sort();

        let mut version_series: Series<VersionMix> = BTreeMap::new();
        let mut cipher_series: Series<CipherMix> = BTreeMap::new();
        let mut months_seen: BTreeSet<Month> = BTreeSet::new();
        for ((sym, month), cell) in &self.cells {
            months_seen.insert(*month);
            let total = cell.total;
            let scale = |n: u64| {
                if total > 0 {
                    n as f64 / total as f64
                } else {
                    n as f64
                }
            };
            version_series
                .entry(name(*sym))
                .or_default()
                .insert(
                    *month,
                    VersionMix {
                        adv_tls13: scale(cell.adv_tls13),
                        adv_tls12: scale(cell.adv_tls12),
                        adv_older: scale(cell.adv_older),
                        est_tls13: scale(cell.est_tls13),
                        est_tls12: scale(cell.est_tls12),
                        est_older: scale(cell.est_older),
                    },
                );
            cipher_series
                .entry(name(*sym))
                .or_default()
                .insert(
                    *month,
                    CipherMix {
                        adv_insecure: scale(cell.adv_insecure),
                        est_insecure: scale(cell.est_insecure),
                        adv_strong: scale(cell.adv_strong),
                        est_strong: scale(cell.est_strong),
                    },
                );
        }

        // Transitions, in sorted-device order like the row scan.
        let mut transitions = Vec::new();
        for (device, sym) in &by_name {
            let dominant: Vec<(Month, ProtocolVersion)> = self
                .cells
                .range((*sym, Month::new(i32::MIN, 1))..=(*sym, Month::new(i32::MAX, 12)))
                .map(|((_, m), cell)| {
                    let v = cell
                        .adv_max
                        .iter()
                        .max_by_key(|(_, c)| **c)
                        .and_then(|(wire, _)| ProtocolVersion::from_wire(*wire))
                        .expect("non-empty month");
                    (*m, v)
                })
                .collect();
            for i in 1..dominant.len() {
                let (month, to) = dominant[i];
                let (_, from) = dominant[i - 1];
                if to > from && dominant[i..].iter().all(|(_, v)| *v == to) {
                    transitions.push(VersionTransition {
                        device: device.clone(),
                        month,
                        from,
                        to,
                    });
                    break;
                }
            }
        }

        let mut summary = PassiveSummary {
            tls12_exclusive_devices: Vec::new(),
            fig1_devices: Vec::new(),
            null_anon_seen: self.null_anon,
            devices_advertising_insecure: Vec::new(),
            devices_establishing_insecure: Vec::new(),
            devices_advertising_fs: Vec::new(),
            devices_mostly_without_fs: Vec::new(),
            pct_connections_tls13: 100.0 * self.tls13 as f64 / self.total.max(1) as f64,
            pct_connections_rc4: 100.0 * self.rc4 as f64 / self.total.max(1) as f64,
        };
        let mut stapling = BTreeSet::new();
        for (device, sym) in &by_name {
            let agg = &self.devices[sym];
            if agg.only_tls12 {
                summary.tls12_exclusive_devices.push(device.clone());
            } else {
                summary.fig1_devices.push(device.clone());
            }
            if agg.adv_insecure {
                summary.devices_advertising_insecure.push(device.clone());
            }
            if agg.est_insecure {
                summary.devices_establishing_insecure.push(device.clone());
            }
            if agg.adv_fs {
                summary.devices_advertising_fs.push(device.clone());
            }
            if agg.est_conns > 0 && agg.fs_conns * 2 < agg.est_conns {
                summary.devices_mostly_without_fs.push(device.clone());
            }
            if agg.stapling {
                stapling.insert(device.clone());
            }
        }

        let revocation = RevocationSummary {
            crl: self.crl.iter().map(|s| name(*s)).collect::<BTreeSet<_>>()
                .into_iter()
                .collect(),
            ocsp: self.ocsp.iter().map(|s| name(*s)).collect::<BTreeSet<_>>()
                .into_iter()
                .collect(),
            ocsp_stapling: stapling.into_iter().collect(),
        };

        PassiveAnalysis {
            version_series,
            cipher_series,
            transitions,
            summary,
            revocation,
            month_axis: months_seen.into_iter().collect(),
            device_names,
            total_connections: self.total,
        }
    }
}

/// Contiguous index ranges splitting `n` items across `workers`
/// shards, in order ([lo, hi) pairs; empty shards filtered out).
/// Because [`PassiveAccumulator::merge`] is associative, folding the
/// shards in range order is bit-identical to one sequential fold —
/// at any worker count.
pub fn shard_ranges(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let w = workers.max(1);
    (0..w)
        .map(|i| (n * i / w, n * (i + 1) / w))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Analyzes an in-memory columnar dataset in one pass, recording
/// `passive.*` counters (chunks/rows/flows folded, weighted
/// connections) into the context's metrics shard. The chunk sequence
/// is split into contiguous per-worker shards
/// ([`shard_ranges`]) folded in parallel and merged in shard order,
/// so the analysis is byte-identical at any `IOTLS_THREADS`.
pub fn analyze_columnar(ds: &ColumnarDataset, ctx: &ExperimentCtx) -> PassiveAnalysis {
    let mut reg = Registry::new();
    let shards = shard_ranges(ds.chunks.len(), ctx.threads());
    let partials = iotls_simnet::ordered_map_with(ctx.threads(), shards, |(lo, hi)| {
        let mut acc = PassiveAccumulator::new();
        for chunk in &ds.chunks[lo..hi] {
            acc.add_chunk(chunk);
        }
        acc
    });
    let mut acc = PassiveAccumulator::new();
    for partial in &partials {
        acc.merge(partial);
    }
    reg.add("passive.chunks.analyzed", ds.chunks.len() as u64);
    reg.add("passive.rows.analyzed", ds.total_rows() as u64);
    acc.add_flows(&ds.revocation_flows);
    reg.add("passive.flows.analyzed", ds.revocation_flows.len() as u64);
    reg.add("passive.connections", acc.total);
    ctx.merge_metrics(&reg);
    acc.finish(&ds.strings)
}

/// Generates and analyzes the passive dataset **streamed**: chunks
/// flow from the generator straight into the accumulator and are
/// dropped, so peak memory is one chunk plus the integer cells —
/// independent of row count. `max_count_per_row` sets the paper-scale
/// expansion (`u64::MAX` = seed-scale weighted rows, `1` = one row
/// per simulated connection, ≈17M rows). The generator's
/// `sim.*`/`capture.*` counters plus the analyzer's `passive.*`
/// counters land in the context's metrics shard, byte-identical at
/// any thread count.
///
/// The per-chunk fold rides the generator's parallel chunk builders
/// ([`iotls_capture::CaptureCtx::generate_folded`]): each worker
/// seals a chunk, folds it into a chunk-local partial, and drops it;
/// the partials merge sequentially in chunk order, which is
/// bit-identical to one accumulator folding every chunk in turn.
pub fn analyze_streamed(
    testbed: &Testbed,
    ctx: &ExperimentCtx,
    max_count_per_row: u64,
) -> PassiveAnalysis {
    let mut reg = Registry::new();
    let mut acc = PassiveAccumulator::new();
    let mut chunks = 0u64;
    let mut rows = 0u64;
    let capture = ctx.capture_ctx();
    let fold = |chunk: ObsChunk| {
        let mut partial = PassiveAccumulator::new();
        partial.add_chunk(&chunk);
        (partial, chunk.len() as u64)
    };
    let tail = capture.generate_folded(testbed, max_count_per_row, &fold, &mut |(partial, len)| {
        chunks += 1;
        rows += len;
        acc.merge(&partial);
    });
    reg.add("passive.chunks.analyzed", chunks);
    reg.add("passive.rows.analyzed", rows);
    acc.add_flows(&tail.revocation_flows);
    reg.add("passive.flows.analyzed", tail.revocation_flows.len() as u64);
    reg.add("passive.connections", acc.total);
    ctx.merge_metrics(&reg);
    acc.finish(&tail.strings)
}

/// Analyzes a persisted store **without materializing the dataset**:
/// each worker [`scan`](SegmentedStore::scan)s its shard, reading one
/// chunk frame at a time into a buffer the store pools and folding it,
/// so memory stays at one chunk buffer per thread even for the
/// paper-scale corpus. Shards and merge order follow
/// [`shard_ranges`], so the result is byte-identical to
/// [`analyze_columnar`] on the same rows — at any `IOTLS_THREADS` —
/// and the `passive.*` counters carry the same names and values.
///
/// Corruption discovered mid-scan (a bit-flipped or truncated frame)
/// surfaces as the typed [`StoreError`]; nothing panics.
///
/// Shards run across the store's global (cross-segment) chunk index
/// space, so how the chunks were cut into segments and batches never
/// shows in the result.
pub fn analyze_store(
    store: &SegmentedStore,
    ctx: &ExperimentCtx,
) -> Result<PassiveAnalysis, StoreError> {
    let mut reg = Registry::new();
    let shards = shard_ranges(store.chunk_count(), ctx.threads());
    let partials = iotls_simnet::ordered_map_with(ctx.threads(), shards, |(lo, hi)| {
        let mut acc = PassiveAccumulator::new();
        let mut rows = 0u64;
        store.scan(lo..hi, |chunk| {
            rows += chunk.len() as u64;
            acc.add_chunk(chunk);
        })?;
        Ok::<_, StoreError>((acc, rows))
    });
    let mut acc = PassiveAccumulator::new();
    let mut rows = 0u64;
    for partial in partials {
        let (partial, shard_rows) = partial?;
        acc.merge(&partial);
        rows += shard_rows;
    }
    reg.add("passive.chunks.analyzed", store.chunk_count() as u64);
    reg.add("passive.rows.analyzed", rows);
    acc.add_flows(store.revocation_flows());
    reg.add("passive.flows.analyzed", store.revocation_flows().len() as u64);
    reg.add("passive.connections", acc.total);
    ctx.merge_metrics(&reg);
    Ok(acc.finish(store.strings()))
}

/// Analyzes only the store rows inside `[from, to]` (unix seconds,
/// inclusive) and — when `device` names a device — belonging to that
/// device, without touching the rest of the corpus. Chunk selection
/// goes through the store's pruning directory
/// ([`SegmentedStore::select_chunks`]): segments whose time range or
/// device bitmap miss the predicate are skipped without a single
/// frame read, surviving chunks are scanned and filtered exactly by
/// [`PassiveAccumulator::add_chunk_window`]. Byte-identical to
/// filtering a full analysis, at any `IOTLS_THREADS`.
///
/// Alongside the usual `passive.*` counters (which here reflect the
/// slice, not the corpus), the pruning work is recorded as
/// `capture.store.*` counters: `segments_scanned` /
/// `segments_skipped`, `chunks.scanned` / `chunks.pruned`, and
/// `bytes.read` / `bytes.total` (frame payload bytes actually fetched
/// during this call vs held by the whole store).
pub fn analyze_store_slice(
    store: &SegmentedStore,
    from: i64,
    to: i64,
    device: Option<&str>,
    ctx: &ExperimentCtx,
) -> Result<PassiveAnalysis, StoreError> {
    let mut reg = Registry::new();
    // `Some(None)` = a device filter that matches no observed device:
    // the slice is empty by construction, not an error.
    let sym = device.map(|name| store.strings().lookup(name));
    let selected: Vec<usize> = match sym {
        Some(None) => Vec::new(),
        Some(Some(d)) => store.select_chunks(from, to, Some(d)),
        None => store.select_chunks(from, to, None),
    };
    let filter_dev: Option<Symbol> = sym.flatten();

    let scanned: BTreeSet<usize> = selected.iter().map(|&i| store.segment_of(i)).collect();
    let bytes_before = store.frame_bytes_read();
    let shards = shard_ranges(selected.len(), ctx.threads());
    let partials = iotls_simnet::ordered_map_with(ctx.threads(), shards, |(lo, hi)| {
        let mut acc = PassiveAccumulator::new();
        let mut rows = 0u64;
        store.scan(selected[lo..hi].iter().copied(), |chunk| {
            rows += acc.add_chunk_window(chunk, from, to, filter_dev);
        })?;
        Ok::<_, StoreError>((acc, rows))
    });
    let mut acc = PassiveAccumulator::new();
    let mut rows = 0u64;
    for partial in partials {
        let (partial, shard_rows) = partial?;
        acc.merge(&partial);
        rows += shard_rows;
    }

    let flows: Vec<RevRow> = if matches!(sym, Some(None)) {
        Vec::new()
    } else {
        store
            .revocation_flows()
            .iter()
            .filter(|f| f.time >= from && f.time <= to && filter_dev.is_none_or(|d| d == f.device))
            .copied()
            .collect()
    };
    acc.add_flows(&flows);

    reg.add("passive.chunks.analyzed", selected.len() as u64);
    reg.add("passive.rows.analyzed", rows);
    reg.add("passive.flows.analyzed", flows.len() as u64);
    reg.add("passive.connections", acc.total);
    reg.add("capture.store.segments_scanned", scanned.len() as u64);
    reg.add(
        "capture.store.segments_skipped",
        (store.segment_count() - scanned.len()) as u64,
    );
    reg.add("capture.store.chunks.scanned", selected.len() as u64);
    reg.add(
        "capture.store.chunks.pruned",
        (store.chunk_count() - selected.len()) as u64,
    );
    reg.add("capture.store.bytes.read", store.frame_bytes_read() - bytes_before);
    reg.add("capture.store.bytes.total", store.frame_bytes_total());
    ctx.merge_metrics(&reg);
    Ok(acc.finish(store.strings()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotls_capture::{global_columnar, RevocationFlow};
    use iotls_simnet::TlsObservation;
    use std::sync::OnceLock;

    // ── Fold oracle ─────────────────────────────────────────────────
    //
    // The block scan is held to the row-wise scan it replaced: extend
    // a run one row at a time while every field `fold_run` reads stays
    // equal, fold it once when the window accepts its head row.

    /// A time window and optional device, as `add_chunk_window` takes.
    type Window = (i64, i64, Option<Symbol>);

    /// True when rows `a` and `b` are identical in every field
    /// `fold_run` reads (`count` excluded — runs sum it). Spans compare
    /// by pool offset and length, the negotiated suite only under its
    /// has-suite flag.
    fn same_fold_shape(c: &Columns<'_>, a: usize, b: usize) -> bool {
        let neg_suite =
            |i: usize| (c.flags[i] & flag::HAS_NEG_SUITE != 0).then_some(c.neg_suite[i]);
        c.time[a] == c.time[b]
            && c.device[a] == c.device[b]
            && c.max_adv[a] == c.max_adv[b]
            && c.neg_version[a] == c.neg_version[b]
            && neg_suite(a) == neg_suite(b)
            && (c.flags[a] ^ c.flags[b]) & flag::REQUESTED_OCSP == 0
            && c.suites[a] == c.suites[b]
            && c.adv_versions[a] == c.adv_versions[b]
    }

    /// The row-wise oracle; returns the rows folded.
    fn fold_rowwise(acc: &mut PassiveAccumulator, c: &Columns<'_>, window: Option<Window>) -> u64 {
        let n = c.time.len();
        let mut folded = 0;
        let mut i = 0;
        while i < n {
            let mut count = c.count[i];
            let mut j = i + 1;
            while j < n && same_fold_shape(c, i, j) {
                count += c.count[j];
                j += 1;
            }
            let (t, d) = (c.time[i], c.device[i]);
            let inside = |(from, to, dev): Window| {
                t >= from && t <= to && dev.is_none_or(|s| s.0 == d)
            };
            if window.is_none_or(inside) {
                acc.fold_run(c, i, count);
                folded += (j - i) as u64;
            }
            i = j;
        }
        folded
    }

    /// The block scan exactly as `add_chunk` / `add_chunk_window` run
    /// it, over a column set that need not come from a chunk.
    fn fold_blocks(acc: &mut PassiveAccumulator, c: &Columns<'_>, window: Option<Window>) -> u64 {
        match window {
            None => acc.fold_runs(c, |lo, hi| all_rows(hi - lo)),
            Some((from, to, device)) => {
                acc.fold_runs(c, |lo, hi| window_rows(c, lo, hi, from, to, device))
            }
        }
    }

    /// Folds `c` whole and through every window both ways and demands
    /// equal accumulators, equal `finish()` output and equal folded-row
    /// counts.
    fn assert_matches_oracle(c: &Columns<'_>, strings: &Interner, windows: &[Window], what: &str) {
        for window in std::iter::once(None).chain(windows.iter().copied().map(Some)) {
            let (mut got, mut want) = (PassiveAccumulator::new(), PassiveAccumulator::new());
            let folded = fold_blocks(&mut got, c, window);
            let oracle = fold_rowwise(&mut want, c, window);
            assert_eq!(folded, oracle, "{what}: rows folded, {window:?}");
            if window.is_none() {
                assert_eq!(folded, c.time.len() as u64, "{what}: every row folds");
            }
            assert_eq!(got, want, "{what}: accumulator, {window:?}");
            assert_eq!(got.finish(strings), want.finish(strings), "{what}: finish, {window:?}");
        }
    }

    /// An owned column set, so a test can lay down rows the chunk
    /// writer never produces: a raw suite under an unset has-suite flag,
    /// equal spans at different pool offsets.
    #[derive(Default)]
    struct Table {
        time: Vec<i64>,
        device: Vec<u32>,
        max_adv: Vec<u16>,
        neg_version: Vec<u16>,
        neg_suite: Vec<u16>,
        flags: Vec<u8>,
        suites: Vec<(u32, u16)>,
        adv_versions: Vec<(u32, u16)>,
        count: Vec<u64>,
        unread_u32: Vec<u32>,
        unread_spans: Vec<(u32, u16)>,
    }

    /// The fold-relevant fields of one hand-built row.
    #[derive(Clone, Copy, Debug)]
    struct Shape {
        time: i64,
        device: u32,
        max_adv: u16,
        neg_version: u16,
        neg_suite: u16,
        flags: u8,
        suites: (u32, u16),
        adv_versions: (u32, u16),
    }

    /// The u16 pool every hand-built table shares: suite lists at 0,
    /// 2 (equal content, another offset) and 4, version lists at 5, 7
    /// (equal content, another offset) and 9.
    const POOL: [u16; 10] = [
        0xc02f, 0x0005, 0xc02f, 0x0005, 0x002f, 0x0303, 0x0304, 0x0303, 0x0304, 0x0302,
    ];

    impl Table {
        fn push(&mut self, s: Shape, rows: usize) {
            for _ in 0..rows {
                self.time.push(s.time);
                self.device.push(s.device);
                self.max_adv.push(s.max_adv);
                self.neg_version.push(s.neg_version);
                self.neg_suite.push(s.neg_suite);
                self.flags.push(s.flags);
                self.suites.push(s.suites);
                self.adv_versions.push(s.adv_versions);
                // Counts vary inside a run, so its sum is load-bearing.
                self.count.push(1 + self.count.len() as u64 % 3);
                self.unread_u32.push(0);
                self.unread_spans.push((0, 0));
            }
        }

        /// The first `n` rows as a column view.
        fn columns(&self, n: usize) -> Columns<'_> {
            Columns {
                time: &self.time[..n],
                device: &self.device[..n],
                destination: &self.unread_u32[..n],
                sni: &self.unread_u32[..n],
                fingerprint: &self.unread_u32[..n],
                adv_versions: &self.adv_versions[..n],
                max_adv: &self.max_adv[..n],
                suites: &self.suites[..n],
                neg_version: &self.neg_version[..n],
                neg_suite: &self.neg_suite[..n],
                leaf_issuer: &self.unread_u32[..n],
                alerts_c2s: &self.unread_spans[..n],
                alerts_s2c: &self.unread_spans[..n],
                flags: &self.flags[..n],
                count: &self.count[..n],
                pool_u16: &POOL,
                pool_u8: &[],
            }
        }
    }

    #[test]
    fn block_scan_matches_the_rowwise_oracle_on_hand_built_chunks() {
        let mut strings = Interner::new();
        let (cam, hub) = (strings.intern("Cam A"), strings.intern("Hub B"));
        let jan = Month::new(2019, 1).start().0;
        let (t0, t1, t2) = (jan + 3 * 86_400, jan + 9 * 86_400, Month::new(2019, 2).start().0);
        let all = flag::REQUESTED_OCSP | flag::HAS_NEG_SUITE | flag::ESTABLISHED;
        let base = Shape {
            time: t0,
            device: cam.0,
            max_adv: 0x0303,
            neg_version: 0x0303,
            neg_suite: 0xc02f,
            flags: all,
            suites: (0, 2),
            adv_versions: (5, 2),
        };
        let no_suite = Shape { flags: flag::REQUESTED_OCSP, neg_suite: 0, ..base };
        // Each neighbour of `base` changes one column alone; the last
        // ones change what the fold never reads, or change a column
        // only in a way the fold cannot see.
        let variants = [
            Shape { time: t1, ..base },
            Shape { time: t2, ..base },
            Shape { device: hub.0, ..base },
            Shape { max_adv: 0x0304, ..base },
            Shape { max_adv: 0x0302, ..base },
            Shape { neg_version: 0x0304, ..base },
            Shape { neg_version: 0, ..base },
            Shape { neg_suite: 0x002f, ..base },
            Shape { neg_suite: 0x0005, ..base },
            Shape { flags: all & !flag::REQUESTED_OCSP, ..base },
            Shape { flags: all & !flag::HAS_NEG_SUITE, ..base },
            Shape { suites: (4, 1), ..base },
            Shape { adv_versions: (9, 1), ..base },
            Shape { flags: all & !flag::ESTABLISHED, ..base },
            Shape { suites: (2, 2), ..base },
            Shape { adv_versions: (7, 2), ..base },
            Shape { neg_suite: 0x1234, ..no_suite },
            no_suite,
        ];
        // Run lengths on both sides of every block edge.
        let lengths = [1, 2, 63, 64, 65, 5, 130, 1, 3, 127, 128, 129, 7, 64];
        let mut table = Table::default();
        for (k, v) in variants.iter().enumerate() {
            table.push(base, lengths[k % lengths.len()]);
            table.push(*v, lengths[(k + 5) % lengths.len()]);
        }
        table.push(no_suite, 70);
        let windows = [
            (t0, t0, None),
            (t0, t0, Some(cam)),
            (t1, t1, None),
            (t0, t1, Some(hub)),
            (t1, t2, Some(cam)),
            (t2, t2, Some(hub)),
            (t0 + 1, t2 - 1, None),
            (i64::MIN, i64::MAX, None),
            (i64::MIN, i64::MAX, Some(Symbol(7))),
        ];
        let n = table.time.len();
        assert!(n > 1_000, "the layout must cross many blocks ({n} rows)");
        for rows in [0, 1, 63, 64, 65, 129, n] {
            let what = format!("{rows} rows");
            assert_matches_oracle(&table.columns(rows), &strings, &windows, &what);
        }
        // Every variant alone beside its base, at both block phases.
        for (k, v) in variants.iter().enumerate() {
            for lead in [1, 63, 64] {
                let mut t = Table::default();
                t.push(base, lead);
                t.push(*v, 66);
                t.push(base, 2);
                let what = format!("variant {k} after {lead} base rows");
                assert_matches_oracle(&t.columns(t.time.len()), &strings, &windows, &what);
            }
        }
    }

    #[test]
    fn block_scan_matches_the_rowwise_oracle_on_generated_chunks() {
        use iotls_devices::Testbed;
        for per_row in [4, 1] {
            // Whole-chunk folds, then two windows per chunk: a bound on
            // the time of the middle row's run, and the first row's
            // month and device — the shape of a longitudinal slice.
            let mut got: [PassiveAccumulator; 3] = Default::default();
            let mut want = got.clone();
            let mut chunks = 0;
            let capture = ExperimentCtx::new(iotls_capture::DEFAULT_SEED).capture_ctx();
            let tail = capture.generate_streamed(Testbed::global(), per_row, &mut |chunk| {
                let c = chunk.columns();
                let mid = c.time[c.time.len() / 2];
                let month = Timestamp(c.time[0]).month();
                let windows = [
                    None,
                    Some((mid, mid, None)),
                    Some((month.start().0, month.end().0, Some(Symbol(c.device[0])))),
                ];
                for (k, window) in windows.into_iter().enumerate() {
                    let (mut g, mut w) = (PassiveAccumulator::new(), PassiveAccumulator::new());
                    let rows = match window {
                        None => {
                            g.add_chunk(&chunk);
                            chunk.len() as u64
                        }
                        Some((from, to, device)) => g.add_chunk_window(&chunk, from, to, device),
                    };
                    let what = format!("{per_row}/row chunk {chunks} {window:?}");
                    assert_eq!(rows, fold_rowwise(&mut w, &c, window), "{what}");
                    assert_eq!(g, w, "{what}");
                    got[k].merge(&g);
                    want[k].merge(&w);
                }
                chunks += 1;
            });
            assert!(chunks > 60, "{per_row}/row: only {chunks} chunks");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.finish(&tail.strings), w.finish(&tail.strings), "{per_row}/row");
            }
        }
    }

    // ── Row-scan oracle ─────────────────────────────────────────────
    //
    // The per-row scans over a materialized row vector that the
    // accumulator replaced, kept verbatim as the reference the
    // production fold is held to: each re-scans the row vector and
    // accumulates per-row `f64`s. The row vector is decoded from the
    // columnar capture here, row by row through `ObsRef::observation`.

    /// One decoded row and the connections it stands for.
    struct Weighted {
        observation: TlsObservation,
        count: u64,
    }

    /// The capture as the row scans read it.
    struct Rows {
        observations: Vec<Weighted>,
        revocation_flows: Vec<RevocationFlow>,
    }

    impl Rows {
        fn decode(ds: &ColumnarDataset) -> Rows {
            let observations = ds
                .rows()
                .map(|r| Weighted {
                    observation: r.observation(),
                    count: r.raw.count(),
                })
                .collect();
            let revocation_flows = ds
                .revocation_flows
                .iter()
                .map(|f| RevocationFlow {
                    time: Timestamp(f.time),
                    device: ds.strings.resolve(f.device).to_string(),
                    kind: f.kind,
                    url: ds.strings.resolve(f.url).to_string(),
                    count: f.count,
                })
                .collect();
            Rows {
                observations,
                revocation_flows,
            }
        }

        /// Device names present in the rows, sorted.
        fn device_names(&self) -> Vec<String> {
            let names: BTreeSet<&str> = self
                .observations
                .iter()
                .map(|w| w.observation.device.as_str())
                .collect();
            names.into_iter().map(String::from).collect()
        }

        /// All rows from one device.
        fn device_observations(&self, device: &str) -> Vec<&Weighted> {
            self.observations
                .iter()
                .filter(|w| w.observation.device == device)
                .collect()
        }
    }

    /// Builds the Figure 1 series.
    fn version_series(ds: &Rows) -> Series<VersionMix> {
        let mut acc: Series<(u64, VersionMix)> = BTreeMap::new();
        for w in &ds.observations {
            let o = &w.observation;
            let cell = acc
                .entry(o.device.clone())
                .or_default()
                .entry(o.time.month())
                .or_insert((0, VersionMix::default()));
            cell.0 += w.count;
            let c = w.count as f64;
            match o.max_advertised {
                ProtocolVersion::Tls13 => cell.1.adv_tls13 += c,
                ProtocolVersion::Tls12 => cell.1.adv_tls12 += c,
                _ => cell.1.adv_older += c,
            }
            match o.negotiated_version {
                Some(ProtocolVersion::Tls13) => cell.1.est_tls13 += c,
                Some(ProtocolVersion::Tls12) => cell.1.est_tls12 += c,
                Some(_) => cell.1.est_older += c,
                None => {}
            }
        }
        normalize(acc, |mix, total| {
            mix.adv_tls13 /= total;
            mix.adv_tls12 /= total;
            mix.adv_older /= total;
            mix.est_tls13 /= total;
            mix.est_tls12 /= total;
            mix.est_older /= total;
        })
    }

    /// Builds the Figures 2–3 series.
    fn cipher_series(ds: &Rows) -> Series<CipherMix> {
        let mut acc: Series<(u64, CipherMix)> = BTreeMap::new();
        for w in &ds.observations {
            let o = &w.observation;
            let cell = acc
                .entry(o.device.clone())
                .or_default()
                .entry(o.time.month())
                .or_insert((0, CipherMix::default()));
            cell.0 += w.count;
            let c = w.count as f64;
            if o.advertises_insecure_suite() {
                cell.1.adv_insecure += c;
            }
            if o.negotiated_insecure_suite() {
                cell.1.est_insecure += c;
            }
            if o.advertises_forward_secrecy() {
                cell.1.adv_strong += c;
            }
            if o.negotiated_forward_secrecy() {
                cell.1.est_strong += c;
            }
        }
        normalize(acc, |mix, total| {
            mix.adv_insecure /= total;
            mix.est_insecure /= total;
            mix.adv_strong /= total;
            mix.est_strong /= total;
        })
    }

    fn normalize<T: Copy>(
        acc: Series<(u64, T)>,
        scale: impl Fn(&mut T, f64),
    ) -> Series<T> {
        acc.into_iter()
            .map(|(dev, months)| {
                let months = months
                    .into_iter()
                    .map(|(m, (total, mut mix))| {
                        if total > 0 {
                            scale(&mut mix, total as f64);
                        }
                        (m, mix)
                    })
                    .collect();
                (dev, months)
            })
            .collect()
    }

    /// Detects permanent upgrades of the dominant advertised version.
    fn version_transitions(ds: &Rows) -> Vec<VersionTransition> {
        let mut out = Vec::new();
        for device in ds.device_names() {
            // Dominant advertised max per month.
            let mut months: BTreeMap<Month, BTreeMap<ProtocolVersion, u64>> = BTreeMap::new();
            for w in ds.device_observations(&device) {
                *months
                    .entry(w.observation.time.month())
                    .or_default()
                    .entry(w.observation.max_advertised)
                    .or_insert(0) += w.count;
            }
            let dominant: Vec<(Month, ProtocolVersion)> = months
                .iter()
                .map(|(m, versions)| {
                    let v = versions
                        .iter()
                        .max_by_key(|(_, c)| **c)
                        .map(|(v, _)| *v)
                        .expect("non-empty month");
                    (*m, v)
                })
                .collect();
            // A transition: dominant version changes upward and never
            // reverts.
            for i in 1..dominant.len() {
                let (month, to) = dominant[i];
                let (_, from) = dominant[i - 1];
                if to > from && dominant[i..].iter().all(|(_, v)| *v == to) {
                    out.push(VersionTransition {
                        device: device.clone(),
                        month,
                        from,
                        to,
                    });
                    break;
                }
            }
        }
        out
    }

    /// Computes the §5.1 summary.
    fn passive_summary(ds: &Rows) -> PassiveSummary {
        let mut tls12_exclusive = Vec::new();
        let mut fig1 = Vec::new();
        let mut adv_insecure = Vec::new();
        let mut est_insecure = Vec::new();
        let mut adv_fs = Vec::new();
        let mut mostly_without_fs = Vec::new();
        let mut null_anon = false;
        let mut total: u64 = 0;
        let mut tls13: u64 = 0;
        let mut rc4: u64 = 0;

        for device in ds.device_names() {
            let obs = ds.device_observations(&device);
            let mut only_tls12 = true;
            let mut dev_adv_insecure = false;
            let mut dev_est_insecure = false;
            let mut dev_adv_fs = false;
            let mut fs_conns: u64 = 0;
            let mut est_conns: u64 = 0;
            for w in &obs {
                let o = &w.observation;
                total += w.count;
                if o.advertised_versions.contains(&ProtocolVersion::Tls13) {
                    tls13 += w.count;
                }
                if o.offered_suites.iter().any(|s| {
                    iotls_tls::ciphersuite::by_id(*s).is_some_and(|i| {
                        matches!(
                            i.cipher,
                            iotls_tls::BulkCipher::Rc4_40 | iotls_tls::BulkCipher::Rc4_128
                        )
                    })
                }) {
                    rc4 += w.count;
                }
                if o.max_advertised != ProtocolVersion::Tls12
                    || o.negotiated_version
                        .is_some_and(|v| v != ProtocolVersion::Tls12)
                {
                    only_tls12 = false;
                }
                if o.offered_suites
                    .iter()
                    .any(|s| iotls_tls::ciphersuite::id_is_null_or_anon(*s))
                {
                    null_anon = true;
                }
                dev_adv_insecure |= o.advertises_insecure_suite();
                dev_est_insecure |= o.negotiated_insecure_suite();
                dev_adv_fs |= o.advertises_forward_secrecy();
                if o.negotiated_suite.is_some() {
                    est_conns += w.count;
                    if o.negotiated_forward_secrecy() {
                        fs_conns += w.count;
                    }
                }
            }
            if only_tls12 {
                tls12_exclusive.push(device.clone());
            } else {
                fig1.push(device.clone());
            }
            if dev_adv_insecure {
                adv_insecure.push(device.clone());
            }
            if dev_est_insecure {
                est_insecure.push(device.clone());
            }
            if dev_adv_fs {
                adv_fs.push(device.clone());
            }
            if est_conns > 0 && fs_conns * 2 < est_conns {
                mostly_without_fs.push(device.clone());
            }
        }

        PassiveSummary {
            tls12_exclusive_devices: tls12_exclusive,
            fig1_devices: fig1,
            null_anon_seen: null_anon,
            devices_advertising_insecure: adv_insecure,
            devices_establishing_insecure: est_insecure,
            devices_advertising_fs: adv_fs,
            devices_mostly_without_fs: mostly_without_fs,
            pct_connections_tls13: 100.0 * tls13 as f64 / total.max(1) as f64,
            pct_connections_rc4: 100.0 * rc4 as f64 / total.max(1) as f64,
        }
    }

    /// Computes Table 8 from passive data: CRL/OCSP from revocation
    /// endpoint flows, stapling from `status_request` in ClientHellos.
    fn revocation_summary(ds: &Rows) -> RevocationSummary {
        let mut crl = BTreeSet::new();
        let mut ocsp = BTreeSet::new();
        for f in &ds.revocation_flows {
            match f.kind {
                RevocationKind::CrlFetch => crl.insert(f.device.clone()),
                RevocationKind::OcspQuery => ocsp.insert(f.device.clone()),
            };
        }
        let mut stapling = BTreeSet::new();
        for w in &ds.observations {
            if w.observation.requested_ocsp {
                stapling.insert(w.observation.device.clone());
            }
        }
        RevocationSummary {
            crl: crl.into_iter().collect(),
            ocsp: ocsp.into_iter().collect(),
            ocsp_stapling: stapling.into_iter().collect(),
        }
    }

    /// The sorted, distinct months with traffic (the heatmap x-axis).
    fn month_axis(ds: &Rows) -> Vec<Month> {
        let mut months: Vec<Month> = ds
            .observations
            .iter()
            .map(|o| o.observation.time.month())
            .collect();
        months.sort();
        months.dedup();
        months
    }

    /// The production fold over the seed-scale capture — the one
    /// analysis the paper-finding tests below read.
    fn analysis() -> &'static PassiveAnalysis {
        static A: OnceLock<PassiveAnalysis> = OnceLock::new();
        A.get_or_init(|| analyze_columnar(global_columnar(), &ExperimentCtx::new(0)))
    }

    fn summary() -> &'static PassiveSummary {
        &analysis().summary
    }

    #[test]
    fn twenty_eight_tls12_exclusive_devices() {
        let s = summary();
        assert_eq!(
            s.tls12_exclusive_devices.len(),
            28,
            "{:?}",
            s.fig1_devices
        );
        assert_eq!(s.fig1_devices.len(), 12);
    }

    #[test]
    fn null_anon_never_seen() {
        assert!(!summary().null_anon_seen);
    }

    #[test]
    fn thirty_four_devices_advertise_insecure_suites() {
        let s = summary();
        assert_eq!(s.devices_advertising_insecure.len(), 34);
    }

    #[test]
    fn only_wink_and_lg_establish_insecure_suites() {
        let s = summary();
        assert_eq!(
            s.devices_establishing_insecure,
            vec!["LG TV".to_string(), "Wink Hub 2".to_string()]
        );
    }

    #[test]
    fn thirty_three_devices_advertise_forward_secrecy() {
        assert_eq!(summary().devices_advertising_fs.len(), 33);
    }

    #[test]
    fn many_devices_mostly_lack_forward_secrecy() {
        // §5.1: 22 devices establish most connections without PFS.
        let n = summary().devices_mostly_without_fs.len();
        assert!((18..=26).contains(&n), "{n}");
    }

    #[test]
    fn prior_work_comparison_shape() {
        let s = summary();
        assert!(
            (8.0..=30.0).contains(&s.pct_connections_tls13),
            "TLS 1.3 share {:.1}% should sit near the paper's ≈17%",
            s.pct_connections_tls13
        );
        assert!(
            (40.0..=75.0).contains(&s.pct_connections_rc4),
            "RC4 share {:.1}% should sit near the paper's ≈60%",
            s.pct_connections_rc4
        );
    }

    #[test]
    fn transitions_include_the_three_upgrades() {
        let transitions = &analysis().transitions;
        let find = |d: &str| transitions.iter().find(|t| t.device == d);
        let ghm = find("Google Home Mini").expect("GHM transition");
        assert_eq!(ghm.month, Month::new(2019, 5));
        assert_eq!(ghm.to, ProtocolVersion::Tls13);
        let atv = find("Apple TV").expect("Apple TV transition");
        assert_eq!(atv.month, Month::new(2019, 5));
        assert_eq!(atv.to, ProtocolVersion::Tls13);
        let blink = find("Blink Hub").expect("Blink Hub transition");
        assert_eq!(blink.month, Month::new(2018, 7));
        assert_eq!(blink.to, ProtocolVersion::Tls12);
    }

    #[test]
    fn wemo_always_older_in_version_series() {
        let wemo = &analysis().version_series["Wemo Plug"];
        for (month, mix) in wemo {
            assert!(
                (mix.adv_older - 1.0).abs() < 1e-9,
                "{month}: {mix:?}"
            );
        }
    }

    #[test]
    fn blink_hub_cipher_cleanup_visible_in_series() {
        let blink = &analysis().cipher_series["Blink Hub"];
        assert!(blink[&Month::new(2019, 4)].adv_insecure > 0.9);
        assert!(blink[&Month::new(2019, 6)].adv_insecure < 0.1);
        // PFS adoption 10/2019.
        assert!(blink[&Month::new(2019, 9)].est_strong < 0.1);
        assert!(blink[&Month::new(2019, 11)].est_strong > 0.9);
    }

    #[test]
    fn accumulator_matches_legacy_row_scan_exactly() {
        let ds = &Rows::decode(global_columnar());
        let a = analysis();
        assert_eq!(a.version_series, version_series(ds));
        assert_eq!(a.cipher_series, cipher_series(ds));
        assert_eq!(a.transitions, version_transitions(ds));
        assert_eq!(a.summary, passive_summary(ds));
        assert_eq!(a.revocation, revocation_summary(ds));
        assert_eq!(a.month_axis, month_axis(ds));
        assert_eq!(a.device_names, ds.device_names());
        assert_eq!(a.device_names, global_columnar().device_names());
        assert_eq!(a.total_connections, global_columnar().total_connections());
    }

    #[test]
    fn accumulator_partials_merge_associatively() {
        let cds = global_columnar();
        let whole = analysis();

        // Split the chunk stream across two partials, flows in the
        // second, then merge in the "wrong" order.
        let mid = cds.chunks.len() / 2;
        let mut a = PassiveAccumulator::new();
        for chunk in &cds.chunks[..mid] {
            a.add_chunk(chunk);
        }
        let mut b = PassiveAccumulator::new();
        for chunk in &cds.chunks[mid..] {
            b.add_chunk(chunk);
        }
        b.add_flows(&cds.revocation_flows);
        b.merge(&a);
        assert_eq!(b.finish(&cds.strings), *whole);
    }

    #[test]
    fn streamed_analysis_matches_in_memory() {
        use iotls_devices::Testbed;
        let ctx = ExperimentCtx::new(iotls_capture::DEFAULT_SEED);
        let whole = analyze_columnar(global_columnar(), &ctx);
        let streamed = analyze_streamed(Testbed::global(), &ctx, u64::MAX);
        assert_eq!(streamed, whole);
    }

    #[test]
    fn row_expansion_preserves_analysis() {
        use iotls_devices::Testbed;
        // Splitting weighted rows into many unit rows must not change
        // any fraction, transition, or summary: the accumulator sums
        // the same integers.
        let ctx = ExperimentCtx::new(iotls_capture::DEFAULT_SEED);
        let whole = analyze_columnar(global_columnar(), &ctx);
        let split = analyze_streamed(Testbed::global(), &ctx, 50_000);
        assert_eq!(split, whole);
    }

    #[test]
    fn revocation_summary_matches_table8() {
        let r = &analysis().revocation;
        assert_eq!(r.crl, vec!["Samsung TV".to_string()]);
        assert_eq!(r.ocsp.len(), 3);
        assert!(r.ocsp.contains(&"Apple TV".to_string()));
        assert!(r.ocsp.contains(&"Apple HomePod".to_string()));
        assert!(r.ocsp.contains(&"Samsung TV".to_string()));
        assert_eq!(r.ocsp_stapling.len(), 12, "{:?}", r.ocsp_stapling);
        // 28 devices never exercise any mechanism.
        assert_eq!(r.devices_without_any(&analysis().device_names).len(), 28);
    }
}

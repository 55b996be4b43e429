//! The workload generator: replays the 27-month study schedule.
//!
//! The schedule itself comes from the event-driven study timeline
//! ([`crate::timeline`]): the generator pops `CaptureRoll` events in
//! causal order, and for each device-month drives one *real*
//! byte-level handshake per destination between the device's TLS
//! instance (as configured in that month's phase) and the
//! destination's legitimate server, tapped by the passive gateway —
//! then weights the resulting observation by the destination's
//! (jittered) monthly connection rate. Identical (device,
//! destination, phase) combinations reuse the driven handshake, which
//! is metadata-identical, keeping the full two-year dataset fast to
//! generate.
//!
//! Output is columnar from the start: each parallel lane interns its
//! strings and fingerprints locally and appends rows to a lane-local
//! [`DatasetBuilder`]; the sequential merge walks events in timeline
//! order, remaps lane symbols into the shared tables, and streams
//! sealed [`ObsChunk`]s to the caller's sink.
//! [`CaptureCtx::generate_streamed`]
//! can additionally split each weighted row into many physical rows
//! (`max_count_per_row`): at one connection per row that
//! materializes a paper-scale (≥10M-row) stream from the seed
//! schedule while holding only one open chunk in memory (the
//! `passive_pipeline` benchmark workload runs it at four).

use crate::columnar::{
    ChunkWriter, ColumnarDataset, ColumnarStats, DatasetBuilder, ObsChunk, RevRow, RowView,
    CHUNK_ROWS,
};
use iotls_obs::{Registry, SharedRegistry};
use crate::dataset::RevocationKind;
use crate::intern::{DigestInterner, Interner, Symbol};
use crate::timeline::{build_timeline, StudyEvent};
use iotls_crypto::drbg::Drbg;
use iotls_devices::{DeviceSetup, Testbed};
use iotls_simnet::{
    drive_session, record_session_metrics, DriveScratch, FaultPlan, GatewayTap, LinkConditioner,
    SessionFaults, SessionParams, SessionResult, TlsObservation,
};
use iotls_tls::client::ClientConnection;
use iotls_tls::middleware::Chain;
use iotls_tls::server::ServerConnection;
use iotls_x509::Month;
use std::collections::HashMap;
use std::fmt::Write as _;

/// How many times a faulted capture drive is re-driven before the
/// generator gives up and keeps whatever the tap managed to see.
const CAPTURE_RETRIES: usize = 6;

/// Everything a generation run needs beyond the testbed: the seed,
/// the fault schedule, the worker-count policy, and a metrics handle.
///
/// The context replaces the old `generate_with_faults` /
/// `generate_streamed_metered` variant matrix: construct one
/// [`CaptureCtx`], set the knobs that differ from the defaults, and
/// call [`CaptureCtx::generate_columnar`] (or the streamed shapes).
/// The thread count is resolved once at construction — from
/// `IOTLS_THREADS` via [`iotls_simnet::worker_count`] — instead of
/// deep inside every fan-out.
#[derive(Debug, Clone)]
pub struct CaptureCtx {
    seed: u64,
    plan: FaultPlan,
    threads: usize,
    metrics: SharedRegistry,
}

impl CaptureCtx {
    /// A context with default knobs: no faults, env-resolved worker
    /// count, no-op metrics.
    pub fn new(seed: u64) -> CaptureCtx {
        CaptureCtx {
            seed,
            plan: FaultPlan::none(),
            threads: iotls_simnet::worker_count(),
            metrics: SharedRegistry::noop(),
        }
    }

    /// Replaces the fault schedule.
    pub fn with_plan(mut self, plan: FaultPlan) -> CaptureCtx {
        self.plan = plan;
        self
    }

    /// Replaces the worker-count policy (`0`/`1` mean inline).
    pub fn with_threads(mut self, threads: usize) -> CaptureCtx {
        self.threads = threads;
        self
    }

    /// Replaces the metrics handle.
    pub fn with_metrics(mut self, metrics: SharedRegistry) -> CaptureCtx {
        self.metrics = metrics;
        self
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The injected-fault schedule.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The metrics handle recordings merge into.
    pub fn metrics(&self) -> &SharedRegistry {
        &self.metrics
    }

    /// Generates the columnar passive dataset, keeping every chunk in
    /// memory.
    pub fn generate_columnar(&self, testbed: &Testbed) -> ColumnarDataset {
        let mut chunks = Vec::new();
        let mut ds = self.generate_streamed(testbed, u64::MAX, &mut |c| chunks.push(c));
        ds.chunks = chunks;
        ds
    }

    /// Generates the dataset as a stream of sealed columnar chunks in
    /// bounded memory.
    ///
    /// Every weighted row is split into
    /// `count.div_ceil(max_count_per_row)` physical rows whose counts
    /// sum exactly to the original (`u64::MAX` reproduces the seed
    /// row stream verbatim); sealed chunks are handed to `sink` as
    /// they fill, and the returned dataset carries the intern tables,
    /// revocation flows, and truncation tally but **no chunks** — the
    /// sink saw them all. Faulted drives are retried and truncated
    /// captures counted, so the output is byte-identical to a
    /// fault-free run of the same seed.
    pub fn generate_streamed(
        &self,
        testbed: &Testbed,
        max_count_per_row: u64,
        sink: &mut dyn FnMut(ObsChunk),
    ) -> ColumnarDataset {
        self.generate_folded(testbed, max_count_per_row, &|c| c, &mut |c| sink(c))
    }

    /// [`generate_streamed`](Self::generate_streamed) with a
    /// chunk-fold stage fused into the parallel builders: `fold` runs
    /// **on the worker that sealed the chunk** (so per-chunk analysis
    /// parallelizes with construction), and the folded values reach
    /// `emit` sequentially in chunk order. At most
    /// `threads` folded-but-unemitted chunks are in flight, keeping a
    /// streaming consumer's memory bounded. `generate_streamed` is
    /// the identity-fold special case.
    pub fn generate_folded<A: Send>(
        &self,
        testbed: &Testbed,
        max_count_per_row: u64,
        fold: &(dyn Fn(ObsChunk) -> A + Sync),
        emit: &mut dyn FnMut(A),
    ) -> ColumnarDataset {
        let mut local = Registry::new();
        let ds = streamed(self, testbed, max_count_per_row, fold, emit, &mut local);
        self.metrics.merge(&local);
        ds
    }
}

/// Generates the passive dataset for the whole testbed, driven by
/// the event timeline (no faults). Default-knob convenience for
/// [`CaptureCtx::generate_columnar`].
pub fn generate_columnar(testbed: &Testbed, seed: u64) -> ColumnarDataset {
    CaptureCtx::new(seed).generate_columnar(testbed)
}

/// One capture roll's output, as ranges into its lane's rows/flows.
struct EventOut {
    idx: usize,
    rows: (u32, u32),
    flows: (u32, u32),
    truncated: u64,
}

/// Everything one per-device lane produced: a lane-local columnar
/// dataset, per-event ranges for the timeline-order merge, and a
/// lane-local metrics shard (merged into the caller's registry in
/// roster order, so the totals are thread-count independent).
struct LaneOut {
    ds: ColumnarDataset,
    events: Vec<EventOut>,
    obs: Registry,
}

/// One weighted merged row, remapped into the shared tables and
/// pinned to its global expanded-row offset — the unit of work for
/// the parallel chunk builders of phase 2. The row's `count` field is
/// a placeholder; physical row `j` of the task carries
/// `base + (j < rem) as u64` so the splits sum exactly to the
/// weighted count.
struct Task<'a> {
    /// Global expanded-row offset of the task's first physical row.
    start: u64,
    /// Physical rows the task expands into (≥ 1).
    n: u64,
    /// Per-row count floor.
    base: u64,
    /// How many leading rows get `base + 1`.
    rem: u64,
    /// The remapped row (borrowing its lane's pools).
    row: RowView<'a>,
}

/// Lazily-built symbol translation from one lane's tables into the
/// shared output tables.
struct Remap {
    strings: Vec<u32>,
    fps: Vec<u32>,
}

const UNMAPPED: u32 = u32::MAX;

impl Remap {
    fn for_lane(lane: &LaneOut) -> Remap {
        Remap {
            strings: vec![UNMAPPED; lane.ds.strings.len()],
            fps: vec![UNMAPPED; lane.ds.fps.len()],
        }
    }

    fn sym(&mut self, from: &Interner, to: &mut Interner, s: Symbol) -> Symbol {
        let slot = &mut self.strings[s.index()];
        if *slot == UNMAPPED {
            *slot = to.intern(from.resolve(s)).0;
        }
        Symbol(*slot)
    }

    fn fp(&mut self, from: &DigestInterner, to: &mut DigestInterner, id: u32) -> u32 {
        let slot = &mut self.fps[id as usize];
        if *slot == UNMAPPED {
            *slot = to.intern(from.resolve(id));
        }
        *slot
    }
}

/// Looks up row `i` of a lane's chunk sequence.
fn lane_row(chunks: &[ObsChunk], mut i: usize) -> crate::columnar::RawRow<'_> {
    for c in chunks {
        if i < c.len() {
            return c.row(i);
        }
        i -= c.len();
    }
    unreachable!("row index out of lane range")
}

/// The streamed generator behind [`CaptureCtx::generate_streamed`].
///
/// The conditioner sits between the endpoints and the gateway tap, so
/// a session cut before a parseable ClientHello yields no observation;
/// the generator *counts* those truncated captures (rather than
/// silently dropping them, as a naive analyzer would) and re-drives
/// the faulted session — with the same handshake randomness but a
/// fresh fault draw — until a clean capture lands. DNS faults are an
/// active-lab concern; the generator only exercises link faults.
///
/// Every weighted row is split into `count.div_ceil(max_count_per_row)`
/// physical rows whose counts sum exactly to the original, so
/// `u64::MAX` reproduces the seed row stream verbatim while small
/// values materialize a paper-scale row volume. Sealed chunks are
/// handed to `sink` as they fill; the returned dataset carries the
/// intern tables, revocation flows, and truncation tally but **no
/// chunks** — the sink saw them all.
///
/// Metrics: each lane records its driven sessions (`sim.*`) and
/// builder counters into a lane-local [`Registry`] shard; shards
/// merge into `reg` in roster order, then the merge phase adds
/// `capture.*` counters (rows weighted/expanded, chunks streamed,
/// pool dedup, truncations) and intern-table-size gauges — all
/// byte-identical at any worker count.
///
/// The merge itself runs in two phases. Phase 1 walks the ordered
/// events **sequentially**, performing every intern-table remap in
/// timeline order (so the shared tables are byte-identical to the old
/// one-writer merge) and recording each weighted row as a [`Task`]
/// pinned to its global expanded-row offset. Phase 2 builds the
/// sealed chunks **in parallel**: chunk `k` covers the fixed global
/// row range `[k·CHUNK_ROWS, (k+1)·CHUNK_ROWS)`, and because
/// [`ChunkWriter::take`] resets the dedup maps at every seal, a
/// chunk's bytes and stats depend only on its own rows — per-chunk
/// construction with a fresh writer is byte- and counter-identical to
/// one writer pushing row by row, at any worker count.
fn streamed<A: Send>(
    ctx: &CaptureCtx,
    testbed: &Testbed,
    max_count_per_row: u64,
    fold: &(dyn Fn(ObsChunk) -> A + Sync),
    emit: &mut dyn FnMut(A),
    reg: &mut Registry,
) -> ColumnarDataset {
    let sampler = ctx.plan.sampler();
    let root_rng = Drbg::from_seed(ctx.seed);

    // Split the timeline's capture rolls into per-device lanes. Every
    // RNG draw is forked per (device, month) and the handshake cache is
    // keyed per device, so lanes are independent; each lane walks its
    // own months in timeline order, and the per-event outputs are
    // re-merged by global event index below — byte-identical to the
    // sequential interleaving at any worker count.
    let mut lanes: Vec<(String, Vec<(usize, Month)>)> = Vec::new();
    let mut lane_of: HashMap<String, usize> = HashMap::new();
    for (idx, (_at, event)) in build_timeline(testbed).into_iter().enumerate() {
        let StudyEvent::CaptureRoll { device, month } = event else {
            continue; // joins/retirements/updates need no capture action
        };
        let lane = *lane_of.entry(device.clone()).or_insert_with(|| {
            lanes.push((device.clone(), Vec::new()));
            lanes.len() - 1
        });
        lanes[lane].1.push((idx, month));
    }

    let lane_outs = iotls_simnet::ordered_map_with(ctx.threads, lanes, |(device_name, months)| {
        let device = testbed.device(&device_name);
        // Cache of driven handshakes keyed by (dest index, phase
        // start) — the observation metadata is identical within a
        // phase. One reusable tap chain serves every drive in the lane.
        let mut cache: HashMap<(usize, Month), Option<TlsObservation>> = HashMap::new();
        let mut chain = Chain::new().with(Box::new(GatewayTap::new()));
        let mut scratch = DriveScratch::new();
        let mut fault_key = String::new();
        let mut obs_reg = Registry::new();
        let mut b = DatasetBuilder::new();
        let mut chunks = Vec::new();
        let mut row_n = 0u32;
        let mut events = Vec::with_capacity(months.len());
        for (idx, month) in months {
            let mut truncated = 0u64;
            let row_start = row_n;
            let flow_start = b.revocation_flows.len() as u32;
            let mut rng = root_rng.fork(&format!("capture/{}/{}", device.spec.name, month));
            let phase_start = device
                .spec
                .phases
                .iter()
                .filter(|p| p.start <= month)
                .map(|p| p.start)
                .next_back()
                .unwrap_or(device.spec.phases[0].start);
            for (dest_idx, dest) in device.spec.destinations.iter().enumerate() {
                let observation = cache.entry((dest_idx, phase_start)).or_insert_with(|| {
                    let mut tries = 0;
                    loop {
                        let faults = if sampler.is_none() {
                            SessionFaults::none()
                        } else {
                            fault_key.clear();
                            write!(
                                fault_key,
                                "capture/{}/{}/{}/try{}",
                                device.spec.name, dest.hostname, month, tries
                            )
                            .expect("formatting into a String cannot fail");
                            sampler.session_faults(&fault_key)
                        };
                        let result = drive_one(
                            testbed, device, dest_idx, month, &mut rng, faults, &mut chain,
                            &mut scratch,
                        );
                        record_session_metrics(&mut obs_reg, &result);
                        if result.observation.is_none() {
                            // Cut before a parseable ClientHello:
                            // count it, don't just drop it.
                            truncated += 1;
                        }
                        if result.tainted() && tries + 1 < CAPTURE_RETRIES {
                            obs_reg.inc("capture.captures.retried");
                            tries += 1;
                            continue;
                        }
                        break result.observation;
                    }
                });
                let Some(obs) = observation else {
                    continue;
                };
                let base_rate = match dest.boost {
                    Some((from, to, boosted)) if from <= month && month <= to => boosted,
                    _ => dest.monthly_connections,
                };
                // ±20% deterministic jitter so months differ.
                let jitter = 80 + rng.below(41); // 80..=120 percent
                let count = (base_rate as u64 * jitter) / 100;
                if count == 0 {
                    continue;
                }
                // Stamp the month (mid-month noon keeps it inside the
                // bucket regardless of month length).
                let mut stamped = obs.clone();
                stamped.time = month.start().plus_days(14).plus_secs(12 * 3600);
                b.push_obs(&stamped, count, &mut |c| chunks.push(c));
                row_n += 1;
            }

            // Revocation endpoint flows (Table 8's CRL/OCSP columns).
            if device.spec.revocation.crl {
                let dev = b.strings.intern(&device.spec.name);
                let url = b.strings.intern("http://crl.simtrust.example/latest.crl");
                b.revocation_flows.push(RevRow {
                    time: month.start().plus_days(3).0,
                    device: dev,
                    kind: RevocationKind::CrlFetch,
                    url,
                    count: 2 + rng.below(5),
                });
            }
            if device.spec.revocation.ocsp {
                let dev = b.strings.intern(&device.spec.name);
                let url = b.strings.intern("http://ocsp.simtrust.example");
                b.revocation_flows.push(RevRow {
                    time: month.start().plus_days(5).0,
                    device: dev,
                    kind: RevocationKind::OcspQuery,
                    url,
                    count: 10 + rng.below(30),
                });
            }
            events.push(EventOut {
                idx,
                rows: (row_start, row_n),
                flows: (flow_start, b.revocation_flows.len() as u32),
                truncated,
            });
        }
        b.flush(&mut |c| chunks.push(c));
        b.stats().export(&mut obs_reg, "capture.lane");
        LaneOut {
            ds: b.into_dataset(chunks),
            events,
            obs: obs_reg,
        }
    });
    for lane in &lane_outs {
        reg.merge(&lane.obs);
    }

    // Phase 1 — sequential remap in global timeline order: lane
    // symbols translate into the shared tables (every intern call in
    // the exact order the one-writer merge made them), and each
    // weighted row becomes a `Task` pinned to its global
    // expanded-row offset.
    let mut remaps: Vec<Remap> = lane_outs.iter().map(Remap::for_lane).collect();
    let mut ordered: Vec<(usize, &EventOut)> = lane_outs
        .iter()
        .enumerate()
        .flat_map(|(lane_i, lane)| lane.events.iter().map(move |e| (lane_i, e)))
        .collect();
    ordered.sort_by_key(|(_, e)| e.idx);

    let mut out = DatasetBuilder::new();
    let mut tasks: Vec<Task<'_>> = Vec::new();
    let mut total_rows = 0u64;
    for (lane_i, ev) in ordered {
        let lane = &lane_outs[lane_i];
        let remap = &mut remaps[lane_i];
        for i in ev.rows.0..ev.rows.1 {
            let raw = lane_row(&lane.ds.chunks, i as usize);
            let row = RowView {
                time: raw.time(),
                device: remap.sym(&lane.ds.strings, &mut out.strings, raw.device()),
                destination: remap.sym(&lane.ds.strings, &mut out.strings, raw.destination()),
                sni: raw
                    .sni()
                    .map(|s| remap.sym(&lane.ds.strings, &mut out.strings, s)),
                fingerprint: remap.fp(&lane.ds.fps, &mut out.fps, raw.fingerprint_id()),
                advertised_wire: raw.advertised_wire(),
                max_advertised_wire: raw.max_advertised_wire(),
                suites: raw.suites(),
                negotiated_version_wire: raw.negotiated_version_wire(),
                negotiated_suite: raw.negotiated_suite(),
                leaf_issuer: raw
                    .leaf_issuer()
                    .map(|s| remap.sym(&lane.ds.strings, &mut out.strings, s)),
                alerts_c2s: raw.alerts_c2s(),
                alerts_s2c: raw.alerts_s2c(),
                requested_ocsp: raw.requested_ocsp(),
                ocsp_stapled: raw.ocsp_stapled(),
                established: raw.established(),
                count: 0, // per-split count set by the chunk builders
            };
            // Split into n physical rows whose counts sum exactly to
            // the weighted count.
            let count = raw.count();
            let n = count.div_ceil(max_count_per_row.max(1));
            let (base, rem) = (count / n, count % n);
            reg.inc("capture.rows.weighted");
            reg.add("capture.rows.expanded", n);
            reg.add("capture.connections", count);
            tasks.push(Task {
                start: total_rows,
                n,
                base,
                rem,
                row,
            });
            total_rows += n;
        }
        for fi in ev.flows.0..ev.flows.1 {
            let f = lane.ds.revocation_flows[fi as usize];
            let device = remap.sym(&lane.ds.strings, &mut out.strings, f.device);
            let url = remap.sym(&lane.ds.strings, &mut out.strings, f.url);
            out.revocation_flows.push(RevRow { device, url, ..f });
        }
        out.truncated += ev.truncated;
    }

    // Phase 2 — parallel chunk construction over fixed global row
    // ranges. Tasks have strictly increasing starts and n ≥ 1, so the
    // first task overlapping a range is found by binary search; a
    // task's rows keep their `base + 1` (first `rem`) / `base` counts
    // wherever the chunk boundaries fall. Chunks are built in batches
    // of `threads` so at most that many sealed chunks are in memory,
    // then folded values are emitted in chunk order.
    let starts: Vec<u64> = tasks.iter().map(|t| t.start).collect();
    let chunk_rows = CHUNK_ROWS as u64;
    let chunk_count = total_rows.div_ceil(chunk_rows) as usize;
    let build = |k: usize| {
        let lo = k as u64 * chunk_rows;
        let hi = (lo + chunk_rows).min(total_rows);
        let mut w = ChunkWriter::new();
        let mut ti = starts.partition_point(|&s| s <= lo) - 1;
        let mut pos = lo;
        while pos < hi {
            let t = &tasks[ti];
            let end = (t.start + t.n).min(hi);
            let (j0, j1) = (pos - t.start, end - t.start);
            let boosted = j1.min(t.rem) - j0.min(t.rem);
            if boosted > 0 {
                let split = RowView {
                    count: t.base + 1,
                    ..t.row
                };
                w.push_repeated(&split, boosted as usize);
            }
            let rest = (j1 - j0) - boosted;
            if rest > 0 {
                let split = RowView {
                    count: t.base,
                    ..t.row
                };
                w.push_repeated(&split, rest as usize);
            }
            pos = end;
            ti += 1;
        }
        let chunk = w.take();
        (fold(chunk), w.stats())
    };
    let mut merge_stats = ColumnarStats::default();
    let mut next = 0usize;
    while next < chunk_count {
        let batch: Vec<usize> = (next..(next + ctx.threads.max(1)).min(chunk_count)).collect();
        next += batch.len();
        for (folded, stats) in iotls_simnet::ordered_map_with(ctx.threads, batch, build) {
            merge_stats.merge(&stats);
            emit(folded);
        }
    }
    reg.add("capture.captures.truncated", out.truncated);
    merge_stats.export(reg, "capture.merge");
    reg.set_gauge("capture.strings.interned", out.strings.len() as i64);
    reg.set_gauge("capture.fingerprints.interned", out.fps.len() as i64);
    out.into_dataset(Vec::new())
}

/// Drives one real handshake for (device, destination) in `month`,
/// through a link conditioner applying `faults`, observing through
/// the lane's reusable tap `chain` (a [`GatewayTap`] at slot 0). The
/// handshake randomness is keyed by (hostname, month) only, so
/// re-drives of a faulted session replay identical bytes.
#[allow(clippy::too_many_arguments)]
fn drive_one(
    testbed: &Testbed,
    device: &DeviceSetup,
    dest_idx: usize,
    month: Month,
    rng: &mut Drbg,
    faults: SessionFaults,
    chain: &mut Chain,
    scratch: &mut DriveScratch,
) -> SessionResult {
    let dest = &device.spec.destinations[dest_idx];
    let client_cfg = testbed.client_config_for(device, dest, month);
    let server_cfg = testbed.server_config(dest);
    let now = month.start().plus_days(14);
    let client = ClientConnection::with_scratch(
        client_cfg,
        &dest.hostname,
        now,
        rng.fork(&format!("client/{}/{}", dest.hostname, month)),
        scratch.take_client(),
    );
    let server = ServerConnection::with_scratch(
        server_cfg,
        rng.fork(&format!("server/{}/{}", dest.hostname, month)),
        scratch.take_server(),
    );
    let payload = dest.payload.as_deref().unwrap_or("ping");
    // A drawn DNS fault is dropped: the capture resolves nothing.
    let mut conditioner = LinkConditioner::new(SessionFaults {
        ops: faults.ops,
        dns: None,
    });
    GatewayTap::in_chain(chain).reset();
    let mut result = drive_session(
        client,
        server,
        SessionParams {
            client_payload: Some(payload.as_bytes()),
            server_payload: Some(b"ok"),
        },
        &mut conditioner,
        chain,
        scratch,
    );
    let tap = GatewayTap::in_chain(chain);
    result.records_deframed = tap.records_deframed();
    result.observation = tap.take_observation(now, &device.spec.name, &dest.hostname);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotls_tls::version::ProtocolVersion;
    use std::sync::OnceLock;

    fn dataset() -> &'static ColumnarDataset {
        static DS: OnceLock<ColumnarDataset> = OnceLock::new();
        DS.get_or_init(|| generate_columnar(Testbed::global(), 0xCAFE))
    }

    #[test]
    fn dataset_covers_all_40_devices() {
        assert_eq!(dataset().device_names().len(), 40);
    }

    #[test]
    fn total_connections_in_paper_range() {
        // §4.1: ≈17M connections.
        let total = dataset().total_connections();
        assert!(
            (14_000_000..=20_000_000).contains(&total),
            "total {total} outside the ≈17M target band"
        );
    }

    #[test]
    fn per_device_minimum_activity() {
        // Every device generated traffic for at least 6 months.
        for name in dataset().device_names() {
            let months: std::collections::BTreeSet<_> = dataset()
                .device_rows(&name)
                .map(|o| o.observation().time.month())
                .collect();
            assert!(months.len() >= 6, "{name}: {} months", months.len());
        }
    }

    #[test]
    fn most_connections_establish() {
        let total = dataset().total_connections();
        let established: u64 = dataset()
            .rows()
            .filter(|o| o.observation().established)
            .map(|o| o.raw.count())
            .sum();
        assert!(
            established * 10 >= total * 9,
            "only {established}/{total} established"
        );
    }

    #[test]
    fn wemo_always_advertises_deprecated_version() {
        // Fig. 1's one all-deprecated device.
        for o in dataset().device_rows("Wemo Plug") {
            assert_eq!(o.observation().max_advertised, ProtocolVersion::Tls10);
        }
    }

    #[test]
    fn google_home_mini_transitions_to_tls13_in_may_2019() {
        let before: Vec<_> = dataset()
            .device_rows("Google Home Mini")
            .map(|o| o.observation())
            .filter(|o| o.time.month() < Month::new(2019, 5))
            .collect();
        let after: Vec<_> = dataset()
            .device_rows("Google Home Mini")
            .map(|o| o.observation())
            .filter(|o| o.time.month() >= Month::new(2019, 5))
            .collect();
        assert!(!before.is_empty() && !after.is_empty());
        assert!(before
            .iter()
            .all(|o| o.max_advertised == ProtocolVersion::Tls12));
        assert!(after
            .iter()
            .all(|o| o.max_advertised == ProtocolVersion::Tls13));
    }

    #[test]
    fn samsung_washer_advertises_tls12_but_establishes_tls11() {
        for o in dataset().device_rows("Samsung Washer") {
            let o = o.observation();
            assert_eq!(o.max_advertised, ProtocolVersion::Tls12);
            assert_eq!(o.negotiated_version, Some(ProtocolVersion::Tls11));
        }
    }

    #[test]
    fn revocation_flows_only_from_crl_ocsp_devices() {
        let ds = dataset();
        let crl_devices: std::collections::BTreeSet<_> = ds
            .revocation_flows
            .iter()
            .filter(|f| f.kind == RevocationKind::CrlFetch)
            .map(|f| ds.strings.resolve(f.device))
            .collect();
        assert_eq!(
            crl_devices.into_iter().collect::<Vec<_>>(),
            vec!["Samsung TV"]
        );
        let ocsp_devices: std::collections::BTreeSet<_> = ds
            .revocation_flows
            .iter()
            .filter(|f| f.kind == RevocationKind::OcspQuery)
            .map(|f| ds.strings.resolve(f.device))
            .collect();
        assert_eq!(ocsp_devices.len(), 3);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_columnar(Testbed::global(), 7);
        let b = generate_columnar(Testbed::global(), 7);
        assert_eq!(a.total_connections(), b.total_connections());
        assert_eq!(a.total_rows(), b.total_rows());
        let c = generate_columnar(Testbed::global(), 8);
        assert_ne!(a.total_connections(), c.total_connections());
    }

    #[test]
    fn insteon_boost_window_shifts_traffic_share() {
        // The Fig. 1 anomaly: the legacy destination dominates during
        // the boost window.
        let ds = dataset();
        let share = |month: Month| -> f64 {
            let obs = ds
                .device_rows("Insteon Hub")
                .filter(|o| o.observation().time.month() == month)
                .collect::<Vec<_>>();
            let total: u64 = obs.iter().map(|o| o.raw.count()).sum();
            let legacy: u64 = obs
                .iter()
                .filter(|o| o.observation().destination.starts_with("alert."))
                .map(|o| o.raw.count())
                .sum();
            legacy as f64 / total.max(1) as f64
        };
        assert!(share(Month::new(2019, 1)) > 0.3, "boosted month");
        assert!(share(Month::new(2019, 10)) < 0.3, "after upgrade");
    }

    #[test]
    fn streamed_chunks_match_in_memory_columnar() {
        let col = generate_columnar(Testbed::global(), 0xCAFE);
        let mut streamed = Vec::new();
        let tail = CaptureCtx::new(0xCAFE)
            .generate_streamed(Testbed::global(), u64::MAX, &mut |c| streamed.push(c));
        assert!(tail.chunks.is_empty());
        let total: usize = streamed.iter().map(ObsChunk::len).sum();
        assert_eq!(total, col.total_rows());
        assert_eq!(tail.truncated, col.truncated);
        assert_eq!(tail.revocation_flows.len(), col.revocation_flows.len());
    }

    #[test]
    fn row_splitting_preserves_connection_totals() {
        let col = generate_columnar(Testbed::global(), 0xCAFE);
        let ctx = CaptureCtx::new(0xCAFE);
        let mut split_rows = 0usize;
        let mut split_conns = 0u64;
        ctx.generate_streamed(Testbed::global(), 1_000, &mut |c| {
            split_rows += c.len();
            split_conns += c.connections();
        });
        assert_eq!(split_conns, col.total_connections());
        assert!(split_rows > col.total_rows());
        // Every split row respects the cap.
        let mut checked = false;
        ctx.generate_streamed(Testbed::global(), 1_000, &mut |c| {
            checked = true;
            assert!(c.rows().all(|r| r.count() <= 1_000 && r.count() > 0));
        });
        assert!(checked);
    }

    #[test]
    fn ctx_threads_and_metrics_knobs_do_not_change_the_dataset() {
        let baseline = generate_columnar(Testbed::global(), 0xCAFE);
        let metrics = SharedRegistry::live();
        let ctx = CaptureCtx::new(0xCAFE).with_threads(3).with_metrics(metrics.clone());
        let ds = ctx.generate_columnar(Testbed::global());
        assert_eq!(ds.total_connections(), baseline.total_connections());
        assert_eq!(ds.total_rows(), baseline.total_rows());
        let snap = metrics.snapshot();
        assert!(snap.counter("capture.rows.weighted") > 0);
        assert_eq!(snap.counter("capture.connections"), ds.total_connections());
    }
}

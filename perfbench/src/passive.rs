//! `passive_pipeline`: the longitudinal capture pipeline end to end.
//!
//! One rep ingests the 27-month capture (generate, fold each chunk,
//! persist it to a segmented store), reopens the store for a full
//! re-analysis, and answers 120 one-month × one-device slices off the
//! reopened store. Every rep's outputs are checked against a
//! seed-scale oracle built once per process.

use crate::trace::Trace;
use crate::{allocations, stats, two_threads, work_dir, Args, Layered, Measured};
use iotls_repro::capture::store::crc32;
use iotls_repro::capture::{
    ColumnarDataset, ObsChunk, SegmentedStore, SegmentedWriter, DEFAULT_SEED,
};
use iotls_repro::core::{
    analyze_columnar, analyze_store, analyze_store_slice, ExperimentCtx, PassiveAccumulator,
    PassiveAnalysis,
};
use iotls_repro::devices::Testbed;
use std::path::Path;
use std::time::Instant;

/// Connections per stored row. One per row is the paper-scale corpus
/// (17.7M rows, 1.2 GB written per rep); four per row keeps every code
/// path at 4.4M rows and 0.28 GB, small enough to rewrite each rep on
/// a shared host.
const CONNECTIONS_PER_ROW: u64 = 4;
/// Slices per rep: every other month of the study, for the first ten
/// devices by name.
const SLICE_MONTHS: usize = 12;
const SLICE_DEVICES: usize = 10;
/// Rep number tagging the replay spans, past any real rep.
const REPLAY: u32 = 1_000;

/// One slice query: `[from, to]` in unix seconds, one device.
struct Slice {
    from: i64,
    to: i64,
    device: String,
}

/// The seed's inputs plus the oracle every rep is checked against.
struct Inputs {
    ctx: ExperimentCtx,
    slices: Vec<Slice>,
    /// Analysis of the seed-scale rows (one row per weighted
    /// observation): expansion splits counts but never changes a sum,
    /// so the ingest and reload analyses must equal it exactly.
    oracle: PassiveAnalysis,
    /// Connections inside each slice, by brute force over those rows.
    slice_totals: Vec<u64>,
}

impl Inputs {
    fn new(tb: &Testbed, seed: u64) -> Inputs {
        let ctx = ExperimentCtx::builder()
            .seed(DEFAULT_SEED ^ seed)
            .threads(1)
            .metrics(true)
            .build();
        let quiet = ExperimentCtx::builder()
            .seed(ctx.seed())
            .threads(1)
            .metrics(false)
            .build();
        let ds: ColumnarDataset = quiet.capture_ctx().generate_columnar(tb);
        let oracle = analyze_columnar(&ds, &quiet);
        let mut slices = Vec::new();
        for month in oracle.month_axis.iter().step_by(2).take(SLICE_MONTHS) {
            for device in oracle.device_names.iter().take(SLICE_DEVICES) {
                slices.push(Slice {
                    from: month.start().0,
                    to: month.end().0,
                    device: device.clone(),
                });
            }
        }
        let slice_totals = slices
            .iter()
            .map(|s| {
                ds.rows()
                    .filter(|r| {
                        let t = r.raw.time();
                        t >= s.from && t <= s.to && r.device_name() == s.device
                    })
                    .map(|r| r.raw.count())
                    .sum()
            })
            .collect();
        Inputs {
            ctx,
            slices,
            oracle,
            slice_totals,
        }
    }
}

/// What one ingest produced.
struct Ingested {
    analysis: PassiveAnalysis,
    rows: u64,
    allocs: u64,
    /// Call to the first chunk fold: the generator's sequential phase.
    serial_s: f64,
}

/// Generates the capture, folds every chunk as it is sealed, and
/// persists the chunks to a new segmented store at `dir`, which the
/// caller has emptied.
fn ingest(
    tb: &Testbed,
    ctx: &ExperimentCtx,
    dir: &Path,
    tr: &mut Trace,
) -> Result<Ingested, String> {
    let span = tr.begin("capture.ingest");
    let started = Instant::now();
    let allocs = allocations();
    let mut writer = SegmentedWriter::create(dir).map_err(|e| format!("create store: {e}"))?;
    let mut acc = PassiveAccumulator::new();
    let mut rows = 0u64;
    let mut first_fold = None;
    let mut write_error = None;
    let fold = |chunk: ObsChunk| {
        let t0 = Instant::now();
        let mut partial = PassiveAccumulator::new();
        partial.add_chunk(&chunk);
        (partial, chunk, t0, Instant::now())
    };
    let tail = ctx
        .capture_ctx()
        .generate_folded(tb, CONNECTIONS_PER_ROW, &fold, &mut |(
            partial,
            chunk,
            t0,
            t1,
        )| {
            first_fold.get_or_insert(t0);
            tr.record("core.passive.fold", t0, t1);
            let w = tr.begin("capture.store.write");
            if let Err(e) = writer.add_chunk(&chunk) {
                write_error.get_or_insert(format!("write chunk: {e}"));
            }
            tr.end(w);
            let m = tr.begin("core.passive.merge");
            acc.merge(&partial);
            tr.end(m);
            rows += chunk.len() as u64;
        });
    if let Some(e) = write_error {
        return Err(e);
    }
    let fin = tr.begin("capture.store.finish");
    writer
        .finish(
            &tail.strings,
            &tail.fps,
            &tail.revocation_flows,
            tail.truncated,
        )
        .map_err(|e| format!("publish store: {e}"))?;
    tr.end(fin);
    let fin = tr.begin("core.passive.finish");
    acc.add_flows(&tail.revocation_flows);
    let analysis = acc.finish(&tail.strings);
    tr.end(fin);
    tr.end(span);
    Ok(Ingested {
        analysis,
        rows,
        allocs: allocations() - allocs,
        serial_s: first_fold.map_or(f64::NAN, |t| t.duration_since(started).as_secs_f64()),
    })
}

/// What one rep measured besides its spans.
struct Rep {
    wall_s: f64,
    ingested: Ingested,
    /// Frame bytes the slices read, and the store's frame bytes.
    slice_bytes: u64,
    frame_bytes: u64,
}

/// One rep: ingest, reload, slices; outputs checked after the clock
/// stops.
fn rep(tb: &Testbed, inputs: &Inputs, dir: &Path, tr: &mut Trace) -> Result<Rep, String> {
    let ctx = &inputs.ctx;
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let root = tr.begin("passive.rep");
    let ingested = ingest(tb, ctx, dir, tr)?;
    let open = tr.begin("capture.store.open");
    let store = SegmentedStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    tr.end(open);
    let reload = tr.begin("core.passive.reload");
    let reloaded = analyze_store(&store, ctx).map_err(|e| format!("reload: {e}"))?;
    tr.end(reload);
    let before = store.frame_bytes_read();
    let all = tr.begin("core.passive.slices");
    let mut totals = Vec::with_capacity(inputs.slices.len());
    for s in &inputs.slices {
        let q = tr.begin("core.passive.slice");
        let a = analyze_store_slice(&store, s.from, s.to, Some(&s.device), ctx)
            .map_err(|e| format!("slice: {e}"))?;
        tr.end(q);
        totals.push(a.total_connections);
    }
    tr.end(all);
    tr.end(root);
    let wall_s = started.elapsed().as_secs_f64();

    if ingested.analysis != inputs.oracle {
        return Err("ingest-time fold differs from the seed-scale oracle".into());
    }
    if reloaded != ingested.analysis {
        return Err("reload analysis differs from the ingest-time fold".into());
    }
    if store.total_rows() != ingested.rows {
        return Err(format!(
            "store holds {} rows, ingest wrote {}",
            store.total_rows(),
            ingested.rows
        ));
    }
    if totals != inputs.slice_totals {
        return Err("slice totals differ from the brute-force filter".into());
    }
    Ok(Rep {
        wall_s,
        slice_bytes: store.frame_bytes_read() - before,
        frame_bytes: store.frame_bytes_total(),
        ingested,
    })
}

pub fn untraced(args: &Args, tb: &Testbed) -> Measured {
    let started = Instant::now();
    let inputs = Inputs::new(tb, args.seed);
    let dir = work_dir().join("store");
    let mut m = Measured {
        setup_s: vec![started.elapsed().as_secs_f64()],
        ..Measured::default()
    };
    let (mut counters, mut rows) = (String::new(), 0);
    m.repeat(args.seconds, |n| {
        let r = rep(tb, &inputs, &dir, &mut Trace::off())?;
        if n == 0 {
            counters = inputs.ctx.metrics_snapshot().counters_json();
            rows = r.ingested.rows;
        }
        Ok(r.wall_s)
    });
    m.set_up_again(|tb| drop(Inputs::new(tb, args.seed)));
    m.counters = counters;
    m.work = rows;
    m
}

pub fn traced(args: &Args, tb: &Testbed, home: bool, tr: &mut Trace) -> Layered {
    let mut out = Layered::default();
    let inputs = Inputs::new(tb, args.seed);
    let dir = work_dir().join("store");
    let mut reps = Vec::new();
    crate::traced_reps(&mut out, args.seconds, home, tr, "passive.rep", |t| {
        let r = rep(tb, &inputs, &dir, t)?;
        let wall = r.wall_s;
        if t.is_on() {
            reps.push(r);
        }
        Ok(wall)
    });
    if !out.errors.is_empty() {
        return out;
    }
    let rows = reps[0].ingested.rows as f64;
    let median_of =
        |f: &dyn Fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let ingest_s = stats::median(&tr.per_rep("capture.ingest"));
    out.put(
        "capture.generate.self_s",
        stats::median(&tr.self_per_rep("capture.ingest")),
    );
    out.put(
        "capture.generate.serial_phase_s",
        median_of(&|r| r.ingested.serial_s),
    );
    out.put(
        "capture.allocs_per_row",
        median_of(&|r| r.ingested.allocs as f64) / rows,
    );
    out.put(
        "core.passive.fold_ns_per_row",
        tr.total("core.passive.fold") * 1e9 / (rows * reps.len() as f64),
    );
    let store_bytes = dir_bytes(&dir) as f64 * reps.len() as f64;
    let write_s = tr.total("capture.store.write") + tr.total("capture.store.finish");
    out.put("capture.store.write_mb_per_s", store_bytes / write_s / 1e6);
    let merge_finish: Vec<f64> = tr
        .per_rep("core.passive.merge")
        .iter()
        .zip(tr.per_rep("core.passive.finish"))
        .map(|(m, f)| (m + f) * 1e3)
        .collect();
    out.put("core.passive.merge_finish_ms", stats::median(&merge_finish));
    out.put("core.passive.ingest_rows_per_s", rows / ingest_s);
    let open_s = stats::median(&tr.per_rep("capture.store.open"));
    out.put("capture.store.open_ms", open_s * 1e3);
    out.put(
        "core.passive.reload_rows_per_s",
        rows / (open_s + stats::median(&tr.per_rep("core.passive.reload"))),
    );
    let slice_ms: Vec<f64> = tr
        .durations("core.passive.slice")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    out.put(
        "core.passive.slice_ms_p50",
        stats::percentile(&slice_ms, 50.0),
    );
    out.put(
        "core.passive.slice_ms_p90",
        stats::percentile(&slice_ms, 90.0),
    );
    out.put(
        "capture.store.bytes_read_ratio",
        median_of(&|r| r.slice_bytes as f64 / (r.frame_bytes as f64 * inputs.slices.len() as f64)),
    );
    let counters = inputs.ctx.metrics_snapshot();
    let hits = counters.counter("capture.merge.pool.u16.dedup_hits")
        + counters.counter("capture.merge.pool.u8.dedup_hits");
    let appends = counters.counter("capture.merge.pool.u16.appends")
        + counters.counter("capture.merge.pool.u8.appends");
    out.put(
        "capture.intern.dedup_rate",
        hits as f64 / (hits + appends) as f64,
    );

    tr.set_rep(REPLAY);
    if let Err(e) = replay_store(&dir, &inputs, reps[0].frame_bytes, rows, tr, &mut out) {
        out.errors.push(e);
    }
    let span = tr.begin("capture.generate.seed_scale");
    inputs
        .ctx
        .capture_ctx()
        .generate_streamed(tb, u64::MAX, &mut |c| drop(c));
    tr.end(span);
    out.put(
        "capture.generate.seed_scale_s",
        tr.total("capture.generate.seed_scale"),
    );
    match thread_speedup(tb, &inputs.ctx, &dir) {
        Ok(speedup) => out.put("capture.generate.t2_speedup", speedup),
        Err(e) => out.errors.push(e),
    }
    out
}

/// Replays the reload and slice layers on the last rep's store: chunk
/// reads (pread, CRC, decode), CRC alone over the same byte count,
/// pruning-directory selection, and the windowed fold.
fn replay_store(
    dir: &Path,
    inputs: &Inputs,
    frame_bytes: u64,
    rows: f64,
    tr: &mut Trace,
    out: &mut Layered,
) -> Result<(), String> {
    let store = SegmentedStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let mut scratch = Vec::new();
    for i in 0..store.chunk_count() {
        let s = tr.begin("capture.store.read");
        let chunk = store
            .read_chunk_with(i, &mut scratch)
            .map_err(|e| e.to_string())?;
        tr.end(s);
        std::hint::black_box(chunk);
    }
    out.put(
        "capture.store.read_ns_per_row",
        tr.total("capture.store.read") * 1e9 / rows,
    );

    let block: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let blocks = frame_bytes.div_ceil(block.len() as u64);
    let s = tr.begin("capture.store.crc");
    let mut crc = 0u32;
    for _ in 0..blocks {
        crc ^= crc32(std::hint::black_box(&block));
    }
    tr.end(s);
    std::hint::black_box(crc);
    let crc_bytes = (blocks * block.len() as u64) as f64;
    out.put(
        "capture.store.crc_gb_per_s",
        crc_bytes / tr.total("capture.store.crc") / 1e9,
    );

    let mut scanned = 0u64;
    for sl in &inputs.slices {
        let device = store.strings().lookup(&sl.device);
        let s = tr.begin("capture.store.select");
        let selected = store.select_chunks(sl.from, sl.to, device);
        tr.end(s);
        let mut acc = PassiveAccumulator::new();
        for i in selected {
            let chunk = store
                .read_chunk_with(i, &mut scratch)
                .map_err(|e| e.to_string())?;
            let f = tr.begin("core.passive.fold_window");
            acc.add_chunk_window(&chunk, sl.from, sl.to, device);
            tr.end(f);
            scanned += chunk.len() as u64;
        }
        std::hint::black_box(acc);
    }
    let selects = inputs.slices.len() as f64;
    out.put(
        "capture.store.select_us",
        tr.total("capture.store.select") * 1e6 / selects,
    );
    out.put(
        "core.passive.fold_window_ns_per_row",
        tr.total("core.passive.fold_window") * 1e9 / scanned.max(1) as f64,
    );
    Ok(())
}

/// Ingest wall time at one worker over the same at two (medians of two
/// ingests each).
fn thread_speedup(tb: &Testbed, ctx: &ExperimentCtx, dir: &Path) -> Result<f64, String> {
    let wall = |threads: usize| -> Result<f64, String> {
        let _ = std::fs::remove_dir_all(dir);
        let started = Instant::now();
        ingest(tb, &ctx.with_threads(threads), dir, &mut Trace::off())?;
        Ok(started.elapsed().as_secs_f64())
    };
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        one.push(wall(1)?);
        two.push(wall(two_threads())?);
    }
    Ok(stats::median(&one) / stats::median(&two))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

//! One benchmark process for the IoTLS reproduction. `perfbench/run.py`
//! starts it once per measurement and reads the JSON object it prints
//! as its last line:
//!
//! ```text
//! perfbench --workload NAME --seed S --seconds T
//!     untraced: set up, one warm-up rep, timed reps for T seconds,
//!     then two more set-ups
//! perfbench --workload NAME --seed S --seconds T --family F --trace-out FILE
//!     traced pass over one workload family (passive, campaign, gateway),
//!     appending its spans to FILE
//! ```
//!
//! Every workload derives its inputs from `--seed`; the library only
//! ever sees the generated inputs. See `perfbench/README.md`.

mod campaign;
mod gateway;
mod handshake;
mod passive;
mod stats;
mod trace;

use iotls_repro::devices::Testbed;
use iotls_repro::rootstore::{self, SimPki};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use trace::Trace;

/// Counting shim over the system allocator: one relaxed add per
/// allocation. It backs `capture.allocs_per_row` and
/// `simnet.mux.allocs_per_session`, and stays installed in untraced
/// runs too, so every measured commit pays the same cost.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter has no effect on the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` comes from the caller, who upholds
        // `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged under `GlobalAlloc::realloc`'s
        // contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The benchmark's workloads; names match `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PassivePipeline,
    ActiveCampaign,
    GatewayClean,
    GatewayChaos,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PassivePipeline,
        Workload::ActiveCampaign,
        Workload::GatewayClean,
        Workload::GatewayChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PassivePipeline => "passive_pipeline",
            Workload::ActiveCampaign => "active_campaign",
            Workload::GatewayClean => "gateway_clean",
            Workload::GatewayChaos => "gateway_chaos",
        }
    }

    fn family(self) -> Family {
        match self {
            Workload::PassivePipeline => Family::Passive,
            Workload::ActiveCampaign => Family::Campaign,
            Workload::GatewayClean | Workload::GatewayChaos => Family::Gateway,
        }
    }
}

/// The layers a traced run covers, one process each: every traced run
/// reports every per-layer metric, whichever workload it was started
/// for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Passive,
    Campaign,
    Gateway,
}

impl Family {
    const ALL: [Family; 3] = [Family::Passive, Family::Campaign, Family::Gateway];

    fn name(self) -> &'static str {
        match self {
            Family::Passive => "passive",
            Family::Campaign => "campaign",
            Family::Gateway => "gateway",
        }
    }
}

/// Command-line arguments of one process.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of timed reps this process should spend.
    pub seconds: f64,
    family: Option<Family>,
    trace_out: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut family, mut trace_out) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s >= 0.0)
                            .ok_or_else(|| format!("bad seconds {value}"))?,
                    )
                }
                "--family" => {
                    family = Some(
                        Family::ALL
                            .into_iter()
                            .find(|f| f.name() == value)
                            .ok_or_else(|| format!("unknown family {value}"))?,
                    )
                }
                "--trace-out" => trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let args = Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            family,
            trace_out,
        };
        if args.family.is_some() != args.trace_out.is_some() {
            return Err("--family and --trace-out go together".into());
        }
        Ok(args)
    }
}

/// Worker threads for the workloads that fan out: two, or one on a
/// single-core host.
pub fn two_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Scratch directory for the stores a process writes, inside the
/// checkout and removed before the process exits.
pub fn work_dir() -> PathBuf {
    PathBuf::from("perfbench/work").join(std::process::id().to_string())
}

/// Set-ups timed per untraced process: its own, then the further ones
/// of [`Measured::set_up_again`].
const SETUPS: usize = 3;

/// What one untraced process measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall seconds of each set-up. The first is the process's own: the
    /// workload puts its inputs' time there and `main` adds the testbed
    /// build.
    pub setup_s: Vec<f64>,
    /// Every rep after the first, which only warms the process.
    pub op_s: Vec<f64>,
    /// Peak resident set size in MiB, read before the further set-ups.
    pub peak_rss_mb: f64,
    /// Reps started, warm-up included.
    pub attempted: u64,
    /// Output-check failures.
    pub errors: Vec<String>,
    /// Work units one rep processes (rows, sessions), for the report.
    pub work: u64,
    /// Share of the warm-up rep's operations the program itself
    /// reported as failed: gateway sessions neither established nor
    /// intercepted. Zero where every operation must succeed, since a
    /// failure there is an output-check error.
    pub failed_share: f64,
    /// Deterministic counter snapshot (JSON object) of the warm-up rep.
    pub counters: String,
}

impl Measured {
    /// Runs `rep` once to warm the process, then repeats it until
    /// another rep would overrun `budget` seconds (two timed reps at
    /// least). `rep` gets the rep number and returns the rep's wall
    /// seconds; it stops at the first error.
    pub fn repeat(&mut self, budget: f64, mut rep: impl FnMut(u32) -> Result<f64, String>) {
        let mut spent = 0.0;
        for n in 0u32.. {
            if n >= 3 && spent + stats::median(&self.op_s) > budget {
                break;
            }
            self.attempted += 1;
            match rep(n) {
                Ok(_) if n == 0 => {}
                Ok(s) => {
                    spent += s;
                    self.op_s.push(s);
                }
                Err(e) => {
                    self.errors.push(e);
                    break;
                }
            }
        }
    }

    /// Records the peak memory, then times `SETUPS - 1` further
    /// set-ups, each a PKI, a testbed over it (the work `main`'s first
    /// `Testbed::build` does) and the workload's inputs (`inputs`),
    /// dropped at once. They come after the reps, so that the peak
    /// leaves them out and a slow stretch of a shared host that covers
    /// the first set-up rarely covers them too.
    pub fn set_up_again(&mut self, inputs: impl Fn(&Testbed)) {
        self.peak_rss_mb = peak_rss_mb();
        for _ in 1..SETUPS {
            let started = Instant::now();
            let pki = SimPki::build(rootstore::DEFAULT_SEED);
            inputs(&Testbed::build());
            self.setup_s.push(started.elapsed().as_secs_f64());
            drop(pki);
        }
    }
}

/// Per-layer metrics of one traced family pass.
#[derive(Debug, Default)]
pub struct Layered {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub errors: Vec<String>,
}

impl Layered {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Runs the reps of a traced family pass until `budget` seconds have
/// passed: rep 0 untraced to warm the process, then traced reps. For
/// the family of the workload the run was started for (`home`),
/// untraced reps alternate with the traced ones, so the trace overhead
/// and the unattributed residual of the root span `root` come from the
/// same process. `rep` returns the rep's wall seconds.
pub fn traced_reps(
    out: &mut Layered,
    budget: f64,
    home: bool,
    tr: &mut Trace,
    root: &'static str,
    mut rep: impl FnMut(&mut Trace) -> Result<f64, String>,
) {
    let mut off = Trace::off();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let min_reps = if home { 3 } else { 2 };
    for n in 0u32.. {
        if n >= min_reps && started.elapsed().as_secs_f64() > budget {
            break;
        }
        out.attempted += 1;
        tr.set_rep(n);
        let traced_rep = n > 0 && (!home || n % 2 == 1);
        match if traced_rep { rep(tr) } else { rep(&mut off) } {
            Ok(s) if traced_rep => traced.push(s),
            Ok(s) if n > 0 => plain.push(s),
            Ok(_) => {}
            Err(e) => {
                out.errors.push(e);
                return;
            }
        }
    }
    if tr.per_rep(root).len() != traced.len() {
        out.errors
            .push(format!("expected one `{root}` span per traced rep"));
    }
    if home {
        let residual = stats::median(&tr.self_per_rep(root)) / stats::median(&tr.per_rep(root));
        out.put(
            "trace.overhead_share",
            stats::median(&traced) / stats::median(&plain) - 1.0,
        );
        out.put("trace.unattributed_share", residual);
    }
}

/// Formats a finite number as JSON, with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_errors(errors: &[String]) -> String {
    let items: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    format!("[{}]", items.join(","))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_nums(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|&x| num(x)).collect();
    format!("[{}]", items.join(","))
}

fn untraced(args: &Args, tb: &Testbed, testbed_s: f64) -> String {
    let mut m = match args.workload {
        Workload::PassivePipeline => passive::untraced(args, tb),
        Workload::ActiveCampaign => campaign::untraced(args, tb),
        Workload::GatewayClean | Workload::GatewayChaos => gateway::untraced(args, tb),
    };
    if let Some(first) = m.setup_s.first_mut() {
        *first += testbed_s;
    }
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"setup_s\":{},\"op_s\":{},\"peak_rss_mb\":{},\
         \"attempted\":{},\"failed\":{},\"errors\":{},\"work\":{},\"failed_share\":{},\"counters\":{}}}",
        args.workload.name(),
        args.seed,
        json_nums(&m.setup_s),
        json_nums(&m.op_s),
        num(m.peak_rss_mb),
        m.attempted,
        m.errors.len(),
        json_errors(&m.errors),
        m.work,
        num(m.failed_share),
        if m.counters.is_empty() { "{}" } else { &m.counters },
    )
}

fn traced(
    args: &Args,
    tb: &Testbed,
    family: Family,
    testbed_s: f64,
    out: &std::path::Path,
) -> String {
    let mut tr = Trace::on();
    let home = args.workload.family() == family;
    let mut layered = match family {
        Family::Passive => passive::traced(args, tb, home, &mut tr),
        Family::Campaign => campaign::traced(args, tb, home, &mut tr),
        Family::Gateway => gateway::traced(args, tb, home, &mut tr),
    };
    if home {
        layered.put("setup.testbed_s", testbed_s);
    }
    if tr.dropped() > 0 {
        layered.errors.push(format!(
            "{} spans did not fit the trace buffer",
            tr.dropped()
        ));
    }
    if let Err(e) = tr.append_jsonl(out, family.name()) {
        layered
            .errors
            .push(format!("writing {}: {e}", out.display()));
    }
    let metrics: Vec<String> = layered
        .metrics
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), num(*v)))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"family\":\"{}\",\"metrics\":{{{}}},\"attempted\":{},\"failed\":{},\"errors\":{}}}",
        args.workload.name(),
        family.name(),
        metrics.join(","),
        layered.attempted,
        layered.errors.len(),
        json_errors(&layered.errors),
    )
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let tb = Testbed::build();
    let testbed_s = started.elapsed().as_secs_f64();
    let line = match (args.family, &args.trace_out) {
        (Some(family), Some(out)) => traced(&args, &tb, family, testbed_s, out),
        _ => untraced(&args, &tb, testbed_s),
    };
    let _ = std::fs::remove_dir_all(work_dir());
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_process_flags() {
        let a = parse("--workload gateway_chaos --seed 7 --seconds 4").unwrap();
        assert_eq!(a.workload, Workload::GatewayChaos);
        assert_eq!((a.seed, a.seconds), (7, 4.0));
        assert!(a.family.is_none());
        let t = parse(
            "--workload passive_pipeline --seed 1 --seconds 2 --family gateway --trace-out x",
        )
        .unwrap();
        assert_eq!(t.family, Some(Family::Gateway));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse("--workload nope --seed 1 --seconds 1").is_err());
        assert!(parse("--workload gateway_clean --seed -1 --seconds 1").is_err());
        assert!(parse("--workload gateway_clean --seed 1 --seconds nan").is_err());
        assert!(parse("--workload gateway_clean --seed 1").is_err());
        assert!(parse("--workload gateway_clean --seed 1 --seconds 1 --family gateway").is_err());
    }

    #[test]
    fn repeat_runs_a_warm_up_and_at_least_two_timed_reps() {
        let mut m = Measured::default();
        m.repeat(0.0, |n| Ok(f64::from(n)));
        assert_eq!(m.op_s, vec![1.0, 2.0]);
        assert_eq!(m.attempted, 3);
        let mut failing = Measured::default();
        failing.repeat(10.0, |n| if n == 1 { Err("bad".into()) } else { Ok(0.1) });
        assert_eq!(failing.errors, vec!["bad".to_string()]);
        assert_eq!(failing.attempted, 2);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(0.25), "0.25");
        assert_eq!(json_nums(&[0.5, f64::NAN]), "[0.5,null]");
        assert_eq!(json_nums(&[]), "[]");
    }
}

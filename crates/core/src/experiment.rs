//! The experiment runtime: one composable context, one trait, one
//! orchestrator.
//!
//! * [`ExperimentCtx`] — a builder-constructed context owning the
//!   seed, the [`FaultPlan`], the metrics handle (a no-op shard by
//!   default) and the worker-count policy. The environment
//!   (`IOTLS_THREADS`, `IOTLS_METRICS`) is resolved **once** at
//!   construction — bad values fall back to the defaults and are
//!   recorded as [`ExperimentCtx::warnings`] plus `ctx.env.*.invalid`
//!   counters — instead of being re-read deep inside every engine
//!   fan-out.
//! * [`Experiment`] — the trait every engine implements
//!   (`name()`, `run(&Testbed, &ExperimentCtx) -> Report`), with
//!   [`Report`] unifying JSON serialization, fault/cache accessors,
//!   and golden-fixture naming across the six report shapes.
//! * [`Orchestrator`] — runs any subset of [`ExperimentKind`]s from
//!   one ctx, collecting per-experiment results as
//!   `Result<ExperimentReport, ExperimentError>` so one panicking
//!   engine cannot take down a sweep.
//!
//! Determinism holds by construction: engines fan out per-device labs
//! seeded by pure functions of the ctx seed and merge their registry
//! shards in roster order, so every table, counter, and fixture is
//! byte-identical at any worker count.

use crate::auditor::AuditorReport;
use crate::downgrade::{DowngradeReport, OldVersionReport};
use crate::fingerprints::FingerprintSurvey;
use crate::lab::FaultStats;
use crate::{InterceptionReport, RootProbeReport};
use iotls_capture::json::Json;
use iotls_capture::CaptureCtx;
use iotls_devices::Testbed;
use iotls_obs::{Registry, SharedRegistry};
use iotls_simnet::FaultPlan;
use iotls_x509::cache::CacheStats;
use std::fmt;

/// Environment variable overriding the metrics sink: set to a path to
/// turn metrics on and write the full registry JSON there via
/// [`ExperimentCtx::write_metrics_sink`].
pub const METRICS_ENV: &str = "IOTLS_METRICS";

/// The single error type for the experiment runtime — hand-rolled
/// (`thiserror`-style) so the workspace stays dependency-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// An experiment name did not match any [`ExperimentKind`].
    UnknownExperiment(String),
    /// An environment knob held an unusable value; the context fell
    /// back to its default.
    InvalidEnv {
        /// The environment variable.
        var: &'static str,
        /// The rejected value.
        value: String,
    },
    /// An engine panicked; the orchestrator caught it (bumping the
    /// `core.orchestrator.panics` counter) and carried on.
    Panicked {
        /// [`ExperimentKind::name`] of the failed engine.
        experiment: &'static str,
        /// The panic payload, stringified.
        message: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownExperiment(name) => {
                write!(f, "unknown experiment `{name}`")
            }
            ExperimentError::InvalidEnv { var, value } => {
                write!(f, "invalid {var}={value:?}; using the default")
            }
            ExperimentError::Panicked { experiment, message } => {
                write!(f, "experiment `{experiment}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Everything an experiment run needs beyond the testbed. Construct
/// via [`ExperimentCtx::new`] (env-resolved defaults) or
/// [`ExperimentCtx::builder`] (explicit knobs).
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    seed: u64,
    plan: FaultPlan,
    threads: usize,
    metrics: SharedRegistry,
    metrics_sink: Option<String>,
    warnings: Vec<ExperimentError>,
}

impl ExperimentCtx {
    /// A context with env-resolved defaults: no faults, worker count
    /// from `IOTLS_THREADS`, metrics live only when `IOTLS_METRICS`
    /// is set.
    pub fn new(seed: u64) -> ExperimentCtx {
        ExperimentCtx::builder().seed(seed).build()
    }

    /// An empty builder (seed 0, no faults, env-resolved knobs).
    pub fn builder() -> ExperimentCtxBuilder {
        ExperimentCtxBuilder::default()
    }

    /// The root experiment seed (engines derive lab seeds from it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The injected-fault schedule.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// The resolved worker count for per-device fan-outs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The metrics handle engines merge their roster-order shards
    /// into (a no-op shard unless metrics were enabled).
    pub fn metrics(&self) -> &SharedRegistry {
        &self.metrics
    }

    /// Environment values that were rejected at construction
    /// (mirrored as `ctx.env.*.invalid` counters when metrics are
    /// live).
    pub fn warnings(&self) -> &[ExperimentError] {
        &self.warnings
    }

    /// The `IOTLS_METRICS` sink path, when one was configured.
    pub fn metrics_sink(&self) -> Option<&str> {
        self.metrics_sink.as_deref()
    }

    /// The same context with a different seed — how the orchestrator
    /// pins each experiment to its canonical paper seed.
    pub fn with_seed(&self, seed: u64) -> ExperimentCtx {
        ExperimentCtx { seed, ..self.clone() }
    }

    /// The same context with a different worker count — how the bench
    /// harness pins one workload at several thread counts without
    /// touching `IOTLS_THREADS` for the rest of the process.
    pub fn with_threads(&self, threads: usize) -> ExperimentCtx {
        ExperimentCtx { threads: threads.max(1), ..self.clone() }
    }

    /// A capture-side context sharing this ctx's knobs (the capture
    /// crate sits below `core` and owns its own lightweight context).
    pub fn capture_ctx(&self) -> CaptureCtx {
        CaptureCtx::new(self.seed)
            .with_plan(self.plan)
            .with_threads(self.threads)
            .with_metrics(self.metrics.clone())
    }

    /// Merges a finished engine-local registry shard into the metrics
    /// handle (no-op when metrics are off).
    pub fn merge_metrics(&self, shard: &Registry) {
        self.metrics.merge(shard);
    }

    /// A clone of the accumulated metrics registry (empty when
    /// metrics are off).
    pub fn metrics_snapshot(&self) -> Registry {
        self.metrics.snapshot()
    }

    /// Writes the full metrics snapshot (counters plus wall-clock
    /// timings) to the `IOTLS_METRICS` sink, if one is configured.
    pub fn write_metrics_sink(&self) -> std::io::Result<()> {
        if let Some(path) = &self.metrics_sink {
            std::fs::write(path, self.metrics.snapshot().to_json())?;
        }
        Ok(())
    }
}

/// Builder for [`ExperimentCtx`]: every unset knob resolves from the
/// environment (or its default) exactly once, at [`build`] time.
///
/// [`build`]: ExperimentCtxBuilder::build
#[derive(Debug)]
pub struct ExperimentCtxBuilder {
    seed: u64,
    plan: FaultPlan,
    threads: Option<usize>,
    metrics: Option<bool>,
}

impl Default for ExperimentCtxBuilder {
    fn default() -> Self {
        ExperimentCtxBuilder {
            seed: 0,
            plan: FaultPlan::none(),
            threads: None,
            metrics: None,
        }
    }
}

impl ExperimentCtxBuilder {
    /// Sets the root experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the injected-fault schedule (default: no faults).
    pub fn plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Pins the worker count instead of reading `IOTLS_THREADS`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Forces metrics on (live registry) or off (no-op shard),
    /// instead of inferring liveness from `IOTLS_METRICS`. Forced off,
    /// the context does not read `IOTLS_METRICS` at all.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = Some(on);
        self
    }

    /// Resolves the remaining knobs from the environment and builds
    /// the context. Unusable env values (non-numeric or zero
    /// `IOTLS_THREADS`, empty `IOTLS_METRICS`) fall back to the
    /// defaults and are recorded in [`ExperimentCtx::warnings`] and —
    /// when metrics end up live — as `ctx.env.<knob>.invalid`
    /// counters.
    pub fn build(self) -> ExperimentCtx {
        let mut warnings = Vec::new();

        let threads = self.threads.unwrap_or_else(|| {
            match std::env::var(iotls_simnet::par::THREADS_ENV) {
                Err(_) => default_threads(),
                Ok(v) => match v.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        warnings.push(ExperimentError::InvalidEnv {
                            var: iotls_simnet::par::THREADS_ENV,
                            value: v,
                        });
                        default_threads()
                    }
                },
            }
        });

        let (live, metrics_sink) =
            resolve_metrics(self.metrics, || std::env::var(METRICS_ENV).ok(), &mut warnings);
        let metrics = if live {
            SharedRegistry::live()
        } else {
            SharedRegistry::noop()
        };

        for w in &warnings {
            if let ExperimentError::InvalidEnv { var, .. } = w {
                let knob = var.trim_start_matches("IOTLS_").to_ascii_lowercase();
                metrics.with(|reg| reg.inc(&format!("ctx.env.{knob}.invalid")));
            }
        }

        ExperimentCtx {
            seed: self.seed,
            plan: self.plan,
            threads,
            metrics,
            metrics_sink,
            warnings,
        }
    }
}

/// Metrics liveness and sink path from the builder's `forced` knob and
/// the `IOTLS_METRICS` value `env` reads. Metrics forced off never call
/// `env`: a ctx that cannot write metrics neither needs the variable
/// nor warns about it. Otherwise an empty value is recorded as an
/// [`ExperimentError::InvalidEnv`] warning and names no sink.
fn resolve_metrics(
    forced: Option<bool>,
    env: impl FnOnce() -> Option<String>,
    warnings: &mut Vec<ExperimentError>,
) -> (bool, Option<String>) {
    if forced == Some(false) {
        return (false, None);
    }
    let sink = match env() {
        Some(path) if path.is_empty() => {
            warnings.push(ExperimentError::InvalidEnv {
                var: METRICS_ENV,
                value: path,
            });
            None
        }
        sink => sink,
    };
    (forced.unwrap_or(sink.is_some()), sink)
}

/// The `IOTLS_THREADS` fallback: available parallelism, floor 1.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One experiment engine: a named, deterministic function from
/// `(testbed, ctx)` to a typed report.
pub trait Experiment {
    /// The report this engine produces.
    type Report: Report;

    /// Stable engine name (matches [`ExperimentKind::name`]).
    fn name(&self) -> &'static str;

    /// Runs the engine. Byte-identical output at any
    /// [`ExperimentCtx::threads`].
    fn run(&self, testbed: &Testbed, ctx: &ExperimentCtx) -> Self::Report;
}

/// The common surface of every experiment report: canonical JSON,
/// fault/cache counters, and the golden fixtures it backs.
pub trait Report {
    /// Canonical JSON rendering of the report.
    fn to_json(&self) -> Json;

    /// Names of the `tests/golden/` fixtures rendered from this
    /// report (empty when none are).
    fn fixtures(&self) -> &'static [&'static str];

    /// Injected-fault/recovery counters, when the engine tracks them.
    fn fault_stats(&self) -> Option<&FaultStats>;

    /// Verification-cache counters, when the engine reports them.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

/// [`FaultStats`] as canonical JSON (shared by the report impls).
pub fn fault_stats_json(s: &FaultStats) -> Json {
    Json::Obj(vec![
        ("resets".into(), Json::Num(s.resets as i128)),
        ("garbles".into(), Json::Num(s.garbles as i128)),
        ("stalls".into(), Json::Num(s.stalls as i128)),
        ("power_cycles".into(), Json::Num(s.power_cycles as i128)),
        ("dns_failures".into(), Json::Num(s.dns_failures as i128)),
        ("inline_retries".into(), Json::Num(s.inline_retries as i128)),
        ("reconnects".into(), Json::Num(s.reconnects as i128)),
        ("recovered".into(), Json::Num(s.recovered as i128)),
        ("unrecovered".into(), Json::Num(s.unrecovered as i128)),
        (
            "backoff_virtual_secs".into(),
            Json::Num(s.backoff_virtual_secs as i128),
        ),
    ])
}

/// [`CacheStats`] as canonical JSON (shared by the report impls).
pub fn cache_stats_json(s: &CacheStats) -> Json {
    Json::Obj(vec![
        ("hits".into(), Json::Num(s.hits as i128)),
        ("misses".into(), Json::Num(s.misses as i128)),
    ])
}

/// Runs the interception audit (§4.2 / Table 7).
#[derive(Debug, Clone, Copy, Default)]
pub struct InterceptionAudit;

/// Runs the TLS-alert root-store probe (§4.4 / Table 9, Figure 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct RootProbe;

/// Runs the downgrade probe (§4.3 / Table 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct DowngradeProbe;

/// Runs the old-version acceptance scan (§4.3 / Table 6).
#[derive(Debug, Clone, Copy, Default)]
pub struct OldVersionScan;

/// Runs the fingerprint survey (§5.3 / Figure 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct FingerprintSurveyor;

/// Runs the consumer audit service (§6 mitigations).
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditService;

/// Runs the resident gateway soak (the long-lived multiplexing
/// runtime behind the paper's continuous capture).
#[derive(Debug, Clone, Copy, Default)]
pub struct GatewayService;

/// The closed set of experiments the orchestrator can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExperimentKind {
    /// [`InterceptionAudit`].
    InterceptionAudit,
    /// [`RootProbe`].
    RootProbe,
    /// [`DowngradeProbe`].
    DowngradeProbe,
    /// [`OldVersionScan`].
    OldVersionScan,
    /// [`FingerprintSurveyor`].
    FingerprintSurvey,
    /// [`AuditService`].
    AuditService,
    /// [`GatewayService`].
    GatewayService,
}

impl ExperimentKind {
    /// Every experiment, in canonical (paper-section) order.
    pub const ALL: [ExperimentKind; 7] = [
        ExperimentKind::InterceptionAudit,
        ExperimentKind::RootProbe,
        ExperimentKind::DowngradeProbe,
        ExperimentKind::OldVersionScan,
        ExperimentKind::FingerprintSurvey,
        ExperimentKind::AuditService,
        ExperimentKind::GatewayService,
    ];

    /// The stable engine name.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentKind::InterceptionAudit => "interception_audit",
            ExperimentKind::RootProbe => "root_probe",
            ExperimentKind::DowngradeProbe => "downgrade_probe",
            ExperimentKind::OldVersionScan => "old_version_scan",
            ExperimentKind::FingerprintSurvey => "fingerprint_survey",
            ExperimentKind::AuditService => "audit_service",
            ExperimentKind::GatewayService => "gateway_service",
        }
    }

    /// Parses a stable engine name.
    pub fn from_name(name: &str) -> Result<ExperimentKind, ExperimentError> {
        ExperimentKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| ExperimentError::UnknownExperiment(name.to_string()))
    }

    /// The canonical seed the paper-number assertions and golden
    /// fixtures are pinned to.
    pub fn canonical_seed(self) -> u64 {
        match self {
            ExperimentKind::InterceptionAudit => 0x7AB1E7,
            ExperimentKind::RootProbe => 0x6007,
            ExperimentKind::DowngradeProbe => 0xD0E6,
            ExperimentKind::OldVersionScan => 0x01DE,
            ExperimentKind::FingerprintSurvey => 0x5075,
            ExperimentKind::AuditService => 0xA0D1,
            ExperimentKind::GatewayService => 0x6A7E,
        }
    }

    /// Runs the engine behind this kind, boxing the report into the
    /// uniform [`ExperimentReport`] enum.
    pub fn run(self, testbed: &Testbed, ctx: &ExperimentCtx) -> ExperimentReport {
        match self {
            ExperimentKind::InterceptionAudit => {
                ExperimentReport::Interception(InterceptionAudit.run(testbed, ctx))
            }
            ExperimentKind::RootProbe => {
                ExperimentReport::RootProbe(Box::new(RootProbe.run(testbed, ctx)))
            }
            ExperimentKind::DowngradeProbe => {
                ExperimentReport::Downgrade(DowngradeProbe.run(testbed, ctx))
            }
            ExperimentKind::OldVersionScan => {
                ExperimentReport::OldVersion(OldVersionScan.run(testbed, ctx))
            }
            ExperimentKind::FingerprintSurvey => {
                ExperimentReport::Fingerprints(FingerprintSurveyor.run(testbed, ctx))
            }
            ExperimentKind::AuditService => {
                ExperimentReport::Auditor(AuditService.run(testbed, ctx))
            }
            ExperimentKind::GatewayService => {
                ExperimentReport::Gateway(GatewayService.run(testbed, ctx))
            }
        }
    }
}

/// Any experiment's report, behind one type so orchestrated sweeps
/// can be collected, serialized, and rendered uniformly.
#[derive(Debug, Clone)]
pub enum ExperimentReport {
    /// Table 7 report.
    Interception(InterceptionReport),
    /// Table 9 / Figure 4 report (boxed: by far the largest).
    RootProbe(Box<RootProbeReport>),
    /// Table 5 report.
    Downgrade(DowngradeReport),
    /// Table 6 report.
    OldVersion(OldVersionReport),
    /// Figure 5 survey.
    Fingerprints(FingerprintSurvey),
    /// §6 audit-service report.
    Auditor(AuditorReport),
    /// Resident-gateway drain snapshot.
    Gateway(crate::gateway::GatewayReport),
}

impl ExperimentReport {
    /// Which experiment produced this report.
    pub fn kind(&self) -> ExperimentKind {
        match self {
            ExperimentReport::Interception(_) => ExperimentKind::InterceptionAudit,
            ExperimentReport::RootProbe(_) => ExperimentKind::RootProbe,
            ExperimentReport::Downgrade(_) => ExperimentKind::DowngradeProbe,
            ExperimentReport::OldVersion(_) => ExperimentKind::OldVersionScan,
            ExperimentReport::Fingerprints(_) => ExperimentKind::FingerprintSurvey,
            ExperimentReport::Auditor(_) => ExperimentKind::AuditService,
            ExperimentReport::Gateway(_) => ExperimentKind::GatewayService,
        }
    }

    fn as_report(&self) -> &dyn Report {
        match self {
            ExperimentReport::Interception(r) => r,
            ExperimentReport::RootProbe(r) => r.as_ref(),
            ExperimentReport::Downgrade(r) => r,
            ExperimentReport::OldVersion(r) => r,
            ExperimentReport::Fingerprints(r) => r,
            ExperimentReport::Auditor(r) => r,
            ExperimentReport::Gateway(r) => r,
        }
    }
}

impl Report for ExperimentReport {
    fn to_json(&self) -> Json {
        self.as_report().to_json()
    }

    fn fixtures(&self) -> &'static [&'static str] {
        self.as_report().fixtures()
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        self.as_report().fault_stats()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.as_report().cache_stats()
    }
}

/// One orchestrated engine run: the kind plus its outcome.
#[derive(Debug)]
pub struct ExperimentRun {
    /// Which experiment ran.
    pub kind: ExperimentKind,
    /// The report, or the error that stopped it.
    pub result: Result<ExperimentReport, ExperimentError>,
}

/// Runs a subset of the experiments from one shared context.
///
/// Experiments run sequentially in [`ExperimentKind::ALL`] order
/// (each engine parallelizes internally over
/// [`ExperimentCtx::threads`] workers); a panicking engine is caught
/// and surfaced as [`ExperimentError::Panicked`] without stopping
/// the sweep.
pub struct Orchestrator<'a> {
    testbed: &'a Testbed,
    ctx: &'a ExperimentCtx,
    kinds: Vec<ExperimentKind>,
    canonical_seeds: bool,
}

impl<'a> Orchestrator<'a> {
    /// An orchestrator over every experiment, using `ctx.seed()` for
    /// each.
    pub fn new(testbed: &'a Testbed, ctx: &'a ExperimentCtx) -> Orchestrator<'a> {
        Orchestrator {
            testbed,
            ctx,
            kinds: ExperimentKind::ALL.to_vec(),
            canonical_seeds: false,
        }
    }

    /// Restricts the sweep to the given experiments (run order
    /// preserved).
    pub fn select(mut self, kinds: &[ExperimentKind]) -> Orchestrator<'a> {
        self.kinds = kinds.to_vec();
        self
    }

    /// Seeds each experiment with [`ExperimentKind::canonical_seed`]
    /// instead of the shared ctx seed — the configuration that
    /// reproduces the paper tables and golden fixtures.
    pub fn canonical_seeds(mut self) -> Orchestrator<'a> {
        self.canonical_seeds = true;
        self
    }

    /// Runs one experiment, converting an engine panic into
    /// [`ExperimentError::Panicked`] (payload message preserved) and
    /// bumping the `core.orchestrator.panics` counter.
    pub fn run_one(&self, kind: ExperimentKind) -> Result<ExperimentReport, ExperimentError> {
        let ctx = if self.canonical_seeds {
            self.ctx.with_seed(kind.canonical_seed())
        } else {
            self.ctx.clone()
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kind.run(self.testbed, &ctx)
        }))
        .map_err(|payload| {
            self.ctx
                .metrics()
                .with(|reg| reg.inc("core.orchestrator.panics"));
            ExperimentError::Panicked {
                experiment: kind.name(),
                message: panic_message(payload),
            }
        })
    }

    /// Runs the selected experiments and collects every outcome.
    pub fn run_all(&self) -> Vec<ExperimentRun> {
        self.kinds
            .iter()
            .map(|&kind| ExperimentRun {
                kind,
                result: self.run_one(kind),
            })
            .collect()
    }
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in ExperimentKind::ALL {
            assert_eq!(ExperimentKind::from_name(kind.name()), Ok(kind));
        }
        assert_eq!(
            ExperimentKind::from_name("bogus"),
            Err(ExperimentError::UnknownExperiment("bogus".into()))
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = ExperimentError::InvalidEnv {
            var: "IOTLS_THREADS",
            value: "lots".into(),
        };
        assert_eq!(e.to_string(), "invalid IOTLS_THREADS=\"lots\"; using the default");
        let e = ExperimentError::Panicked {
            experiment: "root_probe",
            message: "boom".into(),
        };
        assert!(e.to_string().contains("root_probe"));
        assert!(e.to_string().contains("boom"));
        assert!(e.to_string().contains("panicked"));
        assert!(
            ExperimentError::UnknownExperiment("x".into())
                .to_string()
                .contains("unknown experiment")
        );
    }

    #[test]
    fn builder_knobs_override_env_resolution() {
        let ctx = ExperimentCtx::builder()
            .seed(7)
            .plan(FaultPlan::uniform(1, 10))
            .threads(0) // clamped to 1
            .metrics(true)
            .build();
        assert_eq!(ctx.seed(), 7);
        assert_eq!(ctx.threads(), 1);
        assert!(ctx.metrics().is_live());
        assert_eq!(ctx.plan().session_faults("k"), FaultPlan::uniform(1, 10).session_faults("k"));
        let derived = ctx.with_seed(9);
        assert_eq!(derived.seed(), 9);
        assert_eq!(derived.threads(), 1);
        assert!(derived.metrics().is_live());
    }

    #[test]
    fn metrics_forced_off_never_read_the_env() {
        let mut warnings = Vec::new();
        let resolved = resolve_metrics(
            Some(false),
            || panic!("IOTLS_METRICS read under .metrics(false)"),
            &mut warnings,
        );
        assert_eq!(resolved, (false, None));
        assert!(warnings.is_empty());
    }

    #[test]
    fn empty_metrics_env_warns_unless_metrics_are_forced_off() {
        let empty = || Some(String::new());
        for forced in [None, Some(true)] {
            let mut warnings = Vec::new();
            assert_eq!(resolve_metrics(forced, empty, &mut warnings), (forced.is_some(), None));
            assert_eq!(
                warnings,
                vec![ExperimentError::InvalidEnv { var: METRICS_ENV, value: String::new() }],
                "forced {forced:?}"
            );
        }

        // A path turns metrics on unless forced off; no value leaves them off.
        let path = || Some("m.json".to_string());
        let mut warnings = Vec::new();
        assert_eq!(resolve_metrics(None, path, &mut warnings), (true, Some("m.json".into())));
        assert_eq!(resolve_metrics(Some(false), path, &mut warnings), (false, None));
        assert_eq!(resolve_metrics(None, || None, &mut warnings), (false, None));
        assert_eq!(resolve_metrics(Some(true), || None, &mut warnings), (true, None));
        assert!(warnings.is_empty());
    }

    #[test]
    fn capture_ctx_inherits_the_knobs() {
        let metrics = SharedRegistry::live();
        let ctx = ExperimentCtx {
            seed: 0x10AD,
            plan: FaultPlan::uniform(2, 5),
            threads: 3,
            metrics: metrics.clone(),
            metrics_sink: None,
            warnings: Vec::new(),
        };
        let cap = ctx.capture_ctx();
        assert_eq!(cap.seed(), 0x10AD);
        assert_eq!(cap.threads(), 3);
        assert!(cap.metrics().is_live());
        cap.metrics().with(|r| r.inc("shared"));
        assert_eq!(metrics.snapshot().counter("shared"), 1);
    }

    #[test]
    fn orchestrator_catches_engine_panics() {
        // A panic inside the closure boundary must become
        // EngineFailed, not a test abort. Exercise panic_message on
        // both payload shapes.
        assert_eq!(panic_message(Box::new("static str")), "static str");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(42u32)), "engine panicked");
    }
}

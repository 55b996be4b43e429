//! # iotls
//!
//! The IoTLS measurement methodology (Paracha, Dubois,
//! Vallina-Rodriguez, Choffnes — *IoTLS: Understanding TLS Usage in
//! Consumer IoT Devices*, ACM IMC 2021), reproduced as a library.
//!
//! Every analysis here is **blackbox**: the experiments interact with
//! the simulated testbed only through the network — boot bursts
//! observed at a gateway tap, interception with forged certificate
//! chains, and the TLS *Alert Message* side channel. Ground-truth
//! device configuration is never consulted (the test suites compare
//! measured results against it, as an oracle, after the fact).
//!
//! Components, mapped to the paper:
//!
//! * [`attacker`] — the on-path adversary and its Table 2 / §4.2
//!   interception policies (self-signed, wrong-hostname, invalid
//!   BasicConstraints, spoofed-CA, mute, forced-version);
//! * [`lab`] — the active laboratory, one per device: smart-plug
//!   power cycles, boot bursts, fallback retries, the Yi give-up
//!   quirk, passthrough;
//! * [`audit`] — the interception audit with TrafficPassthrough
//!   (Table 7, §4.2's +20.4% hostnames, the 7/11 sensitive leaks);
//! * [`downgrade`] — failure-triggered downgrade probing (Table 5)
//!   and the old-version negotiation scan (Table 6);
//! * [`rootprobe`] — the novel root-store exploration via TLS alerts
//!   (Table 4 amenability, Table 9, Figure 4 input);
//! * [`passive`] — two-year longitudinal analysis (Figures 1–3,
//!   Table 8, §5.1 statistics, prior-work comparison);
//! * [`fingerprints`] — the active fingerprint survey (§5.3,
//!   Figure 5 input);
//! * [`auditor`] — the §6 recommendations implemented: the vendor
//!   auditing service and the SPIN-style guardian gateway;
//! * [`experiment`] — the experiment runtime: [`ExperimentCtx`]
//!   (seed, fault plan, thread policy, metrics shard, verification
//!   cache), the [`Experiment`]/[`Report`] traits every engine
//!   implements, and the [`Orchestrator`] that runs any subset of
//!   experiments from one context;
//! * [`gateway`] — the resident audit gateway: bounded-queue
//!   admission control, per-class token buckets, per-endpoint
//!   circuit breakers, per-session deadlines, panic isolation, and
//!   graceful drain over a recorded-flow session mux, with
//!   per-endpoint protocol middleware chains on the session path;
//! * [`detect`] — interception detection as middleware: per-endpoint
//!   ClientHello/certificate drift baselines skimmed from the roster
//!   tapes, flagged in-path and scored against simulator ground
//!   truth.

pub mod attacker;
pub mod audit;
pub mod auditor;
pub mod detect;
pub mod downgrade;
pub mod experiment;
pub mod fingerprints;
pub mod gateway;
pub mod lab;
pub mod party;
pub mod passive;
pub mod rootprobe;

pub use attacker::{Attacker, InterceptPolicy, ATTACKER_DOMAIN};
pub use audit::{
    run_interception_audit, AuditObserver, InterceptionReport, InterceptionRow, SENSITIVE_MARKERS,
};
pub use detect::{DriftDetector, FlowBaseline};
pub use auditor::{
    grade, grade_client_hello, guardian_verdict, run_audit_service, AuditIssue, AuditorReport,
    DeviceAudit, Grade, GuardianAction, InstanceAudit,
};
pub use downgrade::{
    classify_downgrade, run_downgrade_probe, run_old_version_scan, DowngradeKind, DowngradeReport,
    DowngradeRow, OldVersionReport, OldVersionRow,
};
pub use experiment::{
    cache_stats_json, fault_stats_json, AuditService, DowngradeProbe, Experiment, ExperimentCtx,
    ExperimentCtxBuilder, ExperimentError, ExperimentKind, ExperimentReport, ExperimentRun,
    FingerprintSurveyor, GatewayService, InterceptionAudit, OldVersionScan, Orchestrator, Report,
    RootProbe, METRICS_ENV,
};
pub use fingerprints::{run_fingerprint_survey, FingerprintSurvey};
pub use gateway::{
    BreakerState, ChainFactory, CircuitBreaker, ClassRow, Gateway, GatewayConfig, GatewayReport,
    SessionVerdict, TokenBucket,
};
pub use lab::{ActiveLab, ConnectionOutcome, DeviceState, FaultStats, LabSeed};
pub use party::{label_party, party_version_bias, PartyBiasRow, THIRD_PARTY_DOMAINS};
pub use passive::{
    analyze_columnar, analyze_store, analyze_store_slice, analyze_streamed, shard_ranges,
    CipherMix, PassiveAccumulator, PassiveAnalysis, PassiveSummary, RevocationSummary, Series,
    VersionMix, VersionTransition,
};
pub use rootprobe::{
    library_alert_matrix, run_root_probe, LibraryAlertRow, ProbeVerdict, RootProbeReport,
    RootProbeRow,
};

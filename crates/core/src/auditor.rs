//! The §6 recommendations, implemented: a TLS *auditing service* that
//! devices contact at every reboot (the paper proposes vendors run
//! one), and a *guardian gateway* in the spirit of Hesselman et al.'s
//! SPIN that pauses insecure connections at the home router.
//!
//! Both consume only on-the-wire artifacts — ClientHellos and tapped
//! observations — so either could run against real devices unchanged.

use crate::experiment::{fault_stats_json, AuditService, Experiment, ExperimentCtx, Report};
use crate::lab::{ActiveLab, FaultStats, LabSeed};
use iotls_capture::json::Json;
use iotls_devices::Testbed;
use iotls_obs::Registry;
use iotls_simnet::TlsObservation;
use iotls_tls::ciphersuite;
use iotls_tls::extension::sig_scheme;
use iotls_tls::fingerprint::{Fingerprint, FingerprintId};
use iotls_tls::handshake::ClientHello;
use iotls_tls::version::ProtocolVersion;
use iotls_tls::Extension;
use std::collections::BTreeMap;
use std::fmt;

/// One problem the auditing service flags in a ClientHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditIssue {
    /// Advertises a version below TLS 1.2.
    DeprecatedVersionAdvertised(ProtocolVersion),
    /// Offers a DES/3DES/RC4/EXPORT suite.
    InsecureSuiteOffered(u16),
    /// Offers a NULL or anonymous suite (none ever seen in the study,
    /// but the service must check).
    NullOrAnonSuiteOffered(u16),
    /// Offers no forward-secret suite at all.
    NoForwardSecrecyOffered,
    /// Advertises rsa_pkcs1_sha1.
    WeakSignatureAlgorithm,
    /// Does not send SNI (breaks virtual hosting and auditing).
    MissingSni,
    /// Does not offer TLS 1.3.
    NoTls13,
}

impl AuditIssue {
    /// Severity weight for grading.
    fn weight(&self) -> u32 {
        match self {
            AuditIssue::NullOrAnonSuiteOffered(_) => 10,
            AuditIssue::DeprecatedVersionAdvertised(_) => 4,
            AuditIssue::InsecureSuiteOffered(_) => 3,
            AuditIssue::NoForwardSecrecyOffered => 3,
            AuditIssue::WeakSignatureAlgorithm => 2,
            AuditIssue::MissingSni => 1,
            AuditIssue::NoTls13 => 1,
        }
    }
}

impl fmt::Display for AuditIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditIssue::DeprecatedVersionAdvertised(v) => {
                write!(f, "advertises deprecated {v}")
            }
            AuditIssue::InsecureSuiteOffered(id) => {
                let name = ciphersuite::by_id(*id).map(|s| s.name).unwrap_or("?");
                write!(f, "offers insecure suite {name}")
            }
            AuditIssue::NullOrAnonSuiteOffered(id) => {
                let name = ciphersuite::by_id(*id).map(|s| s.name).unwrap_or("?");
                write!(f, "offers NULL/ANON suite {name}")
            }
            AuditIssue::NoForwardSecrecyOffered => write!(f, "offers no forward secrecy"),
            AuditIssue::WeakSignatureAlgorithm => write!(f, "advertises rsa_pkcs1_sha1"),
            AuditIssue::MissingSni => write!(f, "sends no SNI"),
            AuditIssue::NoTls13 => write!(f, "does not offer TLS 1.3"),
        }
    }
}

/// The service's overall grade for one TLS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Grade {
    /// Modern configuration, nothing to do.
    Good,
    /// Works today but needs maintenance (legacy offers, no 1.3).
    NeedsAttention,
    /// Insecure in a way an active attacker can exploit.
    Critical,
}

/// Grades one ClientHello the way the §6 auditing service would.
pub fn grade_client_hello(ch: &ClientHello) -> Vec<AuditIssue> {
    let mut issues = Vec::new();
    // A pre-1.3 hello only proves its *maximum* version (the minimum
    // is invisible on the wire), so the service flags a deprecated
    // max — the same semantics as Figure 1's "advertised" rows.
    if ch.max_version().is_deprecated() {
        issues.push(AuditIssue::DeprecatedVersionAdvertised(ch.max_version()));
    }
    for s in &ch.cipher_suites {
        if ciphersuite::id_is_null_or_anon(*s) {
            issues.push(AuditIssue::NullOrAnonSuiteOffered(*s));
            break;
        }
    }
    for s in &ch.cipher_suites {
        if ciphersuite::id_is_insecure(*s) {
            issues.push(AuditIssue::InsecureSuiteOffered(*s));
            break;
        }
    }
    if !ch
        .cipher_suites
        .iter()
        .any(|s| ciphersuite::id_is_forward_secret(*s))
    {
        issues.push(AuditIssue::NoForwardSecrecyOffered);
    }
    if ch.extensions.iter().any(|e| {
        matches!(e, Extension::SignatureAlgorithms(algs) if algs.contains(&sig_scheme::RSA_PKCS1_SHA1))
    }) {
        issues.push(AuditIssue::WeakSignatureAlgorithm);
    }
    if ch.server_name().is_none() {
        issues.push(AuditIssue::MissingSni);
    }
    if ch.max_version() < ProtocolVersion::Tls13 {
        issues.push(AuditIssue::NoTls13);
    }
    issues
}

/// Collapses issues into a grade.
pub fn grade(issues: &[AuditIssue]) -> Grade {
    let score: u32 = issues.iter().map(AuditIssue::weight).sum();
    match score {
        0..=1 => Grade::Good,
        2..=5 => Grade::NeedsAttention,
        _ => Grade::Critical,
    }
}

/// One instance's audit record.
#[derive(Debug, Clone)]
pub struct InstanceAudit {
    /// The instance's fingerprint.
    pub fingerprint: FingerprintId,
    /// Issues found.
    pub issues: Vec<AuditIssue>,
    /// The grade.
    pub grade: Grade,
}

/// One device's audit record.
#[derive(Debug, Clone)]
pub struct DeviceAudit {
    /// Device name.
    pub device: String,
    /// Per-instance audits (one per distinct fingerprint seen).
    pub instances: Vec<InstanceAudit>,
}

impl DeviceAudit {
    /// The device's grade: its worst instance.
    pub fn grade(&self) -> Grade {
        self.instances
            .iter()
            .map(|i| i.grade)
            .max()
            .unwrap_or(Grade::Good)
    }
}

/// The auditing-service report: per-device audits plus aggregated
/// fault counters.
#[derive(Debug, Clone)]
pub struct AuditorReport {
    /// One audit per active device, in roster order.
    pub audits: Vec<DeviceAudit>,
    /// Aggregated fault/recovery counters; all zeros outside chaos
    /// runs.
    pub fault_stats: FaultStats,
}

/// Runs the auditing service over every active device with the
/// default context: reboot, let the device connect, grade every
/// distinct ClientHello.
pub fn run_audit_service(testbed: &Testbed, seed: u64) -> Vec<DeviceAudit> {
    AuditService.run(testbed, &ExperimentCtx::new(seed)).audits
}

impl Experiment for AuditService {
    type Report = AuditorReport;

    fn name(&self) -> &'static str {
        "audit_service"
    }

    /// Runs the auditing service under the context: per-lab
    /// `sim.*`/`core.*` counters merge in roster order plus
    /// `auditor.*` grade tallies; the report's fault totals are read
    /// back from them.
    fn run(&self, testbed: &Testbed, ctx: &ExperimentCtx) -> AuditorReport {
        let seed = ctx.seed();
        let mut reg = Registry::new();
        // Each device gets its own lab and RNG stream; the ordered
        // fan-out keeps the report in roster order at any thread
        // count.
        let lab_seed = LabSeed::new(testbed.pki, seed ^ 0xA0D17);
        let devices: Vec<_> = testbed.devices.iter().filter(|d| d.spec.in_active).collect();
        let per_device = iotls_simnet::ordered_map_with(ctx.threads(), devices, |device| {
            let mut lab = ActiveLab::new(testbed, ctx, &lab_seed, device);
            let mut per_fp: BTreeMap<FingerprintId, Vec<AuditIssue>> = BTreeMap::new();
            for _ in 0..4 {
                for o in lab.boot_and_connect(None) {
                    per_fp
                        .entry(Fingerprint::from_client_hello(&o.first_hello).id())
                        .or_insert_with(|| grade_client_hello(&o.first_hello));
                }
            }
            let instances = per_fp
                .into_iter()
                .map(|(fingerprint, issues)| InstanceAudit {
                    fingerprint,
                    grade: grade(&issues),
                    issues,
                })
                .collect();
            let audit = DeviceAudit {
                device: device.spec.name.clone(),
                instances,
            };
            (audit, lab.metrics())
        });
        let audits = per_device
            .into_iter()
            .map(|(audit, device_reg)| {
                reg.merge(&device_reg);
                reg.inc("auditor.devices.audited");
                reg.add("auditor.instances.graded", audit.instances.len() as u64);
                for inst in &audit.instances {
                    reg.inc(match inst.grade {
                        Grade::Good => "auditor.grades.good",
                        Grade::NeedsAttention => "auditor.grades.needs_attention",
                        Grade::Critical => "auditor.grades.critical",
                    });
                    reg.add("auditor.issues.flagged", inst.issues.len() as u64);
                }
                audit
            })
            .collect();
        ctx.merge_metrics(&reg);
        AuditorReport {
            audits,
            fault_stats: FaultStats::from_counters(&reg),
        }
    }
}

impl Report for AuditorReport {
    fn to_json(&self) -> Json {
        let audits = self
            .audits
            .iter()
            .map(|a| {
                let instances = a
                    .instances
                    .iter()
                    .map(|inst| {
                        Json::Obj(vec![
                            (
                                "fingerprint".into(),
                                Json::Str(inst.fingerprint.to_string()),
                            ),
                            ("grade".into(), Json::Str(format!("{:?}", inst.grade))),
                            (
                                "issues".into(),
                                Json::Arr(
                                    inst.issues
                                        .iter()
                                        .map(|i| Json::Str(i.to_string()))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("device".into(), Json::Str(a.device.clone())),
                    ("grade".into(), Json::Str(format!("{:?}", a.grade()))),
                    ("instances".into(), Json::Arr(instances)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("audits".into(), Json::Arr(audits)),
            ("fault_stats".into(), fault_stats_json(&self.fault_stats)),
        ])
    }

    fn fixtures(&self) -> &'static [&'static str] {
        &[]
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        Some(&self.fault_stats)
    }
}

/// What the guardian gateway does with one observed connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardianAction {
    /// Let it through.
    Allow,
    /// Pause it and ask the user (with the reasons), as SPIN proposes.
    PauseAndAsk(Vec<String>),
}

/// The guardian's verdict for an observed connection: pause anything
/// that *negotiated* insecurely (deprecated version or insecure
/// suite) — advertisement alone does not block traffic.
pub fn guardian_verdict(obs: &TlsObservation) -> GuardianAction {
    let mut reasons = Vec::new();
    if let Some(v) = obs.negotiated_version {
        if v.is_deprecated() {
            reasons.push(format!("connection negotiated deprecated {v}"));
        }
    }
    if let Some(s) = obs.negotiated_suite {
        if ciphersuite::id_is_insecure(s) {
            let name = ciphersuite::by_id(s).map(|i| i.name).unwrap_or("?");
            reasons.push(format!("connection negotiated insecure suite {name}"));
        }
        if ciphersuite::id_is_null_or_anon(s) {
            reasons.push("connection negotiated a NULL/ANON suite".into());
        }
    }
    if reasons.is_empty() {
        GuardianAction::Allow
    } else {
        GuardianAction::PauseAndAsk(reasons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn audits() -> &'static Vec<DeviceAudit> {
        static A: OnceLock<Vec<DeviceAudit>> = OnceLock::new();
        A.get_or_init(|| run_audit_service(Testbed::global(), 0xA0D1))
    }

    fn device_grade(name: &str) -> Grade {
        audits()
            .iter()
            .find(|a| a.device == name)
            .unwrap_or_else(|| panic!("{name} not audited"))
            .grade()
    }

    #[test]
    fn covers_all_active_devices() {
        assert_eq!(audits().len(), 32);
        assert!(audits().iter().all(|a| !a.instances.is_empty()));
    }

    #[test]
    fn modern_stacks_grade_well() {
        assert!(device_grade("Google Home Mini") <= Grade::NeedsAttention);
        assert!(device_grade("Amazon Echo Dot 3") <= Grade::NeedsAttention);
    }

    #[test]
    fn legacy_stacks_grade_critical() {
        assert_eq!(device_grade("Wemo Plug"), Grade::Critical);
        assert_eq!(device_grade("Zmodo Doorbell"), Grade::Critical);
        // Fire TV's SSL 3.0 support is invisible in its hello (only
        // the fallback retry would reveal it), so the passive service
        // grades it NeedsAttention, not Critical.
        assert_eq!(device_grade("Fire TV"), Grade::NeedsAttention);
    }

    #[test]
    fn wemo_issue_list_names_its_problems() {
        let wemo = audits().iter().find(|a| a.device == "Wemo Plug").unwrap();
        let issues = &wemo.instances[0].issues;
        assert!(issues
            .iter()
            .any(|i| matches!(i, AuditIssue::DeprecatedVersionAdvertised(ProtocolVersion::Tls10))));
        assert!(issues.iter().any(|i| matches!(i, AuditIssue::InsecureSuiteOffered(_))));
        assert!(issues.iter().any(|i| matches!(i, AuditIssue::NoForwardSecrecyOffered)));
        assert!(issues.iter().any(|i| matches!(i, AuditIssue::MissingSni)));
    }

    #[test]
    fn no_device_offers_null_anon() {
        for audit in audits() {
            for inst in &audit.instances {
                assert!(!inst
                    .issues
                    .iter()
                    .any(|i| matches!(i, AuditIssue::NullOrAnonSuiteOffered(_))));
            }
        }
    }

    #[test]
    fn issue_display_is_readable() {
        let issue = AuditIssue::InsecureSuiteOffered(0x0005);
        assert_eq!(
            issue.to_string(),
            "offers insecure suite TLS_RSA_WITH_RC4_128_SHA"
        );
    }

    #[test]
    fn guardian_pauses_insecure_negotiations_only() {
        use iotls_capture::global_columnar;
        let ds = global_columnar();
        let observations = |device| ds.device_rows(device).map(|r| r.observation());
        // Wemo's connections negotiate TLS 1.0 → paused.
        let wemo: Vec<_> = observations("Wemo Plug").collect();
        assert!(wemo
            .iter()
            .all(|o| matches!(guardian_verdict(o), GuardianAction::PauseAndAsk(_))));
        // The D-Link camera negotiates modern TLS → allowed.
        let dlink: Vec<_> = observations("D-Link Camera").collect();
        assert!(dlink
            .iter()
            .all(|o| guardian_verdict(o) == GuardianAction::Allow));
        // Wink Hub 2's 3DES destination gets paused; its broken-but-
        // modern-looking OTA destination passes (the guardian sees
        // negotiation metadata, not validation behavior).
        let wink: Vec<_> = observations("Wink Hub 2").collect();
        assert!(wink.iter().any(
            |o| matches!(guardian_verdict(o), GuardianAction::PauseAndAsk(_))
        ));
        assert!(wink
            .iter()
            .any(|o| guardian_verdict(o) == GuardianAction::Allow));
    }
}

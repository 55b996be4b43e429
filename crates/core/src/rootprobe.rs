//! Root-store exploration via the TLS *Alert Message* side channel —
//! the paper's novel technique (§4.2, Tables 4 & 9, Figure 4).
//!
//! The probe intercepts one boot connection per reboot and presents a
//! *spoofed CA* chain: subject, issuer, and serial match a real root
//! certificate, but the signature comes from the attacker's key. A
//! client that trusts the spoofed name fails with a *signature* error
//! (`decrypt_error` / `bad_certificate`), while one that does not
//! fails with `unknown_ca` — if the device's TLS library sends
//! distinguishable alerts at all (Table 4). Everything here observes
//! the wire only; ground-truth store contents are never read.

use crate::attacker::InterceptPolicy;
use crate::experiment::{
    cache_stats_json, fault_stats_json, Experiment, ExperimentCtx, Report, RootProbe,
};
use crate::lab::{ActiveLab, FaultStats, LabSeed};
use iotls_capture::json::Json;
use iotls_devices::{canonical_probe_order, Testbed};
use iotls_obs::Registry;
use iotls_rootstore::CaId;
use iotls_tls::alert::AlertDescription;
use iotls_tls::profile::LibraryProfile;
use iotls_x509::cache::CacheStats;
use iotls_x509::ValidationError;
use std::collections::BTreeMap;

/// Verdict of one spoofed-CA probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeVerdict {
    /// The CA is in the device's root store.
    Present,
    /// The CA is not in the store.
    Absent,
    /// The device produced no usable traffic for this probe.
    Inconclusive,
}

/// One device's Table 9 row plus the per-certificate verdicts.
#[derive(Debug, Clone)]
pub struct RootProbeRow {
    /// Device name.
    pub device: String,
    /// Whether the device's alerts distinguish the two failures.
    pub amenable: bool,
    /// Verdicts for the common probe set.
    pub common: BTreeMap<CaId, ProbeVerdict>,
    /// Verdicts for the deprecated probe set.
    pub deprecated: BTreeMap<CaId, ProbeVerdict>,
}

impl RootProbeRow {
    fn count(set: &BTreeMap<CaId, ProbeVerdict>, v: ProbeVerdict) -> usize {
        set.values().filter(|x| **x == v).count()
    }

    /// (present, conclusive) for the common set — Table 9 column 2.
    pub fn common_ratio(&self) -> (usize, usize) {
        let present = Self::count(&self.common, ProbeVerdict::Present);
        let inconclusive = Self::count(&self.common, ProbeVerdict::Inconclusive);
        (present, self.common.len() - inconclusive)
    }

    /// (present, conclusive) for the deprecated set — column 3.
    pub fn deprecated_ratio(&self) -> (usize, usize) {
        let present = Self::count(&self.deprecated, ProbeVerdict::Present);
        let inconclusive = Self::count(&self.deprecated, ProbeVerdict::Inconclusive);
        (present, self.deprecated.len() - inconclusive)
    }

    /// Deprecated CAs found present (Figure 4's input).
    pub fn deprecated_present_ids(&self) -> Vec<CaId> {
        self.deprecated
            .iter()
            .filter(|(_, v)| **v == ProbeVerdict::Present)
            .map(|(id, _)| *id)
            .collect()
    }
}

/// Full probe report.
#[derive(Debug, Clone)]
pub struct RootProbeReport {
    /// Devices excluded as unsafe to reboot.
    pub excluded_reboot_unsafe: Vec<String>,
    /// Devices excluded for never validating certificates.
    pub excluded_no_validation: Vec<String>,
    /// Probed devices (amenable and not).
    pub rows: Vec<RootProbeRow>,
    /// Fault/recovery counters aggregated across every lab this probe
    /// spun up. All zeros outside chaos runs.
    pub fault_stats: FaultStats,
    /// Verification-cache hit/miss counters aggregated across the same
    /// labs.
    pub verify_cache_stats: CacheStats,
    /// Verdicts initially lost to injected faults and recovered by
    /// re-probing across extra reboots.
    pub reprobed_verdicts: usize,
}

impl RootProbeReport {
    /// The amenable rows — what Table 9 prints.
    pub fn amenable_rows(&self) -> Vec<&RootProbeRow> {
        self.rows.iter().filter(|r| r.amenable).collect()
    }

    /// Row by device name.
    pub fn row(&self, device: &str) -> Option<&RootProbeRow> {
        self.rows.iter().find(|r| r.device == device)
    }
}

/// What one reboot-probe attempt produced.
enum ProbeAttempt {
    /// Flaky boot: no traffic at all.
    NoTraffic,
    /// An injected network fault tainted the session; the (lack of an)
    /// alert says nothing about the device's store.
    Faulted,
    /// A clean session; the client's first alert, if any.
    Alert(Option<AlertDescription>),
}

/// Intercepts only the lab device's *first* boot connection under
/// `policy`. Every call consumes exactly one reboot, whether or not
/// the session survives its injected faults — so a chaos run walks
/// the device's flaky-boot schedule in lockstep with a clean run.
fn probe_attempt(lab: &mut ActiveLab<'_>, policy: &InterceptPolicy) -> ProbeAttempt {
    if !lab.power_cycle() {
        return ProbeAttempt::NoTraffic; // flaky boot
    }
    let Some(dest) = lab.device().spec.boot_destinations().first().copied() else {
        return ProbeAttempt::NoTraffic;
    };
    let outcome = lab.connect(dest, Some(policy));
    if outcome.result.tainted() {
        return ProbeAttempt::Faulted;
    }
    let alert = outcome
        .result
        .observation
        .as_ref()
        .and_then(|o| o.alerts_from_client.first().copied());
    ProbeAttempt::Alert(alert)
}

/// Repeats the probe across flaky boots up to `tries` times. Attempts
/// lost to injected faults don't count against the flaky-boot budget,
/// but total reboots are bounded at `2 * tries`.
fn probe_retrying(
    lab: &mut ActiveLab<'_>,
    policy: &InterceptPolicy,
    tries: u32,
) -> Option<Option<AlertDescription>> {
    let mut no_traffic = 0;
    let mut total = 0;
    while no_traffic < tries && total < tries * 2 {
        total += 1;
        match probe_attempt(lab, policy) {
            ProbeAttempt::Alert(alert) => return Some(alert),
            ProbeAttempt::Faulted => {}
            ProbeAttempt::NoTraffic => no_traffic += 1,
        }
    }
    None
}

/// Runs the full root-store exploration over the testbed with the
/// default context.
pub fn run_root_probe(testbed: &Testbed, seed: u64) -> RootProbeReport {
    RootProbe.run(testbed, &ExperimentCtx::new(seed))
}

impl Experiment for RootProbe {
    type Report = RootProbeReport;

    fn name(&self) -> &'static str {
        "root_probe"
    }

    /// Runs the root-store exploration under the context's fault
    /// schedule.
    ///
    /// Fault-tainted probes are provisionally inconclusive; after the
    /// main verdict pass, those certificates are re-probed across
    /// extra simulated reboots under a bounded retry budget. The extra
    /// reboots come *after* the full pass so the main pass's alignment
    /// with the device's flaky-boot schedule is untouched, and alert
    /// identity does not depend on the boot index — a recovered
    /// verdict is exactly what a fault-free run measures. Per-lab
    /// `sim.*`/`core.*`/`x509.*` counters merge in roster order, plus
    /// `rootprobe.*` fate and verdict counters tallied in the
    /// sequential merge — identical at any thread count. The report's
    /// fault, cache and re-probe totals are read back from that merged
    /// registry.
    fn run(&self, testbed: &Testbed, ctx: &ExperimentCtx) -> RootProbeReport {
        probe_all(testbed, ctx)
    }
}

impl Report for RootProbeReport {
    fn to_json(&self) -> Json {
        let str_arr = |names: &[String]| {
            Json::Arr(names.iter().map(|n| Json::Str(n.clone())).collect())
        };
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let (common_present, common_conclusive) = r.common_ratio();
                let (dep_present, dep_conclusive) = r.deprecated_ratio();
                Json::Obj(vec![
                    ("device".into(), Json::Str(r.device.clone())),
                    ("amenable".into(), Json::Bool(r.amenable)),
                    ("common_present".into(), Json::Num(common_present as i128)),
                    (
                        "common_conclusive".into(),
                        Json::Num(common_conclusive as i128),
                    ),
                    ("deprecated_present".into(), Json::Num(dep_present as i128)),
                    (
                        "deprecated_conclusive".into(),
                        Json::Num(dep_conclusive as i128),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "excluded_reboot_unsafe".into(),
                str_arr(&self.excluded_reboot_unsafe),
            ),
            (
                "excluded_no_validation".into(),
                str_arr(&self.excluded_no_validation),
            ),
            ("rows".into(), Json::Arr(rows)),
            (
                "reprobed_verdicts".into(),
                Json::Num(self.reprobed_verdicts as i128),
            ),
            ("fault_stats".into(), fault_stats_json(&self.fault_stats)),
            (
                "verify_cache".into(),
                cache_stats_json(&self.verify_cache_stats),
            ),
        ])
    }

    fn fixtures(&self) -> &'static [&'static str] {
        &["table9_rootstores", "fig4_staleness"]
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        Some(&self.fault_stats)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.verify_cache_stats)
    }
}

/// Counts verdicts recovered by re-probing; the report's
/// `reprobed_verdicts` is read back from it.
const REPROBED: &str = "rootprobe.verdicts.reprobed";

/// The probe body shared by the [`Experiment`] impl: fans devices out
/// under the context's thread policy and merges per-device shards in
/// roster order.
fn probe_all(testbed: &Testbed, ctx: &ExperimentCtx) -> RootProbeReport {
    let seed = ctx.seed();
    let mut reg = Registry::new();
    let order = canonical_probe_order(testbed.pki);
    let common_len = testbed.pki.common.len();
    let mut excluded_reboot_unsafe = Vec::new();
    let mut excluded_no_validation = Vec::new();
    let mut rows = Vec::new();

    // One device's fate after probing: excluded for one of the two §5.2
    // reasons, or a (possibly non-amenable) verdict row.
    enum DeviceFate {
        RebootUnsafe(String),
        NoValidation(String),
        Probed(Box<RootProbeRow>),
    }

    // One lab seed (and its attacker) per probe stage, shared by every
    // device's lab for that stage. Derived up front even when no device
    // reaches the stage.
    let screening = LabSeed::new(testbed.pki, seed ^ 0x5C4EE4);
    let amenability = LabSeed::new(testbed.pki, seed ^ 0xA3E4AB);
    let probing = LabSeed::new(testbed.pki, seed ^ 0x9420BE);
    let devices: Vec<_> = testbed.devices.iter().filter(|d| d.spec.in_active).collect();
    let per_device = iotls_simnet::ordered_map_with(ctx.threads(), devices, |device| {
        let mut device_reg = Registry::new();
        if !device.spec.reboot_safe {
            return (
                DeviceFate::RebootUnsafe(device.spec.name.clone()),
                device_reg,
            );
        }

        // Screening: a device whose connections can be terminated with
        // a bare self-signed certificate never validates — excluded,
        // as in §5.2. (Repeated attempts also catch the Yi quirk.)
        // A fault-tainted attempt is a network artifact, not a device
        // verdict: it earns an extra screening attempt instead of
        // consuming one.
        {
            let mut lab = ActiveLab::new(testbed, ctx, &screening, device);
            let mut never_validates = false;
            let mut budget = 5;
            let mut attempts = 0;
            while attempts < budget {
                attempts += 1;
                let Some(dest) = device.spec.boot_destinations().first().copied() else {
                    break;
                };
                let out = lab.connect(dest, Some(&InterceptPolicy::SelfSigned));
                if out.result.tainted() {
                    if budget < 10 {
                        budget += 1;
                    }
                    continue;
                }
                if out.result.established {
                    never_validates = true;
                    break;
                }
            }
            device_reg.merge(&lab.metrics());
            if never_validates {
                return (
                    DeviceFate::NoValidation(device.spec.name.clone()),
                    device_reg,
                );
            }
        }

        // Amenability: does a known-trusted spoof alert differently
        // from an unknown CA? The "popular web CA" (first common cert)
        // is the natural known-trusted candidate.
        let baseline;
        let known;
        {
            let mut lab = ActiveLab::new(testbed, ctx, &amenability, device);
            baseline = probe_retrying(&mut lab, &InterceptPolicy::SelfSigned, 8).flatten();
            let popular = testbed.pki.universe.get(testbed.pki.common[0]).cert.clone();
            known = probe_retrying(&mut lab, &InterceptPolicy::SpoofedCa(Box::new(popular)), 8)
                .flatten();
            device_reg.merge(&lab.metrics());
        }
        let amenable = match (baseline, known) {
            (Some(b), Some(k)) => b != k,
            _ => false,
        };

        let mut row = RootProbeRow {
            device: device.spec.name.clone(),
            amenable,
            common: BTreeMap::new(),
            deprecated: BTreeMap::new(),
        };

        if amenable {
            let unknown_alert = baseline.expect("amenable implies baseline alert");
            let verdict_for = |alert: Option<AlertDescription>| match alert {
                None => ProbeVerdict::Inconclusive,
                Some(alert) if alert == unknown_alert => ProbeVerdict::Absent,
                Some(_) => ProbeVerdict::Present,
            };
            // Fresh lab so probe boot k aligns with the device's boot
            // schedule for cert k.
            let mut lab = ActiveLab::new(testbed, ctx, &probing, device);
            let mut faulted_probes: Vec<usize> = Vec::new();
            for (idx, ca_id) in order.iter().enumerate() {
                let target = testbed.pki.universe.get(*ca_id).cert.clone();
                let policy = InterceptPolicy::SpoofedCa(Box::new(target));
                let verdict = match probe_attempt(&mut lab, &policy) {
                    ProbeAttempt::NoTraffic => ProbeVerdict::Inconclusive,
                    ProbeAttempt::Faulted => {
                        faulted_probes.push(idx);
                        ProbeVerdict::Inconclusive
                    }
                    ProbeAttempt::Alert(alert) => verdict_for(alert),
                };
                if idx < common_len {
                    row.common.insert(*ca_id, verdict);
                } else {
                    row.deprecated.insert(*ca_id, verdict);
                }
            }
            // Recovery: re-probe certificates whose verdicts were lost
            // to injected faults, each across a handful of extra
            // reboots. Flaky-boot inconclusives are left alone — they
            // are genuine no-traffic outcomes a clean run also sees.
            for idx in faulted_probes {
                let ca_id = order[idx];
                let target = testbed.pki.universe.get(ca_id).cert.clone();
                let recovered =
                    probe_retrying(&mut lab, &InterceptPolicy::SpoofedCa(Box::new(target)), 6);
                if let Some(alert) = recovered {
                    let verdict = verdict_for(alert);
                    if verdict != ProbeVerdict::Inconclusive {
                        device_reg.inc(REPROBED);
                        if idx < common_len {
                            row.common.insert(ca_id, verdict);
                        } else {
                            row.deprecated.insert(ca_id, verdict);
                        }
                    }
                }
            }
            device_reg.merge(&lab.metrics());
        }

        (DeviceFate::Probed(Box::new(row)), device_reg)
    });

    for (fate, device_reg) in per_device {
        reg.merge(&device_reg);
        match fate {
            DeviceFate::RebootUnsafe(name) => {
                reg.inc("rootprobe.fate.reboot_unsafe");
                excluded_reboot_unsafe.push(name);
            }
            DeviceFate::NoValidation(name) => {
                reg.inc("rootprobe.fate.no_validation");
                excluded_no_validation.push(name);
            }
            DeviceFate::Probed(row) => {
                reg.inc("rootprobe.fate.probed");
                if row.amenable {
                    reg.inc("rootprobe.devices.amenable");
                }
                for verdict in row.common.values().chain(row.deprecated.values()) {
                    reg.inc(match verdict {
                        ProbeVerdict::Present => "rootprobe.verdicts.present",
                        ProbeVerdict::Absent => "rootprobe.verdicts.absent",
                        ProbeVerdict::Inconclusive => "rootprobe.verdicts.inconclusive",
                    });
                }
                rows.push(*row);
            }
        }
    }
    ctx.merge_metrics(&reg);

    RootProbeReport {
        excluded_reboot_unsafe,
        excluded_no_validation,
        rows,
        fault_stats: FaultStats::from_counters(&reg),
        verify_cache_stats: CacheStats::from_counters(&reg),
        reprobed_verdicts: reg.counter(REPROBED) as usize,
    }
}

/// One Table 4 row: a library's alerts for the two failure classes.
#[derive(Debug, Clone)]
pub struct LibraryAlertRow {
    /// The library.
    pub library: LibraryProfile,
    /// Alert for a known CA with an invalid signature.
    pub known_ca_bad_signature: Option<AlertDescription>,
    /// Alert for an unknown CA.
    pub unknown_ca: Option<AlertDescription>,
}

impl LibraryAlertRow {
    /// The Table 4 amenability criterion.
    pub fn amenable(&self) -> bool {
        match (self.known_ca_bad_signature, self.unknown_ca) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }
}

/// Regenerates Table 4 by exercising each library profile's observable
/// alert behavior for the two validation failures.
pub fn library_alert_matrix() -> Vec<LibraryAlertRow> {
    LibraryProfile::ALL
        .iter()
        .map(|&library| LibraryAlertRow {
            library,
            known_ca_bad_signature: library.alert_for(ValidationError::BadSignature),
            unknown_ca: library.alert_for(ValidationError::UnknownIssuer),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn report() -> &'static RootProbeReport {
        static R: OnceLock<RootProbeReport> = OnceLock::new();
        R.get_or_init(|| run_root_probe(Testbed::global(), 0x6007))
    }

    #[test]
    fn probed_population_and_exclusions() {
        let r = report();
        assert_eq!(r.excluded_reboot_unsafe.len(), 4, "{:?}", r.excluded_reboot_unsafe);
        assert_eq!(r.excluded_no_validation.len(), 4, "{:?}", r.excluded_no_validation);
        assert_eq!(r.rows.len(), 24);
    }

    #[test]
    fn eight_devices_amenable() {
        let names: Vec<&str> = report()
            .amenable_rows()
            .iter()
            .map(|r| r.device.as_str())
            .collect();
        assert_eq!(names.len(), 8, "{names:?}");
        for expected in [
            "Google Home Mini",
            "Amazon Echo Plus",
            "Amazon Echo Dot",
            "Amazon Echo Dot 3",
            "Wink Hub 2",
            "Roku TV",
            "LG TV",
            "Harman Invoke",
        ] {
            assert!(names.contains(&expected), "{expected} missing");
        }
    }

    #[test]
    fn table9_ratios_match_paper() {
        let expect = [
            ("Google Home Mini", (119, 119), (4, 71)),
            ("Amazon Echo Plus", (103, 105), (13, 72)),
            ("Amazon Echo Dot", (117, 119), (14, 72)),
            ("Amazon Echo Dot 3", (86, 96), (17, 72)),
            ("Wink Hub 2", (109, 119), (27, 72)),
            ("Roku TV", (96, 106), (33, 81)),
            ("LG TV", (96, 103), (48, 82)),
            ("Harman Invoke", (67, 82), (41, 70)),
        ];
        for (name, common, deprecated) in expect {
            let row = report().row(name).unwrap();
            assert_eq!(row.common_ratio(), common, "{name} common");
            assert_eq!(row.deprecated_ratio(), deprecated, "{name} deprecated");
        }
    }

    #[test]
    fn measured_verdicts_match_ground_truth() {
        // The blackbox probe must agree with the hidden store on every
        // conclusive verdict.
        let tb = Testbed::global();
        for row in report().amenable_rows() {
            let truth = &tb.device(&row.device).truth;
            for (id, verdict) in row.common.iter().chain(row.deprecated.iter()) {
                match verdict {
                    ProbeVerdict::Present => {
                        let in_store = truth.common_present.contains(id)
                            || truth.deprecated_present.contains(id);
                        assert!(in_store, "{}: {:?} false positive", row.device, id);
                    }
                    ProbeVerdict::Absent => {
                        let in_store = truth.common_present.contains(id)
                            || truth.deprecated_present.contains(id);
                        assert!(!in_store, "{}: {:?} false negative", row.device, id);
                    }
                    ProbeVerdict::Inconclusive => {}
                }
            }
        }
    }

    #[test]
    fn all_amenable_devices_trust_a_distrusted_ca() {
        let tb = Testbed::global();
        let distrusted: std::collections::BTreeSet<CaId> =
            tb.pki.universe.distrusted_ids().into_iter().collect();
        for row in report().amenable_rows() {
            let present = row.deprecated_present_ids();
            assert!(
                present.iter().any(|id| distrusted.contains(id)),
                "{} trusts no distrusted CA",
                row.device
            );
        }
    }

    #[test]
    fn non_amenable_devices_have_no_verdicts() {
        for row in &report().rows {
            if !row.amenable {
                assert!(row.common.is_empty() && row.deprecated.is_empty());
            }
        }
    }

    #[test]
    fn table4_matrix_matches_paper() {
        let matrix = library_alert_matrix();
        assert_eq!(matrix.len(), 6);
        let amenable: Vec<LibraryProfile> = matrix
            .iter()
            .filter(|r| r.amenable())
            .map(|r| r.library)
            .collect();
        assert_eq!(
            amenable,
            vec![LibraryProfile::MbedTls, LibraryProfile::OpenSsl]
        );
        let openssl = matrix
            .iter()
            .find(|r| r.library == LibraryProfile::OpenSsl)
            .unwrap();
        assert_eq!(
            openssl.known_ca_bad_signature,
            Some(AlertDescription::DecryptError)
        );
        assert_eq!(openssl.unknown_ca, Some(AlertDescription::UnknownCa));
    }
}

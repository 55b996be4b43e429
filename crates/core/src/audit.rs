//! The TLS interception audit (Table 7) with TrafficPassthrough
//! (§4.2).
//!
//! For every device in the active experiments, the audit power-cycles
//! the device under each Table 2 attack, records which destinations
//! the attacker could terminate, inspects the exfiltrated plaintext
//! for sensitive markers, and then re-runs with passthrough for
//! previously-failed connections to surface follow-up hostnames.

use crate::attacker::InterceptPolicy;
use crate::experiment::{
    cache_stats_json, fault_stats_json, Experiment, ExperimentCtx, InterceptionAudit, Report,
};
use crate::lab::{ActiveLab, FaultStats};
use iotls_capture::json::Json;
use iotls_devices::Testbed;
use iotls_obs::Registry;
use iotls_tls::middleware::{Flow, Middleware, Verdict};
use iotls_tls::record::ContentType;
use iotls_x509::cache::CacheStats;
use std::collections::BTreeSet;

/// Sensitive-content markers the paper quotes from intercepted
/// connections.
pub const SENSITIVE_MARKERS: [&str; 4] =
    ["encrypt_key", "command server", "deviceSecret", "bearer"];

/// One device's row in Table 7.
#[derive(Debug, Clone)]
pub struct InterceptionRow {
    /// Device name.
    pub device: String,
    /// Vulnerable to the self-signed (NoValidation) attack.
    pub no_validation: bool,
    /// Vulnerable to the InvalidBasicConstraints attack.
    pub invalid_basic_constraints: bool,
    /// Vulnerable to the WrongHostname attack.
    pub wrong_hostname: bool,
    /// Destinations compromised by at least one attack.
    pub vulnerable_destinations: BTreeSet<String>,
    /// All destinations observed for the device (incl. passthrough
    /// follow-ups) — Table 7's denominator.
    pub total_destinations: BTreeSet<String>,
    /// Sensitive plaintext fragments recovered.
    pub sensitive_leaks: Vec<String>,
}

impl InterceptionRow {
    /// True when any attack worked.
    pub fn is_vulnerable(&self) -> bool {
        self.no_validation || self.invalid_basic_constraints || self.wrong_hostname
    }
}

/// The full audit report.
#[derive(Debug, Clone)]
pub struct InterceptionReport {
    /// One row per audited device (all active devices, vulnerable or
    /// not).
    pub rows: Vec<InterceptionRow>,
    /// Mean fraction of additional hostnames surfaced by
    /// TrafficPassthrough across devices that surfaced any (§4.2
    /// reports ≈20.4%).
    pub passthrough_extra_hostnames_pct: f64,
    /// Fault/recovery counters aggregated across every lab the audit
    /// spun up. All zeros outside chaos runs.
    pub fault_stats: FaultStats,
    /// Verification-cache hit/miss counters aggregated across the same
    /// labs.
    pub verify_cache_stats: iotls_x509::cache::CacheStats,
}

impl InterceptionReport {
    /// Rows for vulnerable devices only (what Table 7 prints).
    pub fn vulnerable_rows(&self) -> Vec<&InterceptionRow> {
        self.rows.iter().filter(|r| r.is_vulnerable()).collect()
    }

    /// Devices whose compromised connections carried sensitive data.
    pub fn leaky_devices(&self) -> Vec<&InterceptionRow> {
        self.rows
            .iter()
            .filter(|r| !r.sensitive_leaks.is_empty())
            .collect()
    }

    /// Looks up a row by device name.
    pub fn row(&self, device: &str) -> Option<&InterceptionRow> {
        self.rows.iter().find(|r| r.device == device)
    }
}

/// Runs one attack against every boot connection of one device,
/// returning the compromised destinations and leaked payloads.
fn attack_device(
    lab: &mut ActiveLab<'_>,
    device_name: &str,
    policy: &InterceptPolicy,
) -> (BTreeSet<String>, Vec<String>, BTreeSet<String>) {
    let device = lab.testbed.device(device_name);
    let mut compromised = BTreeSet::new();
    let mut leaks = Vec::new();
    let mut observed = BTreeSet::new();
    // Power-cycle repeatedly: flaky boots produce no traffic, and
    // repeated failures are exactly what flips the Yi Camera's
    // give-up quirk (§5.2).
    for _ in 0..5 {
        let outcomes = lab.boot_and_connect(device, Some(policy));
        for o in &outcomes {
            observed.insert(o.destination.clone());
            if o.result.tainted() {
                // An unhealed network fault says nothing about the
                // device's validation behavior — never mint a verdict
                // from it.
                continue;
            }
            if o.intercepted && o.result.established {
                compromised.insert(o.destination.clone());
                let plaintext = String::from_utf8_lossy(&o.result.server_received);
                for marker in SENSITIVE_MARKERS {
                    if plaintext.contains(marker) && !leaks.iter().any(|l: &String| l == marker) {
                        leaks.push(marker.to_string());
                    }
                }
            }
        }
    }
    (compromised, leaks, observed)
}

/// Runs the full Table 7 audit over the active devices with the
/// default context (env-resolved thread policy, no faults).
pub fn run_interception_audit(testbed: &Testbed, seed: u64) -> InterceptionReport {
    InterceptionAudit.run(testbed, &ExperimentCtx::new(seed))
}

/// Observe-only middleware expressing the audit's wire-level
/// observables as a gateway chain member: counts handshakes,
/// certificate presentations, and post-handshake application
/// records, and — exactly like a physical wire audit — recovers
/// [`SENSITIVE_MARKERS`] only from sessions whose negotiated cipher
/// left the payload legible (NULL-cipher suites); keystream-protected
/// sessions contribute traffic counts alone.
#[derive(Debug, Default)]
pub struct AuditObserver {
    /// ClientHello messages observed.
    pub client_hellos: u64,
    /// Certificate messages observed.
    pub certificates: u64,
    /// ApplicationData records observed.
    pub app_records: u64,
    /// Sessions closed under this observer.
    pub sessions: u64,
    /// Distinct sensitive markers recovered from legible payloads.
    pub markers_seen: BTreeSet<&'static str>,
}

impl Middleware for AuditObserver {
    fn on_record(&mut self, _flow: Flow, content_type: ContentType, payload: &mut [u8]) -> Verdict {
        if content_type == ContentType::ApplicationData {
            self.app_records += 1;
            for marker in SENSITIVE_MARKERS {
                if !self.markers_seen.contains(marker)
                    && payload.windows(marker.len()).any(|w| w == marker.as_bytes())
                {
                    self.markers_seen.insert(marker);
                }
            }
        }
        Verdict::Continue
    }

    fn on_client_hello(&mut self, _flow: Flow, _body: &mut [u8]) -> Verdict {
        self.client_hellos += 1;
        Verdict::Continue
    }

    fn on_certificate(&mut self, _flow: Flow, _body: &mut [u8]) -> Verdict {
        self.certificates += 1;
        Verdict::Continue
    }

    fn on_close(&mut self) {
        self.sessions += 1;
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl Experiment for InterceptionAudit {
    type Report = InterceptionReport;

    fn name(&self) -> &'static str {
        "interception_audit"
    }

    /// Runs the Table 7 audit under the context's fault schedule.
    /// Faulted connections recover inside the lab (inline re-dials
    /// plus boot-level reconnects); any outcome still tainted after
    /// the budget is excluded from vulnerability verdicts — a dropped
    /// connection is not evidence that a device declined an attack.
    /// Each per-device lab's `sim.*`/`core.*`/`x509.*` counters plus
    /// the `audit.*` verdict counters merge in roster order so the
    /// totals are identical at any thread count.
    fn run(&self, testbed: &Testbed, ctx: &ExperimentCtx) -> InterceptionReport {
        let seed = ctx.seed();
        let mut rows = Vec::new();
        let mut passthrough_gains = Vec::new();
        let mut fault_stats = FaultStats::default();
        let mut verify_cache_stats = CacheStats::default();
        let mut reg = Registry::new();

        // Each device gets fresh labs seeded independently of roster
        // position, so the per-device work fans out across workers and
        // the ordered merge below reproduces the sequential
        // accumulation exactly.
        let devices: Vec<_> = testbed.devices.iter().filter(|d| d.spec.in_active).collect();
        let per_device = iotls_simnet::ordered_map_with(ctx.threads(), devices, |device| {
            // Fresh lab per device per attack so the Yi quirk and boot
            // counters don't bleed between experiments.
            let mut device_stats = FaultStats::default();
            let mut device_cache = CacheStats::default();
            let mut device_reg = Registry::new();
            let mut device_gain = None;
            let mut vulnerable = BTreeSet::new();
            let mut leaks: Vec<String> = Vec::new();
            let mut observed: BTreeSet<String> = BTreeSet::new();
            let mut flags = [false; 3];
            let policies = [
                InterceptPolicy::SelfSigned,
                InterceptPolicy::InvalidBasicConstraints,
                InterceptPolicy::WrongHostname,
            ];
            for (i, policy) in policies.iter().enumerate() {
                let mut lab = ActiveLab::with_ctx(testbed, ctx, seed ^ (i as u64) << 8);
                let (compromised, attack_leaks, seen) =
                    attack_device(&mut lab, &device.spec.name, policy);
                flags[i] = !compromised.is_empty();
                vulnerable.extend(compromised);
                for l in attack_leaks {
                    if !leaks.contains(&l) {
                        leaks.push(l);
                    }
                }
                observed.extend(seen);

                // TrafficPassthrough: pass previously-failed
                // connections through and re-attack whatever else
                // appears.
                let failed: Vec<String> = device
                    .spec
                    .boot_destinations()
                    .iter()
                    .map(|d| d.hostname.clone())
                    .filter(|h| !vulnerable.contains(h))
                    .collect();
                let before = observed.len();
                {
                    let state = lab.state(&device.spec.name);
                    for h in failed {
                        state.passthrough.insert(h);
                    }
                }
                // Retry across flaky boots until the device talks.
                for _ in 0..6 {
                    let outcomes = lab.boot_and_connect(device, Some(policy));
                    for o in &outcomes {
                        observed.insert(o.destination.clone());
                        if o.result.tainted() {
                            continue;
                        }
                        if o.intercepted && o.result.established {
                            vulnerable.insert(o.destination.clone());
                            flags[i] = true;
                        }
                    }
                    if !outcomes.is_empty() {
                        break;
                    }
                }
                let after = observed.len();
                if i == 0 && before > 0 && after > before {
                    device_gain = Some((after - before) as f64 / before as f64 * 100.0);
                }
                device_stats.merge(&lab.fault_stats());
                device_cache.merge(&lab.verify_cache_stats());
                device_reg.merge(&lab.metrics());
                device_reg.inc("audit.attacks.run");
            }
            device_reg.inc("audit.devices.audited");
            for (flag, name) in flags.iter().zip([
                "audit.verdicts.no_validation",
                "audit.verdicts.invalid_basic_constraints",
                "audit.verdicts.wrong_hostname",
            ]) {
                if *flag {
                    device_reg.inc(name);
                }
            }
            device_reg.add("audit.destinations.compromised", vulnerable.len() as u64);
            device_reg.add("audit.destinations.observed", observed.len() as u64);
            device_reg.add("audit.leaks.sensitive", leaks.len() as u64);

            let row = InterceptionRow {
                device: device.spec.name.clone(),
                no_validation: flags[0],
                invalid_basic_constraints: flags[1],
                wrong_hostname: flags[2],
                vulnerable_destinations: vulnerable,
                total_destinations: observed,
                sensitive_leaks: leaks,
            };
            (row, device_gain, device_stats, device_cache, device_reg)
        });

        for (row, gain, stats, cache, device_reg) in per_device {
            rows.push(row);
            if let Some(g) = gain {
                passthrough_gains.push(g);
            }
            fault_stats.merge(&stats);
            verify_cache_stats.merge(&cache);
            reg.merge(&device_reg);
        }
        ctx.merge_metrics(&reg);

        let passthrough_extra_hostnames_pct = if passthrough_gains.is_empty() {
            0.0
        } else {
            passthrough_gains.iter().sum::<f64>() / passthrough_gains.len() as f64
        };

        InterceptionReport {
            rows,
            passthrough_extra_hostnames_pct,
            fault_stats,
            verify_cache_stats,
        }
    }
}

impl Report for InterceptionReport {
    fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("device".into(), Json::Str(r.device.clone())),
                    ("no_validation".into(), Json::Bool(r.no_validation)),
                    (
                        "invalid_basic_constraints".into(),
                        Json::Bool(r.invalid_basic_constraints),
                    ),
                    ("wrong_hostname".into(), Json::Bool(r.wrong_hostname)),
                    (
                        "vulnerable_destinations".into(),
                        Json::Num(r.vulnerable_destinations.len() as i128),
                    ),
                    (
                        "total_destinations".into(),
                        Json::Num(r.total_destinations.len() as i128),
                    ),
                    (
                        "sensitive_leaks".into(),
                        Json::Arr(
                            r.sensitive_leaks
                                .iter()
                                .map(|l| Json::Str(l.clone()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("rows".into(), Json::Arr(rows)),
            (
                "passthrough_extra_hostnames_bp".into(),
                Json::Num((self.passthrough_extra_hostnames_pct * 100.0).round() as i128),
            ),
            ("fault_stats".into(), fault_stats_json(&self.fault_stats)),
            (
                "verify_cache".into(),
                cache_stats_json(&self.verify_cache_stats),
            ),
        ])
    }

    fn fixtures(&self) -> &'static [&'static str] {
        &["table7_interception"]
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        Some(&self.fault_stats)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.verify_cache_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn report() -> &'static InterceptionReport {
        static R: OnceLock<InterceptionReport> = OnceLock::new();
        R.get_or_init(|| run_interception_audit(Testbed::global(), 0x7AB1E7))
    }

    #[test]
    fn eleven_devices_vulnerable() {
        let vulnerable = report().vulnerable_rows();
        let names: Vec<&str> = vulnerable.iter().map(|r| r.device.as_str()).collect();
        assert_eq!(vulnerable.len(), 11, "{names:?}");
    }

    #[test]
    fn fully_vulnerable_devices_match_table7() {
        // Seven devices fail all three attacks.
        let all_three: Vec<&str> = report()
            .rows
            .iter()
            .filter(|r| r.no_validation && r.invalid_basic_constraints && r.wrong_hostname)
            .map(|r| r.device.as_str())
            .collect();
        assert_eq!(all_three.len(), 7, "{all_three:?}");
        for name in [
            "Zmodo Doorbell",
            "Amcrest Camera",
            "Smarter Brewer",
            "Yi Camera",
            "Wink Hub 2",
            "LG TV",
            "Smartthings Hub",
        ] {
            assert!(all_three.contains(&name), "{name} missing");
        }
    }

    #[test]
    fn amazon_devices_fail_only_wrong_hostname() {
        for name in [
            "Amazon Echo Plus",
            "Amazon Echo Dot",
            "Amazon Echo Spot",
            "Fire TV",
        ] {
            let row = report().row(name).unwrap();
            assert!(!row.no_validation, "{name} NoValidation");
            assert!(!row.invalid_basic_constraints, "{name} InvalidBC");
            assert!(row.wrong_hostname, "{name} WrongHostname");
        }
    }

    #[test]
    fn vulnerable_destination_ratios_match_table7() {
        let expect = [
            ("Zmodo Doorbell", 6, 6),
            ("Amcrest Camera", 2, 2),
            ("Smarter Brewer", 1, 1),
            ("Yi Camera", 1, 1),
            ("Wink Hub 2", 1, 2),
            ("LG TV", 1, 2),
            ("Smartthings Hub", 1, 3),
            ("Amazon Echo Plus", 1, 8),
            ("Amazon Echo Dot", 1, 9),
            ("Amazon Echo Spot", 1, 17),
            ("Fire TV", 1, 21),
        ];
        for (name, vuln, total) in expect {
            let row = report().row(name).unwrap();
            assert_eq!(
                (row.vulnerable_destinations.len(), row.total_destinations.len()),
                (vuln, total),
                "{name}"
            );
        }
    }

    #[test]
    fn seven_devices_leak_sensitive_data() {
        let leaky = report().leaky_devices();
        let names: Vec<&str> = leaky.iter().map(|r| r.device.as_str()).collect();
        assert_eq!(leaky.len(), 7, "{names:?}");
    }

    #[test]
    fn strict_devices_not_vulnerable() {
        for name in ["D-Link Camera", "Google Home Mini", "Roku TV", "Apple TV"] {
            let row = report().row(name).unwrap();
            assert!(!row.is_vulnerable(), "{name} flagged vulnerable");
        }
    }

    #[test]
    fn passthrough_surfaces_extra_hostnames_near_20pct() {
        let pct = report().passthrough_extra_hostnames_pct;
        assert!(
            (5.0..=40.0).contains(&pct),
            "passthrough gain {pct:.1}% outside plausible band"
        );
    }
}

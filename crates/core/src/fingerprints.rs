//! Active fingerprint survey (§5.3, Figure 5 input).
//!
//! Reboots every active device with the gateway in tap-only mode and
//! collects the ClientHello fingerprints crossing the wire — the
//! "snapshot in time" the paper fingerprints, since passive data may
//! mix library versions across firmware updates.

use crate::experiment::{
    fault_stats_json, Experiment, ExperimentCtx, FingerprintSurveyor, Report,
};
use crate::lab::{ActiveLab, FaultStats, LabSeed};
use iotls_capture::json::Json;
use iotls_devices::Testbed;
use iotls_obs::Registry;
use iotls_tls::fingerprint::FingerprintId;
use std::collections::{BTreeMap, BTreeSet};

/// The survey result.
#[derive(Debug, Clone, Default)]
pub struct FingerprintSurvey {
    /// Device → set of fingerprints observed.
    pub by_device: BTreeMap<String, BTreeSet<FingerprintId>>,
    /// Device → the fingerprint seen on the most connections (the
    /// thick edges of Figure 5).
    pub dominant: BTreeMap<String, FingerprintId>,
    /// Fingerprint → devices using it.
    pub by_fingerprint: BTreeMap<FingerprintId, BTreeSet<String>>,
    /// Fault/recovery counters aggregated across the survey labs. All
    /// zeros outside chaos runs.
    pub fault_stats: FaultStats,
}

impl FingerprintSurvey {
    /// Devices exhibiting more than one fingerprint (multiple TLS
    /// instances).
    pub fn devices_with_multiple_instances(&self) -> Vec<&String> {
        self.by_device
            .iter()
            .filter(|(_, fps)| fps.len() > 1)
            .map(|(d, _)| d)
            .collect()
    }

    /// Devices sharing at least one fingerprint with another device.
    pub fn devices_sharing_fingerprints(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for devices in self.by_fingerprint.values() {
            if devices.len() > 1 {
                out.extend(devices.iter().cloned());
            }
        }
        out
    }

    /// Fingerprints used by more than one device.
    pub fn shared_fingerprints(&self) -> Vec<(FingerprintId, &BTreeSet<String>)> {
        self.by_fingerprint
            .iter()
            .filter(|(_, d)| d.len() > 1)
            .map(|(fp, d)| (*fp, d))
            .collect()
    }
}

/// Runs the survey over every active device with the default context.
pub fn run_fingerprint_survey(testbed: &Testbed, seed: u64) -> FingerprintSurvey {
    FingerprintSurveyor.run(testbed, &ExperimentCtx::new(seed))
}

impl Experiment for FingerprintSurveyor {
    type Report = FingerprintSurvey;

    fn name(&self) -> &'static str {
        "fingerprint_survey"
    }

    /// Runs the survey under the context: per-lab `sim.*`/`core.*`
    /// counters merge in roster order plus `fingerprints.*`
    /// distinct/observation tallies; the survey's fault totals are
    /// read back from them.
    fn run(&self, testbed: &Testbed, ctx: &ExperimentCtx) -> FingerprintSurvey {
        let seed = ctx.seed();
        let mut survey = FingerprintSurvey::default();
        let mut reg = Registry::new();
        // Per-device collection fans out; the BTreeMap accumulators
        // make the merge order-insensitive anyway, but the ordered
        // merge keeps the degenerate paths identical too.
        let lab_seed = LabSeed::new(testbed.pki, seed ^ 0xF19E4);
        let devices: Vec<_> = testbed.devices.iter().filter(|d| d.spec.in_active).collect();
        let per_device = iotls_simnet::ordered_map_with(ctx.threads(), devices, |device| {
            let mut lab = ActiveLab::new(testbed, ctx, &lab_seed, device);
            let mut counts: BTreeMap<FingerprintId, u64> = BTreeMap::new();
            let mut seen: BTreeSet<FingerprintId> = BTreeSet::new();
            // A few reboots to ride out flaky boots and reach
            // follow-up destinations.
            for _ in 0..4 {
                let outcomes = lab.boot_and_connect(None);
                for o in &outcomes {
                    *counts.entry(o.first_fingerprint).or_insert(0) += 1;
                    seen.insert(o.first_fingerprint);
                }
            }
            let dominant = counts.iter().max_by_key(|(_, c)| **c).map(|(fp, _)| *fp);
            (device.spec.name.clone(), seen, dominant, lab.metrics())
        });

        for (name, seen, dominant, device_reg) in per_device {
            reg.merge(&device_reg);
            reg.inc("fingerprints.devices.surveyed");
            reg.add("fingerprints.distinct_per_device", seen.len() as u64);
            for fp in &seen {
                survey
                    .by_fingerprint
                    .entry(*fp)
                    .or_default()
                    .insert(name.clone());
            }
            if !seen.is_empty() {
                survey.by_device.insert(name.clone(), seen);
            }
            if let Some(fp) = dominant {
                survey.dominant.insert(name, fp);
            }
        }
        reg.set_gauge(
            "fingerprints.distinct",
            survey.by_fingerprint.len() as i64,
        );
        ctx.merge_metrics(&reg);
        survey.fault_stats = FaultStats::from_counters(&reg);
        survey
    }
}

impl Report for FingerprintSurvey {
    fn to_json(&self) -> Json {
        let by_device = self
            .by_device
            .iter()
            .map(|(name, fps)| {
                (
                    name.clone(),
                    Json::Arr(fps.iter().map(|fp| Json::Str(fp.to_string())).collect()),
                )
            })
            .collect();
        let shared = self
            .shared_fingerprints()
            .into_iter()
            .map(|(fp, devices)| {
                Json::Obj(vec![
                    ("fingerprint".into(), Json::Str(fp.to_string())),
                    (
                        "devices".into(),
                        Json::Arr(devices.iter().map(|d| Json::Str(d.clone())).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("by_device".into(), Json::Obj(by_device)),
            ("shared".into(), Json::Arr(shared)),
            ("fault_stats".into(), fault_stats_json(&self.fault_stats)),
        ])
    }

    fn fixtures(&self) -> &'static [&'static str] {
        &["fig5_sharing_graph"]
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        Some(&self.fault_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn survey() -> &'static FingerprintSurvey {
        static S: OnceLock<FingerprintSurvey> = OnceLock::new();
        S.get_or_init(|| run_fingerprint_survey(Testbed::global(), 0x5075))
    }

    #[test]
    fn covers_all_32_active_devices() {
        assert_eq!(survey().by_device.len(), 32);
        assert_eq!(survey().dominant.len(), 32);
    }

    #[test]
    fn fourteen_devices_have_multiple_fingerprints() {
        // §5.3: 14/32 devices show more than one fingerprint.
        let multi = survey().devices_with_multiple_instances();
        assert_eq!(multi.len(), 14, "{multi:?}");
    }

    #[test]
    fn amazon_family_shares_the_android_fingerprint() {
        let s = survey();
        let dot = &s.by_device["Amazon Echo Dot"];
        let plus = &s.by_device["Amazon Echo Plus"];
        let spot = &s.by_device["Amazon Echo Spot"];
        let firetv = &s.by_device["Fire TV"];
        let shared: Vec<_> = dot
            .iter()
            .filter(|fp| plus.contains(fp) && spot.contains(fp) && firetv.contains(fp))
            .collect();
        assert!(!shared.is_empty(), "no fingerprint shared across the family");
    }

    #[test]
    fn echo_dot3_overlaps_less_with_the_family() {
        let s = survey();
        let dot3 = &s.by_device["Amazon Echo Dot 3"];
        let dot = &s.by_device["Amazon Echo Dot"];
        let family_overlap = dot3.intersection(dot).count();
        // The Dot 3 never shares the android-sdk main fingerprint.
        let dominant_dot = s.dominant["Amazon Echo Dot"];
        assert!(!dot3.contains(&dominant_dot));
        assert!(family_overlap <= 1, "overlap {family_overlap}");
    }

    #[test]
    fn openssl_trio_shares_a_fingerprint() {
        let s = survey();
        let wink = &s.by_device["Wink Hub 2"];
        let lg = &s.by_device["LG TV"];
        let invoke = &s.by_device["Harman Invoke"];
        assert!(
            wink.iter().any(|fp| lg.contains(fp) && invoke.contains(fp)),
            "openssl-1.0.2 fingerprint not shared"
        );
    }

    #[test]
    fn apple_devices_share_a_fingerprint() {
        let s = survey();
        let atv = &s.by_device["Apple TV"];
        let pod = &s.by_device["Apple HomePod"];
        assert!(atv.iter().any(|fp| pod.contains(fp)));
    }

    #[test]
    fn fifteen_devices_share_fingerprints_within_the_testbed() {
        // The paper's "19 devices share at least one fingerprint with
        // other devices and/or applications" also counts matches
        // against the labeled application database; device-to-device
        // sharing alone covers 15 here (the analysis crate adds the
        // application matches).
        let sharing = survey().devices_sharing_fingerprints();
        assert_eq!(sharing.len(), 15, "{sharing:?}");
    }

    #[test]
    fn single_instance_devices_have_one_fingerprint() {
        let s = survey();
        for name in ["D-Link Camera", "Wemo Plug", "Google Home Mini"] {
            assert_eq!(s.by_device[name].len(), 1, "{name}");
        }
    }
}

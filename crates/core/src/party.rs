//! First/third-party destination labeling and the §5.1 bias test.
//!
//! The paper labels each TLS connection first- or third-party "using
//! an approach inspired by Ren et al." and tests the hypothesis that
//! devices advertising multiple maximum TLS versions do so per
//! destination party — finding *no* such pattern (supporting the
//! multiple-TLS-instances explanation instead). This module
//! implements the labeling heuristic (vendor-token matching plus a
//! curated tracker/CDN list, as the original approach combines
//! WHOIS-style ownership with blocklists) and the bias analysis.

use iotls_capture::ColumnarDataset;
use iotls_devices::Party;
use iotls_tls::version::ProtocolVersion;
use std::collections::{BTreeMap, BTreeSet};

/// Registrable-domain labels known to be third-party services
/// (advertising, analytics, CDNs, app marketplaces) — the blocklist
/// half of the labeling approach.
pub const THIRD_PARTY_DOMAINS: [&str; 6] = [
    "samsungads",
    "samsungacr",
    "amazon-ads",
    "rokuapps",
    "applemedia",
    "samsungcdn",
];

/// Vendor aliases that device names do not literally contain.
fn vendor_tokens(device: &str) -> Vec<String> {
    let mut tokens: Vec<String> = device
        .to_ascii_lowercase()
        .split_whitespace()
        .filter(|w| w.len() >= 3 && !matches!(*w, "hub" | "plug" | "bulb" | "mini" | "dot"))
        .map(str::to_string)
        .collect();
    let extra: &[(&str, &[&str])] = &[
        ("Google Home Mini", &["googlecast"]),
        ("Wemo Plug", &["xbcs"]),
        ("Smartlife Bulb", &["tuya"]),
        ("Smartlife Remote", &["tuya"]),
        ("TP-Link Bulb", &["tplink"]),
        ("TP-Link Plug", &["tplink"]),
        ("Yi Camera", &["yitechnology"]),
        ("Philips Hub", &["philips-hue"]),
        ("Smarter Brewer", &["smarter"]),
        ("LG TV", &["lgtvcommon", "lge"]),
        ("LG Dishwasher", &["lgthinq"]),
        ("Samsung TV", &["samsungtv"]),
        ("Samsung Washer", &["samsungiot"]),
        ("Samsung Dryer", &["samsungiot"]),
        ("Samsung Fridge", &["samsungiot"]),
        ("Smartthings Hub", &["smartthings"]),
        ("Harman Invoke", &["harman", "cortana"]),
        ("Apple HomePod", &["apple-homepod", "apple"]),
        ("Apple TV", &["apple"]),
        ("Fire TV", &["amazon", "firetv"]),
        ("Amazon Echo Plus", &["echoplus"]),
        ("Amazon Echo Dot", &["echodot"]),
        ("Amazon Echo Dot 3", &["echodot3"]),
        ("Amazon Echo Spot", &["echospot"]),
        ("Amazon Cloudcam", &["cloudcam"]),
        ("GE Microwave", &["geappliances"]),
        ("Nest Thermostat", &["nest"]),
        ("D-Link Camera", &["dlink"]),
        ("Behmor Brewer", &["behmor"]),
        ("Meross Dooropener", &["meross"]),
        ("Switchbot Hub", &["switchbot"]),
        ("Zmodo Doorbell", &["zmodo"]),
        ("Amcrest Camera", &["amcrest"]),
        ("Blink Camera", &["blink"]),
        ("Blink Hub", &["blink"]),
        ("Ring Doorbell", &["ring"]),
        ("Sengled Hub", &["sengled"]),
        ("Insteon Hub", &["insteon"]),
        ("Wink Hub 2", &["wink"]),
        ("Roku TV", &["roku"]),
    ];
    for (name, aliases) in extra {
        if *name == device {
            tokens.extend(aliases.iter().map(|s| s.to_string()));
        }
    }
    tokens
}

/// The registrable-domain label of a testbed hostname
/// (`svc0.echodot.amazon.example` → `amazon`).
fn registrable_label(hostname: &str) -> &str {
    let parts: Vec<&str> = hostname.split('.').collect();
    if parts.len() >= 2 {
        parts[parts.len() - 2]
    } else {
        hostname
    }
}

/// Labels one destination first- or third-party for `device`.
pub fn label_party(device: &str, hostname: &str) -> Party {
    let host = hostname.to_ascii_lowercase();
    let label = registrable_label(&host);
    if THIRD_PARTY_DOMAINS.contains(&label) {
        return Party::Third;
    }
    // Check every label, not just the registrable one — vendor
    // infrastructure often sits under shared domains.
    for token in vendor_tokens(device) {
        if host.contains(&token) {
            return Party::First;
        }
    }
    Party::Third
}

/// Per-device version shares split by destination party.
#[derive(Debug, Clone)]
pub struct PartyBiasRow {
    /// Device name.
    pub device: String,
    /// Distinct maximum versions this device advertised.
    pub max_versions: BTreeSet<ProtocolVersion>,
    /// (version → connection share) for first-party destinations.
    pub first_party: BTreeMap<ProtocolVersion, f64>,
    /// (version → connection share) for third-party destinations.
    pub third_party: BTreeMap<ProtocolVersion, f64>,
}

impl PartyBiasRow {
    /// The paper's hypothesis would predict that connections to
    /// different parties *consistently* use different configurations —
    /// i.e. the per-party version sets are disjoint. This returns true
    /// when that pattern holds (it never does in the testbed, matching
    /// the paper's null result).
    pub fn shows_party_bias(&self) -> bool {
        let f: BTreeSet<_> = self.first_party.keys().collect();
        let t: BTreeSet<_> = self.third_party.keys().collect();
        !f.is_empty() && !t.is_empty() && f.is_disjoint(&t)
    }
}

/// Runs the §5.1 bias test over devices advertising more than one
/// maximum version within a single month (concurrent instances, not
/// firmware transitions).
pub fn party_version_bias(ds: &ColumnarDataset) -> Vec<PartyBiasRow> {
    let mut out = Vec::new();
    for device in ds.device_names() {
        let rows: Vec<_> = ds
            .device_rows(&device)
            .map(|r| (r.observation(), r.raw.count()))
            .collect();
        // Group by month to exclude across-time transitions.
        let mut by_month: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for (o, _) in &rows {
            by_month.entry(o.time.month()).or_default().push(o);
        }
        let concurrent = by_month.values().any(|obs| {
            let versions: BTreeSet<_> = obs.iter().map(|o| o.max_advertised).collect();
            versions.len() > 1
        });
        if !concurrent {
            continue;
        }
        let mut max_versions = BTreeSet::new();
        let mut first: BTreeMap<ProtocolVersion, u64> = BTreeMap::new();
        let mut third: BTreeMap<ProtocolVersion, u64> = BTreeMap::new();
        for (o, count) in &rows {
            let v = o.max_advertised;
            max_versions.insert(v);
            match label_party(&device, &o.destination) {
                Party::First => *first.entry(v).or_insert(0) += count,
                Party::Third => *third.entry(v).or_insert(0) += count,
            }
        }
        let normalize = |m: BTreeMap<ProtocolVersion, u64>| {
            let total: u64 = m.values().sum();
            m.into_iter()
                .map(|(v, c)| (v, c as f64 / total.max(1) as f64))
                .collect()
        };
        out.push(PartyBiasRow {
            device,
            max_versions,
            first_party: normalize(first),
            third_party: normalize(third),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotls_capture::global_columnar;
    use iotls_devices::Testbed;

    #[test]
    fn labeling_agrees_with_ground_truth_everywhere() {
        // The heuristic (vendor tokens + tracker list) must reproduce
        // the spec's party labels for every destination.
        let tb = Testbed::global();
        for device in &tb.devices {
            for dest in &device.spec.destinations {
                assert_eq!(
                    label_party(&device.spec.name, &dest.hostname),
                    dest.party,
                    "{} -> {}",
                    device.spec.name,
                    dest.hostname
                );
            }
        }
    }

    #[test]
    fn bias_rows_cover_multi_version_devices() {
        let rows = party_version_bias(global_columnar());
        let names: Vec<&str> = rows.iter().map(|r| r.device.as_str()).collect();
        // The Insteon Hub runs concurrent TLS 1.0 and 1.2 instances.
        assert!(names.contains(&"Insteon Hub"), "{names:?}");
        for row in &rows {
            assert!(row.max_versions.len() > 1, "{}", row.device);
        }
    }

    #[test]
    fn no_party_bias_found() {
        // The paper's finding: no pattern ties the version mix to the
        // destination party.
        for row in party_version_bias(global_columnar()) {
            assert!(
                !row.shows_party_bias(),
                "{}: first={:?} third={:?}",
                row.device,
                row.first_party.keys().collect::<Vec<_>>(),
                row.third_party.keys().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn third_party_list_labels_trackers() {
        assert_eq!(
            label_party("Samsung TV", "ads.samsungads.example"),
            Party::Third
        );
        assert_eq!(
            label_party("Samsung TV", "api.samsungtv.example"),
            Party::First
        );
        assert_eq!(label_party("Roku TV", "channel3.rokuapps.example"), Party::Third);
        assert_eq!(label_party("Roku TV", "svc0.roku.example"), Party::First);
    }
}

//! The assembled testbed: roster + PKI + per-device root-store truth
//! + provisioned cloud endpoints.
//!
//! This is the object experiments run against. Construction is
//! deterministic and cached per process ([`Testbed::global`]).

use crate::cloud::CloudRegistry;
use crate::instance::client_config;
use crate::roster::roster;
use crate::rootsel::{build_root_truth, DeviceRootTruth};
use crate::spec::{Destination, DeviceSpec};
use iotls_rootstore::SimPki;
use iotls_tls::client::ClientConfig;
use iotls_tls::server::ServerConfig;
use iotls_x509::Month;
use std::sync::OnceLock;

/// One device, fully provisioned.
pub struct DeviceSetup {
    /// The specification (ground truth).
    pub spec: DeviceSpec,
    /// Root-store ground truth and flaky-boot schedule.
    pub truth: DeviceRootTruth,
}

/// The full simulated smart home.
pub struct Testbed {
    /// Shared PKI world.
    pub pki: &'static SimPki,
    /// All 40 devices.
    pub devices: Vec<DeviceSetup>,
    cloud: CloudRegistry,
}

impl Testbed {
    /// Builds the testbed over the global PKI.
    pub fn build() -> Testbed {
        let pki = SimPki::global();
        let devices: Vec<DeviceSetup> = roster()
            .into_iter()
            .map(|spec| {
                let truth = build_root_truth(pki, &spec.name, &spec.root_store);
                DeviceSetup { spec, truth }
            })
            .collect();
        let cloud = CloudRegistry::build(pki, &devices);
        Testbed {
            pki,
            devices,
            cloud,
        }
    }

    /// The process-wide shared testbed.
    pub fn global() -> &'static Testbed {
        static T: OnceLock<Testbed> = OnceLock::new();
        T.get_or_init(Testbed::build)
    }

    /// Looks up a device by its Table 1 name.
    pub fn device(&self, name: &str) -> &DeviceSetup {
        self.devices
            .iter()
            .find(|d| d.spec.name == name)
            .unwrap_or_else(|| panic!("no device named {name}"))
    }

    /// The legitimate server configuration for one destination.
    pub fn server_config(&self, dest: &Destination) -> ServerConfig {
        self.cloud.server_config(dest)
    }

    /// The cloud endpoint registry (certificates, keys, staples).
    pub fn cloud(&self) -> &CloudRegistry {
        &self.cloud
    }

    /// Builds the client configuration a device uses for `dest`
    /// during `month` (active experiments pass March 2021).
    pub fn client_config_for(
        &self,
        device: &DeviceSetup,
        dest: &Destination,
        month: Month,
    ) -> ClientConfig {
        let instances = device.spec.instances_at(month);
        let spec = &instances[dest.instance.min(instances.len() - 1)];
        client_config(spec, device.truth.store.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotls_x509::Month;

    #[test]
    fn testbed_builds_with_all_endpoints() {
        let tb = Testbed::global();
        assert_eq!(tb.devices.len(), 40);
        let total_dests: usize = tb.devices.iter().map(|d| d.spec.destinations.len()).sum();
        assert_eq!(tb.cloud().len(), total_dests);
    }

    #[test]
    fn legitimate_connection_validates_for_every_device_destination() {
        // Every device must be able to reach every destination with a
        // chain its own store validates (otherwise the testbed itself
        // is broken, not the device).
        let tb = Testbed::global();
        let now = iotls_rootstore::probe_time();
        for dev in &tb.devices {
            for dest in &dev.spec.destinations {
                let ep = tb.cloud().endpoint(&dest.hostname).unwrap();
                let result = iotls_x509::validate_chain(
                    &ep.chain,
                    &dev.truth.store,
                    &dest.hostname,
                    now,
                    &iotls_x509::ValidationPolicy::strict(),
                );
                assert_eq!(
                    result,
                    Ok(()),
                    "{} → {}: {:?}",
                    dev.spec.name,
                    dest.hostname,
                    result
                );
            }
        }
    }

    #[test]
    fn every_cloud_endpoint_is_pinned() {
        // Each endpoint in hostname order: hostname, public key, a CRT
        // signature (so the private half is pinned too), leaf
        // certificate bytes, issuer id and staple.
        let tb = Testbed::global();
        let mut hostnames: Vec<&str> = tb
            .devices
            .iter()
            .flat_map(|d| {
                d.spec
                    .destinations
                    .iter()
                    .map(|dest| dest.hostname.as_str())
            })
            .collect();
        hostnames.sort_unstable();
        hostnames.dedup();
        let mut h = iotls_crypto::sha256::Sha256::new();
        for host in hostnames {
            let ep = tb.cloud().endpoint(host).unwrap();
            assert_eq!(ep.hostname, host);
            h.update(host.as_bytes());
            h.update(&ep.key.public_key().to_bytes());
            h.update(&ep.key.sign(b"iotls-endpoint-pin"));
            for cert in &ep.chain {
                h.update(&cert.to_bytes());
            }
            h.update(&ep.issuer.0.to_be_bytes());
            match &ep.staple {
                Some(staple) => {
                    h.update(&[1]);
                    h.update(staple);
                }
                None => h.update(&[0]),
            }
        }
        let digest = h.finalize();
        assert_eq!(iotls_crypto::sha256::hex(&digest[..8]), "6b7aefd1c8bb3ede");
    }

    #[test]
    fn client_config_respects_phase() {
        let tb = Testbed::global();
        let ghm = tb.device("Google Home Mini");
        let dest = &ghm.spec.destinations[0];
        let before = tb.client_config_for(ghm, dest, Month::new(2019, 4));
        let after = tb.client_config_for(ghm, dest, Month::new(2019, 6));
        assert!(!before
            .versions
            .contains(&iotls_tls::ProtocolVersion::Tls13));
        assert!(after.versions.contains(&iotls_tls::ProtocolVersion::Tls13));
    }

    #[test]
    fn device_lookup_by_name() {
        let tb = Testbed::global();
        assert_eq!(tb.device("Roku TV").spec.name, "Roku TV");
    }

    #[test]
    #[should_panic(expected = "no device named")]
    fn missing_device_panics() {
        Testbed::global().device("Toaster 9000");
    }
}

//! Session-level metrics recording.
//!
//! One helper, [`record_session_metrics`], folds a finished
//! [`SessionResult`] into an [`iotls_obs::Registry`] under the `sim.*`
//! namespace. Every driver of sessions (the experiment labs, the
//! capture generator) calls it on its own per-worker registry shard;
//! the shards are merged in roster order by `par::ordered_map`
//! callers, so the counters are byte-identical at any worker count.

use crate::driver::SessionResult;
use iotls_obs::Registry;

/// Bucket bounds for the per-session transferred-bytes histogram
/// (`sim.session.bytes`): handshake-only sessions land in the low
/// buckets, payload-carrying ones higher.
pub const SESSION_BYTES_BOUNDS: [u64; 5] = [512, 1024, 2048, 4096, 16384];

/// Records one driven session into `reg`:
///
/// * `sim.sessions.driven` / `.established` / `.tainted`;
/// * `sim.sessions.failed.<cause>` per [`FailureCause`] label;
/// * `sim.faults.injected.<kind>` per [`InjectedFault`] label;
/// * `sim.bytes.c2s` / `sim.bytes.s2c` link-byte totals;
/// * `sim.tap.records_deframed` / `sim.tap.bytes` gateway-tap totals
///   (the tap sees every byte that crosses the link, so its byte count
///   is the sum of the link totals);
/// * the `sim.session.bytes` histogram of per-session link bytes.
///
/// [`FailureCause`]: crate::fault::FailureCause
/// [`InjectedFault`]: crate::fault::InjectedFault
pub fn record_session_metrics(reg: &mut Registry, result: &SessionResult) {
    reg.inc("sim.sessions.driven");
    if result.established {
        reg.inc("sim.sessions.established");
    }
    if result.tainted() {
        reg.inc("sim.sessions.tainted");
    }
    if let Some(cause) = result.failure {
        reg.inc(&format!("sim.sessions.failed.{}", cause.label()));
    }
    for fault in &result.faults {
        reg.inc(&format!("sim.faults.injected.{}", fault.label()));
    }
    reg.add("sim.bytes.c2s", result.bytes_c2s);
    reg.add("sim.bytes.s2c", result.bytes_s2c);
    let link_bytes = result.bytes_c2s + result.bytes_s2c;
    reg.add("sim.tap.records_deframed", result.records_deframed);
    reg.add("sim.tap.bytes", link_bytes);
    reg.observe("sim.session.bytes", &SESSION_BYTES_BOUNDS, link_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DnsFault, FailureCause, InjectedFault};
    use iotls_tls::client::HandshakeSummary;
    use iotls_tls::handshake::ClientHello;
    use iotls_tls::version::ProtocolVersion;

    fn synthetic(established: bool) -> SessionResult {
        SessionResult {
            client_summary: HandshakeSummary {
                client_hello: ClientHello {
                    legacy_version: ProtocolVersion::Tls12,
                    random: [0u8; 32],
                    session_id: Vec::new(),
                    cipher_suites: Vec::new(),
                    compression_methods: vec![0],
                    extensions: Vec::new(),
                },
                version: None,
                cipher_suite: None,
                ocsp_stapled: false,
                server_chain: Vec::new(),
                alerts_sent: Vec::new(),
                alerts_received: Vec::new(),
                failure: None,
            },
            established,
            failure: None,
            faults: Vec::new(),
            server_received: Vec::new(),
            client_received: Vec::new(),
            observation: None,
            bytes_c2s: 600,
            bytes_s2c: 900,
            records_deframed: 7,
        }
    }

    #[test]
    fn clean_session_counts() {
        let mut reg = Registry::new();
        record_session_metrics(&mut reg, &synthetic(true));
        assert_eq!(reg.counter("sim.sessions.driven"), 1);
        assert_eq!(reg.counter("sim.sessions.established"), 1);
        assert_eq!(reg.counter("sim.sessions.tainted"), 0);
        assert_eq!(reg.counter("sim.bytes.c2s"), 600);
        assert_eq!(reg.counter("sim.tap.records_deframed"), 7);
        assert_eq!(reg.counter("sim.tap.bytes"), 1500);
        assert_eq!(reg.histogram("sim.session.bytes").unwrap().sum(), 1500);
    }

    #[test]
    fn faulted_session_counts_each_injected_fault_once() {
        let mut reg = Registry::new();
        let mut r = synthetic(false);
        r.failure = Some(FailureCause::Reset);
        r.faults = vec![
            InjectedFault::Reset { round: 1, offset: 5 },
            InjectedFault::Garble { round: 0, offset: 2 },
            InjectedFault::Dns {
                kind: DnsFault::Timeout,
            },
        ];
        record_session_metrics(&mut reg, &r);
        assert_eq!(reg.counter("sim.sessions.failed.reset"), 1);
        assert_eq!(reg.counter("sim.sessions.tainted"), 1);
        assert_eq!(reg.counter("sim.faults.injected.reset"), 1);
        assert_eq!(reg.counter("sim.faults.injected.garble"), 1);
        assert_eq!(reg.counter("sim.faults.injected.dns"), 1);
        assert_eq!(reg.counter("sim.faults.injected.stall"), 0);
    }
}

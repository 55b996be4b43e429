//! Interception detection as a middleware: flag sessions whose
//! ClientHello or Certificate drifts from the endpoint's recorded
//! roster baseline.
//!
//! The §6 guardian-gateway recommendation needs an *in-path* detector:
//! something that watches the bytes a session actually carries and
//! stops it when the handshake material no longer matches what the
//! endpoint served at enrollment time. [`DriftDetector`] implements
//! that as a [`Middleware`]: per endpoint, the gateway skims its
//! recorded clean tapes into [`FlowBaseline`]s (a copy of the first
//! ClientHello body and of the first Certificate body per tape), and
//! the detector intercepts any session whose observed bodies are not
//! byte for byte one of the enrolled ones — a forged chain from a MITM
//! differs from the enrolled server's, while every legitimate replay
//! of a roster tape carries identical bytes. Comparing the bodies
//! themselves, not a digest of them, leaves no collision through which
//! a forged body could pass, and a mismatch usually ends at the length
//! check or within the first few bytes.
//!
//! The hot path is allocation-free: each hook compares the borrowed
//! body slice against a per-endpoint vector of enrolled bodies sized
//! by the roster (a handful of entries). Verdicts depend only on the
//! session bytes and the fixed baseline, honouring the
//! [`ChainFactory`] determinism contract.
//!
//! [`ChainFactory`]: crate::gateway::ChainFactory

use iotls_simnet::mux::SessionFlow;
use iotls_tls::middleware::{Chain, Flow, Middleware, Verdict};
use std::sync::Arc;

/// Enrollment-time copies of one clean tape's handshake material,
/// shared (not copied again) by every detector enrolled with them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowBaseline {
    /// The first ClientHello body on the tape, when one deframed
    /// cleanly.
    pub client_hello: Option<Arc<[u8]>>,
    /// The first Certificate body on the tape, when one deframed
    /// cleanly.
    pub certificate: Option<Arc<[u8]>>,
}

/// Observe-only skimmer that copies the first ClientHello and
/// Certificate bodies of a session.
#[derive(Debug, Default)]
struct BaselineSkim(FlowBaseline);

impl Middleware for BaselineSkim {
    fn on_client_hello(&mut self, _flow: Flow, body: &mut [u8]) -> Verdict {
        self.0.client_hello.get_or_insert_with(|| Arc::from(&*body));
        Verdict::Continue
    }

    fn on_certificate(&mut self, _flow: Flow, body: &mut [u8]) -> Verdict {
        self.0.certificate.get_or_insert_with(|| Arc::from(&*body));
        Verdict::Continue
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl FlowBaseline {
    /// Skims a recorded tape through the chain's own byte-feed avenue
    /// — the exact dispatch path live sessions take — so enrolled and
    /// observed bodies can never diverge on framing.
    pub fn of(flow: &SessionFlow) -> FlowBaseline {
        let mut chain = Chain::new().with(Box::new(BaselineSkim::default()));
        chain.begin_session();
        for round in &flow.rounds {
            chain.feed(Flow::ClientToServer, &round.c2s);
            chain.feed(Flow::ServerToClient, &round.s2c);
        }
        chain.close();
        let skim = chain
            .middleware_mut::<BaselineSkim>(0)
            .expect("skimmer at slot 0");
        std::mem::take(&mut skim.0)
    }
}

/// Middleware that intercepts sessions whose ClientHello or
/// Certificate body is not one of the endpoint's enrolled bodies.
/// Counters accumulate across sessions (they are observability, not
/// verdict state); the per-record verdict is a pure function of the
/// record bytes and the fixed baselines.
#[derive(Debug, Default)]
pub struct DriftDetector {
    ch_allowed: Vec<Arc<[u8]>>,
    cert_allowed: Vec<Arc<[u8]>>,
    /// Sessions-records flagged for an unenrolled ClientHello.
    pub ch_drift: u64,
    /// Sessions-records flagged for an unenrolled Certificate.
    pub cert_drift: u64,
}

/// Adds `body` to `allowed` unless an equal body is already there.
fn enroll(allowed: &mut Vec<Arc<[u8]>>, body: &Option<Arc<[u8]>>) {
    if let Some(body) = body {
        if !allowed.iter().any(|b| **b == **body) {
            allowed.push(Arc::clone(body));
        }
    }
}

impl DriftDetector {
    /// A detector enrolled with the endpoint's roster baselines. A
    /// body class with nothing enrolled (e.g. tapes that never
    /// reached Certificate) is not checked — absence of enrollment
    /// is not evidence of drift.
    pub fn new(baselines: &[FlowBaseline]) -> DriftDetector {
        let mut det = DriftDetector::default();
        for b in baselines {
            enroll(&mut det.ch_allowed, &b.client_hello);
            enroll(&mut det.cert_allowed, &b.certificate);
        }
        det
    }

    /// Total drift flags raised so far, both classes.
    pub fn flags(&self) -> u64 {
        self.ch_drift + self.cert_drift
    }
}

impl Middleware for DriftDetector {
    // ALLOC-FREE: begin (drift hot path — each hook compares the
    // borrowed body slice with the enrolled bodies in place).
    fn on_client_hello(&mut self, _flow: Flow, body: &mut [u8]) -> Verdict {
        if self.ch_allowed.is_empty() || self.ch_allowed.iter().any(|b| **b == *body) {
            return Verdict::Continue;
        }
        self.ch_drift += 1;
        Verdict::Intercept
    }

    fn on_certificate(&mut self, _flow: Flow, body: &mut [u8]) -> Verdict {
        if self.cert_allowed.is_empty() || self.cert_allowed.iter().any(|b| **b == *body) {
            return Verdict::Continue;
        }
        self.cert_drift += 1;
        Verdict::Intercept
    }
    // ALLOC-FREE: end (drift hot path)

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::{Attacker, InterceptPolicy};
    use iotls_crypto::drbg::Drbg;
    use iotls_devices::{client_config, Testbed};
    use iotls_tls::client::ClientConnection;
    use iotls_tls::middleware::{Signal, Stage};
    use iotls_tls::server::ServerConnection;

    /// Records one clean tape for `device`'s first destination —
    /// against the real server, or against the MITM's server when a
    /// policy is given. The client (and its randomness) is identical
    /// either way, so only server-originated material can differ.
    fn record_flow(testbed: &Testbed, device: &str, policy: Option<&InterceptPolicy>) -> SessionFlow {
        let device = testbed.device(device);
        let dest = &device.spec.destinations[0];
        let now = iotls_rootstore::probe_time();
        let instances = device.spec.instances_at(now.month());
        let instance = &instances[dest.instance.min(instances.len() - 1)];
        let cfg = client_config(instance, device.truth.store.clone());
        let client_rng = Drbg::from_seed(0xD41F7).fork("detect").fork(&dest.hostname);
        let server_rng = client_rng.fork("server");
        let client = ClientConnection::new(cfg, &dest.hostname, now, client_rng);
        let server_cfg = match policy {
            Some(p) => Attacker::new(testbed.pki, 0xA77).server_config(p, &dest.hostname),
            None => testbed.server_config(dest),
        };
        let server = ServerConnection::new(server_cfg, server_rng);
        SessionFlow::record(client, server, Some(b"ping"), Some(b"ok"))
    }

    fn feed_tape(chain: &mut Chain, flow: &SessionFlow) -> Option<Signal> {
        chain.begin_session();
        for round in &flow.rounds {
            chain.feed(Flow::ClientToServer, &round.c2s);
            chain.feed(Flow::ServerToClient, &round.s2c);
            if chain.terminal().is_some() {
                break;
            }
        }
        chain.close();
        chain.terminal()
    }

    #[test]
    fn baseline_skims_both_bodies_from_a_clean_tape() {
        let tb = Testbed::global();
        let flow = record_flow(tb, "Zmodo Doorbell", None);
        let baseline = FlowBaseline::of(&flow);
        assert!(baseline.client_hello.is_some(), "tape carries a ClientHello");
        assert!(baseline.certificate.is_some(), "tape carries a Certificate");
        // Skimming is a pure function of the tape bytes.
        assert_eq!(baseline, FlowBaseline::of(&flow));
    }

    #[test]
    fn any_edit_to_the_enrolled_certificate_body_intercepts() {
        let tb = Testbed::global();
        let flow = record_flow(tb, "Zmodo Doorbell", None);
        let baseline = FlowBaseline::of(&flow);
        let cert = baseline.certificate.clone().expect("tape carries a Certificate");
        let mut det = DriftDetector::new(&[baseline]);
        let mut hook = |body: &[u8]| det.on_certificate(Flow::ServerToClient, &mut body.to_vec());

        assert_eq!(hook(&cert), Verdict::Continue, "the enrolled body itself");
        let mut edited = cert.to_vec();
        for i in 0..edited.len() {
            edited[i] ^= 0x01;
            assert_eq!(hook(&edited), Verdict::Intercept, "byte {i} flipped");
            edited[i] ^= 0x01;
        }
        edited.push(0);
        assert_eq!(hook(&edited), Verdict::Intercept, "one byte appended");
        assert_eq!(hook(&cert[..cert.len() - 1]), Verdict::Intercept, "last byte dropped");
        assert_eq!(det.cert_drift, cert.len() as u64 + 2);
        assert_eq!(det.ch_drift, 0);
    }

    #[test]
    fn a_flipped_certificate_byte_on_the_wire_intercepts() {
        let tb = Testbed::global();
        let flow = record_flow(tb, "Zmodo Doorbell", None);
        let baseline = FlowBaseline::of(&flow);
        let cert = baseline.certificate.clone().expect("tape carries a Certificate");
        let mut chain = Chain::new().with(Box::new(DriftDetector::new(&[baseline])));

        let mut forged = flow.clone();
        let (round, at) = forged
            .rounds
            .iter()
            .enumerate()
            .find_map(|(r, round)| {
                let at = round.s2c.windows(cert.len()).position(|w| *w == *cert)?;
                Some((r, at))
            })
            .expect("the Certificate body sits whole in one server flight");
        forged.rounds[round].s2c[at + cert.len() / 2] ^= 0x80;

        assert_eq!(feed_tape(&mut chain, &flow), None, "the enrolled tape");
        assert_eq!(feed_tape(&mut chain, &forged), Some(Signal::Intercept));
        let det = chain.middleware_mut::<DriftDetector>(0).unwrap();
        assert_eq!((det.ch_drift, det.cert_drift), (0, 1));
    }

    #[test]
    fn the_enrolled_tape_fed_one_byte_at_a_time_never_flags() {
        let tb = Testbed::global();
        let flow = record_flow(tb, "Zmodo Doorbell", None);
        let mut chain =
            Chain::new().with(Box::new(DriftDetector::new(&[FlowBaseline::of(&flow)])));
        chain.begin_session();
        for round in &flow.rounds {
            for byte in round.c2s.chunks(1) {
                chain.feed(Flow::ClientToServer, byte);
            }
            for byte in round.s2c.chunks(1) {
                chain.feed(Flow::ServerToClient, byte);
            }
        }
        chain.close();
        assert_eq!(chain.terminal(), None);
        let stats = chain.take_stats();
        for stage in [Stage::ClientHello, Stage::Certificate] {
            assert_eq!(stats.invocations[stage.index()], 1, "{} hook", stage.label());
        }
        let det = chain.middleware_mut::<DriftDetector>(0).unwrap();
        assert_eq!(det.flags(), 0);
    }

    #[test]
    fn detector_scores_mitm_vs_benign_against_ground_truth() {
        // Ground truth from the simulator: the benign tape replays the
        // enrolled server, the MITM tape replays the attacker
        // terminating the same hostname with a forged chain. Same
        // client, same randomness — only the certificate differs.
        let tb = Testbed::global();
        for device in ["Zmodo Doorbell", "Amcrest Camera", "Wink Hub 2"] {
            let benign = record_flow(tb, device, None);
            let mitm = record_flow(tb, device, Some(&InterceptPolicy::SelfSigned));
            let baseline = FlowBaseline::of(&benign);
            let mut chain =
                Chain::new().with(Box::new(DriftDetector::new(&[baseline])));

            assert_eq!(feed_tape(&mut chain, &benign), None, "{device}: false positive");
            assert_eq!(
                feed_tape(&mut chain, &mitm),
                Some(Signal::Intercept),
                "{device}: missed interception"
            );
            let det = chain.middleware_mut::<DriftDetector>(0).unwrap();
            assert_eq!(det.ch_drift, 0, "{device}: ClientHello never drifted");
            assert_eq!(det.cert_drift, 1, "{device}: exactly the forged chain flagged");
        }
    }

    #[test]
    fn detector_accepts_every_enrolled_baseline() {
        let tb = Testbed::global();
        let flows: Vec<SessionFlow> = ["Zmodo Doorbell", "D-Link Camera"]
            .iter()
            .map(|d| record_flow(tb, d, None))
            .collect();
        let baselines: Vec<FlowBaseline> = flows.iter().map(FlowBaseline::of).collect();
        let mut chain = Chain::new().with(Box::new(DriftDetector::new(&baselines)));
        for flow in &flows {
            assert_eq!(feed_tape(&mut chain, flow), None, "enrolled tape flagged");
        }
        let det = chain.middleware_mut::<DriftDetector>(0).unwrap();
        assert_eq!(det.flags(), 0);
    }

    #[test]
    fn empty_enrollment_never_flags() {
        let tb = Testbed::global();
        let mitm = record_flow(tb, "Zmodo Doorbell", Some(&InterceptPolicy::SelfSigned));
        let mut chain = Chain::new().with(Box::new(DriftDetector::new(&[])));
        assert_eq!(feed_tape(&mut chain, &mitm), None, "nothing enrolled, nothing flagged");
    }
}

//! The active laboratory: smart-plug power cycles, boot bursts, and
//! per-connection drive logic including device retry/fallback
//! behavior and the Yi Camera's give-up quirk.
//!
//! This is where device *behavior* (fallback retries, validation
//! collapse after repeated failures, flaky boots) is emulated; the
//! experiments in [`crate::audit`], [`crate::downgrade`], and
//! [`crate::rootprobe`] only look at what crosses the wire.
//!
//! As on the paper's smart plug, one lab drives one device: an
//! [`ActiveLab`] is bound at construction to the device it
//! power-cycles, and holds that device's [`DeviceState`] alone.

use crate::attacker::{Attacker, InterceptPolicy};
use crate::experiment::ExperimentCtx;
use iotls_crypto::drbg::Drbg;
use iotls_devices::spec::Destination;
use iotls_devices::{apply_fallback, client_config, DeviceSetup, Testbed, TlsInstanceSpec};
use iotls_obs::Registry;
use iotls_rootstore::SimPki;
use iotls_simnet::{
    drive_session, record_session_metrics, DriveScratch, FailureCause, FaultSampler, GatewayTap,
    InjectedFault, LinkConditioner, SessionFaults, SessionParams, SessionResult,
};
use iotls_tls::client::{ClientConnection, HandshakeFailure};
use iotls_tls::middleware::Chain;
use iotls_tls::fingerprint::Fingerprint;
use iotls_x509::cache::{CacheStats, VerificationCache};
use iotls_x509::{Timestamp, ValidationPolicy};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// How many times one logical attempt transparently re-dials after a
/// fault that a plain reconnect can heal (reset, garble, stall, DNS).
/// The gateway's per-session retry loop shares the budget.
pub(crate) const INLINE_RETRY_BUDGET: usize = 6;

/// How many times the boot-level recovery reconnects after a fault
/// that re-dialing alone cannot heal (mid-handshake power loss).
const RECONNECT_BUDGET: usize = 4;

/// Counters for injected faults and the recovery work they caused.
/// All zeros outside chaos runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Connection resets that fired.
    pub resets: u64,
    /// Garbled fragments that fired.
    pub garbles: u64,
    /// Stalls that fired (sessions wedged into the round budget).
    pub stalls: u64,
    /// Mid-handshake power cycles that fired.
    pub power_cycles: u64,
    /// Injected DNS failures (NXDOMAIN or resolver timeout).
    pub dns_failures: u64,
    /// Transparent re-dials inside a single logical attempt.
    pub inline_retries: u64,
    /// Boot-level reconnects after an unhealed (power-cycle) taint.
    pub reconnects: u64,
    /// Sessions whose final outcome was clean after at least one
    /// faulted try.
    pub recovered: u64,
    /// Sessions still tainted after the full retry budget.
    pub unrecovered: u64,
    /// Virtual seconds spent in retry backoff. Deliberately *not*
    /// added to the lab clock: the probe timestamp feeds certificate
    /// validity and must stay identical to a fault-free run.
    pub backoff_virtual_secs: u64,
}

/// Accessor for one [`FaultStats`] field.
type Field = fn(&mut FaultStats) -> &mut u64;

/// Each [`FaultStats`] field and the `core.*` counter it is exported
/// under: the one table [`FaultStats::export`] and
/// [`FaultStats::from_counters`] walk.
const COUNTERS: [(&str, Field); 10] = [
    ("core.faults.resets", |s| &mut s.resets),
    ("core.faults.garbles", |s| &mut s.garbles),
    ("core.faults.stalls", |s| &mut s.stalls),
    ("core.faults.power_cycles", |s| &mut s.power_cycles),
    ("core.faults.dns_failures", |s| &mut s.dns_failures),
    ("core.retries.inline", |s| &mut s.inline_retries),
    ("core.reconnects", |s| &mut s.reconnects),
    ("core.recovered", |s| &mut s.recovered),
    ("core.unrecovered", |s| &mut s.unrecovered),
    ("core.backoff.virtual_secs", |s| &mut s.backoff_virtual_secs),
];

impl FaultStats {
    /// Total faults that actually fired, across every class.
    pub fn injected_total(&self) -> u64 {
        self.resets + self.garbles + self.stalls + self.power_cycles + self.dns_failures
    }

    /// Field-wise accumulation (for aggregating per-session stats).
    pub fn merge(&mut self, other: &FaultStats) {
        self.resets += other.resets;
        self.garbles += other.garbles;
        self.stalls += other.stalls;
        self.power_cycles += other.power_cycles;
        self.dns_failures += other.dns_failures;
        self.inline_retries += other.inline_retries;
        self.reconnects += other.reconnects;
        self.recovered += other.recovered;
        self.unrecovered += other.unrecovered;
        self.backoff_virtual_secs += other.backoff_virtual_secs;
    }

    /// Tallies conditioner- or replay-fired faults, one per event.
    pub fn count_injected(&mut self, faults: &[InjectedFault]) {
        for f in faults {
            match f {
                InjectedFault::Reset { .. } => self.resets += 1,
                InjectedFault::Garble { .. } => self.garbles += 1,
                InjectedFault::Stall { .. } => self.stalls += 1,
                InjectedFault::PowerCycle { .. } => self.power_cycles += 1,
                InjectedFault::Dns { .. } => self.dns_failures += 1,
            }
        }
    }

    /// Adds every field to its `core.*` counter in `reg`. Zero fields
    /// create no counter, so a clean run's counter section has no
    /// `core.*` keys.
    pub fn export(&self, reg: &mut Registry) {
        let mut s = *self;
        for (name, field) in COUNTERS {
            reg.add(name, *field(&mut s));
        }
    }

    /// Reads the stats back from the `core.*` counters of `reg` (the
    /// field-wise sum of every [`Self::export`] merged into it).
    pub fn from_counters(reg: &Registry) -> FaultStats {
        let mut s = FaultStats::default();
        for (name, field) in COUNTERS {
            *field(&mut s) = reg.counter(name);
        }
        s
    }
}

/// Mutable per-device state that persists across boots.
#[derive(Debug, Default)]
pub struct DeviceState {
    /// Total power cycles so far (indexes the flaky-boot schedule).
    pub boot_count: u32,
    /// Consecutive failed connections (drives the Yi quirk).
    pub consecutive_failures: u32,
    /// Whether the device has given up on validation entirely.
    pub validation_disabled: bool,
    /// Destinations the gateway passes through un-intercepted.
    pub passthrough: BTreeSet<String>,
}

/// Outcome of one driven connection attempt (possibly with a retry).
pub struct ConnectionOutcome {
    /// The destination contacted.
    pub destination: String,
    /// Result of the final attempt.
    pub result: SessionResult,
    /// Whether this connection was intercepted (vs. passed through).
    pub intercepted: bool,
    /// The retry ClientHello fingerprint, when the device fell back
    /// and reconnected after the first attempt failed.
    pub retry_hello: Option<iotls_tls::ClientHello>,
    /// Fingerprint of the *first* attempt's ClientHello.
    pub first_fingerprint: iotls_tls::FingerprintId,
    /// First attempt's ClientHello.
    pub first_hello: iotls_tls::ClientHello,
}

/// A lab seed bound to the attacker derived from it.
///
/// An engine builds one per distinct lab seed, once per run and before
/// its per-device fan-out; every lab built from it seeds its DRBG with
/// the same `seed` and borrows the same read-only [`Attacker`], so the
/// two cannot drift apart. Deriving the attacker (two RSA-512 keys and
/// a certificate) costs as much as all the sessions of a typical lab or
/// more, which is why it is not repeated per device.
pub struct LabSeed {
    seed: u64,
    attacker: Arc<Attacker>,
}

impl LabSeed {
    /// Derives the attacker for `seed` ([`Attacker::new`]).
    pub fn new(pki: &SimPki, seed: u64) -> LabSeed {
        LabSeed {
            seed,
            attacker: Arc::new(Attacker::new(pki, seed)),
        }
    }
}

/// The laboratory: one device on its smart plug, the testbed's servers
/// and an attacker. Engines build one per device per attack; its
/// device state, DRBG, session scratch and verification cache are its
/// own, and only the attacker is shared, read-only, with the other
/// labs of its [`LabSeed`].
pub struct ActiveLab<'a> {
    /// The testbed whose servers legitimate connections reach.
    testbed: &'a Testbed,
    /// The one device this lab drives.
    device: &'a DeviceSetup,
    /// The on-path attacker, shared read-only with every other lab
    /// built from the same [`LabSeed`].
    attacker: Arc<Attacker>,
    /// The ctx's fault plan, with its DRBG fork derived once per lab.
    sampler: FaultSampler,
    /// The buffer each try's fault-draw key is written into, when the
    /// plan can fire.
    fault_key: String,
    state: DeviceState,
    rng: Drbg,
    now: Timestamp,
    stats: FaultStats,
    /// Monotone per-lab attempt counter; keys the fault schedule so
    /// every re-dial draws a fresh fault decision.
    attempt_seq: u64,
    /// Validation-verdict memoization shared by every handshake the
    /// lab drives. Per-lab, so the hit/miss counters are part of the
    /// run's deterministic output.
    verify_cache: Arc<VerificationCache>,
    /// Live `sim.*` session counters for every session this lab
    /// drives. Per-lab, like the cache: engines merge per-device lab
    /// registries in roster order, keeping the merged snapshot
    /// byte-identical at any worker count.
    obs: Registry,
    /// Warm per-lane session scratch (endpoint buffers, wire buffer),
    /// reused by every session this lab drives so the steady-state
    /// attempt loop allocates nothing per session.
    drive_scratch: DriveScratch,
    /// The chain every session is fed through: the passive
    /// [`GatewayTap`] at slot 0, reset and reused per session for the
    /// same reason.
    chain: Chain,
}

impl<'a> ActiveLab<'a> {
    /// Sets up a lab at probe time (March 2021) that drives `device`
    /// under `ctx`'s fault plan and shares the attacker of `lab_seed`.
    /// The seed is the engine-derived lab seed (a pure function of
    /// `ctx.seed()`), kept separate so the XOR derivations of the six
    /// engines stay intact.
    pub fn new(
        testbed: &'a Testbed,
        ctx: &ExperimentCtx,
        lab_seed: &LabSeed,
        device: &'a DeviceSetup,
    ) -> ActiveLab<'a> {
        ActiveLab {
            testbed,
            device,
            attacker: Arc::clone(&lab_seed.attacker),
            sampler: ctx.plan().sampler(),
            fault_key: String::new(),
            state: DeviceState::default(),
            rng: Drbg::from_seed(lab_seed.seed).fork("active-lab"),
            now: iotls_rootstore::probe_time(),
            stats: FaultStats::default(),
            attempt_seq: 0,
            verify_cache: Arc::default(),
            obs: Registry::new(),
            drive_scratch: DriveScratch::new(),
            chain: Chain::new().with(Box::new(GatewayTap::new())),
        }
    }

    /// The device this lab drives.
    pub fn device(&self) -> &'a DeviceSetup {
        self.device
    }

    /// Fault/recovery counters accumulated so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// Verification-cache hit/miss counters accumulated so far
    /// (reported next to [`FaultStats`]).
    pub fn verify_cache_stats(&self) -> CacheStats {
        self.verify_cache.stats()
    }

    /// Snapshot of every metric this lab produced: the live `sim.*`
    /// session counters, the [`FaultStats`] tally under `core.*` and
    /// the verification-cache counters under `x509.cache.*`. Engines
    /// merge these per-lab registries and read their reports'
    /// [`FaultStats`] and [`CacheStats`] back from the merged one
    /// ([`FaultStats::from_counters`], [`CacheStats::from_counters`]).
    pub fn metrics(&self) -> Registry {
        let mut reg = self.obs.clone();
        self.stats.export(&mut reg);
        self.verify_cache.stats().export(&mut reg);
        reg
    }

    /// The device's mutable state.
    pub fn state(&mut self) -> &mut DeviceState {
        &mut self.state
    }

    /// Power-cycles the device and returns whether it produces TLS
    /// traffic this boot (its flaky-boot schedule may say no).
    pub fn power_cycle(&mut self) -> bool {
        let boot = self.state.boot_count;
        self.state.boot_count += 1;
        !self.device.truth.flaky_boots.contains(&boot)
    }

    /// Drives the device's connection to `dest`, intercepted under
    /// `policy` (or passed through to the real server when `policy` is
    /// `None` or the destination is in the passthrough set).
    pub fn connect(
        &mut self,
        dest: &Destination,
        policy: Option<&InterceptPolicy>,
    ) -> ConnectionOutcome {
        let probe_month = self.now.month();
        let instances = self.device.spec.instances_at(probe_month);
        let instance = &instances[dest.instance.min(instances.len() - 1)];

        let passthrough = self.state.passthrough.contains(&dest.hostname);
        let effective_policy = if passthrough { None } else { policy };

        // First attempt.
        let (first, first_hello) = self.attempt(dest, instance, effective_policy, false);
        let first_fp = Fingerprint::from_client_hello(&first_hello).id();

        // Device-side failure bookkeeping. A fault-tainted attempt is
        // a *network* artifact, not a device verdict: it must neither
        // advance the give-up counter nor trigger the device's
        // fallback (a reset mid-handshake would otherwise be
        // indistinguishable from a muted server).
        let tainted = first.tainted();
        let failed = !first.established;
        if !tainted {
            self.note_outcome(failed);
        }

        // Fallback retry: the device reconnects with a weaker
        // configuration when its trigger matches the failure mode.
        let mut retry_hello = None;
        let mut result = first;
        if failed && !tainted {
            if let Some(fb) = &instance.fallback {
                let incomplete = result.client_summary.version.is_none()
                    && result.client_summary.failure.is_none();
                let failed_handshake = result.client_summary.failure.is_some()
                    || matches!(
                        result.client_summary.failure,
                        Some(HandshakeFailure::Validation(_))
                    );
                let triggered = (incomplete && fb.trigger.on_incomplete)
                    || (!incomplete && failed_handshake && fb.trigger.on_failed);
                if triggered {
                    let (second, hello) = self.attempt(dest, instance, effective_policy, true);
                    if !second.tainted() {
                        self.note_outcome(!second.established);
                    }
                    retry_hello = Some(hello);
                    result = second;
                }
            }
        }

        ConnectionOutcome {
            destination: dest.hostname.clone(),
            intercepted: effective_policy.is_some(),
            result,
            retry_hello,
            first_fingerprint: first_fp,
            first_hello,
        }
    }

    /// One logical attempt; `fallback` selects the downgraded config.
    ///
    /// Under a fault plan, an attempt whose session was killed by a
    /// reset, garble, stall, or DNS failure transparently re-dials
    /// (fresh fault draw, *same* handshake randomness — the client's
    /// DRBG key does not include the try index) up to
    /// [`INLINE_RETRY_BUDGET`] times, accumulating virtual backoff in
    /// the stats rather than advancing the lab clock. A mid-handshake
    /// power loss is not re-dialed here: the device is down, and
    /// recovery is the caller's (boot-level) job.
    fn attempt(
        &mut self,
        dest: &Destination,
        instance: &TlsInstanceSpec,
        policy: Option<&InterceptPolicy>,
        fallback: bool,
    ) -> (SessionResult, iotls_tls::ClientHello) {
        let device = self.device;
        let spec = if fallback {
            Cow::Owned(apply_fallback(instance))
        } else {
            Cow::Borrowed(instance)
        };
        let validation_disabled = self.state.validation_disabled;
        let conn_key = format!(
            "conn/{}/{}/{}/{}",
            device.spec.name, dest.hostname, self.state.boot_count, fallback
        );

        let mut faulted_tries = 0u64;
        let mut last: Option<(SessionResult, iotls_tls::ClientHello)> = None;
        for try_idx in 0..INLINE_RETRY_BUDGET {
            let seq = self.attempt_seq;
            self.attempt_seq += 1;
            let faults = if self.sampler.is_none() {
                SessionFaults::none()
            } else {
                self.fault_key.clear();
                write!(self.fault_key, "{conn_key}/try{seq}")
                    .expect("formatting into a String cannot fail");
                self.sampler.session_faults(&self.fault_key)
            };

            let mut cfg = client_config(&spec, device.truth.store.clone());
            cfg.verify_cache = Some(Arc::clone(&self.verify_cache));
            if validation_disabled {
                cfg.validation_policy = ValidationPolicy::no_validation();
            }
            let client_rng = self.rng.fork(&conn_key);
            let server_rng = client_rng.fork("server");
            let client = ClientConnection::with_scratch(
                cfg,
                &dest.hostname,
                self.now,
                client_rng,
                self.drive_scratch.take_client(),
            );
            let hello = client.build_client_hello();

            // Name resolution precedes the connection; an injected
            // DNS fault aborts this try before any bytes flow.
            if let Some(kind) = faults.dns {
                self.stats.dns_failures += 1;
                faulted_tries += 1;
                let dns_result = SessionResult {
                    client_summary: client.summary(),
                    established: false,
                    failure: Some(FailureCause::DnsFailure),
                    faults: vec![InjectedFault::Dns { kind }],
                    server_received: Vec::new(),
                    client_received: Vec::new(),
                    observation: None,
                    bytes_c2s: 0,
                    bytes_s2c: 0,
                    records_deframed: 0,
                };
                // The session never ran; hand the client's warm
                // buffers straight back to the lane scratch.
                self.drive_scratch.client = client.into_scratch();
                record_session_metrics(&mut self.obs, &dns_result);
                last = Some((dns_result, hello));
                if try_idx + 1 == INLINE_RETRY_BUDGET {
                    break;
                }
                self.stats.inline_retries += 1;
                self.stats.backoff_virtual_secs += 1 << try_idx;
                continue;
            }

            let server_cfg = match policy {
                Some(p) => self.attacker.server_config(p, &dest.hostname),
                None => self.testbed.server_config(dest),
            };
            let server = iotls_tls::ServerConnection::with_scratch(
                server_cfg,
                server_rng,
                self.drive_scratch.take_server(),
            );
            let mut conditioner = LinkConditioner::new(SessionFaults {
                ops: faults.ops,
                dns: None,
            });
            let params = SessionParams {
                client_payload: Some(dest.payload.as_deref().unwrap_or("ping").as_bytes()),
                server_payload: Some(b"ok"),
            };
            GatewayTap::in_chain(&mut self.chain).reset();
            let mut result = drive_session(
                client,
                server,
                params,
                &mut conditioner,
                &mut self.chain,
                &mut self.drive_scratch,
            );
            let now = self.now;
            let tap = GatewayTap::in_chain(&mut self.chain);
            result.records_deframed = tap.records_deframed();
            result.observation = tap.take_observation(now, &device.spec.name, &dest.hostname);
            record_session_metrics(&mut self.obs, &result);
            self.stats.count_injected(&result.faults);
            let tainted = result.tainted();
            let power_cycled = result
                .faults
                .iter()
                .any(|f| matches!(f, InjectedFault::PowerCycle { .. }));
            last = Some((result, hello));
            if !tainted {
                if faulted_tries > 0 {
                    self.stats.recovered += 1;
                }
                break;
            }
            faulted_tries += 1;
            if power_cycled || try_idx + 1 == INLINE_RETRY_BUDGET {
                break;
            }
            self.stats.inline_retries += 1;
            self.stats.backoff_virtual_secs += 1 << try_idx;
        }
        last.expect("at least one try ran")
    }

    /// Updates the consecutive-failure counter and the Yi quirk.
    fn note_outcome(&mut self, failed: bool) {
        let quirk = self.device.spec.disable_validation_after_failures;
        let state = &mut self.state;
        if failed {
            state.consecutive_failures += 1;
            if let Some(limit) = quirk {
                if state.consecutive_failures >= limit {
                    state.validation_disabled = true;
                }
            }
        } else {
            state.consecutive_failures = 0;
        }
    }

    /// [`Self::connect`] with recovery: when the outcome is tainted by
    /// an injected fault that re-dialing inside the attempt could not
    /// heal (a mid-handshake power loss, or an exhausted inline
    /// budget), waits out a virtual backoff and reconnects, up to
    /// `RECONNECT_BUDGET` times. The reconnect re-runs the full
    /// device connection logic — same boot count, same handshake
    /// randomness — so a recovered outcome is exactly what a
    /// fault-free run would have measured.
    pub fn connect_recovering(
        &mut self,
        dest: &Destination,
        policy: Option<&InterceptPolicy>,
    ) -> ConnectionOutcome {
        let mut outcome = self.connect(dest, policy);
        let mut tries = 0;
        while outcome.result.tainted() && tries < RECONNECT_BUDGET {
            tries += 1;
            self.stats.reconnects += 1;
            self.stats.backoff_virtual_secs += 2 << tries;
            outcome = self.connect(dest, policy);
        }
        if tries > 0 {
            if outcome.result.tainted() {
                self.stats.unrecovered += 1;
            } else {
                self.stats.recovered += 1;
            }
        }
        outcome
    }

    /// Boots the device and drives every boot destination
    /// (passthrough destinations reach their real servers). Returns no
    /// outcomes on a flaky boot. Successful connections unlock the
    /// device's off-boot destinations (observable under
    /// TrafficPassthrough), which it contacts on the same boot. Each
    /// connection recovers in place from injected faults, so the
    /// unlock decision is made from clean outcomes only.
    pub fn boot_and_connect(&mut self, policy: Option<&InterceptPolicy>) -> Vec<ConnectionOutcome> {
        if !self.power_cycle() {
            return Vec::new();
        }
        let device = self.device;
        let mut outcomes = Vec::new();
        let mut any_success = false;
        for dest in device.spec.boot_destinations() {
            let outcome = self.connect_recovering(dest, policy);
            any_success |= outcome.result.established;
            outcomes.push(outcome);
        }
        if any_success {
            for dest in device.spec.destinations.iter().filter(|d| !d.on_boot) {
                outcomes.push(self.connect_recovering(dest, policy));
            }
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotls_simnet::FaultPlan;

    /// The seed of every lab built here unless a test names another.
    const SEED: u64 = 0xAB5;

    /// What the labs of a test borrow: a hermetic ctx (one worker, no
    /// metrics, whatever the environment says) and a lab seed, both
    /// from the same seed.
    struct Rig {
        ctx: ExperimentCtx,
        lab_seed: LabSeed,
    }

    impl Rig {
        fn new(seed: u64, plan: FaultPlan) -> Rig {
            Rig {
                ctx: ExperimentCtx::builder()
                    .seed(seed)
                    .plan(plan)
                    .threads(1)
                    .metrics(false)
                    .build(),
                lab_seed: LabSeed::new(Testbed::global().pki, seed),
            }
        }

        /// A fresh lab driving the roster device named `device`.
        fn lab(&self, device: &str) -> ActiveLab<'_> {
            let tb = Testbed::global();
            ActiveLab::new(tb, &self.ctx, &self.lab_seed, tb.device(device))
        }
    }

    #[test]
    fn legit_connection_establishes() {
        let rig = Rig::new(SEED, FaultPlan::none());
        let mut lab = rig.lab("D-Link Camera");
        let dest = &lab.device().spec.destinations[0];
        let out = lab.connect(dest, None);
        assert!(out.result.established, "{:?}", out.result.client_summary.failure);
        assert!(!out.intercepted);
    }

    #[test]
    fn self_signed_interception_fails_against_strict_device() {
        let rig = Rig::new(SEED, FaultPlan::none());
        let mut lab = rig.lab("D-Link Camera");
        let dest = &lab.device().spec.destinations[0];
        let out = lab.connect(dest, Some(&InterceptPolicy::SelfSigned));
        assert!(!out.result.established);
        assert!(out.intercepted);
    }

    #[test]
    fn self_signed_interception_succeeds_against_zmodo() {
        let rig = Rig::new(SEED, FaultPlan::none());
        let mut lab = rig.lab("Zmodo Doorbell");
        let dest = &lab.device().spec.destinations[0];
        let out = lab.connect(dest, Some(&InterceptPolicy::SelfSigned));
        assert!(out.result.established);
        let leaked = String::from_utf8_lossy(&out.result.server_received).to_string();
        assert!(leaked.contains("encrypt_key"), "leaked: {leaked}");
    }

    #[test]
    fn yi_camera_gives_up_after_three_failures() {
        let rig = Rig::new(SEED, FaultPlan::none());
        let mut lab = rig.lab("Yi Camera");
        let dest = &lab.device().spec.destinations[0];
        for attempt in 0..3 {
            let out = lab.connect(dest, Some(&InterceptPolicy::SelfSigned));
            assert!(!out.result.established, "attempt {attempt} unexpectedly succeeded");
        }
        // Fourth attempt: validation disabled, interception succeeds.
        let out = lab.connect(dest, Some(&InterceptPolicy::SelfSigned));
        assert!(out.result.established, "Yi should have given up by now");
    }

    #[test]
    fn amazon_fallback_retries_with_ssl30_on_mute() {
        let rig = Rig::new(SEED, FaultPlan::none());
        let mut lab = rig.lab("Amazon Echo Dot");
        // svc0 runs the android-sdk instance with the SSL3 fallback.
        let dest = lab
            .device()
            .spec
            .destinations
            .iter()
            .find(|d| d.hostname.starts_with("svc0"))
            .unwrap();
        let out = lab.connect(dest, Some(&InterceptPolicy::Mute));
        let retry = out.retry_hello.expect("device retried");
        assert_eq!(
            retry.max_version(),
            iotls_tls::ProtocolVersion::Ssl30,
            "retry capped at SSL 3.0"
        );
        assert_eq!(out.first_hello.max_version(), iotls_tls::ProtocolVersion::Tls12);
    }

    #[test]
    fn no_fallback_device_does_not_retry() {
        let rig = Rig::new(SEED, FaultPlan::none());
        let mut lab = rig.lab("D-Link Camera");
        let dest = &lab.device().spec.destinations[0];
        let out = lab.connect(dest, Some(&InterceptPolicy::Mute));
        assert!(out.retry_hello.is_none());
        assert!(!out.result.established);
    }

    #[test]
    fn passthrough_reaches_real_server() {
        let rig = Rig::new(SEED, FaultPlan::none());
        let mut lab = rig.lab("D-Link Camera");
        let dest = &lab.device().spec.destinations[0];
        lab.state().passthrough.insert(dest.hostname.clone());
        let out = lab.connect(dest, Some(&InterceptPolicy::SelfSigned));
        assert!(out.result.established, "passthrough should succeed");
        assert!(!out.intercepted);
    }

    #[test]
    fn flaky_boots_produce_no_traffic() {
        let rig = Rig::new(SEED, FaultPlan::none());
        let mut lab = rig.lab("Google Home Mini");
        // GHM has 19 flaky boots scheduled; find the first one.
        let first_flaky = *lab.device().truth.flaky_boots.iter().next().unwrap();
        let mut saw_empty = false;
        for boot in 0..=first_flaky {
            let outcomes = lab.boot_and_connect(None);
            if boot == first_flaky {
                saw_empty = outcomes.is_empty();
            }
        }
        assert!(saw_empty, "flaky boot produced traffic");
    }

    #[test]
    fn boot_connects_all_boot_destinations() {
        let rig = Rig::new(SEED, FaultPlan::none());
        let mut lab = rig.lab("Zmodo Doorbell");
        let outcomes = lab.boot_and_connect(None);
        assert_eq!(outcomes.len(), lab.device().spec.boot_destinations().len());
        assert!(outcomes.iter().all(|o| o.result.established));
    }

    #[test]
    fn injected_faults_recover_to_clean_outcomes() {
        let chaos_rig = Rig::new(SEED, FaultPlan::uniform(0xFA017, 80));
        let clean_rig = Rig::new(SEED, FaultPlan::none());
        let mut chaos = chaos_rig.lab("Zmodo Doorbell");
        let mut clean = clean_rig.lab("Zmodo Doorbell");
        for _ in 0..12 {
            let a = chaos.boot_and_connect(None);
            let b = clean.boot_and_connect(None);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.destination, y.destination);
                assert_eq!(x.result.established, y.result.established);
                assert!(!x.result.tainted(), "unrecovered outcome");
            }
        }
        let stats = chaos.fault_stats();
        assert!(stats.injected_total() > 0, "no faults fired: {stats:?}");
        assert!(stats.recovered > 0, "nothing recovered: {stats:?}");
        assert_eq!(clean.fault_stats(), FaultStats::default());
    }

    #[test]
    fn verification_cache_hits_on_repeat_connections_deterministically() {
        let run = |seed| {
            let rig = Rig::new(seed, FaultPlan::none());
            let mut lab = rig.lab("D-Link Camera");
            let outcomes: Vec<_> = (0..6)
                .flat_map(|_| lab.boot_and_connect(None))
                .map(|o| (o.destination, o.result.established))
                .collect();
            (outcomes, lab.verify_cache_stats())
        };
        let (outcomes_a, stats_a) = run(0xCACE);
        let (outcomes_b, stats_b) = run(0xCACE);
        // Repeat boots present the same chains; the cache must absorb
        // the repeats and count them reproducibly.
        assert!(stats_a.misses > 0, "{stats_a:?}");
        assert!(stats_a.hits > stats_a.misses, "{stats_a:?}");
        assert_eq!(stats_a, stats_b);
        assert_eq!(outcomes_a, outcomes_b);
    }

    /// A tally with ten distinct nonzero fields.
    fn distinct_stats() -> FaultStats {
        FaultStats {
            resets: 1,
            garbles: 2,
            stalls: 3,
            power_cycles: 4,
            dns_failures: 5,
            inline_retries: 6,
            reconnects: 7,
            recovered: 8,
            unrecovered: 9,
            backoff_virtual_secs: 10,
        }
    }

    #[test]
    fn fault_stats_survive_export_and_read_back() {
        let stats = distinct_stats();
        let mut reg = Registry::new();
        stats.export(&mut reg);
        assert_eq!(reg.counters().count(), 10);
        assert_eq!(FaultStats::from_counters(&reg), stats);
    }

    #[test]
    fn two_fault_exports_read_back_as_their_sum() {
        let a = distinct_stats();
        let b = FaultStats {
            resets: 100,
            recovered: 1,
            ..FaultStats::default()
        };
        let mut reg = Registry::new();
        a.export(&mut reg);
        b.export(&mut reg);
        let mut sum = a;
        sum.merge(&b);
        assert_eq!(FaultStats::from_counters(&reg), sum);
        assert_eq!((sum.resets, sum.recovered, sum.stalls), (101, 9, 3));
    }

    #[test]
    fn zero_fault_stats_export_no_key() {
        let mut reg = Registry::new();
        FaultStats::default().export(&mut reg);
        assert!(reg.is_empty());
        assert_eq!(FaultStats::from_counters(&reg), FaultStats::default());
    }

    #[test]
    fn each_engine_derives_one_attacker_per_lab_seed() {
        use crate::experiment::ExperimentKind;
        // At one worker the per-device fan-out runs inline on this
        // thread, so the thread-local tally sees every derivation.
        let tb = Testbed::global();
        let base = ExperimentCtx::builder().threads(1).build();
        for (kind, distinct_seeds) in [
            (ExperimentKind::InterceptionAudit, 3),
            (ExperimentKind::RootProbe, 3),
            (ExperimentKind::DowngradeProbe, 2),
            (ExperimentKind::OldVersionScan, 2),
            (ExperimentKind::FingerprintSurvey, 1),
            (ExperimentKind::AuditService, 1),
        ] {
            let before = crate::attacker::derived_on_this_thread();
            kind.run(tb, &base.with_seed(kind.canonical_seed()));
            let derived = crate::attacker::derived_on_this_thread() - before;
            assert_eq!(derived, distinct_seeds, "{}", kind.name());
        }
    }

    #[test]
    fn dns_faults_are_retried() {
        let plan = FaultPlan {
            seed: 0xD15,
            reset_pm: 0,
            garble_pm: 0,
            stall_pm: 0,
            dns_fail_pm: 300,
            power_cycle_pm: 0,
        };
        let rig = Rig::new(SEED, plan);
        let mut lab = rig.lab("D-Link Camera");
        let dest = &lab.device().spec.destinations[0];
        for _ in 0..8 {
            let out = lab.connect_recovering(dest, None);
            assert!(out.result.established, "DNS retry should converge");
        }
        let stats = lab.fault_stats();
        assert!(stats.dns_failures > 0, "{stats:?}");
        assert!(stats.inline_retries > 0, "{stats:?}");
    }
}

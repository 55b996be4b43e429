//! The active laboratory: smart-plug power cycles, boot bursts, and
//! per-connection drive logic including device retry/fallback
//! behavior and the Yi Camera's give-up quirk.
//!
//! This is where device *behavior* (fallback retries, validation
//! collapse after repeated failures, flaky boots) is emulated; the
//! experiments in [`crate::audit`], [`crate::downgrade`], and
//! [`crate::rootprobe`] only look at what crosses the wire.

use crate::attacker::{Attacker, InterceptPolicy};
use crate::experiment::ExperimentCtx;
use iotls_crypto::drbg::Drbg;
use iotls_devices::spec::Destination;
use iotls_devices::{apply_fallback, client_config, DeviceSetup, Testbed};
use iotls_obs::Registry;
use iotls_simnet::{
    drive_session, record_session_metrics, DnsTable, DriveScratch, FailureCause, FaultPlan,
    GatewayTap, InjectedFault, LinkConditioner, SessionFaults, SessionParams, SessionResult,
};
use iotls_tls::client::{ClientConnection, HandshakeFailure};
use iotls_tls::middleware::Chain;
use iotls_tls::fingerprint::Fingerprint;
use iotls_x509::{Timestamp, ValidationPolicy};
use std::collections::{BTreeSet, HashMap};

/// How many times one logical attempt transparently re-dials after a
/// fault that a plain reconnect can heal (reset, garble, stall, DNS).
/// Public so the gateway's per-session retry loop shares the budget.
pub const INLINE_RETRY_BUDGET: usize = 6;

/// How many times the boot-level recovery reconnects after a fault
/// that re-dialing alone cannot heal (mid-handshake power loss).
/// Public so gateway-style callers can mirror the boot-level policy.
pub const RECONNECT_BUDGET: usize = 4;

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

impl FaultStats {
    /// Total faults that actually fired, across every class.
    pub fn injected_total(&self) -> u64 {
        self.resets + self.garbles + self.stalls + self.power_cycles + self.dns_failures
    }

    /// Field-wise accumulation (for aggregating across labs).
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
    /// Destinations unlocked by earlier successful connections
    /// (surfaces only in TrafficPassthrough runs, as in §4.2).
    pub unlocked: BTreeSet<String>,
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

/// The experiment context a lab answers to: borrowed from an engine
/// (the normal path — many labs share one ctx), or owned when the lab
/// is constructed stand-alone via [`ActiveLab::new`] /
/// [`ActiveLab::with_faults`].
enum LabCtx<'a> {
    /// An engine's context, shared across its per-device labs.
    Borrowed(&'a ExperimentCtx),
    /// A hermetic context for stand-alone labs.
    Owned(Box<ExperimentCtx>),
}

impl LabCtx<'_> {
    fn get(&self) -> &ExperimentCtx {
        match self {
            LabCtx::Borrowed(ctx) => ctx,
            LabCtx::Owned(ctx) => ctx,
        }
    }
}

/// The laboratory: the testbed plus an attacker and device states.
pub struct ActiveLab<'a> {
    /// The testbed under test.
    pub testbed: &'a Testbed,
    /// The on-path attacker.
    pub attacker: Attacker,
    /// The fault plan and cache policy come from here; the lab holds
    /// no parallel copies of the ctx's fields.
    ctx: LabCtx<'a>,
    states: HashMap<String, DeviceState>,
    rng: Drbg,
    now: Timestamp,
    dns: DnsTable,
    stats: FaultStats,
    /// Monotone per-lab attempt counter; keys the fault schedule so
    /// every re-dial draws a fresh fault decision.
    attempt_seq: u64,
    /// Validation-verdict memoization shared by every handshake the
    /// lab drives, resolved from the ctx's [`iotls_x509::CacheScope`]
    /// at construction (`None` disables memoization). Per-lab under
    /// the default scope, so the hit/miss counters are part of the
    /// run's deterministic output.
    verify_cache: Option<std::sync::Arc<iotls_x509::cache::VerificationCache>>,
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
    /// Sets up the lab at probe time (March 2021).
    pub fn new(testbed: &'a Testbed, seed: u64) -> ActiveLab<'a> {
        Self::with_faults(testbed, seed, FaultPlan::none())
    }

    /// Sets up the lab with an injected-fault schedule (chaos runs).
    pub fn with_faults(testbed: &'a Testbed, seed: u64, plan: FaultPlan) -> ActiveLab<'a> {
        Self::init(testbed, seed, LabCtx::Owned(Box::new(ExperimentCtx::bare(seed, plan))))
    }

    /// Sets up a lab borrowing an engine's context. `lab_seed` is the
    /// engine-derived lab seed (a pure function of `ctx.seed()`), kept
    /// separate so the XOR derivations of the six engines stay intact.
    pub fn with_ctx(
        testbed: &'a Testbed,
        ctx: &'a ExperimentCtx,
        lab_seed: u64,
    ) -> ActiveLab<'a> {
        Self::init(testbed, lab_seed, LabCtx::Borrowed(ctx))
    }

    fn init(testbed: &'a Testbed, seed: u64, ctx: LabCtx<'a>) -> ActiveLab<'a> {
        let mut dns = DnsTable::new();
        for device in &testbed.devices {
            for dest in &device.spec.destinations {
                dns.register(&dest.hostname);
            }
        }
        let verify_cache = ctx.get().lab_cache();
        ActiveLab {
            testbed,
            attacker: Attacker::new(testbed.pki, seed),
            ctx,
            states: HashMap::new(),
            rng: Drbg::from_seed(seed).fork("active-lab"),
            now: iotls_rootstore::probe_time(),
            dns,
            stats: FaultStats::default(),
            attempt_seq: 0,
            verify_cache,
            obs: Registry::new(),
            drive_scratch: DriveScratch::new(),
            chain: Chain::new().with(Box::new(GatewayTap::new())),
        }
    }

    /// The lab's tap, at slot 0 of its chain.
    fn tap(&mut self) -> &mut GatewayTap {
        self.chain
            .middleware_mut::<GatewayTap>(0)
            .expect("the lab chain holds its tap at slot 0")
    }

    /// The experiment context this lab answers to.
    pub fn ctx(&self) -> &ExperimentCtx {
        self.ctx.get()
    }

    /// The probe-time clock.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Fault/recovery counters accumulated so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// Verification-cache hit/miss counters accumulated so far
    /// (reported next to [`FaultStats`]; all zeros when the ctx
    /// disabled caching).
    pub fn verify_cache_stats(&self) -> iotls_x509::cache::CacheStats {
        self.verify_cache.as_deref().map(|c| c.stats()).unwrap_or_default()
    }

    /// The lab's DNS view (registry plus per-device query log).
    pub fn dns(&self) -> &DnsTable {
        &self.dns
    }

    /// Snapshot of every metric this lab produced: the live `sim.*`
    /// session counters, plus the [`FaultStats`] recovery counters
    /// mirrored under `core.*` and the verification-cache counters
    /// mirrored under `x509.cache.*`. The mirrors are taken at
    /// snapshot time so the registry and the legacy stats structs can
    /// never disagree.
    pub fn metrics(&self) -> Registry {
        let mut reg = self.obs.clone();
        let s = self.stats;
        reg.add("core.faults.resets", s.resets);
        reg.add("core.faults.garbles", s.garbles);
        reg.add("core.faults.stalls", s.stalls);
        reg.add("core.faults.power_cycles", s.power_cycles);
        reg.add("core.faults.dns_failures", s.dns_failures);
        reg.add("core.retries.inline", s.inline_retries);
        reg.add("core.reconnects", s.reconnects);
        reg.add("core.recovered", s.recovered);
        reg.add("core.unrecovered", s.unrecovered);
        reg.add("core.backoff.virtual_secs", s.backoff_virtual_secs);
        if let Some(cache) = &self.verify_cache {
            cache.export_metrics(&mut reg);
        }
        reg
    }

    /// Mutable state for a device.
    pub fn state(&mut self, device: &str) -> &mut DeviceState {
        self.states.entry(device.to_string()).or_default()
    }

    /// Power-cycles a device and returns whether it produces TLS
    /// traffic this boot (its flaky-boot schedule may say no).
    pub fn power_cycle(&mut self, device: &DeviceSetup) -> bool {
        let state = self.state(&device.spec.name);
        let boot = state.boot_count;
        state.boot_count += 1;
        !device.truth.flaky_boots.contains(&boot)
    }

    /// Drives the device's connection to `dest`, intercepted under
    /// `policy` (or passed through to the real server when `policy` is
    /// `None` or the destination is in the passthrough set).
    pub fn connect(
        &mut self,
        device: &DeviceSetup,
        dest: &Destination,
        policy: Option<&InterceptPolicy>,
    ) -> ConnectionOutcome {
        let probe_month = self.now.month();
        let instances = device.spec.instances_at(probe_month);
        let instance = &instances[dest.instance.min(instances.len() - 1)];

        let passthrough = self
            .state(&device.spec.name)
            .passthrough
            .contains(&dest.hostname);
        let effective_policy = if passthrough { None } else { policy };

        // First attempt.
        let (first, first_hello) =
            self.attempt(device, dest, instance, effective_policy, false);
        let first_fp = Fingerprint::from_client_hello(&first_hello).id();

        // Device-side failure bookkeeping. A fault-tainted attempt is
        // a *network* artifact, not a device verdict: it must neither
        // advance the give-up counter nor trigger the device's
        // fallback (a reset mid-handshake would otherwise be
        // indistinguishable from a muted server).
        let tainted = first.tainted();
        let failed = !first.established;
        if !tainted {
            self.note_outcome(device, failed);
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
                    let (second, hello) =
                        self.attempt(device, dest, instance, effective_policy, true);
                    if !second.tainted() {
                        self.note_outcome(device, !second.established);
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
        device: &DeviceSetup,
        dest: &Destination,
        instance: &iotls_devices::TlsInstanceSpec,
        policy: Option<&InterceptPolicy>,
        fallback: bool,
    ) -> (SessionResult, iotls_tls::ClientHello) {
        let spec = if fallback {
            apply_fallback(instance)
        } else {
            instance.clone()
        };
        let validation_disabled = self.state(&device.spec.name).validation_disabled;
        let boot_count = self.state(&device.spec.name).boot_count;
        let conn_key = format!(
            "conn/{}/{}/{}/{}",
            device.spec.name, dest.hostname, boot_count, fallback
        );

        let mut faulted_tries = 0u64;
        let mut last: Option<(SessionResult, iotls_tls::ClientHello)> = None;
        for try_idx in 0..INLINE_RETRY_BUDGET {
            let seq = self.attempt_seq;
            self.attempt_seq += 1;
            let faults = self.ctx.get().plan().session_faults(&format!("{conn_key}/try{seq}"));

            let mut cfg = client_config(&spec, device.truth.store.clone());
            cfg.verify_cache = self.verify_cache.clone();
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
            let resolution =
                self.dns
                    .resolve_faulted(self.now, &device.spec.name, &dest.hostname, faults.dns);
            if resolution.faulted() {
                self.stats.dns_failures += 1;
                faulted_tries += 1;
                let kind = faults.dns.expect("faulted resolution implies a DNS fault");
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
            let payload = dest.payload.clone().unwrap_or_else(|| "ping".into());
            let mut conditioner = LinkConditioner::new(SessionFaults {
                ops: faults.ops.clone(),
                dns: None,
            });
            let params = SessionParams {
                client_payload: Some(payload.as_bytes()),
                server_payload: Some(b"ok"),
            };
            self.tap().reset();
            let mut result = drive_session(
                client,
                server,
                params,
                &mut conditioner,
                &mut self.chain,
                &mut self.drive_scratch,
            );
            let now = self.now;
            let tap = self.tap();
            result.records_deframed = tap.records_deframed();
            result.observation = tap.take_observation(now, &device.spec.name, &dest.hostname);
            record_session_metrics(&mut self.obs, &result);
            self.count_injected(&result.faults);
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

    /// Tallies conditioner-fired faults into the lab counters.
    fn count_injected(&mut self, faults: &[InjectedFault]) {
        for f in faults {
            match f {
                InjectedFault::Reset { .. } => self.stats.resets += 1,
                InjectedFault::Garble { .. } => self.stats.garbles += 1,
                InjectedFault::Stall { .. } => self.stats.stalls += 1,
                InjectedFault::PowerCycle { .. } => self.stats.power_cycles += 1,
                InjectedFault::Dns { .. } => self.stats.dns_failures += 1,
            }
        }
    }

    /// Updates the consecutive-failure counter and the Yi quirk.
    fn note_outcome(&mut self, device: &DeviceSetup, failed: bool) {
        let quirk = device.spec.disable_validation_after_failures;
        let state = self.state(&device.spec.name);
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
        device: &DeviceSetup,
        dest: &Destination,
        policy: Option<&InterceptPolicy>,
    ) -> ConnectionOutcome {
        let mut outcome = self.connect(device, dest, policy);
        let mut tries = 0;
        while outcome.result.tainted() && tries < RECONNECT_BUDGET {
            tries += 1;
            self.stats.reconnects += 1;
            self.stats.backoff_virtual_secs += 2 << tries;
            outcome = self.connect(device, dest, policy);
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

    /// Boots a device and drives every boot destination (passthrough
    /// destinations reach their real servers). Returns no outcomes on
    /// a flaky boot. Successful connections unlock the device's
    /// off-boot destinations (observable under TrafficPassthrough).
    /// Each connection recovers in place from injected faults, so the
    /// unlock decision is made from clean outcomes only.
    pub fn boot_and_connect(
        &mut self,
        device: &DeviceSetup,
        policy: Option<&InterceptPolicy>,
    ) -> Vec<ConnectionOutcome> {
        if !self.power_cycle(device) {
            return Vec::new();
        }
        let mut outcomes = Vec::new();
        let mut any_success = false;
        for dest in device.spec.boot_destinations() {
            let outcome = self.connect_recovering(device, dest, policy);
            any_success |= outcome.result.established;
            outcomes.push(outcome);
        }
        if any_success {
            let unlocked: Vec<String> = device
                .spec
                .destinations
                .iter()
                .filter(|d| !d.on_boot)
                .map(|d| d.hostname.clone())
                .collect();
            let state = self.state(&device.spec.name);
            for h in unlocked {
                state.unlocked.insert(h);
            }
            // Unlocked destinations are contacted on this boot too.
            let followups: Vec<Destination> = device
                .spec
                .destinations
                .iter()
                .filter(|d| !d.on_boot)
                .cloned()
                .collect();
            for dest in &followups {
                let outcome = self.connect_recovering(device, dest, policy);
                outcomes.push(outcome);
            }
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab() -> ActiveLab<'static> {
        ActiveLab::new(Testbed::global(), 0xAB5)
    }

    #[test]
    fn legit_connection_establishes() {
        let mut lab = lab();
        let dev = lab.testbed.device("D-Link Camera");
        let dest = dev.spec.destinations[0].clone();
        let out = lab.connect(dev, &dest, None);
        assert!(out.result.established, "{:?}", out.result.client_summary.failure);
        assert!(!out.intercepted);
    }

    #[test]
    fn self_signed_interception_fails_against_strict_device() {
        let mut lab = lab();
        let dev = lab.testbed.device("D-Link Camera");
        let dest = dev.spec.destinations[0].clone();
        let out = lab.connect(dev, &dest, Some(&InterceptPolicy::SelfSigned));
        assert!(!out.result.established);
        assert!(out.intercepted);
    }

    #[test]
    fn self_signed_interception_succeeds_against_zmodo() {
        let mut lab = lab();
        let dev = lab.testbed.device("Zmodo Doorbell");
        let dest = dev.spec.destinations[0].clone();
        let out = lab.connect(dev, &dest, Some(&InterceptPolicy::SelfSigned));
        assert!(out.result.established);
        let leaked = String::from_utf8_lossy(&out.result.server_received).to_string();
        assert!(leaked.contains("encrypt_key"), "leaked: {leaked}");
    }

    #[test]
    fn yi_camera_gives_up_after_three_failures() {
        let mut lab = lab();
        let dev = lab.testbed.device("Yi Camera");
        let dest = dev.spec.destinations[0].clone();
        for attempt in 0..3 {
            let out = lab.connect(dev, &dest, Some(&InterceptPolicy::SelfSigned));
            assert!(!out.result.established, "attempt {attempt} unexpectedly succeeded");
        }
        // Fourth attempt: validation disabled, interception succeeds.
        let out = lab.connect(dev, &dest, Some(&InterceptPolicy::SelfSigned));
        assert!(out.result.established, "Yi should have given up by now");
    }

    #[test]
    fn amazon_fallback_retries_with_ssl30_on_mute() {
        let mut lab = lab();
        let dev = lab.testbed.device("Amazon Echo Dot");
        // svc0 runs the android-sdk instance with the SSL3 fallback.
        let dest = dev
            .spec
            .destinations
            .iter()
            .find(|d| d.hostname.starts_with("svc0"))
            .unwrap()
            .clone();
        let out = lab.connect(dev, &dest, Some(&InterceptPolicy::Mute));
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
        let mut lab = lab();
        let dev = lab.testbed.device("D-Link Camera");
        let dest = dev.spec.destinations[0].clone();
        let out = lab.connect(dev, &dest, Some(&InterceptPolicy::Mute));
        assert!(out.retry_hello.is_none());
        assert!(!out.result.established);
    }

    #[test]
    fn passthrough_reaches_real_server() {
        let mut lab = lab();
        let dev = lab.testbed.device("D-Link Camera");
        let dest = dev.spec.destinations[0].clone();
        lab.state("D-Link Camera")
            .passthrough
            .insert(dest.hostname.clone());
        let out = lab.connect(dev, &dest, Some(&InterceptPolicy::SelfSigned));
        assert!(out.result.established, "passthrough should succeed");
        assert!(!out.intercepted);
    }

    #[test]
    fn flaky_boots_produce_no_traffic() {
        let mut lab = lab();
        let dev = lab.testbed.device("Google Home Mini");
        // GHM has 19 flaky boots scheduled; find the first one.
        let first_flaky = *dev.truth.flaky_boots.iter().next().unwrap();
        let mut saw_empty = false;
        for boot in 0..=first_flaky {
            let outcomes = lab.boot_and_connect(dev, None);
            if boot == first_flaky {
                saw_empty = outcomes.is_empty();
            }
        }
        assert!(saw_empty, "flaky boot produced traffic");
    }

    #[test]
    fn boot_connects_all_boot_destinations() {
        let mut lab = lab();
        let dev = lab.testbed.device("Zmodo Doorbell");
        let outcomes = lab.boot_and_connect(dev, None);
        assert_eq!(outcomes.len(), dev.spec.boot_destinations().len());
        assert!(outcomes.iter().all(|o| o.result.established));
    }

    #[test]
    fn injected_faults_recover_to_clean_outcomes() {
        let tb = Testbed::global();
        let plan = FaultPlan::uniform(0xFA017, 80);
        let mut chaos = ActiveLab::with_faults(tb, 0xAB5, plan);
        let mut clean = ActiveLab::new(tb, 0xAB5);
        let dev = tb.device("Zmodo Doorbell");
        for _ in 0..12 {
            let a = chaos.boot_and_connect(dev, None);
            let b = clean.boot_and_connect(dev, None);
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
        let tb = Testbed::global();
        let run = |seed| {
            let mut lab = ActiveLab::new(tb, seed);
            let dev = tb.device("D-Link Camera");
            let outcomes: Vec<_> = (0..6)
                .flat_map(|_| lab.boot_and_connect(dev, None))
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

    #[test]
    fn dns_faults_are_retried_and_logged() {
        let tb = Testbed::global();
        let plan = FaultPlan {
            seed: 0xD15,
            reset_pm: 0,
            garble_pm: 0,
            stall_pm: 0,
            dns_fail_pm: 300,
            power_cycle_pm: 0,
        };
        let mut lab = ActiveLab::with_faults(tb, 0xAB5, plan);
        let dev = tb.device("D-Link Camera");
        let dest = dev.spec.destinations[0].clone();
        for _ in 0..8 {
            let out = lab.connect_recovering(dev, &dest, None);
            assert!(out.result.established, "DNS retry should converge");
        }
        let stats = lab.fault_stats();
        assert!(stats.dns_failures > 0, "{stats:?}");
        let log = lab.dns().log();
        assert!(log.iter().any(|q| q.outcome.faulted()));
        assert!(log.iter().any(|q| q.outcome.resolved()));
    }
}

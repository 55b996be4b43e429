//! Deterministic fault injection for the simulated network.
//!
//! Real IoT testbeds lose connections mid-handshake, wedge against
//! stalled peers, hit DNS outages, and get power-cycled by their smart
//! plugs. This module reproduces those conditions *deterministically*:
//! a [`FaultPlan`] is a pure function from `(seed, session key)` to the
//! faults that session experiences, so a chaos run with a fixed seed
//! produces the identical fault schedule — and therefore identical
//! results — every time.
//!
//! The injection point is the [`LinkConditioner`], which sits between
//! the two TLS endpoints inside the session driver and may cut,
//! corrupt, or throttle the byte stream.
//! DNS faults never reach the link: the caller reads
//! [`SessionFaults::dns`] before it dials, and a drawn DNS fault ends
//! that try before any byte flows.
//!
//! Every draw runs one routine over a DRBG forked by the session key,
//! reached two ways: [`FaultSampler::session_faults`] forks by the
//! whole key, and a [`FaultKeyPrefix`] (built once per family of keys
//! that share a fixed start, such as the gateway's
//! `gw/{device}/{endpoint}/`) forks by the rest of the key only. Both
//! hash the same bytes, so they draw the same faults for the same key.

use iotls_crypto::drbg::{Drbg, ForkPrefix};

/// Why a session failed, when the cause was the *network* rather than
/// either TLS endpoint. Endpoint-level failures (validation rejection,
/// version intolerance, …) stay in the client handshake summary; a
/// `FailureCause` means the peers never got the chance to finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// The transport was cut (TCP RST or mid-handshake power loss).
    Reset,
    /// The session stopped making progress and exhausted the driver's
    /// round budget (stalled peer / blackholed path).
    Wedged,
    /// Name resolution failed, so no connection was attempted.
    DnsFailure,
    /// A record fragment was corrupted in flight.
    Garbled,
}

impl FailureCause {
    /// Stable snake_case label used as a metrics-counter suffix.
    pub fn label(&self) -> &'static str {
        match self {
            FailureCause::Reset => "reset",
            FailureCause::Wedged => "wedged",
            FailureCause::DnsFailure => "dns_failure",
            FailureCause::Garbled => "garbled",
        }
    }
}

/// How a DNS lookup fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsFault {
    /// Authoritative NXDOMAIN.
    NxDomain,
    /// The resolver never answered.
    Timeout,
}

/// One scheduled fault, in link terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Cut both directions once `offset` cumulative bytes have been
    /// delivered (either direction).
    Reset {
        /// Cumulative delivered-byte offset of the cut.
        offset: u64,
    },
    /// XOR the byte at cumulative delivered offset `offset`.
    Garble {
        /// Cumulative delivered-byte offset of the corrupted byte.
        offset: u64,
    },
    /// From the round after `after_round`, deliver at most one byte
    /// per direction per round — enough to keep the session "moving"
    /// but far too slow to finish inside the driver's round budget.
    Stall {
        /// Last round with normal delivery.
        after_round: usize,
    },
    /// Cut both directions at the start of round `at_round`: the
    /// device lost power mid-handshake. On the wire this looks like a
    /// reset, but it is logged distinctly because recovery differs
    /// (the device reboots).
    PowerCycle {
        /// Round at which power is lost.
        at_round: usize,
    },
}

/// A fault that actually fired during a driven session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A [`FaultOp::Reset`] cut the link.
    Reset {
        /// Round in which the cut happened.
        round: usize,
        /// Cumulative delivered bytes at the cut.
        offset: u64,
    },
    /// A [`FaultOp::Garble`] corrupted a byte.
    Garble {
        /// Round in which the byte was corrupted.
        round: usize,
        /// Cumulative delivered offset of the corrupted byte.
        offset: u64,
    },
    /// A [`FaultOp::Stall`] began throttling.
    Stall {
        /// First throttled round.
        round: usize,
    },
    /// A [`FaultOp::PowerCycle`] cut the link at a round boundary.
    PowerCycle {
        /// Round at which power was lost.
        round: usize,
    },
    /// An injected DNS failure aborted the connection before any
    /// bytes flowed. Never emitted by the [`LinkConditioner`] (DNS
    /// faults fire at resolution time); recorded by the measurement
    /// core so DNS-failed attempts are tainted like link faults.
    Dns {
        /// How the lookup failed.
        kind: DnsFault,
    },
}

impl InjectedFault {
    /// Stable snake_case label used as a metrics-counter suffix.
    pub fn label(&self) -> &'static str {
        match self {
            InjectedFault::Reset { .. } => "reset",
            InjectedFault::Garble { .. } => "garble",
            InjectedFault::Stall { .. } => "stall",
            InjectedFault::PowerCycle { .. } => "power_cycle",
            InjectedFault::Dns { .. } => "dns",
        }
    }
}

/// The faults one session draws from a plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionFaults {
    /// Link-level faults to apply.
    pub ops: Vec<FaultOp>,
    /// DNS fault for the lookup preceding the connection, if any.
    pub dns: Option<DnsFault>,
}

impl SessionFaults {
    /// No faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when this session has neither link nor DNS faults.
    pub fn is_clean(&self) -> bool {
        self.ops.is_empty() && self.dns.is_none()
    }
}

/// A seeded, deterministic fault schedule over a whole experiment.
///
/// Rates are per-mille probabilities, drawn independently per session
/// from a DRBG forked by the session key — the schedule is a pure
/// function of `(seed, key)`, independent of evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Root seed for the schedule.
    pub seed: u64,
    /// Per-mille probability of a connection reset.
    pub reset_pm: u16,
    /// Per-mille probability of a garbled record fragment.
    pub garble_pm: u16,
    /// Per-mille probability of a stalled session.
    pub stall_pm: u16,
    /// Per-mille probability of a DNS failure.
    pub dns_fail_pm: u16,
    /// Per-mille probability of a mid-handshake power cycle.
    pub power_cycle_pm: u16,
}

impl FaultPlan {
    /// The fault-free plan (every session is clean).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            reset_pm: 0,
            garble_pm: 0,
            stall_pm: 0,
            dns_fail_pm: 0,
            power_cycle_pm: 0,
        }
    }

    /// A uniform plan: every fault class at `pm` per mille.
    pub fn uniform(seed: u64, pm: u16) -> Self {
        FaultPlan {
            seed,
            reset_pm: pm,
            garble_pm: pm,
            stall_pm: pm,
            dns_fail_pm: pm,
            power_cycle_pm: pm,
        }
    }

    /// True when no fault class can ever fire.
    pub fn is_none(&self) -> bool {
        self.reset_pm == 0
            && self.garble_pm == 0
            && self.stall_pm == 0
            && self.dns_fail_pm == 0
            && self.power_cycle_pm == 0
    }

    /// The faults the session identified by `key` experiences. Pure:
    /// the same `(seed, key)` always yields the same faults, no matter
    /// how many other sessions were drawn in between. A caller drawing
    /// many sessions from one plan should hold a [`FaultPlan::sampler`]
    /// instead, which derives the plan's DRBG fork once.
    pub fn session_faults(&self, key: &str) -> SessionFaults {
        self.sampler().session_faults(key)
    }

    /// A sampler for this plan, with the per-plan DRBG fork derived.
    pub fn sampler(&self) -> FaultSampler {
        FaultSampler {
            plan: *self,
            fork: (!self.is_none()).then(|| Drbg::from_seed(self.seed).fork("fault-plan")),
        }
    }

    /// The one draw routine behind both entries: every class is drawn
    /// from `rng`, the session key's fork, in a fixed order.
    fn draw(&self, mut rng: Drbg) -> SessionFaults {
        let mut ops = Vec::new();
        // Draw every class unconditionally so each decision consumes
        // the same DRBG stream regardless of earlier outcomes.
        let reset = rng.chance(self.reset_pm as f64 / 1000.0);
        let reset_offset = rng.range(16, 2600);
        let garble = rng.chance(self.garble_pm as f64 / 1000.0);
        let garble_offset = rng.range(6, 2200);
        let stall = rng.chance(self.stall_pm as f64 / 1000.0);
        let stall_round = rng.range(1, 3) as usize;
        let cycle = rng.chance(self.power_cycle_pm as f64 / 1000.0);
        let cycle_round = rng.range(1, 3) as usize;
        let dns = rng.chance(self.dns_fail_pm as f64 / 1000.0);
        let dns_kind = if rng.chance(0.5) {
            DnsFault::NxDomain
        } else {
            DnsFault::Timeout
        };
        if reset {
            ops.push(FaultOp::Reset {
                offset: reset_offset,
            });
        }
        if garble {
            ops.push(FaultOp::Garble {
                offset: garble_offset,
            });
        }
        if stall {
            ops.push(FaultOp::Stall {
                after_round: stall_round,
            });
        }
        if cycle {
            ops.push(FaultOp::PowerCycle {
                at_round: cycle_round,
            });
        }
        SessionFaults {
            ops,
            dns: dns.then_some(dns_kind),
        }
    }
}

/// A [`FaultPlan`] with the DRBG fork all its sessions derive from
/// computed once, so each draw costs one fork by the session key
/// instead of three. Draws the identical schedule as
/// [`FaultPlan::session_faults`], which delegates here.
pub struct FaultSampler {
    plan: FaultPlan,
    /// The plan's fork; `None` when no fault class can fire.
    fork: Option<Drbg>,
}

impl FaultSampler {
    /// True when no fault class can ever fire.
    pub fn is_none(&self) -> bool {
        self.fork.is_none()
    }

    /// The faults the session identified by `key` experiences; see
    /// [`FaultPlan::session_faults`].
    pub fn session_faults(&self, key: &str) -> SessionFaults {
        match &self.fork {
            Some(fork) => self.plan.draw(fork.fork(key)),
            None => SessionFaults::none(),
        }
    }

    /// Absorbs `prefix`, the fixed start of a family of session keys,
    /// into the plan's fork once; see [`FaultKeyPrefix`].
    pub fn key_prefix(&self, prefix: &str) -> FaultKeyPrefix {
        FaultKeyPrefix {
            plan: self.plan,
            absorbed: self.fork.as_ref().map(|fork| fork.fork_prefix(prefix)),
        }
    }
}

/// A session-key prefix absorbed into a [`FaultSampler`]'s fork once:
/// [`FaultKeyPrefix::session_faults`] draws for the key `prefix + rest`
/// exactly what [`FaultSampler::session_faults`] draws for it, hashing
/// only `rest`.
pub struct FaultKeyPrefix {
    plan: FaultPlan,
    /// The prefix absorbed into the plan's fork; `None` when no fault
    /// class can fire.
    absorbed: Option<ForkPrefix>,
}

impl FaultKeyPrefix {
    /// The faults of the session keyed by the prefix followed by
    /// `rest`.
    pub fn session_faults(&self, rest: &str) -> SessionFaults {
        match &self.absorbed {
            Some(absorbed) => self.plan.draw(absorbed.fork(rest)),
            None => SessionFaults::none(),
        }
    }
}

/// Transfer direction through the conditioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server.
    C2s,
    /// Server → client.
    S2c,
}

/// The fault-applying shim between the TLS endpoints and the link.
///
/// The drive and replay loops hand every outbound chunk to
/// [`LinkConditioner::transfer_into`] and forward only what comes
/// back; the conditioner cuts, corrupts, or throttles according to its
/// [`SessionFaults`], and records every fault that actually fired.
#[derive(Debug, Default)]
pub struct LinkConditioner {
    faults: SessionFaults,
    /// Cumulative bytes delivered (both directions).
    delivered: u64,
    /// Link has been cut; nothing more flows.
    cut: bool,
    /// Stall is active from this round on.
    stall_from: Option<usize>,
    /// Held-back bytes per direction while stalling.
    backlog: [Vec<u8>; 2],
    injected: Vec<InjectedFault>,
}

impl LinkConditioner {
    /// A conditioner that changes nothing.
    pub fn passthrough() -> Self {
        Self::default()
    }

    /// A conditioner applying `faults`.
    pub fn new(faults: SessionFaults) -> Self {
        LinkConditioner {
            faults,
            ..Self::default()
        }
    }

    /// Called by the driver at the top of each pump round; fires
    /// round-triggered faults (power cycles, stall activation).
    pub fn begin_round(&mut self, round: usize) {
        for op in &self.faults.ops {
            match *op {
                FaultOp::PowerCycle { at_round } if at_round == round && !self.cut => {
                    self.cut = true;
                    self.injected.push(InjectedFault::PowerCycle { round });
                }
                FaultOp::Stall { after_round }
                    if round > after_round && self.stall_from.is_none() =>
                {
                    self.stall_from = Some(round);
                    self.injected.push(InjectedFault::Stall { round });
                }
                _ => {}
            }
        }
    }

    /// Passes `data` (possibly empty) through the conditioner for one
    /// direction, writing the bytes to deliver this round into the
    /// caller-owned `out` (cleared first), so the replay and drive
    /// loops reuse one buffer. On the clean-link fast path (no cut, no
    /// stall, no backlog) the input is copied straight through without
    /// touching the backlog.
    pub fn transfer_into(&mut self, dir: Direction, data: &[u8], round: usize, out: &mut Vec<u8>) {
        out.clear();
        let slot = match dir {
            Direction::C2s => 0,
            Direction::S2c => 1,
        };
        if self.cut {
            self.backlog[slot].clear();
            return;
        }
        // Under stall, trickle one byte per direction per round.
        let stalled = self.stall_from.is_some_and(|r| round >= r);
        if !stalled && self.backlog[slot].is_empty() {
            out.extend_from_slice(data);
        } else {
            self.backlog[slot].extend_from_slice(data);
            let take = if stalled {
                1.min(self.backlog[slot].len())
            } else {
                self.backlog[slot].len()
            };
            out.extend(self.backlog[slot].drain(..take));
        }

        // Garble: corrupt the byte at its cumulative offset.
        for op in &self.faults.ops {
            if let FaultOp::Garble { offset } = *op {
                if offset >= self.delivered && offset < self.delivered + out.len() as u64 {
                    let already = self
                        .injected
                        .iter()
                        .any(|f| matches!(f, InjectedFault::Garble { .. }));
                    if !already {
                        out[(offset - self.delivered) as usize] ^= 0x5A;
                        self.injected.push(InjectedFault::Garble { round, offset });
                    }
                }
            }
        }

        // Reset: deliver up to the cut offset, then sever the link.
        for op in &self.faults.ops {
            if let FaultOp::Reset { offset } = *op {
                if offset < self.delivered + out.len() as u64 {
                    let keep = offset.saturating_sub(self.delivered) as usize;
                    out.truncate(keep);
                    self.cut = true;
                    self.backlog[0].clear();
                    self.backlog[1].clear();
                    self.injected.push(InjectedFault::Reset {
                        round,
                        offset: self.delivered + out.len() as u64,
                    });
                    break;
                }
            }
        }

        self.delivered += out.len() as u64;
    }

    /// Bytes still held back (stall backlog).
    pub fn has_backlog(&self) -> bool {
        !self.cut && (!self.backlog[0].is_empty() || !self.backlog[1].is_empty())
    }

    /// True once the link has been severed.
    pub fn is_cut(&self) -> bool {
        self.cut
    }

    /// Every fault that actually fired, in firing order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.injected
    }

    /// True when any fault fired: the session's outcome cannot be
    /// trusted as a statement about the endpoints.
    pub fn tainted(&self) -> bool {
        !self.injected.is_empty()
    }

    /// The network-level failure cause implied by the fired faults,
    /// by severity: a cut beats corruption beats a wedge.
    pub fn failure_cause(&self, exhausted_rounds: bool) -> Option<FailureCause> {
        let cut = self.injected.iter().any(|f| {
            matches!(
                f,
                InjectedFault::Reset { .. } | InjectedFault::PowerCycle { .. }
            )
        });
        if cut {
            return Some(FailureCause::Reset);
        }
        if self
            .injected
            .iter()
            .any(|f| matches!(f, InjectedFault::Garble { .. }))
        {
            return Some(FailureCause::Garbled);
        }
        if exhausted_rounds {
            return Some(FailureCause::Wedged);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_pure_function_of_seed_and_key() {
        let plan = FaultPlan::uniform(7, 300);
        let a = plan.session_faults("conn/cam/host/0");
        let b = plan.session_faults("conn/cam/host/0");
        assert_eq!(a, b);
        // Drawing another key in between changes nothing.
        let _ = plan.session_faults("conn/other/host/3");
        assert_eq!(plan.session_faults("conn/cam/host/0"), a);
    }

    /// One key per fault class under a 2% plan, with the exact faults
    /// drawn for it, so a change that moves a draw fails here rather
    /// than only in the golden fixtures.
    #[test]
    fn session_faults_are_pinned() {
        let plan = FaultPlan::uniform(0x6A7F, 20);
        let pinned = [
            ("pin/2", vec![FaultOp::PowerCycle { at_round: 1 }], None),
            ("pin/6", vec![FaultOp::Garble { offset: 1012 }], None),
            ("pin/8", vec![FaultOp::Stall { after_round: 2 }], None),
            ("pin/23", vec![FaultOp::Reset { offset: 1435 }], None),
            ("pin/71", vec![], Some(DnsFault::NxDomain)),
        ];
        for (key, ops, dns) in pinned {
            assert_eq!(
                plan.session_faults(key),
                SessionFaults { ops, dns },
                "{key}"
            );
        }
    }

    #[test]
    fn sampler_draws_what_the_plan_draws() {
        for pm in [0, 20, 1000] {
            let plan = FaultPlan::uniform(0x5A3D, pm);
            let sampler = plan.sampler();
            assert_eq!(sampler.is_none(), plan.is_none());
            for i in 0..10_000 {
                let key = format!("gw/dev/host/{i}/try{}", i % 6);
                assert_eq!(
                    sampler.session_faults(&key),
                    plan.session_faults(&key),
                    "{pm} pm, {key}"
                );
            }
        }
    }

    /// A prefix absorbed once draws what the joined key draws, over
    /// gateway-shaped keys split where the gateway splits them (after
    /// `gw/{device}/{endpoint}/`), at empty prefixes and rests, and at
    /// every split point of a few keys.
    #[test]
    fn prefixed_draws_match_the_joined_key() {
        let endpoints = [
            ("Zmodo Doorbell", "api.zmodo.example"),
            ("Amazon Echo Dot", "device-metrics-us.amazon.example"),
            ("Yi Camera", "a"),
        ];
        for pm in [0, 20, 1000] {
            let sampler = FaultPlan::uniform(0x5A3D, pm).sampler();
            let mut drawn = 0;
            for (device, endpoint) in endpoints {
                let prefix = format!("gw/{device}/{endpoint}/");
                let absorbed = sampler.key_prefix(&prefix);
                for seq in 0..1_000u64 {
                    let rest = format!("{seq}/try{}", seq % 6);
                    let want = sampler.session_faults(&format!("{prefix}{rest}"));
                    assert_eq!(
                        absorbed.session_faults(&rest),
                        want,
                        "{pm} pm, {prefix}{rest}"
                    );
                    drawn += !want.is_clean() as u32;
                }
                let key = format!("{prefix}17/try3");
                for split in 0..=key.len() {
                    let (head, rest) = key.split_at(split);
                    assert_eq!(
                        sampler.key_prefix(head).session_faults(rest),
                        sampler.session_faults(&key),
                        "{pm} pm, {key:?} split at {split}"
                    );
                }
            }
            // The keys exercise real draws, not only clean ones.
            assert_eq!(drawn > 0, pm > 0, "{pm} pm");
        }
    }

    #[test]
    fn none_plan_is_always_clean() {
        let plan = FaultPlan::none();
        for i in 0..50 {
            assert!(plan.session_faults(&format!("k{i}")).is_clean());
        }
    }

    #[test]
    fn rates_scale_fault_frequency() {
        let heavy = FaultPlan::uniform(1, 800);
        let light = FaultPlan::uniform(1, 10);
        let count = |p: &FaultPlan| {
            (0..200)
                .filter(|i| !p.session_faults(&format!("s{i}")).is_clean())
                .count()
        };
        assert!(count(&heavy) > count(&light));
        assert!(count(&light) < 30);
    }

    /// One [`LinkConditioner::transfer_into`] call, returning the
    /// delivered bytes.
    fn transfer(c: &mut LinkConditioner, dir: Direction, data: &[u8], round: usize) -> Vec<u8> {
        let mut out = Vec::new();
        c.transfer_into(dir, data, round, &mut out);
        out
    }

    #[test]
    fn reset_cuts_at_offset() {
        let mut c = LinkConditioner::new(SessionFaults {
            ops: vec![FaultOp::Reset { offset: 5 }],
            dns: None,
        });
        c.begin_round(0);
        let out = transfer(&mut c, Direction::C2s, b"0123456789", 0);
        assert_eq!(out, b"01234");
        assert!(c.is_cut());
        assert!(c.tainted());
        // Nothing flows after the cut, either direction.
        assert!(transfer(&mut c, Direction::S2c, b"xyz", 1).is_empty());
        assert_eq!(c.failure_cause(false), Some(FailureCause::Reset));
    }

    #[test]
    fn garble_flips_exactly_one_byte() {
        let mut c = LinkConditioner::new(SessionFaults {
            ops: vec![FaultOp::Garble { offset: 2 }],
            dns: None,
        });
        let out = transfer(&mut c, Direction::C2s, b"aaaa", 0);
        assert_eq!(out, vec![b'a', b'a', b'a' ^ 0x5A, b'a']);
        // Later traffic is untouched.
        assert_eq!(transfer(&mut c, Direction::S2c, b"bb", 1), b"bb");
        assert_eq!(c.failure_cause(false), Some(FailureCause::Garbled));
    }

    #[test]
    fn stall_trickles_one_byte_per_round() {
        let mut c = LinkConditioner::new(SessionFaults {
            ops: vec![FaultOp::Stall { after_round: 0 }],
            dns: None,
        });
        c.begin_round(1);
        assert_eq!(transfer(&mut c, Direction::C2s, b"abc", 1), b"a");
        assert!(c.has_backlog());
        c.begin_round(2);
        assert_eq!(transfer(&mut c, Direction::C2s, b"", 2), b"b");
        assert_eq!(transfer(&mut c, Direction::S2c, b"zz", 2), b"z");
        assert_eq!(c.failure_cause(true), Some(FailureCause::Wedged));
    }

    #[test]
    fn power_cycle_cuts_at_round_boundary() {
        let mut c = LinkConditioner::new(SessionFaults {
            ops: vec![FaultOp::PowerCycle { at_round: 2 }],
            dns: None,
        });
        c.begin_round(0);
        assert_eq!(transfer(&mut c, Direction::C2s, b"hello", 0), b"hello");
        c.begin_round(2);
        assert!(transfer(&mut c, Direction::C2s, b"more", 2).is_empty());
        assert_eq!(c.injected().len(), 1);
        assert!(matches!(c.injected()[0], InjectedFault::PowerCycle { round: 2 }));
        // A power cycle presents as a reset on the wire.
        assert_eq!(c.failure_cause(false), Some(FailureCause::Reset));
    }

    #[test]
    fn passthrough_changes_nothing() {
        let mut c = LinkConditioner::passthrough();
        for round in 0..5 {
            c.begin_round(round);
            assert_eq!(transfer(&mut c, Direction::C2s, b"data", round), b"data");
        }
        assert!(!c.tainted());
        assert_eq!(c.failure_cause(false), None);
        // Exhausting the round budget is a wedge even with no faults.
        assert_eq!(c.failure_cause(true), Some(FailureCause::Wedged));
    }
}

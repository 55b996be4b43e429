//! Accept-loop and session-mux shim for the gateway runtime.
//!
//! A resident gateway multiplexes orders of magnitude more sessions
//! than the batch experiments drive, so re-running a full TLS
//! handshake per admitted session would dominate the soak. The shim
//! splits the work the way a real gateway does:
//!
//! * [`SessionFlow::record`] drives one *clean* TLS session to
//!   quiescence once, capturing the per-round byte chunks each
//!   endpoint emitted — the session's wire "tape";
//! * [`replay_flow_with`] pushes a recorded tape through a fresh
//!   [`LinkConditioner`] under that session's own fault draw and a
//!   per-session round **deadline**, classifying the outcome without
//!   touching the TLS state machines again;
//!   [`replay_flow_chained`] does the same while feeding every
//!   delivered chunk to a middleware [`Chain`]. Both wrap one replay
//!   loop;
//! * [`AcceptLoop`] turns a seed into the deterministic arrival
//!   schedule (how many sessions knock per tick, and which recorded
//!   flow each one replays), a pure function of `(seed, tick)` so the
//!   schedule is identical at any worker count.
//!
//! Everything here runs on virtual time (ticks and pump rounds); no
//! wall clock is ever consulted.

use crate::fault::{Direction, FailureCause, InjectedFault, LinkConditioner, SessionFaults};
use iotls_crypto::drbg::Drbg;
use iotls_tls::client::ClientConnection;
use iotls_tls::middleware::{Chain, Flow};
use iotls_tls::record::SessionBuf;
use iotls_tls::server::ServerConnection;

/// Round budget for *recording* a flow — matches the session driver's
/// wedge budget, far beyond any legitimate handshake.
const RECORD_MAX_ROUNDS: usize = 64;

/// One pump round of a recorded session: the bytes each endpoint put
/// on the wire that round.
#[derive(Debug, Clone, Default)]
pub struct FlowRound {
    /// Client → server bytes emitted this round.
    pub c2s: Vec<u8>,
    /// Server → client bytes emitted this round.
    pub s2c: Vec<u8>,
}

/// The wire tape of one driven TLS session: per-round byte chunks
/// plus whether the endpoints established. Recorded once per
/// `(device, destination)` pair and replayed by every multiplexed
/// session that targets the same endpoint.
#[derive(Debug, Clone)]
pub struct SessionFlow {
    /// Per-round chunks, in pump order.
    pub rounds: Vec<FlowRound>,
    /// Whether both endpoints established on the clean link.
    pub established: bool,
    /// Total bytes across both directions (cached for replay).
    total_bytes: u64,
}

impl SessionFlow {
    /// Drives `client` against `server` on a clean link and records
    /// the per-round byte chunks. The client must not have been
    /// started. Payloads are queued once the respective endpoint
    /// establishes, mirroring the lockstep driver.
    pub fn record(
        mut client: ClientConnection,
        mut server: ServerConnection,
        client_payload: Option<&[u8]>,
        server_payload: Option<&[u8]>,
    ) -> SessionFlow {
        let mut rounds = Vec::new();
        let mut client_sent = false;
        let mut server_sent = false;
        let mut c2s = SessionBuf::new();
        let mut s2c = SessionBuf::new();
        client.start_into(&mut c2s);

        for _ in 0..RECORD_MAX_ROUNDS {
            let mut round = FlowRound::default();
            let mut moved = false;

            if !c2s.is_empty() {
                server.process(c2s.as_slice(), &mut s2c);
                round.c2s = c2s.take_vec();
                moved = true;
            }
            let _ = server.take_application_data();
            if server.is_established() && !server_sent {
                if let Some(p) = server_payload {
                    server.send_application_data_into(p, &mut s2c);
                    moved = true;
                }
                server_sent = true;
            }

            if !s2c.is_empty() {
                client.process(s2c.as_slice(), &mut c2s);
                round.s2c = s2c.take_vec();
                moved = true;
            }
            let _ = client.take_application_data();
            if client.is_established() && !client_sent {
                if let Some(p) = client_payload {
                    client.send_application_data_into(p, &mut c2s);
                    moved = true;
                }
                client_sent = true;
            }

            if !moved {
                break;
            }
            rounds.push(round);
        }

        let total_bytes = rounds
            .iter()
            .map(|r| (r.c2s.len() + r.s2c.len()) as u64)
            .sum();
        SessionFlow {
            rounds,
            established: client.is_established() && server.is_established(),
            total_bytes,
        }
    }

    /// Total bytes on the tape, both directions.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Rounds the clean session needed to reach quiescence.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True when the tape carries no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

/// Outcome of replaying one tape through a conditioner.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Every byte of the tape was delivered within the deadline.
    pub completed: bool,
    /// The session counts as established: the tape established on the
    /// clean link, the replay completed, and no fault fired that a
    /// real session could not have survived.
    pub established: bool,
    /// Network-level failure, by conditioner severity; a replay that
    /// ran out of deadline with no cut reports [`FailureCause::Wedged`]
    /// (callers reclassify this as a deadline overrun).
    pub failure: Option<FailureCause>,
    /// Pump rounds consumed (virtual time).
    pub rounds_used: usize,
    /// Bytes the conditioner actually delivered.
    pub bytes_delivered: u64,
    /// Faults that fired, in firing order.
    pub injected: Vec<InjectedFault>,
}

/// Reusable scratch for the replay loop: one post-conditioner
/// delivery buffer, warm across every replay a worker performs.
#[derive(Debug, Default)]
pub struct ReplayScratch {
    wire: Vec<u8>,
}

impl ReplayScratch {
    /// A fresh (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Replays `flow` through a fresh [`LinkConditioner`] built from
/// `faults`, with a hard per-session round `deadline` in place of the
/// driver's global wedge budget — the gateway's hot path. A clean
/// replay (no faults drawn) performs zero heap allocations once the
/// caller-owned scratch is warm.
///
/// A stall that would otherwise burn the driver's full 64-round budget
/// runs out at `deadline` rounds and is reported as
/// [`FailureCause::Wedged`] with `completed == false` — the gateway
/// reclassifies that as a deadline overrun. A garbled byte fails the
/// session even when all bytes deliver (a corrupted handshake record
/// breaks the transcript MAC); a cut fails it immediately.
pub fn replay_flow_with(
    flow: &SessionFlow,
    faults: SessionFaults,
    deadline: usize,
    scratch: &mut ReplayScratch,
) -> ReplayOutcome {
    replay(flow, faults, deadline, scratch, None)
}

/// [`replay_flow_with`] with a middleware [`Chain`] riding the replay:
/// every post-conditioner delivery is fed through [`Chain::feed`], so
/// hooks see exactly the bytes the link delivered. A terminal verdict
/// (`Intercept` / `Abort`) stops the replay at the end of its round;
/// the signal stays on the chain ([`Chain::terminal`]) and the
/// per-session stats are left for the caller to
/// [`Chain::take_stats`]. With an observe-only chain the replay stays
/// allocation-free once chain scratch is warm.
pub fn replay_flow_chained(
    flow: &SessionFlow,
    faults: SessionFaults,
    deadline: usize,
    scratch: &mut ReplayScratch,
    chain: &mut Chain,
) -> ReplayOutcome {
    replay(flow, faults, deadline, scratch, Some(chain))
}

/// The one replay loop behind both wrappers. Inlined into each, so the
/// chainless wrapper compiles to a loop with no chain checks at all.
#[inline(always)]
fn replay(
    flow: &SessionFlow,
    faults: SessionFaults,
    deadline: usize,
    scratch: &mut ReplayScratch,
    mut chain: Option<&mut Chain>,
) -> ReplayOutcome {
    if let Some(ch) = chain.as_deref_mut() {
        ch.begin_session();
    }
    let mut cond = LinkConditioner::new(faults);
    let mut delivered = 0u64;
    let mut rounds_used = 0;
    let mut completed = false;
    let mut stopped_by_chain = false;
    let empty: &[u8] = &[];

    // ALLOC-FREE: begin (replay loop — tier1.sh greps this region for
    // reintroduced per-session allocations; the wire buffer is the
    // caller's scratch).
    for round in 0..deadline {
        rounds_used = round + 1;
        cond.begin_round(round);
        let (c2s, s2c) = match flow.rounds.get(round) {
            Some(r) => (r.c2s.as_slice(), r.s2c.as_slice()),
            None => (empty, empty),
        };
        cond.transfer_into(Direction::C2s, c2s, round, &mut scratch.wire);
        delivered += scratch.wire.len() as u64;
        if let Some(ch) = chain.as_deref_mut() {
            ch.feed(Flow::ClientToServer, &scratch.wire);
        }
        cond.transfer_into(Direction::S2c, s2c, round, &mut scratch.wire);
        delivered += scratch.wire.len() as u64;
        if let Some(ch) = chain.as_deref_mut() {
            ch.feed(Flow::ServerToClient, &scratch.wire);
            if ch.terminal().is_some() {
                stopped_by_chain = true;
                break;
            }
        }
        if cond.is_cut() {
            break;
        }
        if round + 1 >= flow.len() && delivered >= flow.total_bytes() && !cond.has_backlog() {
            completed = true;
            break;
        }
    }
    // ALLOC-FREE: end (replay loop)

    if let Some(ch) = chain {
        // A no-op after a terminal verdict already stopped the session.
        ch.close();
    }
    // Completed replays can still have failed as TLS sessions (a
    // garble passed every byte through, corrupted); incomplete ones
    // without a cut ran out of deadline. A chain-terminated session is
    // neither wedged nor failed at the transport layer; the caller
    // reads the verdict off the chain.
    let failure = cond.failure_cause(!completed && !cond.is_cut() && !stopped_by_chain);
    let established = flow.established && completed && failure.is_none();
    ReplayOutcome {
        completed,
        established,
        failure,
        rounds_used,
        bytes_delivered: delivered,
        injected: cond.injected().to_vec(),
    }
}

/// Deterministic arrival schedule for the gateway's accept loop.
///
/// Arrivals are a pure function of `(seed, tick)`: the same seed
/// yields the same knock count and the same flow choice per knock at
/// any worker count, in any tick order.
#[derive(Debug, Clone, Copy)]
pub struct AcceptLoop {
    seed: u64,
    load: u32,
    spread: u32,
}

impl AcceptLoop {
    /// An accept loop averaging `load` arrivals per tick, jittered
    /// uniformly within `±spread`.
    pub fn new(seed: u64, load: u32, spread: u32) -> AcceptLoop {
        AcceptLoop { seed, load, spread }
    }

    /// The arrivals for `tick`: one entry per knocking session, each
    /// an index into a roster of `n_flows` recorded flows.
    pub fn arrivals(&self, tick: u64, n_flows: usize) -> Vec<usize> {
        if n_flows == 0 {
            return Vec::new();
        }
        let mut rng = Drbg::from_seed(self.seed)
            .fork("accept-loop")
            .fork(&format!("tick/{tick}"));
        let lo = self.load.saturating_sub(self.spread) as u64;
        let hi = (self.load + self.spread) as u64;
        let count = rng.range(lo, hi) as usize;
        (0..count).map(|_| rng.below(n_flows as u64) as usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultOp;

    /// A synthetic tape; replay logic only cares about byte chunks.
    fn tape(established: bool) -> SessionFlow {
        let rounds = vec![
            FlowRound { c2s: vec![1; 300], s2c: Vec::new() },
            FlowRound { c2s: Vec::new(), s2c: vec![2; 900] },
            FlowRound { c2s: vec![3; 100], s2c: vec![4; 60] },
        ];
        let total_bytes = rounds
            .iter()
            .map(|r| (r.c2s.len() + r.s2c.len()) as u64)
            .sum();
        SessionFlow { rounds, established, total_bytes }
    }

    #[test]
    fn clean_replay_completes_and_establishes() {
        let flow = tape(true);
        let out = replay_flow_with(&flow, SessionFaults::none(), 12, &mut ReplayScratch::new());
        assert!(out.completed);
        assert!(out.established);
        assert_eq!(out.failure, None);
        assert_eq!(out.bytes_delivered, flow.total_bytes());
        assert_eq!(out.rounds_used, flow.len());
        assert!(out.injected.is_empty());
    }

    #[test]
    fn declined_tape_never_establishes() {
        let out = replay_flow_with(
            &tape(false),
            SessionFaults::none(),
            12,
            &mut ReplayScratch::new(),
        );
        assert!(out.completed);
        assert!(!out.established, "endpoint declined on the clean link");
        assert_eq!(out.failure, None);
    }

    #[test]
    fn reset_fails_the_replay() {
        let faults = SessionFaults {
            ops: vec![FaultOp::Reset { offset: 128 }],
            dns: None,
        };
        let out = replay_flow_with(&tape(true), faults, 12, &mut ReplayScratch::new());
        assert!(!out.completed);
        assert!(!out.established);
        assert_eq!(out.failure, Some(FailureCause::Reset));
        assert_eq!(out.bytes_delivered, 128);
    }

    #[test]
    fn garble_fails_even_a_complete_replay() {
        let faults = SessionFaults {
            ops: vec![FaultOp::Garble { offset: 10 }],
            dns: None,
        };
        let out = replay_flow_with(&tape(true), faults, 12, &mut ReplayScratch::new());
        assert!(out.completed, "all bytes still flow");
        assert!(!out.established);
        assert_eq!(out.failure, Some(FailureCause::Garbled));
    }

    #[test]
    fn stall_overruns_the_deadline_as_wedged() {
        let faults = SessionFaults {
            ops: vec![FaultOp::Stall { after_round: 0 }],
            dns: None,
        };
        let out = replay_flow_with(&tape(true), faults, 12, &mut ReplayScratch::new());
        assert!(!out.completed);
        assert_eq!(out.failure, Some(FailureCause::Wedged));
        assert_eq!(out.rounds_used, 12, "burns exactly the deadline, not 64");
        assert!(out.bytes_delivered < tape(true).total_bytes());
    }

    #[test]
    fn replay_is_deterministic() {
        let faults = || SessionFaults {
            ops: vec![FaultOp::Garble { offset: 500 }, FaultOp::Stall { after_round: 1 }],
            dns: None,
        };
        let a = replay_flow_with(&tape(true), faults(), 8, &mut ReplayScratch::new());
        let b = replay_flow_with(&tape(true), faults(), 8, &mut ReplayScratch::new());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.failure, b.failure);
        assert_eq!(a.bytes_delivered, b.bytes_delivered);
        assert_eq!(a.injected, b.injected);
    }

    #[test]
    fn accept_loop_is_a_pure_function_of_seed_and_tick() {
        let acc = AcceptLoop::new(0x6A7E, 100, 25);
        let a = acc.arrivals(7, 40);
        let b = acc.arrivals(7, 40);
        assert_eq!(a, b);
        // Ticks draw independent schedules.
        assert_ne!(acc.arrivals(8, 40), a);
        // Counts stay inside the jitter band and indices in range.
        for tick in 0..50 {
            let arr = acc.arrivals(tick, 40);
            assert!((75..=125).contains(&arr.len()), "tick {tick}: {}", arr.len());
            assert!(arr.iter().all(|&i| i < 40));
        }
    }

    #[test]
    fn accept_loop_handles_empty_roster_and_zero_spread() {
        assert!(AcceptLoop::new(1, 10, 3).arrivals(0, 0).is_empty());
        let acc = AcceptLoop::new(2, 5, 0);
        assert_eq!(acc.arrivals(3, 4).len(), 5);
    }
}

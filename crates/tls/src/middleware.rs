//! Protocol middleware: staged observe / rewrite / intercept hooks on
//! the TLS session path.
//!
//! A [`Chain`] of [`Middleware`]s watches one session's records from
//! where a gateway tap sits: downstream of the link, upstream of both
//! endpoints. [`Chain::feed`] takes each flow direction's transport
//! bytes as the link delivered them, deframes them with a chain-owned
//! [`Deframer`] per [`Flow`] direction, and dispatches every complete
//! record. The session driver and gateway tape replay (`iotls-simnet`)
//! both feed their chain this way, so a middleware is written once and
//! runs on every session path.
//!
//! Hooks fire per record (and per handshake message for the staged
//! hooks) with *borrowed, mutable* payload slices — no copy beyond
//! the deframer, and after warm-up no per-session allocation — and
//! return a [`Verdict`]:
//!
//! * [`Verdict::Continue`] — pure observation, the default;
//! * [`Verdict::Rewrite`] — the hook mutated the chain's copy of the
//!   payload in place; later hooks see the rewritten bytes, the
//!   endpoints still consume what the link delivered;
//! * [`Verdict::Intercept`] — terminate the session from the chain
//!   (policy stop: the session is *taken over*, not failed);
//! * [`Verdict::Abort`] — terminate the session as a failure.
//!
//! Terminal verdicts are sticky per session: once a hook intercepts
//! or aborts, [`Chain::terminal`] reports it, further dispatch
//! short-circuits until [`Chain::begin_session`], and the driving
//! loop stops pumping.

use std::any::Any;

use crate::handshake::{msg_type, next_raw_message};
use crate::record::{ContentType, Deframer};

/// Direction of the record stream a hook is observing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Records sent by the client toward the server.
    ClientToServer,
    /// Records sent by the server toward the client.
    ServerToClient,
}

impl Flow {
    /// Stable lowercase label (counter names, diagnostics).
    pub fn label(self) -> &'static str {
        match self {
            Flow::ClientToServer => "c2s",
            Flow::ServerToClient => "s2c",
        }
    }
}

/// Number of hook stages (the length of [`Stage::ALL`]).
pub const STAGE_COUNT: usize = 5;

/// Hook stages, in dispatch order within a session.
///
/// `Record` fires first for every record; the handshake-message stages
/// fire afterwards for each message inside a handshake record; `Close`
/// fires exactly once when the session ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Every record, any content type (fires before the staged hooks).
    Record,
    /// A CLIENT_HELLO handshake body.
    ClientHello,
    /// A SERVER_HELLO handshake body.
    ServerHello,
    /// A CERTIFICATE handshake body.
    Certificate,
    /// End of session.
    Close,
}

impl Stage {
    /// All stages, in dispatch order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Record,
        Stage::ClientHello,
        Stage::ServerHello,
        Stage::Certificate,
        Stage::Close,
    ];

    /// Dense index into [`ChainStats::invocations`].
    pub fn index(self) -> usize {
        match self {
            Stage::Record => 0,
            Stage::ClientHello => 1,
            Stage::ServerHello => 2,
            Stage::Certificate => 3,
            Stage::Close => 4,
        }
    }

    /// Stable lowercase label (counter names, diagnostics).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Record => "record",
            Stage::ClientHello => "client_hello",
            Stage::ServerHello => "server_hello",
            Stage::Certificate => "certificate",
            Stage::Close => "close",
        }
    }
}

/// What a hook decided about the record or message it just saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Observed only; dispatch continues.
    Continue,
    /// The hook mutated the payload in place; dispatch continues and
    /// later hooks in the chain see the rewritten bytes.
    Rewrite,
    /// Terminate the session under chain control (not a failure).
    Intercept,
    /// Terminate the session as a failure.
    Abort,
}

/// A terminal chain outcome for the session (sticky until the next
/// [`Chain::begin_session`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Some hook returned [`Verdict::Intercept`].
    Intercept,
    /// Some hook returned [`Verdict::Abort`].
    Abort,
}

/// Per-session chain accounting: hook invocations per stage plus
/// non-`Continue` verdict tallies. `Copy`, so the driving layer can
/// take it per session and merge in deterministic dispatch order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Hook invocations per stage, indexed by [`Stage::index`].
    pub invocations: [u64; STAGE_COUNT],
    /// Hooks that returned [`Verdict::Rewrite`].
    pub rewrites: u64,
    /// Hooks that returned [`Verdict::Intercept`].
    pub intercepts: u64,
    /// Hooks that returned [`Verdict::Abort`].
    pub aborts: u64,
}

impl ChainStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &ChainStats) {
        for (a, b) in self.invocations.iter_mut().zip(other.invocations) {
            *a += b;
        }
        self.rewrites += other.rewrites;
        self.intercepts += other.intercepts;
        self.aborts += other.aborts;
    }

    /// Total hook invocations across all stages.
    pub fn total_invocations(&self) -> u64 {
        self.invocations.iter().sum()
    }

    fn tally(&mut self, stage: Stage, verdict: Verdict) {
        self.invocations[stage.index()] += 1;
        match verdict {
            Verdict::Continue => {}
            Verdict::Rewrite => self.rewrites += 1,
            Verdict::Intercept => self.intercepts += 1,
            Verdict::Abort => self.aborts += 1,
        }
    }
}

/// A protocol hook on the session path.
///
/// All hooks default to pure observation ([`Verdict::Continue`]), so a
/// middleware implements only the stages it cares about. Payload
/// slices are borrowed from the caller's scratch: hooks must not store
/// them, and a mutating hook signals the mutation with
/// [`Verdict::Rewrite`].
///
/// Implementations must be `'static` (for [`Middleware::as_any_mut`]
/// state recovery) and `Send` (chains are built per worker thread).
pub trait Middleware: Send {
    /// Fires for every record, before the per-message staged hooks.
    fn on_record(&mut self, flow: Flow, content_type: ContentType, payload: &mut [u8]) -> Verdict {
        let _ = (flow, content_type, payload);
        Verdict::Continue
    }

    /// Fires for each CLIENT_HELLO handshake body.
    fn on_client_hello(&mut self, flow: Flow, body: &mut [u8]) -> Verdict {
        let _ = (flow, body);
        Verdict::Continue
    }

    /// Fires for each SERVER_HELLO handshake body.
    fn on_server_hello(&mut self, flow: Flow, body: &mut [u8]) -> Verdict {
        let _ = (flow, body);
        Verdict::Continue
    }

    /// Fires for each CERTIFICATE handshake body.
    fn on_certificate(&mut self, flow: Flow, body: &mut [u8]) -> Verdict {
        let _ = (flow, body);
        Verdict::Continue
    }

    /// Fires once when the session ends (natural end of replay or
    /// drive; not fired after a terminal verdict already stopped the
    /// session).
    fn on_close(&mut self) {}

    /// Downcast access so callers can recover middleware state after a
    /// run (`fn as_any_mut(&mut self) -> &mut dyn Any { self }`).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// An ordered chain of middlewares plus the per-session scratch that
/// keeps dispatch allocation-free: one chain-owned deframer per flow
/// direction and `Copy` stats. Reused across sessions via
/// [`Chain::begin_session`].
#[derive(Default)]
pub struct Chain {
    mws: Vec<Box<dyn Middleware>>,
    stats: ChainStats,
    terminal: Option<Signal>,
    closed: bool,
    c2s: Deframer,
    s2c: Deframer,
}

impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chain")
            .field("middlewares", &self.mws.len())
            .field("stats", &self.stats)
            .field("terminal", &self.terminal)
            .finish()
    }
}

impl Chain {
    /// An empty chain (dispatch is a no-op until middlewares are
    /// pushed).
    pub fn new() -> Chain {
        Chain::default()
    }

    /// Appends a middleware; hooks fire in push order.
    pub fn push(&mut self, mw: Box<dyn Middleware>) {
        self.mws.push(mw);
    }

    /// Builder form of [`Chain::push`].
    pub fn with(mut self, mw: Box<dyn Middleware>) -> Chain {
        self.push(mw);
        self
    }

    /// Number of middlewares in the chain.
    pub fn len(&self) -> usize {
        self.mws.len()
    }

    /// True when no middlewares are attached.
    pub fn is_empty(&self) -> bool {
        self.mws.is_empty()
    }

    /// Downcast access to the middleware at `idx`, for recovering
    /// collected state after a run.
    pub fn middleware_mut<T: 'static>(&mut self, idx: usize) -> Option<&mut T> {
        self.mws.get_mut(idx)?.as_any_mut().downcast_mut::<T>()
    }

    /// Resets per-session state (deframers, terminal signal, stats),
    /// keeping middlewares, their accumulated state, and all buffer
    /// allocations.
    pub fn begin_session(&mut self) {
        self.stats = ChainStats::default();
        self.terminal = None;
        self.closed = false;
        self.c2s.clear();
        self.s2c.clear();
    }

    /// Takes (and resets) the per-session stats.
    pub fn take_stats(&mut self) -> ChainStats {
        std::mem::take(&mut self.stats)
    }

    /// The per-session stats accumulated so far.
    pub fn stats(&self) -> &ChainStats {
        &self.stats
    }

    /// The sticky terminal signal, if any hook intercepted or aborted
    /// this session.
    pub fn terminal(&self) -> Option<Signal> {
        self.terminal
    }

    // ALLOC-FREE: begin (middleware hook dispatch — tier1.sh greps
    // this region for reintroduced allocating calls; the counting
    // allocator tests in simnet prove it at runtime with an
    // observe-only chain).

    /// Feeds raw transport bytes for one flow direction through the
    /// chain-owned deframer and dispatches each complete record: the
    /// `Record` hook for every middleware, then the staged
    /// handshake-message hooks. Returns the terminal signal if any
    /// hook intercepted or aborted (dispatch stops at the first
    /// terminal verdict). A garbled record header drops the bytes
    /// buffered for that direction, so observation resumes with the
    /// next delivery. An empty chain skips deframing entirely.
    pub fn feed(&mut self, flow: Flow, data: &[u8]) -> Option<Signal> {
        if self.mws.is_empty() {
            return None;
        }
        if self.terminal.is_some() {
            return self.terminal;
        }
        let deframer = match flow {
            Flow::ClientToServer => &mut self.c2s,
            Flow::ServerToClient => &mut self.s2c,
        };
        deframer.push(data);
        loop {
            match deframer.pop_ref_mut() {
                Ok(Some((content_type, payload))) => {
                    let signal = Self::dispatch_parts(
                        &mut self.mws,
                        &mut self.stats,
                        &mut self.terminal,
                        flow,
                        content_type,
                        payload,
                    );
                    if signal.is_some() {
                        return signal;
                    }
                }
                Ok(None) => return None,
                Err(_) => {
                    deframer.clear();
                    return None;
                }
            }
        }
    }

    /// Fires the `Close` hook once at end of session (idempotent; a
    /// no-op after a terminal verdict already stopped the session).
    pub fn close(&mut self) {
        if self.closed || self.terminal.is_some() {
            return;
        }
        self.closed = true;
        for mw in &mut self.mws {
            self.stats.invocations[Stage::Close.index()] += 1;
            mw.on_close();
        }
    }

    /// The dispatch of one record, written over disjoint field borrows
    /// so [`Chain::feed`] can hold a deframer-borrowed payload while
    /// the hooks and stats are driven.
    fn dispatch_parts(
        mws: &mut [Box<dyn Middleware>],
        stats: &mut ChainStats,
        terminal: &mut Option<Signal>,
        flow: Flow,
        content_type: ContentType,
        payload: &mut [u8],
    ) -> Option<Signal> {
        for mw in mws.iter_mut() {
            let verdict = mw.on_record(flow, content_type, payload);
            stats.tally(Stage::Record, verdict);
            match verdict {
                Verdict::Continue | Verdict::Rewrite => {}
                Verdict::Intercept => {
                    *terminal = Some(Signal::Intercept);
                    return *terminal;
                }
                Verdict::Abort => {
                    *terminal = Some(Signal::Abort);
                    return *terminal;
                }
            }
        }
        if content_type != ContentType::Handshake {
            return None;
        }
        // Walk the handshake messages inside the record, mirroring the
        // tap's skim: stop quietly at the first unparsable header
        // (encrypted FINISHED payloads land here).
        let mut off = 0;
        while off < payload.len() {
            let (typ, body_len, used) = match next_raw_message(&payload[off..]) {
                Ok((typ, body, used)) => (typ, body.len(), used),
                Err(_) => break,
            };
            let stage = match typ {
                msg_type::CLIENT_HELLO => Some(Stage::ClientHello),
                msg_type::SERVER_HELLO => Some(Stage::ServerHello),
                msg_type::CERTIFICATE => Some(Stage::Certificate),
                _ => None,
            };
            if let Some(stage) = stage {
                let body_start = off + used - body_len;
                let body = &mut payload[body_start..body_start + body_len];
                for mw in mws.iter_mut() {
                    let verdict = match stage {
                        Stage::ClientHello => mw.on_client_hello(flow, body),
                        Stage::ServerHello => mw.on_server_hello(flow, body),
                        Stage::Certificate => mw.on_certificate(flow, body),
                        Stage::Record | Stage::Close => unreachable!("record/close staged here"),
                    };
                    stats.tally(stage, verdict);
                    match verdict {
                        Verdict::Continue | Verdict::Rewrite => {}
                        Verdict::Intercept => {
                            *terminal = Some(Signal::Intercept);
                            return *terminal;
                        }
                        Verdict::Abort => {
                            *terminal = Some(Signal::Abort);
                            return *terminal;
                        }
                    }
                }
            }
            off += used;
        }
        None
    }

    // ALLOC-FREE: end (middleware hook dispatch)
}

/// A trivial observe-only middleware: counts records and payload bytes
/// per flow direction. Allocation-free by construction — the chain
/// member used by the alloc-discipline tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecordCounter {
    /// Records seen client-to-server.
    pub c2s_records: u64,
    /// Records seen server-to-client.
    pub s2c_records: u64,
    /// Payload bytes seen (both directions, excluding record headers).
    pub payload_bytes: u64,
    /// Sessions closed.
    pub closes: u64,
}

impl Middleware for RecordCounter {
    fn on_record(&mut self, flow: Flow, _content_type: ContentType, payload: &mut [u8]) -> Verdict {
        match flow {
            Flow::ClientToServer => self.c2s_records += 1,
            Flow::ServerToClient => self.s2c_records += 1,
        }
        self.payload_bytes += payload.len() as u64;
        Verdict::Continue
    }

    fn on_close(&mut self) {
        self.closes += 1;
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, MAX_FRAGMENT};
    use crate::version::ProtocolVersion;

    fn handshake_record(msg_type: u8, body: &[u8]) -> Vec<u8> {
        let mut payload = vec![msg_type];
        payload.extend_from_slice(&(body.len() as u32).to_be_bytes()[1..]);
        payload.extend_from_slice(body);
        Record::new(ContentType::Handshake, ProtocolVersion::Tls12, payload).encode()
    }

    /// Scripted middleware: returns a fixed verdict at one stage.
    struct Scripted {
        stage: Stage,
        verdict: Verdict,
        fired: u64,
    }

    impl Scripted {
        fn new(stage: Stage, verdict: Verdict) -> Scripted {
            Scripted {
                stage,
                verdict,
                fired: 0,
            }
        }
    }

    impl Middleware for Scripted {
        fn on_record(&mut self, _f: Flow, _ct: ContentType, _p: &mut [u8]) -> Verdict {
            if self.stage == Stage::Record {
                self.fired += 1;
                self.verdict
            } else {
                Verdict::Continue
            }
        }
        fn on_client_hello(&mut self, _f: Flow, _b: &mut [u8]) -> Verdict {
            if self.stage == Stage::ClientHello {
                self.fired += 1;
                self.verdict
            } else {
                Verdict::Continue
            }
        }
        fn on_certificate(&mut self, _f: Flow, _b: &mut [u8]) -> Verdict {
            if self.stage == Stage::Certificate {
                self.fired += 1;
                self.verdict
            } else {
                Verdict::Continue
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn empty_chain_is_a_no_op() {
        let mut chain = Chain::new();
        assert!(chain.is_empty());
        assert_eq!(chain.feed(Flow::ClientToServer, &[0xff; 32]), None);
        assert_eq!(chain.terminal(), None);
        assert_eq!(chain.take_stats(), ChainStats::default());
    }

    #[test]
    fn observe_chain_counts_records_and_stages() {
        let mut chain = Chain::new().with(Box::new(RecordCounter::default()));
        chain.begin_session();
        let rec = handshake_record(msg_type::CLIENT_HELLO, &[0; 40]);
        assert_eq!(chain.feed(Flow::ClientToServer, &rec), None);
        chain.close();
        let stats = chain.take_stats();
        assert_eq!(stats.invocations[Stage::Record.index()], 1);
        assert_eq!(stats.invocations[Stage::ClientHello.index()], 1);
        assert_eq!(stats.invocations[Stage::Close.index()], 1);
        assert_eq!(stats.rewrites + stats.intercepts + stats.aborts, 0);
        let counter = chain.middleware_mut::<RecordCounter>(0).unwrap();
        assert_eq!(counter.c2s_records, 1);
        assert_eq!(counter.payload_bytes, 44);
        assert_eq!(counter.closes, 1);
    }

    #[test]
    fn feed_handles_partial_and_coalesced_delivery() {
        let mut chain = Chain::new().with(Box::new(RecordCounter::default()));
        chain.begin_session();
        let mut bytes = handshake_record(msg_type::SERVER_HELLO, &[1; 10]);
        bytes.extend_from_slice(&handshake_record(msg_type::CERTIFICATE, &[2; 10]));
        let split = bytes.len() - 3;
        chain.feed(Flow::ServerToClient, &bytes[..split]);
        chain.feed(Flow::ServerToClient, &bytes[split..]);
        let counter = chain.middleware_mut::<RecordCounter>(0).unwrap();
        assert_eq!(counter.s2c_records, 2);
    }

    #[test]
    fn intercept_is_sticky_and_stops_dispatch() {
        let mut chain = Chain::new()
            .with(Box::new(Scripted::new(Stage::Certificate, Verdict::Intercept)))
            .with(Box::new(RecordCounter::default()));
        chain.begin_session();
        let rec = handshake_record(msg_type::CERTIFICATE, &[3; 8]);
        assert_eq!(chain.feed(Flow::ServerToClient, &rec), Some(Signal::Intercept));
        assert_eq!(chain.terminal(), Some(Signal::Intercept));
        // Further feeds short-circuit without dispatching.
        let seen = chain.middleware_mut::<RecordCounter>(1).unwrap().s2c_records;
        chain.feed(Flow::ServerToClient, &handshake_record(msg_type::CERTIFICATE, &[4; 8]));
        assert_eq!(chain.middleware_mut::<RecordCounter>(1).unwrap().s2c_records, seen);
        // Close after a terminal verdict is a no-op.
        chain.close();
        assert_eq!(chain.take_stats().invocations[Stage::Close.index()], 0);
        // A new session clears the signal.
        chain.begin_session();
        assert_eq!(chain.terminal(), None);
    }

    #[test]
    fn abort_surfaces_and_tallies() {
        let mut chain = Chain::new().with(Box::new(Scripted::new(Stage::Record, Verdict::Abort)));
        chain.begin_session();
        let rec = handshake_record(msg_type::CLIENT_HELLO, &[0; 4]);
        assert_eq!(chain.feed(Flow::ClientToServer, &rec), Some(Signal::Abort));
        let stats = chain.take_stats();
        assert_eq!(stats.aborts, 1);
        assert_eq!(stats.invocations[Stage::ClientHello.index()], 0);
    }

    #[test]
    fn rewrite_mutates_payload_in_place() {
        struct Zeroer;
        impl Middleware for Zeroer {
            fn on_record(&mut self, _f: Flow, _ct: ContentType, payload: &mut [u8]) -> Verdict {
                payload.fill(0);
                Verdict::Rewrite
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        /// Remembers whether every payload byte it saw was zero.
        #[derive(Default)]
        struct AllZero(Option<bool>);
        impl Middleware for AllZero {
            fn on_record(&mut self, _f: Flow, _ct: ContentType, payload: &mut [u8]) -> Verdict {
                self.0 = Some(payload.iter().all(|&b| b == 0));
                Verdict::Continue
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut chain = Chain::new()
            .with(Box::new(Zeroer))
            .with(Box::new(AllZero::default()));
        chain.begin_session();
        let rec = Record::new(
            ContentType::ApplicationData,
            ProtocolVersion::Tls12,
            vec![0xaa; 16],
        )
        .encode();
        assert_eq!(chain.feed(Flow::ClientToServer, &rec), None);
        assert_eq!(chain.middleware_mut::<AllZero>(1).unwrap().0, Some(true));
        assert_eq!(chain.take_stats().rewrites, 1);
    }

    #[test]
    fn garbled_header_poisons_direction_quietly() {
        let mut chain = Chain::new().with(Box::new(RecordCounter::default()));
        chain.begin_session();
        chain.feed(Flow::ClientToServer, &[99, 9, 9, 0, 0]);
        assert_eq!(chain.terminal(), None);
        // Recovery on the next push: the poisoned buffer was dropped.
        let rec = handshake_record(msg_type::CLIENT_HELLO, &[0; 4]);
        chain.feed(Flow::ClientToServer, &rec);
        assert_eq!(chain.middleware_mut::<RecordCounter>(0).unwrap().c2s_records, 1);
    }

    #[test]
    fn oversized_handshake_walk_stops_at_garbage() {
        // An encrypted FINISHED looks like garbage to the walker: the
        // staged hooks must simply not fire, with no error.
        let mut chain = Chain::new().with(Box::new(RecordCounter::default()));
        chain.begin_session();
        let mut payload = vec![msg_type::FINISHED];
        payload.extend_from_slice(&[0xff, 0xff, 0xff]); // absurd u24 length
        payload.extend_from_slice(&[0xcc; 12]);
        let rec = Record::new(ContentType::Handshake, ProtocolVersion::Tls12, payload).encode();
        assert_eq!(chain.feed(Flow::ClientToServer, &rec), None);
        let stats = chain.take_stats();
        assert_eq!(stats.invocations[Stage::Record.index()], 1);
        assert_eq!(stats.invocations[Stage::ClientHello.index()], 0);
    }

    #[test]
    fn stats_merge_is_componentwise() {
        let mut a = ChainStats::default();
        a.invocations[0] = 2;
        a.rewrites = 1;
        let mut b = ChainStats::default();
        b.invocations[0] = 3;
        b.aborts = 4;
        a.merge(&b);
        assert_eq!(a.invocations[0], 5);
        assert_eq!(a.rewrites, 1);
        assert_eq!(a.aborts, 4);
        assert_eq!(a.total_invocations(), 5);
    }

    #[test]
    fn stage_labels_and_indices_are_dense() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::ALL.len(), STAGE_COUNT);
        assert_eq!(Flow::ClientToServer.label(), "c2s");
        assert_eq!(Stage::ClientHello.label(), "client_hello");
    }

    #[test]
    fn max_fragment_records_dispatch() {
        let mut chain = Chain::new().with(Box::new(RecordCounter::default()));
        chain.begin_session();
        let rec = Record::new(
            ContentType::ApplicationData,
            ProtocolVersion::Tls12,
            vec![0x55; MAX_FRAGMENT],
        )
        .encode();
        chain.feed(Flow::ServerToClient, &rec);
        let counter = chain.middleware_mut::<RecordCounter>(0).unwrap();
        assert_eq!(counter.payload_bytes, MAX_FRAGMENT as u64);
    }
}

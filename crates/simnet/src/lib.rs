//! # iotls-simnet
//!
//! Deterministic network simulator for the IoTLS reproduction — the
//! stand-in for the paper's physical gateway, tcpdump, smart plugs,
//! and lab network (DESIGN.md §2).
//!
//! Built in the smoltcp spirit: event-driven, allocation-light, no
//! real sockets, no real clock. Components:
//!
//! * [`events`] — virtual clock and deterministic event queue
//!   (device boots, power cycles, capture rolls);
//! * [`pipe`] — reliable in-order byte pipes (the transport);
//! * [`tap`] — the passive gateway: a middleware that reconstructs
//!   handshake metadata from the bytes on the link, producing
//!   [`tap::TlsObservation`]s;
//! * [`driver`] — the lockstep session driver connecting sans-IO TLS
//!   endpoints over a link, feeding the conditioned bytes to a
//!   middleware chain (the tap's position) and exchanging app
//!   payloads;
//! * [`dns`] — simulated DNS with a per-device query log (revocation
//!   endpoint detection);
//! * [`fault`] — seeded deterministic fault injection (resets, stalls,
//!   garbled fragments, DNS failures, power cycles) for chaos runs;
//! * [`mux`] — the accept-loop/session-mux shim for the resident
//!   gateway: record a clean session's wire tape once, replay it per
//!   multiplexed session under its own fault draw and deadline;
//! * [`par`] — deterministic fan-out (`IOTLS_THREADS` workers, ordered
//!   merge) for the embarrassingly parallel per-device experiment
//!   loops.

pub mod dns;
pub mod driver;
pub mod events;
pub mod fault;
pub mod metrics;
pub mod mux;
pub mod par;
pub mod pipe;
pub mod tap;

pub use dns::{DnsOutcome, DnsQuery, DnsTable};
pub use driver::{drive_session, sessions_driven, DriveScratch, SessionParams, SessionResult};
pub use events::{EventQueue, SimClock};
pub use fault::{
    DnsFault, FailureCause, FaultOp, FaultPlan, FaultSampler, InjectedFault, LinkConditioner,
    SessionFaults,
};
pub use metrics::record_session_metrics;
pub use mux::{
    replay_flow_chained, replay_flow_with, AcceptLoop, FlowRound, ReplayOutcome, ReplayScratch,
    SessionFlow,
};
pub use par::{ordered_map, ordered_map_with, ordered_map_with_state, worker_count};
pub use pipe::{DuplexLink, Pipe};
pub use tap::{GatewayTap, TlsObservation};

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
//! * [`tap`] — the passive gateway: a middleware that reconstructs
//!   handshake metadata from the bytes on the link, producing
//!   [`tap::TlsObservation`]s;
//! * [`driver`] — the lockstep session driver connecting sans-IO TLS
//!   endpoints over a link, feeding the conditioned bytes to a
//!   middleware chain (the tap's position) and exchanging app
//!   payloads;
//! * [`fault`] — seeded deterministic fault injection (resets, stalls,
//!   garbled fragments, DNS failures, power cycles) for chaos runs; a
//!   DNS fault is drawn per try and applied at resolution time by the
//!   caller, and the simulator keeps no DNS table or query log;
//! * [`mux`] — the accept-loop/session-mux shim for the resident
//!   gateway: record a clean session's wire tape once, replay it per
//!   multiplexed session under its own fault draw and deadline;
//! * [`par`] — deterministic fan-out (`IOTLS_THREADS` workers, ordered
//!   merge) for the embarrassingly parallel per-device experiment
//!   loops, and the run-scoped worker pool the gateway lends each
//!   tick's batch to.

pub mod driver;
pub mod events;
pub mod fault;
pub mod metrics;
pub mod mux;
pub mod par;
pub mod tap;

pub use driver::{drive_session, sessions_driven, DriveScratch, SessionParams, SessionResult};
pub use events::{EventQueue, SimClock};
pub use fault::{
    DnsFault, FailureCause, FaultKeyPrefix, FaultOp, FaultPlan, FaultSampler, InjectedFault,
    LinkConditioner, SessionFaults,
};
pub use metrics::record_session_metrics;
pub use mux::{
    replay_flow_chained, replay_flow_with, AcceptLoop, FlowRound, ReplayOutcome, ReplayScratch,
    SessionFlow,
};
pub use par::{ordered_map_with, ordered_map_with_state, with_pool, worker_count, Pool};
pub use tap::{GatewayTap, TlsObservation};

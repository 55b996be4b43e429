//! Lockstep session driver.
//!
//! Connects a sans-IO TLS client to a sans-IO TLS server over a
//! `DuplexLink` and pumps bytes until the link is quiescent,
//! optionally exchanging application payloads. [`drive_session`] is
//! the single primitive behind every experiment in the reproduction:
//! passive capture (real server), interception (the MITM's server),
//! and the root-store probe (spoofed-CA server).
//!
//! Every transferred chunk passes through a [`LinkConditioner`], which
//! in chaos runs may cut, corrupt, or throttle the stream
//! ([`LinkConditioner::passthrough`] for a clean link). The conditioned
//! bytes are then fed to a middleware [`Chain`] — the position of the
//! paper's gateway tap, downstream of the link and upstream of the
//! receiving endpoint — before that endpoint processes them. A caller
//! that observes sessions puts a [`GatewayTap`] in the chain; a caller
//! with nothing to observe passes an empty chain, which skips
//! deframing entirely.
//!
//! The pump is unbuffered end to end: each direction owns one
//! [`SessionBuf`] that the endpoints' `process` calls append to and
//! the conditioner consumes, and both endpoints' per-session scratch
//! lives in a caller-reusable [`DriveScratch`]. A lane that drives
//! every session with one warm scratch performs zero heap allocations
//! per session in the steady state.
//!
//! [`GatewayTap`]: crate::tap::GatewayTap

use crate::fault::{Direction, FailureCause, InjectedFault, LinkConditioner};
use crate::pipe::DuplexLink;
use crate::tap::TlsObservation;
use iotls_tls::client::{ClientConnection, HandshakeSummary};
use iotls_tls::middleware::{Chain, Flow};
use iotls_tls::record::SessionBuf;
use iotls_tls::server::ServerConnection;
use iotls_tls::session::SessionScratch;
use std::sync::atomic::{AtomicU64, Ordering};

/// How many pump rounds before declaring the session wedged — far
/// beyond any legitimate handshake (which needs ~4).
const MAX_ROUNDS: usize = 64;

/// Total sessions driven to completion by this process (all lanes),
/// for sessions-per-second bench reporting.
static SESSIONS_DRIVEN: AtomicU64 = AtomicU64::new(0);

/// Total sessions driven to completion by this process since start.
/// Benchmarks read deltas around a workload to report throughput.
pub fn sessions_driven() -> u64 {
    SESSIONS_DRIVEN.load(Ordering::Relaxed)
}

/// Caller-owned scratch for the drive loop: both endpoints'
/// [`SessionScratch`] plus the wire and per-direction buffers. One
/// warm `DriveScratch` per lane makes the steady-state session loop
/// allocation-free; take the endpoint scratches out with
/// [`DriveScratch::take_client`] / [`DriveScratch::take_server`] to
/// construct the next pair of connections.
#[derive(Debug, Default)]
pub struct DriveScratch {
    /// Client-endpoint scratch (deframer + buffers).
    pub client: SessionScratch,
    /// Server-endpoint scratch (deframer + buffers).
    pub server: SessionScratch,
    /// Post-conditioner delivery buffer, reused both directions.
    wire: Vec<u8>,
    /// Client → server outgoing-record buffer.
    c2s: SessionBuf,
    /// Server → client outgoing-record buffer.
    s2c: SessionBuf,
}

impl DriveScratch {
    /// A fresh (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the client-endpoint scratch (for
    /// `ClientConnection::with_scratch`), leaving a default in place.
    pub fn take_client(&mut self) -> SessionScratch {
        std::mem::take(&mut self.client)
    }

    /// Takes the server-endpoint scratch (for
    /// `ServerConnection::with_scratch`), leaving a default in place.
    pub fn take_server(&mut self) -> SessionScratch {
        std::mem::take(&mut self.server)
    }
}

/// Everything a driven session produced.
pub struct SessionResult {
    /// The client's view of the handshake.
    pub client_summary: HandshakeSummary,
    /// True when both sides established.
    pub established: bool,
    /// Network-level failure cause, when the *link* (not either
    /// endpoint) killed the session. `None` with `established ==
    /// false` means an endpoint declined — see the client summary.
    pub failure: Option<FailureCause>,
    /// Faults the conditioner actually injected, in firing order.
    pub faults: Vec<InjectedFault>,
    /// Application data the server-side received (what a successful
    /// MITM exfiltrates).
    pub server_received: Vec<u8>,
    /// Application data the client received back.
    pub client_received: Vec<u8>,
    /// Passive observation. The driver leaves it `None`; a caller that
    /// tapped the session fills it from its chain's
    /// [`GatewayTap::take_observation`](crate::tap::GatewayTap::take_observation).
    pub observation: Option<TlsObservation>,
    /// Total bytes carried client→server.
    pub bytes_c2s: u64,
    /// Total bytes carried server→client.
    pub bytes_s2c: u64,
    /// Complete TLS records the gateway tap deframed. The driver
    /// leaves it zero; a tapping caller fills it from
    /// [`GatewayTap::records_deframed`](crate::tap::GatewayTap::records_deframed).
    pub records_deframed: u64,
}

impl SessionResult {
    /// True when a fault fired during this session: its outcome says
    /// nothing reliable about the endpoints.
    pub fn tainted(&self) -> bool {
        !self.faults.is_empty()
    }
}

/// Session inputs: the application payloads each side sends once it
/// establishes (none by default).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionParams<'a> {
    /// Payload the client sends once established (the device's
    /// app-layer message, e.g. a telemetry POST).
    pub client_payload: Option<&'a [u8]>,
    /// Payload the server responds with.
    pub server_payload: Option<&'a [u8]>,
}

/// Drives `client` against `server` to quiescence through a
/// fault-injecting [`LinkConditioner`], feeding every conditioned
/// chunk to `chain` before the receiving endpoint processes it.
///
/// The client must *not* have been started; the driver starts it.
/// The conditioner may cut the link (→ [`FailureCause::Reset`]),
/// corrupt a byte (→ [`FailureCause::Garbled`]), or throttle delivery
/// until the round budget runs out (→ [`FailureCause::Wedged`]). The
/// chain sees the bytes *after* conditioning, exactly like a physical
/// tap downstream of a lossy path. A terminal verdict (`Intercept` /
/// `Abort`) drops the chunk that triggered it and stops the pump; it
/// is not a link failure, and the caller reads the verdict off
/// [`Chain::terminal`]. Per-session [`ChainStats`] and
/// middleware-collected state (e.g. a [`GatewayTap`]'s observation)
/// stay on the chain for the caller.
///
/// Endpoints built from `scratch`'s `take_client`/`take_server` halves
/// are handed back into it when the session ends, so a lane looping
/// over sessions allocates nothing per session once warm.
///
/// [`ChainStats`]: iotls_tls::middleware::ChainStats
/// [`GatewayTap`]: crate::tap::GatewayTap
pub fn drive_session(
    mut client: ClientConnection,
    mut server: ServerConnection,
    params: SessionParams<'_>,
    conditioner: &mut LinkConditioner,
    chain: &mut Chain,
    scratch: &mut DriveScratch,
) -> SessionResult {
    let mut link = DuplexLink::new();
    let mut server_received = Vec::new();
    let mut client_received = Vec::new();
    let mut client_sent_payload = false;
    let mut server_sent_payload = false;
    let mut exhausted = true;

    scratch.wire.clear();
    scratch.c2s.clear();
    scratch.s2c.clear();
    chain.begin_session();
    client.start_into(&mut scratch.c2s);

    // ALLOC-FREE: begin (drive loop — tier1.sh greps this region for
    // reintroduced per-session allocations; every buffer below is
    // caller-owned scratch reused across sessions).
    for round in 0..MAX_ROUNDS {
        conditioner.begin_round(round);
        let mut moved = false;

        // Client → conditioner → gateway → server. The transfer runs
        // even on empty input so the stall trickle keeps draining.
        conditioner.transfer_into(Direction::C2s, scratch.c2s.as_slice(), round, &mut scratch.wire);
        scratch.c2s.clear();
        if !scratch.wire.is_empty() {
            if chain.feed(Flow::ClientToServer, &scratch.wire).is_some() {
                break;
            }
            link.c2s.write(&scratch.wire);
            server.process(link.c2s.queued(), &mut scratch.s2c);
            link.c2s.consume();
            moved = true;
        }
        server.drain_application_data_into(&mut server_received);

        // Server queues its payload once established.
        if server.is_established() && !server_sent_payload {
            if let Some(p) = params.server_payload {
                server.send_application_data_into(p, &mut scratch.s2c);
                moved = true;
            }
            server_sent_payload = true;
        }

        // Server → conditioner → gateway → client.
        conditioner.transfer_into(Direction::S2c, scratch.s2c.as_slice(), round, &mut scratch.wire);
        scratch.s2c.clear();
        if !scratch.wire.is_empty() {
            if chain.feed(Flow::ServerToClient, &scratch.wire).is_some() {
                break;
            }
            link.s2c.write(&scratch.wire);
            client.process(link.s2c.queued(), &mut scratch.c2s);
            link.s2c.consume();
            moved = true;
        }
        client.drain_application_data_into(&mut client_received);

        // Client queues its payload once established.
        if client.is_established() && !client_sent_payload {
            if let Some(p) = params.client_payload {
                client.send_application_data_into(p, &mut scratch.c2s);
                moved = true;
            }
            client_sent_payload = true;
        }

        if !moved && !conditioner.has_backlog() {
            exhausted = false;
            break;
        }
    }
    // ALLOC-FREE: end (drive loop)

    SESSIONS_DRIVEN.fetch_add(1, Ordering::Relaxed);
    // Close fires once at natural end of session (a no-op after a
    // terminal verdict already stopped it).
    chain.close();

    let established = client.is_established() && server.is_established();
    let failure = if established {
        None
    } else {
        conditioner.failure_cause(exhausted && chain.terminal().is_none())
    };
    let result = SessionResult {
        client_summary: client.summary(),
        established,
        failure,
        faults: conditioner.injected().to_vec(),
        server_received,
        client_received,
        observation: None,
        bytes_c2s: link.c2s.total_bytes(),
        bytes_s2c: link.s2c.total_bytes(),
        records_deframed: 0,
    };
    // Hand the endpoints' warm buffers back to the lane's scratch for
    // the next session.
    scratch.client = client.into_scratch();
    scratch.server = server.into_scratch();
    result
}

//! The resident audit gateway: a long-lived session multiplexer with
//! admission control, backpressure, per-session deadlines, circuit
//! breakers, panic isolation, and graceful drain.
//!
//! The paper's longitudinal numbers come from a gateway that watched
//! device traffic continuously for months; the batch engines sweep the
//! roster once and exit. [`Gateway`] closes that gap: it records one
//! clean wire tape per `(active device, boot destination)` pair at
//! construction (a real TLS handshake each), then multiplexes a
//! seeded arrival stream of sessions that *replay* those tapes
//! through per-session [`LinkConditioner`]s — every robustness
//! mechanism exercised against realistic byte flows at a throughput
//! no per-session handshake could reach.
//!
//! The runtime is tick-driven and entirely on virtual time. Each tick:
//!
//! 1. **refill** the per-device-class token buckets and advance the
//!    per-endpoint circuit breakers;
//! 2. **admit** the tick's arrivals ([`AcceptLoop`], a pure function
//!    of the seed): a full ingress queue rejects a session into
//!    `gateway.rejected.overloaded`, an empty class bucket into
//!    `gateway.rejected.throttled`, an open breaker into
//!    `gateway.rejected.circuit_open`;
//! 3. **dispatch** up to a pool-sized batch from the queue to the
//!    run's [`ExperimentCtx::threads`] workers — one [`with_pool`]
//!    spawned per run, whose workers keep their replay scratch and
//!    middleware chains from tick to tick and hand results back in
//!    dispatch order — each session replays its tape under its own
//!    fault draw with a hard round *deadline*, wrapped in
//!    `catch_unwind` so a poisoned session increments
//!    `gateway.sessions.panicked` instead of killing the pool;
//! 4. **settle** the batch sequentially: verdict counters, fault
//!    stats, breaker transitions.
//!
//! Shutdown (at `drain_at`, or end of run) stops admission, flushes
//! in-flight work for `drain_grace` ticks, counts whatever is still
//! queued as `gateway.drain.aborted`, and emits a [`GatewayReport`]
//! whose drain invariant — `admitted == completed + rejected +
//! aborted` — certifies that no session was silently lost.
//!
//! All mutable state (queue, buckets, breakers, counters) lives in
//! the sequential tick loop; only the pure per-ticket replay runs on
//! the pool. The report, its counters section included, is therefore
//! byte-identical at any worker count.
//!
//! [`LinkConditioner`]: iotls_simnet::LinkConditioner
//! [`with_pool`]: iotls_simnet::with_pool

use crate::detect::FlowBaseline;
use crate::experiment::{fault_stats_json, ExperimentCtx, GatewayService};
use crate::experiment::{Experiment, Report};
use crate::lab::{FaultStats, INLINE_RETRY_BUDGET};
use iotls_capture::json::Json;
use iotls_crypto::drbg::Drbg;
use iotls_devices::spec::Category;
use iotls_devices::{client_config, Testbed};
use iotls_obs::Registry;
use iotls_simnet::mux::{
    replay_flow_chained, replay_flow_with, AcceptLoop, ReplayOutcome, ReplayScratch, SessionFlow,
};
use iotls_simnet::{FailureCause, FaultKeyPrefix, InjectedFault, Pool, SessionFaults};
use iotls_tls::client::ClientConnection;
use iotls_tls::middleware::{Chain, ChainStats, Signal, Stage};
use iotls_tls::server::ServerConnection;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Bucket bounds for the per-session replay-round histogram
/// (`gateway.session.rounds`). A clean replay takes exactly 3 rounds
/// (client flight, server flight, finished), so the bounds bracket
/// that mode: short-circuited sessions land in the ≤1/≤2 buckets,
/// clean replays in ≤3, retried sessions in ≤6, and deadline overruns
/// in the overflow bucket. (The previous `[4, 6, 8, 12]` bounds put
/// every soak session — over a million of them — in the first bucket,
/// making the histogram useless for spotting retry regressions.)
pub const SESSION_ROUNDS_BOUNDS: [u64; 4] = [1, 2, 3, 6];

/// Terminal outcome of one multiplexed session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionVerdict {
    /// The replay completed and the tape established.
    Established,
    /// The replay completed but the endpoint declined on the clean
    /// link (the tape itself never established).
    HandshakeFailed,
    /// A network fault killed the session (reset, garble, DNS).
    Failed(FailureCause),
    /// The session ran out of its per-session round deadline — the
    /// gateway's reclassification of a wedged stall.
    DeadlineExceeded,
    /// The session panicked; the pool caught and isolated it.
    Panicked,
    /// A middleware hook took the session over (`Verdict::Intercept`)
    /// — a policy stop, not an endpoint or network failure.
    Intercepted,
    /// A middleware hook terminated the session as a failure
    /// (`Verdict::Abort`).
    AbortedByMiddleware,
}

impl SessionVerdict {
    /// True when the endpoint should count this as a failure for
    /// circuit-breaking purposes. An interception is the *chain's*
    /// decision, not evidence against the endpoint, so it counts as a
    /// success; a middleware abort counts as a failure.
    fn is_breaker_failure(&self) -> bool {
        !matches!(
            self,
            SessionVerdict::Established | SessionVerdict::Intercepted
        )
    }
}

/// A fixed-window token bucket: `refill` tokens per tick, capped at
/// `capacity`. One bucket per device class rate-limits each class
/// independently.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    tokens: u32,
    capacity: u32,
    refill: u32,
}

impl TokenBucket {
    /// A bucket starting full.
    pub fn new(capacity: u32, refill: u32) -> TokenBucket {
        TokenBucket {
            tokens: capacity,
            capacity,
            refill,
        }
    }

    /// Adds the per-tick refill, saturating at capacity.
    pub fn refill(&mut self) {
        self.tokens = (self.tokens + self.refill).min(self.capacity);
    }

    /// Takes one token; `false` means the caller is throttled.
    pub fn try_take(&mut self) -> bool {
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }

    /// Tokens currently available.
    pub fn available(&self) -> u32 {
        self.tokens
    }
}

/// Admission decision from a circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerAdmit {
    /// Closed: pass.
    Allow,
    /// Half-open: pass as the single probe.
    Probe,
    /// Open (or half-open with the probe already out): reject.
    Reject,
}

/// Circuit-breaker state, in the classic closed → open → half-open
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: sessions pass, consecutive failures are counted.
    Closed,
    /// Tripped: sessions are rejected until the open window elapses.
    Open,
    /// Probing: exactly one session passes; its outcome decides
    /// whether the breaker recloses or reopens with a longer window.
    HalfOpen,
}

/// One endpoint's circuit breaker. Opens after `threshold`
/// consecutive failures; the open window doubles per consecutive
/// reopen and carries a seeded deterministic jitter, so probe
/// scheduling is reproducible and endpoints do not thunder in
/// lockstep.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    threshold: u32,
    base_open_ticks: u64,
    /// Consecutive opens without a successful probe in between.
    open_streak: u32,
    open_until: u64,
    probe_inflight: bool,
    seed: u64,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive
    /// failures, staying open `base_open_ticks` (plus backoff and
    /// jitter) per trip.
    pub fn new(threshold: u32, base_open_ticks: u64, seed: u64) -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            threshold: threshold.max(1),
            base_open_ticks: base_open_ticks.max(1),
            open_streak: 0,
            open_until: 0,
            probe_inflight: false,
            seed,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Advances virtual time: an elapsed open window moves the
    /// breaker to half-open, arming the probe slot.
    pub fn tick(&mut self, now: u64) {
        if self.state == BreakerState::Open && now >= self.open_until {
            self.state = BreakerState::HalfOpen;
            self.probe_inflight = false;
        }
    }

    /// Admission check; half-open grants the probe slot to exactly
    /// one caller per window.
    fn admit(&mut self) -> BreakerAdmit {
        match self.state {
            BreakerState::Closed => BreakerAdmit::Allow,
            BreakerState::Open => BreakerAdmit::Reject,
            BreakerState::HalfOpen => {
                if self.probe_inflight {
                    BreakerAdmit::Reject
                } else {
                    self.probe_inflight = true;
                    BreakerAdmit::Probe
                }
            }
        }
    }

    /// Records a successful session; returns true when a half-open
    /// breaker reclosed.
    pub fn on_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.open_streak = 0;
            self.probe_inflight = false;
            return true;
        }
        false
    }

    /// Records a failed session; returns true when this failure
    /// opened (or reopened) the breaker.
    pub fn on_failure(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.open(now);
                    return true;
                }
                false
            }
            BreakerState::HalfOpen => {
                // The probe (or a straggler from before the trip)
                // failed: reopen with a doubled window.
                self.open(now);
                true
            }
            BreakerState::Open => false,
        }
    }

    /// Trips the breaker: exponential backoff on the open window plus
    /// a seeded jitter drawn per `(endpoint, streak)` — deterministic
    /// probe scheduling, but endpoints tripped at the same tick still
    /// probe at different ticks.
    fn open(&mut self, now: u64) {
        self.open_streak += 1;
        let backoff = self.base_open_ticks << (self.open_streak - 1).min(6);
        let jitter = Drbg::from_seed(self.seed)
            .fork("breaker-jitter")
            .fork(&format!("open/{}", self.open_streak))
            .below(self.base_open_ticks);
        self.state = BreakerState::Open;
        self.open_until = now + backoff + jitter;
        self.consecutive_failures = 0;
        self.probe_inflight = false;
    }
}

/// Knobs for one gateway run. Every duration is in virtual ticks or
/// pump rounds; nothing reads a wall clock.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Accept-loop ticks before shutdown begins.
    pub ticks: u64,
    /// Mean arrivals per tick.
    pub load: u32,
    /// Uniform jitter around the mean (`load ± load_spread`).
    pub load_spread: u32,
    /// Bounded ingress-queue capacity (backpressure limit).
    pub queue_capacity: usize,
    /// Sessions the worker pool drains from the queue per tick.
    pub pool_capacity: usize,
    /// Per-session replay deadline, in pump rounds.
    pub deadline_rounds: usize,
    /// Token-bucket burst capacity per device class.
    pub bucket_capacity: u32,
    /// Token-bucket refill per tick per device class.
    pub bucket_refill: u32,
    /// Consecutive failures that trip an endpoint's breaker.
    pub breaker_threshold: u32,
    /// Base open window of a tripped breaker, in ticks.
    pub breaker_open_ticks: u64,
    /// Tick at which to begin draining (`None`: run all `ticks`).
    pub drain_at: Option<u64>,
    /// Flush ticks granted after admission stops; queued sessions
    /// still waiting afterwards are aborted (and counted).
    pub drain_grace: u64,
    /// Per-mille of sessions that panic mid-flight — the
    /// panic-isolation test hook; 0 in every normal run.
    pub poison_pm: u16,
}

impl Default for GatewayConfig {
    /// A canonical soak sized so the golden fixture exercises every
    /// admission path: offered load exceeds both the class budgets
    /// and the pool, so throttling and queue overflow both fire even
    /// on a fault-free run.
    fn default() -> GatewayConfig {
        GatewayConfig {
            ticks: 48,
            load: 160,
            load_spread: 32,
            queue_capacity: 192,
            pool_capacity: 96,
            deadline_rounds: 12,
            bucket_capacity: 96,
            bucket_refill: 24,
            breaker_threshold: 5,
            breaker_open_ticks: 6,
            drain_at: None,
            drain_grace: 6,
            poison_pm: 0,
        }
    }
}

/// One recorded flow the accept loop can hand out: the wire tape plus
/// the admission metadata (device class, endpoint).
struct FlowEntry {
    device: String,
    endpoint: String,
    /// Index into [`Category::ALL`] (token-bucket slot).
    class_idx: usize,
    /// Index into the deduplicated endpoint roster (breaker slot).
    endpoint_idx: usize,
    flow: SessionFlow,
}

/// A queued admission: which flow to replay, under which admission
/// sequence number (the fault- and poison-draw key).
#[derive(Debug, Clone, Copy)]
struct Ticket {
    seq: u64,
    flow_idx: usize,
}

/// One worker's state for a whole run: replay scratch, one chain slot
/// per roster endpoint, and the buffer the per-try rest of the
/// fault-draw key (`{seq}/try{n}`) is written into.
struct WorkerState {
    scratch: ReplayScratch,
    chains: Vec<Option<Chain>>,
    key: String,
}

/// What one worker hands back for one ticket.
struct SessionOutcome {
    verdict: SessionVerdict,
    stats: FaultStats,
    bytes: u64,
    rounds: u64,
    /// Middleware hook tallies for this session (zero when the
    /// endpoint has no chain registered).
    mw: ChainStats,
}

/// Builds the middleware [`Chain`] for one endpoint (by hostname), or
/// `None` to leave that endpoint un-hooked. Called once per endpoint
/// per worker per run, so per-chain state is worker-local and lives
/// across every session that worker replays for the endpoint;
/// deterministic reports require chains whose *verdicts* depend only
/// on the session bytes (per-session state is fine, cross-session
/// accumulation that changes verdicts is not).
pub type ChainFactory = Box<dyn Fn(&str) -> Option<Chain> + Send + Sync>;

/// The resident gateway runtime. Construct with [`Gateway::new`]
/// (records the flow roster), then [`Gateway::run`] the soak.
pub struct Gateway<'a> {
    ctx: &'a ExperimentCtx,
    config: GatewayConfig,
    flows: Vec<FlowEntry>,
    endpoints: Vec<String>,
    chain_factory: Option<ChainFactory>,
}

impl<'a> Gateway<'a> {
    /// Builds the gateway: records one clean wire tape per
    /// `(active device, boot destination)` pair — real handshakes,
    /// fanned out over `ctx.threads()` and assembled in roster order.
    pub fn new(testbed: &'a Testbed, ctx: &'a ExperimentCtx, config: GatewayConfig) -> Gateway<'a> {
        let seed = ctx.seed();
        let now = iotls_rootstore::probe_time();
        let month = now.month();

        struct RecordJob<'t> {
            device: &'t iotls_devices::DeviceSetup,
            dest: &'t iotls_devices::spec::Destination,
        }
        let mut jobs = Vec::new();
        for device in testbed.devices.iter().filter(|d| d.spec.in_active) {
            for dest in device.spec.boot_destinations() {
                jobs.push(RecordJob { device, dest });
            }
        }

        let recorded = iotls_simnet::ordered_map_with(ctx.threads(), jobs, |job| {
            let instances = job.device.spec.instances_at(month);
            let instance = &instances[job.dest.instance.min(instances.len() - 1)];
            let cfg = client_config(instance, job.device.truth.store.clone());
            let key = format!("record/{}/{}", job.device.spec.name, job.dest.hostname);
            let client_rng = Drbg::from_seed(seed).fork("gateway").fork(&key);
            let server_rng = client_rng.fork("server");
            let client = ClientConnection::new(cfg, &job.dest.hostname, now, client_rng);
            let server = ServerConnection::new(testbed.server_config(job.dest), server_rng);
            let payload = job.dest.payload.clone().unwrap_or_else(|| "ping".into());
            let flow =
                SessionFlow::record(client, server, Some(payload.as_bytes()), Some(b"ok"));
            (
                job.device.spec.name.clone(),
                job.device.spec.category,
                job.dest.hostname.clone(),
                flow,
            )
        });

        let mut endpoints: Vec<String> = Vec::new();
        let flows = recorded
            .into_iter()
            .map(|(device, category, endpoint, flow)| {
                let endpoint_idx = match endpoints.iter().position(|e| *e == endpoint) {
                    Some(i) => i,
                    None => {
                        endpoints.push(endpoint.clone());
                        endpoints.len() - 1
                    }
                };
                let class_idx = Category::ALL
                    .iter()
                    .position(|&c| c == category)
                    .expect("category in ALL");
                FlowEntry {
                    device,
                    endpoint,
                    class_idx,
                    endpoint_idx,
                    flow,
                }
            })
            .collect();

        Gateway {
            ctx,
            config,
            flows,
            endpoints,
            chain_factory: None,
        }
    }

    /// Recorded flows (one per active device × boot destination).
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Distinct endpoints (one circuit breaker each).
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Drift baselines skimmed from the recorded roster tapes, keyed
    /// by endpoint hostname — the enrollment set for a
    /// [`crate::detect::DriftDetector`] chain per endpoint. Multiple
    /// devices sharing an endpoint contribute one baseline each, so
    /// legitimate client diversity never reads as drift.
    pub fn endpoint_baselines(&self) -> BTreeMap<String, Vec<FlowBaseline>> {
        let mut out: BTreeMap<String, Vec<FlowBaseline>> = BTreeMap::new();
        for entry in &self.flows {
            out.entry(entry.endpoint.clone())
                .or_default()
                .push(FlowBaseline::of(&entry.flow));
        }
        out
    }

    /// Registers a per-endpoint middleware chain factory. Every
    /// subsequent session replays *through* the chains built for its
    /// endpoint: observe hooks see each plaintext record, `Intercept`
    /// ends the session as [`SessionVerdict::Intercepted`] (a breaker
    /// success), `Abort` as [`SessionVerdict::AbortedByMiddleware`]
    /// (a breaker failure). Hook tallies surface as
    /// `gateway.middleware.*` counters.
    pub fn register_chains(&mut self, factory: ChainFactory) {
        self.chain_factory = Some(factory);
    }

    /// One chain slot per roster endpoint, built once for each worker
    /// of a run (empty when no factory is registered — the hot path
    /// stays branch-cheap).
    fn worker_chains(&self) -> Vec<Option<Chain>> {
        match &self.chain_factory {
            Some(factory) => self.endpoints.iter().map(|e| factory(e)).collect(),
            None => Vec::new(),
        }
    }

    /// Runs the soak to completion — admission ticks, then the drain —
    /// and emits the final report. Byte-identical at any
    /// [`ExperimentCtx::threads`].
    pub fn run(&self) -> GatewayReport {
        // Every fault-draw key of a flow starts `gw/{device}/{endpoint}/`:
        // absorb that prefix into the plan's fork once per flow per run,
        // so each draw hashes only its `{seq}/try{n}`.
        let sampler = self.ctx.plan().sampler();
        let prefixes: Vec<FaultKeyPrefix> = self
            .flows
            .iter()
            .map(|e| sampler.key_prefix(&format!("gw/{}/{}/", e.device, e.endpoint)))
            .collect();
        iotls_simnet::with_pool(
            self.ctx.threads(),
            || WorkerState {
                scratch: ReplayScratch::default(),
                chains: self.worker_chains(),
                key: String::new(),
            },
            |worker, ticket| (ticket, self.drive(&prefixes, worker, ticket)),
            |pool| self.soak(pool),
        )
    }

    /// The tick loop of [`Gateway::run`]: every batch goes to `pool`,
    /// and its outcomes are settled in dispatch order.
    fn soak<I, F>(
        &self,
        pool: &mut Pool<'_, Ticket, (Ticket, SessionOutcome), WorkerState, I, F>,
    ) -> GatewayReport
    where
        I: Fn() -> WorkerState,
        F: Fn(&mut WorkerState, Ticket) -> (Ticket, SessionOutcome),
    {
        let cfg = &self.config;
        let accept = AcceptLoop::new(self.ctx.seed(), cfg.load, cfg.load_spread);
        let mut reg = Registry::new();
        let mut queue: VecDeque<Ticket> = VecDeque::new();
        let mut buckets: Vec<TokenBucket> = Category::ALL
            .iter()
            .map(|_| TokenBucket::new(cfg.bucket_capacity, cfg.bucket_refill))
            .collect();
        let mut breakers: Vec<CircuitBreaker> = (0..self.endpoints.len())
            .map(|i| {
                CircuitBreaker::new(
                    cfg.breaker_threshold,
                    cfg.breaker_open_ticks,
                    self.ctx.seed() ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            })
            .collect();

        let mut stats = FaultStats::default();
        let mut admitted = 0u64;
        let mut completed = 0u64;
        let mut established = 0u64;
        let mut handshake_failed = 0u64;
        let mut deadline_exceeded = 0u64;
        let mut panicked = 0u64;
        let mut failed: [u64; 4] = [0; 4]; // FAILED_LABELS order
        let mut rejected_overloaded = 0u64;
        let mut rejected_throttled = 0u64;
        let mut rejected_circuit_open = 0u64;
        let mut breakers_opened = 0u64;
        let mut breaker_probes = 0u64;
        let mut breakers_reclosed = 0u64;
        let mut queue_peak = 0u64;
        let mut bytes_total = 0u64;
        let mut per_class = [[0u64; 2]; Category::ALL.len()]; // [admitted, throttled]
        let mut mw_totals = ChainStats::default();
        let mut intercepted = 0u64;
        let mut mw_aborted = 0u64;

        let admit_ticks = cfg.drain_at.unwrap_or(cfg.ticks).min(cfg.ticks);
        let total_ticks = admit_ticks + cfg.drain_grace;

        for tick in 0..total_ticks {
            for b in &mut buckets {
                b.refill();
            }
            for br in &mut breakers {
                br.tick(tick);
            }

            if tick < admit_ticks {
                for flow_idx in accept.arrivals(tick, self.flows.len()) {
                    let seq = admitted;
                    admitted += 1;
                    let entry = &self.flows[flow_idx];
                    per_class[entry.class_idx][0] += 1;
                    if queue.len() >= cfg.queue_capacity {
                        rejected_overloaded += 1;
                        continue;
                    }
                    if !buckets[entry.class_idx].try_take() {
                        rejected_throttled += 1;
                        per_class[entry.class_idx][1] += 1;
                        continue;
                    }
                    match breakers[entry.endpoint_idx].admit() {
                        BreakerAdmit::Reject => {
                            rejected_circuit_open += 1;
                            continue;
                        }
                        BreakerAdmit::Probe => breaker_probes += 1,
                        BreakerAdmit::Allow => {}
                    }
                    queue.push_back(Ticket { seq, flow_idx });
                }
            }

            queue_peak = queue_peak.max(queue.len() as u64);
            reg.set_gauge("gateway.queue.depth", queue.len() as i64);

            let take = queue.len().min(cfg.pool_capacity);
            let batch: Vec<Ticket> = queue.drain(..take).collect();
            if batch.is_empty() {
                continue;
            }
            for (ticket, outcome) in pool.map(batch) {
                let entry = &self.flows[ticket.flow_idx];
                completed += 1;
                stats.merge(&outcome.stats);
                mw_totals.merge(&outcome.mw);
                bytes_total += outcome.bytes;
                reg.observe("gateway.session.rounds", &SESSION_ROUNDS_BOUNDS, outcome.rounds);
                match outcome.verdict {
                    SessionVerdict::Established => established += 1,
                    SessionVerdict::HandshakeFailed => handshake_failed += 1,
                    SessionVerdict::DeadlineExceeded => deadline_exceeded += 1,
                    SessionVerdict::Panicked => panicked += 1,
                    SessionVerdict::Intercepted => intercepted += 1,
                    SessionVerdict::AbortedByMiddleware => mw_aborted += 1,
                    SessionVerdict::Failed(cause) => {
                        failed[failed_slot(cause)] += 1;
                    }
                }
                let br = &mut breakers[entry.endpoint_idx];
                if outcome.verdict.is_breaker_failure() {
                    if br.on_failure(tick) {
                        breakers_opened += 1;
                    }
                } else if br.on_success() {
                    breakers_reclosed += 1;
                }
            }
        }

        let aborted = queue.len() as u64;

        reg.set_gauge("gateway.queue.depth", aborted as i64);
        reg.set_gauge("gateway.queue.peak_depth", queue_peak as i64);
        reg.add("gateway.ticks", total_ticks);
        reg.add("gateway.sessions.admitted", admitted);
        reg.add("gateway.sessions.completed", completed);
        reg.add("gateway.sessions.established", established);
        reg.add("gateway.sessions.handshake_failed", handshake_failed);
        reg.add("gateway.sessions.deadline_exceeded", deadline_exceeded);
        reg.add("gateway.sessions.panicked", panicked);
        for (i, label) in FAILED_LABELS.iter().enumerate() {
            reg.add(&format!("gateway.sessions.failed.{label}"), failed[i]);
        }
        reg.add("gateway.rejected.overloaded", rejected_overloaded);
        reg.add("gateway.rejected.throttled", rejected_throttled);
        reg.add("gateway.rejected.circuit_open", rejected_circuit_open);
        reg.add("gateway.drain.aborted", aborted);
        reg.add("gateway.breakers.opened", breakers_opened);
        reg.add("gateway.breakers.probes", breaker_probes);
        reg.add("gateway.breakers.reclosed", breakers_reclosed);
        reg.add("gateway.bytes.replayed", bytes_total);
        reg.add("gateway.faults.injected.reset", stats.resets);
        reg.add("gateway.faults.injected.garble", stats.garbles);
        reg.add("gateway.faults.injected.stall", stats.stalls);
        reg.add("gateway.faults.injected.power_cycle", stats.power_cycles);
        reg.add("gateway.faults.injected.dns", stats.dns_failures);
        for (i, class) in Category::ALL.iter().enumerate() {
            let label = class_label(*class);
            reg.add(&format!("gateway.class.{label}.arrived"), per_class[i][0]);
            reg.add(&format!("gateway.class.{label}.throttled"), per_class[i][1]);
        }
        // Middleware counters exist only when chains are registered,
        // so the chainless soak's counter section — and with it the
        // `gateway_service` golden fixture — is byte-identical to the
        // pre-middleware gateway.
        if self.chain_factory.is_some() {
            for stage in Stage::ALL {
                reg.add(
                    &format!("gateway.middleware.stage.{}.invocations", stage.label()),
                    mw_totals.invocations[stage.index()],
                );
            }
            reg.add("gateway.middleware.rewrites", mw_totals.rewrites);
            reg.add("gateway.middleware.intercepts", mw_totals.intercepts);
            reg.add("gateway.middleware.aborts", mw_totals.aborts);
            reg.add("gateway.middleware.sessions.intercepted", intercepted);
            reg.add("gateway.middleware.sessions.aborted", mw_aborted);
        }

        let counters: Vec<(String, u64)> =
            reg.counters().map(|(k, v)| (k.to_string(), v)).collect();
        self.ctx.merge_metrics(&reg);

        GatewayReport {
            ticks: total_ticks,
            admitted,
            completed,
            established,
            handshake_failed,
            deadline_exceeded,
            panicked,
            failed,
            rejected_overloaded,
            rejected_throttled,
            rejected_circuit_open,
            aborted,
            queue_peak,
            breakers_opened,
            breaker_probes,
            breakers_reclosed,
            bytes_replayed: bytes_total,
            classes: Category::ALL
                .iter()
                .enumerate()
                .map(|(i, c)| ClassRow {
                    class: class_label(*c),
                    arrived: per_class[i][0],
                    throttled: per_class[i][1],
                })
                .collect(),
            fault_stats: stats,
            counters,
        }
    }

    /// Drives one ticket on a worker: panic-isolated, pure in
    /// `(ctx.seed, plan, config, ticket)` — middleware chains
    /// included, provided they honour the [`ChainFactory`] contract.
    /// `prefixes` draw from the ctx's plan, one per flow entry, derived
    /// once per run.
    fn drive(
        &self,
        prefixes: &[FaultKeyPrefix],
        worker: &mut WorkerState,
        ticket: Ticket,
    ) -> SessionOutcome {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.drive_inner(prefixes, worker, ticket)
        })) {
            Ok(outcome) => outcome,
            Err(_) => SessionOutcome {
                verdict: SessionVerdict::Panicked,
                stats: FaultStats::default(),
                bytes: 0,
                rounds: 0,
                mw: ChainStats::default(),
            },
        }
    }

    /// The session proper: optional poison draw, then the tape replay
    /// with the lab's inline retry budget wrapped around healable
    /// faults (resets, garbles, DNS) — deadline overruns and power
    /// cycles are terminal, exactly as in [`crate::ActiveLab`].
    fn drive_inner(
        &self,
        prefixes: &[FaultKeyPrefix],
        worker: &mut WorkerState,
        ticket: Ticket,
    ) -> SessionOutcome {
        let cfg = &self.config;
        let entry = &self.flows[ticket.flow_idx];
        if cfg.poison_pm > 0 {
            let poisoned = Drbg::from_seed(self.ctx.seed())
                .fork("gateway-poison")
                .fork(&format!("{}", ticket.seq))
                .chance(cfg.poison_pm as f64 / 1000.0);
            if poisoned {
                panic!("poisoned session {}", ticket.seq);
            }
        }

        let WorkerState { scratch, chains, key } = worker;
        let mut chain = chains.get_mut(entry.endpoint_idx).and_then(Option::as_mut);
        let mut stats = FaultStats::default();
        let mut mw = ChainStats::default();
        if self.ctx.plan().is_none() {
            // Hot path: no fault-key formatting, no retry loop.
            let (out, verdict) = replay(
                &entry.flow,
                SessionFaults::none(),
                cfg.deadline_rounds,
                scratch,
                chain,
                &mut mw,
            );
            return SessionOutcome {
                verdict,
                stats,
                bytes: out.bytes_delivered,
                rounds: out.rounds_used as u64,
                mw,
            };
        }

        let mut faulted_tries = 0u64;
        let mut bytes = 0u64;
        let mut rounds = 0u64;
        let mut verdict = SessionVerdict::Failed(FailureCause::DnsFailure);
        for try_idx in 0..INLINE_RETRY_BUDGET {
            key.clear();
            write!(key, "{}/try{}", ticket.seq, try_idx)
                .expect("formatting into a String cannot fail");
            let faults = prefixes[ticket.flow_idx].session_faults(key);

            if faults.dns.is_some() {
                stats.dns_failures += 1;
                faulted_tries += 1;
                verdict = SessionVerdict::Failed(FailureCause::DnsFailure);
                if try_idx + 1 == INLINE_RETRY_BUDGET {
                    break;
                }
                stats.inline_retries += 1;
                stats.backoff_virtual_secs += 1 << try_idx;
                continue;
            }

            let session_faults = SessionFaults {
                ops: faults.ops,
                dns: None,
            };
            let (out, try_verdict) = replay(
                &entry.flow,
                session_faults,
                cfg.deadline_rounds,
                scratch,
                chain.as_deref_mut(),
                &mut mw,
            );
            verdict = try_verdict;
            stats.count_injected(&out.injected);
            bytes = out.bytes_delivered;
            rounds = out.rounds_used as u64;
            let power_cycled = out
                .injected
                .iter()
                .any(|f| matches!(f, InjectedFault::PowerCycle { .. }));
            match verdict {
                SessionVerdict::Established
                | SessionVerdict::HandshakeFailed
                | SessionVerdict::Intercepted => {
                    if faulted_tries > 0 {
                        stats.recovered += 1;
                    }
                    return SessionOutcome {
                        verdict,
                        stats,
                        bytes,
                        rounds,
                        mw,
                    };
                }
                // A deadline overrun already consumed the session's
                // time slice; re-dialing would double-bill it. A
                // middleware abort is a policy verdict on the bytes,
                // not a transient fault — retrying cannot change it.
                SessionVerdict::DeadlineExceeded | SessionVerdict::AbortedByMiddleware => break,
                _ => {}
            }
            faulted_tries += 1;
            if power_cycled || try_idx + 1 == INLINE_RETRY_BUDGET {
                break;
            }
            stats.inline_retries += 1;
            stats.backoff_virtual_secs += 1 << try_idx;
        }
        if faulted_tries > 0 {
            stats.unrecovered += 1;
        }
        SessionOutcome {
            verdict,
            stats,
            bytes,
            rounds,
            mw,
        }
    }
}

/// Fixed label order for the `failed` verdict tallies.
const FAILED_LABELS: [&str; 4] = ["reset", "garbled", "dns_failure", "wedged"];

/// Slot in [`FAILED_LABELS`] for a failure cause.
fn failed_slot(cause: FailureCause) -> usize {
    match cause {
        FailureCause::Reset => 0,
        FailureCause::Garbled => 1,
        FailureCause::DnsFailure => 2,
        FailureCause::Wedged => 3,
    }
}

/// Snake_case metrics label for a device class.
fn class_label(class: Category) -> &'static str {
    match class {
        Category::Camera => "camera",
        Category::SmartHub => "smart_hub",
        Category::HomeAutomation => "home_automation",
        Category::Tv => "tv",
        Category::Audio => "audio",
        Category::Appliance => "appliance",
    }
}

/// Verdict for a replay: a sticky middleware signal wins (the chain
/// ended the session); otherwise wedges become deadline overruns and
/// every other outcome keeps its cause.
fn chained_verdict(out: &ReplayOutcome, signal: Option<Signal>) -> SessionVerdict {
    match signal {
        Some(Signal::Intercept) => SessionVerdict::Intercepted,
        Some(Signal::Abort) => SessionVerdict::AbortedByMiddleware,
        None if out.established => SessionVerdict::Established,
        None => match out.failure {
            None => SessionVerdict::HandshakeFailed,
            Some(FailureCause::Wedged) => SessionVerdict::DeadlineExceeded,
            Some(cause) => SessionVerdict::Failed(cause),
        },
    }
}

/// One replay of `flow` — through the endpoint's `chain` when it has
/// one, merging the chain's per-session stats into `mw` — with its
/// session verdict.
fn replay(
    flow: &SessionFlow,
    faults: SessionFaults,
    deadline: usize,
    scratch: &mut ReplayScratch,
    chain: Option<&mut Chain>,
    mw: &mut ChainStats,
) -> (ReplayOutcome, SessionVerdict) {
    match chain {
        Some(ch) => {
            let out = replay_flow_chained(flow, faults, deadline, scratch, ch);
            let verdict = chained_verdict(&out, ch.terminal());
            mw.merge(&ch.take_stats());
            (out, verdict)
        }
        None => {
            let out = replay_flow_with(flow, faults, deadline, scratch);
            let verdict = chained_verdict(&out, None);
            (out, verdict)
        }
    }
}

/// Per-device-class admission tallies.
#[derive(Debug, Clone)]
pub struct ClassRow {
    /// Snake_case class label.
    pub class: &'static str,
    /// Arrivals of this class presented to the accept loop.
    pub arrived: u64,
    /// Arrivals rejected by this class's empty token bucket.
    pub throttled: u64,
}

/// The gateway's final drain snapshot: every session accounted for,
/// plus the run's full counter section.
#[derive(Debug, Clone)]
pub struct GatewayReport {
    /// Ticks the runtime executed (admission plus drain grace).
    pub ticks: u64,
    /// Sessions presented to the accept loop.
    pub admitted: u64,
    /// Sessions dispatched to a terminal verdict (panics included).
    pub completed: u64,
    /// Sessions whose replay completed and established.
    pub established: u64,
    /// Sessions whose endpoint declined on the clean link.
    pub handshake_failed: u64,
    /// Sessions that overran their round deadline.
    pub deadline_exceeded: u64,
    /// Sessions that panicked and were isolated.
    pub panicked: u64,
    /// Network-failure verdicts, in `FAILED_LABELS` order
    /// (reset, garbled, dns_failure, wedged).
    pub failed: [u64; 4],
    /// Arrivals rejected by the full ingress queue.
    pub rejected_overloaded: u64,
    /// Arrivals rejected by an empty class token bucket.
    pub rejected_throttled: u64,
    /// Arrivals rejected by an open circuit breaker.
    pub rejected_circuit_open: u64,
    /// Sessions still queued when the drain grace expired.
    pub aborted: u64,
    /// Deepest the ingress queue ever got.
    pub queue_peak: u64,
    /// Breaker trips (closed→open and half-open→open).
    pub breakers_opened: u64,
    /// Half-open probes dispatched.
    pub breaker_probes: u64,
    /// Breakers reclosed by a successful probe.
    pub breakers_reclosed: u64,
    /// Total bytes delivered across every replay.
    pub bytes_replayed: u64,
    /// Per-class admission tallies, in [`Category::ALL`] order.
    pub classes: Vec<ClassRow>,
    /// Injected-fault and retry counters across every session.
    pub fault_stats: FaultStats,
    /// The run's full counter section (sorted by name) — part of the
    /// report so the byte-identity guarantee covers the counters too.
    pub counters: Vec<(String, u64)>,
}

impl GatewayReport {
    /// Total rejected arrivals, every class combined.
    pub fn rejected(&self) -> u64 {
        self.rejected_overloaded + self.rejected_throttled + self.rejected_circuit_open
    }

    /// Total network-failure verdicts.
    pub fn failed_total(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// The drain invariant: every admitted session is either
    /// completed, rejected, or aborted — none silently lost.
    pub fn invariant_holds(&self) -> bool {
        self.admitted == self.completed + self.rejected() + self.aborted
    }

    /// Plain-text rendering (the `gateway_service` golden fixture).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("gateway service drain snapshot\n");
        out.push_str(&format!("ticks: {}\n", self.ticks));
        out.push_str(&format!(
            "admitted: {} = completed {} + rejected {} + aborted {} (invariant: {})\n",
            self.admitted,
            self.completed,
            self.rejected(),
            self.aborted,
            if self.invariant_holds() { "holds" } else { "VIOLATED" },
        ));
        out.push_str(&format!(
            "verdicts: established {} / handshake_failed {} / deadline_exceeded {} / panicked {}\n",
            self.established, self.handshake_failed, self.deadline_exceeded, self.panicked,
        ));
        for (i, label) in FAILED_LABELS.iter().enumerate() {
            out.push_str(&format!("failed.{label}: {}\n", self.failed[i]));
        }
        out.push_str(&format!(
            "rejected: overloaded {} / throttled {} / circuit_open {}\n",
            self.rejected_overloaded, self.rejected_throttled, self.rejected_circuit_open,
        ));
        out.push_str(&format!(
            "queue peak: {} | breakers: opened {} probes {} reclosed {}\n",
            self.queue_peak, self.breakers_opened, self.breaker_probes, self.breakers_reclosed,
        ));
        for row in &self.classes {
            out.push_str(&format!(
                "class {}: arrived {} throttled {}\n",
                row.class, row.arrived, row.throttled
            ));
        }
        out.push_str("counters:\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("  {name}: {value}\n"));
        }
        out
    }
}

impl Report for GatewayReport {
    fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as i128);
        Json::Obj(vec![
            ("ticks".into(), num(self.ticks)),
            ("admitted".into(), num(self.admitted)),
            ("completed".into(), num(self.completed)),
            ("established".into(), num(self.established)),
            ("handshake_failed".into(), num(self.handshake_failed)),
            ("deadline_exceeded".into(), num(self.deadline_exceeded)),
            ("panicked".into(), num(self.panicked)),
            (
                "failed".into(),
                Json::Obj(
                    FAILED_LABELS
                        .iter()
                        .enumerate()
                        .map(|(i, l)| (l.to_string(), num(self.failed[i])))
                        .collect(),
                ),
            ),
            ("rejected_overloaded".into(), num(self.rejected_overloaded)),
            ("rejected_throttled".into(), num(self.rejected_throttled)),
            (
                "rejected_circuit_open".into(),
                num(self.rejected_circuit_open),
            ),
            ("aborted".into(), num(self.aborted)),
            ("queue_peak".into(), num(self.queue_peak)),
            ("breakers_opened".into(), num(self.breakers_opened)),
            ("breaker_probes".into(), num(self.breaker_probes)),
            ("breakers_reclosed".into(), num(self.breakers_reclosed)),
            ("bytes_replayed".into(), num(self.bytes_replayed)),
            (
                "classes".into(),
                Json::Arr(
                    self.classes
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("class".into(), Json::Str(c.class.into())),
                                ("arrived".into(), num(c.arrived)),
                                ("throttled".into(), num(c.throttled)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("fault_stats".into(), fault_stats_json(&self.fault_stats)),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn fixtures(&self) -> &'static [&'static str] {
        &["gateway_service"]
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        Some(&self.fault_stats)
    }
}

impl Experiment for GatewayService {
    type Report = GatewayReport;

    fn name(&self) -> &'static str {
        "gateway_service"
    }

    /// Runs the canonical gateway soak: default config, the ctx's
    /// fault plan, and the ctx's worker pool.
    fn run(&self, testbed: &Testbed, ctx: &ExperimentCtx) -> GatewayReport {
        Gateway::new(testbed, ctx, GatewayConfig::default()).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seed: u64) -> ExperimentCtx {
        ExperimentCtx::builder().seed(seed).threads(2).build()
    }

    #[test]
    fn token_bucket_throttles_and_refills() {
        let mut b = TokenBucket::new(2, 1);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take(), "empty bucket throttles");
        b.refill();
        assert_eq!(b.available(), 1);
        assert!(b.try_take());
        b.refill();
        b.refill();
        b.refill();
        assert_eq!(b.available(), 2, "refill saturates at capacity");
    }

    #[test]
    fn breaker_walks_the_full_state_machine() {
        let mut br = CircuitBreaker::new(3, 4, 0xB4EA);
        assert_eq!(br.state(), BreakerState::Closed);
        assert!(!br.on_failure(0));
        assert!(!br.on_failure(0));
        assert!(br.on_failure(0), "third consecutive failure trips");
        assert_eq!(br.state(), BreakerState::Open);
        assert_eq!(br.admit(), BreakerAdmit::Reject);
        // Window: base 4 + jitter in [0, 4). Tick far enough ahead.
        br.tick(3);
        assert_eq!(br.state(), BreakerState::Open, "window not elapsed");
        br.tick(8);
        assert_eq!(br.state(), BreakerState::HalfOpen);
        assert_eq!(br.admit(), BreakerAdmit::Probe, "one probe per window");
        assert_eq!(br.admit(), BreakerAdmit::Reject, "second caller rejected");
        assert!(br.on_failure(8), "failed probe reopens");
        assert_eq!(br.state(), BreakerState::Open);
        br.tick(100);
        assert_eq!(br.admit(), BreakerAdmit::Probe);
        assert!(br.on_success(), "successful probe recloses");
        assert_eq!(br.state(), BreakerState::Closed);
        assert_eq!(br.admit(), BreakerAdmit::Allow);
    }

    #[test]
    fn breaker_success_resets_the_failure_streak() {
        let mut br = CircuitBreaker::new(3, 4, 1);
        br.on_failure(0);
        br.on_failure(0);
        br.on_success();
        assert!(!br.on_failure(1));
        assert!(!br.on_failure(1));
        assert_eq!(br.state(), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn clean_soak_accounts_for_every_session() {
        let ctx = ctx(0x6A7E);
        let testbed = Testbed::global();
        let gw = Gateway::new(testbed, &ctx, GatewayConfig::default());
        assert!(gw.flow_count() > 30, "roster: {}", gw.flow_count());
        assert!(gw.endpoint_count() > 10);
        let report = gw.run();
        assert!(report.invariant_holds(), "{}", report.render());
        assert!(report.established > 0);
        assert!(report.rejected_throttled > 0, "default config must throttle");
        assert!(report.rejected_overloaded > 0, "default config must backpressure");
        assert_eq!(report.panicked, 0);
        assert_eq!(report.fault_stats, FaultStats::default());
        assert_eq!(report.aborted, 0, "clean soak drains fully");
    }

    #[test]
    fn report_fixture_names_are_wired() {
        let report = GatewayReport {
            ticks: 0,
            admitted: 0,
            completed: 0,
            established: 0,
            handshake_failed: 0,
            deadline_exceeded: 0,
            panicked: 0,
            failed: [0; 4],
            rejected_overloaded: 0,
            rejected_throttled: 0,
            rejected_circuit_open: 0,
            aborted: 0,
            queue_peak: 0,
            breakers_opened: 0,
            breaker_probes: 0,
            breakers_reclosed: 0,
            bytes_replayed: 0,
            classes: Vec::new(),
            fault_stats: FaultStats::default(),
            counters: Vec::new(),
        };
        assert_eq!(report.fixtures(), &["gateway_service"]);
        assert!(report.invariant_holds());
        assert!(report.render().contains("invariant: holds"));
    }
}

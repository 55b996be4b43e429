//! Allocation discipline for the gateway's steady-state replay path.
//!
//! The whole point of the sans-IO rework is that a lane looping over
//! sessions stops paying the allocator per session. This harness
//! installs a counting global allocator (a thin shim over the system
//! allocator) and *proves* it: after one warmup replay, N clean
//! replays through [`replay_flow_with`] with a warm [`ReplayScratch`]
//! perform **zero** heap allocations in total.
//!
//! The worker pool the gateway hands its batches to is held to the
//! same discipline per batch: once warm, a batch of 4,096 items costs
//! no more allocations than one of 64. A fault draw, through either
//! entry, allocates only the `ops` list it returns: once when a fault
//! op was drawn, never for a draw without one.
//!
//! It also pins the encode path's byte identity: the sans-IO
//! [`write_record`] writer must produce exactly the bytes of the
//! legacy `Record::fragment` + `Record::encode` oracle under
//! corruption-sweep-style inputs (truncated, oversized, and
//! boundary-length payloads), so golden wire fixtures cannot shift.

use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_simnet::mux::{replay_flow_chained, replay_flow_with, ReplayScratch, SessionFlow};
use iotls_simnet::{with_pool, FaultPlan, SessionFaults};
use iotls_tls::client::{ClientConfig, ClientConnection};
use iotls_tls::middleware::{Chain, RecordCounter};
use iotls_tls::record::MAX_FRAGMENT;
use iotls_tls::server::{ServerConfig, ServerConnection};
use iotls_tls::version::ProtocolVersion;
use iotls_tls::{write_record, ContentType, Record, SessionBuf};
use iotls_x509::{CertifiedKey, DistinguishedName, IssueParams, RootStore, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// System allocator with an allocation counter. Deallocations and
/// shrinking reallocs are free; anything that can touch fresh memory
/// counts, on the threads a test measures.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count. The harness spawns
    /// and reports tests on threads of its own while another test
    /// measures, so only the threads a test marks count: its own
    /// (through [`measured`]) and the pool workers it measures.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count_allocation() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

fn count_this_thread() {
    COUNTED.with(|c| c.set(true));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The test harness runs `#[test]`s on parallel threads by default;
/// the counter is process-global, so anything measuring it holds this
/// lock (and so does every other test in this binary, to keep its
/// allocations out of a concurrent measurement window).
static MEASURE: Mutex<()> = Mutex::new(());

/// The measurement lock, held for a test's whole body, while this
/// thread's allocations count.
struct Measured {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Measured {
    /// Stops counting this thread before the lock is released, so what
    /// the harness allocates on it after the test returns (reporting
    /// the result) never lands in the next test's window.
    fn drop(&mut self) {
        COUNTED.with(|c| c.set(false));
    }
}

/// Takes the measurement lock and counts this thread's allocations
/// until the returned guard drops.
fn measured() -> Measured {
    let lock = MEASURE.lock().unwrap();
    count_this_thread();
    Measured { _lock: lock }
}

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A minimal valid PKI + endpoint pair, as in the driver e2e tests.
fn endpoints() -> (ClientConnection, ServerConnection) {
    let key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(0xA110C));
    let root = CertifiedKey::self_signed(
        IssueParams::ca(
            DistinguishedName::new("Alloc Root", "SimCA", "US"),
            1,
            Timestamp::from_ymd(2015, 1, 1),
            7300,
        ),
        key,
    );
    let leaf_key = RsaPrivateKey::generate(512, &mut Drbg::from_seed(0xA110D));
    let leaf = root.issue(
        IssueParams::leaf("cloud.example.com", 2, Timestamp::from_ymd(2020, 6, 1), 500),
        &leaf_key,
    );
    let client = ClientConnection::new(
        ClientConfig::modern(RootStore::from_certs([root.cert.clone()])),
        "cloud.example.com",
        Timestamp::from_ymd(2021, 3, 1),
        Drbg::from_seed(1),
    );
    let server = ServerConnection::new(ServerConfig::typical(vec![leaf], leaf_key), Drbg::from_seed(2));
    (client, server)
}

#[test]
fn steady_state_replay_allocates_nothing_per_session() {
    let _guard = measured();

    // Record one clean tape (allocates freely; this is per-flow setup,
    // amortized over every multiplexed session that replays it).
    let (client, server) = endpoints();
    let flow = SessionFlow::record(client, server, Some(b"ping"), Some(b"ok"));
    assert!(flow.established, "clean tape must establish");

    // Warmup: the first replay grows the scratch's wire buffer to the
    // tape's largest chunk.
    let mut scratch = ReplayScratch::new();
    let warm = replay_flow_with(&flow, SessionFaults::none(), 64, &mut scratch);
    assert!(warm.established);

    const SESSIONS: u64 = 100;
    let before = allocations();
    for _ in 0..SESSIONS {
        let outcome = replay_flow_with(&flow, SessionFaults::none(), 64, &mut scratch);
        assert!(outcome.established);
        assert_eq!(outcome.bytes_delivered, flow.total_bytes());
    }
    let allocs = allocations() - before;
    let per_session = allocs / SESSIONS;
    assert_eq!(
        per_session, 0,
        "steady-state replay must not touch the allocator: \
         {allocs} allocations across {SESSIONS} sessions"
    );
    // Not just amortized-below-one: literally zero.
    assert_eq!(allocs, 0, "no allocation in the whole measured window");
}

#[test]
fn steady_state_chained_replay_allocates_nothing_per_session() {
    let _guard = measured();

    let (client, server) = endpoints();
    let flow = SessionFlow::record(client, server, Some(b"ping"), Some(b"ok"));
    assert!(flow.established, "clean tape must establish");

    // An observe-only chain: the counter reads every record through
    // the hook surface but never rewrites or intercepts. Warmup grows
    // the scratch wire buffer AND the chain's per-direction deframer
    // buffers to the tape's largest chunk.
    let mut chain = Chain::new().with(Box::new(RecordCounter::default()));
    let mut scratch = ReplayScratch::new();
    let warm = replay_flow_chained(&flow, SessionFaults::none(), 64, &mut scratch, &mut chain);
    assert!(warm.established);

    const SESSIONS: u64 = 100;
    let before = allocations();
    for _ in 0..SESSIONS {
        let outcome =
            replay_flow_chained(&flow, SessionFaults::none(), 64, &mut scratch, &mut chain);
        assert!(outcome.established);
        assert_eq!(outcome.bytes_delivered, flow.total_bytes());
    }
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "observe-only chained replay must not touch the allocator: \
         {allocs} allocations across {SESSIONS} sessions"
    );
    let counter = chain
        .middleware_mut::<RecordCounter>(0)
        .expect("counter rides at slot 0");
    assert!(
        counter.c2s_records + counter.s2c_records > 0,
        "the chain must actually have observed records"
    );
}

#[test]
fn a_warm_pool_allocates_no_more_for_a_long_batch_than_a_short_one() {
    let _guard = measured();
    with_pool(2, count_this_thread, |(), _: u32| std::thread::current().id(), |pool| {
        // Warm-up: each worker allocates its block buffers when it
        // starts, and the pool's output slots grow to the longest
        // batch. Run long batches until both workers have taken items.
        let mut workers = Vec::new();
        for _ in 0..1_000 {
            for id in pool.map(vec![0; 4_096]) {
                if !workers.contains(&id) {
                    workers.push(id);
                }
            }
            if workers.len() == 2 {
                break;
            }
        }
        assert_eq!(workers.len(), 2, "both workers must have run items");

        let mut batch_allocations = |len: usize| {
            let items = vec![0; len];
            let before = allocations();
            let out = pool.map(items);
            let allocs = allocations() - before;
            assert_eq!(out.len(), len);
            allocs
        };
        let short = batch_allocations(64);
        let long = batch_allocations(4_096);
        assert!(
            long <= short,
            "a 4,096-item batch made {long} allocations, a 64-item batch {short}"
        );
        assert!(short <= 1, "a batch allocates only its output vector, made {short}");
    });
}

#[test]
fn a_fault_draw_allocates_only_the_ops_it_returns() {
    let _guard = measured();
    let sampler = FaultPlan::uniform(0xA110F, 300).sampler();
    let prefix = "gw/Zmodo Doorbell/api.zmodo.example/";
    let absorbed = sampler.key_prefix(prefix);
    let mut rest = String::with_capacity(64);
    let mut key = String::with_capacity(128);
    let mut drawn = [0u32; 2]; // [without ops, with ops]
    for seq in 0..2_000u64 {
        rest.clear();
        write!(rest, "{seq}/try{}", seq % 6).unwrap();
        key.clear();
        write!(key, "{prefix}{rest}").unwrap();

        let before = allocations();
        let prefixed = absorbed.session_faults(&rest);
        let prefixed_allocs = allocations() - before;
        let before = allocations();
        let whole = sampler.session_faults(&key);
        let whole_allocs = allocations() - before;

        let want = u64::from(!prefixed.ops.is_empty());
        assert_eq!(
            prefixed_allocs, want,
            "prefixed draw of {key}: {prefixed:?}"
        );
        assert_eq!(whole_allocs, want, "whole-key draw of {key}: {whole:?}");
        drawn[want as usize] += 1;
    }
    assert!(
        drawn.iter().all(|&n| n > 100),
        "both kinds of draw must be common: {drawn:?}"
    );
}

#[test]
fn encode_into_matches_legacy_encode_under_sweep_inputs() {
    let _guard = measured();

    // Corruption-sweep-style inputs: the adversarial suites mutate
    // payload lengths around every boundary the record layer cares
    // about. The sans-IO writer must agree with the legacy oracle on
    // all of them, byte for byte.
    let mut rng = Drbg::from_seed(0x00B1_7E1D).fork("encode-identity");
    let boundary_lens = [
        0usize,
        1,
        4,
        5,
        MAX_FRAGMENT - 1,
        MAX_FRAGMENT,
        MAX_FRAGMENT + 1,
        2 * MAX_FRAGMENT,
        2 * MAX_FRAGMENT + 17,
    ];
    let mut out = SessionBuf::new();
    for (i, &len) in boundary_lens.iter().enumerate() {
        let mut payload = vec![0u8; len];
        rng.fill_bytes(&mut payload);
        for ct in [
            ContentType::ChangeCipherSpec,
            ContentType::Alert,
            ContentType::Handshake,
            ContentType::ApplicationData,
        ] {
            out.clear();
            write_record(ct, ProtocolVersion::Tls12, &payload, &mut out);
            let legacy: Vec<u8> = Record::fragment(ct, ProtocolVersion::Tls12, &payload)
                .iter()
                .flat_map(|r| r.encode())
                .collect();
            assert_eq!(out.as_slice(), &legacy[..], "case {i}, len {len}, {ct:?}");
        }
    }

    // Single-record encode_into against encode on the same sweep
    // (per-record identity, not just per-stream).
    for &len in &boundary_lens {
        if len > MAX_FRAGMENT {
            continue; // Record::new asserts the single-fragment bound.
        }
        let mut payload = vec![0u8; len];
        rng.fill_bytes(&mut payload);
        let rec = Record::new(ContentType::Handshake, ProtocolVersion::Tls11, payload);
        let mut into = Vec::new();
        rec.encode_into(&mut into);
        assert_eq!(into, rec.encode(), "len {len}");
    }
}

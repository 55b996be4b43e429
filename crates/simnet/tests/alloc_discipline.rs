//! Allocation discipline for the gateway's steady-state replay path.
//!
//! The whole point of the sans-IO rework is that a lane looping over
//! sessions stops paying the allocator per session. This harness
//! installs a counting global allocator (a thin shim over the system
//! allocator) and *proves* it: after one warmup replay, N clean
//! replays through [`replay_flow_with`] with a warm [`ReplayScratch`]
//! perform **zero** heap allocations in total.
//!
//! It also pins the encode path's byte identity: the sans-IO
//! [`write_record`] writer must produce exactly the bytes of the
//! legacy `Record::fragment` + `Record::encode` oracle under
//! corruption-sweep-style inputs (truncated, oversized, and
//! boundary-length payloads), so golden wire fixtures cannot shift.

use iotls_crypto::drbg::Drbg;
use iotls_crypto::rsa::RsaPrivateKey;
use iotls_simnet::mux::{replay_flow_chained, replay_flow_with, ReplayScratch, SessionFlow};
use iotls_simnet::SessionFaults;
use iotls_tls::client::{ClientConfig, ClientConnection};
use iotls_tls::middleware::{Chain, RecordCounter};
use iotls_tls::record::MAX_FRAGMENT;
use iotls_tls::server::{ServerConfig, ServerConnection};
use iotls_tls::version::ProtocolVersion;
use iotls_tls::{write_record, ContentType, Record, SessionBuf};
use iotls_x509::{CertifiedKey, DistinguishedName, IssueParams, RootStore, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// System allocator with an allocation counter. Deallocations and
/// shrinking reallocs are free; anything that can touch fresh memory
/// counts.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
    let _guard = MEASURE.lock().unwrap();

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
    let _guard = MEASURE.lock().unwrap();

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
fn encode_into_matches_legacy_encode_under_sweep_inputs() {
    let _guard = MEASURE.lock().unwrap();

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

#!/usr/bin/env sh
# Tier-1 gate: offline release build, lint gate, and the full workspace
# test suite (which already includes the chaos fault-injection
# experiments under tests/). Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

start=$(date +%s)

cargo build --release --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo test -q --offline --workspace
# Golden-snapshot suite: every exported paper artifact (Tables 4-9,
# Figures 1-5, §5.1 summary) pinned against tests/golden/ fixtures.
# Part of the workspace run above; repeated by name so a fixture drift
# is called out explicitly in the tier-1 log.
cargo test -q --offline --test golden_artifacts
# Gateway robustness suite: the drain invariant (admitted == completed
# + rejected + aborted under mid-stream shutdown), worker-count
# byte-identity, breaker behavior, panic isolation, and the 0%/100%
# fault-plan extremes. Also in the workspace run; repeated by name so
# a gateway regression is called out explicitly.
cargo test -q --offline --test gateway_service
cargo test -q --offline --test chaos_experiments gateway_survives_fault_plan_extremes
# On-disk store suite: roundtrip byte-fidelity of a one-segment store,
# directory pruning, the codec corruption sweeps over its segment file
# (truncation at every offset and every single-bit flip must surface
# as typed errors, never a panic), the manifest sweeps, torn-append
# recovery, and a CRC-valid manifest that names one segment twice,
# which must not open. Also in the workspace run; repeated by name so
# a persistence regression is called out explicitly.
cargo test -q --offline --test store_persistence
cargo test -q --offline --test store_persistence manifest_naming_a_segment_twice_is_corrupt
# Segmented store suite: arbitrary segment splits vs the one-segment
# oracle (every chunk in one segment file), incremental append vs
# one-shot build, pruning soundness against a brute-force row filter,
# and the read-counting proof that skipped segments are never
# touched. Also in the workspace run; repeated by name so a
# segmented-store regression is called out explicitly.
cargo test -q --offline --test segmented_store
# Design ablations as checked claims: the alert side channel (one
# success/failure class, two first-alert classes over 20 spoofed-CA
# probes), probe scheduling (21 connections from 3 instances in one
# Fire TV boot; 1 handshake per reboot probe vs 9 per batched Echo Dot
# boot), and fingerprint features (33 full JA3 vs 27 version+ciphers
# fingerprints). Also in the workspace run; repeated by name so a
# drift from the counts EXPERIMENTS.md states is called out.
cargo test -q --offline --test ablations
# Middleware-chain suite: chained-gateway byte-identity across worker
# counts, the audit- and survey-as-middleware oracles (held to the
# report digests of the byte-feed tap sweeps they once ran beside),
# the benign-roster zero-false-positive check for the drift
# detector, and empty/observe-chain replay equivalence. Also in the
# workspace run; repeated by name so a hook-dispatch regression is
# called out explicitly.
cargo test -q --offline --test middleware_chain
# Session-path pins: every engine's report and counter digests, and
# the seed-scale capture's, at 0, 50 and 200 per mille uniform faults,
# held to the values of the byte-feed tap path the chain-fed driver
# replaced. Also in the workspace run; repeated by name so a drift in
# what the one session path drives or observes is called out
# explicitly.
cargo test -q --offline --test session_path_pins
# Attacker sharing: at one worker, each active engine run derives
# exactly one attacker per distinct lab seed (audit 3, root probe 3,
# downgrade 2, old-version 2, survey 1, auditor 1), before its
# per-device fan-out, and every lab built from that seed borrows it.
# Also in the workspace run; repeated by name so a derivation that
# slips back into the fan-out (two RSA-512 key generations per lab)
# is called out explicitly.
cargo test -q --offline -p iotls --lib lab::tests::each_engine_derives_one_attacker_per_lab_seed
# Exponentiation kernels: the fixed-width Montgomery multiply and
# squaring kernels against the schoolbook oracle at every limb count
# the dispatch serves (4, 8, 12) and one it does not (6), over edge
# moduli, bases and exponents; the fixed-base DH table against the
# variable-base ladder at every exponent length; and Oakley key pairs,
# one RSA key and one RSA-CRT signature pinned to values captured
# before the kernels changed. Keys own their contexts: a clone of an
# RSA key shares both CRT contexts, and public keys with an even, a
# unit or an empty modulus (the generic ladder, with no cache in front
# of it) fail verification with a typed error and encrypt without a
# panic. Also in the workspace run; repeated by name so a kernel drift
# is called out in milliseconds, before session_path_pins catches it
# indirectly through the engine digests.
cargo test -q --offline -p iotls-crypto --test proptests montgomery
cargo test -q --offline -p iotls-crypto --lib -- mont::tests dh::tests \
    rsa::tests::keygen_is_pinned rsa::tests::crt_signature_is_pinned \
    rsa::tests::clones_share_both_crt_contexts \
    rsa::tests::hostile_public_keys_fail_without_panicking
# Store codec and passive fold: SHA-256 pins of the segment file three
# one-segment stores lay down (the bytes the former single-file format
# wrote, captured before the bulk column encode and the three-chain
# CRC-32C landed) and of two multi-segment stores; every CRC-32C
# kernel against the bytewise oracle at lengths around the three-chain
# stride and at every start offset, and the shift tables against
# shifting through zero bytes; the block run scan of add_chunk and
# add_chunk_window against the row-wise fold oracle; and the
# chunk-to-segment mapping across empty segments. Also in the
# workspace run; repeated by name so a codec or fold drift is called
# out explicitly.
cargo test -q --offline --test store_persistence single_file_store_bytes_are_pinned
cargo test -q --offline --test segmented_store -- segmented_store_bytes_are_pinned \
    empty_segments_never_own_a_chunk
cargo test -q --offline -p iotls-capture --lib -- store::tests::crc store::tests::shift \
    store::tests::streaming
cargo test -q --offline -p iotls --lib -- passive::tests::block_scan
# Column-wise frame reads and the scan pool: the column reader against
# the retired full-frame decode (kept as a test oracle) on every chunk
# of a generated multi-chunk store, through one reused buffer and
# through fresh ones; CRC-valid hostile frames (symbols past their
# tables, NO_SYM in a required column, spans past their pools, pool
# lengths past the frame, a directory length short of the fixed
# columns, trailing bytes) and every byte of a frame flipped under a
# recomputed CRC, each giving both readers the same StoreError and
# neither a panic; and the store's scan pool (scans in a row reuse one
# buffer, concurrent scans get one each, a failed scan returns its
# buffer). Also in the workspace run; repeated by name so a reader or
# pool regression is called out explicitly.
cargo test -q --offline -p iotls-capture --lib -- \
    store::tests::column_reader_matches_the_full_frame_oracle_on_every_chunk \
    store::tests::hostile_frames_fail_alike_in_both_readers \
    segstore::tests::scans_in_a_row_reuse_one_buffer \
    segstore::tests::concurrent_scans_get_their_own_buffers \
    segstore::tests::a_failed_scan_leaves_the_pool_usable
# Pooled, chained gateway: the chained gateway's report and JSON
# digests at 0, 20 and 100 per mille faults and at 1, 2 and 8 workers,
# held to values recorded before the drift detector compared enrolled
# bodies and the gateway kept one worker pool per run; the pool's
# input order over successive batches, per-worker state, inline path
# and panic propagation, and its per-batch allocation bound; the drift
# detector against edited certificate bodies and a tape fed one byte
# at a time. Also in the workspace run; repeated by name so a drift in
# what the pool or the detector decides is called out explicitly.
cargo test -q --offline --test middleware_chain chained_gateway_report_is_pinned_at_every_worker_count
cargo test -q --offline -p iotls-simnet --lib -- par::tests
cargo test -q --offline -p iotls-simnet --test alloc_discipline a_warm_pool_allocates
cargo test -q --offline -p iotls --lib -- detect::tests
# One tally: every lab engine reads its report's FaultStats (and the
# audit and root probe their CacheStats) back from the registry it
# merged, so the independent check is the link conditioner's
# `sim.faults.injected.*` count, held to each of the six engines'
# fault reports under the chaos plan; plus the export/read-back round
# trips of both stats structs (distinct fields, summed exports, and no
# key for a zero tally). Also in the workspace run; repeated by name so
# a double count or a swallowed fault is called out explicitly.
cargo test -q --offline --test chaos_experiments fault_counters_exactly_match_the_injected_schedule
cargo test -q --offline -p iotls --lib -- lab::tests::fault_stats_survive_export_and_read_back \
    lab::tests::two_fault_exports_read_back_as_their_sum lab::tests::zero_fault_stats_export_no_key
cargo test -q --offline -p iotls-x509 --lib -- cache::tests::cache_stats_survive_export_and_read_back \
    cache::tests::two_cache_exports_read_back_as_their_sum cache::tests::zero_cache_stats_export_no_key
# One lab, one device: the lab unit tests (legitimate and intercepted
# connections, fallback retries, the Yi quirk, passthrough, flaky
# boots, fault recovery, DNS-fault retries, the verification cache,
# attacker sharing) and the chaos determinism check build every lab
# through the one constructor, bound to one roster device, from a ctx
# with explicit worker and metrics knobs. Also in the workspace run;
# repeated by name so a lab that drifts from the engines' construction
# path is called out explicitly.
cargo test -q --offline -p iotls --lib lab::tests
cargo test -q --offline --test chaos_experiments chaos_runs_are_deterministic
# One dataset form: the JSON codec (string runs copied whole, exactly
# 32 ASCII hex digits per fingerprint, every char-boundary prefix and
# hostile value of an export rejected without a panic), the seed-scale
# export parsed back into the columnar dataset and re-exported byte for
# byte with an equal analysis, and the row-scan oracle over rows
# decoded from the columnar capture. Also in the workspace run;
# repeated by name so a codec or decoder drift is called out
# explicitly.
cargo test -q --offline -p iotls-capture --lib -- json::tests serialize::tests
cargo test -q --offline --test dataset_and_reports full_dataset_json_roundtrip
cargo test -q --offline -p iotls --lib passive::tests::accumulator_matches_legacy_row_scan_exactly
# Fault draws at half the cost, with the schedule unchanged: the
# two-block AVX2 ChaCha20 refill against the scalar block (random keys
# and nonces, counters at the u32 wrap, every chunking from 1 to 130
# bytes, through the keystream and XOR buffering); a fork prefix
# absorbed once against the fork of the joined label at every split
# point; the prefixed fault draw against the whole-key draw over
# gateway-shaped keys; one allocation per draw that returns fault ops
# and none otherwise; and the pinned fork stream and per-class draws
# that hold the schedule itself. Also in the workspace run; repeated by
# name so a keystream, fork or draw drift is called out explicitly.
cargo test -q --offline -p iotls-crypto --lib -- chacha20::tests::refill_paths_match_the_scalar_block \
    drbg::tests::fork_prefix_forks_what_the_joined_label_forks \
    drbg::tests::fault_plan_fork_stream_is_pinned
cargo test -q --offline -p iotls-simnet --lib -- fault::tests::prefixed_draws_match_the_joined_key \
    fault::tests::session_faults_are_pinned
cargo test -q --offline -p iotls-simnet --test alloc_discipline a_fault_draw_allocates_only_the_ops_it_returns
# Set-up keys on two threads, bit-identical: every CA key of the
# universe (all four fates) and every cloud endpoint (hostname, key,
# leaf certificate, issuer and staple), pinned before the prime search
# moved its later Miller-Rabin rounds onto a helper thread, beside the
# 209 probe-set keys; the prime batch against the oracle search called
# in sequence at 18 and 20 bits, where deferred rounds fail and streams
# rewind, with and without the helper; the RSA batch against sequential
# key generation; a shared hostname provisioned for its first device;
# and the one-prime search against the oracle draw for draw. Also in
# the workspace run; repeated by name so a key, rewind or provisioning
# drift is called out explicitly.
cargo test -q --offline -p iotls-crypto --lib -- prime::tests::batches_match_the_oracle_search_draw_for_draw \
    prime::tests::a_batch_waits_for_its_last_verdict \
    prime::tests::batch_streams_without_primes_are_left_alone \
    prime::tests::prime_search_matches_the_oracle_draw_for_draw \
    rsa::tests::batches_match_sequential_generate
cargo test -q --offline -p iotls-rootstore --lib -- ca::tests::every_universe_key_is_pinned \
    tests::probe_set_keys_are_pinned
cargo test -q --offline -p iotls-devices --lib -- testbed::tests::every_cloud_endpoint_is_pinned \
    cloud::tests::a_shared_hostname_is_provisioned_for_its_first_device
# One TLS codec: the endpoints write through write_record,
# HandshakeMessage::encode_into and encode_extensions_into, and the
# endpoints and the gateway tap read handshakes through
# HandshakeMessage::decode. The encoders against their independently
# written oracles (test-local, under other names), next_raw_message's
# split against decode's consumed length and error on every
# single-byte corruption, the roundtrip properties through the
# production encoders, and the tap's observation of a ClientHello and
# of a ServerHello..ServerHelloDone flight, each under every
# single-byte corruption, against the observation decode walks out of
# the same payloads. Also in the workspace run; repeated by name so a
# codec or tap drift is called out explicitly.
cargo test -q --offline -p iotls-tls --lib -- handshake::tests::raw_skim_agrees_with_decode \
    handshake::tests::encode_into_matches_legacy_encode extension::tests::encode_into_matches_legacy_encode \
    record::tests::fragmentation_respects_limit record::tests::empty_payload_fragment \
    record::tests::encode_into_matches_encode_oracle record::tests::write_record_matches_fragment_plus_encode
cargo test -q --offline -p iotls-tls --test proptests
cargo test -q --offline -p iotls-tls --test record_roundtrip write_record_matches_fragment_encode_oracle
cargo test -q --offline -p iotls-simnet --lib -- tap::tests::tap_reads_what_the_endpoints_decode_reads
cargo test -q --offline -p iotls-simnet --test alloc_discipline encode_into_matches_legacy_encode_under_sweep_inputs
# Quickstart under faults: every connection recovers through the lab's
# reconnect budget and an outcome still tainted after it is printed,
# not asserted on, so a documented flag value exits 0.
cargo run -q --release --offline --example quickstart -- --faults 200 > /dev/null

# Docs gate: rustdoc warnings (broken intra-doc links, bad code
# fences) fail tier-1, same as clippy warnings do.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Allocation-discipline gate: the source regions bracketed by
# "ALLOC-FREE: begin/end" markers (the tls record write path, the
# middleware hook dispatch, the simnet drive and replay loops, and the
# detection hooks) are the per-session hot path, and none of them
# allocates a buffer of its own. The counting-allocator test proves
# only the replay loop allocation-free at runtime; the drive loop's
# endpoints still allocate their handshake state. Fail fast here if an
# allocating call is reintroduced textually, so the regression is
# caught before any bench runs.
if ! awk '
    /ALLOC-FREE: begin/ { inside = 1; next }
    /ALLOC-FREE: end/   { inside = 0; next }
    inside && /to_vec\(\)|Vec::new\(\)|\.clone\(\)/ {
        printf "%s:%d: %s\n", FILENAME, FNR, $0; found = 1
    }
    END { exit found }
' crates/tls/src/record.rs crates/tls/src/middleware.rs \
  crates/simnet/src/driver.rs crates/simnet/src/mux.rs crates/core/src/detect.rs; then
    echo "tier1: FAILED (allocating call inside an ALLOC-FREE region)" >&2
    exit 1
fi

# API-surface gate: the per-engine `_with`/`_metered` variant matrix
# was collapsed into ExperimentCtx; fail if a new variant sneaks back
# into the engine crate.
if grep -rnE 'fn [a-z_]+_(with|metered)\(' crates/core/src; then
    echo "tier1: FAILED (_with/_metered engine variant reintroduced in crates/core/src)" >&2
    exit 1
fi

# API-surface gate: the dataset has one store layout (a segmented
# directory whose segment files use the v1 codec, read by positioned
# reads only) and one passive analysis path (the accumulator fold; the
# row scans are a test oracle in core). Fail if the single-file store
# API, the chunk-store trait, the mmap backing, a public row scan, or
# the allocating owned-record deframer API comes back.
if grep -rnE 'trait ChunkStore|fn open_mmap|fn write_to\(|extern "C"' crates/capture/src; then
    echo "tier1: FAILED (second store layout or mmap backing reintroduced in crates/capture/src)" >&2
    exit 1
fi
if grep -rnE 'pub fn (version_series|cipher_series|version_transitions|passive_summary|revocation_summary|month_axis)\(' \
    crates/*/src; then
    echo "tier1: FAILED (row scan back in a public API under crates/*/src)" >&2
    exit 1
fi
if grep -nE 'pub fn pop(_all)?\(' crates/tls/src/record.rs; then
    echo "tier1: FAILED (owned-record Deframer::pop/pop_all reintroduced)" >&2
    exit 1
fi

# API-surface gate: a store frame has one read path, a positioned read
# per column straight into its buffer. Fail if the full-frame read,
# its fused fetch-and-CRC, or the column copy out of a frame buffer
# comes back (the full-frame decode lives on only as a test oracle
# under another name).
if grep -rnE 'fn read_frame\(|fn frame_crc\(|fn decode_le' crates/capture/src; then
    echo "tier1: FAILED (full-frame store read path reintroduced in crates/capture/src)" >&2
    exit 1
fi

# API-surface gate: a session has one drive function, one replay loop,
# and one observation avenue (the chain fed from the conditioned
# wire). Fail if a driver variant, the chainless `replay_flow`, the
# in-path `process_with`, the buffered `read_tls`/`take_output` shim,
# or the tap's own byte feed comes back.
if grep -rnE 'fn (drive_session_[a-z_]+|replay_flow|process_with|read_tls|take_output|observe_(c2s|s2c))\(' \
    crates/*/src; then
    echo "tier1: FAILED (second session path reintroduced in crates/*/src)" >&2
    exit 1
fi

# API-surface gate: the drift detector compares enrolled bodies, not
# digests of them, and the worker fan-out takes an explicit worker
# count from its caller's context. Fail if the FNV-1a hash or the
# environment-resolving `ordered_map` comes back.
if grep -rnE 'fn fnv1a' crates/core/src; then
    echo "tier1: FAILED (FNV-1a body hash reintroduced in crates/core/src)" >&2
    exit 1
fi
if grep -rnE 'pub fn ordered_map\(' crates/simnet/src; then
    echo "tier1: FAILED (environment-resolving ordered_map reintroduced in crates/simnet/src)" >&2
    exit 1
fi

# API-surface gate: lab engines count faults and cache hits once, in
# the registry they merge, with one cache per lab. Fail if the cache
# scope knob, the metered device scan, the server's ClientHello copy,
# or a second fault-tally routine comes back.
if grep -rnE 'enum CacheScope|fn lab_cache|fn cache_scope|fn device_rows_metered|fn observed_client_hello' \
    crates/*/src; then
    echo "tier1: FAILED (removed counting or cache-scope API reintroduced in crates/*/src)" >&2
    exit 1
fi
if [ "$(grep -rnE 'fn count_injected\(' crates/*/src | wc -l)" -gt 1 ]; then
    grep -rnE 'fn count_injected\(' crates/*/src
    echo "tier1: FAILED (fn count_injected defined more than once in crates/*/src)" >&2
    exit 1
fi

# API-surface gate: a lab drives one device and is built one way, and
# the simulator injects DNS faults without keeping a DNS table. Fail if
# the DNS table, the lab's device map, its owned-ctx constructors, the
# bare ctx, or the unread unlock set comes back.
if grep -rnE 'struct DnsTable|pub mod dns|enum LabCtx|fn with_faults\(|fn with_ctx\(|fn bare\(|states: HashMap|pub unlocked' \
    crates/*/src; then
    echo "tier1: FAILED (removed lab or DNS API reintroduced in crates/*/src)" >&2
    exit 1
fi

# API-surface gate: the passive capture has one in-memory form, the
# columnar dataset, and one JSON writer. Fail if the row-vector
# dataset, its row type, the row-form JSON writer's mirror structs, the
# row conversions, the second shared capture, or the row-form
# generator comes back.
if grep -rnE 'struct (PassiveDataset|WeightedObservation|ObservationRecord|RevocationRecord|DatasetFile)|fn (to_rows|from_rows|global_dataset|to_weighted)\(' \
    crates/*/src; then
    echo "tier1: FAILED (row-form dataset API reintroduced in crates/*/src)" >&2
    exit 1
fi
if grep -rnE 'pub fn generate\(' crates/capture/src; then
    echo "tier1: FAILED (row-form generate reintroduced in crates/capture/src)" >&2
    exit 1
fi

# API-surface gate: the objects that exponentiate on one modulus own
# its Montgomery context, and the drive loop hands each conditioned
# chunk straight to the receiving endpoint. Fail if the process-wide
# context cache or the byte pipe between conditioner and endpoint
# comes back.
if grep -rnE 'ctx_cache|CTX_CACHE_CAP|fn cached\(|fn is_cached\(' crates/crypto/src; then
    echo "tier1: FAILED (process-wide Montgomery context cache reintroduced in crates/crypto/src)" >&2
    exit 1
fi
if grep -rnE 'struct (Pipe|DuplexLink)|mod pipe' crates/simnet/src; then
    echo "tier1: FAILED (byte pipe reintroduced in crates/simnet/src)" >&2
    exit 1
fi

# API-surface gate: the testbed's cloud endpoints are provisioned in
# one constructor over the devices, whose keys come from one batch.
# Fail if the per-endpoint provisioning call comes back.
if grep -rnE 'fn provision\(' crates/devices/src; then
    echo "tier1: FAILED (per-endpoint provision reintroduced in crates/devices/src)" >&2
    exit 1
fi

# API-surface gate: the TLS codec is written once per direction, and
# the tap reads handshakes with the endpoints' parser. Fail if the
# owned record type, the tap's validate-only skim, or a legacy encoder
# comes back under crates/tls/src (the independent encoders live on
# only as test oracles under other names). Scoped to crates/tls/src,
# because devices::spec has a `fn payload(` of its own. Also fail if
# the Prometheus renderer or the never-built admission rejection enum
# comes back under crates/*/src.
if grep -rnE 'pub struct Record\b|fn (validate_body|server_hello_fields|first_certificate|skim_extensions|skim_extension|encode_extensions|fragment|payload)\(' \
    crates/tls/src; then
    echo "tier1: FAILED (second TLS codec path reintroduced in crates/tls/src)" >&2
    exit 1
fi
if grep -rnE 'fn to_prometheus\(|enum Rejected\b' crates/*/src; then
    echo "tier1: FAILED (removed Prometheus renderer or Rejected enum reintroduced in crates/*/src)" >&2
    exit 1
fi

# Benchmark gate: perfbench/ is a package of its own that calls the
# library's public API (fault draws, tape replay, the worker fan-out,
# SHA-256), so an API change that breaks it fails here rather than in
# the benchmark run. Also runs the harness's unit tests and the
# self-test of its comparison gate.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml
python3 perfbench/check.py --self-test

end=$(date +%s)
echo "tier1: OK ($((end - start))s)"

# Optional perf gate: measure every workload of BENCHMARK.json and
# compare the suite with the committed baseline. Off by default: a
# full run takes a few minutes and its numbers depend on the host.
if [ "${IOTLS_BENCH_CHECK:-0}" = "1" ]; then
    python3 perfbench/run.py --workload all --out perfbench/results/suite.json
    python3 perfbench/check.py perfbench/results/suite.json perfbench/baseline.json
fi

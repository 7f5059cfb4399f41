#!/usr/bin/env bash
# Local CI gate. The workspace has no external dependencies, so everything
# runs with --offline (the build environment has no crates.io registry).
set -euxo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --workspace --all-targets
cargo test -q --offline --workspace

# Benchmark self-test: every workload for one second, untraced and
# traced — every metric BENCHMARK.json names must be emitted, finite and
# in its unit, and every compile and serve decision must check out
# against its oracle (BruteSearch, in-process optimize_costed).
python3 perfbench/steady.py --self-test

cargo fmt --all -- --check
cargo clippy --offline --workspace --all-targets -- -D warnings

# Feature matrix: the same gates with the explicit SIMD kernels
# compiled in.  The default build must stay portable (and free of
# unsafe code); the simd build must stay green and clippy-clean, and
# the SIMD ≡ scalar property tests then run against the real vector
# paths instead of passing vacuously.
cargo build --release --offline --workspace --all-targets --features simd
cargo test -q --offline --workspace --features simd
cargo clippy --offline --workspace --all-targets --features simd -- -D warnings

# Observability smoke test: --trace=json must emit exactly one JSON
# document on stdout, accepted by the in-tree strict parser, with a
# provenance table behind it (std-only check, no external tools).
./target/release/ujam optimize dmxpy0 --explain --trace=json > /tmp/ujam_trace.json
cargo run --release --offline --quiet --example validate_trace -- /tmp/ujam_trace.json

# Chrome trace export: --trace=chrome must emit a strictly-parseable
# trace-event array with a complete event per pipeline pass.
./target/release/ujam optimize dmxpy0 --trace=chrome > /tmp/ujam_chrome.json
cargo run --release --offline --quiet --example validate_trace -- --chrome /tmp/ujam_chrome.json

# Bench smoke test: every bench harness must build, and a quick run of
# the search-scaling bench must emit a schema-valid BENCH_search.json
# (winner agreement across the naive / summed-area / pruned engines —
# and across SIMD dispatch levels — is checked inside the bench and
# again by the validator).  Runs at both feature sets: the default
# document must report simd level "scalar", the simd one whatever the
# host detects.
cargo bench --offline --workspace --no-run
cargo bench --offline -p ujam-bench --bench search_scaling -- --quick --out /tmp/ujam_bench_search.json
cargo run --release --offline --quiet --example validate_search_bench -- /tmp/ujam_bench_search.json
grep -q '"simd_level":"scalar"' /tmp/ujam_bench_search.json
cargo bench --offline -p ujam-bench --features simd --bench search_scaling -- --quick --out /tmp/ujam_bench_search_simd.json
cargo run --release --offline --quiet --example validate_search_bench -- /tmp/ujam_bench_search_simd.json

# target-cpu=native smoke: the simd build must also hold up when the
# compiler itself is free to autovectorise everything (a separate
# target dir keeps the differently-flagged artifacts from thrashing
# the shared cache).
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
  cargo bench --offline -p ujam-bench --features simd --bench search_scaling -- --quick --out /tmp/ujam_bench_search_native.json
cargo run --release --offline --quiet --example validate_search_bench -- /tmp/ujam_bench_search_native.json

# Register-tile smoke: a k = 3 search over a deep (4-loop) kernel with a
# code budget must produce a schema-valid trace document whose explain
# ledger balances (validate_trace re-checks the per-candidate accounting,
# now including pruned_code_size fates).
./target/release/ujam optimize tensor4 --max-unroll-loops=3 --code-budget=48 --explain --trace=json > /tmp/ujam_tile_trace.json
cargo run --release --offline --quiet --example validate_trace -- /tmp/ujam_tile_trace.json

# Profiler smoke: `ujam profile` must emit a schema-valid versioned
# reuse-distance report whose per-array sections reconcile with the
# aggregate, and the matmul kernel must land inside the known-kernel
# sanity bound (sa miss rate in (0, 50%]).  The alias and a custom
# geometry both go through the validator.
./target/release/ujam profile --kernel matmul > /tmp/ujam_profile.json
cargo run --release --offline --quiet --example validate_profile -- --kernel mmjki /tmp/ujam_profile.json
./target/release/ujam profile jacobi --cache-geometry=4096:32:2 --profile-out /tmp/ujam_profile_jacobi.json
cargo run --release --offline --quiet --example validate_profile -- /tmp/ujam_profile_jacobi.json

# Serve smoke test: three NDJSON requests through the daemon's stdin — a
# kernel request, its exact duplicate (must be cache-served with an
# identical decision), and one malformed line (must get a structured
# error reply, not a dropped connection).  --batch 1 keeps the duplicate
# strictly after the original so the cache hit is deterministic.
printf '%s\n' \
  '{"id":"1","kernel":"dmxpy0"}' \
  '{"id":"2","kernel":"dmxpy0"}' \
  'this is not json' \
  | ./target/release/ujam serve --workers 2 --batch 1 > /tmp/ujam_serve_replies.ndjson
cargo run --release --offline --quiet --example validate_serve -- /tmp/ujam_serve_replies.ndjson

# Register-tile serve round-trip: the protocol's max_unroll_loops /
# code_budget knobs reach the search — a deep kernel served at k = 3
# answers ok with a full-depth (4-component) unroll vector.
printf '%s\n' \
  '{"id":"rt","kernel":"tensor4","max_unroll_loops":3,"code_budget":48}' \
  | ./target/release/ujam serve --workers 1 > /tmp/ujam_serve_tile.ndjson
grep -q '"ok":true' /tmp/ujam_serve_tile.ndjson
grep -Eq '"unroll":\[[0-9]+,[0-9]+,[0-9]+,[0-9]+\]' /tmp/ujam_serve_tile.ndjson

# Cost-model serve round-trip: the protocol's cost_model field reaches
# the search — the same kernel served under the analytic and the
# profiled backend must both answer ok, and an unknown spelling must be
# a structured error reply, not a dropped connection.
printf '%s\n' \
  '{"id":"cm1","kernel":"dmxpy0","cost_model":"analytic"}' \
  '{"id":"cm2","kernel":"dmxpy0","cost_model":"profiled"}' \
  '{"id":"cm3","kernel":"dmxpy0","cost_model":"exact"}' \
  | ./target/release/ujam serve --workers 1 --batch 1 > /tmp/ujam_serve_cost.ndjson
[ "$(grep -c '"ok":true' /tmp/ujam_serve_cost.ndjson)" = 2 ]
grep -q 'unknown cost_model' /tmp/ujam_serve_cost.ndjson

# Metrics smoke: one optimize request and one stats round-trip over a
# Unix socket; the daemon's snapshot must count exactly that request
# (the stats query itself is admin traffic, not a request).
UJAM_SOCK=/tmp/ujam_ci.sock
rm -f "$UJAM_SOCK"
./target/release/ujam serve --socket "$UJAM_SOCK" --workers 1 &
UJAM_SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$UJAM_SOCK" ] && break; sleep 0.1; done
./target/release/ujam request --socket "$UJAM_SOCK" '{"id":"1","kernel":"dmxpy0"}' | grep -q '"ok":true'
./target/release/ujam stats --socket "$UJAM_SOCK" --json > /tmp/ujam_stats.json
grep -q '"version":1' /tmp/ujam_stats.json
grep -q '"serve.requests":1' /tmp/ujam_stats.json
grep -q '"serve.request_ns":{"count":1,' /tmp/ujam_stats.json
kill "$UJAM_SERVE_PID"
rm -f "$UJAM_SOCK"

# TCP smoke: the same daemon over the event-loop TCP front end.  Bind
# port 0 and discover the chosen port from the daemon's stderr line,
# run the three-request contract through `ujam request` (which opens
# with the versioned handshake), check the sharded-cache stats
# round-trip, then shut the daemon down over its own protocol and wait
# for a clean exit.
./target/release/ujam serve --tcp 127.0.0.1:0 --workers 1 --batch 1 --shards 4 2> /tmp/ujam_tcp_serve.log &
UJAM_TCP_PID=$!
UJAM_TCP_ADDR=""
for _ in $(seq 1 100); do
  UJAM_TCP_ADDR=$(sed -n 's/^serve: tcp listening on //p' /tmp/ujam_tcp_serve.log)
  [ -n "$UJAM_TCP_ADDR" ] && break
  sleep 0.1
done
[ -n "$UJAM_TCP_ADDR" ]
./target/release/ujam request --tcp "$UJAM_TCP_ADDR" --show-hello \
  '{"id":"1","kernel":"dmxpy0"}' \
  '{"id":"2","kernel":"dmxpy0"}' \
  'this is not json' > /tmp/ujam_tcp_replies.ndjson
cargo run --release --offline --quiet --example validate_serve -- --hello /tmp/ujam_tcp_replies.ndjson
./target/release/ujam stats --tcp "$UJAM_TCP_ADDR" --json > /tmp/ujam_tcp_stats.json
grep -q '"version":1' /tmp/ujam_tcp_stats.json
grep -q '"serve.conn.accepted":2' /tmp/ujam_tcp_stats.json
grep -q '"serve.cache.shard0.' /tmp/ujam_tcp_stats.json
grep -q '"serve.cache.shard3.' /tmp/ujam_tcp_stats.json
./target/release/ujam request --tcp "$UJAM_TCP_ADDR" '{"id":"bye","cmd":"shutdown"}' \
  | grep -q '"shutdown":true'
wait "$UJAM_TCP_PID"

# Flight-recorder smoke: a mixed workload through a fresh TCP daemon —
# two fresh kernels, a cache-hit duplicate, a trace-echoing request
# (its reply must carry the opt-in trace_id field), and one forced
# anomaly (deadline_ms=0 on an uncached kernel cannot finish). Capture
# the flight dump and the time-series document and validate both: the
# recent ring holds the workload, the anomaly ring retains the deadline
# miss with a structured reason, the series windows carry derived rates
# and request_ns exemplars whose trace ids resolve in the recorder.
./target/release/ujam serve --tcp 127.0.0.1:0 --workers 1 --batch 1 --slow-ms 2000 \
  2> /tmp/ujam_flight_serve.log &
UJAM_FLIGHT_PID=$!
UJAM_FLIGHT_ADDR=""
for _ in $(seq 1 100); do
  UJAM_FLIGHT_ADDR=$(sed -n 's/^serve: tcp listening on //p' /tmp/ujam_flight_serve.log)
  [ -n "$UJAM_FLIGHT_ADDR" ] && break
  sleep 0.1
done
[ -n "$UJAM_FLIGHT_ADDR" ]
./target/release/ujam request --tcp "$UJAM_FLIGHT_ADDR" \
  '{"id":"f1","kernel":"dmxpy0"}' \
  '{"id":"f2","kernel":"sor"}' \
  '{"id":"f3","kernel":"dmxpy0"}' \
  '{"id":"f4","kernel":"sor","trace":true}' \
  '{"id":"f5","kernel":"jacobi","deadline_ms":0}' \
  > /tmp/ujam_flight_replies.ndjson
grep -q '"id":"f3".*"cached":true' /tmp/ujam_flight_replies.ndjson
grep -q '"id":"f4".*"trace_id":[0-9]' /tmp/ujam_flight_replies.ndjson
grep -q '"id":"f5".*"deadline_exceeded"' /tmp/ujam_flight_replies.ndjson
./target/release/ujam flight --tcp "$UJAM_FLIGHT_ADDR" --json > /tmp/ujam_flight.json
./target/release/ujam stats --tcp "$UJAM_FLIGHT_ADDR" --series --json > /tmp/ujam_series.json
cargo run --release --offline --quiet --example validate_flight -- /tmp/ujam_flight.json /tmp/ujam_series.json
./target/release/ujam flight --tcp "$UJAM_FLIGHT_ADDR" --slow-only --json | grep -q '"recent":\[\]'
./target/release/ujam request --tcp "$UJAM_FLIGHT_ADDR" '{"id":"bye","cmd":"shutdown"}' \
  | grep -q '"shutdown":true'
wait "$UJAM_FLIGHT_PID"

# TCP soak: the hostile-client suite — 100 concurrent handshaking
# clients, pipelined duplicates, oversized and half-written frames,
# bad-version and no-handshake rejections, admission-control sheds,
# read-timeout reaping — all against the poll(2) reactor.
cargo test -q --offline --test serve_tcp

# Serve-latency bench smoke: a quick run must emit a BENCH_serve.json
# whose embedded snapshot matches the workload ground truth (checked
# together with the search artifact captured above).
cargo bench --offline -p ujam-bench --bench serve_latency -- --quick --out /tmp/ujam_bench_serve.json
cargo run --release --offline --quiet --example validate_metrics -- /tmp/ujam_bench_serve.json /tmp/ujam_bench_search.json

# Semantics fuzz: the fixed default seed makes this run deterministic;
# it enumerates every applicable unroll vector over a 200-nest synthetic
# corpus and interprets original vs transformed (and scalar-replaced)
# nests cell-for-cell.
cargo test -q --offline --test semantics_fuzz

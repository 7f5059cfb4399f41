#!/usr/bin/env bash
# Local CI gate. The workspace has no external dependencies, so everything
# runs with --offline (the build environment has no crates.io registry).
set -euxo pipefail
cd "$(dirname "$0")"

# The serve smokes below start daemons as background jobs.  On any exit
# (a failed check under `set -e` included) kill every one still running,
# so a failure between a daemon's start and its shutdown leaves none
# behind.
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

cargo build --release --offline --workspace --all-targets
cargo test -q --offline --workspace

# Benchmark self-test: every workload for one second, untraced and
# traced — every metric BENCHMARK.json names must be emitted, finite and
# in its unit, and every compile and serve decision must check out
# against its oracle (BruteSearch, in-process optimize_costed).
python3 perfbench/steady.py --self-test

cargo fmt --all -- --check
cargo clippy --offline --workspace --all-targets -- -D warnings

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
# (winner agreement across the naive / summed-area / pruned engines is
# checked inside the bench and again by the validator, which also
# requires the per-family build columns).
cargo bench --offline --workspace --no-run
cargo bench --offline -p ujam-bench --bench search_scaling -- --quick --out /tmp/ujam_bench_search.json
cargo run --release --offline --quiet --example validate_search_bench -- /tmp/ujam_bench_search.json

# target-cpu=native smoke: the engines must still agree on every winner
# when the compiler is free to autovectorise the table kernels for the
# host (a separate target dir keeps the differently-flagged artifacts
# from thrashing the shared cache).
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
  cargo bench --offline -p ujam-bench --bench search_scaling -- --quick --out /tmp/ujam_bench_search_native.json
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
# error reply, not a dropped connection).  The stdin loop answers lines
# in order, so the duplicate's cache hit is deterministic.
printf '%s\n' \
  '{"id":"1","kernel":"dmxpy0"}' \
  '{"id":"2","kernel":"dmxpy0"}' \
  'this is not json' \
  | ./target/release/ujam serve --workers 2 > /tmp/ujam_serve_replies.ndjson
cargo run --release --offline --quiet --example validate_serve -- /tmp/ujam_serve_replies.ndjson

# Stdin framing: a line that is not UTF-8 gets a bad_request reply like
# on a socket, and the request after it is still answered — three
# lines in, three replies out.
printf '%s\n\377\n%s\n' \
  '{"id":"u1","kernel":"dmxpy1"}' \
  '{"id":"u2","kernel":"dmxpy1"}' \
  | ./target/release/ujam serve --workers 1 > /tmp/ujam_serve_utf8.ndjson
[ "$(wc -l < /tmp/ujam_serve_utf8.ndjson)" = 3 ]
sed -n 2p /tmp/ujam_serve_utf8.ndjson | grep -q '"kind":"bad_request"'
sed -n 3p /tmp/ujam_serve_utf8.ndjson | grep -q '"id":"u2"'

# Stdin flight export: stdin requests are timed like socket requests, so
# --trace-chrome writes one req-<trace_id> span group for each of two
# kernel requests and a deadline_ms=0 miss.
printf '%s\n' \
  '{"id":"c1","kernel":"dmxpy0"}' \
  '{"id":"c2","kernel":"sor"}' \
  '{"id":"c3","kernel":"jacobi","deadline_ms":0}' \
  | ./target/release/ujam serve --workers 1 --trace-chrome /tmp/ujam_stdin_chrome.json \
    > /tmp/ujam_stdin_chrome.ndjson 2> /tmp/ujam_stdin_chrome.log
grep -q 'wrote 3 flight timelines' /tmp/ujam_stdin_chrome.log
for n in 1 2 3; do grep -q "\"req-$n\"" /tmp/ujam_stdin_chrome.json; done

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
  | ./target/release/ujam serve --workers 1 > /tmp/ujam_serve_cost.ndjson
[ "$(grep -c '"ok":true' /tmp/ujam_serve_cost.ndjson)" = 2 ]
grep -q 'unknown cost_model' /tmp/ujam_serve_cost.ndjson

# Metrics smoke: one optimize request and one stats round-trip over a
# Unix socket; the daemon's snapshot must count exactly that request
# (the stats query and the hellos are admin traffic, not requests).
# The Unix socket speaks the TCP dialect: `ujam request` opens with the
# versioned hello (its ack printed with --show-hello), and a raw line
# sent without one is refused with handshake_required.
UJAM_SOCK=/tmp/ujam_ci.sock
rm -f "$UJAM_SOCK"
./target/release/ujam serve --socket "$UJAM_SOCK" --workers 1 &
UJAM_SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$UJAM_SOCK" ] && break; sleep 0.1; done
./target/release/ujam request --socket "$UJAM_SOCK" --show-hello '{"id":"1","kernel":"dmxpy0"}' \
  > /tmp/ujam_sock_replies.ndjson
sed -n 1p /tmp/ujam_sock_replies.ndjson | grep -q '"protocol":1'
sed -n 2p /tmp/ujam_sock_replies.ndjson | grep -q '"ok":true'
./target/release/ujam stats --socket "$UJAM_SOCK" --json > /tmp/ujam_stats.json
grep -q '"version":1' /tmp/ujam_stats.json
grep -q '"serve.requests":1' /tmp/ujam_stats.json
grep -q '"serve.request_ns":{"count":1,' /tmp/ujam_stats.json
python3 - "$UJAM_SOCK" <<'EOF'
import socket, sys

sock = socket.socket(socket.AF_UNIX)
sock.settimeout(30)
sock.connect(sys.argv[1])
sock.sendall(b'{"id":"raw","kernel":"dmxpy0"}\n')
reply = sock.makefile().readline()
if '"kind":"handshake_required"' not in reply:
    sys.exit(f"handshake-free line over the Unix socket got: {reply!r}")
EOF
kill "$UJAM_SERVE_PID"
# Reap it: a daemon killed by SIGTERM exits with status 128 + 15.
wait "$UJAM_SERVE_PID" || [ $? = 143 ]
rm -f "$UJAM_SOCK"

# Wide subscripts: a source whose coefficients sit near i64::MAX is
# refused with a structured invalid_nest reply before any exact
# elimination runs, so no panic (and no backtrace) reaches stderr.
printf '%s\n' \
  '{"id":"o","source":"      DIMENSION A(8,8,8), B(8,8,8)\n      DO I = 1, 4\n      DO J = 1, 4\n      DO K = 1, 4\n      A(I,J,K) = B(9000000000000000000*I+8999999999999999999*J, 8999999999999999999*J+9000000000000000000*K, 9000000000000000000*I+8999999999999999999*K) + B(I,J,K)\n      ENDDO\n      ENDDO\n      ENDDO\n      END"}' \
  | ./target/release/ujam serve --workers 1 > /tmp/ujam_serve_wide.ndjson 2> /tmp/ujam_serve_wide.log
grep -q '"kind":"invalid_nest"' /tmp/ujam_serve_wide.ndjson
if grep -q 'panicked' /tmp/ujam_serve_wide.log; then exit 1; fi

# Wide loop bounds: a span beyond i64::MAX would wrap the trip count,
# so the bounds are refused like the subscripts, with no panic.
printf '%s\n' \
  '{"id":"b","source":"      DIMENSION A(8,8), B(8,8)\n      DO I = -9000000000000000000, 9000000000000000000\n      DO J = 1, 4\n      A(I,J) = B(I,J) + B(I+1,J)\n      ENDDO\n      ENDDO\n      END"}' \
  | ./target/release/ujam serve --workers 1 > /tmp/ujam_serve_bounds.ndjson 2> /tmp/ujam_serve_bounds.log
grep -q '"kind":"invalid_nest"' /tmp/ujam_serve_bounds.ndjson
if grep -q 'panicked' /tmp/ujam_serve_bounds.log; then exit 1; fi

# The same bounds through `ujam deps` and `ujam tables`: both analyse
# through the checked context, so each refuses the file with the ±2^31
# message and a nonzero exit instead of printing wrapped counts.
printf '%s\n' \
  '      DIMENSION A(8,8), B(8,8)' \
  '      DO I = -9000000000000000000, 9000000000000000000' \
  '      DO J = 1, 4' \
  '      A(I,J) = B(I,J) + B(I+1,J)' \
  '      ENDDO' \
  '      ENDDO' \
  '      END' > /tmp/ujam_wide_bounds.f
for cmd in deps tables; do
  if ./target/release/ujam "$cmd" /tmp/ujam_wide_bounds.f > /dev/null 2> /tmp/ujam_wide_bounds.log; then exit 1; fi
  grep -qF 'beyond ±2^31' /tmp/ujam_wide_bounds.log
done

# TCP smoke: the same daemon over the event-loop TCP front end.  Bind
# port 0 and discover the chosen port from the daemon's stderr line,
# run the three-request contract through `ujam request` (which opens
# with the versioned handshake), check the sharded-cache stats
# round-trip, then shut the daemon down over its own protocol and wait
# for a clean exit.  The log is emptied first: the port poll below must
# not read a previous run's address before the new daemon opens it.
: > /tmp/ujam_tcp_serve.log
./target/release/ujam serve --tcp 127.0.0.1:0 --workers 1 --shards 4 2> /tmp/ujam_tcp_serve.log &
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
: > /tmp/ujam_flight_serve.log
./target/release/ujam serve --tcp 127.0.0.1:0 --workers 1 --slow-ms 2000 \
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

# Accept-error backoff: a daemon out of file descriptors (ulimit -n 24)
# with 40 clients held in its listen backlog must idle, not spin on a
# listener it cannot accept from.  The daemon's CPU time (utime + stime
# from /proc) after a 2 s hold must stay under 0.2 s; then the clients
# leave and the daemon is shut down over its own protocol.
python3 - <<'EOF'
import os, re, socket, subprocess, sys, time

daemon = subprocess.Popen(
    ["bash", "-c", "ulimit -n 24 && exec ./target/release/ujam serve --tcp 127.0.0.1:0 --workers 1"],
    stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
try:
    host, port = re.match(r"serve: tcp listening on (.+):(\d+)", daemon.stderr.readline()).groups()
    clients = [socket.create_connection((host, int(port))) for _ in range(40)]
    time.sleep(2)
    with open(f"/proc/{daemon.pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    print(f"daemon CPU with 40 clients at EMFILE for 2 s: {cpu:.2f} s")
    for c in clients:
        c.close()
    bye = socket.create_connection((host, int(port)))
    bye.sendall(b'{"id":"h","cmd":"hello","version":1}\n{"id":"bye","cmd":"shutdown"}\n')
    daemon.wait(timeout=30)
    if cpu > 0.2:
        sys.exit(f"daemon spun at EMFILE: {cpu:.2f} s of CPU in 2 s")
finally:
    if daemon.poll() is None:
        daemon.kill()
EOF

# TCP soak: the hostile-client suite — 100 concurrent handshaking
# clients, pipelined duplicates, oversized and half-written frames,
# bad-version and no-handshake rejections, admission-control sheds,
# read-timeout reaping — all against the poll(2) reactor.
cargo test -q --offline --test serve_tcp

# Serve-latency bench smoke: a quick run must emit a BENCH_serve.json
# whose embedded snapshot matches the workload ground truth (the search
# artifact captured above is checked by validate_search_bench alone).
cargo bench --offline -p ujam-bench --bench serve_latency -- --quick --out /tmp/ujam_bench_serve.json
cargo run --release --offline --quiet --example validate_metrics -- /tmp/ujam_bench_serve.json

# Semantics fuzz: the fixed default seed makes this run deterministic;
# it enumerates every applicable unroll vector over a 200-nest synthetic
# corpus and interprets original vs transformed (and scalar-replaced)
# nests cell-for-cell.
cargo test -q --offline --test semantics_fuzz

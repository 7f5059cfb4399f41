//! `serve_latency`: end-to-end request latency through the serve
//! daemon, measured by the daemon's own metrics registry.
//!
//! A metrics-enabled [`Server`] (one worker, so every counter is
//! replay-deterministic) answers a fixed NDJSON workload fed through
//! the in-memory `run` entry point — the same path the stdin daemon
//! uses, minus the OS pipe.  The `serve.request_ns` histogram then *is*
//! the latency distribution: exact count and sum, log-scale buckets,
//! p50/p90/p99 upper bounds.
//!
//! Two further arms exercise the event-loop TCP front end:
//!
//! - **tcp**: N concurrent clients (64 full, 16 quick) each run a
//!   handshake plus a sequence of request/reply roundtrips against one
//!   daemon; the client-side roundtrip times give p50/p90/p99 *under
//!   load* — the tail a single in-memory replay cannot show.
//! - **shed**: a one-worker daemon with a tiny queue takes a pipelined
//!   burst; the reply stream must interleave `ok` and structured
//!   `overloaded` sheds in request order, and a post-load probe must
//!   still be bitwise-identical to the sequential batch optimizer.
//!
//! Emits `BENCH_serve.json` (override with `-- --out PATH`) holding the
//! workload parameters plus the full versioned metrics snapshot;
//! `examples/validate_metrics.rs` checks the schema and that the
//! counters match the workload's ground truth.  `-- --quick` shrinks
//! the workload for CI smoke runs.
//!
//! Run with `cargo bench -p ujam-bench --bench serve_latency`.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Cursor, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};
use ujam_core::optimize_batch;
use ujam_kernels::kernels;
use ujam_machine::MachineModel;
use ujam_serve::{ReactorConfig, ServeConfig, Server, Transports, PROTOCOL_VERSION};
use ujam_trace::json::{self, Value};

/// The workload mix: repeated visits to three kernels, so the decision
/// cache sees both cold misses and steady-state hits.
const KERNELS: [&str; 3] = ["dmxpy0", "dmxpy1", "mmjki"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string()
        });
    let rounds: u64 = if quick { 3 } else { 40 };

    let server = Server::new(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        ujam_trace::null_sink(),
    );

    let mut workload = String::new();
    for round in 0..rounds {
        for kernel in KERNELS {
            let _ = writeln!(
                workload,
                "{{\"id\":\"{round}-{kernel}\",\"kernel\":\"{kernel}\"}}"
            );
        }
    }
    let requests = rounds * KERNELS.len() as u64;

    let mut replies = Vec::new();
    server
        .run(Cursor::new(workload), &mut replies)
        .expect("in-memory serve cannot fail on I/O");
    let reply_text = String::from_utf8(replies).expect("replies are UTF-8");
    assert_eq!(
        reply_text.lines().count() as u64,
        requests,
        "one reply per request"
    );
    assert!(
        reply_text.lines().all(|l| l.contains("\"ok\":true")),
        "every workload request succeeds"
    );

    let snapshot = server.metrics_snapshot();
    // Ground truth: the registry saw exactly the workload.
    assert_eq!(snapshot.counter("serve.requests"), requests);
    assert_eq!(
        snapshot.counter("serve.cache.hits") + snapshot.counter("serve.cache.misses"),
        requests,
        "every request consulted the cache"
    );
    assert_eq!(
        snapshot.counter("serve.cache.misses"),
        KERNELS.len() as u64,
        "one cold miss per kernel with a single worker"
    );
    let latency = snapshot
        .histogram("serve.request_ns")
        .expect("latency histogram recorded");
    assert_eq!(latency.count, requests);

    println!(
        "serve_latency ({requests} requests over {} kernels, 1 worker)",
        KERNELS.len()
    );
    println!(
        "  latency: mean {:.1}us  p50 <= {:.1}us  p90 <= {:.1}us  p99 <= {:.1}us",
        latency.mean() / 1e3,
        latency.p50() as f64 / 1e3,
        latency.p90() as f64 / 1e3,
        latency.p99() as f64 / 1e3
    );
    println!(
        "  cache: {} hits / {} misses",
        snapshot.counter("serve.cache.hits"),
        snapshot.counter("serve.cache.misses")
    );

    let tcp = tcp_arm(quick);
    let shed = shed_arm();

    let kernels: Vec<String> = KERNELS.iter().map(|k| format!("\"{k}\"")).collect();
    let doc = format!(
        "{{\"bench\":\"serve_latency\",\"quick\":{quick},\"workers\":1,\
         \"requests\":{requests},\"kernels\":[{}],\"snapshot\":{},\
         \"tcp\":{tcp},\"shed\":{shed}}}\n",
        kernels.join(","),
        snapshot.render_json()
    );
    std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}

fn hello_line() -> String {
    format!("{{\"id\":\"hello\",\"cmd\":\"hello\",\"version\":{PROTOCOL_VERSION}}}")
}

/// Connects, pipelining the handshake with `extra` (no trailing
/// newline needed), and returns the connection with its hello ack
/// already consumed.
fn greet(addr: SocketAddr, extra: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect to bench daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut w = stream.try_clone().expect("clone stream");
    let payload = if extra.is_empty() {
        format!("{}\n", hello_line())
    } else {
        format!("{}\n{extra}\n", hello_line())
    };
    w.write_all(payload.as_bytes()).expect("send handshake");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read hello ack");
    assert!(ack.contains("\"ok\":true"), "handshake failed: {ack}");
    (stream, reader)
}

/// Shuts a bench daemon down over its own protocol.
fn shutdown(addr: SocketAddr) {
    let (_stream, mut reader) = greet(addr, "{\"id\":\"bye\",\"cmd\":\"shutdown\"}");
    let mut rest = String::new();
    let _ = reader.read_to_string(&mut rest);
    assert!(
        rest.contains("\"shutdown\":true"),
        "shutdown not acked: {rest}"
    );
}

/// Upper bound of the q-quantile over a sorted sample.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The multi-connection arm: concurrent clients doing sequential
/// request/reply roundtrips, latency measured client-side (the number a
/// caller actually experiences, queueing and framing included).
fn tcp_arm(quick: bool) -> String {
    let clients: usize = if quick { 16 } else { 64 };
    let per_client: usize = if quick { 4 } else { 12 };

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = Server::new(
        ServeConfig {
            workers: 4,
            cache_capacity: 64,
            shards: 8,
            ..ServeConfig::default()
        },
        ujam_trace::null_sink(),
    );

    let mut latencies: Vec<u64> = Vec::with_capacity(clients * per_client);
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| {
            server
                .run_reactor(
                    Transports {
                        tcp: Some(listener),
                        unix: None,
                    },
                    ReactorConfig::default(),
                )
                .expect("reactor runs until shutdown");
        });
        let samples: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let (mut stream, mut reader) = greet(addr, "");
                    let mut times = Vec::with_capacity(per_client);
                    for r in 0..per_client {
                        let kernel = KERNELS[(c + r) % KERNELS.len()];
                        let line = format!("{{\"id\":\"{c}-{r}\",\"kernel\":\"{kernel}\"}}\n");
                        let start = Instant::now();
                        stream.write_all(line.as_bytes()).expect("send request");
                        let mut reply = String::new();
                        reader.read_line(&mut reply).expect("read reply");
                        times.push(start.elapsed().as_nanos() as u64);
                        assert!(reply.contains("\"ok\":true"), "client {c}: {reply}");
                    }
                    times
                })
            })
            .collect();
        for handle in samples {
            latencies.extend(handle.join().expect("client thread"));
        }
        shutdown(addr);
        daemon.join().expect("daemon thread exits cleanly");
    });

    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let mean = latencies.iter().sum::<u64>() as f64 / requests as f64;
    let (p50, p90, p99) = (
        quantile(&latencies, 0.50),
        quantile(&latencies, 0.90),
        quantile(&latencies, 0.99),
    );
    println!("tcp ({clients} concurrent clients x {per_client} roundtrips)");
    println!(
        "  roundtrip: mean {:.1}us  p50 {:.1}us  p90 {:.1}us  p99 {:.1}us",
        mean / 1e3,
        p50 as f64 / 1e3,
        p90 as f64 / 1e3,
        p99 as f64 / 1e3
    );
    format!(
        "{{\"clients\":{clients},\"per_client\":{per_client},\"requests\":{requests},\
         \"mean_ns\":{mean:.0},\"p50_ns\":{p50},\"p90_ns\":{p90},\"p99_ns\":{p99}}}"
    )
}

/// The admission-control arm: a pipelined burst against a one-worker,
/// cache-off daemon with a two-slot queue must shed structured
/// `overloaded` replies in request order — and afterwards the daemon
/// must still answer bitwise-identically to the batch optimizer.
fn shed_arm() -> String {
    const BURST: usize = 40;
    const MAX_QUEUE: usize = 2;
    const KERNEL: &str = "dmxpy1";

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = Server::new(
        ServeConfig {
            workers: 1,
            cache_capacity: 0,
            shards: 1,
            ..ServeConfig::default()
        },
        ujam_trace::null_sink(),
    );

    let mut shed = 0u64;
    let mut served = 0u64;
    let mut bitwise = false;
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| {
            server
                .run_reactor(
                    Transports {
                        tcp: Some(listener),
                        unix: None,
                    },
                    ReactorConfig {
                        max_queue: MAX_QUEUE,
                        ..ReactorConfig::default()
                    },
                )
                .expect("reactor runs until shutdown");
        });

        let mut burst = String::new();
        for i in 0..BURST {
            let _ = writeln!(burst, "{{\"id\":\"burst-{i}\",\"kernel\":\"{KERNEL}\"}}");
        }
        let (_stream, mut reader) = greet(addr, burst.trim_end());
        for i in 0..BURST {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read burst reply");
            assert!(
                reply.contains(&format!("\"id\":\"burst-{i}\"")),
                "replies must arrive in request order: wanted burst-{i}, got {reply}"
            );
            if reply.contains("\"ok\":true") {
                served += 1;
            } else {
                assert!(
                    reply.contains("\"overloaded\"") && reply.contains("\"retry_ms\""),
                    "shed replies are structured: {reply}"
                );
                shed += 1;
            }
        }

        // Post-load probe: the shed path must not have corrupted the
        // optimizer — the decision is still bitwise the batch answer.
        let suite = kernels();
        let nests: Vec<_> = suite.iter().map(|k| k.nest()).collect();
        let index = suite
            .iter()
            .position(|k| k.name == KERNEL)
            .expect("burst kernel is in the suite");
        let plans = optimize_batch(&nests, &MachineModel::dec_alpha());
        let plan = plans[index].as_ref().expect("burst kernel optimizes");
        let (_probe, mut reader) = greet(
            addr,
            &format!("{{\"id\":\"probe\",\"kernel\":\"{KERNEL}\"}}"),
        );
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read probe reply");
        let doc = json::parse(reply.trim_end()).expect("probe reply is JSON");
        let balance = doc
            .get("balance")
            .and_then(Value::as_f64)
            .expect("probe balance");
        let original = doc
            .get("original_balance")
            .and_then(Value::as_f64)
            .expect("probe original balance");
        let unroll: Vec<u32> = doc
            .get("unroll")
            .and_then(Value::as_array)
            .expect("probe unroll")
            .iter()
            .map(|v| v.as_f64().expect("unroll component") as u32)
            .collect();
        bitwise = doc.get("ok") == Some(&Value::Bool(true))
            && unroll == plan.unroll
            && balance.to_bits() == plan.predicted.balance.to_bits()
            && original.to_bits() == plan.original.balance.to_bits();
        assert!(
            bitwise,
            "post-load probe diverged from optimize_batch: {reply}"
        );

        shutdown(addr);
        daemon.join().expect("daemon thread exits cleanly");
    });

    assert_eq!(shed + served, BURST as u64, "one reply per burst line");
    assert!(served >= 1, "the queue serves at least its own depth");
    assert!(
        shed >= 1,
        "a {BURST}-line burst against a {MAX_QUEUE}-slot queue must shed"
    );
    println!("shed (burst {BURST}, queue {MAX_QUEUE}): {served} served, {shed} shed");
    format!(
        "{{\"burst\":{BURST},\"max_queue\":{MAX_QUEUE},\"shed\":{shed},\
         \"served\":{served},\"post_load_bitwise\":{bitwise}}}"
    )
}

//! Integration tests of the TCP event-loop daemon: the versioned
//! handshake, a 100-client hostile soak, admission control (structured
//! `overloaded` sheds), read-timeout reaping, reply ordering under
//! pipelining, and bitwise agreement with the sequential batch
//! optimizer after all of it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use ujam::core::optimize_batch;
use ujam::kernels::kernels;
use ujam::machine::MachineModel;
use ujam::serve::{ReactorConfig, ServeConfig, Server, Transports, PROTOCOL_VERSION};
use ujam::trace::json;

const HELLO: &str = "{\"id\":\"h\",\"cmd\":\"hello\",\"version\":1}";

/// Runs `body` against a daemon serving TCP on a fresh loopback port,
/// then shuts the daemon down cleanly over its own protocol and returns
/// the server, so its metrics can be read after the shutdown too.
///
/// A panic in `body` must not strand the daemon: `thread::scope` joins
/// every spawned thread before propagating a panic, so an unshut-down
/// daemon turns an assertion failure into a silent deadlock with the
/// message stuck in libtest's capture buffer.  The body therefore runs
/// under `catch_unwind`, the daemon is always shut down, and the panic
/// is re-raised afterwards.
fn with_tcp_daemon(
    cfg: ServeConfig,
    rcfg: ReactorConfig,
    body: impl FnOnce(SocketAddr, &Server),
) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = Server::new(cfg, ujam::trace::null_sink());
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| {
            server
                .run_reactor(
                    Transports {
                        tcp: Some(listener),
                        unix: None,
                    },
                    rcfg,
                )
                .expect("reactor runs until shutdown");
        });
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr, &server)));
        shutdown_daemon(addr);
        daemon.join().expect("daemon thread exits cleanly");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
    server
}

/// Shuts the daemon down over the wire, like any client would.
///
/// The handshake and the shutdown command go out in a single write so
/// a short `read_timeout` (the reap tests run at 150 ms) has no idle
/// window to hit between them, and the whole exchange retries on a
/// fresh connection if the reaper wins the race anyway — under
/// parallel-test CPU load a client thread can stall longer than the
/// reap deadline between any two syscalls.
fn shutdown_daemon(addr: SocketAddr) {
    for _ in 0..10 {
        let Ok(stream) = TcpStream::connect(addr) else {
            return; // daemon already gone
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        if stream
            .write_all(format!("{HELLO}\n{{\"id\":\"bye\",\"cmd\":\"shutdown\"}}\n").as_bytes())
            .is_err()
        {
            continue;
        }
        // Read to EOF: the daemon closes every socket as it exits, so a
        // successful shutdown yields the hello ack, the shutdown reply,
        // then EOF.  Anything else (reaped first, daemon mid-stop) is a
        // retry.
        let mut text = String::new();
        let _ = reader.read_to_string(&mut text);
        if text.contains("\"shutdown\":true") {
            return;
        }
    }
    panic!("daemon never acknowledged shutdown");
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

fn connect(addr: SocketAddr) -> Client {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    Client { stream, reader }
}

/// Connects and completes the versioned handshake.
fn greet(addr: SocketAddr) -> Client {
    let mut c = connect(addr);
    send(&mut c, HELLO);
    let ack = read_line(&mut c);
    assert!(
        ack.contains("\"ok\":true") && ack.contains(&format!("\"protocol\":{PROTOCOL_VERSION}")),
        "handshake ack: {ack}"
    );
    c
}

fn send(c: &mut Client, line: &str) {
    c.stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send line");
}

fn read_line(c: &mut Client) -> String {
    let mut line = String::new();
    let n = c.reader.read_line(&mut line).expect("read reply");
    assert!(n > 0, "daemon closed the connection unexpectedly");
    line.trim_end().to_string()
}

/// Reads until EOF, returning whatever lines arrived first.
fn read_to_eof(c: &mut Client) -> Vec<String> {
    let mut all = String::new();
    c.reader.read_to_string(&mut all).expect("read to eof");
    all.lines().map(str::to_string).collect()
}

/// The reference decisions: kernel name → (unroll, balance bits,
/// original-balance bits, registers) from the sequential batch
/// optimizer, the ground truth every ok reply must match bitwise.
type Reference = std::collections::BTreeMap<String, (Vec<u32>, u64, u64, i64)>;

fn reference() -> Reference {
    let suite = kernels();
    let nests: Vec<_> = suite.iter().map(|k| k.nest()).collect();
    optimize_batch(&nests, &MachineModel::dec_alpha())
        .iter()
        .zip(&suite)
        .map(|(plan, k)| {
            let plan = plan.as_ref().expect("suite kernels optimize");
            (
                k.name.to_string(),
                (
                    plan.unroll.clone(),
                    plan.predicted.balance.to_bits(),
                    plan.original.balance.to_bits(),
                    plan.predicted.registers,
                ),
            )
        })
        .collect()
}

/// Asserts one ok reply is bitwise the reference decision for `kernel`.
fn assert_bitwise(reply: &str, kernel: &str, reference: &Reference) {
    let doc = json::parse(reply).expect("reply is valid JSON");
    assert_eq!(
        doc.get("ok"),
        Some(&json::Value::Bool(true)),
        "expected ok reply for {kernel}: {reply}"
    );
    let (unroll, balance, original, registers) = &reference[kernel];
    let got_unroll: Vec<u32> = doc
        .get("unroll")
        .and_then(json::Value::as_array)
        .expect("unroll array")
        .iter()
        .map(|v| v.as_f64().expect("unroll component") as u32)
        .collect();
    assert_eq!(&got_unroll, unroll, "{kernel}: unroll diverged: {reply}");
    assert_eq!(
        doc.get("balance")
            .and_then(json::Value::as_f64)
            .expect("balance")
            .to_bits(),
        *balance,
        "{kernel}: balance not bitwise-identical: {reply}"
    );
    assert_eq!(
        doc.get("original_balance")
            .and_then(json::Value::as_f64)
            .expect("original_balance")
            .to_bits(),
        *original,
        "{kernel}: original balance not bitwise-identical: {reply}"
    );
    assert_eq!(
        doc.get("registers")
            .and_then(json::Value::as_f64)
            .expect("registers") as i64,
        *registers,
        "{kernel}: registers diverged: {reply}"
    );
}

/// ≥100 concurrent TCP clients in five behavior classes: valid
/// pipelined requests, half-written lines with mid-request disconnects,
/// oversized frames, wrong-version handshakes, and handshake-less
/// requests.  The daemon must answer every well-formed line with valid
/// JSON (ok or a structured shed), never panic, and still serve
/// bitwise-correct decisions afterwards.
#[test]
fn hostile_soak_100_concurrent_tcp_clients() {
    const CLIENTS: usize = 100;
    let valid = ["dmxpy0", "dmxpy1", "jacobi", "sor"];
    let reference = reference();

    with_tcp_daemon(
        ServeConfig {
            workers: 4,
            cache_capacity: 64,
            shards: 8,
            ..ServeConfig::default()
        },
        ReactorConfig::default(),
        |addr, _| {
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for c in 0..CLIENTS {
                    let reference = &reference;
                    handles.push(scope.spawn(move || match c % 5 {
                        // Well-behaved: handshake, two pipelined
                        // requests (a deliberate duplicate), ordered
                        // replies, each ok-and-bitwise or a structured
                        // shed.
                        0 => {
                            let kernel = valid[c % valid.len()];
                            let mut conn = greet(addr);
                            send(
                                &mut conn,
                                &format!("{{\"id\":\"{c}-a\",\"kernel\":\"{kernel}\"}}"),
                            );
                            send(
                                &mut conn,
                                &format!("{{\"id\":\"{c}-b\",\"kernel\":\"{kernel}\"}}"),
                            );
                            for tag in ["a", "b"] {
                                let reply = read_line(&mut conn);
                                assert!(
                                    reply.contains(&format!("\"id\":\"{c}-{tag}\"")),
                                    "client {c}: replies out of order: {reply}"
                                );
                                if reply.contains("\"ok\":true") {
                                    assert_bitwise(&reply, kernel, reference);
                                } else {
                                    assert!(
                                        reply.contains("\"overloaded\"")
                                            && reply.contains("\"retry_ms\""),
                                        "client {c}: non-ok replies must be structured \
                                         sheds: {reply}"
                                    );
                                }
                            }
                        }
                        // Half a line, then vanish mid-request.
                        1 => {
                            let mut conn = greet(addr);
                            conn.stream
                                .write_all(b"{\"id\":\"half-written\",\"kern")
                                .expect("partial write");
                            // Dropping both halves closes the socket.
                        }
                        // An oversized frame, then a valid request on
                        // the same connection: the stream must recover.
                        2 => {
                            let mut conn = greet(addr);
                            let huge = vec![b'x'; (1 << 20) + 4096];
                            conn.stream.write_all(&huge).expect("oversized line");
                            send(&mut conn, ""); // terminate the monster
                            send(
                                &mut conn,
                                &format!("{{\"id\":\"{c}-ok\",\"kernel\":\"sor\"}}"),
                            );
                            let first = read_line(&mut conn);
                            assert!(
                                first.contains("frame_too_long"),
                                "client {c}: oversized line must be a structured \
                                 error: {first}"
                            );
                            let second = read_line(&mut conn);
                            assert!(
                                second.contains(&format!("\"id\":\"{c}-ok\"")),
                                "client {c}: stream must recover after the bad frame: \
                                 {second}"
                            );
                        }
                        // Wrong protocol version: structured rejection,
                        // then the daemon hangs up.
                        3 => {
                            let mut conn = connect(addr);
                            send(&mut conn, "{\"id\":\"v9\",\"cmd\":\"hello\",\"version\":9}");
                            let lines = read_to_eof(&mut conn);
                            assert!(
                                lines.first().is_some_and(|l| l.contains("bad_version")),
                                "client {c}: wrong version must be rejected: {lines:?}"
                            );
                        }
                        // No handshake at all: structured rejection,
                        // then the daemon hangs up.
                        _ => {
                            let mut conn = connect(addr);
                            send(&mut conn, &format!("{{\"id\":\"{c}\",\"kernel\":\"sor\"}}"));
                            let lines = read_to_eof(&mut conn);
                            assert!(
                                lines
                                    .first()
                                    .is_some_and(|l| l.contains("handshake_required")),
                                "client {c}: handshake-less requests must be rejected: \
                                 {lines:?}"
                            );
                        }
                    }));
                }
                for (c, h) in handles.into_iter().enumerate() {
                    h.join().unwrap_or_else(|_| panic!("client {c} panicked"));
                }
            });

            // After the storm: every kernel the soak touched still
            // serves decisions bitwise-identical to optimize_batch.
            let mut conn = greet(addr);
            for kernel in valid {
                send(
                    &mut conn,
                    &format!("{{\"id\":\"probe\",\"kernel\":\"{kernel}\"}}"),
                );
                assert_bitwise(&read_line(&mut conn), kernel, &reference);
            }
        },
    );
}

/// A pipelined burst far past the queue cap: the daemon answers every
/// line in order, sheds the overflow with structured `overloaded`
/// replies carrying `retry_ms`, and serves bitwise-correct decisions
/// once the load passes.
#[test]
fn overload_sheds_structured_errors_and_recovers() {
    const BURST: usize = 40;
    let reference = reference();

    with_tcp_daemon(
        ServeConfig {
            workers: 1,
            cache_capacity: 0, // every request computes: the queue backs up
            shards: 1,
            ..ServeConfig::default()
        },
        ReactorConfig {
            max_queue: 2,
            ..ReactorConfig::default()
        },
        |addr, server| {
            let mut conn = greet(addr);
            let mut payload = String::new();
            for i in 0..BURST {
                payload.push_str(&format!("{{\"id\":\"r{i}\",\"kernel\":\"dmxpy1\"}}\n"));
            }
            conn.stream
                .write_all(payload.as_bytes())
                .expect("burst write");

            let mut shed = 0;
            let mut served = 0;
            for i in 0..BURST {
                let reply = read_line(&mut conn);
                assert!(
                    reply.contains(&format!("\"id\":\"r{i}\"")),
                    "reply {i} out of order: {reply}"
                );
                if reply.contains("\"ok\":true") {
                    assert_bitwise(&reply, "dmxpy1", &reference);
                    served += 1;
                } else {
                    assert!(
                        reply.contains("\"overloaded\"") && reply.contains("\"retry_ms\""),
                        "shed replies must be structured with a backoff: {reply}"
                    );
                    shed += 1;
                }
            }
            assert!(shed >= 1, "a 20x-overcommitted queue must shed");
            assert!(served >= 1, "admitted work must still be answered");
            assert_eq!(shed + served, BURST);
            assert_eq!(
                server.metrics_snapshot().counter("serve.shed"),
                shed as u64,
                "every shed is counted"
            );

            // Post-load: the daemon answers fresh work, bitwise correct.
            send(&mut conn, "{\"id\":\"after\",\"kernel\":\"sor\"}");
            assert_bitwise(&read_line(&mut conn), "sor", &reference);
        },
    );
}

/// Idle and slow-loris connections are reaped by the read timeout and
/// counted — the fix for the blocking reader that parked a thread
/// forever on a silent client.
#[test]
fn idle_and_slow_loris_connections_are_reaped() {
    with_tcp_daemon(
        ServeConfig {
            workers: 1,
            cache_capacity: 16,
            shards: 1,
            ..ServeConfig::default()
        },
        ReactorConfig {
            read_timeout: Duration::from_millis(150),
            ..ReactorConfig::default()
        },
        |addr, server| {
            // One connection greets then goes silent; one trickles half
            // a line and stalls (the slow-loris shape).
            let mut idle = greet(addr);
            let mut loris = greet(addr);
            loris
                .stream
                .write_all(b"{\"id\":\"loris\"")
                .expect("partial write");

            // Both must be hung up on by the daemon, not kept forever.
            let mut buf = String::new();
            idle.reader.read_to_string(&mut buf).expect("idle reaped");
            assert!(buf.is_empty(), "reap sends nothing: {buf:?}");
            let mut buf = String::new();
            loris.reader.read_to_string(&mut buf).expect("loris reaped");
            assert!(buf.is_empty(), "reap sends nothing: {buf:?}");

            assert_eq!(
                server.metrics_snapshot().counter("serve.conn.timeout"),
                2,
                "both reaps are counted"
            );
            // The daemon is still healthy for new clients.  Pipeline
            // the handshake with the request: at a 150 ms read timeout,
            // a greet-then-send roundtrip leaves an idle window the
            // reaper can hit when the test host is saturated.
            let mut conn = connect(addr);
            send(
                &mut conn,
                &format!("{HELLO}\n{{\"id\":\"alive\",\"kernel\":\"sor\"}}"),
            );
            assert!(read_line(&mut conn).contains("\"ok\":true"), "hello ack");
            assert!(read_line(&mut conn).contains("\"ok\":true"), "alive reply");
        },
    );
}

/// The whole Table 2 suite pipelined over one TCP connection: replies
/// in request order, every decision bitwise-identical to the
/// sequential batch optimizer.
#[test]
fn full_suite_over_tcp_is_bitwise_identical_to_optimize_batch() {
    let reference = reference();
    let suite = kernels();
    with_tcp_daemon(
        ServeConfig {
            workers: 4,
            cache_capacity: 64,
            shards: 4,
            ..ServeConfig::default()
        },
        ReactorConfig::default(),
        |addr, _| {
            let mut conn = greet(addr);
            let mut payload = String::new();
            for k in &suite {
                payload.push_str(&format!(
                    "{{\"id\":\"{}\",\"kernel\":\"{}\"}}\n",
                    k.name, k.name
                ));
            }
            conn.stream
                .write_all(payload.as_bytes())
                .expect("pipelined suite");
            for k in &suite {
                let reply = read_line(&mut conn);
                assert!(
                    reply.contains(&format!("\"id\":\"{}\"", k.name)),
                    "suite replies must arrive in request order: {reply}"
                );
                assert_bitwise(&reply, k.name, &reference);
            }
        },
    );
}

/// `stats` and `flight` admin probes interleaved with optimization
/// requests over one pipelined TCP connection: every reply arrives in
/// request order, kernel replies stay bitwise-identical to
/// `optimize_batch`, the probes never land in the request counters or
/// the flight recorder, and the recorder ends up holding exactly the
/// optimization requests.
#[test]
fn admin_probes_interleaved_with_requests_do_not_perturb_replies() {
    let reference = reference();
    let work = ["dmxpy1", "sor", "jacobi", "dmxpy0", "dmxpy1", "sor"];

    with_tcp_daemon(
        ServeConfig {
            workers: 2,
            cache_capacity: 16,
            shards: 2,
            ..ServeConfig::default()
        },
        ReactorConfig::default(),
        |addr, server| {
            let mut conn = greet(addr);
            for (i, kernel) in work.iter().enumerate() {
                // Pipeline a request and a probe together, so the probe
                // (answered inline on the reactor thread) races the
                // request (answered by a worker) for the reply slot.
                send(
                    &mut conn,
                    &format!("{{\"id\":\"r{i}\",\"kernel\":\"{kernel}\"}}"),
                );
                let probe = if i % 2 == 0 {
                    format!("{{\"id\":\"p{i}\",\"cmd\":\"stats\"}}")
                } else {
                    format!("{{\"id\":\"p{i}\",\"cmd\":\"flight\"}}")
                };
                send(&mut conn, &probe);
                let reply = read_line(&mut conn);
                assert!(
                    reply.contains(&format!("\"id\":\"r{i}\"")),
                    "request reply {i} out of order: {reply}"
                );
                assert_bitwise(&reply, kernel, &reference);
                let probe_reply = read_line(&mut conn);
                assert!(
                    probe_reply.contains(&format!("\"id\":\"p{i}\""))
                        && probe_reply.contains("\"ok\":true"),
                    "probe reply {i} out of order or refused: {probe_reply}"
                );
            }

            // The richer probe shapes answer on the same connection too.
            send(
                &mut conn,
                "{\"id\":\"ps\",\"cmd\":\"stats\",\"series\":true}",
            );
            let series = read_line(&mut conn);
            assert!(
                series.contains("\"series\":{") && series.contains("\"stats\":{"),
                "series stats reply carries both documents: {series}"
            );
            send(
                &mut conn,
                "{\"id\":\"pf\",\"cmd\":\"flight\",\"slow_only\":true}",
            );
            let slow = read_line(&mut conn);
            assert!(
                slow.contains("\"recent\":[]"),
                "slow-only flight replies omit the recent ring: {slow}"
            );

            // Ground truth: only optimization requests count as
            // requests and reach the flight recorder; probes are admin
            // traffic.
            let snap = server.metrics_snapshot();
            assert_eq!(
                snap.counter("serve.requests"),
                work.len() as u64,
                "admin probes must not count as requests"
            );
            assert!(
                snap.counter("serve.admin_requests") >= work.len() as u64 + 2,
                "every probe counts as admin traffic"
            );

            send(&mut conn, "{\"id\":\"pd\",\"cmd\":\"flight\"}");
            let dump = read_line(&mut conn);
            let doc = json::parse(&dump).expect("flight reply parses");
            let recent = doc
                .get("flight")
                .and_then(|f| f.get("recent"))
                .and_then(json::Value::as_array)
                .expect("flight reply has a recent ring");
            assert_eq!(
                recent.len(),
                work.len(),
                "the recorder holds exactly the optimization requests: {dump}"
            );
            // Every retained timeline has its full edge breakdown: the
            // replies above were read off the socket, so each request
            // was framed, queued, answered, and flushed.
            for t in recent {
                let durations = t.get("durations").expect("timeline durations");
                for key in ["queue_ns", "flush_ns", "total_ns"] {
                    assert!(
                        durations.get(key).and_then(json::Value::as_f64).is_some(),
                        "timeline missing {key}: {dump}"
                    );
                }
                let outcome = t.get("outcome").cloned();
                assert_eq!(
                    outcome,
                    Some(json::Value::String("ok".to_string())),
                    "soaked requests all succeeded: {dump}"
                );
            }
        },
    );
}

/// The Unix socket speaks the one dialect, through the same event loop:
/// a ghost client that connects and leaves wedges nothing, a request
/// before the hello gets one `handshake_required` reply and the
/// connection closes after its flush, a wrong version gets
/// `bad_version` and closes, and after a valid hello the same request
/// is answered.
#[test]
fn unix_socket_requires_the_versioned_hello() {
    use std::os::unix::net::{UnixListener, UnixStream};
    let path = std::env::temp_dir().join(format!("ujam-reactor-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind unix socket");
    // Writes `text` in one write and reads reply lines until the daemon
    // closes the connection.
    let exchange = |text: String| -> Vec<String> {
        let mut stream = UnixStream::connect(&path).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream.write_all(text.as_bytes()).expect("send");
        BufReader::new(stream)
            .lines()
            .map_while(Result::ok)
            .collect()
    };
    let request = "{\"id\":\"u\",\"kernel\":\"dmxpy1\"}";
    let wrong = "{\"id\":\"v\",\"cmd\":\"hello\",\"version\":9}";
    let bye = "{\"id\":\"bye\",\"cmd\":\"shutdown\"}";

    let server = Server::new(ServeConfig::default(), ujam::trace::null_sink());
    let (refused, wrong, greeted) = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| {
            server
                .run_reactor(
                    Transports {
                        tcp: None,
                        unix: Some(listener),
                    },
                    ReactorConfig::default(),
                )
                .expect("reactor runs until shutdown");
        });
        // A ghost: connects, says nothing, leaves.
        drop(UnixStream::connect(&path).expect("ghost connects"));
        let replies = (
            exchange(format!("{request}\n{HELLO}\n")),
            exchange(format!("{wrong}\n{request}\n")),
            // The daemon closes every socket as it exits.
            exchange(format!("{HELLO}\n{request}\n{bye}\n")),
        );
        daemon.join().expect("daemon exits cleanly");
        replies
    });
    let _ = std::fs::remove_file(&path);

    // Each connection's replies, by prefix: the hello after the refused
    // request is never answered.
    let expect = |replies: &[String], prefixes: &[&str]| {
        assert_eq!(replies.len(), prefixes.len(), "{replies:?}");
        for (reply, prefix) in replies.iter().zip(prefixes) {
            assert!(reply.starts_with(prefix), "{replies:?}");
        }
    };
    let refusal = |id, kind| format!(r#"{{"id":"{id}","ok":false,"error":{{"kind":"{kind}""#);
    expect(&refused, &[&refusal("u", "handshake_required")]);
    expect(&wrong, &[&refusal("v", "bad_version")]);
    let ack = format!(r#"{{"id":"h","ok":true,"protocol":{PROTOCOL_VERSION}}}"#);
    expect(
        &greeted,
        &[
            &ack,
            r#"{"id":"u","ok":true"#,
            r#"{"id":"bye","ok":true,"shutdown":true}"#,
        ],
    );
}

/// Cache hits answered on the reactor thread still respect the
/// per-connection output bound: a client that pipelines hits and never
/// reads sees its writes stall with `WouldBlock` — the daemon stops
/// reading once a `MAX_LINE_BYTES` backlog of replies awaits the flush —
/// instead of the daemon buffering replies without limit.  Once the
/// client reads, every reply arrives, in order.
#[test]
fn unread_hit_replies_stall_the_writer_then_all_arrive_in_order() {
    /// The most lines offered: far more than the socket buffers on
    /// both sides plus the daemon's bounded backlog can hold.
    const CAP: usize = 1_000_000;
    // Long ids fill those buffers in tens of thousands of lines.
    let pad = "x".repeat(300);
    let line = |i: usize| format!("{{\"id\":\"h{i}{pad}\",\"kernel\":\"dmxpy1\"}}\n").into_bytes();
    with_tcp_daemon(
        ServeConfig {
            workers: 1,
            cache_capacity: 16,
            shards: 1,
            ..ServeConfig::default()
        },
        ReactorConfig::default(),
        |addr, _| {
            let mut conn = greet(addr);
            send(&mut conn, "{\"id\":\"warm\",\"kernel\":\"dmxpy1\"}");
            assert!(read_line(&mut conn).contains("\"ok\":true"));

            conn.stream.set_nonblocking(true).expect("nonblocking");
            let (mut next, mut pending, mut pos) = (0, line(0), 0);
            let mut blocked_for = 0;
            // A stall is a write that keeps failing with `WouldBlock`
            // for half a second: the daemon has stopped reading.
            while blocked_for < 50 {
                match conn.stream.write(&pending[pos..]) {
                    Ok(n) => {
                        blocked_for = 0;
                        pos += n;
                        if pos == pending.len() {
                            next += 1;
                            assert!(
                                next < CAP,
                                "{CAP} unread hit lines never stalled the writer"
                            );
                            (pending, pos) = (line(next), 0);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        blocked_for += 1;
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => panic!("write failed: {e}"),
                }
            }

            // Finish the line the stall cut, then read every reply.
            conn.stream.set_nonblocking(false).expect("blocking");
            let sent = next + usize::from(pos > 0);
            let Client { stream, reader } = &mut conn;
            std::thread::scope(|scope| {
                let reading = scope.spawn(|| {
                    for i in 0..sent {
                        let mut reply = String::new();
                        let n = reader.read_line(&mut reply).expect("read reply");
                        assert!(n > 0, "daemon closed after {i} of {sent} replies");
                        assert!(
                            reply.starts_with(&format!("{{\"id\":\"h{i}{pad}\",\"ok\":true,")),
                            "reply {i} of {sent} out of order or failed"
                        );
                        assert!(reply.contains("\"cached\":true"), "{reply}");
                    }
                });
                if pos > 0 {
                    stream
                        .write_all(&pending[pos..])
                        .expect("rest of the cut line");
                }
                reading.join().expect("every reply in order");
            });
        },
    );
}

/// Hits and misses in one pipelined burst against a one-slot queue:
/// hits are answered on the reactor thread and are never shed, only
/// fresh misses are; replies keep request order; the shed, request,
/// reply and cache counters all reconcile; and every answered reply is
/// byte-for-byte what `handle_line` on a fresh server returns for the
/// same line, up to its `cached` flag.
#[test]
fn hits_and_misses_interleaved_under_a_full_queue() {
    let cfg = ServeConfig {
        workers: 2,
        cache_capacity: 256,
        shards: 2,
        ..ServeConfig::default()
    };
    let warm = ["dmxpy0", "dmxpy1", "sor", "jacobi"];
    // Every miss is a distinct problem (kernel × machine), so none of
    // them can be answered from an entry another one filled.
    let fresh: Vec<String> = kernels()
        .iter()
        .filter(|k| !warm.contains(&k.name))
        .flat_map(|k| {
            ["parisc", "prefetch"].map(|m| format!("\"kernel\":\"{}\",\"machine\":\"{m}\"", k.name))
        })
        .collect();
    let mut burst = Vec::new();
    for (i, miss) in fresh.iter().enumerate() {
        let hit = warm[i % warm.len()];
        burst.push((true, format!("{{\"id\":\"h{i}\",\"kernel\":\"{hit}\"}}")));
        burst.push((false, format!("{{\"id\":\"m{i}\",{miss}}}")));
    }

    let mut replies = Vec::new();
    let server = with_tcp_daemon(
        cfg,
        ReactorConfig {
            max_queue: 1,
            ..ReactorConfig::default()
        },
        |addr, _| {
            let mut conn = greet(addr);
            for (i, kernel) in warm.iter().enumerate() {
                send(
                    &mut conn,
                    &format!("{{\"id\":\"w{i}\",\"kernel\":\"{kernel}\"}}"),
                );
                assert!(read_line(&mut conn).contains("\"cached\":false"));
            }
            let mut payload = String::new();
            for (_, line) in &burst {
                payload.push_str(line);
                payload.push('\n');
            }
            conn.stream
                .write_all(payload.as_bytes())
                .expect("burst write");
            for _ in &burst {
                replies.push(read_line(&mut conn));
            }
        },
    );

    let fresh_server = Server::new(cfg, ujam::trace::null_sink());
    let mut shed = 0u64;
    let mut misses_served = 0;
    for ((is_hit, line), reply) in burst.iter().zip(&replies) {
        let id = json::parse(line).expect("request parses");
        let id = id.get("id").and_then(json::Value::as_str).expect("id");
        assert!(
            reply.starts_with(&format!("{{\"id\":\"{id}\",")),
            "reply out of request order: expected {id}, got {reply}"
        );
        if reply.contains("\"overloaded\"") {
            assert!(!is_hit, "a hit was shed: {reply}");
            shed += 1;
            continue;
        }
        if *is_hit {
            assert!(
                reply.contains("\"cached\":true"),
                "hit not served from the cache: {reply}"
            );
        } else {
            misses_served += 1;
        }
        let uncached = |r: &str| r.replace("\"cached\":true", "\"cached\":false");
        assert_eq!(
            uncached(reply),
            uncached(&fresh_server.handle_line(line)),
            "reply differs from a fresh server's answer to {line}"
        );
    }
    assert!(
        shed >= 1,
        "a one-slot queue under a burst of misses must shed"
    );
    assert!(misses_served >= 1, "admitted misses must still be answered");

    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("serve.shed"), shed, "every shed is counted");
    let requests = snap.counter("serve.requests");
    assert_eq!(
        requests,
        snap.counter("serve.replies_ok") + snap.counter("serve.replies_error")
    );
    assert_eq!(
        snap.counter("serve.cache.hits") + snap.counter("serve.cache.misses"),
        requests,
        "one counted probe per answered request"
    );
    assert_eq!(
        requests,
        (warm.len() + burst.len()) as u64 - shed,
        "shed misses are not requests"
    );
}

/// Large adversarial inline sources do not stall the event loop.  One
/// connection pipelines sources built to be expensive for the Fortran
/// front end — tens of thousands of declarations and references that
/// fail validation only at the last statement, operator chains and
/// parentheses past the expression depth bound, loop headers past the
/// nest depth bound — both at full frame size and at just under the
/// size whose front stage the reactor runs itself.  Meanwhile a second
/// connection keeps asking for `stats` and a cached kernel; each of
/// those must come back promptly, and every adversarial source gets its
/// structured `parse` error, in order.  A valid source over that size
/// is still served — by a worker, front stage included — and cached.
#[test]
fn adversarial_inline_sources_do_not_stall_other_connections() {
    /// Quick replies take milliseconds here even in a debug build; a
    /// front stage quadratic in the source length, run on the reactor
    /// thread, holds every connection for about ten seconds.
    const PROMPT: Duration = Duration::from_secs(1);
    let escape = |src: &str| src.replace('\n', "\\n");
    // `budget` bytes of source, each shape failing in the front end.
    let shapes = |budget: usize| -> Vec<(&str, String)> {
        let n = budget / 40;
        let decls: Vec<String> = (0..n).map(|k| format!("A{k}(4)")).collect();
        let mut refs = format!("      DIMENSION {}\n      DO I = 1, 4\n", decls.join(", "));
        let mut k = 0;
        while refs.len() < budget - 64 {
            refs += &format!("A{}(I)=A{}(I)\n", k % n, (k * 7919 + 1) % n);
            k += 1;
        }
        refs += "Z(I)=1\n      ENDDO\n      END";

        let stmt = |rhs: String| {
            format!("      DIMENSION A(4)\n      DO I = 1, 4\nA(I)={rhs}\n      ENDDO\n      END")
        };
        let terms = (budget - 100) / 5;
        let chain = stmt(vec!["A(I)"; terms].join("+"));
        let parens = stmt(format!(
            "{}1{}",
            "(".repeat(terms * 2),
            ")".repeat(terms * 2)
        ));
        let mut loops = String::from("      DIMENSION A(4)\n");
        let mut k = 0;
        while loops.len() < budget - 64 {
            loops += &format!("DO I{k}=1,4\n");
            k += 1;
        }
        loops += "A(I0)=1\nEND";
        vec![
            ("undeclared", refs),
            ("deeper", chain),
            ("deeper", parens),
            ("deeper", loops),
        ]
    };
    let mut lines = Vec::new();
    for budget in [900_000, 8_000] {
        for (expect, src) in shapes(budget) {
            let line = format!(
                "{{\"id\":\"a{}\",\"source\":\"{}\"}}",
                lines.len(),
                escape(&src)
            );
            assert!(line.len() < ujam::serve::MAX_LINE_BYTES, "{}", line.len());
            lines.push((expect, line));
        }
    }

    let server = with_tcp_daemon(
        ServeConfig {
            workers: 1,
            cache_capacity: 16,
            shards: 1,
            ..ServeConfig::default()
        },
        ReactorConfig::default(),
        |addr, _| {
            let mut quick = greet(addr);
            send(&mut quick, "{\"id\":\"warm\",\"kernel\":\"dmxpy1\"}");
            assert!(read_line(&mut quick).contains("\"ok\":true"));

            // Comment lines take a real kernel past the reactor's 8 KiB
            // front-stage limit without changing its nest.
            let nest = kernels()[0].nest();
            let padded = "! padding\n".repeat(1000) + &ujam::fortran::emit(&nest);
            let big = |id: &str| format!("{{\"id\":\"{id}\",\"source\":\"{}\"}}", escape(&padded));
            let fresh = Server::new(ServeConfig::default(), ujam::trace::null_sink());
            let uncached = |r: &str| r.replace("\"cached\":true", "\"cached\":false");
            for (id, cached) in [("big1", false), ("big2", true)] {
                send(&mut quick, &big(id));
                let reply = read_line(&mut quick);
                assert!(reply.contains(&format!("\"cached\":{cached}")), "{reply}");
                assert_eq!(uncached(&reply), uncached(&fresh.handle_line(&big(id))));
            }

            let mut hostile = greet(addr);
            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                let Client { stream, reader } = &mut hostile;
                scope.spawn(|| {
                    for (_, line) in &lines {
                        stream
                            .write_all(format!("{line}\n").as_bytes())
                            .expect("send hostile line");
                    }
                });
                let answers = scope.spawn(|| {
                    let mut replies = Vec::new();
                    for _ in &lines {
                        let mut reply = String::new();
                        let n = reader.read_line(&mut reply).expect("read reply");
                        assert!(n > 0, "daemon closed the hostile connection");
                        replies.push(reply);
                    }
                    done.store(true, std::sync::atomic::Ordering::SeqCst);
                    replies
                });

                let mut probes = 0;
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    for line in [
                        "{\"id\":\"s\",\"cmd\":\"stats\"}",
                        "{\"id\":\"k\",\"kernel\":\"dmxpy1\"}",
                    ] {
                        let start = std::time::Instant::now();
                        send(&mut quick, line);
                        let reply = read_line(&mut quick);
                        let took = start.elapsed();
                        assert!(reply.contains("\"ok\":true"), "{reply}");
                        assert!(
                            took < PROMPT,
                            "{line} took {took:?} behind adversarial sources"
                        );
                        probes += 1;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                assert!(probes > 0, "no probe overlapped the adversarial sources");

                let replies = answers.join().expect("every hostile reply");
                for (i, ((expect, _), reply)) in lines.iter().zip(&replies).enumerate() {
                    assert!(
                        reply.starts_with(&format!("{{\"id\":\"a{i}\",\"ok\":false,")),
                        "reply {i} out of order or not an error: {reply:.200}"
                    );
                    assert!(
                        reply.contains("\"kind\":\"parse\"") && reply.contains(expect),
                        "reply {i}: expected a parse error mentioning {expect:?}: {reply:.300}"
                    );
                }
            });
        },
    );
    let snap = server.metrics_snapshot();
    assert_eq!(
        snap.counter("serve.requests"),
        snap.counter("serve.replies_ok") + snap.counter("serve.replies_error")
    );
}

/// Per-shard cache counters add up to the totals through the reactor.
/// Every request counter moves once, when the request retires, so a
/// request the front stage missed and the miss stage answered from an
/// entry a duplicate filled meanwhile counts one hit, on its shard.
/// The burst pipelines duplicates of a slow deep kernel behind one
/// worker (the first is still analysing when the rest are keyed), fresh
/// kernels twice each, an unknown kernel and a malformed line (no
/// probe), and a deadline miss (a probe, then an error).
#[test]
fn per_shard_cache_counters_sum_to_the_totals() {
    let cfg = ServeConfig {
        workers: 1,
        cache_capacity: 256,
        shards: 4,
        ..ServeConfig::default()
    };
    let all = kernels();
    let mut burst: Vec<String> = (0..4)
        .map(|i| format!("{{\"id\":\"d{i}\",\"kernel\":\"assemble4\",\"max_unroll_loops\":0}}"))
        .collect();
    for (i, k) in all.iter().take(10).enumerate() {
        for rep in 0..2 {
            burst.push(format!(
                "{{\"id\":\"k{i}.{rep}\",\"kernel\":\"{}\"}}",
                k.name
            ));
        }
    }
    burst.push("{\"id\":\"u\",\"kernel\":\"no-such-kernel\"}".to_string());
    burst.push("not json".to_string());
    burst.push(format!(
        "{{\"id\":\"late\",\"kernel\":\"{}\",\"machine\":\"parisc\",\"deadline_ms\":0}}",
        all[12].name
    ));

    let mut replies = Vec::new();
    let server = with_tcp_daemon(cfg, ReactorConfig::default(), |addr, _| {
        let mut conn = greet(addr);
        let payload: String = burst.iter().map(|line| format!("{line}\n")).collect();
        conn.stream
            .write_all(payload.as_bytes())
            .expect("burst write");
        for _ in &burst {
            replies.push(read_line(&mut conn));
        }
    });
    assert!(replies.iter().all(|r| !r.contains("\"overloaded\"")));
    assert!(replies[1..4].iter().all(|r| r.contains("\"cached\":true")));
    assert!(
        server
            .flight()
            .recent()
            .iter()
            .any(|t| t.cached && t.dequeued > t.enqueued),
        "a queued miss was answered from the cache by the miss stage"
    );

    let snap = server.metrics_snapshot();
    let (hits, misses) = (
        snap.counter("serve.cache.hits"),
        snap.counter("serve.cache.misses"),
    );
    let shard_sum = |what: &str| -> u64 {
        (0..4)
            .map(|i| snap.counter(&format!("serve.cache.shard{i}.{what}")))
            .sum()
    };
    assert_eq!(shard_sum("hits"), hits);
    assert_eq!(shard_sum("misses"), misses);
    assert_eq!(
        snap.histogram("serve.cache.lookup_ns")
            .expect("present")
            .count,
        hits + misses,
        "one lookup time per counted probe"
    );
    let requests = snap.counter("serve.requests");
    assert_eq!(requests, burst.len() as u64);
    assert_eq!(
        requests,
        snap.counter("serve.replies_ok") + snap.counter("serve.replies_error")
    );
    assert_eq!(hits + misses, requests - 2, "two requests never probe");
    assert_eq!(misses, 1 + 10 + 1, "one miss per distinct problem");
    assert_eq!(snap.counter("serve.deadline_exceeded"), 1);
}

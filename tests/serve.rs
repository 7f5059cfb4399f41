//! Integration tests of the `ujam-serve` daemon core: determinism
//! against the sequential batch optimizer, cache effectiveness on
//! replay, and a concurrent soak with hostile traffic mixed in.

use std::io::{Cursor, Write};
use std::time::Duration;

use ujam::core::optimize_batch;
use ujam::kernels::kernels;
use ujam::machine::MachineModel;
use ujam::serve::{ServeConfig, Server};
use ujam::trace::{json, null_sink};

fn test_config() -> ServeConfig {
    ServeConfig {
        workers: 4,
        cache_capacity: 64,
        shards: 1,
        ..ServeConfig::default()
    }
}

/// One reply line, parsed, with the fields the replay comparison needs.
fn parse_ok(line: &str) -> (String, Vec<u32>, u64, u64, i64) {
    let doc = json::parse(line).expect("reply is valid JSON");
    assert_eq!(
        doc.get("ok"),
        Some(&json::Value::Bool(true)),
        "expected ok reply: {line}"
    );
    let id = doc
        .get("id")
        .and_then(json::Value::as_str)
        .expect("id string")
        .to_string();
    let unroll: Vec<u32> = doc
        .get("unroll")
        .and_then(json::Value::as_array)
        .expect("unroll array")
        .iter()
        .map(|v| v.as_f64().expect("unroll component") as u32)
        .collect();
    let balance = doc
        .get("balance")
        .and_then(json::Value::as_f64)
        .expect("balance")
        .to_bits();
    let original = doc
        .get("original_balance")
        .and_then(json::Value::as_f64)
        .expect("original_balance")
        .to_bits();
    let registers = doc
        .get("registers")
        .and_then(json::Value::as_f64)
        .expect("registers") as i64;
    (id, unroll, balance, original, registers)
}

/// Replaying the whole Table 2 kernel suite through the daemon must give
/// decisions bitwise-identical to the sequential batch optimizer, and a
/// second replay must be served (almost) entirely from the cache.
#[test]
fn suite_replay_matches_sequential_batch_and_second_pass_hits_cache() {
    let suite = kernels();
    let nests: Vec<_> = suite.iter().map(|k| k.nest()).collect();
    let expected = optimize_batch(&nests, &MachineModel::dec_alpha());

    let server = Server::new(test_config(), null_sink());
    let mut input = String::new();
    for k in &suite {
        input.push_str(&format!(
            "{{\"id\":\"{}\",\"kernel\":\"{}\"}}\n",
            k.name, k.name
        ));
    }

    let mut out = Vec::new();
    server
        .run(Cursor::new(input.clone()), &mut out)
        .expect("io ok");
    let text = String::from_utf8(out).expect("utf8");
    let replies: Vec<&str> = text.lines().collect();
    assert_eq!(replies.len(), suite.len(), "one reply per kernel");

    for ((reply, kernel), plan) in replies.iter().zip(&suite).zip(&expected) {
        let plan = plan.as_ref().expect("suite kernels all optimize");
        let (id, unroll, balance, original, registers) = parse_ok(reply);
        assert_eq!(id, kernel.name, "replies arrive in request order");
        assert_eq!(unroll, plan.unroll, "{id}: unroll vector diverged");
        assert_eq!(
            balance,
            plan.predicted.balance.to_bits(),
            "{id}: balance not bitwise-identical"
        );
        assert_eq!(
            original,
            plan.original.balance.to_bits(),
            "{id}: original balance not bitwise-identical"
        );
        assert_eq!(
            registers, plan.predicted.registers,
            "{id}: registers diverged"
        );
    }

    // Second replay: identical payloads, now ≥ 90 % cache-served.
    let before = server.metrics_snapshot();
    let mut out = Vec::new();
    server.run(Cursor::new(input), &mut out).expect("io ok");
    let text = String::from_utf8(out).expect("utf8");
    for (reply, kernel) in text.lines().zip(&suite) {
        let doc = json::parse(reply).expect("valid JSON");
        assert_eq!(
            doc.get("cached"),
            Some(&json::Value::Bool(true)),
            "{}: replay must be cache-served",
            kernel.name
        );
    }
    let after = server.metrics_snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let (requests, hits) = (delta("serve.requests"), delta("serve.cache.hits"));
    assert_eq!(requests, suite.len() as u64);
    assert!(
        hits * 10 >= requests * 9,
        "second replay served {hits}/{requests} from cache (< 90 %)"
    );
}

/// Eight concurrent clients hammer one server with a mix of valid,
/// duplicate, malformed, unknown-kernel, and zero-deadline requests.
/// Every client must get exactly one valid-JSON reply per line, in
/// order; the zero-deadline failures must not poison the cache.
#[test]
fn soak_eight_concurrent_clients_with_hostile_traffic() {
    const CLIENTS: usize = 8;
    // Kernel reserved for zero-deadline requests during the soak: no
    // client ever computes it successfully, so afterwards it must still
    // be absent from the cache.
    const DOOMED: &str = "vpenta.7";

    // Each client's lines are answered in order, so the intra-client
    // duplicate is a deterministic cache hit.  Concurrency comes from
    // the eight client threads sharing the server.
    let server = Server::new(
        ServeConfig {
            workers: 4,
            cache_capacity: 64,
            shards: 1,
            ..ServeConfig::default()
        },
        null_sink(),
    );
    let valid = ["dmxpy0", "dmxpy1", "jacobi", "sor"];

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let server = &server;
            scope.spawn(move || {
                let kernel = valid[c % valid.len()];
                let lines = [
                    format!("{{\"id\":\"{c}-a\",\"kernel\":\"{kernel}\"}}"),
                    format!("{{\"id\":\"{c}-b\",\"kernel\":\"{kernel}\"}}"), // duplicate
                    format!("{{\"id\":\"{c}-c\",\"kernel\":\"no-such-kernel\"}}"),
                    format!("this is client {c} speaking, not JSON"),
                    format!("{{\"id\":\"{c}-d\",\"kernel\":\"{DOOMED}\",\"deadline_ms\":0}}"),
                ];
                let input = lines.join("\n") + "\n";
                let mut out = Vec::new();
                server.run(Cursor::new(input), &mut out).expect("io ok");
                let text = String::from_utf8(out).expect("utf8");
                let replies: Vec<&str> = text.lines().collect();
                assert_eq!(
                    replies.len(),
                    lines.len(),
                    "client {c}: exactly one reply per line"
                );

                for reply in &replies {
                    json::parse(reply)
                        .unwrap_or_else(|e| panic!("client {c}: bad reply {reply}: {e}"));
                }
                // Replies come back in request order.
                assert!(
                    replies[0].contains(&format!("\"id\":\"{c}-a\"")),
                    "{}",
                    replies[0]
                );
                assert!(replies[0].contains("\"ok\":true"), "{}", replies[0]);
                assert!(
                    replies[1].contains(&format!("\"id\":\"{c}-b\"")),
                    "{}",
                    replies[1]
                );
                assert!(
                    replies[1].contains("\"cached\":true"),
                    "client {c}: duplicate must be cache-served: {}",
                    replies[1]
                );
                assert!(replies[2].contains("unknown_kernel"), "{}", replies[2]);
                assert!(replies[3].contains("\"id\":null"), "{}", replies[3]);
                assert!(replies[3].contains("bad_request"), "{}", replies[3]);
                assert!(replies[4].contains("deadline_exceeded"), "{}", replies[4]);
            });
        }
    });

    // No deadlock, every client returned.  The doomed kernel was only
    // ever attempted under an already-expired deadline, so the cache
    // must not hold it: a fresh request computes (cached:false) and
    // succeeds.
    let probe = server.handle_line(&format!("{{\"id\":\"probe\",\"kernel\":\"{DOOMED}\"}}"));
    let doc = json::parse(&probe).expect("valid JSON");
    assert_eq!(doc.get("ok"), Some(&json::Value::Bool(true)), "{probe}");
    assert_eq!(
        doc.get("cached"),
        Some(&json::Value::Bool(false)),
        "zero-deadline failures must never be cached: {probe}"
    );

    // Aggregate accounting: every line of every client was counted, and
    // at least the duplicate requests hit the cache.
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("serve.requests"), (CLIENTS * 5) as u64 + 1);
    assert_eq!(snap.counter("serve.deadline_exceeded"), CLIENTS as u64);
    assert!(
        snap.counter("serve.cache.hits") >= CLIENTS as u64,
        "every intra-client duplicate is cache-served"
    );
}

/// The stdin loop frames lines like the socket transports: a line that
/// is not UTF-8 gets a `bad_request` reply and an oversized line a
/// `frame_too_long` reply (counted in `serve.frame.oversized`), and the
/// lines after them are still answered — `n` lines in, `n` replies out.
#[test]
fn stdin_answers_malformed_frames_and_keeps_serving() {
    let server = Server::new(test_config(), null_sink());
    let mut input = b"{\"id\":\"a\",\"kernel\":\"dmxpy1\"}\n\xff\xfe\n".to_vec();
    input.extend(std::iter::repeat_n(b'x', ujam::serve::MAX_LINE_BYTES + 1));
    input.extend_from_slice(b"\n{\"id\":\"b\",\"kernel\":\"dmxpy1\"}\n");
    let mut out = Vec::new();
    server.run(Cursor::new(input), &mut out).expect("io ok");
    let text = String::from_utf8(out).expect("utf8");
    let replies: Vec<&str> = text.lines().collect();
    assert_eq!(replies.len(), 4, "one reply per line: {text}");
    assert!(replies[0].contains("\"id\":\"a\""), "{}", replies[0]);
    assert!(
        replies[1].contains("\"kind\":\"bad_request\""),
        "{}",
        replies[1]
    );
    assert!(replies[1].contains("not valid UTF-8"), "{}", replies[1]);
    assert!(
        replies[2].contains("\"kind\":\"frame_too_long\""),
        "{}",
        replies[2]
    );
    assert!(replies[3].contains("\"id\":\"b\""), "{}", replies[3]);
    assert!(replies[3].contains("\"cached\":true"), "{}", replies[3]);
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("serve.frame.oversized"), 1);
}

/// Every line needs an `"id"`, admin lines included: a bare
/// `{"cmd":"shutdown"}` gets a `bad_request` reply and stops nothing,
/// so the kernel request after it is still answered.
#[test]
fn admin_lines_without_an_id_are_refused_and_serving_goes_on() {
    let server = Server::new(test_config(), null_sink());
    let input = "{\"cmd\":\"shutdown\"}\n{\"id\":\"k\",\"kernel\":\"dmxpy1\"}\n";
    let mut out = Vec::new();
    server
        .run(Cursor::new(input.as_bytes().to_vec()), &mut out)
        .expect("io ok");
    let text = String::from_utf8(out).expect("utf8");
    let replies: Vec<&str> = text.lines().collect();
    assert_eq!(replies.len(), 2, "one reply per line: {text}");
    assert!(replies[0].contains(r#""kind":"bad_request""#), "{text}");
    assert!(replies[0].contains(r#"missing \"id\" field"#), "{text}");
    assert!(replies[1].contains(r#""id":"k""#), "{text}");
    assert!(replies[1].contains(r#""ok":true"#), "{text}");
    assert!(!server.shutdown_requested());
}

/// A source whose subscript coefficients sit near the `i64` limit, and
/// one whose loop bounds do, are outside the range the analysis's exact
/// arithmetic admits: each request gets exactly one reply, a structured
/// `invalid_nest` refusal made before any elimination runs (not a caught
/// overflow panic, nor a wrapped trip count), and the request after them
/// is answered.
#[test]
fn arithmetic_overflow_in_the_analysis_ends_in_one_reply() {
    // Fortran lines, joined by JSON-escaped newlines.
    let source = |lines: &[&str]| format!("      {}", lines.join("\\n      "));
    let (c1, c2) = ("9000000000000000000", "8999999999999999999");
    let body = format!("B({c1}*I+{c2}*J, {c2}*J+{c1}*K, {c1}*I+{c2}*K) + B(I,J,K)");
    let wide_subscripts = source(&[
        "DIMENSION A(8,8,8), B(8,8,8)",
        "DO I = 1, 4",
        "DO J = 1, 4",
        "DO K = 1, 4",
        &format!("A(I,J,K) = {body}"),
        "ENDDO",
        "ENDDO",
        "ENDDO",
        "END",
    ]);
    let wide_bounds = source(&[
        "DIMENSION A(8,8), B(8,8)",
        "DO I = -9000000000000000000, 9000000000000000000",
        "DO J = 1, 4",
        "A(I,J) = B(I,J) + B(I+1,J)",
        "ENDDO",
        "ENDDO",
        "END",
    ]);
    let input = format!(
        "{{\"id\":\"o\",\"source\":\"{wide_subscripts}\"}}\n\
         {{\"id\":\"b\",\"source\":\"{wide_bounds}\"}}\n\
         {{\"id\":\"k\",\"kernel\":\"dmxpy1\"}}\n"
    );
    let server = Server::new(test_config(), null_sink());
    let mut out = Vec::new();
    server
        .run(Cursor::new(input.into_bytes()), &mut out)
        .expect("io ok");
    let text = String::from_utf8(out).expect("utf8");
    let replies: Vec<&str> = text.lines().collect();
    assert_eq!(replies.len(), 3, "one reply per line: {text}");
    for (reply, id) in replies.iter().zip(["o", "b"]) {
        assert!(reply.contains(&format!(r#""id":"{id}""#)), "{text}");
        assert!(reply.contains(r#""ok":false"#), "{text}");
        assert!(reply.contains(r#""kind":"invalid_nest""#), "{text}");
    }
    assert!(replies[2].contains(r#""id":"k""#), "{text}");
    assert!(replies[2].contains(r#""ok":true"#), "{text}");
}

/// A miss stops at the decision, and its deadline still binds: the
/// token is polled when the analysis starts and at every pass entry,
/// not only by the apply pass the daemon no longer runs.  A
/// `"deadline_ms":0` miss answers `deadline_exceeded` having run no
/// pass, and caches nothing; the same kernel without a deadline then
/// misses, runs the three decide passes once, and is answered.
#[test]
fn a_zero_deadline_miss_answers_deadline_exceeded() {
    let server = Server::new(test_config(), null_sink());
    let reply = server.handle_line(r#"{"id":"d","kernel":"jacobi","deadline_ms":0}"#);
    assert!(reply.contains("\"deadline_exceeded\""), "{reply}");
    let pass_count = |name: &str| {
        let snap = server.metrics_snapshot();
        snap.histogram(&format!("pass.{name}.ns")).map(|h| h.count)
    };
    assert_eq!(pass_count("select-loops"), Some(0), "no pass ran");

    let reply = server.handle_line(r#"{"id":"a","kernel":"jacobi"}"#);
    let (id, unroll, ..) = parse_ok(&reply);
    assert_eq!((id.as_str(), unroll), ("a", vec![7, 0]), "{reply}");
    assert!(reply.contains("\"cached\":false"), "{reply}");
    for pass in ["select-loops", "build-tables", "search-space"] {
        assert_eq!(pass_count(pass), Some(1), "pass.{pass}.ns");
    }
    assert_eq!(pass_count("apply-transform"), None);
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("serve.deadline_exceeded"), 1);
    assert_eq!(snap.counter("serve.cache.misses"), 2);
}

/// The stdin loop times requests like the reactor: a `"trace":true`
/// reply echoes its trace id, and a flight line sees every request, the
/// bad frame and the deadline miss in the anomaly ring too.
#[test]
fn stdin_requests_are_timed_like_socket_requests() {
    // A debug-build miss can itself take over the default 100 ms; the
    // anomaly ring must hold exactly the two injected faults.
    let config = ServeConfig {
        slow_ms: 60_000,
        ..test_config()
    };
    let server = Server::new(config, null_sink());
    let input = b"{\"id\":\"t\",\"kernel\":\"dmxpy1\",\"trace\":true}\n\xff\n\
        {\"id\":\"d\",\"kernel\":\"jacobi\",\"deadline_ms\":0}\n{\"id\":\"f\",\"cmd\":\"flight\"}\n";
    let mut out = Vec::new();
    server
        .run(Cursor::new(input.to_vec()), &mut out)
        .expect("io ok");
    let text = String::from_utf8(out).expect("utf8");
    let replies: Vec<&str> = text.lines().collect();
    assert!(replies[0].ends_with(",\"trace_id\":1}"), "{text}");
    let flight = json::parse(replies[3]).expect("valid JSON");
    let ring = |name| flight.get("flight").and_then(|f| f.get(name)?.as_array());
    assert_eq!(ring("recent").map(<[_]>::len), Some(3), "{text}");
    let reasons: Vec<_> = ring("anomalies")
        .expect("ring")
        .iter()
        .map(|t| t.get("anomaly")?.get("reason")?.as_str())
        .collect();
    assert_eq!(reasons, [Some("frame_error"), Some("deadline")], "{text}");
}

/// A pipe whose every flush takes 40 ms — a slow reader on the other
/// end — and whose writes fail once six reply lines are out.
struct SlowPipe(Vec<u8>);

impl Write for SlowPipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.0.iter().filter(|&&b| b == b'\n').count() == 6 {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        self.0.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        std::thread::sleep(Duration::from_millis(40));
        Ok(())
    }
}

/// Seven piped lines arrive in one read but are answered one at a time,
/// and a line's wait behind earlier lines is not its own latency: each
/// hit's own service, its 40 ms flush included, stays under the default
/// 100 ms `--slow-ms`, so no hit may crowd the anomaly ring (the last
/// would be ~240 ms behind the read).  The seventh reply meets a closed
/// pipe; its request is still recorded, with no `flushed` edge, as the
/// reactor records a request whose client has gone.
#[test]
fn stdin_timelines_are_per_line_and_survive_a_closed_pipe() {
    let server = Server::new(test_config(), null_sink());
    let input = "{\"id\":\"h\",\"kernel\":\"dmxpy1\"}\n".repeat(7);
    let err = server
        .run(Cursor::new(input.into_bytes()), &mut SlowPipe(Vec::new()))
        .expect_err("the seventh reply meets a closed pipe");
    assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    let recent = server.flight().recent();
    assert_eq!(recent.len(), 7);
    assert_eq!(recent.iter().filter(|t| t.cached).count(), 6);
    assert!(recent[..6].iter().all(|t| t.flushed >= Some(40_000_000)));
    assert_eq!(recent[6].flushed, None);
    let anomalies = server.flight().anomalies();
    assert!(!anomalies.iter().any(|t| t.cached), "{anomalies:?}");
}

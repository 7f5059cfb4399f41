//! The serve workloads: a spawned `ujam serve` daemon driven over TCP
//! by one closed-loop client connection.
//!
//! * `serve_hot` names the 25 compile_suite kernels and configs; the
//!   cache is filled during set-up, so every timed request is a hit and
//!   the wire, reactor, queue, cache key and flush are all the work.
//! * `serve_mixed` replays a seeded sequence of inline-Fortran requests
//!   against a cache smaller than the working set.  Fresh sources cycle
//!   through more distinct nests than the cache holds, so each is a
//!   miss; repeats name one of the most recent fresh sources, so each
//!   is a hit.  With one worker and one connection the hit and miss
//!   pattern is the same on every run of a seed.
//!
//! Every reply is checked against in-process `optimize_costed` on the
//! same request, byte for byte up to the `cached` flag.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ujam_core::{optimize_costed, BalanceModel, CancelToken, CostModelKind, SearchConfig};
use ujam_ir::LoopNest;
use ujam_machine::MachineModel;
use ujam_metrics::MetricsHandle;
use ujam_rng::Rng;
use ujam_serve::{
    decision_key, Decision, OkReply, Reply, ServeConfig, Server, ShardedDecisionCache,
};
use ujam_trace::json::{self, Value};

use crate::compile::{machine, sim_speedup_of, suite_jobs, Job};
use crate::stats::{geomean, mean, median, peak_rss_mb, us, Calibrator, Report, Windows};

/// Daemon sessions per untraced run.
const SESSIONS: usize = 8;
/// Distinct inline sources serve_mixed cycles through.
pub const MIXED_DISTINCT: usize = 1024;
/// serve_mixed's daemon cache, in entries: far below the working set.
pub const MIXED_CACHE: usize = 64;
/// Repeats name one of this many most recent fresh sources (≤ cache).
pub const MIXED_RECENT: usize = 32;
/// Share of serve_mixed requests that repeat a recent source.
pub const MIXED_REPEAT: f64 = 0.3;
/// Length of the replayed serve_mixed sequence before it wraps.
const MIXED_SEQ_LEN: usize = 1 << 17;
/// How long the client waits for one reply before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Which serve workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Mixed,
}

/// One distinct request and the reply the oracle expects for it.
pub struct Req {
    pub label: String,
    pub nest: LoopNest,
    pub config: SearchConfig,
    /// Part of the `sim_speedup` geometric mean.
    pub paper: bool,
    /// The request line, newline-terminated.
    line: Vec<u8>,
    /// The same request with `"trace":true`.
    traced: Vec<u8>,
    /// The Fortran text for the front-end layer.
    pub source: String,
    /// The oracle's decision.
    pub decision: Decision,
    /// The oracle's reply up to and including `"cached":`.
    expect: String,
}

/// A serve workload's inputs: the distinct requests, the replayed
/// sequence, and how the daemon and client are configured.
pub struct Workload {
    pub kind: Kind,
    pub reqs: Vec<Req>,
    /// Request indices in replay order (wraps).
    pub order: Vec<usize>,
    /// Pipeline depth of the one client connection.
    pub depth: usize,
    /// Completions per throughput window.
    pub window: usize,
    /// Requests sent after set-up and before timing.
    pub warm: usize,
    pub cache: usize,
}

impl Workload {
    /// Builds the workload's inputs from the seed and computes the
    /// oracle's decision for every distinct request.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let machine = machine();
        match kind {
            Kind::Hot => {
                let jobs = suite_jobs(seed);
                let reqs = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, job)| {
                        let mut fields = format!("\"kernel\":\"{}\"", job.label);
                        if job.config.max_unroll_loops != SearchConfig::default().max_unroll_loops {
                            fields.push_str(&format!(
                                ",\"max_unroll_loops\":{}",
                                job.config.max_unroll_loops
                            ));
                        }
                        Req::new(
                            format!("k{i}"),
                            job,
                            fields,
                            ujam_fortran::emit(&job.nest),
                            &machine,
                        )
                    })
                    .collect::<Vec<_>>();
                Workload {
                    kind,
                    order: (0..reqs.len()).collect(),
                    reqs,
                    depth: 2,
                    window: 2000,
                    warm: 2000,
                    cache: 256,
                }
            }
            Kind::Mixed => {
                let reqs = mixed_sources(seed)
                    .into_iter()
                    .enumerate()
                    .map(|(i, (nest, source))| {
                        let job = Job {
                            label: nest.name().to_string(),
                            nest,
                            config: SearchConfig::default(),
                            paper: false,
                        };
                        let mut fields = String::from("\"source\":");
                        json::write_escaped(&mut fields, &source);
                        Req::new(format!("s{i}"), &job, fields, source, &machine)
                    })
                    .collect::<Vec<_>>();
                Workload {
                    kind,
                    order: mixed_order(seed, reqs.len()),
                    reqs,
                    depth: 1,
                    window: 250,
                    warm: 256,
                    cache: MIXED_CACHE,
                }
            }
        }
    }

    /// The daemon's flags besides `--tcp`.
    pub fn daemon_flags(&self) -> Vec<String> {
        vec![
            "--workers".into(),
            "1".into(),
            "--cache".into(),
            self.cache.to_string(),
        ]
    }

    fn at(&self, pos: usize) -> &Req {
        &self.reqs[self.order[pos % self.order.len()]]
    }
}

impl Req {
    fn new(id: String, job: &Job, fields: String, source: String, machine: &MachineModel) -> Req {
        let plan = optimize_costed(
            &job.nest,
            machine,
            BalanceModel::CacheAware,
            CostModelKind::Analytic,
            ujam_trace::null_sink(),
            CancelToken::never(),
            MetricsHandle::disabled(),
            job.config,
        )
        .expect("every benchmark nest optimizes");
        let decision = Decision::from_plan(&plan);
        let reply = Reply::Ok(OkReply {
            id: id.clone(),
            nest: decision.nest.clone(),
            unroll: decision.unroll.clone(),
            balance: decision.balance,
            original_balance: decision.original_balance,
            registers: decision.registers,
            cached: false,
            trace_id: None,
        })
        .render();
        let expect = reply
            .strip_suffix("false}")
            .expect("an ok reply ends with its cached flag")
            .to_string();
        Req {
            label: job.label.clone(),
            nest: job.nest.clone(),
            config: job.config,
            paper: job.paper,
            line: format!("{{\"id\":\"{id}\",{fields}}}\n").into_bytes(),
            traced: format!("{{\"id\":\"{id}\",{fields},\"trace\":true}}\n").into_bytes(),
            source,
            decision,
            expect,
        }
    }

    /// `Some(cached)` when `reply` carries the oracle's decision.
    fn check(&self, reply: &str) -> Option<bool> {
        let rest = reply.strip_prefix(self.expect.as_str())?;
        let (cached, tail) = match rest.strip_prefix("true") {
            Some(tail) => (true, tail),
            None => (false, rest.strip_prefix("false")?),
        };
        let traced = tail
            .strip_prefix(",\"trace_id\":")
            .and_then(|t| t.strip_suffix('}'))
            .is_some_and(|t| t.parse::<u64>().is_ok());
        (tail == "}" || traced).then_some(cached)
    }
}

/// The trace id a `"trace":true` reply echoes last.
fn trace_id_of(reply: &str) -> Option<u64> {
    let at = reply.rfind(",\"trace_id\":")?;
    reply[at + 12..].strip_suffix('}')?.parse().ok()
}

/// `MIXED_DISTINCT` corpus nests from the seed, distinct by content
/// (the cache key ignores names), each as its emitted Fortran and the
/// nest the daemon parses from it.
fn mixed_sources(seed: u64) -> Vec<(LoopNest, String)> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(MIXED_DISTINCT);
    let mut idx = 0;
    while out.len() < MIXED_DISTINCT {
        let source = ujam_fortran::emit(&ujam_kernels::corpus_routine(seed, idx));
        idx += 1;
        let nest = ujam_fortran::parse(&source).expect("emitted corpus Fortran parses");
        if seen.insert(nest.to_string()) {
            out.push((nest, source));
        }
    }
    out
}

/// The serve_mixed replay order: fresh sources cycle through a seeded
/// permutation of all `n`, and a `MIXED_REPEAT` share of positions
/// instead repeat one of the last `MIXED_RECENT` fresh sources.
///
/// Between two uses of one fresh source, `n - 1 > MIXED_CACHE` other
/// keys are inserted, so a fresh source always misses the LRU cache; a
/// repeat names one of the last `MIXED_RECENT ≤ MIXED_CACHE` inserted
/// keys, so it always hits.
fn mixed_order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5e9e_d00d);
    let mut fresh: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut fresh);
    let mut recent: VecDeque<usize> = VecDeque::with_capacity(MIXED_RECENT);
    let mut next = 0;
    (0..MIXED_SEQ_LEN)
        .map(|_| {
            if !recent.is_empty() && rng.chance(MIXED_REPEAT) {
                recent[rng.index(recent.len())]
            } else {
                let i = fresh[next % n];
                next += 1;
                if recent.len() == MIXED_RECENT {
                    recent.pop_front();
                }
                recent.push_back(i);
                i
            }
        })
        .collect()
}

/// How to start the daemon: the `ujam` binary and, when the machine
/// has a CPU to spare for it, the CPU `taskset` pins it to.
pub struct Launcher {
    pub ujam: PathBuf,
    pub cpu: Option<usize>,
}

/// A spawned `ujam serve --tcp 127.0.0.1:0` daemon.  Dropping it kills
/// the process if it is still running and waits for it.
pub struct Daemon {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon and blocks on its stderr until it announces
    /// its TCP address.
    pub fn spawn(launcher: &Launcher, flags: &[String]) -> Result<Daemon, String> {
        let ujam = &launcher.ujam;
        let mut command = match launcher.cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(cpu.to_string()).arg(ujam);
                c
            }
            None => Command::new(ujam),
        };
        let mut child = command
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", ujam.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before listening".into());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("serve: tcp listening on ") {
                        break a.to_string();
                    }
                }
            }
        };
        // Keep the pipe drained so daemon logging can never block it.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down over `conn` and waits for it.
    pub fn stop(mut self, mut conn: Conn) -> Result<(), String> {
        conn.call("{\"id\":\"bye\",\"cmd\":\"shutdown\"}")?;
        drop(conn);
        self.child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One handshaken client connection.
pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        w.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Conn {
            w,
            r,
            buf: String::new(),
        };
        let hello = conn.call("{\"id\":\"hello\",\"cmd\":\"hello\",\"version\":1}")?;
        if !hello.contains("\"ok\":true") {
            return Err(format!("handshake refused: {hello}"));
        }
        Ok(conn)
    }

    fn send(&mut self, line: &[u8]) -> Result<(), String> {
        self.w.write_all(line).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<&str, String> {
        self.buf.clear();
        match self.r.read_line(&mut self.buf) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(self.buf.trim_end()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// One request line, one reply line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(format!("{line}\n").as_bytes())?;
        self.recv().map(str::to_string)
    }
}

/// What one closed loop saw.
#[derive(Default)]
struct LoopOut {
    rtt_us: Vec<f64>,
    /// Seconds from the first request sent to the last reply read.
    seconds: f64,
    attempted: u64,
    failed: u64,
    hits: u64,
    /// `(trace id, round trip µs)` of traced requests.
    traced: Vec<(u64, f64)>,
    /// The first reply seen for each distinct request.
    first: Vec<Option<String>>,
    bad: Vec<String>,
    /// The sequence position after the last request issued.
    next: usize,
}

/// Sends `count` requests over `conn`, from sequence position `start`,
/// keeping `w.depth` outstanding and checking every reply.
fn closed_loop(
    conn: &mut Conn,
    w: &Workload,
    start: usize,
    count: usize,
    traced: bool,
) -> Result<LoopOut, String> {
    let mut out = LoopOut {
        first: vec![None; w.reqs.len()],
        ..LoopOut::default()
    };
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(w.depth);
    let mut pos = start;
    let t0 = Instant::now();
    loop {
        while inflight.len() < w.depth && pos - start < count {
            let i = w.order[pos % w.order.len()];
            pos += 1;
            let sent = Instant::now();
            conn.send(if traced {
                &w.reqs[i].traced
            } else {
                &w.reqs[i].line
            })?;
            inflight.push_back((i, sent));
        }
        let Some(&(i, sent)) = inflight.front() else {
            break;
        };
        let reply = conn.recv()?;
        let done = Instant::now();
        inflight.pop_front();
        let rtt = us(done - sent);
        out.rtt_us.push(rtt);
        out.seconds = (done - t0).as_secs_f64();
        out.attempted += 1;
        match w.reqs[i].check(reply) {
            Some(hit) => {
                out.hits += u64::from(hit);
                if traced {
                    if let Some(tid) = trace_id_of(reply) {
                        out.traced.push((tid, rtt));
                    }
                }
            }
            None => {
                out.failed += 1;
                if out.bad.len() < 3 {
                    out.bad
                        .push(format!("BAD REPLY {}: {reply}", w.reqs[i].label));
                }
            }
        }
        if out.first[i].is_none() {
            out.first[i] = Some(reply.to_string());
        }
    }
    out.next = pos;
    Ok(out)
}

/// Spawns the daemon, handshakes, and (for serve_hot) fills the cache
/// with one request per distinct kernel.  Returns the fill's replies.
fn set_up(
    launcher: &Launcher,
    w: &Workload,
    extra: &[String],
) -> Result<(Daemon, Conn, Option<LoopOut>), String> {
    let mut flags = w.daemon_flags();
    flags.extend_from_slice(extra);
    let daemon = Daemon::spawn(launcher, &flags)?;
    let mut conn = Conn::connect(&daemon.addr)?;
    let fill = if w.kind == Kind::Hot {
        Some(closed_loop(&mut conn, w, 0, w.reqs.len(), false)?)
    } else {
        None
    };
    Ok((daemon, conn, fill))
}

/// The untraced serve_hot / serve_mixed run: `SESSIONS` daemon
/// sessions, each set up from scratch, warmed, and timed for an equal
/// share of `seconds` in fixed-count windows of replies.  Before set-up
/// and before each window the daemon's CPU, which does most of the work,
/// is sampled for slowness.  Latency and throughput are medians over
/// windows, `setup_s` and `peak_rss_mb` medians over sessions.
pub fn run(kind: Kind, seed: u64, seconds: u64, launcher: &Launcher) -> Result<Report, String> {
    let w = Workload::new(kind, seed);
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut rss = Vec::new();
    let mut windows = Windows::default();
    let mut first: Vec<Option<String>> = vec![None; w.reqs.len()];
    let (mut hits, mut timed_replies) = (0, 0);
    let segment = Duration::from_secs(seconds) / SESSIONS as u32;
    let calibrator = Calibrator::new(launcher.cpu)?;
    for _ in 0..SESSIONS {
        let slowness = calibrator.slowness()?;
        let t0 = Instant::now();
        let (daemon, mut conn, fill) = set_up(launcher, &w, &[])?;
        setup_s.push(t0.elapsed().as_secs_f64() / slowness);
        let warm = closed_loop(&mut conn, &w, 0, w.warm, false)?;
        let mut pos = warm.next;
        for p in fill.into_iter().chain([warm]) {
            absorb(&mut report, &mut first, p);
        }
        let end = Instant::now() + segment;
        let mut session = Windows::default();
        while session.count() == 0 || Instant::now() < end {
            let slowness = calibrator.slowness()?;
            let window = closed_loop(&mut conn, &w, pos, w.window, false)?;
            pos = window.next;
            session.push(&window.rtt_us, window.seconds, slowness);
            windows.push(&window.rtt_us, window.seconds, slowness);
            hits += window.hits;
            timed_replies += window.attempted;
            absorb(&mut report, &mut first, window);
        }
        rss.push(peak_rss_mb(Some(daemon.pid())));
        daemon.stop(conn)?;
        report.note(format!("session: {}", session.summary()));
    }

    // Quality of the decisions served, one per distinct request.
    let machine = machine();
    let speedups: Vec<f64> = w
        .reqs
        .iter()
        .zip(&first)
        .filter(|(req, _)| kind == Kind::Mixed || req.paper)
        .filter_map(|(req, reply)| {
            let unroll = unroll_of(reply.as_deref()?)?;
            Some(sim_speedup_of(&req.nest, &unroll, &machine))
        })
        .collect();

    report.note(format!(
        "{}: {SESSIONS} sessions, depth {}, hit share {:.3}, {}",
        name(kind),
        w.depth,
        hits as f64 / timed_replies as f64,
        windows.summary()
    ));
    report.metric("setup_s", median(&setup_s), "s", setup_s.len());
    windows.report(&mut report);
    report.metric("peak_rss_mb", median(&rss), "MiB", rss.len());
    report.metric(
        "success_rate",
        1.0 - report.failed as f64 / report.attempted as f64,
        "ratio",
        report.attempted as usize,
    );
    report.metric("sim_speedup", geomean(&speedups), "x", speedups.len());
    Ok(report)
}

/// Adds one loop's counts, bad replies, and first replies to the run's.
fn absorb(report: &mut Report, first: &mut [Option<String>], p: LoopOut) {
    report.attempted += p.attempted;
    report.failed += p.failed;
    report.notes.extend(p.bad);
    for (slot, reply) in first.iter_mut().zip(p.first) {
        if slot.is_none() {
            *slot = reply;
        }
    }
}

fn name(kind: Kind) -> &'static str {
    match kind {
        Kind::Hot => "serve_hot",
        Kind::Mixed => "serve_mixed",
    }
}

/// The unroll vector of an ok reply.
fn unroll_of(reply: &str) -> Option<Vec<u32>> {
    let doc = json::parse(reply).ok()?;
    doc.get("unroll")?
        .as_array()?
        .iter()
        .map(|v| v.as_f64().map(|f| f as u32))
        .collect()
}

/// Per-request layer times from the daemon's flight timeline, µs.
struct Layers {
    frame: f64,
    queue: f64,
    resolve: f64,
    cache: f64,
    analysis: f64,
    flush: f64,
    daemon: f64,
}

fn layers_of(timeline: &Value) -> Option<Layers> {
    let edge = |k: &str| timeline.get("edges")?.get(k)?.as_f64();
    let dur = |k: &str| timeline.get("durations")?.get(k)?.as_f64();
    let ns = 1e-3;
    Some(Layers {
        frame: edge("framed")? * ns,
        queue: dur("queue_ns")? * ns,
        resolve: (edge("cache_probe")? - edge("dequeued")?) * ns,
        cache: dur("cache_ns")? * ns,
        analysis: dur("analysis_ns").unwrap_or(0.0) * ns,
        flush: dur("flush_ns")? * ns,
        daemon: dur("total_ns")? * ns,
    })
}

/// The daemon phase of the traced run: alternating untraced and
/// `"trace":true` batches on one connection for about `budget`, each
/// traced batch joined to the flight recorder by trace id.  Adds the
/// daemon layers (means over joined requests) and the `stats` deltas to
/// `report`.  Returns the tracing overhead (median traced minus median
/// untraced round trip) and the number of joined requests.
pub fn daemon_profile(
    w: &Workload,
    launcher: &Launcher,
    budget: Duration,
    report: &mut Report,
) -> Result<(f64, usize), String> {
    let batch = match w.kind {
        Kind::Hot => 2000,
        Kind::Mixed => 400,
    };
    let extra = ["--flight-capacity".to_string(), (2 * batch).to_string()];
    let (daemon, mut conn, fill) = set_up(launcher, w, &extra)?;
    let warm = closed_loop(&mut conn, w, 0, w.warm, false)?;
    let before = counters(&mut conn)?;
    let t_end = Instant::now() + budget;
    let mut pos = warm.next;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut joined: Vec<(f64, Layers)> = Vec::new();
    let mut unjoined = 0usize;
    let mut first = Vec::new();
    for p in fill.into_iter().chain([warm]) {
        absorb(report, &mut first, p);
    }
    while joined.is_empty() || Instant::now() < t_end {
        let plain = closed_loop(&mut conn, w, pos, batch, false)?;
        let tr = closed_loop(&mut conn, w, plain.next, batch, true)?;
        pos = tr.next;
        let flight = conn.call("{\"id\":\"flight\",\"cmd\":\"flight\"}")?;
        let doc = json::parse(&flight).map_err(|e| format!("flight reply: {e}"))?;
        let mut by_id: HashMap<u64, &Value> = HashMap::new();
        for t in doc
            .get("flight")
            .and_then(|f| f.get("recent"))
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            if let Some(id) = t.get("trace_id").and_then(Value::as_f64) {
                by_id.insert(id as u64, t);
            }
        }
        for &(tid, rtt) in &tr.traced {
            match by_id.get(&tid).and_then(|t| layers_of(t)) {
                Some(l) => joined.push((rtt, l)),
                None => unjoined += 1,
            }
        }
        untraced.extend_from_slice(&plain.rtt_us);
        traced.extend_from_slice(&tr.rtt_us);
        absorb(report, &mut first, plain);
        absorb(report, &mut first, tr);
    }
    let after = counters(&mut conn)?;
    let queue_peak = queue_depth_peak(&mut conn)?;
    daemon.stop(conn)?;
    if unjoined > 0 {
        report.note(format!("{unjoined} traced replies had no flight timeline"));
    }

    let m = |f: fn(&Layers) -> f64| mean(&joined.iter().map(|(_, l)| f(l)).collect::<Vec<_>>());
    let rtt = mean(&joined.iter().map(|(r, _)| *r).collect::<Vec<_>>());
    let daemon_us = m(|l| l.daemon);
    let parts = [
        m(|l| l.frame),
        m(|l| l.queue),
        m(|l| l.resolve),
        m(|l| l.cache),
        m(|l| l.analysis),
        m(|l| l.flush),
    ];
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let (hits, misses) = (delta("serve.cache.hits"), delta("serve.cache.misses"));
    let layers = [
        ("serve.frame_us", parts[0], "us"),
        ("serve.queue_wait_us", parts[1], "us"),
        ("serve.resolve_us", parts[2], "us"),
        ("serve.cache_us", parts[3], "us"),
        ("serve.analysis_us", parts[4], "us"),
        ("serve.flush_us", parts[5], "us"),
        (
            "serve.daemon_other_us",
            daemon_us - parts.iter().sum::<f64>(),
            "us",
        ),
        ("serve.daemon_us", daemon_us, "us"),
        ("serve.wire_us", rtt - daemon_us, "us"),
        ("serve.rtt_us", rtt, "us"),
        ("serve.wire_share", (rtt - daemon_us) / rtt, "ratio"),
        ("serve.cache.hit_ratio", hits / (hits + misses), "ratio"),
        (
            "serve.cache.evictions",
            delta("serve.cache.evictions"),
            "count",
        ),
        ("serve.queue_depth_peak", queue_peak, "count"),
        ("serve.shed", delta("serve.shed"), "count"),
    ];
    for (name, value, unit) in layers {
        report.metric(name, value, unit, joined.len());
    }
    Ok((median(&traced) - median(&untraced), joined.len()))
}

/// The daemon's counters from `{"cmd":"stats"}`.
fn counters(conn: &mut Conn) -> Result<HashMap<String, f64>, String> {
    let reply = conn.call("{\"id\":\"stats\",\"cmd\":\"stats\"}")?;
    let doc = json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
    match doc.get("stats").and_then(|s| s.get("counters")) {
        Some(Value::Object(m)) => Ok(m
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect()),
        _ => Err(format!("stats reply has no counters: {reply}")),
    }
}

/// The highest queue depth any series window of the daemon recorded.
fn queue_depth_peak(conn: &mut Conn) -> Result<f64, String> {
    let reply = conn.call("{\"id\":\"series\",\"cmd\":\"stats\",\"series\":true}")?;
    let doc = json::parse(&reply).map_err(|e| format!("series reply: {e}"))?;
    Ok(doc
        .get("series")
        .and_then(|s| s.get("windows"))
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("derived")?.get("queue_depth_peak")?.as_f64())
        .fold(0.0, f64::max))
}

/// Mean microseconds per call of `f(pos)` over consecutive sequence
/// positions, in rounds of `round` calls, for about `budget`.
fn time_calls(round: usize, budget: Duration, mut f: impl FnMut(usize)) -> f64 {
    let mut times = Vec::new();
    let t_end = Instant::now() + budget;
    let mut pos = 0;
    while times.is_empty() || Instant::now() < t_end {
        for _ in 0..round {
            let t = Instant::now();
            f(pos);
            times.push(us(t.elapsed()));
            pos += 1;
        }
    }
    mean(&times)
}

/// In-process layers over the workload's request stream, added to
/// `report`: the Fortran front end, `Server::handle_line` (warm), the
/// cache key, and cache lookups and evicting inserts.  Each runs for
/// about `budget / 5`.
pub fn in_process(w: &Workload, budget: Duration, report: &mut Report) {
    let machine = machine();
    let slice = budget / 5;
    let n = w.reqs.len();

    let parse = time_calls(n, slice, |i| {
        black_box(ujam_fortran::parse(&w.reqs[i % n].source).ok());
    });

    let server = Server::new(
        ServeConfig {
            workers: 1,
            cache_capacity: w.cache,
            shards: 1,
            ..ServeConfig::default()
        },
        ujam_trace::null_sink(),
    );
    let line = |pos: usize| {
        let req = w.at(pos);
        std::str::from_utf8(&req.line[..req.line.len() - 1]).expect("request lines are UTF-8")
    };
    // Warm the server on the sequence's first positions, then time it
    // on the positions that follow.
    let offset = w.warm.max(n);
    for pos in 0..offset {
        black_box(server.handle_line(line(pos)));
    }
    let (mut handled, mut failed) = (0u64, 0u64);
    let handle = time_calls(n, slice, |pos| {
        let reply = server.handle_line(line(offset + pos));
        handled += 1;
        failed += u64::from(w.at(offset + pos).check(&reply).is_none());
    });

    let key_of = |r: &Req| {
        decision_key(
            &r.nest,
            &machine,
            BalanceModel::CacheAware,
            CostModelKind::Analytic,
            r.config,
        )
    };
    let key = time_calls(n, slice, |pos| {
        black_box(key_of(w.at(pos)));
    });
    let keys: Vec<String> = w.reqs.iter().map(key_of).collect();
    let full = ShardedDecisionCache::new(n, 1);
    for (k, r) in keys.iter().zip(&w.reqs) {
        full.insert(k.clone(), r.decision.clone());
    }
    let get = time_calls(n, slice, |pos| {
        black_box(full.get(&keys[w.order[pos % w.order.len()]]));
    });

    // Inserts under eviction: every key cycles through a cache holding
    // half of them, so each insert past the first half evicts one.
    // Keys are cloned for each pass outside the timed calls.
    let half = ShardedDecisionCache::new((n / 2).max(1), 1);
    let mut times = Vec::new();
    let t_end = Instant::now() + slice;
    while times.is_empty() || Instant::now() < t_end {
        let staged: Vec<(String, Decision)> = keys
            .iter()
            .cloned()
            .zip(w.reqs.iter().map(|r| r.decision.clone()))
            .collect();
        for (k, d) in staged {
            let t = Instant::now();
            black_box(half.insert(k, d));
            times.push(us(t.elapsed()));
        }
    }
    report.attempted += handled;
    report.failed += failed;
    let layers = [
        ("fortran.parse_us", parse),
        ("serve.handle_line_us", handle),
        ("serve.cache.key_us", key),
        ("serve.cache.get_us", get),
        ("serve.cache.insert_us", mean(&times)),
    ];
    for (name, value) in layers {
        report.metric(name, value, "us", handled as usize);
    }
}

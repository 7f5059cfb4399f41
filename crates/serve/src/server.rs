//! The request handler and I/O loops.
//!
//! [`Server`] is the transport-independent core.  It answers an
//! optimize request in two stages, split at the decision cache:
//!
//! * the **front stage** (`Server::front`) takes the parsed line,
//!   resolves it, writes its decision key into a caller-reused buffer
//!   and probes the cache.  A named kernel is keyed from a table of
//!   canonical nest texts rendered once per server (on the first
//!   kernel request), so a kernel hit never builds the nest.  A hit or a structured error is
//!   answered here;
//! * the **miss stage** (`Server::miss`) takes what the front stage
//!   learned — parsed request, nest if one was built, key — re-probes
//!   (a duplicate filled in the meantime is a hit), then analyses,
//!   caches and answers.
//!
//! The reactor runs the front stage on its own thread and hands only
//! misses to its workers — except for an inline source over
//! `REACTOR_FRONT_MAX_SOURCE` bytes, whose Fortran parse would hold the
//! event loop, so a worker runs both of its stages.  `handle_line` and
//! `run` run the two stages back to back.  That is one request path,
//! whichever thread runs which half; the reactor is the only place
//! requests run in parallel.
//!
//! Every optimize request, on every path, carries a [`TimelineState`]
//! whose stamps are the only request clock, and `Server::retire` — run
//! once per answered request, when its reply is ready — is the only
//! place a request counter moves: it reads every one off the timeline.
//! `serve.request_ns` runs from `framed` to the reply being ready;
//! `serve.cache.hits`/`misses` (and their per-shard twins) and
//! `serve.cache.lookup_ns` come from the last probe (its shard,
//! `cached`, `cache_done − cache_probe`), so a request the front stage
//! missed and the miss stage re-probed counts once.
//!
//! `handle_line` answers one request string, and `run` is the
//! newline-delimited stdin/stdout daemon loop: it answers one line at a
//! time, in order, so a duplicate line is always a cache hit.  The
//! stdin loop takes requests without a handshake, since a pipe has one
//! client, its parent; every socket connection the reactor serves, TCP
//! or Unix, must open with the versioned hello.
//!
//! Every failure mode is a structured reply: the daemon never panics on
//! a request, and a client that writes `n` lines always reads exactly
//! `n` replies (blank lines excepted), in order.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ujam_core::{decide_costed, CancelToken, OptimizeError, SearchConfig};
use ujam_ir::LoopNest;
use ujam_metrics::{
    Counter, Gauge, Histogram, MetricsHandle, MetricsRegistry, MetricsSnapshot, SeriesCollector,
};
use ujam_trace::{null_sink, Anomaly, AnomalyReason, TraceSink};

use crate::cache::{write_decision_key, Decision};
use crate::flight::{FlightRecorder, TimelineState, DEFAULT_FLIGHT_CAPACITY, DEFAULT_SLOW_MS};
use crate::frame::{Frame, LineDecoder, MAX_LINE_BYTES};
use crate::proto::{
    error_reply, flight_reply, hello_reply, render_decision, shutdown_reply, stats_reply,
    stats_series_reply, AdminCmd, AdminRequest, ErrorKind, Incoming, Reply, Request, Source,
    PROTOCOL_VERSION,
};
use crate::shard::ShardedDecisionCache;

/// Tunables for a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Reactor worker threads (clamped to at least 1).
    pub workers: usize,
    /// Decision-cache capacity in entries (0 disables storage).
    pub cache_capacity: usize,
    /// Decision-cache shard count (clamped to at least 1).  One shard
    /// is exactly the PR 4 single-lock cache; N shards split the key
    /// space by content hash so concurrent lookups stop contending.
    pub shards: usize,
    /// Flight-recorder ring capacity in timelines per ring
    /// (`--flight-capacity`).
    pub flight_capacity: usize,
    /// Total latency in milliseconds above which a request is
    /// classified slow and retained in the anomaly ring (`--slow-ms`).
    pub slow_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_capacity: 256,
            shards: 1,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            slow_ms: DEFAULT_SLOW_MS,
        }
    }
}

/// The optimization service: request parsing, the decision cache, the
/// worker pool, and the I/O loops.
///
/// # Example
///
/// ```
/// use ujam_serve::{ServeConfig, Server};
/// let server = Server::new(ServeConfig::default(), ujam_trace::null_sink());
/// let reply = server.handle_line(r#"{"id":"r1","kernel":"dmxpy1"}"#);
/// assert!(reply.contains("\"ok\":true"));
/// // The same content served again comes from the cache.
/// let again = server.handle_line(r#"{"id":"r2","kernel":"dmxpy1"}"#);
/// assert!(again.contains("\"cached\":true"));
/// ```
pub struct Server {
    cfg: ServeConfig,
    cache: ShardedDecisionCache,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    flight: FlightRecorder,
    series: Mutex<SeriesCollector>,
    started: Instant,
    /// Named kernel → its canonical nest text ([`kernel_key_table`]),
    /// built on the first kernel request: a daemon serving only inline
    /// sources never pays the ~0.5–3 ms it takes.
    kernel_keys: OnceLock<HashMap<&'static str, String>>,
}

/// Largest inline source whose front stage the reactor runs on its own
/// thread.  Parsing and keying Fortran costs about 100–170 ns a byte
/// (worst measured shapes: long operator chains, maximum-depth nests),
/// so this caps the event loop's share at about 1.5 ms a frame — below
/// the JSON parse of a full `MAX_LINE_BYTES` frame (about 3 ms) that it
/// pays anyway.  Typical kernels are a few hundred bytes; a larger
/// source goes to a worker whole, as every request did before the
/// reactor answered hits.
pub(crate) const REACTOR_FRONT_MAX_SOURCE: usize = 8 * 1024;

/// What the front stage made of one optimize request.
pub(crate) enum Front {
    /// Answered without analysis: a cache hit or a structured error.
    Answered(String),
    /// A cache miss, for the miss stage.  Boxed: it carries the parsed
    /// request and possibly a nest.
    Miss(Box<Miss>),
}

/// What the front stage learned about a request that missed the cache,
/// so the miss stage repeats none of it: the parsed request, the nest
/// when keying it needed one (an inline source — a named kernel's nest
/// is first built by the miss stage), and the finished key.
pub(crate) struct Miss {
    req: Request,
    nest: Option<LoopNest>,
    key: String,
}

impl Miss {
    /// The request id, which a shed reply echoes.
    pub(crate) fn id(&self) -> &str {
        &self.req.id
    }
}

/// The server's metric set, resolved once at construction so the hot
/// path never touches the registry lock — and so every snapshot carries
/// the same metric names (zeros included) no matter how little traffic
/// the daemon has seen.
///
/// Admin lines (`{"cmd":"stats"}`) are counted under
/// `serve.admin_requests`, *not* `serve.requests`, which is what keeps
/// the request counter a stats query returns exactly equal to the
/// replayed batch's ground truth.
struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    requests: Arc<Counter>,
    admin_requests: Arc<Counter>,
    replies_ok: Arc<Counter>,
    replies_error: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    frame_oversized: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    inflight: Arc<Gauge>,
    cache_entries: Arc<Gauge>,
    cache_bytes: Arc<Gauge>,
    request_ns: Arc<Histogram>,
    cache_lookup_ns: Arc<Histogram>,
    /// Per-shard cache counters (`serve.cache.shard{i}.hits` / `.misses`
    /// / `.evictions`), indexed by shard.  The aggregate `serve.cache.*`
    /// counters above stay authoritative; these expose the shard map so
    /// skew (one hot shard) is visible in a snapshot.
    shard_hits: Vec<Arc<Counter>>,
    shard_misses: Vec<Arc<Counter>>,
    shard_evictions: Vec<Arc<Counter>>,
}

impl ServeMetrics {
    /// Resolves the serve metric set in a fresh registry.
    /// The histograms of the decide passes the miss stage runs, and the
    /// reactor's queue-depth gauge, are touched eagerly too, so they
    /// appear (empty) in snapshots taken before the first uncached
    /// request, or without a reactor.
    fn resolve(shards: usize) -> ServeMetrics {
        let reg = MetricsRegistry::new();
        for pass in ["select-loops", "build-tables", "search-space"] {
            reg.histogram(&format!("pass.{pass}.ns"));
        }
        reg.gauge("serve.queue_depth");
        ServeMetrics {
            requests: reg.counter("serve.requests"),
            admin_requests: reg.counter("serve.admin_requests"),
            replies_ok: reg.counter("serve.replies_ok"),
            replies_error: reg.counter("serve.replies_error"),
            deadline_exceeded: reg.counter("serve.deadline_exceeded"),
            frame_oversized: reg.counter("serve.frame.oversized"),
            cache_hits: reg.counter("serve.cache.hits"),
            cache_misses: reg.counter("serve.cache.misses"),
            cache_evictions: reg.counter("serve.cache.evictions"),
            inflight: reg.gauge("serve.inflight"),
            cache_entries: reg.gauge("serve.cache.entries"),
            cache_bytes: reg.gauge("serve.cache.bytes"),
            request_ns: reg.histogram("serve.request_ns"),
            cache_lookup_ns: reg.histogram("serve.cache.lookup_ns"),
            shard_hits: (0..shards.max(1))
                .map(|i| reg.counter(&format!("serve.cache.shard{i}.hits")))
                .collect(),
            shard_misses: (0..shards.max(1))
                .map(|i| reg.counter(&format!("serve.cache.shard{i}.misses")))
                .collect(),
            shard_evictions: (0..shards.max(1))
                .map(|i| reg.counter(&format!("serve.cache.shard{i}.evictions")))
                .collect(),
            registry: Arc::new(reg),
        }
    }
}

impl Server {
    /// A server with the given tunables and its own metrics registry:
    /// request/reply counters, latency histograms, cache and in-flight
    /// gauges, and per-pass duration histograms all record into it, and
    /// `{"cmd":"stats"}` (the `ujam stats` subcommand) answers with a
    /// versioned snapshot of it.
    ///
    /// The registry is the server's only counter channel: `_sink` is
    /// accepted for source compatibility and never written.
    pub fn new(cfg: ServeConfig, _sink: &dyn TraceSink) -> Server {
        Server {
            cfg,
            cache: ShardedDecisionCache::new(cfg.cache_capacity, cfg.shards),
            metrics: ServeMetrics::resolve(cfg.shards),
            shutdown: AtomicBool::new(false),
            flight: FlightRecorder::new(cfg.flight_capacity, cfg.slow_ms),
            series: Mutex::new(SeriesCollector::with_default_capacity()),
            started: Instant::now(),
            kernel_keys: OnceLock::new(),
        }
    }

    /// The server's tunables (the reactor reads the worker count).
    pub(crate) fn config(&self) -> ServeConfig {
        self.cfg
    }

    /// The server's registry; the reactor resolves its connection and
    /// queue metrics from it.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.metrics.registry
    }

    /// Whether a `{"cmd":"shutdown"}` admin line has been answered.
    /// The serve loops poll this and exit cleanly once set.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The flight recorder: the reactor opens timelines against it and
    /// commits them as requests retire; `--trace-chrome` exports it on
    /// shutdown.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Closes one time-series window now (the reactor's ~1 s tick calls
    /// this, and a `{"cmd":"stats","series":true}` line calls it
    /// on-demand so the reply always carries at least one window).
    pub fn collect_series_window(&self) {
        let at_ms = self.started.elapsed().as_millis() as u64;
        self.series_lock().collect(&self.metrics.registry, at_ms);
    }

    /// The series ring rendered as versioned JSON.
    pub fn series_json(&self) -> String {
        self.series_lock().render_json()
    }

    fn series_lock(&self) -> std::sync::MutexGuard<'_, SeriesCollector> {
        self.series
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A point-in-time snapshot of the server's metrics registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.registry.snapshot()
    }

    /// Answers one request line with one reply line (no newline).
    ///
    /// Admin lines (`{"cmd":"stats"}`) are answered from the metrics
    /// registry and counted under `serve.admin_requests`; everything
    /// else — including malformed lines — counts as a request and is
    /// committed to the flight recorder (with no `flushed` edge).
    pub fn handle_line(&self, line: &str) -> String {
        let (reply, state) = self.answer_line(line);
        if let Some(state) = state {
            self.flight.commit(state.timeline);
        }
        reply
    }

    /// Answers one line, and returns an optimize request's timeline
    /// (opened now, so accepted and `framed` coincide) for the caller
    /// to commit.
    fn answer_line(&self, line: &str) -> (String, Option<TimelineState>) {
        let parsed = match Incoming::parse(line) {
            Ok(Incoming::Admin(admin)) => return (self.handle_admin(&admin), None),
            Ok(Incoming::Optimize(req)) => Ok(req),
            Err(reply) => Err(reply),
        };
        let mut state = self.flight.begin(Instant::now());
        state.stamp_front();
        (self.answer(parsed, &mut state), Some(state))
    }

    /// The front and miss stages back to back — the one request path,
    /// which the reactor splits across its thread and the workers (and
    /// leaves whole to a worker when [`Server::front_on_reactor`] says
    /// the front stage is too costly for the event loop).
    pub(crate) fn answer(
        &self,
        parsed: Result<Request, Reply>,
        state: &mut TimelineState,
    ) -> String {
        match self.front(parsed, state, &mut String::new()) {
            Front::Answered(reply) => reply,
            Front::Miss(miss) => self.miss(*miss, state),
        }
    }

    /// Whether `req`'s front stage is cheap enough to run on the
    /// reactor thread: a named kernel's always is (a table lookup), an
    /// inline source's only up to [`REACTOR_FRONT_MAX_SOURCE`] bytes.
    pub(crate) fn front_on_reactor(req: &Request) -> bool {
        match &req.source {
            Source::Kernel(_) => true,
            Source::Inline(src) => src.len() <= REACTOR_FRONT_MAX_SOURCE,
        }
    }

    /// Answers an admin request (never counted as an optimize request,
    /// so stats snapshots match replay ground truth exactly).
    pub(crate) fn handle_admin(&self, admin: &AdminRequest) -> String {
        self.metrics.admin_requests.inc();
        match admin.cmd {
            AdminCmd::Stats { series } => {
                let snapshot = self.metrics_snapshot().render_json();
                if series {
                    self.collect_series_window();
                    stats_series_reply(&admin.id, &self.series_json(), &snapshot)
                } else {
                    stats_reply(&admin.id, &snapshot)
                }
            }
            AdminCmd::Flight { slow_only } => {
                flight_reply(&admin.id, &self.flight.snapshot_json(slow_only))
            }
            AdminCmd::Hello { version } => match version {
                Some(v) if v == PROTOCOL_VERSION => hello_reply(&admin.id),
                offered => {
                    let message = match offered {
                        Some(v) => {
                            format!("unsupported protocol version {v} (server speaks {PROTOCOL_VERSION})")
                        }
                        None => {
                            format!("hello requires \"version\" (server speaks {PROTOCOL_VERSION})")
                        }
                    };
                    error_reply(Some(&admin.id), ErrorKind::BadVersion, message).render()
                }
            },
            AdminCmd::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                shutdown_reply(&admin.id)
            }
        }
    }

    /// The front stage: resolves a parsed (or unparsable) optimize
    /// line, builds its key into `key` (a buffer the caller reuses) and
    /// probes the cache.  A hit or a structured error is answered here;
    /// a miss comes back with everything the miss stage needs.
    pub(crate) fn front(
        &self,
        parsed: Result<Request, Reply>,
        state: &mut TimelineState,
        key: &mut String,
    ) -> Front {
        let req = match parsed {
            Ok(req) => req,
            Err(e) => return Front::Answered(self.answer_error(e, None, false, state)),
        };
        let nest = match self.key_request(&req, key) {
            Ok(nest) => nest,
            Err(e) => {
                let reply = self.answer_error(e, req.deadline_ms, req.trace, state);
                return Front::Answered(reply);
            }
        };
        match self.probe(key, state) {
            Some(decision) => Front::Answered(self.answer_ok(&req, &decision, true, state)),
            None => Front::Miss(Box::new(Miss {
                req,
                nest,
                key: std::mem::take(key),
            })),
        }
    }

    /// Writes `req`'s decision key into `key`.  A named kernel's nest
    /// text comes from the kernel key table, so its nest is not built
    /// (`Ok(None)`); an inline source is parsed, and its nest returned
    /// for the miss stage.
    fn key_request(&self, req: &Request, key: &mut String) -> Result<Option<LoopNest>, Reply> {
        let config = search_config(req);
        let (m, model, cost) = (&req.machine, req.model, req.cost_model);
        match &req.source {
            Source::Kernel(name) => match self
                .kernel_keys
                .get_or_init(kernel_key_table)
                .get(name.as_str())
            {
                Some(text) => {
                    write_decision_key(key, text, m, model, cost, config);
                    Ok(None)
                }
                None => Err(error_reply(
                    Some(&req.id),
                    ErrorKind::UnknownKernel,
                    format!("unknown kernel {name:?} (try `ujam list`)"),
                )),
            },
            // The reactor runs this on its own thread: the Fortran
            // front end is linear in the source and reports malformed
            // text as errors, and `catch_unwind` keeps even a bug in it
            // from taking the event loop down.
            Source::Inline(src) => match catch_unwind(|| ujam_fortran::parse(src)) {
                Ok(Ok(nest)) => {
                    write_decision_key(key, &nest, m, model, cost, config);
                    Ok(Some(nest))
                }
                Ok(Err(e)) => {
                    let mut reply = error_reply(Some(&req.id), ErrorKind::Parse, e.message);
                    if let Reply::Error(err) = &mut reply {
                        err.line = Some(e.line);
                    }
                    Err(reply)
                }
                Err(_) => Err(error_reply(
                    Some(&req.id),
                    ErrorKind::Internal,
                    "Fortran front end panicked; the request was dropped",
                )),
            },
        }
    }

    /// The miss stage: re-probes (a duplicate that filled the entry
    /// since the front stage is answered as a hit),
    /// then builds the nest if the front stage did not, analyses it,
    /// caches the decision and answers.  `serve.inflight` counts the
    /// requests inside this stage.
    pub(crate) fn miss(&self, miss: Miss, state: &mut TimelineState) -> String {
        self.metrics.inflight.add(1);
        let reply = self.answer_miss(miss, state);
        self.metrics.inflight.add(-1);
        reply
    }

    fn answer_miss(&self, miss: Miss, state: &mut TimelineState) -> String {
        let Miss { req, nest, key } = miss;
        if let Some(decision) = self.probe(&key, state) {
            return self.answer_ok(&req, &decision, true, state);
        }
        let nest = match nest {
            Some(nest) => nest,
            None => self.kernel_nest(&req.source),
        };
        let cancel = match req.deadline_ms {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::never(),
        };
        // A reply carries the decision and no body, so the miss stage
        // runs only the decide half: the unrolled nest is never built.
        // The cancel token is polled at every pass entry and inside the
        // search; a decision that finished inside its deadline is
        // answered, even where applying it would not have finished in
        // time.  The optimizer returns structured errors for every
        // malformed input; `catch_unwind` is the last line of defence
        // so that even a bug in the pipeline answers this one request
        // with an `internal` error instead of killing the daemon.
        state.stamp_analysis_start();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            decide_costed(
                &nest,
                &req.machine,
                req.model,
                req.cost_model,
                null_sink(),
                cancel,
                MetricsHandle::new(Arc::clone(&self.metrics.registry)),
                search_config(&req),
            )
        }));
        state.stamp_analysis_end();
        let decision = match outcome {
            Ok(Ok(found)) => Decision::decided(nest.name(), &found),
            Ok(Err(e)) => {
                let kind = match e {
                    OptimizeError::DeadlineExceeded => ErrorKind::DeadlineExceeded,
                    _ => ErrorKind::InvalidNest,
                };
                let e = error_reply(Some(&req.id), kind, e.to_string());
                return self.answer_error(e, req.deadline_ms, req.trace, state);
            }
            Err(_) => {
                let message = "optimizer panicked; the request was dropped";
                let e = error_reply(Some(&req.id), ErrorKind::Internal, message);
                return self.answer_error(e, req.deadline_ms, req.trace, state);
            }
        };
        // Only successful decisions are cached — an error (above) has
        // already returned, so a cancelled attempt can never poison the
        // cache for a caller with a looser deadline.
        let outcome = self.cache.insert(key, decision.clone());
        let m = &self.metrics;
        m.cache_evictions.add(outcome.evicted);
        m.shard_evictions[outcome.shard].add(outcome.evicted);
        m.cache_entries.set(self.cache.len() as i64);
        m.cache_bytes.set(self.cache.approx_bytes() as i64);
        self.answer_ok(&req, &decision, false, state)
    }

    /// The nest of a named kernel the front stage keyed from the table.
    fn kernel_nest(&self, source: &Source) -> LoopNest {
        let Source::Kernel(name) = source else {
            unreachable!("the front stage parses inline sources");
        };
        ujam_kernels::named_nest(name).expect("keyed kernel names resolve")
    }

    /// One decision-cache probe, between the `cache_probe` and
    /// `cache_done` edges, noting the shard it consulted.  It counts
    /// nothing: [`Server::retire`] reads the last probe off the timeline.
    fn probe(&self, key: &str, state: &mut TimelineState) -> Option<Arc<Decision>> {
        state.stamp_cache_probe();
        let (shard, hit) = self.cache.lookup(key);
        state.stamp_cache_done();
        state.shard = Some(shard);
        hit
    }

    /// Answers `req` with `decision`, rendered straight from the
    /// (possibly shared) cache entry.
    fn answer_ok(
        &self,
        req: &Request,
        decision: &Decision,
        cached: bool,
        state: &mut TimelineState,
    ) -> String {
        let t = &mut state.timeline;
        t.id.clone_from(&req.id);
        t.nest.clone_from(&decision.nest);
        t.outcome = "ok".to_string();
        t.cached = cached;
        t.unroll = Some(decision.unroll.clone());
        self.retire(true, state);
        let trace_id = req.trace.then(|| state.trace_id());
        render_decision(&req.id, decision, cached, trace_id)
    }

    /// Answers with a structured error (`trace` echoes the trace id, as
    /// the request asked).
    fn answer_error(
        &self,
        reply: Reply,
        deadline_ms: Option<u64>,
        trace: bool,
        state: &mut TimelineState,
    ) -> String {
        let Reply::Error(e) = &reply else {
            unreachable!("only error replies are answered as errors");
        };
        let t = &mut state.timeline;
        if let Some(id) = &e.id {
            t.id.clone_from(id);
        }
        t.outcome = format!("error:{}", e.kind.as_str());
        if e.kind == ErrorKind::DeadlineExceeded {
            let detail = match deadline_ms {
                Some(ms) => format!("deadline_ms={ms}"),
                None => "deadline elapsed".to_string(),
            };
            t.anomaly = Some(Anomaly::new(AnomalyReason::Deadline, detail));
        }
        self.retire(false, state);
        let trace_id = trace.then(|| state.trace_id());
        reply.with_trace_id(trace_id).render()
    }

    /// Request accounting, once per answered request and read entirely
    /// off its timeline: the request and reply counters, a deadline
    /// anomaly, the last cache probe (a hit when the reply is `cached`,
    /// counted in total and on the probed shard, with its lookup time),
    /// and the latency since `framed` (so queue wait counts), tagged
    /// with the trace id so series windows can carry an exemplar
    /// pointing back into the flight recorder.  A request that never
    /// reached the cache counts no probe; a miss shed at the queue is
    /// never answered here, so it is never counted.
    fn retire(&self, ok: bool, state: &TimelineState) {
        let (m, t) = (&self.metrics, &state.timeline);
        m.requests.inc();
        if ok {
            m.replies_ok.inc();
        } else {
            m.replies_error.inc();
        }
        if t.anomaly.as_ref().map(|a| a.reason) == Some(AnomalyReason::Deadline) {
            m.deadline_exceeded.inc();
        }
        if let Some(shard) = state.shard {
            let (total, per_shard) = if t.cached {
                (&m.cache_hits, &m.shard_hits)
            } else {
                (&m.cache_misses, &m.shard_misses)
            };
            total.inc();
            per_shard[shard].inc();
            m.cache_lookup_ns.observe(t.cache_ns().unwrap_or_default());
        }
        m.request_ns
            .observe_tagged(state.since_framed(), state.trace_id());
    }

    /// Answers a frame that carries no request line: an oversized line
    /// with `frame_too_long` (counted in `serve.frame.oversized`), and
    /// a line that is not UTF-8 with `bad_request`.  Every transport
    /// calls this, so malformed frames get the same reply bytes on
    /// stdin and on a socket.  The frame's timeline, with a frame-error
    /// anomaly, is returned for the caller to commit.
    pub(crate) fn answer_bad_frame(
        &self,
        frame: &Frame,
        accepted: Instant,
    ) -> (String, TimelineState) {
        let (kind, message) = match frame {
            Frame::Oversized { len } => {
                self.metrics.frame_oversized.inc();
                let message =
                    format!("line of {len} bytes exceeds the {MAX_LINE_BYTES}-byte frame limit");
                (ErrorKind::FrameTooLong, message)
            }
            _ => (ErrorKind::BadRequest, "line is not valid UTF-8".to_string()),
        };
        let mut state = self.flight.begin(accepted);
        state.timeline.outcome = format!("error:{}", kind.as_str());
        state.timeline.anomaly = Some(Anomaly::new(AnomalyReason::FrameError, message.clone()));
        (error_reply(None, kind, message).render(), state)
    }

    /// The newline-delimited JSON daemon loop: reads a line, answers
    /// it, writes the reply, and repeats until EOF (or a read error)
    /// or a `{"cmd":"shutdown"}` line.  Lines are split by the
    /// reactor's [`LineDecoder`]: blank lines are ignored, and an
    /// oversized or non-UTF-8 line is answered with a structured error
    /// like every other line.  No handshake is required.
    ///
    /// One read can deliver hundreds of piped lines, answered one after
    /// another, so each frame's timeline opens when the frame is
    /// decoded, not at the read: waiting behind earlier lines is not a
    /// request's own latency, and would classify fast requests slow.  A
    /// timeline is committed once its reply is flushed — or, when the
    /// write fails, without a `flushed` edge before the error returns,
    /// as the reactor commits a request whose client has gone.
    pub fn run<R, W>(&self, mut input: R, output: &mut W) -> std::io::Result<()>
    where
        R: BufRead,
        W: Write,
    {
        let mut decoder = LineDecoder::new();
        let mut eof = false;
        while !eof {
            match input.fill_buf() {
                Ok([]) => eof = true,
                Ok(chunk) => {
                    let n = chunk.len();
                    decoder.push(chunk);
                    input.consume(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => eof = true,
            }
            if eof {
                decoder.finish();
            }
            while let Some(frame) = decoder.next_frame() {
                let (reply, state) = match frame {
                    Frame::Empty => continue,
                    Frame::Line(line) => self.answer_line(&line),
                    bad => {
                        let (reply, state) = self.answer_bad_frame(&bad, Instant::now());
                        (reply, Some(state))
                    }
                };
                let written = writeln!(output, "{reply}").and_then(|()| output.flush());
                if let Some(mut state) = state {
                    if written.is_ok() {
                        state.stamp_flushed();
                    }
                    self.flight.commit(state.timeline);
                }
                written?;
                if self.shutdown_requested() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }
}

/// The search knobs a request carries (the paper's defaults where it
/// is silent).
fn search_config(req: &Request) -> SearchConfig {
    SearchConfig {
        max_unroll_loops: req
            .max_unroll_loops
            .unwrap_or(SearchConfig::default().max_unroll_loops),
        code_budget: req.code_budget,
    }
}

/// Every named kernel's canonical nest text — the nest part of its
/// decision key — rendered once, so a kernel hit never builds the nest.
/// Names and nests come from the kernels crate's one resolver
/// ([`ujam_kernels::named_nest`]), which the miss stage builds through
/// too.
fn kernel_key_table() -> HashMap<&'static str, String> {
    ujam_kernels::kernel_names()
        .into_iter()
        .map(|name| {
            let nest = ujam_kernels::named_nest(name).expect("listed kernel names resolve");
            (name, nest.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_trace::json;

    fn server() -> Server {
        Server::new(
            ServeConfig {
                workers: 2,
                cache_capacity: 16,
                shards: 1,
                ..ServeConfig::default()
            },
            null_sink(),
        )
    }

    #[test]
    fn kernel_request_round_trips_and_caches() {
        let s = server();
        let first = s.handle_line(r#"{"id":"a","kernel":"dmxpy1"}"#);
        let doc = json::parse(&first).expect("valid JSON");
        assert_eq!(doc.get("ok"), Some(&json::Value::Bool(true)));
        assert_eq!(doc.get("cached"), Some(&json::Value::Bool(false)));
        let second = s.handle_line(r#"{"id":"b","kernel":"dmxpy1"}"#);
        let doc = json::parse(&second).expect("valid JSON");
        assert_eq!(doc.get("cached"), Some(&json::Value::Bool(true)));
        let snap = s.metrics_snapshot();
        assert_eq!(snap.counter("serve.requests"), 2);
        assert_eq!(snap.counter("serve.cache.hits"), 1);
        assert_eq!(snap.counter("serve.cache.misses"), 1);
        assert_eq!(snap.counter("serve.replies_ok"), 2);
    }

    #[test]
    fn unknown_kernel_and_parse_errors_are_structured() {
        let s = server();
        let reply = s.handle_line(r#"{"id":"a","kernel":"nope"}"#);
        let doc = json::parse(&reply).expect("valid JSON");
        assert_eq!(doc.get("ok"), Some(&json::Value::Bool(false)));
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(json::Value::as_str),
            Some("unknown_kernel")
        );
        let reply = s.handle_line(r#"{"id":"b","source":"not fortran"}"#);
        let doc = json::parse(&reply).expect("valid JSON");
        let err = doc.get("error").expect("error object");
        assert_eq!(err.get("kind").and_then(json::Value::as_str), Some("parse"));
        assert!(err.get("line").and_then(json::Value::as_f64).is_some());
        let snap = s.metrics_snapshot();
        assert_eq!(
            snap.counter("serve.cache.misses"),
            0,
            "errors never touch the cache"
        );
    }

    #[test]
    fn zero_deadline_is_rejected_and_not_cached() {
        let s = server();
        let reply = s.handle_line(r#"{"id":"a","kernel":"dmxpy1","deadline_ms":0}"#);
        let doc = json::parse(&reply).expect("valid JSON");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(json::Value::as_str),
            Some("deadline_exceeded")
        );
        // The failed attempt must not have poisoned the cache: the same
        // content with no deadline computes fresh (a miss, not a hit).
        let reply = s.handle_line(r#"{"id":"b","kernel":"dmxpy1"}"#);
        let doc = json::parse(&reply).expect("valid JSON");
        assert_eq!(doc.get("ok"), Some(&json::Value::Bool(true)));
        assert_eq!(doc.get("cached"), Some(&json::Value::Bool(false)));
        assert_eq!(s.metrics_snapshot().counter("serve.deadline_exceeded"), 1);
    }

    #[test]
    fn inline_source_shares_cache_with_kernel_requests() {
        let s = server();
        let emitted = ujam_fortran::emit(&ujam_kernels::kernel("dmxpy1").expect("exists").nest());
        let mut line = String::from(r#"{"id":"a","source":"#);
        ujam_trace::json::write_escaped(&mut line, &emitted);
        line.push('}');
        let first = s.handle_line(&line);
        assert!(first.contains("\"ok\":true"), "{first}");
        // The kernel request hits the entry the inline request warmed iff
        // the emitted source parses back to the identical nest.
        let roundtrip = ujam_fortran::parse(&emitted).expect("emitted source parses");
        let direct = ujam_kernels::kernel("dmxpy1").expect("exists").nest();
        if format!("{roundtrip}") == format!("{direct}") {
            let second = s.handle_line(r#"{"id":"b","kernel":"dmxpy1"}"#);
            assert!(second.contains("\"cached\":true"), "{second}");
        }
    }

    /// The front stage keys named kernels from the kernel key table;
    /// that key must be byte-identical to keying the
    /// built nest, for every kernel and alias and every parameter the
    /// key pins.
    #[test]
    fn kernel_key_table_matches_decision_key() {
        use ujam_core::{BalanceModel, CostModelKind};
        use ujam_machine::MachineModel;
        let s = server();
        let mut named: Vec<(&str, LoopNest)> = ujam_kernels::kernels()
            .into_iter()
            .map(|k| (k.name, k.nest()))
            .chain(
                ujam_kernels::deep_kernels()
                    .into_iter()
                    .map(|k| (k.name, k.nest())),
            )
            .collect();
        named.push((
            "matmul",
            ujam_kernels::kernel("mmjki").expect("exists").nest(),
        ));
        let machines = [
            MachineModel::dec_alpha(),
            MachineModel::hp_parisc(),
            MachineModel::prefetching_risc(),
        ];
        let configs = [
            (None, None),
            (Some(3), Some(48)), // a register-tiling request
        ];
        let mut key = String::new();
        let mut checked = 0;
        for (name, nest) in &named {
            for machine in &machines {
                for model in [BalanceModel::CacheAware, BalanceModel::AllHits] {
                    for cost_model in [CostModelKind::Analytic, CostModelKind::Profiled] {
                        for (max_unroll_loops, code_budget) in configs {
                            let req = Request {
                                id: "k".into(),
                                source: Source::Kernel(name.to_string()),
                                machine: machine.clone(),
                                model,
                                cost_model,
                                deadline_ms: None,
                                max_unroll_loops,
                                code_budget,
                                trace: false,
                            };
                            let built = s.key_request(&req, &mut key).expect("known kernel");
                            assert!(built.is_none(), "{name}: a kernel key builds no nest");
                            let expected = crate::cache::decision_key(
                                nest,
                                machine,
                                model,
                                cost_model,
                                search_config(&req),
                            );
                            assert_eq!(
                                key, expected,
                                "{name} {machine:?} {model:?} {cost_model:?}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, (19 + 6 + 1) * 3 * 2 * 2 * 2);
    }

    #[test]
    fn metrics_mirror_request_and_cache_accounting() {
        let s = server();
        s.handle_line(r#"{"id":"a","kernel":"dmxpy1"}"#);
        s.handle_line(r#"{"id":"b","kernel":"dmxpy1"}"#);
        s.handle_line(r#"{"id":"c","kernel":"nope"}"#);
        let snap = s.metrics_snapshot();
        assert_eq!(snap.counter("serve.requests"), 3);
        assert_eq!(snap.counter("serve.replies_ok"), 2);
        assert_eq!(snap.counter("serve.replies_error"), 1);
        assert_eq!(snap.counter("serve.cache.hits"), 1);
        assert_eq!(snap.counter("serve.cache.misses"), 1);
        assert_eq!(snap.gauge("serve.inflight"), 0, "requests all retired");
        assert_eq!(snap.gauge("serve.cache.entries"), 1);
        assert!(snap.gauge("serve.cache.bytes") > 0);
        let latency = snap.histogram("serve.request_ns").expect("present");
        assert_eq!(latency.count, 3, "every request observed once");
        assert!(latency.sum > 0);
        // The uncached request drove the decide half: each of its pass
        // histograms holds exactly one observation, and the apply pass
        // never ran.
        for pass in ["select-loops", "build-tables", "search-space"] {
            let h = snap
                .histogram(&format!("pass.{pass}.ns"))
                .unwrap_or_else(|| panic!("pass.{pass}.ns present"));
            assert_eq!(h.count, 1, "pass.{pass}.ns");
        }
        assert!(snap.histogram("pass.apply-transform.ns").is_none());
        // Cache lookups happened for both resolvable requests.
        assert_eq!(
            snap.histogram("serve.cache.lookup_ns")
                .expect("present")
                .count,
            2
        );
    }

    #[test]
    fn stats_requests_answer_from_the_registry_without_counting_as_requests() {
        let s = server();
        s.handle_line(r#"{"id":"a","kernel":"dmxpy1"}"#);
        let reply = s.handle_line(r#"{"id":"s1","cmd":"stats"}"#);
        let doc = json::parse(&reply).expect("valid JSON");
        assert_eq!(doc.get("ok"), Some(&json::Value::Bool(true)));
        let stats = doc.get("stats").expect("stats object");
        assert_eq!(
            stats
                .get("counters")
                .and_then(|c| c.get("serve.requests"))
                .and_then(json::Value::as_f64),
            Some(1.0),
            "the stats line itself must not count as a request"
        );
        assert_eq!(
            stats
                .get("counters")
                .and_then(|c| c.get("serve.admin_requests"))
                .and_then(json::Value::as_f64),
            Some(1.0)
        );
        // A second stats call sees the admin counter advance, nothing else.
        let snap = s.metrics_snapshot();
        assert_eq!(snap.counter("serve.requests"), 1);
        assert_eq!(snap.counter("serve.admin_requests"), 1);
    }

    /// Replay determinism: serving the same lines to two servers yields
    /// identical snapshots once timing-valued fields are projected out.
    #[test]
    fn replayed_batches_produce_identical_snapshots_modulo_timing() {
        let run = || {
            let s = Server::new(
                ServeConfig {
                    workers: 1,
                    cache_capacity: 16,
                    shards: 1,
                    ..ServeConfig::default()
                },
                null_sink(),
            );
            for line in [
                r#"{"id":"1","kernel":"dmxpy1"}"#,
                r#"{"id":"2","kernel":"dmxpy1"}"#,
                r#"{"id":"3","kernel":"nope"}"#,
                r#"not json"#,
            ] {
                s.handle_line(line);
            }
            s.metrics_snapshot()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.gauges, b.gauges);
        // Histograms: identical names and counts; sums are wall time.
        let names =
            |s: &ujam_metrics::MetricsSnapshot| s.histograms.keys().cloned().collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        for (name, h) in &a.histograms {
            assert_eq!(h.count, b.histograms[name].count, "{name}");
        }
    }

    #[test]
    fn timed_handling_stamps_edges_and_replies_identically() {
        let s = server();
        let line = r#"{"id":"a","kernel":"dmxpy1"}"#;
        let timed = s.handle_line(line);
        // A fresh identical server answers the same line: bitwise equal
        // output, since the trace id is only echoed on request.
        let bare = server();
        assert_eq!(
            timed,
            bare.handle_line(line),
            "tracing never changes replies"
        );
        let recent = s.flight().recent();
        let t = &recent[0];
        assert_eq!(t.id, "a");
        assert_eq!(t.outcome, "ok");
        assert!(!t.cached);
        assert!(t.unroll.is_some());
        assert!(t.cache_probe.is_some() && t.cache_done.is_some());
        assert!(
            t.analysis_start.is_some() && t.analysis_end.is_some(),
            "a miss runs analysis"
        );
        // A cache hit stamps the probe but never the analysis.
        s.handle_line(r#"{"id":"b","kernel":"dmxpy1"}"#);
        let hit = &s.flight().recent()[1];
        assert!(hit.cached);
        assert!(hit.cache_done.is_some());
        assert!(hit.analysis_start.is_none());
    }

    #[test]
    fn trace_opt_in_echoes_the_assigned_trace_id() {
        let s = server();
        let reply = s.handle_line(r#"{"id":"a","kernel":"dmxpy1","trace":true}"#);
        assert!(reply.ends_with(",\"trace_id\":1}"), "{reply}");
        // Without the opt-in the id is assigned but never echoed.
        let reply = s.handle_line(r#"{"id":"b","kernel":"dmxpy1"}"#);
        assert!(!reply.contains("trace_id"), "{reply}");
        assert_eq!(s.flight().recent()[1].trace_id, 2);
    }

    #[test]
    fn deadline_errors_carry_a_structured_anomaly() {
        let s = server();
        s.handle_line(r#"{"id":"a","kernel":"dmxpy1","deadline_ms":0}"#);
        let anomalies = s.flight().anomalies();
        let anomaly = anomalies[0].anomaly.as_ref().expect("classified");
        assert_eq!(anomaly.reason, ujam_trace::AnomalyReason::Deadline);
        assert_eq!(anomaly.detail, "deadline_ms=0");
        assert_eq!(anomalies[0].outcome, "error:deadline_exceeded");
    }

    #[test]
    fn flight_admin_lines_answer_from_the_recorder_as_admin_traffic() {
        let s = server();
        s.handle_line(r#"{"id":"a","kernel":"dmxpy1"}"#);
        let reply = s.handle_line(r#"{"id":"f1","cmd":"flight"}"#);
        let doc = json::parse(&reply).expect("valid JSON");
        assert_eq!(doc.get("ok"), Some(&json::Value::Bool(true)));
        let flight = doc.get("flight").expect("flight object");
        assert_eq!(
            flight.get("version").and_then(json::Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            flight
                .get("recent")
                .and_then(json::Value::as_array)
                .map(<[_]>::len),
            Some(1)
        );
        let snap = s.metrics_snapshot();
        assert_eq!(
            snap.counter("serve.requests"),
            1,
            "flight is admin, not a request"
        );
        assert_eq!(snap.counter("serve.admin_requests"), 1);
    }

    #[test]
    fn stats_series_replies_carry_windows_with_exemplars() {
        let s = server();
        s.handle_line(r#"{"id":"a","kernel":"dmxpy1"}"#);
        let reply = s.handle_line(r#"{"id":"s1","cmd":"stats","series":true}"#);
        let doc = json::parse(&reply).expect("valid JSON");
        let series = doc.get("series").expect("series object");
        assert_eq!(
            series.get("version").and_then(json::Value::as_f64),
            Some(1.0)
        );
        let windows = series
            .get("windows")
            .and_then(json::Value::as_array)
            .expect("windows array");
        assert!(!windows.is_empty(), "on-demand collection yields a window");
        let w = &windows[0];
        assert_eq!(
            w.get("deltas")
                .and_then(|d| d.get("serve.requests"))
                .and_then(json::Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            w.get("exemplars")
                .and_then(|e| e.get("serve.request_ns"))
                .and_then(|e| e.get("trace_id"))
                .and_then(json::Value::as_f64),
            Some(1.0),
            "the window's max-latency exemplar names the traced request"
        );
        // The trailing stats object still parses and is final, so
        // clients extracting it textually keep working.
        assert!(doc.get("stats").is_some());
        let at = reply.find("\"stats\":").expect("stats field");
        json::parse(&reply[at + "\"stats\":".len()..reply.len() - 1]).expect("stats extractable");
    }

    #[test]
    fn run_answers_every_line_and_drains_on_eof() {
        let s = server();
        let input = b"{\"id\":\"1\",\"kernel\":\"dmxpy\"}\n\n{\"id\":\"2\",\"kernel\":\"nope\"}\nnot json\n"
            .to_vec();
        let mut out = Vec::new();
        s.run(std::io::Cursor::new(input), &mut out).expect("io ok");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "blank line skipped, three replies:\n{text}");
        for line in &lines {
            json::parse(line).expect("every reply is valid JSON");
        }
        assert!(lines[0].contains("\"id\":\"1\""));
        assert!(lines[1].contains("unknown_kernel"));
        assert!(lines[2].contains("\"id\":null"));
        // Stdin is answered in order even with idle workers to spare, so
        // an exact duplicate always finds its original's entry.
        let s = Server::new(
            ServeConfig {
                workers: 4,
                ..ServeConfig::default()
            },
            null_sink(),
        );
        let line = "{\"id\":\"d\",\"kernel\":\"dmxpy1\"}\n";
        let mut out = Vec::new();
        s.run(line.repeat(2).as_bytes(), &mut out).expect("io ok");
        let text = String::from_utf8(out).expect("utf8");
        let replies: Vec<&str> = text.lines().collect();
        assert!(replies[0].contains("\"cached\":false"), "{text}");
        assert!(replies[1].contains("\"cached\":true"), "{text}");
    }
}

//! The event-loop front end: one `poll(2)` thread multiplexing every
//! connection, a fixed worker pool behind a bounded queue.
//!
//! The PR 4 daemon spawned a thread per connection, each running the
//! blocking [`Server::run`] loop.  That shape has two failure modes the
//! paper's serving story cannot afford: an idle or half-writing client
//! parks a whole thread forever (the blocking reader never times out),
//! and a burst of connections multiplies threads without bound.  The
//! reactor inverts it: **connections are state, not threads.**
//!
//! * One reactor thread owns every socket (nonblocking), a
//!   [`LineDecoder`] and an output buffer per connection, and a
//!   `poll(2)` set rebuilt each iteration (`crate::sys`).
//! * The reactor parses each frame once and runs the server's **front
//!   stage** on it: resolve, build the decision key, probe the cache.
//!   A hit — and a structured error — is answered right there, on the
//!   reactor thread, with no queue and no thread handoff.
//! * Only cache misses reach the `cfg.workers` worker threads, through
//!   a bounded job queue.  Each job carries what the front stage
//!   learned (parsed request, nest, key), and the worker runs the
//!   **miss stage** — the same two stages [`Server::handle_line`] runs
//!   back to back, so replies are bitwise identical to the stdin
//!   path.  An inline source too large for the reactor's front stage
//!   (over 8 KiB; see `Server::front_on_reactor`) is queued unparsed,
//!   and its worker runs both stages: the event loop's work per frame
//!   stays within a small multiple of the frame's JSON parse.
//! * Misses come back over a results list plus a self-wake pipe.  Every
//!   reply, inline or from a worker, is re-sequenced per connection: a
//!   client that writes `n` lines reads exactly `n` replies **in
//!   order**, no matter how the pool interleaves them.
//!
//! Admission control is layered where each limit is cheapest to
//! enforce:
//!
//! * `max_conns` — a connection over the cap is answered with one
//!   `overloaded` line and closed at accept time;
//! * `max_queue` — a cache miss arriving while the queue is full is
//!   shed inline with a structured `overloaded` reply carrying
//!   `retry_ms` (the connection stays up; well-behaved clients back
//!   off).  Hits never enter the queue, so they are never shed;
//! * `max_inflight` — a pipelining connection with that many misses
//!   already queued stops being polled for reads (backpressure through
//!   the kernel socket buffer, not memory growth);
//! * unflushed output — likewise a connection with more than
//!   `MAX_LINE_BYTES` of replies waiting to flush, so a client that
//!   pipelines hits but never reads stalls on its own socket instead
//!   of growing the daemon's buffer; and one read takes at most
//!   `MAX_LINE_BYTES` off a socket;
//! * `read_timeout` — a connection that sends no byte for this long is
//!   reaped and counted under `serve.conn.timeout`; this is the
//!   slow-loris guard and the fix for the blocking reader's
//!   park-forever EOF edge.
//!
//! Every connection, TCP or Unix socket, must open with the versioned
//! handshake `{"id":"h","cmd":"hello","version":1}` before anything
//! else.  The transports differ only in who may connect: loopback TCP
//! is open to every local user, a Unix socket to whoever its file
//! permissions admit.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ujam_metrics::{Counter, Gauge};
use ujam_trace::{Anomaly, AnomalyReason};

use crate::flight::TimelineState;
use crate::frame::{Frame, LineDecoder, MAX_LINE_BYTES};
use crate::proto::{
    error_reply, overloaded_reply, recover_id, AdminCmd, AdminRequest, ErrorKind, Incoming,
    Request, PROTOCOL_VERSION,
};
use crate::server::{Front, Miss, Server};

/// Tunables for the event loop, orthogonal to [`crate::ServeConfig`]
/// (which sizes the worker pool and the cache).
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Most jobs waiting in the worker queue before new requests are
    /// shed with `overloaded` replies.
    pub max_queue: usize,
    /// Most open connections; one over the cap is told `overloaded`
    /// and closed at accept.
    pub max_conns: usize,
    /// Most in-flight (queued, unanswered) requests per connection
    /// before the reactor stops reading from it.
    pub max_inflight: usize,
    /// A connection that sends no byte for this long is closed and
    /// counted under `serve.conn.timeout`.
    pub read_timeout: Duration,
    /// The backoff suggested in `overloaded` replies.
    pub retry_ms: u64,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            max_queue: 256,
            max_conns: 1024,
            max_inflight: 32,
            read_timeout: Duration::from_secs(30),
            retry_ms: 50,
        }
    }
}

/// The listeners a reactor serves; either or both.
#[derive(Debug, Default)]
pub struct Transports {
    /// A bound TCP listener (clients must handshake).
    pub tcp: Option<TcpListener>,
    /// A bound Unix-socket listener (clients must handshake).
    pub unix: Option<UnixListener>,
}

/// One queued request: which connection, which slot in its reply
/// order, the work left for a worker, and its lifecycle timeline
/// (opened at framing, carried along so the worker can stamp its edges
/// without any shared state).
struct Job {
    conn: u64,
    seq: u64,
    work: Work,
    timeline: TimelineState,
}

/// What a worker runs for a job.
enum Work {
    /// The miss stage of a request whose front stage missed on the
    /// reactor, with what that stage learned (parsed request, nest,
    /// key).
    Miss(Box<Miss>),
    /// Both stages of a request whose front stage is too costly for the
    /// reactor thread (an inline source over
    /// `REACTOR_FRONT_MAX_SOURCE` bytes).
    Whole(Box<Request>),
}

impl Work {
    /// The request id, which a shed reply echoes.
    fn id(&self) -> &str {
        match self {
            Work::Miss(miss) => miss.id(),
            Work::Whole(req) => &req.id,
        }
    }
}

/// The bounded worker queue.  `push` never blocks (admission control
/// sheds *before* pushing); `pop` blocks until a job or close.
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut st = self.state.lock().expect("queue lock");
        st.jobs.push_back(job);
        drop(st);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

/// A finished reply on its way back to the reactor thread, with its
/// timeline still awaiting the reply-flushed stamp.
struct Done {
    conn: u64,
    seq: u64,
    reply: String,
    timeline: TimelineState,
}

/// Either kind of accepted socket, unified behind `Read`/`Write`/fd.
enum ConnStream {
    Tcp(std::net::TcpStream),
    Unix(UnixStream),
}

impl ConnStream {
    fn fd(&self) -> RawFd {
        match self {
            ConnStream::Tcp(s) => s.as_raw_fd(),
            ConnStream::Unix(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ConnStream::Tcp(s) => s.read(buf),
            ConnStream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ConnStream::Tcp(s) => s.write(buf),
            ConnStream::Unix(s) => s.write(buf),
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            ConnStream::Tcp(s) => s.set_nonblocking(true),
            ConnStream::Unix(s) => s.set_nonblocking(true),
        }
    }
}

/// A bound listener's fd and its accept, which wraps each new socket in
/// the listener's [`ConnStream`] variant: the only per-transport part of
/// accepting.
type Listener<'l> = (RawFd, Box<dyn Fn() -> std::io::Result<ConnStream> + 'l>);

/// Per-connection reactor state: the framing buffer in, the reply
/// buffer out, and the bookkeeping that keeps replies ordered.
struct Conn {
    stream: ConnStream,
    decoder: LineDecoder,
    /// Bytes waiting to go out (already-ordered reply lines).
    out: Vec<u8>,
    out_pos: usize,
    /// Next sequence number to assign to an arriving frame.
    next_seq: u64,
    /// Next sequence number the client is owed.
    next_emit: u64,
    /// Replies that finished out of order, waiting for their turn,
    /// each with its timeline (none for a reply with no request behind
    /// it: hello, admin, handshake errors).
    done: BTreeMap<u64, (String, Option<TimelineState>)>,
    /// Timelines whose reply bytes sit in `out`: they get their
    /// reply-flushed stamp when the buffer fully drains.
    awaiting_flush: Vec<TimelineState>,
    /// Frames handed to the worker queue and not yet answered.
    inflight: usize,
    /// Whether the connection has completed the versioned hello.
    greeted: bool,
    read_closed: bool,
    last_read: Instant,
    /// Set after a fatal protocol error: flush what's owed, then close.
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: ConnStream, now: Instant) -> Conn {
        Conn {
            stream,
            decoder: LineDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_emit: 0,
            done: BTreeMap::new(),
            awaiting_flush: Vec::new(),
            inflight: 0,
            greeted: false,
            read_closed: false,
            last_read: now,
            close_after_flush: false,
        }
    }

    /// Records `reply` for slot `seq` and moves every now-contiguous
    /// reply into the output buffer (parking its timeline until the
    /// buffer drains).
    fn complete(&mut self, seq: u64, reply: String, timeline: Option<TimelineState>) {
        self.done.insert(seq, (reply, timeline));
        while let Some((reply, timeline)) = self.done.remove(&self.next_emit) {
            self.out.extend_from_slice(reply.as_bytes());
            self.out.push(b'\n');
            if let Some(t) = timeline {
                self.awaiting_flush.push(t);
            }
            self.next_emit += 1;
        }
    }

    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Whether to take more frames from this connection: fewer than
    /// `max_inflight` misses queued, and at most `MAX_LINE_BYTES` of
    /// replies waiting to flush.  The second bound is what stops a
    /// client that pipelines hits without reading: `inflight` drops
    /// when a reply completes, not when it flushes.
    fn accepts_input(&self, max_inflight: usize) -> bool {
        self.inflight < max_inflight && self.out.len() - self.out_pos <= MAX_LINE_BYTES
    }

    /// Everything owed has been answered and flushed.
    fn is_settled(&self) -> bool {
        self.inflight == 0 && self.done.is_empty() && !self.has_pending_out()
    }

    /// Writes as much of the output buffer as the socket accepts.
    /// `Ok(false)` means the peer is gone.
    fn flush(&mut self) -> std::io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Ok(false),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(_) => return Ok(false),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(true)
    }
}

/// Reactor-level metrics, resolved once from the server's registry.
struct ReactorMetrics {
    accepted: Arc<Counter>,
    accept_errors: Arc<Counter>,
    open: Arc<Gauge>,
    timeouts: Arc<Counter>,
    shed: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    queue_peak: Arc<Gauge>,
}

impl ReactorMetrics {
    fn resolve(server: &Server) -> ReactorMetrics {
        let reg = server.registry();
        ReactorMetrics {
            accepted: reg.counter("serve.conn.accepted"),
            accept_errors: reg.counter("serve.conn.accept_errors"),
            open: reg.gauge("serve.conn.open"),
            timeouts: reg.counter("serve.conn.timeout"),
            shed: reg.counter("serve.shed"),
            queue_depth: reg.gauge("serve.queue_depth"),
            queue_peak: reg.gauge("serve.queue_depth.peak"),
        }
    }
}

/// Stamps and commits every timeline whose reply bytes have fully
/// reached the socket.  A no-op while output is still pending — the
/// flushed edge means the kernel accepted the last byte of the reply.
fn commit_flushed(conn: &mut Conn, server: &Server) {
    if conn.has_pending_out() {
        return;
    }
    for mut t in conn.awaiting_flush.drain(..) {
        t.stamp_flushed();
        server.flight().commit(t.timeline);
    }
}

/// The event loop.  Borrows the server; worker threads are scoped
/// inside [`run`](Reactor::run), so the reactor cannot outlive it.
pub(crate) struct Reactor<'a> {
    server: &'a Server,
    rcfg: ReactorConfig,
    metrics: ReactorMetrics,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    /// Jobs pushed and not yet drained from the results list —
    /// the admission-control queue depth.
    depth: usize,
    stopping: bool,
    stop_deadline: Option<Instant>,
    /// Set when `accept` failed with anything but `WouldBlock` (say
    /// `EMFILE`): the listeners stay out of the poll set until then.  A
    /// level-triggered listener with a pending connection it cannot
    /// accept would otherwise wake `poll` at once, forever.
    accept_resume: Option<Instant>,
    /// The front stage's key buffer, reused from hit to hit (a miss
    /// takes it along to the worker).
    key: String,
}

impl<'a> Reactor<'a> {
    pub(crate) fn new(server: &'a Server, rcfg: ReactorConfig) -> Reactor<'a> {
        Reactor {
            server,
            rcfg,
            metrics: ReactorMetrics::resolve(server),
            conns: HashMap::new(),
            next_conn_id: 0,
            depth: 0,
            stopping: false,
            stop_deadline: None,
            accept_resume: None,
            key: String::new(),
        }
    }

    /// Serves until a `{"cmd":"shutdown"}` line (or a listener error).
    pub(crate) fn run(mut self, transports: Transports) -> std::io::Result<()> {
        let queue = JobQueue::new();
        let results: Mutex<Vec<Done>> = Mutex::new(Vec::new());
        let (wake_tx, mut wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let mut listeners: Vec<Listener> = Vec::new();
        if let Some(l) = &transports.tcp {
            l.set_nonblocking(true)?;
            listeners.push((
                l.as_raw_fd(),
                Box::new(|| Ok(ConnStream::Tcp(l.accept()?.0))),
            ));
        }
        if let Some(l) = &transports.unix {
            l.set_nonblocking(true)?;
            listeners.push((
                l.as_raw_fd(),
                Box::new(|| Ok(ConnStream::Unix(l.accept()?.0))),
            ));
        }
        let workers = self.server.config().workers.max(1);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let queue = &queue;
                let results = &results;
                let server = self.server;
                let wake = &wake_tx;
                scope.spawn(move || {
                    while let Some(mut job) = queue.pop() {
                        job.timeline.stamp_dequeued();
                        let state = &mut job.timeline;
                        let reply = match job.work {
                            Work::Miss(miss) => server.miss(*miss, state),
                            Work::Whole(req) => server.answer(Ok(*req), state),
                        };
                        results.lock().expect("results lock").push(Done {
                            conn: job.conn,
                            seq: job.seq,
                            reply,
                            timeline: job.timeline,
                        });
                        // A full pipe already guarantees a wake-up.
                        let mut w: &UnixStream = wake;
                        let _ = w.write(&[1u8]);
                    }
                });
            }

            let run = self.event_loop(&listeners, &queue, &results, &mut wake_rx);
            queue.close();
            run
        })
    }

    fn event_loop(
        &mut self,
        listeners: &[Listener],
        queue: &JobQueue,
        results: &Mutex<Vec<Done>>,
        wake_rx: &mut UnixStream,
    ) -> std::io::Result<()> {
        use crate::sys::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

        let tick_ms: i32 = (self.rcfg.read_timeout.as_millis() / 2)
            .clamp(10, 100)
            .try_into()
            .unwrap_or(100);
        let tick = Duration::from_millis(tick_ms as u64);
        let series_period = Duration::from_secs(1);
        let mut next_series = Instant::now() + series_period;

        loop {
            // 1. Build this iteration's poll set.  Slot 0 is the wake
            //    pipe; listeners follow (only while accepting, and not
            //    within a tick of a failed accept); then one slot per
            //    connection with interest derived from state.
            let mut fds = vec![PollFd::new(wake_rx.as_raw_fd(), POLLIN)];
            if self
                .accept_resume
                .is_some_and(|resume| Instant::now() >= resume)
            {
                self.accept_resume = None;
            }
            if !self.stopping && self.accept_resume.is_none() {
                fds.extend(listeners.iter().map(|&(fd, _)| PollFd::new(fd, POLLIN)));
            }
            let listener_slots = 1..fds.len();
            let mut conn_slots: Vec<(usize, u64)> = Vec::with_capacity(self.conns.len());
            for (&id, conn) in &self.conns {
                let mut events = 0;
                let paused = self.stopping || conn.close_after_flush;
                if !conn.read_closed && conn.accepts_input(self.rcfg.max_inflight) && !paused {
                    events |= POLLIN;
                }
                if conn.has_pending_out() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    conn_slots.push((fds.len(), id));
                    fds.push(PollFd::new(conn.stream.fd(), events));
                }
            }

            poll_fds(&mut fds, tick_ms)?;
            let now = Instant::now();

            // Close one time-series window roughly every second (the
            // poll tick is ≤ 100 ms, so the cadence holds even when the
            // daemon is idle).
            if now >= next_series {
                self.server.collect_series_window();
                next_series = now + series_period;
            }

            // 2. Drain the wake pipe and the results list; completed
            //    replies free queue slots and may unblock reads.
            if fds[0].revents != 0 {
                let mut sink = [0u8; 256];
                while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            }
            let done: Vec<Done> = std::mem::take(&mut *results.lock().expect("results lock"));
            for d in done {
                self.depth = self.depth.saturating_sub(1);
                match self.conns.get_mut(&d.conn) {
                    Some(conn) => {
                        conn.inflight = conn.inflight.saturating_sub(1);
                        conn.complete(d.seq, d.reply, Some(d.timeline));
                    }
                    // A reply for a connection that died mid-request is
                    // dropped (the slot it held is already freed), but
                    // its timeline is still flight history — committed
                    // without a flushed stamp.
                    None => self.server.flight().commit(d.timeline.timeline),
                }
            }
            self.metrics.queue_depth.set(self.depth as i64);

            // 3. Accept.
            for (slot, (_, accept)) in listener_slots.zip(listeners) {
                if fds[slot].revents != 0 {
                    self.accept(accept, now, tick);
                }
            }

            // 4. Read / pump / flush every connection that polled ready.
            for &(slot, id) in &conn_slots {
                let revents = fds[slot].revents;
                if revents == 0 {
                    continue;
                }
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                let mut dead = revents & POLLNVAL != 0;
                if !dead && revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                    dead = !Self::read_into(conn, now);
                }
                if !dead {
                    self.pump(id, queue);
                    if let Some(conn) = self.conns.get_mut(&id) {
                        dead = !conn.flush().unwrap_or(false);
                        if !dead {
                            commit_flushed(conn, self.server);
                        }
                    }
                }
                if dead {
                    self.drop_conn(id);
                }
            }

            // 5. Pump connections whose reads are paused but whose
            //    queue slots just freed, then flush everyone with
            //    pending output (completions arrive via the wake pipe,
            //    not via socket readiness).
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                self.pump(id, queue);
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                if conn.has_pending_out() && !conn.flush().unwrap_or(false) {
                    self.drop_conn(id);
                } else if let Some(conn) = self.conns.get_mut(&id) {
                    commit_flushed(conn, self.server);
                }
            }

            // 6. Reap: settled EOF/erroring connections, protocol
            //    offenders once flushed, and idle timeouts.
            self.reap(now);

            // 7. Shutdown: stop accepting, let in-flight work drain,
            //    give flushes a grace period, then leave.
            if self.server.shutdown_requested() && !self.stopping {
                self.stopping = true;
                self.stop_deadline = Some(now + Duration::from_millis(500));
            }
            if self.stopping {
                let drained = self.depth == 0 && self.conns.values().all(Conn::is_settled);
                let expired = self.stop_deadline.is_some_and(|d| now >= d);
                if drained || expired {
                    return Ok(());
                }
            }
        }
    }

    /// Admits every connection pending on one listener.  A socket that
    /// cannot be made nonblocking is dropped.  Any other accept error
    /// (`EMFILE`, `ENFILE`, `ENOBUFS`, ...) is counted, and the
    /// listeners sit out one tick.
    fn accept(
        &mut self,
        accept: &dyn Fn() -> std::io::Result<ConnStream>,
        now: Instant,
        tick: Duration,
    ) {
        loop {
            match accept() {
                Ok(stream) => {
                    if stream.set_nonblocking().is_err() {
                        continue;
                    }
                    self.admit(stream, now);
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(_) => {
                    self.metrics.accept_errors.inc();
                    self.accept_resume = Some(now + tick);
                    return;
                }
            }
        }
    }

    fn admit(&mut self, mut stream: ConnStream, now: Instant) {
        if self.conns.len() >= self.rcfg.max_conns {
            // Over the connection cap: one structured line, then close.
            // The socket buffer of a fresh connection always has room
            // for it, so a best-effort nonblocking write suffices.
            let mut line = overloaded_reply(None, self.rcfg.retry_ms).render();
            line.push('\n');
            let _ = stream.write(line.as_bytes());
            self.metrics.shed.inc();
            return;
        }
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        self.conns.insert(id, Conn::new(stream, now));
        self.metrics.accepted.inc();
        self.metrics.open.set(self.conns.len() as i64);
    }

    /// Reads what the kernel has for `conn`, up to `MAX_LINE_BYTES` per
    /// call — a client writing as fast as the reactor reads must not
    /// grow the decoder without bound; the rest stays in the socket for
    /// the next readiness.  Returns `false` when the connection is dead
    /// (read error).
    fn read_into(conn: &mut Conn, now: Instant) -> bool {
        let mut buf = [0u8; 4096];
        let mut budget = MAX_LINE_BYTES;
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    conn.decoder.finish();
                    return true;
                }
                Ok(n) => {
                    conn.last_read = now;
                    conn.decoder.push(&buf[..n]);
                    budget = budget.saturating_sub(n);
                    if budget == 0 {
                        return true;
                    }
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Processes decoded frames for one connection until its in-flight
    /// cap or an empty decoder stops it.
    fn pump(&mut self, id: u64, queue: &JobQueue) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.close_after_flush || !conn.accepts_input(self.rcfg.max_inflight) {
                return;
            }
            let Some(frame) = conn.decoder.next_frame() else {
                return;
            };
            if let Some(job) = self.route(id, frame) {
                self.depth += 1;
                self.metrics.queue_depth.set(self.depth as i64);
                self.metrics.queue_peak.set_max(self.depth as i64);
                queue.push(*job);
            }
        }
    }

    /// Decides one frame's fate: an inline reply (handshake, admin,
    /// framing errors, cache hits, front-stage errors, shed misses),
    /// completed on the connection, or a miss to queue.  The job is
    /// boxed: it carries a full [`TimelineState`].
    fn route(&mut self, id: u64, frame: Frame) -> Option<Box<Job>> {
        let rcfg = self.rcfg;
        let at_capacity = self.depth >= rcfg.max_queue;
        let conn = self.conns.get_mut(&id).expect("routed conn exists");
        // Blank lines get no reply and no reply slot, matching the
        // stdin loop.
        if frame == Frame::Empty {
            return None;
        }
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let line = match frame {
            Frame::Empty => unreachable!("handled above"),
            bad @ (Frame::Oversized { .. } | Frame::InvalidUtf8) => {
                let (reply, state) = self.server.answer_bad_frame(&bad, conn.last_read);
                conn.complete(seq, reply, Some(state));
                return None;
            }
            Frame::Line(line) => line,
        };

        // The handshake gate: a connection's first line must be a
        // well-formed hello at the daemon's protocol version.
        let parsed = Incoming::parse(&line);
        if !conn.greeted {
            match parsed {
                Ok(Incoming::Admin(
                    admin @ AdminRequest {
                        cmd: AdminCmd::Hello { version },
                        ..
                    },
                )) => {
                    conn.complete(seq, self.server.handle_admin(&admin), None);
                    if version == Some(PROTOCOL_VERSION) {
                        conn.greeted = true;
                    } else {
                        conn.close_after_flush = true;
                    }
                }
                _ => {
                    let reply = error_reply(
                        recover_id(&line).as_deref(),
                        ErrorKind::HandshakeRequired,
                        format!(
                            "expected {{\"cmd\":\"hello\",\"version\":{PROTOCOL_VERSION}}} \
                             as the first line"
                        ),
                    )
                    .render();
                    conn.complete(seq, reply, None);
                    conn.close_after_flush = true;
                }
            }
            return None;
        }

        // Admin lines are answered on the reactor thread: they must
        // work even when the queue is saturated (that is when you most
        // need `stats`).  `shutdown` flips the server's flag, which the
        // event loop reads once this iteration's frames are routed.
        let parsed = match parsed {
            Ok(Incoming::Admin(admin)) => {
                conn.complete(seq, self.server.handle_admin(&admin), None);
                return None;
            }
            Ok(Incoming::Optimize(req)) => Ok(req),
            Err(reply) => Err(reply),
        };

        let mut state = self.server.flight().begin(conn.last_read);
        let work = match parsed {
            // A large inline source: a worker runs both stages, so the
            // event loop's work per frame stays bounded.
            Ok(req) if !Server::front_on_reactor(&req) => Work::Whole(Box::new(req)),
            // The front stage, on this thread: hits and structured
            // errors are answered here — never queued, never shed —
            // with `enqueued` = `dequeued` = the stage's start, so
            // their queue wait is zero.
            parsed => {
                state.stamp_front();
                match self.server.front(parsed, &mut state, &mut self.key) {
                    Front::Answered(reply) => {
                        conn.complete(seq, reply, Some(state));
                        return None;
                    }
                    Front::Miss(miss) => Work::Miss(miss),
                }
            }
        };

        // Shed at the queue cap, otherwise enqueue.
        if at_capacity {
            self.metrics.shed.inc();
            // Never queued: drop the front stage's edges, keep `framed`.
            let t = &mut state.timeline;
            (t.enqueued, t.dequeued, t.cache_probe, t.cache_done) = (None, None, None, None);
            t.id = work.id().to_string();
            t.outcome = "error:overloaded".to_string();
            t.anomaly = Some(Anomaly::new(
                AnomalyReason::Shed,
                format!(
                    "queue full ({} jobs), retry_ms={}",
                    rcfg.max_queue, rcfg.retry_ms
                ),
            ));
            let reply = overloaded_reply(Some(work.id()), rcfg.retry_ms).render();
            conn.complete(seq, reply, Some(state));
            return None;
        }
        conn.inflight += 1;
        state.stamp_enqueued();
        Some(Box::new(Job {
            conn: id,
            seq,
            work,
            timeline: state,
        }))
    }

    fn drop_conn(&mut self, id: u64) {
        if let Some(mut conn) = self.conns.remove(&id) {
            // Peer gone before its replies drained: the timelines are
            // still flight history, committed without a flushed stamp.
            for t in conn.awaiting_flush.drain(..) {
                self.server.flight().commit(t.timeline);
            }
            for (_, (_, timeline)) in std::mem::take(&mut conn.done) {
                if let Some(t) = timeline {
                    self.server.flight().commit(t.timeline);
                }
            }
            self.metrics.open.set(self.conns.len() as i64);
        }
    }

    fn reap(&mut self, now: Instant) {
        let timeout = self.rcfg.read_timeout;
        let mut timed_out = 0u64;
        let reapable: Vec<u64> = self
            .conns
            .iter()
            .filter_map(|(&id, conn)| {
                let finished = conn.read_closed && conn.decoder.is_drained() && conn.is_settled();
                let offender = conn.close_after_flush && conn.is_settled();
                let idle = !conn.read_closed
                    && conn.is_settled()
                    && conn.decoder.is_drained()
                    && now.duration_since(conn.last_read) >= timeout;
                // A half-written line counts as idle too: that is the
                // slow-loris shape (bytes trickled in, never a frame).
                let loris = !conn.read_closed
                    && conn.is_settled()
                    && conn.decoder.has_partial()
                    && now.duration_since(conn.last_read) >= timeout;
                if finished || offender || idle || loris {
                    if idle || loris {
                        timed_out += 1;
                    }
                    Some(id)
                } else {
                    None
                }
            })
            .collect();
        // Count before closing: a reaped client observes EOF the moment
        // its fd drops, and may read the stats counter immediately.
        if timed_out > 0 {
            self.metrics.timeouts.add(timed_out);
        }
        for id in reapable {
            self.drop_conn(id);
        }
    }
}

impl Server {
    /// Runs the event-loop daemon over the given transports until a
    /// `{"cmd":"shutdown"}` admin line arrives (or a listener error).
    ///
    /// Worker threads (`ServeConfig::workers`) are scoped inside the
    /// call.  Replies come from the two stages [`Server::handle_line`]
    /// runs — the front stage on the reactor thread, the miss stage on
    /// a worker — so they are bitwise identical to the stdin loop and
    /// `optimize_batch`.
    pub fn run_reactor(&self, transports: Transports, rcfg: ReactorConfig) -> std::io::Result<()> {
        Reactor::new(self, rcfg).run(transports)
    }
}

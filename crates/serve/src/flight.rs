//! The in-daemon flight recorder: bounded rings of completed
//! [`RequestTimeline`]s.
//!
//! Two rings, both capped at `--flight-capacity`:
//!
//! * **recent** — the last N committed requests, whatever their fate;
//!   under steady traffic this is a rolling window of normal behaviour.
//! * **anomalies** — only requests with a structured [`Anomaly`]
//!   (slow, deadline, shed, frame error).  Kept separately so a burst
//!   of healthy traffic cannot churn the interesting entries out of
//!   the recorder before an operator looks.
//!
//! Every optimize request has a timeline, whichever path serves it,
//! and its stamps are the server's only request clock.  The hot path
//! touches the recorder exactly twice per request: once to allocate a
//! trace id ([`FlightRecorder::begin`], one relaxed atomic increment)
//! and once to commit the finished timeline ([`FlightRecorder::commit`],
//! one short mutex push per ring).  All edge stamping happens on a
//! thread-local [`TimelineState`] with no shared state at all.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use ujam_trace::{Anomaly, AnomalyReason, RequestTimeline};

/// The flight-snapshot wire-format version — bump when a field is
/// renamed, removed, or changes meaning (additions are fine).
pub const FLIGHT_VERSION: u32 = 1;

/// Default `--flight-capacity`: entries retained per ring.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Default `--slow-ms`: total latency above which a request is
/// classified slow.
pub const DEFAULT_SLOW_MS: u64 = 100;

/// A request timeline being built: the accepted-edge [`Instant`] plus
/// the record its stamps land in.  Owned by whichever thread currently
/// holds the request (reactor, then worker, then reactor again), so
/// stamping is a plain monotonic-clock read and a field store.
#[derive(Debug)]
pub struct TimelineState {
    base: Instant,
    /// The record under construction.
    pub timeline: RequestTimeline,
    /// The cache shard the last probe consulted, if the request was
    /// probed: retirement counts the hit or miss against it.
    pub(crate) shard: Option<usize>,
}

impl TimelineState {
    /// The daemon-assigned trace id.
    pub fn trace_id(&self) -> u64 {
        self.timeline.trace_id
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Stamps the queue-push edge.
    pub fn stamp_enqueued(&mut self) {
        self.timeline.enqueued = Some(self.now());
    }

    /// Stamps `enqueued` and `dequeued` with one clock reading: the
    /// start of the front stage on the thread that framed the request.
    /// A request the front stage answers never leaves it, so its queue
    /// wait is zero; a reactor miss is re-stamped at queue push and
    /// worker pickup.
    pub fn stamp_front(&mut self) {
        let now = Some(self.now());
        self.timeline.enqueued = now;
        self.timeline.dequeued = now;
    }

    /// Stamps the worker-pickup edge.
    pub fn stamp_dequeued(&mut self) {
        self.timeline.dequeued = Some(self.now());
    }

    /// Stamps the cache-probe-start edge.
    pub fn stamp_cache_probe(&mut self) {
        self.timeline.cache_probe = Some(self.now());
    }

    /// Stamps the cache-probe-end edge.
    pub fn stamp_cache_done(&mut self) {
        self.timeline.cache_done = Some(self.now());
    }

    /// Stamps the analysis-start edge (cache miss only).
    pub fn stamp_analysis_start(&mut self) {
        self.timeline.analysis_start = Some(self.now());
    }

    /// Stamps the analysis-end edge.
    pub fn stamp_analysis_end(&mut self) {
        self.timeline.analysis_end = Some(self.now());
    }

    /// Stamps the reply-flushed edge.
    pub fn stamp_flushed(&mut self) {
        self.timeline.flushed = Some(self.now());
    }

    /// Nanoseconds from the `framed` edge to now.
    pub fn since_framed(&self) -> u64 {
        self.now()
            .saturating_sub(self.timeline.framed.unwrap_or_default())
    }
}

/// Bounded rings of committed request timelines plus the trace-id
/// allocator.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    slow_ms: u64,
    next_id: AtomicU64,
    recent: Mutex<VecDeque<RequestTimeline>>,
    anomalies: Mutex<VecDeque<RequestTimeline>>,
}

impl FlightRecorder {
    /// A recorder retaining `capacity` entries per ring (clamped ≥ 1)
    /// and classifying requests over `slow_ms` total as slow.
    pub fn new(capacity: usize, slow_ms: u64) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            slow_ms,
            next_id: AtomicU64::new(1),
            recent: Mutex::new(VecDeque::new()),
            anomalies: Mutex::new(VecDeque::new()),
        }
    }

    /// Allocates the next trace id (ids start at 1) and opens a
    /// timeline whose accepted edge is `accepted` (the socket read
    /// that delivered the frame; now, for a frame answered in-process
    /// or from stdin), stamped `framed` now — the only way a timeline
    /// is opened.
    pub fn begin(&self, accepted: Instant) -> TimelineState {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut state = TimelineState {
            base: accepted,
            timeline: RequestTimeline::new(id),
            shard: None,
        };
        state.timeline.framed = Some(state.now());
        state
    }

    /// The next trace id that [`FlightRecorder::begin`] would hand out.
    pub fn next_trace_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Commits a finished timeline: classifies it slow when its total
    /// exceeds the threshold (unless an anomaly is already attached),
    /// then pushes it into the recent ring and — if anomalous — the
    /// anomaly ring, evicting oldest-first at capacity.
    pub fn commit(&self, mut timeline: RequestTimeline) {
        if timeline.anomaly.is_none()
            && timeline.total_ns() > self.slow_ms.saturating_mul(1_000_000)
        {
            let detail = match &timeline.unroll {
                Some(u) => {
                    let parts: Vec<String> = u.iter().map(u32::to_string).collect();
                    format!("slow_ms={} won=[{}]", self.slow_ms, parts.join(","))
                }
                None => format!("slow_ms={}", self.slow_ms),
            };
            timeline.anomaly = Some(Anomaly::new(AnomalyReason::Slow, detail));
        }
        let anomalous = timeline.anomaly.is_some();
        if anomalous {
            Self::push(
                &mut self.lock(&self.anomalies),
                timeline.clone(),
                self.capacity,
            );
        }
        Self::push(&mut self.lock(&self.recent), timeline, self.capacity);
    }

    fn push(ring: &mut VecDeque<RequestTimeline>, t: RequestTimeline, capacity: usize) {
        if ring.len() == capacity {
            ring.pop_front();
        }
        ring.push_back(t);
    }

    fn lock<'a>(
        &self,
        ring: &'a Mutex<VecDeque<RequestTimeline>>,
    ) -> MutexGuard<'a, VecDeque<RequestTimeline>> {
        ring.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The recent ring, oldest first.
    pub fn recent(&self) -> Vec<RequestTimeline> {
        self.lock(&self.recent).iter().cloned().collect()
    }

    /// The anomaly ring, oldest first.
    pub fn anomalies(&self) -> Vec<RequestTimeline> {
        self.lock(&self.anomalies).iter().cloned().collect()
    }

    /// Every retained timeline, anomalies deduplicated against the
    /// recent ring by trace id — the set `--trace-chrome` exports.
    pub fn all_timelines(&self) -> Vec<RequestTimeline> {
        let mut out = self.recent();
        let seen: std::collections::BTreeSet<u64> = out.iter().map(|t| t.trace_id).collect();
        for t in self.anomalies() {
            if !seen.contains(&t.trace_id) {
                out.push(t);
            }
        }
        out.sort_by_key(|t| t.trace_id);
        out
    }

    /// Renders the recorder as one strict-JSON object, byte-stable for
    /// equal contents:
    ///
    /// ```json
    /// {"version":1,"capacity":1024,"slow_ms":100,"next_trace_id":4,
    ///  "recent":[...],"anomalies":[...]}
    /// ```
    ///
    /// With `slow_only`, `recent` renders as an empty array (the shape
    /// stays identical) and only the anomaly ring is carried.
    pub fn snapshot_json(&self, slow_only: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"version\":{},\"capacity\":{},\"slow_ms\":{},\"next_trace_id\":{}",
            FLIGHT_VERSION,
            self.capacity,
            self.slow_ms,
            self.next_trace_id(),
        );
        out.push_str(",\"recent\":[");
        if !slow_only {
            for (i, t) in self.lock(&self.recent).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&t.render_json());
            }
        }
        out.push_str("],\"anomalies\":[");
        for (i, t) in self.lock(&self.anomalies).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.render_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_trace::json;

    fn committed(rec: &FlightRecorder, total_ns: u64) -> u64 {
        let mut state = rec.begin(Instant::now());
        state.timeline.id = format!("r{}", state.trace_id());
        state.timeline.outcome = "ok".to_string();
        state.timeline.framed = Some(0);
        state.timeline.enqueued = Some(0);
        state.timeline.dequeued = Some(total_ns / 2);
        state.timeline.flushed = Some(total_ns);
        let id = state.trace_id();
        rec.commit(state.timeline);
        id
    }

    #[test]
    fn trace_ids_start_at_one_and_increment() {
        let rec = FlightRecorder::new(4, 100);
        assert_eq!(rec.next_trace_id(), 1);
        assert_eq!(committed(&rec, 1_000), 1);
        assert_eq!(committed(&rec, 1_000), 2);
        assert_eq!(rec.next_trace_id(), 3);
    }

    #[test]
    fn recent_ring_evicts_oldest_at_capacity() {
        let rec = FlightRecorder::new(3, 100);
        for _ in 0..5 {
            committed(&rec, 1_000);
        }
        let ids: Vec<u64> = rec.recent().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![3, 4, 5], "oldest first, oldest evicted");
    }

    #[test]
    fn slow_requests_are_classified_and_survive_churn() {
        let rec = FlightRecorder::new(3, 1); // slow over 1ms
        let slow_id = committed(&rec, 50_000_000); // 50ms — slow
        for _ in 0..10 {
            committed(&rec, 1_000); // healthy churn
        }
        let recent_ids: Vec<u64> = rec.recent().iter().map(|t| t.trace_id).collect();
        assert!(
            !recent_ids.contains(&slow_id),
            "churned out of the recent ring"
        );
        let anomalies = rec.anomalies();
        assert_eq!(anomalies.len(), 1, "but retained in the anomaly ring");
        assert_eq!(anomalies[0].trace_id, slow_id);
        let anomaly = anomalies[0].anomaly.as_ref().expect("classified");
        assert_eq!(anomaly.reason, AnomalyReason::Slow);
        assert!(anomaly.detail.contains("slow_ms=1"));
    }

    #[test]
    fn preclassified_anomalies_keep_their_reason() {
        let rec = FlightRecorder::new(4, 100);
        let mut state = rec.begin(Instant::now());
        state.timeline.outcome = "error:deadline_exceeded".to_string();
        state.timeline.anomaly = Some(Anomaly::new(AnomalyReason::Deadline, "deadline_ms=1"));
        rec.commit(state.timeline);
        assert_eq!(
            rec.anomalies()[0].anomaly.as_ref().map(|a| a.reason),
            Some(AnomalyReason::Deadline)
        );
    }

    #[test]
    fn all_timelines_dedup_anomalies_still_in_recent() {
        let rec = FlightRecorder::new(8, 1);
        committed(&rec, 50_000_000); // slow, still in both rings
        committed(&rec, 1_000);
        assert_eq!(rec.recent().len(), 2);
        assert_eq!(rec.anomalies().len(), 1);
        assert_eq!(
            rec.all_timelines().len(),
            2,
            "no duplicate for the slow one"
        );
    }

    #[test]
    fn snapshot_json_is_pinned_and_slow_only_keeps_the_shape() {
        let build = || {
            let rec = FlightRecorder::new(2, 100);
            let mut a = rec.begin(Instant::now());
            a.timeline.id = "r1".to_string();
            a.timeline.nest = "mm".to_string();
            a.timeline.outcome = "ok".to_string();
            a.timeline.framed = Some(100);
            a.timeline.enqueued = Some(200);
            a.timeline.dequeued = Some(300);
            a.timeline.cache_probe = Some(310);
            a.timeline.cache_done = Some(320);
            a.timeline.flushed = Some(400);
            a.timeline.cached = true;
            rec.commit(a.timeline);
            let mut b = rec.begin(Instant::now());
            b.timeline.id = "r2".to_string();
            b.timeline.outcome = "shed".to_string();
            b.timeline.framed = Some(50);
            b.timeline.anomaly = Some(Anomaly::new(AnomalyReason::Shed, "queue full"));
            rec.commit(b.timeline);
            rec.snapshot_json(false)
        };
        let doc = build();
        assert_eq!(doc, build(), "equal contents render identically");
        let expected = concat!(
            "{\"version\":1,\"capacity\":2,\"slow_ms\":100,\"next_trace_id\":3,",
            "\"recent\":[",
            "{\"trace_id\":1,\"id\":\"r1\",\"nest\":\"mm\",\"outcome\":\"ok\",",
            "\"cached\":true,\"unroll\":null,",
            "\"edges\":{\"framed\":100,\"enqueued\":200,\"dequeued\":300,",
            "\"cache_probe\":310,\"cache_done\":320,\"analysis_start\":null,",
            "\"analysis_end\":null,\"flushed\":400},",
            "\"durations\":{\"queue_ns\":100,\"cache_ns\":10,\"analysis_ns\":null,",
            "\"flush_ns\":80,\"total_ns\":400},\"anomaly\":null},",
            "{\"trace_id\":2,\"id\":\"r2\",\"nest\":\"\",\"outcome\":\"shed\",",
            "\"cached\":false,\"unroll\":null,",
            "\"edges\":{\"framed\":50,\"enqueued\":null,\"dequeued\":null,",
            "\"cache_probe\":null,\"cache_done\":null,\"analysis_start\":null,",
            "\"analysis_end\":null,\"flushed\":null},",
            "\"durations\":{\"queue_ns\":null,\"cache_ns\":null,\"analysis_ns\":null,",
            "\"flush_ns\":null,\"total_ns\":50},",
            "\"anomaly\":{\"reason\":\"shed\",\"detail\":\"queue full\"}}",
            "],\"anomalies\":[",
            "{\"trace_id\":2,\"id\":\"r2\",\"nest\":\"\",\"outcome\":\"shed\",",
            "\"cached\":false,\"unroll\":null,",
            "\"edges\":{\"framed\":50,\"enqueued\":null,\"dequeued\":null,",
            "\"cache_probe\":null,\"cache_done\":null,\"analysis_start\":null,",
            "\"analysis_end\":null,\"flushed\":null},",
            "\"durations\":{\"queue_ns\":null,\"cache_ns\":null,\"analysis_ns\":null,",
            "\"flush_ns\":null,\"total_ns\":50},",
            "\"anomaly\":{\"reason\":\"shed\",\"detail\":\"queue full\"}}",
            "]}"
        );
        assert_eq!(doc, expected, "pinned wire bytes");
        json::parse(&doc).expect("strict JSON");
        // slow_only: recent empties, shape and anomalies unchanged.
        let rec = FlightRecorder::new(2, 100);
        committed(&rec, 1_000);
        let slim = rec.snapshot_json(true);
        assert!(slim.contains("\"recent\":[],\"anomalies\":[]"));
        json::parse(&slim).expect("strict JSON");
    }
}

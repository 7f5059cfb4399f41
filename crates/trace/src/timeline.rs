//! Per-request lifecycle timelines for the serving daemon.
//!
//! A [`RequestTimeline`] is the flight-recorder record for one request:
//! a trace id, the request's identity and outcome, and a fixed set of
//! monotonic edge stamps — nanosecond offsets from the *accepted* edge
//! (the socket read that produced the frame; on stdin and in-process,
//! the decoding of the frame itself).  The daemon stamps edges
//! in place as the request moves reactor → queue → worker → reply
//! flush, so recording costs one `Instant::elapsed` per edge and zero
//! allocation on the hot path; rendering happens only when an operator
//! asks for the flight snapshot.
//!
//! Edge order (each optional — a shed request never dequeues, a cache
//! hit never starts analysis):
//!
//! ```text
//! accepted → framed → enqueued → dequeued → cache_probe → cache_done
//!          → analysis_start → analysis_end → flushed
//! ```
//!
//! The daemon answers a cache hit on its reactor thread without
//! queueing it: `enqueued` and `dequeued` then carry one shared stamp,
//! the start of that front stage, so the hit's queue wait is zero.  A
//! miss is stamped `enqueued` at queue push and `dequeued` at worker
//! pickup, and its counted cache probe happens on the worker; the
//! front-stage work before the push (parse, resolve, key) lies between
//! `framed` and `enqueued`.
//!
//! From the stamps fall the per-edge durations operators actually read:
//! queue wait, cache probe, analysis, and flush.  Anomalous requests
//! (over the slow threshold, shed, deadline-exceeded, frame errors)
//! carry a structured [`Anomaly`] so the always-kept anomaly ring
//! explains *why* each entry is there.

use std::fmt::Write as _;

use crate::json::write_escaped;
use crate::{Trace, TraceRecord};

/// The flight-recorder wire-format version — bump when a field is
/// renamed, removed, or changes meaning (additions are fine).
pub const TIMELINE_VERSION: u32 = 1;

/// Why a request landed in the anomaly ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyReason {
    /// Total latency exceeded the daemon's `--slow-ms` threshold.
    Slow,
    /// The optimizer gave up at the request's `deadline_ms`.
    Deadline,
    /// Admission control rejected the request at a full queue.
    Shed,
    /// The frame never parsed (oversized or invalid UTF-8).
    FrameError,
}

impl AnomalyReason {
    /// The stable lower-snake-case wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            AnomalyReason::Slow => "slow",
            AnomalyReason::Deadline => "deadline",
            AnomalyReason::Shed => "shed",
            AnomalyReason::FrameError => "frame_error",
        }
    }
}

/// The structured reason a timeline was retained in the anomaly ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Anomaly {
    /// The classification.
    pub reason: AnomalyReason,
    /// Free-form context: the threshold crossed, the frame error, or —
    /// for slow analyses — the winning candidate's provenance.
    pub detail: String,
}

impl Anomaly {
    /// An anomaly with the given reason and detail text.
    pub fn new(reason: AnomalyReason, detail: impl Into<String>) -> Anomaly {
        Anomaly {
            reason,
            detail: detail.into(),
        }
    }
}

/// One request's lifecycle record: identity, outcome, and edge stamps
/// as nanosecond offsets from the accepted edge.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestTimeline {
    /// The daemon-assigned trace id (`req_seq`, starting at 1).
    pub trace_id: u64,
    /// The caller-supplied request id (empty when the frame never
    /// parsed).
    pub id: String,
    /// The nest the request named (empty when unknown).
    pub nest: String,
    /// The outcome wire word: `ok`, `error:<kind>`, or `shed`.
    pub outcome: String,
    /// Whether the reply came from the decision cache.
    pub cached: bool,
    /// The winning unroll vector, when analysis ran to a decision.
    pub unroll: Option<Vec<u32>>,
    /// Frame fully decoded (offset ns from accepted).
    pub framed: Option<u64>,
    /// Job pushed onto the worker queue.
    pub enqueued: Option<u64>,
    /// Job picked up by a worker.
    pub dequeued: Option<u64>,
    /// Decision-cache probe started.
    pub cache_probe: Option<u64>,
    /// Decision-cache probe finished.
    pub cache_done: Option<u64>,
    /// Optimizer analysis started (cache miss only).
    pub analysis_start: Option<u64>,
    /// Optimizer analysis finished.
    pub analysis_end: Option<u64>,
    /// Reply bytes fully handed to the socket.
    pub flushed: Option<u64>,
    /// Set when the request was retained in the anomaly ring.
    pub anomaly: Option<Anomaly>,
}

impl RequestTimeline {
    /// An empty timeline for the given trace id: no edges stamped, no
    /// outcome yet.
    pub fn new(trace_id: u64) -> RequestTimeline {
        RequestTimeline {
            trace_id,
            id: String::new(),
            nest: String::new(),
            outcome: String::new(),
            cached: false,
            unroll: None,
            framed: None,
            enqueued: None,
            dequeued: None,
            cache_probe: None,
            cache_done: None,
            analysis_start: None,
            analysis_end: None,
            flushed: None,
            anomaly: None,
        }
    }

    /// Queue wait: dequeued − enqueued.
    pub fn queue_ns(&self) -> Option<u64> {
        Some(self.dequeued?.saturating_sub(self.enqueued?))
    }

    /// Cache probe: cache_done − cache_probe.
    pub fn cache_ns(&self) -> Option<u64> {
        Some(self.cache_done?.saturating_sub(self.cache_probe?))
    }

    /// Analysis: analysis_end − analysis_start (None on a cache hit).
    pub fn analysis_ns(&self) -> Option<u64> {
        Some(self.analysis_end?.saturating_sub(self.analysis_start?))
    }

    /// Flush wait: flushed − the last pre-flush edge (reply ready to
    /// reply on the wire — covers re-sequencing wait and socket
    /// backpressure).
    pub fn flush_ns(&self) -> Option<u64> {
        let ready = self
            .analysis_end
            .or(self.cache_done)
            .or(self.dequeued)
            .or(self.enqueued)
            .or(self.framed)
            .unwrap_or(0);
        Some(self.flushed?.saturating_sub(ready))
    }

    /// Total lifetime: the flushed edge, or the furthest stamped edge
    /// when the reply never flushed (peer gone).
    pub fn total_ns(&self) -> u64 {
        self.flushed
            .or(self.analysis_end)
            .or(self.cache_done)
            .or(self.dequeued)
            .or(self.enqueued)
            .or(self.framed)
            .unwrap_or(0)
    }

    /// Renders this timeline as one strict-JSON object with fixed field
    /// order, so equal timelines render byte-identically.  Unstamped
    /// edges and absent durations render as `null`.
    pub fn render_json(&self) -> String {
        fn opt(out: &mut String, v: Option<u64>) {
            match v {
                Some(v) => {
                    let _ = write!(out, "{v}");
                }
                None => out.push_str("null"),
            }
        }
        let mut out = String::new();
        let _ = write!(out, "{{\"trace_id\":{},\"id\":", self.trace_id);
        write_escaped(&mut out, &self.id);
        out.push_str(",\"nest\":");
        write_escaped(&mut out, &self.nest);
        out.push_str(",\"outcome\":");
        write_escaped(&mut out, &self.outcome);
        let _ = write!(out, ",\"cached\":{}", self.cached);
        out.push_str(",\"unroll\":");
        match &self.unroll {
            Some(u) => {
                out.push('[');
                for (i, f) in u.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{f}");
                }
                out.push(']');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"edges\":{");
        let edges = [
            ("framed", self.framed),
            ("enqueued", self.enqueued),
            ("dequeued", self.dequeued),
            ("cache_probe", self.cache_probe),
            ("cache_done", self.cache_done),
            ("analysis_start", self.analysis_start),
            ("analysis_end", self.analysis_end),
            ("flushed", self.flushed),
        ];
        for (i, (name, v)) in edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            opt(&mut out, *v);
        }
        out.push_str("},\"durations\":{");
        let durations = [
            ("queue_ns", self.queue_ns()),
            ("cache_ns", self.cache_ns()),
            ("analysis_ns", self.analysis_ns()),
            ("flush_ns", self.flush_ns()),
            ("total_ns", Some(self.total_ns())),
        ];
        for (i, (name, v)) in durations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            opt(&mut out, *v);
        }
        out.push_str("},\"anomaly\":");
        match &self.anomaly {
            Some(a) => {
                out.push_str("{\"reason\":");
                write_escaped(&mut out, a.reason.as_str());
                out.push_str(",\"detail\":");
                write_escaped(&mut out, &a.detail);
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// The timeline as span records — one span per stamped phase, under
    /// nest `req-<trace_id>` — so flight-recorder contents feed the
    /// existing [`ChromeTraceRenderer`](crate::ChromeTraceRenderer)
    /// unchanged.
    pub fn to_trace(&self) -> Trace {
        let nest = format!("req-{}", self.trace_id);
        let mut records = Vec::new();
        let mut span = |name: &str, dur: Option<u64>| {
            if let Some(d) = dur {
                records.push(TraceRecord::span(&nest, name, u128::from(d)));
            }
        };
        span("queue", self.queue_ns());
        span("cache-probe", self.cache_ns());
        span("analysis", self.analysis_ns());
        span("flush", self.flush_ns());
        Trace::new(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn full() -> RequestTimeline {
        RequestTimeline {
            trace_id: 7,
            id: "r7".to_string(),
            nest: "mm".to_string(),
            outcome: "ok".to_string(),
            cached: false,
            unroll: Some(vec![2, 4]),
            framed: Some(1_000),
            enqueued: Some(2_000),
            dequeued: Some(12_000),
            cache_probe: Some(13_000),
            cache_done: Some(14_000),
            analysis_start: Some(14_000),
            analysis_end: Some(514_000),
            flushed: Some(520_000),
            anomaly: None,
        }
    }

    #[test]
    fn durations_derive_from_edges() {
        let t = full();
        assert_eq!(t.queue_ns(), Some(10_000));
        assert_eq!(t.cache_ns(), Some(1_000));
        assert_eq!(t.analysis_ns(), Some(500_000));
        assert_eq!(t.flush_ns(), Some(6_000));
        assert_eq!(t.total_ns(), 520_000);
    }

    #[test]
    fn missing_edges_yield_missing_durations() {
        let mut t = RequestTimeline::new(1);
        t.framed = Some(500);
        assert_eq!(t.queue_ns(), None);
        assert_eq!(t.analysis_ns(), None);
        assert_eq!(t.total_ns(), 500, "furthest stamped edge");
        // A cache hit: probe edges but no analysis.
        let mut hit = full();
        hit.analysis_start = None;
        hit.analysis_end = None;
        hit.cached = true;
        assert_eq!(hit.analysis_ns(), None);
        assert_eq!(hit.flush_ns(), Some(520_000 - 14_000));
    }

    #[test]
    fn json_rendering_is_pinned_and_parses() {
        let doc = full().render_json();
        let expected = concat!(
            "{\"trace_id\":7,\"id\":\"r7\",\"nest\":\"mm\",\"outcome\":\"ok\",",
            "\"cached\":false,\"unroll\":[2,4],",
            "\"edges\":{\"framed\":1000,\"enqueued\":2000,\"dequeued\":12000,",
            "\"cache_probe\":13000,\"cache_done\":14000,\"analysis_start\":14000,",
            "\"analysis_end\":514000,\"flushed\":520000},",
            "\"durations\":{\"queue_ns\":10000,\"cache_ns\":1000,",
            "\"analysis_ns\":500000,\"flush_ns\":6000,\"total_ns\":520000},",
            "\"anomaly\":null}"
        );
        assert_eq!(doc, expected, "pinned wire bytes");
        let v = json::parse(&doc).expect("strict JSON");
        assert_eq!(
            v.get("durations")
                .and_then(|d| d.get("total_ns"))
                .and_then(Value::as_f64),
            Some(520_000.0)
        );
    }

    #[test]
    fn anomalies_render_with_structured_reason() {
        let mut t = RequestTimeline::new(9);
        t.id = "r9".to_string();
        t.outcome = "error:deadline_exceeded".to_string();
        t.anomaly = Some(Anomaly::new(AnomalyReason::Deadline, "deadline_ms=1"));
        let doc = t.render_json();
        assert!(doc.contains("\"anomaly\":{\"reason\":\"deadline\",\"detail\":\"deadline_ms=1\"}"));
        json::parse(&doc).expect("strict JSON");
    }

    #[test]
    fn to_trace_emits_one_span_per_stamped_phase() {
        let spans: Vec<(String, String, u128)> = full()
            .to_trace()
            .spans()
            .map(|(n, p, d)| (n.to_string(), p.to_string(), d))
            .collect();
        assert_eq!(
            spans,
            vec![
                ("req-7".to_string(), "queue".to_string(), 10_000),
                ("req-7".to_string(), "cache-probe".to_string(), 1_000),
                ("req-7".to_string(), "analysis".to_string(), 500_000),
                ("req-7".to_string(), "flush".to_string(), 6_000),
            ]
        );
        // A hit timeline skips the analysis span entirely.
        let mut hit = full();
        hit.analysis_start = None;
        hit.analysis_end = None;
        assert_eq!(hit.to_trace().spans().count(), 3);
    }
}

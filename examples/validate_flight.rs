//! CI helper: validates a flight-recorder dump and a time-series
//! document captured from a live daemon.
//!
//! `ci.sh` drives a mixed workload through `ujam serve` — fresh
//! requests, a cache-hit duplicate, and one forced anomaly (a request
//! with a hopeless `deadline_ms`) — then captures `ujam flight --json`
//! and `ujam stats --series --json` and feeds both files through this
//! checker.  It pins the observability contract:
//!
//! * the flight document is versioned and its recent ring holds the
//!   workload's timelines, each with a total duration and per-edge
//!   breakdown;
//! * every timeline's stamped edges are non-decreasing in the
//!   documented order (framed ≤ enqueued ≤ dequeued ≤ cache_probe ≤
//!   cache_done ≤ analysis_start ≤ analysis_end ≤ flushed; unstamped
//!   edges are skipped) — whichever thread stamped them, a cache hit
//!   answered on the reactor and a miss answered by a worker alike;
//! * the anomaly ring retains the forced deadline miss with a
//!   structured reason;
//! * the series document is versioned, has at least one window, and
//!   every window carries the derived-rate block;
//! * at least one window has a `serve.request_ns` exemplar, and every
//!   exemplar's trace id points at a timeline the recorder retained.

use std::process::ExitCode;
use ujam::trace::json::{self, Value};

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("flight + series OK: {summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("invalid flight/series capture: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn field<'a>(doc: &'a Value, name: &str) -> Result<&'a Value, String> {
    doc.get(name)
        .ok_or_else(|| format!("missing field {name:?}"))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    json::parse(text.trim()).map_err(|e| format!("{path}: not strict JSON: {e}"))
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [flight_path, series_path] = &args[..] else {
        return Err("usage: validate_flight <flight.json> <series.json>".to_string());
    };
    let flight = load(flight_path)?;
    let series = load(series_path)?;

    // The flight document: versioned, recent ring populated, every
    // timeline carrying its edge breakdown.
    let version = field(&flight, "version")?
        .as_f64()
        .ok_or("flight: version is not a number")?;
    if version != 1.0 {
        return Err(format!("flight: unexpected version {version}"));
    }
    for name in ["capacity", "slow_ms", "next_trace_id"] {
        field(&flight, name)?;
    }
    let recent = field(&flight, "recent")?
        .as_array()
        .ok_or("flight: recent is not an array")?;
    if recent.is_empty() {
        return Err("flight: recent ring is empty after a workload".to_string());
    }
    let anomalies = field(&flight, "anomalies")?
        .as_array()
        .ok_or("flight: anomalies is not an array")?;
    let mut trace_ids = Vec::new();
    for t in recent.iter().chain(anomalies) {
        let id = field(t, "trace_id")?
            .as_f64()
            .ok_or("timeline: trace_id is not a number")?;
        trace_ids.push(id as u64);
        field(t, "outcome")?;
        check_edge_order(id as u64, field(t, "edges")?)?;
        let durations = field(t, "durations")?;
        let total = field(durations, "total_ns")?
            .as_f64()
            .ok_or("timeline: total_ns is not a number")?;
        if total <= 0.0 {
            return Err(format!("timeline #{id}: non-positive total_ns {total}"));
        }
        for name in ["queue_ns", "cache_ns", "analysis_ns", "flush_ns"] {
            field(durations, name)?; // present, possibly null
        }
    }

    // The forced deadline miss must be retained with its reason.
    let deadline_hits = anomalies
        .iter()
        .filter(|t| {
            t.get("anomaly")
                .and_then(|a| a.get("reason"))
                .and_then(Value::as_str)
                == Some("deadline")
        })
        .count();
    if deadline_hits == 0 {
        return Err("flight: forced deadline miss not in the anomaly ring".to_string());
    }

    // The series document: versioned windows with derived rates.
    let version = field(&series, "version")?
        .as_f64()
        .ok_or("series: version is not a number")?;
    if version != 1.0 {
        return Err(format!("series: unexpected version {version}"));
    }
    let windows = field(&series, "windows")?
        .as_array()
        .ok_or("series: windows is not an array")?;
    if windows.is_empty() {
        return Err("series: no windows collected".to_string());
    }
    let mut exemplars = 0usize;
    for (i, w) in windows.iter().enumerate() {
        for name in ["seq", "at_ms", "dur_ms", "deltas", "peaks", "exemplars"] {
            field(w, name)?;
        }
        let derived = field(w, "derived")?;
        for name in ["hit_rate", "queue_depth_peak", "reqs_per_s", "shed_per_s"] {
            field(derived, name)?;
        }
        let Some(Value::Object(ex)) = w.get("exemplars") else {
            return Err(format!("series window {i}: exemplars is not an object"));
        };
        for (name, e) in ex {
            exemplars += 1;
            let trace = field(e, "trace_id")?
                .as_f64()
                .ok_or_else(|| format!("exemplar {name}: trace_id is not a number"))?;
            if !trace_ids.contains(&(trace as u64)) {
                return Err(format!(
                    "exemplar {name}: trace id {trace} not retained by the recorder"
                ));
            }
        }
    }
    let latency_exemplars = windows
        .iter()
        .filter(|w| {
            matches!(w.get("exemplars"), Some(Value::Object(ex))
                if name_present(ex, "serve.request_ns"))
        })
        .count();
    if latency_exemplars == 0 {
        return Err("series: no serve.request_ns exemplar in any window".to_string());
    }

    Ok(format!(
        "{} timelines ({} anomalous, {deadline_hits} deadline), \
         {} windows, {exemplars} exemplars",
        recent.len(),
        anomalies.len(),
        windows.len()
    ))
}

/// The lifecycle edges in their documented order.
const EDGE_ORDER: [&str; 8] = [
    "framed",
    "enqueued",
    "dequeued",
    "cache_probe",
    "cache_done",
    "analysis_start",
    "analysis_end",
    "flushed",
];

/// Rejects a timeline whose stamped edges go backwards in
/// [`EDGE_ORDER`].  Every edge must be present; `null` (unstamped) ones
/// are skipped.
fn check_edge_order(id: u64, edges: &Value) -> Result<(), String> {
    let mut last: Option<(&str, f64)> = None;
    for name in EDGE_ORDER {
        let stamp = match field(edges, name)? {
            Value::Null => continue,
            v => v
                .as_f64()
                .ok_or_else(|| format!("timeline #{id}: edge {name} is not a number"))?,
        };
        if let Some((prev, at)) = last {
            if stamp < at {
                return Err(format!(
                    "timeline #{id}: edge {name} ({stamp} ns) precedes {prev} ({at} ns)"
                ));
            }
        }
        last = Some((name, stamp));
    }
    Ok(())
}

fn name_present(ex: &std::collections::BTreeMap<String, Value>, name: &str) -> bool {
    ex.keys().any(|k| k == name)
}

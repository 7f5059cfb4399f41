//! Point-in-time snapshots of a whole registry, with a versioned,
//! machine-readable JSON rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;
use ujam_trace::json::write_escaped;

/// The wire-format version stamped into every snapshot — bump it when a
/// field is renamed, removed, or changes meaning (additions are fine).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Everything a registry held at one instant: counter totals, gauge
/// levels, and merged histogram snapshots, each keyed by metric name in
/// sorted order (snapshots of equal registries render identically).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// The snapshot schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Monotonic counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Merged histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's total, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's level, 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram's snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Renders the snapshot as one strict-JSON object:
    ///
    /// ```json
    /// {"version":1,
    ///  "counters":{"serve.requests":19,...},
    ///  "gauges":{"serve.inflight":0,...},
    ///  "histograms":{"serve.request_ns":{"count":19,"sum":123,
    ///    "mean":6.4,"p50":63,"p90":127,"p99":127,
    ///    "buckets":[[0,0,1],[32,63,9],[64,127,9]]},...}}
    /// ```
    ///
    /// Keys are sorted and every number is written in full, so two
    /// snapshots with equal contents render byte-identically.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"version\":{}", self.version);
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99()
            );
            for (j, (lo, hi, c)) in h.nonzero_buckets().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{hi},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_trace::json;

    fn sample() -> MetricsSnapshot {
        let mut h = HistogramSnapshot::empty();
        h.count = 3;
        h.sum = 300;
        h.buckets[crate::histogram::bucket_index(100)] = 3;
        MetricsSnapshot {
            version: SNAPSHOT_VERSION,
            counters: [("serve.requests".to_string(), 19u64)].into(),
            gauges: [("serve.inflight".to_string(), 0i64)].into(),
            histograms: [("serve.request_ns".to_string(), h)].into(),
        }
    }

    #[test]
    fn json_rendering_is_strict_and_complete() {
        let doc = sample().render_json();
        let v = json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("version").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("serve.requests"))
                .and_then(json::Value::as_f64),
            Some(19.0)
        );
        let h = v
            .get("histograms")
            .and_then(|h| h.get("serve.request_ns"))
            .expect("histogram present");
        assert_eq!(h.get("count").and_then(json::Value::as_f64), Some(3.0));
        assert_eq!(h.get("p99").and_then(json::Value::as_f64), Some(127.0));
        let buckets = h
            .get("buckets")
            .and_then(json::Value::as_array)
            .expect("buckets");
        assert_eq!(buckets.len(), 1, "only nonzero buckets on the wire");
    }

    #[test]
    fn equal_snapshots_render_identically() {
        assert_eq!(sample().render_json(), sample().render_json());
    }
}

//! End-to-end metrics acceptance: a metrics-enabled daemon's stats
//! snapshot must match the replayed workload's ground truth exactly,
//! replays must be deterministic modulo timing, and the Chrome trace
//! export must account for every span the real optimizer emits.

use std::io::Cursor;
use ujam::metrics::{MetricsHandle, MetricsSnapshot};
use ujam::serve::{ServeConfig, Server};
use ujam::trace::json::{self, Value};
use ujam::trace::{ChromeTraceRenderer, CollectingSink};

/// The stdin loop answers lines in order, so every counter (including
/// the cache hit/miss split and anything a trailing stats line
/// observes) is exact replay ground truth.
fn replay(workload: &str) -> (Server, String) {
    let server = Server::new(
        ServeConfig {
            workers: 1,
            cache_capacity: 64,
            shards: 1,
            ..ServeConfig::default()
        },
        ujam::trace::null_sink(),
    );
    let mut out = Vec::new();
    server
        .run(Cursor::new(workload.to_string()), &mut out)
        .expect("in-memory serve");
    (server, String::from_utf8(out).expect("UTF-8 replies"))
}

const WORKLOAD: &str = "{\"id\":\"1\",\"kernel\":\"dmxpy0\"}\n\
                        {\"id\":\"2\",\"kernel\":\"dmxpy0\"}\n\
                        {\"id\":\"3\",\"kernel\":\"mmjki\"}\n\
                        {\"id\":\"4\",\"kernel\":\"no-such-kernel\"}\n";

#[test]
fn stats_snapshot_matches_replay_ground_truth() {
    // The trailing admin line queries the daemon over the same NDJSON
    // stream the requests used.
    let (_, replies) = replay(&format!("{WORKLOAD}{{\"id\":\"q\",\"cmd\":\"stats\"}}\n"));
    let stats_line = replies.lines().last().expect("stats reply");
    let parsed = json::parse(stats_line).expect("stats reply is valid JSON");
    assert_eq!(parsed.get("ok"), Some(&Value::Bool(true)));
    let stats = parsed.get("stats").expect("snapshot embedded");
    assert_eq!(stats.get("version").and_then(Value::as_f64), Some(1.0));

    let counter = |name: &str| {
        stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("counter {name} present"))
    };
    // Ground truth of WORKLOAD: four optimize requests (the stats line
    // is admin traffic, not a request), one bad kernel, one duplicate.
    assert_eq!(counter("serve.requests"), 4.0);
    assert_eq!(counter("serve.admin_requests"), 1.0);
    assert_eq!(counter("serve.replies_ok"), 3.0);
    assert_eq!(counter("serve.replies_error"), 1.0);
    assert_eq!(counter("serve.cache.hits"), 1.0);
    assert_eq!(counter("serve.cache.misses"), 2.0);

    let hist_count = |name: &str| {
        stats
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("histogram {name} present"))
    };
    assert_eq!(hist_count("serve.request_ns"), 4.0);
    // Two cache misses ran the optimizer's decide half, each crossing
    // its three passes once; the daemon never applies a decision.
    for pass in ["select-loops", "build-tables", "search-space"] {
        assert_eq!(hist_count(&format!("pass.{pass}.ns")), 2.0, "pass {pass}");
    }
    assert!(stats
        .get("histograms")
        .and_then(|h| h.get("pass.apply-transform.ns"))
        .is_none());
}

#[test]
fn replayed_workloads_snapshot_identically_modulo_timing() {
    let snap = |(server, _): (Server, String)| server.metrics_snapshot();
    let a: MetricsSnapshot = snap(replay(WORKLOAD));
    let b: MetricsSnapshot = snap(replay(WORKLOAD));
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.gauges, b.gauges);
    // Histograms agree on the metric set and observation counts; only
    // the timing-valued sums and bucket placements may differ.
    let shape = |s: &MetricsSnapshot| {
        s.histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.count))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&a), shape(&b));
}

#[test]
fn chrome_export_accounts_for_every_real_optimizer_span() {
    let sink = CollectingSink::new();
    for kernel in ["dmxpy1", "mmjki"] {
        let nest = ujam::kernels::kernel(kernel).expect("known kernel").nest();
        ujam::core::optimize_costed(
            &nest,
            &ujam::machine::MachineModel::dec_alpha(),
            ujam::core::BalanceModel::CacheAware,
            ujam::core::CostModelKind::Analytic,
            &sink,
            ujam::core::CancelToken::never(),
            MetricsHandle::disabled(),
            ujam::core::SearchConfig::default(),
        )
        .expect("valid kernel");
    }
    let trace = sink.take();
    let collected = trace.spans().count();
    assert!(collected >= 8, "two pipelines' worth of spans");

    let doc = ChromeTraceRenderer::render(&trace);
    let parsed = json::parse(&doc).expect("chrome export is valid JSON");
    let events = parsed.as_array().expect("bare array");
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .count();
    assert_eq!(complete, collected);
    // One named timeline row per optimized nest.
    let threads = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .count();
    assert_eq!(threads, 2);
}

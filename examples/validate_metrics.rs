//! CI helper: validates the bench artifact `BENCH_serve.json`.
//!
//! Usage: `validate_metrics [BENCH_serve.json]` (defaults to the file
//! at the repository root).  The document is parsed with the in-tree
//! strict JSON parser, and its embedded metrics snapshot must be
//! internally consistent with the workload it claims (request counters,
//! cache accounting, latency histogram totals, monotone quantiles), and
//! must show the daemon's pass set: exactly the decide passes
//! (`select-loops`, `build-tables`, `search-space`), each run once per
//! cache miss, and no `apply-transform`.
//! `BENCH_search.json` is checked by `validate_search_bench`.  Exits
//! non-zero with a message on any violation.

use std::process::ExitCode;
use ujam::trace::json::{self, Value};

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("metrics OK: {summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("invalid metrics artifact: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let serve_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_serve.json").to_string());
    check_serve(&parse_file(&serve_path)?).map_err(|e| format!("{serve_path}: {e}"))
}

fn parse_file(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn check_serve(doc: &Value) -> Result<String, String> {
    if doc.get("bench").and_then(Value::as_str) != Some("serve_latency") {
        return Err("bench field is not \"serve_latency\"".into());
    }
    let requests = field(doc, "requests")?;
    if requests < 1.0 {
        return Err("requests must be positive".into());
    }
    let snapshot = doc.get("snapshot").ok_or("missing snapshot object")?;
    if field(snapshot, "version")? != 1.0 {
        return Err("snapshot version is not 1".into());
    }
    let counters = snapshot.get("counters").ok_or("missing counters object")?;
    if field(counters, "serve.requests")? != requests {
        return Err("serve.requests disagrees with the workload".into());
    }
    if field(counters, "serve.replies_ok")? != requests {
        return Err("a workload request failed".into());
    }
    if field(counters, "serve.cache.hits")? + field(counters, "serve.cache.misses")? != requests {
        return Err("cache hits + misses != requests".into());
    }
    let histograms = snapshot
        .get("histograms")
        .ok_or("missing histograms object")?;
    // The daemon stops at the decision: every miss runs the decide
    // passes once each, and nothing applies a decision.
    let Value::Object(all) = histograms else {
        return Err("histograms is not an object".into());
    };
    let passes: Vec<&str> = all
        .keys()
        .filter_map(|k| k.strip_prefix("pass.")?.strip_suffix(".ns"))
        .collect();
    if passes != ["build-tables", "search-space", "select-loops"] {
        return Err(format!(
            "daemon pass histograms are {passes:?}, want the three decide passes"
        ));
    }
    let misses = field(counters, "serve.cache.misses")?;
    for pass in passes {
        let count = field(&all[&format!("pass.{pass}.ns")], "count")?;
        if count != misses {
            return Err(format!(
                "pass.{pass}.ns counts {count} runs, but {misses} requests missed"
            ));
        }
    }
    let latency = histograms
        .get("serve.request_ns")
        .ok_or("missing serve.request_ns histogram")?;
    if field(latency, "count")? != requests {
        return Err("latency histogram count != requests".into());
    }
    let (p50, p90, p99) = (
        field(latency, "p50")?,
        field(latency, "p90")?,
        field(latency, "p99")?,
    );
    if !(p50 <= p90 && p90 <= p99) {
        return Err(format!(
            "non-monotone quantiles p50={p50} p90={p90} p99={p99}"
        ));
    }
    let buckets = latency
        .get("buckets")
        .and_then(Value::as_array)
        .ok_or("missing buckets array")?;
    let mut total = 0.0;
    for b in buckets {
        let triple = b
            .as_array()
            .filter(|t| t.len() == 3)
            .ok_or("bucket is not a [lo,hi,count] triple")?;
        let (lo, hi) = (
            triple[0].as_f64().ok_or("bucket lo")?,
            triple[1].as_f64().ok_or("bucket hi")?,
        );
        if lo > hi {
            return Err(format!("inverted bucket bounds [{lo},{hi}]"));
        }
        total += triple[2].as_f64().ok_or("bucket count")?;
    }
    if total != requests {
        return Err(format!("bucket counts sum to {total}, want {requests}"));
    }

    // The multi-connection TCP arm: concurrency floor (64 clients in
    // full runs), accounting, and monotone client-side quantiles.
    let quick = doc.get("quick") == Some(&Value::Bool(true));
    let tcp = doc.get("tcp").ok_or("missing tcp object")?;
    let clients = field(tcp, "clients")?;
    let floor = if quick { 1.0 } else { 64.0 };
    if clients < floor {
        return Err(format!(
            "tcp arm ran {clients} concurrent clients, need >= {floor}"
        ));
    }
    let per_client = field(tcp, "per_client")?;
    if field(tcp, "requests")? != clients * per_client {
        return Err("tcp requests != clients * per_client".into());
    }
    let (p50, p90, p99) = (
        field(tcp, "p50_ns")?,
        field(tcp, "p90_ns")?,
        field(tcp, "p99_ns")?,
    );
    if !(0.0 < p50 && p50 <= p90 && p90 <= p99) {
        return Err(format!(
            "non-monotone tcp quantiles p50={p50} p90={p90} p99={p99}"
        ));
    }
    if field(tcp, "mean_ns")? <= 0.0 {
        return Err("tcp mean latency must be positive".into());
    }

    // The admission-control arm: the burst was fully answered, some of
    // it shed, some served, and the daemon stayed bitwise-correct.
    let shed = doc.get("shed").ok_or("missing shed object")?;
    let burst = field(shed, "burst")?;
    let (shed_n, served) = (field(shed, "shed")?, field(shed, "served")?);
    if shed_n + served != burst {
        return Err("shed + served != burst: replies were dropped".into());
    }
    if shed_n < 1.0 || served < 1.0 {
        return Err(format!(
            "shed arm must both shed and serve (shed={shed_n}, served={served})"
        ));
    }
    if field(shed, "max_queue")? >= burst {
        return Err("shed arm queue is not smaller than the burst".into());
    }
    if shed.get("post_load_bitwise") != Some(&Value::Bool(true)) {
        return Err("post-load probe diverged from optimize_batch".into());
    }

    Ok(format!(
        "serve_latency: {requests} requests accounted, \
         {clients} tcp clients p99<={p99}ns, {shed_n}/{burst} shed"
    ))
}

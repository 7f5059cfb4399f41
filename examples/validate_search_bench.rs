//! CI helper: validates a `search_scaling` bench document
//! (`BENCH_search.json`).
//!
//! Reads the file named by the first argument (or stdin when absent),
//! parses it with the in-tree strict JSON parser, and checks the schema
//! the bench promises: a `rows` array over strictly growing spaces, the
//! engine timings per row, the table build split by family
//! (`build_{gts,gss,rrs,reg}_ns`), agreement of all winners across
//! engines, a self-consistent speedup ratio, the depth-scaling rows, and
//! the deep-kernel build row (`deep_build`).  Exits non-zero with a
//! message on any violation — `ci.sh` runs this against a fresh
//! quick-mode run.

use std::io::Read;
use std::process::ExitCode;
use ujam::trace::json::{self, Value};

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("search bench OK: {summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("invalid search bench document: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let text = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?
        }
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buf
        }
    };
    let doc = json::parse(&text)?;

    if doc.get("bench").and_then(Value::as_str) != Some("search_scaling") {
        return Err("bench field must be \"search_scaling\"".to_string());
    }
    for field in ["kernel", "machine", "model"] {
        if doc.get(field).and_then(Value::as_str).is_none() {
            return Err(format!("missing string field {field:?}"));
        }
    }
    if !matches!(doc.get("quick"), Some(Value::Bool(_))) {
        return Err("missing boolean field \"quick\"".to_string());
    }

    let rows = doc
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("missing rows array")?;
    if rows.is_empty() {
        return Err("rows array is empty".to_string());
    }
    let mut last_space = 0.0;
    for (i, row) in rows.iter().enumerate() {
        let num = |field: &str| {
            row.get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("row {i}: missing numeric field {field:?}"))
        };
        let space = num("space")?;
        if space <= last_space {
            return Err(format!("row {i}: spaces must strictly grow"));
        }
        last_space = space;
        num("bound")?;
        let naive = num("naive_ns")?;
        let summed = num("summed_area_ns")?;
        let pruned_ns = num("pruned_ns")?;
        let pruned = num("pruned_upset")?;
        // The build arm and its per-family split, so a change to one
        // table family shows in its own column.
        for arm in [
            "build_ns",
            "build_gts_ns",
            "build_gss_ns",
            "build_rrs_ns",
            "build_reg_ns",
        ] {
            if num(arm)? <= 0.0 {
                return Err(format!("row {i}: {arm} must be positive"));
            }
        }
        if naive <= 0.0 || summed <= 0.0 || pruned_ns <= 0.0 {
            return Err(format!("row {i}: timings must be positive"));
        }
        if pruned < 0.0 || pruned >= space {
            return Err(format!("row {i}: pruned_upset out of range"));
        }
        if row.get("winner").and_then(Value::as_array).is_none() {
            return Err(format!("row {i}: missing winner array"));
        }
        if row.get("winners_agree") != Some(&Value::Bool(true)) {
            return Err(format!("row {i}: engines must agree on the winner"));
        }
        let speedup = num("speedup_naive_over_summed")?;
        if (speedup - naive / summed).abs() > 0.01 * speedup {
            return Err(format!("row {i}: speedup inconsistent with timings"));
        }
    }
    // The depth-scaling arm: k = 1..3 register-tiling searches over a
    // deep kernel, same agreement discipline as the bound sweep.
    if doc.get("depth_kernel").and_then(Value::as_str).is_none() {
        return Err("missing string field \"depth_kernel\"".to_string());
    }
    let depth_rows = doc
        .get("depth_rows")
        .and_then(Value::as_array)
        .ok_or("missing depth_rows array")?;
    if depth_rows.is_empty() {
        return Err("depth_rows array is empty".to_string());
    }
    let mut last_k = 0.0;
    let mut last_depth_space = 0.0;
    for (i, row) in depth_rows.iter().enumerate() {
        let num = |field: &str| {
            row.get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("depth row {i}: missing numeric field {field:?}"))
        };
        let k = num("k")?;
        if k <= last_k {
            return Err(format!("depth row {i}: k must strictly grow"));
        }
        last_k = k;
        let space = num("space")?;
        if space <= last_depth_space {
            return Err(format!("depth row {i}: spaces must strictly grow"));
        }
        last_depth_space = space;
        let summed = num("summed_area_ns")?;
        let pruned_ns = num("pruned_ns")?;
        if summed <= 0.0 || pruned_ns <= 0.0 {
            return Err(format!("depth row {i}: timings must be positive"));
        }
        let pruned = num("pruned_upset")?;
        if pruned < 0.0 || pruned >= space {
            return Err(format!("depth row {i}: pruned_upset out of range"));
        }
        if row.get("winner").and_then(Value::as_array).is_none() {
            return Err(format!("depth row {i}: missing winner array"));
        }
        if row.get("winners_agree") != Some(&Value::Bool(true)) {
            return Err(format!("depth row {i}: engines must agree on the winner"));
        }
    }
    // The deep-kernel build row: the register tables of a deep kernel
    // at its unbounded register-tiling space.
    let deep = doc.get("deep_build").ok_or("missing deep_build object")?;
    let deep_kernel = deep
        .get("kernel")
        .and_then(Value::as_str)
        .ok_or("deep_build: missing string field \"kernel\"")?;
    let deep_num = |field: &str| {
        deep.get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("deep_build: missing numeric field {field:?}"))
    };
    if deep_num("max_unroll_loops")? != 0.0 {
        return Err("deep_build: max_unroll_loops must be 0".to_string());
    }
    let deep_space = deep_num("space")?;
    for arm in ["space", "build_ns", "build_reg_ns"] {
        if deep_num(arm)? <= 0.0 {
            return Err(format!("deep_build: {arm} must be positive"));
        }
    }
    Ok(format!(
        "{} rows, largest space {last_space:.0}; {} depth rows up to k = {last_k:.0} \
         (space {last_depth_space:.0}); deep build row {deep_kernel} (space {deep_space:.0})",
        rows.len(),
        depth_rows.len()
    ))
}

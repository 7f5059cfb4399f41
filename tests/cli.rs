//! Black-box tests of the `ujam` command-line driver.

use std::process::{Command, Output};

fn ujam(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ujam"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn list_names_all_nineteen_kernels() {
    let out = ujam(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in ["jacobi", "mmjki", "vpenta.7", "shal"] {
        assert!(text.contains(name), "missing {name}");
    }
    assert_eq!(text.lines().count(), 20); // header + 19 rows
}

#[test]
fn show_prints_fortran_style_listing() {
    let out = ujam(&["show", "dmxpy0"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("DO J = 1, 240"));
    assert!(text.contains("Y(I) = Y(I) + X(J) * M(I,J)"));
}

#[test]
fn deps_reports_counts_and_bounds() {
    let out = ujam(&["deps", "sor"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("true:"));
    assert!(text.contains("input:"));
    assert!(text.contains("safe unroll bounds"));
}

#[test]
fn tables_prints_one_row_per_offset() {
    let out = ujam(&["tables", "dmxpy0", "3"]);
    assert!(out.status.success());
    let text = stdout(&out);
    // Header + u = 0..=3.
    assert!(text.lines().count() >= 6, "{text}");
    assert!(text.contains("lines/it"));
}

#[test]
fn optimize_emits_a_transformed_loop() {
    let out = ujam(&["optimize", "dmxpy0", "--machine", "alpha"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("chosen unroll vector"));
    assert!(text.contains("after scalar replacement"));
    assert!(text.contains("DO J = 1, 240, "), "J loop should be stepped");
}

#[test]
fn simulate_reports_speedup() {
    let out = ujam(&[
        "simulate",
        "afold",
        "--machine",
        "alpha",
        "--model",
        "cache",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("speedup:"));
    assert!(text.contains("original:"));
}

#[test]
fn bad_inputs_fail_with_usage() {
    for args in [
        &["frobnicate"][..],
        &["show", "nope"][..],
        &["optimize", "sor", "--machine", "vax"][..],
        &[][..],
    ] {
        let out = ujam(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn fortran_files_round_trip_through_the_cli() {
    let dir = std::env::temp_dir().join("ujam_cli_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("intro.f");
    // Emit a kernel as Fortran, re-read it, optimize it.
    let emitted = ujam(&["emit", "dmxpy0"]);
    assert!(emitted.status.success());
    std::fs::write(&path, stdout(&emitted)).expect("write source");

    let shown = ujam(&["show", path.to_str().expect("utf8 path")]);
    assert!(shown.status.success());
    assert!(stdout(&shown).contains("Y(I) = Y(I) + X(J) * M(I,J)"));

    let optimized = ujam(&["simulate", path.to_str().expect("utf8 path")]);
    assert!(optimized.status.success());
    assert!(stdout(&optimized).contains("speedup:"));

    let bad = dir.join("bad.f");
    std::fs::write(&bad, "      DO I = 1, N\n      ENDDO\n      END").expect("write");
    let out = ujam(&["show", bad.to_str().expect("utf8 path")]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("integer constant"));
}

/// `deps` and `tables` analyse through the same checked context as
/// `optimize`: a loop bound beyond ±2^31 (whose trip count would wrap)
/// is refused with an error and a nonzero exit, not printed as a
/// dependence count of zero.
#[test]
fn deps_and_tables_refuse_loop_bounds_beyond_2_pow_31() {
    let dir = std::env::temp_dir().join("ujam_cli_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let source = |lower: &str, upper: &str| {
        format!(
            "      DIMENSION A(8,8), B(8,8)\n      DO I = {lower}, {upper}\n      DO J = 1, 4\n      \
             A(I,J) = B(I,J) + B(I+1,J)\n      ENDDO\n      ENDDO\n      END\n"
        )
    };
    let wide = dir.join("wide_bounds.f");
    std::fs::write(&wide, source("-9000000000000000000", "9000000000000000000")).expect("write");
    let narrow = dir.join("narrow_bounds.f");
    std::fs::write(&narrow, source("1", "100")).expect("write");
    for cmd in ["deps", "tables"] {
        let out = ujam(&[cmd, wide.to_str().expect("utf8 path")]);
        assert!(!out.status.success(), "{cmd} accepted the wide bounds");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("beyond ±2^31"), "{cmd}: {err}");
        assert!(stdout(&out).is_empty(), "{cmd}: {}", stdout(&out));
        let out = ujam(&[cmd, narrow.to_str().expect("utf8 path")]);
        assert!(out.status.success(), "{cmd} refused DO I = 1, 100");
    }
    let out = ujam(&["deps", narrow.to_str().expect("utf8 path")]);
    assert!(stdout(&out).contains("input: 1"), "{}", stdout(&out));
}

/// `--explain` on the paper's introductory loop (Figure 8's `A(J) =
/// A(J) + B(I)`), fed through a Fortran file: the provenance table
/// reports exactly one winning candidate, and it is the same unroll
/// vector the library's table-driven search returns.
#[test]
fn explain_reports_the_search_winner_on_the_intro_loop() {
    let nest = ujam::ir::NestBuilder::new("intro")
        .array("A", &[242])
        .array("B", &[242])
        .loop_("J", 1, 240)
        .loop_("I", 1, 240)
        .stmt("A(J) = A(J) + B(I)")
        .build();
    let dir = std::env::temp_dir().join("ujam_cli_explain_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("intro.f");
    std::fs::write(&path, ujam::fortran::emit(&nest)).expect("write source");

    let out = ujam(&["optimize", path.to_str().expect("utf8 path"), "--explain"]);
    assert!(out.status.success());
    let text = stdout(&out);

    let plan = ujam::core::optimize(&nest, &ujam::machine::MachineModel::dec_alpha())
        .expect("intro loop is valid");
    let u_text = format!(
        "[{}]",
        plan.unroll
            .iter()
            .map(|u| u.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );

    let won: Vec<&str> = text
        .lines()
        .filter(|l| l.split_whitespace().next_back() == Some("won"))
        .collect();
    assert_eq!(won.len(), 1, "exactly one winning candidate: {text}");
    assert_eq!(
        won[0].split_whitespace().next(),
        Some(u_text.as_str()),
        "explain winner must be the library's winner"
    );
    assert!(
        text.contains(&format!("chosen unroll vector: {:?}", plan.unroll)),
        "CLI plan must match the library plan"
    );
}

/// `--trace=json` emits one machine-readable document on stdout that the
/// in-tree parser accepts, with spans for every pipeline pass, counters
/// from the analysis cache, and exactly one winning explain record.
#[test]
fn trace_json_emits_parseable_spans_and_provenance() {
    let out = ujam(&["optimize", "dmxpy0", "--trace=json"]);
    assert!(out.status.success());
    let doc = ujam::trace::json::parse(&stdout(&out)).expect("stdout is one valid JSON document");

    let span_names: Vec<&str> = doc
        .get("spans")
        .and_then(|s| s.as_array())
        .expect("spans array")
        .iter()
        .filter_map(|s| s.get("name")?.as_str())
        .collect();
    for pass in [
        "select-loops",
        "build-tables",
        "search-space",
        "apply-transform",
    ] {
        assert!(
            span_names.contains(&pass),
            "missing span {pass}: {span_names:?}"
        );
    }

    let counters = doc
        .get("counters")
        .and_then(|c| c.as_array())
        .expect("counters array");
    assert!(!counters.is_empty(), "analysis cache emits counters");

    let verdicts: Vec<&str> = doc
        .get("explain")
        .and_then(|e| e.as_array())
        .expect("explain array")
        .iter()
        .filter_map(|e| e.get("verdict")?.as_str())
        .collect();
    assert_eq!(
        verdicts.iter().filter(|v| **v == "won").count(),
        1,
        "exactly one candidate wins: {verdicts:?}"
    );
}

/// Regression: an unknown kernel name must be a clean structured
/// failure — nonzero exit, the error on stderr, and nothing on stdout
/// (a `--trace=json` consumer must never see half a document).
#[test]
fn unknown_kernel_exits_nonzero_with_error_on_stderr_only() {
    for args in [
        &["optimize", "nosuchkernel"][..],
        &["optimize", "nosuchkernel", "--trace=json"][..],
    ] {
        let out = ujam(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown kernel") && err.contains("nosuchkernel"),
            "{args:?}: {err}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: stdout must stay clean, got {:?}",
            stdout(&out)
        );
    }
}

/// Regression: a malformed `--trace=` value must be rejected up front
/// with the same discipline — nonzero exit, structured error on stderr,
/// empty stdout — instead of being silently ignored.
#[test]
fn malformed_trace_flag_exits_nonzero_with_error_on_stderr_only() {
    for (args, expected) in [
        (
            &["optimize", "jacobi", "--trace=bogus"][..],
            &["bad --trace value", "expected json, human, or chrome"][..],
        ),
        (
            &["optimize", "jacobi", "--trace="][..],
            &["bad --trace value", "expected json, human, or chrome"][..],
        ),
        // The daemon has no --trace: its counters are read live with
        // `ujam stats`.
        (&["serve", "--trace=bogus"][..], &["unknown option"][..]),
    ] {
        let out = ujam(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            expected.iter().all(|needle| err.contains(needle)),
            "{args:?}: {err}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: stdout must stay clean, got {:?}",
            stdout(&out)
        );
    }
}

/// A reader that closes stdout early (`ujam list | head -1`) ends the
/// command quietly: exit 0, no panic, no error line.
#[test]
fn closed_stdout_ends_commands_without_a_panic() {
    for args in [
        &["list"][..],
        &["show", "mmjki"][..],
        &["tables", "dmxpy0", "200"][..],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_ujam"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: stderr must stay clean: {err}");
        assert!(out.status.success(), "{args:?}: {:?}", out.status);
    }
}

/// `ujam profile` emits one versioned JSON document on stdout, in both
/// flag spellings (`--kernel matmul` positional alias included), and
/// the report parses with the in-tree JSON parser.
#[test]
fn profile_emits_a_versioned_json_report() {
    for args in [
        &["profile", "--kernel", "matmul"][..],
        &["profile", "--kernel=matmul"][..],
        &["profile", "mmjki"][..],
    ] {
        let out = ujam(args);
        assert!(out.status.success(), "{args:?} must succeed");
        let doc = ujam::trace::json::parse(&stdout(&out)).expect("stdout is one JSON document");
        assert_eq!(
            doc.get("version").and_then(|v| v.as_f64()),
            Some(1.0),
            "{args:?}: report must carry its schema version"
        );
        assert_eq!(
            doc.get("nest").and_then(|v| v.as_str()),
            Some("mmjki"),
            "{args:?}: matmul must resolve to the mmjki kernel"
        );
        for field in ["geometry", "accesses", "cold", "histogram", "arrays"] {
            assert!(doc.get(field).is_some(), "{args:?}: missing {field}");
        }
    }
}

/// `--profile-out` writes the report to the file (stdout stays clean of
/// JSON), and `--cache-geometry` overrides the machine's cache in both
/// flag spellings.
#[test]
fn profile_flags_accept_both_spellings() {
    let dir = std::env::temp_dir().join("ujam_cli_profile_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("report.json");
    let path_s = path.to_str().expect("utf8 path");
    let out = ujam(&["profile", "jacobi", "--profile-out", path_s]);
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "report goes to the file, not stdout");
    let written = std::fs::read_to_string(&path).expect("report written");
    let doc = ujam::trace::json::parse(written.trim()).expect("file holds one JSON document");

    let separate = ujam(&["profile", "jacobi", "--cache-geometry", "2048:64:2"]);
    let inline = ujam(&["profile", "jacobi", "--cache-geometry=2048:64:2"]);
    assert!(separate.status.success() && inline.status.success());
    assert_eq!(
        stdout(&separate),
        stdout(&inline),
        "both flag spellings must produce identical reports"
    );
    let overridden = ujam::trace::json::parse(stdout(&inline).trim()).expect("valid report");
    assert_eq!(
        overridden
            .get("geometry")
            .and_then(|g| g.get("line_bytes"))
            .and_then(|v| v.as_f64()),
        Some(64.0)
    );
    // The default-geometry report differs from the overridden one.
    assert_ne!(
        doc.get("geometry"),
        overridden.get("geometry"),
        "--cache-geometry must actually change the simulated cache"
    );
}

/// Regression: unknown or malformed values for the new flags are clean
/// structured failures — nonzero exit, the error on stderr, stdout
/// empty — in both `--flag V` and `--flag=V` spellings.
#[test]
fn malformed_profile_and_cost_model_flags_fail_cleanly() {
    for (args, expected) in [
        (
            &["optimize", "jacobi", "--cost-model", "exact"][..],
            "bad --cost-model value",
        ),
        (
            &["optimize", "jacobi", "--cost-model=exact"][..],
            "bad --cost-model value",
        ),
        (
            &["optimize", "jacobi", "--cost-model="][..],
            "bad --cost-model value",
        ),
        (
            &["profile", "jacobi", "--cache-geometry", "32"][..],
            "bad --cache-geometry value",
        ),
        (
            &["profile", "jacobi", "--cache-geometry=8192:0:1"][..],
            "bad --cache-geometry value",
        ),
        (
            &["profile", "jacobi", "--cache-geometry=8192:48:1"][..],
            "bad --cache-geometry value",
        ),
        (
            &["profile", "jacobi", "--cache-geometry=a:b:c"][..],
            "bad --cache-geometry value",
        ),
        (
            &["profile", "--kernel", "nosuchkernel"][..],
            "unknown kernel",
        ),
        (
            &["profile", "jacobi", "--kernel", "sor"][..],
            "profile takes one loop",
        ),
    ] {
        let out = ujam(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(expected), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: stdout must stay clean, got {:?}",
            stdout(&out)
        );
    }
}

/// `--cost-model` is accepted in both spellings and is reflected in the
/// optimize header; the analytic spelling changes nothing else about
/// the output.
#[test]
fn cost_model_flag_accepts_both_spellings() {
    let baseline = ujam(&["optimize", "dmxpy0"]);
    let separate = ujam(&["optimize", "dmxpy0", "--cost-model", "analytic"]);
    let inline = ujam(&["optimize", "dmxpy0", "--cost-model=analytic"]);
    assert!(baseline.status.success() && separate.status.success() && inline.status.success());
    assert_eq!(stdout(&separate), stdout(&inline));
    assert_eq!(
        stdout(&baseline),
        stdout(&separate),
        "analytic is the default"
    );
    assert!(stdout(&baseline).contains("cost model analytic"));
}

#[test]
fn schedule_reports_op_mix_and_makespan() {
    let out = ujam(&["schedule", "dmxpy0"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("makespan"));
    assert!(text.contains("per original iteration"));
}

/// `simulate` and `schedule` take `--machine=V` and `--model=V` as well
/// as the two-argument spelling, with the same output, and reject a bad
/// inline value with the same error; so does `serve` for its flags.
#[test]
fn value_flags_accept_inline_values() {
    for cmd in ["simulate", "schedule"] {
        let separate = ujam(&[cmd, "dmxpy0", "--machine", "parisc", "--model", "allhits"]);
        let inline = ujam(&[cmd, "dmxpy0", "--machine=parisc", "--model=allhits"]);
        assert!(separate.status.success(), "{cmd}");
        assert!(inline.status.success(), "{cmd}: {:?}", inline.stderr);
        assert_eq!(stdout(&separate), stdout(&inline), "{cmd}");
        let bad = ujam(&[cmd, "dmxpy0", "--machine=vax"]);
        assert_eq!(bad.status.code(), Some(1), "{cmd}");
        let err = String::from_utf8_lossy(&bad.stderr);
        assert!(
            err.contains("bad --machine value Some(\"vax\")"),
            "{cmd}: {err}"
        );
    }
    // `serve` reads inline values too, and checks them the same way.
    let bad = ujam(&["serve", "--workers=0"]);
    assert_eq!(bad.status.code(), Some(1));
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(err.contains("--workers needs a positive number"), "{err}");
}

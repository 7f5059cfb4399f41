//! End-to-end and per-layer benchmark for the ujam optimizer and its
//! serving daemon.
//!
//! ```text
//! perfbench --workload <compile_suite|serve_hot|serve_mixed> --seed N
//!           --seconds S --trace <0|1> --ujam PATH/TO/ujam
//! ```
//!
//! With `--trace 0` the named workload runs untraced and reports the
//! end-to-end metrics; with `--trace 1` the run profiles every layer
//! (compiler passes and table families, the Fortran front end, the
//! in-process server and cache, and the daemon's flight timelines)
//! on that workload's inputs.  Diagnostic lines come first; the last
//! line of standard output is the JSON result.

mod compile;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use compile::Job;
use serve::{Kind, Launcher, Workload};
use stats::Report;

/// Nests of the serve_mixed working set profiled pass by pass.
const MIXED_PROFILE_NESTS: usize = 128;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    ujam: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ujam = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a number")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--ujam" => ujam = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        ujam: ujam.ok_or("--ujam is required")?,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let launcher = Launcher {
            ujam: args.ujam.clone(),
            cpu: pin_cpus(),
        };
        let mut report = match (args.workload.as_str(), args.trace) {
            ("compile_suite" | "serve_hot" | "serve_mixed", true) => traced(&args, &launcher),
            ("compile_suite", false) => compile::run(args.seed, args.seconds),
            ("serve_hot", false) => serve::run(Kind::Hot, args.seed, args.seconds, &launcher),
            ("serve_mixed", false) => serve::run(Kind::Mixed, args.seed, args.seconds, &launcher),
            (other, _) => Err(format!("unknown workload {other}")),
        }?;
        if launcher.cpu.is_none() {
            report.note("not pinned: fewer than two CPUs or no taskset".into());
        }
        report.print()
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pins this thread (the client or the compile loop, and every thread
/// it starts) to the first allowed CPU and returns the second for the
/// daemon, so the busy threads keep one placement from run to run.
/// Returns `None`, pinning nothing, without two CPUs or `taskset`.
fn pin_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(lo.parse::<usize>().ok()?..=hi.parse::<usize>().ok()?);
    }
    let (&client, &daemon) = (cpus.first()?, cpus.get(1)?);
    stats::pin_this_thread(client).then_some(daemon)
}

/// The traced run: every per-layer metric, measured on the workload's
/// own inputs.  compile_suite and serve_hot share the 25 kernel
/// configs; serve_mixed profiles its first `MIXED_PROFILE_NESTS`
/// corpus nests and replays its own request sequence.
fn traced(args: &Args, launcher: &Launcher) -> Result<Report, String> {
    let budget = Duration::from_secs(args.seconds);
    let machine = compile::machine();
    let kind = if args.workload == "serve_mixed" {
        Kind::Mixed
    } else {
        Kind::Hot
    };
    let w = Workload::new(kind, args.seed);
    let jobs: Vec<Job> = match kind {
        Kind::Hot => compile::suite_jobs(args.seed),
        Kind::Mixed => w
            .reqs
            .iter()
            .take(MIXED_PROFILE_NESTS)
            .map(|r| Job {
                label: r.label.clone(),
                nest: r.nest.clone(),
                config: r.config,
                paper: false,
            })
            .collect(),
    };
    let compile_suite = args.workload == "compile_suite";
    let mut report = Report::default();
    let compile = compile::profile(&jobs, &machine, budget * 2 / 5, compile_suite, &mut report);
    serve::in_process(&w, budget / 5, &mut report);
    let daemon = serve::daemon_profile(&w, launcher, budget * 2 / 5, &mut report)?;
    let (overhead, samples) = if compile_suite { compile } else { daemon };
    report.metric("trace.overhead_us", overhead, "us", samples);
    Ok(report)
}

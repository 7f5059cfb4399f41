//! `ujam` — command-line driver for the unroll-and-jam reproduction.
//!
//! ```text
//! ujam list                          # the 19 Table 2 kernels
//! ujam show <loop>                   # print a loop nest
//! ujam deps <loop>                   # dependence graph summary
//! ujam tables <loop> [bound]         # the precomputed unroll tables
//! ujam optimize <loop> [options]     # choose & apply unroll amounts
//! ujam simulate <loop> [options]     # simulate original vs optimized
//! ujam profile <loop> [options]      # reuse-distance report (JSON)
//! ujam emit <loop>                   # render as Fortran source
//! ujam schedule <loop> [options]     # list-schedule the optimized body
//! ujam serve [options]               # NDJSON optimization daemon
//! ujam request --socket PATH <json>  # send request lines to a daemon
//! ujam request --tcp ADDR <json>...  # same over TCP (handshakes first)
//! ujam stats --socket PATH [--json]  # query a daemon's metrics snapshot
//! ujam stats --tcp ADDR [--json]     # same over TCP
//! ujam flight --socket PATH          # dump the daemon's flight recorder
//! ujam flight --tcp ADDR [--slow-only] [--json]
//! ```
//!
//! `<loop>` is a Table 2 kernel name (`ujam list`) or a path to a Fortran
//! source file (`.f`, `.f77`, `.for`) holding one DO nest.
//!
//! Options: `--machine alpha|parisc|prefetch`, `--model cache|allhits`;
//! every value flag takes both `--flag V` and `--flag=V`.
//! `optimize` additionally takes `--cost-model analytic|profiled`
//! (which cache-cost backend scores candidates), `--explain`
//! (per-candidate decision provenance) and
//! `--trace`/`--trace=json`/`--trace=chrome` (pass spans, cache
//! counters, events; the JSON form prints only the machine-readable
//! document, the chrome form a Chrome trace-event timeline loadable in
//! Perfetto or `chrome://tracing`).
//!
//! `profile` runs the nest under the interpreter's memory tap and emits
//! a versioned JSON reuse-distance report: per-array and aggregate
//! stack-distance histograms, cold misses, and miss rates under both a
//! fully-associative and the machine's set-associative cache geometry
//! (overridable with `--cache-geometry CAPACITY:LINE:WAYS`).
//!
//! `serve` always records runtime metrics (counters, gauges, latency
//! histograms) into a `ujam-metrics` registry; `{"id":"s","cmd":"stats"}`
//! admin lines — or the `ujam stats` subcommand — return a snapshot.
//! Every line needs an `"id"`: a bare `{"cmd":"stats"}` gets a
//! `bad_request` reply.
//!
//! Every command writes stdout through `out!`/`outln!`.  When the
//! reader closes the pipe (`ujam list | head -1`), the command stops
//! and `ujam` exits 0 with nothing on stderr: the reader has all the
//! output it asked for.

#![forbid(unsafe_code)]

use std::io::{BufRead, Write};
use std::process::ExitCode;
use ujam::core::{
    optimize_costed, optimize_with, tables::CostTables, BalanceModel, CancelToken, CostModelKind,
    SearchConfig, UnrollSpace,
};
use ujam::dep::{safe_unroll_bounds, DepGraph, DepKind};
use ujam::ir::transform::scalar_replacement;
use ujam::ir::LoopNest;
use ujam::kernels::{kernels, named_nest};
use ujam::machine::MachineModel;
use ujam::metrics::MetricsHandle;
use ujam::sim::{profile_nest_with_geometry, simulate, CacheGeometry};
use ujam::trace::json::{self, Value};
use ujam::trace::{ChromeTraceRenderer, CollectingSink};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) | Err(Failure::Closed) => ExitCode::SUCCESS,
        Err(Failure::Error(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Why [`run`] stopped early.
enum Failure {
    /// A usage, input or I/O error: reported with the usage text, exit 1.
    Error(String),
    /// Stdout's reader went away: the rest of the output has nowhere to
    /// go, so `ujam` stops quietly with exit 0.
    Closed,
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Error(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Failure {
        Failure::Error(msg.to_string())
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Failure {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => Failure::Closed,
            _ => Failure::Error(format!("cannot write to stdout: {e}")),
        }
    }
}

/// `print!` that returns a [`Failure`] from [`run`] instead of
/// panicking when stdout fails.
macro_rules! out {
    ($($arg:tt)*) => {
        write!(std::io::stdout(), $($arg)*).map_err(Failure::from)?
    };
}

/// `println!` that returns a [`Failure`] from [`run`] instead of
/// panicking when stdout fails.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(Failure::from)?
    };
}

const USAGE: &str = "usage:
  ujam list
  ujam show <loop>
  ujam deps <loop>
  ujam tables <loop> [bound]
  ujam optimize <loop> [--machine alpha|parisc|prefetch] [--model cache|allhits]
                       [--cost-model analytic|profiled]
                       [--explain] [--trace[=json|chrome]]
                       [--max-unroll-loops K] [--code-budget B]
  ujam simulate <loop> [--machine alpha|parisc|prefetch] [--model cache|allhits]
  ujam profile <loop> | --kernel NAME [--machine alpha|parisc|prefetch]
                       [--cache-geometry CAPACITY:LINE:WAYS] [--profile-out PATH]
  ujam emit <loop>
  ujam schedule <loop> [--machine alpha|parisc|prefetch] [--model cache|allhits]
  ujam serve [--workers N] [--cache N] [--shards N]
             [--socket PATH] [--tcp ADDR] [--max-queue N] [--max-conns N]
             [--max-inflight N] [--read-timeout-ms MS]
             [--flight-capacity N] [--slow-ms MS] [--trace-chrome PATH]
  ujam request (--socket PATH | --tcp ADDR) [--show-hello] <json-line>...
  ujam stats (--socket PATH | --tcp ADDR) [--json] [--series] [--verbose]
  ujam flight (--socket PATH | --tcp ADDR) [--slow-only] [--json]

<loop> is a kernel name from `ujam list`, a deep register-tiling kernel
(stencil3d, contract3, tensor4, assemble4, bmm4, bcontract5), or a
Fortran file (.f/.f77/.for) holding one DO nest.

`optimize` searches unroll vectors over up to K outer loops
(--max-unroll-loops, default 2 as in the paper; 0 = unbounded) and can
cap unrolled body size at B statements (--code-budget).  With
--cost-model profiled each candidate's cache-line figure is measured by
the reuse-distance profiler instead of the paper's Eq. 1 prediction —
materially slower, intended for studies.

`profile` interprets the nest with a memory-access tap and prints a
versioned JSON reuse-distance report (stack-distance histograms per
array and aggregate, cold/capacity/conflict misses, miss rates) to
stdout, or to PATH with --profile-out.  The cache geometry defaults to
the machine's; override it with --cache-geometry, e.g. 8192:32:1.

`serve` reads one JSON request per line from stdin and writes one JSON
reply per line to stdout, answering each line before reading the next;
see the ujam-serve crate docs for the protocol.  With --socket and/or
--tcp it instead serves connections on those listeners through a
poll(2) event loop: nonblocking sockets, --workers analysis threads
behind a bounded queue (--max-queue; full = structured `overloaded`
replies with retry_ms), per-connection in-flight caps (--max-inflight),
a connection cap (--max-conns), idle/slow-loris read timeouts
(--read-timeout-ms, default 30000), and an N-way content-hash-sharded
decision cache (--shards).  TCP clients must open with the versioned
handshake {\"id\":\"h\",\"cmd\":\"hello\",\"version\":1}.  `--tcp 127.0.0.1:0`
picks a free port; the bound address is announced on stderr as
`serve: tcp listening on ADDR`.  A {\"id\":\"q\",\"cmd\":\"shutdown\"}
admin line stops the daemon cleanly; every line, admin lines included,
needs an \"id\".  Runtime metrics are always recorded; read them live
with `ujam stats` or a {\"id\":\"s\",\"cmd\":\"stats\"} line on stdin.

Every request, on stdin or a socket, gets a lifecycle timeline (trace
id, per-edge monotonic stamps: framed, enqueued, dequeued, cache probe,
analysis, reply flushed) kept in an in-daemon flight recorder: a ring of
the last N timelines (--flight-capacity, default 1024) plus a separate
ring of anomalous requests (latency over --slow-ms, default 100;
deadline hits; sheds; frame errors) with structured reasons.  Requests
carrying \"trace\":true get their trace id echoed back as a trailing
trace_id reply field.  --trace-chrome writes every retained timeline as
a Chrome trace-event file when the daemon exits, at stdin EOF or on
shutdown (loadable in Perfetto).

`request` sends raw NDJSON request lines to a serving daemon (Unix
socket or TCP; over TCP the handshake is performed first and its ack
printed only with --show-hello) and prints one reply line per request.
`stats` asks the daemon for its metrics snapshot ({\"id\":...,\"cmd\":\"stats\"})
and renders it as a table, or as the raw versioned JSON snapshot with
--json.  The table opens with the cache hit-rate computed from the
serve.cache.hits and serve.cache.misses totals; per-shard cache
counters are listed only with --verbose.  With
--series the daemon also returns its time-series ring — windowed
counter deltas, derived rates (reqs/s, hit-rate, shed/s), queue-depth
peaks, and per-histogram max-latency exemplars tagged with trace ids —
rendered as a table, or as the raw series document with --json.
`flight` asks for the flight recorder ({\"cmd\":\"flight\"}) and renders
each retained timeline with per-edge durations; --slow-only limits the
dump to the anomaly ring, --json prints the versioned document.";

fn run(args: &[String]) -> Result<(), Failure> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing command")?;
    match cmd.as_str() {
        "list" => {
            outln!("{:>3} {:10} description", "#", "name");
            for k in kernels() {
                outln!("{:>3} {:10} {}", k.num, k.name, k.description);
            }
            Ok(())
        }
        "show" => {
            let nest = lookup(it.next())?;
            out!("{nest}");
            Ok(())
        }
        "emit" => {
            let nest = lookup(it.next())?;
            out!("{}", ujam::fortran::emit(&nest));
            Ok(())
        }
        "deps" => {
            let nest = lookup(it.next())?;
            let g = DepGraph::build(&nest);
            outln!("dependences of {}:", nest.name());
            for kind in [
                DepKind::True,
                DepKind::Anti,
                DepKind::Output,
                DepKind::Input,
            ] {
                outln!("  {kind}: {}", g.count(kind));
            }
            let s = g.stats();
            outln!(
                "  storage: {} bytes with input deps, {} without ({}% saved)",
                s.bytes_all,
                s.bytes_no_input,
                (100.0 * (1.0 - s.bytes_no_input as f64 / s.bytes_all.max(1) as f64)).round()
            );
            outln!("  safe unroll bounds: {:?}", safe_unroll_bounds(&nest, &g));
            Ok(())
        }
        "tables" => {
            let nest = lookup(it.next())?;
            let bound: u32 = it
                .next()
                .map(|b| b.parse().map_err(|_| "bound must be a number".to_string()))
                .transpose()?
                .unwrap_or(4);
            let g = DepGraph::build(&nest);
            let bounds = safe_unroll_bounds(&nest, &g);
            let loop_idx = (0..nest.depth() - 1)
                .find(|&l| bounds[l] >= 1)
                .ok_or("no loop of this kernel can be jammed")?;
            let space = UnrollSpace::new(nest.depth(), &[loop_idx], bound);
            let ct = CostTables::build(&nest, &space, 4);
            outln!(
                "tables for {} over loop {} (bound {bound}, line = 4 elements):",
                nest.name(),
                nest.loops()[loop_idx].var()
            );
            outln!(
                "{:>3} {:>7} {:>7} {:>7} {:>9} {:>9}",
                "u",
                "flops",
                "loads",
                "stores",
                "lines/it",
                "registers"
            );
            for u in space.offsets() {
                outln!(
                    "{:>3} {:>7} {:>7} {:>7} {:>9.3} {:>9}",
                    u[0],
                    ct.flops(&u),
                    ct.loads(&u),
                    ct.stores(&u),
                    ct.cache_lines(&u),
                    ct.registers(&u)
                );
            }
            Ok(())
        }
        "optimize" => {
            let nest = lookup(it.next())?;
            let opts = optimize_options(it)?;
            let (machine, model) = (&opts.machine, opts.model);
            let sink = CollectingSink::new();
            let plan = optimize_costed(
                &nest,
                machine,
                model,
                opts.cost,
                if opts.observing() {
                    &sink
                } else {
                    ujam::trace::null_sink()
                },
                CancelToken::never(),
                MetricsHandle::disabled(),
                opts.config,
            )
            .map_err(|e| e.to_string())?;
            let trace = sink.take();
            if opts.trace == TraceMode::Json {
                // Machine-readable mode: the JSON document is the whole
                // output, so downstream tools can parse stdout as-is.
                outln!("{}", trace.render_json());
                return Ok(());
            }
            if opts.trace == TraceMode::Chrome {
                outln!("{}", ChromeTraceRenderer::render(&trace));
                return Ok(());
            }
            outln!(
                "machine {} (balance {}), model {:?}, cost model {}",
                machine.name(),
                machine.balance(),
                model,
                opts.cost.as_str()
            );
            outln!("chosen unroll vector: {:?}", plan.unroll);
            outln!(
                "balance {:.3} -> {:.3}; memory ops {} -> {}; flops {} -> {}; registers {}",
                plan.original.balance,
                plan.predicted.balance,
                plan.original.memory_ops,
                plan.predicted.memory_ops,
                plan.original.flops,
                plan.predicted.flops,
                plan.predicted.registers
            );
            // `render_human` already includes the explain tables, so
            // only render them separately when --trace is off.
            if opts.explain && opts.trace != TraceMode::Human {
                outln!();
                out!("{}", trace.render_explain_human());
            }
            if opts.trace == TraceMode::Human {
                outln!();
                out!("{}", trace.render_human());
            }
            outln!("\ntransformed loop:\n{}", plan.nest);
            let replaced = scalar_replacement(&plan.nest);
            outln!("after scalar replacement:\n{}", replaced.nest);
            Ok(())
        }
        "profile" => {
            let opts = profile_options(it)?;
            let nest = lookup(opts.nest.as_ref())?;
            let geometry = match opts.geometry {
                Some(g) => g,
                None => CacheGeometry::for_machine(&opts.machine),
            };
            let report = profile_nest_with_geometry(&nest, geometry);
            let rendered = report.render_json();
            match &opts.out {
                Some(path) => {
                    std::fs::write(path, format!("{rendered}\n"))
                        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                    eprintln!(
                        "wrote reuse report for {} ({} accesses, sa miss rate {:.2}%) to {path}",
                        report.nest,
                        report.accesses,
                        100.0 * report.sa_miss_rate()
                    );
                }
                None => outln!("{rendered}"),
            }
            Ok(())
        }
        "schedule" => {
            let nest = lookup(it.next())?;
            let (machine, model) = options(it)?;
            let plan = optimize_with(&nest, &machine, model).map_err(|e| e.to_string())?;
            let replaced = scalar_replacement(&plan.nest);
            let sched = ujam::sim::listsched::schedule_body(&replaced.nest, &machine);
            outln!(
                "{} on {}: unroll {:?}, body of {} ops",
                nest.name(),
                machine.name(),
                plan.unroll,
                sched.ops.len()
            );
            use ujam::sim::listsched::OpKind;
            outln!(
                "loads {}  stores {}  flops {}  makespan {} cycles",
                sched.count(OpKind::Load),
                sched.count(OpKind::Store),
                sched.count(OpKind::Flop),
                sched.makespan
            );
            let copies = plan.unroll.iter().map(|&u| u as u64 + 1).product::<u64>();
            outln!(
                "per original iteration: {:.2} cycles (list-scheduled body; software pipelining reaches the II bound)",
                sched.makespan as f64 / copies as f64
            );
            Ok(())
        }
        "simulate" => {
            let nest = lookup(it.next())?;
            let (machine, model) = options(it)?;
            let plan = optimize_with(&nest, &machine, model).map_err(|e| e.to_string())?;
            let before = simulate(&nest, &machine);
            let after = simulate(&plan.nest, &machine);
            outln!(
                "{} on {} ({:?} model): unroll {:?}",
                nest.name(),
                machine.name(),
                model,
                plan.unroll
            );
            outln!(
                "original:  {:>12.0} cycles  II {:>5.2}  miss rate {:>5.1}%",
                before.cycles,
                before.ii,
                100.0 * before.miss_rate()
            );
            outln!(
                "optimized: {:>12.0} cycles  II {:>5.2}  miss rate {:>5.1}%",
                after.cycles,
                after.ii,
                100.0 * after.miss_rate()
            );
            outln!("speedup:   {:.2}x", before.cycles / after.cycles);
            Ok(())
        }
        "serve" => {
            let opts = serve_options(it)?;
            let server = ujam::serve::Server::new(opts.cfg, ujam::trace::null_sink());
            let result = if opts.tcp.is_some() || opts.socket.is_some() {
                bind_transports(&opts)
                    .and_then(|transports| {
                        server
                            .run_reactor(transports, opts.rcfg)
                            .map_err(|e| format!("serve: {e}"))
                    })
                    .map_err(Failure::from)
            } else {
                let input = std::io::BufReader::new(std::io::stdin());
                server
                    .run(input, &mut std::io::stdout().lock())
                    .map_err(Failure::from)
            };
            if let Some(path) = &opts.trace_chrome {
                // Every retained timeline becomes a span group under
                // nest `req-<trace_id>` — the same renderer the
                // optimizer's `--trace=chrome` uses.
                let timelines = server.flight().all_timelines();
                let mut flight_trace = ujam::trace::Trace::new(Vec::new());
                for t in &timelines {
                    flight_trace.extend(t.to_trace());
                }
                let doc = ChromeTraceRenderer::render(&flight_trace);
                match std::fs::write(path, format!("{doc}\n")) {
                    Ok(()) => {
                        eprintln!(
                            "serve: wrote {} flight timelines to {path}",
                            timelines.len()
                        )
                    }
                    Err(e) => eprintln!("serve: cannot write {path:?}: {e}"),
                }
            }
            result
        }
        "request" => {
            let (endpoint, rest) = endpoint_options(it)?;
            let mut show_hello = false;
            let mut lines = Vec::new();
            for arg in rest {
                match arg.as_str() {
                    "--show-hello" => show_hello = true,
                    _ => lines.push(arg),
                }
            }
            if lines.is_empty() {
                return Err("request needs at least one JSON line to send".into());
            }
            let exchange = daemon_exchange(&endpoint, &lines)?;
            if show_hello {
                if let Some(hello) = &exchange.hello {
                    outln!("{hello}");
                }
            }
            for reply in &exchange.replies {
                outln!("{reply}");
            }
            Ok(())
        }
        "stats" => {
            let (endpoint, rest) = endpoint_options(it)?;
            let mut json_out = false;
            let mut series = false;
            let mut verbose = false;
            for arg in &rest {
                match arg.as_str() {
                    "--json" => json_out = true,
                    "--series" => series = true,
                    "--verbose" => verbose = true,
                    _ => {
                        return Err(
                            "stats takes only --socket/--tcp, --json, --series, and --verbose"
                                .into(),
                        )
                    }
                }
            }
            let line = if series {
                "{\"id\":\"stats-cli\",\"cmd\":\"stats\",\"series\":true}"
            } else {
                "{\"id\":\"stats-cli\",\"cmd\":\"stats\"}"
            };
            let exchange = daemon_exchange(&endpoint, &[line.to_string()])?;
            let reply = exchange
                .replies
                .first()
                .ok_or("daemon closed the connection without replying")?
                .clone();
            let parsed =
                json::parse(&reply).map_err(|e| format!("daemon sent unparsable reply: {e}"))?;
            if parsed.get("ok") != Some(&Value::Bool(true)) {
                return Err(format!("daemon refused the stats query: {reply}").into());
            }
            let stats = parsed
                .get("stats")
                .ok_or_else(|| format!("reply has no stats field: {reply}"))?;
            if json_out && series {
                // The series document, byte-for-byte as the daemon
                // rendered it (it precedes the stats field, so a
                // balanced scan rather than a suffix slice).
                let doc = extract_field_object(&reply, "series")
                    .ok_or_else(|| format!("reply has no series field: {reply}"))?;
                outln!("{doc}");
            } else if json_out {
                // The reply embeds the snapshot verbatim as its last
                // field, so the raw document is everything from
                // `"stats":` to the closing brace.
                let at = reply.find("\"stats\":").expect("field located above");
                outln!("{}", &reply[at + "\"stats\":".len()..reply.len() - 1]);
            } else {
                if series {
                    let doc = parsed
                        .get("series")
                        .ok_or_else(|| format!("reply has no series field: {reply}"))?;
                    out!("{}", render_series_human(doc));
                }
                out!("{}", render_stats_human(stats, verbose));
            }
            Ok(())
        }
        "flight" => {
            let (endpoint, rest) = endpoint_options(it)?;
            let mut json_out = false;
            let mut slow_only = false;
            for arg in &rest {
                match arg.as_str() {
                    "--json" => json_out = true,
                    "--slow-only" => slow_only = true,
                    _ => {
                        return Err(
                            "flight takes only --socket/--tcp, --slow-only, and --json".into()
                        )
                    }
                }
            }
            let line = if slow_only {
                "{\"id\":\"flight-cli\",\"cmd\":\"flight\",\"slow_only\":true}"
            } else {
                "{\"id\":\"flight-cli\",\"cmd\":\"flight\"}"
            };
            let exchange = daemon_exchange(&endpoint, &[line.to_string()])?;
            let reply = exchange
                .replies
                .first()
                .ok_or("daemon closed the connection without replying")?
                .clone();
            let parsed =
                json::parse(&reply).map_err(|e| format!("daemon sent unparsable reply: {e}"))?;
            if parsed.get("ok") != Some(&Value::Bool(true)) {
                return Err(format!("daemon refused the flight query: {reply}").into());
            }
            let flight = parsed
                .get("flight")
                .ok_or_else(|| format!("reply has no flight field: {reply}"))?;
            if json_out {
                // The flight document is the reply's last field,
                // embedded verbatim.
                let at = reply.find("\"flight\":").expect("field located above");
                outln!("{}", &reply[at + "\"flight\":".len()..reply.len() - 1]);
            } else {
                out!("{}", render_flight_human(flight, slow_only));
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}").into()),
    }
}

struct ServeOptions {
    cfg: ujam::serve::ServeConfig,
    rcfg: ujam::serve::ReactorConfig,
    socket: Option<String>,
    tcp: Option<String>,
    /// Dump the flight recorder as a Chrome trace file on exit.
    trace_chrome: Option<String>,
}

fn serve_options<'a>(it: impl Iterator<Item = &'a String>) -> Result<ServeOptions, String> {
    let mut cfg = ujam::serve::ServeConfig::default();
    let mut rcfg = ujam::serve::ReactorConfig::default();
    let mut socket = None;
    let mut tcp = None;
    let mut trace_chrome = None;
    let mut it = it.peekable();
    let number = |flag: &str, v: Option<String>| -> Result<usize, String> {
        v.and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{flag} needs a positive number"))
    };
    while let Some(flag) = it.next() {
        let (name, inline) = split_flag(flag);
        let value = inline.or_else(|| it.next().cloned());
        match name {
            "--workers" => cfg.workers = number(name, value)?,
            "--cache" => {
                // 0 is meaningful here: it disables the decision cache.
                cfg.cache_capacity = value
                    .and_then(|s| s.parse().ok())
                    .ok_or("--cache needs a number")?;
            }
            "--shards" => cfg.shards = number(name, value)?,
            "--socket" => socket = Some(value.ok_or("--socket needs a path")?),
            "--tcp" => tcp = Some(value.ok_or("--tcp needs an address")?),
            "--max-queue" => rcfg.max_queue = number(name, value)?,
            "--max-conns" => rcfg.max_conns = number(name, value)?,
            "--max-inflight" => rcfg.max_inflight = number(name, value)?,
            "--read-timeout-ms" => {
                rcfg.read_timeout = std::time::Duration::from_millis(number(name, value)? as u64)
            }
            "--flight-capacity" => cfg.flight_capacity = number(name, value)?,
            "--slow-ms" => cfg.slow_ms = number(name, value)? as u64,
            "--trace-chrome" => {
                let path = value.filter(|p| !p.is_empty());
                trace_chrome = Some(path.ok_or("--trace-chrome needs a path")?);
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(ServeOptions {
        cfg,
        rcfg,
        socket,
        tcp,
        trace_chrome,
    })
}

/// Binds the serve listeners and announces each bound address on
/// stderr — `serve: tcp listening on ADDR` is how scripts discover the
/// port `--tcp 127.0.0.1:0` picked.
fn bind_transports(opts: &ServeOptions) -> Result<ujam::serve::Transports, String> {
    let mut transports = ujam::serve::Transports::default();
    if let Some(addr) = &opts.tcp {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| format!("cannot bind tcp {addr:?}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("tcp listener has no address: {e}"))?;
        eprintln!("serve: tcp listening on {local}");
        transports.tcp = Some(listener);
    }
    if let Some(path) = &opts.socket {
        let path = std::path::Path::new(path);
        if path.exists() {
            std::fs::remove_file(path)
                .map_err(|e| format!("cannot replace socket {path:?}: {e}"))?;
        }
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| format!("cannot bind socket {path:?}: {e}"))?;
        eprintln!("serve: unix listening on {}", path.display());
        transports.unix = Some(listener);
    }
    Ok(transports)
}

/// Where the daemon-client subcommands (`request`, `stats`) connect.
enum Endpoint {
    Unix(String),
    Tcp(String),
}

/// Parses the `--socket PATH` / `--tcp ADDR` flags for the
/// daemon-client subcommands, returning the endpoint and the unconsumed
/// arguments.
fn endpoint_options<'a>(
    it: impl Iterator<Item = &'a String>,
) -> Result<(Endpoint, Vec<String>), String> {
    let mut socket = None;
    let mut tcp = None;
    let mut rest = Vec::new();
    let mut it = it.peekable();
    while let Some(arg) = it.next() {
        let (name, inline) = split_flag(arg);
        let value = || inline.or_else(|| it.next().cloned());
        match name {
            "--socket" => socket = Some(value().ok_or("--socket needs a path")?),
            "--tcp" => tcp = Some(value().ok_or("--tcp needs an address")?),
            _ => rest.push(arg.clone()),
        }
    }
    match (socket, tcp) {
        (Some(path), None) => Ok((Endpoint::Unix(path), rest)),
        (None, Some(addr)) => Ok((Endpoint::Tcp(addr), rest)),
        (Some(_), Some(_)) => Err("use --socket or --tcp, not both".into()),
        (None, None) => {
            Err("--socket PATH or --tcp ADDR is required (where is the daemon?)".into())
        }
    }
}

/// One client conversation's worth of replies.
struct Exchange {
    /// The handshake acknowledgment (TCP only).
    hello: Option<String>,
    /// One reply line per request line, in order.
    replies: Vec<String>,
}

/// Sends NDJSON lines to the daemon at `endpoint` and reads one reply
/// line per request.  Over TCP the versioned hello handshake is sent
/// first and its acknowledgment verified.
fn daemon_exchange(endpoint: &Endpoint, lines: &[String]) -> Result<Exchange, String> {
    let (reader, mut writer): (Box<dyn std::io::Read>, Box<dyn Write>) = match endpoint {
        Endpoint::Unix(path) => {
            let stream = std::os::unix::net::UnixStream::connect(path).map_err(|e| {
                format!("cannot connect to {path:?}: {e} (is `ujam serve` running?)")
            })?;
            let w = stream
                .try_clone()
                .map_err(|e| format!("socket error: {e}"))?;
            (Box::new(stream), Box::new(w))
        }
        Endpoint::Tcp(addr) => {
            let stream = std::net::TcpStream::connect(addr).map_err(|e| {
                format!("cannot connect to {addr:?}: {e} (is `ujam serve --tcp` running?)")
            })?;
            let w = stream
                .try_clone()
                .map_err(|e| format!("socket error: {e}"))?;
            (Box::new(stream), Box::new(w))
        }
    };
    let handshake = matches!(endpoint, Endpoint::Tcp(_));
    let mut payload = String::new();
    if handshake {
        payload.push_str(&format!(
            "{{\"id\":\"hello-cli\",\"cmd\":\"hello\",\"version\":{}}}\n",
            ujam::serve::PROTOCOL_VERSION
        ));
    }
    for line in lines {
        payload.push_str(line);
        payload.push('\n');
    }
    writer
        .write_all(payload.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut reader = std::io::BufReader::new(reader);
    let mut read_line = || -> Result<String, String> {
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .map_err(|e| format!("cannot read reply: {e}"))?;
        if reply.is_empty() {
            return Err("daemon closed the connection without replying".into());
        }
        Ok(reply.trim_end().to_string())
    };
    let hello = if handshake {
        let ack = read_line()?;
        if !ack.contains("\"ok\":true") {
            return Err(format!("daemon refused the handshake: {ack}"));
        }
        Some(ack)
    } else {
        None
    };
    let mut replies = Vec::with_capacity(lines.len());
    for _ in lines {
        replies.push(read_line()?);
    }
    Ok(Exchange { hello, replies })
}

/// Slices the embedded object value of `"field":` out of a rendered
/// reply, byte-for-byte, by balanced-brace scan (string- and
/// escape-aware).  Used when the field is not the reply's last — a
/// suffix slice only works for trailing fields.
fn extract_field_object<'r>(reply: &'r str, field: &str) -> Option<&'r str> {
    let key = format!("\"{field}\":");
    let start = reply.find(&key)? + key.len();
    let bytes = reply.as_bytes();
    if *bytes.get(start)? != b'{' {
        return None;
    }
    let (mut depth, mut in_str, mut escape) = (0usize, false, false);
    for (i, &b) in bytes[start..].iter().enumerate() {
        if escape {
            escape = false;
            continue;
        }
        match b {
            b'\\' if in_str => escape = true,
            b'"' => in_str = !in_str,
            b'{' if !in_str => depth += 1,
            b'}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Some(&reply[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Renders a parsed time-series document (the `--series` reply field)
/// as one line per window plus the latest window's exemplars.
fn render_series_human(series: &Value) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let Some(Value::Array(windows)) = series.get("windows") else {
        return "series: no windows\n".to_string();
    };
    let version = series.get("version").and_then(Value::as_f64).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "series version {version}, {} window{}:",
        windows.len(),
        if windows.len() == 1 { "" } else { "s" }
    );
    let _ = writeln!(
        out,
        "  {:>4} {:>9} {:>7} {:>8} {:>8} {:>7} {:>10}",
        "seq", "at_ms", "dur_ms", "reqs/s", "hit-rate", "shed/s", "queue-peak"
    );
    for w in windows {
        let n = |k: &str| w.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let d = |k: &str| {
            w.get("derived")
                .and_then(|d| d.get(k))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let _ = writeln!(
            out,
            "  {:>4} {:>9} {:>7} {:>8.3} {:>8.3} {:>7.3} {:>10}",
            n("seq"),
            n("at_ms"),
            n("dur_ms"),
            d("reqs_per_s"),
            d("hit_rate"),
            d("shed_per_s"),
            d("queue_depth_peak")
        );
    }
    if let Some(Value::Object(ex)) = windows.last().and_then(|w| w.get("exemplars")) {
        if !ex.is_empty() {
            let _ = writeln!(out, "exemplars (latest window):");
            for (name, v) in ex {
                let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                let _ = writeln!(out, "  {name}  max={}ns trace=#{}", f("max"), f("trace_id"));
            }
        }
    }
    out
}

/// Renders one parsed flight-recorder timeline: a summary line plus an
/// edge-duration breakdown.
fn render_timeline_human(t: &Value) -> String {
    use std::fmt::Write as _;
    let ms = |v: Option<&Value>| match v.and_then(Value::as_f64) {
        Some(v) => format!("{:.2}ms", v / 1e6),
        None => "--".to_string(),
    };
    let s = |k: &str| match t.get(k) {
        Some(Value::String(s)) if !s.is_empty() => s.as_str(),
        _ => "?",
    };
    let trace_id = t.get("trace_id").and_then(Value::as_f64).unwrap_or(0.0);
    let mut out = format!(
        "#{} id={} nest={} {}",
        trace_id,
        s("id"),
        s("nest"),
        s("outcome")
    );
    if t.get("cached") == Some(&Value::Bool(true)) {
        out.push_str(" (cached)");
    }
    if let Some(Value::Array(u)) = t.get("unroll") {
        let parts: Vec<String> = u
            .iter()
            .map(|v| format!("{}", v.as_f64().unwrap_or(0.0)))
            .collect();
        let _ = write!(out, " u=[{}]", parts.join(","));
    }
    let dur = |k: &str| t.get("durations").and_then(|d| d.get(k));
    let _ = write!(out, " total={}", ms(dur("total_ns")));
    if let Some(Value::Object(a)) = t.get("anomaly") {
        if let Some(Value::String(reason)) = a.get("reason") {
            let _ = write!(out, " !{reason}");
        }
        if let Some(Value::String(detail)) = a.get("detail") {
            if !detail.is_empty() {
                let _ = write!(out, " ({detail})");
            }
        }
    }
    let _ = write!(
        out,
        "\n   queue={} cache={} analysis={} flush={}",
        ms(dur("queue_ns")),
        ms(dur("cache_ns")),
        ms(dur("analysis_ns")),
        ms(dur("flush_ns")),
    );
    out
}

/// Renders a parsed flight-recorder document: a header, the recent
/// ring, and the anomaly ring.
fn render_flight_human(flight: &Value, slow_only: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let f = |k: &str| flight.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "flight recorder: version {}, capacity {}, slow_ms {}, next trace id {}",
        f("version"),
        f("capacity"),
        f("slow_ms"),
        f("next_trace_id")
    );
    for (title, key) in [("recent", "recent"), ("anomalies", "anomalies")] {
        if slow_only && key == "recent" {
            continue;
        }
        let Some(Value::Array(timelines)) = flight.get(key) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{title} ({} timeline{}):",
            timelines.len(),
            if timelines.len() == 1 { "" } else { "s" }
        );
        for t in timelines {
            let _ = writeln!(out, "{}", render_timeline_human(t));
        }
    }
    out
}

/// Renders a parsed metrics snapshot as the aligned tables a human
/// wants at a terminal (the daemon ships JSON; see `--json` for that).
/// A hit-rate line is computed from the `serve.cache.hits`/`misses`
/// totals; the per-shard `serve.cache.shardK.*` counters, which only
/// matter when chasing shard imbalance, are kept only when `verbose`.
fn render_stats_human(stats: &Value, verbose: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if let Some(v) = stats.get("version").and_then(Value::as_f64) {
        let _ = writeln!(out, "snapshot version {v}");
    }
    fn section(
        out: &mut String,
        title: &str,
        body: Option<&Value>,
        f: &dyn Fn(&mut String, &Value),
    ) {
        use std::fmt::Write as _;
        let Some(Value::Object(m)) = body else { return };
        if m.is_empty() {
            return;
        }
        let wide = m.keys().map(String::len).max().unwrap_or(0);
        let _ = writeln!(out, "{title}:");
        for (name, v) in m {
            let mut line = format!("  {name:wide$}  ");
            f(&mut line, v);
            let _ = writeln!(out, "{}", line.trim_end());
        }
    }
    let plain: &dyn Fn(&mut String, &Value) = &|line, v| {
        let _ = write!(line, "{}", v.as_f64().unwrap_or(0.0));
    };
    let mut counters = stats.get("counters").cloned();
    if let Some(Value::Object(m)) = &mut counters {
        let count = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let (hit, miss) = (count("serve.cache.hits"), count("serve.cache.misses"));
        if hit + miss > 0.0 {
            let rate = 100.0 * hit / (hit + miss);
            let _ = writeln!(out, "cache hit-rate {rate:.1}% ({hit} hits, {miss} misses)");
        }
        if !verbose {
            m.retain(|k, _| !k.starts_with("serve.cache.shard"));
        }
    }
    section(&mut out, "counters", counters.as_ref(), plain);
    section(&mut out, "gauges", stats.get("gauges"), plain);
    section(
        &mut out,
        "histograms",
        stats.get("histograms"),
        &|line, v| {
            let field = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let _ = write!(
                line,
                "count {}  mean {:.1}  p50 {}  p90 {}  p99 {}",
                field("count"),
                field("mean"),
                field("p50"),
                field("p90"),
                field("p99")
            );
        },
    );
    out
}

fn lookup(name: Option<&String>) -> Result<LoopNest, String> {
    let name = name.ok_or("missing loop name")?;
    let lower = name.to_ascii_lowercase();
    if lower.ends_with(".f") || lower.ends_with(".f77") || lower.ends_with(".for") {
        let src =
            std::fs::read_to_string(name).map_err(|e| format!("cannot read {name:?}: {e}"))?;
        return ujam::fortran::parse(&src).map_err(|e| format!("{name}: {e}"));
    }
    named_nest(name).ok_or_else(|| format!("unknown kernel {name:?} (try `ujam list`)"))
}

/// How much trace output `ujam optimize` should render.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceMode {
    Off,
    Human,
    Json,
    Chrome,
}

struct OptimizeOptions {
    machine: MachineModel,
    model: BalanceModel,
    cost: CostModelKind,
    trace: TraceMode,
    explain: bool,
    config: SearchConfig,
}

impl OptimizeOptions {
    /// Whether the pipeline should run with a collecting sink at all.
    fn observing(&self) -> bool {
        self.trace != TraceMode::Off || self.explain
    }
}

fn optimize_options<'a>(it: impl Iterator<Item = &'a String>) -> Result<OptimizeOptions, String> {
    let mut machine = MachineModel::dec_alpha();
    let mut model = BalanceModel::CacheAware;
    let mut cost = CostModelKind::Analytic;
    let mut trace = TraceMode::Off;
    let mut explain = false;
    let mut config = SearchConfig::default();
    let mut it = it.peekable();
    while let Some(flag) = it.next() {
        let (name, inline) = split_flag(flag);
        match name {
            "--machine" => machine = machine_named(inline.or_else(|| it.next().cloned()))?,
            "--model" => model = model_named(inline.or_else(|| it.next().cloned()))?,
            "--cost-model" => {
                let v = inline.or_else(|| it.next().cloned());
                cost = v.as_deref().and_then(CostModelKind::parse).ok_or_else(|| {
                    format!(
                        "bad --cost-model value {v:?} \
                             (expected analytic or profiled)"
                    )
                })?;
            }
            "--max-unroll-loops" => {
                let v = inline.or_else(|| it.next().cloned());
                config.max_unroll_loops = v
                    .as_deref()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| {
                        format!(
                            "bad --max-unroll-loops value {v:?} \
                             (expected a non-negative integer; 0 = unbounded)"
                        )
                    })?;
            }
            "--code-budget" => {
                let v = inline.or_else(|| it.next().cloned());
                let budget = v
                    .as_deref()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&b| b > 0)
                    .ok_or_else(|| {
                        format!("bad --code-budget value {v:?} (expected a positive integer)")
                    })?;
                config.code_budget = Some(budget);
            }
            "--trace" if inline.is_none() => trace = TraceMode::Human,
            "--trace" => {
                trace = match inline.as_deref() {
                    Some("json") => TraceMode::Json,
                    Some("human") => TraceMode::Human,
                    Some("chrome") => TraceMode::Chrome,
                    other => {
                        return Err(format!(
                            "bad --trace value {:?} (expected json, human, or chrome)",
                            other.unwrap_or("")
                        ))
                    }
                }
            }
            "--explain" if inline.is_none() => explain = true,
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(OptimizeOptions {
        machine,
        model,
        cost,
        trace,
        explain,
        config,
    })
}

struct ProfileOptions {
    nest: Option<String>,
    machine: MachineModel,
    geometry: Option<CacheGeometry>,
    out: Option<String>,
}

/// Parses `ujam profile` arguments: a positional `<loop>` or
/// `--kernel NAME`, plus `--machine`, `--cache-geometry CAP:LINE:WAYS`,
/// and `--profile-out PATH` — every value flag in both `--flag V` and
/// `--flag=V` forms.
fn profile_options<'a>(it: impl Iterator<Item = &'a String>) -> Result<ProfileOptions, String> {
    let mut nest = None;
    let mut machine = MachineModel::dec_alpha();
    let mut geometry = None;
    let mut out = None;
    let mut it = it.peekable();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            if nest.replace(flag.clone()).is_some() {
                return Err("profile takes one loop (positional or --kernel)".into());
            }
            continue;
        }
        let (name, inline) = split_flag(flag);
        match name {
            "--kernel" => {
                let v = inline
                    .or_else(|| it.next().cloned())
                    .ok_or("--kernel needs a name")?;
                if nest.replace(v).is_some() {
                    return Err("profile takes one loop (positional or --kernel)".into());
                }
            }
            "--machine" => machine = machine_named(inline.or_else(|| it.next().cloned()))?,
            "--cache-geometry" => {
                let v = inline.or_else(|| it.next().cloned());
                geometry = Some(parse_geometry(v.as_deref())?);
            }
            "--profile-out" => {
                out = Some(
                    inline
                        .or_else(|| it.next().cloned())
                        .ok_or("--profile-out needs a path")?,
                );
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(ProfileOptions {
        nest,
        machine,
        geometry,
        out,
    })
}

/// Parses and validates a `CAP:LINE:WAYS` cache geometry (all bytes /
/// bytes / ways, all positive, capacity a whole number of sets).
fn parse_geometry(v: Option<&str>) -> Result<CacheGeometry, String> {
    let bad = || {
        format!(
            "bad --cache-geometry value {v:?} \
             (expected CAPACITY:LINE:WAYS in bytes, e.g. 8192:32:1)"
        )
    };
    let parts: Vec<usize> = v
        .unwrap_or("")
        .split(':')
        .map(|p| p.parse::<usize>().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    let [capacity_bytes, line_bytes, ways] = parts[..] else {
        return Err(bad());
    };
    let g = CacheGeometry {
        capacity_bytes,
        line_bytes,
        ways,
    };
    g.validate()
        .map_err(|e| format!("bad --cache-geometry value: {e}"))?;
    Ok(g)
}

/// Parses `--machine` and `--model` for `simulate` and `schedule`.
fn options<'a>(
    mut it: impl Iterator<Item = &'a String>,
) -> Result<(MachineModel, BalanceModel), String> {
    let mut machine = MachineModel::dec_alpha();
    let mut model = BalanceModel::CacheAware;
    while let Some(flag) = it.next() {
        let (name, inline) = split_flag(flag);
        match name {
            "--machine" => machine = machine_named(inline.or_else(|| it.next().cloned()))?,
            "--model" => model = model_named(inline.or_else(|| it.next().cloned()))?,
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok((machine, model))
}

/// Splits `--flag=V` into the flag and its inline value, so every value
/// flag takes both `--flag V` and `--flag=V`.
fn split_flag(flag: &str) -> (&str, Option<String>) {
    match flag.split_once('=') {
        Some((name, v)) => (name, Some(v.to_string())),
        None => (flag, None),
    }
}

/// The machine preset a `--machine` value names.
fn machine_named(v: Option<String>) -> Result<MachineModel, String> {
    v.as_deref()
        .and_then(MachineModel::by_name)
        .ok_or_else(|| format!("bad --machine value {:?}", v.as_deref()))
}

/// The balance model a `--model` value names.
fn model_named(v: Option<String>) -> Result<BalanceModel, String> {
    v.as_deref()
        .and_then(BalanceModel::parse)
        .ok_or_else(|| format!("bad --model value {:?}", v.as_deref()))
}

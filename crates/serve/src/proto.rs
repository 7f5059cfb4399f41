//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one reply per line, always in request order.
//! Requests:
//!
//! ```json
//! {"id":"r1","kernel":"dmxpy1"}
//! {"id":"r2","source":"      DO 10 J = 1, 240\n...","deadline_ms":50}
//! ```
//!
//! Exactly one of `kernel` (a Table 2 name) or `source` (inline Fortran)
//! selects the nest; `machine` (`alpha`/`parisc`/`prefetch`), `model`
//! (`cache`/`allhits`), and `deadline_ms` are optional.  Replies are
//! either
//!
//! ```json
//! {"id":"r1","ok":true,"nest":"dmxpy1","unroll":[15,0],"balance":0.533,
//!  "original_balance":1.0,"registers":16,"cached":false}
//! ```
//!
//! or a structured error that names what went wrong without ever taking
//! the daemon down:
//!
//! ```json
//! {"id":"r2","ok":false,"error":{"kind":"parse","message":"...","line":3}}
//! ```
//!
//! Malformed lines (bad JSON, missing `id`, unknown fields) still get a
//! reply — with `"id":null` when no id could be recovered — so a client
//! that pipelines `n` lines always reads exactly `n` replies.

use std::fmt::Write as _;

use ujam_core::{BalanceModel, CostModelKind};
use ujam_machine::MachineModel;
use ujam_trace::json::{self, Value};

use crate::cache::Decision;

/// The wire-protocol version the socket handshake negotiates.
///
/// A socket connection's first line, over TCP or a Unix socket, must be
/// `{"id":"...","cmd":"hello","version":1}`; the daemon answers
/// `{"id":"...","ok":true,"protocol":1}` and only then accepts
/// requests.  Unknown versions get a structured `bad_version` error and
/// the connection closes.  The stdin loop needs no handshake: a pipe
/// has one client, the parent that spawned the daemon (a hello sent
/// there is answered identically).
pub const PROTOCOL_VERSION: u64 = 1;

/// Which nest a request wants optimized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// A kernel name from the Table 2 suite (`ujam list`).
    Kernel(String),
    /// Inline Fortran-77 source holding one DO nest.
    Inline(String),
}

/// A parsed, validated optimization request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen request id, echoed verbatim in the reply.
    pub id: String,
    /// The nest to optimize.
    pub source: Source,
    /// Target machine (default DEC Alpha).
    pub machine: MachineModel,
    /// Balance model (default cache-aware).
    pub model: BalanceModel,
    /// Cache-cost backend for the search (default analytic; `profiled`
    /// runs the reuse-distance profiler per candidate).
    pub cost_model: CostModelKind,
    /// Optional deadline in milliseconds; `Some(0)` is already expired.
    pub deadline_ms: Option<u64>,
    /// Most loops the unroll vector may span (`0` = unbounded); `None`
    /// keeps the paper's default of 2.
    pub max_unroll_loops: Option<usize>,
    /// Code-size budget: most statements the unrolled body may hold.
    pub code_budget: Option<usize>,
    /// Whether to echo the daemon-assigned flight-recorder trace id in
    /// the reply (`"trace":true`).  Off by default so replies stay
    /// byte-identical with non-daemon `optimize_batch` output.
    pub trace: bool,
}

/// Machine-readable failure categories for error replies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not a well-formed request object.
    BadRequest,
    /// Inline Fortran source failed to parse.
    Parse,
    /// The named kernel is not in the suite.
    UnknownKernel,
    /// The nest failed structural validation or could not be transformed.
    InvalidNest,
    /// The request's deadline elapsed before a plan was found.
    DeadlineExceeded,
    /// The optimizer failed unexpectedly; the daemon kept running.
    Internal,
    /// The daemon shed this request under load; retry after
    /// `error.retry_ms` milliseconds.
    Overloaded,
    /// A frame exceeded the protocol's maximum line length and was
    /// discarded (see `MAX_LINE_BYTES`).
    FrameTooLong,
    /// A socket connection sent a request before the versioned hello.
    HandshakeRequired,
    /// The hello named a protocol version this daemon does not speak.
    BadVersion,
}

impl ErrorKind {
    /// The `error.kind` string on the wire.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Parse => "parse",
            ErrorKind::UnknownKernel => "unknown_kernel",
            ErrorKind::InvalidNest => "invalid_nest",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Internal => "internal",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::FrameTooLong => "frame_too_long",
            ErrorKind::HandshakeRequired => "handshake_required",
            ErrorKind::BadVersion => "bad_version",
        }
    }
}

/// A structured error reply.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorReply {
    /// The request id, when one could be recovered from the line.
    pub id: Option<String>,
    /// Failure category.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub message: String,
    /// 1-based source line for [`ErrorKind::Parse`] errors.
    pub line: Option<usize>,
    /// Suggested client backoff for [`ErrorKind::Overloaded`] replies.
    pub retry_ms: Option<u64>,
    /// Flight-recorder trace id, echoed only when the request opted in
    /// with `"trace":true`.
    pub trace_id: Option<u64>,
}

/// A successful reply: the decision, not the transformed body — clients
/// that want the rewritten nest re-run `ujam optimize` locally with the
/// reported vector.
#[derive(Clone, Debug, PartialEq)]
pub struct OkReply {
    /// The request id, echoed.
    pub id: String,
    /// The nest's name.
    pub nest: String,
    /// The chosen unroll vector, one entry per loop.
    pub unroll: Vec<u32>,
    /// Predicted balance at the chosen vector.
    pub balance: f64,
    /// Predicted balance of the untransformed nest.
    pub original_balance: f64,
    /// Registers consumed by scalar replacement at the chosen vector.
    pub registers: i64,
    /// Whether the decision was served from the cache.
    pub cached: bool,
    /// Flight-recorder trace id, echoed only when the request opted in
    /// with `"trace":true`.
    pub trace_id: Option<u64>,
}

/// One reply line, success or failure.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The optimization succeeded.
    Ok(OkReply),
    /// The request failed in a structured way.
    Error(ErrorReply),
}

/// The borrowed fields of an ok reply: one renderer for an owned
/// [`OkReply`] and for a cache hit rendered straight from the shared
/// [`Decision`], which is never copied into an `OkReply`.
struct OkFields<'a> {
    id: &'a str,
    nest: &'a str,
    unroll: &'a [u32],
    balance: f64,
    original_balance: f64,
    registers: i64,
    cached: bool,
    trace_id: Option<u64>,
}

impl OkFields<'_> {
    fn write(&self, out: &mut String) {
        out.push_str("{\"id\":");
        json::write_escaped(out, self.id);
        out.push_str(",\"ok\":true,\"nest\":");
        json::write_escaped(out, self.nest);
        out.push_str(",\"unroll\":[");
        for (i, u) in self.unroll.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{u}");
        }
        out.push_str("],\"balance\":");
        json::write_f64(out, self.balance);
        out.push_str(",\"original_balance\":");
        json::write_f64(out, self.original_balance);
        let _ = write!(out, ",\"registers\":{}", self.registers);
        out.push_str(",\"cached\":");
        out.push_str(if self.cached { "true" } else { "false" });
        if let Some(t) = self.trace_id {
            let _ = write!(out, ",\"trace_id\":{t}");
        }
        out.push('}');
    }
}

/// Renders the ok reply for `decision` — byte-identical to rendering
/// the equivalent [`OkReply`].
pub(crate) fn render_decision(
    id: &str,
    decision: &Decision,
    cached: bool,
    trace_id: Option<u64>,
) -> String {
    let mut out = String::with_capacity(256);
    OkFields {
        id,
        nest: &decision.nest,
        unroll: &decision.unroll,
        balance: decision.balance,
        original_balance: decision.original_balance,
        registers: decision.registers,
        cached,
        trace_id,
    }
    .write(&mut out);
    out
}

impl Reply {
    /// Renders the reply as a single JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self {
            Reply::Ok(r) => OkFields {
                id: &r.id,
                nest: &r.nest,
                unroll: &r.unroll,
                balance: r.balance,
                original_balance: r.original_balance,
                registers: r.registers,
                cached: r.cached,
                trace_id: r.trace_id,
            }
            .write(&mut out),
            Reply::Error(e) => {
                out.push_str("{\"id\":");
                match &e.id {
                    Some(id) => json::write_escaped(&mut out, id),
                    None => out.push_str("null"),
                }
                out.push_str(",\"ok\":false,\"error\":{\"kind\":");
                json::write_escaped(&mut out, e.kind.as_str());
                out.push_str(",\"message\":");
                json::write_escaped(&mut out, &e.message);
                if let Some(line) = e.line {
                    out.push_str(",\"line\":");
                    out.push_str(&line.to_string());
                }
                if let Some(ms) = e.retry_ms {
                    out.push_str(",\"retry_ms\":");
                    out.push_str(&ms.to_string());
                }
                out.push('}');
                if let Some(t) = e.trace_id {
                    out.push_str(",\"trace_id\":");
                    out.push_str(&t.to_string());
                }
                out.push('}');
            }
        }
        out
    }

    /// The reply with its `trace_id` echo set (a no-op for `None`).
    pub fn with_trace_id(mut self, trace_id: Option<u64>) -> Reply {
        match &mut self {
            Reply::Ok(r) => r.trace_id = trace_id,
            Reply::Error(e) => e.trace_id = trace_id,
        }
        self
    }
}

/// Admin commands addressed to the daemon itself rather than the
/// optimizer, carried on the same NDJSON channel via a `cmd` field:
///
/// ```json
/// {"id":"s1","cmd":"stats"}
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdminCmd {
    /// Return a versioned metrics snapshot (`ujam stats`), optionally
    /// with the time-series window ring (`"series":true`).
    Stats {
        /// Whether to include the series ring in the reply.
        series: bool,
    },
    /// Return the flight-recorder snapshot (`ujam flight`): recent
    /// request timelines plus the anomaly ring.
    Flight {
        /// Whether to drop the recent ring and carry only anomalies.
        slow_only: bool,
    },
    /// The versioned transport handshake; `version` is the client's
    /// claimed [`PROTOCOL_VERSION`] (`None` when the field was absent).
    Hello {
        /// The protocol version the client offered.
        version: Option<u64>,
    },
    /// Ask the daemon to stop accepting work and exit its serve loop
    /// cleanly after answering this line.
    Shutdown,
}

/// A parsed admin request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdminRequest {
    /// Client-chosen request id, echoed verbatim in the reply.
    pub id: String,
    /// What the client asked the daemon to do.
    pub cmd: AdminCmd,
}

/// One incoming line, dispatched by shape: any well-formed object
/// carrying a `cmd` field is an admin request; everything else goes
/// down the optimization path (including its error handling).
#[derive(Clone, Debug)]
pub enum Incoming {
    /// An optimization request ([`Request`]).
    Optimize(Request),
    /// An admin request ([`AdminRequest`]).
    Admin(AdminRequest),
}

impl Incoming {
    /// Parses one line, dispatching on the presence of `cmd`.  Every
    /// failure is a structured [`Reply::Error`] carrying whatever id
    /// could be recovered.
    pub fn parse(line: &str) -> Result<Incoming, Reply> {
        let doc = parse_json(line)?;
        if let Value::Object(obj) = &doc {
            if obj.contains_key("cmd") {
                return AdminRequest::from_object(obj).map(Incoming::Admin);
            }
        }
        Request::from_doc(&doc).map(Incoming::Optimize)
    }
}

impl AdminRequest {
    fn from_object(obj: &std::collections::BTreeMap<String, Value>) -> Result<AdminRequest, Reply> {
        let id = match obj.get("id") {
            Some(Value::String(s)) => s.clone(),
            Some(_) => {
                return Err(error_reply(
                    None,
                    ErrorKind::BadRequest,
                    "\"id\" must be a string",
                ))
            }
            None => {
                return Err(error_reply(
                    None,
                    ErrorKind::BadRequest,
                    "missing \"id\" field",
                ))
            }
        };
        let is_hello = obj.get("cmd") == Some(&Value::String("hello".into()));
        let is_stats = obj.get("cmd") == Some(&Value::String("stats".into()));
        let is_flight = obj.get("cmd") == Some(&Value::String("flight".into()));
        for key in obj.keys() {
            let known = matches!(key.as_str(), "id" | "cmd")
                || (is_hello && key == "version")
                || (is_stats && key == "series")
                || (is_flight && key == "slow_only");
            if !known {
                return Err(error_reply(
                    Some(&id),
                    ErrorKind::BadRequest,
                    format!("unknown field {key:?}"),
                ));
            }
        }
        let flag = |name: &str| -> Result<bool, Reply> {
            match obj.get(name) {
                None => Ok(false),
                Some(Value::Bool(b)) => Ok(*b),
                Some(_) => Err(error_reply(
                    Some(&id),
                    ErrorKind::BadRequest,
                    format!("{name:?} must be a boolean"),
                )),
            }
        };
        let cmd = match obj.get("cmd") {
            Some(Value::String(s)) if s == "stats" => AdminCmd::Stats {
                series: flag("series")?,
            },
            Some(Value::String(s)) if s == "flight" => AdminCmd::Flight {
                slow_only: flag("slow_only")?,
            },
            Some(Value::String(s)) if s == "shutdown" => AdminCmd::Shutdown,
            Some(Value::String(s)) if s == "hello" => {
                let version = match obj.get("version") {
                    None => None,
                    Some(Value::Number(n))
                        if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 =>
                    {
                        Some(*n as u64)
                    }
                    Some(_) => {
                        return Err(error_reply(
                            Some(&id),
                            ErrorKind::BadRequest,
                            "\"version\" must be a non-negative integer",
                        ))
                    }
                };
                AdminCmd::Hello { version }
            }
            Some(Value::String(other)) => {
                return Err(error_reply(
                    Some(&id),
                    ErrorKind::BadRequest,
                    format!(
                    "unknown cmd {other:?} (try \"stats\", \"flight\", \"hello\", or \"shutdown\")"
                ),
                ))
            }
            _ => {
                return Err(error_reply(
                    Some(&id),
                    ErrorKind::BadRequest,
                    "\"cmd\" must be a string",
                ))
            }
        };
        Ok(AdminRequest { id, cmd })
    }
}

/// Renders a `stats` admin reply: the echoed id plus the snapshot
/// object produced by `MetricsSnapshot::render_json` embedded verbatim
/// under `"stats"`.
pub fn stats_reply(id: &str, snapshot_json: &str) -> String {
    let mut out = String::from("{\"id\":");
    json::write_escaped(&mut out, id);
    out.push_str(",\"ok\":true,\"stats\":");
    out.push_str(snapshot_json);
    out.push('}');
    out
}

/// Renders a `stats` reply that also carries the time-series ring:
/// `series` is embedded *before* `stats` so clients extracting the
/// trailing snapshot object keep working unchanged.
pub fn stats_series_reply(id: &str, series_json: &str, snapshot_json: &str) -> String {
    let mut out = String::from("{\"id\":");
    json::write_escaped(&mut out, id);
    out.push_str(",\"ok\":true,\"series\":");
    out.push_str(series_json);
    out.push_str(",\"stats\":");
    out.push_str(snapshot_json);
    out.push('}');
    out
}

/// Renders a `flight` admin reply: the echoed id plus the recorder
/// snapshot produced by `FlightRecorder::snapshot_json` embedded
/// verbatim under `"flight"`.
pub fn flight_reply(id: &str, flight_json: &str) -> String {
    let mut out = String::from("{\"id\":");
    json::write_escaped(&mut out, id);
    out.push_str(",\"ok\":true,\"flight\":");
    out.push_str(flight_json);
    out.push('}');
    out
}

/// Renders a successful `hello` handshake acknowledgment.
pub fn hello_reply(id: &str) -> String {
    let mut out = String::from("{\"id\":");
    json::write_escaped(&mut out, id);
    out.push_str(",\"ok\":true,\"protocol\":");
    out.push_str(&PROTOCOL_VERSION.to_string());
    out.push('}');
    out
}

/// Renders a `shutdown` acknowledgment (the daemon exits after
/// flushing it).
pub fn shutdown_reply(id: &str) -> String {
    let mut out = String::from("{\"id\":");
    json::write_escaped(&mut out, id);
    out.push_str(",\"ok\":true,\"shutdown\":true}");
    out
}

/// Shorthand for a [`Reply::Error`] with no source line.
pub(crate) fn error_reply(id: Option<&str>, kind: ErrorKind, message: impl Into<String>) -> Reply {
    Reply::Error(ErrorReply {
        id: id.map(str::to_owned),
        kind,
        message: message.into(),
        line: None,
        retry_ms: None,
        trace_id: None,
    })
}

/// The structured load-shed reply: `overloaded`, with the suggested
/// client backoff embedded as `error.retry_ms`.
pub fn overloaded_reply(id: Option<&str>, retry_ms: u64) -> Reply {
    Reply::Error(ErrorReply {
        id: id.map(str::to_owned),
        kind: ErrorKind::Overloaded,
        message: format!("daemon overloaded; retry in {retry_ms} ms"),
        line: None,
        retry_ms: Some(retry_ms),
        trace_id: None,
    })
}

/// Recovers the `id` of a line without fully validating it, so shed
/// and framing errors can still echo the client's id when one is
/// present.
pub fn recover_id(line: &str) -> Option<String> {
    match json::parse(line) {
        Ok(Value::Object(obj)) => match obj.get("id") {
            Some(Value::String(s)) => Some(s.clone()),
            _ => None,
        },
        _ => None,
    }
}

/// Parses one line as JSON, or the `bad_request` reply saying why not.
fn parse_json(line: &str) -> Result<Value, Reply> {
    json::parse(line)
        .map_err(|e| error_reply(None, ErrorKind::BadRequest, format!("invalid JSON: {e}")))
}

impl Request {
    /// Parses one request line.  Every failure is a structured
    /// [`Reply::Error`] carrying whatever id could be recovered, so the
    /// caller can always answer the line.
    pub fn parse(line: &str) -> Result<Request, Reply> {
        Request::from_doc(&parse_json(line)?)
    }

    /// Validates an already-parsed request document.
    fn from_doc(doc: &Value) -> Result<Request, Reply> {
        let obj = match doc {
            Value::Object(m) => m,
            _ => {
                return Err(error_reply(
                    None,
                    ErrorKind::BadRequest,
                    "request must be a JSON object",
                ))
            }
        };
        // Recover the id first so later errors can echo it.
        let id = match obj.get("id") {
            Some(Value::String(s)) => s.clone(),
            Some(_) => {
                return Err(error_reply(
                    None,
                    ErrorKind::BadRequest,
                    "\"id\" must be a string",
                ))
            }
            None => {
                return Err(error_reply(
                    None,
                    ErrorKind::BadRequest,
                    "missing \"id\" field",
                ))
            }
        };
        let fail = |msg: String| error_reply(Some(&id), ErrorKind::BadRequest, msg);
        for key in obj.keys() {
            if !matches!(
                key.as_str(),
                "id" | "kernel"
                    | "source"
                    | "machine"
                    | "model"
                    | "cost_model"
                    | "deadline_ms"
                    | "max_unroll_loops"
                    | "code_budget"
                    | "trace"
            ) {
                return Err(fail(format!("unknown field {key:?}")));
            }
        }
        let source = match (obj.get("kernel"), obj.get("source")) {
            (Some(Value::String(k)), None) => Source::Kernel(k.clone()),
            (None, Some(Value::String(s))) => Source::Inline(s.clone()),
            (Some(_), Some(_)) => {
                return Err(fail(
                    "give either \"kernel\" or \"source\", not both".into(),
                ))
            }
            (None, None) => return Err(fail("missing \"kernel\" or \"source\"".into())),
            _ => return Err(fail("\"kernel\" and \"source\" must be strings".into())),
        };
        let machine = match obj.get("machine") {
            None => MachineModel::dec_alpha(),
            Some(Value::String(s)) => {
                MachineModel::by_name(s).ok_or_else(|| fail(format!("unknown machine {s:?}")))?
            }
            Some(_) => return Err(fail("\"machine\" must be a string".into())),
        };
        let model = match obj.get("model") {
            None => BalanceModel::CacheAware,
            Some(Value::String(s)) => {
                BalanceModel::parse(s).ok_or_else(|| fail(format!("unknown model {s:?}")))?
            }
            Some(_) => return Err(fail("\"model\" must be a string".into())),
        };
        let cost_model = match obj.get("cost_model") {
            None => CostModelKind::Analytic,
            Some(Value::String(s)) => match CostModelKind::parse(s) {
                Some(kind) => kind,
                None => return Err(fail(format!("unknown cost_model {s:?}"))),
            },
            Some(_) => return Err(fail("\"cost_model\" must be a string".into())),
        };
        let deadline_ms = match obj.get("deadline_ms") {
            None => None,
            Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            Some(_) => {
                return Err(fail(
                    "\"deadline_ms\" must be a non-negative integer".into(),
                ))
            }
        };
        let max_unroll_loops = match obj.get("max_unroll_loops") {
            None => None,
            Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as usize)
            }
            Some(_) => {
                return Err(fail(
                    "\"max_unroll_loops\" must be a non-negative integer".into(),
                ))
            }
        };
        let code_budget = match obj.get("code_budget") {
            None => None,
            Some(Value::Number(n)) if *n >= 1.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as usize)
            }
            Some(_) => return Err(fail("\"code_budget\" must be a positive integer".into())),
        };
        let trace = match obj.get("trace") {
            None => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(fail("\"trace\" must be a boolean".into())),
        };
        Ok(Request {
            id,
            source,
            machine,
            model,
            cost_model,
            deadline_ms,
            max_unroll_loops,
            code_budget,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_render_byte_identically_to_ok_replies() {
        let d = Decision {
            nest: "mm\"jki".into(),
            unroll: vec![3, 0, 12],
            balance: 0.1 + 0.2,
            original_balance: 1.0,
            registers: -4,
        };
        for (cached, trace_id) in [(false, None), (true, Some(42))] {
            let owned = Reply::Ok(OkReply {
                id: "r\u{1}".into(),
                nest: d.nest.clone(),
                unroll: d.unroll.clone(),
                balance: d.balance,
                original_balance: d.original_balance,
                registers: d.registers,
                cached,
                trace_id,
            });
            assert_eq!(
                render_decision("r\u{1}", &d, cached, trace_id),
                owned.render()
            );
        }
    }

    #[test]
    fn parses_a_minimal_kernel_request() {
        let r = Request::parse(r#"{"id":"a","kernel":"dmxpy1"}"#).expect("parses");
        assert_eq!(r.id, "a");
        assert_eq!(r.source, Source::Kernel("dmxpy1".into()));
        assert_eq!(r.machine.name(), MachineModel::dec_alpha().name());
        assert_eq!(r.model, BalanceModel::CacheAware);
        assert_eq!(r.cost_model, CostModelKind::Analytic);
        assert_eq!(r.deadline_ms, None);
        assert_eq!(r.max_unroll_loops, None);
        assert_eq!(r.code_budget, None);
        assert!(!r.trace, "trace echo is opt-in");
    }

    #[test]
    fn parses_every_optional_field() {
        let r = Request::parse(
            r#"{"id":"b","source":"x","machine":"parisc","model":"allhits","cost_model":"profiled","deadline_ms":250,"max_unroll_loops":3,"code_budget":128,"trace":true}"#,
        )
        .expect("parses");
        assert_eq!(r.source, Source::Inline("x".into()));
        assert_eq!(r.machine.name(), MachineModel::hp_parisc().name());
        assert_eq!(r.model, BalanceModel::AllHits);
        assert_eq!(r.cost_model, CostModelKind::Profiled);
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.max_unroll_loops, Some(3));
        assert_eq!(r.code_budget, Some(128));
        assert!(r.trace);
    }

    #[test]
    fn cost_model_parses_strictly() {
        for (wire, want) in [
            ("analytic", CostModelKind::Analytic),
            ("profiled", CostModelKind::Profiled),
        ] {
            let r = Request::parse(&format!(
                r#"{{"id":"a","kernel":"mmjki","cost_model":"{wire}"}}"#
            ))
            .expect("parses");
            assert_eq!(r.cost_model, want);
        }
        for line in [
            r#"{"id":"x","kernel":"a","cost_model":"exact"}"#,
            r#"{"id":"x","kernel":"a","cost_model":"blended"}"#,
            r#"{"id":"x","kernel":"a","cost_model":7}"#,
        ] {
            match Request::parse(line) {
                Err(Reply::Error(e)) => {
                    assert_eq!(e.kind, ErrorKind::BadRequest, "{line}");
                    assert_eq!(e.id.as_deref(), Some("x"), "{line}");
                }
                other => panic!("{line}: expected bad_request, got {other:?}"),
            }
        }
    }

    #[test]
    fn register_tile_knobs_parse_strictly() {
        // 0 unrolled loops means "unbounded", so it is accepted; a
        // 0-statement code budget is meaningless and rejected.
        let r =
            Request::parse(r#"{"id":"a","kernel":"mmjki","max_unroll_loops":0}"#).expect("parses");
        assert_eq!(r.max_unroll_loops, Some(0));
        for line in [
            r#"{"id":"x","kernel":"a","max_unroll_loops":-1}"#,
            r#"{"id":"x","kernel":"a","max_unroll_loops":1.5}"#,
            r#"{"id":"x","kernel":"a","max_unroll_loops":"two"}"#,
            r#"{"id":"x","kernel":"a","code_budget":0}"#,
            r#"{"id":"x","kernel":"a","code_budget":-8}"#,
            r#"{"id":"x","kernel":"a","code_budget":true}"#,
        ] {
            match Request::parse(line) {
                Err(Reply::Error(e)) => {
                    assert_eq!(e.kind, ErrorKind::BadRequest, "{line}");
                    assert_eq!(e.id.as_deref(), Some("x"), "{line}");
                }
                other => panic!("{line}: expected bad_request, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_lines_yield_bad_request_with_recovered_id() {
        for (line, want_id) in [
            ("not json", None),
            ("[1,2]", None),
            (r#"{"kernel":"dmxpy1"}"#, None),
            (r#"{"id":7,"kernel":"dmxpy1"}"#, None),
            (r#"{"id":"x"}"#, Some("x")),
            (r#"{"id":"x","kernel":"a","source":"b"}"#, Some("x")),
            (r#"{"id":"x","kernel":"a","bogus":1}"#, Some("x")),
            (r#"{"id":"x","kernel":"a","machine":"cray"}"#, Some("x")),
            (r#"{"id":"x","kernel":"a","model":"magic"}"#, Some("x")),
            (r#"{"id":"x","kernel":"a","deadline_ms":-1}"#, Some("x")),
            (r#"{"id":"x","kernel":"a","deadline_ms":1.5}"#, Some("x")),
        ] {
            match Request::parse(line) {
                Err(Reply::Error(e)) => {
                    assert_eq!(e.kind, ErrorKind::BadRequest, "{line}");
                    assert_eq!(e.id.as_deref(), want_id, "{line}");
                }
                other => panic!("{line}: expected bad_request, got {other:?}"),
            }
        }
    }

    #[test]
    fn admin_lines_dispatch_on_cmd() {
        match Incoming::parse(r#"{"id":"s1","cmd":"stats"}"#) {
            Ok(Incoming::Admin(a)) => {
                assert_eq!(a.id, "s1");
                assert_eq!(a.cmd, AdminCmd::Stats { series: false });
            }
            other => panic!("expected admin request, got {other:?}"),
        }
        match Incoming::parse(r#"{"id":"s2","cmd":"stats","series":true}"#) {
            Ok(Incoming::Admin(a)) => assert_eq!(a.cmd, AdminCmd::Stats { series: true }),
            other => panic!("expected admin request, got {other:?}"),
        }
        match Incoming::parse(r#"{"id":"f1","cmd":"flight"}"#) {
            Ok(Incoming::Admin(a)) => assert_eq!(a.cmd, AdminCmd::Flight { slow_only: false }),
            other => panic!("expected admin request, got {other:?}"),
        }
        match Incoming::parse(r#"{"id":"f2","cmd":"flight","slow_only":true}"#) {
            Ok(Incoming::Admin(a)) => assert_eq!(a.cmd, AdminCmd::Flight { slow_only: true }),
            other => panic!("expected admin request, got {other:?}"),
        }
        // No `cmd` → the ordinary optimization path.
        assert!(matches!(
            Incoming::parse(r#"{"id":"a","kernel":"dmxpy1"}"#),
            Ok(Incoming::Optimize(_))
        ));
        // Bad admin lines are structured errors with the recovered id.
        for (line, want_id) in [
            (r#"{"cmd":"stats"}"#, None),
            (r#"{"id":"x","cmd":"reboot"}"#, Some("x")),
            (r#"{"id":"x","cmd":7}"#, Some("x")),
            (r#"{"id":"x","cmd":"stats","kernel":"k"}"#, Some("x")),
            (r#"{"id":"x","cmd":"stats","slow_only":true}"#, Some("x")),
            (r#"{"id":"x","cmd":"flight","series":true}"#, Some("x")),
            (r#"{"id":"x","cmd":"flight","slow_only":1}"#, Some("x")),
            (r#"{"id":"x","cmd":"stats","series":"yes"}"#, Some("x")),
        ] {
            match Incoming::parse(line) {
                Err(Reply::Error(e)) => {
                    assert_eq!(e.kind, ErrorKind::BadRequest, "{line}");
                    assert_eq!(e.id.as_deref(), want_id, "{line}");
                }
                other => panic!("{line}: expected bad_request, got {other:?}"),
            }
        }
    }

    #[test]
    fn stats_replies_embed_the_snapshot_verbatim() {
        let line = stats_reply(
            "s1",
            r#"{"version":1,"counters":{},"gauges":{},"histograms":{}}"#,
        );
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("id").and_then(Value::as_str), Some("s1"));
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(
            doc.get("stats")
                .and_then(|s| s.get("version"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn replies_render_as_valid_json() {
        let ok = Reply::Ok(OkReply {
            id: "q\"uote".into(),
            nest: "dmxpy1".into(),
            unroll: vec![15, 0],
            balance: 0.533,
            original_balance: 1.0,
            registers: 16,
            cached: true,
            trace_id: None,
        });
        let doc = json::parse(&ok.render()).expect("ok reply is valid JSON");
        assert_eq!(doc.get("id").and_then(Value::as_str), Some("q\"uote"));
        assert_eq!(doc.get("cached"), Some(&Value::Bool(true)));
        assert_eq!(
            doc.get("unroll").and_then(Value::as_array).map(<[_]>::len),
            Some(2)
        );
        assert!(doc.get("trace_id").is_none(), "absent unless opted in");

        // Opting in appends trace_id as the final field on both reply
        // shapes; everything before it is byte-identical.
        let bare = ok.render();
        let traced = ok.clone().with_trace_id(Some(42)).render();
        assert_eq!(
            traced,
            format!("{},\"trace_id\":42}}", &bare[..bare.len() - 1])
        );
        let err_bare = error_reply(Some("x"), ErrorKind::DeadlineExceeded, "late").render();
        let err_traced = error_reply(Some("x"), ErrorKind::DeadlineExceeded, "late")
            .with_trace_id(Some(7))
            .render();
        assert_eq!(
            err_traced,
            format!("{},\"trace_id\":7}}", &err_bare[..err_bare.len() - 1])
        );
        let doc = json::parse(&err_traced).expect("traced error reply is valid JSON");
        assert_eq!(doc.get("trace_id").and_then(Value::as_f64), Some(7.0));

        let err = error_reply(None, ErrorKind::BadRequest, "line\nbreak");
        let doc = json::parse(&err.render()).expect("error reply is valid JSON");
        assert_eq!(doc.get("id"), Some(&Value::Null));
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("bad_request")
        );
    }
}

//! In-tree tracing, metrics, and decision provenance for the optimizer
//! pipeline — zero external dependencies.
//!
//! The paper's central claim is *amortization*: the UGS tables are built
//! once per nest and queried across the whole unroll space.  This crate
//! makes that observable — where time goes per pass, how often each
//! cached analysis is hit, and **why** each candidate unroll vector won
//! or was pruned.
//!
//! Three primitives flow through one [`TraceSink`]:
//!
//! * **spans** — per-pass wall time ([`TraceRecord::Span`]),
//! * **counters** — monotonic increments such as cache hits/misses
//!   ([`TraceRecord::Counter`]; renderers aggregate them by name),
//! * **explain records** — per-candidate decision provenance
//!   ([`ExplainRecord`]): the unroll vector, its balance `β` against the
//!   machine balance `β_M`, its register pressure, and a [`Verdict`].
//!
//! Two sinks ship in-tree: [`NullSink`] (tracing disabled; every record
//! call is a no-op and [`TraceSink::enabled`] lets emitters skip record
//! construction entirely, so the instrumented pipeline stays within
//! noise of an uninstrumented one) and [`CollectingSink`] (thread-safe
//! accumulation, used by `optimize_batch`).  [`Trace`] holds collected
//! records and renders them for humans ([`Trace::render_human`]) or
//! machines ([`Trace::render_json`]); the [`json`] module's std-only
//! parser validates the latter without any external crate.
//!
//! # Example
//!
//! ```
//! use ujam_trace::{CollectingSink, TraceRecord, TraceSink, Verdict};
//!
//! let sink = CollectingSink::new();
//! sink.record(TraceRecord::span("intro", "select-loops", 1_250));
//! sink.record(TraceRecord::counter("intro", "ugs.build", 1));
//! let trace = sink.take();
//! assert_eq!(trace.spans().count(), 1);
//! ujam_trace::json::parse(&trace.render_json()).expect("valid JSON");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
pub mod json;
mod render;
pub mod timeline;

pub use chrome::ChromeTraceRenderer;
pub use timeline::{Anomaly, AnomalyReason, RequestTimeline, TIMELINE_VERSION};

use std::fmt;
use std::sync::Mutex;

/// Why a candidate unroll vector ended up in or out of the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate minimized `|β − β_M|` (ties: fewest body copies)
    /// and was chosen.  Exactly one candidate per search wins — the
    /// vector the search stage returns.
    Won,
    /// Scalar replacement at this vector needs more floating-point
    /// registers than the machine budgets (§4's register constraint).
    PrunedRegisters,
    /// An unroll factor does not divide its loop's trip count, so the
    /// transformation would need a clean-up loop; the table-driven
    /// search skips such vectors.
    PrunedDivisibility,
    /// Skipped without measurement because a dominated candidate (one
    /// component-wise ≤ this vector) already exceeded the register
    /// budget and the register tables are monotone, so this vector must
    /// exceed it too.  Emitted only by the up-set-pruning table search;
    /// the matching `search.pruned_upset` counter totals them.
    PrunedUpset,
    /// The unrolled body at this vector would exceed the code-size
    /// budget (`copies × statements`, an icache proxy).  Code size is
    /// exactly multiplicative in the unroll factors, so — unlike the
    /// measured register tables — this constraint is monotone by
    /// construction and always safe to up-set-prune on.
    PrunedCodeSize,
    /// The candidate body could not be materialised (brute-force search
    /// only: the transform itself failed for this vector).
    Infeasible,
    /// Evaluated, legal, but beaten by the winner.
    Dominated,
}

impl Verdict {
    /// The stable lower-snake-case wire name (`won`, `pruned_registers`,
    /// `pruned_divisibility`, `pruned_upset`, `pruned_code_size`,
    /// `infeasible`, `dominated`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Won => "won",
            Verdict::PrunedRegisters => "pruned_registers",
            Verdict::PrunedDivisibility => "pruned_divisibility",
            Verdict::PrunedUpset => "pruned_upset",
            Verdict::PrunedCodeSize => "pruned_code_size",
            Verdict::Infeasible => "infeasible",
            Verdict::Dominated => "dominated",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Decision provenance for one candidate unroll vector: everything the
/// search stage knew when it passed verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainRecord {
    /// The nest under optimization.
    pub nest: String,
    /// The search stage that judged the candidate (`search-space` or
    /// `brute-search`).
    pub pass: String,
    /// The candidate's full per-nest-loop unroll vector.
    pub u: Vec<u32>,
    /// Loop balance `β_L(u)`; `None` when the candidate was pruned
    /// before evaluation.
    pub beta: Option<f64>,
    /// The machine balance `β_M` the search steered toward.
    pub beta_m: f64,
    /// Floating-point registers scalar replacement would consume;
    /// `None` when the candidate was pruned before measurement.
    pub registers: Option<i64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// One record emitted through a [`TraceSink`].
#[derive(Clone, Debug, PartialEq)]
pub enum TraceRecord {
    /// A completed wall-time span (one pipeline pass over one nest).
    Span {
        /// The nest the pass ran against.
        nest: String,
        /// The pass name (`select-loops`, `build-tables`, …).
        name: String,
        /// Wall time in nanoseconds.
        nanos: u128,
    },
    /// A monotonic counter increment (for example `ugs.hit`).
    /// Renderers aggregate increments by `(nest, name)`.
    Counter {
        /// The nest the counter belongs to.
        nest: String,
        /// Counter name.
        name: String,
        /// Increment (usually 1).
        value: u64,
    },
    /// A free-form annotation.
    Event {
        /// The nest the event belongs to.
        nest: String,
        /// Message text.
        message: String,
    },
    /// Decision provenance for one candidate unroll vector.
    Explain(ExplainRecord),
}

impl TraceRecord {
    /// Convenience constructor for a [`TraceRecord::Span`].
    pub fn span(nest: &str, name: &str, nanos: u128) -> TraceRecord {
        TraceRecord::Span {
            nest: nest.to_string(),
            name: name.to_string(),
            nanos,
        }
    }

    /// Convenience constructor for a [`TraceRecord::Counter`].
    pub fn counter(nest: &str, name: &str, value: u64) -> TraceRecord {
        TraceRecord::Counter {
            nest: nest.to_string(),
            name: name.to_string(),
            value,
        }
    }

    /// Convenience constructor for a [`TraceRecord::Event`].
    pub fn event(nest: &str, message: &str) -> TraceRecord {
        TraceRecord::Event {
            nest: nest.to_string(),
            message: message.to_string(),
        }
    }

    /// The record with wall-time zeroed — spans carry nondeterministic
    /// durations, so determinism tests (batch trace ≡ concatenated
    /// sequential traces) compare normalized records.
    pub fn without_timing(&self) -> TraceRecord {
        match self {
            TraceRecord::Span { nest, name, .. } => TraceRecord::Span {
                nest: nest.clone(),
                name: name.clone(),
                nanos: 0,
            },
            other => other.clone(),
        }
    }
}

/// Where instrumentation sends its records.
///
/// Implementations must be `Sync`: `optimize_batch` shares one sink
/// across its scoped worker threads.
pub trait TraceSink: Sync {
    /// Whether this sink wants records at all.  Emitters check this
    /// before *constructing* records, so a disabled sink costs neither
    /// allocation nor formatting — the overhead contract [`NullSink`]
    /// compiles down to.
    fn enabled(&self) -> bool;

    /// Accepts one record.
    fn record(&self, record: TraceRecord);
}

/// The disabled sink: reports `enabled() == false` and drops records.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

/// A shared `'static` [`NullSink`] for default (untraced) pipelines.
pub fn null_sink() -> &'static NullSink {
    static NULL: NullSink = NullSink;
    &NULL
}

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _record: TraceRecord) {}
}

/// A thread-safe accumulating sink.
///
/// Records arrive in emission order per thread; `optimize_batch` keeps
/// the overall order deterministic by collecting per-nest traces locally
/// and appending them in input order.
#[derive(Debug, Default)]
pub struct CollectingSink {
    records: Mutex<Vec<TraceRecord>>,
}

impl CollectingSink {
    /// An empty sink.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// Clones out everything recorded so far.
    pub fn trace(&self) -> Trace {
        Trace {
            records: self.lock().clone(),
        }
    }

    /// Drains the sink, returning everything recorded so far.
    pub fn take(&self) -> Trace {
        Trace {
            records: std::mem::take(&mut *self.lock()),
        }
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraceRecord>> {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl TraceSink for CollectingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, record: TraceRecord) {
        self.lock().push(record);
    }
}

/// An ordered list of [`TraceRecord`]s with query and rendering helpers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// The records, in emission order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// A trace over the given records.
    pub fn new(records: Vec<TraceRecord>) -> Trace {
        Trace { records }
    }

    /// The spans, in order: `(nest, pass, nanos)`.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &str, u128)> {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Span { nest, name, nanos } => Some((nest.as_str(), name.as_str(), *nanos)),
            _ => None,
        })
    }

    /// The explain records, in order.
    pub fn explains(&self) -> impl Iterator<Item = &ExplainRecord> {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Explain(e) => Some(e),
            _ => None,
        })
    }

    /// Counter totals aggregated by `(nest, name)`, in first-seen order.
    pub fn counter_totals(&self) -> Vec<(String, String, u64)> {
        let mut totals: Vec<(String, String, u64)> = Vec::new();
        for r in &self.records {
            if let TraceRecord::Counter { nest, name, value } = r {
                match totals.iter_mut().find(|(n, c, _)| n == nest && c == name) {
                    Some((_, _, total)) => *total += value,
                    None => totals.push((nest.clone(), name.clone(), *value)),
                }
            }
        }
        totals
    }

    /// The trace with every span's wall time zeroed, for deterministic
    /// comparison (see [`TraceRecord::without_timing`]).
    pub fn without_timing(&self) -> Trace {
        Trace {
            records: self
                .records
                .iter()
                .map(TraceRecord::without_timing)
                .collect(),
        }
    }

    /// Appends another trace's records after this one's.
    pub fn extend(&mut self, other: Trace) {
        self.records.extend(other.records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explain(nest: &str, u: &[u32], verdict: Verdict) -> ExplainRecord {
        ExplainRecord {
            nest: nest.to_string(),
            pass: "search-space".to_string(),
            u: u.to_vec(),
            beta: Some(0.75),
            beta_m: 0.5,
            registers: Some(4),
            verdict,
        }
    }

    #[test]
    fn null_sink_is_disabled_and_drops_records() {
        let sink = null_sink();
        assert!(!sink.enabled());
        sink.record(TraceRecord::span("n", "p", 1));
        // Nothing observable: NullSink holds no state by construction.
    }

    #[test]
    fn collecting_sink_accumulates_in_order() {
        let sink = CollectingSink::new();
        assert!(sink.is_empty());
        sink.record(TraceRecord::span("a", "select-loops", 10));
        sink.record(TraceRecord::counter("a", "ugs.build", 1));
        sink.record(TraceRecord::counter("a", "ugs.hit", 1));
        sink.record(TraceRecord::counter("a", "ugs.hit", 1));
        assert_eq!(sink.len(), 4);
        let trace = sink.take();
        assert!(sink.is_empty(), "take drains");
        assert_eq!(trace.spans().count(), 1);
        assert_eq!(
            trace.counter_totals(),
            vec![
                ("a".to_string(), "ugs.build".to_string(), 1),
                ("a".to_string(), "ugs.hit".to_string(), 2),
            ]
        );
    }

    #[test]
    fn collecting_sink_is_shareable_across_threads() {
        let sink = CollectingSink::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = &sink;
                scope.spawn(move || {
                    for _ in 0..100 {
                        sink.record(TraceRecord::counter(&format!("n{t}"), "hit", 1));
                    }
                });
            }
        });
        assert_eq!(sink.len(), 400);
        let totals = sink.trace().counter_totals();
        assert_eq!(totals.len(), 4);
        assert!(totals.iter().all(|(_, _, v)| *v == 100));
    }

    #[test]
    fn without_timing_zeroes_only_spans() {
        let t = Trace::new(vec![
            TraceRecord::span("n", "p", 123),
            TraceRecord::counter("n", "c", 7),
            TraceRecord::Explain(explain("n", &[1, 0], Verdict::Won)),
        ]);
        let z = t.without_timing();
        assert_eq!(z.spans().next(), Some(("n", "p", 0)));
        assert_eq!(z.records[1], t.records[1]);
        assert_eq!(z.records[2], t.records[2]);
    }

    #[test]
    fn verdict_wire_names_are_stable() {
        assert_eq!(Verdict::Won.to_string(), "won");
        assert_eq!(Verdict::PrunedRegisters.to_string(), "pruned_registers");
        assert_eq!(
            Verdict::PrunedDivisibility.to_string(),
            "pruned_divisibility"
        );
        assert_eq!(Verdict::PrunedUpset.to_string(), "pruned_upset");
        assert_eq!(Verdict::PrunedCodeSize.to_string(), "pruned_code_size");
        assert_eq!(Verdict::Infeasible.to_string(), "infeasible");
        assert_eq!(Verdict::Dominated.to_string(), "dominated");
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Trace::new(vec![TraceRecord::span("x", "p", 1)]);
        let b = Trace::new(vec![TraceRecord::span("y", "p", 2)]);
        a.extend(b);
        assert_eq!(a.records.len(), 2);
        assert_eq!(a.spans().nth(1), Some(("y", "p", 2)));
    }
}

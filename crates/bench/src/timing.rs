//! A minimal plain-`Instant` micro-benchmark harness.
//!
//! The workspace builds against an offline registry, so the bench
//! targets cannot pull in criterion; this module provides the small
//! subset they need — calibrated batching, a few repeated samples, and a
//! median/min report — with no dependencies.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples collected per benchmark; the median is the headline number.
const SAMPLES: usize = 7;

/// Target wall time per sample batch.
const BATCH_TARGET: Duration = Duration::from_millis(40);

/// One measured benchmark: its name and per-iteration timings.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark label, e.g. `"tables/jacobi/4"`.
    pub name: String,
    /// Median nanoseconds per iteration across sample batches.
    pub median_ns: f64,
    /// Fastest sample batch, nanoseconds per iteration.
    pub min_ns: f64,
    /// Iterations per sample batch after calibration.
    pub iters: u64,
}

impl Measurement {
    /// Renders one aligned report line.
    pub fn report(&self) -> String {
        format!(
            "{:44} {:>12} /iter   (min {:>12}, {} iters/sample)",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.min_ns),
            self.iters
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Times `f`, printing a report line and returning the measurement.
///
/// The routine warms up, calibrates a batch size that runs for roughly
/// [`BATCH_TARGET`], then takes [`SAMPLES`] batches and reports the
/// median.  Results are passed through [`black_box`] so the work is not
/// optimized away.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Measurement {
    let mut call = || {
        black_box(f());
    };
    let iters = batch_size(BATCH_TARGET, &mut call);
    let per_iter = (0..SAMPLES).map(|_| time_batch(iters, &mut call)).collect();
    measurement(name, iters, per_iter)
}

/// Rounds of [`bench_interleaved`].
const ROUNDS: usize = 25;

/// Target wall time per batch of [`bench_interleaved`]: short, so the
/// rounds sample the machine's slow and fast phases finely.
const ROUND_BATCH_TARGET: Duration = Duration::from_millis(5);

/// Times several arms interleaved, for gates that compare arms with
/// each other.
///
/// One warm-up call per arm calibrates its batch size as in [`bench`];
/// then each of [`ROUNDS`] rounds times one short batch of every arm in
/// turn (A B C … A B C …), so a slow phase of the machine lands on all
/// the arms alike rather than on whichever arm ran through it.  Prints
/// one report line per arm and returns the measurements in `arms`
/// order.
pub fn bench_interleaved(arms: &mut [(&str, &mut dyn FnMut())]) -> Vec<Measurement> {
    let iters: Vec<u64> = arms
        .iter_mut()
        .map(|(_, f)| batch_size(ROUND_BATCH_TARGET, f))
        .collect();
    let mut per_iter = vec![Vec::with_capacity(ROUNDS); arms.len()];
    for _ in 0..ROUNDS {
        for (((_, f), &n), samples) in arms.iter_mut().zip(&iters).zip(&mut per_iter) {
            samples.push(time_batch(n, f));
        }
    }
    arms.iter()
        .zip(iters)
        .zip(per_iter)
        .map(|(((name, _), iters), samples)| measurement(name, iters, samples))
        .collect()
}

/// Warm-up and calibration in one: times a single call and returns the
/// batch size that runs for roughly `target`.
fn batch_size(target: Duration, mut f: impl FnMut()) -> u64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(1));
    (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64
}

/// Nanoseconds per call over one batch of `iters` calls.
fn time_batch(iters: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The median and fastest of a benchmark's per-call batch times,
/// printed as one report line.
fn measurement(name: &str, iters: u64, mut per_iter: Vec<f64>) -> Measurement {
    per_iter.sort_by(f64::total_cmp);
    let m = Measurement {
        name: name.to_string(),
        median_ns: per_iter[per_iter.len() / 2],
        min_ns: per_iter[0],
        iters,
    };
    println!("{}", m.report());
    m
}

/// Per-pass wall-time totals aggregated from a pipeline [`Trace`].
///
/// Collapses the trace's spans by pass name (keeping first-seen order),
/// so a batch run over many nests reports one row per pass with the
/// total time and how many nests contributed.
///
/// [`Trace`]: ujam_trace::Trace
#[derive(Clone, Debug, Default)]
pub struct PassBreakdown {
    rows: Vec<PassRow>,
}

/// One aggregated row of a [`PassBreakdown`].
#[derive(Clone, Debug)]
pub struct PassRow {
    /// Pass name as it appears in the span (`"build-tables"`, …).
    pub pass: String,
    /// Total nanoseconds across all aggregated spans.
    pub total_ns: u128,
    /// Number of spans (≈ nests) aggregated into this row.
    pub count: usize,
}

impl PassBreakdown {
    /// Aggregates every span of `trace` by pass name.
    pub fn from_trace(trace: &ujam_trace::Trace) -> PassBreakdown {
        let mut b = PassBreakdown::default();
        for (_, pass, ns) in trace.spans() {
            match b.rows.iter_mut().find(|r| r.pass == pass) {
                Some(row) => {
                    row.total_ns += ns;
                    row.count += 1;
                }
                None => b.rows.push(PassRow {
                    pass: pass.to_string(),
                    total_ns: ns,
                    count: 1,
                }),
            }
        }
        b
    }

    /// The aggregated rows, in first-seen (pipeline) order.
    pub fn rows(&self) -> &[PassRow] {
        &self.rows
    }

    /// Total nanoseconds across every pass.
    pub fn total_ns(&self) -> u128 {
        self.rows.iter().map(|r| r.total_ns).sum()
    }

    /// Renders an aligned table: pass, total time, share of the
    /// pipeline, span count.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:18} {:>12} {:>7} {:>7}\n",
            "pass", "total", "share", "spans"
        ));
        let total = self.total_ns().max(1) as f64;
        for r in &self.rows {
            out.push_str(&format!(
                "{:18} {:>12} {:>6.1}% {:>7}\n",
                r.pass,
                fmt_ns(r.total_ns as f64),
                100.0 * r.total_ns as f64 / total,
                r.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_trace::{Trace, TraceRecord};

    #[test]
    fn breakdown_aggregates_by_pass_in_pipeline_order() {
        let trace = Trace::new(vec![
            TraceRecord::span("a", "select-loops", 10),
            TraceRecord::span("a", "search-space", 30),
            TraceRecord::span("b", "select-loops", 5),
            TraceRecord::span("b", "search-space", 15),
        ]);
        let b = PassBreakdown::from_trace(&trace);
        assert_eq!(b.rows().len(), 2);
        assert_eq!(b.rows()[0].pass, "select-loops");
        assert_eq!(b.rows()[0].total_ns, 15);
        assert_eq!(b.rows()[0].count, 2);
        assert_eq!(b.rows()[1].total_ns, 45);
        assert_eq!(b.total_ns(), 60);
        let report = b.report();
        assert!(report.contains("select-loops"));
        assert!(report.contains("75.0%"), "search-space share: {report}");
    }

    #[test]
    fn measures_something_positive() {
        let m = bench("spin", || (0..100u64).sum::<u64>());
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.iters >= 1);
    }

    #[test]
    fn interleaved_arms_report_in_order() {
        let (mut a, mut b) = (0u64, 0u64);
        let ms = bench_interleaved(&mut [
            ("a", &mut || a += black_box(1)),
            ("b", &mut || b += black_box(2)),
        ]);
        assert_eq!(ms.len(), 2);
        assert_eq!((ms[0].name.as_str(), ms[1].name.as_str()), ("a", "b"));
        assert!(ms.iter().all(|m| m.min_ns > 0.0 && m.min_ns <= m.median_ns));
        assert!(a > 0 && b > 0);
    }

    #[test]
    fn formats_every_magnitude() {
        assert!(fmt_ns(5.0).ends_with("ns"));
        assert!(fmt_ns(5.0e3).ends_with("µs"));
        assert!(fmt_ns(5.0e6).ends_with("ms"));
        assert!(fmt_ns(5.0e9).ends_with("s"));
    }
}

//! Overhead guard for the observability layers: with the default
//! `NullSink` (and the disabled `MetricsHandle` it implies), the
//! tables-path optimizer must stay within 2% of a pipeline that has no
//! tracing plumbing at all — and so must a pipeline with a *live*
//! metrics registry, whose per-pass histogram observes are relaxed
//! atomics on pre-sized buckets.
//!
//! Four arms over the same kernel:
//! 1. `bare` — the pass sequence invoked via `Pass::run` directly (no
//!    `run_traced` wrapper, no sink anywhere),
//! 2. `null-sink` — `optimize_with`, which routes through
//!    `optimize_costed(.., NullSink, ..)` with metrics disabled: every
//!    emission site is behind one `enabled()` check (2% gate),
//! 3. `metrics` — `optimize_costed` with a null sink but an enabled
//!    `MetricsHandle`, recording `pass.*.ns` histograms (2% gate),
//! 4. `cost-analytic` — `optimize_costed` called directly with
//!    `CostModelKind::Analytic`: the search scorer runs with no
//!    profiler, so this arm stays within the same 2% gate,
//! 5. `collect` — `optimize_costed` with a `CollectingSink`, to show
//!    what full tracing costs (informational).
//!
//! A second pair of arms gates the serving layer's request-lifecycle
//! tracing.  Every served request is timed, so the `lifecycle` arm
//! replays the timeline an uncached `Server::handle_line` on dmxpy0
//! committed (`begin`, its edge stamps and fields, the tagged latency
//! observation, `flushed`, `commit`) and must cost at most 2% of that
//! `handle_line`.  The shape comes from the server, so timeline work
//! added to the served path shows up in the arm.
//!
//! Plain-`Instant` harness (`ujam_bench::timing`): the offline registry
//! rules out criterion.  Run with
//! `cargo bench -p ujam-bench --bench trace_overhead`.
//! Each attempt times all six arms interleaved, one batch of each per
//! round, so a slow phase of the machine hits every arm alike.  Every
//! gate divides two arms' minima over all attempts so far, and the run
//! stops early once every gate passes: a noisy tick cannot fail a gate,
//! and one slow batch of a baseline arm cannot pass one either.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use ujam_bench::timing::{bench, bench_interleaved};
use ujam_core::pipeline::{AnalysisCtx, ApplyTransform, Pass, SearchSpace, SelectLoops};
use ujam_core::{
    optimize_costed, optimize_with, BalanceModel, CancelToken, CostModelKind, Optimized,
    SearchConfig,
};
use ujam_kernels::kernel;
use ujam_machine::MachineModel;
use ujam_metrics::{Histogram, MetricsHandle, MetricsRegistry};
use ujam_serve::{ServeConfig, Server, TimelineState};
use ujam_trace::{CollectingSink, RequestTimeline, TraceSink};

/// One `TimelineState` edge stamp.
type Stamp = fn(&mut TimelineState);

/// Builds and commits one timeline shaped like `shape` — a timeline the
/// server committed — with the calls the served path makes: `begin`
/// (which stamps `framed`), one stamp per edge `shape` carries, the
/// reply's fields, the tagged latency observation, `flushed`, `commit`.
fn replay_timeline(server: &Server, shape: &RequestTimeline, latency: &Histogram) {
    let mut state = server.flight().begin(Instant::now());
    let edges: [(Option<u64>, Stamp); 6] = [
        (shape.enqueued, TimelineState::stamp_enqueued),
        (shape.dequeued, TimelineState::stamp_dequeued),
        (shape.cache_probe, TimelineState::stamp_cache_probe),
        (shape.cache_done, TimelineState::stamp_cache_done),
        (shape.analysis_start, TimelineState::stamp_analysis_start),
        (shape.analysis_end, TimelineState::stamp_analysis_end),
    ];
    for (edge, stamp) in edges {
        if edge.is_some() {
            stamp(&mut state);
        }
    }
    let t = &mut state.timeline;
    t.id.clone_from(&shape.id);
    t.nest.clone_from(&shape.nest);
    t.outcome = shape.outcome.clone();
    t.cached = shape.cached;
    t.unroll.clone_from(&shape.unroll);
    latency.observe_tagged(state.since_framed(), state.trace_id());
    state.stamp_flushed();
    server.flight().commit(state.timeline);
}

/// The pipeline exactly as `optimize_with` runs it, but through the
/// plain `Pass::run` entry points — the no-tracing-plumbing baseline.
fn optimize_bare(
    nest: &ujam_ir::LoopNest,
    machine: &MachineModel,
) -> Result<Optimized, ujam_core::OptimizeError> {
    let mut ctx = AnalysisCtx::new(nest, machine)?;
    let space = SelectLoops::default().run(&mut ctx)?;
    let found = SearchSpace {
        space: space.clone(),
        model: BalanceModel::CacheAware,
        cost: CostModelKind::Analytic,
        code_budget: None,
    }
    .run(&mut ctx)?;
    let nest_out = ApplyTransform {
        unroll: found.unroll.clone(),
    }
    .run(&mut ctx)?;
    Ok(Optimized {
        nest: nest_out,
        unroll: found.unroll,
        predicted: found.predicted,
        original: found.original,
        space,
    })
}

fn main() {
    let nest = kernel("dmxpy0").expect("known kernel").nest();
    let machine = MachineModel::dec_alpha();

    let costed = |sink: &dyn TraceSink, metrics: MetricsHandle| {
        optimize_costed(
            &nest,
            &machine,
            BalanceModel::CacheAware,
            CostModelKind::Analytic,
            sink,
            CancelToken::never(),
            metrics,
            SearchConfig::default(),
        )
    };

    // Sanity first: every arm agrees on the plan.
    let bare = optimize_bare(&nest, &machine).expect("valid kernel");
    let null = optimize_with(&nest, &machine, BalanceModel::CacheAware).expect("valid kernel");
    let sink = CollectingSink::new();
    let collected = costed(&sink, MetricsHandle::disabled()).expect("valid kernel");
    let registry = Arc::new(MetricsRegistry::new());
    let handle = MetricsHandle::new(Arc::clone(&registry));
    let metered = costed(ujam_trace::null_sink(), handle.clone()).expect("valid kernel");
    let plain = costed(ujam_trace::null_sink(), MetricsHandle::disabled()).expect("valid kernel");
    assert_eq!(bare.unroll, null.unroll);
    assert_eq!(bare.unroll, collected.unroll);
    assert_eq!(bare.unroll, metered.unroll);
    assert_eq!(bare.unroll, plain.unroll);
    assert!(!sink.take().records.is_empty(), "collector saw the run");
    assert!(
        registry
            .snapshot()
            .histogram("pass.select-loops.ns")
            .is_some_and(|h| h.count > 0),
        "registry saw the run"
    );

    // The serving arms: an uncached server, so every request runs the
    // full search (the realistic hot path the 2% gate protects), and
    // the timeline that request committed, replayed on its own.
    let server = Server::new(
        ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        },
        ujam_trace::null_sink(),
    );
    let line = "{\"id\":\"t\",\"kernel\":\"dmxpy0\"}";
    assert!(server.handle_line(line).contains("\"ok\":true"));
    let recent = server.flight().recent();
    assert_eq!(recent.len(), 1, "handle_line is timed");
    let shape = recent[0].clone();
    assert!(shape.analysis_end.is_some(), "the served request missed");
    let latency = registry.histogram("serve.request_ns");

    const MAX_OVERHEAD: f64 = 0.02;
    const ATTEMPTS: usize = 5;
    // Per arm, the fastest batch over all attempts so far: bare,
    // null-sink, metrics, cost-analytic, handle_line, lifecycle.
    let mut best = [f64::INFINITY; 6];
    let gates = |best: &[f64; 6]| {
        let [bare, null, metered, analytic, served, lifecycle] = *best;
        (
            null / bare,
            metered / bare,
            analytic / bare,
            lifecycle / served,
        )
    };
    for attempt in 1..=ATTEMPTS {
        let round = bench_interleaved(&mut [
            ("optimize/bare/dmxpy0", &mut || {
                let _ = black_box(optimize_bare(&nest, &machine));
            }),
            ("optimize/null-sink/dmxpy0", &mut || {
                let _ = black_box(optimize_with(&nest, &machine, BalanceModel::CacheAware));
            }),
            ("optimize/metrics/dmxpy0", &mut || {
                let _ = black_box(costed(ujam_trace::null_sink(), handle.clone()));
            }),
            ("optimize/cost-analytic/dmxpy0", &mut || {
                let _ = black_box(costed(ujam_trace::null_sink(), MetricsHandle::disabled()));
            }),
            ("serve/handle-line/dmxpy0", &mut || {
                black_box(server.handle_line(line));
            }),
            ("serve/lifecycle/dmxpy0", &mut || {
                replay_timeline(&server, &shape, &latency)
            }),
        ]);
        for (b, m) in best.iter_mut().zip(&round) {
            *b = b.min(m.min_ns);
        }
        let (null, metered, analytic, lifecycle) = gates(&best);
        println!(
            "attempt {attempt}: null-sink / bare = {null:.4}, metrics / bare = {metered:.4}, cost-analytic / bare = {analytic:.4} (gate {:.2}), lifecycle / handle_line = {lifecycle:.4} (gate {:.2})",
            1.0 + MAX_OVERHEAD,
            MAX_OVERHEAD
        );
        if null <= 1.0 + MAX_OVERHEAD
            && metered <= 1.0 + MAX_OVERHEAD
            && analytic <= 1.0 + MAX_OVERHEAD
            && lifecycle <= MAX_OVERHEAD
        {
            break;
        }
    }
    let (best_null, best_metered, best_costed, best_lifecycle) = gates(&best);
    // Informational: what a fully collecting sink costs on the same path.
    bench("optimize/collecting-sink/dmxpy0", || {
        costed(&CollectingSink::new(), MetricsHandle::disabled())
    });
    assert!(
        best_null <= 1.0 + MAX_OVERHEAD,
        "NullSink overhead {:.2}% exceeds the {:.0}% gate",
        100.0 * (best_null - 1.0),
        100.0 * MAX_OVERHEAD
    );
    assert!(
        best_metered <= 1.0 + MAX_OVERHEAD,
        "live-metrics overhead {:.2}% exceeds the {:.0}% gate",
        100.0 * (best_metered - 1.0),
        100.0 * MAX_OVERHEAD
    );
    assert!(
        best_costed <= 1.0 + MAX_OVERHEAD,
        "analytic cost-backend overhead {:.2}% exceeds the {:.0}% gate \
         (the profiler must cost nothing when it is not selected)",
        100.0 * (best_costed - 1.0),
        100.0 * MAX_OVERHEAD
    );
    assert!(
        best_lifecycle <= MAX_OVERHEAD,
        "request-lifecycle timeline costs {:.2}% of a served request, over the {:.0}% gate \
         (timeline stamps must stay O(1) per edge)",
        100.0 * best_lifecycle,
        100.0 * MAX_OVERHEAD
    );
    println!(
        "PASS: disabled tracing costs {:+.2}%, live metrics {:+.2}%, analytic cost backend {:+.2}%, a request timeline {:.2}% of a served request (gate {:.0}%)",
        100.0 * (best_null - 1.0),
        100.0 * (best_metered - 1.0),
        100.0 * (best_costed - 1.0),
        100.0 * best_lifecycle,
        100.0 * MAX_OVERHEAD
    );
}

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
//! tracing: `Server::handle_line` (untimed) against
//! `Server::handle_line_timed` plus a flight-recorder begin/commit per
//! request — the whole per-request timeline cost (`Instant` stamps at
//! each edge, one ring push) must also stay within the 2% gate.
//!
//! Plain-`Instant` harness (`ujam_bench::timing`): the offline registry
//! rules out criterion.  Run with `cargo bench --bench trace_overhead`.
//! The 2% gate is checked on the fastest of several attempts so a noisy
//! scheduler tick cannot fail the guard spuriously.

use std::sync::Arc;
use ujam_bench::timing::bench;
use ujam_core::pipeline::{AnalysisCtx, ApplyTransform, Pass, SearchSpace, SelectLoops};
use ujam_core::{
    optimize_costed, optimize_with, BalanceModel, CancelToken, CostModelKind, Optimized,
    SearchConfig,
};
use ujam_kernels::kernel;
use ujam_machine::MachineModel;
use ujam_metrics::{MetricsHandle, MetricsRegistry};
use ujam_serve::{ServeConfig, Server};
use ujam_trace::{CollectingSink, TraceSink};

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

    // The serving arms: an uncached server so every request runs the
    // full search (the realistic hot path the 2% gate protects), one
    // with plain handling, one with lifecycle timelines.
    let serve_cfg = ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let line = "{\"id\":\"t\",\"kernel\":\"dmxpy0\"}";
    let untimed_server = Server::new(serve_cfg, ujam_trace::null_sink());
    let timed_server = Server::new(serve_cfg, ujam_trace::null_sink());
    let untimed_reply = untimed_server.handle_line(line);
    let mut state = timed_server.flight().begin(std::time::Instant::now());
    let timed_reply = timed_server.handle_line_timed(line, &mut state);
    state.stamp_flushed();
    timed_server.flight().commit(state.timeline);
    assert_eq!(
        untimed_reply, timed_reply,
        "lifecycle tracing must not change replies"
    );

    const MAX_OVERHEAD: f64 = 0.02;
    const ATTEMPTS: usize = 5;
    let mut best_null = f64::INFINITY;
    let mut best_metered = f64::INFINITY;
    let mut best_costed = f64::INFINITY;
    let mut best_lifecycle = f64::INFINITY;
    for attempt in 1..=ATTEMPTS {
        let base = bench("optimize/bare/dmxpy0", || optimize_bare(&nest, &machine));
        let nulled = bench("optimize/null-sink/dmxpy0", || {
            optimize_with(&nest, &machine, BalanceModel::CacheAware)
        });
        let metered = bench("optimize/metrics/dmxpy0", || {
            costed(ujam_trace::null_sink(), handle.clone())
        });
        let analytic = bench("optimize/cost-analytic/dmxpy0", || {
            costed(ujam_trace::null_sink(), MetricsHandle::disabled())
        });
        let serve_base = bench("serve/untimed/dmxpy0", || untimed_server.handle_line(line));
        let serve_timed = bench("serve/lifecycle/dmxpy0", || {
            let mut state = timed_server.flight().begin(std::time::Instant::now());
            let reply = timed_server.handle_line_timed(line, &mut state);
            state.stamp_flushed();
            timed_server.flight().commit(state.timeline);
            reply
        });
        best_null = best_null.min(nulled.min_ns / base.min_ns);
        best_metered = best_metered.min(metered.min_ns / base.min_ns);
        best_costed = best_costed.min(analytic.min_ns / base.min_ns);
        best_lifecycle = best_lifecycle.min(serve_timed.min_ns / serve_base.min_ns);
        println!(
            "attempt {attempt}: null-sink / bare = {:.4}, metrics / bare = {:.4}, cost-analytic / bare = {:.4}, lifecycle / untimed = {:.4} (gate {:.2})",
            nulled.min_ns / base.min_ns,
            metered.min_ns / base.min_ns,
            analytic.min_ns / base.min_ns,
            serve_timed.min_ns / serve_base.min_ns,
            1.0 + MAX_OVERHEAD
        );
        if best_null <= 1.0 + MAX_OVERHEAD
            && best_metered <= 1.0 + MAX_OVERHEAD
            && best_costed <= 1.0 + MAX_OVERHEAD
            && best_lifecycle <= 1.0 + MAX_OVERHEAD
        {
            break;
        }
    }
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
        best_lifecycle <= 1.0 + MAX_OVERHEAD,
        "request-lifecycle tracing overhead {:.2}% exceeds the {:.0}% gate \
         (timeline stamps must stay O(1) per edge)",
        100.0 * (best_lifecycle - 1.0),
        100.0 * MAX_OVERHEAD
    );
    println!(
        "PASS: disabled tracing costs {:+.2}%, live metrics {:+.2}%, analytic cost backend {:+.2}%, lifecycle tracing {:+.2}% (gate {:.0}%)",
        100.0 * (best_null - 1.0),
        100.0 * (best_metered - 1.0),
        100.0 * (best_costed - 1.0),
        100.0 * (best_lifecycle - 1.0),
        100.0 * MAX_OVERHEAD
    );
}

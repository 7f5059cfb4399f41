//! The parallel batch driver: one pipeline run per nest, fanned out
//! across scoped threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::costmodel::CostModelKind;
use crate::driver::{optimize_costed, BalanceModel, Optimized, SearchConfig};
use crate::pipeline::{CancelToken, OptimizeError};
use ujam_ir::LoopNest;
use ujam_machine::MachineModel;
use ujam_metrics::MetricsHandle;
use ujam_trace::{CollectingSink, TraceSink};

/// Optimizes every nest of a batch, returning one result per input in
/// order.  Nests are distributed across `std::thread::scope` workers
/// (work-stealing over a shared index), one [`super::AnalysisCtx`] per
/// nest, so a bad nest fails with its own [`OptimizeError`] without
/// affecting the rest of the batch.
///
/// Results are bitwise-identical to calling [`crate::optimize`] on each
/// nest sequentially — the scheduling only changes *when* a nest is
/// analysed, never *what* the analysis computes (a workspace test
/// asserts this over the full kernel suite).
///
/// # Example
///
/// ```
/// use ujam_core::optimize_batch;
/// use ujam_ir::NestBuilder;
/// use ujam_machine::MachineModel;
/// let nests: Vec<_> = (0..4).map(|k| {
///     NestBuilder::new(&format!("n{k}"))
///         .array("A", &[242]).array("B", &[242])
///         .loop_("J", 1, 240).loop_("I", 1, 240)
///         .stmt("A(J) = A(J) + B(I)")
///         .build()
/// }).collect();
/// let plans = optimize_batch(&nests, &MachineModel::dec_alpha());
/// assert_eq!(plans.len(), 4);
/// assert!(plans.iter().all(|p| p.is_ok()));
/// ```
pub fn optimize_batch(
    nests: &[LoopNest],
    machine: &MachineModel,
) -> Vec<Result<Optimized, OptimizeError>> {
    let workers = thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    optimize_batch_traced_with_workers(
        nests,
        machine,
        BalanceModel::CacheAware,
        workers,
        ujam_trace::null_sink(),
    )
}

/// [`optimize_batch`] with an explicit balance model, worker count
/// (clamped to `1..=nests.len()`; 1 runs inline without spawning) and
/// trace sink.  Each nest runs [`optimize_costed`] with the analytic
/// backend and the default [`SearchConfig`].
///
/// Each nest's pipeline records into a private buffer; after every nest
/// completes, the buffers are forwarded to `sink` **in input order**.
/// The aggregate trace is therefore deterministic — identical to
/// tracing each nest sequentially (modulo span wall-times; compare with
/// `Trace::without_timing`) no matter how the scheduler interleaved the
/// workers — and the optimization results stay bitwise-identical to
/// the untraced batch.
pub fn optimize_batch_traced_with_workers(
    nests: &[LoopNest],
    machine: &MachineModel,
    model: BalanceModel,
    workers: usize,
    sink: &dyn TraceSink,
) -> Vec<Result<Optimized, OptimizeError>> {
    if nests.is_empty() {
        return Vec::new();
    }
    // One private collector per nest keeps the merged trace independent
    // of worker scheduling.  With tracing disabled the collectors stay
    // untouched: each pipeline runs against the null sink and the
    // forwarding loop below sends nothing.
    let tracing = sink.enabled();
    let collectors: Vec<CollectingSink> = (0..nests.len()).map(|_| CollectingSink::new()).collect();
    let results = parallel_map_indexed(nests.len(), workers, |i| {
        let nest_sink: &dyn TraceSink = if tracing {
            &collectors[i]
        } else {
            ujam_trace::null_sink()
        };
        optimize_costed(
            &nests[i],
            machine,
            model,
            CostModelKind::Analytic,
            nest_sink,
            CancelToken::never(),
            MetricsHandle::disabled(),
            SearchConfig::default(),
        )
    });

    if tracing {
        for collector in &collectors {
            for record in collector.take().records {
                sink.record(record);
            }
        }
    }
    results
}

/// Runs `f(i)` for every `i` in `0..n` across up to `workers` scoped
/// threads (work-stealing over a shared index), returning results in
/// index order.  With one worker or at most one item it runs inline
/// without spawning.  The scheduling only changes *when* an index is
/// evaluated, never the contents of the returned vector — which is what
/// lets both the batch driver above and the parallel
/// [`crate::pipeline::BruteSearch`] keep bitwise-deterministic results.
pub(crate) fn parallel_map_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                // Each index is claimed by exactly one worker, so the
                // slot is written exactly once.
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every index below n is claimed and written once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_ir::NestBuilder;

    fn batch_with_workers(
        nests: &[LoopNest],
        machine: &MachineModel,
        workers: usize,
    ) -> Vec<Result<Optimized, OptimizeError>> {
        let null = ujam_trace::null_sink();
        optimize_batch_traced_with_workers(nests, machine, BalanceModel::CacheAware, workers, null)
    }

    fn stencil(k: usize) -> LoopNest {
        NestBuilder::new(&format!("st{k}"))
            .array("A", &[52, 52])
            .array("B", &[52, 52])
            .loop_("J", 2, 49)
            .loop_("I", 2, 49)
            .stmt("B(I,J) = A(I,J-1) + A(I,J) + A(I,J+1)")
            .build()
    }

    #[test]
    fn batch_matches_sequential_for_every_worker_count() {
        let nests: Vec<LoopNest> = (0..6).map(stencil).collect();
        let machine = MachineModel::dec_alpha();
        let sequential: Vec<_> = nests
            .iter()
            .map(|n| crate::optimize(n, &machine).expect("valid"))
            .collect();
        for workers in [1, 2, 4, 16] {
            let batch = batch_with_workers(&nests, &machine, workers);
            assert_eq!(batch.len(), nests.len());
            for (b, s) in batch.iter().zip(&sequential) {
                let b = b.as_ref().expect("valid nest");
                assert_eq!(b.unroll, s.unroll, "workers={workers}");
                assert_eq!(b.nest, s.nest);
            }
        }
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        for workers in [1, 3, 8] {
            let out = parallel_map_indexed(17, workers, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(parallel_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn empty_batch_is_empty() {
        let machine = MachineModel::dec_alpha();
        assert!(optimize_batch(&[], &machine).is_empty());
    }

    #[test]
    fn bad_nests_fail_individually() {
        let good = stencil(0);
        let bad = crate::pipeline::ctx::bad_nest();
        let machine = MachineModel::dec_alpha();
        let out = batch_with_workers(&[good, bad], &machine, 2);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(OptimizeError::InvalidNest(_))));
    }
}

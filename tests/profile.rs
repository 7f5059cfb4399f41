//! Workspace-level guarantees for the two cache-cost models:
//! the analytic backend is bitwise-identical to the classic pipeline on
//! the whole Table 2 suite, and the profiled backend can legitimately
//! disagree — on a crafted direct-mapped conflict nest it selects a
//! different winner, which is the whole point of measuring.

use ujam::core::{
    optimize_costed, optimize_with, BalanceModel, CancelToken, CostModelKind, SearchConfig,
};
use ujam::ir::NestBuilder;
use ujam::kernels::kernels;
use ujam::machine::MachineModel;
use ujam::metrics::MetricsHandle;
use ujam::trace::null_sink;

fn costed(
    nest: &ujam::ir::LoopNest,
    machine: &MachineModel,
    cost: CostModelKind,
) -> ujam::core::Optimized {
    optimize_costed(
        nest,
        machine,
        BalanceModel::CacheAware,
        cost,
        null_sink(),
        CancelToken::never(),
        MetricsHandle::disabled(),
        SearchConfig::default(),
    )
    .expect("optimizable nest")
}

/// The acceptance pin: `--cost-model analytic` is not a new code path
/// with similar answers — it is the same decision, bitwise, on every
/// kernel of the suite, on every machine.
#[test]
fn analytic_backend_is_bitwise_identical_on_the_suite() {
    for machine in [
        MachineModel::dec_alpha(),
        MachineModel::hp_parisc(),
        MachineModel::prefetching_risc(),
    ] {
        for k in kernels() {
            let nest = k.nest();
            let classic = optimize_with(&nest, &machine, BalanceModel::CacheAware);
            let analytic =
                std::panic::catch_unwind(|| costed(&nest, &machine, CostModelKind::Analytic));
            match (classic, analytic) {
                (Ok(c), Ok(a)) => {
                    assert_eq!(c.unroll, a.unroll, "{} on {}", k.name, machine.name());
                    // Bitwise, not approximate: the analytic backend must
                    // not perturb the f64 flow at all.
                    assert_eq!(
                        c.predicted.balance.to_bits(),
                        a.predicted.balance.to_bits(),
                        "{} on {}",
                        k.name,
                        machine.name()
                    );
                    assert_eq!(
                        c.original.balance.to_bits(),
                        a.original.balance.to_bits(),
                        "{} on {}",
                        k.name,
                        machine.name()
                    );
                }
                (Err(_), Err(_)) => {} // both reject the nest identically
                (c, a) => panic!(
                    "{} on {}: classic {:?} vs analytic {:?}",
                    k.name,
                    machine.name(),
                    c.map(|p| p.unroll),
                    a.map(|p| p.unroll)
                ),
            }
        }
    }
}

/// A nest built to embarrass Eq. 1.  `A` is 128×8 column-major, so its
/// columns sit exactly 1024 bytes apart — a multiple of the 512-byte
/// set stride of a 1 KiB 2-way cache — and the guard layout puts `B`
/// on the same sets too.  Unjammed, the two ways hold the current `A`
/// column line and the `B` line and everything streams; jamming J by u
/// puts u+2 conflicting lines in every set and the cache thrashes.
/// Eq. 1 knows nothing of conflicts: it sees `B(I)`'s temporal reuse
/// along J and favors deep unroll.  The profiler measures the thrash
/// and refuses.  The two backends must pick different winners here —
/// if they ever agree, the profiled path has degenerated into the
/// analytic one.
#[test]
fn profiled_backend_flips_the_winner_on_a_conflict_nest() {
    let machine = MachineModel::builder("tiny-2w")
        .registers(32)
        .cache(1024, 32, 2)
        .miss(25.0, 1.0)
        .build();
    let nest = NestBuilder::new("conflict")
        .array("A", &[128, 8])
        .array("B", &[128])
        .loop_("J", 1, 8)
        .loop_("I", 1, 128)
        .stmt("A(I,J) = A(I,J) + B(I)")
        .build();
    let analytic = costed(&nest, &machine, CostModelKind::Analytic);
    let profiled = costed(&nest, &machine, CostModelKind::Profiled);
    assert_ne!(
        analytic.unroll, profiled.unroll,
        "analytic and profiled picked the same vector — the conflict nest no longer discriminates"
    );
}

/// Observability surface: a profiled search records `profile.*`
/// metrics, and an analytic one records none — the profiler must be
/// invisible when it is not selected.
#[test]
fn profiled_search_records_metrics_and_analytic_does_not() {
    use std::sync::Arc;
    use ujam::metrics::MetricsRegistry;
    let nest = ujam::kernels::kernel("dmxpy0")
        .expect("known kernel")
        .nest();
    let machine = MachineModel::dec_alpha();
    let run = |cost| {
        let registry = Arc::new(MetricsRegistry::new());
        optimize_costed(
            &nest,
            &machine,
            BalanceModel::CacheAware,
            cost,
            null_sink(),
            CancelToken::never(),
            MetricsHandle::new(Arc::clone(&registry)),
            SearchConfig::default(),
        )
        .expect("optimizable kernel");
        registry.snapshot()
    };
    let profiled = run(CostModelKind::Profiled);
    assert!(
        profiled.counter("profile.candidates") > 0,
        "profiled search must count its candidates"
    );
    assert!(
        profiled.counter("profile.accesses") > 0,
        "profiled search must count tapped accesses"
    );
    assert!(
        profiled
            .histogram("profile.ns")
            .is_some_and(|h| h.count > 0),
        "profiled search must record profiling time"
    );
    let analytic = run(CostModelKind::Analytic);
    assert_eq!(
        analytic.counter("profile.candidates"),
        0,
        "analytic search must record no profiling metrics"
    );
}

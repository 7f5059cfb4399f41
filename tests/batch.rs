//! Properties of the parallel batch driver and the Result-based error
//! surface of every public `optimize*` entry point.

use ujam::core::brute::{optimize_brute, optimize_depbased};
use ujam::core::{
    optimize, optimize_batch, optimize_batch_traced_with_workers, optimize_costed,
    optimize_in_space, BalanceModel, CancelToken, CostModelKind, OptimizeError, SearchConfig,
    UnrollSpace,
};
use ujam::ir::{parse_expr, ArrayDecl, ArrayRef, Loop, LoopNest, NestBuilder, Stmt};
use ujam::kernels::{kernels, optimize_suite};
use ujam::linalg::Mat;
use ujam::machine::MachineModel;
use ujam::metrics::MetricsHandle;
use ujam::trace::{null_sink, CollectingSink};

/// The headline batch property: `optimize_batch` over the full Table 2
/// suite is bitwise-identical to sequential `optimize` — same unroll
/// vectors, same transformed nests, same predictions — at every worker
/// count, because a batch only reschedules independent per-nest work.
#[test]
fn batch_equals_sequential_on_the_kernel_suite() {
    for machine in [MachineModel::dec_alpha(), MachineModel::hp_parisc()] {
        let nests: Vec<LoopNest> = kernels().iter().map(|k| k.nest()).collect();
        let sequential: Vec<_> = nests
            .iter()
            .map(|n| optimize(n, &machine).expect("Table 2 kernels are valid"))
            .collect();
        for workers in [1usize, 3, 8] {
            let model = BalanceModel::CacheAware;
            let batch =
                optimize_batch_traced_with_workers(&nests, &machine, model, workers, null_sink());
            assert_eq!(batch.len(), sequential.len());
            for ((k, b), s) in kernels().iter().zip(&batch).zip(&sequential) {
                let b = b.as_ref().expect("Table 2 kernels are valid");
                assert_eq!(b.unroll, s.unroll, "{} (workers={workers})", k.name);
                assert_eq!(b.nest, s.nest, "{} (workers={workers})", k.name);
                assert_eq!(b.predicted, s.predicted, "{} (workers={workers})", k.name);
            }
        }
    }
}

/// The batch driver's trace-merge guarantee: no matter the worker
/// count, the batch's aggregate trace equals the concatenation of the
/// sequential per-nest traces (compared span-time-blind, since
/// wall-times differ run to run) — and tracing does not perturb the
/// optimization results, which stay bitwise-identical to the untraced
/// batch.
#[test]
fn batch_trace_is_the_sequential_concatenation() {
    let machine = MachineModel::dec_alpha();
    let nests: Vec<LoopNest> = kernels().iter().take(6).map(|k| k.nest()).collect();

    let sequential_sink = CollectingSink::new();
    let sequential: Vec<_> = nests
        .iter()
        .map(|n| {
            optimize_costed(
                n,
                &machine,
                BalanceModel::CacheAware,
                CostModelKind::Analytic,
                &sequential_sink,
                CancelToken::never(),
                MetricsHandle::disabled(),
                SearchConfig::default(),
            )
            .expect("Table 2 kernels are valid")
        })
        .collect();
    let expected = sequential_sink.take().without_timing();

    for workers in [1usize, 3, 8] {
        let sink = CollectingSink::new();
        let batch = optimize_batch_traced_with_workers(
            &nests,
            &machine,
            BalanceModel::CacheAware,
            workers,
            &sink,
        );
        assert_eq!(
            sink.take().without_timing(),
            expected,
            "workers={workers}: batch trace must merge in input order"
        );
        for ((k, b), s) in kernels().iter().zip(&batch).zip(&sequential) {
            let b = b.as_ref().expect("Table 2 kernels are valid");
            assert_eq!(b.unroll, s.unroll, "{} (workers={workers})", k.name);
            assert_eq!(b.nest, s.nest, "{} (workers={workers})", k.name);
            assert_eq!(b.predicted, s.predicted, "{} (workers={workers})", k.name);
        }
    }
}

/// The suite helper pairs every roster entry with the batch plan for its
/// own nest, in roster order.
#[test]
fn optimize_suite_agrees_with_direct_optimization() {
    let machine = MachineModel::dec_alpha();
    for (k, plan) in optimize_suite(&machine) {
        let direct = optimize(&k.nest(), &machine).expect(k.name);
        let plan = plan.expect(k.name);
        assert_eq!(plan.unroll, direct.unroll, "{}", k.name);
    }
}

/// A structurally invalid nest, `A(I) = Z(I) + 1.0` reading undeclared
/// `Z`, assembled with the raw constructor since `NestBuilder::build`
/// refuses to produce one.
fn undeclared_array_nest() -> LoopNest {
    let loops = vec![Loop::new("J", 1, 8), Loop::new("I", 1, 8)];
    let rhs = parse_expr("Z(I) + 1.0", &loops).expect("parses");
    let lhs = ArrayRef::new("A", Mat::from_rows(&[&[0, 1]]), vec![0]);
    LoopNest::new(
        "bad",
        vec![ArrayDecl::new("A", &[16])],
        loops,
        vec![Stmt::assign(lhs, rhs)],
    )
}

/// A nest whose subscript constant, 2^32, lies beyond the exact
/// analysis's ±2^31 range.
fn wide_subscript_nest() -> LoopNest {
    NestBuilder::new("wide")
        .array("A", &[16, 16])
        .loop_("J", 1, 8)
        .loop_("I", 1, 8)
        .stmt("A(I,J) = A(I+4294967296,J) + 1.0")
        .build()
}

/// Negative path: malformed input returns `Err` from every public
/// `optimize*` entry point — none of them panic.
#[test]
fn malformed_nests_error_from_every_entry_point() {
    let machine = MachineModel::dec_alpha();
    let space = UnrollSpace::new(2, &[0], 4);
    for bad in [undeclared_array_nest(), wide_subscript_nest()] {
        let name = bad.name().to_string();
        let invalid = |r: Result<_, OptimizeError>| matches!(r, Err(OptimizeError::InvalidNest(_)));
        assert!(invalid(optimize(&bad, &machine).map(|_| ())), "{name}");
        assert!(
            invalid(optimize_in_space(&bad, &machine, &space).map(|_| ())),
            "{name}"
        );
        assert!(
            invalid(optimize_brute(&bad, &machine, &space).map(|_| ())),
            "{name}"
        );
        assert!(
            invalid(optimize_depbased(&bad, &machine, &space).map(|_| ())),
            "{name}"
        );
        let batch = optimize_batch(&[bad], &machine);
        assert!(
            matches!(batch[0], Err(OptimizeError::InvalidNest(_))),
            "{name}"
        );
    }
}

/// Negative path: a depth-mismatched space is an error, not a panic, for
/// every space-taking entry point.
#[test]
fn depth_mismatch_errors_from_every_entry_point() {
    let machine = MachineModel::dec_alpha();
    let nest = kernels()[0].nest();
    let wrong = UnrollSpace::new(nest.depth() + 1, &[0], 4);
    let want = OptimizeError::DepthMismatch {
        nest: nest.depth(),
        space: nest.depth() + 1,
    };
    assert_eq!(
        optimize_in_space(&nest, &machine, &wrong).unwrap_err(),
        want
    );
    assert_eq!(optimize_brute(&nest, &machine, &wrong).unwrap_err(), want);
    assert_eq!(
        optimize_depbased(&nest, &machine, &wrong).unwrap_err(),
        want
    );
}

/// Errors in one batch element leave the rest of the batch intact.
#[test]
fn batch_isolates_per_nest_failures() {
    let machine = MachineModel::dec_alpha();
    let nests = vec![
        kernels()[0].nest(),
        undeclared_array_nest(),
        kernels()[1].nest(),
    ];
    let out = optimize_batch_traced_with_workers(
        &nests,
        &machine,
        BalanceModel::CacheAware,
        2,
        null_sink(),
    );
    assert!(out[0].is_ok());
    assert!(matches!(out[1], Err(OptimizeError::InvalidNest(_))));
    assert!(out[2].is_ok());
}

/// `OptimizeError` behaves like a real error type: displayable, and the
/// transform variant exposes its source.
#[test]
fn optimize_error_displays_and_sources() {
    use std::error::Error;
    let machine = MachineModel::dec_alpha();
    let bad = undeclared_array_nest();
    let e = optimize(&bad, &machine).unwrap_err();
    assert!(e.to_string().contains("invalid nest"));
    assert!(e.source().is_none());
    let mismatch = OptimizeError::DepthMismatch { nest: 2, space: 3 };
    assert!(mismatch.to_string().contains("depth 3"));
}

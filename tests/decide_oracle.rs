//! Decide ≡ optimize: the decide half of the pipeline answers what the
//! whole pipeline answers.
//!
//! `decide_costed` runs `optimize_costed`'s passes up to the search and
//! returns the winner without unrolling the nest; the daemon answers
//! every cache miss with it.  For every nest here, its unroll vector and
//! both predictions must be bitwise those of `optimize_costed`, and
//! `unroll_and_jam` must accept its winner, so stopping at the decision
//! never turns an error reply into an ok reply.  The nests are the 19
//! Table 2 kernels at the paper's config, the six deep kernels and
//! `corpus_deep` with unbounded register tiling, `corpus`, and the 1,024
//! content-distinct corpus routines of seeds 1 and 3, round-tripped
//! through Fortran as a serving benchmark sends them.

use std::collections::HashSet;

use ujam::core::{
    decide_costed, optimize_costed, BalanceModel, CancelToken, CostModelKind, Prediction,
    SearchConfig,
};
use ujam::ir::{transform::unroll_and_jam, LoopNest};
use ujam::kernels::{corpus, corpus_deep, corpus_routine, deep_kernels, kernels};
use ujam::machine::MachineModel;
use ujam::metrics::MetricsHandle;

/// Unbounded register tiling, as the deep kernels compile.
const DEEP: SearchConfig = SearchConfig {
    max_unroll_loops: 0,
    code_budget: None,
};

/// Every field of a prediction, floats by their bits.
fn bits(p: &Prediction) -> [u64; 6] {
    [
        p.balance.to_bits(),
        p.no_cache_balance.to_bits(),
        p.memory_ops.to_bits(),
        p.flops.to_bits(),
        p.cache_lines.to_bits(),
        p.registers as u64,
    ]
}

/// Decides and optimizes `nest` under `config`: both find a winner, the
/// same one with the same predictions, and the rewrite accepts it.
fn check(nest: &LoopNest, machine: &MachineModel, config: SearchConfig) {
    let (model, cost) = (BalanceModel::CacheAware, CostModelKind::Analytic);
    let sink = ujam::trace::null_sink();
    let (never, off) = (CancelToken::never, MetricsHandle::disabled);
    let name = nest.name();
    let found = decide_costed(nest, machine, model, cost, sink, never(), off(), config)
        .unwrap_or_else(|e| panic!("{name}: decide: {e}"));
    let plan = optimize_costed(nest, machine, model, cost, sink, never(), off(), config)
        .unwrap_or_else(|e| panic!("{name}: optimize: {e}"));
    assert_eq!(found.unroll, plan.unroll, "{name}: unroll");
    assert_eq!(bits(&found.predicted), bits(&plan.predicted), "{name}");
    assert_eq!(bits(&found.original), bits(&plan.original), "{name}");
    let applied = unroll_and_jam(nest, &found.unroll);
    assert!(applied.is_ok(), "{name}: {:?} {applied:?}", found.unroll);
}

/// The first 1,024 content-distinct corpus routines of `seed`, emitted as
/// Fortran and parsed back.
fn serve_corpus(seed: u64) -> Vec<LoopNest> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(1024);
    for idx in 0.. {
        if out.len() == 1024 {
            break;
        }
        let source = ujam::fortran::emit(&corpus_routine(seed, idx));
        let nest = ujam::fortran::parse(&source).expect("emitted corpus Fortran parses");
        if seen.insert(nest.to_string()) {
            out.push(nest);
        }
    }
    out
}

#[test]
fn decisions_equal_the_optimizer_on_the_kernels() {
    let alpha = MachineModel::dec_alpha();
    for k in kernels() {
        check(&k.nest(), &alpha, SearchConfig::default());
    }
    for k in deep_kernels() {
        check(&k.nest(), &alpha, DEEP);
    }
}

#[test]
fn decisions_equal_the_optimizer_on_the_synthetic_corpora() {
    let alpha = MachineModel::dec_alpha();
    for nest in corpus(1997, 200) {
        check(&nest, &alpha, SearchConfig::default());
    }
    for nest in corpus_deep(1997, 40) {
        check(&nest, &alpha, DEEP);
    }
}

#[test]
fn decisions_equal_the_optimizer_on_the_serving_corpora() {
    let alpha = MachineModel::dec_alpha();
    for seed in [1, 3] {
        let nests = serve_corpus(seed);
        assert_eq!(nests.len(), 1024);
        for nest in &nests {
            check(nest, &alpha, SearchConfig::default());
        }
    }
}

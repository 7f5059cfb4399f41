//! The brute-force comparator (§5.3): Wolf, Maydan & Chen's approach.
//!
//! Instead of precomputing tables, this method *materialises* every
//! candidate unrolled loop body, runs scalar replacement and the reuse
//! analysis on it, and evaluates the metric — "exhaustively trying each
//! unroll amount and computing their performance metric for each potential
//! new loop body".  It produces the same decisions as the table-driven
//! optimizer (that equivalence is a test), but costs a full re-analysis
//! per candidate; `ujam-bench` measures the gap, reproducing the paper's
//! argument for the table method.
//!
//! Within the pipeline this search lives in
//! [`crate::pipeline::BruteSearch`], a drop-in alternative to the
//! table-driven [`crate::pipeline::SearchSpace`] stage; the free
//! functions here are the standalone entry points.

use crate::balance::{loop_balance, BalanceInputs};
use crate::driver::{Optimized, Prediction};
use crate::pipeline::{AnalysisCtx, ApplyTransform, BruteSearch, OptimizeError, Pass};
use crate::space::UnrollSpace;
use ujam_ir::transform::{scalar_replacement, unroll_and_jam, TransformError};
use ujam_ir::LoopNest;
use ujam_machine::MachineModel;
use ujam_reuse::{nest_cache_cost, Localized};

/// Evaluates the balance inputs of one candidate by actually transforming
/// the loop: unroll-and-jam, scalar replacement, Equation 1 on the result.
///
/// Fails with the underlying [`TransformError`] when the unroll vector
/// cannot be applied (illegal under the dependence analysis, wrong
/// length, and so on).
pub fn measure_candidate(
    nest: &LoopNest,
    unroll: &[u32],
    machine: &MachineModel,
) -> Result<BalanceInputs, TransformError> {
    let transformed = unroll_and_jam(nest, unroll)?;
    let replaced = scalar_replacement(&transformed);
    let l = Localized::innermost(nest.depth());
    Ok(BalanceInputs {
        flops: transformed.flops_per_iter() as f64,
        memory_ops: replaced.stats.memory_ops() as f64,
        cache_lines: nest_cache_cost(&transformed, &l, machine.line_elems()),
        registers: replaced.stats.registers as i64,
    })
}

/// Exhaustive search over the unroll space, re-analysing every candidate.
///
/// Mirrors [`crate::optimize_in_space`]'s objective exactly so the two
/// can be compared both for agreement (correctness) and cost (the
/// ablation benchmark).  Runs the [`BruteSearch`] pipeline stage followed
/// by [`ApplyTransform`].
pub fn optimize_brute(
    nest: &LoopNest,
    machine: &MachineModel,
    space: &UnrollSpace,
) -> Result<Optimized, OptimizeError> {
    let mut ctx = AnalysisCtx::new(nest, machine)?;
    let found = BruteSearch {
        space: space.clone(),
        code_budget: None,
    }
    .run_traced(&mut ctx)?;
    let nest_out = ApplyTransform {
        unroll: found.unroll.clone(),
    }
    .run_traced(&mut ctx)?;
    Ok(Optimized {
        nest: nest_out,
        unroll: found.unroll,
        predicted: found.predicted,
        original: found.original,
        space: space.clone(),
    })
}

/// Evaluates a candidate with the *dependence-based* reuse model (Carr,
/// PACT'96 — the paper's reference \[1\]): cache lines are derived from the
/// transformed loop's dependence graph, **input dependences included**,
/// instead of from uniformly generated sets.
///
/// Returns the balance inputs plus the bytes of dependence graph the
/// analysis had to build — the storage the UGS model avoids (§5.1).
pub fn measure_candidate_depbased(
    nest: &LoopNest,
    unroll: &[u32],
    machine: &MachineModel,
) -> Result<(BalanceInputs, usize), TransformError> {
    let transformed = unroll_and_jam(nest, unroll)?;
    let replaced = scalar_replacement(&transformed);
    let l = Localized::innermost(nest.depth());
    let graph = ujam_dep::DepGraph::build(&transformed);
    let bytes = graph.stats().bytes_all;
    let lines =
        ujam_reuse::depbased::dep_cache_cost(&transformed, &graph, &l, machine.line_elems());
    Ok((
        BalanceInputs {
            flops: transformed.flops_per_iter() as f64,
            memory_ops: replaced.stats.memory_ops() as f64,
            cache_lines: lines,
            registers: replaced.stats.registers as i64,
        },
        bytes,
    ))
}

/// The paper's *previous-work* optimizer: exhaustive search scored by the
/// dependence-based reuse model.  Also reports the total dependence-graph
/// bytes consumed across the search — the §5.1 cost the UGS tables avoid.
pub fn optimize_depbased(
    nest: &LoopNest,
    machine: &MachineModel,
    space: &UnrollSpace,
) -> Result<(Optimized, usize), OptimizeError> {
    // Validation mirrors `AnalysisCtx::new` so this comparator is as
    // panic-free on bad input as the pipeline proper.
    nest.validate().map_err(OptimizeError::InvalidNest)?;
    if nest.depth() == 0 {
        return Err(OptimizeError::EmptyNest);
    }
    if space.depth() != nest.depth() {
        return Err(OptimizeError::DepthMismatch {
            nest: nest.depth(),
            space: space.depth(),
        });
    }
    let beta_m = machine.balance();
    let regs = machine.registers_for_replacement() as i64;

    let zero = vec![0u32; space.dims()];
    let (original, mut graph_bytes) =
        measure_candidate_depbased(nest, &space.full_vector(&zero), machine)
            .map_err(OptimizeError::Transform)?;
    let mut best = zero;
    let mut best_inputs = original;
    let mut best_score = (f64::INFINITY, usize::MAX);
    // One full-vector scratch for the whole walk, refilled in place per
    // candidate (the write is two tiny loops; the transform dominates).
    let mut full = vec![0u32; space.depth()];
    space.for_each_offset(|u| {
        space.write_full_vector(u, &mut full);
        let Ok((inputs, bytes)) = measure_candidate_depbased(nest, &full, machine) else {
            return;
        };
        graph_bytes += bytes;
        if inputs.registers > regs {
            return;
        }
        let beta = loop_balance(&inputs, machine);
        let score = ((beta - beta_m).abs(), space.copies(u));
        if score.0 < best_score.0 - 1e-12
            || ((score.0 - best_score.0).abs() <= 1e-12 && score.1 < best_score.1)
        {
            best_score = score;
            best = u.to_vec();
            best_inputs = inputs;
        }
    });

    let unroll = space.full_vector(&best);
    let nest_out = unroll_and_jam(nest, &unroll).map_err(OptimizeError::Transform)?;
    Ok((
        Optimized {
            nest: nest_out,
            unroll,
            predicted: Prediction::from_inputs(&best_inputs, machine),
            original: Prediction::from_inputs(&original, machine),
            space: space.clone(),
        },
        graph_bytes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::optimize_in_space;
    use ujam_ir::NestBuilder;

    /// The headline correctness claim: the table-driven optimizer and the
    /// materialise-everything optimizer agree — the tables are not an
    /// approximation on the paper's loop class.
    #[test]
    fn table_and_brute_optimizers_agree() {
        let kernels = vec![
            NestBuilder::new("intro")
                .array("A", &[242])
                .array("B", &[242])
                .loop_("J", 1, 240)
                .loop_("I", 1, 240)
                .stmt("A(J) = A(J) + B(I)")
                .build(),
            NestBuilder::new("dmxpy")
                .array("Y", &[242])
                .array("X", &[242])
                .array("M", &[242, 242])
                .loop_("J", 1, 240)
                .loop_("I", 1, 240)
                .stmt("Y(I) = Y(I) + X(J) * M(I,J)")
                .build(),
            NestBuilder::new("stencil")
                .array("A", &[244, 244])
                .array("B", &[244, 244])
                .loop_("J", 2, 241)
                .loop_("I", 2, 241)
                .stmt("B(I,J) = A(I,J-1) + A(I,J) + A(I,J+1) + A(I-1,J)")
                .build(),
        ];
        for machine in [MachineModel::dec_alpha(), MachineModel::hp_parisc()] {
            for nest in &kernels {
                let space = UnrollSpace::new(nest.depth(), &[0], 5);
                let table = optimize_in_space(nest, &machine, &space).expect("valid nest");
                let brute = optimize_brute(nest, &machine, &space).expect("valid nest");
                assert_eq!(
                    table.unroll,
                    brute.unroll,
                    "{} on {}: table {:?} vs brute {:?}",
                    nest.name(),
                    machine.name(),
                    table.unroll,
                    brute.unroll
                );
                assert!(
                    (table.predicted.balance - brute.predicted.balance).abs() < 1e-9,
                    "{}: predicted balances diverge",
                    nest.name()
                );
            }
        }
    }

    #[test]
    fn brute_respects_divisibility() {
        // Trip 7 (prime): only u = 0 and u = 6 divide.
        let nest = NestBuilder::new("prime")
            .array("A", &[9])
            .array("B", &[9])
            .loop_("J", 1, 7)
            .loop_("I", 1, 7)
            .stmt("A(J) = A(J) + B(I)")
            .build();
        let space = UnrollSpace::new(2, &[0], 5);
        let plan = optimize_brute(&nest, &MachineModel::dec_alpha(), &space).expect("valid nest");
        assert!(plan.unroll[0] == 0, "no legal divisor within bound 5");
    }

    #[test]
    fn brute_rejects_depth_mismatch() {
        let nest = NestBuilder::new("d")
            .array("A", &[9])
            .loop_("I", 1, 7)
            .stmt("A(I) = A(I) + 1.0")
            .build();
        let space = UnrollSpace::new(2, &[0], 5);
        let err = optimize_brute(&nest, &MachineModel::dec_alpha(), &space).unwrap_err();
        assert_eq!(err, OptimizeError::DepthMismatch { nest: 1, space: 2 });
    }
}

//! Workspace pins for the n-dimensional register-tiling search: on deep
//! (4–5 loop) kernels with unroll vectors spanning three loops, the
//! pruned table walk, the exhaustive table walk, and the brute-force
//! comparator agree bitwise under every code budget; the `--explain`
//! ledger balances under both the register and the code-size budget;
//! and the default configuration (`max_unroll_loops = 2`, no code
//! budget) reproduces the paper arm's decisions exactly on all 19
//! Table 2 kernels.

use ujam::core::pipeline::{AnalysisCtx, BruteSearch, Pass, SearchSpace, SelectLoops};
use ujam::core::{
    optimize, optimize_configured, search_tables, tables::CostTables, BalanceModel, CancelToken,
    CostModelKind, SearchConfig, UnrollSpace,
};
use ujam::kernels::{deep_kernel, deep_kernels, kernels};
use ujam::machine::MachineModel;
use ujam::metrics::MetricsHandle;
use ujam::trace::{null_sink, CollectingSink, Verdict};

/// The k = 3 register-tiling space over a deep kernel: the three
/// outermost loops, factors up to 4 (every factor divides the trip
/// count of 24), 64 candidates.
fn k3_space(depth: usize) -> UnrollSpace {
    UnrollSpace::with_bounds(depth, &[0, 1, 2], &[3, 3, 3])
}

/// Code budgets exercised against every deep kernel: unbudgeted, a
/// budget no candidate reaches, and a budget that bites (each kernel
/// body is one statement, so copies themselves are capped at 20).
const BUDGETS: [Option<usize>; 3] = [None, Some(1000), Some(20)];

/// The acceptance pin: on every deep kernel × budget, the pruned
/// table-driven search and the materialise-everything brute search
/// return bitwise-identical winners over the k = 3 space.
#[test]
fn deep_pruned_and_brute_winners_agree_under_every_budget() {
    for k in ["tensor4", "assemble4", "bmm4", "bcontract5"] {
        let nest = deep_kernel(k).expect("roster kernel").nest();
        let space = k3_space(nest.depth());
        let machine = MachineModel::dec_alpha();
        for budget in BUDGETS {
            let mut ctx = AnalysisCtx::new(&nest, &machine).expect("valid");
            let table = SearchSpace {
                space: space.clone(),
                model: BalanceModel::CacheAware,
                cost: CostModelKind::Analytic,
                code_budget: budget,
            }
            .run(&mut ctx)
            .expect("table search runs");
            let brute = BruteSearch {
                space: space.clone(),
                code_budget: budget,
            }
            .run(&mut ctx)
            .expect("brute search runs");
            assert_eq!(table.unroll, brute.unroll, "{k} budget {budget:?}");
            assert_eq!(table.offset, brute.offset, "{k} budget {budget:?}");
            if let Some(b) = budget {
                let copies: usize = table.unroll.iter().map(|&u| u as usize + 1).product();
                assert!(
                    copies * nest.body().len() <= b,
                    "{k}: winner {:?} exceeds code budget {b}",
                    table.unroll
                );
            }
        }
    }
}

/// Pruned and exhaustive table walks agree on the k-dimensional spaces
/// too, and the exhaustive walk (which records every over-budget
/// candidate individually instead of up-set-skipping) never prunes.
#[test]
fn deep_pruned_and_exhaustive_table_walks_agree() {
    let machine = MachineModel::dec_alpha();
    for k in ["tensor4", "bcontract5"] {
        let nest = deep_kernel(k).expect("roster kernel").nest();
        let space = k3_space(nest.depth());
        let tables = CostTables::build(&nest, &space, machine.line_elems());
        for model in [BalanceModel::CacheAware, BalanceModel::AllHits] {
            for budget in BUDGETS {
                let (pruned, _) =
                    search_tables(&nest, &machine, &space, &tables, model, true, budget);
                let (exhaustive, skipped) =
                    search_tables(&nest, &machine, &space, &tables, model, false, budget);
                assert_eq!(pruned, exhaustive, "{k} ({model:?}, budget {budget:?})");
                assert_eq!(skipped, 0, "exhaustive walk must not prune");
            }
        }
    }
}

/// The `--explain` ledger balances on a k = 3 search under both
/// monotone budgets at once: a register file small enough to prune and
/// a code budget small enough to bite.  One record per offset, exactly
/// one winner, all six verdict classes sum to the space size, and the
/// `search.pruned_upset` counter matches the records.
#[test]
fn k3_explain_ledger_balances_under_register_and_code_budgets() {
    for k in ["tensor4", "bmm4"] {
        // 8 registers forces PrunedRegisters fates; 20 statements of
        // code budget (bodies are 1 statement) forces PrunedCodeSize.
        let tiny_regs = || MachineModel::builder("tiny-regs").registers(8).build();
        for (machine, budget) in [
            (MachineModel::dec_alpha(), Some(20)),
            (tiny_regs(), None),
            (tiny_regs(), Some(20)),
        ] {
            let nest = deep_kernel(k).expect("roster kernel").nest();
            let space = k3_space(nest.depth());
            let sink = CollectingSink::new();
            let (metrics, cancel) = (MetricsHandle::disabled(), CancelToken::never());
            let mut ctx =
                AnalysisCtx::observed(&nest, &machine, &sink, metrics, cancel).expect("valid");
            let outcome = SearchSpace {
                space: space.clone(),
                model: BalanceModel::CacheAware,
                cost: CostModelKind::Analytic,
                code_budget: budget,
            }
            .run_traced(&mut ctx)
            .expect("search runs");
            let trace = sink.take();
            let explains: Vec<_> = trace
                .explains()
                .filter(|e| e.pass == "search-space")
                .collect();
            let tag = format!(
                "{k} (regs {}, budget {budget:?})",
                machine.registers_for_replacement()
            );
            assert_eq!(explains.len(), space.len(), "{tag}: one record per offset");
            let count = |v: Verdict| explains.iter().filter(|e| e.verdict == v).count();
            assert_eq!(
                count(Verdict::Dominated)
                    + count(Verdict::Won)
                    + count(Verdict::Infeasible)
                    + count(Verdict::PrunedUpset)
                    + count(Verdict::PrunedRegisters)
                    + count(Verdict::PrunedDivisibility)
                    + count(Verdict::PrunedCodeSize),
                space.len(),
                "{tag}: the ledger balances"
            );
            assert_eq!(count(Verdict::Won), 1, "{tag}: exactly one winner");
            // Only the roomy-register run pins PrunedCodeSize fates: with
            // a tiny register file the register prune fires first and its
            // up-set skips subsume the over-budget candidates.
            if budget.is_some() && machine.registers_for_replacement() > 20 {
                assert!(
                    count(Verdict::PrunedCodeSize) > 0,
                    "{tag}: a biting code budget must leave PrunedCodeSize fates"
                );
            }
            let winner = explains
                .iter()
                .find(|e| e.verdict == Verdict::Won)
                .expect("one winner");
            assert_eq!(winner.u, outcome.unroll, "{tag}: the winner is the outcome");
            let counter = trace
                .counter_totals()
                .iter()
                .find(|(_, name, _)| name == "search.pruned_upset")
                .map(|&(_, _, v)| v)
                .expect("search emits the pruned_upset counter");
            assert_eq!(
                counter as usize,
                count(Verdict::PrunedUpset),
                "{tag}: counter matches"
            );
        }
    }
}

/// The golden-compatibility pin: the default [`SearchConfig`]
/// (`max_unroll_loops = 2`, no code budget) reproduces [`optimize`]'s
/// decision bitwise on every Table 2 kernel — the register-tiling
/// generalization is invisible until a knob is turned.
#[test]
fn default_config_reproduces_every_suite_decision() {
    for machine in [MachineModel::dec_alpha(), MachineModel::hp_parisc()] {
        for k in kernels() {
            let nest = k.nest();
            let baseline = optimize(&nest, &machine).expect("suite kernels optimize");
            let configured = optimize_configured(
                &nest,
                &machine,
                BalanceModel::CacheAware,
                null_sink(),
                CancelToken::never(),
                MetricsHandle::disabled(),
                SearchConfig::default(),
            )
            .expect("suite kernels optimize");
            assert_eq!(baseline.unroll, configured.unroll, "{}", k.name);
            assert_eq!(
                baseline.predicted.balance.to_bits(),
                configured.predicted.balance.to_bits(),
                "{}: predicted balance must be bitwise identical",
                k.name
            );
        }
    }
}

/// `SelectLoops` honours the dimension cap across the deep roster:
/// `max_loops = k` spans at most k loops, `0` is unbounded, and raising
/// the cap never selects fewer loops.
#[test]
fn select_loops_respects_and_lifts_the_dimension_cap() {
    let machine = MachineModel::dec_alpha();
    for k in deep_kernels() {
        let nest = k.nest();
        let mut dims_by_cap = Vec::new();
        for cap in [1usize, 2, 3, 0] {
            let mut ctx = AnalysisCtx::new(&nest, &machine).expect("valid");
            let space = SelectLoops { max_loops: cap }
                .run(&mut ctx)
                .expect("selects");
            if cap > 0 {
                assert!(
                    space.dims() <= cap,
                    "{}: cap {cap} yielded {} dims",
                    k.name,
                    space.dims()
                );
            }
            assert!(
                !space.loops().contains(&(nest.depth() - 1)),
                "{}: innermost loop must stay out of the space",
                k.name
            );
            dims_by_cap.push(space.dims());
        }
        assert!(
            dims_by_cap.windows(2).all(|w| w[0] <= w[1]),
            "{}: raising the cap shrank the space: {dims_by_cap:?}",
            k.name
        );
        // assemble4 is built so each of its three outer loops leaves a
        // different read operand invariant: all three score positive
        // locality, so unbounded selection exceeds the paper's two.
        // (The contractions' remaining outer loops leave no operand
        // *newly* invariant — anything invariant in the innermost loop
        // is localized already — so their spaces legitimately stay 2-d.)
        if k.name == "assemble4" {
            assert!(
                *dims_by_cap.last().expect("nonempty") > 2,
                "{}: unbounded selection stayed within the 2-loop arm",
                k.name
            );
        }
    }
}

//! Workspace-level guarantees for monotone up-set pruning: it never
//! changes the winning unroll vector relative to the exhaustive table
//! walk, the table-driven (pruned) and brute-force (parallel) searches
//! agree on the full kernel suite, and `--explain` accounts for every
//! candidate the pruner skipped.

use ujam::core::pipeline::{AnalysisCtx, BruteSearch, CancelToken, Pass, SearchSpace, SelectLoops};
use ujam::core::{search_tables, tables::CostTables, BalanceModel, CostModelKind};
use ujam::kernels::kernels;
use ujam::machine::MachineModel;
use ujam::metrics::MetricsHandle;
use ujam::trace::{CollectingSink, Verdict};

fn machines() -> Vec<MachineModel> {
    vec![
        MachineModel::dec_alpha(),
        MachineModel::hp_parisc(),
        MachineModel::prefetching_risc(),
    ]
}

/// The satellite pin: pruned and exhaustive table walks return the
/// same winner on every kernel × machine × model, the exhaustive walk
/// never reports pruned candidates, and the pipeline's analytic
/// [`SearchSpace`] stage picks the pruned walk's winner.
#[test]
fn pruning_never_changes_the_winner() {
    for machine in machines() {
        for k in kernels() {
            let nest = k.nest();
            let Ok(mut ctx) = AnalysisCtx::new(&nest, &machine) else {
                continue;
            };
            let Ok(space) = SelectLoops::default().run(&mut ctx) else {
                continue;
            };
            let tables = CostTables::build(&nest, &space, machine.line_elems());
            for model in [BalanceModel::CacheAware, BalanceModel::AllHits] {
                let (pruned, _) =
                    search_tables(&nest, &machine, &space, &tables, model, true, None);
                let (exhaustive, skipped) =
                    search_tables(&nest, &machine, &space, &tables, model, false, None);
                assert_eq!(
                    pruned,
                    exhaustive,
                    "{} on {} ({model:?})",
                    k.name,
                    machine.name()
                );
                assert_eq!(skipped, 0, "exhaustive walk must not prune");
                let staged = SearchSpace {
                    space: space.clone(),
                    model,
                    cost: CostModelKind::Analytic,
                    code_budget: None,
                }
                .run(&mut ctx)
                .expect("the search stage runs on every selected space");
                assert_eq!(
                    staged.offset,
                    pruned,
                    "{} on {} ({model:?}): SearchSpace vs search_tables",
                    k.name,
                    machine.name()
                );
            }
        }
    }
}

/// The table-driven search (with pruning live) and the parallel brute
/// search return bitwise-identical winners on the full kernel suite.
#[test]
fn pruned_table_and_parallel_brute_searches_agree() {
    let machine = MachineModel::dec_alpha();
    for k in kernels() {
        let nest = k.nest();
        let Ok(mut ctx) = AnalysisCtx::new(&nest, &machine) else {
            continue;
        };
        let Ok(space) = SelectLoops::default().run(&mut ctx) else {
            continue;
        };
        let table = SearchSpace {
            space: space.clone(),
            model: BalanceModel::CacheAware,
            cost: CostModelKind::Analytic,
            code_budget: None,
        }
        .run(&mut ctx);
        let Ok(table) = table else {
            continue;
        };
        let brute = BruteSearch {
            space: space.clone(),
            code_budget: None,
        }
        .run(&mut ctx)
        .expect("brute search runs wherever the table search does");
        assert_eq!(table.unroll, brute.unroll, "{}", k.name);
        assert_eq!(table.offset, brute.offset, "{}", k.name);
    }
}

/// The `--explain` ledger balances on every kernel: one record per
/// offset of the space, exactly one winner, evaluated + pruned_upset +
/// pruned_registers + pruned_divisibility + pruned_code_size = space
/// size, and the `search.pruned_upset` counter equals the number of
/// `pruned_upset` records.
#[test]
fn explain_accounts_for_every_candidate() {
    for machine in machines() {
        for k in kernels() {
            let nest = k.nest();
            let sink = CollectingSink::new();
            let (metrics, cancel) = (MetricsHandle::disabled(), CancelToken::never());
            let Ok(mut ctx) = AnalysisCtx::observed(&nest, &machine, &sink, metrics, cancel) else {
                continue;
            };
            let Ok(space) = SelectLoops::default().run(&mut ctx) else {
                continue;
            };
            let outcome = SearchSpace {
                space: space.clone(),
                model: BalanceModel::CacheAware,
                cost: CostModelKind::Analytic,
                code_budget: None,
            }
            .run_traced(&mut ctx);
            let Ok(outcome) = outcome else {
                continue;
            };
            let trace = sink.take();
            let explains: Vec<_> = trace
                .explains()
                .filter(|e| e.pass == "search-space")
                .collect();
            let tag = format!("{} on {}", k.name, machine.name());
            assert_eq!(explains.len(), space.len(), "{tag}: one record per offset");
            let count = |v: Verdict| explains.iter().filter(|e| e.verdict == v).count();
            let evaluated =
                count(Verdict::Dominated) + count(Verdict::Won) + count(Verdict::Infeasible);
            let pruned_upset = count(Verdict::PrunedUpset);
            assert_eq!(
                evaluated
                    + pruned_upset
                    + count(Verdict::PrunedRegisters)
                    + count(Verdict::PrunedDivisibility)
                    + count(Verdict::PrunedCodeSize),
                space.len(),
                "{tag}: the ledger balances"
            );
            assert_eq!(count(Verdict::Won), 1, "{tag}: exactly one winner");
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
            assert_eq!(counter as usize, pruned_upset, "{tag}: counter matches");
        }
    }
}

//! `search_scaling`: how the table-driven unroll search scales with the
//! size of the unroll space, in two walks over the same summed-area
//! tables (`ujam_core::search_tables`):
//!
//! * `summed_area` — every candidate is scored; each `Sum` query is one
//!   dense lookup — O(1) per query, O(N) per search;
//! * `pruned` — the same walk plus monotone up-set pruning of
//!   over-budget candidates.
//!
//! A `build` arm times `CostTables::build` itself, and the
//! `build_{gts,gss,rrs,reg}` arms time each table family alone with its
//! public call (`gts_table`, `gss_table`, `rrs_tables_from`,
//! `reg_table`) over every uniformly generated set of the nest.  They
//! need not sum to `build`: it builds no GTS table and classifies each
//! set once for the RRS and register tables.
//!
//! A `deep_build` row times `build` and `build_reg` once more on the
//! deep kernel `assemble4` over the space `compile_suite` compiles it in
//! (`SelectLoops` at `max_unroll_loops: 0`, 729 points), where most
//! register tables take the sweep.
//!
//! Emits the measurements as machine-readable JSON (default
//! `BENCH_search.json` at the repository root, override with
//! `-- --out PATH`) alongside the
//! human report; `-- --quick` shrinks the sweep for CI smoke runs,
//! where `examples/validate_search_bench.rs` checks the schema.  Both
//! walks must agree on the winner everywhere — a disagreement aborts
//! the run.
//!
//! Run with `cargo bench -p ujam-bench --bench search_scaling`.

use std::fmt::Write as _;
use std::hint::black_box;
use ujam_bench::timing::bench;
use ujam_core::pipeline::{AnalysisCtx, Pass, SelectLoops};
use ujam_core::tables::{reg_table, rrs_tables_from};
use ujam_core::{
    gss_table, gts_table, search_tables, tables::CostTables, BalanceModel, UnrollSpace,
};
use ujam_kernels::kernel;
use ujam_machine::MachineModel;
use ujam_reuse::UgsSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            // Anchor the default at the repository root (where the file
            // is committed) regardless of the invoking directory.
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_search.json").to_string()
        });

    let machine = MachineModel::dec_alpha();
    let model = BalanceModel::CacheAware;
    let nest = kernel("mmjki").expect("known kernel").nest();
    let sets = UgsSet::partition(&nest);
    let line = machine.line_elems();
    // Two unrolled loops: the space grows quadratically in the bound.
    let bounds: &[u32] = if quick { &[2, 4] } else { &[4, 8, 16, 24] };

    println!("search_scaling ({} on {})", nest.name(), machine.name());
    let mut rows = String::new();
    for (i, &bound) in bounds.iter().enumerate() {
        let space = UnrollSpace::new(nest.depth(), &[0, 1], bound);
        let sat = CostTables::build(&nest, &space, line);
        let n = space.len();

        let build = bench(&format!("build/{n}"), || {
            CostTables::build(&nest, &space, line)
        });
        let build_gts = bench(&format!("build/gts/{n}"), || {
            for set in &sets {
                black_box(gts_table(set, &space));
            }
        });
        let build_gss = bench(&format!("build/gss/{n}"), || {
            for set in &sets {
                black_box(gss_table(set, &space, line));
            }
        });
        let build_rrs = bench(&format!("build/rrs/{n}"), || {
            rrs_tables_from(&sets, nest.depth(), &space)
        });
        let build_reg = bench(&format!("build/reg/{n}"), || {
            for set in &sets {
                black_box(reg_table(set, &space));
            }
        });
        let summed = bench(&format!("summed_area/{n}"), || {
            search_tables(&nest, &machine, &space, &sat, model, false, None)
        });
        let pruned = bench(&format!("pruned/{n}"), || {
            search_tables(&nest, &machine, &space, &sat, model, true, None)
        });

        let (sat_win, _) = search_tables(&nest, &machine, &space, &sat, model, false, None);
        let (pruned_win, pruned_upset) =
            search_tables(&nest, &machine, &space, &sat, model, true, None);
        let agree = sat_win == pruned_win;
        assert!(
            agree,
            "engines disagree at bound {bound}: summed-area {sat_win:?}, pruned {pruned_win:?}"
        );
        println!("  space {n:>4}: winner {sat_win:?}, {pruned_upset} pruned");

        if i > 0 {
            rows.push(',');
        }
        let winner: Vec<String> = sat_win.iter().map(|x| x.to_string()).collect();
        let _ = write!(
            rows,
            "{{\"space\":{n},\"bound\":{bound},\"summed_area_ns\":{:.1},\
             \"pruned_ns\":{:.1},\"build_ns\":{:.1},\
             \"build_gts_ns\":{:.1},\"build_gss_ns\":{:.1},\
             \"build_rrs_ns\":{:.1},\"build_reg_ns\":{:.1},\"pruned_upset\":{},\
             \"winner\":[{}],\"winners_agree\":{agree}}}",
            summed.median_ns,
            pruned.median_ns,
            build.median_ns,
            build_gts.median_ns,
            build_gss.median_ns,
            build_rrs.median_ns,
            build_reg.median_ns,
            pruned_upset,
            winner.join(",")
        );
    }
    // Depth-scaling arm: the same walk over a deep (4-loop) kernel with
    // k = 1, 2, 3 unrolled loops — the register-tiling mode.  The space
    // grows geometrically in k; pruned and exhaustive walks must agree
    // on the winner at every depth.
    let deep = ujam_kernels::deep_kernel("tensor4")
        .expect("known deep kernel")
        .nest();
    let deep_bound = if quick { 4 } else { 8 };
    println!("depth scaling ({} on {})", deep.name(), machine.name());
    let mut depth_rows = String::new();
    for k in 1..=3usize {
        let loops: Vec<usize> = (0..k).collect();
        let space = UnrollSpace::new(deep.depth(), &loops, deep_bound);
        let sat = CostTables::build(&deep, &space, line);

        let summed = bench(&format!("depth{k}/summed_area/{}", space.len()), || {
            search_tables(&deep, &machine, &space, &sat, model, false, None)
        });
        let pruned_t = bench(&format!("depth{k}/pruned/{}", space.len()), || {
            search_tables(&deep, &machine, &space, &sat, model, true, None)
        });

        let (sat_win, _) = search_tables(&deep, &machine, &space, &sat, model, false, None);
        let (pruned_win, pruned_upset) =
            search_tables(&deep, &machine, &space, &sat, model, true, None);
        let agree = sat_win == pruned_win;
        assert!(
            agree,
            "engines disagree at depth {k}: summed-area {sat_win:?}, pruned {pruned_win:?}"
        );
        println!(
            "  k={k} space {:>4}: winner {:?}, {} pruned",
            space.len(),
            sat_win,
            pruned_upset
        );

        if k > 1 {
            depth_rows.push(',');
        }
        let winner: Vec<String> = sat_win.iter().map(|x| x.to_string()).collect();
        let _ = write!(
            depth_rows,
            "{{\"k\":{k},\"space\":{},\"summed_area_ns\":{:.1},\"pruned_ns\":{:.1},\
             \"pruned_upset\":{},\"winner\":[{}],\"winners_agree\":{agree}}}",
            space.len(),
            summed.median_ns,
            pruned_t.median_ns,
            pruned_upset,
            winner.join(",")
        );
    }

    // Deep build row: one deep kernel at its compile_suite space.
    let assemble = ujam_kernels::deep_kernel("assemble4")
        .expect("known deep kernel")
        .nest();
    let assemble_sets = UgsSet::partition(&assemble);
    let mut ctx = AnalysisCtx::new(&assemble, &machine).expect("valid deep kernel");
    let space = SelectLoops { max_loops: 0 }
        .run(&mut ctx)
        .expect("deep kernel selects loops");
    let n = space.len();
    let build = bench(&format!("deep/build/{n}"), || {
        CostTables::build(&assemble, &space, line)
    });
    let build_reg = bench(&format!("deep/build/reg/{n}"), || {
        for set in &assemble_sets {
            black_box(reg_table(set, &space));
        }
    });
    let deep_build = format!(
        "{{\"kernel\":\"{}\",\"max_unroll_loops\":0,\"space\":{n},\
         \"build_ns\":{:.1},\"build_reg_ns\":{:.1}}}",
        assemble.name(),
        build.median_ns,
        build_reg.median_ns
    );

    let doc = format!(
        "{{\"bench\":\"search_scaling\",\"kernel\":\"{}\",\"machine\":\"{}\",\
         \"model\":\"cache\",\"quick\":{quick},\"rows\":[{rows}],\
         \"depth_kernel\":\"{}\",\"depth_rows\":[{depth_rows}],\
         \"deep_build\":{deep_build}}}\n",
        nest.name(),
        machine.name(),
        deep.name()
    );
    std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}

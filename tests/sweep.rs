//! Sweep ≡ per-offset oracle.
//!
//! The swept tables are filled by one sweep per uniformly generated set
//! over the whole unroll box (`streams::*_sums`).  These tests pin every
//! sweep, bitwise and at every offset, to the per-offset direct count it
//! replaced (`streams::*_at`) — over the Table 2 suite, the deep kernels,
//! and seeded synthetic corpora, on spaces of zero to three unrolled
//! loops with heterogeneous per-loop bounds.  Every set is checked, not
//! only the ones whose tables take the sweep.
//!
//! The same spaces, and the spaces the Table 2 suite and the deep kernels
//! compile over, also pin the public per-family builders to
//! `CostTables`: the optimizer reads its tables from
//! `CostTables::build_with_sets`, while the per-family timings of the
//! benchmark's traced profile call `gss_table`, `rrs_tables_from` and
//! `reg_table` one family at a time ([`builders_match`]).  On the
//! compile spaces, `gss_table` and `gts_table` are also pinned to their
//! per-offset counts ([`families_match_oracles`]).

use ujam::core::pipeline::{AnalysisCtx, Pass, SelectLoops};
use ujam::core::streams::{
    gss_count_at, gss_count_sums, gts_count_at, ugs_loads_at, ugs_loads_sums, ugs_registers_at,
    ugs_registers_sums,
};
use ujam::core::tables::{reg_table, rrs_tables_from, CostTables};
use ujam::core::{gss_table, gts_table, UnrollSpace};
use ujam::ir::{LoopNest, NestBuilder};
use ujam::kernels::{corpus, corpus_deep, deep_kernels, kernels};
use ujam::machine::MachineModel;
use ujam::reuse::{leader_lines, Localized, UgsSet};
use ujam_rng::Rng;

mod common;

/// Checks all three sweeps of every set of `nest` against their oracles
/// over random spaces and line sizes; returns the number of entries
/// compared.
fn check_nest(label: &str, nest: &LoopNest, rng: &mut Rng) -> usize {
    common::spaces(nest, rng)
        .iter()
        .map(|(space, line)| check(label, nest, space, *line))
        .sum()
}

/// Checks all three sweeps of every set of `nest` against their oracles,
/// and the public builders against `CostTables`, over one space; returns
/// the number of entries compared.
fn check(label: &str, nest: &LoopNest, space: &UnrollSpace, line: i64) -> usize {
    let depth = nest.depth();
    let mut checked = builders_match(label, nest, space, line);
    for set in &UgsSet::partition(nest) {
        let registers = ugs_registers_sums(set, space);
        let loads = ugs_loads_sums(set, space);
        let gss = gss_count_sums(set, space, line);
        assert_eq!(registers.len(), space.len());
        let at = |what: &str, u: &[u32]| {
            format!(
                "{label}: {what} of {} @ {u:?} over loops {:?} bounds {:?} (line {line})",
                set.array(),
                space.loops(),
                space.bounds()
            )
        };
        let mut flat = 0;
        space.for_each_offset(|u| {
            assert_eq!(
                registers[flat],
                ugs_registers_at(set, space, u, depth) as i64,
                "{}",
                at("registers", u)
            );
            assert_eq!(
                loads[flat],
                ugs_loads_at(set, space, u, depth) as i64,
                "{}",
                at("loads", u)
            );
            assert_eq!(
                gss[flat],
                gss_count_at(set, space, u, depth, line) as i64,
                "{}",
                at("GSS count", u)
            );
            flat += 1;
        });
        checked += 3 * space.len();
    }
    checked
}

/// Pins the public builders `gss_table`, `rrs_tables_from` and
/// `reg_table` of every set of `nest` to the whole-nest queries of
/// `CostTables::build_with_sets` over `space`, bitwise at every offset:
/// `Σ f·gss_table = cache_lines`, `rrs_tables_from(..).loads = loads`
/// (and `memory_ops`), and `Σ reg_table = registers`, each summed in the
/// set order `CostTables` uses.  Returns the number of offsets compared.
fn builders_match(label: &str, nest: &LoopNest, space: &UnrollSpace, line: i64) -> usize {
    let sets = UgsSet::partition(nest);
    let tables = CostTables::build_with_sets(nest, &sets, space, line);
    let l = Localized::innermost(nest.depth());
    let gss: Vec<_> = sets
        .iter()
        .map(|set| (leader_lines(set.h(), &l, line), gss_table(set, space, line)))
        .collect();
    let rrs = rrs_tables_from(&sets, nest.depth(), space);
    let registers: Vec<_> = sets.iter().map(|set| reg_table(set, space)).collect();
    space.for_each_offset(|u| {
        let at = format!(
            "{label} @ {u:?} over loops {:?} bounds {:?} (line {line})",
            space.loops(),
            space.bounds()
        );
        let lines: f64 = gss.iter().map(|(f, t)| f * t.prefix_sum(u) as f64).sum();
        assert_eq!(
            lines.to_bits(),
            tables.cache_lines(u).to_bits(),
            "cache lines: {at}"
        );
        assert_eq!(rrs.loads(u), tables.loads(u), "loads: {at}");
        assert_eq!(rrs.memory_ops(u), tables.memory_ops(u), "memory ops: {at}");
        let regs: i64 = registers.iter().map(|t| t.prefix_sum(u)).sum();
        assert_eq!(regs, tables.registers(u), "registers: {at}");
    });
    space.len()
}

#[test]
fn sweeps_equal_per_offset_oracles_on_the_kernels() {
    let mut rng = Rng::new(0x5eed_5eeb);
    let mut checked = 0;
    for k in kernels() {
        checked += check_nest(k.name, &k.nest(), &mut rng);
    }
    for k in deep_kernels() {
        checked += check_nest(k.name, &k.nest(), &mut rng);
    }
    assert!(checked > 1_000, "only {checked} entries compared");
}

#[test]
fn sweeps_equal_per_offset_oracles_on_seeded_corpora() {
    let mut rng = Rng::new(0x5eed_c0de);
    let mut checked = 0;
    for (i, nest) in corpus(1997, 200).iter().enumerate() {
        checked += check_nest(&format!("corpus #{i}"), nest, &mut rng);
    }
    for (i, nest) in corpus_deep(1997, 40).iter().enumerate() {
        checked += check_nest(&format!("corpus_deep #{i}"), nest, &mut rng);
    }
    assert!(checked > 10_000, "only {checked} entries compared");
}

/// A non-SIV line chain: the unrolled loop and the innermost loop both
/// drive the first subscript, so positions within a spatial class are not
/// monotone in the walk order, and a copy can fall within a line of an
/// earlier group leader but not of the latest one.
#[test]
fn sweeps_equal_per_offset_oracles_on_a_skewed_chain() {
    let nest = NestBuilder::new("skew")
        .array("A", &[260, 60])
        .array("B", &[60, 60])
        .loop_("J", 1, 48)
        .loop_("I", 1, 48)
        .stmt("B(I,J) = A(I+2J,I) + A(I+2J+1,I+3)")
        .build();
    let space = UnrollSpace::new(2, &[0], 7);
    for line in [1, 2, 3, 4] {
        check("skew", &nest, &space, line);
    }
}

/// Pins `gss_table` and `gts_table` of every set of `nest` to their
/// per-offset counts `gss_count_at` and `gts_count_at`, bitwise at every
/// offset of `space`.  Unlike [`builders_match`], whose two sides read
/// the same per-set tables, this catches a wrong closed form.  Returns
/// the number of entries compared.
fn families_match_oracles(label: &str, nest: &LoopNest, space: &UnrollSpace, line: i64) -> usize {
    let depth = nest.depth();
    let mut checked = 0;
    for set in &UgsSet::partition(nest) {
        let (gss, gts) = (gss_table(set, space, line), gts_table(set, space));
        space.for_each_offset(|u| {
            let at = format!(
                "{label}: {} @ {u:?} over loops {:?} bounds {:?} (line {line})",
                set.array(),
                space.loops(),
                space.bounds()
            );
            let want = gss_count_at(set, space, u, depth, line) as i64;
            assert_eq!(gss.prefix_sum(u), want, "GSS table: {at}");
            let want = gts_count_at(set, space, u, depth) as i64;
            assert_eq!(gts.prefix_sum(u), want, "GTS table: {at}");
        });
        checked += 2 * space.len();
    }
    checked
}

/// The spaces the 19 + 6 kernels compile over in `compile_suite`:
/// `SelectLoops` at its default for the Table 2 suite and at
/// `max_loops: 0` for the deep kernels, with the DEC Alpha's line.  On
/// them the public builders equal `CostTables`, and the GSS and GTS
/// tables equal their per-offset counts.
#[test]
fn public_builders_equal_cost_tables_on_the_compile_spaces() {
    let machine = MachineModel::dec_alpha();
    let line = machine.line_elems();
    let suite = kernels().into_iter().map(|k| (k.name, k.nest(), 2));
    let deep = deep_kernels().into_iter().map(|k| (k.name, k.nest(), 0));
    let mut checked = 0;
    for (name, nest, max_loops) in suite.chain(deep) {
        let mut ctx = AnalysisCtx::new(&nest, &machine).expect("valid kernel");
        let space = SelectLoops { max_loops }
            .run(&mut ctx)
            .expect("kernels select loops");
        checked += builders_match(name, &nest, &space, line);
        checked += families_match_oracles(name, &nest, &space, line);
    }
    assert!(checked > 1_000, "only {checked} offsets compared");
}

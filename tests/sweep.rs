//! Sweep ≡ closed form ≡ per-offset oracle.
//!
//! The swept tables are filled by one sweep per uniformly generated set
//! over the whole unroll box (`streams::*_sums`), the others by leader
//! counting over signed merge shifts.  These tests pin every sweep and
//! every public per-set builder (`gss_table`, `gts_table`,
//! `rrs_tables_from` of one set, `reg_table`), bitwise and at every
//! offset, to the per-offset direct counts (`streams::*_at`,
//! [`families_match_oracles`]) — over the Table 2 suite, the deep
//! kernels, seeded synthetic corpora and seeded def-bearing nests, on
//! spaces of zero to three unrolled loops with heterogeneous per-loop
//! bounds.  Every set is checked, whichever construction it takes.
//!
//! The same spaces, and the spaces the Table 2 suite and the deep kernels
//! compile over, also pin the public per-family builders to
//! `CostTables`: the optimizer reads its tables from
//! `CostTables::build_with_sets`, while the per-family timings of the
//! benchmark's traced profile call `gss_table`, `rrs_tables_from` and
//! `reg_table` one family at a time ([`builders_match`]).

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

/// [`check`]s `nest` over random spaces and line sizes; returns the
/// number of entries compared.
fn check_nest(label: &str, nest: &LoopNest, rng: &mut Rng) -> usize {
    common::spaces(nest, rng)
        .iter()
        .map(|(space, line)| check(label, nest, space, *line))
        .sum()
}

/// Checks the sweeps and the closed-form tables of every set of `nest`
/// against their oracles, and the public builders against `CostTables`,
/// over one space; returns the number of entries compared.
fn check(label: &str, nest: &LoopNest, space: &UnrollSpace, line: i64) -> usize {
    builders_match(label, nest, space, line) + families_match_oracles(label, nest, space, line)
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

/// Pins every set's tables to their per-offset counts, bitwise at every
/// offset of `space`: the three sweeps (`ugs_registers_sums`,
/// `ugs_loads_sums`, `gss_count_sums`), and the public builders
/// `gss_table`, `gts_table`, `rrs_tables_from` of the set alone and
/// `reg_table` — to `gss_count_at`, `gts_count_at`, `ugs_loads_at` and
/// `ugs_registers_at`.  Unlike [`builders_match`], whose two sides read
/// the same per-set tables, this catches a wrong closed form.  Returns
/// the number of entries compared.
fn families_match_oracles(label: &str, nest: &LoopNest, space: &UnrollSpace, line: i64) -> usize {
    let depth = nest.depth();
    let mut checked = 0;
    for set in &UgsSet::partition(nest) {
        let sweeps = (
            ugs_registers_sums(set, space),
            ugs_loads_sums(set, space),
            gss_count_sums(set, space, line),
        );
        let (gss, gts) = (gss_table(set, space, line), gts_table(set, space));
        let rrs = rrs_tables_from(std::slice::from_ref(set), depth, space);
        let registers = reg_table(set, space);
        let mut flat = 0;
        space.for_each_offset(|u| {
            let at = |what: &str| {
                format!(
                    "{label}: {what} of {} @ {u:?} over loops {:?} bounds {:?} (line {line})",
                    set.array(),
                    space.loops(),
                    space.bounds()
                )
            };
            let want = ugs_registers_at(set, space, u, depth) as i64;
            assert_eq!(sweeps.0[flat], want, "{}", at("register sweep"));
            assert_eq!(registers.prefix_sum(u), want, "{}", at("register table"));
            let want = ugs_loads_at(set, space, u, depth) as i64;
            assert_eq!(sweeps.1[flat], want, "{}", at("loads sweep"));
            assert_eq!(rrs.loads(u), want, "{}", at("RRS loads"));
            let want = gss_count_at(set, space, u, depth, line) as i64;
            assert_eq!(sweeps.2[flat], want, "{}", at("GSS sweep"));
            assert_eq!(gss.prefix_sum(u), want, "{}", at("GSS table"));
            let want = gts_count_at(set, space, u, depth) as i64;
            assert_eq!(gts.prefix_sum(u), want, "{}", at("GTS table"));
            flat += 1;
        });
        checked += 7 * space.len();
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

/// Seeded def-bearing nests ([`common::def_nest`]): merges of every
/// sign, reverse providers and first-row tolerance chains, on the random
/// spaces of [`check_nest`].  Every closed-form table and every sweep
/// equals its per-offset count.
#[test]
fn tables_equal_per_offset_oracles_on_def_bearing_nests() {
    let mut rng = Rng::new(0xdef5_0b1e);
    let mut checked = 0;
    for i in 0..2_000 {
        let nest = common::def_nest(&mut rng, &format!("def{i}"));
        checked += check_nest(&format!("def #{i}: {nest}"), &nest, &mut rng);
    }
    assert!(checked > 100_000, "only {checked} entries compared");
}

/// A first-row tolerance chain: `A`'s first subscripts `K-2`, `K-1`
/// and `K` differ by residues within a line of 2 pairwise-adjacent, but
/// `K-2` and `K` do not, so the spatial relation is not transitive and
/// the greedy leader walk is not a class count.  The set sweeps.
#[test]
fn a_first_row_tolerance_chain_takes_the_sweep() {
    let nest = NestBuilder::new("chain")
        .array("A", &[36, 36, 36])
        .array("B", &[36, 36, 36])
        .loop_("K", 3, 30)
        .loop_("J", 3, 30)
        .loop_("I", 3, 30)
        .stmt("A(K-2,I-2,J-1) = A(K-2,I-1,J+2) + A(K,I-2,J) + A(K-1,I-2,J-2) + B(I-1,J-2,K)")
        .build();
    let space = UnrollSpace::new(3, &[1], 5);
    let a = UgsSet::partition(&nest)
        .into_iter()
        .find(|s| s.array() == "A")
        .expect("A");
    let t = gss_table(&a, &space, 2);
    let sums: Vec<i64> = (2..=5).map(|u| t.prefix_sum(&[u])).collect();
    assert_eq!(sums, [10, 12, 14, 16]);
    check("chain", &nest, &space, 2);
}

/// `A(I,I+J)` with `J` unrolled: no unrolled loop indexes the first
/// subscript, but the second pins only `I + J`, so the copy at `J`
/// offset 1 is the original shifted by one `I` iteration, one element
/// along the first subscript — a line chain through the innermost loop.
/// The set sweeps.
#[test]
fn an_innermost_walk_along_lines_takes_the_sweep() {
    let nest = NestBuilder::new("walk")
        .array("A", &[200, 200])
        .array("B", &[200, 200])
        .loop_("J", 1, 48)
        .loop_("I", 1, 48)
        .stmt("B(I,J) = A(I,I+J) + A(I+1,I+J)")
        .build();
    let space = UnrollSpace::new(2, &[0], 6);
    for line in [1, 2, 4] {
        check("walk", &nest, &space, line);
    }
}

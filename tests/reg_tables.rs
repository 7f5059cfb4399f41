//! Register table ≡ per-offset oracle.
//!
//! The optimizer reads register pressure from `tables::reg_table`, which
//! builds each uniformly generated set's table one of two ways (the GTS
//! table for invariant sets, the sweep for the rest).  These tests pin
//! every table the optimizer can build, at every offset, to the direct
//! count `ugs_registers_at` — over the Table 2 suite, the deep kernels
//! and seeded synthetic corpora on the random spaces `tests/sweep.rs`
//! draws, and over each deep kernel's own `compile_suite` space
//! (`SelectLoops` at `max_unroll_loops: 0`).
//!
//! The tests classify each set from `H` and its def flags, and require
//! every special set shape to occur, so the pins cannot go vacuous:
//! all-def sets (register count zero), invariant sets (one register per
//! stream) and def-free sets with a self-merge loop (an unrolled loop
//! whose `H` column is zero).

use ujam::core::pipeline::{AnalysisCtx, Pass, SelectLoops};
use ujam::core::streams::ugs_registers_at;
use ujam::core::tables::reg_table;
use ujam::core::UnrollSpace;
use ujam::ir::LoopNest;
use ujam::kernels::{corpus, corpus_deep, deep_kernels, kernels};
use ujam::machine::MachineModel;
use ujam::reuse::UgsSet;
use ujam_rng::Rng;

mod common;

/// How many sets of each special shape were checked.
#[derive(Default)]
struct Shapes {
    all_def: usize,
    invariant: usize,
    def_free_self_merge: usize,
}

/// Checks the register table of every set of `nest` over `space` against
/// the oracle at every offset; returns the number of entries compared.
fn check(label: &str, nest: &LoopNest, space: &UnrollSpace, shapes: &mut Shapes) -> usize {
    let depth = nest.depth();
    let mut checked = 0;
    for set in &UgsSet::partition(nest) {
        let h = set.h();
        let invariant = h.col(depth - 1).iter().all(|&x| x == 0);
        let defs = set.members().iter().filter(|m| m.is_def).count();
        let self_merge = space
            .loops()
            .iter()
            .any(|&l| h.col(l).iter().all(|&x| x == 0));
        if defs == set.members().len() && !invariant {
            shapes.all_def += 1;
        }
        if invariant {
            shapes.invariant += 1;
        }
        if defs == 0 && self_merge {
            shapes.def_free_self_merge += 1;
        }
        let table = reg_table(set, space);
        space.for_each_offset(|u| {
            assert_eq!(
                table.prefix_sum(u),
                ugs_registers_at(set, space, u, depth) as i64,
                "{label}: registers of {} @ {u:?} over loops {:?} bounds {:?}",
                set.array(),
                space.loops(),
                space.bounds()
            );
        });
        checked += space.len();
    }
    checked
}

/// [`check`] over the spaces `tests/sweep.rs` draws for `nest` from the
/// same generator state (their line sizes are not used here).
fn check_nest(label: &str, nest: &LoopNest, rng: &mut Rng, shapes: &mut Shapes) -> usize {
    common::spaces(nest, rng)
        .iter()
        .map(|(space, _)| check(label, nest, space, shapes))
        .sum()
}

fn assert_every_shape(shapes: &Shapes) {
    assert!(shapes.all_def > 0, "no all-def set checked");
    assert!(shapes.invariant > 0, "no invariant set checked");
    assert!(
        shapes.def_free_self_merge > 0,
        "no def-free set with a self-merge loop checked"
    );
}

#[test]
fn register_tables_equal_the_oracle_on_the_kernels() {
    let mut rng = Rng::new(0x5eed_5eeb);
    let mut shapes = Shapes::default();
    let mut checked = 0;
    for k in kernels() {
        checked += check_nest(k.name, &k.nest(), &mut rng, &mut shapes);
    }
    for k in deep_kernels() {
        checked += check_nest(k.name, &k.nest(), &mut rng, &mut shapes);
    }
    assert!(checked > 500, "only {checked} entries compared");
    assert_every_shape(&shapes);
}

#[test]
fn register_tables_equal_the_oracle_on_seeded_corpora() {
    let mut rng = Rng::new(0x5eed_c0de);
    let mut shapes = Shapes::default();
    let mut checked = 0;
    for (i, nest) in corpus(1997, 200).iter().enumerate() {
        checked += check_nest(&format!("corpus #{i}"), nest, &mut rng, &mut shapes);
    }
    for (i, nest) in corpus_deep(1997, 40).iter().enumerate() {
        checked += check_nest(&format!("corpus_deep #{i}"), nest, &mut rng, &mut shapes);
    }
    assert!(checked > 3_000, "only {checked} entries compared");
    assert_every_shape(&shapes);
}

/// The spaces the deep kernels compile over in `compile_suite`: every
/// outer loop, at the bounds `SelectLoops` picks (729 points for
/// `assemble4`).
#[test]
fn register_tables_equal_the_oracle_on_the_deep_compile_spaces() {
    let machine = MachineModel::dec_alpha();
    let mut shapes = Shapes::default();
    for k in deep_kernels() {
        let nest = k.nest();
        let mut ctx = AnalysisCtx::new(&nest, &machine).expect("valid deep kernel");
        let space = SelectLoops { max_loops: 0 }
            .run(&mut ctx)
            .expect("deep kernels select loops");
        if k.name == "assemble4" {
            assert_eq!(space.len(), 729, "assemble4's compile space");
        }
        check(k.name, &nest, &space, &mut shapes);
    }
    assert_every_shape(&shapes);
}

//! Sweep ≡ per-offset oracle.
//!
//! The exact-fallback tables are filled by one sweep per uniformly
//! generated set over the whole unroll box (`streams::*_sums`).  These
//! tests pin every sweep, bitwise and at every offset, to the per-offset
//! direct count it replaced (`streams::*_at`) — over the Table 2 suite,
//! the deep kernels, and seeded synthetic corpora, on spaces of zero to
//! three unrolled loops with heterogeneous per-loop bounds.  Every set is
//! checked, not only the ones whose tables take the fallback path.

use ujam::core::streams::{
    gss_count_at, gss_count_sums, ugs_loads_at, ugs_loads_sums, ugs_registers_at,
    ugs_registers_sums,
};
use ujam::core::UnrollSpace;
use ujam::ir::{LoopNest, NestBuilder};
use ujam::kernels::{corpus, corpus_deep, deep_kernels, kernels};
use ujam::reuse::UgsSet;
use ujam_rng::Rng;

/// Largest per-loop bound drawn for a space of `k` unrolled loops (the
/// oracle re-materialises every box, so the boxes stay small).
const MAX_BOUND: [i64; 3] = [7, 4, 2];

/// One space per dimensionality `k = 0..=min(3, depth − 1)`: `k` distinct
/// random outer loops, each with its own random bound.
fn spaces(nest: &LoopNest, rng: &mut Rng) -> Vec<UnrollSpace> {
    let outer = nest.depth() - 1;
    (0..=outer.min(3))
        .map(|k| {
            let mut loops: Vec<usize> = (0..outer).collect();
            rng.shuffle(&mut loops);
            loops.truncate(k);
            let bounds: Vec<u32> = (0..k)
                .map(|_| rng.int(0, MAX_BOUND[k - 1]) as u32)
                .collect();
            UnrollSpace::with_bounds(nest.depth(), &loops, &bounds)
        })
        .collect()
}

/// Checks all three sweeps of every set of `nest` against their oracles
/// over random spaces and line sizes; returns the number of entries
/// compared.
fn check_nest(label: &str, nest: &LoopNest, rng: &mut Rng) -> usize {
    spaces(nest, rng)
        .iter()
        .map(|space| check(label, nest, space, *rng.choose(&[1i64, 2, 4, 8])))
        .sum()
}

/// Checks all three sweeps of every set of `nest` against their oracles
/// over one space; returns the number of entries compared.
fn check(label: &str, nest: &LoopNest, space: &UnrollSpace, line: i64) -> usize {
    let depth = nest.depth();
    let mut checked = 0;
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

//! The seeded unroll spaces and def-bearing nests the table tests draw.

use ujam::core::UnrollSpace;
use ujam::ir::{LoopNest, NestBuilder};
use ujam_rng::Rng;

/// Largest per-loop bound drawn for a space of `k` unrolled loops (the
/// oracles re-materialise every box, so the boxes stay small).
const MAX_BOUND: [i64; 3] = [7, 4, 2];

/// One space per dimensionality `k = 0..=min(3, depth − 1)` — `k`
/// distinct random outer loops, each with its own random bound — then
/// one cache line size (in elements) per space.
pub fn spaces(nest: &LoopNest, rng: &mut Rng) -> Vec<(UnrollSpace, i64)> {
    let outer = nest.depth() - 1;
    let spaces: Vec<UnrollSpace> = (0..=outer.min(3))
        .map(|k| {
            let mut loops: Vec<usize> = (0..outer).collect();
            rng.shuffle(&mut loops);
            loops.truncate(k);
            let bounds: Vec<u32> = (0..k)
                .map(|_| rng.int(0, MAX_BOUND[k - 1]) as u32)
                .collect();
            UnrollSpace::with_bounds(nest.depth(), &loops, &bounds)
        })
        .collect();
    spaces
        .into_iter()
        .map(|space| (space, *rng.choose(&[1i64, 2, 4, 8])))
        .collect()
}

/// A seeded def-bearing nest: 2–3 loops (`J, I` or `K, J, I`, each over
/// `3..=30`) and one array family `A`, whose every reference subscripts
/// the loop variables in one fixed permutation, each with its own offset
/// in `[−2, 2]`.  Each of 1–3 statements stores to `A` with probability
/// 0.7 (to a write-only `C` otherwise) and reads one to three `A`
/// references, plus, half the time, one `B` reference in a permutation
/// of its own.  Merge offsets of every sign, reverse providers and
/// first-row tolerance chains all arise among these sets.
#[allow(dead_code)] // `tests/reg_tables.rs` draws only the spaces
pub fn def_nest(rng: &mut Rng, name: &str) -> LoopNest {
    let vars: &[&str] = if rng.chance(0.5) {
        &["J", "I"]
    } else {
        &["K", "J", "I"]
    };
    let perm = |rng: &mut Rng| {
        let mut p = vars.to_vec();
        rng.shuffle(&mut p);
        p
    };
    let (a, b, c) = (perm(rng), perm(rng), perm(rng));
    let reference = |rng: &mut Rng, array: &str, perm: &[&str]| {
        let subs: Vec<String> = perm
            .iter()
            .map(|v| match rng.int(-2, 2) {
                0 => v.to_string(),
                k => format!("{v}{k:+}"),
            })
            .collect();
        format!("{array}({})", subs.join(","))
    };
    let extents = vec![36; vars.len()];
    let mut builder = NestBuilder::new(name)
        .array("A", &extents)
        .array("B", &extents)
        .array("C", &extents);
    for v in vars {
        builder = builder.loop_(v, 3, 30);
    }
    for _ in 0..rng.int(1, 3) {
        let lhs = if rng.chance(0.7) {
            reference(rng, "A", &a)
        } else {
            reference(rng, "C", &c)
        };
        let mut reads: Vec<String> = (0..rng.int(1, 3))
            .map(|_| reference(rng, "A", &a))
            .collect();
        if rng.chance(0.5) {
            reads.push(reference(rng, "B", &b));
        }
        builder = builder.stmt(&format!("{lhs} = {}", reads.join(" + ")));
    }
    builder.build()
}

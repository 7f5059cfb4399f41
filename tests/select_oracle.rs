//! Loop selection ≡ Equation 1 from its definitions.
//!
//! `SelectLoops` ranks the loops by Equation 1 (§3.4).  The optimizer
//! answers its self-reuse tests as integer rank tests and its
//! group-spatial partition with one factored elimination per set.  This
//! test recomputes Equation 1 from the definitions instead: self reuse
//! as a rational kernel intersected with the localized axes (`Space`),
//! and the partition with the rational solve rebuilt for every pair
//! (`solve_unique`).  Every locality score and every loop selection must
//! match it bitwise, over the Table 2 suite, the deep kernels and seeded
//! synthetic corpora, for both machines' line sizes and for both the
//! paper's two-loop selection and unbounded register tiling.

use ujam::core::pipeline::{AnalysisCtx, Pass, SelectLoops};
use ujam::dep::UNROLL_CAP;
use ujam::ir::LoopNest;
use ujam::kernels::{corpus, corpus_deep, deep_kernels, kernels};
use ujam::linalg::{solve_unique, Mat, SolveOutcome, Space};
use ujam::machine::MachineModel;
use ujam::reuse::{centered_mod, Localized, UgsSet};

/// `ker h ∩ L ≠ {0}` over the rationals.
fn kernel_meets(h: &Mat, l: &Localized) -> bool {
    !Space::kernel(h)
        .intersect(&Space::axes(l.depth(), l.loops()))
        .is_trivial()
}

/// Cache lines per iteration of one group-spatial leader (Equation 1).
fn leader_lines(h: &Mat, l: &Localized, line: i64) -> f64 {
    if kernel_meets(h, l) {
        0.0
    } else if h.rows() > 0 && kernel_meets(&h.with_zero_row(0), l) {
        1.0 / line as f64
    } else {
        1.0
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// Whether `delta` is a group-spatial difference within `L`: the rows
/// below the first close exactly, the first up to a residue `< line`.
fn group_spatial(h: &Mat, l: &Localized, line: i64, delta: &[i64]) -> bool {
    if delta.is_empty() {
        return true;
    }
    let rows: Vec<&[i64]> = (1..h.rows()).map(|r| h.row(r)).collect();
    let sub = if rows.is_empty() {
        Mat::zeros(0, h.cols())
    } else {
        Mat::from_rows(&rows)
    };
    let x = match solve_unique(&sub, &delta[1..], l.loops()) {
        SolveOutcome::Unique(x) => x,
        SolveOutcome::Underdetermined => vec![0; l.loops().len()],
        _ => return false,
    };
    let mut residual = delta[0];
    let mut free_gcd = 0;
    for (k, &col) in l.loops().iter().enumerate() {
        let coef = h[(0, col)];
        if (1..h.rows()).any(|r| h[(r, col)] != 0) {
            residual -= coef * x[k];
        } else {
            free_gcd = gcd(free_gcd, coef);
        }
    }
    if free_gcd > 0 {
        residual = centered_mod(residual, free_gcd);
    }
    residual.abs() < line
}

/// Equation 1 for one set: the greedy leader walk over the members in
/// lexicographic `c` order, one line stream per group-spatial leader.
fn ugs_cost(set: &UgsSet, l: &Localized, line: i64) -> f64 {
    let mut leaders: Vec<&[i64]> = Vec::new();
    for m in set.members_lex() {
        let joins = leaders.iter().any(|leader| {
            let delta: Vec<i64> = m.c.iter().zip(*leader).map(|(a, b)| a - b).collect();
            group_spatial(set.h(), l, line, &delta)
        });
        if !joins {
            leaders.push(&m.c);
        }
    }
    leaders.len() as f64 * leader_lines(set.h(), l, line)
}

/// The locality score of unrolling `loop_idx`, summed over the sets in
/// partition order.
fn locality_score(sets: &[UgsSet], depth: usize, loop_idx: usize, line: i64) -> f64 {
    let inner = Localized::innermost(depth);
    let with = Localized::with_unrolled(depth, &[loop_idx]);
    sets.iter()
        .map(|s| ugs_cost(s, &inner, line) - ugs_cost(s, &with, line))
        .sum()
}

/// Checks every candidate loop's score and the selection of `nest`;
/// returns the number of scores compared.
fn check(nest: &LoopNest, machine: &MachineModel, max_loops: usize) -> usize {
    let line = machine.line_elems();
    let depth = nest.depth();
    let sets = UgsSet::partition(nest);
    let mut ctx = AnalysisCtx::new(nest, machine).expect("valid nest");
    let bounds = ctx.safe_bounds().to_vec();
    let mut scored: Vec<(usize, f64)> = Vec::new();
    for (l, &bound) in bounds.iter().enumerate().take(depth.saturating_sub(1)) {
        let want = locality_score(&sets, depth, l, line);
        let got = ctx.locality_score(l, line);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: loop {l} scores {got}, definition {want}",
            nest.name()
        );
        if bound >= 1 {
            scored.push((l, want));
        }
    }
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let take = if max_loops == 0 {
        usize::MAX
    } else {
        max_loops
    };
    let mut chosen: Vec<usize> = scored
        .iter()
        .filter(|&&(_, s)| s > 0.0)
        .take(take)
        .map(|&(l, _)| l)
        .collect();
    if chosen.is_empty() {
        chosen.extend(scored.first().map(|&(l, _)| l));
    }
    chosen.sort_unstable();
    let per_loop: Vec<u32> = chosen
        .iter()
        .map(|&l| bounds[l].min(UNROLL_CAP).min(8))
        .collect();
    let mut fresh = AnalysisCtx::new(nest, machine).expect("valid nest");
    let space = SelectLoops { max_loops }
        .run(&mut fresh)
        .expect("selection succeeds");
    assert_eq!(
        space.loops(),
        &chosen[..],
        "{}: selected loops",
        nest.name()
    );
    assert_eq!(space.bounds(), &per_loop[..], "{}: bounds", nest.name());
    depth.saturating_sub(1)
}

#[test]
fn locality_scores_and_selection_equal_the_rational_definition() {
    let mut nests: Vec<LoopNest> = kernels().iter().map(|k| k.nest()).collect();
    nests.extend(deep_kernels().iter().map(|k| k.nest()));
    nests.extend(corpus(1997, 200));
    nests.extend(corpus_deep(1997, 40));
    let mut scores = 0;
    for machine in [MachineModel::dec_alpha(), MachineModel::hp_parisc()] {
        for nest in &nests {
            for max_loops in [2, 0] {
                scores += check(nest, &machine, max_loops);
            }
        }
    }
    assert!(scores > 1_000, "only {scores} scores compared");
}

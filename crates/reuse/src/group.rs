//! Group-temporal and group-spatial partitioning of a UGS.

use crate::locality::Localized;
use crate::ugs::UgsSet;
use ujam_linalg::{lattice_contains, solve_unique, SolveOutcome};

/// Partitions a UGS's members into *group-temporal sets* (GTS).
///
/// Two references `A(H·i + c₁)` and `A(H·i + c₂)` are group-temporal iff
/// `H·x = c₁ − c₂` has an integer solution `x` supported on the localized
/// loops (§3.4): the same elements are touched, a fixed number of localized
/// iterations apart.
///
/// Returns groups of indices into `ugs.members()`, each group sorted by the
/// lexicographic `c` order the table algorithms use; groups are ordered by
/// their leader.
pub fn group_temporal_sets(ugs: &UgsSet, l: &Localized) -> Vec<Vec<usize>> {
    partition(ugs, |delta| {
        match solve_unique(ugs.h(), delta, l.loops()) {
            SolveOutcome::Unique(_) => true,
            // Under-determined systems need the exact lattice test: a
            // rational solution may exist with no integer witness (e.g.
            // strides 2 and 4 cannot close an odd difference).
            SolveOutcome::Underdetermined => lattice_contains(ugs.h(), delta, l.loops()),
            _ => false,
        }
    })
}

/// Partitions a UGS's members into *group-spatial sets* (GSS).
///
/// Group-spatial reuse relaxes group-temporal: the localized solve uses
/// `H_S` (the first, column-contiguous subscript row dropped) and the
/// residual difference in the first subscript must be smaller than the
/// cache line (`line_elems`, in array elements).  Every GTS is contained in
/// one GSS, so the GSS count `G_S ≤ G_T`.
pub fn group_spatial_sets(ugs: &UgsSet, l: &Localized, line_elems: i64) -> Vec<Vec<usize>> {
    assert!(line_elems >= 1, "cache line must hold at least one element");
    let h = ugs.h();
    // The sub-system below the first row, and the first row's split into
    // localized loops that rows below also use (their forced solution
    // enters the residual) and loops only the first row uses (a free
    // direction along the contiguous dimension: the residual reduces
    // modulo their gcd).  Both depend on the set alone, not the pair.
    let rows: Vec<usize> = (1..h.rows()).collect();
    let sub = select_rows(h, &rows);
    let mut forced: Vec<(usize, i64)> = Vec::new();
    let mut row0_gcd = 0i64;
    for (k, &col) in l.loops().iter().enumerate() {
        let coef = if h.rows() == 0 { 0 } else { h[(0, col)] };
        if coef == 0 {
            continue;
        }
        if (1..h.rows()).any(|r| h[(r, col)] != 0) {
            forced.push((k, coef));
        } else {
            row0_gcd = gcd(row0_gcd, coef);
        }
    }
    partition(ugs, |delta| {
        if delta.is_empty() {
            return true;
        }
        let x = match solve_unique(&sub, &delta[1..], l.loops()) {
            SolveOutcome::Unique(x) => x,
            // Free sub-system (e.g. a rank-1 array): x = 0 suffices; the
            // first-row reduction below handles localized first-row loops.
            SolveOutcome::Underdetermined => vec![0; l.loops().len()],
            _ => return false,
        };
        // First-row residual after applying the forced solution.
        let mut residual = delta[0];
        for &(k, coef) in &forced {
            residual -= coef * x[k];
        }
        if row0_gcd > 0 {
            residual = centered_mod(residual, row0_gcd);
        }
        residual.abs() < line_elems
    })
}

/// Greedy partition over the lexicographic member order: each member joins
/// the first group whose leader it relates to, else starts a new group.
///
/// For exact (group-temporal) relations this computes true equivalence
/// classes; for the windowed group-spatial relation it is the same greedy
/// leader walk the paper's algorithms perform.
fn partition(ugs: &UgsSet, mut related: impl FnMut(&[i64]) -> bool) -> Vec<Vec<usize>> {
    let order = ugs.members_lex();
    let by_index: Vec<usize> = order
        .iter()
        .map(|m| {
            ugs.members()
                .iter()
                .position(|x| x.id == m.id)
                .expect("member present")
        })
        .collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    'members: for (pos, &idx) in by_index.iter().enumerate() {
        let c = &order[pos].c;
        for g in groups.iter_mut() {
            let leader = &ugs.members()[g[0]].c;
            let delta: Vec<i64> = c.iter().zip(leader).map(|(a, b)| a - b).collect();
            if related(&delta) {
                g.push(idx);
                continue 'members;
            }
        }
        groups.push(vec![idx]);
    }
    groups
}

fn select_rows(h: &ujam_linalg::Mat, rows: &[usize]) -> ujam_linalg::Mat {
    let mut m = ujam_linalg::Mat::zeros(rows.len(), h.cols());
    for (i, &r) in rows.iter().enumerate() {
        for c in 0..h.cols() {
            m[(i, c)] = h[(r, c)];
        }
    }
    m
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Reduces `v` modulo `m` (`m > 0`) into the centered range
/// `(-m/2, m/2]`: the residue of smallest magnitude, which spatial-reuse
/// tests compare against the cache line.  Inlined across crates: the
/// table builders call it in their innermost leader loops.
#[inline]
pub fn centered_mod(v: i64, m: i64) -> i64 {
    let mut r = v.rem_euclid(m);
    if r > m / 2 {
        r -= m;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::Localized;
    use ujam_ir::NestBuilder;

    fn sets(src: &str, depth2: bool) -> (Vec<UgsSet>, usize) {
        let b = NestBuilder::new("g")
            .array("A", &[64, 64])
            .array("B", &[64, 64]);
        let b = if depth2 {
            b.loop_("J", 1, 16).loop_("I", 1, 16)
        } else {
            b.loop_("I", 1, 16)
        };
        let nest = b.stmt(src).build();
        let depth = nest.depth();
        (UgsSet::partition(&nest), depth)
    }

    #[test]
    fn figure1_gts_partition() {
        // Figure 1: A(I,J) (def+use) and A(I-2,J); localized = innermost I?
        // The figure localizes the innermost loop only; A(I,J) and A(I-2,J)
        // differ along I which IS the innermost here -> but the figure has
        // them in *separate* GTSs because the localized space is the
        // innermost loop of the (J, I)-nest and the refs differ in the I
        // (first) subscript... In our (J outer, I inner) nest, H·x = (2, 0)
        // has solution x_I = 2: same GTS under innermost localization.
        let (s, depth) = sets("A(I,J) = A(I,J) + A(I-2,J)", true);
        let a = &s[0];
        let l = Localized::innermost(depth);
        let gts = group_temporal_sets(a, &l);
        assert_eq!(gts.len(), 1, "distance-2 reuse along the inner loop");

        // With no localized reuse along I (localize J only), they split.
        let l_outer = Localized::new(depth, &[0]);
        let gts = group_temporal_sets(a, &l_outer);
        assert_eq!(gts.len(), 2);
    }

    #[test]
    fn outer_loop_difference_needs_outer_localization() {
        // B(I,J) vs B(I,J+1): differ along J (outer).
        let (s, depth) = sets("A(I,J) = B(I,J) + B(I,J+1)", true);
        let b = s.iter().find(|x| x.array() == "B").expect("B set");
        assert_eq!(
            group_temporal_sets(b, &Localized::innermost(depth)).len(),
            2
        );
        assert_eq!(group_temporal_sets(b, &Localized::all(depth)).len(), 1);
        assert_eq!(
            group_temporal_sets(b, &Localized::with_unrolled(depth, &[0])).len(),
            1
        );
    }

    #[test]
    fn gss_merges_first_dimension_neighbours() {
        // A(I,J) vs A(I+3,J): different elements, same cache line when the
        // line holds 8 elements.
        let (s, depth) = sets("B(I,J) = A(I,J) + A(I+3,J)", true);
        let a = s.iter().find(|x| x.array() == "A").expect("A set");
        let l = Localized::new(depth, &[0]); // exclude I so no temporal merge
        assert_eq!(group_temporal_sets(a, &l).len(), 2);
        assert_eq!(group_spatial_sets(a, &l, 8).len(), 1);
        assert_eq!(group_spatial_sets(a, &l, 2).len(), 2);
    }

    #[test]
    fn gss_respects_non_contiguous_differences() {
        // A(I,J) vs A(I,J+1): differ in the second dimension; never
        // group-spatial without J localized.
        let (s, depth) = sets("B(I,J) = A(I,J) + A(I,J+1)", true);
        let a = s.iter().find(|x| x.array() == "A").expect("A set");
        let l = Localized::innermost(depth);
        assert_eq!(group_spatial_sets(a, &l, 64).len(), 2);
    }

    #[test]
    fn every_gts_is_inside_one_gss() {
        let (s, depth) = sets("A(I,J) = A(I,J) + A(I-2,J) + A(I+3,J) + A(I,J+2)", true);
        let a = &s[0];
        for loops in [vec![0], vec![1], vec![0, 1]] {
            let l = Localized::new(depth, &loops);
            let gts = group_temporal_sets(a, &l);
            let gss = group_spatial_sets(a, &l, 8);
            assert!(gss.len() <= gts.len());
            // Nesting: each GTS's members all land in the same GSS.
            for g in &gts {
                let holder: Vec<usize> = gss
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| g.iter().all(|m| s.contains(m)))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(holder.len(), 1, "GTS split across GSSs");
            }
        }
    }

    #[test]
    fn strided_references_never_merge_on_fraction() {
        let (s, _) = sets("A(2I, 1) = A(2I-1, 1) + A(2I-4, 1)", false);
        let a = &s[0];
        let l = Localized::innermost(1);
        let gts = group_temporal_sets(a, &l);
        // A(2I) and A(2I-4) merge (distance 2); A(2I-1) interleaves.
        assert_eq!(gts.len(), 2);
    }
}

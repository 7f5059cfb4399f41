//! Linear solvers for the merge-point equations of the table algorithms,
//! and the rank tests of self reuse.
//!
//! The Carr–Guan table construction (Figures 2, 3, 5, 7 of the paper)
//! repeatedly asks: *at which unroll offset does a copy of reference group
//! `j` coincide with group `i`?*  That is the system `H·x = c_j − c_i`,
//! where `x` is supported only on the loops being unrolled and must be an
//! integer vector (of any sign: the table builders decide which signs
//! beat a copy).  For the separable-SIV references the paper
//! targets (§3.5), the restricted system has full column rank, so the
//! solution — if any — is unique; [`SolveOutcome`] reports exactly which
//! of the possible failure modes occurred so callers (and tests) can
//! distinguish "never merges" from "merges outside the unroll space".
//!
//! The optimizer answers these systems by exact integer elimination.
//! [`Factored`] eliminates `H`'s selected rows and columns once —
//! fraction-free (Bareiss), in `i128`, keeping the accumulated row
//! operations — so every right-hand side of one set is one product, a
//! consistency check and a back-substitution.  [`rank`] runs the same
//! elimination without the row operations: the §3.4 self-reuse tests
//! `ker H ∩ L ≠ {0}`, for `L` spanned by loop axes, are the rank test
//! `rank(H[:, L]) < |L|`.  All of it uses checked arithmetic: an overflow
//! panics, as [`Rat`] does, and never wraps into a wrong answer.
//!
//! [`solve_unique`] solves the same systems by rational Gaussian
//! elimination, rebuilt per call; it is the reference the integer path is
//! tested against.

use crate::{Mat, Rat};
use std::ops::Range;

/// Result of the merge-point solve `H·x = d` over selected columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A unique, integral solution of any sign; entries are given for the
    /// selected columns in the order they were passed.
    Unique(Vec<i64>),
    /// The system is inconsistent: the groups never coincide.
    NoSolution,
    /// The restricted system is under-determined (non-trivial kernel), so
    /// there is no single merge point.  Does not occur for separable SIV.
    Underdetermined,
    /// A unique rational solution exists but is not integral: the copies
    /// interleave without ever coinciding.
    NonIntegral,
}

impl SolveOutcome {
    /// Convenience accessor for the solution vector, if unique/valid.
    pub fn unique(&self) -> Option<&[i64]> {
        match self {
            SolveOutcome::Unique(v) => Some(v),
            _ => None,
        }
    }
}

/// `v`, or a panic: the elimination never wraps.
fn checked(v: Option<i128>) -> i128 {
    v.expect("integer elimination overflow")
}

/// Fraction-free (Bareiss) forward elimination of the row-major
/// `m × width` matrix `a` over its first `n` columns, applying every row
/// operation to the columns after `n` too; returns the rank.
///
/// Afterwards rows `[0, rank)` are in echelon form over the first `n`
/// columns (pivot columns ascend) and rows `[rank, m)` are zero there.
/// After step `k` every entry is a `(k+1)`-minor of the input, so each
/// division by the previous pivot is exact.
fn bareiss(a: &mut [i128], m: usize, width: usize, n: usize) -> usize {
    let mut prev = 1i128;
    let mut rank = 0;
    for col in 0..n {
        if rank == m {
            break;
        }
        let Some(src) = (rank..m).find(|&r| a[r * width + col] != 0) else {
            continue;
        };
        if src != rank {
            for j in 0..width {
                a.swap(src * width + j, rank * width + j);
            }
        }
        let pivot = a[rank * width + col];
        for r in rank + 1..m {
            let factor = a[r * width + col];
            for j in col + 1..width {
                let keep = checked(pivot.checked_mul(a[r * width + j]));
                let sub = checked(factor.checked_mul(a[rank * width + j]));
                a[r * width + j] = checked(checked(keep.checked_sub(sub)).checked_div(prev));
            }
            a[r * width + col] = 0;
        }
        prev = pivot;
        rank += 1;
    }
    rank
}

/// The rank of `H` restricted to `rows` and `cols`, by exact integer
/// elimination.
///
/// With `L` the span of the loop axes `cols`, `ker H ∩ L ≠ {0}` exactly
/// when this rank is below `cols.len()`: the self-reuse tests of §3.4.
///
/// # Panics
///
/// Panics if an index is out of range, or if the elimination overflows
/// `i128` (possible only for entries near the `i64` limits).
///
/// # Example
///
/// ```
/// use ujam_linalg::{rank, Mat};
/// // A(I+J, 2I+2J): one direction, I = −J, leaves both subscripts fixed.
/// let h = Mat::from_rows(&[&[1, 1], &[2, 2]]);
/// assert_eq!(rank(&h, 0..2, &[0, 1]), 1);
/// assert_eq!(rank(&h, 0..2, &[1]), 1);
/// ```
pub fn rank(h: &Mat, rows: Range<usize>, cols: &[usize]) -> usize {
    let (m, n) = (rows.len(), cols.len());
    let mut a: Vec<i128> = rows
        .flat_map(|r| cols.iter().map(move |&c| i128::from(h[(r, c)])))
        .collect();
    bareiss(&mut a, m, n, n)
}

/// `H` restricted to some rows and columns, eliminated once so that
/// `H·x = d` can be solved for many right-hand sides `d`.
///
/// The pivots depend only on the restricted matrix, not on `d`, so
/// [`Factored::new`] runs the fraction-free elimination of
/// `[H[rows, cols] | I]` once; it leaves `[E | T]` with `E = T·H[rows,
/// cols]` in echelon form and `T` nonsingular.  [`Factored::solve`] then
/// forms `T·d`, checks the rows where `E` is zero, and back-substitutes
/// through `E`'s pivots.  It returns exactly what [`solve_unique`]
/// returns for the same system.
///
/// # Example
///
/// ```
/// use ujam_linalg::{Factored, Mat, SolveOutcome};
/// // A(I,J) vs A(I-2,J) and A(I-3,J), unrolling I: one elimination.
/// let h = Mat::identity(2);
/// let f = Factored::new(&h, 0..2, &[0]);
/// assert_eq!(f.solve(&[2, 0]), SolveOutcome::Unique(vec![2]));
/// assert_eq!(f.solve(&[3, 1]), SolveOutcome::NoSolution);
/// ```
#[derive(Clone, Debug)]
pub struct Factored {
    /// `[E | T]`, row-major, `m × (n + m)`.
    a: Vec<i128>,
    m: usize,
    n: usize,
    rank: usize,
}

impl Factored {
    /// Eliminates `H` restricted to `rows` and `cols`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, or if the elimination overflows
    /// `i128`.
    pub fn new(h: &Mat, rows: Range<usize>, cols: &[usize]) -> Factored {
        let (m, n) = (rows.len(), cols.len());
        let width = n + m;
        let mut a = vec![0i128; m * width];
        for (i, r) in rows.enumerate() {
            for (k, &c) in cols.iter().enumerate() {
                a[i * width + k] = i128::from(h[(r, c)]);
            }
            a[i * width + n + i] = 1;
        }
        let rank = bareiss(&mut a, m, width, n);
        Factored { a, m, n, rank }
    }

    /// Solves `H·x = d` over the factored rows and columns (`d` has one
    /// entry per row), requiring a unique integer solution of any sign —
    /// [`solve_unique`]'s contract, checked in the same order:
    /// inconsistency before under-determination, integrality before the
    /// `i64` range.
    ///
    /// # Panics
    ///
    /// Panics if `d` has the wrong length, if the arithmetic overflows
    /// `i128`, or if an integral solution exceeds `i64`.
    pub fn solve(&self, d: &[i64]) -> SolveOutcome {
        let (m, n) = (self.m, self.n);
        assert_eq!(d.len(), m, "rhs length mismatch");
        let width = n + m;
        // Row `i` of `T·d`.
        let td = |i: usize| {
            let t = &self.a[i * width + n..(i + 1) * width];
            t.iter().zip(d).fold(0i128, |acc, (&t, &v)| {
                checked(acc.checked_add(checked(t.checked_mul(i128::from(v)))))
            })
        };
        if (self.rank..m).any(|i| td(i) != 0) {
            return SolveOutcome::NoSolution;
        }
        if self.rank < n {
            return SolveOutcome::Underdetermined;
        }
        // Full column rank: row `k`'s pivot sits in column `k`.
        let mut x = vec![0i128; n];
        for k in (0..n).rev() {
            let row = &self.a[k * width..k * width + n];
            let mut num = td(k);
            for (&e, &v) in row[k + 1..].iter().zip(&x[k + 1..]) {
                num = checked(num.checked_sub(checked(e.checked_mul(v))));
            }
            if checked(num.checked_rem(row[k])) != 0 {
                return SolveOutcome::NonIntegral;
            }
            x[k] = checked(num.checked_div(row[k]));
        }
        SolveOutcome::Unique(
            x.into_iter()
                .map(|v| i64::try_from(v).expect("merge offset exceeds i64"))
                .collect(),
        )
    }
}

/// Solves `H·x = d` for `x` supported on `cols`, requiring a unique integer
/// solution of any sign.
///
/// This is the group-reuse membership query of the Wolf–Lam model: two
/// uniformly generated references belong to the same group-temporal set iff
/// `H·x = c₂ − c₁` has an (any-sign) integer solution within the localized
/// loops.
///
/// This is the rational reference: it rebuilds and eliminates the
/// augmented matrix on every call.  The optimizer solves through
/// [`Factored`], which must agree with it.
///
/// Rows of `H` whose restriction to `cols` is all zero impose the pure
/// constraint `d_r == 0`; if violated the system is inconsistent.
///
/// # Panics
///
/// Panics if `d.len() != h.rows()` or any column index is out of range.
///
/// # Example
///
/// ```
/// use ujam_linalg::{Mat, solve::{solve_unique, SolveOutcome}};
/// // A(I,J) vs A(I-2,J): Δc = (2, 0); unrolling I by 2 merges the copies.
/// let h = Mat::identity(2);
/// assert_eq!(solve_unique(&h, &[2, 0], &[0]), SolveOutcome::Unique(vec![2]));
/// ```
pub fn solve_unique(h: &Mat, d: &[i64], cols: &[usize]) -> SolveOutcome {
    assert_eq!(d.len(), h.rows(), "rhs length mismatch");
    let restricted = h.select_cols(cols);
    match solve_rational(&restricted, d) {
        RationalSolve::NoSolution => SolveOutcome::NoSolution,
        RationalSolve::Underdetermined => SolveOutcome::Underdetermined,
        RationalSolve::Unique(x) => {
            if x.iter().any(|r| !r.is_integer()) {
                SolveOutcome::NonIntegral
            } else {
                SolveOutcome::Unique(
                    x.iter()
                        .map(|r| r.to_i64().expect("merge offset exceeds i64"))
                        .collect(),
                )
            }
        }
    }
}

/// Internal result of the rational solve.
enum RationalSolve {
    Unique(Vec<Rat>),
    NoSolution,
    Underdetermined,
}

/// Gaussian elimination of `[A | d]` over the rationals.
fn solve_rational(a: &Mat, d: &[i64]) -> RationalSolve {
    let (m, n) = (a.rows(), a.cols());
    let mut aug: Vec<Vec<Rat>> = (0..m)
        .map(|r| {
            let mut row: Vec<Rat> = a.row(r).iter().map(|&x| Rat::from(x)).collect();
            row.push(Rat::from(d[r]));
            row
        })
        .collect();

    let mut pivot_cols = Vec::new();
    let mut pivot_row = 0;
    for col in 0..n {
        let Some(src) = (pivot_row..m).find(|&r| !aug[r][col].is_zero()) else {
            continue;
        };
        aug.swap(pivot_row, src);
        let inv = aug[pivot_row][col].recip();
        for x in aug[pivot_row].iter_mut() {
            *x = *x * inv;
        }
        let prow = aug[pivot_row].clone();
        for (r, row) in aug.iter_mut().enumerate() {
            if r != pivot_row && !row[col].is_zero() {
                let factor = row[col];
                for (x, &p) in row.iter_mut().zip(&prow) {
                    let sub = p * factor;
                    *x = *x - sub;
                }
            }
        }
        pivot_cols.push(col);
        pivot_row += 1;
        if pivot_row == m {
            break;
        }
    }

    // Inconsistent row: 0 = nonzero.
    for row in &aug[pivot_row..] {
        if !row[n].is_zero() {
            return RationalSolve::NoSolution;
        }
    }
    if pivot_cols.len() < n {
        return RationalSolve::Underdetermined;
    }
    let mut x = vec![Rat::ZERO; n];
    for (r, &c) in pivot_cols.iter().enumerate() {
        x[c] = aug[r][n];
    }
    RationalSolve::Unique(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_merge_point() {
        // Paper Figure 1: A(I,J) and A(I-2,J) merge once the I loop is
        // unrolled by 2.
        let h = Mat::identity(2);
        assert_eq!(
            solve_unique(&h, &[2, 0], &[0]),
            SolveOutcome::Unique(vec![2])
        );
    }

    #[test]
    fn inconsistent_when_unselected_dimension_differs() {
        // A(I,J) vs A(I-2,J-1) unrolling only I: the J difference can never
        // be closed.
        let h = Mat::identity(2);
        assert_eq!(solve_unique(&h, &[2, 1], &[0]), SolveOutcome::NoSolution);
    }

    #[test]
    fn two_loop_merge() {
        let h = Mat::identity(3);
        assert_eq!(
            solve_unique(&h, &[1, 3, 0], &[0, 1]),
            SolveOutcome::Unique(vec![1, 3])
        );
    }

    #[test]
    fn non_integral_offset_is_reported() {
        // A(2I) vs A(2I - 1): copies interleave, never coincide.
        let h = Mat::from_rows(&[&[2, 0]]);
        assert_eq!(solve_unique(&h, &[1], &[0]), SolveOutcome::NonIntegral);
        // A(2I) vs A(2I - 4): merge at unroll offset 2.
        assert_eq!(solve_unique(&h, &[4], &[0]), SolveOutcome::Unique(vec![2]));
    }

    #[test]
    fn underdetermined_non_siv() {
        // H with a dependent column pair: x0 + x1 appears in one subscript.
        let h = Mat::from_rows(&[&[1, 1]]);
        assert_eq!(
            solve_unique(&h, &[2], &[0, 1]),
            SolveOutcome::Underdetermined
        );
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let h = Mat::identity(2);
        assert_eq!(
            solve_unique(&h, &[0, 0], &[0]),
            SolveOutcome::Unique(vec![0])
        );
    }

    #[test]
    fn coefficient_scaling() {
        // A(3J) style access: merge needs Δc divisible by 3.
        let h = Mat::from_rows(&[&[0, 3]]);
        assert_eq!(solve_unique(&h, &[6], &[1]), SolveOutcome::Unique(vec![2]));
        assert_eq!(solve_unique(&h, &[7], &[1]), SolveOutcome::NonIntegral);
    }

    #[test]
    fn unique_accessor() {
        assert_eq!(SolveOutcome::Unique(vec![1]).unique(), Some(&[1][..]));
        assert_eq!(SolveOutcome::NoSolution.unique(), None);
    }
}

#[cfg(test)]
mod solve_unique_tests {
    use super::*;

    #[test]
    fn any_sign_solution_is_accepted() {
        let h = Mat::identity(2);
        assert_eq!(
            solve_unique(&h, &[-3, 0], &[0]),
            SolveOutcome::Unique(vec![-3])
        );
    }
}

#[cfg(test)]
mod factored_tests {
    use super::*;
    use crate::Space;
    use std::panic::catch_unwind;

    fn factored(h: &Mat, cols: &[usize]) -> Factored {
        Factored::new(h, 0..h.rows(), cols)
    }

    #[test]
    fn named_cases_match_the_rational_solve() {
        let cases: [(Mat, &[i64], &[usize]); 9] = [
            (Mat::identity(2), &[2, 0], &[0]),
            (Mat::identity(2), &[2, 1], &[0]),
            (Mat::identity(3), &[1, 3, 0], &[0, 1]),
            (Mat::identity(2), &[-1, 0], &[0]),
            (Mat::from_rows(&[&[2, 0]]), &[1], &[0]),
            (Mat::from_rows(&[&[2, 0]]), &[4], &[0]),
            (Mat::from_rows(&[&[1, 1]]), &[2], &[0, 1]),
            (Mat::from_rows(&[&[0, 3]]), &[7], &[1]),
            (Mat::zeros(0, 2), &[], &[0]),
        ];
        for (h, d, cols) in &cases {
            assert_eq!(
                factored(h, cols).solve(d),
                solve_unique(h, d, cols),
                "H = {h:?}, d = {d:?}, cols = {cols:?}"
            );
        }
        assert_eq!(
            factored(&Mat::zeros(0, 2), &[]).solve(&[]),
            SolveOutcome::Unique(vec![])
        );
    }

    #[test]
    fn one_elimination_serves_every_right_hand_side() {
        // A(2I+J, J): pivots 2 and 1 over both columns.
        let h = Mat::from_rows(&[&[2, 1], &[0, 1]]);
        let f = factored(&h, &[0, 1]);
        for d in [[4, 2], [3, 1], [1, 0], [-2, 0], [0, 0]] {
            assert_eq!(f.solve(&d), solve_unique(&h, &d, &[0, 1]), "d = {d:?}");
        }
        assert_eq!(f.solve(&[1, 0]), SolveOutcome::NonIntegral);
        assert_eq!(f.solve(&[-2, 0]), SolveOutcome::Unique(vec![-1, 0]));
    }

    #[test]
    fn rank_drops_zero_rows_and_columns() {
        let h = Mat::from_rows(&[&[0, 1, 0], &[0, 0, 0], &[0, 2, 3]]);
        assert_eq!(rank(&h, 0..3, &[0, 1, 2]), 2);
        assert_eq!(rank(&h, 0..3, &[0]), 0);
        assert_eq!(rank(&h, 1..3, &[1, 2]), 1);
        assert_eq!(rank(&h, 1..2, &[1, 2]), 0);
        assert_eq!(rank(&h, 3..3, &[0, 1]), 0);
        assert_eq!(rank(&h, 0..3, &[]), 0);
    }

    /// What [`compare_on`] saw, over the rank test and the factored
    /// solve: answers compared where both paths answered, and answers
    /// where only the integer path or only the rational path overflowed.
    #[derive(Debug, Default)]
    struct Tally {
        compared: usize,
        int_only: usize,
        rat_only: usize,
    }

    /// Draws `draws` random `H` (up to 3×3) and `d` from `pool` and
    /// checks the integer path against the rational path on every column
    /// subset: equal wherever both answer.
    fn compare_on(pool: &[i64], draws: usize, seed: u64) -> Tally {
        let mut rng = ujam_rng::Rng::new(seed);
        let pick = |rng: &mut ujam_rng::Rng| pool[rng.int(0, pool.len() as i64 - 1) as usize];
        let mut tally = Tally::default();
        for _ in 0..draws {
            let rows = rng.int(1, 3) as usize;
            let cols = rng.int(1, 3) as usize;
            let data: Vec<i64> = (0..rows * cols).map(|_| pick(&mut rng)).collect();
            let h = Mat::from_vec(rows, cols, data);
            let d: Vec<i64> = (0..rows).map(|_| pick(&mut rng)).collect();
            for mask in 1u32..1 << cols {
                let sel: Vec<usize> = (0..cols).filter(|&c| mask >> c & 1 == 1).collect();
                let int_rank = catch_unwind(|| rank(&h, 0..rows, &sel) < sel.len());
                let rat_rank = catch_unwind(|| {
                    !Space::kernel(&h)
                        .intersect(&Space::axes(cols, &sel))
                        .is_trivial()
                });
                let int_solve = catch_unwind(|| factored(&h, &sel).solve(&d));
                let rat_solve = catch_unwind(|| solve_unique(&h, &d, &sel));
                for (int, rat) in [
                    (
                        int_rank.map(|b| format!("{b}")),
                        rat_rank.map(|b| format!("{b}")),
                    ),
                    (
                        int_solve.map(|s| format!("{s:?}")),
                        rat_solve.map(|s| format!("{s:?}")),
                    ),
                ] {
                    match (int, rat) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "H = {h:?}, d = {d:?}, cols = {sel:?}");
                            tally.compared += 1;
                        }
                        (Err(_), Ok(_)) => tally.int_only += 1,
                        (Ok(_), Err(_)) => tally.rat_only += 1,
                        (Err(_), Err(_)) => {}
                    }
                }
            }
        }
        tally
    }

    /// The `i64`-extreme contract: where neither the integer path nor the
    /// rational path overflows, they agree; an overflow panics and never
    /// returns a value.  Inputs the rational path answers but the integer
    /// path does not are counted apart: none below `2^31`, and at most the
    /// pinned number on the extreme pool, so a change that makes the
    /// optimizer answer fewer inputs than the rational reference shows up.
    #[test]
    fn extreme_entries_agree_with_the_rational_path_or_panic() {
        let (c1, c2) = (9_000_000_000_000_000_000i64, 8_999_999_999_999_999_999i64);
        // The access matrix of B(c1*I+c2*J, c2*J+c1*K, c1*I+c2*K): its
        // full-rank test multiplies two 2-minors near 2^126.
        let h = Mat::from_rows(&[&[c1, c2, 0], &[0, c2, c1], &[c1, 0, c2]]);
        assert!(catch_unwind(|| rank(&h, 0..3, &[0, 1, 2])).is_err());
        assert!(catch_unwind(|| factored(&h, &[0, 1, 2])).is_err());
        // Rank 1 at full scale: the second step's minors cancel exactly.
        let h = Mat::from_rows(&[&[i64::MAX, i64::MAX], &[i64::MAX, i64::MAX]]);
        assert_eq!(rank(&h, 0..2, &[0, 1]), 1);

        // Entries up to 2^31: the integer path always answers (the
        // rational one overflows on a few products of unreduced `i128`
        // fractions).
        let moderate = [1 << 31, -(1 << 31), 99_991, -65_537, 4096, 3, -2, 1, 0];
        let tally = compare_on(&moderate, 200, 0x0f1b);
        println!("2^31 pool: {tally:?}");
        assert_eq!(tally.int_only, 0, "{tally:?}");
        assert!(tally.compared > 1000, "{tally:?}");

        let extreme = [
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
            i64::MAX - 1,
            c1,
            c2,
            -c1,
            1 << 62,
            -(1 << 31),
            3,
            -2,
            1,
            0,
        ];
        let tally = compare_on(&extreme, 48, 0x0f1a);
        println!("i64-extreme pool: {tally:?}");
        assert!(tally.compared > 50, "{tally:?}");
        assert!(tally.int_only <= INT_ONLY_OVERFLOWS, "{tally:?}");
    }

    /// Integer-only overflows on the extreme pool of
    /// [`extreme_entries_agree_with_the_rational_path_or_panic`]: two
    /// factored solves of inconsistent 3×2 systems, where a 2-minor near
    /// `2^126` in `T` times an entry of `d` near `2^62` or `2^63`
    /// outgrows `i128` and the rational path answers `NoSolution`.  On
    /// the same pool the rational path overflows on 86 answers the
    /// integer path gives.
    const INT_ONLY_OVERFLOWS: usize = 2;
}

//! Property-style tests for the exact linear-algebra substrate.
//!
//! Triage note: originally `proptest`; the offline registry cannot serve
//! external crates, so the strategies are now deterministic seeded
//! generators from the in-tree `ujam-rng` crate with the same coverage.

use ujam_linalg::{solve_unique, solve_unique_nonneg, Factored, Mat, Rat, SolveOutcome, Space};
use ujam_rng::Rng;

/// Small matrices keep the search space meaningful while staying exact.
/// The column count is fixed so generated rows share an ambient dimension.
fn small_mat(rng: &mut Rng, max_rows: usize, cols: usize) -> Mat {
    let r = rng.int(1, max_rows as i64) as usize;
    let data: Vec<i64> = (0..r * cols).map(|_| rng.int(-4, 4)).collect();
    Mat::from_vec(r, cols, data)
}

fn small_vec(rng: &mut Rng, len: usize) -> Vec<i64> {
    (0..len).map(|_| rng.int(-6, 6)).collect()
}

fn rat_rows(m: &Mat) -> Vec<Vec<Rat>> {
    m.iter_rows()
        .map(|r| r.iter().map(|&x| Rat::from(x)).collect())
        .collect()
}

const CASES: usize = 64;

#[test]
fn rat_add_commutes() {
    let mut rng = Rng::new(0x2a7);
    for _ in 0..256 {
        let x = Rat::new(rng.int(-50, 49) as i128, rng.int(1, 19) as i128);
        let y = Rat::new(rng.int(-50, 49) as i128, rng.int(1, 19) as i128);
        assert_eq!(x + y, y + x);
        assert_eq!(x * y, y * x);
        assert_eq!((x - y) + y, x);
    }
}

#[test]
fn transpose_involution() {
    let mut rng = Rng::new(0x7a0);
    for _ in 0..CASES {
        let m = small_mat(&mut rng, 4, 4);
        assert_eq!(m.transpose().transpose(), m);
    }
}

#[test]
fn kernel_vectors_annihilate() {
    let mut rng = Rng::new(0xbe1);
    for _ in 0..CASES {
        let m = small_mat(&mut rng, 3, 4);
        let k = Space::kernel(&m);
        for b in k.basis() {
            for row in m.iter_rows() {
                let mut acc = Rat::ZERO;
                for (coef, x) in row.iter().zip(b) {
                    acc = acc + Rat::from(*coef) * *x;
                }
                assert!(acc.is_zero());
            }
        }
    }
}

#[test]
fn rank_nullity() {
    let mut rng = Rng::new(0x4a11);
    for _ in 0..CASES {
        let m = small_mat(&mut rng, 4, 4);
        let k = Space::kernel(&m);
        // rank = n - nullity; rank is the row-space dimension.
        let row_space = Space::span_rat(m.cols(), rat_rows(&m));
        assert_eq!(row_space.dim() + k.dim(), m.cols());
    }
}

#[test]
fn span_contains_generators() {
    let mut rng = Rng::new(0x59a);
    for _ in 0..CASES {
        let m = small_mat(&mut rng, 4, 4);
        let s = Space::span_rat(m.cols(), rat_rows(&m));
        for row in m.iter_rows() {
            assert!(s.contains_int(row));
        }
    }
}

#[test]
fn intersection_is_contained_in_both() {
    let mut rng = Rng::new(0x17ce);
    for _ in 0..CASES {
        let a = small_mat(&mut rng, 3, 4);
        let b = small_mat(&mut rng, 3, 4);
        let sa = Space::span_rat(4, rat_rows(&a));
        let sb = Space::span_rat(4, rat_rows(&b));
        let i = sa.intersect(&sb);
        assert!(sa.contains_space(&i));
        assert!(sb.contains_space(&i));
        // Dimension formula: dim(A) + dim(B) = dim(A+B) + dim(A∩B).
        assert_eq!(sa.dim() + sb.dim(), sa.sum(&sb).dim() + i.dim());
    }
}

#[test]
fn sum_contains_both() {
    let mut rng = Rng::new(0x50b);
    for _ in 0..CASES {
        let a = small_mat(&mut rng, 2, 3);
        let b = small_mat(&mut rng, 2, 3);
        let sa = Space::span_rat(3, rat_rows(&a));
        let sb = Space::span_rat(3, rat_rows(&b));
        let s = sa.sum(&sb);
        assert!(s.contains_space(&sa));
        assert!(s.contains_space(&sb));
    }
}

/// If the solver claims a unique solution, plugging it back in must
/// reproduce the right-hand side.
#[test]
fn solve_round_trip() {
    let mut rng = Rng::new(0x501e);
    for _ in 0..CASES {
        let m = small_mat(&mut rng, 3, 3);
        let x = small_vec(&mut rng, 2);
        // Build d = H·(x embedded in the first two columns), then re-solve.
        let cols = [0usize, 1usize];
        let cols = &cols[..cols.len().min(m.cols())];
        let mut full = vec![0i64; m.cols()];
        for (i, &c) in cols.iter().enumerate() {
            full[c] = x[i].abs(); // non-negative target
        }
        let d = m.mul_vec(&full);
        match solve_unique_nonneg(&m, &d, cols) {
            SolveOutcome::Unique(sol) => {
                let mut back = vec![0i64; m.cols()];
                for (i, &c) in cols.iter().enumerate() {
                    back[c] = sol[i];
                }
                assert_eq!(m.mul_vec(&back), d);
            }
            // Underdetermined/NoSolution are legitimate for rank-deficient H;
            // Negative/NonIntegral cannot happen since we constructed d from
            // a non-negative integer point, but an alternative solution may
            // exist only when the kernel is non-trivial, which reports
            // Underdetermined.
            SolveOutcome::Underdetermined => {}
            other => {
                // Only reachable if H restricted to cols is singular in a way
                // that makes our constructed point non-unique; that is
                // Underdetermined, so anything else is a bug.
                panic!("unexpected outcome {other:?}");
            }
        }
    }
}

/// The factored integer solve answers exactly what the rational
/// `solve_unique` answers, on random `H` (zero rows and columns and
/// `rows() == 0` included), column subsets and right-hand sides, one
/// elimination per `(H, columns)` for many `Δ`; every outcome occurs,
/// `Negative` as the unique solutions with a negative component.
#[test]
fn factored_solve_matches_rational_solve() {
    let mut rng = Rng::new(0xfac7);
    let mut seen = [0usize; 5];
    for _ in 0..400 {
        let rows = rng.int(0, 4) as usize;
        let cols = rng.int(1, 5) as usize;
        // Mostly sparse, like access matrices; zero rows and columns occur.
        let data: Vec<i64> = (0..rows * cols)
            .map(|_| {
                if rng.int(0, 2) == 0 {
                    rng.int(-3, 3)
                } else {
                    0
                }
            })
            .collect();
        let h = Mat::from_vec(rows, cols, data);
        let sel: Vec<usize> = (0..cols).filter(|_| rng.int(0, 1) == 1).collect();
        let f = Factored::new(&h, 0..rows, &sel);
        for _ in 0..6 {
            let d = if rng.int(0, 1) == 0 {
                small_vec(&mut rng, rows)
            } else {
                // A reachable right-hand side: H times an integer point
                // (of either sign) on the selected columns.
                let mut x = vec![0i64; cols];
                for &c in &sel {
                    x[c] = rng.int(-3, 3);
                }
                h.mul_vec(&x)
            };
            let got = f.solve(&d);
            assert_eq!(
                got,
                solve_unique(&h, &d, &sel),
                "H = {h:?}, d = {d:?}, cols = {sel:?}"
            );
            // A unique solution with a negative component is what the
            // unroll-space sign rule reports as `Negative`.
            seen[match got {
                SolveOutcome::Unique(x) if x.iter().any(|&v| v < 0) => 4,
                SolveOutcome::Unique(_) => 0,
                SolveOutcome::NoSolution => 1,
                SolveOutcome::Underdetermined => 2,
                SolveOutcome::NonIntegral => 3,
                SolveOutcome::Negative => unreachable!("the any-sign solve never reports Negative"),
            }] += 1;
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "outcome counts {seen:?}");
}

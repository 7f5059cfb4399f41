//! Per-pair dependence testing (the "practical dependence testing" suite of
//! Goff, Kennedy & Tseng, restricted to what affine nests need).
//!
//! Given two references to the same array, each subscript dimension is
//! classified and tested:
//!
//! * **ZIV** (no induction variable): constants must match, else the pair is
//!   independent;
//! * **strong SIV** (same variable, same coefficient): exact distance
//!   `(c1 − c2) / a`, independent if fractional or out of loop bounds;
//! * **weak SIV / crossing** (same variable, different coefficients, or the
//!   variable appears on one side only): solvability is checked with a GCD
//!   argument and the loop's distance is left unconstrained (`*`);
//! * **MIV** (several variables in one dimension): a GCD test over all
//!   coefficients; involved loops are left unconstrained.
//!
//! Per-dimension constraints are intersected across dimensions; a conflict
//! anywhere proves independence.

use crate::dist::{Dist, DistVec};
use ujam_ir::ArrayRef;

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Computes the per-loop distance constraints under which `a` and `b` access
/// the same element, or `None` if they are proven independent.
///
/// The returned vector has one entry per loop of the nest, outermost
/// first, read off the columns of the references' access matrices.
/// Distances are from `a`'s iteration to `b`'s: element touched by `b` at
/// iteration `i` equals the element touched by `a` at iteration `i − d`.
///
/// # Example
///
/// ```
/// use ujam_ir::ArrayRef;
/// use ujam_dep::{pairwise_distance, Dist};
/// use ujam_linalg::Mat;
/// // A(I) and A(I-1) in a `DO J / DO I` nest.
/// let w = ArrayRef::new("A", Mat::from_rows(&[&[0, 1]]), vec![0]);
/// let r = ArrayRef::new("A", Mat::from_rows(&[&[0, 1]]), vec![-1]);
/// // A(I) at iteration i is read by A(I-1) at iteration i+1: distance 1.
/// let d = pairwise_distance(&w, &r).unwrap();
/// // J appears in neither reference, so its component is unconstrained.
/// assert_eq!(d, vec![Dist::Any, Dist::Exact(1)]);
/// ```
pub fn pairwise_distance(a: &ArrayRef, b: &ArrayRef) -> Option<DistVec> {
    let ((ha, ca), (hb, cb)) = (a.access_matrix(), b.access_matrix());
    if a.array() != b.array() || ca.len() != cb.len() || ha.cols() != hb.cols() {
        return None;
    }
    let mut dist: DistVec = vec![Dist::Any; ha.cols()];
    for r in 0..ca.len() {
        meet_dimension(&mut dist, (ha.row(r), ca[r]), (hb.row(r), cb[r]))?;
    }
    Some(dist)
}

/// Tests one subscript dimension pair, each a row of `H` with its
/// constant, and intersects its per-loop constraint into `dist`; `None`
/// when the dimension proves the pair independent.
fn meet_dimension(
    dist: &mut [Dist],
    (ha, ca): (&[i64], i64),
    (hb, cb): (&[i64], i64),
) -> Option<()> {
    let delta = cb - ca;
    let mut involved = (0..ha.len()).filter(|&i| ha[i] != 0 || hb[i] != 0);

    // ZIV: no induction variable on either side.
    let Some(l) = involved.next() else {
        return (delta == 0).then_some(());
    };

    if involved.next().is_none() {
        let (ca, cb) = (ha[l], hb[l]);
        if ca == cb {
            // Strong SIV: a·i_a + c_a = a·i_b + c_b with Δc = c_b − c_a
            // gives a(i_a − i_b) = Δc, so the distance from a to b is
            // d = i_b − i_a = −Δc/a.
            if delta % ca != 0 {
                return None;
            }
            dist[l] = dist[l].meet(Dist::Exact(-delta / ca))?;
        } else {
            // Weak SIV (zero / crossing / general): solvable iff
            // gcd(ca, cb) divides Δc (with the one-sided case demanding
            // divisibility by the present coefficient).  The distance
            // varies with the iteration: unconstrained.
            let g = gcd(ca, cb);
            if g != 0 && delta % g != 0 {
                return None;
            }
        }
        return Some(());
    }

    // MIV: GCD test over every coefficient of both references; the
    // involved loops are left unconstrained.
    let g = ha.iter().chain(hb).fold(0, |g, &x| gcd(g, x));
    if g != 0 && delta % g != 0 {
        return None;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_linalg::Mat;

    /// `A(H·i + c)` in a `DO J / DO I` nest: one `(row, constant)` per
    /// dimension, each row `[J, I]`.
    fn a(dims: &[([i64; 2], i64)]) -> ArrayRef {
        let rows: Vec<&[i64]> = dims.iter().map(|(row, _)| &row[..]).collect();
        ArrayRef::new(
            "A",
            Mat::from_rows(&rows),
            dims.iter().map(|d| d.1).collect(),
        )
    }

    const I: [i64; 2] = [0, 1];
    const J: [i64; 2] = [1, 0];
    const NONE: [i64; 2] = [0, 0];

    #[test]
    fn strong_siv_exact_distance() {
        let (x, y) = (a(&[(I, 0)]), a(&[(I, -2)]));
        // A(I-2) at iteration i touches element i-2, touched by A(I) at
        // iteration i-2: distance from a to b is +2.
        assert_eq!(
            pairwise_distance(&x, &y).unwrap(),
            vec![Dist::Any, Dist::Exact(2)]
        );
        // And the reverse is −2.
        assert_eq!(
            pairwise_distance(&y, &x).unwrap(),
            vec![Dist::Any, Dist::Exact(-2)]
        );
    }

    #[test]
    fn strong_siv_fractional_is_independent() {
        let x = a(&[([0, 2], 0)]);
        let y = a(&[([0, 2], -1)]);
        assert_eq!(pairwise_distance(&x, &y), None);
        let z = a(&[([0, 2], -4)]);
        assert_eq!(pairwise_distance(&x, &z).unwrap()[1], Dist::Exact(2));
    }

    #[test]
    fn ziv_dimension() {
        let x = a(&[(I, 0), (NONE, 1)]);
        let y = a(&[(I, 0), (NONE, 2)]);
        assert_eq!(pairwise_distance(&x, &y), None);
        assert!(pairwise_distance(&x, &x.clone()).is_some());
    }

    #[test]
    fn weak_siv_unconstrained_when_solvable() {
        // A(2I) vs A(I): intersects at even elements; distance varies.
        let x = a(&[([0, 2], 0)]);
        let y = a(&[(I, 0)]);
        assert_eq!(
            pairwise_distance(&x, &y).unwrap(),
            vec![Dist::Any, Dist::Any]
        );
    }

    #[test]
    fn one_sided_variable() {
        // A(I) vs A(4): a single interior iteration collides; kept as Any.
        let x = a(&[(I, 0)]);
        let y = a(&[(NONE, 4)]);
        assert_eq!(pairwise_distance(&x, &y).unwrap()[1], Dist::Any);
    }

    #[test]
    fn miv_gcd_rejects() {
        // A(2I + 2J) vs A(2I + 2J + 1): parity never matches.
        let x = a(&[([2, 2], 0)]);
        let y = a(&[([2, 2], 1)]);
        assert_eq!(pairwise_distance(&x, &y), None);
        let z = a(&[([2, 2], 2)]);
        assert!(pairwise_distance(&x, &z).is_some());
    }

    #[test]
    fn different_arrays_never_depend() {
        let x = a(&[(I, 0)]);
        let (h, c) = x.access_matrix();
        let y = ArrayRef::new("B", h.clone(), c.to_vec());
        assert_eq!(pairwise_distance(&x, &y), None);
    }

    #[test]
    fn multidim_constraints_intersect() {
        let x = a(&[(I, 0), (J, 0)]);
        let y = a(&[(I, -1), (J, -2)]);
        assert_eq!(
            pairwise_distance(&x, &y).unwrap(),
            vec![Dist::Exact(2), Dist::Exact(1)]
        );
    }

    #[test]
    fn conflicting_dimensions_prove_independence() {
        // Same variable constrained to two different distances.
        let x = a(&[(I, 0), (I, 0)]);
        let y = a(&[(I, -1), (I, -2)]);
        assert_eq!(pairwise_distance(&x, &y), None);
    }

    #[test]
    fn invariant_ref_is_any_on_unused_loops() {
        let x = a(&[(I, 0)]);
        let d = pairwise_distance(&x, &x).unwrap();
        assert_eq!(d, vec![Dist::Any, Dist::Exact(0)]);
    }
}

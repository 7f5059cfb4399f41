//! Rational vector subspaces in canonical form.

use crate::{Mat, Rat};
use std::fmt;

/// A subspace of `Q^n` stored as a reduced-row-echelon basis.
///
/// `Space` represents the vector spaces of the Wolf–Lam reuse model: the
/// self-temporal reuse space `R_ST = ker H`, the self-spatial space
/// `R_SS = ker H_S`, and the *localized vector space* `L` spanned by the
/// loops whose reuse the transformation can exploit.  Keeping the basis in
/// RREF makes equality, containment and membership checks canonical.
///
/// The optimizer decides the same questions by integer rank tests
/// ([`crate::rank`]); `Space` is the definition they are tested against.
///
/// # Example
///
/// ```
/// use ujam_linalg::{Mat, Space};
/// let l = Space::span_int(3, &[&[0, 0, 1]]); // innermost loop only
/// let ker = Space::kernel(&Mat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]));
/// assert!(ker.contains_space(&l));
/// assert_eq!(ker.intersect(&l).dim(), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Space {
    ambient: usize,
    /// RREF rows; each has length `ambient`.
    basis: Vec<Vec<Rat>>,
}

/// Reduces `rows` to RREF in place and drops zero rows.
fn rref(rows: &mut Vec<Vec<Rat>>, width: usize) {
    let mut pivot_row = 0;
    for col in 0..width {
        // Find a row at or below pivot_row with a non-zero in this column.
        let Some(src) = (pivot_row..rows.len()).find(|&r| !rows[r][col].is_zero()) else {
            continue;
        };
        rows.swap(pivot_row, src);
        let inv = rows[pivot_row][col].recip();
        for x in rows[pivot_row].iter_mut() {
            *x = *x * inv;
        }
        let prow = rows[pivot_row].clone();
        for (r, row) in rows.iter_mut().enumerate() {
            if r != pivot_row && !row[col].is_zero() {
                let factor = row[col];
                for (x, &p) in row.iter_mut().zip(&prow) {
                    let sub = p * factor;
                    *x = *x - sub;
                }
            }
        }
        pivot_row += 1;
        if pivot_row == rows.len() {
            break;
        }
    }
    rows.retain(|r| r.iter().any(|x| !x.is_zero()));
}

/// Returns the pivot column of an RREF row.
fn pivot_col(row: &[Rat]) -> usize {
    row.iter()
        .position(|x| !x.is_zero())
        .expect("zero row in basis")
}

impl Space {
    /// The trivial subspace `{0}` of `Q^ambient`.
    pub fn trivial(ambient: usize) -> Space {
        Space {
            ambient,
            basis: Vec::new(),
        }
    }

    /// The full space `Q^ambient`.
    pub fn full(ambient: usize) -> Space {
        Space::span_rat(
            ambient,
            (0..ambient)
                .map(|i| {
                    let mut v = vec![Rat::ZERO; ambient];
                    v[i] = Rat::ONE;
                    v
                })
                .collect(),
        )
    }

    /// The span of the given integer generator vectors.
    ///
    /// # Panics
    ///
    /// Panics if any generator's length differs from `ambient`.
    pub fn span_int(ambient: usize, gens: &[&[i64]]) -> Space {
        let rows = gens
            .iter()
            .map(|g| {
                assert_eq!(g.len(), ambient, "generator length mismatch");
                g.iter().map(|&x| Rat::from(x)).collect()
            })
            .collect();
        Space::span_rat(ambient, rows)
    }

    /// The span of rational generator rows.
    pub fn span_rat(ambient: usize, mut rows: Vec<Vec<Rat>>) -> Space {
        for r in &rows {
            assert_eq!(r.len(), ambient, "generator length mismatch");
        }
        rref(&mut rows, ambient);
        Space {
            ambient,
            basis: rows,
        }
    }

    /// The span of the coordinate axes in `loops` (a localized vector space
    /// made of whole loop directions).
    pub fn axes(ambient: usize, loops: &[usize]) -> Space {
        let gens: Vec<Vec<Rat>> = loops
            .iter()
            .map(|&i| {
                assert!(i < ambient, "axis index out of range");
                let mut v = vec![Rat::ZERO; ambient];
                v[i] = Rat::ONE;
                v
            })
            .collect();
        Space::span_rat(ambient, gens)
    }

    /// The kernel (null space) `{ x : H·x = 0 }` of an integer matrix.
    ///
    /// This is the *self-temporal reuse vector space* of a reference with
    /// access matrix `H`.
    pub fn kernel(h: &Mat) -> Space {
        let n = h.cols();
        // RREF of H over the rationals.
        let mut rows: Vec<Vec<Rat>> = h
            .iter_rows()
            .map(|r| r.iter().map(|&x| Rat::from(x)).collect())
            .collect();
        rref(&mut rows, n);
        let pivots: Vec<usize> = rows.iter().map(|r| pivot_col(r)).collect();
        let mut basis = Vec::new();
        for free in 0..n {
            if pivots.contains(&free) {
                continue;
            }
            let mut v = vec![Rat::ZERO; n];
            v[free] = Rat::ONE;
            for (row, &p) in rows.iter().zip(&pivots) {
                v[p] = -row[free];
            }
            basis.push(v);
        }
        Space::span_rat(n, basis)
    }

    /// Dimension of the subspace.
    pub fn dim(&self) -> usize {
        self.basis.len()
    }

    /// Dimension of the ambient space.
    pub fn ambient(&self) -> usize {
        self.ambient
    }

    /// `true` if this is the `{0}` subspace.
    pub fn is_trivial(&self) -> bool {
        self.basis.is_empty()
    }

    /// The canonical RREF basis rows.
    pub fn basis(&self) -> &[Vec<Rat>] {
        &self.basis
    }

    /// Membership test for a rational vector.
    pub fn contains(&self, v: &[Rat]) -> bool {
        assert_eq!(v.len(), self.ambient, "vector length mismatch");
        let mut residue = v.to_vec();
        for row in &self.basis {
            let p = pivot_col(row);
            if !residue[p].is_zero() {
                let factor = residue[p];
                for c in 0..self.ambient {
                    let sub = row[c] * factor;
                    residue[c] = residue[c] - sub;
                }
            }
        }
        residue.iter().all(|x| x.is_zero())
    }

    /// Membership test for an integer vector.
    pub fn contains_int(&self, v: &[i64]) -> bool {
        let rv: Vec<Rat> = v.iter().map(|&x| Rat::from(x)).collect();
        self.contains(&rv)
    }

    /// `true` if `other ⊆ self`.
    pub fn contains_space(&self, other: &Space) -> bool {
        assert_eq!(self.ambient, other.ambient, "ambient mismatch");
        other.basis.iter().all(|v| self.contains(v))
    }

    /// The sum (join) `self + other`.
    pub fn sum(&self, other: &Space) -> Space {
        assert_eq!(self.ambient, other.ambient, "ambient mismatch");
        let mut rows = self.basis.clone();
        rows.extend(other.basis.iter().cloned());
        Space::span_rat(self.ambient, rows)
    }

    /// The intersection `self ∩ other`.
    ///
    /// Computed via the kernel trick: with basis rows `U` and `V`, the pairs
    /// `(a, b)` with `Uᵀa = Vᵀb` form the kernel of `[Uᵀ | −Vᵀ]`, and the
    /// intersection is `{ Uᵀa }`.
    pub fn intersect(&self, other: &Space) -> Space {
        assert_eq!(self.ambient, other.ambient, "ambient mismatch");
        let (k1, k2) = (self.basis.len(), other.basis.len());
        if k1 == 0 || k2 == 0 {
            return Space::trivial(self.ambient);
        }
        // Build [Uᵀ | −Vᵀ] as rational rows: ambient rows, k1 + k2 cols.
        let width = k1 + k2;
        let mut rows: Vec<Vec<Rat>> = (0..self.ambient)
            .map(|i| {
                let mut row = Vec::with_capacity(width);
                for b in &self.basis {
                    row.push(b[i]);
                }
                for b in &other.basis {
                    row.push(-b[i]);
                }
                row
            })
            .collect();
        rref(&mut rows, width);
        let pivots: Vec<usize> = rows.iter().map(|r| pivot_col(r)).collect();
        let mut inter = Vec::new();
        for free in 0..width {
            if pivots.contains(&free) {
                continue;
            }
            // Kernel vector over (a, b); we only need the `a` part.
            let mut ab = vec![Rat::ZERO; width];
            ab[free] = Rat::ONE;
            for (row, &p) in rows.iter().zip(&pivots) {
                ab[p] = -row[free];
            }
            // v = Uᵀ a
            let mut v = vec![Rat::ZERO; self.ambient];
            for (j, b) in self.basis.iter().enumerate() {
                if ab[j].is_zero() {
                    continue;
                }
                for c in 0..self.ambient {
                    let add = b[c] * ab[j];
                    v[c] = v[c] + add;
                }
            }
            inter.push(v);
        }
        Space::span_rat(self.ambient, inter)
    }
}

impl fmt::Debug for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Space(dim {} of Q^{})", self.dim(), self.ambient)?;
        for b in &self.basis {
            write!(f, " span{b:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_of_identity_is_trivial() {
        assert!(Space::kernel(&Mat::identity(3)).is_trivial());
    }

    #[test]
    fn kernel_of_zero_is_full() {
        let k = Space::kernel(&Mat::zeros(2, 3));
        assert_eq!(k.dim(), 3);
        assert_eq!(k, Space::full(3));
    }

    #[test]
    fn kernel_of_row_is_orthogonal_line() {
        // A(J) in an (I, J) nest: H = [0 1]; reuse along I.
        let k = Space::kernel(&Mat::from_rows(&[&[0, 1]]));
        assert_eq!(k.dim(), 1);
        assert!(k.contains_int(&[1, 0]));
        assert!(!k.contains_int(&[0, 1]));
    }

    #[test]
    fn kernel_vectors_are_in_kernel() {
        let h = Mat::from_rows(&[&[1, 2, 3], &[0, 1, 1]]);
        let k = Space::kernel(&h);
        assert_eq!(k.dim(), 1);
        for b in k.basis() {
            // Multiply H by the (rational) kernel vector and check zero.
            for row in h.iter_rows() {
                let mut acc = Rat::ZERO;
                for (a, x) in row.iter().zip(b) {
                    acc = acc + Rat::from(*a) * *x;
                }
                assert!(acc.is_zero());
            }
        }
    }

    #[test]
    fn span_canonicalizes() {
        let a = Space::span_int(2, &[&[2, 4]]);
        let b = Space::span_int(2, &[&[1, 2]]);
        assert_eq!(a, b);
        let c = Space::span_int(2, &[&[1, 0], &[1, 1]]);
        assert_eq!(c, Space::full(2));
    }

    #[test]
    fn containment_and_membership() {
        let s = Space::span_int(3, &[&[1, 1, 0], &[0, 0, 1]]);
        assert!(s.contains_int(&[2, 2, 5]));
        assert!(!s.contains_int(&[1, 0, 0]));
        assert!(s.contains_space(&Space::span_int(3, &[&[1, 1, 1]])));
        assert!(Space::full(3).contains_space(&s));
        assert!(s.contains_space(&Space::trivial(3)));
    }

    #[test]
    fn sum_and_intersection() {
        let x = Space::axes(3, &[0]);
        let y = Space::axes(3, &[1]);
        let xy = x.sum(&y);
        assert_eq!(xy.dim(), 2);
        assert!(x.intersect(&y).is_trivial());
        assert_eq!(xy.intersect(&Space::axes(3, &[1, 2])), y);
    }

    #[test]
    fn intersection_of_planes_is_line() {
        let p1 = Space::span_int(3, &[&[1, 0, 0], &[0, 1, 1]]);
        let p2 = Space::span_int(3, &[&[0, 1, 0], &[0, 0, 1]]);
        let line = p1.intersect(&p2);
        assert_eq!(line.dim(), 1);
        assert!(line.contains_int(&[0, 1, 1]));
    }

    #[test]
    fn axes_builds_localized_space() {
        let l = Space::axes(4, &[2, 3]);
        assert_eq!(l.dim(), 2);
        assert!(l.contains_int(&[0, 0, 7, -3]));
        assert!(!l.contains_int(&[1, 0, 0, 0]));
    }

    #[test]
    fn intersect_with_trivial_is_trivial() {
        let s = Space::full(2);
        assert!(s.intersect(&Space::trivial(2)).is_trivial());
    }
}

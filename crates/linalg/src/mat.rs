//! Dense integer matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major integer matrix.
///
/// `Mat` is the carrier for the access matrices `H` of array references
/// (`rank × depth`) and for stacked bases in space computations.  It is a
/// plain value type: cheap to clone at the sizes this domain uses.
///
/// # Example
///
/// ```
/// use ujam_linalg::Mat;
/// // The access matrix of A(I, J+1) in a (I, J) nest.
/// let h = Mat::from_rows(&[&[1, 0], &[0, 1]]);
/// assert_eq!(h[(0, 0)], 1);
/// assert_eq!(h.mul_vec(&[2, 3]), vec![2, 3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl Mat {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Mat {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty with the
    /// intent of building a non-trivial matrix (an empty slice yields the
    /// `0 × 0` matrix).
    pub fn from_rows(rows: &[&[i64]]) -> Mat {
        if rows.is_empty() {
            return Mat::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in Mat::from_rows");
            data.extend_from_slice(r);
        }
        Mat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<i64>) -> Mat {
        assert_eq!(data.len(), rows * cols, "bad Mat::from_vec length");
        Mat { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The entries, row by row.
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[i64] {
        assert!(r < self.rows, "row index out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<i64> {
        assert!(c < self.cols, "column index out of range");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[i64]> {
        self.data.chunks(self.cols.max(1)).take(self.rows)
    }

    /// The transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<i64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(v)
                    .map(|(a, b)| a.checked_mul(*b).expect("overflow in mul_vec"))
                    .try_fold(0i64, |acc, x| acc.checked_add(x))
                    .expect("overflow in mul_vec")
            })
            .collect()
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in mul");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for c in 0..rhs.cols {
                let mut acc: i64 = 0;
                for k in 0..self.cols {
                    acc = acc
                        .checked_add(self[(r, k)].checked_mul(rhs[(k, c)]).expect("overflow"))
                        .expect("overflow in mul");
                }
                out[(r, c)] = acc;
            }
        }
        out
    }

    /// Returns a copy with row `r` replaced by zeros.
    ///
    /// This builds the matrix `H_S` used for *self-spatial* reuse: the row of
    /// the contiguous (first, column-major) array dimension is dropped so
    /// that solutions may differ along that dimension.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn with_zero_row(&self, r: usize) -> Mat {
        assert!(r < self.rows, "row index out of range");
        let mut m = self.clone();
        for c in 0..self.cols {
            m[(r, c)] = 0;
        }
        m
    }

    /// Returns the submatrix keeping only the given columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_cols(&self, cols: &[usize]) -> Mat {
        let mut m = Mat::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            for (i, &c) in cols.iter().enumerate() {
                assert!(c < self.cols, "column index out of range");
                m[(r, i)] = self[(r, c)];
            }
        }
        m
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Mat {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Places `self` and `other` side by side.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut m = Mat::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                m[(r, c)] = self[(r, c)];
            }
            for c in 0..other.cols {
                m[(r, self.cols + c)] = other[(r, c)];
            }
        }
        m
    }

    /// `true` if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&x| x == 0)
    }

    /// `true` if each row and each column holds at most one non-zero entry.
    ///
    /// This is the *separable SIV* shape required by §3.5 of the paper: each
    /// subscript uses a single induction variable and each induction variable
    /// appears in at most one subscript.
    pub fn is_siv_separable(&self) -> bool {
        for r in 0..self.rows {
            if self.row(r).iter().filter(|&&x| x != 0).count() > 1 {
                return false;
            }
        }
        for c in 0..self.cols {
            if (0..self.rows).filter(|&r| self[(r, c)] != 0).count() > 1 {
                return false;
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = i64;
    fn index(&self, (r, c): (usize, usize)) -> &i64 {
        assert!(r < self.rows && c < self.cols, "Mat index out of range");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut i64 {
        assert!(r < self.rows && c < self.cols, "Mat index out of range");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            if r > 0 {
                writeln!(f)?;
            }
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self[(r, c)])?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_indexing() {
        let m = Mat::from_rows(&[&[1, 2], &[3, 4]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(1, 0)], 3);
        assert_eq!(Mat::identity(3)[(2, 2)], 1);
        assert!(Mat::zeros(2, 2).is_zero());
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        let m = Mat::from_rows(&[&[1, 0, 2], &[0, 3, 0]]);
        assert_eq!(m.mul_vec(&[1, 2, 3]), vec![7, 6]);
    }

    #[test]
    fn mul_matches_hand_computation() {
        let a = Mat::from_rows(&[&[1, 2], &[3, 4]]);
        let b = Mat::from_rows(&[&[5, 6], &[7, 8]]);
        assert_eq!(a.mul(&b), Mat::from_rows(&[&[19, 22], &[43, 50]]));
    }

    #[test]
    fn transpose_round_trips() {
        let m = Mat::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().row(0), &[1, 4]);
    }

    #[test]
    fn zero_row_builds_spatial_matrix() {
        let h = Mat::identity(2);
        let hs = h.with_zero_row(0);
        assert_eq!(hs.row(0), &[0, 0]);
        assert_eq!(hs.row(1), &[0, 1]);
    }

    #[test]
    fn stacking() {
        let a = Mat::from_rows(&[&[1, 2]]);
        let b = Mat::from_rows(&[&[3, 4]]);
        assert_eq!(a.vstack(&b), Mat::from_rows(&[&[1, 2], &[3, 4]]));
        assert_eq!(a.hstack(&b), Mat::from_rows(&[&[1, 2, 3, 4]]));
    }

    #[test]
    fn select_cols_keeps_order() {
        let m = Mat::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(m.select_cols(&[2, 0]), Mat::from_rows(&[&[3, 1], &[6, 4]]));
    }

    #[test]
    fn siv_separable_detection() {
        assert!(Mat::identity(3).is_siv_separable());
        assert!(Mat::from_rows(&[&[0, 2], &[1, 0]]).is_siv_separable());
        // Row with two induction variables (I+J): not separable.
        assert!(!Mat::from_rows(&[&[1, 1]]).is_siv_separable());
        // Same induction variable in two subscripts: not separable.
        assert!(!Mat::from_rows(&[&[1, 0], &[1, 0]]).is_siv_separable());
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = Mat::from_rows(&[]);
        assert_eq!(m.rows(), 0);
        assert!(m.is_zero());
    }
}

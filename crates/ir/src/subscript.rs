//! Array references in the paper's form `A(H·i + c)`.

use crate::nest::Loop;
use std::fmt;
use std::sync::Arc;
use ujam_linalg::Mat;

/// A reference to an array, `A(H·i + c)`: row `r` of the access matrix
/// `H` holds subscript dimension `r`'s coefficients over the nest's loops
/// (column `k` for loop `k`, outermost first) and `c[r]` its constant.
///
/// Loop names live once, in the nest: a reference is read from text
/// against them ([`crate::NestBuilder::stmt`], [`crate::parse_expr`]) and
/// rendered through them ([`ArrayRef::display`]).  In an expression the
/// reference is a *use* (load); as the left-hand side of a
/// [`crate::Stmt`] it is a *def* (store).  The copies unroll-and-jam
/// makes of a reference are uniformly generated with it: they share its
/// array name and `H`, and only `c` is their own.
///
/// # Example
///
/// ```
/// use ujam_ir::{ArrayRef, Loop};
/// use ujam_linalg::Mat;
/// let loops = [Loop::new("J", 1, 8), Loop::new("I", 1, 8)];
/// // A(I+2, 2J-1)
/// let r = ArrayRef::new("A", Mat::from_rows(&[&[0, 1], &[2, 0]]), vec![2, -1]);
/// assert_eq!(r.display(&loops).to_string(), "A(I+2,2J-1)");
/// assert_eq!(r.eval(&[3, 5]), vec![7, 5]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    array: Arc<str>,
    h: Arc<Mat>,
    c: Vec<i64>,
}

impl ArrayRef {
    /// The reference `array(H·i + c)`.
    ///
    /// # Panics
    ///
    /// Panics if `h` and `c` disagree on the number of dimensions.
    pub fn new(array: &str, h: Mat, c: Vec<i64>) -> ArrayRef {
        assert_eq!(h.rows(), c.len(), "H and c of {array} disagree on rank");
        ArrayRef {
            array: array.into(),
            h: Arc::new(h),
            c,
        }
    }

    /// The referenced array's name.
    pub fn array(&self) -> &str {
        &self.array
    }

    /// Number of subscript dimensions.
    pub fn rank(&self) -> usize {
        self.c.len()
    }

    /// The access matrix `H` (`rank × depth`) and offset `c` of the
    /// uniformly generated form `A(H·i + c)`.
    pub fn access_matrix(&self) -> (&Mat, &[i64]) {
        (&self.h, &self.c)
    }

    /// The subscript at iteration `i` (one index per loop, outermost
    /// first): `H·i + c`.
    pub fn eval(&self, i: &[i64]) -> Vec<i64> {
        (0..self.rank())
            .map(|r| self.c[r] + self.h.row(r).iter().zip(i).map(|(h, i)| h * i).sum::<i64>())
            .collect()
    }

    /// `true` if every subscript dimension uses at most one induction
    /// variable and no variable appears in two dimensions (§3.5 SIV,
    /// separable).
    pub fn is_siv_separable(&self) -> bool {
        self.h.is_siv_separable()
    }

    /// The reference as source text, `A(I+2,2J-1)`: loop `k` is named by
    /// `loops[k]`, and each dimension lists its terms by loop name, then
    /// its constant.
    pub fn display<'a>(&'a self, loops: &'a [Loop]) -> impl fmt::Display + 'a {
        Named(self, loops)
    }

    /// This reference after renaming the nest's loops: new loop `k` runs
    /// where old loop `cols[k]` ran (`None`: no old loop, so the column
    /// is zero), and `bound = Some((j, v))` substitutes the value `v` for
    /// old loop `j`, adding `H[:, j]·v` to `c`.  Several new loops may
    /// share one old loop, whose index is then their sum.
    pub(crate) fn remap(&self, cols: &[Option<usize>], bound: Option<(usize, i64)>) -> ArrayRef {
        let mut h = Mat::zeros(self.rank(), cols.len());
        let mut c = self.c.clone();
        for r in 0..self.rank() {
            for (k, col) in cols.iter().enumerate() {
                if let Some(j) = *col {
                    h[(r, k)] = self.h[(r, j)];
                }
            }
            if let Some((j, v)) = bound {
                c[r] += self.h[(r, j)] * v;
            }
        }
        ArrayRef {
            array: Arc::clone(&self.array),
            h: Arc::new(h),
            c,
        }
    }

    /// `A(H·i + c + H·u)`: the reference in the body copy at unroll
    /// offset `u`, sharing this one's array name and `H`.
    pub(crate) fn shifted(&self, u: &[i64]) -> ArrayRef {
        ArrayRef {
            array: Arc::clone(&self.array),
            h: Arc::clone(&self.h),
            c: self.eval(u),
        }
    }
}

/// An IR value rendered through its nest's loop names.
pub(crate) struct Named<'a, T>(pub(crate) &'a T, pub(crate) &'a [Loop]);

impl fmt::Display for Named<'_, ArrayRef> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Named(r, loops) = *self;
        write!(f, "{}(", r.array)?;
        for (d, &c) in r.c.iter().enumerate() {
            if d > 0 {
                write!(f, ",")?;
            }
            write_dim(f, r.h.row(d), c, loops)?;
        }
        write!(f, ")")
    }
}

/// One subscript dimension: its terms in the byte order of the loop
/// names, then its constant.
fn write_dim(f: &mut fmt::Formatter<'_>, row: &[i64], c: i64, loops: &[Loop]) -> fmt::Result {
    let name = |k: usize| loops.get(k).map_or("?", Loop::var);
    let mut prev: Option<&str> = None;
    loop {
        let next = (0..row.len())
            .filter(|&k| row[k] != 0 && prev.is_none_or(|p| name(k) > p))
            .min_by_key(|&k| name(k));
        let Some(k) = next else { break };
        let (var, coef) = (name(k), row[k]);
        match coef {
            1 if prev.is_none() => write!(f, "{var}")?,
            1 => write!(f, "+{var}")?,
            -1 => write!(f, "-{var}")?,
            c if c > 0 && prev.is_some() => write!(f, "+{c}{var}")?,
            c => write!(f, "{c}{var}")?,
        }
        prev = Some(var);
    }
    if prev.is_none() || c < 0 {
        write!(f, "{c}")
    } else if c > 0 {
        write!(f, "+{c}")
    } else {
        Ok(())
    }
}

impl fmt::Debug for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.array)?;
        for (d, c) in self.c.iter().enumerate() {
            if d > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:?}·i{c:+}", self.h.row(d))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loops(names: &[&str]) -> Vec<Loop> {
        names.iter().map(|v| Loop::new(v, 1, 8)).collect()
    }

    fn one(row: &[i64], c: i64) -> ArrayRef {
        ArrayRef::new("A", Mat::from_rows(&[row]), vec![c])
    }

    #[test]
    fn dimensions_render_in_name_order() {
        let ji = loops(&["J", "I"]);
        let shown = |row: &[i64], c| one(row, c).display(&ji).to_string();
        assert_eq!(shown(&[0, 1], 0), "A(I)");
        assert_eq!(shown(&[0, 1], 2), "A(I+2)");
        assert_eq!(shown(&[0, 1], -2), "A(I-2)");
        assert_eq!(shown(&[0, 0], 4), "A(4)");
        assert_eq!(shown(&[0, 0], -4), "A(-4)");
        assert_eq!(shown(&[2, 0], -1), "A(2J-1)");
        assert_eq!(shown(&[0, -1], 0), "A(-I)");
        // I sorts before J though J is the outer loop.
        assert_eq!(shown(&[1, 1], 0), "A(I+J)");
        assert_eq!(shown(&[-3, 2], 1), "A(2I-3J+1)");
    }

    #[test]
    fn eval_is_h_times_i_plus_c() {
        let r = ArrayRef::new("A", Mat::from_rows(&[&[2, -1], &[0, 1]]), vec![4, 0]);
        assert_eq!(r.eval(&[3, 1]), vec![9, 1]);
        assert_eq!(r.rank(), 2);
    }

    #[test]
    fn remap_moves_columns_and_folds_bound_loops() {
        let r = ArrayRef::new("A", Mat::from_rows(&[&[3, 1]]), vec![1]);
        // Swap the loops.
        let swapped = r.remap(&[Some(1), Some(0)], None);
        assert_eq!(swapped.access_matrix().0.row(0), &[1, 3]);
        // Strip loop 0: it and its strip loop both carry its column.
        let stripped = r.remap(&[Some(0), Some(0), Some(1)], None);
        assert_eq!(stripped.access_matrix().0.row(0), &[3, 3, 1]);
        // Bind loop 0 to 2, keeping a zero column in its place.
        let bound = r.remap(&[None, Some(1)], Some((0, 2)));
        assert_eq!(
            bound.access_matrix(),
            (&Mat::from_rows(&[&[0, 1]]), &[7][..])
        );
    }
}

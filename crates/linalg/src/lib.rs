//! Exact integer and rational linear algebra for compiler reuse analysis.
//!
//! The Wolf–Lam data-reuse model (and the Carr–Guan unroll-and-jam algorithm
//! built on it) works with small integer matrices: the access matrix `H` of a
//! uniformly generated array reference, constant offset vectors `c`, and
//! vector spaces such as the *self-temporal reuse space* `ker H` or the
//! *localized iteration space*.  Everything must be exact — a reuse space that
//! is "almost" contained in the localized space is not contained at all — so
//! this crate provides:
//!
//! * [`Mat`]: dense row-major integer matrices with exact arithmetic,
//! * [`Rat`]: normalized arbitrary-sign rationals over `i128`,
//! * [`solve`]: exact integer elimination — [`rank`], the rank of `H`
//!   restricted to some rows and columns (the self-reuse tests of §3.4),
//!   and [`Factored`], which eliminates `H` over a subset of columns once
//!   and then solves `H·x = d` for each `d`, as needed by the
//!   table-construction algorithms of Carr & Guan (Figures 2, 3, 5 and 7
//!   of the paper), including the *unique integer solution* query that
//!   determines the unroll offset at which two reference groups merge,
//! * [`Space`] and [`solve_unique`]: rational vector subspaces in
//!   canonical (RREF) form, and the rational solve rebuilt per call —
//!   the definitions the integer path is tested against.
//!
//! Dimensions in this domain are tiny (loop depths ≤ 6, a handful of array
//! dimensions), so the implementation favours clarity and exactness over
//! asymptotics; all algorithms are fraction-free in `i128` or use `i128`
//! rationals, with checked arithmetic, and panic on overflow rather than
//! silently wrap.
//!
//! # Example
//!
//! ```
//! use ujam_linalg::{Mat, Space};
//!
//! // H for A(I, J+1) in a 2-deep nest: identity access.
//! let h = Mat::identity(2);
//! // Its temporal reuse space ker H is trivial:
//! assert_eq!(Space::kernel(&h).dim(), 0);
//!
//! // H for A(J) (row vector [0 1]): reuse along the I loop.
//! let h = Mat::from_rows(&[&[0, 1]]);
//! let ker = Space::kernel(&h);
//! assert_eq!(ker.dim(), 1);
//! assert!(ker.contains_int(&[1, 0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hnf;
mod mat;
mod rat;
pub mod solve;
mod space;

pub use hnf::{column_hnf, lattice_contains};
pub use mat::Mat;
pub use rat::Rat;
pub use solve::{rank, solve_unique, solve_unique_nonneg, Factored, SolveOutcome};
pub use space::Space;

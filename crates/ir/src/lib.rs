//! An affine loop-nest intermediate representation for memory-hierarchy
//! transformations.
//!
//! This crate is the program substrate for the Carr–Guan unroll-and-jam
//! reproduction.  It models the programs the paper analyses: *perfect*
//! Fortran-style loop nests whose statements assign floating-point
//! expressions over array references with affine subscripts
//! `A(H·i + c)`.  Each [`ArrayRef`] stores exactly that: its access matrix
//! `H` over the nest's loop positions and its offset `c`, the form the
//! Wolf–Lam reuse model and every analysis consume.  Loop names live once,
//! in the nest; text is read and printed through them.
//!
//! Provided here:
//!
//! * [`LoopNest`], [`Loop`], [`Stmt`], [`Expr`], [`ArrayRef`] — the IR,
//! * [`NestBuilder`] and [`parse_expr`] — a builder DSL over Fortran text,
//! * a Fortran-flavoured pretty printer (`Display` on [`LoopNest`]),
//! * [`transform::unroll_and_jam`] — the actual code transformation the
//!   paper tunes (outer-loop unrolling + fusion of the copies),
//! * [`transform::scalar_replacement`] — register-level replacement of
//!   redundant loads (Callahan–Carr–Kennedy), used both as a real transform
//!   and as the brute-force oracle for the paper's table-based predictions.
//!
//! # Example
//!
//! ```
//! use ujam_ir::{NestBuilder, transform};
//!
//! // DO J = 1, 2N ; DO I = 1, M ; A(J) = A(J) + B(I)
//! let nest = NestBuilder::new("intro")
//!     .array("A", &[512])
//!     .array("B", &[512])
//!     .loop_("J", 1, 512)
//!     .loop_("I", 1, 256)
//!     .stmt("A(J) = A(J) + B(I)")
//!     .build();
//! // A(J) is row [1, 0] of its access matrix: J is loop 0.
//! let (h, c) = nest.refs()[0].aref.access_matrix();
//! assert_eq!((h.row(0), c), (&[1, 0][..], &[0][..]));
//! // Unroll-and-jam the J loop by 1 (two copies), as in §3.3 of the paper.
//! let unrolled = transform::unroll_and_jam(&nest, &[1, 0]).unwrap();
//! assert_eq!(unrolled.body().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod expr;
pub mod interp;
mod nest;
mod pretty;
mod subscript;
pub mod transform;

pub use builder::{parse_expr, NestBuilder};
pub use expr::{BinOp, Expr};
pub use nest::{ArrayDecl, Lhs, Loop, LoopNest, RefId, RefInfo, Stmt};
pub use subscript::ArrayRef;

//! A Fortran-77 subset front end for the `ujam` loop-nest IR.
//!
//! The paper's implementation lives inside Memoria, a Fortran
//! source-to-source transformer.  This crate restores the source-level
//! workflow for the subset the analysis actually consumes: a subroutine
//! declaring arrays with `DIMENSION` and containing one perfect nest of
//! constant-bound `DO` loops whose body is a sequence of assignments.
//!
//! ```fortran
//!       SUBROUTINE DMXPY
//!       DIMENSION Y(240), X(240), M(240,240)
//!       DO J = 1, 240
//!         DO I = 1, 240
//!           Y(I) = Y(I) + X(J) * M(I,J)
//!         ENDDO
//!       ENDDO
//!       END
//! ```
//!
//! [`parse`] turns such text into a validated [`LoopNest`]; [`emit`]
//! renders a nest back to compilable-looking Fortran.  `parse(emit(n))`
//! round-trips every nest this crate can express (a property test).
//!
//! Supported: free leading whitespace, `C`/`*`/`!` comments, blank lines,
//! case-insensitive keywords, optional `DO`-loop labels with matching
//! `<label> CONTINUE` terminators, `ENDDO`/`END DO`, integer loop bounds,
//! and the expression grammar of `ujam_ir::parse_expr`.  Not supported
//! (rejected with a clear error): symbolic bounds, imperfect nests,
//! non-unit steps, empty loops, nests deeper than [`MAX_NEST_DEPTH`],
//! control flow, and statement continuation lines.
//!
//! [`parse`] takes text from outside (the `ujam serve` daemon parses
//! request sources on its event-loop thread), so it is linear in the
//! source length and answers every malformed input with an error, never
//! a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod parse;

pub use emit::emit;
pub use parse::{parse, ParseError, MAX_NEST_DEPTH};

pub use ujam_ir::LoopNest;

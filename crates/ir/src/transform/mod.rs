//! Loop transformations: unroll-and-jam and scalar replacement.
//!
//! These are the two transformations the paper composes (§3.3): outer-loop
//! unrolling brings reuse into the innermost loop body, and scalar
//! replacement converts that reuse into register references, removing loads
//! and stores.  `ujam-core` *predicts* the effect of these transformations
//! from precomputed tables; this module *performs* them, which makes it both
//! the code generator and the brute-force oracle the predictions are tested
//! against.

mod permute;
mod scalarrep;
mod stripmine;
mod unroll;

pub use permute::permute_loops;
pub use scalarrep::{scalar_replacement, ReplacementStats, ScalarReplaced};
pub use stripmine::{fully_unroll, strip_mine, tile};
pub use unroll::{check_unroll, unroll_and_jam, TransformError};

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

use crate::nest::Stmt;

/// `body` over a new loop list: new loop `k` runs where old loop
/// `cols[k]` ran, and `bound = Some((j, v))` fixes old loop `j` at `v`
/// (see `ArrayRef::remap`).
fn remap_body(body: &[Stmt], cols: &[usize], bound: Option<(usize, i64)>) -> Vec<Stmt> {
    let cols: Vec<Option<usize>> = cols.iter().copied().map(Some).collect();
    body.iter()
        .map(|s| s.map_refs(|r| r.remap(&cols, bound)))
        .collect()
}

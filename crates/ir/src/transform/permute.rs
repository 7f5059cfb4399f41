//! Loop permutation (interchange generalized to any loop order).
//!
//! Permuting a nest's loops permutes the columns of every access matrix
//! `H` alike.  Legality is a dependence property and lives in `ujam-dep`
//! (`legal_permutation`); this function performs the mechanical reorder.

use crate::nest::LoopNest;
use crate::transform::{remap_body, TransformError};

/// Reorders the nest's loops: `perm[k]` is the *original* position of the
/// loop that ends up at depth `k` (outermost = 0).
///
/// # Errors
///
/// Returns [`TransformError::BadPermutation`] if `perm` is not a
/// permutation of `0..depth`.
///
/// # Example
///
/// ```
/// use ujam_ir::{NestBuilder, transform::permute_loops};
/// let jik = NestBuilder::new("jik")
///     .array("A", &[8, 8])
///     .loop_("J", 1, 8).loop_("I", 1, 8)
///     .stmt("A(I,J) = A(I,J) * 2.0")
///     .build();
/// let ij = permute_loops(&jik, &[1, 0]).unwrap();
/// assert_eq!(ij.loop_vars(), vec!["I", "J"]);
/// ```
pub fn permute_loops(nest: &LoopNest, perm: &[usize]) -> Result<LoopNest, TransformError> {
    let depth = nest.depth();
    let mut seen = vec![false; depth];
    if perm.len() != depth
        || perm
            .iter()
            .any(|&p| p >= depth || std::mem::replace(&mut seen[p], true))
    {
        return Err(TransformError::BadPermutation {
            depth,
            perm: perm.to_vec(),
        });
    }
    let loops = perm.iter().map(|&p| nest.loops()[p].clone()).collect();
    Ok(LoopNest::new(
        nest.name(),
        nest.arrays().to_vec(),
        loops,
        remap_body(nest.body(), perm, None),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::execute;
    use crate::NestBuilder;

    fn nest3() -> LoopNest {
        NestBuilder::new("mm")
            .array("A", &[10, 10])
            .array("B", &[10, 10])
            .array("C", &[10, 10])
            .loop_("J", 1, 6)
            .loop_("K", 1, 6)
            .loop_("I", 1, 6)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build()
    }

    #[test]
    fn identity_permutation_is_identity() {
        let n = nest3();
        assert_eq!(permute_loops(&n, &[0, 1, 2]).unwrap(), n);
    }

    #[test]
    fn permutation_reorders_loops_only() {
        let n = nest3();
        let p = permute_loops(&n, &[2, 0, 1]).unwrap();
        assert_eq!(p.loop_vars(), vec!["I", "J", "K"]);
        let body = |n: &LoopNest| n.to_string().lines().nth(3).map(str::to_string);
        assert_eq!(body(&p), body(&n));
        // C(I,J): I is now loop 0 and J loop 1.
        let (h, _) = p.body()[0].refs()[3].0.access_matrix();
        assert_eq!(h.row(0), &[1, 0, 0]);
        assert_eq!(h.row(1), &[0, 1, 0]);
    }

    #[test]
    fn fully_permutable_nest_keeps_semantics() {
        // Matmul accumulation is permutation-invariant.
        let n = nest3();
        let orig = execute(&n);
        for perm in [[1, 0, 2], [2, 1, 0], [0, 2, 1], [2, 0, 1]] {
            assert_eq!(execute(&permute_loops(&n, &perm).unwrap()), orig);
        }
    }

    #[test]
    fn bad_permutations_rejected() {
        let n = nest3();
        assert!(permute_loops(&n, &[0, 1]).is_err());
        assert!(permute_loops(&n, &[0, 0, 1]).is_err());
        assert!(permute_loops(&n, &[0, 1, 3]).is_err());
    }
}

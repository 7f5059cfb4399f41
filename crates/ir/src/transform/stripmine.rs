//! Strip mining and full unrolling — the decomposition that *defines*
//! unroll-and-jam.
//!
//! Callahan, Cocke & Kennedy describe unroll-and-jam as strip-mine-and-
//! interchange: strip the outer loop into strips of `factor`, move the
//! strip loop innermost, and fully unroll it.  This module provides the
//! two missing pieces ([`strip_mine`], [`fully_unroll`]); composed with
//! [`crate::transform::permute_loops`], the pipeline must produce exactly
//! the body [`crate::transform::unroll_and_jam`] produces — a property the
//! test suite verifies, tying this implementation to the transformation's
//! textbook definition.

use crate::nest::{Loop, LoopNest};
use crate::transform::{remap_body, TransformError};

/// Strip-mines loop `loop_idx` by `factor`: the loop's step becomes
/// `factor` and a new unit-step strip loop `var§` over `0..factor-1` is
/// inserted immediately inside it, with every subscript use of `var`
/// rewritten to `var + var§` (the strip loop's column of `H` copies the
/// stripped loop's).
///
/// The strip variable is named by appending `_s` to the original.
///
/// # Errors
///
/// Rejects non-unit-step loops, trip counts not divisible by `factor`,
/// factors < 2, and out-of-range loop indices.
///
/// # Example
///
/// ```
/// use ujam_ir::{NestBuilder, transform::strip_mine};
/// let nest = NestBuilder::new("n")
///     .array("A", &[64])
///     .loop_("J", 1, 8)
///     .stmt("A(J) = A(J) * 2.0")
///     .build();
/// let s = strip_mine(&nest, 0, 2).unwrap();
/// assert_eq!(s.depth(), 2);
/// assert!(s.to_string().contains("DO J = 1, 8, 2"));
/// assert!(s.to_string().contains("A(J+J_s) = A(J+J_s) * 2"));
/// ```
pub fn strip_mine(
    nest: &LoopNest,
    loop_idx: usize,
    factor: i64,
) -> Result<LoopNest, TransformError> {
    if loop_idx >= nest.depth() {
        return Err(TransformError::BadUnrollLength {
            expected: nest.depth(),
            got: loop_idx,
        });
    }
    let target = &nest.loops()[loop_idx];
    if factor < 2 {
        return Err(TransformError::TripNotDivisible {
            var: target.var().to_string(),
            trip: target.trip_count(),
            copies: factor,
        });
    }
    if target.step() != 1 {
        return Err(TransformError::NonUnitStep(target.var().to_string()));
    }
    if target.trip_count() % factor != 0 {
        return Err(TransformError::TripNotDivisible {
            var: target.var().to_string(),
            trip: target.trip_count(),
            copies: factor,
        });
    }

    let strip_var = format!("{}_s", target.var());

    let mut loops: Vec<Loop> = Vec::with_capacity(nest.depth() + 1);
    for (i, l) in nest.loops().iter().enumerate() {
        if i == loop_idx {
            let mut outer = l.clone();
            outer.set_step(factor);
            loops.push(outer);
            loops.push(Loop::new(&strip_var, 0, factor - 1));
        } else {
            loops.push(l.clone());
        }
    }

    // Loop `loop_idx` and its strip loop both carry the old column.
    let cols: Vec<usize> = (0..=loop_idx).chain(loop_idx..nest.depth()).collect();
    Ok(LoopNest::new(
        nest.name(),
        nest.arrays().to_vec(),
        loops,
        remap_body(nest.body(), &cols, None),
    ))
}

/// Fully unrolls the loop at `loop_idx` (typically a strip loop): the loop
/// disappears and the body is replicated once per iteration value with the
/// variable substituted.
///
/// # Errors
///
/// Rejects out-of-range indices and loops with more than 64 iterations
/// (full unrolling is for small strip loops, not iteration spaces).
pub fn fully_unroll(nest: &LoopNest, loop_idx: usize) -> Result<LoopNest, TransformError> {
    if loop_idx >= nest.depth() || nest.depth() == 1 {
        return Err(TransformError::BadUnrollLength {
            expected: nest.depth(),
            got: loop_idx,
        });
    }
    let target = &nest.loops()[loop_idx];
    if target.trip_count() > 64 {
        return Err(TransformError::TripNotDivisible {
            var: target.var().to_string(),
            trip: target.trip_count(),
            copies: 64,
        });
    }
    let loops: Vec<Loop> = nest
        .loops()
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != loop_idx)
        .map(|(_, l)| l.clone())
        .collect();
    let cols: Vec<usize> = (0..nest.depth()).filter(|&i| i != loop_idx).collect();
    let mut body = Vec::with_capacity(nest.body().len() * target.trip_count() as usize);
    for v in target.values() {
        body.extend(remap_body(nest.body(), &cols, Some((loop_idx, v))));
    }
    Ok(LoopNest::new(
        nest.name(),
        nest.arrays().to_vec(),
        loops,
        body,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::execute;
    use crate::transform::{permute_loops, unroll_and_jam};
    use crate::NestBuilder;

    fn sample() -> LoopNest {
        NestBuilder::new("s")
            .array("A", &[40])
            .array("B", &[44, 44])
            .loop_("J", 1, 12)
            .loop_("I", 1, 12)
            .stmt("A(J) = A(J) + B(I, J+1)")
            .build()
    }

    #[test]
    fn strip_mine_preserves_semantics() {
        let nest = sample();
        let orig = execute(&nest);
        for factor in [2, 3, 4, 6] {
            let s = strip_mine(&nest, 0, factor).unwrap();
            assert_eq!(s.depth(), 3);
            assert_eq!(execute(&s), orig, "factor {factor}");
        }
    }

    #[test]
    fn fully_unroll_preserves_semantics() {
        let nest = sample();
        let orig = execute(&nest);
        let s = strip_mine(&nest, 0, 3).unwrap();
        // Fully unroll the strip loop in place (position 1).
        let u = fully_unroll(&s, 1).unwrap();
        assert_eq!(u.depth(), 2);
        assert_eq!(u.body().len(), 3);
        assert_eq!(execute(&u), orig);
    }

    /// The definitional identity: strip-mine + interchange-to-innermost +
    /// full unroll == unroll-and-jam.
    #[test]
    fn strip_mine_interchange_unroll_equals_unroll_and_jam() {
        let nest = sample();
        for u in [1u32, 2, 3, 5] {
            let factor = u as i64 + 1;
            if nest.loops()[0].trip_count() % factor != 0 {
                continue;
            }
            // Pipeline: strip J, move the strip loop innermost, unroll it.
            let stripped = strip_mine(&nest, 0, factor).unwrap();
            let interchanged = permute_loops(&stripped, &[0, 2, 1]).unwrap();
            let pipeline = fully_unroll(&interchanged, 2).unwrap();
            // Direct unroll-and-jam.
            let jammed = unroll_and_jam(&nest, &[u, 0]).unwrap();
            assert_eq!(
                pipeline, jammed,
                "decomposition differs from unroll-and-jam at u = {u}"
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let nest = sample();
        assert!(strip_mine(&nest, 5, 2).is_err());
        assert!(strip_mine(&nest, 0, 1).is_err());
        assert!(strip_mine(&nest, 0, 5).is_err(), "12 not divisible by 5");
        assert!(fully_unroll(&nest, 7).is_err());
    }

    #[test]
    fn strided_subscripts_strip_correctly() {
        let nest = NestBuilder::new("str")
            .array("A", &[100])
            .array("B", &[100])
            .loop_("J", 1, 8)
            .loop_("I", 1, 8)
            .stmt("A(2J-1) = B(I) + 1.0")
            .build();
        let orig = execute(&nest);
        let s = strip_mine(&nest, 0, 2).unwrap();
        assert!(s.to_string().contains("A(2J+2J_s-1)"), "{s}");
        assert_eq!(execute(&s), orig);
        let u = fully_unroll(&s, 1).unwrap();
        assert_eq!(execute(&u), orig);
        assert_eq!(u, unroll_and_jam(&nest, &[1, 0]).unwrap());
    }
}

/// Tiles the given loops: each `(loop position, tile size)` pair is
/// strip-mined, and all strip loops are moved inside all tile-controlling
/// loops (the standard rectangular tiling shape).
///
/// Positions refer to the *original* nest, outermost first, and must be
/// strictly increasing.  Legality is a dependence property — check the
/// resulting loop order with `ujam_dep::legal_permutation` on the
/// strip-mined nest if the iteration order matters.
///
/// # Errors
///
/// Propagates [`strip_mine`]'s rejections and
/// [`TransformError::BadPermutation`] for unsorted positions.
///
/// # Example
///
/// ```
/// use ujam_ir::{NestBuilder, transform::tile};
/// let mm = NestBuilder::new("mm")
///     .array("A", &[40, 40]).array("B", &[40, 40]).array("C", &[40, 40])
///     .loop_("J", 1, 24).loop_("K", 1, 24).loop_("I", 1, 24)
///     .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
///     .build();
/// let tiled = tile(&mm, &[(0, 8), (1, 8)]).unwrap();
/// assert_eq!(
///     tiled.loop_vars(),
///     vec!["J", "K", "J_s", "K_s", "I"],
/// );
/// ```
pub fn tile(nest: &LoopNest, tiles: &[(usize, i64)]) -> Result<LoopNest, TransformError> {
    if tiles.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(TransformError::BadPermutation {
            depth: nest.depth(),
            perm: tiles.iter().map(|&(l, _)| l).collect(),
        });
    }
    // Strip-mine innermost-first so earlier positions stay valid.
    let mut out = nest.clone();
    for &(l, size) in tiles.iter().rev() {
        out = strip_mine(&out, l, size)?;
    }
    // After stripping, each tiled loop l sits at position l + (number of
    // earlier strips), with its strip loop immediately after it.
    let depth = out.depth();
    let mut controls = Vec::new();
    let mut strips = Vec::new();
    let mut consumed = vec![false; depth];
    for (k, &(l, _)) in tiles.iter().enumerate() {
        let pos = l + k;
        controls.push(pos);
        strips.push(pos + 1);
        consumed[pos] = true;
        consumed[pos + 1] = true;
    }
    // Permutation: non-tiled outer loops keep their relative order around
    // the control block; strip loops drop just above the untouched inner
    // loops.  The standard shape: [outer-untouched*, controls, strips,
    // inner-untouched*] — with controls hoisted to the front of the region
    // they span.
    let mut perm = Vec::with_capacity(depth);
    let first_control = controls[0];
    for (p, &used) in consumed.iter().enumerate().take(first_control) {
        if !used {
            perm.push(p);
        }
    }
    perm.extend(&controls);
    perm.extend(&strips);
    // Everything else (untouched loops inside the tiled band) stays
    // innermost, in its original relative order.
    for p in 0..depth {
        if !perm.contains(&p) {
            perm.push(p);
        }
    }
    crate::transform::permute_loops(&out, &perm)
}

#[cfg(test)]
mod tile_tests {
    use crate::interp::execute;
    use crate::transform::tile;
    use crate::NestBuilder;

    fn matmul(n: i64) -> crate::LoopNest {
        NestBuilder::new("mm")
            .array("A", &[40, 40])
            .array("B", &[40, 40])
            .array("C", &[40, 40])
            .loop_("J", 1, n)
            .loop_("K", 1, n)
            .loop_("I", 1, n)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build()
    }

    #[test]
    fn tiled_matmul_preserves_semantics() {
        let nest = matmul(24);
        let orig = execute(&nest);
        for tiles in [vec![(0usize, 8i64)], vec![(0, 8), (1, 8)], vec![(1, 4)]] {
            let t = tile(&nest, &tiles).expect("tileable");
            assert_eq!(execute(&t), orig, "tiles {tiles:?}");
        }
    }

    #[test]
    fn tile_shapes_are_canonical() {
        let nest = matmul(24);
        let t = tile(&nest, &[(0, 8), (1, 8)]).unwrap();
        assert_eq!(t.loop_vars(), vec!["J", "K", "J_s", "K_s", "I"]);
        let t = tile(&nest, &[(1, 4)]).unwrap();
        assert_eq!(t.loop_vars(), vec!["J", "K", "K_s", "I"]);
    }

    #[test]
    fn rejects_unsorted_tile_lists() {
        let nest = matmul(24);
        assert!(tile(&nest, &[(1, 4), (0, 4)]).is_err());
        assert!(tile(&nest, &[(0, 4), (0, 4)]).is_err());
    }
}

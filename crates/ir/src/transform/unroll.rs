//! Unroll-and-jam (outer-loop unrolling).

use crate::expr::Expr;
use crate::nest::{Lhs, LoopNest, Stmt};
use std::fmt;

/// Why a transformation request was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransformError {
    /// The unroll vector's length differs from the nest depth.
    BadUnrollLength {
        /// Nest depth.
        expected: usize,
        /// Supplied vector length.
        got: usize,
    },
    /// The innermost component of an unroll vector must be zero (§4.1: the
    /// innermost loop is never unrolled by unroll-and-jam).
    InnermostUnroll,
    /// A loop's trip count is not divisible by its unroll factor, which
    /// would require a clean-up loop and break perfect nesting.
    TripNotDivisible {
        /// The loop variable.
        var: String,
        /// Its trip count.
        trip: i64,
        /// The requested number of copies (`unroll + 1`).
        copies: i64,
    },
    /// Unrolling a non-unit-step loop is not supported.
    NonUnitStep(String),
    /// The supplied loop order is not a permutation of `0..depth`.
    BadPermutation {
        /// Nest depth.
        depth: usize,
        /// The rejected permutation.
        perm: Vec<usize>,
    },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::BadUnrollLength { expected, got } => {
                write!(
                    f,
                    "unroll vector has length {got}, nest depth is {expected}"
                )
            }
            TransformError::InnermostUnroll => {
                write!(f, "the innermost loop cannot be unrolled by unroll-and-jam")
            }
            TransformError::TripNotDivisible { var, trip, copies } => {
                write!(
                    f,
                    "trip count {trip} of loop {var} not divisible by {copies}"
                )
            }
            TransformError::NonUnitStep(var) => {
                write!(f, "loop {var} already has non-unit step")
            }
            TransformError::BadPermutation { depth, perm } => {
                write!(f, "{perm:?} is not a permutation of 0..{depth}")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// Applies unroll-and-jam with the given unroll vector.
///
/// `unroll[k]` is the *additional copies* of loop `k` (outermost first), so
/// the paper's `u` — unrolling by `u` yields `u + 1` jammed copies of the
/// body.  The innermost entry must be `0`.  Following §4.1, a copy at
/// offset `u'` rewrites every subscript occurrence of loop index `i_k` to
/// `i_k + u'_k`; the loop step becomes `u_k + 1`.
///
/// Copies are emitted in lexicographic offset order, each copy keeping the
/// original statement order — the "jam" of unroll-and-jam.
///
/// # Errors
///
/// See [`TransformError`] for rejection reasons.  *Safety* (dependence
/// legality) is a property of the nest's dependences and is checked by
/// `ujam-dep`; this function performs the mechanical rewrite.
///
/// # Example
///
/// ```
/// use ujam_ir::{NestBuilder, transform::unroll_and_jam};
/// let nest = NestBuilder::new("intro")
///     .array("A", &[512])
///     .array("B", &[256])
///     .loop_("J", 1, 512)
///     .loop_("I", 1, 256)
///     .stmt("A(J) = A(J) + B(I)")
///     .build();
/// let u = unroll_and_jam(&nest, &[1, 0]).unwrap();
/// assert_eq!(u.loops()[0].step(), 2);
/// assert_eq!(u.body().len(), 2);
/// assert!(u.to_string().contains("A(J+1) = A(J+1) + B(I)"));
/// ```
pub fn unroll_and_jam(nest: &LoopNest, unroll: &[u32]) -> Result<LoopNest, TransformError> {
    check_unroll(nest, unroll)?;
    let mut out = nest.clone();
    for (l, &u) in out.loops_mut().iter_mut().zip(unroll) {
        if u > 0 {
            l.set_step(u as i64 + 1);
        }
    }

    let unrolled_vars: Vec<(String, u32)> = nest
        .loops()
        .iter()
        .zip(unroll)
        .filter(|(_, &u)| u > 0)
        .map(|(l, &u)| (l.var().to_string(), u))
        .collect();

    let mut body = Vec::new();
    for offset in offsets(&unrolled_vars) {
        for stmt in nest.body() {
            body.push(shift_stmt(stmt, &offset));
        }
    }
    *out.body_mut() = body;
    Ok(out)
}

/// Checks that [`unroll_and_jam`] accepts `unroll` for `nest`, in
/// O(depth) and without building the unrolled nest: `Ok` exactly when
/// the rewrite succeeds, and otherwise the error it would return.
///
/// # Errors
///
/// [`TransformError::BadUnrollLength`], [`TransformError::InnermostUnroll`],
/// [`TransformError::NonUnitStep`] or [`TransformError::TripNotDivisible`],
/// checked in that order.
///
/// # Example
///
/// ```
/// use ujam_ir::{NestBuilder, transform::{check_unroll, TransformError}};
/// let nest = NestBuilder::new("intro")
///     .array("A", &[512]).array("B", &[256])
///     .loop_("J", 1, 512).loop_("I", 1, 256)
///     .stmt("A(J) = A(J) + B(I)")
///     .build();
/// assert_eq!(check_unroll(&nest, &[3, 0]), Ok(()));
/// assert_eq!(check_unroll(&nest, &[0, 1]), Err(TransformError::InnermostUnroll));
/// ```
pub fn check_unroll(nest: &LoopNest, unroll: &[u32]) -> Result<(), TransformError> {
    if unroll.len() != nest.depth() {
        return Err(TransformError::BadUnrollLength {
            expected: nest.depth(),
            got: unroll.len(),
        });
    }
    if *unroll.last().expect("validated nests have loops") != 0 {
        return Err(TransformError::InnermostUnroll);
    }
    for (l, &u) in nest.loops().iter().zip(unroll) {
        if u == 0 {
            continue;
        }
        if l.step() != 1 {
            return Err(TransformError::NonUnitStep(l.var().to_string()));
        }
        let copies = u as i64 + 1;
        if l.trip_count() % copies != 0 {
            return Err(TransformError::TripNotDivisible {
                var: l.var().to_string(),
                trip: l.trip_count(),
                copies,
            });
        }
    }
    Ok(())
}

/// Lexicographic copy offsets `0..=u` per unrolled variable.
fn offsets(vars: &[(String, u32)]) -> Vec<Vec<(String, i64)>> {
    let mut all = vec![Vec::new()];
    for (var, u) in vars {
        let mut next = Vec::with_capacity(all.len() * (*u as usize + 1));
        for prefix in &all {
            for k in 0..=*u as i64 {
                let mut o = prefix.clone();
                o.push((var.clone(), k));
                next.push(o);
            }
        }
        all = next;
    }
    all
}

fn shift_stmt(stmt: &Stmt, offset: &[(String, i64)]) -> Stmt {
    let mut s = stmt.clone();
    let shift = |e: &mut Expr| {
        e.visit_refs_mut(&mut |r| {
            for dim in r.dims_mut() {
                for (var, delta) in offset {
                    dim.shift_var(var, *delta);
                }
            }
        });
    };
    shift(s.rhs_mut());
    if let Lhs::Array(a) = s.lhs_mut() {
        for dim in a.dims_mut() {
            for (var, delta) in offset {
                dim.shift_var(var, *delta);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::execute;
    use crate::NestBuilder;

    fn intro_nest(n: i64, m: i64) -> LoopNest {
        NestBuilder::new("intro")
            .array("A", &[n + 4])
            .array("B", &[m + 4])
            .loop_("J", 1, n)
            .loop_("I", 1, m)
            .stmt("A(J) = A(J) + B(I)")
            .build()
    }

    #[test]
    fn paper_intro_example() {
        // §3.3: unrolling J by 1 doubles the body and steps J by 2.
        let u = unroll_and_jam(&intro_nest(8, 4), &[1, 0]).unwrap();
        assert_eq!(u.body().len(), 2);
        assert_eq!(u.loops()[0].step(), 2);
        assert_eq!(u.loops()[0].trip_count(), 4);
        let text = u.to_string();
        assert!(text.contains("A(J) = A(J) + B(I)"));
        assert!(text.contains("A(J+1) = A(J+1) + B(I)"));
    }

    #[test]
    fn semantics_preserved_on_intro() {
        let nest = intro_nest(8, 4);
        let orig = execute(&nest);
        for u in 1..4u32 {
            if 8 % (u as i64 + 1) != 0 {
                continue;
            }
            let t = unroll_and_jam(&nest, &[u, 0]).unwrap();
            assert_eq!(execute(&t), orig, "unroll by {u} changed semantics");
        }
    }

    #[test]
    fn two_loop_unroll_semantics() {
        let nest = NestBuilder::new("mm")
            .array("C", &[10, 10])
            .array("A", &[10, 10])
            .array("B", &[10, 10])
            .loop_("J", 1, 4)
            .loop_("K", 1, 4)
            .loop_("I", 1, 4)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build();
        let orig = execute(&nest);
        let t = unroll_and_jam(&nest, &[1, 1, 0]).unwrap();
        assert_eq!(t.body().len(), 4);
        assert_eq!(execute(&t), orig);
    }

    #[test]
    fn offsets_are_lexicographic() {
        let vars = vec![("J".to_string(), 1u32), ("K".to_string(), 1u32)];
        let offs = offsets(&vars);
        let flat: Vec<Vec<i64>> = offs
            .iter()
            .map(|o| o.iter().map(|(_, k)| *k).collect())
            .collect();
        assert_eq!(flat, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn rejects_innermost_unroll() {
        assert_eq!(
            unroll_and_jam(&intro_nest(8, 4), &[0, 1]),
            Err(TransformError::InnermostUnroll)
        );
    }

    #[test]
    fn rejects_bad_length_and_indivisible_trip() {
        assert!(matches!(
            unroll_and_jam(&intro_nest(8, 4), &[1]),
            Err(TransformError::BadUnrollLength { .. })
        ));
        assert!(matches!(
            unroll_and_jam(&intro_nest(9, 4), &[1, 0]),
            Err(TransformError::TripNotDivisible { .. })
        ));
    }

    /// `check_unroll` is `unroll_and_jam`'s precondition, error for
    /// error: every variant the rewrite can return, in its order when
    /// two apply.  (`BadPermutation` belongs to `permute_loops`.)
    #[test]
    fn check_unroll_returns_what_unroll_and_jam_returns() {
        use TransformError::*;
        let stepped = unroll_and_jam(&intro_nest(8, 4), &[1, 0]).unwrap();
        let cases: [(LoopNest, &[u32], Result<(), TransformError>); 9] = [
            (
                intro_nest(8, 4),
                &[1],
                Err(BadUnrollLength {
                    expected: 2,
                    got: 1,
                }),
            ),
            (
                intro_nest(8, 4),
                &[1, 1, 0],
                Err(BadUnrollLength {
                    expected: 2,
                    got: 3,
                }),
            ),
            (intro_nest(8, 4), &[0, 1], Err(InnermostUnroll)),
            (intro_nest(9, 4), &[1, 1], Err(InnermostUnroll)),
            (stepped.clone(), &[1, 0], Err(NonUnitStep("J".into()))),
            (
                intro_nest(9, 4),
                &[1, 0],
                Err(TripNotDivisible {
                    var: "J".into(),
                    trip: 9,
                    copies: 2,
                }),
            ),
            (intro_nest(8, 4), &[3, 0], Ok(())),
            (intro_nest(9, 4), &[2, 0], Ok(())),
            (stepped, &[0, 0], Ok(())),
        ];
        for (nest, u, want) in cases {
            assert_eq!(check_unroll(&nest, u), want, "u = {u:?}");
            assert_eq!(unroll_and_jam(&nest, u).map(|_| ()), want, "u = {u:?}");
        }
    }

    #[test]
    fn unroll_by_zero_is_identity() {
        let nest = intro_nest(8, 4);
        let t = unroll_and_jam(&nest, &[0, 0]).unwrap();
        assert_eq!(t, nest);
    }

    #[test]
    fn strided_subscripts_shift_by_coefficient() {
        let nest = NestBuilder::new("stride")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("J", 1, 8)
            .loop_("I", 1, 8)
            .stmt("A(2J-1) = B(2J-1) + 1.0")
            .build();
        let t = unroll_and_jam(&nest, &[1, 0]).unwrap();
        // Copy at offset 1 references 2(J+1)-1 = 2J+1.
        assert!(t.to_string().contains("A(2J+1) = B(2J+1) + 1"));
        assert_eq!(execute(&t), execute(&nest));
    }
}

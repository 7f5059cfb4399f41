//! Distance vectors with exact and unconstrained components.

use std::fmt;

/// The dependence distance along one loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dist {
    /// The dependence holds exactly at this iteration difference.
    Exact(i64),
    /// The dependence can hold at any iteration difference the loop bounds
    /// allow (direction `*`): the subscripts do not constrain this loop.
    Any,
}

impl Dist {
    /// `true` if the component admits zero.
    pub fn can_be_zero(self) -> bool {
        !matches!(self, Dist::Exact(k) if k != 0)
    }

    /// The negated component (for the reversed dependence direction).
    pub fn negate(self) -> Dist {
        match self {
            Dist::Exact(k) => Dist::Exact(-k),
            Dist::Any => Dist::Any,
        }
    }

    /// Intersects two constraints on the same loop (from two subscript
    /// dimensions).  Returns `None` when they conflict — no dependence.
    pub fn meet(self, other: Dist) -> Option<Dist> {
        match (self, other) {
            (Dist::Any, d) | (d, Dist::Any) => Some(d),
            (Dist::Exact(a), Dist::Exact(b)) => (a == b).then_some(Dist::Exact(a)),
        }
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dist::Exact(k) => write!(f, "{k}"),
            Dist::Any => write!(f, "*"),
        }
    }
}

/// A dependence distance vector, outermost loop first.
pub type DistVec = Vec<Dist>;

/// Decides whether the constraint product admits a lexicographically
/// positive vector within the loop bounds, and if it admits the zero vector.
///
/// Returns `(positive_realizable, zero_realizable)`.
///
/// Walking outermost-in: an `Any` component (on a loop with more than one
/// iteration) can always be chosen positive, making the vector positive
/// regardless of the suffix; an `Exact(k > 0)` within bounds does the same;
/// `Exact(0)` defers to the suffix; `Exact(k < 0)` (or out of bounds) kills
/// positivity at this level.
pub fn lex_positive_realizable(dist: &[Dist], trips: &[i64]) -> (bool, bool) {
    assert_eq!(dist.len(), trips.len(), "distance/trip length mismatch");
    let mut zero = true;
    for (&d, &trip) in dist.iter().zip(trips) {
        match d {
            Dist::Any => {
                // Choose positive here (possible when trip > 1): suffix free.
                return (trip > 1, zero);
            }
            Dist::Exact(k) => {
                if k.abs() >= trip {
                    // Out of the iteration space: no dependence at all; the
                    // caller treats this as unrealizable in both senses.
                    return (false, false);
                }
                if k > 0 {
                    return (true, false);
                }
                if k < 0 {
                    return (false, false);
                }
            }
        }
    }
    // All components zero.
    let _ = &mut zero;
    (false, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meet_combines_constraints() {
        assert_eq!(Dist::Any.meet(Dist::Exact(2)), Some(Dist::Exact(2)));
        assert_eq!(Dist::Exact(2).meet(Dist::Exact(2)), Some(Dist::Exact(2)));
        assert_eq!(Dist::Exact(2).meet(Dist::Exact(3)), None);
        assert_eq!(Dist::Any.meet(Dist::Any), Some(Dist::Any));
    }

    #[test]
    fn lex_positive_cases() {
        let trips = [8, 8];
        assert_eq!(
            lex_positive_realizable(&[Dist::Exact(1), Dist::Exact(0)], &trips),
            (true, false)
        );
        assert_eq!(
            lex_positive_realizable(&[Dist::Exact(0), Dist::Exact(0)], &trips),
            (false, true)
        );
        assert_eq!(
            lex_positive_realizable(&[Dist::Exact(-1), Dist::Any], &trips),
            (false, false)
        );
        assert_eq!(
            lex_positive_realizable(&[Dist::Any, Dist::Exact(-3)], &trips),
            (true, true)
        );
        assert_eq!(
            lex_positive_realizable(&[Dist::Exact(0), Dist::Exact(2)], &trips),
            (true, false)
        );
    }

    #[test]
    fn out_of_bounds_distance_is_unrealizable() {
        assert_eq!(
            lex_positive_realizable(&[Dist::Exact(9)], &[8]),
            (false, false)
        );
        assert_eq!(
            lex_positive_realizable(&[Dist::Exact(7)], &[8]),
            (true, false)
        );
    }

    #[test]
    fn single_iteration_loop_any_cannot_be_positive() {
        assert_eq!(lex_positive_realizable(&[Dist::Any], &[1]), (false, true));
    }

    #[test]
    fn negate_and_display() {
        assert_eq!(Dist::Exact(3).negate(), Dist::Exact(-3));
        assert_eq!(Dist::Any.negate(), Dist::Any);
        assert_eq!(Dist::Exact(-2).to_string(), "-2");
        assert_eq!(Dist::Any.to_string(), "*");
    }
}

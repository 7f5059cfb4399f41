//! Localized iteration spaces and self reuse.
//!
//! §3.4 defines self-temporal reuse within a localized space `L` as
//! `ker H ∩ L ≠ {0}`, and self-spatial reuse as the same with `H`'s first
//! (column-contiguous) row dropped.  Every `L` unroll-and-jam builds is
//! spanned by whole loop axes, so a vector of `L` is a vector supported on
//! `L`'s columns, and the intersection is non-trivial exactly when `H`
//! restricted to those columns has a kernel: `rank(H[:, L]) < |L|`.
//! [`has_self_temporal`] and [`has_self_spatial`] answer that by exact
//! integer elimination ([`ujam_linalg::rank`]); the rational
//! kernel-and-intersection form (`ujam_linalg::Space`) is their test
//! oracle.

use ujam_linalg::{rank, Mat};

/// The *localized vector space* `L`: the loop directions whose reuse the
/// memory hierarchy can actually exploit (§3.4).
///
/// For cache analysis this is typically every loop whose reuse distance
/// fits in cache (here: all loops, or a chosen suffix); for scalar
/// replacement it is the innermost loop only.  Unroll-and-jam's purpose is
/// precisely to move reuse carried by *outer* loops into the innermost,
/// localized, position.
///
/// The spaces arising in unroll-and-jam are always spanned by whole loop
/// axes, so `Localized` stores a set of loop positions (outermost = 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Localized {
    depth: usize,
    loops: Vec<usize>,
}

impl Localized {
    /// Localizes the given loops (positions outermost-first, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range.
    pub fn new(depth: usize, loops: &[usize]) -> Localized {
        let mut v: Vec<usize> = loops.to_vec();
        v.sort_unstable();
        v.dedup();
        assert!(v.iter().all(|&l| l < depth), "loop index out of range");
        Localized { depth, loops: v }
    }

    /// Only the innermost loop — the localized space of scalar replacement.
    pub fn innermost(depth: usize) -> Localized {
        assert!(depth > 0, "empty nest");
        Localized::new(depth, &[depth - 1])
    }

    /// Every loop: the idealized "everything fits in cache" space.
    pub fn all(depth: usize) -> Localized {
        Localized::new(depth, &(0..depth).collect::<Vec<_>>())
    }

    /// The innermost loop plus the loops of an unroll set: after
    /// unroll-and-jam, reuse along the unrolled directions becomes
    /// innermost reuse (§4.1: "unroll-and-jam within `L` will not increase
    /// cache reuse", hence `% ∩ L = ∅` is arranged by construction).
    pub fn with_unrolled(depth: usize, unrolled: &[usize]) -> Localized {
        let mut loops = unrolled.to_vec();
        loops.push(depth - 1);
        Localized::new(depth, &loops)
    }

    /// Nest depth (the ambient dimension).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The localized loop positions, ascending.
    pub fn loops(&self) -> &[usize] {
        &self.loops
    }

    /// `true` if loop `l` is localized.
    pub fn contains(&self, l: usize) -> bool {
        self.loops.binary_search(&l).is_ok()
    }
}

/// `true` if a reference with access matrix `h` has self-temporal reuse
/// within `L`: `ker H ∩ L ≠ {0}` (§3.4: `∃ x ∈ L, H·x = 0`), decided as
/// `rank(H[:, L]) < |L|`.
pub fn has_self_temporal(h: &Mat, l: &Localized) -> bool {
    rank(h, 0..h.rows(), l.loops()) < l.loops().len()
}

/// `true` if a reference has self-spatial reuse within `L`: the same with
/// the first (column-contiguous) subscript row dropped, `ker H_S ∩ L ≠ {0}`,
/// decided as `rank(H[1.., L]) < |L|`.  A reference with no subscripts
/// has none.  Equation 1 asks it only of references without self-temporal
/// reuse, which makes the reuse *spatial proper*.
pub fn has_self_spatial(h: &Mat, l: &Localized) -> bool {
    h.rows() > 0 && rank(h, 1..h.rows(), l.loops()) < l.loops().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_linalg::Mat;

    #[test]
    fn localized_constructors() {
        let l = Localized::innermost(3);
        assert_eq!(l.loops(), &[2]);
        assert!(l.contains(2));
        assert!(!l.contains(0));
        assert_eq!(Localized::all(3).loops(), &[0, 1, 2]);
        assert_eq!(Localized::with_unrolled(3, &[0]).loops(), &[0, 2]);
        assert_eq!(Localized::new(3, &[1, 1, 0]).loops(), &[0, 1]);
    }

    #[test]
    fn self_temporal_detection() {
        // A(J) in a (J, I) nest: H = [1 0]; reuse along I (innermost).
        let h = Mat::from_rows(&[&[1, 0]]);
        assert!(has_self_temporal(&h, &Localized::innermost(2)));
        // A(I): H = [0 1]; no innermost temporal reuse, but reuse along J.
        let h = Mat::from_rows(&[&[0, 1]]);
        assert!(!has_self_temporal(&h, &Localized::innermost(2)));
        assert!(has_self_temporal(&h, &Localized::all(2)));
    }

    #[test]
    fn self_spatial_detection() {
        // A(I, J): first row zeroed leaves [0 1] whose kernel is the I
        // axis... rows are subscript dims: H = [[0,1],[1,0]] for A(I,J) in
        // (J, I) nest.  Dropping the first row leaves J's row: kernel
        // includes the I axis: spatial reuse along I (stride-1).
        let h = Mat::from_rows(&[&[0, 1], &[1, 0]]);
        assert!(has_self_spatial(&h, &Localized::innermost(2)));
        assert!(!has_self_temporal(&h, &Localized::innermost(2)));
        // A(J, I) in the same nest walks the non-contiguous dimension
        // innermost: no innermost spatial reuse.
        let h = Mat::from_rows(&[&[1, 0], &[0, 1]]);
        assert!(!has_self_spatial(&h, &Localized::innermost(2)));
    }

    #[test]
    fn invariant_reference_is_temporal_not_spatial_proper() {
        // A(J) in (J, I): innermost-temporal; spatial adds nothing more.
        let h = Mat::from_rows(&[&[1, 0]]);
        assert!(has_self_temporal(&h, &Localized::innermost(2)));
        // has_self_spatial is also true here (temporal implies the spatial
        // system is satisfiable); Equation 1 checks temporal first.
        assert!(has_self_spatial(&h, &Localized::innermost(2)));
    }

    /// The rank tests against their definition, `ker ∩ L ≠ {0}` over
    /// rational spaces, on seeded random `H` up to 4×5 (zero rows, zero
    /// columns and `rows() == 0` included) for every subset `L`.
    #[test]
    fn rank_tests_equal_the_kernel_intersection() {
        use ujam_linalg::Space;
        let reference = |h: &Mat, l: &Localized| {
            !Space::kernel(h)
                .intersect(&Space::axes(l.depth(), l.loops()))
                .is_trivial()
        };
        let mut rng = ujam_rng::Rng::new(0x5e1f);
        let mut hits = [0usize; 2];
        for _ in 0..300 {
            let rows = rng.int(0, 4) as usize;
            let depth = rng.int(1, 5) as usize;
            let data: Vec<i64> = (0..rows * depth)
                .map(|_| {
                    if rng.int(0, 2) == 0 {
                        rng.int(-3, 3)
                    } else {
                        0
                    }
                })
                .collect();
            let h = Mat::from_vec(rows, depth, data);
            for mask in 0u32..1 << depth {
                let loops: Vec<usize> = (0..depth).filter(|&c| mask >> c & 1 == 1).collect();
                let l = Localized::new(depth, &loops);
                let temporal = has_self_temporal(&h, &l);
                assert_eq!(temporal, reference(&h, &l), "H = {h:?}, L = {loops:?}");
                let spatial = rows > 0 && reference(&h.with_zero_row(0), &l);
                assert_eq!(
                    has_self_spatial(&h, &l),
                    spatial,
                    "H = {h:?}, L = {loops:?}"
                );
                hits[0] += usize::from(temporal);
                hits[1] += usize::from(spatial && !temporal);
            }
        }
        assert!(
            hits.iter().all(|&n| n > 100),
            "too few reuse cases: {hits:?}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_loop_panics() {
        let _ = Localized::new(2, &[2]);
    }
}

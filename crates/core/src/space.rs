//! The unroll space `%` and offset-indexed tables (§4.1).
//!
//! A [`Table`] holds the paper's `Sum` values (Figure 2): the entry at
//! offset `u` is the tabulated quantity after unrolling by `u`, the total
//! of every copy's contribution over the box `[0, u]`, so
//! [`Table::prefix_sum`] is one dense lookup.  A table is built one of
//! two ways: from its sums directly
//! ([`Table::from_sums`], fed by the exact sweeps of [`crate::streams`]),
//! or from difference-domain *corner* writes, each adding its value over
//! the whole up-set of one offset.  A merge region's update then writes
//! only its frontier (`add_upset_union`), and two rounds of prefix scans,
//! one scan per dimension each, turn the corners into per-copy densities
//! and the densities into sums.
//!
//! # Flat layout
//!
//! Storage is one contiguous row-major buffer.  [`UnrollSpace`]
//! precomputes the per-dimension extents and strides once at
//! construction, so every structural walk decomposes into *runs*:
//! along axis `d` the array tiles into blocks of `extent_d · stride_d`
//! elements, and a scan along that axis is either a stride-1 prefix
//! scan per row (`stride_d == 1`, the innermost dimension) or
//! `extent_d − 1` vertical `row += previous_row` adds over contiguous
//! `stride_d`-element runs.  Both shapes are plain stride-1 loops (the
//! row kernels at the bottom of this module), which the compiler is free
//! to autovectorise.  The query path is allocation-free.

/// The bounded space of unroll vectors for a chosen set of loops.
///
/// `loops` are nest-loop positions (outermost = 0), ascending, never
/// including the innermost loop; each dimension carries its own maximum
/// unroll amount (typically that loop's dependence-safety bound), so
/// offsets range over the box `Π [0, bound_d]`.
///
/// The row-major extents (`bound_d + 1`), strides, and total size are
/// computed once here and shared by every table over the space — the
/// flat layout that lets scans and queries run over contiguous runs.
///
/// # Example
///
/// ```
/// use ujam_core::UnrollSpace;
/// let s = UnrollSpace::new(3, &[0, 1], 2);
/// assert_eq!(s.len(), 9);
/// assert_eq!(s.offsets().count(), 9);
/// assert_eq!(s.full_vector(&[2, 1]), vec![2, 1, 0]);
///
/// let r = UnrollSpace::with_bounds(3, &[0, 1], &[3, 1]);
/// assert_eq!(r.len(), 8);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnrollSpace {
    depth: usize,
    loops: Vec<usize>,
    bounds: Vec<u32>,
    /// `bounds[d] + 1`, cached for the flat walks.
    extents: Vec<usize>,
    /// Row-major strides (suffix products of `extents`).
    strides: Vec<usize>,
    /// `Π extents` — the flat buffer length of any table over this space.
    size: usize,
}

impl UnrollSpace {
    /// Creates a space with one uniform per-dimension bound.
    ///
    /// # Panics
    ///
    /// Panics if a loop is out of range, duplicated, or innermost.
    pub fn new(depth: usize, loops: &[usize], bound: u32) -> UnrollSpace {
        UnrollSpace::with_bounds(depth, loops, &vec![bound; loops.len()])
    }

    /// Creates a space with an individual bound per unrolled loop
    /// (parallel to `loops`).
    ///
    /// # Panics
    ///
    /// Panics if a loop is out of range, duplicated, or innermost, or if
    /// `bounds.len() != loops.len()`.
    pub fn with_bounds(depth: usize, loops: &[usize], bounds: &[u32]) -> UnrollSpace {
        assert_eq!(bounds.len(), loops.len(), "one bound per unrolled loop");
        let mut pairs: Vec<(usize, u32)> =
            loops.iter().copied().zip(bounds.iter().copied()).collect();
        pairs.sort_unstable_by_key(|&(l, _)| l);
        pairs.dedup_by_key(|&mut (l, _)| l);
        assert_eq!(pairs.len(), loops.len(), "duplicate unroll loop");
        assert!(
            pairs.iter().all(|&(l, _)| l + 1 < depth),
            "unroll loops must be outer loops of the nest"
        );
        let bounds: Vec<u32> = pairs.iter().map(|&(_, b)| b).collect();
        let extents: Vec<usize> = bounds.iter().map(|&b| b as usize + 1).collect();
        let mut strides = vec![1usize; extents.len()];
        for d in (0..extents.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * extents[d + 1];
        }
        let size = extents.iter().product();
        UnrollSpace {
            depth,
            loops: pairs.iter().map(|&(l, _)| l).collect(),
            bounds,
            extents,
            strides,
            size,
        }
    }

    /// Nest depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The unrolled loop positions, ascending.
    pub fn loops(&self) -> &[usize] {
        &self.loops
    }

    /// The largest per-dimension bound (inclusive).
    pub fn bound(&self) -> u32 {
        self.bounds.iter().copied().max().unwrap_or(0)
    }

    /// Per-dimension bounds (inclusive), parallel to [`UnrollSpace::loops`].
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// Number of dimensions (unrolled loops).
    pub fn dims(&self) -> usize {
        self.loops.len()
    }

    /// Number of offset vectors in the box.
    pub fn len(&self) -> usize {
        self.size
    }

    /// `true` for the degenerate zero-dimensional space.
    pub fn is_empty(&self) -> bool {
        self.dims() == 0
    }

    /// Per-dimension extents (`bound + 1`), parallel to
    /// [`UnrollSpace::loops`].
    pub(crate) fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Row-major strides, parallel to [`UnrollSpace::loops`]: stepping
    /// dimension `d` by one moves the flat index by `strides()[d]`.
    pub(crate) fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Iterates all offsets in lexicographic order.
    ///
    /// Each yielded item is an owned `Vec`; hot loops that only need to
    /// *look* at every offset should use [`UnrollSpace::for_each_offset`],
    /// which reuses one scratch buffer and allocates nothing per step.
    pub fn offsets(&self) -> OffsetIter {
        OffsetIter {
            bounds: self.bounds.clone(),
            current: vec![0; self.dims()],
            remaining: self.len(),
        }
    }

    /// Visits every offset in lexicographic order through one reused
    /// scratch buffer — the allocation-free counterpart of
    /// [`UnrollSpace::offsets`] for hot loops.
    ///
    /// The visitation order (and therefore the running flat index, if the
    /// caller keeps one) is identical to [`UnrollSpace::offsets`] and to
    /// [`UnrollSpace::index`]'s row-major layout.
    pub fn for_each_offset(&self, mut f: impl FnMut(&[u32])) {
        let mut u = vec![0u32; self.dims()];
        loop {
            f(&u);
            let mut d = self.dims();
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                if u[d] < self.bounds[d] {
                    u[d] += 1;
                    break;
                }
                u[d] = 0;
            }
        }
    }

    /// Flat row-major index of an offset.
    ///
    /// # Panics
    ///
    /// Panics if the offset is outside the box.
    #[inline]
    pub fn index(&self, offset: &[u32]) -> usize {
        assert_eq!(offset.len(), self.dims(), "offset arity mismatch");
        let mut idx = 0usize;
        for ((&o, &b), &s) in offset.iter().zip(&self.bounds).zip(&self.strides) {
            assert!(o <= b, "offset outside the unroll space");
            idx += o as usize * s;
        }
        idx
    }

    /// Number of body copies `Π (u_i + 1)` produced by unrolling by `u`.
    #[inline]
    pub fn copies(&self, u: &[u32]) -> usize {
        assert_eq!(u.len(), self.dims(), "offset arity mismatch");
        u.iter().map(|&x| x as usize + 1).product()
    }

    /// Embeds a space-offset into a full per-nest-loop unroll vector.
    pub fn full_vector(&self, u: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; self.depth];
        self.write_full_vector(u, &mut out);
        out
    }

    /// [`UnrollSpace::full_vector`] into a caller-provided buffer of
    /// length [`UnrollSpace::depth`] — the allocation-free variant for
    /// per-candidate hot loops.
    pub(crate) fn write_full_vector(&self, u: &[u32], out: &mut [u32]) {
        assert_eq!(u.len(), self.dims(), "offset arity mismatch");
        assert_eq!(out.len(), self.depth, "full vector arity mismatch");
        out.iter_mut().for_each(|v| *v = 0);
        for (&l, &v) in self.loops.iter().zip(u) {
            out[l] = v;
        }
    }

    /// Decodes a flat row-major index back into offset coordinates.
    #[cfg(test)]
    fn coords(&self, idx: usize) -> Vec<u32> {
        self.strides
            .iter()
            .zip(&self.extents)
            .map(|(&s, &e)| ((idx / s) % e) as u32)
            .collect()
    }
}

/// Iterator over the offsets of an [`UnrollSpace`] in lexicographic order.
///
/// The iterator knows exactly how many offsets remain
/// ([`ExactSizeIterator`]), and advancing it clones nothing beyond the
/// `Vec` it yields.
#[derive(Clone, Debug)]
pub struct OffsetIter {
    bounds: Vec<u32>,
    current: Vec<u32>,
    remaining: usize,
}

impl Iterator for OffsetIter {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let out = self.current.clone();
        // Advance the odometer in place; wrapping past the last offset
        // leaves `current` at zero with `remaining == 0`.
        for d in (0..self.bounds.len()).rev() {
            if self.current[d] < self.bounds[d] {
                self.current[d] += 1;
                break;
            }
            self.current[d] = 0;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for OffsetIter {}

impl std::iter::FusedIterator for OffsetIter {}

/// How many reduced shifts [`add_upset_union`] writes in closed form:
/// inclusion–exclusion costs 2^k − 1 corner writes for `k` shifts.  Past
/// it the writer declines and the caller sweeps the set.
const UPSET_IE_MAX_POINTS: usize = 12;

/// An integer table indexed by unroll offset, holding the values of the
/// paper's `Sum` query (Figure 2): the entry at `u` is the total over the
/// box `[0, u]`, and [`Table::prefix_sum`] reads it.
///
/// Storage is one flat row-major buffer over the space's precomputed
/// strides.  Its public interface is read-only: a table is built from
/// its sums ([`Table::from_sums`]) or, inside the crate, from the
/// leaders of a set's groups (`Table::from_leaders`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    space: UnrollSpace,
    sums: Vec<i64>,
}

impl Table {
    /// Builds a table from its `Sum` values in flat (row-major) order —
    /// `sums[space.index(u)]` becomes [`Table::prefix_sum`]`(u)`.  This is
    /// the exact-tabulation path for set shapes the closed-form region
    /// construction cannot express, fed by the one-sweep evaluators of
    /// [`crate::streams`].
    ///
    /// # Panics
    ///
    /// Panics if `sums` does not hold one value per offset of `space`.
    pub fn from_sums(space: UnrollSpace, sums: Vec<i64>) -> Table {
        assert_eq!(sums.len(), space.len(), "one sum per offset");
        Table { space, sums }
    }

    /// The leader table of a set whose copies are distinct: each item of
    /// `groups` is one counted group's beating shifts, and the group's
    /// copy at `u'` leads its merge class in the box `[0, u]` unless a
    /// partner `u' − x` lies in that box.  Every group contributes one per
    /// copy (a corner at the origin), less its beaten copies
    /// (`add_upset_union`).  `None` when a group's shifts are past the
    /// closed form's cap: the caller counts the set another way.
    pub(crate) fn from_leaders(
        space: &UnrollSpace,
        groups: impl IntoIterator<Item = Vec<Vec<i64>>>,
    ) -> Option<Table> {
        let mut corners = vec![0; space.len()];
        for shifts in groups {
            if !add_upset_union(space, &mut corners, &shifts, -1) {
                return None;
            }
            corners[0] += 1; // the origin
        }
        Some(Table::from_corners(space.clone(), corners))
    }

    /// Builds a table from difference-domain corner writes in flat order:
    /// `corners[space.index(p)]` adds its value to the contribution of
    /// every copy at an offset that dominates `p`.  One prefix scan per
    /// dimension turns the corners into per-copy densities, and a second
    /// round turns the densities into sums.
    ///
    /// # Panics
    ///
    /// Panics if `corners` does not hold one value per offset of `space`.
    fn from_corners(space: UnrollSpace, mut corners: Vec<i64>) -> Table {
        assert_eq!(corners.len(), space.len(), "one corner per offset");
        scan_axes(&mut corners, &space);
        scan_axes(&mut corners, &space);
        Table::from_sums(space, corners)
    }

    /// The table's unroll space.
    pub fn space(&self) -> &UnrollSpace {
        &self.space
    }

    /// Whether the sums are non-decreasing along every axis — the
    /// soundness condition for up-set pruning in the search: when every
    /// register table is monotone, `registers(u)` can only grow with `u`,
    /// so a candidate over budget rules out its whole up-set.
    pub fn is_monotone(&self) -> bool {
        let extents = self.space.extents();
        for (d, &stride) in self.space.strides().iter().enumerate() {
            let extent = extents[d];
            if extent <= 1 {
                continue;
            }
            let block = extent * stride;
            for base in (0..self.sums.len()).step_by(block) {
                for e in 1..extent {
                    let prev = base + (e - 1) * stride;
                    let cur = base + e * stride;
                    for i in 0..stride {
                        if self.sums[cur + i] < self.sums[prev + i] {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Adds another table's sums into this one, element-wise — prefix
    /// sums are linear, so accumulating in the `Sum` domain is exact.
    pub(crate) fn accumulate(&mut self, other: &Table) {
        assert_eq!(self.space, other.space, "accumulate needs matching spaces");
        add_rows(&mut self.sums, &other.sums);
    }

    /// The paper's `Sum`: total over the box `[0, u]` — the value of the
    /// tabulated quantity after unrolling by `u`.  One lookup.
    pub fn prefix_sum(&self, u: &[u32]) -> i64 {
        self.sums[self.space.index(u)]
    }

    /// [`Table::prefix_sum`] at the offset whose flat index `idx` the
    /// caller computed once for every table over the same space.
    #[inline]
    pub(crate) fn sum_at(&self, idx: usize) -> i64 {
        self.sums[idx]
    }
}

/// Writes into `corners`, a difference buffer over `space` (see
/// `Table::from_corners`), the update that adds `delta`, in every query
/// box `[0, u]`, to each copy `u'` of the box whose *partner* `u' − x`
/// lies in the same box for some shift `x` — the merge-region update of
/// Figures 2/3/5: a copy beaten by an earlier copy of its class is not
/// new, however many beat it.  For non-negative shifts this is the union
/// of their up-sets; for any signs, inclusion–exclusion over the subsets
/// `S` of the shifts counts it as
/// `Σ_{S≠∅} (−1)^{|S|+1} Π_d max(0, u_d + 1 − span_d(S))`,
/// `span_d(S) = max(0, max_S x_d) − min(0, min_S x_d)`: one corner write
/// per subset, at its span (the join, for non-negative shifts).
///
/// The shifts are first reduced: one whose partner never fits the box
/// is dropped, and so is `q` when a kept `p` lies between 0 and `q` on
/// every axis — for non-negative shifts, the minimal antichain.  Past
/// `UPSET_IE_MAX_POINTS` reduced shifts, of either sign, nothing is
/// written and the result is `false`: the caller counts the set another
/// way.
fn add_upset_union(
    space: &UnrollSpace,
    corners: &mut [i64],
    shifts: &[Vec<i64>],
    delta: i64,
) -> bool {
    let bounds = &space.bounds;
    // `p` lies between 0 and `q` on every axis.
    let between = |p: &[i64], q: &[i64]| {
        p.iter()
            .zip(q)
            .all(|(&p, &q)| q.min(0) <= p && p <= q.max(0))
    };
    let mut minimal: Vec<&[i64]> = Vec::with_capacity(shifts.len());
    for x in shifts {
        let fits = x
            .iter()
            .zip(bounds)
            .all(|(&v, &b)| v.unsigned_abs() <= u64::from(b));
        if fits && !minimal.iter().any(|p| between(p, x)) {
            minimal.retain(|q| !between(x, q));
            minimal.push(x);
        }
    }
    if minimal.len() > UPSET_IE_MAX_POINTS {
        return false;
    }
    // Inclusion–exclusion over the subsets: a span past the box has no
    // copy with every partner inside, so it writes nothing.
    let mut span = vec![0u32; space.dims()];
    'subsets: for mask in 1u64..(1 << minimal.len()) {
        for (d, s) in span.iter_mut().enumerate() {
            let (lo, hi) = (minimal.iter().enumerate())
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .fold((0, 0), |(lo, hi), (_, x)| (x[d].min(lo), x[d].max(hi)));
            if hi - lo > i64::from(bounds[d]) {
                continue 'subsets;
            }
            *s = (hi - lo) as u32;
        }
        let sign = if mask.count_ones() % 2 == 1 {
            delta
        } else {
            -delta
        };
        corners[space.index(&span)] += sign;
    }
    true
}

/// Runs one inclusive prefix scan along every axis of a row-major dense
/// array over `space`.
///
/// Along axis `d` the array tiles into blocks of `extent_d · stride_d`
/// elements.  The innermost axis (`stride == 1`) is a contiguous prefix
/// scan per `extent`-element row; every other axis is `extent − 1`
/// vertical `row += previous_row` sweeps over contiguous `stride`-element
/// runs — the row kernels below.
fn scan_axes(data: &mut [i64], space: &UnrollSpace) {
    let extents = space.extents();
    for (d, &stride) in space.strides().iter().enumerate() {
        let extent = extents[d];
        if extent <= 1 {
            continue;
        }
        if stride == 1 {
            data.chunks_exact_mut(extent).for_each(prefix_scan);
            continue;
        }
        let block = extent * stride;
        for base in (0..data.len()).step_by(block) {
            for e in 1..extent {
                let (lo, hi) = data.split_at_mut(base + e * stride);
                add_rows(&mut hi[..stride], &lo[base + (e - 1) * stride..]);
            }
        }
    }
}

/// `dst[i] += src[i]` — the vertical step of an axis scan.  Panics if
/// the lengths differ.
fn add_rows(dst: &mut [i64], src: &[i64]) {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// In-place inclusive prefix sum of one contiguous row.
fn prefix_scan(row: &mut [i64]) {
    let mut acc = 0i64;
    for v in row {
        acc += *v;
        *v = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_kernels_match_closed_forms() {
        let sizes = [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 64, 100];
        for &n in &sizes {
            let src: Vec<i64> = (0..n as i64).map(|i| i * i - 7 * i + 3).collect();
            let base: Vec<i64> = (0..n as i64).map(|i| 11 * i - 5).collect();

            let mut a = base.clone();
            add_rows(&mut a, &src);
            let expect: Vec<i64> = base.iter().zip(&src).map(|(b, s)| b + s).collect();
            assert_eq!(a, expect, "add_rows n={n}");

            let mut p = base.clone();
            prefix_scan(&mut p);
            let expect: Vec<i64> = (0..n).map(|i| base[..=i].iter().sum()).collect();
            assert_eq!(p, expect, "prefix_scan n={n}");
        }
    }

    #[test]
    fn offsets_enumerate_lexicographically() {
        let s = UnrollSpace::new(3, &[0, 1], 1);
        let all: Vec<Vec<u32>> = s.offsets().collect();
        assert_eq!(all, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn offset_iter_len_matches_space_len() {
        for s in [
            UnrollSpace::new(3, &[0, 1], 2),
            UnrollSpace::new(2, &[0], 7),
            UnrollSpace::new(2, &[], 4),
            UnrollSpace::with_bounds(4, &[0, 1, 2], &[1, 0, 3]),
        ] {
            let it = s.offsets();
            assert_eq!(it.len(), s.len());
            assert_eq!(it.size_hint(), (s.len(), Some(s.len())));
            // The hint stays exact while draining.
            let mut it = s.offsets();
            let mut seen = 0;
            while it.next().is_some() {
                seen += 1;
                assert_eq!(it.len(), s.len() - seen);
            }
            assert_eq!(seen, s.len());
        }
    }

    #[test]
    fn for_each_offset_matches_offsets() {
        for s in [
            UnrollSpace::new(3, &[0, 1], 2),
            UnrollSpace::new(2, &[], 4),
            UnrollSpace::with_bounds(4, &[0, 2], &[3, 1]),
        ] {
            let mut visited = Vec::new();
            s.for_each_offset(|u| visited.push(u.to_vec()));
            let owned: Vec<Vec<u32>> = s.offsets().collect();
            assert_eq!(visited, owned);
        }
    }

    #[test]
    fn zero_dimensional_space_has_one_offset() {
        let s = UnrollSpace::new(2, &[], 4);
        assert_eq!(s.len(), 1);
        let all: Vec<Vec<u32>> = s.offsets().collect();
        assert_eq!(all, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn index_is_row_major() {
        let s = UnrollSpace::new(3, &[0, 1], 2);
        assert_eq!(s.index(&[0, 0]), 0);
        assert_eq!(s.index(&[0, 2]), 2);
        assert_eq!(s.index(&[1, 0]), 3);
        assert_eq!(s.index(&[2, 2]), 8);
        for (i, u) in s.offsets().enumerate() {
            assert_eq!(s.index(&u), i);
            assert_eq!(s.coords(i), u);
        }
    }

    #[test]
    fn strides_match_row_major_steps() {
        let s = UnrollSpace::with_bounds(4, &[0, 1, 2], &[1, 2, 3]);
        assert_eq!(s.extents(), &[2, 3, 4]);
        assert_eq!(s.strides(), &[12, 4, 1]);
        assert_eq!(s.len(), 24);
        // Stepping dimension d by one moves the flat index by strides[d].
        for (d, &stride) in s.strides().iter().enumerate() {
            let mut u = vec![0u32; 3];
            u[d] = 1;
            assert_eq!(s.index(&u), stride);
        }
    }

    #[test]
    fn copies_and_full_vector() {
        let s = UnrollSpace::new(4, &[0, 2], 3);
        assert_eq!(s.copies(&[1, 2]), 6);
        assert_eq!(s.full_vector(&[1, 2]), vec![1, 0, 2, 0]);
        let mut buf = vec![9u32; 4];
        s.write_full_vector(&[1, 2], &mut buf);
        assert_eq!(buf, vec![1, 0, 2, 0]);
    }

    /// A space over the first `bounds.len()` loops of a nest one deeper.
    fn space_of(bounds: &[u32]) -> UnrollSpace {
        let loops: Vec<usize> = (0..bounds.len()).collect();
        UnrollSpace::with_bounds(bounds.len() + 1, &loops, bounds)
    }

    /// Explicit corners `(p, v)` and up-set unions `(shifts, delta)`.
    type Writes = (Vec<(Vec<u32>, i64)>, Vec<(Vec<Vec<i64>>, i64)>);

    /// The table of `writes`: one difference buffer, built once.  Every
    /// union must be within the cap.
    fn build(space: &UnrollSpace, (corners, unions): &Writes) -> Table {
        let mut buf = vec![0; space.len()];
        for (p, v) in corners {
            buf[space.index(p)] += v;
        }
        for (shifts, delta) in unions {
            assert!(
                add_upset_union(space, &mut buf, shifts, *delta),
                "{shifts:?}"
            );
        }
        Table::from_corners(space.clone(), buf)
    }

    /// The reference `Sum` at `u`, counted one copy of the box `[0, u]`
    /// at a time: each explicit corner `p ≤ o` adds its value at copy
    /// `o`, and each union adds its delta when a partner `o − x` of some
    /// shift lies in the box.
    fn brute_sum(space: &UnrollSpace, (corners, unions): &Writes, u: &[u32]) -> i64 {
        assert_eq!(u.len(), space.dims());
        let mut total = 0;
        // The box `[0, u]` is itself a space with bounds `u`.
        space_of(u).for_each_offset(|o| {
            for (p, v) in corners {
                if p.iter().zip(o).all(|(p, o)| p <= o) {
                    total += v;
                }
            }
            for (shifts, delta) in unions {
                let partner_inside = |x: &Vec<i64>| {
                    (o.iter().zip(x).zip(u))
                        .all(|((&o, &x), &b)| (0..=i64::from(b)).contains(&(i64::from(o) - x)))
                };
                if shifts.iter().any(partner_inside) {
                    total += delta;
                }
            }
        });
        total
    }

    fn assert_matches_brute(space: &UnrollSpace, writes: &Writes, label: &str) {
        let t = build(space, writes);
        space.for_each_offset(|u| {
            let at = format!("{label}: {writes:?} over {:?} at {u:?}", space.bounds());
            assert_eq!(t.prefix_sum(u), brute_sum(space, writes, u), "{at}");
        });
    }

    #[test]
    fn prefix_sum_counts_box() {
        let s = space_of(&[4]);
        let t = build(&s, &(vec![(vec![0], 3)], vec![]));
        assert_eq!(t.prefix_sum(&[0]), 3);
        assert_eq!(t.prefix_sum(&[4]), 15);
    }

    #[test]
    fn upset_union_applies_once_per_point() {
        let s = space_of(&[2, 2]);
        // Merge regions from (1,0) and (0,2) over a fill of 2: their union
        // covers 7 of the 9 offsets ((0,0), (0,1) remain).
        let t = build(
            &s,
            &(
                vec![(vec![0, 0], 2)],
                vec![(vec![vec![1, 0], vec![0, 2]], -1)],
            ),
        );
        assert_eq!(t.prefix_sum(&[0, 1]), 4);
        assert_eq!(t.prefix_sum(&[0, 2]), 5);
        assert_eq!(t.prefix_sum(&[1, 0]), 3);
        assert_eq!(t.prefix_sum(&[2, 2]), 2 * 9 - 7, "overlap decremented once");
    }

    /// Corner tables over spaces of up to 5 dimensions, every axis bound
    /// drawn from 0..=4, from a fill at the origin, explicit corners and
    /// non-negative unions (some of whose points lie outside the box,
    /// which the writer must drop), equal their per-box counts.
    #[test]
    fn corner_tables_sum_their_boxes() {
        let mut rng = ujam_rng::Rng::new(0x5a77_ab1e);
        for case in 0..64 {
            let dims = rng.int(1, 5) as usize;
            let bounds: Vec<u32> = (0..dims).map(|_| rng.int(0, 4) as u32).collect();
            let space = space_of(&bounds);
            let point = |rng: &mut ujam_rng::Rng, slack: i64| -> Vec<i64> {
                (bounds.iter())
                    .map(|&b| rng.int(0, i64::from(b) + slack))
                    .collect()
            };
            let mut corners = vec![(vec![0; dims], rng.int(-3, 3))];
            for _ in 0..rng.int(0, 6) {
                let p = point(&mut rng, 0).iter().map(|&v| v as u32).collect();
                corners.push((p, rng.int(-5, 5)));
            }
            let unions: Vec<(Vec<Vec<i64>>, i64)> = (0..rng.int(0, 5))
                .map(|_| {
                    let shifts = (0..rng.int(1, UPSET_IE_MAX_POINTS as i64))
                        .map(|_| point(&mut rng, 2))
                        .collect();
                    (shifts, rng.int(-4, 4))
                })
                .collect();
            assert_matches_brute(&space, &(corners, unions), &format!("case {case}"));
        }
        // Degenerate shapes, exhaustively: every-axis-length-one boxes
        // (dims 1–5) and the zero-dimensional space, where every query
        // collapses to a single cell.
        for dims in 0..=5 {
            let space = space_of(&vec![0; dims]);
            assert_eq!(space.len(), 1);
            let t = build(
                &space,
                &(vec![(vec![0; dims], 7)], vec![(vec![vec![0; dims]], 2)]),
            );
            assert_eq!(t.prefix_sum(&vec![0; dims]), 9, "dims {dims}");
        }
    }

    /// A leader table counts, per box, each group's copies that have no
    /// partner in the box: one per copy at the origin, less the union of
    /// the group's shifts.  Seeded groups of shifts of either sign over
    /// spaces of up to 3 dimensions.
    #[test]
    fn leader_tables_count_the_unbeaten_copies() {
        let mut rng = ujam_rng::Rng::new(0x1ead_e125);
        for case in 0..100 {
            let dims = rng.int(1, 3) as usize;
            let bounds: Vec<u32> = (0..dims).map(|_| rng.int(0, 4) as u32).collect();
            let space = space_of(&bounds);
            let groups: Vec<Vec<Vec<i64>>> = (0..rng.int(0, 4))
                .map(|_| {
                    (0..rng.int(0, UPSET_IE_MAX_POINTS as i64))
                        .map(|_| (0..dims).map(|_| rng.int(-5, 5)).collect())
                        .collect()
                })
                .collect();
            let writes = (
                groups.iter().map(|_| (vec![0; dims], 1)).collect(),
                groups.iter().map(|g| (g.clone(), -1)).collect(),
            );
            let t = Table::from_leaders(&space, groups).expect("within the cap");
            space.for_each_offset(|u| {
                let at = format!("case {case}: {writes:?} over {bounds:?} at {u:?}");
                assert_eq!(t.prefix_sum(u), brute_sum(&space, &writes, u), "{at}");
            });
        }
    }

    /// Seeded shift sets of either sign, up to the cap, over spaces of up
    /// to 3 dimensions: the written union equals its per-box count.
    #[test]
    fn shifts_of_either_sign_remove_the_copies_with_a_partner_in_the_box() {
        let mut rng = ujam_rng::Rng::new(0x5191_ed5e);
        for case in 0..300 {
            let dims = rng.int(1, 3) as usize;
            let bounds: Vec<u32> = (0..dims).map(|_| rng.int(0, 4) as u32).collect();
            let lo = if case % 2 == 0 { 0 } else { -5 };
            let shifts: Vec<Vec<i64>> = (0..rng.int(1, UPSET_IE_MAX_POINTS as i64))
                .map(|_| (0..dims).map(|_| rng.int(lo, 5)).collect())
                .collect();
            let writes = (vec![], vec![(shifts, rng.int(-3, 3))]);
            assert_matches_brute(&space_of(&bounds), &writes, &format!("case {case}"));
        }
    }

    /// Past the cap the writer declines for either sign and writes
    /// nothing, and a leader table over such a group is `None`: thirteen
    /// signed shifts, none between 0 and another; the thirteen-point
    /// antichain `(t, 12 − t)` in 2-D; and the fifteen points of
    /// coordinate sum 4 in 3-D.
    #[test]
    fn past_the_cap_either_sign_declines() {
        let signed: Vec<Vec<i64>> = (1..=13).map(|i| vec![i, i - 14]).collect();
        let stairs: Vec<Vec<i64>> = (0..=12).map(|t| vec![t, 12 - t]).collect();
        let mut plane = Vec::new();
        for a in 0..=4 {
            for b in 0..=4 - a {
                plane.push(vec![a, b, 4 - a - b]);
            }
        }
        for (space, shifts) in [
            (space_of(&[14, 14]), signed),
            (space_of(&[12, 12]), stairs),
            (space_of(&[4, 4, 4]), plane),
        ] {
            assert!(shifts.len() > UPSET_IE_MAX_POINTS);
            let mut buf = vec![0; space.len()];
            assert!(
                !add_upset_union(&space, &mut buf, &shifts, -1),
                "{shifts:?}"
            );
            assert!(buf.iter().all(|&v| v == 0), "{shifts:?} wrote corners");
            assert!(Table::from_leaders(&space, [shifts]).is_none());
        }
    }

    #[test]
    fn monotone_detects_axis_growth() {
        let s = space_of(&[2, 2]);
        assert!(build(&s, &(vec![(vec![0, 0], 1)], vec![])).is_monotone());
        assert!(!build(&s, &(vec![(vec![1, 1], -2)], vec![])).is_monotone());
    }

    #[test]
    #[should_panic(expected = "outer loops")]
    fn innermost_loop_rejected() {
        let _ = UnrollSpace::new(2, &[1], 4);
    }

    #[test]
    #[should_panic(expected = "outside the unroll space")]
    fn out_of_box_offset_panics() {
        let s = UnrollSpace::new(2, &[0], 2);
        let _ = s.index(&[3]);
    }
}

//! The unroll space `%` and offset-indexed tables (§4.1).
//!
//! [`Table`] has two representations.  It is *built* in the density
//! domain — each entry holds the contribution of one copy offset, and
//! merge-region updates ([`Table::add_upset_union`]) record only the
//! region's *frontier* as difference-domain corner writes instead of
//! touching every covered offset.  It is then [`Table::finalize`]d into
//! a summed-area table: one inclusive prefix scan per dimension turns
//! the stored densities into the paper's `Sum` values, after which
//! [`Table::prefix_sum`] is a single dense lookup instead of an O(N)
//! box enumeration.  The raw (un-finalized) query path is kept as the
//! naive reference — property tests and the `search_scaling` bench
//! compare the two.
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
//! to autovectorise.  All query paths are allocation-free.

use std::fmt;

/// Dimension count the query scratch arrays are sized for; real unroll
/// spaces are far below this (the paper uses ≤ 2, register tiling ≤ 6).
/// Larger spaces still work — the naive reference path falls back to a
/// heap buffer.
const MAX_INLINE_DIMS: usize = 8;

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

    /// Whether the offset encoded by flat index `idx` is dominated by
    /// `offset` (component-wise ≤) — the pending-write membership test,
    /// decoded arithmetically with no coordinate buffer.
    fn flat_dominated_by(&self, idx: usize, offset: &[u32]) -> bool {
        self.strides
            .iter()
            .zip(&self.extents)
            .zip(offset)
            .all(|((&s, &e), &o)| ((idx / s) % e) as u32 <= o)
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

/// How many shifts the closed-form inclusion–exclusion update accepts
/// before [`Table::add_upset_union`] falls back to a dense indicator
/// sweep, or declines signed shifts (2^k − 1 corner writes vs. one pass).
const UPSET_IE_MAX_POINTS: usize = 12;

/// An integer table indexed by unroll offset, with the prefix-sum query the
/// paper's `Sum` function performs (Figure 2).
///
/// A table starts in the **density** domain: `data[o]` is the
/// contribution of the copy at offset `o`, and up-set updates are held
/// as difference-domain corner writes in `pending`.  [`Table::finalize`]
/// integrates the pending writes and runs one inclusive prefix scan per
/// dimension, after which `data[o]` holds `Sum(o)` directly and
/// [`Table::prefix_sum`] is a single lookup.  Mutation is only legal
/// before finalization; queries work in both states.
///
/// Storage is one flat row-major buffer over the space's precomputed
/// strides.  Every query path — finalized or raw — is allocation-free
/// (up to [`MAX_INLINE_DIMS`] dimensions on the raw reference path).
#[derive(Clone, PartialEq, Eq)]
pub struct Table {
    space: UnrollSpace,
    data: Vec<i64>,
    /// Difference-domain writes `(flat index, delta)` not yet integrated
    /// into `data`: each means "+delta over the whole up-set of this
    /// point".  Always empty once finalized.
    pending: Vec<(usize, i64)>,
    finalized: bool,
}

impl Table {
    /// A table with every entry set to `fill`.
    pub fn filled(space: UnrollSpace, fill: i64) -> Table {
        let n = space.len();
        Table {
            space,
            data: vec![fill; n],
            pending: Vec::new(),
            finalized: false,
        }
    }

    /// Builds an already-finalized table from its `Sum` values in flat
    /// (row-major) order — `sums[space.index(u)]` becomes
    /// [`Table::prefix_sum`]`(u)`.  This is the exact-tabulation path for
    /// set shapes the closed-form region construction cannot express,
    /// fed by the one-sweep evaluators of [`crate::streams`].
    ///
    /// # Panics
    ///
    /// Panics if `sums` does not hold one value per offset of `space`.
    pub fn from_sums(space: UnrollSpace, sums: Vec<i64>) -> Table {
        assert_eq!(sums.len(), space.len(), "one sum per offset");
        Table {
            space,
            data: sums,
            pending: Vec::new(),
            finalized: true,
        }
    }

    /// The table's unroll space.
    pub fn space(&self) -> &UnrollSpace {
        &self.space
    }

    /// Whether the table has been turned into a summed-area table.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Entry (density) at an offset: the contribution of the copy at
    /// exactly that offset.
    ///
    /// On a finalized table the density is recovered from the stored
    /// sums by inclusion–exclusion over the ≤ 2^dims adjacent corners
    /// that lie in the box.
    pub fn get(&self, offset: &[u32]) -> i64 {
        if self.finalized {
            // density(o) = Σ_{S ⊆ {d : o_d > 0}} (−1)^|S| Sum(o − 1_S)
            let base = self.space.index(offset);
            let strides = self.space.strides();
            debug_assert!(offset.len() < 64, "subsets are u64 masks");
            let live = (0..offset.len())
                .filter(|&d| offset[d] > 0)
                .fold(0u64, |m, d| m | 1 << d);
            // Walk every subset of `live`, down to the empty one.
            let (mut total, mut subset) = (0i64, live);
            loop {
                let back: usize = (0..offset.len())
                    .filter(|&d| subset >> d & 1 == 1)
                    .map(|d| strides[d])
                    .sum();
                let v = self.data[base - back];
                total += if subset.count_ones() % 2 == 1 { -v } else { v };
                if subset == 0 {
                    return total;
                }
                subset = (subset - 1) & live;
            }
        }
        let mut v = self.data[self.space.index(offset)];
        for &(idx, delta) in &self.pending {
            if self.space.flat_dominated_by(idx, offset) {
                v += delta;
            }
        }
        v
    }

    /// Adds `delta` to the entry at an offset.
    ///
    /// # Panics
    ///
    /// Panics on a finalized table — mutation only precedes finalization.
    pub fn add(&mut self, offset: &[u32], delta: i64) {
        assert!(!self.finalized, "cannot mutate a finalized table");
        let i = self.space.index(offset);
        self.data[i] += delta;
    }

    /// Adds `delta`, in every query box `[0, u]`, to each copy `u'` of the
    /// box whose *partner* `u' − x` lies in the same box for some shift
    /// `x` — the merge-region update of Figures 2/3/5: a copy beaten by an
    /// earlier copy of its class is not new, however many beat it.  For
    /// non-negative shifts this is the union of their up-sets; for any
    /// signs, inclusion–exclusion over the subsets `S` of the shifts
    /// counts it as `Σ_{S≠∅} (−1)^{|S|+1} Π_d max(0, u_d + 1 − span_d(S))`,
    /// `span_d(S) = max(0, max_S x_d) − min(0, min_S x_d)`: one corner
    /// write per subset, at its span (the join, for non-negative shifts),
    /// integrated lazily by the prefix scans of [`Table::finalize`].
    ///
    /// The shifts are first reduced: one whose partner never fits the box
    /// is dropped, and so is `q` when a kept `p` lies between 0 and `q` on
    /// every axis — for non-negative shifts, the minimal antichain.  Those
    /// take a staircase decomposition in 2-D, and past
    /// [`UPSET_IE_MAX_POINTS`] shifts a dense fallback (per-axis OR closure
    /// sweeps plus one masked add over linear runs).  Signed shifts past
    /// the cap write nothing and return `false`: the caller counts the set
    /// another way.
    ///
    /// # Panics
    ///
    /// Panics on a finalized table.
    pub fn add_upset_union(&mut self, shifts: &[Vec<i64>], delta: i64) -> bool {
        assert!(!self.finalized, "cannot mutate a finalized table");
        if delta == 0 {
            return true;
        }
        let bounds = &self.space.bounds;
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
        let dims = self.space.dims();
        let signed = minimal.iter().any(|x| x.iter().any(|&v| v < 0));
        let space = &self.space;
        let corner = |x: &[i64]| space.index(&x.iter().map(|&v| v as u32).collect::<Vec<_>>());
        if dims == 2 && !signed {
            // Staircase decomposition: sorted by dim 0 ascending, an
            // antichain descends strictly in dim 1, and the union is
            //   Σ_i up(p_i) − Σ_i up(p_i ∨ p_{i+1})
            // (each overlap of consecutive steps subtracted once).
            minimal.sort_unstable_by_key(|p| p[0]);
            for i in 0..minimal.len() {
                self.pending.push((corner(minimal[i]), delta));
                if i + 1 < minimal.len() {
                    let join = corner(&[minimal[i + 1][0], minimal[i][1]]);
                    self.pending.push((join, -delta));
                }
            }
            return true;
        }
        if minimal.len() <= UPSET_IE_MAX_POINTS {
            // Inclusion–exclusion over the subsets: a span past the box
            // has no copy with every partner inside, so it writes nothing.
            let mut span = vec![0u32; dims];
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
                self.pending.push((space.index(&span), sign));
            }
            return true;
        }
        if signed {
            return false;
        }
        // Fallback: dense indicator sweep directly into the density data.
        // The up-set union is the upward closure of the seed points, and
        // upward closure factors into one OR-scan per axis — the same
        // block structure as the prefix scans, so the vertical sweeps and
        // the final frontier add run over contiguous runs.
        let mut covered = vec![false; self.space.len()];
        for p in &minimal {
            covered[corner(p)] = true;
        }
        or_scan_axes(&mut covered, space.extents(), space.strides());
        add_masked(&mut self.data, &covered, delta);
        true
    }

    /// Integrates any pending difference-domain writes into the density
    /// data (one scatter plus one prefix scan per dimension).
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut scratch = vec![0i64; self.space.len()];
        for &(idx, delta) in &self.pending {
            scratch[idx] += delta;
        }
        self.pending.clear();
        scan_axes(
            &mut scratch,
            self.space.extents(),
            self.space.strides(),
            false,
        );
        add_rows(&mut self.data, &scratch);
    }

    /// Turns the density table into a summed-area table: pending up-set
    /// writes are integrated and one inclusive prefix scan runs per
    /// dimension, so every entry now holds the paper's `Sum` at that
    /// offset and [`Table::prefix_sum`] is a single lookup.
    ///
    /// Idempotent; costs O(N · dims) once.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.flush();
        scan_axes(
            &mut self.data,
            self.space.extents(),
            self.space.strides(),
            false,
        );
        self.finalized = true;
    }

    /// The inverse of [`Table::finalize`]: a copy of this table back in
    /// the density domain, so its queries take the naive enumeration
    /// path.  Exists for the `search_scaling` bench (which measures the
    /// seed's O(N)-per-query behaviour against the summed-area path) and
    /// for round-trip property tests.
    ///
    /// # Panics
    ///
    /// Panics if the table is not finalized.
    pub fn definalized(&self) -> Table {
        assert!(self.finalized, "definalized() inverts a finalized table");
        let mut t = self.clone();
        scan_axes(&mut t.data, t.space.extents(), t.space.strides(), true);
        t.finalized = false;
        t
    }

    /// Whether the finalized sums are non-decreasing along every axis —
    /// the soundness condition for up-set pruning in the search: when
    /// every register table is monotone, `registers(u)` can only grow
    /// with `u`, so a candidate over budget rules out its whole up-set.
    ///
    /// # Panics
    ///
    /// Panics if the table is not finalized.
    pub fn is_monotone(&self) -> bool {
        assert!(self.finalized, "monotonicity is a property of the sums");
        let extents = self.space.extents();
        let strides = self.space.strides();
        for (d, &stride) in strides.iter().enumerate() {
            let extent = extents[d];
            if extent <= 1 {
                continue;
            }
            let block = extent * stride;
            for base in (0..self.data.len()).step_by(block) {
                for e in 1..extent {
                    let prev = base + (e - 1) * stride;
                    let cur = base + e * stride;
                    for i in 0..stride {
                        if self.data[cur + i] < self.data[prev + i] {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Adds another table's values into this one, element-wise.  Both
    /// sides must be finalized over the same space ­— prefix sums are
    /// linear, so accumulating in the `Sum` domain is exact.
    pub(crate) fn accumulate(&mut self, other: &Table) {
        assert!(
            self.finalized && other.finalized,
            "accumulate operates in the Sum domain"
        );
        assert_eq!(self.space, other.space, "accumulate needs matching spaces");
        add_rows(&mut self.data, &other.data);
    }

    /// The paper's `Sum`: total over the box `[0, u]` — the value of the
    /// tabulated quantity after unrolling by `u`.
    ///
    /// On a finalized table this is a single lookup; before finalization
    /// it is the naive box enumeration (the reference the property tests
    /// and the scaling bench compare against).
    pub fn prefix_sum(&self, u: &[u32]) -> i64 {
        assert_eq!(u.len(), self.space.dims(), "offset arity mismatch");
        if self.finalized {
            return self.data[self.space.index(u)];
        }
        self.box_sum(u)
    }

    /// [`Table::prefix_sum`] before finalization: the box enumeration,
    /// kept out of line so the lookup path the search inlines stays
    /// small.
    #[inline(never)]
    fn box_sum(&self, u: &[u32]) -> i64 {
        let dims = u.len();
        let mut inline = [0u32; MAX_INLINE_DIMS];
        if dims <= MAX_INLINE_DIMS {
            self.raw_prefix_sum(u, &mut inline[..dims])
        } else {
            self.raw_prefix_sum(u, &mut vec![0u32; dims])
        }
    }

    /// [`Table::prefix_sum`] at `u`, whose flat index `idx` the caller
    /// computed once for every table over the same space: one load when
    /// finalized, the box enumeration otherwise.
    #[inline]
    pub(crate) fn sum_at(&self, u: &[u32], idx: usize) -> i64 {
        if self.finalized {
            self.data[idx]
        } else {
            self.box_sum(u)
        }
    }

    /// The naive-reference `Sum`: box enumeration over the densities plus
    /// each pending up-set write in closed form.  `o` is caller-provided
    /// zeroed scratch of `dims` length, so the walk allocates nothing.
    fn raw_prefix_sum(&self, u: &[u32], o: &mut [u32]) -> i64 {
        let strides = self.space.strides();
        let extents = self.space.extents();
        let mut total = 0;
        let mut flat = 0usize;
        'walk: loop {
            total += self.data[flat];
            let mut d = o.len();
            loop {
                if d == 0 {
                    break 'walk;
                }
                d -= 1;
                if o[d] < u[d] {
                    o[d] += 1;
                    flat += strides[d];
                    break;
                }
                flat -= o[d] as usize * strides[d];
                o[d] = 0;
            }
        }
        // Each pending up-set corner at p contributes
        // delta · Π max(0, u_d − p_d + 1); p is decoded arithmetically.
        for &(idx, delta) in &self.pending {
            let mut cells = 1i64;
            let mut inside = true;
            for ((&s, &e), &ud) in strides.iter().zip(extents).zip(u) {
                let pd = ((idx / s) % e) as u32;
                if ud < pd {
                    inside = false;
                    break;
                }
                cells *= (ud - pd) as i64 + 1;
            }
            if inside {
                total += delta * cells;
            }
        }
        total
    }
}

/// Runs one inclusive prefix scan (or its inverse) along every axis of a
/// row-major dense array.
///
/// Along axis `d` the array tiles into blocks of `extent_d · stride_d`
/// elements.  The innermost axis (`stride == 1`) is a contiguous prefix
/// scan per `extent`-element row; every other axis is `extent − 1`
/// vertical `row ±= previous_row` sweeps over contiguous
/// `stride`-element runs — the row kernels below.
fn scan_axes(data: &mut [i64], extents: &[usize], strides: &[usize], inverse: bool) {
    for (d, &stride) in strides.iter().enumerate() {
        let extent = extents[d];
        if extent <= 1 {
            continue;
        }
        if stride == 1 {
            for row in data.chunks_exact_mut(extent) {
                if inverse {
                    inverse_scan(row);
                } else {
                    prefix_scan(row);
                }
            }
            continue;
        }
        let block = extent * stride;
        for base in (0..data.len()).step_by(block) {
            if inverse {
                for e in (1..extent).rev() {
                    let (lo, hi) = data.split_at_mut(base + e * stride);
                    sub_rows(&mut hi[..stride], &lo[base + (e - 1) * stride..]);
                }
            } else {
                for e in 1..extent {
                    let (lo, hi) = data.split_at_mut(base + e * stride);
                    add_rows(&mut hi[..stride], &lo[base + (e - 1) * stride..]);
                }
            }
        }
    }
}

/// Upward-closes an indicator array: after the sweep, `covered[i]` holds
/// iff some seed point dominates `i` component-wise.  Upward closure
/// factors into one running-OR scan per axis, with the same block/run
/// structure as [`scan_axes`].
fn or_scan_axes(covered: &mut [bool], extents: &[usize], strides: &[usize]) {
    for (d, &stride) in strides.iter().enumerate() {
        let extent = extents[d];
        if extent <= 1 {
            continue;
        }
        if stride == 1 {
            for row in covered.chunks_exact_mut(extent) {
                let mut any = false;
                for v in row {
                    any |= *v;
                    *v = any;
                }
            }
            continue;
        }
        let block = extent * stride;
        for base in (0..covered.len()).step_by(block) {
            for e in 1..extent {
                let (lo, hi) = covered.split_at_mut(base + e * stride);
                or_rows(&mut hi[..stride], &lo[base + (e - 1) * stride..]);
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

/// `dst[i] -= src[i]` — the vertical step of an inverse scan.  Panics if
/// the lengths differ.
fn sub_rows(dst: &mut [i64], src: &[i64]) {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d -= s;
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

/// The inverse of [`prefix_scan`]: adjacent differences, in place.
fn inverse_scan(row: &mut [i64]) {
    for i in (1..row.len()).rev() {
        row[i] -= row[i - 1];
    }
}

/// `dst[i] |= src[i]` — the vertical step of the up-set closure.  Panics
/// if the lengths differ.
fn or_rows(dst: &mut [bool], src: &[bool]) {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// `data[i] += delta` wherever `covered[i]` — the frontier add.  Panics
/// if the lengths differ.
fn add_masked(data: &mut [i64], covered: &[bool], delta: i64) {
    assert_eq!(data.len(), covered.len(), "row length mismatch");
    for (d, &c) in data.iter_mut().zip(covered) {
        // Branchless: `-(c as i64)` is an all-ones mask when covered.
        *d += delta & -(c as i64);
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Table over {:?} ({}): {:?}",
            self.space.loops(),
            if self.finalized { "sums" } else { "densities" },
            self.data
        )
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
            let cov: Vec<bool> = (0..n).map(|i| i % 3 == 0 || i % 7 == 2).collect();

            let mut a = base.clone();
            add_rows(&mut a, &src);
            let expect: Vec<i64> = base.iter().zip(&src).map(|(b, s)| b + s).collect();
            assert_eq!(a, expect, "add_rows n={n}");

            let mut s = base.clone();
            sub_rows(&mut s, &src);
            let expect: Vec<i64> = base.iter().zip(&src).map(|(b, s)| b - s).collect();
            assert_eq!(s, expect, "sub_rows n={n}");

            let mut p = base.clone();
            prefix_scan(&mut p);
            let expect: Vec<i64> = (0..n).map(|i| base[..=i].iter().sum()).collect();
            assert_eq!(p, expect, "prefix_scan n={n}");

            // Inverse round-trips the scan exactly.
            inverse_scan(&mut p);
            assert_eq!(p, base, "inverse_scan n={n}");

            let mut o = cov.clone();
            let flip: Vec<bool> = cov.iter().map(|&c| !c).collect();
            or_rows(&mut o, &flip);
            assert!(o.iter().all(|&c| c), "or_rows n={n}");

            let mut m = base.clone();
            add_masked(&mut m, &cov, 13);
            let expect: Vec<i64> = base
                .iter()
                .zip(&cov)
                .map(|(b, &c)| b + if c { 13 } else { 0 })
                .collect();
            assert_eq!(m, expect, "add_masked n={n}");
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

    #[test]
    fn prefix_sum_counts_box() {
        let s = UnrollSpace::new(2, &[0], 4);
        let t = Table::filled(s, 3);
        assert_eq!(t.prefix_sum(&[0]), 3);
        assert_eq!(t.prefix_sum(&[4]), 15);
        let mut f = t.clone();
        f.finalize();
        assert_eq!(f.prefix_sum(&[0]), 3);
        assert_eq!(f.prefix_sum(&[4]), 15);
    }

    #[test]
    fn upset_union_applies_once_per_point() {
        let s = UnrollSpace::new(3, &[0, 1], 2);
        let mut t = Table::filled(s, 2);
        // Merge regions from (1,0) and (0,2): their union covers 7 of the
        // 9 offsets ((0,0), (0,1) remain).
        t.add_upset_union(&[vec![1, 0], vec![0, 2]], -1);
        assert_eq!(t.get(&[0, 0]), 2);
        assert_eq!(t.get(&[0, 1]), 2);
        assert_eq!(t.get(&[0, 2]), 1);
        assert_eq!(t.get(&[1, 0]), 1);
        assert_eq!(t.get(&[2, 2]), 1, "overlap decremented once");
        assert_eq!(t.prefix_sum(&[2, 2]), 2 * 9 - 7);
    }

    #[test]
    fn finalize_preserves_every_query() {
        let s = UnrollSpace::new(3, &[0, 1], 3);
        let mut raw = Table::filled(s.clone(), 1);
        raw.add(&[2, 1], 5);
        raw.add_upset_union(&[vec![1, 2], vec![2, 0]], -1);
        raw.add_upset_union(&[vec![0, 3], vec![3, 3]], 2);
        let mut fin = raw.clone();
        fin.finalize();
        assert!(fin.is_finalized());
        s.for_each_offset(|u| {
            assert_eq!(fin.prefix_sum(u), raw.prefix_sum(u), "Sum at {u:?}");
            assert_eq!(fin.get(u), raw.get(u), "density at {u:?}");
        });
        // And the round trip back to densities is exact.
        let back = fin.definalized();
        s.for_each_offset(|u| assert_eq!(back.get(u), raw.get(u), "round trip at {u:?}"));
    }

    #[test]
    fn dense_fallback_agrees_with_inclusion_exclusion() {
        // 3-D antichain larger than the closed-form cutoff would need:
        // force both paths over the same points and compare.
        let s = UnrollSpace::new(4, &[0, 1, 2], 2);
        let points: Vec<Vec<i64>> = vec![
            vec![2, 0, 0],
            vec![0, 2, 0],
            vec![0, 0, 2],
            vec![1, 1, 0],
            vec![0, 1, 1],
            vec![1, 0, 1],
        ];
        let mut ie = Table::filled(s.clone(), 0);
        ie.add_upset_union(&points, 3);
        // Reference: per-offset membership test.
        let mut naive = Table::filled(s.clone(), 0);
        s.for_each_offset(|o| {
            if points
                .iter()
                .any(|p| p.iter().zip(o).all(|(&pi, &oi)| i64::from(oi) >= pi))
            {
                naive.add(o, 3);
            }
        });
        s.for_each_offset(|u| {
            assert_eq!(ie.prefix_sum(u), naive.prefix_sum(u), "Sum at {u:?}");
            assert_eq!(ie.get(u), naive.get(u), "density at {u:?}");
        });
    }

    /// Copies of the box `[0, u]` with a partner `u' − x` in the box for
    /// some shift `x`, counted one by one.
    fn beaten_in_box(space: &UnrollSpace, shifts: &[Vec<i64>], u: &[u32]) -> i64 {
        let inside = |v: &[i64]| {
            v.iter()
                .zip(u)
                .all(|(&v, &b)| (0..=i64::from(b)).contains(&v))
        };
        let mut beaten = 0;
        space.for_each_offset(|o| {
            let o: Vec<i64> = o.iter().map(|&v| i64::from(v)).collect();
            let partner = |x: &Vec<i64>| o.iter().zip(x).map(|(a, b)| a - b).collect::<Vec<_>>();
            if inside(&o) && shifts.iter().any(|x| inside(&partner(x))) {
                beaten += 1;
            }
        });
        beaten
    }

    #[test]
    fn signed_shifts_remove_the_copies_with_a_partner_in_the_box() {
        let mut rng = ujam_rng::Rng::new(0x5191_ed5e);
        for case in 0..300 {
            let dims = rng.int(1, 3) as usize;
            let bounds: Vec<u32> = (0..dims).map(|_| rng.int(0, 4) as u32).collect();
            let space = UnrollSpace::with_bounds(dims + 1, &(0..dims).collect::<Vec<_>>(), &bounds);
            let shifts: Vec<Vec<i64>> = (0..rng.int(1, 6))
                .map(|_| (0..dims).map(|_| rng.int(-5, 5)).collect())
                .collect();
            let mut raw = Table::filled(space.clone(), 0);
            assert!(raw.add_upset_union(&shifts, -1), "case {case}");
            let mut fin = raw.clone();
            fin.finalize();
            space.for_each_offset(|u| {
                let want = -beaten_in_box(&space, &shifts, u);
                let at = format!("case {case}: {shifts:?} over {bounds:?} at {u:?}");
                assert_eq!(raw.prefix_sum(u), want, "raw {at}");
                assert_eq!(fin.prefix_sum(u), want, "finalized {at}");
            });
        }
        // Thirteen signed shifts, none between 0 and another, are past
        // the closed form's cap: nothing is written.
        let space = UnrollSpace::new(3, &[0, 1], 14);
        let shifts: Vec<Vec<i64>> = (1..=13).map(|i| vec![i, i - 14]).collect();
        let mut t = Table::filled(space.clone(), 0);
        assert!(!t.add_upset_union(&shifts, -1));
        assert_eq!(t, Table::filled(space, 0));
    }

    /// The up-set union's writes for non-negative points as built before
    /// shifts could be signed: the minimal antichain of the in-box
    /// points, then one corner, the 2-D staircase, inclusion–exclusion
    /// over joins up to the cap, or the dense OR fallback.
    fn upset_union_reference(t: &mut Table, points: &[Vec<u32>], delta: i64) {
        if delta == 0 {
            return;
        }
        let mut minimal: Vec<&Vec<u32>> = Vec::new();
        for p in points {
            if p.iter().zip(&t.space.bounds).any(|(&pi, &b)| pi > b)
                || minimal
                    .iter()
                    .any(|q| q.iter().zip(p).all(|(&qi, &pi)| pi >= qi))
            {
                continue;
            }
            minimal.retain(|q| !p.iter().zip(q.iter()).all(|(&pi, &qi)| qi >= pi));
            minimal.push(p);
        }
        let dims = t.space.dims();
        if minimal.len() == 1 {
            t.pending.push((t.space.index(minimal[0]), delta));
        } else if dims == 2 && !minimal.is_empty() {
            minimal.sort_unstable_by_key(|p| p[0]);
            for i in 0..minimal.len() {
                t.pending.push((t.space.index(minimal[i]), delta));
                if i + 1 < minimal.len() {
                    let join = [minimal[i + 1][0], minimal[i][1]];
                    t.pending.push((t.space.index(&join), -delta));
                }
            }
        } else if minimal.len() <= UPSET_IE_MAX_POINTS {
            for mask in 1u64..(1 << minimal.len()) {
                let mut join = vec![0u32; dims];
                for (i, p) in minimal.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        join.iter_mut()
                            .zip(p.iter())
                            .for_each(|(j, &pi)| *j = (*j).max(pi));
                    }
                }
                let sign = if mask.count_ones() % 2 == 1 {
                    delta
                } else {
                    -delta
                };
                t.pending.push((t.space.index(&join), sign));
            }
        } else {
            let mut covered = vec![false; t.space.len()];
            for p in &minimal {
                covered[t.space.index(p)] = true;
            }
            or_scan_axes(&mut covered, t.space.extents(), t.space.strides());
            add_masked(&mut t.data, &covered, delta);
        }
    }

    #[test]
    fn non_negative_shifts_write_the_up_set_union_corners() {
        let mut rng = ujam_rng::Rng::new(0xc0_4e45);
        for case in 0..300 {
            let dims = rng.int(1, 3) as usize;
            let bounds: Vec<u32> = (0..dims).map(|_| rng.int(0, 4) as u32).collect();
            let space = UnrollSpace::with_bounds(dims + 1, &(0..dims).collect::<Vec<_>>(), &bounds);
            let points: Vec<Vec<u32>> = (0..rng.int(1, 16))
                .map(|_| {
                    bounds
                        .iter()
                        .map(|&b| rng.int(0, i64::from(b) + 1) as u32)
                        .collect()
                })
                .collect();
            let shifts: Vec<Vec<i64>> = points
                .iter()
                .map(|p| p.iter().map(|&v| i64::from(v)).collect())
                .collect();
            let delta = rng.int(-3, 3);
            let mut got = Table::filled(space.clone(), 1);
            assert!(got.add_upset_union(&shifts, delta));
            let mut want = Table::filled(space, 1);
            upset_union_reference(&mut want, &points, delta);
            assert_eq!(got, want, "case {case}: {points:?} over {bounds:?}");
        }
    }

    #[test]
    fn monotone_detects_axis_growth() {
        let s = UnrollSpace::new(3, &[0, 1], 2);
        let mut grows = Table::filled(s.clone(), 1);
        grows.finalize();
        assert!(grows.is_monotone());
        let mut dips = Table::filled(s, 0);
        dips.add(&[1, 1], -2);
        dips.finalize();
        assert!(!dips.is_monotone());
    }

    #[test]
    #[should_panic(expected = "finalized")]
    fn mutation_after_finalize_panics() {
        let mut t = Table::filled(UnrollSpace::new(2, &[0], 2), 0);
        t.finalize();
        t.add(&[1], 1);
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

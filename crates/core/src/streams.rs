//! Analytic copy-vector evaluation of an unrolled loop body.
//!
//! Unrolling by offset `u'` turns a reference `A(H·i + c)` into the copy
//! `A(H·i + c + H·u')` (§4.1) — so every quantity scalar replacement
//! derives from the unrolled body is a function of the multiset of constant
//! vectors `{ c + H·u' }`.  This module computes those quantities directly
//! from the vectors, without materialising any IR: it is the exact
//! *semantics* the paper's prefix-sum tables approximate in O(1), and it
//! doubles as the correctness oracle for them (property tests assert
//! `tables == analytic == scalar_replacement(unroll_and_jam(nest))`).
//!
//! Two shapes of evaluator live here.  The per-offset `*_at` functions
//! rebuild the copies of one box `[0, u]` per call; they are the test
//! oracles.  The `*_sums` functions give the same counts at *every*
//! offset from one sweep over the whole unroll box — that is what the
//! exact-fallback tables of [`crate::tables`] are built from, and tests
//! pin them to the oracles bitwise.

use crate::space::UnrollSpace;
use std::collections::BTreeMap;
use ujam_ir::LoopNest;
use ujam_linalg::Mat;
use ujam_reuse::UgsSet;

/// The per-iteration counts of an unrolled, scalar-replaced body.
///
/// Field meanings mirror `ujam_ir::transform::ReplacementStats`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CopyCounts {
    /// Array loads remaining per (unrolled) iteration.
    pub loads: usize,
    /// Array stores remaining.
    pub stores: usize,
    /// Loads removed by register reuse.
    pub replaced_loads: usize,
    /// Loads hoisted with innermost-invariant streams.
    pub hoisted_loads: usize,
    /// Stores hoisted with innermost-invariant streams.
    pub hoisted_stores: usize,
    /// Floating-point registers consumed by the replaced values.
    pub registers: usize,
    /// Number of value streams.
    pub streams: usize,
}

impl CopyCounts {
    /// Memory operations per iteration (`M` of §3.2).
    pub fn memory_ops(&self) -> usize {
        self.loads + self.stores
    }
}

/// One reference copy: its adjusted constant vector and body position.
#[derive(Clone, Debug)]
struct Copy {
    /// `c + H·u'` for the copy's offset.
    c: Vec<i64>,
    /// Lexicographic rank of the copy's offset (jam emits copies in this
    /// order), then original reference order — the unrolled body position.
    order: (usize, usize),
    is_def: bool,
}

/// Evaluates scalar-replacement counts for unrolling by `u`, analytically.
///
/// # Example
///
/// ```
/// use ujam_core::{streams::replacement_counts_at, UnrollSpace};
/// use ujam_ir::NestBuilder;
/// let nest = NestBuilder::new("intro")
///     .array("A", &[512]).array("B", &[512])
///     .loop_("J", 1, 512).loop_("I", 1, 512)
///     .stmt("A(J) = A(J) + B(I)")
///     .build();
/// let space = UnrollSpace::new(2, &[0], 4);
/// let counts = replacement_counts_at(&nest, &space, &[1]);
/// // Two copies: A(J), A(J+1) hoisted; B(I) loads once, its copy reuses.
/// assert_eq!(counts.loads, 1);
/// assert_eq!(counts.replaced_loads, 1);
/// ```
pub fn replacement_counts_at(nest: &LoopNest, space: &UnrollSpace, u: &[u32]) -> CopyCounts {
    let ugs = UgsSet::partition(nest);
    let mut counts = CopyCounts::default();
    for set in &ugs {
        tally_ugs(set, space, u, nest.depth(), &mut counts);
    }
    counts
}

/// Builds the copies of one UGS at unroll `u` and tallies its streams.
fn tally_ugs(set: &UgsSet, space: &UnrollSpace, u: &[u32], depth: usize, counts: &mut CopyCounts) {
    let copies = materialize_copies(set, space, u, depth);
    let inner_col: Vec<i64> = set.h().col(depth - 1);
    let invariant = inner_col.iter().all(|&x| x == 0);

    // Partition copies into streams by canonical signature: two copies are
    // in the same stream iff `c₁ − c₂ = d·inner_col`, which holds exactly
    // when their signatures (c with the key quotient divided out) match.
    let mut groups: BTreeMap<Vec<i64>, Vec<(Copy, i64)>> = BTreeMap::new();
    for copy in copies {
        let (sig, key) = stream_signature(&copy.c, &inner_col);
        groups.entry(sig).or_default().push((copy, key));
    }

    for (_, mut members) in groups.into_values().map(|m| ((), m)) {
        counts.streams += 1;
        // Touch order: larger key first; ties by body order.
        members.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.order.cmp(&b.0.order)));
        if invariant {
            counts.registers += 1;
            for (m, _) in &members {
                if m.is_def {
                    counts.hoisted_stores += 1;
                } else {
                    counts.hoisted_loads += 1;
                }
            }
            continue;
        }
        // Split into register-reuse sets at defs.
        let mut sets: Vec<Vec<&(Copy, i64)>> = Vec::new();
        for m in &members {
            if m.0.is_def || sets.is_empty() {
                sets.push(vec![m]);
            } else {
                sets.last_mut().expect("non-empty").push(m);
            }
        }
        for rrs in sets {
            let leader = rrs[0];
            let rest = &rrs[1..];
            if leader.0.is_def {
                counts.stores += 1;
            } else {
                counts.loads += 1;
            }
            if rest.is_empty() {
                continue;
            }
            let span = (leader.1 - rest.iter().map(|m| m.1).min().expect("non-empty")) as usize;
            counts.registers += span + 1;
            counts.replaced_loads += rest.len();
        }
    }
}

/// The number of group-spatial sets of one UGS after unrolling by `u`,
/// evaluated analytically over copy vectors (greedy leader walk in
/// lexicographic order, exactly as `ujam_reuse::group_spatial_sets` walks
/// the unrolled nest's references) — the per-offset oracle of
/// [`gss_count_sums`].
pub fn gss_count_at(
    set: &UgsSet,
    space: &UnrollSpace,
    u: &[u32],
    depth: usize,
    line_elems: i64,
) -> usize {
    let mut copies = materialize_copies(set, space, u, depth);
    copies.sort_by(|a, b| a.c.cmp(&b.c).then(a.order.cmp(&b.order)));
    let h = set.h();
    let inner = depth - 1;
    let mut leaders: Vec<Vec<i64>> = Vec::new();
    'copies: for copy in &copies {
        for leader in &leaders {
            let delta: Vec<i64> = copy.c.iter().zip(leader).map(|(a, b)| a - b).collect();
            if spatially_related(h, &delta, inner, line_elems) {
                continue 'copies;
            }
        }
        leaders.push(copy.c.clone());
    }
    leaders.len()
}

/// The number of group-temporal sets (innermost-localized value streams)
/// after unrolling by `u`, evaluated analytically.
pub fn gts_count_at(set: &UgsSet, space: &UnrollSpace, u: &[u32], depth: usize) -> usize {
    let copies = materialize_copies(set, space, u, depth);
    let inner_col: Vec<i64> = set.h().col(depth - 1);
    let mut sigs: std::collections::BTreeSet<Vec<i64>> = std::collections::BTreeSet::new();
    for copy in &copies {
        sigs.insert(stream_signature(&copy.c, &inner_col).0);
    }
    sigs.len()
}

/// The canonical stream signature and key of a constant vector relative to
/// the innermost column of `H`: `c₁ − c₂ = d·col` iff the signatures agree,
/// in which case `key₁ − key₂ = d`.
///
/// For the all-zero column (innermost-invariant references) the signature
/// is `c` itself and the key is 0.
fn stream_signature(c: &[i64], col: &[i64]) -> (Vec<i64>, i64) {
    let mut sig = Vec::with_capacity(c.len());
    let key = stream_tag(c, col, &mut sig);
    (sig, key)
}

/// [`stream_signature`] appending the signature to `sig`; returns the key.
fn stream_tag(c: &[i64], col: &[i64], sig: &mut Vec<i64>) -> i64 {
    let key = match col.iter().position(|&k| k != 0) {
        Some(r) => c[r].div_euclid(col[r].abs()) * col[r].signum(),
        None => 0,
    };
    sig.extend(c.iter().zip(col).map(|(&ci, &ki)| ci - key * ki));
    key
}

/// Instantiates every member copy of a UGS for unroll vector `u`.
///
/// Walks the box `0 ≤ o ≤ u` in lexicographic order with one reused
/// odometer and full-vector scratch buffer — the output `Vec<Copy>` is
/// the only allocation that scales with the box.
fn materialize_copies(set: &UgsSet, space: &UnrollSpace, u: &[u32], depth: usize) -> Vec<Copy> {
    let h = set.h();
    let copies: usize = u.iter().map(|&x| x as usize + 1).product();
    let mut out = Vec::with_capacity(copies * set.members().len());
    let mut offset = vec![0u32; u.len()];
    let mut full = vec![0i64; depth];
    let mut rank = 0usize;
    loop {
        // Embed the offset into a full iteration-space vector.
        for (&l, &o) in space.loops().iter().zip(&offset) {
            full[l] = o as i64;
        }
        let shift = h.mul_vec(&full);
        for (ord, m) in set.members().iter().enumerate() {
            let c: Vec<i64> = m.c.iter().zip(&shift).map(|(a, b)| a + b).collect();
            out.push(Copy {
                c,
                order: (rank, ord),
                is_def: m.is_def,
            });
        }
        rank += 1;
        let mut d = offset.len();
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            if offset[d] < u[d] {
                offset[d] += 1;
                break;
            }
            offset[d] = 0;
        }
    }
}

/// If `c1 - c2 == d * col` for an integer `d`, returns `d`.
fn inner_distance(c1: &[i64], c2: &[i64], col: &[i64]) -> Option<i64> {
    let mut d: Option<i64> = None;
    for ((&a, &b), &k) in c1.iter().zip(c2).zip(col) {
        let delta = a - b;
        if k == 0 {
            if delta != 0 {
                return None;
            }
        } else {
            if delta % k != 0 {
                return None;
            }
            let cand = delta / k;
            match d {
                None => d = Some(cand),
                Some(prev) if prev != cand => return None,
                Some(_) => {}
            }
        }
    }
    Some(d.unwrap_or(0))
}

/// Spatial relation between copy vectors: every subscript dimension except
/// the first closes along the innermost loop, and the first-dimension
/// residue (reduced modulo the innermost first-row stride, if any) fits in
/// a cache line.
fn spatially_related(h: &Mat, delta: &[i64], inner: usize, line_elems: i64) -> bool {
    if delta.is_empty() {
        return true;
    }
    // Rows below the first must close exactly along the inner column.
    let mut d: Option<i64> = None;
    for r in 1..h.rows() {
        let k = h[(r, inner)];
        if k == 0 {
            if delta[r] != 0 {
                return false;
            }
        } else {
            if delta[r] % k != 0 {
                return false;
            }
            let cand = delta[r] / k;
            match d {
                None => d = Some(cand),
                Some(prev) if prev != cand => return false,
                Some(_) => {}
            }
        }
    }
    let mut residual = delta[0];
    let a0 = h[(0, inner)];
    if a0 != 0 {
        match d {
            // The inner distance is pinned by the lower rows.
            Some(d) => residual -= a0 * d,
            // Free: reduce modulo the stride.
            None => residual = centered_mod(residual, a0.abs()),
        }
    }
    residual.abs() < line_elems
}

fn centered_mod(v: i64, m: i64) -> i64 {
    let mut r = v.rem_euclid(m);
    if r > m / 2 {
        r -= m;
    }
    r
}

/// Use-led (load-issuing) stream count of one UGS after unrolling by `u`:
/// streams whose earliest-touching member is a use.  Innermost-invariant
/// sets contribute nothing (their streams are hoisted).  The per-offset
/// oracle of [`ugs_loads_sums`].
pub fn ugs_loads_at(set: &UgsSet, space: &UnrollSpace, u: &[u32], depth: usize) -> usize {
    let inner_col: Vec<i64> = set.h().col(depth - 1);
    if inner_col.iter().all(|&x| x == 0) {
        return 0;
    }
    let copies = materialize_copies(set, space, u, depth);
    // Earliest toucher per stream signature: max key, ties by body order.
    let mut leaders: BTreeMap<Vec<i64>, (i64, (usize, usize), bool)> = BTreeMap::new();
    for copy in copies {
        let (sig, key) = stream_signature(&copy.c, &inner_col);
        let cand = (key, copy.order, copy.is_def);
        leaders
            .entry(sig)
            .and_modify(|cur| {
                if key > cur.0 || (key == cur.0 && copy.order < cur.1) {
                    *cur = cand;
                }
            })
            .or_insert(cand);
    }
    leaders.values().filter(|&&(_, _, is_def)| !is_def).count()
}

/// Registers one UGS consumes after unrolling by `u`, evaluated
/// analytically (the per-UGS slice of
/// [`replacement_counts_at`]`.registers`) — the per-offset oracle of
/// [`ugs_registers_sums`].
pub fn ugs_registers_at(set: &UgsSet, space: &UnrollSpace, u: &[u32], depth: usize) -> usize {
    let mut counts = CopyCounts::default();
    tally_ugs(set, space, u, depth, &mut counts);
    counts.registers
}

/// [`ugs_registers_at`] at every offset of `space`, in flat (row-major)
/// order, from one sweep over the unroll box — the exact-fallback
/// register table's sums.
pub fn ugs_registers_sums(set: &UgsSet, space: &UnrollSpace) -> Vec<i64> {
    let col = set.h().col(space.depth() - 1);
    let invariant = col.iter().all(|&x| x == 0);
    let sweep = Sweep::new(set, space, Order::Touch, |c, sig| stream_tag(c, &col, sig));
    // Per box: the closed registers, the open stream, and its open
    // register-reuse set (leader key, last key, size).
    #[derive(Clone, Default)]
    struct Open {
        total: i64,
        stream: Option<u32>,
        lead: i64,
        last: i64,
        len: u32,
    }
    let span = |o: &Open| if o.len >= 2 { o.lead - o.last + 1 } else { 0 };
    sweep.fold(
        Open::default(),
        |o, copy| {
            if invariant {
                // One hoisted register per stream.
                if o.stream != Some(copy.group) {
                    o.stream = Some(copy.group);
                    o.total += 1;
                }
            } else if o.stream != Some(copy.group) || copy.is_def {
                // A new stream or a def closes the open set.
                o.total += span(o);
                o.stream = Some(copy.group);
                (o.lead, o.last, o.len) = (copy.key, copy.key, 1);
            } else {
                o.last = copy.key;
                o.len += 1;
            }
        },
        |o| o.total + span(&o),
    )
}

/// [`ugs_loads_at`] at every offset of `space`, in flat order, from one
/// sweep over the unroll box — the exact-fallback use-led table's sums.
pub fn ugs_loads_sums(set: &UgsSet, space: &UnrollSpace) -> Vec<i64> {
    let col = set.h().col(space.depth() - 1);
    if col.iter().all(|&x| x == 0) {
        return vec![0; space.len()];
    }
    let sweep = Sweep::new(set, space, Order::Touch, |c, sig| stream_tag(c, &col, sig));
    sweep.fold(
        (None, 0i64),
        |(stream, loads), copy| {
            // The first copy of a stream is its earliest toucher.
            if *stream != Some(copy.group) {
                *stream = Some(copy.group);
                *loads += i64::from(!copy.is_def);
            }
        },
        |(_, loads)| loads,
    )
}

/// [`gss_count_at`] at every offset of `space`, in flat order, from one
/// sweep over the unroll box — the exact-fallback (line-chain) GSS
/// table's sums.
///
/// Spatially related copies agree, below the first subscript row, up
/// to a multiple `d` of the innermost column: the copies fall into
/// classes by the stream signature of their lower rows, and within a
/// class the first-row residue is a difference of one scalar position
/// `c₀ − a₀·key` (or of `c₀` itself, modulo `|a₀|`, when no lower row
/// pins `d`).  The greedy leader walk then compares positions only.
pub fn gss_count_sums(set: &UgsSet, space: &UnrollSpace, line_elems: i64) -> Vec<i64> {
    let col = set.h().col(space.depth() - 1);
    let (a0, lower) = col.split_first().map_or((0, &[][..]), |(&a0, l)| (a0, l));
    let free_mod = (a0 != 0 && lower.iter().all(|&k| k == 0)).then_some(a0.abs());
    let sweep = Sweep::new(set, space, Order::Spatial, |c, sig| {
        let Some((&c0, rest)) = c.split_first() else {
            return 0;
        };
        let key = stream_tag(rest, lower, sig);
        c0 - a0 * key
    });
    let related = |residual: i64| {
        let residual = free_mod.map_or(residual, |m| centered_mod(residual, m));
        residual.abs() < line_elems
    };
    // Per box: the leader count, the open class, and its leader positions.
    sweep.fold(
        (0i64, None, Vec::new()),
        |(count, class, leaders), copy| {
            if *class != Some(copy.group) {
                *class = Some(copy.group);
                leaders.clear();
            }
            if !leaders.iter().rev().any(|&l| related(copy.key - l)) {
                leaders.push(copy.key);
                *count += 1;
            }
        },
        |(count, _, _)| count,
    )
}

/// One copy `c + H·o` of a UGS member in a [`Sweep`].
#[derive(Clone, Copy, Debug)]
struct SweepCopy {
    /// Flat row-major (= lexicographic) index of the copy's offset.
    offset: usize,
    /// Stream ([`Order::Touch`]) or spatial class ([`Order::Spatial`])
    /// id, numbered along the sorted order.
    group: u32,
    /// Stream key, or position within the spatial class.
    key: i64,
    is_def: bool,
}

/// The walk order of a [`Sweep`], after its group.
#[derive(Clone, Copy)]
enum Order {
    /// Key descending — earliest toucher first, the order [`tally_ugs`]
    /// and [`ugs_loads_at`] visit a stream in.
    Touch,
    /// `c` lexicographically — the greedy leader walk of
    /// [`gss_count_at`].
    Spatial,
}

/// Every copy of one UGS over the *whole* unroll space, sorted once.
///
/// The per-offset evaluators above rebuild the `(u+1)`-box of copies for
/// each `u`.  A sweep materialises `c + H·o` once for every offset `o` of
/// the space and every member, tags each with its group signature and
/// key once, and sorts all copies once: by group, then the [`Order`],
/// then the offset's lexicographic rank, then the member.  The rank of an
/// offset inside any box `[0, u]` preserves its rank in the full space,
/// so one order serves every box: [`Sweep::fold`] derives each `Sum(u)`
/// from exactly the copies with `o ≤ u`, in that order.
struct Sweep<'s> {
    space: &'s UnrollSpace,
    /// Offset coordinates, `dims` per flat offset index.
    coords: Vec<u32>,
    copies: Vec<SweepCopy>,
}

impl<'s> Sweep<'s> {
    /// Materialises and sorts the copies.  `tag` appends a copy's group
    /// signature (of one fixed width) to the buffer it is handed and
    /// returns the copy's key.
    fn new(
        set: &UgsSet,
        space: &'s UnrollSpace,
        order: Order,
        mut tag: impl FnMut(&[i64], &mut Vec<i64>) -> i64,
    ) -> Sweep<'s> {
        let h = set.h();
        let rows = h.rows();
        let members = set.members();
        let mut coords = Vec::with_capacity(space.len() * space.dims());
        // Per copy, in generation order — offset rank, then member: the
        // copy itself, and (flat) its group signature and, for the
        // spatial order only, its constant vector.
        let mut copies = Vec::with_capacity(space.len() * members.len());
        let (mut sigs, mut cs) = (Vec::new(), Vec::new());
        let (mut shift, mut c) = (vec![0i64; rows], vec![0i64; rows]);
        let mut offset = 0usize;
        space.for_each_offset(|o| {
            coords.extend_from_slice(o);
            for (r, s) in shift.iter_mut().enumerate() {
                *s = space
                    .loops()
                    .iter()
                    .zip(o)
                    .map(|(&l, &od)| h[(r, l)] * od as i64)
                    .sum();
            }
            for m in members {
                for ((cr, &mr), &s) in c.iter_mut().zip(&m.c).zip(&shift) {
                    *cr = mr + s;
                }
                let key = tag(&c, &mut sigs);
                copies.push(SweepCopy {
                    offset,
                    group: 0,
                    key,
                    is_def: m.is_def,
                });
                if let Order::Spatial = order {
                    cs.extend_from_slice(&c);
                }
            }
            offset += 1;
        });
        let width = sigs.len() / copies.len().max(1);
        let sig = |i: usize| &sigs[i * width..][..width];
        let mut perm: Vec<usize> = (0..copies.len()).collect();
        perm.sort_unstable_by(|&a, &b| {
            let within = match order {
                Order::Touch => copies[b].key.cmp(&copies[a].key),
                Order::Spatial => cs[a * rows..][..rows].cmp(&cs[b * rows..][..rows]),
            };
            sig(a).cmp(sig(b)).then(within).then(a.cmp(&b))
        });
        // Number the groups along the sorted order.
        let mut group = 0;
        let copies = perm
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                if i > 0 && sig(p) != sig(perm[i - 1]) {
                    group += 1;
                }
                SweepCopy { group, ..copies[p] }
            })
            .collect();
        Sweep {
            space,
            coords,
            copies,
        }
    }

    /// `Sum(u)` for every offset, in flat order, from one state per box.
    /// The loop runs copy-major: each copy, in sweep order, `step`s the
    /// state of every box containing it — the boxes `[0, u]` with
    /// `u ≥ o`, visited as contiguous runs along the innermost dimension
    /// — so every box sees exactly its own copies, in sweep order, and no
    /// copy outside a box is ever looked at.
    fn fold<S: Clone>(
        &self,
        init: S,
        mut step: impl FnMut(&mut S, &SweepCopy),
        finish: impl FnMut(S) -> i64,
    ) -> Vec<i64> {
        let mut states = vec![init; self.space.len()];
        let (bounds, strides) = (self.space.bounds(), self.space.strides());
        let Some(inner) = bounds.len().checked_sub(1) else {
            // The zero-dimensional space: one box, holding every copy.
            self.copies.iter().for_each(|c| step(&mut states[0], c));
            return states.into_iter().map(finish).collect();
        };
        let run = bounds[inner] as usize + 1;
        let mut u = vec![0u32; inner];
        for copy in &self.copies {
            let o = &self.coords[copy.offset * bounds.len()..][..bounds.len()];
            u.copy_from_slice(&o[..inner]);
            // Odometer over the outer dimensions of the up-set `[o, bounds]`;
            // `start` is the flat index of `(u, o_inner)`.
            let mut start = copy.offset;
            'runs: loop {
                let row = start - o[inner] as usize;
                for state in &mut states[start..row + run] {
                    step(state, copy);
                }
                for d in (0..inner).rev() {
                    if u[d] < bounds[d] {
                        u[d] += 1;
                        start += strides[d];
                        continue 'runs;
                    }
                    start -= (u[d] - o[d]) as usize * strides[d];
                    u[d] = o[d];
                }
                break;
            }
        }
        states.into_iter().map(finish).collect()
    }
}

/// Shared helper for table construction: the map from each UGS member to
/// its innermost-stream key, plus the stream partition of the *original*
/// body (unroll offset zero).
pub(crate) fn original_streams(set: &UgsSet, depth: usize) -> Vec<Vec<(usize, i64)>> {
    let inner_col: Vec<i64> = set.h().col(depth - 1);
    let mut groups: BTreeMap<usize, Vec<(usize, i64)>> = BTreeMap::new();
    let mut bases: Vec<(Vec<i64>, usize)> = Vec::new();
    'members: for (idx, m) in set.members().iter().enumerate() {
        for (base, gid) in &bases {
            if let Some(d) = inner_distance(&m.c, base, &inner_col) {
                groups.entry(*gid).or_default().push((idx, d));
                continue 'members;
            }
        }
        let gid = bases.len();
        bases.push((m.c.clone(), gid));
        groups.entry(gid).or_default().push((idx, 0));
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_ir::transform::{scalar_replacement, unroll_and_jam};
    use ujam_ir::NestBuilder;

    fn check_against_transform(nest: &ujam_ir::LoopNest, loops: &[usize], u: &[u32]) {
        let space = UnrollSpace::new(nest.depth(), loops, 8);
        let analytic = replacement_counts_at(nest, &space, u);
        let full = space.full_vector(u);
        let transformed = unroll_and_jam(nest, &full).expect("legal in tests");
        let actual = scalar_replacement(&transformed).stats;
        assert_eq!(analytic.loads, actual.loads, "loads @ {u:?}");
        assert_eq!(analytic.stores, actual.stores, "stores @ {u:?}");
        assert_eq!(
            analytic.replaced_loads, actual.replaced_loads,
            "replaced @ {u:?}"
        );
        assert_eq!(
            analytic.hoisted_loads, actual.hoisted_loads,
            "hoisted loads @ {u:?}"
        );
        assert_eq!(
            analytic.hoisted_stores, actual.hoisted_stores,
            "hoisted stores @ {u:?}"
        );
        assert_eq!(analytic.registers, actual.registers, "registers @ {u:?}");
    }

    #[test]
    fn intro_counts_match_real_transform() {
        let nest = NestBuilder::new("intro")
            .array("A", &[842])
            .array("B", &[64])
            .loop_("J", 1, 840)
            .loop_("I", 1, 64)
            .stmt("A(J) = A(J) + B(I)")
            .build();
        for u in 0..=7u32 {
            check_against_transform(&nest, &[0], &[u]);
        }
    }

    #[test]
    fn stencil_counts_match_real_transform() {
        let nest = NestBuilder::new("st")
            .array("A", &[70, 70])
            .array("B", &[70, 70])
            .loop_("J", 2, 49)
            .loop_("I", 2, 49)
            .stmt("B(I,J) = A(I,J-1) + A(I,J) + A(I,J+1) + A(I-1,J)")
            .build();
        for u in [0u32, 1, 2, 3, 5] {
            check_against_transform(&nest, &[0], &[u]);
        }
    }

    #[test]
    fn matmul_two_loop_counts_match() {
        let nest = NestBuilder::new("mm")
            .array("A", &[64, 64])
            .array("B", &[64, 64])
            .array("C", &[64, 64])
            .loop_("J", 1, 24)
            .loop_("K", 1, 24)
            .loop_("I", 1, 24)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build();
        for u in [[0u32, 0], [1, 0], [0, 1], [1, 1], [2, 3]] {
            check_against_transform(&nest, &[0, 1], &u);
        }
    }

    #[test]
    fn gss_count_matches_reuse_partition_on_unrolled_nest() {
        use ujam_reuse::{group_spatial_sets, Localized};
        let nest = NestBuilder::new("pair")
            .array("A", &[52, 424])
            .array("B", &[52, 424])
            .loop_("J", 1, 420)
            .loop_("I", 1, 48)
            .stmt("A(I,J) = B(I,J) + B(I,J+2)")
            .build();
        let space = UnrollSpace::new(2, &[0], 8);
        for u in 0..=6u32 {
            let transformed = unroll_and_jam(&nest, &[u, 0]).expect("legal");
            let l = Localized::innermost(2);
            let expected: usize = UgsSet::partition(&transformed)
                .iter()
                .filter(|s| s.array() == "B")
                .map(|s| group_spatial_sets(s, &l, 4).len())
                .sum();
            let b = UgsSet::partition(&nest)
                .into_iter()
                .find(|s| s.array() == "B")
                .expect("B");
            assert_eq!(
                gss_count_at(&b, &space, &[u], 2, 4),
                expected,
                "GSS count @ u={u}"
            );
        }
    }

    #[test]
    fn gts_count_tracks_merging() {
        // Figure 1's shape: A(I,J) and A(I-2,J) with the *J* loop unrolled
        // never merge; unrolling over I is not possible (innermost).  Use
        // the outer-difference pair instead: B(I,J) and B(I,J+2) merge at
        // unroll 2.
        let nest = NestBuilder::new("m")
            .array("A", &[70, 70])
            .array("B", &[70, 70])
            .loop_("J", 1, 48)
            .loop_("I", 1, 48)
            .stmt("A(I,J) = B(I,J) + B(I,J+2)")
            .build();
        let b = UgsSet::partition(&nest)
            .into_iter()
            .find(|s| s.array() == "B")
            .expect("B");
        let space = UnrollSpace::new(2, &[0], 8);
        // Distinct J-offsets covered: {0..u} ∪ {2..u+2} = u + 3 values;
        // from u = 2 on, each extra unroll adds one group instead of two
        // because B(I,J)'s new copy coincides with an existing B(I,J+2)
        // copy.
        assert_eq!(gts_count_at(&b, &space, &[0], 2), 3 - 1); // {0,2}
        assert_eq!(gts_count_at(&b, &space, &[1], 2), 4);
        assert_eq!(gts_count_at(&b, &space, &[2], 2), 5);
        assert_eq!(gts_count_at(&b, &space, &[3], 2), 6);
    }
}

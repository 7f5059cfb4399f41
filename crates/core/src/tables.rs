//! The precomputed unroll tables of Carr & Guan (Figures 2–5, §4.2–§4.4).
//!
//! Each table is indexed by *copy offset* `u'` and holds the number of new
//! groups the copy at that offset contributes; the value of the tabulated
//! quantity after unrolling by `u` is the prefix sum over the box
//! `[0, u]` (the paper's `Sum`, Figure 2).  Construction solves, once per
//! ordered leader pair, the merge equation `H·x = Δc` over the unrolled
//! loops plus the innermost loop: a copy whose offset dominates the merge
//! point no longer starts a new group.  Dominating several merge points
//! still merges a copy only once — the union-of-up-sets update
//! ([`crate::Table::add_upset_union`]) realizes the paper's
//! previous-superleader bookkeeping.
//!
//! Scope: like the paper (§3.5, §5), the closed-form table construction
//! targets **separable SIV** references; [`CostTables::siv`] reports
//! whether a nest qualifies.  Where the up-set region structure breaks
//! (line chains, reverse providers, provider switches), construction
//! falls back to exact tabulation: one sweep per set over the whole
//! unroll box ([`streams::ugs_registers_sums`] and its siblings) yields
//! every `Sum` value, stored directly ([`Table::from_sums`]) — see
//! DESIGN.md §5.
//!
//! Every table this module returns is **finalized** (a summed-area
//! table), so each `prefix_sum` query downstream is a single lookup;
//! merge solves are memoized per construction, keyed by the leader-pair
//! difference `Δc` (identical deltas recur across pairs).

use crate::space::{Table, UnrollSpace};
use crate::streams;
use std::collections::HashMap;
use ujam_ir::LoopNest;
use ujam_linalg::{solve_unique, Mat, SolveOutcome};
use ujam_reuse::{group_spatial_sets, has_self_spatial, has_self_temporal, Localized, UgsSet};

/// Memoizes [`merge_point`] solves within one table construction, keyed
/// by the leader-pair delta — `H` and the space are fixed per set, and
/// identical deltas are re-solved many times across leader pairs.
struct MergeMemo {
    cache: HashMap<Vec<i64>, Option<(Vec<u32>, i64)>>,
}

impl MergeMemo {
    fn new() -> MergeMemo {
        MergeMemo {
            cache: HashMap::new(),
        }
    }

    fn solve(&mut self, h: &Mat, delta: &[i64], space: &UnrollSpace) -> Option<(Vec<u32>, i64)> {
        if let Some(hit) = self.cache.get(delta) {
            return hit.clone();
        }
        let solved = merge_point(h, delta, space);
        self.cache.insert(delta.to_vec(), solved.clone());
        solved
    }
}

/// Solves the merge equation `H·x = delta` with `x` supported on the
/// unrolled loops and the innermost loop.  Returns the unroll components
/// (the merge point) and the innermost component (any sign) when the
/// solution exists, is integral, and is non-negative on every unrolled
/// loop.
fn merge_point(h: &Mat, delta: &[i64], space: &UnrollSpace) -> Option<(Vec<u32>, i64)> {
    let inner = space.depth() - 1;
    let mut cols: Vec<usize> = space.loops().to_vec();
    cols.push(inner);
    // Drop all-zero columns: they are unconstrained and take value 0.
    let nonzero: Vec<usize> = cols
        .iter()
        .copied()
        .filter(|&c| (0..h.rows()).any(|r| h[(r, c)] != 0))
        .collect();
    let SolveOutcome::Unique(x) = solve_unique(h, delta, &nonzero) else {
        return None;
    };
    let mut point = vec![0u32; space.dims()];
    for (k, &l) in space.loops().iter().enumerate() {
        if let Some(p) = nonzero.iter().position(|&c| c == l) {
            point[k] = u32::try_from(x[p]).ok()?;
        }
    }
    let mut inner_val = 0;
    if let Some(p) = nonzero.iter().position(|&c| c == inner) {
        inner_val = x[p];
    }
    Some((point, inner_val))
}

/// Offsets at which *every* copy of this UGS coincides with an earlier
/// copy of itself: the unit vectors of unrolled loops whose `H` column is
/// zero (the reference ignores that loop, so unrolling duplicates it).
fn self_merge_points(h: &Mat, space: &UnrollSpace) -> Vec<Vec<u32>> {
    space
        .loops()
        .iter()
        .enumerate()
        .filter(|&(_, &l)| (0..h.rows()).all(|r| h[(r, l)] == 0))
        .map(|(d, _)| {
            let mut e = vec![0u32; space.dims()];
            e[d] = 1;
            e
        })
        .collect()
}

/// Whether an unrolled loop drives the first (contiguous) subscript: its
/// copies walk along cache lines in *chains*.
fn chained(h: &Mat, space: &UnrollSpace) -> bool {
    space.loops().iter().any(|&l| h[(0, l)] != 0)
}

/// Which construction path the RRS and register tables take for one UGS
/// over one space — classified once per set by
/// [`CostTables::build_with_sets`] and shared by both builders, so the
/// reverse-provider solves run once.
struct SetPaths {
    /// Innermost-invariant: every stream is hoisted.
    invariant: bool,
    /// See [`chained`].
    chained: bool,
    /// See [`has_reverse_provider`]; `false` for invariant sets.
    reverse_provider: bool,
    /// See [`self_merge_points`].
    self_points: Vec<Vec<u32>>,
}

impl SetPaths {
    fn classify(set: &UgsSet, space: &UnrollSpace) -> SetPaths {
        let h = set.h();
        let invariant = (0..h.rows()).all(|r| h[(r, space.depth() - 1)] == 0);
        SetPaths {
            invariant,
            chained: chained(h, space),
            reverse_provider: !invariant && has_reverse_provider(set, space),
            self_points: self_merge_points(h, space),
        }
    }
}

/// Figure 2: the table of new group-temporal sets per copy offset for one
/// uniformly generated set, under innermost localization (the localized
/// space of an unrolled loop's body).
///
/// `gts_table(set, space).prefix_sum(u)` equals the number of GTSs of the
/// unrolled loop — validated against [`streams::gts_count_at`] and against
/// re-partitioning the actually-unrolled IR.
///
/// # Example
///
/// ```
/// use ujam_core::{gts_table, UnrollSpace};
/// use ujam_ir::NestBuilder;
/// use ujam_reuse::UgsSet;
/// let nest = NestBuilder::new("fig1")
///     .array("A", &[66, 66]).array("B", &[66, 66])
///     .loop_("J", 1, 64).loop_("I", 1, 64)
///     .stmt("A(I,J) = B(I,J) + B(I,J+2)")
///     .build();
/// let b = UgsSet::partition(&nest).into_iter()
///     .find(|s| s.array() == "B").unwrap();
/// let t = gts_table(&b, &UnrollSpace::new(2, &[0], 4));
/// assert_eq!(t.prefix_sum(&[0]), 2);
/// assert_eq!(t.prefix_sum(&[2]), 5); // merging begins at offset 2
/// ```
pub fn gts_table(set: &UgsSet, space: &UnrollSpace) -> Table {
    let depth = space.depth();
    let groups = streams::original_streams(set, depth);
    let self_points = self_merge_points(set.h(), space);
    let mut t = Table::filled(space.clone(), groups.len() as i64);
    let mut memo = MergeMemo::new();

    for (j, gj) in groups.iter().enumerate() {
        let cj = &set.members()[gj[0].0].c;
        let mut points = self_points.clone();
        for (i, gi) in groups.iter().enumerate() {
            if i == j {
                continue;
            }
            let ci = &set.members()[gi[0].0].c;
            let delta: Vec<i64> = cj.iter().zip(ci).map(|(a, b)| a - b).collect();
            if let Some((point, _)) = memo.solve(set.h(), &delta, space) {
                if point.iter().any(|&p| p > 0) {
                    points.push(point);
                }
            }
        }
        t.add_upset_union(&points, -1);
    }
    t.finalize();
    t
}

/// Figure 3: the table of new group-spatial sets per copy offset.
///
/// Same structure as [`gts_table`] with the spatial merge relation: the
/// subscript rows below the first must close exactly, while the
/// first-dimension (column-contiguous) residue only has to fall within the
/// cache line.  Unrolled loops appearing in the first subscript produce
/// line *chains*: a new leader every `ceil(line/|a|)` copies.
pub fn gss_table(set: &UgsSet, space: &UnrollSpace, line_elems: i64) -> Table {
    assert!(line_elems >= 1, "cache line must hold at least one element");
    let depth = space.depth();
    let h = set.h();
    let inner = depth - 1;

    // Line *chains*: an unrolled loop that drives the first (contiguous)
    // subscript walks copies along cache lines, and the greedy leader walk
    // over the combined value stream does not decompose into up-sets.
    // Tabulate such sets exactly with one sweep over the unroll box,
    // storing the counts as already-finalized sums so the prefix-sum
    // interface (and its O(1) query cost) is preserved.
    if chained(h, space) {
        return Table::from_sums(
            space.clone(),
            streams::gss_count_sums(set, space, line_elems),
        );
    }

    let l = Localized::innermost(depth);
    let groups = group_spatial_sets(set, &l, line_elems);
    let mut t = Table::filled(space.clone(), groups.len() as i64);

    let self_points = self_merge_points(h, space);
    let mut memo: HashMap<Vec<i64>, Option<Vec<u32>>> = HashMap::new();
    for (j, gj) in groups.iter().enumerate() {
        let cj = &set.members()[gj[0]].c;
        let mut points = self_points.clone();
        for (i, gi) in groups.iter().enumerate() {
            if i == j {
                continue;
            }
            let ci = &set.members()[gi[0]].c;
            let delta: Vec<i64> = cj.iter().zip(ci).map(|(a, b)| a - b).collect();
            let point = memo
                .entry(delta)
                .or_insert_with_key(|d| spatial_merge_point(h, d, space, inner, line_elems));
            if let Some(point) = point {
                if point.iter().any(|&p| p > 0) {
                    points.push(point.clone());
                }
            }
        }
        t.add_upset_union(&points, -1);
    }
    t.finalize();
    t
}

/// The spatial merge point: rows below the first close exactly over
/// (unrolled ∪ innermost), the first row up to a residue `< line`.
fn spatial_merge_point(
    h: &Mat,
    delta: &[i64],
    space: &UnrollSpace,
    inner: usize,
    line_elems: i64,
) -> Option<Vec<u32>> {
    if h.rows() == 0 {
        return Some(vec![0; space.dims()]);
    }
    // Build the sub-system of rows 1.. and solve it.
    let sub_rows: Vec<&[i64]> = (1..h.rows()).map(|r| h.row(r)).collect();
    let sub = Mat::from_rows(&sub_rows);
    let sub_delta = &delta[1..];
    let mut cols: Vec<usize> = space.loops().to_vec();
    cols.push(inner);
    let nonzero: Vec<usize> = cols
        .iter()
        .copied()
        .filter(|&c| (0..sub.rows()).any(|r| sub[(r, c)] != 0))
        .collect();
    let x = match solve_unique(&sub, sub_delta, &nonzero) {
        SolveOutcome::Unique(x) => x,
        SolveOutcome::Underdetermined => vec![0; nonzero.len()],
        _ => return None,
    };
    let mut point = vec![0u32; space.dims()];
    for (k, &l) in space.loops().iter().enumerate() {
        if let Some(p) = nonzero.iter().position(|&c| c == l) {
            point[k] = u32::try_from(x[p]).ok()?;
        }
    }
    // First-row residue: localized loops appearing (only) in row 0 can
    // absorb part of the difference.
    let mut residual = delta[0];
    for (p, &c) in nonzero.iter().enumerate() {
        residual -= h[(0, c)] * x[p];
    }
    // A free unrolled loop in row 0: pick the smallest non-negative copy
    // distance that brings the residue within the line.  The search is
    // per-dimension bounded — with heterogeneous bounds a distance only
    // counts if this loop's own axis can reach it.
    for (d, &l) in space.loops().iter().enumerate() {
        let a = h[(0, l)];
        if a == 0 || nonzero.contains(&l) {
            continue;
        }
        let chosen =
            (0..=space.bounds()[d] as i64).find(|&xl| (residual - a * xl).abs() < line_elems)?;
        point[d] = chosen as u32;
        residual -= a * chosen;
    }
    // A free innermost loop in row 0 reduces the residue modulo |a|.
    let a_in = h[(0, inner)];
    if a_in != 0 && !nonzero.contains(&inner) {
        residual = centered_mod(residual, a_in.abs());
    }
    (residual.abs() < line_elems).then_some(point)
}

fn centered_mod(v: i64, m: i64) -> i64 {
    let mut r = v.rem_euclid(m);
    if r > m / 2 {
        r -= m;
    }
    r
}

/// The tables driving the memory-operation count `M(u)` (§4.3, Figures
/// 4–5): stores scale with the number of copies; loads are one per
/// *use-led* register-reuse stream, tabulated with merge regions.
#[derive(Clone, Debug)]
pub struct RrsTables {
    use_led: Table,
    stores_per_copy: i64,
}

impl RrsTables {
    /// Loads per unrolled iteration after scalar replacement.
    pub fn loads(&self, u: &[u32]) -> i64 {
        self.use_led.prefix_sum(u)
    }

    /// Stores per unrolled iteration.
    pub fn stores(&self, u: &[u32]) -> i64 {
        self.stores_per_copy * self.use_led.space().copies(u) as i64
    }

    /// Memory operations per unrolled iteration (`M`).
    pub fn memory_ops(&self, u: &[u32]) -> i64 {
        self.loads(u) + self.stores(u)
    }

    /// [`RrsTables::loads`] by precomputed flat index (finalized tables
    /// only — see [`Table::prefix_sum_flat`]).
    pub fn loads_flat(&self, idx: usize) -> i64 {
        self.use_led.prefix_sum_flat(idx)
    }

    /// [`RrsTables::memory_ops`] by precomputed flat index plus the
    /// candidate's copy count `Π (u_d + 1)` (stores scale with copies,
    /// not with the tables).
    pub fn memory_ops_flat(&self, idx: usize, copies: usize) -> i64 {
        self.loads_flat(idx) + self.stores_per_copy * copies as i64
    }
}

/// Figures 4–5: builds the register-reuse-stream tables for a whole nest.
///
/// Each use-led register-reuse set issues one load per iteration until a
/// copy of an *earlier-touching* reference (its provider) appears at a
/// dominated offset; defs always keep their store.  Innermost-invariant
/// streams are hoisted and issue nothing per iteration.
pub fn rrs_tables(nest: &LoopNest, space: &UnrollSpace) -> RrsTables {
    rrs_tables_from(&UgsSet::partition(nest), nest.depth(), space)
}

/// [`rrs_tables`] over an already-computed UGS partition (the analysis
/// context caches one partition per nest and shares it across passes).
pub fn rrs_tables_from(sets: &[UgsSet], depth: usize, space: &UnrollSpace) -> RrsTables {
    debug_assert_eq!(depth, space.depth(), "space built for another nest");
    let paths: Vec<SetPaths> = sets
        .iter()
        .map(|set| SetPaths::classify(set, space))
        .collect();
    rrs_tables_in(sets, &paths, space)
}

/// [`rrs_tables_from`] over per-set classifications (parallel to `sets`).
fn rrs_tables_in(sets: &[UgsSet], paths: &[SetPaths], space: &UnrollSpace) -> RrsTables {
    let depth = space.depth();
    let mut use_led = Table::filled(space.clone(), 0);
    use_led.finalize(); // zeros; per-set contributions accumulate as sums
    let mut stores_per_copy = 0i64;

    for (set, path) in sets.iter().zip(paths) {
        if path.invariant {
            // Invariant UGS: every stream is hoisted.
            continue;
        }
        // Defs always store, regardless of merging.
        stores_per_copy += set.members().iter().filter(|m| m.is_def).count() as i64;

        // A *reverse provider* — a reference whose copy at a HIGHER unroll
        // offset touches the shared cells earlier — makes absorption depend
        // on the query box, not just the copy offset, so the up-set region
        // algorithm cannot express it (the merge comes "from above").
        // Tabulate such sets exactly, directly in the `Sum` domain.
        if path.reverse_provider {
            use_led.accumulate(&Table::from_sums(
                space.clone(),
                streams::ugs_loads_sums(set, space),
            ));
            continue;
        }

        let mut memo = MergeMemo::new();
        let groups = streams::original_streams(set, depth);
        for (g_idx, g) in groups.iter().enumerate() {
            // Sort members by touch order (key desc, reference order asc).
            let mut ms: Vec<(usize, i64)> = g.clone();
            ms.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (pos, &(idx, _key)) in ms.iter().enumerate() {
                if set.members()[idx].is_def {
                    // Stores were counted at the UGS level.
                } else if pos == 0 {
                    // A use-led stream: one load per copy until absorbed.
                    let cj = &set.members()[idx].c;
                    let mut points = path.self_points.clone();
                    for (i, gi) in groups.iter().enumerate() {
                        if i == g_idx {
                            continue;
                        }
                        for &(m_idx, _) in gi {
                            let cm = &set.members()[m_idx].c;
                            let delta: Vec<i64> = cm.iter().zip(cj).map(|(a, b)| a - b).collect();
                            // Solve H·x = c_m − c_j: the provider copy sits
                            // at `u' − x_unroll` and touches `x_inner`
                            // iterations earlier than the leader; it
                            // provides when it touches no later.
                            if let Some((point, inner_val)) = memo.solve(set.h(), &delta, space) {
                                if inner_val >= 0 && point.iter().any(|&p| p > 0) {
                                    points.push(point);
                                }
                            }
                        }
                    }
                    let mut contrib = Table::filled(space.clone(), 1);
                    contrib.add_upset_union(&points, -1);
                    contrib.finalize();
                    use_led.accumulate(&contrib);
                }
            }
        }
    }
    RrsTables {
        use_led,
        stores_per_copy,
    }
}

/// Like [`merge_point`] but without any sign restriction: the raw unique
/// integral solution's unroll components and innermost component.
fn merge_point_raw(h: &Mat, delta: &[i64], space: &UnrollSpace) -> Option<(Vec<i64>, i64)> {
    let inner = space.depth() - 1;
    let mut cols: Vec<usize> = space.loops().to_vec();
    cols.push(inner);
    let nonzero: Vec<usize> = cols
        .iter()
        .copied()
        .filter(|&c| (0..h.rows()).any(|r| h[(r, c)] != 0))
        .collect();
    let SolveOutcome::Unique(x) = solve_unique(h, delta, &nonzero) else {
        return None;
    };
    let mut unroll_parts = vec![0i64; space.dims()];
    for (k, &l) in space.loops().iter().enumerate() {
        if let Some(p) = nonzero.iter().position(|&c| c == l) {
            unroll_parts[k] = x[p];
        }
    }
    let mut inner_val = 0;
    if let Some(p) = nonzero.iter().position(|&c| c == inner) {
        inner_val = x[p];
    }
    Some((unroll_parts, inner_val))
}

/// Detects absorptions the up-set region algorithm cannot express:
///
/// * a *reverse provider* — a reference whose copy at a strictly higher
///   unroll offset touches the shared cells strictly earlier — or
/// * a *mixed-sign* merge offset (partner above in one unrolled dimension
///   and below in another).
///
/// Either makes the absorbed-copy set depend on the query box, so the UGS
/// is tabulated exactly in the `Sum` domain instead (see DESIGN.md §5).
fn has_reverse_provider(set: &UgsSet, space: &UnrollSpace) -> bool {
    let members = set.members();
    let mut memo: HashMap<Vec<i64>, Option<(Vec<i64>, i64)>> = HashMap::new();
    for j in members {
        for m in members {
            // `m` as a candidate provider for `j`: the solve is over
            // c_m − c_j; its unroll part locates the provider copy at
            // `u' − x` (negative components = above).
            let delta: Vec<i64> = m.c.iter().zip(&j.c).map(|(a, b)| a - b).collect();
            if delta.iter().all(|&d| d == 0) {
                continue;
            }
            let solved = memo
                .entry(delta)
                .or_insert_with_key(|d| merge_point_raw(set.h(), d, space));
            let Some((x, inner_val)) = solved.clone() else {
                continue;
            };
            let has_neg = x.iter().any(|&v| v < 0);
            let has_pos = x.iter().any(|&v| v > 0);
            if has_neg && has_pos {
                return true; // mixed sign
            }
            if has_neg && inner_val > 0 {
                return true; // provider strictly above, touching earlier
            }
        }
    }
    false
}

/// Figure 7: the register-pressure table `RL(u)` for one UGS, built with
/// the same per-offset region discipline as the other tables.
///
/// The closed-form construction applies to def-free, non-invariant,
/// chain-free sets whose merges are pairwise (each group has at most one
/// provider): the common stencil-read case that actually drives register
/// pressure.  Everything else — defs re-splitting streams, invariant
/// sets, line chains, reverse providers, provider switches (the paper's
/// Figure 6) — falls back to exact tabulation of the analytic count in
/// the `Sum` domain, from one sweep over the unroll box
/// ([`streams::ugs_registers_sums`]), preserving the prefix-sum
/// interface.
pub fn reg_table(set: &UgsSet, space: &UnrollSpace) -> Table {
    reg_table_in(set, space, &SetPaths::classify(set, space))
}

/// [`reg_table`] over the set's classification.
fn reg_table_in(set: &UgsSet, space: &UnrollSpace, path: &SetPaths) -> Table {
    let depth = space.depth();
    let h = set.h();

    let analytic_fallback =
        || Table::from_sums(space.clone(), streams::ugs_registers_sums(set, space));

    // Invariant sets, sets with defs, row-0 unrolled loops (chains),
    // reverse providers, or self-merging sets: fall back.
    if path.invariant
        || set.members().iter().any(|m| m.is_def)
        || path.chained
        || path.reverse_provider
        || !path.self_points.is_empty()
    {
        return analytic_fallback();
    }

    // Streams with their touch keys, leaders first (key descending).
    let groups = streams::original_streams(set, depth);
    struct StreamInfo {
        c: Vec<i64>,
        key_max: i64,
        key_min: i64,
        members: usize,
    }
    let infos: Vec<StreamInfo> = groups
        .iter()
        .map(|g| {
            let keys: Vec<i64> = g.iter().map(|&(_, k)| k).collect();
            StreamInfo {
                c: set.members()[g[0].0].c.clone(),
                key_max: *keys.iter().max().expect("non-empty"),
                key_min: *keys.iter().min().expect("non-empty"),
                members: g.len(),
            }
        })
        .collect();
    let base_cost = |s: &StreamInfo| {
        if s.members >= 2 {
            s.key_max - s.key_min + 1
        } else {
            0
        }
    };

    // Pairwise merges: j absorbed into i at unroll point x with key shift
    // δ = −x_inner of the solve H·x = c_i − c_j (provider below, earlier).
    struct Merge {
        j: usize,
        i: usize,
        point: Vec<u32>,
        shift: i64,
    }
    let mut merges: Vec<Merge> = Vec::new();
    let mut memo = MergeMemo::new();
    for (j, sj) in infos.iter().enumerate() {
        for (i, si) in infos.iter().enumerate() {
            if i == j {
                continue;
            }
            let delta: Vec<i64> = si.c.iter().zip(&sj.c).map(|(a, b)| a - b).collect();
            if let Some((point, inner_val)) = memo.solve(h, &delta, space) {
                // Provider below and earlier-or-equal in touch order.
                if inner_val >= 0 && point.iter().any(|&p| p > 0) {
                    merges.push(Merge {
                        j,
                        i,
                        point,
                        shift: -inner_val,
                    });
                }
            }
        }
    }
    // Chain detection: a group with several providers, or a group that is
    // both absorbed and absorbing, needs the provider-switch walk — fall
    // back rather than approximate.
    let mut absorbed = vec![0usize; infos.len()];
    let mut providing = vec![0usize; infos.len()];
    for m in &merges {
        absorbed[m.j] += 1;
        providing[m.i] += 1;
    }
    if absorbed.iter().any(|&a| a > 1)
        || (0..infos.len()).any(|g| absorbed[g] > 0 && providing[g] > 0)
    {
        return analytic_fallback();
    }

    // Base contributions: every copy of every stream pays its own cost.
    let mut t = Table::filled(space.clone(), infos.iter().map(base_cost).sum());
    // Merge deltas: for offsets dominating the merge point, the pair
    // (i @ u'−x, j @ u') costs span(union)+1 instead of the two separate
    // costs; attribute the delta to j's copy offset.
    for m in &merges {
        let (si, sj) = (&infos[m.i], &infos[m.j]);
        let merged_max = si.key_max.max(sj.key_max + m.shift);
        let merged_min = si.key_min.min(sj.key_min + m.shift);
        let merged_cost = merged_max - merged_min + 1;
        let delta = merged_cost - base_cost(si) - base_cost(sj);
        t.add_upset_union(std::slice::from_ref(&m.point), delta);
    }
    t.finalize();
    t
}

/// The complete per-nest query interface the optimizer searches over:
/// flops, memory operations, cache misses, and registers as functions of
/// the unroll vector — all from precomputed tables.
#[derive(Clone, Debug)]
pub struct CostTables {
    space: UnrollSpace,
    flops_per_copy: usize,
    rrs: RrsTables,
    /// Per-UGS `(line cost factor, GSS table)`.
    gss: Vec<(f64, Table)>,
    /// Per-UGS register tables (Figure 7).
    registers: Vec<Table>,
    siv: bool,
    /// Whether every register table's sums are axis-monotone — the
    /// soundness condition for up-set pruning in the search.
    registers_monotone: bool,
}

impl CostTables {
    /// Builds every table for a nest over an unroll space.
    ///
    /// `line_elems` is the cache line size in array elements (Equation 1's
    /// `C`).  The closed-form tables assume separable SIV references
    /// (§3.5); [`CostTables::siv`] reports whether the nest qualifies.
    pub fn build(nest: &LoopNest, space: &UnrollSpace, line_elems: i64) -> CostTables {
        Self::build_with_sets(nest, &UgsSet::partition(nest), space, line_elems)
    }

    /// [`CostTables::build`] over an already-computed UGS partition.
    ///
    /// The seed optimizer partitioned the nest three times per table
    /// build (GSS, RRS, registers); the analysis context computes the
    /// partition once per nest and shares it here and with the
    /// loop-selection scoring.
    pub fn build_with_sets(
        nest: &LoopNest,
        sets: &[UgsSet],
        space: &UnrollSpace,
        line_elems: i64,
    ) -> CostTables {
        let siv = nest.is_siv_separable();
        let l = Localized::innermost(nest.depth());
        let gss = sets
            .iter()
            .map(|set| {
                let f = if has_self_temporal(set.h(), &l) {
                    0.0
                } else if has_self_spatial(set.h(), &l) {
                    1.0 / line_elems as f64
                } else {
                    1.0
                };
                let t = gss_table(set, space, line_elems);
                (f, t)
            })
            .collect();
        let paths: Vec<SetPaths> = sets
            .iter()
            .map(|set| SetPaths::classify(set, space))
            .collect();
        let rrs = rrs_tables_in(sets, &paths, space);
        let registers: Vec<Table> = sets
            .iter()
            .zip(&paths)
            .map(|(set, path)| reg_table_in(set, space, path))
            .collect();
        let registers_monotone = registers.iter().all(Table::is_monotone);
        CostTables {
            space: space.clone(),
            flops_per_copy: nest.flops_per_iter(),
            rrs,
            gss,
            registers,
            siv,
            registers_monotone,
        }
    }

    /// The table's unroll space.
    pub fn space(&self) -> &UnrollSpace {
        &self.space
    }

    /// `true` when the nest satisfies the separable-SIV restriction the
    /// closed-form tables assume.
    pub fn siv(&self) -> bool {
        self.siv
    }

    /// Floating-point operations per unrolled iteration.
    pub fn flops(&self, u: &[u32]) -> usize {
        self.flops_per_copy * self.space.copies(u)
    }

    /// [`CostTables::flops`] by precomputed copy count, for callers that
    /// already hold `space.copies(u)`.
    pub fn flops_of_copies(&self, copies: usize) -> usize {
        self.flops_per_copy * copies
    }

    /// Memory operations per unrolled iteration (`M` of §3.2).
    pub fn memory_ops(&self, u: &[u32]) -> i64 {
        self.rrs.memory_ops(u)
    }

    /// Loads per unrolled iteration.
    pub fn loads(&self, u: &[u32]) -> i64 {
        self.rrs.loads(u)
    }

    /// Stores per unrolled iteration.
    pub fn stores(&self, u: &[u32]) -> i64 {
        self.rrs.stores(u)
    }

    /// Cache lines fetched per unrolled iteration (Equation 1 summed over
    /// the uniformly generated sets).
    pub fn cache_lines(&self, u: &[u32]) -> f64 {
        self.gss
            .iter()
            .map(|(f, t)| f * t.prefix_sum(u) as f64)
            .sum()
    }

    /// Floating-point registers required by scalar replacement (`R(u)`).
    pub fn registers(&self, u: &[u32]) -> i64 {
        self.registers.iter().map(|t| t.prefix_sum(u)).sum()
    }

    /// Whether the flat-index query variants are available: every
    /// underlying table finalized (always true for tables built by
    /// [`CostTables::build`]; false after [`CostTables::definalized`]).
    pub fn flat_queryable(&self) -> bool {
        self.rrs.use_led.is_finalized()
            && self.gss.iter().all(|(_, t)| t.is_finalized())
            && self.registers.iter().all(Table::is_finalized)
    }

    /// [`CostTables::memory_ops`] by precomputed flat index and copy
    /// count — the pruned search walk tracks both incrementally during
    /// descent, skipping the per-query re-indexing entirely.
    pub fn memory_ops_flat(&self, idx: usize, copies: usize) -> i64 {
        self.rrs.memory_ops_flat(idx, copies)
    }

    /// [`CostTables::loads`] by precomputed flat index.
    pub fn loads_flat(&self, idx: usize) -> i64 {
        self.rrs.loads_flat(idx)
    }

    /// [`CostTables::cache_lines`] by precomputed flat index.
    pub fn cache_lines_flat(&self, idx: usize) -> f64 {
        self.gss
            .iter()
            .map(|(f, t)| f * t.prefix_sum_flat(idx) as f64)
            .sum()
    }

    /// [`CostTables::registers`] by precomputed flat index.
    pub fn registers_flat(&self, idx: usize) -> i64 {
        self.registers.iter().map(|t| t.prefix_sum_flat(idx)).sum()
    }

    /// `true` when [`CostTables::registers`] is monotone in `u` (every
    /// per-UGS register table's sums grow along every axis) — checked
    /// once at build time.  When it holds, a candidate over the register
    /// budget rules out its entire up-set, so the search may prune
    /// whole subtrees without changing the winner.
    pub fn registers_monotone(&self) -> bool {
        self.registers_monotone
    }

    /// A copy of these tables back in the density domain, so every query
    /// re-enumerates its box — the seed's O(N)-per-query behaviour.
    /// Exists for the `search_scaling` bench and round-trip tests; the
    /// optimizer never uses it.
    pub fn definalized(&self) -> CostTables {
        CostTables {
            space: self.space.clone(),
            flops_per_copy: self.flops_per_copy,
            rrs: RrsTables {
                use_led: self.rrs.use_led.definalized(),
                stores_per_copy: self.rrs.stores_per_copy,
            },
            gss: self
                .gss
                .iter()
                .map(|(f, t)| (*f, t.definalized()))
                .collect(),
            registers: self.registers.iter().map(Table::definalized).collect(),
            siv: self.siv,
            registers_monotone: self.registers_monotone,
        }
    }
}

/// The one shared accumulation loop behind every table property test:
/// walks each offset of `space` once (tracking the running flat index,
/// so finalized queries can be cross-checked against their flat-index
/// variants) and asserts `got(u, flat) == want(u)`.
///
/// Both `tests` and `reg_table_tests` previously carried near-identical
/// copies of this walk; keeping it in one place means layout changes
/// land exactly once.
#[cfg(test)]
fn assert_counts_match(
    space: &UnrollSpace,
    label: &str,
    mut got: impl FnMut(&[u32], usize) -> i64,
    mut want: impl FnMut(&[u32]) -> i64,
) {
    let mut flat = 0usize;
    space.for_each_offset(|u| {
        assert_eq!(got(u, flat), want(u), "{label} mismatch at {u:?}");
        flat += 1;
    });
}

/// [`assert_counts_match`] for a [`Table`]'s `Sum` query, additionally
/// pinning `prefix_sum_flat` ≡ `prefix_sum` on finalized tables.
#[cfg(test)]
fn assert_table_matches(table: &Table, label: &str, want: impl FnMut(&[u32]) -> i64) {
    assert_counts_match(
        table.space(),
        label,
        |u, flat| {
            let sum = table.prefix_sum(u);
            if table.is_finalized() {
                assert_eq!(table.prefix_sum_flat(flat), sum, "{label} flat at {u:?}");
            }
            sum
        },
        want,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::{gss_count_at, gts_count_at, replacement_counts_at};
    use ujam_ir::NestBuilder;

    fn check_all_tables(nest: &LoopNest, loops: &[usize], bound: u32, line: i64) {
        let space = UnrollSpace::new(nest.depth(), loops, bound);
        let sets = UgsSet::partition(nest);
        for set in &sets {
            let gts = gts_table(set, &space);
            let gss = gss_table(set, &space, line);
            assert_table_matches(&gts, &format!("GTS for {}", set.array()), |u| {
                gts_count_at(set, &space, u, nest.depth()) as i64
            });
            assert_table_matches(&gss, &format!("GSS for {}", set.array()), |u| {
                gss_count_at(set, &space, u, nest.depth(), line) as i64
            });
        }
        let rrs = rrs_tables(nest, &space);
        assert_counts_match(
            &space,
            "loads",
            |u, flat| {
                assert_eq!(rrs.loads_flat(flat), rrs.loads(u), "flat loads at {u:?}");
                rrs.loads(u)
            },
            |u| replacement_counts_at(nest, &space, u).loads as i64,
        );
        assert_counts_match(
            &space,
            "stores",
            |u, _| rrs.stores(u),
            |u| replacement_counts_at(nest, &space, u).stores as i64,
        );
    }

    #[test]
    fn intro_loop_tables_match_analytic() {
        let nest = NestBuilder::new("intro")
            .array("A", &[840])
            .array("B", &[64])
            .loop_("J", 1, 840)
            .loop_("I", 1, 64)
            .stmt("A(J) = A(J) + B(I)")
            .build();
        check_all_tables(&nest, &[0], 6, 4);
    }

    #[test]
    fn stencil_tables_match_analytic() {
        let nest = NestBuilder::new("st")
            .array("A", &[70, 70])
            .array("B", &[70, 70])
            .loop_("J", 2, 49)
            .loop_("I", 2, 49)
            .stmt("B(I,J) = A(I,J-1) + A(I,J) + A(I,J+1) + A(I-1,J)")
            .build();
        check_all_tables(&nest, &[0], 6, 4);
    }

    #[test]
    fn matmul_two_loop_tables_match_analytic() {
        let nest = NestBuilder::new("mm")
            .array("A", &[64, 64])
            .array("B", &[64, 64])
            .array("C", &[64, 64])
            .loop_("J", 1, 24)
            .loop_("K", 1, 24)
            .loop_("I", 1, 24)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build();
        check_all_tables(&nest, &[0, 1], 3, 4);
    }

    #[test]
    fn strided_tables_match_analytic() {
        let nest = NestBuilder::new("strided")
            .array("A", &[200])
            .array("B", &[100, 100])
            .loop_("J", 1, 48)
            .loop_("I", 1, 48)
            .stmt("B(I,J) = A(2J-1) + A(2J+3)")
            .build();
        check_all_tables(&nest, &[0], 5, 8);
    }

    #[test]
    fn def_use_streams_tabulate() {
        let nest = NestBuilder::new("fwd")
            .array("A", &[70, 70])
            .array("B", &[70, 70])
            .loop_("J", 2, 49)
            .loop_("I", 2, 49)
            .stmt("A(I,J) = B(I,J) * 2.0")
            .stmt("B(I,J) = A(I,J-1) + A(I-1,J)")
            .build();
        check_all_tables(&nest, &[0], 4, 4);
    }

    #[test]
    fn cost_tables_queries_are_consistent() {
        let nest = NestBuilder::new("mm")
            .array("A", &[64, 64])
            .array("B", &[64, 64])
            .array("C", &[64, 64])
            .loop_("J", 1, 24)
            .loop_("K", 1, 24)
            .loop_("I", 1, 24)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build();
        let space = UnrollSpace::new(3, &[0, 1], 3);
        let ct = CostTables::build(&nest, &space, 4);
        assert!(ct.siv());
        assert_eq!(ct.flops(&[0, 0]), 2);
        assert_eq!(ct.flops(&[1, 1]), 8);
        // Unrolling improves the memory-op to flop ratio.
        let r0 = ct.memory_ops(&[0, 0]) as f64 / ct.flops(&[0, 0]) as f64;
        let r3 = ct.memory_ops(&[3, 3]) as f64 / ct.flops(&[3, 3]) as f64;
        assert!(r3 < r0, "unrolling must improve the op ratio: {r3} vs {r0}");
        // Registers grow with the unroll amounts.
        assert!(ct.registers(&[3, 3]) > ct.registers(&[0, 0]));
        // Cache lines per iteration grow, but slower than copies.
        let lines0 = ct.cache_lines(&[0, 0]);
        let lines3 = ct.cache_lines(&[3, 3]);
        assert!(lines3 < lines0 * 16.0);
    }
}

#[cfg(test)]
mod reg_table_tests {
    use super::*;
    use crate::streams::ugs_registers_at;
    use ujam_ir::NestBuilder;

    fn check_registers(nest: &ujam_ir::LoopNest, loops: &[usize], bound: u32) {
        let space = UnrollSpace::new(nest.depth(), loops, bound);
        for set in UgsSet::partition(nest) {
            let t = reg_table(&set, &space);
            super::assert_table_matches(&t, &format!("registers for {}", set.array()), |u| {
                ugs_registers_at(&set, &space, u, nest.depth()) as i64
            });
        }
        // And the whole-nest query agrees with the analytic evaluator.
        let ct = CostTables::build(nest, &space, 4);
        super::assert_counts_match(
            &space,
            "CostTables registers",
            |u, flat| {
                assert_eq!(ct.registers_flat(flat), ct.registers(u), "flat at {u:?}");
                ct.registers(u)
            },
            |u| streams::replacement_counts_at(nest, &space, u).registers as i64,
        );
    }

    #[test]
    fn stencil_reads_use_the_region_path() {
        // Def-free pairwise merges along the unrolled loop: the closed
        // form applies.
        let nest = NestBuilder::new("st")
            .array("A", &[70, 70])
            .array("B", &[70, 70])
            .loop_("J", 2, 49)
            .loop_("I", 2, 49)
            .stmt("B(I,J) = A(I,J-1) + A(I,J) + A(I,J+1) + A(I-1,J)")
            .build();
        check_registers(&nest, &[0], 6);
    }

    #[test]
    fn reductions_and_defs_fall_back_exactly() {
        let nest = NestBuilder::new("fwd")
            .array("A", &[70, 70])
            .array("B", &[70, 70])
            .loop_("J", 2, 49)
            .loop_("I", 2, 49)
            .stmt("A(I,J) = B(I,J) * 2.0")
            .stmt("B(I,J) = A(I,J-1) + A(I-1,J)")
            .build();
        check_registers(&nest, &[0], 4);
    }

    #[test]
    fn invariant_and_jacobi_cases() {
        let intro = NestBuilder::new("intro")
            .array("A", &[840])
            .array("B", &[64])
            .loop_("J", 1, 840)
            .loop_("I", 1, 64)
            .stmt("A(J) = A(J) + B(I)")
            .build();
        check_registers(&intro, &[0], 6);

        let jacobi = NestBuilder::new("jacobi")
            .array("A", &[52, 52])
            .array("B", &[52, 52])
            .loop_("J", 2, 49)
            .loop_("I", 2, 49)
            .stmt("B(I,J) = 0.25 * (A(I-1,J) + A(I+1,J) + A(I,J-1) + A(I,J+1))")
            .build();
        check_registers(&jacobi, &[0], 5);
    }

    #[test]
    fn two_loop_spaces_match() {
        let nest = NestBuilder::new("mm")
            .array("A", &[64, 64])
            .array("B", &[64, 64])
            .array("C", &[64, 64])
            .loop_("J", 1, 24)
            .loop_("K", 1, 24)
            .loop_("I", 1, 24)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build();
        check_registers(&nest, &[0, 1], 3);
    }
}

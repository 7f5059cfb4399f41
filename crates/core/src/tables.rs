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
//! (line chains, reverse providers, mixed-sign merges, provider
//! switches, and distinct copy offsets that give the same copy),
//! construction falls back to exact tabulation: one sweep per set over
//! the unroll box ([`streams::ugs_registers_sums`] and its siblings)
//! yields every `Sum` value, stored directly ([`Table::from_sums`]) —
//! see DESIGN.md §5.
//!
//! The register table ([`reg_table`]) has five paths: the closed form;
//! the GTS table for invariant sets (one register per stream); and,
//! inside the sweep, zero for all-def sets, a sweep over the live loops
//! only for def-free sets with self-merge loops, and the full sweep for
//! the rest.
//!
//! Every family reads one merge analysis per (set, space), built before
//! any table by one scan of the set's member pairs: the path flags
//! (invariant, chained, distinct copies, mixed-sign merges, merges from
//! above, self-merge loops) and one memo of exact merge solves keyed by
//! the pair difference `Δc`, so a delta that recurs across pairs or
//! families is solved once.  The GSS family's spatial solves build their
//! sub-system (the rows of `H` below the first) once per table.
//!
//! Every table this module returns is **finalized** (a summed-area
//! table), so each `prefix_sum` query downstream is a single lookup.
//! [`CostTables`] answers the search by offset with
//! [`CostTables::inputs`], which indexes the offset once for every
//! table; [`CostTables::cache_lines`] and [`CostTables::registers`]
//! read its fields.

use crate::space::{Table, UnrollSpace};
use crate::streams;
use crate::BalanceInputs;
use std::collections::HashMap;
use ujam_ir::LoopNest;
use ujam_linalg::{solve_unique, Mat, SolveOutcome};
use ujam_reuse::{centered_mod, group_spatial_sets, leader_lines, Localized, UgsSet};

/// The merge analysis of one UGS over one unroll space: the exact merge
/// solves of its member pairs and the flags that pick each table
/// family's construction path.  Built once per set by
/// [`CostTables::build_with_sets`] (and by each public per-family
/// builder), before any table, and read by every family.
struct SetPaths<'s> {
    set: &'s UgsSet,
    space: &'s UnrollSpace,
    /// `H`'s live columns: the unrolled loops and the innermost loop,
    /// all-zero columns dropped (they are unconstrained and take 0).
    live: Vec<usize>,
    /// Exact solves of `H·x = Δ` over `live` ([`merge_solve`]), keyed by
    /// `Δ`: `c_m − c_j` for the member pairs the scan in
    /// [`SetPaths::classify`] reached; one solve fills both orders of a
    /// pair.
    solves: HashMap<Vec<i64>, Option<(Vec<i64>, i64)>>,
    /// Innermost-invariant: every stream is hoisted.
    invariant: bool,
    /// An unrolled loop drives the first (contiguous) subscript: its
    /// copies walk along cache lines in *chains*.
    chained: bool,
    /// Distinct live-loop offsets always give distinct copies: the live
    /// columns are linearly independent, so the zero delta has a unique
    /// solve.  Columns with disjoint nonzero rows — every separable SIV
    /// set — are independent without a solve.  When false, every up-set
    /// construction over-counts, and each table takes its sweep.
    copies_distinct: bool,
    /// A merge offset above in one unrolled loop and below in another:
    /// the shared stream lies in both boxes and neither up-set removes
    /// it, so every up-set construction sweeps.
    mixed_sign: bool,
    /// A mixed-sign merge, or a *reverse provider* — a reference whose
    /// copy at a strictly higher unroll offset touches the shared cells
    /// strictly earlier.  Either makes absorption depend on the query
    /// box, so the RRS and register tables sweep (DESIGN.md §5).  An
    /// invariant set's innermost components are all zero, so it never
    /// has a reverse provider.
    from_above: bool,
    /// Offsets at which *every* copy coincides with an earlier copy of
    /// itself: the unit vectors of unrolled loops whose `H` column is
    /// zero (the reference ignores that loop, so unrolling duplicates it).
    self_points: Vec<Vec<u32>>,
}

impl<'s> SetPaths<'s> {
    /// Classifies `set` over `space` with one scan of its member pairs:
    /// for `m` as a candidate provider of `j`, the solve is over
    /// `c_m − c_j`, and its unroll part locates the provider copy at
    /// `u' − x` (negative components = above).  The scan stops once both
    /// flags are settled: at the first mixed-sign merge, which sets both
    /// and sends every family that reads the solves to its sweep, or,
    /// with fewer than two live unrolled loops (no merge can be mixed),
    /// at the first reverse provider, which sends the RRS and register
    /// tables to theirs.  Sets whose copies are not distinct sweep
    /// everywhere and skip it.
    fn classify(set: &'s UgsSet, space: &'s UnrollSpace) -> SetPaths<'s> {
        let h = set.h();
        let inner = space.depth() - 1;
        let live: Vec<usize> = space
            .loops()
            .iter()
            .chain([&inner])
            .copied()
            .filter(|&c| (0..h.rows()).any(|r| h[(r, c)] != 0))
            .collect();
        let mut solves: HashMap<Vec<i64>, Option<(Vec<i64>, i64)>> = HashMap::new();
        let neg = |v: &[i64]| v.iter().map(|a| -a).collect::<Vec<i64>>();
        // Solves and memoizes `delta`, and `−delta` with it (`H·(−x) =
        // −delta`); answers whether the partner copy sits above in some
        // unrolled loop, below in some, and the innermost component.
        let mut solve = |delta: Vec<i64>| {
            if !solves.contains_key(&delta) {
                let x = merge_solve(h, &live, space, &delta);
                solves.insert(neg(&delta), x.as_ref().map(|(u, i)| (neg(u), -i)));
                solves.insert(delta.clone(), x);
            }
            let (x, inner_val) = solves[&delta].as_ref()?;
            Some((
                x.iter().any(|&v| v < 0),
                x.iter().any(|&v| v > 0),
                *inner_val,
            ))
        };
        let disjoint = (0..h.rows()).all(|r| live.iter().filter(|&&c| h[(r, c)] != 0).count() <= 1);
        let copies_distinct = disjoint || solve(vec![0; h.rows()]).is_some();
        let (mut mixed_sign, mut from_above) = (false, false);
        if copies_distinct {
            // Members sharing `c` share every delta, and the solve of
            // `c_m − c_j` is minus that of `c_j − c_m`: each unordered
            // pair of distinct `c` answers both orders.
            let mut cs: Vec<&[i64]> = set.members().iter().map(|m| &m.c[..]).collect();
            cs.sort_unstable();
            cs.dedup();
            // A mixed-sign merge needs two live unrolled loops; without
            // them the first reverse provider settles both flags.
            let may_mix = space.loops().iter().filter(|l| live.contains(l)).count() >= 2;
            'scan: for (k, cm) in cs.iter().enumerate() {
                for cj in &cs[..k] {
                    let Some((above, below, inner_val)) = solve(diff(cm, cj)) else {
                        continue;
                    };
                    if above && below {
                        (mixed_sign, from_above) = (true, true);
                        break 'scan;
                    }
                    from_above |= (above && inner_val > 0) || (below && inner_val < 0);
                    if from_above && !may_mix {
                        break 'scan;
                    }
                }
            }
        }
        SetPaths {
            set,
            space,
            solves,
            invariant: !live.contains(&inner),
            chained: space.loops().iter().any(|&l| h[(0, l)] != 0),
            copies_distinct,
            mixed_sign,
            from_above,
            self_points: (0..space.dims())
                .filter(|&d| !live.contains(&space.loops()[d]))
                .map(|d| {
                    let mut e = vec![0u32; space.dims()];
                    e[d] = 1;
                    e
                })
                .collect(),
            live,
        }
    }

    /// The exact merge solve `H·x = c_m − c_j` of two members, from the
    /// scan's memo; a pair the scan did not reach (it stops once both
    /// flags are settled) is solved here, unmemoized.
    fn solve(&self, cm: &[i64], cj: &[i64]) -> Option<(Vec<i64>, i64)> {
        let delta = diff(cm, cj);
        match self.solves.get(&delta) {
            Some(hit) => hit.clone(),
            None => merge_solve(self.set.h(), &self.live, self.space, &delta),
        }
    }
}

/// The exact merge solve `H·x = delta` over the live columns `live` of
/// `H`: `x`'s unroll components (any sign) and its innermost component,
/// when the solution is unique and integral.
fn merge_solve(
    h: &Mat,
    live: &[usize],
    space: &UnrollSpace,
    delta: &[i64],
) -> Option<(Vec<i64>, i64)> {
    let SolveOutcome::Unique(x) = solve_unique(h, delta, live) else {
        return None;
    };
    let at = |c: usize| live.iter().position(|&l| l == c).map_or(0, |p| x[p]);
    Some((
        space.loops().iter().map(|&l| at(l)).collect(),
        at(space.depth() - 1),
    ))
}

/// `a − b`, component-wise: the right-hand side of a merge solve.
fn diff(a: &[i64], b: &[i64]) -> Vec<i64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// A solve's unroll components as a merge point: `Some` when none is
/// negative and at least one is positive (the partner copy sits at a
/// dominated offset).
fn merge_point(x: &[i64]) -> Option<Vec<u32>> {
    if x.iter().all(|&v| v == 0) {
        return None;
    }
    x.iter().map(|&v| u32::try_from(v).ok()).collect()
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
    gts_table_in(&SetPaths::classify(set, space))
}

/// [`gts_table`] over the set's merge analysis: by up-set unions, each
/// group's copies stop being new once their offset dominates a merge
/// point; tabulated from [`streams::gts_count_at`] when copies are not
/// distinct or a merge offset is mixed-sign.
fn gts_table_in(path: &SetPaths) -> Table {
    let (set, space) = (path.set, path.space);
    let depth = space.depth();
    if !path.copies_distinct || path.mixed_sign {
        let mut sums = Vec::with_capacity(space.len());
        space.for_each_offset(|u| sums.push(streams::gts_count_at(set, space, u, depth) as i64));
        return Table::from_sums(space.clone(), sums);
    }
    let groups = streams::original_streams(set, depth);
    let mut t = Table::filled(space.clone(), groups.len() as i64);
    for (j, gj) in groups.iter().enumerate() {
        let cj = &set.members()[gj[0].0].c;
        let mut points = path.self_points.clone();
        for (i, gi) in groups.iter().enumerate() {
            if i != j {
                let ci = &set.members()[gi[0].0].c;
                if let Some((x, _)) = path.solve(cj, ci) {
                    points.extend(merge_point(&x));
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
    gss_table_in(&SetPaths::classify(set, space), line_elems)
}

/// [`gss_table`] over the set's merge analysis.
fn gss_table_in(path: &SetPaths, line_elems: i64) -> Table {
    assert!(line_elems >= 1, "cache line must hold at least one element");
    let (set, space) = (path.set, path.space);
    let depth = space.depth();
    let h = set.h();
    let inner = depth - 1;

    // Line *chains*: an unrolled loop that drives the first (contiguous)
    // subscript walks copies along cache lines, and the greedy leader walk
    // over the combined value stream does not decompose into up-sets;
    // nor do copies that distinct offsets share.  Tabulate such sets
    // exactly with one sweep over the unroll box, storing the counts as
    // already-finalized sums so the prefix-sum interface (and its O(1)
    // query cost) is preserved.
    if path.chained || !path.copies_distinct {
        return Table::from_sums(
            space.clone(),
            streams::gss_count_sums(set, space, line_elems),
        );
    }

    let l = Localized::innermost(depth);
    let groups = group_spatial_sets(set, &l, line_elems);
    let mut t = Table::filled(space.clone(), groups.len() as i64);

    // The rows below the first and their live columns, shared by every
    // spatial solve of this set.
    let sub_rows: Vec<&[i64]> = (1..h.rows()).map(|r| h.row(r)).collect();
    let sub = Mat::from_rows(&sub_rows);
    let sub_live: Vec<usize> = space
        .loops()
        .iter()
        .chain([&inner])
        .copied()
        .filter(|&c| (0..sub.rows()).any(|r| sub[(r, c)] != 0))
        .collect();
    let mut memo: HashMap<Vec<i64>, Option<Vec<u32>>> = HashMap::new();
    for (j, gj) in groups.iter().enumerate() {
        let cj = &set.members()[gj[0]].c;
        let mut points = path.self_points.clone();
        for (i, gi) in groups.iter().enumerate() {
            if i == j {
                continue;
            }
            let delta = diff(cj, &set.members()[gi[0]].c);
            let point = memo.entry(delta).or_insert_with_key(|d| {
                spatial_merge_point(h, &sub, &sub_live, d, space, line_elems)
            });
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

/// The spatial merge point: rows below the first (`sub`, whose live
/// columns are `sub_live`) close exactly over (unrolled ∪ innermost), the
/// first row up to a residue `< line`.
fn spatial_merge_point(
    h: &Mat,
    sub: &Mat,
    sub_live: &[usize],
    delta: &[i64],
    space: &UnrollSpace,
    line_elems: i64,
) -> Option<Vec<u32>> {
    if h.rows() == 0 {
        return Some(vec![0; space.dims()]);
    }
    let x = match solve_unique(sub, &delta[1..], sub_live) {
        SolveOutcome::Unique(x) => x,
        SolveOutcome::Underdetermined => vec![0; sub_live.len()],
        _ => return None,
    };
    let mut point = vec![0u32; space.dims()];
    for (k, &l) in space.loops().iter().enumerate() {
        if let Some(p) = sub_live.iter().position(|&c| c == l) {
            point[k] = u32::try_from(x[p]).ok()?;
        }
    }
    // First-row residue: localized loops appearing (only) in row 0 can
    // absorb part of the difference.
    let mut residual = delta[0];
    for (p, &c) in sub_live.iter().enumerate() {
        residual -= h[(0, c)] * x[p];
    }
    // A free unrolled loop in row 0: pick the smallest non-negative copy
    // distance that brings the residue within the line.  The search is
    // per-dimension bounded — with heterogeneous bounds a distance only
    // counts if this loop's own axis can reach it.
    for (d, &l) in space.loops().iter().enumerate() {
        let a = h[(0, l)];
        if a == 0 || sub_live.contains(&l) {
            continue;
        }
        let chosen =
            (0..=space.bounds()[d] as i64).find(|&xl| (residual - a * xl).abs() < line_elems)?;
        point[d] = chosen as u32;
        residual -= a * chosen;
    }
    // A free innermost loop in row 0 reduces the residue modulo |a|.
    let inner = space.depth() - 1;
    let a_in = h[(0, inner)];
    if a_in != 0 && !sub_live.contains(&inner) {
        residual = centered_mod(residual, a_in.abs());
    }
    (residual.abs() < line_elems).then_some(point)
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
    rrs_tables_in(&paths, space)
}

/// [`rrs_tables_from`] over the sets' merge analyses.  Every closed-form
/// leader writes its up-set union into one density table, finalized
/// once; swept sets add their sums after.
fn rrs_tables_in(paths: &[SetPaths], space: &UnrollSpace) -> RrsTables {
    let mut use_led = Table::filled(space.clone(), 0);
    let mut leaders = 0i64;
    let mut swept = Vec::new();
    let mut stores_per_copy = 0i64;

    for path in paths {
        let set = path.set;
        if path.invariant {
            // Invariant UGS: every stream is hoisted.
            continue;
        }
        // Defs always store, regardless of merging.
        stores_per_copy += set.members().iter().filter(|m| m.is_def).count() as i64;

        // A merge "from above" makes absorption depend on the query box,
        // not just the copy offset, so the up-set region algorithm
        // cannot express it.  Tabulate such sets exactly, directly in
        // the `Sum` domain, as well as sets whose distinct offsets share
        // copies.
        if !path.copies_distinct || path.from_above {
            swept.push(Table::from_sums(
                space.clone(),
                streams::ugs_loads_sums(set, space),
            ));
            continue;
        }

        let groups = streams::original_streams(set, space.depth());
        for (g_idx, g) in groups.iter().enumerate() {
            // The stream's first toucher (key desc, reference order asc)
            // leads it; a def-led stream loads nothing (its store was
            // counted above).
            let &(lead, _) = g
                .iter()
                .min_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)))
                .expect("non-empty stream");
            if set.members()[lead].is_def {
                continue;
            }
            // A use-led stream: one load per copy until absorbed.
            let cj = &set.members()[lead].c;
            let mut points = path.self_points.clone();
            for (i, gi) in groups.iter().enumerate() {
                if i == g_idx {
                    continue;
                }
                for &(m_idx, _) in gi {
                    // Solve H·x = c_m − c_j: the provider copy sits at
                    // `u' − x_unroll` and touches `x_inner` iterations
                    // earlier than the leader; it provides when it
                    // touches no later.
                    if let Some((x, inner_val)) = path.solve(&set.members()[m_idx].c, cj) {
                        if inner_val >= 0 {
                            points.extend(merge_point(&x));
                        }
                    }
                }
            }
            leaders += 1;
            use_led.add_upset_union(&points, -1);
        }
    }
    // Each use-led leader's copy at every offset (the up-set of the
    // origin) loads once, less the absorbed copies the unions removed.
    use_led.add_upset_union(&[vec![0; space.dims()]], leaders);
    use_led.finalize();
    for t in &swept {
        use_led.accumulate(t);
    }
    RrsTables {
        use_led,
        stores_per_copy,
    }
}

/// Figure 7: the register-pressure table `RL(u)` for one UGS, built with
/// the same per-offset region discipline as the other tables.
///
/// Each set takes the first of these exact paths that applies:
///
/// * **GTS** — an invariant set holds one register per stream, and an
///   invariant copy's stream signature is its `c`, so its register count
///   is its group-temporal set count: [`gts_table`], whose up-set union
///   is exact when distinct live-loop offsets give distinct copies and
///   no merge offset is mixed-sign.
/// * **Closed form** — def-free, non-invariant, chain-free sets without
///   self-merge loops whose merges are pairwise (each group has at most
///   one provider) and whose distinct offsets give distinct copies: the
///   common stencil-read case that actually drives register pressure.
/// * **Sweep** — everything else (defs re-splitting streams, line
///   chains, reverse providers, self-merge loops, provider switches,
///   offsets sharing copies, the paper's Figure 6) is tabulated exactly
///   in the `Sum` domain by
///   [`streams::ugs_registers_sums`], preserving the prefix-sum
///   interface.  That sweep returns zeros for an all-def set without
///   sweeping, and sweeps only the live-loop sub-box of a def-free set
///   with self-merge loops.
pub fn reg_table(set: &UgsSet, space: &UnrollSpace) -> Table {
    reg_table_in(&SetPaths::classify(set, space))
}

/// [`reg_table`] over the set's merge analysis.
fn reg_table_in(path: &SetPaths) -> Table {
    let (set, space) = (path.set, path.space);

    if path.invariant && path.copies_distinct && !path.mixed_sign {
        return gts_table_in(path);
    }

    // Invariant sets, sets with defs, row-0 unrolled loops (chains),
    // self-merging sets, offsets sharing copies, reverse providers or
    // mixed-sign merges: sweep.
    if path.invariant
        || set.members().iter().any(|m| m.is_def)
        || path.chained
        || !path.self_points.is_empty()
        || !path.copies_distinct
        || path.from_above
    {
        return Table::from_sums(space.clone(), streams::ugs_registers_sums(set, space));
    }

    // Streams with their touch keys, leaders first (key descending).
    let groups = streams::original_streams(set, space.depth());
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
    for (j, sj) in infos.iter().enumerate() {
        for (i, si) in infos.iter().enumerate() {
            if i == j {
                continue;
            }
            // Provider below and earlier-or-equal in touch order.
            let Some((x, inner_val)) = path.solve(&si.c, &sj.c) else {
                continue;
            };
            if let Some(point) = merge_point(&x).filter(|_| inner_val >= 0) {
                merges.push(Merge {
                    j,
                    i,
                    point,
                    shift: -inner_val,
                });
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
        return Table::from_sums(space.clone(), streams::ugs_registers_sums(set, space));
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
        let paths: Vec<SetPaths> = sets
            .iter()
            .map(|set| SetPaths::classify(set, space))
            .collect();
        let gss = paths
            .iter()
            .map(|path| {
                let f = leader_lines(path.set.h(), &l, line_elems);
                (f, gss_table_in(path, line_elems))
            })
            .collect();
        let rrs = rrs_tables_in(&paths, space);
        let registers: Vec<Table> = paths.iter().map(reg_table_in).collect();
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

    /// The candidate's balance inputs at `u` — [`CostTables::flops`],
    /// [`CostTables::memory_ops`], [`CostTables::cache_lines`] and
    /// [`CostTables::registers`] at once, with the offset indexed and its
    /// copies counted once.  This is what the search reads per candidate.
    #[inline]
    pub fn inputs(&self, u: &[u32]) -> BalanceInputs {
        let idx = self.space.index(u);
        let copies = self.space.copies(u);
        let rrs = &self.rrs;
        BalanceInputs {
            flops: (self.flops_per_copy * copies) as f64,
            memory_ops: (rrs.use_led.sum_at(u, idx) + rrs.stores_per_copy * copies as i64) as f64,
            cache_lines: self
                .gss
                .iter()
                .map(|(f, t)| f * t.sum_at(u, idx) as f64)
                .sum(),
            registers: self.registers.iter().map(|t| t.sum_at(u, idx)).sum(),
        }
    }

    /// Floating-point operations per unrolled iteration.
    pub fn flops(&self, u: &[u32]) -> usize {
        self.flops_per_copy * self.space.copies(u)
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
        self.inputs(u).cache_lines
    }

    /// Floating-point registers required by scalar replacement (`R(u)`).
    pub fn registers(&self, u: &[u32]) -> i64 {
        self.inputs(u).registers
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
/// walks each offset of `space` once and asserts `got(u) == want(u)`.
#[cfg(test)]
fn assert_counts_match(
    space: &UnrollSpace,
    label: &str,
    mut got: impl FnMut(&[u32]) -> i64,
    mut want: impl FnMut(&[u32]) -> i64,
) {
    space.for_each_offset(|u| assert_eq!(got(u), want(u), "{label} mismatch at {u:?}"));
}

/// [`assert_counts_match`] for a [`Table`]'s `Sum` query.
#[cfg(test)]
fn assert_table_matches(table: &Table, label: &str, want: impl FnMut(&[u32]) -> i64) {
    assert_counts_match(table.space(), label, |u| table.prefix_sum(u), want);
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
            |u| rrs.loads(u),
            |u| replacement_counts_at(nest, &space, u).loads as i64,
        );
        assert_counts_match(
            &space,
            "stores",
            |u| rrs.stores(u),
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

    /// `A(I) = A(I) + B(K,I+J)` with `J` unrolled: `B`'s `J` and `I`
    /// columns are parallel, so the copy at `J` offset 1 is the original
    /// stream shifted by one `I` iteration — distinct offsets, one
    /// stream.
    pub(super) fn parallel_columns() -> LoopNest {
        NestBuilder::new("par")
            .array("A", &[70])
            .array("B", &[70, 140])
            .loop_("J", 1, 48)
            .loop_("K", 1, 48)
            .loop_("I", 1, 48)
            .stmt("A(I) = A(I) + B(K,I+J)")
            .build()
    }

    /// `B(J,K)` and `B(J+1,K-1)` merge at the mixed-sign offset (1,−1).
    pub(super) fn skew() -> LoopNest {
        NestBuilder::new("skew")
            .array("A", &[70, 70])
            .array("B", &[70, 70])
            .loop_("J", 2, 48)
            .loop_("K", 2, 48)
            .loop_("I", 2, 48)
            .stmt("A(I,J) = A(I,J) + B(J,K) + B(J+1,K-1)")
            .build()
    }

    /// `B(J+K)`: the copies at (1,0) and (0,1) coincide.
    pub(super) fn diag() -> LoopNest {
        NestBuilder::new("diag")
            .array("A", &[70])
            .array("B", &[140])
            .loop_("J", 1, 48)
            .loop_("K", 1, 48)
            .loop_("I", 1, 48)
            .stmt("A(I) = A(I) + B(J+K)")
            .build()
    }

    #[test]
    fn sets_whose_distinct_offsets_share_copies_tabulate_exactly() {
        check_all_tables(&parallel_columns(), &[0], 3, 4);
        check_all_tables(&skew(), &[0, 1], 2, 4);
        check_all_tables(&diag(), &[0, 1], 2, 4);
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
        // `inputs` is the four queries at once, on finalized and
        // definalized tables alike.
        for t in [&ct, &ct.definalized()] {
            space.for_each_offset(|u| {
                let i = t.inputs(u);
                assert_eq!(i.flops, ct.flops(u) as f64, "flops at {u:?}");
                assert_eq!(i.memory_ops, ct.memory_ops(u) as f64, "memory ops at {u:?}");
                assert_eq!(i.cache_lines, ct.cache_lines(u), "cache lines at {u:?}");
                assert_eq!(i.registers, ct.registers(u), "registers at {u:?}");
            });
        }
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
            |u| ct.registers(u),
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
    fn invariant_sets_whose_gts_union_overcounts_sweep() {
        // skew: at u = (1,1) both boxes hold B(J+1,K), which neither
        // up-set removes.  diag: no merge solve is unique.
        check_registers(&super::tests::skew(), &[0, 1], 2);
        check_registers(&super::tests::diag(), &[0, 1], 2);
    }

    #[test]
    fn sets_whose_distinct_offsets_share_streams_sweep() {
        check_registers(&super::tests::parallel_columns(), &[0], 3);
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

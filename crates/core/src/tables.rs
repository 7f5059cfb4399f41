//! The precomputed unroll tables of Carr & Guan (Figures 2–5, §4.2–§4.4).
//!
//! Each table is indexed by *copy offset* `u'` and holds the number of new
//! groups the copy at that offset contributes; the value of the tabulated
//! quantity after unrolling by `u` is the prefix sum over the box
//! `[0, u]` (the paper's `Sum`, Figure 2).  Construction counts *leaders*:
//! the merge solve `H·(x, x_in) = c_i − c_j` over the unrolled loops plus
//! the innermost loop puts group `i`'s copy at `u' − x` in the merge class
//! of group `j`'s copy at `u'`.  When distinct offsets give distinct
//! copies, a class holds at most one copy per group, and the family's
//! order picks its one leader (earliest offset for GTS and GSS, first
//! toucher for RRS).  A copy is new in the box `[0, u]` unless the
//! partner of a shift that beats it lies in the box — for non-negative
//! shifts, the paper's merge points and previous-superleader
//! bookkeeping; of any sign, one corner write per subset of the shifts,
//! up to a cap of 12 shifts.
//!
//! Scope: like the paper (§3.5, §5), the closed-form table construction
//! targets **separable SIV** references; [`CostTables::siv`] reports
//! whether a nest qualifies.  Where leader counting does not hold (copies
//! that distinct offsets share, GSS line chains and non-transitive
//! spatial relations, shift sets past the cap), construction
//! tabulates exactly instead: one sweep per set over the unroll box
//! ([`streams::gss_count_sums`] and its siblings) yields every `Sum`
//! value, stored directly ([`Table::from_sums`]) — see DESIGN.md §5.
//!
//! The register table ([`reg_table`]) has two constructions: the GTS
//! table for invariant sets (one register per stream), and for every
//! other set one sweep ([`streams::ugs_registers_sums`]), which returns
//! zero for all-def sets and sweeps only the live loops of def-free sets
//! with self-merge loops.
//!
//! Every family reads one merge analysis per (set, space), built before
//! any table with no pair scan: the shape flags (invariant, chained,
//! distinct copies, self-merge loops) and one memo of exact merge solves
//! keyed by the pair difference `Δc`, filled as the families ask, so a
//! delta that recurs across pairs or families is solved once.  Each solve
//! reads one integer elimination of `H` over the set's live columns
//! ([`ujam_linalg::Factored`]), made at the set's first solve, so a
//! further delta costs one product and a back-substitution; a set that
//! makes no solve eliminates nothing.  The GSS family's spatial solves
//! eliminate their sub-system (the rows of `H` below the first) the same
//! way, at most once per table.
//!
//! Every table this module returns holds its `Sum` values (a summed-area
//! table), so each `prefix_sum` query downstream is a single lookup.
//! [`CostTables`] answers the search by offset with
//! [`CostTables::inputs`], which indexes the offset once for every
//! table; [`CostTables::cache_lines`] and [`CostTables::registers`]
//! read its fields.

use crate::space::{Table, UnrollSpace};
use crate::streams;
use crate::BalanceInputs;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use ujam_ir::LoopNest;
use ujam_linalg::{Factored, SolveOutcome};
use ujam_reuse::{centered_mod, group_spatial_sets, leader_lines, Localized, UgsSet};

/// A merge solve's unroll part and its innermost component.
type Solve = (Vec<i64>, i64);

/// The merge analysis of one UGS over one unroll space: the set's shape
/// flags and a memo of its exact merge solves, filled as the table
/// families ask.  Built once per set by [`CostTables::build_with_sets`]
/// (and by each public per-family builder), before any table, and read
/// by every family.
struct SetPaths<'s> {
    set: &'s UgsSet,
    space: &'s UnrollSpace,
    /// `H`'s live columns: the unrolled loops and the innermost loop,
    /// all-zero columns dropped (they are unconstrained and take 0).
    live: Vec<usize>,
    /// `H` over `live`, eliminated at the set's first merge solve and
    /// read by every later one; a set that makes no solve never builds it.
    system: OnceCell<Factored>,
    /// Exact solves of `H·x = Δ` over `live` ([`SetPaths::solve`]), keyed
    /// by `Δ = c_m − c_j`, filled on first request.
    solves: RefCell<HashMap<Vec<i64>, Option<Solve>>>,
    /// Innermost-invariant: every stream is hoisted.
    invariant: bool,
    /// An unrolled loop drives the first (contiguous) subscript: its
    /// copies walk along cache lines in *chains*, so the GSS table sweeps.
    chained: bool,
    /// Distinct live-loop offsets always give distinct copies: the live
    /// columns are linearly independent, so the zero delta has a unique
    /// solve.  Columns with disjoint nonzero rows — every separable SIV
    /// set — are independent without a solve.  Then a merge class holds
    /// at most one copy of each group and is counted by its one leader;
    /// when false, every family sweeps.
    copies_distinct: bool,
    /// Offsets at which *every* copy coincides with an earlier copy of
    /// itself: the unit vectors of unrolled loops whose `H` column is
    /// zero (the reference ignores that loop, so unrolling duplicates it).
    /// Every group is beaten by these shifts.
    self_points: Vec<Vec<i64>>,
}

impl<'s> SetPaths<'s> {
    /// Classifies `set` over `space`: the live columns and the shape
    /// flags, with at most one solve (the zero delta, when the live
    /// columns share a row).
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
        let disjoint = (0..h.rows()).all(|r| live.iter().filter(|&&c| h[(r, c)] != 0).count() <= 1);
        let mut path = SetPaths {
            set,
            space,
            solves: RefCell::default(),
            invariant: !live.contains(&inner),
            chained: space.loops().iter().any(|&l| h[(0, l)] != 0),
            copies_distinct: true,
            self_points: (0..space.dims())
                .filter(|&d| !live.contains(&space.loops()[d]))
                .map(|d| {
                    let mut e = vec![0i64; space.dims()];
                    e[d] = 1;
                    e
                })
                .collect(),
            live,
            system: OnceCell::new(),
        };
        let zero = vec![0; h.rows()];
        path.copies_distinct = disjoint || path.solve(&zero, &zero).is_some();
        path
    }

    /// The exact merge solve `H·x = c_m − c_j` of two members over the
    /// live columns: `x`'s unroll components (any sign) and its innermost
    /// component, when the solution is unique and integral.  Memoized
    /// with its negation (`H·(−x) = c_j − c_m`).
    fn solve(&self, cm: &[i64], cj: &[i64]) -> Option<Solve> {
        let delta = diff(cm, cj);
        if let Some(hit) = self.solves.borrow().get(&delta) {
            return hit.clone();
        }
        let h = self.set.h();
        let system = self
            .system
            .get_or_init(|| Factored::new(h, 0..h.rows(), &self.live));
        let x: Option<Solve> = match system.solve(&delta) {
            SolveOutcome::Unique(x) => {
                let at = |c: usize| self.live.iter().position(|&l| l == c).map_or(0, |p| x[p]);
                let inner = at(self.space.depth() - 1);
                Some((self.space.loops().iter().map(|&l| at(l)).collect(), inner))
            }
            _ => None,
        };
        let neg = |v: &[i64]| v.iter().map(|a| -a).collect::<Vec<i64>>();
        let mut solves = self.solves.borrow_mut();
        solves.insert(neg(&delta), x.as_ref().map(|(u, i)| (neg(u), -i)));
        solves.insert(delta, x.clone());
        x
    }

    /// The shifts that beat the copies of the group led by `cj`: the
    /// self points, and for each other group lead `ci` the unroll part
    /// `x` of the solve `H·(x, x_in) = c_i − c_j` when `beats(x, x_in)`.
    /// The partner copy of `ci` at `u' − x` is then in `cj`'s copy's
    /// merge class, its lead `x_in` innermost iterations ahead.
    fn beating(
        &self,
        cj: &[i64],
        leads: &[&[i64]],
        beats: impl Fn(&[i64], i64) -> bool,
    ) -> Vec<Vec<i64>> {
        let mut shifts = self.self_points.clone();
        for &ci in leads {
            if ci != cj {
                if let Some((x, x_in)) = self.solve(ci, cj) {
                    if beats(&x, x_in) {
                        shifts.push(x);
                    }
                }
            }
        }
        shifts
    }
}

/// `a − b`, component-wise: the right-hand side of a merge solve.
fn diff(a: &[i64], b: &[i64]) -> Vec<i64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Whether `x`'s first nonzero component is positive: the copy at
/// `u' − x` sits at a lexicographically earlier offset than `u'`, so the
/// jammed body emits it first.
fn lex_positive(x: &[i64]) -> bool {
    x.iter().find(|&&v| v != 0).is_some_and(|&v| v > 0)
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

/// [`gts_table`] over the set's merge analysis: each original stream's
/// copy counts while it leads its merge class, beaten by the
/// lexicographically positive shifts (the partner copy sits earlier in
/// the body); tabulated from [`streams::gts_count_at`] when copies are
/// not distinct or a group's shift set is past the cap.
fn gts_table_in(path: &SetPaths) -> Table {
    let (set, space) = (path.set, path.space);
    let depth = space.depth();
    let leads: Vec<&[i64]> = streams::original_streams(set, depth)
        .iter()
        .map(|g| &set.members()[g[0].0].c[..])
        .collect();
    let beaten = |cj: &&[i64]| path.beating(cj, &leads, |x, _| lex_positive(x));
    let closed = path
        .copies_distinct
        .then(|| Table::from_leaders(space, leads.iter().map(beaten)));
    closed.flatten().unwrap_or_else(|| {
        let mut sums = Vec::with_capacity(space.len());
        space.for_each_offset(|u| sums.push(streams::gts_count_at(set, space, u, depth) as i64));
        Table::from_sums(space.clone(), sums)
    })
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
///
/// Line *chains* (an unrolled loop that drives the first, contiguous
/// subscript walks copies along cache lines, and the greedy leader walk
/// over the combined value stream does not decompose into classes) and
/// copies that distinct offsets share are tabulated exactly with one
/// sweep over the unroll box, stored as its sums ([`Table::from_sums`]),
/// so the prefix-sum interface and its O(1) query are preserved.  So is a
/// set whose spatial relation is not transitive ([`spatial_leaders`]).
fn gss_table_in(path: &SetPaths, line_elems: i64) -> Table {
    assert!(line_elems >= 1, "cache line must hold at least one element");
    let (set, space) = (path.set, path.space);
    let closed = (!path.chained && path.copies_distinct).then(|| spatial_leaders(path, line_elems));
    closed.flatten().unwrap_or_else(|| {
        Table::from_sums(
            space.clone(),
            streams::gss_count_sums(set, space, line_elems),
        )
    })
}

/// The GSS table by leader counting, when the greedy leader walk counts
/// classes: `None` when the innermost loop walks a member's copies along
/// lines, when the spatial relation of the set's members is not
/// transitive, or when a group's shift set is past the cap.
///
/// Members `a`, `b` are related with shift `x_ab` when the rows of `H`
/// below the first close `c_b − c_a` exactly over (unrolled ∪
/// innermost), with unroll part `x_ab`, and the first row leaves a
/// residue under a line: `a`'s copy at `u'` is then related to `b`'s at
/// `u' − x_ab`.  The walk counts classes when, for related pairs
/// `(a, b)` and `(b, c)`, `(a, c)` is related with shift `x_ab + x_bc` —
/// always so when every related pair's residue is 0.  A tolerance chain
/// (residues −1 then +1 within a line of 2, say) breaks it.
fn spatial_leaders(path: &SetPaths, line_elems: i64) -> Option<Table> {
    let (set, space) = (path.set, path.space);
    let h = set.h();
    let inner = space.depth() - 1;
    // The rows below the first over their live columns, eliminated at the
    // first spatial solve and read by the rest.
    let sub_live: Vec<usize> = space
        .loops()
        .iter()
        .chain([&inner])
        .copied()
        .filter(|&c| (1..h.rows()).any(|r| h[(r, c)] != 0))
        .collect();
    let sub = OnceCell::new();
    let solve = |delta: &[i64]| {
        sub.get_or_init(|| Factored::new(h, 1..h.rows(), &sub_live))
            .solve(delta)
    };
    // An innermost loop in the first row whose column below it depends
    // on the unrolled loops' carries unrolled offsets into the first
    // subscript: a member's copies walk along lines, a chain.  Otherwise
    // (the set is neither chained nor sharing copies) the rows below the
    // first have full column rank, and every solve that exists is unique.
    let (a_in, free_inner) = (h[(0, inner)], !sub_live.contains(&inner));
    if a_in != 0 && !free_inner && !matches!(solve(&vec![0; h.rows() - 1]), SolveOutcome::Unique(_))
    {
        return None;
    }
    // Each distinct `c`, solved against the first `c` of its class (the
    // rows below the first close exactly, so solvability is an
    // equivalence): its class, the solve's unroll part `x` and the
    // first-row position `p` it leaves.  Members `a`, `b` of one class
    // then relate with shift `x_b − x_a` and residue `p_b − p_a`, so one
    // solve per member and class answers every pair.
    let mut cs: Vec<&[i64]> = set.members().iter().map(|m| &m.c[..]).collect();
    cs.sort_unstable();
    cs.dedup();
    let mut bases: Vec<&[i64]> = Vec::new();
    let mut placed: Vec<(usize, Vec<i64>, i64)> = Vec::with_capacity(cs.len());
    for &c in &cs {
        let found = bases.iter().enumerate().find_map(|(class, base)| {
            let delta = diff(c, base);
            let SolveOutcome::Unique(x) = solve(&delta[1..]) else {
                return None;
            };
            let p: i64 = delta[0]
                - sub_live
                    .iter()
                    .zip(&x)
                    .map(|(&l, v)| h[(0, l)] * v)
                    .sum::<i64>();
            let at = |l: &usize| sub_live.iter().position(|c| c == l).map_or(0, |k| x[k]);
            Some((class, space.loops().iter().map(at).collect(), p))
        });
        placed.push(found.unwrap_or_else(|| {
            bases.push(c);
            (bases.len() - 1, vec![0; space.dims()], 0)
        }));
    }
    let residue = |a: usize, b: usize| match placed[b].2 - placed[a].2 {
        r if free_inner && a_in != 0 => centered_mod(r, a_in.abs()),
        r => r,
    };
    let related =
        |a: usize, b: usize| placed[a].0 == placed[b].0 && residue(a, b).abs() < line_elems;
    let n = cs.len();
    let pairs = || (0..n).flat_map(|a| (0..n).map(move |b| (a, b)));
    if pairs().any(|(a, b)| related(a, b) && residue(a, b) != 0)
        && pairs().any(|(a, b)| related(a, b) && (0..n).any(|c| related(b, c) && !related(a, c)))
    {
        return None;
    }
    let l = Localized::innermost(space.depth());
    let leads: Vec<usize> = group_spatial_sets(set, &l, line_elems)
        .iter()
        .map(|g| {
            let c = &set.members()[g[0]].c[..];
            cs.binary_search(&c).expect("a member's c")
        })
        .collect();
    Table::from_leaders(
        space,
        leads.iter().map(|&j| {
            let mut shifts = path.self_points.clone();
            for &i in leads.iter().filter(|&&i| related(j, i)) {
                let x: Vec<i64> = placed[i]
                    .1
                    .iter()
                    .zip(&placed[j].1)
                    .map(|(p, q)| p - q)
                    .collect();
                if lex_positive(&x) {
                    shifts.push(x);
                }
            }
            shifts
        }),
    )
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
/// Each use-led register-reuse set issues one load per iteration for
/// every copy whose merge class holds no copy of an *earlier-touching*
/// reference (its provider) in the box; defs always keep their store.
/// Innermost-invariant streams are hoisted and issue nothing per
/// iteration.
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

/// [`rrs_tables_from`] over the sets' merge analyses: one use-led table
/// per set, by leader counting ([`use_leaders`]) or, when that declines
/// or the set's copies are not distinct, by one sweep
/// ([`streams::ugs_loads_sums`]), summed in the `Sum` domain.
fn rrs_tables_in(paths: &[SetPaths], space: &UnrollSpace) -> RrsTables {
    let mut use_led = Table::from_sums(space.clone(), vec![0; space.len()]);
    let mut stores_per_copy = 0i64;
    for path in paths {
        let set = path.set;
        if path.invariant {
            // Invariant UGS: every stream is hoisted.
            continue;
        }
        // Defs always store, regardless of merging.
        stores_per_copy += set.members().iter().filter(|m| m.is_def).count() as i64;
        let closed = path.copies_distinct.then(|| use_leaders(path));
        use_led.accumulate(&closed.flatten().unwrap_or_else(|| {
            Table::from_sums(space.clone(), streams::ugs_loads_sums(set, space))
        }));
    }
    RrsTables {
        use_led,
        stores_per_copy,
    }
}

/// The use-led table of one set whose copies are distinct: a merge
/// class loads once when its first toucher is a use.  Each original
/// stream is led by its first toucher (key descending, reference order
/// ascending), and a stream's copy leads its class unless another
/// stream's lead copy touches earlier: the solve of the two leads puts
/// that copy `x_in > 0` innermost iterations ahead, or level with it
/// (`x_in = 0`) at a lexicographically earlier offset.  Def-led streams
/// beat the others but load nothing (their store is counted apart).
fn use_leaders(path: &SetPaths) -> Option<Table> {
    let members = path.set.members();
    let leads: Vec<usize> = streams::original_streams(path.set, path.space.depth())
        .iter()
        .map(|g| {
            g.iter()
                .min_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)))
                .expect("non-empty stream")
                .0
        })
        .collect();
    let cs: Vec<&[i64]> = leads.iter().map(|&m| &members[m].c[..]).collect();
    let earlier = |x: &[i64], x_in: i64| x_in > 0 || (x_in == 0 && lex_positive(x));
    Table::from_leaders(
        path.space,
        leads
            .iter()
            .zip(&cs)
            .filter(|&(&m, _)| !members[m].is_def)
            .map(|(_, cj)| path.beating(cj, &cs, earlier)),
    )
}

/// Figure 7: the register-pressure table `RL(u)` for one UGS.
///
/// Each set takes one of two exact constructions:
///
/// * **GTS** — an invariant set holds one register per stream, and an
///   invariant copy's stream signature is its `c`, so its register count
///   is its group-temporal set count: [`gts_table`], by leader counting
///   whenever distinct live-loop offsets give distinct copies.
/// * **Sweep** — every other set is tabulated exactly in the `Sum`
///   domain by [`streams::ugs_registers_sums`], one sweep over the unroll
///   box that returns zeros for an all-def set without sweeping, and
///   sweeps only the live-loop sub-box of a def-free set with self-merge
///   loops.
pub fn reg_table(set: &UgsSet, space: &UnrollSpace) -> Table {
    reg_table_in(&SetPaths::classify(set, space))
}

/// [`reg_table`] over the set's merge analysis.
fn reg_table_in(path: &SetPaths) -> Table {
    if path.invariant && path.copies_distinct {
        return gts_table_in(path);
    }
    Table::from_sums(
        path.space.clone(),
        streams::ugs_registers_sums(path.set, path.space),
    )
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
            memory_ops: (rrs.use_led.sum_at(idx) + rrs.stores_per_copy * copies as i64) as f64,
            cache_lines: self.gss.iter().map(|(f, t)| f * t.sum_at(idx) as f64).sum(),
            registers: self.registers.iter().map(|t| t.sum_at(idx)).sum(),
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
        // `inputs` is the four queries at once.
        space.for_each_offset(|u| {
            let i = ct.inputs(u);
            assert_eq!(i.flops, ct.flops(u) as f64, "flops at {u:?}");
            assert_eq!(i.memory_ops, ct.memory_ops(u) as f64, "memory ops at {u:?}");
            assert_eq!(i.cache_lines, ct.cache_lines(u), "cache lines at {u:?}");
            assert_eq!(i.registers, ct.registers(u), "registers at {u:?}");
        });
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
    fn stencil_reads_match() {
        // Def-free pairwise merges along the unrolled loop.
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
    fn reductions_and_defs_match() {
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
    fn invariant_sets_with_mixed_sign_merges_or_shared_copies_match() {
        // skew: B(J,K) and B(J+1,K-1) merge at the mixed-sign shift
        // (1,−1), which leader counting covers.  diag: no merge solve is
        // unique, so the set sweeps.
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

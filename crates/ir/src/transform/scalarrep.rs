//! Scalar replacement (Callahan–Carr–Kennedy) restricted to innermost-loop
//! reuse, as assumed by the paper's balance model.
//!
//! # Model
//!
//! References to the same array with equal access matrix `H` whose constant
//! vectors differ by an integer multiple of `H`'s innermost column form one
//! *value stream*: they touch the same memory cells, offset by a fixed
//! number of innermost iterations.  Within a stream, references are ordered
//! by *touch time* (which reference sees a given cell first); walking that
//! order, a new *register-reuse set* (RRS) starts at every definition — a
//! def kills the flowing value, so later references read the def's value,
//! not the older one (paper §4.3, Figure 4).
//!
//! The transformation then:
//!
//! * keeps one load per use-led RRS (the *generator*) and replaces every
//!   other use with a register temporary,
//! * forwards stored values (`t = rhs; A(...) = t`) so uses downstream of a
//!   def read the register,
//! * hoists *innermost-invariant* streams entirely out of the loop —
//!   their loads and stores cost nothing per innermost iteration (the
//!   paper's "A(J) can be held in a register"),
//! * emits the register-rotation copies (`t2 = t1; t1 = t0`) that carry
//!   values across iterations.
//!
//! The emitted *body* is steady-state code — what the balance and register
//! models measure (the analysis is asymptotic, matching the paper's model).
//! Execution semantics are nonetheless preserved exactly: the transformation
//! attaches a prologue (priming loads that initialise the rotating
//! registers and invariant temporaries before the first innermost
//! iteration) and an epilogue (the hoisted stores that drain invariant
//! temporaries back to memory) to the nest, which the interpreter runs
//! once per innermost-loop instance.  Neither contributes to
//! [`ReplacementStats`]: their cost amortises to zero per iteration.

use crate::expr::Expr;
use crate::nest::{Lhs, LoopNest, RefId, RefInfo, Stmt};
use crate::subscript::ArrayRef;
use std::collections::{BTreeMap, HashMap};

/// Counts characterising a scalar-replaced innermost loop body.
///
/// All counts are per innermost iteration of the (possibly unrolled) loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplacementStats {
    /// Array loads remaining in the body.
    pub loads: usize,
    /// Array stores remaining in the body.
    pub stores: usize,
    /// Loads removed by replacement (excluding hoisted invariant loads).
    pub replaced_loads: usize,
    /// Loads belonging to innermost-invariant streams, hoisted out of the
    /// loop (amortised cost ≈ 0 per iteration).
    pub hoisted_loads: usize,
    /// Stores hoisted with their invariant stream.
    pub hoisted_stores: usize,
    /// Floating-point registers needed to hold the replaced values
    /// (the paper's `R(u)`; one per rotating temporary).
    pub registers: usize,
    /// Number of value streams (≈ register-reuse sets before unrolling).
    pub streams: usize,
}

impl ReplacementStats {
    /// Memory operations issued per iteration after replacement — the `M`
    /// of the loop-balance formula (§3.2).
    pub fn memory_ops(&self) -> usize {
        self.loads + self.stores
    }
}

/// Result of scalar replacement: the rewritten nest plus its statistics.
#[derive(Clone, Debug)]
pub struct ScalarReplaced {
    /// The transformed nest: steady-state body plus the priming
    /// prologue and draining epilogue that make it semantics-preserving.
    pub nest: LoopNest,
    /// Counts for the balance model.
    pub stats: ReplacementStats,
}

/// One reference's position within a stream.
#[derive(Clone, Debug)]
struct StreamRef {
    id: RefId,
    /// Touch-time key: iterations *earlier* than the stream's base this
    /// reference touches a fixed cell (larger = earlier).
    dist: i64,
    is_def: bool,
}

/// A group of references touching the same cells, offset along the
/// innermost loop.
#[derive(Clone, Debug)]
struct Stream {
    array: String,
    /// `true` when addresses do not depend on the innermost index.
    invariant: bool,
    /// Refs sorted by (dist descending, textual order ascending).
    refs: Vec<StreamRef>,
}

/// Performs scalar replacement on the innermost loop body.
///
/// # Example
///
/// ```
/// use ujam_ir::{NestBuilder, transform::scalar_replacement};
/// // DO J ; DO I ; A(J) = A(J) + B(I): A(J) is innermost-invariant.
/// let nest = NestBuilder::new("intro")
///     .array("A", &[64]).array("B", &[64])
///     .loop_("J", 1, 64).loop_("I", 1, 64)
///     .stmt("A(J) = A(J) + B(I)")
///     .build();
/// let r = scalar_replacement(&nest);
/// assert_eq!(r.stats.loads, 1);   // only B(I)
/// assert_eq!(r.stats.stores, 0);  // A(J) store hoisted
/// assert_eq!(r.stats.registers, 1);
/// ```
pub fn scalar_replacement(nest: &LoopNest) -> ScalarReplaced {
    let streams = build_streams(nest);
    let mut stats = ReplacementStats {
        streams: streams.len(),
        ..ReplacementStats::default()
    };

    let all_refs = nest.refs();
    let aref_of = |id: RefId| {
        all_refs
            .iter()
            .find(|r| r.id == id)
            .expect("stream refs come from nest.refs()")
            .aref
    };
    let depth = nest.depth();
    let inner = &nest.loops()[depth - 1];
    let (inner_lo, inner_step) = (inner.lower(), inner.step());
    // `aref` with the innermost index pinned to `value`: valid outside
    // the innermost loop.
    let keep_outer: Vec<Option<usize>> = (0..depth).map(|k| (k + 1 < depth).then_some(k)).collect();
    let pinned = |aref: &ArrayRef, value: i64| aref.remap(&keep_outer, Some((depth - 1, value)));
    // Statements bracketing each innermost-loop instance.
    let mut prologue: Vec<Stmt> = Vec::new();
    let mut epilogue: Vec<Stmt> = Vec::new();

    // Plan the rewrite: for each RefId, what happens to it.
    #[derive(Clone)]
    enum Action {
        /// Leave untouched.
        Keep,
        /// Use replaced by the named temporary.
        UseTemp(String),
        /// Def forwarded through the named temporary (`t = rhs; A = t`).
        DefForward(String),
        /// Def hoisted: statement becomes a scalar assignment to the temp.
        DefHoist(String),
    }
    let mut plan: HashMap<RefId, Action> = HashMap::new();
    // Rotation copies to append: (dst, src), emitted in dependency order.
    let mut rotations: Vec<(String, String)> = Vec::new();
    // Loads to prepend: (temp, RefId of the generator use).
    let mut gen_loads: Vec<(String, RefId)> = Vec::new();

    let mut temp_idx = 0usize;
    for stream in &streams {
        if stream.invariant {
            // Whole stream lives in one register across the innermost loop.
            let temp = format!("{}_inv{}", stream.array.to_lowercase(), temp_idx);
            temp_idx += 1;
            stats.registers += 1;
            for r in &stream.refs {
                if r.is_def {
                    stats.hoisted_stores += 1;
                    plan.insert(r.id, Action::DefHoist(temp.clone()));
                } else {
                    stats.hoisted_loads += 1;
                    plan.insert(r.id, Action::UseTemp(temp.clone()));
                }
            }
            // Prime the register before the loop and drain it after: the
            // invariant address is the same for every ref in the stream.
            let aref = pinned(aref_of(stream.refs[0].id), inner_lo);
            prologue.push(Stmt::assign_scalar(&temp, Expr::Ref(aref.clone())));
            if stream.refs.iter().any(|r| r.is_def) {
                epilogue.push(Stmt::assign(aref, Expr::Scalar(temp.clone())));
            }
            continue;
        }

        // Split into RRSs: a def starts a new set.
        let mut sets: Vec<Vec<&StreamRef>> = Vec::new();
        for r in &stream.refs {
            if r.is_def || sets.is_empty() {
                sets.push(vec![r]);
            } else {
                sets.last_mut().expect("just ensured non-empty").push(r);
            }
        }

        for set in sets {
            let leader = set[0];
            let members = &set[1..];
            if members.is_empty() {
                // A lone load or store: nothing to replace.
                plan.insert(leader.id, Action::Keep);
                if leader.is_def {
                    stats.stores += 1;
                } else {
                    stats.loads += 1;
                }
                continue;
            }
            let span =
                (leader.dist - members.iter().map(|m| m.dist).min().expect("non-empty")) as usize;
            let base = format!("{}_t{}", stream.array.to_lowercase(), temp_idx);
            temp_idx += 1;
            stats.registers += span + 1;
            if leader.is_def {
                stats.stores += 1;
                plan.insert(leader.id, Action::DefForward(format!("{base}_0")));
            } else {
                stats.loads += 1;
                gen_loads.push((format!("{base}_0"), leader.id));
                plan.insert(leader.id, Action::UseTemp(format!("{base}_0")));
            }
            for m in members {
                let k = (leader.dist - m.dist) as usize;
                debug_assert!(!m.is_def, "defs always lead their RRS");
                stats.replaced_loads += 1;
                plan.insert(m.id, Action::UseTemp(format!("{base}_{k}")));
            }
            for k in (1..=span).rev() {
                rotations.push((format!("{base}_{k}"), format!("{base}_{}", k - 1)));
            }
            // Prime the rotating registers: at the first iteration the
            // lag-k member reads the cell the generator touches k
            // iterations before the loop starts — load it from memory.
            let leader_aref = aref_of(leader.id);
            for k in 1..=span {
                let aref = pinned(leader_aref, inner_lo - k as i64 * inner_step);
                prologue.push(Stmt::assign_scalar(&format!("{base}_{k}"), Expr::Ref(aref)));
            }
        }
    }

    // Rewrite the body according to the plan.
    let mut out = nest.clone();
    let mut new_body: Vec<Stmt> = Vec::new();
    for (s_idx, stmt) in nest.body().iter().enumerate() {
        // Generator loads that must precede this statement.
        for (temp, id) in &gen_loads {
            if id.stmt == s_idx {
                let aref = stmt.refs()[id.pos].0.clone();
                new_body.push(Stmt::assign_scalar(temp, Expr::Ref(aref)));
            }
        }
        let mut stmt = stmt.clone();
        // Uses: walk refs in eval order, applying UseTemp actions.
        let mut pos = 0usize;
        stmt.rhs_mut().replace_refs(&mut |_r| {
            let action = plan.get(&RefId { stmt: s_idx, pos });
            pos += 1;
            match action {
                Some(Action::UseTemp(t)) => Some(t.clone()),
                _ => None,
            }
        });
        // Defs: the LHS is the last ref position.
        let def_pos = pos;
        match plan.get(&RefId {
            stmt: s_idx,
            pos: def_pos,
        }) {
            Some(Action::DefHoist(t)) => {
                let rhs = stmt.rhs().clone();
                new_body.push(Stmt::assign_scalar(t, rhs));
            }
            Some(Action::DefForward(t)) => {
                let rhs = stmt.rhs().clone();
                new_body.push(Stmt::assign_scalar(t, rhs));
                if let Lhs::Array(a) = stmt.lhs() {
                    new_body.push(Stmt::assign(a.clone(), Expr::Scalar(t.clone())));
                }
            }
            _ => new_body.push(stmt),
        }
    }
    for (dst, src) in rotations {
        new_body.push(Stmt::assign_scalar(&dst, Expr::Scalar(src)));
    }
    *out.body_mut() = new_body;
    out.prologue_mut().extend(prologue);
    out.epilogue_mut().extend(epilogue);

    ScalarReplaced { nest: out, stats }
}

/// Groups the nest's references into innermost value streams.
fn build_streams(nest: &LoopNest) -> Vec<Stream> {
    let depth = nest.depth();
    let refs = nest.refs();

    // Key streams by (array, H); then split by non-inner-column residue.
    let mut by_ugs: BTreeMap<(&str, &[i64]), Vec<RefInfo>> = BTreeMap::new();
    for r in refs {
        let key = (r.aref.array(), r.aref.access_matrix().0.as_slice());
        by_ugs.entry(key).or_default().push(r);
    }

    let mut streams = Vec::new();
    for ((array, _), set) in by_ugs {
        let inner_col: Vec<i64> = set[0].aref.access_matrix().0.col(depth - 1);
        let invariant = inner_col.iter().all(|&x| x == 0);
        // Partition the set into streams: two refs are in the same stream
        // iff c1 - c2 = d * inner_col for an integer d.
        type StreamGroup<'a> = (&'a [i64], Vec<(RefInfo<'a>, i64)>);
        let mut groups: Vec<StreamGroup> = Vec::new();
        'refs: for r in set {
            let c = r.aref.access_matrix().1;
            for (base_c, members) in groups.iter_mut() {
                if let Some(d) = inner_distance(c, base_c, &inner_col) {
                    members.push((r, d));
                    continue 'refs;
                }
            }
            groups.push((c, vec![(r, 0)]));
        }
        for (_, mut members) in groups {
            // Sort by touch time: larger d touches a given cell earlier.
            members.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.id.cmp(&b.0.id)));
            streams.push(Stream {
                array: array.to_string(),
                invariant,
                refs: members
                    .into_iter()
                    .map(|(r, d)| StreamRef {
                        id: r.id,
                        dist: d,
                        is_def: r.is_def,
                    })
                    .collect(),
            });
        }
    }
    streams
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::unroll_and_jam;
    use crate::NestBuilder;

    #[test]
    fn intro_example_matches_paper() {
        // §3.3: A(J) held in a register, B(I) loaded: balance 1 -> M = 1.
        let nest = NestBuilder::new("intro")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("J", 1, 64)
            .loop_("I", 1, 64)
            .stmt("A(J) = A(J) + B(I)")
            .build();
        let r = scalar_replacement(&nest);
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.stores, 0);
        assert_eq!(r.stats.hoisted_loads, 1);
        assert_eq!(r.stats.hoisted_stores, 1);
        assert_eq!(r.stats.memory_ops(), 1);
        assert_eq!(r.stats.registers, 1);
    }

    #[test]
    fn intro_example_after_unroll() {
        // After unrolling J by 1 (paper §3.3): two flops, one load.
        let nest = NestBuilder::new("intro")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("J", 1, 64)
            .loop_("I", 1, 64)
            .stmt("A(J) = A(J) + B(I)")
            .build();
        let u = unroll_and_jam(&nest, &[1, 0]).unwrap();
        let r = scalar_replacement(&u);
        // B(I) appears twice; the second load is replaced.
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.stores, 0);
        assert_eq!(r.stats.replaced_loads, 1);
        assert_eq!(u.flops_per_iter(), 2);
    }

    #[test]
    fn stencil_rotating_registers() {
        // A(I-1) reuses the load of A(I+1) two iterations later: 3 registers.
        let nest = NestBuilder::new("stencil")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("I", 2, 33)
            .stmt("B(I) = A(I+1) + A(I) + A(I-1)")
            .build();
        let r = scalar_replacement(&nest);
        assert_eq!(r.stats.loads, 1, "only A(I+1) loads");
        assert_eq!(r.stats.replaced_loads, 2);
        assert_eq!(r.stats.stores, 1, "B(I) stores");
        assert_eq!(r.stats.registers, 3);
        // Rotation copies appear in the body.
        let text = r.nest.to_string();
        assert!(text.contains("a_t0_2 = a_t0_1"), "{text}");
        assert!(text.contains("a_t0_1 = a_t0_0"), "{text}");
    }

    #[test]
    fn def_forwards_value_to_later_use() {
        // A(I) stored, A(I-1) read next iteration: store forwards, no load.
        let nest = NestBuilder::new("fwd")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("I", 2, 33)
            .stmt("A(I) = B(I) * 2.0")
            .stmt("B(I) = A(I-1)")
            .build();
        let r = scalar_replacement(&nest);
        // Loads: B(I) once (its own stream: B(I) use then B(I) def -> the
        // def kills; use leads its own RRS = 1 load). A(I-1) replaced.
        assert_eq!(r.stats.replaced_loads, 1);
        assert_eq!(r.stats.stores, 2); // A(I) and B(I) stores remain
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.registers, 2); // A stream spans 1 -> 2 regs
    }

    #[test]
    fn anti_direction_use_still_loads() {
        // Use A(I+1) reads cells before the def A(I) writes them: the use
        // keeps its load, the store stays.
        let nest = NestBuilder::new("anti")
            .array("A", &[64])
            .loop_("I", 1, 32)
            .stmt("A(I) = A(I+1) * 0.5")
            .build();
        let r = scalar_replacement(&nest);
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.stores, 1);
        assert_eq!(r.stats.replaced_loads, 0);
    }

    #[test]
    fn same_iteration_duplicate_loads_collapse() {
        let nest = NestBuilder::new("dup")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("I", 1, 32)
            .stmt("B(I) = A(I) * A(I)")
            .build();
        let r = scalar_replacement(&nest);
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.replaced_loads, 1);
        assert_eq!(r.stats.registers, 1);
    }

    #[test]
    fn distinct_streams_do_not_interfere() {
        // A(I) and A(I+N-ish offset in another dimension) are different
        // streams; B column accesses differ by outer index only.
        let nest = NestBuilder::new("cols")
            .array("A", &[64, 64])
            .array("B", &[64, 64])
            .loop_("J", 1, 16)
            .loop_("I", 1, 16)
            .stmt("A(I,J) = B(I,J) + B(I,J+1)")
            .build();
        let r = scalar_replacement(&nest);
        // B(I,J) and B(I,J+1) differ in the non-inner dimension: separate
        // streams, both load; the reuse between them is outer-loop reuse,
        // which only unroll-and-jam can expose.
        assert_eq!(r.stats.loads, 2);
        assert_eq!(r.stats.stores, 1);
        assert_eq!(r.stats.replaced_loads, 0);
        // After unrolling J by 1, B(I,J+1) merges with the copy B(I,J+1):
        let u = unroll_and_jam(&nest, &[1, 0]).unwrap();
        let r = scalar_replacement(&u);
        assert_eq!(r.stats.loads, 3); // B(I,J), B(I,J+1)=shared, B(I,J+2)
        assert_eq!(r.stats.replaced_loads, 1);
    }

    #[test]
    fn strided_stream_distance_uses_coefficient() {
        let nest = NestBuilder::new("stride")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("I", 2, 33)
            .stmt("B(I) = A(2I) + A(2I-2)")
            .build();
        let r = scalar_replacement(&nest);
        // Distance (2)/(2) = 1 iteration: replaced with 2 registers.
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.replaced_loads, 1);
        assert_eq!(r.stats.registers, 2);

        // Odd offset never coincides: two independent loads.
        let nest2 = NestBuilder::new("stride2")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("I", 2, 33)
            .stmt("B(I) = A(2I) + A(2I-1)")
            .build();
        let r2 = scalar_replacement(&nest2);
        assert_eq!(r2.stats.loads, 2);
        assert_eq!(r2.stats.replaced_loads, 0);
    }

    #[test]
    fn stats_match_transformed_body_counts() {
        let nest = NestBuilder::new("mixed")
            .array("A", &[64])
            .array("B", &[64])
            .array("C", &[64])
            .loop_("J", 1, 8)
            .loop_("I", 2, 33)
            .stmt("A(I) = B(I) + B(I-1) + C(J)")
            .stmt("C(J) = A(I) + A(I-1)")
            .build();
        let r = scalar_replacement(&nest);
        // Recount from the transformed body.
        let mut loads = 0;
        let mut stores = 0;
        for stmt in r.nest.body() {
            for (_, is_def) in stmt.refs() {
                if is_def {
                    stores += 1;
                } else {
                    loads += 1;
                }
            }
        }
        assert_eq!(loads, r.stats.loads, "body: {}", r.nest);
        assert_eq!(stores, r.stats.stores, "body: {}", r.nest);
    }
}

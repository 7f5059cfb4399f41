//! The dependence-based reuse analysis the paper replaces.
//!
//! Carr's earlier work (PACT'96, and Carr–Kennedy TOPLAS'94) derives memory
//! reuse from the dependence graph: a reference's loads are saved when an
//! *input or flow dependence* reaches it from another reference whose
//! distance vector lies within the localized loops.  The analysis is
//! correct, but it requires computing and storing the read–read (input)
//! dependence edges — the 84% of the graph that Table 1 shows to be dead
//! weight for every other phase of the compiler.
//!
//! This module exists as the baseline: `ujam-bench` shows it produces the
//! same cache-cost estimates as the UGS analysis on the paper's loop class
//! while the graph it consumes is ~5–10× larger.

use crate::locality::Localized;
use ujam_dep::{DepGraph, Dist};
use ujam_ir::{LoopNest, RefId};

/// Cache lines fetched per innermost iteration, derived from the dependence
/// graph (input dependences included) instead of uniformly generated sets.
///
/// A reference is a *follower* — it rides another reference's line stream —
/// when an input/flow dependence with a localized, consistent (exact)
/// distance vector reaches it from a distinct reference.  Leaders pay by
/// their self reuse: `0` if a localized self dependence revisits the
/// element, `1/line` if the innermost walk is unit-stride, else a full
/// line.
pub fn dep_cache_cost(nest: &LoopNest, graph: &DepGraph, l: &Localized, line_elems: i64) -> f64 {
    let refs = nest.refs();
    let mut cost = 0.0;
    for r in &refs {
        if is_follower(graph, r.id, l) {
            continue;
        }
        // Leader: self-temporal via a localized self dependence?  The
        // realization must be *nonzero* in the localized loops (a zero
        // self-distance is the access itself, not reuse).
        let self_temporal = graph
            .edges()
            .iter()
            .any(|e| e.src == r.id && e.dst == r.id && localized_reuse(&e.dist, l, true))
            || invariant_in_localized(r.aref, l);
        if self_temporal {
            continue;
        }
        // Self-spatial: unit stride in the contiguous dimension along some
        // localized loop, and no localized loop in the other dimensions.
        cost += if spatial_leader(r.aref, l) {
            1.0 / line_elems as f64
        } else {
            1.0
        };
    }
    cost
}

/// `true` if some *other* reference provides this one's data through an
/// input or flow dependence localized in `l`.
fn is_follower(graph: &DepGraph, id: RefId, l: &Localized) -> bool {
    graph.edges().iter().any(|e| {
        e.dst == id
            && e.src != id
            // Any dependence kind brings the line into the cache — a store
            // rides the line its earlier companion touched just as a load
            // does.
            && (localized_reuse(&e.dist, l, true) || e.src < e.dst)
            // The provider must genuinely come first, or the symmetric
            // edges between identical references would make *every* copy a
            // follower and nobody would pay for the line: either the reuse
            // is carried (strictly positive localized distance) or the
            // provider precedes textually within the iteration.
            && localized_reuse(&e.dist, l, false)
    })
}

/// `true` if the constraint vector admits a realization with every
/// non-localized component zero.  With `require_nonzero`, at least one
/// localized component must additionally be realizable as nonzero (the
/// self-reuse case).
fn localized_reuse(dist: &[Dist], l: &Localized, require_nonzero: bool) -> bool {
    let mut nonzero_possible = false;
    for (i, d) in dist.iter().enumerate() {
        match (l.contains(i), d) {
            (true, Dist::Exact(k)) => nonzero_possible |= *k != 0,
            (true, Dist::Any) => nonzero_possible = true,
            (false, Dist::Exact(0)) | (false, Dist::Any) => {}
            (false, Dist::Exact(_)) => return false,
        }
    }
    !require_nonzero || nonzero_possible
}

/// `true` if the reference's address ignores every localized loop.
fn invariant_in_localized(aref: &ujam_ir::ArrayRef, l: &Localized) -> bool {
    let (h, _) = aref.access_matrix();
    l.loops()
        .iter()
        .all(|&col| (0..h.rows()).all(|r| h[(r, col)] == 0))
}

/// `true` if the reference walks the contiguous dimension with some
/// localized loop while the other dimensions ignore the localized loops.
fn spatial_leader(aref: &ujam_ir::ArrayRef, l: &Localized) -> bool {
    let (h, _) = aref.access_matrix();
    if h.rows() == 0 {
        return false;
    }
    l.loops()
        .iter()
        .any(|&col| h[(0, col)] != 0 && (1..h.rows()).all(|r| h[(r, col)] == 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::nest_cache_cost;
    use ujam_ir::NestBuilder;

    /// On the paper's loop class, the dependence-based and UGS analyses
    /// agree — that is the point of §5.2 ("the uniformly generated set
    /// model ... gives the same performance improvement as the dependence
    /// based model").
    #[test]
    fn agrees_with_ugs_cost_on_kernels() {
        let kernels = [
            (
                "intro",
                NestBuilder::new("intro")
                    .array("A", &[64])
                    .array("B", &[64])
                    .loop_("J", 1, 16)
                    .loop_("I", 1, 16)
                    .stmt("A(J) = A(J) + B(I)")
                    .build(),
            ),
            (
                "jki-matmul",
                NestBuilder::new("jki")
                    .array("A", &[64, 64])
                    .array("B", &[64, 64])
                    .array("C", &[64, 64])
                    .loop_("J", 1, 16)
                    .loop_("K", 1, 16)
                    .loop_("I", 1, 16)
                    .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
                    .build(),
            ),
            (
                "stencil",
                NestBuilder::new("st")
                    .array("A", &[66, 66])
                    .array("B", &[66, 66])
                    .loop_("J", 1, 16)
                    .loop_("I", 1, 16)
                    .stmt("B(I,J) = A(I,J) + A(I+1,J) + A(I-1,J)")
                    .build(),
            ),
        ];
        for (name, nest) in kernels {
            let l = Localized::innermost(nest.depth());
            let g = DepGraph::build(&nest);
            let dep = dep_cache_cost(&nest, &g, &l, 8);
            let ugs = nest_cache_cost(&nest, &l, 8);
            assert!(
                (dep - ugs).abs() < 1e-9,
                "{name}: dep-based {dep} != UGS {ugs}"
            );
        }
    }

    #[test]
    fn follower_detection_uses_input_dependences() {
        let nest = NestBuilder::new("pair")
            .array("A", &[66])
            .array("B", &[66])
            .loop_("I", 2, 17)
            .stmt("B(I) = A(I) + A(I-1)")
            .build();
        let g = DepGraph::build(&nest);
        let l = Localized::innermost(1);
        // A(I-1) rides A(I)'s stream: only A(I) and B(I) pay 1/8 each.
        assert!((dep_cache_cost(&nest, &g, &l, 8) - 0.25).abs() < 1e-9);
    }
}

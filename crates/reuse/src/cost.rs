//! Equation 1: memory (cache-line) cost of uniformly generated sets.

use crate::group::group_spatial_sets;
use crate::locality::{has_self_spatial, has_self_temporal, Localized};
use crate::ugs::UgsSet;
use ujam_ir::LoopNest;
use ujam_linalg::Mat;

/// The number of *cache lines fetched per innermost iteration* by one
/// uniformly generated set, given a localized iteration space and a cache
/// line of `line_elems` array elements — the paper's Equation 1.
///
/// The set is partitioned into group-spatial sets; each GSS fetches lines
/// through its leader:
///
/// * self-temporal reuse within `L` → the leader revisits the same element:
///   `0` lines per iteration (amortised `1/trip`);
/// * self-spatial reuse within `L` → the leader walks along a cache line:
///   `1/line` per iteration;
/// * otherwise → a fresh line every iteration: `1`.
///
/// Followers (group-temporal and group-spatial members) ride the leader's
/// line stream and contribute nothing.
///
/// # Example
///
/// ```
/// use ujam_ir::NestBuilder;
/// use ujam_reuse::{ugs_cost, Localized, UgsSet};
/// let nest = NestBuilder::new("sweep")
///     .array("A", &[66, 66])
///     .loop_("J", 1, 64).loop_("I", 1, 64)
///     .stmt("A(I,J) = A(I,J) * 2.0")
///     .build();
/// let sets = UgsSet::partition(&nest);
/// let l = Localized::innermost(nest.depth());
/// // Column-major sweep: one GSS with self-spatial reuse: 1/8 lines/iter.
/// assert_eq!(ugs_cost(&sets[0], &l, 8), 0.125);
/// ```
pub fn ugs_cost(ugs: &UgsSet, l: &Localized, line_elems: i64) -> f64 {
    let g_s = group_spatial_sets(ugs, l, line_elems).len();
    g_s as f64 * leader_lines(ugs.h(), l, line_elems)
}

/// Cache lines one group-spatial leader with access matrix `h` fetches
/// per innermost iteration within `L`: `0` with self-temporal reuse,
/// `1/line` with self-spatial reuse, else `1` (see [`ugs_cost`]).
pub fn leader_lines(h: &Mat, l: &Localized, line_elems: i64) -> f64 {
    if has_self_temporal(h, l) {
        0.0
    } else if has_self_spatial(h, l) {
        1.0 / line_elems as f64
    } else {
        1.0
    }
}

/// Total cache lines fetched per innermost iteration by the whole nest:
/// Equation 1 summed over every uniformly generated set.
///
/// This is the `p` of the balance formula (§3.2): the prefetches (or
/// misses) each iteration must cover.
pub fn nest_cache_cost(nest: &LoopNest, l: &Localized, line_elems: i64) -> f64 {
    UgsSet::partition(nest)
        .iter()
        .map(|u| ugs_cost(u, l, line_elems))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_ir::NestBuilder;

    #[test]
    fn invariant_set_costs_nothing() {
        // A(J) under innermost-I localization: temporal reuse, cost 0.
        let nest = NestBuilder::new("inv")
            .array("A", &[64])
            .array("B", &[64])
            .loop_("J", 1, 16)
            .loop_("I", 1, 16)
            .stmt("A(J) = A(J) + B(I)")
            .build();
        let sets = UgsSet::partition(&nest);
        let l = Localized::innermost(2);
        let a = sets.iter().find(|s| s.array() == "A").expect("A");
        let b = sets.iter().find(|s| s.array() == "B").expect("B");
        assert_eq!(ugs_cost(a, &l, 8), 0.0);
        // B(I): unit stride along innermost I: spatial, 1/8.
        assert_eq!(ugs_cost(b, &l, 8), 0.125);
        assert_eq!(nest_cache_cost(&nest, &l, 8), 0.125);
    }

    #[test]
    fn column_vs_row_order_matmul() {
        // C(I,J) = C(I,J) + A(I,K)*B(K,J) with I innermost: A spatial,
        // B invariant, C spatial.
        let jki = NestBuilder::new("jki")
            .array("A", &[64, 64])
            .array("B", &[64, 64])
            .array("C", &[64, 64])
            .loop_("J", 1, 16)
            .loop_("K", 1, 16)
            .loop_("I", 1, 16)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build();
        let l = Localized::innermost(3);
        let cost_jki = nest_cache_cost(&jki, &l, 8);
        // 1/8 (A) + 0 (B invariant) + 1/8 (C): 0.25.
        assert!((cost_jki - 0.25).abs() < 1e-12);

        // Same computation with K innermost: A walks a row (stride N): full
        // line per iteration; B walks a column: spatial; C invariant.
        let jik = NestBuilder::new("jik")
            .array("A", &[64, 64])
            .array("B", &[64, 64])
            .array("C", &[64, 64])
            .loop_("J", 1, 16)
            .loop_("I", 1, 16)
            .loop_("K", 1, 16)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build();
        let cost_jik = nest_cache_cost(&jik, &l, 8);
        assert!((cost_jik - (1.0 + 0.125 + 0.0)).abs() < 1e-12);
        assert!(cost_jik > cost_jki, "jki has better locality than jik");
    }

    #[test]
    fn unrolling_localization_reduces_cost() {
        // B(I,J) + B(I,J+1): under innermost localization two GSSs walk the
        // same data; localizing J (as unroll-and-jam by >=1 would) merges
        // them.
        let nest = NestBuilder::new("pair")
            .array("A", &[66, 66])
            .array("B", &[66, 66])
            .loop_("J", 1, 16)
            .loop_("I", 1, 16)
            .stmt("A(I,J) = B(I,J) + B(I,J+1)")
            .build();
        let inner = Localized::innermost(2);
        let both = Localized::with_unrolled(2, &[0]);
        let b = UgsSet::partition(&nest)
            .into_iter()
            .find(|s| s.array() == "B")
            .expect("B");
        assert_eq!(ugs_cost(&b, &inner, 8), 0.25, "two spatial streams");
        assert_eq!(ugs_cost(&b, &both, 8), 0.125, "merged into one stream");
    }

    #[test]
    fn no_reuse_costs_full_line_per_iteration() {
        // A(J,I) in a (J,I) nest: innermost I strides by 64 elements.
        let nest = NestBuilder::new("row")
            .array("A", &[64, 64])
            .loop_("J", 1, 16)
            .loop_("I", 1, 16)
            .stmt("A(J,I) = A(J,I) * 0.5")
            .build();
        let l = Localized::innermost(2);
        assert_eq!(nest_cache_cost(&nest, &l, 8), 1.0);
    }
}

//! Randomized property tests for the summed-area `Table`: on arbitrary
//! spaces of up to 5 dimensions, the finalized O(1) `prefix_sum` must
//! agree with the naive box enumeration (which is exactly what a raw, un-finalized table
//! computes), the density `get` must survive finalization, and
//! `definalized` must round-trip back to the raw contents.  The
//! degenerate shapes — length-one boxes and the zero-dimensional space —
//! are checked exhaustively.

use ujam_core::{Table, UnrollSpace};
use ujam_rng::Rng;

fn random_space(rng: &mut Rng) -> UnrollSpace {
    let dims = rng.int(1, 5) as usize;
    // Small per-dimension bounds keep the naive oracle (O(N) per query,
    // O(N^2) per sweep) fast while still covering volumes up to 5^5.
    let bounds: Vec<u32> = (0..dims).map(|_| rng.int(0, 4) as u32).collect();
    let loops: Vec<usize> = (0..dims).collect();
    UnrollSpace::with_bounds(dims + 1, &loops, &bounds)
}

fn random_point(rng: &mut Rng, space: &UnrollSpace, slack: i64) -> Vec<u32> {
    space
        .bounds()
        .iter()
        .map(|&b| rng.int(0, b as i64 + slack) as u32)
        .collect()
}

/// Builds a random raw table from a base fill, point writes, and up-set
/// unions — including out-of-box union points, which the frontier
/// writer must drop exactly like the naive membership scan did.  Up to
/// 16 seed points per union; most land outside the box or are
/// dominated, so the dense fallback is left to its unit test in
/// `space.rs`.
fn random_table(rng: &mut Rng, space: &UnrollSpace) -> Table {
    let mut t = Table::filled(space.clone(), rng.int(-3, 3));
    for _ in 0..rng.int(0, 6) {
        let p = random_point(rng, space, 0);
        t.add(&p, rng.int(-5, 5));
    }
    for _ in 0..rng.int(0, 5) {
        let k = rng.int(1, 16) as usize;
        let points: Vec<Vec<u32>> = (0..k).map(|_| random_point(rng, space, 2)).collect();
        t.add_upset_union(&points, rng.int(-4, 4));
    }
    t
}

#[test]
fn finalized_prefix_sum_matches_naive_box_enumeration() {
    let mut rng = Rng::new(0x5a77_ab1e);
    for case in 0..64 {
        let space = random_space(&mut rng);
        let raw = random_table(&mut rng, &space);
        let mut sat = raw.clone();
        sat.finalize();
        space.for_each_offset(|u| {
            assert_eq!(
                sat.prefix_sum(u),
                raw.prefix_sum(u),
                "case {case}: Sum({u:?}) over bounds {:?}",
                space.bounds()
            );
            assert_eq!(sat.get(u), raw.get(u), "case {case}: density at {u:?}");
        });
    }
    // Degenerate shapes, exhaustively rather than by chance: every-axis-
    // length-one boxes (dims 1–5) and the zero-dimensional space, where
    // every query collapses to a single cell.
    let mut degenerate: Vec<UnrollSpace> = (1..=5)
        .map(|dims| {
            let loops: Vec<usize> = (0..dims).collect();
            UnrollSpace::with_bounds(dims + 1, &loops, &vec![0; dims])
        })
        .collect();
    degenerate.push(UnrollSpace::with_bounds(1, &[], &[]));
    for space in degenerate {
        assert_eq!(space.len(), 1);
        let zero = vec![0u32; space.dims()];
        let mut t = Table::filled(space.clone(), 7);
        t.add_upset_union(std::slice::from_ref(&zero), 2);
        t.finalize();
        assert_eq!(
            (t.get(&zero), t.prefix_sum(&zero)),
            (9, 9),
            "dims {}",
            space.dims()
        );
    }
}

#[test]
fn definalize_round_trips_every_random_table() {
    let mut rng = Rng::new(0xd00d_f00d);
    for case in 0..32 {
        let space = random_space(&mut rng);
        let raw = random_table(&mut rng, &space);
        let mut sat = raw.clone();
        sat.finalize();
        let back = sat.definalized();
        assert!(!back.is_finalized());
        space.for_each_offset(|u| {
            assert_eq!(back.get(u), raw.get(u), "case {case}: density at {u:?}");
            assert_eq!(
                back.prefix_sum(u),
                raw.prefix_sum(u),
                "case {case}: Sum({u:?})"
            );
        });
    }
}

//! The seeded unroll spaces the table tests draw.

use ujam::core::UnrollSpace;
use ujam::ir::LoopNest;
use ujam_rng::Rng;

/// Largest per-loop bound drawn for a space of `k` unrolled loops (the
/// oracles re-materialise every box, so the boxes stay small).
const MAX_BOUND: [i64; 3] = [7, 4, 2];

/// One space per dimensionality `k = 0..=min(3, depth − 1)` — `k`
/// distinct random outer loops, each with its own random bound — then
/// one cache line size (in elements) per space.
pub fn spaces(nest: &LoopNest, rng: &mut Rng) -> Vec<(UnrollSpace, i64)> {
    let outer = nest.depth() - 1;
    let spaces: Vec<UnrollSpace> = (0..=outer.min(3))
        .map(|k| {
            let mut loops: Vec<usize> = (0..outer).collect();
            rng.shuffle(&mut loops);
            loops.truncate(k);
            let bounds: Vec<u32> = (0..k)
                .map(|_| rng.int(0, MAX_BOUND[k - 1]) as u32)
                .collect();
            UnrollSpace::with_bounds(nest.depth(), &loops, &bounds)
        })
        .collect();
    spaces
        .into_iter()
        .map(|space| (space, *rng.choose(&[1i64, 2, 4, 8])))
        .collect()
}

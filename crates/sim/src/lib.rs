//! Execution-time estimation for loop nests on modelled machines.
//!
//! This crate is the reproduction's stand-in for the paper's DEC Alpha and
//! HP PA-RISC workstations (§5.2, Figures 8–9): it runs a loop nest
//! through
//!
//! 1. **scalar replacement** — to know the steady-state memory operations,
//!    flops and register pressure of the innermost body,
//! 2. an **initiation-interval model** — `II = max(ResMII, RecMII)`, the
//!    software-pipelining bound a good backend achieves on these machines,
//! 3. a **cache simulation** of the nest's full reference trace through
//!    the machine's set-associative cache,
//!
//! and combines them into a cycle estimate
//!
//! ```text
//! cycles = II·iterations + (C_m − C_h)·misses + hoisted-op cycles
//! ```
//!
//! Absolute numbers are not the point (the paper's were wall-clock seconds
//! on 1990s hardware); ratios between variants of the same loop are, and
//! those depend only on the effects unroll-and-jam manipulates: op mix,
//! register reuse, and locality.
//!
//! # Example
//!
//! ```
//! use ujam_ir::NestBuilder;
//! use ujam_machine::MachineModel;
//! use ujam_sim::simulate;
//!
//! let nest = NestBuilder::new("sweep")
//!     .array("A", &[64, 64])
//!     .loop_("J", 1, 64).loop_("I", 1, 64)
//!     .stmt("A(I,J) = A(I,J) * 2.0")
//!     .build();
//! let r = simulate(&nest, &MachineModel::dec_alpha());
//! assert!(r.cycles > 0.0);
//! assert_eq!(r.iterations, 64 * 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod listsched;
mod profile;
pub mod reuse;
mod schedule;

pub use cache::{Access, Cache};
pub use profile::{
    profile_nest, profile_nest_with_geometry, ArrayReuse, CacheGeometry, ReuseReport,
    REPORT_VERSION,
};
pub use schedule::{rec_mii, res_mii};

use std::collections::BTreeMap;
use ujam_dep::DepGraph;
use ujam_ir::transform::scalar_replacement;
use ujam_ir::{LoopNest, Stmt};
use ujam_machine::MachineModel;

/// The outcome of simulating one nest on one machine.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Estimated total cycles.
    pub cycles: f64,
    /// Innermost initiation interval (cycles per iteration).
    pub ii: f64,
    /// Innermost iterations executed.
    pub iterations: i64,
    /// Data-cache misses over the whole nest.
    pub misses: u64,
    /// Data-cache accesses over the whole nest.
    pub accesses: u64,
}

impl SimReport {
    /// Cache miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Simulates a nest: initiation interval from the scalar-replaced body,
/// misses from the full reference trace, cycles from both.
///
/// Pass the nest *before* scalar replacement (e.g. straight out of
/// `unroll_and_jam`); replacement is applied internally for the schedule
/// while the cache sees the complete access stream.
pub fn simulate(nest: &LoopNest, machine: &MachineModel) -> SimReport {
    let replaced = scalar_replacement(nest);
    let graph = DepGraph::build(nest);
    let flops = nest.flops_per_iter();
    let ii = res_mii(&replaced.stats, flops, machine)
        .max(rec_mii(nest, &graph, machine))
        .max(1.0);

    let (misses, accesses) = trace_cache(nest, machine);
    let iterations = nest.iterations();
    let inner_trip = nest.loops().last().expect("non-empty nest").trip_count();
    let outer_iters = (iterations / inner_trip.max(1)) as f64;
    let hoisted_ops =
        (replaced.stats.hoisted_loads + replaced.stats.hoisted_stores) as f64 * outer_iters;

    // Software prefetching hides misses up to the issue bandwidth over the
    // loop's compute time (§3.2's serviced prefetches; §6's future-work
    // architecture).  Machines without prefetch (b = 0) pay for every miss.
    let prefetch_slots = machine.prefetch_bandwidth() * ii * iterations as f64;
    let unhidden = (misses as f64 - prefetch_slots).max(0.0);

    let cycles = ii * iterations as f64
        + (machine.miss_penalty() - machine.hit_cost()) * unhidden
        + hoisted_ops / machine.mem_rate();
    SimReport {
        cycles,
        ii,
        iterations,
        misses,
        accesses,
    }
}

/// Padding between arrays in the simulated address space.
const GUARD_BYTES: i64 = 4096;
/// All modelled elements are doubles.
pub(crate) const ELEM_BYTES: i64 = 8;

/// Lays the nest's arrays out consecutively with guard gaps so small
/// out-of-extent ghost accesses stay distinct and deterministic.
/// Returns each array's base byte address.  Shared by the cycle
/// simulator's cache trace and the reuse profiler, so both see the same
/// addresses.
pub(crate) fn address_layout(nest: &LoopNest) -> BTreeMap<String, i64> {
    let mut bases = BTreeMap::new();
    let mut next: i64 = GUARD_BYTES;
    for a in nest.arrays() {
        bases.insert(a.name().to_string(), next);
        next += a.len() * ELEM_BYTES + 2 * GUARD_BYTES;
    }
    bases
}

/// Runs the nest's reference trace through the machine's cache.
fn trace_cache(nest: &LoopNest, machine: &MachineModel) -> (u64, u64) {
    let bases = address_layout(nest);
    let mut cache = Cache::for_machine(machine);
    let mut iter = vec![0; nest.depth()];
    walk(nest, 0, &mut iter, &mut |stmt, iter| {
        for (aref, _is_def) in stmt.refs() {
            let decl = nest.array(aref.array()).expect("validated nest");
            let sub = aref.eval(iter);
            let addr = bases[aref.array()] + decl.linearize(&sub) * ELEM_BYTES;
            cache.access(u64::try_from(addr.max(0)).expect("address fits"));
        }
    });
    (cache.misses(), cache.accesses())
}

/// Depth-first walk of the iteration space invoking `f` per statement
/// with the iteration vector (one index per loop, outermost first).
fn walk<'a>(
    nest: &'a LoopNest,
    level: usize,
    iter: &mut [i64],
    f: &mut impl FnMut(&'a Stmt, &[i64]),
) {
    if level == nest.depth() {
        for stmt in nest.body() {
            f(stmt, iter);
        }
        return;
    }
    for v in nest.loops()[level].values() {
        iter[level] = v;
        walk(nest, level + 1, iter, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_ir::transform::unroll_and_jam;
    use ujam_ir::NestBuilder;

    fn intro(n: i64) -> LoopNest {
        NestBuilder::new("intro")
            .array("A", &[n + 8])
            .array("B", &[n + 8])
            .loop_("J", 1, n)
            .loop_("I", 1, n)
            .stmt("A(J) = A(J) + B(I)")
            .build()
    }

    #[test]
    fn unroll_and_jam_speeds_up_the_intro_loop() {
        let alpha = MachineModel::dec_alpha();
        let nest = intro(240);
        let before = simulate(&nest, &alpha);
        let after = simulate(&unroll_and_jam(&nest, &[3, 0]).unwrap(), &alpha);
        // 4 accumulators amortize the FP latency: solid speedup.
        assert!(
            after.cycles < before.cycles * 0.6,
            "expected speedup, got {} -> {}",
            before.cycles,
            after.cycles
        );
    }

    #[test]
    fn misses_reflect_locality() {
        let alpha = MachineModel::dec_alpha();
        // Column-major walk: spatial locality; row-major walk: none (the
        // 8 KiB cache cannot hold a 512-column row working set).
        let col = NestBuilder::new("col")
            .array("A", &[512, 512])
            .loop_("J", 1, 512)
            .loop_("I", 1, 512)
            .stmt("A(I,J) = A(I,J) * 2.0")
            .build();
        let row = NestBuilder::new("row")
            .array("A", &[512, 512])
            .loop_("I", 1, 512)
            .loop_("J", 1, 512)
            .stmt("A(I,J) = A(I,J) * 2.0")
            .build();
        let col_r = simulate(&col, &alpha);
        let row_r = simulate(&row, &alpha);
        assert!(col_r.misses * 3 < row_r.misses);
        assert!(col_r.cycles < row_r.cycles);
    }

    #[test]
    fn report_fields_are_consistent() {
        let r = simulate(&intro(48), &MachineModel::hp_parisc());
        assert_eq!(r.iterations, 48 * 48);
        // Three refs per iteration reach the cache.
        assert_eq!(r.accesses, 3 * 48 * 48);
        assert!(r.miss_rate() >= 0.0 && r.miss_rate() <= 1.0);
        assert!(r.ii >= 1.0);
    }

    #[test]
    fn ii_respects_fp_latency_for_reductions() {
        let alpha = MachineModel::dec_alpha();
        let r = simulate(&intro(48), &alpha);
        assert!(r.ii >= alpha.fp_latency() as f64);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use ujam_ir::NestBuilder;

    #[test]
    fn prefetch_bandwidth_hides_miss_penalty() {
        // A streaming loop whose misses dominate on a no-prefetch machine.
        let nest = NestBuilder::new("stream")
            .array("A", &[512, 512])
            .array("B", &[512, 512])
            .loop_("J", 1, 256)
            .loop_("I", 1, 256)
            .stmt("A(I,J) = B(I,J) * 2.0")
            .build();
        let blocking = MachineModel::dec_alpha();
        let prefetching = MachineModel::builder("pf")
            .rates(1.0, 1.0)
            .registers(32)
            .cache(8 * 1024, 32, 1)
            .miss(20.0, 1.0)
            .prefetch(1.0)
            .fp_latency(6)
            .build();
        let cold = simulate(&nest, &blocking);
        let warm = simulate(&nest, &prefetching);
        assert_eq!(cold.misses, warm.misses, "same cache behaviour");
        assert!(
            warm.cycles < cold.cycles,
            "prefetching must hide the penalty: {} vs {}",
            warm.cycles,
            cold.cycles
        );
        // With ample bandwidth every miss is hidden: cycles reduce to the
        // pipeline time plus hoisted traffic.
        assert!((warm.cycles - warm.ii * warm.iterations as f64).abs() < 1.0);
    }
}

#[cfg(test)]
mod tiling_tests {
    use super::*;
    use ujam_ir::transform::tile;
    use ujam_ir::NestBuilder;

    /// The locality transformation the Wolf et al. framework adds on top
    /// of unroll-and-jam: tiling shrinks the per-tile working set below
    /// the cache and the simulator sees the misses disappear.
    #[test]
    fn tiling_matmul_cuts_cache_misses() {
        let n = 96;
        let nest = NestBuilder::new("mm")
            .array("A", &[n + 4, n + 4])
            .array("B", &[n + 4, n + 4])
            .array("C", &[n + 4, n + 4])
            .loop_("J", 1, n)
            .loop_("K", 1, n)
            .loop_("I", 1, n)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build();
        let alpha = MachineModel::dec_alpha();
        let flat = simulate(&nest, &alpha);
        // Tile J and K by 8: the A(:, K-tile) block (96×8 doubles = 6 KiB)
        // fits the 8 KiB cache and is reused across the 8 J_s iterations.
        let tiled = tile(&nest, &[(0, 8), (1, 8)]).expect("tileable");
        let blocked = simulate(&tiled, &alpha);
        assert_eq!(flat.accesses, blocked.accesses, "same work");
        assert!(
            blocked.misses * 2 < flat.misses,
            "tiling should at least halve misses: {} -> {}",
            flat.misses,
            blocked.misses
        );
    }
}

//! Pluggable cache-cost backends for the unroll search.
//!
//! The paper's Eq. 1 predicts the cache lines a candidate fetches per
//! iteration *analytically*, from the uniformly generated sets.  The
//! reuse-distance profiler (`ujam_sim::profile_nest`) *measures* the
//! same quantity by running the candidate under the interpreter's
//! memory tap.  A [`CostModel`] abstracts over the two, so the search
//! can be driven by the model or by measurement — and the divergence
//! between them becomes a reported, first-class quantity instead of an
//! assumption.
//!
//! The backend only replaces the `cache_lines` input of the balance
//! computation; flops, memory ops and registers always come from the
//! analytic tables (profiling does not observe them any better).

use std::collections::HashMap;
use std::time::Instant;

use ujam_ir::transform::unroll_and_jam;
use ujam_ir::LoopNest;
use ujam_machine::MachineModel;
use ujam_sim::profile_nest;

/// Which cache-cost backend scores candidates during the search.
///
/// [`CostModelKind::Analytic`] is the default everywhere and leaves the
/// search bitwise-identical to the classic pipeline;
/// [`CostModelKind::Profiled`] runs the reuse-distance profiler per
/// candidate and is materially slower (full interpretation of the nest)
/// — intended for offline studies, not the serving hot path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CostModelKind {
    /// The paper's Eq. 1 line counts from the precomputed tables.
    #[default]
    Analytic,
    /// Measured set-associative misses per iteration from the
    /// reuse-distance profiler.
    Profiled,
}

impl CostModelKind {
    /// Parses the wire/CLI spelling (`analytic`, `profiled`).
    pub fn parse(s: &str) -> Option<CostModelKind> {
        match s {
            "analytic" => Some(CostModelKind::Analytic),
            "profiled" => Some(CostModelKind::Profiled),
            _ => None,
        }
    }

    /// The canonical spelling accepted by [`CostModelKind::parse`].
    pub fn as_str(&self) -> &'static str {
        match self {
            CostModelKind::Analytic => "analytic",
            CostModelKind::Profiled => "profiled",
        }
    }

    /// Builds the backend for this kind.  `nest` must be the original
    /// (untransformed) nest the search runs over; profiling backends
    /// clone it so they can materialize candidates independently of the
    /// analysis context's borrows.
    pub fn backend(&self, nest: &LoopNest, machine: &MachineModel) -> Box<dyn CostModel> {
        self.backend_sized(nest, machine, 0)
    }

    /// [`CostModelKind::backend`] with the candidate-space size known up
    /// front: profiling backends then memoize in a dense flat-indexed
    /// array (one `f64` per candidate, NaN = unmeasured) instead of
    /// hashing the unroll vector per query.
    pub fn backend_sized(
        &self,
        nest: &LoopNest,
        machine: &MachineModel,
        candidates: usize,
    ) -> Box<dyn CostModel> {
        match self {
            CostModelKind::Analytic => Box::new(Analytic),
            CostModelKind::Profiled => Box::new(Profiled::new(nest, machine, candidates)),
        }
    }
}

/// Work a cost backend performed, for observability: zero across the
/// board for [`CostModelKind::Analytic`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostModelStats {
    /// Candidates actually profiled (memo misses).
    pub profiles: u64,
    /// Total tapped memory accesses across those profiles.
    pub accesses: u64,
    /// Wall time spent profiling, in nanoseconds.
    pub profile_ns: u64,
}

/// A cache-cost backend: given a candidate's full unroll vector and the
/// analytic Eq. 1 line count, produce the cache-lines-per-iteration
/// figure the balance computation should use.
pub trait CostModel {
    /// The backend's canonical name (matches [`CostModelKind::as_str`]).
    fn name(&self) -> &'static str;

    /// Cache lines fetched per (unrolled) innermost iteration for the
    /// candidate with full per-nest-loop unroll vector `full_u`.
    /// `analytic_lines` is the Eq. 1 prediction for the same candidate.
    fn lines_per_iter(&mut self, full_u: &[u32], analytic_lines: f64) -> f64;

    /// [`CostModel::lines_per_iter`] keyed by the candidate's flat index
    /// in the search space.  `full_u` builds the full unroll vector
    /// lazily — backends that answer from a memo (or ignore the vector
    /// entirely) never invoke it, so the search's hot path stays
    /// allocation-free.  The default just forwards to the vector form.
    fn lines_per_iter_flat(
        &mut self,
        flat: usize,
        full_u: &mut dyn FnMut() -> Vec<u32>,
        analytic_lines: f64,
    ) -> f64 {
        let _ = flat;
        self.lines_per_iter(&full_u(), analytic_lines)
    }

    /// Profiling work performed so far.
    fn stats(&self) -> CostModelStats;
}

/// Eq. 1 verbatim: the analytic prediction passes through untouched, so
/// a search driven by this backend is bitwise-identical to the classic
/// pipeline.
struct Analytic;

impl CostModel for Analytic {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn lines_per_iter(&mut self, _full_u: &[u32], analytic_lines: f64) -> f64 {
        analytic_lines
    }

    fn lines_per_iter_flat(
        &mut self,
        _flat: usize,
        _full_u: &mut dyn FnMut() -> Vec<u32>,
        analytic_lines: f64,
    ) -> f64 {
        analytic_lines
    }

    fn stats(&self) -> CostModelStats {
        CostModelStats::default()
    }
}

/// Measured misses: materialize the candidate with `unroll_and_jam`
/// (*without* scalar replacement, so the cache sees the full semantic
/// access stream — the same convention as the cycle simulator) and run
/// the reuse profiler against the machine's cache geometry.
///
/// Results are memoized per unroll vector: the search visits each
/// candidate once, but `u = 0` is also queried for the baseline.
struct Profiled {
    nest: LoopNest,
    machine: MachineModel,
    /// Coordinate-keyed memo, the fallback when a query arrives without
    /// a usable flat index (or the backend was built unsized).
    memo: HashMap<Vec<u32>, f64>,
    /// Dense flat-indexed memo (NaN = unmeasured), sized to the search
    /// space by [`CostModelKind::backend_sized`]; empty when unsized.
    /// Measured lines are finite by construction, so NaN is a safe
    /// sentinel.
    flat_memo: Vec<f64>,
    stats: CostModelStats,
}

impl Profiled {
    fn new(nest: &LoopNest, machine: &MachineModel, candidates: usize) -> Profiled {
        Profiled {
            nest: nest.clone(),
            machine: machine.clone(),
            memo: HashMap::new(),
            flat_memo: vec![f64::NAN; candidates],
            stats: CostModelStats::default(),
        }
    }

    /// The un-memoized core: materialize and profile one candidate.
    fn profile(&mut self, full_u: &[u32], analytic_lines: f64) -> f64 {
        let t0 = Instant::now();
        // Candidates reaching the cost query already passed the
        // dependence-safety and divisibility gates, so the transform
        // cannot fail here; fall back to the analytic figure anyway
        // rather than poisoning the search.
        let lines = match unroll_and_jam(&self.nest, full_u) {
            Ok(unrolled) => {
                let report = profile_nest(&unrolled, &self.machine);
                self.stats.profiles += 1;
                self.stats.accesses += report.accesses;
                let iters = unrolled.iterations().max(1) as f64;
                report.sa_misses as f64 / iters
            }
            Err(_) => analytic_lines,
        };
        self.stats.profile_ns += t0.elapsed().as_nanos() as u64;
        lines
    }

    fn measure(&mut self, full_u: &[u32], analytic_lines: f64) -> f64 {
        if let Some(&lines) = self.memo.get(full_u) {
            return lines;
        }
        let lines = self.profile(full_u, analytic_lines);
        self.memo.insert(full_u.to_vec(), lines);
        lines
    }

    fn measure_flat(
        &mut self,
        flat: usize,
        full_u: &mut dyn FnMut() -> Vec<u32>,
        analytic_lines: f64,
    ) -> f64 {
        match self.flat_memo.get(flat) {
            Some(lines) if !lines.is_nan() => *lines,
            Some(_) => {
                let lines = self.profile(&full_u(), analytic_lines);
                self.flat_memo[flat] = lines;
                lines
            }
            // Out of range: the backend was built for a smaller (or no)
            // space; degrade to the coordinate memo.
            None => self.measure(&full_u(), analytic_lines),
        }
    }
}

impl CostModel for Profiled {
    fn name(&self) -> &'static str {
        "profiled"
    }

    fn lines_per_iter(&mut self, full_u: &[u32], analytic_lines: f64) -> f64 {
        self.measure(full_u, analytic_lines)
    }

    fn lines_per_iter_flat(
        &mut self,
        flat: usize,
        full_u: &mut dyn FnMut() -> Vec<u32>,
        analytic_lines: f64,
    ) -> f64 {
        self.measure_flat(flat, full_u, analytic_lines)
    }

    fn stats(&self) -> CostModelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_ir::NestBuilder;

    fn stream() -> LoopNest {
        NestBuilder::new("stream")
            .array("A", &[66])
            .array("B", &[66])
            .loop_("J", 1, 8)
            .loop_("I", 1, 64)
            .stmt("A(I) = A(I) + B(I)")
            .build()
    }

    #[test]
    fn kind_round_trips_through_parse() {
        for kind in [CostModelKind::Analytic, CostModelKind::Profiled] {
            assert_eq!(CostModelKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(CostModelKind::parse("exact"), None);
        assert_eq!(CostModelKind::default(), CostModelKind::Analytic);
    }

    #[test]
    fn analytic_backend_is_the_identity() {
        let nest = stream();
        let machine = MachineModel::dec_alpha();
        let mut b = CostModelKind::Analytic.backend(&nest, &machine);
        assert_eq!(b.lines_per_iter(&[0, 0], 3.25), 3.25);
        assert_eq!(b.stats(), CostModelStats::default());
        assert_eq!(b.name(), "analytic");
    }

    #[test]
    fn profiled_backend_measures_and_memoizes() {
        let nest = stream();
        let machine = MachineModel::dec_alpha();
        let mut b = CostModelKind::Profiled.backend(&nest, &machine);
        let lines = b.lines_per_iter(&[0, 0], 99.0);
        // 64 doubles of A (16 aligned 32-byte lines) + 64 of B (whose
        // guard-layout base lands mid-line: 17 lines), all touched once
        // cold and re-hit on the remaining 7 J sweeps: 33 misses over
        // 512 iterations.
        assert!((lines - 33.0 / 512.0).abs() < 1e-12, "lines = {lines}");
        assert_eq!(b.stats().profiles, 1);
        // Second query hits the memo: no new profile.
        let again = b.lines_per_iter(&[0, 0], 99.0);
        assert_eq!(again, lines);
        assert_eq!(b.stats().profiles, 1);
        assert!(b.stats().accesses > 0);
    }
}

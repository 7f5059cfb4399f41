//! Cache-cost sources for the unroll search.
//!
//! The paper's Eq. 1 predicts the cache lines a candidate fetches per
//! iteration *analytically*, from the uniformly generated sets.  The
//! reuse-distance profiler (`ujam_sim::profile_nest`) *measures* the
//! same quantity by running the candidate under the interpreter's
//! memory tap.  [`CostModelKind`] picks one per search; the measured
//! figure is a comparator to Eq. 1, so the divergence between them is a
//! reported quantity instead of an assumption.
//!
//! Profiling only replaces the `cache_lines` input of the balance
//! computation; flops, memory ops and registers always come from the
//! analytic tables (profiling does not observe them any better).

use std::time::Instant;

use ujam_ir::transform::unroll_and_jam;
use ujam_ir::LoopNest;
use ujam_machine::MachineModel;
use ujam_sim::profile_nest;

/// Which cache-cost source scores candidates during the search.
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
}

/// Measured misses: materialize the candidate with `unroll_and_jam`
/// (*without* scalar replacement, so the cache sees the full semantic
/// access stream — the same convention as the cycle simulator) and run
/// the reuse profiler against the machine's cache geometry.
///
/// Results are memoized by the candidate's flat index in the search
/// space: the search visits each candidate once, but `u = 0` is also
/// queried for the baseline.
pub(crate) struct Profiler<'a> {
    nest: &'a LoopNest,
    machine: &'a MachineModel,
    /// One entry per candidate, NaN = unmeasured.  Measured lines are
    /// finite by construction, so NaN is a safe sentinel.
    memo: Vec<f64>,
    /// Candidates actually profiled (memo misses).
    pub(crate) profiles: u64,
    /// Total tapped memory accesses across those profiles.
    pub(crate) accesses: u64,
    /// Wall time spent profiling, in nanoseconds.
    pub(crate) profile_ns: u64,
}

impl<'a> Profiler<'a> {
    /// A profiler for a search space of `candidates` offsets over
    /// `nest`, the original (untransformed) nest the search runs over.
    pub(crate) fn new(nest: &'a LoopNest, machine: &'a MachineModel, candidates: usize) -> Self {
        Profiler {
            nest,
            machine,
            memo: vec![f64::NAN; candidates],
            profiles: 0,
            accesses: 0,
            profile_ns: 0,
        }
    }

    /// Cache lines fetched per (unrolled) innermost iteration by the
    /// candidate at flat index `flat`.  `full_u` builds its full
    /// per-nest-loop unroll vector and runs only on a memo miss;
    /// `analytic_lines` is the Eq. 1 figure, the fallback should the
    /// transform fail.
    pub(crate) fn lines_at(
        &mut self,
        flat: usize,
        full_u: impl FnOnce() -> Vec<u32>,
        analytic_lines: f64,
    ) -> f64 {
        if !self.memo[flat].is_nan() {
            return self.memo[flat];
        }
        let t0 = Instant::now();
        // Candidates reaching the cost query already passed the
        // dependence-safety and divisibility gates, so the transform
        // cannot fail here; fall back to the analytic figure anyway
        // rather than poisoning the search.
        let lines = match unroll_and_jam(self.nest, &full_u()) {
            Ok(unrolled) => {
                let report = profile_nest(&unrolled, self.machine);
                self.profiles += 1;
                self.accesses += report.accesses;
                let iters = unrolled.iterations().max(1) as f64;
                report.sa_misses as f64 / iters
            }
            Err(_) => analytic_lines,
        };
        self.profile_ns += t0.elapsed().as_nanos() as u64;
        self.memo[flat] = lines;
        lines
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
    fn profiled_backend_measures_and_memoizes() {
        let nest = stream();
        let machine = MachineModel::dec_alpha();
        let mut p = Profiler::new(&nest, &machine, 1);
        let lines = p.lines_at(0, || vec![0, 0], 99.0);
        // 64 doubles of A (16 aligned 32-byte lines) + 64 of B (whose
        // guard-layout base lands mid-line: 17 lines), all touched once
        // cold and re-hit on the remaining 7 J sweeps: 33 misses over
        // 512 iterations.
        assert!((lines - 33.0 / 512.0).abs() < 1e-12, "lines = {lines}");
        assert_eq!(p.profiles, 1);
        // Second query of the same flat index hits the memo: no new
        // profile, and the unroll vector is never rebuilt.
        let again = p.lines_at(0, || unreachable!("memo hit"), 99.0);
        assert_eq!(again, lines);
        assert_eq!(p.profiles, 1);
        assert!(p.accesses > 0);
    }
}

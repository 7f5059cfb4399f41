//! The shared, memoizing analysis context every pass runs against.

use std::collections::HashMap;
use std::rc::Rc;

use crate::pipeline::{CancelToken, OptimizeError};
use crate::space::UnrollSpace;
use crate::tables::CostTables;
use ujam_dep::{safe_unroll_bounds, DepGraph};
use ujam_ir::{ArrayRef, Lhs, LoopNest};
use ujam_machine::MachineModel;
use ujam_metrics::MetricsHandle;
use ujam_reuse::{ugs_cost, Localized, UgsSet};
use ujam_trace::{null_sink, TraceRecord, TraceSink};

/// The largest subscript coefficient or constant magnitude the analysis
/// admits: `solve::factored_tests` finds its exact integer elimination
/// free of overflow up to it, while beyond it a solve can outgrow `i128`.
/// Loop bounds are held to it too, so a trip count stays below 2^33.
const MAX_SUBSCRIPT_ENTRY: u64 = 1 << 31;

/// Refuses a nest with a loop bound (whose trip count could wrap), or a
/// body subscript with an `H` or `c` entry, beyond
/// [`MAX_SUBSCRIPT_ENTRY`] in magnitude: one pass over the loops and the
/// references, allocating only for the error.
fn check_ranges(nest: &LoopNest) -> Result<(), OptimizeError> {
    let wide = |a: i64| a.unsigned_abs() > MAX_SUBSCRIPT_ENTRY;
    let beyond = "beyond ±2^31, outside the exact analysis's range";
    let mut refused = nest
        .loops()
        .iter()
        .find(|l| wide(l.lower()) || wide(l.upper()))
        .map(|l| format!("loop {} has a bound {beyond}", l.var()));
    let mut check = |r: &ArrayRef| {
        let (h, c) = r.access_matrix();
        if refused.is_none() && h.as_slice().iter().chain(c).any(|&a| wide(a)) {
            let r = r.display(nest.loops());
            refused = Some(format!("subscript {r} has an entry {beyond}"));
        }
    };
    for stmt in nest.body() {
        stmt.rhs().visit_refs(&mut check);
        if let Lhs::Array(a) = stmt.lhs() {
            check(a);
        }
    }
    refused.map_or(Ok(()), |why| Err(OptimizeError::InvalidNest(why)))
}

/// Cache key for [`CostTables`]: the unrolled loop positions, their
/// per-dimension bounds, and the cache line size in elements.
type TableKey = (Vec<usize>, Vec<u32>, i64);

/// Lazily computes and caches every per-nest analysis the optimizer
/// needs: the dependence graph, dependence-derived safety bounds, the
/// UGS partition, per-loop locality scores, and [`CostTables`] keyed by
/// `(loops, bounds, line)`.
///
/// One context serves one `(nest, machine)` pair; passes borrow it
/// mutably and query, so each analysis runs at most once no matter how
/// many passes (or repeated pass runs) consume it.
///
/// A context built with [`AnalysisCtx::observed`] additionally streams
/// cache hit/miss counters to its sink, lets passes emit wall-time spans
/// and decision provenance, and records pass times into its metrics;
/// [`AnalysisCtx::new`] uses the [`ujam_trace::NullSink`], whose
/// `enabled() == false` fast path keeps the untraced pipeline free of
/// record construction, with metrics disabled and no deadline.
///
/// # Example
///
/// ```
/// use ujam_core::pipeline::{AnalysisCtx, CancelToken, Pass, SelectLoops};
/// use ujam_ir::NestBuilder;
/// use ujam_machine::MachineModel;
/// use ujam_metrics::MetricsHandle;
/// let nest = NestBuilder::new("intro")
///     .array("A", &[242]).array("B", &[242])
///     .loop_("J", 1, 240).loop_("I", 1, 240)
///     .stmt("A(J) = A(J) + B(I)")
///     .build();
/// let machine = MachineModel::dec_alpha();
/// let sink = ujam_trace::CollectingSink::new();
/// let (metrics, cancel) = (MetricsHandle::disabled(), CancelToken::never());
/// let mut ctx = AnalysisCtx::observed(&nest, &machine, &sink, metrics, cancel).expect("valid");
/// let space = SelectLoops::default().run(&mut ctx).expect("selection succeeds");
/// assert_eq!(space.loops(), &[0]);
/// let totals = sink.trace().counter_totals();
/// assert!(totals.contains(&("intro".into(), "dep_graph.build".into(), 1)));
/// ```
pub struct AnalysisCtx<'a> {
    nest: &'a LoopNest,
    machine: &'a MachineModel,
    sink: &'a dyn TraceSink,
    metrics: MetricsHandle,
    cancel: CancelToken,
    dep_graph: Option<DepGraph>,
    safe_bounds: Option<Vec<u32>>,
    ugs: Option<Vec<UgsSet>>,
    locality: HashMap<(usize, i64), f64>,
    /// Equation 1 per set under innermost-only localization, per line
    /// size: the loop-independent term of every locality score.
    inner_costs: HashMap<i64, Vec<f64>>,
    tables: HashMap<TableKey, Rc<CostTables>>,
}

impl std::fmt::Debug for AnalysisCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCtx")
            .field("nest", &self.nest.name())
            .field("machine", &self.machine.name())
            .field("tracing", &self.sink.enabled())
            .finish_non_exhaustive()
    }
}

impl<'a> AnalysisCtx<'a> {
    /// Creates an untraced context after validating the nest:
    /// [`AnalysisCtx::observed`] with the null sink, metrics disabled
    /// and a token that never fires.
    ///
    /// Malformed nests (structural validation failures, subscript
    /// entries beyond `±2^31`, zero loops) are rejected here, which is
    /// what makes every downstream pass — and every public `optimize*`
    /// wrapper — panic-free on bad input.
    pub fn new(
        nest: &'a LoopNest,
        machine: &'a MachineModel,
    ) -> Result<AnalysisCtx<'a>, OptimizeError> {
        let (metrics, cancel) = (MetricsHandle::disabled(), CancelToken::never());
        AnalysisCtx::observed(nest, machine, null_sink(), metrics, cancel)
    }

    /// Creates a context that reports to `sink` and `metrics` and
    /// cooperates with `cancel`, after validating the nest.
    ///
    /// Cache hits and misses stream to `sink` as counters, and passes
    /// run through [`super::Pass::run_traced`] additionally emit
    /// wall-time spans and explain records, and record their wall time
    /// into a `pass.<name>.ns` histogram; with
    /// [`MetricsHandle::disabled`] they record nothing — metrics, like
    /// tracing, observe the pipeline without steering it.  Every pass
    /// checks `cancel` at entry, and the search stages additionally
    /// check it at candidate granularity, so a fired token surfaces as
    /// [`OptimizeError::DeadlineExceeded`] within a bounded amount of
    /// work.  A token that is already fired fails here, before any
    /// analysis runs.
    pub fn observed(
        nest: &'a LoopNest,
        machine: &'a MachineModel,
        sink: &'a dyn TraceSink,
        metrics: MetricsHandle,
        cancel: CancelToken,
    ) -> Result<AnalysisCtx<'a>, OptimizeError> {
        nest.validate().map_err(OptimizeError::InvalidNest)?;
        check_ranges(nest)?;
        if nest.depth() == 0 {
            return Err(OptimizeError::EmptyNest);
        }
        if cancel.is_cancelled() {
            return Err(OptimizeError::DeadlineExceeded);
        }
        Ok(AnalysisCtx {
            nest,
            machine,
            sink,
            metrics,
            cancel,
            dep_graph: None,
            safe_bounds: None,
            ugs: None,
            locality: HashMap::new(),
            inner_costs: HashMap::new(),
            tables: HashMap::new(),
        })
    }

    /// The nest under optimization.
    pub fn nest(&self) -> &'a LoopNest {
        self.nest
    }

    /// The target machine model.
    pub fn machine(&self) -> &'a MachineModel {
        self.machine
    }

    /// The trace sink instrumentation reports to.
    pub fn sink(&self) -> &'a dyn TraceSink {
        self.sink
    }

    /// Whether the sink wants records — the guard every emission site
    /// checks before constructing a record.
    pub fn tracing(&self) -> bool {
        self.sink.enabled()
    }

    /// The metrics handle instrumentation reports to (disabled unless
    /// the context was built with [`AnalysisCtx::observed`]).
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// The cancellation token the pipeline cooperates with.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Fails with [`OptimizeError::DeadlineExceeded`] once the context's
    /// token has fired.  Every pass calls this at entry; the search
    /// stages also poll mid-walk.
    pub fn check_cancelled(&self) -> Result<(), OptimizeError> {
        if self.cancel.is_cancelled() {
            Err(OptimizeError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }

    /// Emits a cache-event counter increment when tracing is enabled.
    fn count(&self, name: &str) {
        if self.sink.enabled() {
            self.sink
                .record(TraceRecord::counter(self.nest.name(), name, 1));
        }
    }

    /// The dependence graph, built on first use.
    pub fn dep_graph(&mut self) -> &DepGraph {
        if self.dep_graph.is_none() {
            self.count("dep_graph.build");
            self.dep_graph = Some(DepGraph::build(self.nest));
        } else {
            self.count("dep_graph.hit");
        }
        self.dep_graph.as_ref().expect("just computed")
    }

    /// Per-loop dependence-safety unroll bounds, derived on first use.
    pub fn safe_bounds(&mut self) -> &[u32] {
        if self.safe_bounds.is_none() {
            self.dep_graph();
            self.count("bounds.build");
            let graph = self.dep_graph.as_ref().expect("just ensured");
            self.safe_bounds = Some(safe_unroll_bounds(self.nest, graph));
        } else {
            self.count("bounds.hit");
        }
        self.safe_bounds.as_deref().expect("just computed")
    }

    /// The uniformly generated sets of the nest, partitioned on first
    /// use and shared by locality scoring and table construction.
    pub fn ugs(&mut self) -> &[UgsSet] {
        if self.ugs.is_none() {
            self.count("ugs.build");
            self.ugs = Some(UgsSet::partition(self.nest));
        } else {
            self.count("ugs.hit");
        }
        self.ugs.as_deref().expect("just computed")
    }

    /// The locality score of unrolling `loop_idx` (Equation 1 with and
    /// without the loop localized), cached per `(loop, line)` pair.
    ///
    /// The innermost-only term is computed once per set and line, not
    /// once per loop; each set's difference, and the sum over sets in
    /// partition order, are the same floating-point operations as
    /// evaluating both terms per loop.
    pub fn locality_score(&mut self, loop_idx: usize, line_elems: i64) -> f64 {
        if let Some(&score) = self.locality.get(&(loop_idx, line_elems)) {
            self.count("locality.hit");
            return score;
        }
        self.ugs();
        self.count("locality.build");
        let depth = self.nest.depth();
        let with = Localized::with_unrolled(depth, &[loop_idx]);
        let sets = self.ugs.as_deref().expect("just ensured");
        let inner = self.inner_costs.entry(line_elems).or_insert_with(|| {
            let l = Localized::innermost(depth);
            sets.iter().map(|s| ugs_cost(s, &l, line_elems)).collect()
        });
        let score = sets
            .iter()
            .zip(inner.iter())
            .map(|(s, &c)| c - ugs_cost(s, &with, line_elems))
            .sum();
        self.locality.insert((loop_idx, line_elems), score);
        score
    }

    /// The cost tables for an unroll space, built once per
    /// `(loops, bounds, line)` key and shared via `Rc`.
    pub fn tables(&mut self, space: &UnrollSpace) -> Result<Rc<CostTables>, OptimizeError> {
        if space.depth() != self.nest.depth() {
            return Err(OptimizeError::DepthMismatch {
                nest: self.nest.depth(),
                space: space.depth(),
            });
        }
        let key: TableKey = (
            space.loops().to_vec(),
            space.bounds().to_vec(),
            self.machine.line_elems(),
        );
        if let Some(tables) = self.tables.get(&key) {
            self.count("cost_tables.hit");
            return Ok(Rc::clone(tables));
        }
        self.ugs();
        self.count("cost_tables.build");
        let sets = self.ugs.as_deref().expect("just ensured");
        let tables = Rc::new(CostTables::build_with_sets(
            self.nest,
            sets,
            space,
            self.machine.line_elems(),
        ));
        self.tables.insert(key, Rc::clone(&tables));
        Ok(tables)
    }
}

/// A structurally invalid nest for negative-path tests: the statement
/// `A(I) = Z(I) + 1.0` reads undeclared `Z`, which `NestBuilder::build`
/// would refuse to construct — assembled with the raw constructor
/// instead, exactly what a front end handing over unvalidated IR looks
/// like.
#[cfg(test)]
pub(crate) fn bad_nest() -> LoopNest {
    use ujam_ir::{parse_expr, ArrayDecl, ArrayRef, Loop, Stmt};
    use ujam_linalg::Mat;
    let loops = vec![Loop::new("J", 1, 8), Loop::new("I", 1, 8)];
    let rhs = parse_expr("Z(I) + 1.0", &loops).expect("parses");
    let lhs = ArrayRef::new("A", Mat::from_rows(&[&[0, 1]]), vec![0]);
    LoopNest::new(
        "bad",
        vec![ArrayDecl::new("A", &[16])],
        loops,
        vec![Stmt::assign(lhs, rhs)],
    )
}

/// A context that reports to `sink`, for the pipeline's unit tests.
#[cfg(test)]
pub(crate) fn traced<'a>(
    nest: &'a LoopNest,
    machine: &'a MachineModel,
    sink: &'a dyn TraceSink,
) -> AnalysisCtx<'a> {
    let (metrics, cancel) = (MetricsHandle::disabled(), CancelToken::never());
    AnalysisCtx::observed(nest, machine, sink, metrics, cancel).expect("valid nest")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_ir::NestBuilder;
    use ujam_trace::CollectingSink;

    fn intro() -> LoopNest {
        NestBuilder::new("intro")
            .array("A", &[242])
            .array("B", &[242])
            .loop_("J", 1, 240)
            .loop_("I", 1, 240)
            .stmt("A(J) = A(J) + B(I)")
            .build()
    }

    /// Queries every cached analysis five times and returns the
    /// sink's `(counter, total)` pairs, in first-seen order.
    fn five_rounds_of_queries() -> Vec<(String, u64)> {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let sink = CollectingSink::new();
        let mut ctx = traced(&nest, &machine, &sink);
        let line = machine.line_elems();
        let space = UnrollSpace::new(2, &[0], 4);
        for _ in 0..5 {
            ctx.dep_graph();
            ctx.safe_bounds();
            ctx.ugs();
            ctx.locality_score(0, line);
            ctx.tables(&space).expect("depth matches");
        }
        counters(&sink)
    }

    fn counters(sink: &CollectingSink) -> Vec<(String, u64)> {
        let totals = sink.trace().counter_totals();
        totals.into_iter().map(|(_, name, n)| (name, n)).collect()
    }

    fn total(counters: &[(String, u64)], name: &str) -> u64 {
        counters.iter().find(|(n, _)| n == name).map_or(0, |c| c.1)
    }

    #[test]
    fn each_analysis_builds_at_most_once() {
        let c = five_rounds_of_queries();
        let builds = ["dep_graph", "bounds", "ugs", "locality", "cost_tables"]
            .map(|a| total(&c, &format!("{a}.build")));
        assert_eq!(builds, [1, 1, 1, 1, 1]);
    }

    /// The other half of the amortization claim: repeated queries are
    /// served from cache, and the hit counters prove it.  (The first
    /// iteration produces two internal hits — `safe_bounds` re-queries
    /// the dependence graph and `locality`/`tables` re-query the UGS
    /// partition; later iterations hit on every direct query.)
    #[test]
    fn repeated_queries_are_cache_hits() {
        let c = five_rounds_of_queries();
        let hits = ["dep_graph", "bounds", "ugs", "locality", "cost_tables"]
            .map(|a| total(&c, &format!("{a}.hit")));
        // dep_graph: 4 direct re-queries + 1 internal (from the first
        // safe_bounds build); ugs: 4 direct re-queries + 2 internal
        // (first locality and first cost-table build both ensure the
        // partition).
        assert_eq!(hits, [5, 4, 6, 4, 4]);
    }

    #[test]
    fn sinks_receive_hit_and_build_counters() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let sink = CollectingSink::new();
        let mut ctx = traced(&nest, &machine, &sink);
        ctx.ugs();
        ctx.ugs();
        ctx.ugs();
        let totals = sink.take().counter_totals();
        assert_eq!(
            totals,
            vec![
                ("intro".to_string(), "ugs.build".to_string(), 1),
                ("intro".to_string(), "ugs.hit".to_string(), 2),
            ]
        );
    }

    #[test]
    fn distinct_table_keys_build_separately() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let sink = CollectingSink::new();
        let mut ctx = traced(&nest, &machine, &sink);
        let a = UnrollSpace::new(2, &[0], 4);
        let b = UnrollSpace::new(2, &[0], 6);
        ctx.tables(&a).expect("a");
        ctx.tables(&b).expect("b");
        ctx.tables(&a).expect("a cached");
        let c = counters(&sink);
        assert_eq!(total(&c, "cost_tables.build"), 2);
        assert_eq!(total(&c, "cost_tables.hit"), 1);
        // The partition behind both builds was still computed only once.
        assert_eq!(total(&c, "ugs.build"), 1);
    }

    #[test]
    fn depth_mismatch_is_an_error_not_a_panic() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let mut ctx = AnalysisCtx::new(&nest, &machine).expect("valid");
        let wrong = UnrollSpace::new(3, &[0], 4);
        assert_eq!(
            ctx.tables(&wrong).unwrap_err(),
            OptimizeError::DepthMismatch { nest: 2, space: 3 }
        );
    }

    #[test]
    fn invalid_nests_are_rejected_at_construction() {
        let nest = bad_nest();
        let machine = MachineModel::dec_alpha();
        assert!(matches!(
            AnalysisCtx::new(&nest, &machine),
            Err(OptimizeError::InvalidNest(_))
        ));
    }

    #[test]
    fn subscript_entries_beyond_2_pow_31_are_rejected_at_construction() {
        // `h` lands in the def's `H`, `c` in the use's `c`.
        let admitted = |h: i64, c: i64| {
            let nest = NestBuilder::new("wide")
                .array("A", &[8])
                .loop_("I", 1, 4)
                .stmt(&format!("A({h}*I) = A(I{c:+})"))
                .build();
            AnalysisCtx::new(&nest, &MachineModel::dec_alpha()).is_ok()
        };
        let edge = 1i64 << 31;
        assert!(admitted(edge, 0) && admitted(-edge, 0) && admitted(1, edge) && admitted(1, -edge));
        assert!(!admitted(edge + 1, 0) && !admitted(-edge - 1, 0));
        assert!(!admitted(1, edge + 1) && !admitted(1, -edge - 1));
        // The refusal names the subscript through the nest's loop names.
        let nest = NestBuilder::new("wide")
            .array("A", &[8, 8])
            .loop_("J", 1, 4)
            .loop_("I", 1, 4)
            .stmt("A(I,J) = A(J+2I+4294967296,J) + 1.0")
            .build();
        let why = AnalysisCtx::new(&nest, &MachineModel::dec_alpha()).err();
        let want = "subscript A(2I+J+4294967296,J) has an entry beyond ±2^31";
        assert!(matches!(why, Some(OptimizeError::InvalidNest(w)) if w.starts_with(want)));
    }

    #[test]
    fn loop_bounds_beyond_2_pow_31_are_rejected_at_construction() {
        let admitted = |lower: i64, upper: i64| {
            let nest = NestBuilder::new("wide")
                .array("A", &[8, 8])
                .loop_("J", 1, 4)
                .loop_("I", lower, upper)
                .stmt("A(I,J) = A(I,J) + 1.0")
                .build();
            AnalysisCtx::new(&nest, &MachineModel::dec_alpha()).is_ok()
        };
        let edge = 1i64 << 31;
        assert!(admitted(-edge, edge) && admitted(1, edge) && admitted(-edge, 1));
        assert!(!admitted(1, edge + 1) && !admitted(-edge - 1, 1));
        assert!(!admitted(
            -9_000_000_000_000_000_000,
            9_000_000_000_000_000_000
        ));
    }
}

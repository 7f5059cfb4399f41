//! The shared, memoizing analysis context every pass runs against.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use crate::pipeline::{CancelToken, OptimizeError};
use crate::space::UnrollSpace;
use crate::tables::CostTables;
use ujam_dep::{safe_unroll_bounds, DepGraph};
use ujam_ir::LoopNest;
use ujam_machine::MachineModel;
use ujam_metrics::MetricsHandle;
use ujam_reuse::{ugs_cost, Localized, UgsSet};
use ujam_trace::{null_sink, TraceRecord, TraceSink};

/// Cache key for [`CostTables`]: the unrolled loop positions, their
/// per-dimension bounds, and the cache line size in elements.
type TableKey = (Vec<usize>, Vec<u32>, i64);

/// How many times each analysis has actually been computed (`*_builds`)
/// versus served from cache (`*_hits`).  Exposed so tests can prove both
/// halves of the amortization claim: every analysis runs at most once,
/// and repeated queries really are cache hits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtxStats {
    /// Dependence-graph constructions.
    pub dep_graph_builds: usize,
    /// Safety-bound derivations.
    pub bounds_builds: usize,
    /// UGS partitionings of the nest.
    pub ugs_builds: usize,
    /// Locality-score evaluations (one per `(loop, line)` pair).
    pub locality_builds: usize,
    /// Cost-table constructions (one per `(loops, bounds, line)` key).
    pub cost_table_builds: usize,
    /// Dependence-graph queries served from cache.
    pub dep_graph_hits: usize,
    /// Safety-bound queries served from cache.
    pub bounds_hits: usize,
    /// UGS-partition queries served from cache.
    pub ugs_hits: usize,
    /// Locality-score queries served from cache.
    pub locality_hits: usize,
    /// Cost-table queries served from cache.
    pub cost_table_hits: usize,
}

/// Wall time spent *building* each cached analysis, in nanoseconds.
/// Cache hits add nothing here — the gap between a hit and its build
/// time is exactly the amortization the paper claims.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtxTimings {
    /// Nanoseconds constructing the dependence graph.
    pub dep_graph_ns: u128,
    /// Nanoseconds deriving the safety bounds.
    pub bounds_ns: u128,
    /// Nanoseconds partitioning into uniformly generated sets.
    pub ugs_ns: u128,
    /// Nanoseconds evaluating locality scores.
    pub locality_ns: u128,
    /// Nanoseconds building cost tables.
    pub cost_table_ns: u128,
}

impl CtxTimings {
    /// Total build time across every analysis, nanoseconds.
    pub fn total_ns(&self) -> u128 {
        self.dep_graph_ns + self.bounds_ns + self.ugs_ns + self.locality_ns + self.cost_table_ns
    }
}

/// Lazily computes and caches every per-nest analysis the optimizer
/// needs: the dependence graph, dependence-derived safety bounds, the
/// UGS partition, per-loop locality scores, and [`CostTables`] keyed by
/// `(loops, bounds, line)`.
///
/// One context serves one `(nest, machine)` pair; passes borrow it
/// mutably and query, so each analysis runs at most once no matter how
/// many passes (or repeated pass runs) consume it.
///
/// A context built with [`AnalysisCtx::with_sink`] additionally streams
/// cache hit/miss counters to the sink and lets passes emit wall-time
/// spans and decision provenance; [`AnalysisCtx::new`] uses the
/// [`ujam_trace::NullSink`], whose `enabled() == false` fast path keeps
/// the untraced pipeline free of record construction.
///
/// # Example
///
/// ```
/// use ujam_core::pipeline::{AnalysisCtx, Pass, SelectLoops};
/// use ujam_ir::NestBuilder;
/// use ujam_machine::MachineModel;
/// let nest = NestBuilder::new("intro")
///     .array("A", &[242]).array("B", &[242])
///     .loop_("J", 1, 240).loop_("I", 1, 240)
///     .stmt("A(J) = A(J) + B(I)")
///     .build();
/// let machine = MachineModel::dec_alpha();
/// let mut ctx = AnalysisCtx::new(&nest, &machine).expect("valid nest");
/// let space = SelectLoops::default().run(&mut ctx).expect("selection succeeds");
/// assert_eq!(space.loops(), &[0]);
/// assert_eq!(ctx.stats().dep_graph_builds, 1);
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
    tables: HashMap<TableKey, Rc<CostTables>>,
    stats: CtxStats,
    timings: CtxTimings,
}

impl std::fmt::Debug for AnalysisCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCtx")
            .field("nest", &self.nest.name())
            .field("machine", &self.machine.name())
            .field("tracing", &self.sink.enabled())
            .field("stats", &self.stats)
            .field("timings", &self.timings)
            .finish_non_exhaustive()
    }
}

impl<'a> AnalysisCtx<'a> {
    /// Creates an untraced context after validating the nest.
    ///
    /// Malformed nests (structural validation failures, zero loops) are
    /// rejected here, which is what makes every downstream pass — and
    /// every public `optimize*` wrapper — panic-free on bad input.
    pub fn new(
        nest: &'a LoopNest,
        machine: &'a MachineModel,
    ) -> Result<AnalysisCtx<'a>, OptimizeError> {
        AnalysisCtx::with_sink(nest, machine, null_sink())
    }

    /// [`AnalysisCtx::new`] with an explicit trace sink: cache hits and
    /// misses stream to `sink` as counters, and passes run through
    /// [`super::Pass::run_traced`] additionally emit wall-time spans and
    /// explain records.
    pub fn with_sink(
        nest: &'a LoopNest,
        machine: &'a MachineModel,
        sink: &'a dyn TraceSink,
    ) -> Result<AnalysisCtx<'a>, OptimizeError> {
        AnalysisCtx::with_observability(
            nest,
            machine,
            sink,
            MetricsHandle::disabled(),
            CancelToken::never(),
        )
    }

    /// [`AnalysisCtx::with_sink`] with a metrics handle and a
    /// cancellation token.  Passes run through
    /// [`super::Pass::run_traced`] additionally record their wall time
    /// into a `pass.<name>.ns` histogram; with
    /// [`MetricsHandle::disabled`] they record nothing — metrics, like
    /// tracing, observe the pipeline without steering it.  Every pass
    /// checks `cancel` at entry, and the search stages additionally
    /// check it at candidate granularity, so a fired token surfaces as
    /// [`OptimizeError::DeadlineExceeded`] within a bounded amount of
    /// work.  A token that is already fired fails here, before any
    /// analysis runs.
    pub fn with_observability(
        nest: &'a LoopNest,
        machine: &'a MachineModel,
        sink: &'a dyn TraceSink,
        metrics: MetricsHandle,
        cancel: CancelToken,
    ) -> Result<AnalysisCtx<'a>, OptimizeError> {
        nest.validate().map_err(OptimizeError::InvalidNest)?;
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
            tables: HashMap::new(),
            stats: CtxStats::default(),
            timings: CtxTimings::default(),
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
    /// the context was built with [`AnalysisCtx::with_observability`]).
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

    /// Build/hit counters proving each analysis runs at most once.
    pub fn stats(&self) -> CtxStats {
        self.stats
    }

    /// Wall time spent building each cached analysis.
    pub fn timings(&self) -> CtxTimings {
        self.timings
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
            self.stats.dep_graph_builds += 1;
            self.count("dep_graph.build");
            let t0 = Instant::now();
            self.dep_graph = Some(DepGraph::build(self.nest));
            self.timings.dep_graph_ns += t0.elapsed().as_nanos();
        } else {
            self.stats.dep_graph_hits += 1;
            self.count("dep_graph.hit");
        }
        self.dep_graph.as_ref().expect("just computed")
    }

    /// Per-loop dependence-safety unroll bounds, derived on first use.
    pub fn safe_bounds(&mut self) -> &[u32] {
        if self.safe_bounds.is_none() {
            self.dep_graph();
            self.stats.bounds_builds += 1;
            self.count("bounds.build");
            let t0 = Instant::now();
            let graph = self.dep_graph.as_ref().expect("just ensured");
            self.safe_bounds = Some(safe_unroll_bounds(self.nest, graph));
            self.timings.bounds_ns += t0.elapsed().as_nanos();
        } else {
            self.stats.bounds_hits += 1;
            self.count("bounds.hit");
        }
        self.safe_bounds.as_deref().expect("just computed")
    }

    /// The uniformly generated sets of the nest, partitioned on first
    /// use and shared by locality scoring and table construction.
    pub fn ugs(&mut self) -> &[UgsSet] {
        if self.ugs.is_none() {
            self.stats.ugs_builds += 1;
            self.count("ugs.build");
            let t0 = Instant::now();
            self.ugs = Some(UgsSet::partition(self.nest));
            self.timings.ugs_ns += t0.elapsed().as_nanos();
        } else {
            self.stats.ugs_hits += 1;
            self.count("ugs.hit");
        }
        self.ugs.as_deref().expect("just computed")
    }

    /// The locality score of unrolling `loop_idx` (Equation 1 with and
    /// without the loop localized), cached per `(loop, line)` pair.
    pub fn locality_score(&mut self, loop_idx: usize, line_elems: i64) -> f64 {
        if let Some(&score) = self.locality.get(&(loop_idx, line_elems)) {
            self.stats.locality_hits += 1;
            self.count("locality.hit");
            return score;
        }
        self.ugs();
        self.stats.locality_builds += 1;
        self.count("locality.build");
        let t0 = Instant::now();
        let depth = self.nest.depth();
        let inner = Localized::innermost(depth);
        let with = Localized::with_unrolled(depth, &[loop_idx]);
        let sets = self.ugs.as_deref().expect("just ensured");
        let score = sets
            .iter()
            .map(|s| ugs_cost(s, &inner, line_elems) - ugs_cost(s, &with, line_elems))
            .sum();
        self.locality.insert((loop_idx, line_elems), score);
        self.timings.locality_ns += t0.elapsed().as_nanos();
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
            self.stats.cost_table_hits += 1;
            self.count("cost_tables.hit");
            return Ok(Rc::clone(tables));
        }
        self.ugs();
        self.stats.cost_table_builds += 1;
        self.count("cost_tables.build");
        let t0 = Instant::now();
        let sets = self.ugs.as_deref().expect("just ensured");
        let tables = Rc::new(CostTables::build_with_sets(
            self.nest,
            sets,
            space,
            self.machine.line_elems(),
        ));
        self.timings.cost_table_ns += t0.elapsed().as_nanos();
        self.tables.insert(key, Rc::clone(&tables));
        Ok(tables)
    }
}

/// A structurally invalid nest for negative-path tests: the statement
/// reads undeclared `Z`, which `NestBuilder::build` would refuse to
/// construct — assembled with the raw constructor instead, exactly what
/// a front end handing over unvalidated IR looks like.
#[cfg(test)]
pub(crate) fn bad_nest() -> LoopNest {
    use ujam_ir::{parse_expr, sub, subs, ArrayDecl, ArrayRef, Loop, Stmt};
    LoopNest::new(
        "bad",
        vec![ArrayDecl::new("A", &[16])],
        vec![Loop::new("J", 1, 8), Loop::new("I", 1, 8)],
        vec![Stmt::assign(
            ArrayRef::new("A", subs(&[sub("I")])),
            parse_expr("Z(I) + 1.0").expect("parses"),
        )],
    )
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

    #[test]
    fn each_analysis_builds_at_most_once() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let mut ctx = AnalysisCtx::new(&nest, &machine).expect("valid");
        let line = machine.line_elems();
        let space = UnrollSpace::new(2, &[0], 4);

        for _ in 0..5 {
            ctx.dep_graph();
            ctx.safe_bounds();
            ctx.ugs();
            ctx.locality_score(0, line);
            ctx.tables(&space).expect("depth matches");
        }
        let stats = ctx.stats();
        assert_eq!(
            (
                stats.dep_graph_builds,
                stats.bounds_builds,
                stats.ugs_builds,
                stats.locality_builds,
                stats.cost_table_builds,
            ),
            (1, 1, 1, 1, 1)
        );
    }

    /// The other half of the amortization claim: repeated queries are
    /// served from cache, and the hit counters prove it.  (The first
    /// iteration produces two internal hits — `safe_bounds` re-queries
    /// the dependence graph and `locality`/`tables` re-query the UGS
    /// partition; later iterations hit on every direct query.)
    #[test]
    fn repeated_queries_are_cache_hits() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let mut ctx = AnalysisCtx::new(&nest, &machine).expect("valid");
        let line = machine.line_elems();
        let space = UnrollSpace::new(2, &[0], 4);

        for _ in 0..5 {
            ctx.dep_graph();
            ctx.safe_bounds();
            ctx.ugs();
            ctx.locality_score(0, line);
            ctx.tables(&space).expect("depth matches");
        }
        assert_eq!(
            ctx.stats(),
            CtxStats {
                dep_graph_builds: 1,
                bounds_builds: 1,
                ugs_builds: 1,
                locality_builds: 1,
                cost_table_builds: 1,
                // 4 direct re-queries + 1 internal (from the first
                // safe_bounds build).
                dep_graph_hits: 5,
                bounds_hits: 4,
                // 4 direct re-queries + 2 internal (first locality and
                // first cost-table build both ensure the partition).
                ugs_hits: 6,
                locality_hits: 4,
                cost_table_hits: 4,
            }
        );
    }

    #[test]
    fn build_timings_accumulate_only_on_builds() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let mut ctx = AnalysisCtx::new(&nest, &machine).expect("valid");
        ctx.dep_graph();
        let after_build = ctx.timings();
        ctx.dep_graph();
        ctx.dep_graph();
        assert_eq!(
            ctx.timings().dep_graph_ns,
            after_build.dep_graph_ns,
            "hits must not add build time"
        );
        assert_eq!(ctx.timings().total_ns(), after_build.total_ns());
    }

    #[test]
    fn sinks_receive_hit_and_build_counters() {
        let nest = intro();
        let machine = MachineModel::dec_alpha();
        let sink = CollectingSink::new();
        let mut ctx = AnalysisCtx::with_sink(&nest, &machine, &sink).expect("valid");
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
        let mut ctx = AnalysisCtx::new(&nest, &machine).expect("valid");
        let a = UnrollSpace::new(2, &[0], 4);
        let b = UnrollSpace::new(2, &[0], 6);
        ctx.tables(&a).expect("a");
        ctx.tables(&b).expect("b");
        ctx.tables(&a).expect("a cached");
        assert_eq!(ctx.stats().cost_table_builds, 2);
        assert_eq!(ctx.stats().cost_table_hits, 1);
        // The partition behind both builds was still computed only once.
        assert_eq!(ctx.stats().ugs_builds, 1);
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
}

//! The end-to-end optimizer (§4.5), as thin wrappers over the staged
//! pipeline in [`crate::pipeline`]: decide, then apply.
//!
//! The decide half ([`decide_costed`]) selects loops, builds the tables
//! and searches the unroll space; it returns the winning vector and its
//! predictions, after checking that unroll-and-jam accepts the winner.
//! The apply half rewrites the nest with that vector.  Every
//! `optimize*` function runs both halves over the same decide code, so a
//! caller that needs only the decision (the serving daemon) gets the
//! vector and predictions [`optimize_costed`] would report, without
//! building the unrolled nest.

use crate::balance::{loop_balance, BalanceInputs};
use crate::costmodel::CostModelKind;
use crate::pipeline::{
    AnalysisCtx, ApplyTransform, CancelToken, OptimizeError, Pass, SearchOutcome, SearchSpace,
    SelectLoops,
};
use crate::space::UnrollSpace;
use ujam_ir::{transform::check_unroll, LoopNest};
use ujam_machine::MachineModel;
use ujam_metrics::MetricsHandle;
use ujam_trace::TraceSink;

/// Register-tiling knobs for the search: how many loops the unroll
/// vector may span and how large the unrolled body may grow.
///
/// The default reproduces the paper's arm exactly — at most two loops
/// (§4.5), no code-size cap — so a pipeline driven with
/// `SearchConfig::default()` is bitwise-identical to one driven through
/// [`optimize`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchConfig {
    /// Most loops the unroll vector may span; `0` = unbounded.
    pub max_unroll_loops: usize,
    /// Most statements the unrolled body may hold (`copies × original
    /// statements`, an icache proxy); `None` disables the budget.
    pub code_budget: Option<usize>,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            max_unroll_loops: 2,
            code_budget: None,
        }
    }
}

/// Which balance model guides the search (§5.2's two experimental arms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalanceModel {
    /// Assume every access hits in cache (Carr & Kennedy '94): the "No
    /// Cache" series of Figures 8–9.
    AllHits,
    /// Charge unserviced cache lines at the miss ratio (§3.2): the
    /// "Cache" series.
    CacheAware,
}

impl BalanceModel {
    /// Parses the wire/CLI spelling (`cache`, `allhits`).
    pub fn parse(s: &str) -> Option<BalanceModel> {
        match s {
            "cache" => Some(BalanceModel::CacheAware),
            "allhits" => Some(BalanceModel::AllHits),
            _ => None,
        }
    }
}

/// The predicted behaviour of a (possibly unrolled) loop body.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Loop balance with the cache model (§3.2).
    pub balance: f64,
    /// Loop balance assuming every access hits (the older model).
    pub no_cache_balance: f64,
    /// Memory operations per iteration.
    pub memory_ops: f64,
    /// Floating-point operations per iteration.
    pub flops: f64,
    /// Cache lines fetched per iteration.
    pub cache_lines: f64,
    /// Registers consumed by scalar replacement.
    pub registers: i64,
}

impl Prediction {
    pub(crate) fn from_inputs(i: &BalanceInputs, machine: &MachineModel) -> Prediction {
        Prediction {
            balance: loop_balance(i, machine),
            no_cache_balance: i.no_cache_balance(),
            memory_ops: i.memory_ops,
            flops: i.flops,
            cache_lines: i.cache_lines,
            registers: i.registers,
        }
    }
}

/// Result of the optimization: the chosen unroll vector, the transformed
/// nest, and the predicted before/after behaviour.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The unrolled-and-jammed nest (scalar replacement is a separate,
    /// composable step: `ujam_ir::transform::scalar_replacement`).
    pub nest: LoopNest,
    /// The chosen unroll vector, one entry per nest loop.
    pub unroll: Vec<u32>,
    /// Predicted behaviour at the chosen vector.
    pub predicted: Prediction,
    /// Predicted behaviour of the original loop (`u = 0`).
    pub original: Prediction,
    /// The space that was searched.
    pub space: UnrollSpace,
}

/// Optimizes a nest for a machine: selects loops, builds the tables,
/// searches the unroll space, and applies the winning transformation.
///
/// The search minimizes `|β_L(u) − β_M|` subject to the register
/// constraint (§3.3's integer optimization problem), over unroll vectors
/// that the dependence analysis proves safe and whose factors divide the
/// loop trip counts (so the transformation applies without a clean-up
/// loop).  Ties prefer fewer body copies.
///
/// Malformed nests return an [`OptimizeError`] instead of panicking.
///
/// # Example
///
/// ```
/// use ujam_core::optimize;
/// use ujam_ir::NestBuilder;
/// use ujam_machine::MachineModel;
/// let nest = NestBuilder::new("dmxpy")
///     .array("Y", &[256]).array("X", &[256]).array("M", &[256, 256])
///     .loop_("J", 1, 256).loop_("I", 1, 256)
///     .stmt("Y(I) = Y(I) + X(J) * M(I,J)")
///     .build();
/// let plan = optimize(&nest, &MachineModel::dec_alpha()).expect("valid nest");
/// assert!(plan.unroll[0] >= 1, "dmxpy profits from unrolling J");
/// assert!(plan.predicted.balance < plan.original.balance);
/// ```
pub fn optimize(nest: &LoopNest, machine: &MachineModel) -> Result<Optimized, OptimizeError> {
    optimize_with(nest, machine, BalanceModel::CacheAware)
}

/// [`optimize`] with an explicit cost model (§5.2 compares both arms).
pub fn optimize_with(
    nest: &LoopNest,
    machine: &MachineModel,
    model: BalanceModel,
) -> Result<Optimized, OptimizeError> {
    optimize_configured(
        nest,
        machine,
        model,
        ujam_trace::null_sink(),
        CancelToken::never(),
        MetricsHandle::disabled(),
        SearchConfig::default(),
    )
}

/// [`optimize_costed`] with the analytic cache-cost backend.
///
/// # Example
///
/// ```
/// use ujam_core::{optimize_configured, CancelToken, BalanceModel, SearchConfig};
/// use ujam_ir::NestBuilder;
/// use ujam_machine::MachineModel;
/// use ujam_metrics::MetricsHandle;
/// let nest = NestBuilder::new("mm")
///     .array("A", &[26, 26]).array("B", &[26, 26]).array("C", &[26, 26])
///     .loop_("J", 1, 24).loop_("K", 1, 24).loop_("I", 1, 24)
///     .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
///     .build();
/// let config = SearchConfig { max_unroll_loops: 3, code_budget: Some(64) };
/// let plan = optimize_configured(&nest, &MachineModel::dec_alpha(),
///                                BalanceModel::CacheAware, ujam_trace::null_sink(),
///                                CancelToken::never(), MetricsHandle::disabled(),
///                                config).expect("valid");
/// assert!(plan.nest.body().len() <= 64, "the code budget binds");
/// ```
pub fn optimize_configured(
    nest: &LoopNest,
    machine: &MachineModel,
    model: BalanceModel,
    sink: &dyn TraceSink,
    cancel: CancelToken,
    metrics: MetricsHandle,
    config: SearchConfig,
) -> Result<Optimized, OptimizeError> {
    optimize_costed(
        nest,
        machine,
        model,
        CostModelKind::Analytic,
        sink,
        cancel,
        metrics,
        config,
    )
}

/// The optimizer's one full front door: every other `optimize*`
/// function is a shortcut for a call to this one.
///
/// It decides, then applies: it runs exactly [`decide_costed`]'s
/// passes (`select-loops`, then `search-space` with `build-tables`
/// inside) and then `apply-transform`, which unrolls and jams the
/// winner.  Its `unroll`, `predicted` and `original` are therefore
/// [`decide_costed`]'s for the same arguments.
///
/// * `cost` picks the cache-cost backend: [`CostModelKind::Analytic`]
///   reproduces the classic pipeline bitwise; [`CostModelKind::Profiled`]
///   scores every candidate's cache lines by reuse-distance-profiling
///   the materialized candidate under the IR interpreter (see
///   `ujam_sim::profile_nest`) — exact, but materially slower.
/// * `sink` receives a wall-time span per pass, the analysis context's
///   cache hit/miss counters, and per-candidate decision provenance
///   ([`ujam_trace::ExplainRecord`]).
/// * `cancel` is polled at every pass entry and per candidate, so a
///   fired token (an explicit [`CancelToken::cancel`] or an elapsed
///   deadline) surfaces as [`OptimizeError::DeadlineExceeded`] within a
///   bounded amount of extra work — never as a partial plan, which is
///   what lets a serving layer cache every `Ok` without poisoning.
/// * `metrics` gets a `pass.<name>.ns` histogram per pass.
/// * `config` caps how many loops the unroll vector spans and how large
///   the unrolled body may grow.
///
/// Tracing and metrics observe the pipeline without steering it: the
/// plan is identical whichever sink and handle are passed.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use ujam_core::{
///     optimize_costed, BalanceModel, CancelToken, CostModelKind, OptimizeError, SearchConfig,
/// };
/// use ujam_ir::NestBuilder;
/// use ujam_machine::MachineModel;
/// use ujam_metrics::{MetricsHandle, MetricsRegistry};
/// use ujam_trace::{CollectingSink, Verdict};
/// let nest = NestBuilder::new("intro")
///     .array("A", &[242]).array("B", &[242])
///     .loop_("J", 1, 240).loop_("I", 1, 240)
///     .stmt("A(J) = A(J) + B(I)")
///     .build();
/// let (machine, model) = (MachineModel::dec_alpha(), BalanceModel::CacheAware);
/// let sink = CollectingSink::new();
/// let registry = Arc::new(MetricsRegistry::new());
/// let plan = optimize_costed(&nest, &machine, model, CostModelKind::Analytic, &sink,
///                            CancelToken::never(), MetricsHandle::new(Arc::clone(&registry)),
///                            SearchConfig::default()).expect("valid");
/// let trace = sink.take();
/// let winner = trace.explains().find(|e| e.verdict == Verdict::Won).expect("one wins");
/// assert_eq!(winner.u, plan.unroll);
/// assert!(trace.spans().any(|(_, pass, _)| pass == "search-space"));
/// let snap = registry.snapshot();
/// assert_eq!(snap.histogram("pass.select-loops.ns").unwrap().count, 1);
/// assert_eq!(snap.histogram("pass.search-space.ns").unwrap().count, 1);
///
/// let expired = CancelToken::with_deadline(Duration::ZERO);
/// let err = optimize_costed(&nest, &machine, model, CostModelKind::Analytic,
///                           ujam_trace::null_sink(), expired, MetricsHandle::disabled(),
///                           SearchConfig::default());
/// assert_eq!(err.unwrap_err(), OptimizeError::DeadlineExceeded);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn optimize_costed(
    nest: &LoopNest,
    machine: &MachineModel,
    model: BalanceModel,
    cost: CostModelKind,
    sink: &dyn TraceSink,
    cancel: CancelToken,
    metrics: MetricsHandle,
    config: SearchConfig,
) -> Result<Optimized, OptimizeError> {
    let mut ctx = AnalysisCtx::observed(nest, machine, sink, metrics, cancel)?;
    let (space, found) = decide(&mut ctx, model, cost, config)?;
    apply(&mut ctx, space, found)
}

/// The decide half of [`optimize_costed`], for the same arguments: it
/// selects loops, builds the tables and searches, and returns the
/// winner without applying it.
///
/// Its `unroll`, `predicted` and `original` are bitwise those of
/// [`optimize_costed`], and so is every error, apart from a token that
/// fires after the search: the apply half polls it once more, and the
/// decision does not wait for that poll.  The winner is checked with
/// [`check_unroll`] (an `Err` is [`OptimizeError::Transform`], as
/// applying it would return), so skipping the rewrite never turns an
/// error into a decision.  Tracing and metrics see the three decide
/// passes and no `apply-transform`.
///
/// # Example
///
/// ```
/// use ujam_core::{
///     decide_costed, optimize_costed, BalanceModel, CancelToken, CostModelKind, SearchConfig,
/// };
/// use ujam_ir::NestBuilder;
/// use ujam_machine::MachineModel;
/// use ujam_metrics::MetricsHandle;
/// let nest = NestBuilder::new("dmxpy")
///     .array("Y", &[256]).array("X", &[256]).array("M", &[256, 256])
///     .loop_("J", 1, 256).loop_("I", 1, 256)
///     .stmt("Y(I) = Y(I) + X(J) * M(I,J)")
///     .build();
/// let (machine, model) = (MachineModel::dec_alpha(), BalanceModel::CacheAware);
/// let found = decide_costed(&nest, &machine, model, CostModelKind::Analytic,
///                           ujam_trace::null_sink(), CancelToken::never(),
///                           MetricsHandle::disabled(), SearchConfig::default()).expect("valid");
/// let plan = optimize_costed(&nest, &machine, model, CostModelKind::Analytic,
///                            ujam_trace::null_sink(), CancelToken::never(),
///                            MetricsHandle::disabled(), SearchConfig::default()).expect("valid");
/// assert_eq!((&found.unroll, found.predicted), (&plan.unroll, plan.predicted));
/// // Only the plan carries the unrolled nest: one body copy per J copy.
/// assert_eq!(plan.nest.body().len(), found.unroll[0] as usize + 1);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn decide_costed(
    nest: &LoopNest,
    machine: &MachineModel,
    model: BalanceModel,
    cost: CostModelKind,
    sink: &dyn TraceSink,
    cancel: CancelToken,
    metrics: MetricsHandle,
    config: SearchConfig,
) -> Result<SearchOutcome, OptimizeError> {
    let mut ctx = AnalysisCtx::observed(nest, machine, sink, metrics, cancel)?;
    decide(&mut ctx, model, cost, config).map(|(_, found)| found)
}

/// [`optimize`] with an explicit, caller-chosen unroll space.
///
/// A space whose depth does not match the nest returns
/// [`OptimizeError::DepthMismatch`].
pub fn optimize_in_space(
    nest: &LoopNest,
    machine: &MachineModel,
    space: &UnrollSpace,
) -> Result<Optimized, OptimizeError> {
    let mut ctx = AnalysisCtx::new(nest, machine)?;
    let (model, cost) = (BalanceModel::CacheAware, CostModelKind::Analytic);
    let found = decide_in_space(&mut ctx, space, model, cost, None)?;
    apply(&mut ctx, space.clone(), found)
}

/// The decide half against a prepared context: `SelectLoops`, then
/// [`decide_in_space`] over the selected space.
fn decide(
    ctx: &mut AnalysisCtx<'_>,
    model: BalanceModel,
    cost: CostModelKind,
    config: SearchConfig,
) -> Result<(UnrollSpace, SearchOutcome), OptimizeError> {
    let space = SelectLoops {
        max_loops: config.max_unroll_loops,
    }
    .run_traced(ctx)?;
    let found = decide_in_space(ctx, &space, model, cost, config.code_budget)?;
    Ok((space, found))
}

/// `SearchSpace` (with `BuildTables` inside), then [`check_unroll`] on
/// the winner.
fn decide_in_space(
    ctx: &mut AnalysisCtx<'_>,
    space: &UnrollSpace,
    model: BalanceModel,
    cost: CostModelKind,
    code_budget: Option<usize>,
) -> Result<SearchOutcome, OptimizeError> {
    let found = SearchSpace {
        space: space.clone(),
        model,
        cost,
        code_budget,
    }
    .run_traced(ctx)?;
    check_unroll(ctx.nest(), &found.unroll).map_err(OptimizeError::Transform)?;
    Ok(found)
}

/// The apply half: `ApplyTransform` on a decided winner.
fn apply(
    ctx: &mut AnalysisCtx<'_>,
    space: UnrollSpace,
    found: SearchOutcome,
) -> Result<Optimized, OptimizeError> {
    let nest = ApplyTransform {
        unroll: found.unroll.clone(),
    }
    .run_traced(ctx)?;
    Ok(Optimized {
        nest,
        unroll: found.unroll,
        predicted: found.predicted,
        original: found.original,
        space,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ujam_ir::NestBuilder;

    fn intro(n: i64) -> LoopNest {
        NestBuilder::new("intro")
            .array("A", &[n + 2])
            .array("B", &[n + 2])
            .loop_("J", 1, n)
            .loop_("I", 1, n)
            .stmt("A(J) = A(J) + B(I)")
            .build()
    }

    #[test]
    fn intro_loop_is_unrolled_toward_machine_balance() {
        let plan = optimize(&intro(240), &MachineModel::dec_alpha()).expect("valid nest");
        assert!(
            plan.unroll[0] >= 1,
            "J should be unrolled: {:?}",
            plan.unroll
        );
        assert_eq!(plan.unroll[1], 0);
        assert!(plan.predicted.no_cache_balance < plan.original.no_cache_balance);
        // The transformed nest is really unrolled.
        assert_eq!(plan.nest.body().len(), plan.unroll[0] as usize + 1);
    }

    #[test]
    fn register_constraint_limits_unrolling() {
        let tiny = MachineModel::builder("tiny")
            .rates(1.0, 1.0)
            .registers(8)
            .cache(8 * 1024, 32, 1)
            .miss(20.0, 1.0)
            .build();
        let big = MachineModel::builder("big")
            .rates(1.0, 4.0)
            .registers(128)
            .cache(8 * 1024, 32, 1)
            .miss(20.0, 1.0)
            .build();
        let nest = intro(240);
        let small_plan = optimize(&nest, &tiny).expect("valid nest");
        let big_plan = optimize(&nest, &big).expect("valid nest");
        assert!(small_plan.predicted.registers <= 2);
        assert!(big_plan.unroll[0] >= small_plan.unroll[0]);
    }

    #[test]
    fn balanced_loop_is_left_alone() {
        // One load, two flops on a 0.5-balance machine: already matched.
        let nest = NestBuilder::new("bal")
            .array("A", &[242])
            .array("B", &[242])
            .loop_("J", 1, 240)
            .loop_("I", 1, 240)
            .stmt("A(J) = A(J) + B(I) * B(I) + 2.0")
            .build();
        // no_cache model: M = 1 (B load; A hoisted), F = 3.
        let machine = MachineModel::builder("match")
            .rates(1.0, 3.0)
            .registers(32)
            .cache(8 * 1024, 32, 1)
            .miss(1.0, 1.0) // miss ratio 1: cache term negligible
            .build();
        let plan = optimize(&nest, &machine).expect("valid nest");
        assert_eq!(
            plan.unroll,
            vec![0, 0],
            "already-balanced loop must not be unrolled"
        );
    }

    #[test]
    fn dependence_safety_bounds_the_search() {
        // A(I,J) = A(I+1,J-2): unrolling J beyond 1 is illegal.
        let nest = NestBuilder::new("bw")
            .array("A", &[244, 244])
            .loop_("J", 3, 242)
            .loop_("I", 2, 241)
            .stmt("A(I,J) = A(I+1,J-2) * 0.5")
            .build();
        let plan = optimize(&nest, &MachineModel::dec_alpha()).expect("valid nest");
        assert!(
            plan.unroll[0] <= 1,
            "safety bound violated: {:?}",
            plan.unroll
        );
    }

    #[test]
    fn matmul_unrolls_two_loops_on_wide_machine() {
        let nest = NestBuilder::new("mm")
            .array("A", &[64, 64])
            .array("B", &[64, 64])
            .array("C", &[64, 64])
            .loop_("J", 1, 60)
            .loop_("K", 1, 60)
            .loop_("I", 1, 60)
            .stmt("C(I,J) = C(I,J) + A(I,K) * B(K,J)")
            .build();
        let machine = MachineModel::builder("wide")
            .rates(1.0, 2.0)
            .registers(64)
            .cache(8 * 1024, 32, 1)
            .miss(10.0, 1.0)
            .build();
        let plan = optimize(&nest, &machine).expect("valid nest");
        let unrolled_loops = plan.unroll.iter().filter(|&&u| u > 0).count();
        assert!(
            unrolled_loops >= 1,
            "matmul should be unrolled: {:?}",
            plan.unroll
        );
        assert!(plan.predicted.balance <= plan.original.balance);
    }

    #[test]
    fn depth_mismatch_is_an_error() {
        let nest = intro(240);
        let space = UnrollSpace::new(3, &[0], 4);
        let err = optimize_in_space(&nest, &MachineModel::dec_alpha(), &space).unwrap_err();
        assert_eq!(err, OptimizeError::DepthMismatch { nest: 2, space: 3 });
    }

    /// Regression for the NaN-unsafe loop-selection sort: degenerate
    /// nests (zero-benefit loops, exact score ties across every
    /// candidate) must select deterministically and never panic.  The
    /// seed sorted with `partial_cmp(..).expect("scores are finite")`.
    #[test]
    fn degenerate_locality_scores_select_without_panicking() {
        // Every outer loop is absent from every subscript: all locality
        // scores are exactly equal (a maximal tie), and pure in-place
        // updates keep them degenerate.
        let nest = NestBuilder::new("degen")
            .array("A", &[26])
            .loop_("L", 1, 24)
            .loop_("K", 1, 24)
            .loop_("J", 1, 24)
            .loop_("I", 1, 24)
            .stmt("A(I) = A(I) * 0.5")
            .build();
        let plan = optimize(&nest, &MachineModel::dec_alpha()).expect("valid nest");
        assert_eq!(plan.unroll.len(), 4);
        // Deterministic: a re-run picks the same vector.
        let again = optimize(&nest, &MachineModel::dec_alpha()).expect("valid nest");
        assert_eq!(plan.unroll, again.unroll);
    }
}
